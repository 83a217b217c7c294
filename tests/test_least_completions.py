"""The shared suffix pass of `least_completions` against the pass it
replaced (`_reference_least_completions`: one heap per call, every item at
the end of the prefix settled again by each call).  Both must return the
same words on every call, however calls on one grammar interleave."""

import heapq
import itertools
import random
import sys
from collections import defaultdict

import pytest

from conftest import declared, dense_chart, symbol_ranks
from test_cfg import _random_cfg
from test_differential import _generic_twin
from whsg import cfg as cfglib
from whsg import fixtures
from whsg.arithmetic import multiply, represent, word_eq
from whsg.cfg import Cfg, _cyk_masks, cnf_of, least_completions
from whsg.structure import validate_necessary
from whsg.words import SEP1, SEP2, shortlex_key


def _reference_least_completions(g, prefix, ranks=None, k=1, maxlen=None,
                                 suffix_words=None):
    """The pass the shared suffix pass replaced; with a set for
    suffix_words it also collects the (node, length, word) it settles at
    the end of the prefix."""
    if ranks is None:
        ranks = symbol_ranks(g.terminals)
    x = tuple(prefix)
    n = len(x)
    if g.flat_words is not None:
        tails = {tuple(reversed(w[n:])) for w in g.flat_words
                 if len(w) > n and w[:n] == x
                 and (maxlen is None or len(w) - n <= maxlen)}
        return sorted(tails, key=shortlex_key(ranks))[:k]
    limit = sys.maxsize if maxlen is None else maxlen
    cnf = cnf_of(g)
    masks, live, _allow = dense_chart(_cyk_masks(cnf, x), x)
    heap = [(1, (r,), n, a) for a, syms in cnf.term_bodies.items()
            for r in sorted({ranks[s] for s in syms})[:k]]
    heapq.heapify(heap)
    start = cnf.start
    many = k > 1
    out = []
    best = {}
    more = defaultdict(list)
    full = set() if many else best
    opened = defaultdict(list)
    while heap:
        m, w, i, a = heapq.heappop(heap)
        if m > limit:
            break
        it = (i, a)
        if it in full:
            continue
        if many and it in best:
            later = more[it]
            if (later[-1] if later else best[it]) == (m, w):
                continue
            later.append((m, w))
            if len(later) == k - 1:
                full.add(it)
        else:
            best[it] = (m, w)
        if i == n and suffix_words is not None:
            suffix_words.add((a, m, w))
        if i == 0 and a == start:
            out.append(w)
            if len(out) == k:
                break
        opened[a].append((i, m, w))
        for head, b in cnf.right_index.get(a, ()):
            row = masks[b]
            for l in live[b]:
                if l > i:
                    break
                if row[l] >> (i - l) & 1 and (i - l, head) not in full:
                    heapq.heappush(heap, (m, w, i - l, head))
            if i == n:
                for j, m2, w2 in opened[b]:
                    if (j, head) not in full:
                        heapq.heappush(heap, (m + m2, w + w2, j, head))
        for head, c in cnf.left_index.get(a, ()):
            right = best.get((n, c))
            if right is not None and (i, head) not in full:
                heapq.heappush(heap, (right[0] + m, right[1] + w, i, head))
                if many:
                    for m2, w2 in more.get((n, c), ()):
                        heapq.heappush(heap, (m2 + m, w2 + w, i, head))
    symbol = {r: s for s, r in ranks.items()}
    return [tuple(symbol[r] for r in w) for w in out]


@pytest.fixture
def calls(monkeypatch):
    """Serve every least_completions call the library makes and record it
    once per prefix, with its answer and the reference's on that prefix,
    and whether each suffix word the call settled in the shared pass is one
    the reference settled on some prefix of the call."""
    seen = []
    ours = cfglib.least_completions
    step = cfglib._Pass.step
    stepped = []

    def recorded_step(self):
        got = step(self)
        if got is not None:
            stepped.append((self, got))
        return got

    def settled(g):
        # only the steps of the reversed passes that least_completions shares
        shared = list(cnf_of(g).passes.values()) if stepped else []
        return [word for p, word in stepped if any(p is q for q in shared)]

    def both(g, prefixes, k=1, maxlen=None):
        prefixes = list(prefixes)
        stepped.clear()
        got = ours(g, prefixes, k, maxlen)
        suffix = settled(g)
        suffix_words = set()
        wants = [_reference_least_completions(g, prefix, None, k, maxlen,
                                              suffix_words)
                 for prefix in prefixes]
        lazy = suffix_words.issuperset(suffix)
        for one, want in zip(got, wants, strict=True):
            seen.append((k, one, want, lazy))
        return got

    monkeypatch.setattr(cfglib._Pass, "step", recorded_step)
    monkeypatch.setattr(cfglib, "least_completions", both)
    return seen


def _assert_same(seen):
    assert seen
    for _k, got, want, lazy in seen:
        assert got == want
        assert lazy


def _words(rng, alphabet, lo, hi):
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def test_bicyclic_session_matches_reference(calls):
    """45 queries on one structure, so later calls find the shared pass
    advanced by earlier ones."""
    s = fixtures.bicyclic()
    rng = random.Random(1)
    for _ in range(15):
        u, v = _words(rng, s.alphabet, 32, 64), _words(rng, s.alphabet, 32, 64)
        p = represent(s, u)
        multiply(s, p, represent(s, v[:8]))
        word_eq(s, u + v, v + u)
    _assert_same(calls)


def test_free2_word_problem_at_length_64_matches_reference(calls):
    s = fixtures.free2()
    rng = random.Random(2)
    u = _words(rng, s.alphabet, 64, 64)
    v = u[:-1] + tuple(x for x in s.alphabet if x != u[-1])
    assert word_eq(s, u, u)
    assert not word_eq(s, u, v)
    _assert_same(calls)


@pytest.mark.parametrize("name", ["rees", "bicyclic"])
def test_validate_necessary_matches_reference(name, calls):
    s = fixtures.NAMED[name]()
    if s.table.flat_words is not None:
        s = _generic_twin(s)
    assert validate_necessary(s)
    assert any(k == 3 for k, *_ in calls)
    _assert_same(calls)


def test_interleaved_calls_on_one_grammar_match_fresh_reference():
    """The table, declared in two orders, serves every k pass of each in
    turn; each answer must equal the reference's on a fresh copy of the
    grammar, whatever ran on the shared one before."""
    table = fixtures.bicyclic().table
    rng = random.Random(3)
    entries = cfglib.enumerate_words(table, 8)
    prefixes = {()}
    for n in range(1, 7):
        for w in rng.sample([w for w in entries if len(w) >= n], 3):
            prefixes.add(w[:n])
        prefixes.add(_words(rng, table.terminals, n, n))
    orders = [table, declared(table, tuple(reversed(table.terminals)))]
    runs = list(itertools.product(sorted(prefixes), (1, 3), orders, (None, 2, 4)))
    rng.shuffle(runs)
    assert len(runs) > 200
    sizes = []
    for prefix, k, g, maxlen in runs:
        fresh = Cfg(g.nonterminals, g.terminals, g.start, g.productions)
        want = _reference_least_completions(fresh, prefix, None, k, maxlen)
        assert least_completions(g, [prefix], k, maxlen)[0] == want
        sizes.append(len(want))
    assert [len(cnf_of(g).passes) for g in orders] == [2, 2]
    assert {0, 1, 2, 3} <= set(sizes)


def test_joined_chart_is_each_words_chart_side_by_side():
    """A chart of words joined by _BREAK holds at each word's offset that
    word's own chart (rows and allow masks, no span across a break), and
    least_completions answers each prefix of the joined chart as it
    answers that prefix alone."""
    rng = random.Random(32)
    cases = 0
    for _ in range(150):
        g = _random_cfg(rng)
        cnf = cnf_of(g)
        for _ in range(8):
            pieces = [_words(rng, ("a", "b"), 0, 5)
                      for _ in range(rng.randint(2, 5))]
            joined, bounds = [], []
            for x in pieces:
                if bounds:
                    joined.append(cfglib._BREAK)
                bounds.append((len(joined), len(joined) + len(x)))
                joined.extend(x)
            own = [dense_chart(_cyk_masks(cnf, x), x) for x in pieces]
            masks, live, allow = dense_chart(_cyk_masks(cnf, tuple(joined)),
                                             joined)
            longest = max(map(len, pieces))
            for a in range(cnf.size):
                assert len(masks[a]) == longest + 1 or live[a] == []
                for l in range(1, longest + 1):
                    assert masks[a][l] == sum(
                        chart[0][a][l] << s for chart, (s, e) in zip(own, bounds)
                        if l <= e - s)
                assert live[a] == sorted({l for chart in own for l in chart[1][a]})
                for chart, (s, e) in zip(own, bounds):
                    assert allow[a] >> s & ((2 << (e - s)) - 1) == chart[2][a]
            assert least_completions(g, pieces) == [
                least_completions(g, [x])[0] for x in pieces]
            cases += 1
    assert cases == 1200


@pytest.mark.parametrize("name", ["bicyclic", "free2", "free2c"])
def test_joined_chart_serves_k_least_completions_under_a_bound(name):
    """k = 3 and a length bound on a joined chart: each prefix of a batch,
    the empty prefix and prefixes cut inside a table word among them, is
    answered as the reference answers it alone."""
    table = fixtures.NAMED[name]().table
    rng = random.Random(name)
    entries = cfglib.enumerate_words(table, 9)
    pool = [()]
    for w in rng.sample(entries, min(40, len(entries))):
        pool += [w[:rng.randint(1, len(w))], w[:w.index(SEP2) + 1]]
    cases = 0
    for _ in range(40):
        batch = rng.sample(pool, rng.randint(2, 5))
        if rng.random() < 0.3:
            batch.insert(rng.randint(0, len(batch)), ())
        for k, maxlen in itertools.product((1, 3), (None, 1, 3)):
            want = [_reference_least_completions(table, x, None, k, maxlen)
                    for x in batch]
            assert least_completions(table, batch, k, maxlen) == want, batch
            cases += any(len(got) > 1 for got in want)
    assert cases


@pytest.mark.parametrize("cap", [cfglib._JOIN_CAP, 16])
def test_lists_wider_than_the_cap_answer_word_by_word(monkeypatch, cap):
    """least_completions and memberships given more symbols than one chart
    takes answer each word as a call of its own does; no chart joins words
    past the cap, and a word longer than the cap is charted alone."""
    monkeypatch.setattr(cfglib, "_JOIN_CAP", cap)
    s = fixtures.bicyclic()
    table = s.table
    rng = random.Random(cap)
    p, q = ("b",) * 8, ("a",) * 9
    long = p + (SEP1,) + q + (SEP2,) + multiply(s, p, q)[::-1]
    assert len(long) > 16
    words = rng.choices(cfglib.enumerate_words(table, 9), k=700)
    words = [w[:-1] + (rng.choice(s.alphabet),) for w in words[:100]] + words
    words.insert(len(words) // 2, long)
    words += [(), ("z",), long + ("z",)]  # none a table word
    prefixes = [w[:rng.randint(0, len(w))] for w in words]
    assert sum(map(len, prefixes)) > cap < sum(map(len, words))
    chart = cfglib._cyk_masks
    charted = []
    monkeypatch.setattr(cfglib, "_cyk_masks",
                        lambda cnf, w: charted.append(w) or chart(cnf, w))
    got = cfglib.memberships(table, words)
    completions = [least_completions(table, prefixes, k, maxlen)
                   for k, maxlen in ((1, None), (3, 4))]
    assert all(len(w) <= cap or cfglib._BREAK not in w for w in charted)
    assert len(charted) > 2 and (long in charted) == (len(long) > cap)
    assert all(got[100:-3]) and not any(got[-3:]) and not all(got[:100])
    assert got == [cfglib.memberships(table, [w])[0] for w in words]
    for (k, maxlen), batch in zip(((1, None), (3, 4)), completions):
        assert batch == [least_completions(table, [x], k, maxlen)[0]
                         for x in prefixes]
