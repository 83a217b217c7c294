"""Property tests of normalization, enumeration, shortest words, least
completions, regular intersection, the CYK chart and the merging of
bisimilar nodes on random grammars with empty and unit bodies, against
brute force, the reference passes and the lowering as written."""

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import knuth_reference
import normalize_reference
from conftest import all_words, declared, dense_chart, symbol_ranks
from test_cfg import _may_begin_after, _random_cfg
from test_differential import _unflatten_cfg
from whsg import cfg as cfglib
from whsg import fixtures
from whsg.cfg import Cfg
from whsg.nfa import Nfa
from whsg.partition import _refine, bisimilar_blocks
from whsg.words import shortlex_key

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

NONTERMINALS = ("N0", "N1", "N2", "N3", "N4")
WORDS = all_words(("a", "b"), 5, minlen=0)


@st.composite
def grammars(draw):
    nts = list(NONTERMINALS[:draw(st.integers(1, len(NONTERMINALS)))])
    body = st.lists(st.sampled_from(nts + ["a", "b"]), max_size=3).map(tuple)
    prods = draw(st.lists(st.tuples(st.sampled_from(nts), body), max_size=10))
    return Cfg(nts, ("a", "b"), "N0", prods)


STATE_NAMES = {"int": lambda i: i, "str": lambda i: f"q{i}",
               "tuple": lambda i: ("q", i)}


@st.composite
def automata(draw):
    """Automata over {a, b} with up to three initial states, a state no
    initial state reaches (accepting, so that a top pair has no item) and
    a dead state that reaches no accepting one."""
    name = STATE_NAMES[draw(st.sampled_from(sorted(STATE_NAMES)))]
    n = draw(st.integers(1, 4))
    states = [name(i) for i in range(n)]
    state = st.sampled_from(states)
    trans = draw(st.lists(st.tuples(state, st.sampled_from(("a", "b")), state),
                          max_size=10))
    initial = draw(st.lists(state, min_size=1, max_size=3))
    accepting = draw(st.lists(state, max_size=3))
    unreachable, dead = name(n), name(n + 1)
    trans += [(unreachable, "a", states[0]), (unreachable, "b", unreachable),
              (states[-1], "b", dead), (dead, "a", dead)]
    return Nfa(states + [unreachable, dead], ("a", "b"), trans, initial,
               accepting + [unreachable])


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(grammars())
def test_enumeration_and_shortest_word_match_cyk(g):
    members = sorted((w for w in WORDS if cfglib.membership(g, w)),
                     key=shortlex_key(symbol_ranks(g.terminals)))
    assert cfglib.enumerate_words(g, 5) == members
    shortest = cfglib.shortest_word(g)
    if members:
        assert shortest == members[0]
    else:
        assert shortest is None or len(shortest) > 5


@st.composite
def cyclic_grammars(draw):
    """grammars() with one more epsilon body and a cycle of unit rules."""
    g = draw(grammars())
    nts = list(g.nonterminals)
    cycle = draw(st.lists(st.sampled_from(nts), min_size=1, max_size=3))
    prods = list(g.productions) + [(draw(st.sampled_from(nts)), ())]
    prods += [(x, (y,)) for x, y in zip(cycle, cycle[1:] + cycle[:1])]
    return Cfg(nts, g.terminals, g.start, prods)


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(grammars(), grammars())
def test_normalize_matches_reference(g, g2):
    # each writer gets its own copy, since both keep their result on it;
    # the union names its nonterminals by tuples, and the reversed copy
    # declares them out of their sorted order
    backward = Cfg(g.nonterminals[::-1], g.terminals, g.start, g.productions)
    for h in (g, backward, cfglib.union_cfgs([g, g2], ("a", "b"))):
        got, want = (write(Cfg(h.nonterminals, h.terminals, h.start,
                               h.productions))
                     for write in (cfglib.normalize,
                                   normalize_reference.normalize))
        assert (got.nonterminals, got.start, got.productions) == \
            (want.nonterminals, want.start, want.productions)


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(cyclic_grammars())
def test_least_words_match_knuth_reference(g):
    for order in (("a", "b"), ("b", "a")):
        ranks = symbol_ranks(order)
        assert cfglib.shortest_word(declared(g, order)) == \
            knuth_reference.shortest_word(g, ranks)
        assert cfglib.enumerate_words(declared(g, order), 6) == \
            knuth_reference.enumerate_words(g, 6, ranks)


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(grammars(), automata())
def test_intersect_regular_matches_brute_force(g, a):
    # the words of g up to length 5 that a accepts, but the empty word,
    # which every product drops
    expected = sorted((w for w in WORDS
                       if w and a.accepts(w) and cfglib.membership(g, w)),
                      key=shortlex_key(symbol_ranks(g.terminals)))
    assert cfglib.enumerate_words(cfglib.intersect_regular(g, a), 5) == expected


@hypothesis.settings(max_examples=400, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(grammars(), automata())
def test_least_word_matches_shortest_word_of_product(g, a):
    for h in (g, declared(g, ("b", "a"))):
        product = cfglib.intersect_regular(h, a)
        assert cfglib.least_word(h, a) == cfglib.shortest_word(product)


@st.composite
def flat_grammars(draw):
    """A start symbol with word bodies only: a flat table's `flat_words`."""
    words = draw(st.lists(st.sampled_from(WORDS), max_size=8))
    g = Cfg(["N0"], ("a", "b"), "N0", [("N0", w) for w in words])
    assert g.flat_words is not None
    return g


@hypothesis.settings(max_examples=600, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(st.one_of(grammars(), flat_grammars()), automata())
def test_intersects_matches_least_word(g, a):
    # an automaton and its complement split the nonempty words, so every
    # grammar with one meets at least one of them: both outcomes occur; a
    # flat grammar is asked again through its generic twin
    twins = (g, _unflatten_cfg(g)) if g.flat_words is not None else (g,)
    for h in twins:
        for space in (a, a.complement(("a", "b"))):
            assert cfglib.intersects(h, space) == \
                (cfglib.least_word(h, space) is not None)


def test_least_word_ties_between_mixed_states():
    # two runs read "a" into a str state and a tuple state: their items tie
    # on (length, word), and the states themselves do not compare
    g = Cfg(["S", "A", "B"], ("a", "b"), "S",
            [("S", ("A", "B")), ("A", ("a",)), ("B", ("b",)), ("S", ("S", "B"))])
    a = Nfa(["s", "x", ("x",), ("f", 0), "f"], ("a", "b"),
            [("s", "a", "x"), ("s", "a", ("x",)), ("x", "b", "f"),
             (("x",), "b", ("f", 0)), (("f", 0), "b", "f"), ("f", "b", ("f", 0))],
            ["s"], ["f", ("f", 0)])
    assert cfglib.least_word(g, a) == ("a", "b")
    only_long = Nfa(a.states, a.alphabet, [("s", "a", "x"), ("s", "a", ("x",)),
                                           ("x", "b", ("f", 0)), (("x",), "b", "f"),
                                           ("f", "b", ("f", 0))],
                    ["s"], [("f", 0)])
    for aut in (a, only_long):
        want = cfglib.shortest_word(cfglib.intersect_regular(g, aut))
        assert cfglib.least_word(g, aut) == want
    assert cfglib.least_word(g, only_long) == ("a", "b")


def _plain_cyk(cnf, w):
    """Set of (node, i, l) with node deriving w[i:i+l], by the textbook
    recurrence over the binarized grammar."""
    n = len(w)
    chart = {(a, i, 1) for i, sym in enumerate(w) for a in cnf.by_sym.get(sym, ())}
    for l in range(2, n + 1):
        for i in range(n - l + 1):
            for a, b, c in cnf.binary:
                if any((b, i, k) in chart and (c, i + k, l - k) in chart
                       for k in range(1, l)):
                    chart.add((a, i, l))
    return chart


@hypothesis.settings(max_examples=200, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(st.lists(st.sampled_from(WORDS), max_size=6),
                  st.lists(st.sampled_from(WORDS), max_size=6), automata())
def test_flat_grammars_need_no_shortcut(words, more, a):
    # the operations that lost their flat_words shortcut agree, on flat
    # grammars and on their generic twins, with the set one-liners that
    # were those shortcuts
    key = shortlex_key(symbol_ranks(("a", "b")))
    flat, other = (Cfg.from_words(("a", "b"), ws) for ws in (words, more))
    assert flat.flat_words is not None and other.flat_words is not None
    words, more = set(words), set(more)
    for g, g2 in ((flat, other), (_unflatten_cfg(flat), _unflatten_cfg(other))):
        assert cfglib.derives_epsilon(g) == (() in words)
        normal = cfglib.normalize(g)
        assert set(cfglib.enumerate_words(normal, 8)) == words - {()}
        assert cfglib.shortest_word(g) == min(words, key=key, default=None)
        assert cfglib.enumerate_words(g, 3) == sorted(
            (w for w in words if len(w) <= 3), key=key)
        product = cfglib.intersect_regular(g, a)
        assert set(cfglib.enumerate_words(product, 8)) == {
            w for w in words if w and a.accepts(w)}
        union = cfglib.union_cfgs([g, g2], ("a", "b"))
        assert set(cfglib.enumerate_words(union, 8)) == words | more


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(grammars(), st.lists(st.sampled_from(("a", "b")), max_size=7))
def test_chart_and_membership_match_plain_cyk(g, w):
    w = tuple(w)
    cnf = cfglib.cnf_of(g)
    # the chart keeps only the items whose node may begin after the symbol
    # before them
    before = _may_begin_after(cnf)
    chart = {(a, i, l) for a, i, l in _plain_cyk(cnf, w)
             if (w[i - 1] if i else None) in before.get(a, ())}
    masks, live, _allow = dense_chart(cfglib._cyk_masks(cnf, w), w)
    for a in range(cnf.size):
        assert live[a] == sorted({l for b, _i, l in chart if b == a})
        for l in range(1, len(w) + 1):
            assert masks[a][l] == sum(1 << i for i in range(len(w) - l + 1)
                                      if (a, i, l) in chart)
    if w:
        assert cfglib.membership(g, w) == ((cnf.start, 0, len(w)) in chart)


@hypothesis.settings(max_examples=200, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(grammars())
def test_left_context_admits_every_item_on_a_derivation(g):
    # the items of every derivation of every member of length <= 6, read
    # top-down off the unpruned chart
    cnf = cfglib.cnf_of(g)
    after = cfglib._after(cnf)
    for w in knuth_reference.enumerate_words(g, 6):
        if not w:
            continue
        chart = _plain_cyk(cnf, w)
        top = (cnf.start, 0, len(w))
        assert top in chart
        todo, seen = [top], {top}
        while todo:
            a, i, l = todo.pop()
            assert a in after.get(w[i - 1] if i else None, ()), (w, a, i, l)
            for b, c in cnf.binary_by_head.get(a, ()):
                for k in range(1, l):
                    left, right = (b, i, k), (c, i + k, l - k)
                    if left in chart and right in chart:
                        for it in (left, right):
                            if it not in seen:
                                seen.add(it)
                                todo.append(it)


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(st.randoms(use_true_random=False),
                  st.lists(st.sampled_from(("a", "b")), max_size=4))
def test_least_completions_match_brute_force(rng, prefix):
    # the oracle: every word of length <= |x| + L starting with x, its tail
    # reversed, in shortlex order
    g = _random_cfg(rng)
    x = tuple(prefix)
    L = 4
    for order in (("a", "b"), ("b", "a")):
        ranks = symbol_ranks(order)
        tails = sorted({w[len(x):][::-1]
                        for w in cfglib.enumerate_words(g, len(x) + L)
                        if len(w) > len(x) and w[:len(x)] == x},
                       key=shortlex_key(ranks))
        for k in (1, 2, 3):
            for maxlen in (1, 2, 3, L):
                expected = [w for w in tails if len(w) <= maxlen][:k]
                assert cfglib.least_completions(
                    declared(g, order), [x], k, maxlen)[0] == expected
            # unbounded: the words up to length L come first, any others are
            # longer
            got = cfglib.least_completions(declared(g, order), [x], k)[0]
            assert got[:len(tails[:k])] == tails[:k]
            assert len(got) <= k
            assert all(len(w) > L for w in got[len(tails[:k]):])


def _written(g):
    """The lowering of g's normal form as written, no nodes merged."""
    return cfglib.lowered_of(cfglib.normalize(g))


def _accepts(low, w):
    row = cfglib._cyk_masks(low, w)[0][low.start]
    return row is not None and bool(row[len(w)] & 1)


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(grammars())
def test_merged_lowering_accepts_what_the_written_one_does(g):
    merged, written = cfglib.cnf_of(g), _written(g)
    assert merged.size <= written.size
    for w in all_words(("a", "b"), 6):
        assert _accepts(merged, w) == _accepts(written, w), w
    # merging is idempotent: the merged lowering has no two bisimilar nodes
    block, reps, _rules = bisimilar_blocks(merged.size, merged.term_bodies,
                                           merged.binary)
    assert list(block) == list(reps) == list(range(merged.size))


def _refined_alone(low):
    """bisimilar_blocks' partition of low's nodes as `_refine`
    finds it from every node's terminal bodies, no node settled first;
    blocks numbered by their least node."""
    rules = [[] for _ in range(low.size)]
    for r in low.binary:
        rules[r[0]].append(r)
    label = [-1] * low.size
    _refine(range(low.size), label, 0, low.term_bodies, rules)
    index: dict = {}
    return [index.setdefault(x, len(index)) for x in label]


# X and Y share their one binary body, and X has a terminal body too
_SHARED_BODY = Cfg(["S", "X", "Y", "A"], ("a", "b", "c"), "S",
                   [("S", ("X", "b")), ("S", ("Y", "c")), ("X", ("a",)),
                    ("X", ("A", "A")), ("Y", ("A", "A")), ("A", ("a",))])


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(grammars())
@hypothesis.example(_SHARED_BODY)
@hypothesis.example(fixtures.bicyclic().table)
@hypothesis.example(fixtures.free2().table)
@hypothesis.example(_unflatten_cfg(fixtures.rees().table))
def test_settling_acyclic_nodes_first_keeps_the_refined_partition(g):
    # the nodes that reach no cycle are settled by the keys of their bodies
    # before the refinement runs; the refinement alone must agree
    low = _written(g)
    block, _reps, _rules = bisimilar_blocks(low.size, low.term_bodies,
                                            low.binary)
    assert list(block) == _refined_alone(low)


@contextmanager
def _written_lowering():
    """Every query reads the lowering as written in place of cnf_of's."""
    merged = cfglib.cnf_of
    cfglib.cnf_of = _written
    try:
        yield
    finally:
        cfglib.cnf_of = merged


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(grammars(), automata(),
                  st.lists(st.sampled_from(("a", "b")), max_size=3))
def test_merged_lowering_answers_as_the_written_one(g, a, prefix):
    def answers():
        out = []
        for h in (g, declared(g, ("b", "a"))):
            out += [cfglib.least_completions(h, [prefix], k)[0]
                    for k in (1, 2, 3)]
            out.append(cfglib.least_word(h, a))
        return out

    merged = answers()
    with _written_lowering():
        assert answers() == merged


def test_merged_lowering_is_numbered_alike_under_every_hash_seed():
    # string nonterminals hash differently under each seed; the blocks are
    # numbered by their least node, which the normal form's order fixes
    rng = random.Random(30)
    grammars = [_random_cfg(rng) for _ in range(200)]
    grammars += [_unflatten_cfg(fixtures.rees().table)]
    data = json.dumps([[g.nonterminals, g.terminals, g.start, g.productions]
                       for g in grammars])
    script = ("import json, sys\n"
              "from whsg import cfg, fixtures\n"
              "out = []\n"
              "for nts, ts, start, prods in json.loads(sys.stdin.read()):\n"
              "    cnf = cfg.cnf_of(cfg.Cfg(nts, ts, start, prods))\n"
              "    out.append([cnf.size, sorted(cnf.term_bodies.items()),\n"
              "                cnf.binary])\n"
              "cnf = cfg.cnf_of(fixtures.bicyclic().table)\n"
              "out.append([cnf.size, sorted(cnf.term_bodies.items()),\n"
              "            cnf.binary])\n"
              "print(json.dumps(out))\n")
    src = str(Path(cfglib.__file__).resolve().parent.parent)
    seen = set()
    for seed in (0, 1, 2):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], input=data,
                             env=env, capture_output=True, text=True,
                             check=True)
        seen.add(out.stdout)
    assert len(seen) == 1
    sizes = [size for size, _t, _b in json.loads(seen.pop())]
    assert sizes[-2:] == [114, 40]  # the rees twin's table and bicyclic's
    written = [_written(g).size for g in grammars[:-1]]
    assert all(x <= y for x, y in zip(sizes, written))
    assert sum(sizes[:-2]) < sum(written)
