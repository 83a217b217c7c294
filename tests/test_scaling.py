"""Scaling and time bounds for kernel steps that once blew up.

Each doubling test times a generated family at doubling sizes (the fastest
of a few runs per size) and bounds the log-log slope, as acceptance
criterion 3 does for the word problem.  The slope is the least-squares fit
over all sizes: on a shared machine a single doubling of a few milliseconds
moves by more than the bound's margin.
"""

import copy
import gc
import heapq
import itertools
import json
import math
import random
import time
import types
from collections import defaultdict, deque

from conftest import dense_chart, finite_language
from test_cfg import _pruned_chart, _random_cfg
from test_differential import _generic_twin
from test_least_completions import _reference_least_completions
from test_structural import _decide_flat_corpus
from whsg import cfg as cfglib
from whsg import fixtures, nfa
from whsg.arithmetic import multiply, word_eq
from whsg.cfg import Cfg, normalize
from whsg.nfa import Nfa
from whsg.oracle import (FiniteSemigroup, direct_product, rb22_table,
                         rees_monoid_table, structure_from_table, table_decide,
                         z2_table)
from whsg.structural import is_clifford, is_completely_simple, palindromic_defect
from whsg.structure import (WhStructure, _Slots, load_structure, slot_word,
                             validate_necessary)
from whsg.words import SEP1, SEP2, shortlex_key


def _fastest(f, runs=3, make=lambda: ()):
    """Fastest of `runs` calls f(*make()), timing f only."""
    best = math.inf
    for _ in range(runs):
        args = make()
        gc.collect()
        t0 = time.perf_counter()
        f(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _uncharted(cnf):
    """cnf with its last chart forgotten, so that the next chart is built."""
    cnf.chart = None
    return cnf


def _fitted_slope(sizes, times):
    xs = [math.log2(k) for k in sizes]
    ys = [math.log2(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _unit_chain(k):
    """C0 -> C1 -> ... -> C(k-1) -> a: every Ci reaches the one body by
    unit rules."""
    nts = [f"C{i}" for i in range(k)]
    prods = [(x, (y,)) for x, y in zip(nts, nts[1:])] + [(nts[-1], ("a",))]
    return Cfg(nts, ("a",), "C0", prods)


def test_unit_closure_is_near_linear_on_a_chain():
    sizes = [1000, 2000, 4000, 8000]
    times = []
    for k in sizes:
        times.append(_fastest(cfglib.normalize, runs=5,
                              make=lambda: (_unit_chain(k),)))
        gn = cfglib.normalize(_unit_chain(k))
        assert gn.productions == (("C0", ("a",)),)
    slope = _fitted_slope(sizes, times)
    # a breadth-first search from every nonterminal gives about 2
    assert slope <= 1.5, (slope, times)


def _cycle(k):
    """A0 -> a A1 -> ... -> a A(k-1), A(k-1) -> b A0 | c: only A(k-1) has
    a terminal body, and a round of refinement that reads every node's
    bodies tells one more Ai from the others, so k rounds are needed."""
    nts = [f"A{i}" for i in range(k)]
    prods = [(x, ("a", y)) for x, y in zip(nts, nts[1:])]
    prods += [(nts[-1], ("b", nts[0])), (nts[-1], ("c",))]
    return Cfg(nts, ("a", "b", "c"), "A0", prods)


def test_merging_bisimilar_nodes_is_near_linear_on_a_cycle():
    sizes = [1000, 2000, 4000, 8000]
    times = []
    for k in sizes:
        times.append(_fastest(cfglib.cnf_of, runs=3,
                              make=lambda: (normalize(_cycle(k)),)))
        # the k nodes of the cycle and the wrappers of a and b stay apart
        assert cfglib.cnf_of(_cycle(k)).size == k + 2
    slope = _fitted_slope(sizes, times)
    # refining only the parents of the smaller half of each split gives
    # about 1; rounds that read every node's bodies give 2
    assert slope <= 1.3, (slope, times)


def _reference_cyk_masks(cnf, w):
    """The bit-parallel chart as it was before rows were tracked: every
    binary rule at every length and split."""
    n = len(w)
    masks = [[0] * (n + 1) for _ in range(cnf.size)]
    for i, sym in enumerate(w):
        for a in cnf.by_sym.get(sym, ()):
            masks[a][1] |= 1 << i
    for l in range(2, n + 1):
        for a, b, c in cnf.binary:
            mb, mc = masks[b], masks[c]
            acc = 0
            for k in range(1, l):
                x = mb[k]
                if x:
                    y = mc[l - k]
                    if y:
                        acc |= x & (y >> k)
            if acc:
                masks[a][l] |= acc
    return masks


def _row_tracked_cyk_masks(cnf, w):
    """The chart as it was before rules were scheduled by length sums: at
    every length, every rule whose children both have live rows walks the
    splits of the shorter live list."""
    n = len(w)
    masks = [[0] * (n + 1) for _ in range(cnf.size)]
    live = [[] for _ in range(cnf.size)]
    for i, sym in enumerate(w):
        for a in cnf.by_sym.get(sym, ()):
            masks[a][1] |= 1 << i
    # per live left child B: its live lengths, its rows and, per rule
    # A -> B C, the rows and live lengths of C
    lefts = []

    def enliven(b, l):
        if not live[b] and b in cnf.left_index:
            lefts.append((live[b], masks[b], [(a, masks[c], live[c])
                                              for a, c in cnf.left_index[b]]))
        live[b].append(l)

    for b in sorted({a for sym in set(w) for a in cnf.by_sym.get(sym, ())}):
        enliven(b, 1)
    for l in range(2, n + 1):
        grown = []
        for lens, mb, partners in lefts:
            for a, mc, lc in partners:
                if not lc:
                    continue
                acc = 0
                if len(lens) <= len(lc):
                    for k in lens:
                        y = mc[l - k]
                        if y:
                            acc |= mb[k] & (y >> k)
                else:
                    for m in lc:
                        x = mb[l - m]
                        if x:
                            acc |= x & (mc[m] >> (l - m))
                if acc:
                    row = masks[a]
                    if not row[l]:
                        grown.append(a)
                    row[l] |= acc
        # every live length stays below the length in progress
        for a in grown:
            enliven(a, l)
    return masks, live


def _row_tracked_visits(cnf, live, n):
    """(rule, length) pairs the row-tracked chart of a word of length n
    combines: a rule A -> B C at every length above the first live lengths
    of both B and C."""
    return sum(n - max(live[b][0], live[c][0])
               for _a, b, c in cnf.binary if live[b] and live[c])


class _CountingTuple(tuple):
    """A tuple that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class _CountingPartners(dict):
    """A lowering's `partners` map, B -> [(r, C)] and C -> [(r, B)] for
    binary[r] = (A, B, C), that counts the pairs its lookups hand out."""

    walked = 0

    def __init__(self, binary):
        super().__init__()
        for r, (_a, b, c) in enumerate(binary):
            self.setdefault(b, []).append((r, c))
            self.setdefault(c, []).append((r, b))

    def get(self, x, default=None):
        got = super().get(x, default)
        self.walked += len(got or ())
        return got


def _representative(name, s, m, rng):
    """A representative of the fixture s of length m (any length, on rees)."""
    if name == "rees":
        return rng.choice(finite_language(s.reps))
    if name == "bicyclic":
        i = rng.randint(0, m)
        return ("b",) * i + ("a",) * (m - i)
    return tuple(rng.choice(s.alphabet) for _ in range(m))


def _binary_cfg(rng):
    """Random grammar over {a, b} of mostly binary bodies, A -> B B among
    them, whose children often go live at the same length."""
    nts = [f"N{i}" for i in range(rng.randint(1, 6))]
    prods = [(rng.choice(nts), (rng.choice("ab"),))
             for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(1, 12)):
        b = rng.choice(nts)
        c = b if rng.random() < 0.3 else rng.choice(nts)
        prods.append((rng.choice(nts), (b, c)))
    return Cfg(nts, ("a", "b"), "N0", prods)


def test_scheduled_chart_matches_row_tracked_chart():
    rng = random.Random(13)
    for name in ("bicyclic", "free2", "rees"):
        s = fixtures.NAMED[name]()
        for table in (s.table, _generic_twin(s).table):
            cnf = cfglib.cnf_of(table)
            for m in (1, 2, 10, 55, 110, 250):
                p, q = (_representative(name, s, m, rng) for _ in range(2))
                assert s.in_reps(p) and s.in_reps(q)
                w = p + (SEP1,) + q + (SEP2,)
                assert dense_chart(cfglib._cyk_masks(cnf, w), w) == _pruned_chart(
                    cnf, w, _row_tracked_cyk_masks(cnf, w)[0])
    # S -> B C with B and C live at the same lengths, and B -> B B
    pair = Cfg(["S", "B", "C"], ("a", "b"), "S",
               [("S", ("B", "C")), ("B", ("B", "B")), ("C", ("B", "B")),
                ("B", ("a",)), ("C", ("a",)), ("C", ("b",))])
    for i in range(301):
        g = pair if i == 300 else _random_cfg(rng) if i % 3 == 0 else _binary_cfg(rng)
        cnf = cfglib.cnf_of(g)
        for n in (0, 1, 2, 7, 40):
            w = tuple(rng.choice("ab") for _ in range(n))
            assert dense_chart(cfglib._cyk_masks(cnf, w), w) == _pruned_chart(
                cnf, w, _row_tracked_cyk_masks(cnf, w)[0])


def test_scheduled_chart_beats_row_tracked_chart():
    # bicyclic prefixes leave most (rule, length) pairs with no split whose
    # rows are both nonzero; on a 2-vCPU machine ours took about half the
    # row-tracked chart's time
    s = fixtures.bicyclic()
    b, a = ("b",), ("a",)
    w = b * 40 + a * 60 + (SEP1,) + b * 70 + a * 50 + (SEP2,)

    def visits(cnf):
        # (rule, length) visits are deterministic, unlike the timing below:
        # each visit reads its rule off binary once
        masks, live = _row_tracked_cyk_masks(cnf, w)
        counted = copy.copy(cnf)
        counted.chart, counted.binary = None, _CountingTuple(cnf.binary)
        assert dense_chart(cfglib._cyk_masks(counted, w), w) == _pruned_chart(
            cnf, w, masks)
        return counted.binary.reads, _row_tracked_visits(cnf, live, len(w))

    # the bound was calibrated on the lowering of the normal form as
    # written: of the row-tracked chart's 8,370 visits, scheduling by length
    # sums left 870 and the left context 480
    cnf = cfglib.lowered_of(cfglib.normalize(s.table))
    ours, tracked = visits(cnf)
    assert ours <= 0.06 * tracked, (ours, tracked)
    # merging its bisimilar nodes leaves fewer rules to visit (306 of 3,082
    # were measured)
    merged, _tracked = visits(cfglib.cnf_of(s.table))
    assert merged < ours, (merged, ours)
    # alternated, so that both see the same phases of a shared machine
    ours = tracked = math.inf
    for _ in range(5):
        ours = min(ours, _fastest(cfglib._cyk_masks, 1,
                                  lambda: (_uncharted(cnf), w)))
        tracked = min(tracked, _fastest(_row_tracked_cyk_masks, 1,
                                        lambda: (cnf, w)))
    assert ours <= 0.7 * tracked, (ours, tracked)


def test_left_context_prunes_the_chart_and_the_completions(monkeypatch):
    # the chart keeps only the items whose node may begin after the symbol
    # before them, and a least completion opens only such items
    s = fixtures.bicyclic()
    cnf = cfglib.cnf_of(s.table)
    b, a = ("b",), ("a",)
    w = b * 40 + a * 60 + (SEP1,) + b * 70 + a * 50 + (SEP2,)
    _masks, live, _allow = dense_chart(cfglib._cyk_masks(_uncharted(cnf), w), w)
    # 707 live entries without the left context; 379 were measured
    assert sum(map(len, live)) <= 400
    pushes = []

    def push(heap, item):
        pushes.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(cfglib, "heapq", types.SimpleNamespace(
        heapify=heapq.heapify, heappop=heapq.heappop, heappush=push))
    cnf.passes.clear()
    assert cfglib.least_completions(s.table, w) == [b * 50 + a * 50]
    # the call and its fresh shared pass pushed 2,175 without the left
    # context; 1,172 were measured
    assert len(pushes) <= 1300, len(pushes)


def test_dense_chart_is_no_slower_than_full_cyk():
    # every span of every word is derivable: every rule is due at every
    # length, so scheduling cannot save work and must not cost much either
    g = Cfg(["S"], ("a", "b"), "S",
            [("S", ("S", "S")), ("S", ("a",)), ("S", ("b",))])
    cnf = cfglib.cnf_of(g)
    rng = random.Random(256)
    w = tuple(rng.choice("ab") for _ in range(256))
    n = len(w)
    # counted rather than timed, as in the scheduled-chart test above: the
    # wall-time ratio of the two charts read 0.67-1.18 on a shared machine
    counted = copy.copy(cnf)
    counted.chart, counted.binary = None, _CountingTuple(cnf.binary)
    counted.partners = _CountingPartners(cnf.binary)
    masks, live, _allow = cfglib._cyk_masks(counted, w)
    assert masks == _reference_cyk_masks(cnf, w)
    assert live[cnf.start] == list(range(1, n + 1))
    # the full loop visits every rule at every length 2..n; the scheduled
    # chart visits each due (rule, length) pair once, here all of them
    full = len(cnf.binary) * (n - 1)
    assert counted.binary.reads <= full, counted.binary.reads
    # scheduling walks a node's partner pairs each time it goes live: a rule
    # has one pair per child and a node goes live at most once per length,
    # so at most 2 * len(binary) * n pairs (all 512 of them here)
    walked = counted.partners.walked
    assert walked <= 2 * (full + len(cnf.binary)), walked


def _reference_product_grammar(cnf, space, terminals):
    """The reference for the product and for the normal form the library
    writes from its items: normalize() of the raw product."""
    return normalize(_reference_raw_product(cnf, space, terminals))


def _reference_raw_product(cnf, space, terminals):
    """The raw product as it was built before the closure was goal-directed:
    items combined bottom-up from every leaf over the binary rules, with
    `starts` and `ends` indexes, then productions written top-down from the
    top items under a new start.  The state space is read through the same
    protocol as the library's (`initial`, `accepting`, and `moves`, whose
    (target, output) pairs give a terminal rule's leaves).  The leaves are
    read up front from every state that moves lead to from an initial
    state, as no other state is on a top item's run."""
    leaves = []
    initial = set(space.initial)
    states = set(initial)
    todo = list(states)
    while todo:
        p = todo.pop()
        for nt, syms in cnf.term_bodies.items():
            for sym in syms:
                for q, body in space.moves(p, sym):
                    leaves.append(((p, nt, q), body))
                    if q not in states:
                        states.add(q)
                        todo.append(q)
    starts = defaultdict(set)   # (nt, p) -> set of q
    ends = defaultdict(set)     # (nt, q) -> set of p
    items = set()
    agenda = deque()

    def add(it):
        if it not in items:
            p, nt, q = it
            items.add(it)
            starts[(nt, p)].add(q)
            ends[(nt, q)].add(p)
            agenda.append(it)

    for it, _body in leaves:
        add(it)
    while agenda:
        p, nt, q = agenda.popleft()
        for head, right in cnf.left_index.get(nt, ()):
            for end in starts.get((right, q), ()):
                add((p, head, end))
        for head, left in cnf.right_index.get(nt, ()):
            for begin in ends.get((left, p), ()):
                add((begin, head, q))

    start = ("&S",)
    top = [it for it in items if it[1] == cnf.start and it[0] in initial
           and it[2] in space.accepting]
    if not top:
        return Cfg([start], terminals, start, [])
    prods = [(start, (it,)) for it in top]
    reached = set(top)
    agenda.extend(top)
    while agenda:
        it = agenda.popleft()
        p, nt, q = it
        for b, c in cnf.binary_by_head.get(nt, ()):
            for mid in starts.get((b, p), ()):
                right = (mid, c, q)
                if right in items:
                    left = (p, b, mid)
                    prods.append((it, (left, right)))
                    for x in (left, right):
                        if x not in reached:
                            reached.add(x)
                            agenda.append(x)
    prods += [leaf for leaf in leaves if leaf[0] in reached]
    nonterminals = [start] + sorted(reached, key=repr)
    return Cfg(nonterminals, terminals, start, prods)


def test_dense_product_is_no_slower_than_bottom_up_closure():
    # S -> S S | a | b times a complete automaton whose states all accept:
    # every pair (p, S) is asked and every item is used, so building items
    # on demand cannot save work and must not cost much either
    g = Cfg(["S"], ("a", "b"), "S",
            [("S", ("S", "S")), ("S", ("a",)), ("S", ("b",))])
    k = 20
    aut = Nfa(range(k), ("a", "b"),
              [(i, "a", (i + 1) % k) for i in range(k)]
              + [(i, "b", 2 * i % k) for i in range(k)],
              [0], range(k))
    cnf = cfglib.cnf_of(g)
    args = (cnf, aut, g.terminals)
    got = cfglib._product_grammar(*args)
    ref = _reference_product_grammar(*args)
    assert (got.nonterminals, got.productions) == (ref.nonterminals, ref.productions)
    # alternated, so that both see the same phases of a shared machine;
    # on a 2-vCPU machine each took about 70 ms
    ours = full = math.inf
    for _ in range(5):
        ours = min(ours, _fastest(cfglib._product_grammar, 1, lambda: args))
        full = min(full, _fastest(_reference_product_grammar, 1, lambda: args))
    assert ours <= 1.25 * full, (ours, full)


def test_species_of_a_four_generator_band_are_derived_quickly():
    # the bound sits between the derived species (under 0.1 s) and trying
    # rb22 x rb22's 225 row/column or 2,271 semilattice species (about 4 s)
    t = direct_product(rb22_table(), rb22_table())
    for prop, decide in (("completely-simple", is_completely_simple),
                         ("clifford", is_clifford)):
        assert decide(structure_from_table(t)).answer == table_decide(t, prop).answer
        seconds = _fastest(decide, make=lambda: (structure_from_table(t),))
        assert seconds < 1.0, (prop, seconds)


def _chain_table(n):
    """The chain semilattice min(i, j) on n elements, each a generator."""
    names = [f"c{i}" for i in range(n)]
    return FiniteSemigroup.from_rows(
        names, [[names[min(i, j)] for j in range(n)] for i in range(n)], names)


def _h_class_count(t):
    """H-classes of a table, by the principal right and left ideals of S^1."""
    return len({(frozenset({x, *(t.table[(x, y)] for y in t.elements)}),
                 frozenset({x, *(t.table[(y, x)] for y in t.elements)}))
                for x in t.elements})


def test_clifford_semilattice_of_many_generators_is_found_quickly():
    # a closure from the letters makes about n products per class, not one
    # per generator subset
    tables = [_chain_table(n) for n in range(5, 9)]
    tables += [direct_product(z2_table(), _chain_table(n)) for n in (5, 6)]
    for t in tables:
        assert len(t.generators) >= 5
        v = is_clifford(structure_from_table(t))
        assert v.answer == table_decide(t, "clifford").answer == "yes"
        assert v.reason.startswith(f"semilattice of {_h_class_count(t)} classes")
        assert len(v.witnesses) == _h_class_count(t)
        seconds = _fastest(is_clifford, make=lambda: (structure_from_table(t),))
        assert seconds < 1.0, (t.elements, seconds)


def _doubling_chain_structure(depth=60):
    """The free monogenic semigroup a^p #1 a^q #2 a^(p+q), with one more
    way to derive the middle: N -> X0 #2 X0, where X_i -> X_(i+1) X_(i+1)
    and X_depth -> a, so X0 derives only a^(2^depth)."""
    xs = [f"X{i}" for i in range(depth + 1)]
    prods = [("S", ("a", "S", "a")), ("S", ("a", SEP1, "N", "a")),
             ("N", ("a", "N", "a")), ("N", ("a", SEP2, "a")),
             ("N", ("X0", SEP2, "X0"))]
    prods += [(x, (y, y)) for x, y in zip(xs, xs[1:])] + [(xs[-1], ("a",))]
    table = Cfg(["S", "N"] + xs, ("a", SEP1, SEP2), "S", prods)
    return WhStructure(("a",), Nfa.universal_nonempty(("a",)), table)


def test_completions_settle_only_the_suffix_words_they_reach():
    # settling every node's least word up front would write out a^(2^60)
    s = _doubling_chain_structure()
    for call, want in (
            (lambda: multiply(s, ("a",), ("a",)), ("a", "a")),
            (lambda: word_eq(s, ("a",) * 4, ("a",) * 4), True),
            (lambda: cfglib.least_completions(s.table, ("a", SEP1, "a", SEP2),
                                              k=3, maxlen=4), [("a", "a")])):
        t0 = time.perf_counter()
        assert call() == want
        assert time.perf_counter() - t0 < 1.0


def _nullable_body(k):
    """S -> Y1 ... Yk b with every Yi -> epsilon | a: one body of k nullable
    symbols, which normalize expands into 2^k bodies."""
    ys = [f"Y{i}" for i in range(1, k + 1)]
    prods = [("S", tuple(ys) + ("b",))]
    prods += [(y, body) for y in ys for body in ((), ("a",))]
    return Cfg(["S"] + ys, ("a", "b"), "S", prods)


def test_least_words_of_a_nullable_body_need_no_normal_form():
    # enumerating through the normal form took 8 s at k = 16; normalize
    # itself stays exponential on this family
    want = [("a",) * i + ("b",) for i in range(6)]
    for k in (10, 12, 14, 16):
        g = _nullable_body(k)
        assert cfglib.enumerate_words(g, 6) == want
        assert cfglib.shortest_word(g) == ("b",)
        for f, args in ((cfglib.enumerate_words, (6,)), (cfglib.shortest_word, ())):
            seconds = _fastest(f, make=lambda: (_nullable_body(k),) + args)
            assert seconds < 0.1, (f.__name__, k, seconds)


def _wide_mirror(k):
    """S -> X1 ... Xk #2 Xk ... X1 with every Xi -> a | b: each Xi is a
    defect, and splicing its words into the body writes 2^(2k) bodies."""
    xs = [f"X{i}" for i in range(1, k + 1)]
    prods = [("S", tuple(xs) + (SEP2,) + tuple(reversed(xs)))]
    prods += [(x, (c,)) for x in xs for c in ("a", "b")]
    return Cfg(["S"] + xs, ("a", "b", SEP2), "S", prods)


def _two_letter_doubling(k):
    """S -> X0 #2 X0, Xi -> X(i+1) X(i+1), Xk -> a | b: X0 has 2^(2^k)
    words of length 2^k."""
    xs = [f"X{i}" for i in range(k + 1)]
    prods = [("S", (xs[0], SEP2, xs[0]))]
    prods += [(x, (y, y)) for x, y in zip(xs, xs[1:])]
    prods += [(xs[-1], ("a",)), (xs[-1], ("b",))]
    return Cfg(["S"] + xs, ("a", "b", SEP2), "S", prods)


def _assert_skewed_member(g, d):
    assert d is not None and cfglib.membership(g, d.witness)
    i = d.witness.index(SEP2)
    assert d.witness[:i] != tuple(reversed(d.witness[i + 1:]))


def test_wide_mirror_defect_is_near_linear():
    # the splicing search wrote no witness from k = 6 on and took 0.72 s at
    # k = 9; the square is the whole-tuple words of the least-words pass
    sizes = [128, 256, 512, 1024]
    times = []
    for k in sizes:
        times.append(_fastest(palindromic_defect, make=lambda: (_wide_mirror(k),)))
        g = _wide_mirror(k)
        _assert_skewed_member(g, palindromic_defect(g))
    slope = _fitted_slope(sizes, times)
    assert slope <= 2.3, (slope, times)


def test_two_letter_doubling_defect_is_read_off_the_certificate():
    # splicing took 0.16 s at k = 3 and was killed at k = 4 (2^32 bodies)
    for k in (4, 8):
        g = _two_letter_doubling(k)
        t0 = time.perf_counter()
        d = palindromic_defect(g)
        assert time.perf_counter() - t0 < 1.0, k
        _assert_skewed_member(g, d)
        assert len(d.witness) == 2 ** (k + 1) + 1


def _scanned_least_word(g, a, ranks):
    """least_word on a flat table as a scan of every table word."""
    return min((w for w in g.flat_words if w and a.accepts(w)),
               key=shortlex_key(ranks), default=None)


def test_flat_lookups_by_prefix_run_match_a_scan():
    # the decide-flat corpus, the order <= 3 corpus and the named tables
    rng = random.Random(27)
    structures = [build() for build in fixtures.NAMED.values()]
    structures = [s for s in structures + _decide_flat_corpus()
                  if s.table.flat_words is not None]
    assert len(structures) > 40
    for s in structures:
        g, ranks = s.table, s.ranks
        words = sorted(g.flat_words)
        # every prefix of a table word, and prefixes that begin none: a
        # word followed by a separator, a lone separator, a foreign symbol
        prefixes = {w[:i] for w in words for i in range(len(w) + 1)}
        prefixes |= {w + (SEP1,) for w in words[:3]} | {(SEP2,), ("&x",)}
        for x in prefixes:
            assert cfglib.flat_run(g, x) == tuple(
                w for w in words if w[:len(x)] == x), x
        reps = finite_language(s.reps)
        for u, v in itertools.product(reps, repeat=2):
            x = u + (SEP1,) + v + (SEP2,)
            for k, maxlen in itertools.product((1, 2, 3), (None, 1, 2)):
                # the reference scans every table word of a flat table
                assert cfglib.least_completions(g, x, ranks, k, maxlen) == (
                    _reference_least_completions(g, x, ranks, k, maxlen)), (x, k, maxlen)
        # a word or an automaton in each slot; a word slot is a
        # representative, or a letter doubled, which need not be one
        others = reps + [(a, a) for a in s.alphabet]
        for automata in itertools.product((False, True), repeat=3):
            for _ in range(4):
                slots = [s.reps if auto else rng.choice(others) for auto in automata]
                assert slot_word(s, *slots) == _scanned_least_word(
                    g, _Slots(*slots), ranks), slots


class _CountedWords(frozenset):
    """A flat table's word set that counts the times it is read through."""

    walks = 0

    def __iter__(self):
        yield from super().__iter__()
        self.walks += 1


def test_validate_reads_the_flat_table_once():
    # every least completion reads one sorted run of the table's words: the
    # scan that this replaced walked the 256 words of z2 x rees 352 times
    s = structure_from_table(direct_product(z2_table(), rees_monoid_table()))
    s.table.flat_words = words = _CountedWords(s.table.flat_words)
    assert len(words) == 256
    assert validate_necessary(s)
    assert words.walks == 1


def _k_th_from_end_family(k):
    """Structure text: representatives a, b and every word whose k-th
    letter from the end is a (states s, e, i and the chain q0 ... q(k-1)),
    table S -> T, T -> a #1 a #2 a.  Determinizing the representatives
    builds 2^k subsets."""
    chain = [f"q{j}" for j in range(k)]
    trans = [[p, x, q] for p, q in (("s", "e"), ("s", "i"), ("i", "i")) for x in "ab"]
    trans += [[p, "a", "q0"] for p in ("s", "i")]
    trans += [[p, x, q] for p, q in zip(chain, chain[1:]) for x in "ab"]
    return json.dumps({
        "alphabet": ["a", "b"],
        "reps": {"states": ["s", "e", "i", *chain], "initial": ["s"],
                 "accepting": ["e", chain[-1]], "transitions": trans},
        "table": {"nonterminals": ["S", "T"], "start": "S",
                  "productions": [["S", ["T"]], ["T", ["a", SEP1, "a", SEP2, "a"]]]}})


def test_generic_load_builds_only_the_subsets_it_reads(monkeypatch):
    # the shape check complemented the slot shape by the whole subset
    # construction: 0.09 / 0.49 / 2.8 s to load at k = 12 / 14 / 16
    views = []
    made = nfa._Complement.__init__

    def recorded(self, *args):
        made(self, *args)
        views.append(self)

    monkeypatch.setattr(nfa._Complement, "__init__", recorded)
    table_word = ("a", SEP1, "a", SEP2, "a")
    for k in (8, 12, 16, 20):
        text = _k_th_from_end_family(k)
        elapsed = _fastest(load_structure, make=lambda: (text,))
        assert elapsed < 0.1, (k, elapsed)
        views.clear()
        s = load_structure(text)
        assert s.table.flat_words is None and s.table_shape_violation() is None
        assert s.in_reps(("a",) + ("b",) * (k - 1))
        assert not s.in_reps(("b",) * k)
        # one view, whose moves were worked out along the one table word
        assert len(views) == 1
        assert len(views[0].next) <= 2 * len(table_word), (k, views[0].next)


def test_bicyclic_word_problem_on_skewed_words_is_near_linear():
    # b^n a^n and a^n b^n, which differ, on a fresh load each time: ten
    # calibration runs read slopes of 1.42 to 1.43 (0.004 s at 256, 0.23 s
    # at 4096); the top doubling costs 3.3x, the whole-tuple words of the
    # least-words passes
    sizes = [256, 512, 1024, 2048, 4096]
    times = []
    for n in sizes:
        u, v = ("b",) * n + ("a",) * n, ("a",) * n + ("b",) * n
        times.append(_fastest(word_eq, make=lambda: (fixtures.bicyclic(), u, v)))
        assert word_eq(fixtures.bicyclic(), u, v) is False
    slope = _fitted_slope(sizes, times)
    assert slope <= 1.8, (slope, times)


def test_bicyclic_products_of_skewed_words_grow_at_most_quadratically():
    # multiply(b^n, a^n) on a fresh load each time: ten calibration runs
    # read slopes of 1.82 to 1.85 (0.0036 s at 256, 0.16-0.17 s at 2048),
    # the quadratic cost of the whole-tuple words and the live-length scan
    # of the completion loop, so its bound of 2.1 only guards against
    # worse than quadratic growth until ROADMAP item 1 removes that cost
    # and tightens it; multiply(a^n, b^n), the identity's representative
    # ab, read 1.05 to 1.07 (1.4 ms at 256, 13 ms at 2048)
    sizes = [256, 512, 1024, 2048]
    for u, v, bound in ((("b",), ("a",), 2.1), (("a",), ("b",), 1.4)):
        times = []
        for n in sizes:
            times.append(_fastest(multiply,
                                  make=lambda: (fixtures.bicyclic(), u * n, v * n)))
        assert multiply(fixtures.bicyclic(), u * 8, v * 8) == (
            u * 8 + v * 8 if u == ("b",) else ("a", "b"))
        slope = _fitted_slope(sizes, times)
        assert slope <= bound, (u, v, slope, times)


def test_free2c_word_problem_is_near_linear():
    # word_eq on the free structure with the redundant letter c = ab:
    # seeded words over {a, b, c} against the same words with every c
    # spelled ab, on a fresh load each time, so every call runs the
    # transducer image of normalize_generators and the batched halving;
    # ten calibration runs read slopes of 1.33 to 1.35 (11 ms at 256,
    # 0.18 s at 2048)
    sizes = [256, 512, 1024, 2048]
    times = []
    for n in sizes:
        rng = random.Random(n)
        u = tuple(rng.choice("abc") for _ in range(n))
        v = tuple(x for y in u for x in (("a", "b") if y == "c" else (y,)))
        times.append(_fastest(word_eq, make=lambda: (
            fixtures.free2_with_redundant_letter(), u, v)))
        s = fixtures.free2_with_redundant_letter()
        assert word_eq(s, u, v) is True
        assert word_eq(s, u, v[:-1]) is False
    slope = _fitted_slope(sizes, times)
    assert slope <= 1.7, (slope, times)
