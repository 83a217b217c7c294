"""The goal-directed grammar x automaton product against the bottom-up
closure it replaced, normalized (`_reference_product_grammar`, kept with the
dense time bound in test_scaling): every product the library writes in
normal form, through regular intersection and transducer images, must be
the same grammar production for production, and every word the structure's
shape check reads off the closure with `least_word` the least word of the
reference product."""

import contextlib
from collections import defaultdict

import pytest

from test_cfg_properties import STATE_NAMES, automata, grammars
from test_differential import _generic_twin
from test_scaling import _reference_product_grammar, _reference_raw_product
from whsg import cfg as cfglib
from whsg import fixtures, transducer
from whsg.nfa import Nfa
from whsg.structure import WhStructure, _slot_rewriter, normalize_generators
from whsg.transducer import Transducer

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@contextlib.contextmanager
def _both_closures():
    """Build every product with both closures; yields the list of
    (goal-directed, reference) grammar pairs, one per product."""
    pairs = []
    ours = cfglib._product_grammar

    def both(*args):
        got = ours(*args)
        pairs.append((got, _reference_product_grammar(*args), args))
        return got

    cfglib._product_grammar = transducer._product_grammar = both
    try:
        yield pairs
    finally:
        cfglib._product_grammar = transducer._product_grammar = ours


def _assert_identical(pairs):
    for got, ref, _args in pairs:
        assert got.start == ref.start and got.terminals == ref.terminals
        assert got.nonterminals == ref.nonterminals
        assert got.productions == ref.productions


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(grammars(), automata())
def test_intersection_matches_bottom_up_closure(g, a):
    with _both_closures() as pairs:
        cfglib.intersect_regular(g, a)
    assert len(pairs) == 1
    _assert_identical(pairs)


@st.composite
def transducers(draw):
    """Transducers from {a, b} to {a, b, c} with 1-4 states, named as in
    automata(), 1-3 accepting states and outputs of length 0-2."""
    name = STATE_NAMES[draw(st.sampled_from(sorted(STATE_NAMES)))]
    states = [name(i) for i in range(draw(st.integers(1, 4)))]
    state = st.sampled_from(states)
    out = st.lists(st.sampled_from("abc"), max_size=2).map(tuple)
    trans = draw(st.lists(st.tuples(state, st.sampled_from("ab"), out, state),
                          max_size=12))
    accepting = draw(st.lists(state, min_size=1, max_size=3, unique=True))
    return Transducer(states, trans, [draw(state)], accepting)


def _unit_cycle(raw):
    """Whether the raw product's items have a cycle of the unit bodies that
    normalize makes: (B C) gives A -> C when B is nullable, A -> B when C
    is."""
    nts, nullable = set(raw.nonterminals), cfglib._nullable_set(raw)
    units = defaultdict(set)
    for head, body in raw.productions:
        if len(body) == 2 and set(body) <= nts:
            left, right = body
            if left in nullable:
                units[head].add(right)
            if right in nullable:
                units[head].add(left)
    return any(len(comp) > 1 or comp[0] in units.get(comp[0], ())
               for comp in cfglib._components(units, units))


def test_transducer_image_matches_bottom_up_closure():
    cases = dict.fromkeys(("empty output", "unit cycle", "two-symbol leaf",
                           "empty image"), 0)

    @hypothesis.settings(max_examples=300, derandomize=True, database=None,
                         deadline=None)
    @hypothesis.given(grammars(), transducers())
    def check(g, t):
        with _both_closures() as pairs:
            image = t.apply_to_cfg(g)
        assert len(pairs) == (g.flat_words is None)
        _assert_identical(pairs)
        for _got, _ref, args in pairs:
            raw = _reference_raw_product(*args)
            nts = set(raw.nonterminals)
            bodies = [body for _head, body in raw.productions
                      if not set(body) & nts]
            cases["empty output"] += () in bodies
            cases["two-symbol leaf"] += any(len(b) == 2 for b in bodies)
            cases["unit cycle"] += _unit_cycle(raw)
            cases["empty image"] += not image.productions

    check()
    assert all(cases.values()), cases


def test_products_are_written_without_normalize(monkeypatch):
    # normalize_generators' transducer image on the rees twin, and regular
    # intersection on a generic grammar whose lowering is built already
    s = _generic_twin(fixtures.NAMED["rees"]())
    cfglib.cnf_of(s.table)
    normalized = []
    ours = cfglib.normalize

    def spy(g):
        normalized.append(g.start)
        return ours(g)

    monkeypatch.setattr(cfglib, "normalize", spy)
    image = _slot_rewriter(s).apply_to_cfg(s.table)
    ts = s.table.terminals
    product = cfglib.intersect_regular(
        s.table, Nfa([0], ts, [(0, t, 0) for t in ts], [0], [0]))
    assert image.productions and product.productions
    assert ("&S",) not in normalized
    assert cfglib.normalize(image) is image
    assert cfglib.normalize(product) is product


@pytest.mark.parametrize("name", sorted(fixtures.NAMED))
def test_shape_checks_match_bottom_up_closure(name):
    # the tables of free2, free2c and bicyclic are generic already; a finite
    # table is checked without a product, so its generic twin is used
    s = fixtures.NAMED[name]()
    if s.table.flat_words is not None:
        s = _generic_twin(s)
    fresh = WhStructure(s.alphabet, s.reps, s.table, dict(s.assignment),
                        check=False)
    asked = []
    ours = cfglib.least_word

    def recorded(g, a):
        got = ours(g, a)
        asked.append((g, a, got))
        return got

    cfglib.least_word = recorded
    try:
        assert fresh.table_shape_violation() is None
    finally:
        cfglib.least_word = ours
    assert len(asked) == 1
    # the check's complement view has no table word; the slot view that it
    # complements, the slot shape, has every one, so the least words are
    # compared there as well
    g, a, got = asked[0]
    assert got is None
    cnf = cfglib.cnf_of(g)
    for aut in (a, a._space):
        ref = _reference_product_grammar(cnf, aut, g.terminals)
        want = cfglib.shortest_word(ref)
        assert cfglib.least_word(g, aut) == want
        assert (want is None) == (aut is a)
    with _both_closures() as pairs:
        normalize_generators(fresh)
    assert pairs or fresh.is_normalized()
    _assert_identical(pairs)
