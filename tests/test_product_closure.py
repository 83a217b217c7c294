"""The goal-directed grammar x automaton product against the bottom-up
closure it replaced (`_reference_product_grammar`, kept with the dense time
bound in test_scaling): every product the library builds, through regular
intersection and transducer images, must be the same grammar production for
production, and every word the structure's shape check reads off the
closure with `least_word` the least word of the reference product."""

import contextlib

import pytest

from test_cfg_properties import automata, grammars
from test_differential import _generic_twin
from test_scaling import _reference_product_grammar
from whsg import cfg as cfglib
from whsg import fixtures, transducer
from whsg.structure import WhStructure, normalize_generators

hypothesis = pytest.importorskip("hypothesis")


@contextlib.contextmanager
def _both_closures():
    """Build every product with both closures; yields the list of
    (goal-directed, reference) grammar pairs, one per product."""
    pairs = []
    ours = cfglib._product_grammar

    def both(*args):
        got = ours(*args)
        pairs.append((got, _reference_product_grammar(*args)))
        return got

    cfglib._product_grammar = transducer._product_grammar = both
    try:
        yield pairs
    finally:
        cfglib._product_grammar = transducer._product_grammar = ours


def _assert_identical(pairs):
    for got, ref in pairs:
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

    def recorded(g, a, ranks=None):
        got = ours(g, a, ranks)
        asked.append((g, a, ranks, got))
        return got

    cfglib.least_word = recorded
    try:
        assert fresh.table_shape_violation() is None
    finally:
        cfglib.least_word = ours
    assert len(asked) == 1
    # the check's automaton has no table word; its complement, the slot
    # shape, has every one, so the least words are compared there as well
    g, a, ranks, got = asked[0]
    assert got is None
    cnf = cfglib.cnf_of(g)
    for aut in (a, a.complement(a.alphabet)):
        ref = _reference_product_grammar(cnf, *cfglib._nfa_product(cnf, aut),
                                         g.terminals)
        want = cfglib.shortest_word(ref, ranks)
        assert cfglib.least_word(g, aut, ranks) == want
        assert (want is None) == (aut is a)
    with _both_closures() as pairs:
        normalize_generators(fresh)
    assert pairs or fresh.is_normalized()
    _assert_identical(pairs)
