"""Flat multiplication tables take set shortcuts in every grammar operation;
these tests rebuild the same tables without the flat shape and demand
identical behavior from the generic grammar machinery."""

import pytest

from conftest import all_words, finite_language
from whsg import fixtures
from whsg.arithmetic import multiply, represent, word_eq
from whsg.basic import green_related, is_commutative, is_group, is_monoid
from whsg.cfg import Cfg, least_completions
from whsg.structural import is_clifford, is_completely_simple, is_free
from whsg.structure import WhStructure


def _unflatten_cfg(g):
    """Same language through a fresh start symbol with one unit rule to the
    old start: defeats flat detection."""
    start = "&w"
    assert start not in g.nonterminals
    out = Cfg([start] + list(g.nonterminals), g.terminals, start,
              [(start, (g.start,))] + list(g.productions))
    assert out.flat_words is None
    return out


def _generic_twin(s):
    return WhStructure(s.alphabet, s.reps, _unflatten_cfg(s.table),
                       dict(s.assignment))


@pytest.mark.parametrize("name", ["bicyclic", "free2"])
def test_twins_of_multi_nonterminal_tables_agree(name):
    original = fixtures.NAMED[name]()
    twin = _generic_twin(original)
    assert twin.table_shape_violation() is None
    pool = [w for w in all_words(original.alphabet, 3) if original.in_reps(w)]
    assert pool
    for p in pool:
        for q in pool:
            assert multiply(twin, p, q) == multiply(original, p, q)
            assert word_eq(twin, p, q) == word_eq(original, p, q)


@pytest.mark.parametrize("name", ["z2", "sl2", "rb22", "null3", "rees"])
def test_decisions_agree_between_flat_and_generic_paths(name):
    flat = fixtures.NAMED[name]()
    generic = _generic_twin(fixtures.NAMED[name]())
    for decide in (is_monoid, is_group, is_commutative,
                   is_completely_simple, is_clifford, is_free):
        a = decide(flat)
        b = decide(generic)
        assert (a.answer, a.witnesses) == (b.answer, b.witnesses), decide


@pytest.mark.parametrize("name", ["z2", "null3", "rees"])
def test_arithmetic_agrees_between_flat_and_generic_paths(name):
    flat = fixtures.NAMED[name]()
    generic = _generic_twin(fixtures.NAMED[name]())
    pool = sorted(finite_language(flat.reps))
    for p in pool:
        for q in pool:
            assert multiply(flat, p, q) == multiply(generic, p, q)
    for w in all_words(flat.alphabet, 2):
        assert represent(flat, w) == represent(generic, w)
        for w2 in all_words(flat.alphabet, 2):
            assert word_eq(flat, w, w2) == word_eq(generic, w, w2)
    for w in pool:
        for w2 in pool:
            for rel in ("R", "L", "H"):
                assert green_related(flat, w, w2, rel) == \
                    green_related(generic, w, w2, rel)


def test_least_completions_flat_and_generic_agree(rees):
    flat = rees.table
    generic = _unflatten_cfg(flat)
    for prefix in [("a", "#1"), ("b", "#1", "e"), ("d", "e", "b"), ("z",)]:
        for k in (1, 3, 100):
            got_flat = least_completions(flat, [prefix], k, 8)[0]
            assert got_flat == least_completions(generic, [prefix], k, 8)[0]


def test_fixture_files_match_generators(tmp_path):
    # the committed fixture files are byte for byte what
    # `python -m whsg.fixtures` writes, and there are no others
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "fixtures"
    written = {p.name: p for p in fixtures.write_all(tmp_path)}
    assert sorted(written) == sorted(p.name for p in root.iterdir())
    for name, path in written.items():
        assert path.read_bytes() == (root / name).read_bytes(), name
