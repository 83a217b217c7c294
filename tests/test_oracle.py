import io

import pytest

from conftest import all_words, finite_language
from whsg.arithmetic import word_eq
from whsg.errors import ParseError
from whsg.oracle import (FiniteSemigroup, dumps_table, load_table, null3_table,
                         rb22_table, rees_monoid_table, small_semigroups,
                         structure_from_table, table_decide, z2_table)
from whsg.structure import validate_necessary


def test_table_validation():
    with pytest.raises(ParseError):
        FiniteSemigroup.from_rows(["x", "y"], [["x", "x"], ["x", "y"]], ["x"])
    with pytest.raises(ParseError):
        # left-zero band is associative, but x alone does not generate y
        FiniteSemigroup.from_rows(["x", "y"], [["x", "x"], ["y", "y"]], ["x"])


@pytest.mark.parametrize("rows", [[["x", "x", "x"], ["x", "x", "x"]],
                                  [["x", "x"]],
                                  [["x", "x"], ["x", "x"], ["x", "x"]]],
                         ids=["wide", "short", "tall"])
def test_rows_must_match_the_elements(rows):
    with pytest.raises(ParseError):
        FiniteSemigroup.from_rows(["x", "y"], rows, ["x", "y"])


def test_structure_from_z2():
    s = structure_from_table(z2_table())
    assert len(finite_language(s.reps)) == 2
    assert len(s.table.flat_words) == 4


def test_structure_from_rb22():
    s = structure_from_table(rb22_table())
    assert len(finite_language(s.reps)) == 4
    assert len(s.table.flat_words) == 16


def test_structure_from_null3_matches_fixture(null3):
    s = structure_from_table(null3_table())
    relabel = {"0": "a", "x": "b", "y": "c"}
    for w in all_words(("x", "y", "0"), 3):
        for w2 in all_words(("x", "y", "0"), 2):
            image = tuple(relabel[x] for x in w)
            image2 = tuple(relabel[x] for x in w2)
            assert word_eq(s, w, w2) == word_eq(null3, image, image2)


def test_table_decide_examples():
    assert table_decide(z2_table(), "group")
    assert not table_decide(rb22_table(), "clifford")
    assert not table_decide(rb22_table(), "free")
    assert table_decide(rb22_table(), "completely-simple")
    assert not table_decide(null3_table(), "monoid")
    assert table_decide(rees_monoid_table(), "monoid")
    assert not table_decide(rees_monoid_table(), "group")


def test_table_file_round_trip():
    t = rees_monoid_table()
    text = dumps_table(t)
    t2 = load_table(io.StringIO(text))
    assert t2.elements == t.elements
    assert t2.table == t.table
    assert t2.generators == t.generators


def test_small_semigroup_counts():
    corpus = small_semigroups(3)
    by_order = {}
    for t in corpus:
        by_order.setdefault(len(t.elements), 0)
        by_order[len(t.elements)] += 1
    assert by_order == {1: 1, 2: 4, 3: 18}


def test_generated_structures_validate():
    for build in (z2_table, null3_table, rb22_table):
        s = structure_from_table(build())
        assert validate_necessary(s, depth=6)


def test_rees_structure_validates_at_depth_six():
    s = structure_from_table(rees_monoid_table())
    assert validate_necessary(s, depth=6)


def test_whole_corpus_validates_at_depth_six():
    for t in small_semigroups(3):
        s = structure_from_table(t)
        assert validate_necessary(s, depth=6), t.elements
