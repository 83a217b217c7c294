import itertools

import pytest

from conftest import finite_language
from whsg.basic import green_related, is_commutative, is_group, is_monoid
from whsg.errors import OperandError
from whsg.oracle import small_semigroups, structure_from_table, table_decide


def test_is_monoid_rees(rees):
    v = is_monoid(rees)
    assert v
    assert v.witnesses["identity"] == ("i",)


def test_is_monoid_free2(free2):
    assert not is_monoid(free2)


def test_is_monoid_semilattice_top(sl2):
    v = is_monoid(sl2)
    assert v
    assert v.witnesses["identity"] == ("1",)


def test_green_group_is_single_h_class(z2):
    for rel in ("R", "L", "H"):
        assert green_related(z2, ("g",), ("e",), rel)


def test_green_free2(free2):
    # in a free semigroup,右 division is proper prefix only: no v gives
    # ab.v = a, so a and ab are not R-related
    assert not green_related(free2, ("a",), ("a", "b"), "R")


def test_green_rees_rows(rees):
    # oracle-derived R-classes of the finite monoid: the letters a and b name
    # elements in the same row; b and c are in different rows
    assert green_related(rees, ("a",), ("b",), "R")
    assert not green_related(rees, ("b",), ("c",), "R")
    assert green_related(rees, ("c",), ("d",), "R")


def test_green_requires_representatives(rees):
    # the letter e is a representative only after normalization; a two-letter
    # word outside the finite language is rejected
    assert green_related(rees, ("e",), ("b",), "L")
    with pytest.raises(OperandError):
        green_related(rees, ("e", "e"), ("b",), "R")
    with pytest.raises(OperandError):
        green_related(rees, ("a",), ("b",), "Q")


def test_green_names_an_empty_operand_as_multiply_does(z2):
    from whsg.arithmetic import multiply

    for call in (green_related, multiply):
        with pytest.raises(OperandError,
                           match="^word '<empty>' is not a representative$"):
            call(z2, (), ("g",))


def test_h_is_conjunction_of_r_and_l(rees, sl2):
    for s in (rees, sl2):
        words = sorted(finite_language(s.reps))
        for w, w2 in itertools.combinations(words, 2):
            expected = (green_related(s, w, w2, "R")
                        and green_related(s, w, w2, "L"))
            assert green_related(s, w, w2, "H") == expected


def test_green_is_equivalence_on_fixture(rees):
    words = sorted(finite_language(rees.reps))
    for rel in ("R", "L", "H"):
        for w in words:
            assert green_related(rees, w, w, rel)
        for w, w2 in itertools.combinations(words, 2):
            assert green_related(rees, w, w2, rel) == green_related(rees, w2, w, rel)
        for x, y, z in itertools.permutations(words[:5], 3):
            if green_related(rees, x, y, rel) and green_related(rees, y, z, rel):
                assert green_related(rees, x, z, rel)


def test_is_group(z2, rees, sl2):
    assert is_group(z2)
    assert not is_group(rees)
    assert not is_group(sl2)


def test_group_witness_matches_monoid_witness(z2):
    from whsg.arithmetic import word_eq

    g = is_group(z2)
    m = is_monoid(z2)
    assert g and m
    assert word_eq(z2, g.witnesses["identity"], m.witnesses["identity"])


def test_is_commutative(null3, free2, z2):
    assert is_commutative(null3)
    assert is_commutative(z2)
    v = is_commutative(free2)
    assert not v
    assert v.witnesses == {"left": ("a", "b"), "right": ("b", "a")}


def test_basic_verdicts_match_oracle_on_order_two_tables():
    for t in small_semigroups(2):
        s = structure_from_table(t)
        for prop, fn in (("monoid", is_monoid), ("group", is_group),
                         ("commutative", is_commutative)):
            assert fn(s).answer == table_decide(t, prop).answer, (t.elements, prop)
