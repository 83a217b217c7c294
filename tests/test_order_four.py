"""Every semigroup of order 4 through the six decision procedures, each
verdict against the table's brute-force decision and each witness against
the table (Forsythe 1955 counted the 126 classes)."""

import pytest

from semigroup_enumeration import labelled_semigroups, semigroups
from whsg.basic import is_commutative, is_group, is_monoid
from whsg.oracle import small_semigroups, structure_from_table, table_decide
from whsg.structural import is_clifford, is_completely_simple, is_free

PROCEDURES = {
    "monoid": is_monoid,
    "group": is_group,
    "commutative": is_commutative,
    "completely-simple": is_completely_simple,
    "clifford": is_clifford,
    "free": is_free,
}


def test_the_search_counts_the_labelled_semigroups():
    # OEIS A023814: 1, 8, 113, 3492
    assert [sum(1 for _ in labelled_semigroups(n)) for n in (1, 2, 3, 4)] == [
        1, 8, 113, 3492]


def test_the_search_gives_the_brute_force_corpus_up_to_order_three():
    got = [t for n in (1, 2, 3) for t in semigroups(n)]
    want = small_semigroups(3)
    assert [(t.elements, t.table, t.generators) for t in got] == [
        (t.elements, t.table, t.generators) for t in want]


ORDER_FOUR = semigroups(4)


def _check_witnesses(t, prop, verdict):
    """Each witness word names the element its key promises."""
    value = t.eval_word
    idempotents = []
    for key, w in verdict.witnesses.items():
        if key == "identity":
            assert value(w) == t.identity()
        elif key == "left":
            assert value(w) != value(verdict.witnesses["right"])
        elif key.startswith("idempotent_"):
            idempotents.append(value(w))
        elif key.startswith("decomposition_"):
            assert value(w) == key.removeprefix("decomposition_")
        else:
            # is_free's refutations name a word of a language (the
            # representatives or the projected table), not an element
            assert key == "right" or (prop == "free" and key in (
                "counterexample", "defect")), key
    if idempotents:
        # one idempotent per cell, or per class of the semilattice: every
        # idempotent of the table, once
        assert sorted(idempotents) == sorted(t.idempotents())
        if prop == "clifford":
            assert all(t.product(e, x) == t.product(x, e)
                       for e in idempotents for x in t.elements)


def test_order_four_has_126_classes():
    assert len(ORDER_FOUR) == 126


@pytest.mark.parametrize("prop", PROCEDURES)
def test_procedures_agree_with_the_table_on_order_four(prop):
    for t in ORDER_FOUR:
        verdict = PROCEDURES[prop](structure_from_table(t))
        assert verdict.answer == table_decide(t, prop).answer, t.table
        _check_witnesses(t, prop, verdict)
