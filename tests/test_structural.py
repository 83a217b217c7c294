import itertools

import pytest

from whsg.cfg import Cfg
from whsg.errors import CapExceededError, OperandError
from whsg.oracle import small_semigroups, structure_from_table, table_decide
from whsg.structural import (CsSpecies, Defect, clifford_species_check,
                             cs_species_check, enumerate_cs_species,
                             enumerate_clifford_species, is_clifford,
                             is_completely_simple, is_free, palindromic_defect)
from whsg.structure import rename_symbols
from whsg.words import SEP2


# -- species enumeration --------------------------------------------------------


def _surjections_up_to_renaming(n):
    """Directly enumerate maps from an n-set onto initial segments, counted
    up to renaming the image: canonical first-occurrence labelings."""
    seen = set()
    for k in range(1, n + 1):
        for f in itertools.product(range(k), repeat=n):
            if set(f) != set(range(k)):
                continue
            relabel = {}
            canon = []
            for v in f:
                relabel.setdefault(v, len(relabel))
                canon.append(relabel[v])
            seen.add(tuple(canon))
    return seen


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cs_species_count_matches_direct_enumeration(n):
    alphabet = tuple("abc"[:n])
    species = enumerate_cs_species(alphabet)
    direct = _surjections_up_to_renaming(n)
    assert len(species) == len(direct) ** 2
    assert len(set(species)) == len(species)
    rows = {sp.rows for sp in species}
    assert rows == direct


def test_clifford_species_on_two_letters_cover_all_congruences():
    species = enumerate_clifford_species(("a", "b"))
    # congruences of the 3-element free semilattice {a, b, ab}: trivial,
    # collapse ab into a, collapse ab into b, collapse everything
    assert len(species) == 4
    sizes = sorted(len(sp.meet) for sp in species)
    assert sizes == [1, 2, 2, 3]


def test_clifford_species_cap():
    with pytest.raises(CapExceededError):
        enumerate_clifford_species(("a", "b", "c"), max_species=2)


def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[head] + smaller[i]] + smaller[i + 1:]
        yield [[head]] + smaller


@pytest.mark.parametrize("n", [1, 2, 3])
def test_congruence_enumeration_matches_brute_force(n):
    # oracle: every partition of the free semilattice, kept iff compatible
    # with the union operation
    from whsg.structural import _free_semilattice

    elements, meet = _free_semilattice(n)
    size = len(elements)
    compatible = set()
    for blocks in _set_partitions(range(size)):
        cls = [0] * size
        for label, block in enumerate(blocks):
            for x in block:
                cls[x] = label
        ok = all(cls[meet[x][z]] == cls[meet[y][z]]
                 for x in range(size) for y in range(size)
                 if cls[x] == cls[y] for z in range(size))
        if ok:
            canon = {}
            for x in range(size):
                canon.setdefault(cls[x], len(canon))
            compatible.add(tuple(canon[c] for c in cls))
    alphabet = tuple("abc"[:n])
    species = enumerate_clifford_species(alphabet)
    assert len(species) == len(compatible)


# -- species checks ---------------------------------------------------------------


def test_cs_species_check_rb22(rb22):
    correct = CsSpecies(rb22.alphabet, (0, 1), (0, 1))
    assert cs_species_check(rb22, correct)
    merged_rows = CsSpecies(rb22.alphabet, (0, 0), (0, 1))
    v = cs_species_check(rb22, merged_rows)
    assert not v
    # the escape shows up at the unit checks, not at the cell-product check:
    # products stay in the predicted column regardless of the row map
    assert "step 5" in v.reason


def test_cs_species_check_group_with_trivial_indexes(z2):
    assert cs_species_check(z2, CsSpecies(z2.alphabet, (0, 0), (0, 0)))


def test_clifford_species_check_examples(sl2, z2, rb22):
    chain = next(sp for sp in enumerate_clifford_species(sl2.alphabet)
                 if len(sp.meet) == 2
                 and sp.place("1") != sp.place("e")
                 and sp.ge(sp.place("1"), sp.place("e")))
    assert clifford_species_check(sl2, chain)
    trivial = next(sp for sp in enumerate_clifford_species(z2.alphabet)
                   if len(sp.meet) == 1)
    assert clifford_species_check(z2, trivial)
    for sp in enumerate_clifford_species(rb22.alphabet):
        assert not clifford_species_check(rb22, sp)


def test_is_completely_simple(rb22, z2, sl2):
    v = is_completely_simple(rb22)
    assert v and "rows x11|x22" in v.reason
    assert is_completely_simple(z2)
    assert not is_completely_simple(sl2)


def test_is_clifford(sl2, null3, z2):
    assert is_clifford(sl2)
    assert not is_clifford(null3)
    assert is_clifford(z2)


def test_species_caps_raise(rb22):
    with pytest.raises(CapExceededError):
        is_completely_simple(rb22, max_species=1)
    with pytest.raises(CapExceededError):
        is_clifford(rb22, max_alphabet=1)


def test_species_checks_match_oracle_on_small_tables():
    # an accepted species certifies the property, and some species is
    # accepted exactly when the oracle confirms it
    for t in small_semigroups(3):
        s = structure_from_table(t)
        want_cs = table_decide(t, "completely-simple").answer == "yes"
        accepted = [sp for sp in enumerate_cs_species(s.alphabet)
                    if cs_species_check(s, sp)]
        assert bool(accepted) == want_cs, t.elements
        assert is_completely_simple(s).answer == ("yes" if want_cs else "no")
        want_cl = table_decide(t, "clifford").answer == "yes"
        accepted_cl = [sp for sp in enumerate_clifford_species(s.alphabet)
                       if clifford_species_check(s, sp)]
        assert bool(accepted_cl) == want_cl, t.elements
        assert is_clifford(s).answer == ("yes" if want_cl else "no")


# -- palindromic defects -------------------------------------------------------------


def _mirror_grammar():
    return Cfg(["P"], ("a", "b", SEP2), "P",
               [("P", ("a", "P", "a")), ("P", ("b", "P", "b")),
                ("P", ("a", SEP2, "a")), ("P", ("b", SEP2, "b"))])


def test_palindromic_table_has_no_defect():
    assert palindromic_defect(_mirror_grammar()) is None


def test_letter_mismatch_defect():
    g = Cfg(["O"], ("a", "b", SEP2), "O", [("O", ("a", SEP2, "b"))])
    d = palindromic_defect(g)
    assert isinstance(d, Defect)
    assert d.witness == ("a", SEP2, "b")


def test_offset_inconsistency_defect():
    g = Cfg(["O"], ("a", SEP2), "O",
            [("O", ("a", "O", "a")), ("O", ("a", SEP2, "a", "a"))])
    d = palindromic_defect(g)
    assert d is not None
    assert d.witness == ("a", SEP2, "a", "a")


def test_pumping_defect():
    g = Cfg(["O", "Y"], ("a", SEP2), "O",
            [("O", ("Y", SEP2, "a")), ("Y", ("a", "Y")), ("Y", ("a",))])
    d = palindromic_defect(g)
    assert d is not None and "recurs" in d.reason
    assert d.witness is not None


def test_deep_chain_has_no_defect():
    # S -> P0 #2 P0, Pi -> a P(i+1), P2999 -> a: deeper than the interpreter's
    # recursion limit, and every member a^3000 #2 a^3000 is palindromic
    chain = [f"P{i}" for i in range(3000)]
    prods = [("S", ("P0", SEP2, "P0")), (chain[-1], ("a",))]
    prods += [(x, ("a", y)) for x, y in zip(chain, chain[1:])]
    g = Cfg(["S"] + chain, ("a", SEP2), "S", prods)
    assert palindromic_defect(g) is None


def test_defect_precondition_enforced():
    g = Cfg(["O"], ("a", SEP2), "O", [("O", ("a", SEP2, "a", SEP2, "a"))])
    with pytest.raises(OperandError):
        palindromic_defect(g)


def test_defect_witnesses_are_members():
    cases = [
        Cfg(["O"], ("a", "b", SEP2), "O", [("O", ("a", "b", SEP2, "a", "b"))]),
        Cfg(["O", "X"], ("a", "b", SEP2), "O",
            [("O", ("X",)), ("X", ("b", SEP2, "a"))]),
    ]
    from whsg import cfg as cfglib

    for g in cases:
        d = palindromic_defect(g)
        assert d is not None and d.witness is not None
        assert cfglib.membership(g, d.witness)
        i = d.witness.index(SEP2)
        assert d.witness[:i] != tuple(reversed(d.witness[i + 1:]))


# -- freeness ----------------------------------------------------------------------


def test_is_free_free2(free2):
    assert is_free(free2)


def test_is_free_null3(null3):
    v = is_free(null3)
    assert not v
    assert "decomposes" in v.reason


def test_is_free_eliminates_redundant_letters(free2c):
    v = is_free(free2c)
    assert v
    assert v.witnesses == {"decomposition_c": ("a", "b")}


def test_is_free_no_on_finite_tables(z2, sl2, rb22, rees):
    for s in (z2, sl2, rb22, rees):
        assert not is_free(s)


def test_is_free_invariant_under_renaming(free2, free2c, null3):
    for s, mapping in ((free2, {"a": "b", "b": "a"}),
                       (free2c, {"a": "c", "b": "b", "c": "a"}),
                       (null3, {"a": "b", "b": "c", "c": "a"})):
        renamed = rename_symbols(s, mapping)
        assert is_free(renamed).answer == is_free(s).answer
