"""The monoid and Green's relation queries ask the table with an any-word
slot (None) and, for Green's relations, only whether a word exists.  The
shape invariant confines every table word's slots to the representatives,
so the answers must equal those of the representative-automaton slot, kept
here as the reference."""

import pytest

from conftest import all_words
from test_differential import _generic_twin
from test_multirep import TABLES, redundant_structure
from whsg import cfg as cfglib
from whsg import fixtures, oracle
from whsg.arithmetic import check_multiply, word_eq
from whsg.basic import green_related, is_monoid
from whsg.nfa import Nfa
from whsg.structure import _Slots, normalize_generators, slot_middle, slot_word


def reference_green(ns, w, w2, rel):
    """green_related with the representatives as the free slot and the
    least word settled."""
    if rel == "H":
        return (reference_green(ns, w, w2, "R")
                and reference_green(ns, w, w2, "L"))
    if word_eq(ns, w, w2):
        return True

    def reachable(x, y):
        slots = (x, ns.reps, y) if rel == "R" else (ns.reps, x, y)
        return slot_word(ns, *slots) is not None

    return reachable(w, w2) and reachable(w2, w)


def reference_monoid(ns):
    """is_monoid's (answer, identity) with the representatives as the
    middle slot."""
    candidates = []
    for a in ns.alphabet:
        i_a = slot_middle(ns, (a,), ns.reps, (a,))
        if i_a is None:
            return "no", None
        candidates.append(i_a)
    for i_a in candidates:
        if all(check_multiply(ns, i_a, (b,), (b,))
               and check_multiply(ns, (b,), i_a, (b,))
               for b in ns.alphabet):
            return "yes", i_a
    return "no", None


def _structures():
    for name, build in fixtures.NAMED.items():
        yield name, build
    for name in ("rb22", "sl2", "rees", "free2c"):
        yield f"{name}-twin", lambda n=name: _generic_twin(fixtures.NAMED[n]())
    for name, table in TABLES.items():
        yield f"{name}-redundant", lambda t=table: redundant_structure(t())
    tables = [(f"order{len(t.elements)}-{i}", t)
              for i, t in enumerate(oracle.small_semigroups(3))]
    tables += [(name, build()) for name, build in oracle.NAMED_TABLES.items()]
    for a, b in (("z2", "z2"), ("z2", "sl2"), ("z2", "rb22"), ("z2", "null3"),
                 ("z2", "rees"), ("sl2", "sl2"), ("sl2", "rb22"),
                 ("sl2", "null3")):
        tables.append((f"{a}x{b}", oracle.direct_product(
            oracle.NAMED_TABLES[a](), oracle.NAMED_TABLES[b]())))
    for label, t in tables:
        yield f"table-{label}", lambda t=t: oracle.structure_from_table(t)


STRUCTURES = dict(_structures())


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_slot_queries_match_the_representative_slot(name):
    ns = normalize_generators(STRUCTURES[name]())
    v = is_monoid(ns)
    assert (v.answer, v.witnesses.get("identity")) == reference_monoid(ns)
    reps = [w for w in all_words(ns.alphabet, 2) if ns.in_reps(w)]
    assert reps
    for w in reps:
        for w2 in reps:
            for rel in "RLH":
                assert green_related(ns, w, w2, rel) == \
                    reference_green(ns, w, w2, rel), (w, w2, rel)


@pytest.mark.parametrize("name", sorted(fixtures.NAMED))
def test_an_any_word_slot_reads_as_the_universal_automaton(name):
    ns = normalize_generators(fixtures.NAMED[name]())
    every = Nfa.universal(ns.alphabet)
    reps = [w for w in all_words(ns.alphabet, 2) if ns.in_reps(w)]
    asked = 0
    for i in range(3):
        for u in reps:
            for v in reps:
                slots = [u, v]
                slots.insert(i, None)
                view = _Slots(*slots)
                slots[i] = every
                want = cfglib.least_word(ns.table, _Slots(*slots))
                assert cfglib.least_word(ns.table, view) == want, slots
                assert cfglib.intersects(ns.table, view) == (want is not None)
                asked += want is not None
    assert asked
