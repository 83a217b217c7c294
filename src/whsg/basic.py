"""Monoid, group, commutativity and Green's relation decisions."""

from __future__ import annotations

from .arithmetic import _require_rep, check_multiply, word_eq
from .errors import OperandError
from .structure import Verdict, WhStructure, normalize_generators, slot_exists, slot_middle


def is_monoid(s: WhStructure) -> Verdict:
    """Identity search: per letter a, the least v with a #1 v #2 a in the
    table, any word there being a representative by the shape invariant;
    any empty set refutes, otherwise each candidate is tested on every letter."""
    ns = normalize_generators(s)
    candidates = []
    for a in ns.alphabet:
        i_a = slot_middle(ns, (a,), None, (a,))
        if i_a is None:
            return Verdict.no(f"no word stabilizes generator {a!r} on the right")
        candidates.append(i_a)
    for i_a in candidates:
        if all(check_multiply(ns, i_a, (b,), (b,))
               and check_multiply(ns, (b,), i_a, (b,))
               for b in ns.alphabet):
            return Verdict.yes({"identity": i_a})
    return Verdict.no("no stabilizer candidate acts as a two-sided identity")


def green_related(s: WhStructure, w, w2, rel: str = "R") -> bool:
    """Green's R, L or H on the elements represented by two words; the free
    slot takes any word, which the shape invariant makes a representative."""
    rel = rel.upper()
    if rel not in ("R", "L", "H"):
        raise OperandError(f"unknown Green relation {rel!r}")
    ns = normalize_generators(s)
    w, w2 = _require_rep(ns, w), _require_rep(ns, w2)
    if rel == "H":
        return green_related(ns, w, w2, "R") and green_related(ns, w, w2, "L")
    if word_eq(ns, w, w2):
        return True

    def reachable(x, y):
        # some v with elt(x) v = elt(y), or v elt(x) = elt(y)
        slots = (x, None, y) if rel == "R" else (None, x, y)
        return slot_exists(ns, *slots)

    return reachable(w, w2) and reachable(w2, w)


def is_group(s: WhStructure) -> Verdict:
    """A group is a monoid whose every generator is two-sided invertible."""
    ns = normalize_generators(s)
    monoid = is_monoid(ns)
    if not monoid:
        return Verdict.no(f"not a monoid: {monoid.reason}")
    identity = monoid.witnesses["identity"]
    for a in ns.alphabet:
        if not green_related(ns, (a,), identity, "R"):
            return Verdict.no(f"generator {a!r} is not right-invertible",
                              {"identity": identity})
        if not green_related(ns, (a,), identity, "L"):
            return Verdict.no(f"generator {a!r} is not left-invertible",
                              {"identity": identity})
    return Verdict.yes({"identity": identity})


def is_commutative(s: WhStructure) -> Verdict:
    """Generators commute iff the semigroup does."""
    ns = normalize_generators(s)
    for i, a in enumerate(ns.alphabet):
        for b in ns.alphabet[i + 1:]:
            if not word_eq(ns, (a, b), (b, a)):
                return Verdict.no(
                    f"generators {a!r} and {b!r} do not commute",
                    {"left": (a, b), "right": (b, a)})
    return Verdict.yes()
