"""Monoid, group, commutativity and Green's relation decisions."""

from __future__ import annotations

from . import cfg as cfglib
from .arithmetic import check_multiply, word_eq
from .errors import OperandError
from .nfa import Nfa
from .structure import Verdict, WhStructure, normalize_generators, slot_shape
from .words import SEP1, SEP2, reverse


def middle_slot(w) -> tuple:
    """The segment between the separators of a table word."""
    w = tuple(w)
    return w[w.index(SEP1) + 1:w.index(SEP2)]


def right_stabilizer_language(s: WhStructure, left, result):
    """Grammar over full table words for { i in L : left#1i#2result-rev in M }."""
    left, result = tuple(left), tuple(result)
    shape = slot_shape(Nfa.literal(left, s.alphabet), s.reps,
                       Nfa.literal(reverse(result), s.alphabet))
    return cfglib.intersect_regular(s.table, shape)


def is_monoid(s: WhStructure) -> Verdict:
    """Identity search: per letter, the words that stabilize it on the right;
    any empty set refutes, otherwise each candidate is tested on every letter."""
    ns = normalize_generators(s)
    candidates = []
    for a in ns.alphabet:
        g = right_stabilizer_language(ns, (a,), (a,))
        w = cfglib.shortest_word(g, ns.ranks)
        if w is None:
            return Verdict.no(f"no word stabilizes generator {a!r} on the right")
        candidates.append(middle_slot(w))
    for i_a in candidates:
        if all(check_multiply(ns, i_a, (b,), (b,))
               and check_multiply(ns, (b,), i_a, (b,))
               for b in ns.alphabet):
            return Verdict.yes({"identity": i_a})
    return Verdict.no("no stabilizer candidate acts as a two-sided identity")


def green_related(s: WhStructure, w, w2, rel: str = "R") -> bool:
    """Green's R, L or H on the elements represented by two words."""
    rel = rel.upper()
    if rel not in ("R", "L", "H"):
        raise OperandError(f"unknown Green relation {rel!r}")
    ns = normalize_generators(s)
    w, w2 = tuple(w), tuple(w2)
    for x in (w, w2):
        if not ns.in_reps(x):
            raise OperandError(f"word {' '.join(x)!r} is not a representative")
    if rel == "H":
        return green_related(ns, w, w2, "R") and green_related(ns, w, w2, "L")
    if word_eq(ns, w, w2):
        return True

    def reachable(x, y):
        if rel == "R":
            # some v with elt(x) v = elt(y)
            shape = slot_shape(Nfa.literal(x, ns.alphabet), ns.reps,
                               Nfa.literal(reverse(y), ns.alphabet))
        else:
            # some v with v elt(x) = elt(y)
            shape = slot_shape(ns.reps, Nfa.literal(x, ns.alphabet),
                               Nfa.literal(reverse(y), ns.alphabet))
        return not cfglib.is_empty_language(cfglib.intersect_regular(ns.table, shape))

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
