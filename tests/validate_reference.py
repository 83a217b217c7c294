"""The validation loops that `structure.validate_necessary` replaced, kept
as a differential reference: each pair's product and its three least
completions off one chart of its own, and each triple's new product and
product check off one chart each.  The batched phases must report the
same first failure in loop order, or raise the same exception."""

import itertools

from whsg import arithmetic
from whsg import cfg as cfglib
from whsg.cfg import Cfg
from whsg.errors import EmptyProductError, OperandError
from whsg.structure import (VALIDATE_SAMPLE_CAP, Verdict, WhStructure,
                            normalize_generators)
from whsg.words import SEP1, SEP2


def validate_necessary(s: WhStructure, depth: int = 4) -> Verdict:
    """Check the decidable necessary conditions for the structure to describe
    a semigroup.

    Interpretability itself is not decidable and is trusted; this verifies the
    containment invariant, that every sampled product has a representative,
    that words sharing a product entry test equal, and that sampled triple
    products associate.
    """
    if depth < 1:
        raise OperandError("depth must be at least 1")
    bad = s.table_shape_violation()
    if bad is not None:
        return Verdict.no(f"table word {' '.join(bad)!r} violates the slot shape")
    ns = normalize_generators(s)
    # the first words in shortlex order, with none past them enumerated
    words = list(itertools.islice(cfglib._shortlex_words(
        Cfg.from_nfa(ns.reps), max(depth - 1, 1)), VALIDATE_SAMPLE_CAP))
    if not words:
        return Verdict.no("representative language is empty")

    classes: dict = {}

    def find(w):
        while classes.get(w, w) != w:
            w = classes[w]
        return w

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru != rv:
            classes[ru] = rv

    pairs = [(u, v) for u in words for v in words
             if len(u) + len(v) <= depth]
    for u, v in pairs:
        try:
            r = arithmetic.multiply(ns, u, v)
        except EmptyProductError:
            return Verdict.no(
                f"missing product witness for {' '.join(u)!r} * {' '.join(v)!r}")
        for w in cfglib.least_completions(
                ns.table, [u + (SEP1,) + v + (SEP2,)], 3, len(r) + 1)[0]:
            union(r, w)
    seen: dict = {}
    for w in list(classes) + list(words):
        root = find(w)
        other = seen.setdefault(root, w)
        if other != w and not arithmetic.word_eq(ns, w, other):
            return Verdict.no(
                f"words {' '.join(w)!r} and {' '.join(other)!r} share a table entry "
                f"but test unequal")
    for u in words:
        for v in words:
            for x in words:
                if len(u) + len(v) + len(x) > depth:
                    continue
                uv = arithmetic.multiply(ns, u, v)
                vx = arithmetic.multiply(ns, v, x)
                r2 = arithmetic.multiply(ns, u, vx)
                if not arithmetic.check_multiply(ns, uv, x, r2):
                    return Verdict.no(
                        f"associativity fails on {' '.join(u)!r}, {' '.join(v)!r}, "
                        f"{' '.join(x)!r}")
    return Verdict.yes()
