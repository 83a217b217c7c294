"""Two references for `structure.validate_necessary`.

`validate_necessary` is the batching reference: the loops the batched
phases replaced, each pair's three least completions off one chart of its
own, and each triple's new product and product check off one chart each.
It takes every pair's product first, then tests each pair's entry in pair
order, so the batched phases must report the same first failure, or raise
the same exception.

`validate_by_classes` is the earlier equality rule, kept as it was: it
united each product with its completions into classes and compared each
member with the first member of its class it visited.  It visited only the
class map's keys and the sampled words, so a root left unsampled was never
compared, and it compared words that share no entry.  Every structure it
refutes the entry-by-entry rule must refute too."""

import itertools

from whsg import arithmetic
from whsg import cfg as cfglib
from whsg.cfg import Cfg
from whsg.errors import EmptyProductError, OperandError
from whsg.structure import (VALIDATE_SAMPLE_CAP, Verdict, WhStructure,
                            normalize_generators)
from whsg.words import SEP1, SEP2


def _sample(s: WhStructure, depth: int):
    """The normalized structure and its sampled words, or the verdict that
    ends validation before any pair is asked."""
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
    return ns, words


def _associate(ns: WhStructure, words, depth: int) -> Verdict:
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


def validate_necessary(s: WhStructure, depth: int = 4) -> Verdict:
    sample = _sample(s, depth)
    if isinstance(sample, Verdict):
        return sample
    ns, words = sample
    pairs = [(u, v) for u in words for v in words
             if len(u) + len(v) <= depth]
    products = []
    for u, v in pairs:
        try:
            products.append(arithmetic.multiply(ns, u, v))
        except EmptyProductError:
            return Verdict.no(
                f"missing product witness for {' '.join(u)!r} * {' '.join(v)!r}")
    for (u, v), r in zip(pairs, products):
        for w in cfglib.least_completions(
                ns.table, [u + (SEP1,) + v + (SEP2,)], 3, len(r) + 1)[0]:
            if w != r and not arithmetic.word_eq(ns, w, r):
                return Verdict.no(
                    f"words {' '.join(w)!r} and {' '.join(r)!r} (both {' '.join(u)!r} * "
                    f"{' '.join(v)!r}) share a table entry but test unequal")
    return _associate(ns, words, depth)


def validate_by_classes(s: WhStructure, depth: int = 4) -> Verdict:
    sample = _sample(s, depth)
    if isinstance(sample, Verdict):
        return sample
    ns, words = sample

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
    return _associate(ns, words, depth)
