"""Element arithmetic: verify a product, compute a product representative,
compute a representative of an arbitrary word, decide element equality.

Products are read off the table language: the representatives of
elt(p)elt(q) are exactly the words w with p#1q#2w-reversed in the table.
Witness selection is always shortest-then-lexicographic under the declared
symbol order, so every operation is deterministic.
"""

from __future__ import annotations

from . import cfg as cfglib
from .errors import EmptyProductError, OperandError
from .structure import WhStructure, normalize_generators
from .words import SEP1, SEP2, reverse


def _require_rep(s: WhStructure, w) -> tuple:
    w = tuple(w)
    if not s.in_reps(w):
        raise OperandError(f"word {' '.join(w) or '<empty>'!r} is not a representative")
    return w


def check_multiply(s: WhStructure, p, q, r) -> bool:
    """True iff elt(p)elt(q) = elt(r); one table-membership test."""
    p, q, r = tuple(p), tuple(q), tuple(r)
    key = (p, q, r)
    got = s._chk_cache.get(key)
    if got is None:
        _require_rep(s, p), _require_rep(s, q), _require_rep(s, r)
        got = s.table_accepts(p + (SEP1,) + q + (SEP2,) + reverse(r))
        s._chk_cache[key] = got
    return got


def multiply(s: WhStructure, p, q) -> tuple:
    """Shortest-lex representative of elt(p)elt(q): the least completion of
    p#1q#2 in the table, read reversed."""
    p, q = tuple(p), tuple(q)
    if (p, q) not in s._mul_cache:
        _require_rep(s, p), _require_rep(s, q)
    return _product(s, p, q)


def _product(s: WhStructure, p: tuple, q: tuple) -> tuple:
    """multiply on operands known to be representatives: letters of a
    normalized structure and the products it returned, which the table's
    shape invariant makes representatives too."""
    got = s._mul_cache.get((p, q))
    if got is None:
        prefix = p + (SEP1,) + q + (SEP2,)
        least = cfglib.least_completions(s.table, prefix, s.ranks)
        if not least:
            raise EmptyProductError(
                f"product of {' '.join(p)!r} and {' '.join(q)!r} has no representative")
        s._mul_cache[(p, q)] = got = least[0]
    return got


def represent(s: WhStructure, w) -> tuple:
    """A representative of the element named by an alphabet word, computed
    bottom-up by halving the letter sequence."""
    w = tuple(w)
    if not w:
        raise OperandError("cannot represent the empty word")
    ns = normalize_generators(s)
    got = ns._rep_cache.get(w)
    if got is not None:
        return got
    for sym in w:
        if sym not in ns.alphabet:
            raise OperandError(f"letter {sym!r} is not in the alphabet")
    seq = [(sym,) for sym in w]
    while len(seq) > 1:
        nxt = [_product(ns, seq[i], seq[i + 1]) for i in range(0, len(seq) - 1, 2)]
        if len(seq) % 2:
            nxt.append(seq[-1])
        seq = nxt
    ns._rep_cache[w] = seq[0]
    return seq[0]


def word_eq(s: WhStructure, w, w2) -> bool:
    """The word problem: do two alphabet words name the same element?

    Single letters compare directly (the interpretation is injective on the
    alphabet; loading checks what of that is decidable, that no two letters
    are assigned the same representative); otherwise the longer word splits
    at half length and the three representatives feed one product check.
    """
    w, w2 = tuple(w), tuple(w2)
    if not w or not w2:
        raise OperandError("word_eq needs nonempty words")
    ns = normalize_generators(s)
    if len(w) == 1 and len(w2) == 1:
        for sym in w + w2:
            if sym not in ns.alphabet:
                raise OperandError(f"letter {sym!r} is not in the alphabet")
        return w == w2
    if len(w) < len(w2):
        w, w2 = w2, w
    mid = len(w) // 2
    u1 = represent(ns, w[:mid])
    u2 = represent(ns, w[mid:])
    u = represent(ns, w2)
    return check_multiply(ns, u1, u2, u)
