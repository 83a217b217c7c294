"""Element arithmetic: verify a product, compute a product representative,
compute a representative of an arbitrary word, decide element equality.

Products are read off the table language: the representatives of
elt(p)elt(q) are exactly the words w with p#1q#2w-reversed in the table.
Witness selection is always shortest-then-lexicographic under the declared
symbol order, so every operation is deterministic.  Representing words
halves them level by level; on a generic table the products of one level
that no earlier call cached are read off one chart of their prefixes
joined (`cfg.least_completions_batch`) and stored in the multiply cache,
where the level's products are then taken in order.
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


def _prefetch(s: WhStructure, pairs) -> None:
    """Put the products of the pairs missing from the multiply cache there,
    off one joined chart (`cfg.least_completions_batch`), when at least two
    are missing; a single one is left to _product.  Storing stops at the
    first empty product, so the cache holds what taking the products one by
    one would have stored before _product raises on that pair."""
    todo = [pq for pq in dict.fromkeys(pairs) if pq not in s._mul_cache]
    if len(todo) < 2:
        return
    prefixes = [p + (SEP1,) + q + (SEP2,) for p, q in todo]
    for pq, least in zip(todo, cfglib.least_completions_batch(
            s.table, prefixes, s.ranks)):
        if not least:
            break
        s._mul_cache[pq] = least[0]


def _halved(ns: WhStructure, words) -> list:
    """Representatives of nonempty alphabet words, computed bottom-up by
    halving their letter sequences and kept in the representative cache;
    the letters of every word the cache lacks are checked before any is
    halved.  On a generic table the uncached words go one level at a time:
    the products of a level that the multiply cache lacks are prefetched
    together, then every product of the level is taken through _product in
    order.  No level has more products than the one below it, so when the
    first has fewer than two each word goes alone, as it does on a flat
    table, whose products are cheaper one by one (through the joint loop,
    decide-flat's op_p50_ms read 0.0442 against 0.0410 ms in 10 alternated
    pairs)."""
    cache = ns._rep_cache
    todo = [w for w in words if w not in cache]
    for w in todo:
        for sym in w:
            if sym not in ns.alphabet:
                raise OperandError(f"letter {sym!r} is not in the alphabet")
    if ns.table.flat_words is not None or sum(len(w) // 2 for w in todo) < 2:
        for w in todo:
            seq = [(sym,) for sym in w]
            while len(seq) > 1:
                nxt = [_product(ns, seq[i], seq[i + 1])
                       for i in range(0, len(seq) - 1, 2)]
                if len(seq) % 2:
                    nxt.append(seq[-1])
                seq = nxt
            cache[w] = seq[0]
        return [cache[w] for w in words]
    seqs = [[(sym,) for sym in w] for w in todo]
    while any(len(seq) > 1 for seq in seqs):
        levels = [list(zip(seq[::2], seq[1::2])) for seq in seqs]
        _prefetch(ns, [pq for level in levels for pq in level])
        seqs = [[_product(ns, p, q) for p, q in level] + seq[2 * len(level):]
                for level, seq in zip(levels, seqs)]
    cache.update(zip(todo, (seq[0] for seq in seqs)))
    return [cache[w] for w in words]


def represent(s: WhStructure, w) -> tuple:
    """A representative of the element named by an alphabet word, computed
    bottom-up by halving the letter sequence; on a generic table the
    uncached products of each halving level share one chart."""
    w = tuple(w)
    if not w:
        raise OperandError("cannot represent the empty word")
    return _halved(normalize_generators(s), (w,))[0]


def word_eq(s: WhStructure, w, w2) -> bool:
    """The word problem: do two alphabet words name the same element?

    Single letters compare directly (the interpretation is injective on the
    alphabet; loading checks what of that is decidable, that no two letters
    are assigned the same representative); otherwise the longer word splits
    at half length and the three representatives feed one product check.
    On a generic table the three words are halved together, so the
    uncached products of each level of all three share one chart.
    """
    w, w2 = tuple(w), tuple(w2)
    if not w or not w2:
        raise OperandError("word_eq needs nonempty words")
    ns = normalize_generators(s)
    if len(w) == 1 and len(w2) == 1:
        _halved(ns, (w, w2))    # checks the letters
        return w == w2
    if len(w) < len(w2):
        w, w2 = w2, w
    mid = len(w) // 2
    return check_multiply(ns, *_halved(ns, (w[:mid], w[mid:], w2)))
