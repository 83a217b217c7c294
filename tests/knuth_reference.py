"""The least-word passes that `cfg._Pass` replaced, kept as differential
references: a lightest-derivation pass with one word per node, and bounded
enumeration as a memoized walk over the normal form.  `shortest_word` and
`enumerate_words` here are the library functions as they were built on
them."""

import heapq

from whsg.cfg import cnf_of, derives_epsilon, lowered_of
from conftest import symbol_ranks
from whsg.words import shortlex_key


def lightest(low, ranks=None):
    """Least derivation per node: node -> (length, word) for every node that
    derives a word, the word shortlex-least as a tuple of symbol ranks.

    Knuth's generalization of Dijkstra's algorithm (1977): concatenation is
    monotone in shortlex order and never below either part, so the first
    pop of a node carries its least word, unit and epsilon cycles included.
    With ranks=None every word is () and only the lengths are minimal.
    """
    heap = [(0, (), a) for a in low.eps]
    for a, syms in low.term_bodies.items():
        w = () if ranks is None else (min(ranks[s] for s in syms),)
        heap.append((1, w, a))
    heapq.heapify(heap)
    best: dict = {}
    while heap:
        n, w, a = heapq.heappop(heap)
        if a in best:
            continue
        best[a] = (n, w)
        for head in low.unit_index.get(a, ()):
            if head not in best:
                heapq.heappush(heap, (n, w, head))
        for head, c in low.left_index.get(a, ()):
            right = best.get(c)
            if right is not None and head not in best:
                heapq.heappush(heap, (n + right[0], w + right[1], head))
        for head, b in low.right_index.get(a, ()):
            left = best.get(b)
            if left is not None and head not in best:
                heapq.heappush(heap, (left[0] + n, left[1] + w, head))
    return best


def _trampoline(gen_fn, first):
    """Drive a generator-shaped recursion on an explicit stack.

    The generator yields argument tuples for sub-calls and receives their
    return values from send(); its own result travels via StopIteration.
    """
    stack = [gen_fn(*first)]
    sent = None
    while True:
        try:
            request = stack[-1].send(sent)
        except StopIteration as stop:
            stack.pop()
            if not stack:
                return stop.value
            sent = stop.value
            continue
        stack.append(gen_fn(*request))
        sent = None


def shortest_word(g, ranks=None):
    if ranks is None:
        ranks = symbol_ranks(g.terminals)
    if derives_epsilon(g):
        return ()
    low = lowered_of(g)
    got = lightest(low, ranks).get(low.start)
    if got is None:
        return None
    symbol = {r: s for s, r in ranks.items()}
    return tuple(symbol[r] for r in got[1])


def enumerate_words(g, maxlen, ranks=None):
    if ranks is None:
        ranks = symbol_ranks(g.terminals)
    out = {()} if derives_epsilon(g) else set()
    # the normal form has no epsilon or unit rules, so every sub-call asks
    # for a strictly shorter length and the recursion has no cycles
    cnf = cnf_of(g)
    minlen = {a: n for a, (n, _w) in lightest(cnf).items()}
    memo: dict = {}

    def words(a, n):
        got = memo.get((a, n))
        if got is not None:
            return got
        acc = set()
        if a in minlen and minlen[a] <= n:
            if n == 1:
                acc.update((sym,) for sym in cnf.term_bodies.get(a, ()))
            for b, c in cnf.binary_by_head.get(a, ()):
                for s in range(minlen[b], n - minlen[c] + 1):
                    left = yield (b, s)
                    if left:
                        right = yield (c, n - s)
                        acc.update(u + v for u in left for v in right)
        memo[(a, n)] = acc
        return acc

    for n in range(1, maxlen + 1):
        out |= _trampoline(words, (cnf.start, n))
    return sorted(out, key=shortlex_key(ranks))
