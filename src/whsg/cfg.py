"""Context-free grammars: normalization, membership, shortest words,
regular intersection, prefix quotients and bounded enumeration.

Grammars whose productions are all flat terminal words from the start
symbol (finite multiplication tables, mostly) expose ``flat_words`` and
every operation on them degenerates to set manipulation.  Everything else
goes through one cached lowering to bodies of at most two symbols: of the
grammar as given for shortest words and enumeration, and of its
normalization for CYK membership (a bit-parallel inner loop, cubic in the
word length), prefix quotients and the one grammar x automaton product
behind regular intersection and transducer images.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict, deque

from .nfa import Nfa
from .words import shortlex_key, symbol_ranks


class Cfg:
    """Immutable context-free grammar over string terminals.

    Nonterminals are arbitrary hashables; grammars that round-trip through
    files use plain strings.
    """

    def __init__(self, nonterminals, terminals, start, productions):
        self.nonterminals = tuple(dict.fromkeys(nonterminals))
        self.terminals = tuple(dict.fromkeys(terminals))
        self.start = start
        nts = set(self.nonterminals)
        ts = set(self.terminals)
        if nts & ts:
            raise ValueError("nonterminals and terminals overlap")
        if start not in nts:
            raise ValueError("start symbol is not a declared nonterminal")
        prods = []
        seen = set()
        for head, body in productions:
            body = tuple(body)
            if head not in nts:
                raise ValueError(f"undeclared production head {head!r}")
            for x in body:
                if x not in nts and x not in ts:
                    raise ValueError(f"undeclared body symbol {x!r}")
            if (head, body) not in seen:
                seen.add((head, body))
                prods.append((head, body))
        self.productions = tuple(prods)
        self.flat_words = self._detect_flat()
        self._normal = None
        self._lowered = None

    @classmethod
    def from_words(cls, terminals, words, start="S") -> "Cfg":
        return cls([start], terminals, start, [(start, tuple(w)) for w in words])

    def _detect_flat(self):
        ts = set(self.terminals)
        for head, body in self.productions:
            if head != self.start or any(x not in ts for x in body):
                return None
        return frozenset(body for _h, body in self.productions)

    def map_terminals(self, f) -> "Cfg":
        """Relabel terminals through f; nonterminals are untouched."""
        nts = set(self.nonterminals)
        terminals = [f(t) for t in self.terminals]
        prods = [(h, tuple(x if x in nts else f(x) for x in b))
                 for h, b in self.productions]
        return Cfg(self.nonterminals, terminals, self.start, prods)

    def __eq__(self, other):
        if not isinstance(other, Cfg):
            return NotImplemented
        return (self.nonterminals == other.nonterminals
                and self.terminals == other.terminals
                and self.start == other.start
                and set(self.productions) == set(other.productions))

    def __hash__(self):
        return hash((self.nonterminals, self.terminals, self.start))

    def __repr__(self):
        return (f"Cfg(nonterminals={len(self.nonterminals)}, "
                f"productions={len(self.productions)}, "
                f"flat={self.flat_words is not None})")


def derives_epsilon(g: Cfg) -> bool:
    if g.flat_words is not None:
        return () in g.flat_words
    nullable = _nullable_set(g)
    return g.start in nullable


def _closure(prods, nts):
    """Least set of heads closed under: a head holds once every nonterminal
    of one of its bodies holds (terminals always hold).

    Linear in the total body length (Dowling and Gallier 1984): one counter
    per production of its nonterminal occurrences still unmet, an index from
    each nonterminal to the productions it occurs in, and a worklist; each
    occurrence is decremented once.
    """
    heads = []
    unmet = []
    occurs = defaultdict(list)
    holds = set()
    for i, (head, body) in enumerate(prods):
        heads.append(head)
        n = 0
        for x in body:
            if x in nts:
                occurs[x].append(i)
                n += 1
        unmet.append(n)
        if not n:
            holds.add(head)
    agenda = list(holds)
    while agenda:
        for i in occurs.get(agenda.pop(), ()):
            unmet[i] -= 1
            if not unmet[i] and heads[i] not in holds:
                holds.add(heads[i])
                agenda.append(heads[i])
    return holds


def _nullable_set(g: Cfg):
    nts = set(g.nonterminals)
    return _closure([(h, b) for h, b in g.productions
                     if all(x in nts for x in b)], nts)


def normalize(g: Cfg, strict: bool = True) -> Cfg:
    """Equivalent grammar without epsilon productions, unit productions or
    useless symbols.

    With strict=True the language must not contain the empty word, also
    when the result is already cached; with strict=False the empty word is
    silently dropped from the language.  An empty language yields a grammar
    with no productions.

    Time is linear in the grammar size plus the output size (the nullable
    and productive sets are one counter-based pass each), up to the sort of
    the output and two steps: each body is expanded over every subset of
    its nullable symbols (2^k bodies for k of them), and the unit-rule
    closure walks, from every nonterminal, all those it reaches by unit
    rules.
    """
    if strict and derives_epsilon(g):
        raise ValueError("language contains the empty word")
    if g.flat_words is not None:
        words = [w for w in g.flat_words if w]
        return Cfg.from_words(g.terminals, words, g.start)
    if g._normal is not None:
        return g._normal

    nts = set(g.nonterminals)
    nullable = _nullable_set(g)
    prods = set()
    for head, body in g.productions:
        options = [(x,) if x not in nullable else (x, None) for x in body]
        for combo in itertools.product(*options):
            b = tuple(x for x in combo if x is not None)
            if b:
                prods.add((head, b))

    # unit-production closure
    unit_edges = defaultdict(set)
    nonunit = defaultdict(set)
    for head, body in prods:
        if len(body) == 1 and body[0] in nts:
            unit_edges[head].add(body[0])
        else:
            nonunit[head].add(body)
    closed = set()
    for src in nts:
        reach = {src}
        agenda = deque([src])
        while agenda:
            cur = agenda.popleft()
            for nxt in unit_edges.get(cur, ()):
                if nxt not in reach:
                    reach.add(nxt)
                    agenda.append(nxt)
        for tgt in reach:
            for body in nonunit.get(tgt, ()):
                closed.add((src, body))
    prods = closed
    # freed first, so that the closure's occurrence index does not raise
    # the peak memory of large product grammars
    del unit_edges, nonunit

    productive = _closure(prods, nts)
    if g.start not in productive:
        out = Cfg([g.start], g.terminals, g.start, [])
        g._normal = out
        out._normal = out
        return out
    prods = {(h, b) for h, b in prods
             if h in productive and all(x not in nts or x in productive for x in b)}

    # reachable nonterminals
    reachable = {g.start}
    agenda = deque([g.start])
    by_head = defaultdict(list)
    for h, b in prods:
        by_head[h].append(b)
    while agenda:
        a = agenda.popleft()
        for body in by_head[a]:
            for x in body:
                if x in nts and x not in reachable:
                    reachable.add(x)
                    agenda.append(x)
    prods = sorted(((h, b) for h, b in prods if h in reachable),
                   key=lambda p: (_stable_key(p[0]), len(p[1]),
                                  tuple(_stable_key(x) for x in p[1])))
    keep = [a for a in g.nonterminals if a in reachable]
    out = Cfg(keep, g.terminals, g.start, prods)
    g._normal = out
    out._normal = out
    return out


def _stable_key(x):
    return (x,) if isinstance(x, str) else ("\x00", repr(x))


def is_empty_language(g: Cfg) -> bool:
    return g.start not in _closure(g.productions, set(g.nonterminals))


class _Lowered:
    """Binarized grammar: every body has at most two symbols.

    Nodes are the ints 0..size-1: the start first, then, production by
    production, the head, the body symbols (each terminal of a longer body
    through one wrapper node) and the split nodes of bodies longer than two.
    Epsilon and unit bodies are kept, so any grammar lowers in linear size;
    the lowering of a normalized grammar has neither and is the CYK form.
    """

    __slots__ = ("start", "size", "term_bodies", "by_sym", "unit", "eps",
                 "binary", "binary_by_head", "left_index", "right_index",
                 "unit_index")

    def __init__(self, start, size, term_bodies, by_sym, unit, eps, binary):
        self.start = start
        self.size = size
        self.term_bodies = term_bodies  # node -> list of terminals
        self.by_sym = by_sym            # terminal -> list of nodes
        self.unit = unit                # node -> list of nodes
        self.eps = eps                  # nodes with an epsilon body
        self.binary = binary            # tuple of (A, B, C) node triples
        self.binary_by_head = defaultdict(list)  # A -> [(B, C)]
        self.left_index = defaultdict(list)      # B -> [(A, C)]
        self.right_index = defaultdict(list)     # C -> [(A, B)]
        self.unit_index = defaultdict(list)      # B -> [A] for A -> B
        for a, b, c in binary:
            self.binary_by_head[a].append((b, c))
            self.left_index[b].append((a, c))
            self.right_index[c].append((a, b))
        for a, targets in unit.items():
            for b in targets:
                self.unit_index[b].append(a)


def _lower(g: Cfg) -> _Lowered:
    nts = set(g.nonterminals)
    ids: dict = {}

    def node(x):
        got = ids.get(x)
        if got is None:
            got = ids[x] = len(ids)
        return got

    term_bodies = defaultdict(list)
    by_sym = defaultdict(list)
    unit = defaultdict(list)
    eps = set()
    binary = []
    wrappers: dict = {}

    def wrap(sym):
        if sym not in wrappers:
            w = wrappers[sym] = node(("@t", sym))
            by_sym[sym].append(w)
            term_bodies[w].append(sym)
        return wrappers[sym]

    start = node(g.start)
    for idx, (head, body) in enumerate(g.productions):
        h = node(head)
        if not body:
            eps.add(h)
        elif len(body) == 1:
            x = body[0]
            if x in nts:
                unit[h].append(node(x))
            else:
                by_sym[x].append(h)
                term_bodies[h].append(x)
        else:
            parts = [node(x) if x in nts else wrap(x) for x in body]
            cur = h
            for i in range(len(parts) - 2):
                nxt = node(("@s", idx, i))
                binary.append((cur, parts[i], nxt))
                cur = nxt
            binary.append((cur, parts[-2], parts[-1]))
    return _Lowered(start, len(ids), term_bodies, by_sym, unit,
                    frozenset(eps), tuple(binary))


def lowered_of(g: Cfg) -> _Lowered:
    """The cached lowering of g as it is, epsilon and unit bodies included."""
    if g._lowered is None:
        g._lowered = _lower(g)
    return g._lowered


def cnf_of(g: Cfg) -> _Lowered:
    """The lowering of normalize(g, strict=False): terminal rules A -> a and
    binary rules A -> B C only, as CYK, quotients and products need."""
    gn = g._normal if g._normal is not None else normalize(g, strict=False)
    return lowered_of(gn)


def _cyk_masks(cnf: _Lowered, w):
    """masks[A][l] has bit i set iff nonterminal A derives w[i:i+l]."""
    n = len(w)
    size = cnf.size
    masks = [[0] * (n + 1) for _ in range(size)]
    for i, sym in enumerate(w):
        for a in cnf.by_sym.get(sym, ()):
            masks[a][1] |= 1 << i
    binary = cnf.binary
    for l in range(2, n + 1):
        for a, b, c in binary:
            mb = masks[b]
            mc = masks[c]
            acc = 0
            k = 1
            while k < l:
                x = mb[k]
                if x:
                    y = mc[l - k]
                    if y:
                        acc |= x & (y >> k)
                k += 1
            if acc:
                masks[a][l] |= acc
    return masks


def membership(g: Cfg, w) -> bool:
    """Word membership; cubic-time CYK on the cached binarized form."""
    w = tuple(w)
    if g.flat_words is not None:
        return w in g.flat_words
    if not w:
        return derives_epsilon(g)
    ts = set(g.terminals)
    if any(s not in ts for s in w):
        return False
    cnf = cnf_of(g)
    masks = _cyk_masks(cnf, w)
    return bool(masks[cnf.start][len(w)] & 1)


def _min_lengths_lowered(low: _Lowered):
    """Minimal derivable word length per node (Knuth/Dijkstra fixpoint)."""
    dist: dict = {}
    heap = [(0, a) for a in low.eps] + [(1, a) for a in low.term_bodies]
    heapq.heapify(heap)
    while heap:
        d, a = heapq.heappop(heap)
        if a in dist:
            continue
        dist[a] = d
        for head in low.unit_index.get(a, ()):
            if head not in dist:
                heapq.heappush(heap, (d, head))
        for head, other in low.left_index.get(a, ()):
            if other in dist and head not in dist:
                heapq.heappush(heap, (d + dist[other], head))
        for head, other in low.right_index.get(a, ()):
            if other in dist and head not in dist:
                heapq.heappush(heap, (d + dist[other], head))
    return dist


_UNSET = object()


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


def shortest_word(g: Cfg, ranks=None):
    """Shortest word of the language, lexicographically least among those;
    None when the language is empty."""
    if g.flat_words is not None:
        if not g.flat_words:
            return None
        if ranks is None:
            ranks = symbol_ranks(g.terminals)
        return min(g.flat_words, key=shortlex_key(ranks))
    if derives_epsilon(g):
        return ()
    if ranks is None:
        ranks = symbol_ranks(g.terminals)
    low = lowered_of(g)
    minlen = _min_lengths_lowered(low)
    total = minlen.get(low.start)
    if total is None:
        return None
    memo: dict = {}
    frames: dict = {}
    inf = float("inf")

    def key(w):
        return tuple(ranks[s] for s in w)

    def best(a, n, depth):
        # Unit or epsilon-sibling cycles re-enter (a, n) at the same length.
        # Re-entries are cut (derivations through the cycle yield nothing the
        # first visit does not) and results that depended on a cut below an
        # ancestor frame are not memoized.  Written as a generator driven by
        # _trampoline so deep quotient grammars cannot overflow the C stack.
        cached = memo.get((a, n), _UNSET)
        if cached is not _UNSET:
            return cached, inf
        if (a, n) in frames:
            return None, frames[(a, n)]
        frames[(a, n)] = depth
        low_dep = inf
        result = None
        if n == 0 and a in low.eps:
            result = ()
        if n == 1:
            syms = low.term_bodies.get(a)
            if syms:
                result = (min(syms, key=lambda s: ranks[s]),)
        for b in low.unit.get(a, ()):
            mb = minlen.get(b)
            if mb is None or mb > n:
                continue
            wb, dep = yield (b, n, depth + 1)
            low_dep = min(low_dep, dep)
            if wb is not None and (result is None or key(wb) < key(result)):
                result = wb
        for b, c in low.binary_by_head.get(a, ()):
            mb = minlen.get(b)
            mc = minlen.get(c)
            if mb is None or mc is None or mb + mc > n:
                continue
            for s in range(mb, n - mc + 1):
                wb, dep = yield (b, s, depth + 1)
                low_dep = min(low_dep, dep)
                if wb is None:
                    continue
                wc, dep = yield (c, n - s, depth + 1)
                low_dep = min(low_dep, dep)
                if wc is None:
                    continue
                cand = wb + wc
                if result is None or key(cand) < key(result):
                    result = cand
        del frames[(a, n)]
        if low_dep >= depth:
            memo[(a, n)] = result
            return result, inf
        return result, low_dep

    return _trampoline(best, (low.start, total, 0))[0]


def enumerate_words(g: Cfg, maxlen: int, ranks=None):
    """All words of the language with length <= maxlen, shortlex order."""
    if ranks is None:
        ranks = symbol_ranks(g.terminals)
    if g.flat_words is not None:
        return sorted((w for w in g.flat_words if len(w) <= maxlen),
                      key=shortlex_key(ranks))
    out = set()
    if derives_epsilon(g):
        out.add(())
    low = lowered_of(g)
    minlen = _min_lengths_lowered(low)
    memo: dict = {}
    frames: dict = {}
    inf = float("inf")

    def words(a, n, depth):
        got = memo.get((a, n))
        if got is not None:
            return got, inf
        if (a, n) in frames:
            return frozenset(), frames[(a, n)]
        ml = minlen.get(a)
        if ml is None or ml > n:
            memo[(a, n)] = frozenset()
            return memo[(a, n)], inf
        frames[(a, n)] = depth
        low_dep = inf
        acc = set()
        if n == 0 and a in low.eps:
            acc.add(())
        if n == 1:
            for sym in low.term_bodies.get(a, ()):
                acc.add((sym,))
        for b in low.unit.get(a, ()):
            got, dep = yield (b, n, depth + 1)
            low_dep = min(low_dep, dep)
            acc |= got
        for b, c in low.binary_by_head.get(a, ()):
            for s in range(0, n + 1):
                left, dep = yield (b, s, depth + 1)
                low_dep = min(low_dep, dep)
                if not left:
                    continue
                right, dep = yield (c, n - s, depth + 1)
                low_dep = min(low_dep, dep)
                for u in left:
                    for v in right:
                        acc.add(u + v)
        del frames[(a, n)]
        acc = frozenset(acc)
        if low_dep >= depth:
            memo[(a, n)] = acc
            return acc, inf
        return acc, low_dep

    for n in range(1, maxlen + 1):
        out |= _trampoline(words, (low.start, n, 0))[0]
    return sorted(out, key=shortlex_key(ranks))


# -- regular intersection (grammar x automaton product) ------------------------


def intersect_regular(g: Cfg, a: Nfa) -> Cfg:
    """Grammar for language(g) & language(a).

    Product construction over the binarized grammar; like every product
    built there, it drops the empty word (flat grammars keep it).
    """
    if g.flat_words is not None:
        return Cfg.from_words(g.terminals,
                              [w for w in g.flat_words if a.accepts(w)],
                              g.start)
    cnf = cnf_of(g)
    leaves = [((src, nt, dst), (sym,))
              for (src, sym), dsts in a.transitions.items()
              for nt in cnf.by_sym.get(sym, ()) for dst in dsts]
    tops = [(i, f) for i in a.initial for f in a.accepting]
    return _product_grammar(cnf, leaves, tops, g.terminals)


def _product_grammar(cnf: _Lowered, leaves, tops, terminals,
                     extra_nts=(), extra_prods=()) -> Cfg:
    """Normalized product of a binarized grammar with a state space.

    An item (p, A, q) derives what A derives along some run from state p to
    state q.  `leaves` are the productions ((p, A, q), body) for the terminal
    rules of A; the closure combines items bottom-up over the binary rules,
    so only productive items are materialized.  The new start derives
    (p, start, q) for each (p, q) in `tops`.  `extra_nts` and `extra_prods`
    carry nonterminals the leaf bodies use besides the items.
    """
    starts = defaultdict(set)   # (nt, p) -> set of q
    ends = defaultdict(set)     # (nt, q) -> set of p
    items = set()
    agenda = deque()

    def add(it):
        if it not in items:
            p, nt, q = it
            items.add(it)
            starts[(nt, p)].add(q)
            ends[(nt, q)].add(p)
            agenda.append(it)

    prods = list(leaves)
    for it, _body in prods:
        add(it)
    while agenda:
        p, nt, q = agenda.popleft()
        for head, right in cnf.left_index.get(nt, ()):
            for end in starts.get((right, q), ()):
                add((p, head, end))
        for head, left in cnf.right_index.get(nt, ()):
            for begin in ends.get((left, p), ()):
                add((begin, head, q))

    for p, nt, q in items:
        for b, c in cnf.binary_by_head.get(nt, ()):
            for mid in starts.get((b, p), ()):
                if (mid, c, q) in items:
                    prods.append(((p, nt, q), ((p, b, mid), (mid, c, q))))
    start = ("&S",)
    prods += [(start, ((p, cnf.start, q),)) for p, q in tops
              if (p, cnf.start, q) in items]
    prods += extra_prods
    nonterminals = [start] + sorted(items, key=repr) + list(extra_nts)
    raw = Cfg(nonterminals, terminals, start, prods)
    return normalize(raw, strict=False)


# -- prefix quotients -----------------------------------------------------------


def prefix_quotient(g: Cfg, prefix) -> Cfg:
    """Grammar for { y : prefix . y in language(g) }, without the empty word.

    Built from the CYK chart of the prefix: closed spans feed unit rules,
    open spans chain into the untouched remainder of the grammar.
    """
    x = tuple(prefix)
    n = len(x)
    if n == 0:
        return g
    if g.flat_words is not None:
        words = [w[n:] for w in g.flat_words if len(w) > n and w[:n] == x]
        return Cfg.from_words(g.terminals, words, g.start)
    cnf = cnf_of(g)
    masks = _cyk_masks(cnf, x)
    # spans[b][i] = ends k (i < k <= n) with b deriving x[i:k]
    spans = [defaultdict(list) for _ in range(cnf.size)]
    for b in range(cnf.size):
        row = masks[b]
        for l in range(1, n + 1):
            m = row[l]
            while m:
                low = m & -m
                i = low.bit_length() - 1
                spans[b][i].append(i + l)
                m ^= low
    prods = []
    seen = set()
    agenda = deque()

    def q_ref(nt, i):
        if i == n:
            return o_ref(nt)
        node = ("q", nt, i)
        if node not in seen:
            seen.add(node)
            agenda.append(node)
        return node

    def o_ref(nt):
        node = ("o", nt)
        if node not in seen:
            seen.add(node)
            agenda.append(node)
        return node

    start = q_ref(cnf.start, 0)
    while agenda:
        node = agenda.popleft()
        if node[0] == "o":
            nt = node[1]
            for sym in cnf.term_bodies.get(nt, ()):
                prods.append((node, (sym,)))
            for b, c in cnf.binary_by_head.get(nt, ()):
                prods.append((node, (o_ref(b), o_ref(c))))
            continue
        _tag, nt, i = node
        for sym in cnf.term_bodies.get(nt, ()):
            if i == n - 1 and x[i] == sym:
                prods.append((node, ()))
        for b, c in cnf.binary_by_head.get(nt, ()):
            for k in spans[b].get(i, ()):
                prods.append((node, (q_ref(c, k),)))
            prods.append((node, (q_ref(b, i), o_ref(c))))
    raw = Cfg(sorted(seen, key=repr), g.terminals, start, prods)
    return normalize(raw, strict=False)


def reverse_cfg(g: Cfg) -> Cfg:
    """Grammar for the reversed language."""
    if g.flat_words is not None:
        return Cfg.from_words(g.terminals,
                              [tuple(reversed(w)) for w in g.flat_words],
                              g.start)
    prods = [(h, tuple(reversed(b))) for h, b in g.productions]
    return Cfg(g.nonterminals, g.terminals, g.start, prods)


def union_cfgs(grammars, terminals=None) -> Cfg:
    """Grammar for the union of the given languages."""
    grammars = list(grammars)
    if terminals is None:
        terminals = tuple(dict.fromkeys(t for g in grammars for t in g.terminals))
    if all(g.flat_words is not None for g in grammars):
        words = set()
        for g in grammars:
            words |= g.flat_words
        return Cfg.from_words(terminals, words)
    start = ("&U",)
    nonterminals = [start]
    prods = []
    for idx, g in enumerate(grammars):
        tag = lambda a, idx=idx: (idx, a)
        nonterminals.extend(tag(a) for a in g.nonterminals)
        prods.append((start, (tag(g.start),)))
        nts = set(g.nonterminals)
        for h, b in g.productions:
            prods.append((tag(h), tuple(tag(x) if x in nts else x for x in b)))
    return Cfg(nonterminals, terminals, start, prods)
