"""Context-free grammars: normalization, membership, shortest words, least
completions of a prefix, regular intersection and bounded enumeration.

Every query takes a grammar and a question, nothing more: words are
ordered shortlex in the order the grammar declares its terminals
(`Cfg.rank`), settled as tuples of those ranks and spelled back from the
terminals.

Grammars whose productions are all flat terminal words from the start
symbol (finite multiplication tables, mostly) expose ``flat_words``, from
which `membership`, `least_completions` (one prefix at a time),
`least_word` and `intersects` answer; this module is the only one that
tells such tables apart, beside the transducer image's shortcut.  Without
them the finite-table procedures spend most of their time on charts and
products over hundreds of lowered nodes.  The completions read only the
words that begin with their prefix, one run of the sorted words
(`flat_run`).  `least_word` and `intersects` let a slot view
(`structure._Slots`, or a complement of one) pick its words off the
table's cut (`flat_cut`): each word cut once at its first #1 and the next
#2 into the entry (u, v, y) of u #1 v #2 y, grouped by u, beside the words
that do not cut.  Any other space is asked about every word, as the
palindromic test's complement is.  Everything else goes through one cached
lowering to bodies of at most two symbols.  The queries read the lowering
of the normal form with its bisimilar nodes merged (`cnf_of`, by the
coarsest partition of `partition.bisimilar_blocks`), built once per
grammar: a product table carries one nonterminal per state pair, and most
of the copies derive the same words.  Least words come from one lazily
stepped pass, `_Pass`: Knuth's generalization of Dijkstra's
algorithm (1977) with up to k distinct words per node (Huang and Chiang
2005), forward or reversed.  Over the lowering as given it yields the
shortest word (k = 1), the mirror test's two least words per nonterminal
(k = 2) and bounded enumeration (k unbounded, no candidate past the
bound).  The merged lowering carries a one-symbol left
context (`_after`), the nodes that may begin after each terminal, and
serves one CYK chart (bit-parallel rows, with work that follows the split
pairs whose rows are both nonzero, a node's row made on its first bit)
that keeps only the items whose node may begin after the symbol before
them.  It answers membership and gives least completions their closed
items; `least_completions` and `memberships` read several words off one
chart of them joined by a break, each between its own positions, and pay
the chart's fixed cost once per `_JOIN_CAP` symbols.  The k least
completions of a prefix are a weighted item pass in the same Knuth order
that opens only items the left context admits.  Its items past the end of
the prefix do not depend on the prefix: one reversed pass per lowering
and k settles them for every call, and each call subscribes its own
items to the nodes whose words extend them.  The same lowering serves the
one goal-directed grammar x state-space closure, which builds only the
items its start can use, and reads every state space, an automaton as the
transducer that copies its input, by one protocol (`_asked`); regular
intersection and transducer images write the product's normal form from
the items, with no second pass through `normalize`; `least_word` reads
the product's least word off them and `intersects` whether it has one,
and neither writes it.  The two writers of a normal form, `normalize`
from a grammar's subset expansion and `_product_grammar` from the items,
share their passes: one counter fixpoint, `_settled`, for the nullable,
productive and nonempty sets, then the unit closure `_unit_closed`, what
the start reaches (`_reach`) and the stable order of `_ranked`.  Regular
intersection alone reads the lowering of the normal form as written,
whose nodes name the items it writes.
`is_free` substitutes its representatives by `Nfa.substitute`.  An
automaton's shortest and enumerated words come from `_Pass` too, over its
right-linear grammar `Cfg.from_nfa`, one per automaton.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from typing import TYPE_CHECKING

from .partition import bisimilar_blocks
from .words import SEP1, SEP2, shortlex_key, spelled

if TYPE_CHECKING:
    from .nfa import Nfa


class Cfg:
    """Immutable context-free grammar over string terminals.

    Nonterminals are arbitrary hashables; grammars that round-trip through
    files use plain strings.
    """

    def __init__(self, nonterminals, terminals, start, productions):
        self.nonterminals = tuple(dict.fromkeys(nonterminals))
        self.terminals = tuple(dict.fromkeys(terminals))
        # the word order: the terminals' declaration order
        self.rank = {t: i for i, t in enumerate(self.terminals)}
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
        self._nullable = None
        self._normal = None
        self._lowered = None
        self._cnf = None
        self._sorted = None
        self._cut = None

    @classmethod
    def from_words(cls, terminals, words) -> "Cfg":
        return cls(["S"], terminals, "S", [("S", tuple(w)) for w in words])

    @classmethod
    def from_nfa(cls, a: Nfa) -> "Cfg":
        """The right-linear grammar of an automaton, kept on it: state i of
        a.states is the nonterminal i, with an epsilon body when it accepts
        and a body (sym, j) for each arc to state j; the start n = |states|
        has a unit body for each initial state.  Int nonterminals never
        clash with string terminals, whatever the states are named."""
        if a._grammar is None:
            index = {q: i for i, q in enumerate(a.states)}
            n = len(index)
            prods = [(n, (index[q],)) for q in a.initial]
            prods += [(index[q], ()) for q in a.accepting]
            prods += [(index[p], (sym, index[q]))
                      for (p, sym), qs in a.transitions.items() for q in qs]
            a._grammar = cls(range(n + 1), a.alphabet, n, prods)
        return a._grammar

    def _detect_flat(self):
        ts = set(self.terminals)
        for head, body in self.productions:
            if head != self.start or any(x not in ts for x in body):
                return None
        return frozenset(body for _h, body in self.productions)

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


def flat_run(g: Cfg, prefix: tuple) -> tuple:
    """The words of a flat g that begin with prefix, in tuple order: one
    bisection into the sorted tuple of g's words, which the first call on g
    builds and keeps."""
    words = g._sorted
    if words is None:
        words = g._sorted = tuple(sorted(g.flat_words))
    n = len(prefix)
    lo = bisect_left(words, prefix)
    return words[lo:bisect_right(words, prefix, lo, key=lambda w: w[:n])]


def flat_cut(g: Cfg) -> tuple:
    """(entries, uncut) of a flat g, which the first call on g builds and
    keeps: `entries` maps each u to the (v, y, w) of every word
    w = u #1 v #2 y, cut at its first #1 and the next #2, and `uncut`
    holds the nonempty words with no such cut."""
    if g._cut is None:
        entries, uncut = {}, []
        for w in g.flat_words:
            try:
                i = w.index(SEP1)
                j = w.index(SEP2, i + 1)
            except ValueError:
                if w:
                    uncut.append(w)
                continue
            entries.setdefault(w[:i], []).append((w[i + 1:j], w[j + 1:], w))
        g._cut = (entries, tuple(uncut))
    return g._cut


def derives_epsilon(g: Cfg) -> bool:
    return g.start in _nullable_set(g)


def _closure(prods, nts):
    """Least set of heads closed under: a head holds once every nonterminal
    of one of its bodies holds (terminals always hold)."""
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
    return _settled(heads, unmet, occurs, holds)


def _settled(heads, unmet, occurs, holds):
    """Grow holds to the least set closed under: heads[i] holds once
    unmet[i] of its rule's occurrences hold, where occurs maps a symbol to
    the rules it occurs in, once per occurrence.

    Linear in the total number of occurrences (Dowling and Gallier 1984):
    one counter per rule, the index occurs and a worklist; each occurrence
    is decremented once.
    """
    agenda = list(holds)
    while agenda:
        for i in occurs.get(agenda.pop(), ()):
            unmet[i] -= 1
            if not unmet[i] and heads[i] not in holds:
                holds.add(heads[i])
                agenda.append(heads[i])
    return holds


def _nullable_set(g: Cfg):
    """The nullable nonterminals of g, computed once: a generic table's load
    asks for them twice, by derives_epsilon and by normalize."""
    if g._nullable is None:
        nts = set(g.nonterminals)
        g._nullable = _closure([(h, b) for h, b in g.productions
                                if nts.issuperset(b)], nts)
    return g._nullable


def normalize(g: Cfg) -> Cfg:
    """Equivalent grammar without epsilon productions, unit productions or
    useless symbols, less the empty word if the language holds it.  An
    empty language yields a grammar with no productions.

    Time is linear in the grammar size plus the output size (the nullable
    and productive sets are one `_settled` pass each), up to the sort of
    the output and two steps: each body is expanded over every subset of
    its nullable symbols (2^k bodies for k of them), and the unit-rule
    closure, which copies into every nonterminal the non-unit bodies of all
    those it reaches by unit rules (one pass over the strongly connected
    components of the unit graph).  The passes after the expansion run in
    the product writer's order: productive, filter, unit closure, reach.
    """
    if g._normal is not None:
        return g._normal

    nts = set(g.nonterminals)
    nullable = _nullable_set(g)
    prods = set()
    for head, body in g.productions:
        # a body without nullable symbols expands to itself
        if nullable.isdisjoint(body):
            if body:
                prods.add((head, body))
            continue
        options = [(x,) if x not in nullable else (x, None) for x in body]
        for combo in itertools.product(*options):
            b = tuple(x for x in combo if x is not None)
            if b:
                prods.add((head, b))

    productive = _closure(prods, nts)
    if g.start not in productive:
        out = Cfg([g.start], g.terminals, g.start, [])
        g._normal = out
        out._normal = out
        return out
    # unit bodies neither make nor break productivity, so they are closed
    # after the filter
    units = defaultdict(set)
    nonunit = defaultdict(set)
    whole = len(productive) == len(nts)
    for head, body in prods:
        if whole or head in productive and all(
                x not in nts or x in productive for x in body):
            if len(body) == 1 and body[0] in nts:
                units[head].add(body[0])
            else:
                nonunit[head].add(body)
    # freed before the unit closure and the reach copy the bodies, so that
    # they do not raise the peak memory of large grammars
    del prods
    keep, prods = _reach(g.start, _unit_closed(units, nonunit), nonunit, nts)
    _order, prods = _ranked(itertools.chain(keep, g.terminals), prods)
    out = Cfg([a for a in g.nonterminals if a in keep], g.terminals, g.start,
              prods)
    g._normal = out
    out._normal = out
    return out


def _unit_closed(units, nonunit):
    """a -> the non-unit bodies of every nonterminal a reaches by unit rules,
    itself included, for each a of the unit graph `units`; a nonterminal
    outside it keeps its own bodies, nonunit[a].  Built per strongly
    connected component of the unit graph from the components it points to,
    which come first."""
    bodies = {}
    for comp in _components(units, units):
        got = set()
        for a in comp:
            got |= nonunit.get(a, set())
            for b in units.get(a, ()):
                if b in bodies:
                    got |= bodies[b]
        for a in comp:
            bodies[a] = got
    return bodies


def _reach(start, closed, bodies, nts):
    """The nonterminals of nts that start reaches, and their productions:
    closed[a] where the unit graph has a (`_unit_closed`), else bodies[a]."""
    keep = {start}
    agenda = [start]
    prods = []
    while agenda:
        a = agenda.pop()
        for body in closed[a] if a in closed else bodies[a]:
            prods.append((a, body))
            for x in body:
                if x in nts and x not in keep:
                    keep.add(x)
                    agenda.append(x)
    return keep, prods


def _components(nodes, edges):
    """Strongly connected components of a graph, each a list, every one
    after all the components it has edges into (Tarjan 1972, iterative)."""
    index: dict = {}
    low: dict = {}
    stack = []
    on_stack = set()
    out = []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(edges.get(v, ()))))

    for root in nodes:
        if root in index:
            continue
        work = []
        visit(root)
        while work:
            v, succ = work[-1]
            for w in succ:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def _stable_key(x):
    return (x,) if isinstance(x, str) else ("\x00", repr(x))


def _ranked(symbols, prods):
    """The symbols in _stable_key order, and prods sorted by head, body
    length and body, each symbol at its place in that order."""
    order = sorted(symbols, key=_stable_key)
    rank = {x: i for i, x in enumerate(order)}
    return order, sorted(prods, key=lambda p: (
        rank[p[0]], len(p[1]), tuple(map(rank.__getitem__, p[1]))))


class _Lowered:
    """Binarized grammar: every body has at most two symbols.

    Nodes are the ints 0..size-1, the start first; words are tuples of the
    grammar's terminal ranks (`rank`), spelled from `symbols`.  The lowering
    of a grammar as written (`lowered_of`) numbers, production by
    production, the head, the body symbols (each terminal of a longer body
    through one wrapper node) and the split nodes of bodies longer than two.
    Epsilon and unit bodies are kept, so any grammar lowers in linear size;
    the lowering of a normalized grammar has neither and is the CYK form,
    which `cnf_of` serves with its bisimilar nodes merged.
    """

    __slots__ = ("start", "symbols", "rank", "ids", "size", "term_bodies",
                 "by_sym", "eps", "binary", "binary_by_head", "left_index",
                 "right_index", "unit_index", "partners", "after", "passes")

    def __init__(self, g: Cfg, size, ids, term_bodies, eps, units, binary):
        self.start = 0
        self.symbols, self.rank = g.terminals, g.rank
        self.ids = ids                  # symbol, wrapper or split key -> node
        self.size = size
        self.term_bodies = term_bodies  # node -> list of terminals
        self.by_sym = defaultdict(list)          # terminal -> [node]
        self.eps = eps                  # nodes with an epsilon body
        self.binary = binary            # tuple of (A, B, C) node triples
        self.binary_by_head = defaultdict(list)  # A -> [(B, C)]
        self.left_index = defaultdict(list)      # B -> [(A, C)]
        self.right_index = defaultdict(list)     # C -> [(A, B)]
        self.unit_index = defaultdict(list)      # B -> [A] for A -> B
        # B -> [(r, C)] and C -> [(r, B)] for binary[r] = (A, B, C), built
        # by the first CYK chart over this lowering
        self.partners = None
        # the one-symbol left context of _after, built by the first chart
        self.after = None
        # k -> the reversed _Pass that every least_completions call for its
        # k least words shares
        self.passes = {}
        by_sym, by_head = self.by_sym, self.binary_by_head
        left, right = self.left_index, self.right_index
        for a, syms in term_bodies.items():
            for sym in syms:
                by_sym[sym].append(a)
        for a, b in units:
            self.unit_index[b].append(a)
        for a, b, c in binary:
            by_head[a].append((b, c))
            left[b].append((a, c))
            right[c].append((a, b))


def _binarized(g: Cfg):
    """The node triples of g's lowering as written, numbered as `_Lowered`
    says: (ids, term_bodies, eps, units, binary), units the (A, B) of each
    unit body A -> B."""
    nts = set(g.nonterminals)
    ids: dict = {g.start: 0}
    term_bodies = defaultdict(list)
    units = []
    eps = set()
    binary = []
    for idx, (head, body) in enumerate(g.productions):
        h = ids.setdefault(head, len(ids))
        if len(body) == 1 and body[0] not in nts:
            term_bodies[h].append(body[0])
            continue
        parts = []
        for x in body:
            if x in nts:
                parts.append(ids.setdefault(x, len(ids)))
            else:
                w = ids.get(("@t", x))
                if w is None:
                    w = ids[("@t", x)] = len(ids)
                    term_bodies[w].append(x)
                parts.append(w)
        if not parts:
            eps.add(h)
        elif len(parts) == 1:
            units.append((h, parts[0]))
        else:
            cur = h
            for i in range(len(parts) - 2):
                nxt = ids[("@s", idx, i)] = len(ids)
                binary.append((cur, parts[i], nxt))
                cur = nxt
            binary.append((cur, parts[-2], parts[-1]))
    return ids, term_bodies, frozenset(eps), units, binary


def lowered_of(g: Cfg) -> _Lowered:
    """The cached lowering of g as it is, epsilon and unit bodies included."""
    if g._lowered is None:
        ids, term_bodies, eps, units, binary = _binarized(g)
        g._lowered = _Lowered(g, len(ids), ids, term_bodies, eps, units,
                              tuple(binary))
    return g._lowered


def cnf_of(g: Cfg) -> _Lowered:
    """The lowering of normalize(g) with its bisimilar nodes merged, built
    once per normal form: terminal rules A -> a and binary rules A -> B C
    only, as CYK, completions, slot queries and transducer images need.

    Two nodes are merged when they lie in one block of the coarsest
    partition whose nodes have the same terminal bodies and the same binary
    bodies read up to the partition (`partition.bisimilar_blocks`); each
    derives what the other does, so every query reads the same language off
    fewer nodes.  A block is numbered by the rank of its least node among
    the blocks' least nodes, so the start's block is 0 and the lowering of
    a grammar with nothing to merge is the lowering as written.  Product
    grammars carry one node per state pair, and most of their copies merge:
    bicyclic's lowering keeps 40 of 119 nodes.
    """
    n = normalize(g)
    if n._cnf is None:
        ids, term_bodies, _eps, _units, binary = _binarized(n)
        block, reps, rules = bisimilar_blocks(len(ids), term_bodies, binary)
        if len(reps) < len(ids):
            ids = {x: block[v] for x, v in ids.items()}
            term_bodies = {block[v]: term_bodies[v] for v in reps
                           if v in term_bodies}
            binary = dict.fromkeys((block[a], block[b], block[c])
                                   for v in reps for a, b, c in rules[v])
        n._cnf = _Lowered(n, len(reps), ids, term_bodies, frozenset(), (),
                          tuple(binary))
    return n._cnf


# the symbol a word starts after in the left context, and so the break
# between the words of a joined chart: no terminal (terminals are
# strings), so no node derives it
_BREAK = None
# symbols per joined chart: a word's bit is read by shifting a whole row,
# in time that grows with the chart's width
_JOIN_CAP = 2048


def _joined_charts(cnf: _Lowered, words):
    """Charts of the words joined by _BREAK, in order, each yielded with
    the (start, end) of each of its words; a chart stops at _JOIN_CAP
    symbols unless one word alone is wider."""
    joined, bounds = [], []
    for x in words:
        if bounds and len(joined) + 1 + len(x) > _JOIN_CAP:
            yield _cyk_masks(cnf, tuple(joined)), bounds
            joined, bounds = [], []
        if bounds:
            joined.append(_BREAK)
        bounds.append((len(joined), len(joined) + len(x)))
        joined.extend(x)
    if bounds:
        yield _cyk_masks(cnf, tuple(joined)), bounds


def _after(cnf: _Lowered):
    """One-symbol left context (Graham, Harrison and Ruzzo 1980, cut to one
    symbol): terminal t -> the nodes that may begin right after t in a word
    of the start, _BREAK -> those that may begin one.  Two worklist closures
    over the rules A -> B C: the terminals words end with (A's as C's), then
    those that may precede a node (B's as A's; C's include B's last ones)."""

    def close(sets, edges):
        todo = list(sets)
        while todo:
            x = todo.pop()
            for y, _z in edges.get(x, ()):
                if not sets[x] <= sets[y]:
                    sets[y] |= sets[x]
                    todo.append(y)

    last = defaultdict(set, {a: set(ts) for a, ts in cnf.term_bodies.items()})
    close(last, cnf.right_index)
    before = defaultdict(set, {cnf.start: {_BREAK}})
    # every node of a normalized lowering is on a derivation of the start
    for _a, b, c in cnf.binary:
        before[c] |= last[b]
    close(before, cnf.binary_by_head)
    after = defaultdict(list)
    for x, ts in before.items():
        for t in ts:
            after[t].append(x)
    return after


def _cyk_masks(cnf: _Lowered, w):
    """CYK chart of w: (masks, live, allow), where masks[A][l] has bit i set iff
    node A derives w[i:i+l] and may begin after w[i-1] (`_after`; at the
    word's start when i = 0), and live[A] lists, ascending, the lengths l
    whose row masks[A][l] is nonzero.  A node's masks and live list are made
    when it gets its first bit; both are None for a node that derives no
    span.  Every item on a derivation of a word with prefix w stays.  Each
    row is masked with allow[A], the bitmask of the positions whose
    preceding symbol admits A, built per symbol in O(n + sum of
    |after[t]|).

    w may join several words with _BREAK between them; the chart is then
    each word's chart at the word's own offset.  _BREAK is no terminal, so
    no span crosses it, and a word starts after it as at w's start; rows and
    the length loop stop at the longest word, so the chart's fixed cost
    (the allow masks over every node, a partner walk per live row) is paid
    once for all the words.

    Rows are bit-parallel over the start position.  Length l combines only
    the rules A -> B C due at l: those with some split k + (l - k) where
    B's row at k and C's row at l - k are both nonzero.  lens[X] is the
    bitmask of X's live lengths; when X's row at l goes live, every rule
    with X as one child and Y as the other falls due at l + m for each live
    length m of Y, as far as the longest word and not twice (reach[r]).
    Whichever child of a pair goes live second schedules it, A -> B B and
    children that go live at the same length included.  A due rule walks the
    splits of the shorter of its children's live lists, so the work follows
    the split pairs whose rows are both nonzero rather than |binary| * n^2.
    """
    masks = [None] * cnf.size
    live = [None] * cnf.size
    binary, partners, after = cnf.binary, cnf.partners, cnf.after
    if partners is None:
        partners = cnf.partners = defaultdict(list)
        for r, (_a, b, c) in enumerate(binary):
            partners[b].append((r, c))
            partners[c].append((r, b))
    if after is None:
        after = cnf.after = _after(cnf)
    # symbol -> bitmask of the positions after it; a word starts after
    # _BREAK, so a break between joined words marks the next word's start
    at = {_BREAK: 1}
    for i, sym in enumerate(w):
        at[sym] = at.get(sym, 0) | 2 << i
    n = len(w)
    if at[_BREAK] > 1:
        # no span crosses a break: rows stop at the longest word, found
        # here because the chart takes only w, which benchmark/spans.py
        # reads to trace every chart
        n, begin, starts = 0, 0, at[_BREAK] ^ 1
        while starts:
            nxt = (starts & -starts).bit_length() - 1   # the next word's start
            n = max(n, nxt - 1 - begin)
            begin, starts = nxt, starts & (starts - 1)
        n = max(n, len(w) - begin)
    allow = [0] * cnf.size
    for sym, bits in at.items():
        for a in after.get(sym, ()):
            allow[a] |= bits
    lens = [0] * cnf.size
    reach = [0] * len(binary)
    due = [[] for _ in range(n + 1)]
    cap = (2 << n) - 1

    def enliven(x, l, bits):
        # x's first bits at length l; its row and live list come with its
        # first bits at any length
        if live[x] is None:
            masks[x] = [0] * (n + 1)
            live[x] = []
        masks[x][l] = bits
        live[x].append(l)
        lens[x] |= 1 << l
        for r, y in partners.get(x, ()):
            new = (lens[y] << l) & cap & ~reach[r]
            if new:
                reach[r] |= new
                while new:
                    low = new & -new
                    due[low.bit_length() - 1].append(r)
                    new ^= low

    ones = defaultdict(int)     # node -> its row at length 1
    for sym, bits in at.items():
        for a in cnf.by_sym.get(sym, ()):
            ones[a] |= bits >> 1 & allow[a]
    for a, bits in ones.items():
        if bits:
            enliven(a, 1, bits)
    for l in range(2, n + 1):
        # a row that goes live at l schedules only lengths above l, and no
        # split reads a row at l (row 0 is empty)
        for r in due[l]:
            a, b, c = binary[r]
            if not allow[a]:
                continue
            mb, mc, lb, lc = masks[b], masks[c], live[b], live[c]
            acc = 0
            if len(lb) <= len(lc):
                for k in lb:
                    y = mc[l - k]
                    if y:
                        acc |= mb[k] & (y >> k)
            else:
                for m in lc:
                    x = mb[l - m]
                    if x:
                        acc |= x & (mc[m] >> (l - m))
            acc &= allow[a]
            if acc:
                row = masks[a]
                if row is None or not row[l]:
                    enliven(a, l, acc)
                else:
                    row[l] |= acc
    return masks, live, allow


def membership(g: Cfg, w) -> bool:
    """Word membership: `memberships` of the one word."""
    # flat shortcut: without it decide-flat ran 7,280-8,042 -> 2,592-2,609
    # ops/s (3 alternated 5 s pairs, seed 1), at 3.2 MB more peak RSS; left
    # to memberships' own, its op_p50_ms read 2.2 % higher (0 of 5 pairs)
    if g.flat_words is not None:
        return tuple(w) in g.flat_words
    return memberships(g, [w])[0]


def memberships(g: Cfg, words) -> list:
    """Membership of each word, read off CYK charts of the words joined
    (`_joined_charts`) over the cached binarized form."""
    words = [tuple(w) for w in words]
    if g.flat_words is not None:
        return [w in g.flat_words for w in words]
    cnf = cnf_of(g)
    out = []
    # no node derives a symbol outside the terminals, so no span holds one
    for (masks, _live, _allow), bounds in _joined_charts(cnf, words):
        row = masks[cnf.start]
        for s, e in bounds:
            out.append(derives_epsilon(g) if s == e else
                       row is not None and bool(row[e - s] >> s & 1))
    return out


class _Pass:
    """Up to k distinct least words per node of a lowering, settled one step
    at a time in Knuth's order (1977, Dijkstra's algorithm for grammars).

    Words are tuples of the lowering's ranks and weigh (length, word), shortlex.
    The seeds are the epsilon bodies at (0, ()) and the terminal bodies; a
    unit rule A -> B passes B's words to A, and a binary rule A -> B C makes
    w(B) + w(C) when forward, w(C) + w(B) when reversed.  Concatenation is
    monotone and never below either part, so words leave the heap in
    ascending order and the first words a node settles are its least, unit
    and epsilon cycles included.  Each node keeps up to k distinct words
    (Huang and Chiang 2005): concatenation is strictly monotone on each
    side, so a word outside a node's k least yields none of the k least
    above it.  A repeat pops before any larger word of its node, so it
    equals the node's last word.

    words[A] lists A's settled (length, word) pairs, ascending.  The pass
    advances only when a caller steps it, so a grammar whose nodes derive
    words of exponential length costs no more than the words asked for;
    and it pushes no candidate longer than maxlen, so a bounded enumeration
    does not pair up every two words of a rule's children.
    """

    __slots__ = ("k", "maxlen", "left", "right", "unit", "heap", "words")

    def __init__(self, low: _Lowered, k: int, forward: bool,
                 maxlen: int = sys.maxsize):
        self.k = k
        self.maxlen = maxlen
        # reversed is forward over the grammar with every binary body swapped
        self.left, self.right = ((low.left_index, low.right_index) if forward
                                 else (low.right_index, low.left_index))
        self.unit = low.unit_index
        self.heap = [(0, (), a) for a in low.eps]
        self.heap += [(1, (r,), a) for a, syms in low.term_bodies.items()
                      for r in sorted({low.rank[s] for s in syms})[:k]]
        heapq.heapify(self.heap)
        self.words: dict = {}

    def step(self):
        """Pop the least candidate; (A, length, word) when it settles a new
        word of A, None when A is full or the word repeats A's last one."""
        m, w, a = heapq.heappop(self.heap)
        k, words, heap = self.k, self.words, self.heap
        got = words.setdefault(a, [])
        if len(got) == k or got and got[-1] == (m, w):
            return None
        got.append((m, w))
        for head in self.unit.get(a, ()):
            if len(words.get(head, ())) < k:
                heapq.heappush(heap, (m, w, head))
        # a sibling's words ascend, so its first one past maxlen ends a loop
        room = self.maxlen - m
        for head, c in self.left.get(a, ()):
            if len(words.get(head, ())) < k:
                for m2, w2 in words.get(c, ()):
                    if m2 > room:
                        break
                    heapq.heappush(heap, (m + m2, w + w2, head))
        for head, b in self.right.get(a, ()):
            if len(words.get(head, ())) < k:
                for m2, w2 in words.get(b, ()):
                    if m2 > room:
                        break
                    heapq.heappush(heap, (m2 + m, w2 + w, head))
        return a, m, w


def shortest_word(g: Cfg):
    """Shortest word of the language, least among those in the order g
    declares its terminals; None when the language is empty."""
    w = next((w for x, w in _least_words(g, 1) if x == g.start), None)
    return None if w is None else spelled(w, g.terminals)


def enumerate_words(g: Cfg, maxlen: int):
    """All words of the language with length <= maxlen, shortlex order."""
    return list(_shortlex_words(g, maxlen))


def _shortlex_words(g: Cfg, maxlen: int):
    """The words of enumerate_words, each settled only when it is taken."""
    return (spelled(w, g.terminals)
            for x, w in _least_words(g, sys.maxsize, maxlen) if x == g.start)


def _least_words(g: Cfg, k, maxlen=sys.maxsize):
    """(nonterminal, word) each time a nonterminal of g settles one of its k
    least words of length <= maxlen, in ascending shortlex order, from a
    forward _Pass over the lowering of g as given.  Words are tuples of
    g's terminal ranks, as in _Pass: spelling every nonterminal's word
    would cost more than the pass on a deep chain."""
    low = lowered_of(g)
    names = {low.ids[x]: x for x in g.nonterminals if x in low.ids}
    least = _Pass(low, k, forward=True, maxlen=maxlen)
    heap = least.heap
    while heap and heap[0][0] <= maxlen:
        got = least.step()
        if got is not None and got[0] in names:
            yield names[got[0]], got[2]


# -- regular intersection (grammar x automaton product) ------------------------


def intersect_regular(g: Cfg, a: Nfa) -> Cfg:
    """Grammar for language(g) & language(a).

    Product construction over the binarized grammar; like every product
    built there, it drops the empty word.  It reads the lowering of the
    normal form as written, not `cnf_of`'s merged one: the product's items
    are named after the lowering's nodes, and `fixtures.bicyclic` writes
    such a product to `fixtures/bicyclic.whs`, which must not change.
    """
    return _product_grammar(lowered_of(normalize(g)), a, g.terminals)


def least_word(g: Cfg, a):
    """shortest_word(intersect_regular(g, a)), with no grammar written: the
    shortlex-least nonempty word of language(g) & language(a), or None.

    `a` is an `Nfa` or a state space of `_asked` whose moves output the
    symbol they read, with `accepts(w)` for a flat table, such as the slot
    view `structure._Slots` or its complement (`nfa._Complement`), which
    the load-time shape check asks about.  On a flat table a space that
    `picks` takes its words off the table's cut (`flat_cut`), which that
    first query builds, and the least is chosen by `shortlex_key`; any other
    space is asked about every word.

    Knuth's lightest-derivation pass (1977) in the weighted-deduction form of
    Nederhof (2003) over the items (p, A, q) of the pairs that the closure of
    `_asked` asked, stopped at the first top item.  The terminal items seed
    the heap, and a rule A -> B C combines settled (p, B, mid) and
    (mid, C, q) when (A, p) was asked.  Items weigh (length, word), and
    concatenation is monotone, so they settle in ascending order.
    """
    if g.flat_words is not None:
        return min(_flat_accepted(g, a), key=shortlex_key(g.rank), default=None)
    cnf = cnf_of(g)
    starts, top, leaves, firsts = _asked(cnf, a)
    if not top:
        return None
    top = set(top)
    # the counter breaks ties before the states, which need not compare
    tick = itertools.count()
    heap = [(1, (g.rank[body[0]],), next(tick), p, nt, q)
            for (nt, p), got in leaves.items() for q, body in got]
    heapq.heapify(heap)
    push, done = heapq.heappush, set()
    by_start = defaultdict(list)   # (nt, p) -> (q, length, word) settled
    by_end = defaultdict(list)     # (nt, q) -> (p, length, word) settled
    while True:
        m, w, _t, p, nt, q = heapq.heappop(heap)
        if (p, nt, q) in done:
            continue
        if (p, nt, q) in top:
            return spelled(w, g.terminals)
        done.add((p, nt, q))
        by_start[(nt, p)].append((q, m, w))
        by_end[(nt, q)].append((p, m, w))
        for head, c in firsts.get((nt, p), ()):
            for q2, m2, w2 in by_start.get((c, q), ()):
                if (p, head, q2) not in done:
                    push(heap, (m + m2, w + w2, next(tick), p, head, q2))
        for head, b in cnf.right_index.get(nt, ()):
            for p0, m2, w2 in by_end.get((b, p), ()):
                if (head, p0) in starts and (p0, head, q) not in done:
                    push(heap, (m2 + m, w2 + w, next(tick), p0, head, q))


def intersects(g: Cfg, a) -> bool:
    """least_word(g, a) is not None, with no word settled: every item the
    closure of `_asked` builds derives some word, so a top item is one, and a
    flat table stops at the first (nonempty) word its space takes."""
    if g.flat_words is not None:
        return any(_flat_accepted(g, a))
    return bool(_asked(cnf_of(g), a)[1])


def _flat_accepted(g: Cfg, a):
    """The nonempty words of a flat g that `a` accepts: picked off the cut
    by a space that `picks`, else asked one by one."""
    # flat shortcut: without it decide-flat ran 7,280-8,042 -> 1,781-1,786
    # ops/s (3 alternated 5 s pairs, seed 1), at 2.5 MB more peak RSS
    if getattr(a, "picks", False):
        return a.pick(flat_cut(g))
    return (w for w in g.flat_words if w and a.accepts(w))


def _asked(cnf: _Lowered, space):
    """Goal-directed closure of a binarized grammar with a state space:
    `starts`, (nt, p) -> the set of q of each item (p, nt, q) for the pairs
    asked, the top items (p, start, q), `leaves`, (nt, p) -> the
    (q, output) of each move from p on a terminal body of nt, and `firsts`,
    (B, p) -> the (A, C) of each rule A -> B C whose (A, p) was asked.

    Every state space has one protocol, `Transducer`'s: `initial` states,
    `accepting` states and `moves(p, sym)`, the (target, output word)
    pairs of one move.  An `Nfa` is the transducer that copies its input;
    its complement (`nfa._Complement`) builds subsets only as they are asked.
    An item (p, A, q) derives what A derives along some run from p to q;
    A's leaves from p are read only once (p, A) is asked.  The closure is
    Earley's prediction over the product ("parsing as intersection", Lang
    1994).  (start, p) is asked first for each initial p.  Asking (p, A)
    reads the leaves of A from p and, for each rule A -> B C, asks (p, B);
    each item (p, B, mid) then asks (mid, C), and each item (mid, C, q)
    completes (p, A, q); the top items are those (p, start, q) with q
    accepting.  The grammar has no epsilon and no unit rules, so every item
    a top item can use is built, and no item of a pair nothing asks for,
    such as a nonterminal of one slot started in another.
    """
    by_head, bodies, moves = cnf.binary_by_head, cnf.term_bodies, space.moves
    starts: dict = {}
    leaves: dict = {}
    firsts = defaultdict(set)      # (B, p) -> (A, C) of A -> B C asked at p
    seconds = defaultdict(set)     # (C, mid) -> (p, A) waiting for C from mid
    initial = space.initial
    asks = [(cnf.start, p) for p in initial]
    agenda = deque()               # items not yet combined

    def wait(key, p, a):
        # (p, a) waits for the items of key = (c, mid), and asks for them
        waiting = seconds[key]
        if (p, a) in waiting:
            return
        waiting.add((p, a))
        asks.append(key)
        got = starts.get(key)
        if got:
            # when key is (a, p) itself, every q is there already, so the
            # set is not changed while it is read
            ends = starts[(a, p)]
            for q in got:
                if q not in ends:
                    ends.add(q)
                    agenda.append((p, a, q))

    while asks or agenda:
        if asks:
            key = asks.pop()
            if key in starts:
                continue
            ends = starts[key] = set()
            nt, p = key
            leaves[key] = got = [leaf for sym in bodies.get(nt, ())
                                 for leaf in moves(p, sym)]
            for q, _body in got:
                if q not in ends:
                    ends.add(q)
                    agenda.append((p, nt, q))
            for b, c in by_head.get(nt, ()):
                left = (b, p)
                firsts[left].add((nt, c))
                got = starts.get(left)
                if got:
                    # wait adds to starts[(nt, p)], which is got when b == nt
                    for mid in (tuple(got) if b == nt else got):
                        wait((c, mid), p, nt)
                asks.append(left)
            continue
        p, nt, q = agenda.popleft()
        for a, c in firsts.get((nt, p), ()):
            wait((c, q), p, a)
        for p0, a in seconds.get((nt, p), ()):
            ends = starts[(a, p0)]
            if q not in ends:
                ends.add(q)
                agenda.append((p0, a, q))
    accepting = space.accepting
    top = [(p, cnf.start, q) for p in initial
           for q in starts[(cnf.start, p)] if q in accepting]
    return starts, top, leaves, firsts


def _product_grammar(cnf: _Lowered, space, terminals) -> Cfg:
    """Normalized product of a binarized grammar with a state space of
    `_asked`, written from the items of its closure under a new start,
    equal to normalize() of the raw product (the items the top items reach,
    their binary rules and the leaf outputs the closure read) and marked as
    its own normalization.

    Every item the closure built derives some word.  A walk from the top
    items records each reached item's pairs of children and leaf bodies;
    two runs of normalize's fixpoint `_settled` over the parents give the
    nullable items (an empty leaf body, or a pair of nullable children) and
    the nonempty ones (a nonempty leaf body, or a nonempty child).  Only
    nonempty items get bodies: a pair of nonempty children, a unit body for
    a nonempty child beside a nullable one, and the nonempty leaf bodies;
    the start has a unit body for each nonempty top item.  The rest is
    normalize's: `_unit_closed`, `_reach` and `_ranked`.
    """
    starts, top, leaves, _firsts = _asked(cnf, space)
    start = ("&S",)
    rules = []                     # (item, left, right) of each pair
    parents = defaultdict(list)    # item -> the rules it is a child of
    reached = set(top)
    agenda = deque(top)
    while agenda:
        it = agenda.popleft()
        p, nt, q = it
        for b, c in cnf.binary_by_head.get(nt, ()):
            for mid in starts.get((b, p), ()):
                if q in starts.get((c, mid), ()):
                    left, right = (p, b, mid), (mid, c, q)
                    parents[left].append(len(rules))
                    parents[right].append(len(rules))
                    rules.append((it, left, right))
                    for x in (left, right):
                        if x not in reached:
                            reached.add(x)
                            agenda.append(x)
    nullable = set()
    bodies = {}                    # nonempty item -> its non-unit bodies
    for nt, p in {(nt, p) for p, nt, _q in reached}:
        for q, body in leaves[(nt, p)]:
            it = (p, nt, q)
            if it in reached and body:
                bodies.setdefault(it, set()).add(body)
            elif it in reached:
                nullable.add(it)
    heads = [it for it, _left, _right in rules]
    _settled(heads, [2] * len(rules), parents, nullable)
    for it in _settled(heads, [1] * len(rules), parents, set(bodies)):
        bodies.setdefault(it, set())
    units = defaultdict(list)
    for it, left, right in rules:
        if it in bodies:
            if left in bodies:
                if right in bodies:
                    bodies[it].add((left, right))
                if right in nullable:
                    units[it].append(left)
            if right in bodies and left in nullable:
                units[it].append(right)
    units[start] = [it for it in top if it in bodies]
    keep, prods = _reach(start, _unit_closed(units, bodies), bodies, bodies)
    order, prods = _ranked(itertools.chain(keep, terminals), prods)
    # the start, then the items in repr order (their _stable_key order), as
    # normalize() of the raw product declares them
    out = Cfg([start] + [x for x in order if x in bodies], terminals, start,
              prods)
    out._normal = out
    return out


# -- least completions of a prefix -------------------------------------------------


def least_completions(g: Cfg, prefixes, k: int = 1, maxlen=None) -> list:
    """For each prefix x, the k shortlex-least distinct reverse(y) of length
    <= maxlen (no bound when None), ascending, over the nonempty y with
    x . y in language(g), read off charts of the prefixes joined by _BREAK
    (`_joined_charts`), which pay a chart's fixed cost once per _JOIN_CAP
    symbols; a flat table is served one prefix at a time, by its prefix
    runs.

    A weighted item pass (Nederhof 2003) settled in Knuth's order, as in
    _Pass, with no quotient grammar.  With x a prefix and n its length,
    the closed items "B derives x[j:i]" are the CYK chart of x; an open item
    (i, A) says A derives x[i:n] . y for a nonempty y and weighs
    (|y|, reverse(y)).  The open items at i = n do not depend on x: they are
    the least words of the lowering's nodes, settled by one reversed _Pass
    per k that every call shares.  A call keeps its own heap for the items
    with i < n and subscriptions "each word v of C opens (j, A) at
    v . w": a closed (j, B) ending at n subscribes (j, A) to C with w empty,
    and a settled (i, B) subscribes (i, A) to C with w(B), for each rule
    A -> B C; subscribing pushes the words C already has, and each word the
    shared pass settles later goes to C's subscribers.  A rule A -> B C also
    turns closed (j, B, i) and open (i, C) into open (j, A) of C's weight.
    The call opens or subscribes (j, A) only when A may begin at j (the
    chart's allow): an item that may not feeds none that may, and every
    item on a derivation of the start may.  The call advances the shared
    pass only while its least candidate lies below the call's own, so the
    two heaps pop in one Knuth order.  Everything after the chart is
    `_completions`, run on each prefix's positions of the chart.

    Every step is monotone and never below an input, so words leave the
    heaps in ascending order.  Each item settles up to k distinct words
    (Huang and Chiang 2005): concatenation is strictly monotone on both
    sides, so a word outside an item's k least yields none of the k least
    above it, and a word that repeats one settled for its item equals the
    item's last settled word.
    """
    limit = sys.maxsize if maxlen is None else maxlen
    # flat shortcut: without it decide-flat ran 7,280-8,042 -> 2,490-2,593
    # ops/s (3 alternated 5 s pairs, seed 1), at 2.8 MB more peak RSS
    if g.flat_words is not None:
        key, out = shortlex_key(g.rank), []
        for x in prefixes:
            n = len(x)
            out.append(sorted({tuple(reversed(w[n:])) for w in flat_run(g, tuple(x))
                               if 0 < len(w) - n <= limit}, key=key)[:k])
        return out
    cnf = cnf_of(g)
    return [_completions(cnf, chart, s, e, k, limit)
            for chart, bounds in _joined_charts(cnf, prefixes) for s, e in bounds]


def _completions(cnf: _Lowered, chart, s: int, e: int, k: int,
                 limit: int) -> list:
    """least_completions of the word between positions s and e of a chart,
    items numbered by the chart's own positions: a chart over joined
    words keeps no span across a break, so every bit the loops below read
    for this word is a span inside it."""
    suffixes = cnf.passes.get(k)
    if suffixes is None:
        suffixes = cnf.passes[k] = _Pass(cnf, k, forward=False)
    words, shared = suffixes.words, suffixes.heap
    masks, live, allow = chart
    start = cnf.start
    many = k > 1
    heap = []
    out = []
    best: dict = {}             # (i, A) -> first (length, word) settled
    more = defaultdict(list)    # (i, A) -> later (length, word), k > 1 only
    full = set() if many else best     # items with k words settled
    subs = defaultdict(list)    # C -> [(j, A, length, word)]

    def subscribe(c, j, a, m, w):
        subs[c].append((j, a, m, w))
        for m2, w2 in words.get(c, ()):
            heapq.heappush(heap, (m2 + m, w2 + w, j, a))

    if s == e:
        subscribe(start, s, start, 0, ())
    for b, cs in cnf.left_index.items():
        row = masks[b]
        if row is None:
            continue
        for l in live[b]:
            if l > e:   # a longer word's span, further on in the chart
                break
            if row[l] >> (e - l) & 1:
                for head, c in cs:
                    if allow[head] >> (e - l) & 1:
                        subscribe(c, e - l, head, 0, ())
    while True:
        while shared and shared[0][0] <= limit and (
                not heap or shared[0][:2] < heap[0][:2]):
            got = suffixes.step()
            if got is not None:
                c, m, w = got
                for j, a, m2, w2 in subs.get(c, ()):
                    if (j, a) not in full:
                        heapq.heappush(heap, (m + m2, w + w2, j, a))
        if not heap:
            break
        m, w, i, a = heapq.heappop(heap)
        if m > limit:
            break
        it = (i, a)
        if it in full:
            continue
        if many and it in best:
            later = more[it]
            if (later[-1] if later else best[it]) == (m, w):
                continue
            later.append((m, w))
            if len(later) == k - 1:
                full.add(it)
        else:
            best[it] = (m, w)
        if i == s and a == start:
            out.append(w)
            if len(out) == k:
                break
        if i == e:  # the start's own words when the prefix is empty
            continue
        for head, b in cnf.right_index.get(a, ()):
            row = masks[b]
            if row is None:
                continue
            for l in live[b]:
                if l > i:
                    break
                if (row[l] & allow[head]) >> (i - l) & 1 and (
                        i - l, head) not in full:
                    heapq.heappush(heap, (m, w, i - l, head))
        for head, c in cnf.left_index.get(a, ()):
            if allow[head] >> i & 1 and (i, head) not in full:
                subscribe(c, i, head, m, w)
    return [spelled(w, cnf.symbols) for w in out]


def union_cfgs(grammars, terminals) -> Cfg:
    """Grammar for the union of the given languages over the terminals, in
    their order (`words.merged` of the grammars' terminals keeps theirs)."""
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
