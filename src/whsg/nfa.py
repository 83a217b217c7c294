"""Nondeterministic finite automata and the regular-language algebra.

Automata built from an explicit finite word set keep that set around
(``finite_words``) so that membership and filtering stay constant-time;
all constructions fall back to the generic automaton algorithms otherwise.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from .words import shortlex_key, symbol_ranks

_EMPTY = frozenset()


class Nfa:
    """Finite automaton without epsilon moves.

    States are arbitrary hashables.  The alphabet keeps declaration order,
    which fixes every lexicographic tie-break downstream.
    """

    def __init__(self, states, alphabet, transitions, initial, accepting,
                 finite_words=None):
        self.states = tuple(dict.fromkeys(states))
        self.alphabet = tuple(dict.fromkeys(alphabet))
        sset = set(self.states)
        aset = set(self.alphabet)
        tmap: dict = {}
        for src, sym, dst in transitions:
            if src not in sset or dst not in sset:
                raise ValueError(f"undeclared state in transition {(src, sym, dst)!r}")
            if sym not in aset:
                raise ValueError(f"undeclared symbol {sym!r} in transition")
            tmap.setdefault((src, sym), set()).add(dst)
        self.transitions = {k: frozenset(v) for k, v in tmap.items()}
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        if not self.initial <= sset or not self.accepting <= sset:
            raise ValueError("undeclared initial or accepting state")
        self.finite_words = None if finite_words is None else frozenset(finite_words)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_words(cls, words, alphabet=None) -> "Nfa":
        """Trie automaton for a finite set of words."""
        words = frozenset(tuple(w) for w in words)
        if alphabet is None:
            alphabet = sorted({s for w in words for s in w})
        prefixes = {()}
        for w in words:
            for i in range(1, len(w) + 1):
                prefixes.add(w[:i])
        order = sorted(prefixes, key=lambda p: (len(p), p))
        name = {p: f"q{i}" for i, p in enumerate(order)}
        transitions = [(name[p[:-1]], p[-1], name[p]) for p in order if p]
        return cls(
            states=[name[p] for p in order],
            alphabet=alphabet,
            transitions=transitions,
            initial=[name[()]],
            accepting=[name[w] for w in words],
            finite_words=words,
        )

    @classmethod
    def literal(cls, word, alphabet=None) -> "Nfa":
        return cls.from_words([tuple(word)], alphabet=alphabet)

    @classmethod
    def universal(cls, alphabet) -> "Nfa":
        """All words over the alphabet, including the empty one."""
        alphabet = tuple(alphabet)
        return cls(["u"], alphabet, [("u", s, "u") for s in alphabet], ["u"], ["u"])

    @classmethod
    def universal_nonempty(cls, alphabet) -> "Nfa":
        alphabet = tuple(alphabet)
        trans = [("u0", s, "u1") for s in alphabet] + [("u1", s, "u1") for s in alphabet]
        return cls(["u0", "u1"], alphabet, trans, ["u0"], ["u1"])

    # -- basic queries ---------------------------------------------------------

    def step(self, current, sym) -> frozenset:
        out = set()
        for q in current:
            out |= self.transitions.get((q, sym), _EMPTY)
        return frozenset(out)

    def accepts(self, w: Sequence) -> bool:
        w = tuple(w)
        if self.finite_words is not None:
            return w in self.finite_words
        current = self.initial
        for sym in w:
            current = self.step(current, sym)
            if not current:
                return False
        return bool(current & self.accepting)

    def shortest_word(self, ranks=None):
        """Shortest accepted word, lexicographically least among the shortest.

        Returns None when the language is empty.
        """
        if ranks is None:
            ranks = symbol_ranks(self.alphabet)
        if self.finite_words is not None:
            if not self.finite_words:
                return None
            return min(self.finite_words, key=shortlex_key(ranks))
        # layers[j] = states from which an accepting state is reachable in
        # exactly j steps; a shortest accepted word needs at most |Q| layers
        layers = [frozenset(self.accepting)]
        length = None
        if self.initial & layers[0]:
            length = 0
        preimage: dict = {}
        for (src, sym), dsts in self.transitions.items():
            for dst in dsts:
                preimage.setdefault(dst, set()).add((src, sym))
        limit = len(self.states)
        j = 0
        while length is None and j < limit:
            j += 1
            prev = layers[-1]
            cur = {src for dst in prev for (src, _s) in preimage.get(dst, ())}
            layers.append(frozenset(cur))
            if self.initial & layers[-1]:
                length = j
        if length is None:
            return None
        syms = sorted(self.alphabet, key=lambda s: ranks[s])
        current = self.initial & layers[length]
        out = []
        for step in range(length):
            remaining = length - step - 1
            for sym in syms:
                nxt = self.step(current, sym) & layers[remaining]
                if nxt:
                    out.append(sym)
                    current = nxt
                    break
        return tuple(out)

    def enumerate_words(self, maxlen: int, ranks=None):
        """All accepted words of length <= maxlen, in shortlex order."""
        if ranks is None:
            ranks = symbol_ranks(self.alphabet)
        if self.finite_words is not None:
            found = [w for w in self.finite_words if len(w) <= maxlen]
            return sorted(found, key=shortlex_key(ranks))
        found = []
        frontier = [((), self.initial)]
        for _ in range(maxlen + 1):
            nxt = []
            for w, states in frontier:
                if states & self.accepting:
                    found.append(w)
                if len(w) < maxlen:
                    for sym in self.alphabet:
                        states2 = self.step(states, sym)
                        if states2:
                            nxt.append((w + (sym,), states2))
            frontier = nxt
            if not frontier:
                break
        return sorted(found, key=shortlex_key(ranks))

    # -- algebra ---------------------------------------------------------------

    def map_symbols(self, f) -> "Nfa":
        """Relabel transition symbols through f (words mapped letterwise)."""
        alphabet = [f(s) for s in self.alphabet]
        trans = [(src, f(sym), dst) for (src, sym), dsts in self.transitions.items()
                 for dst in dsts]
        words = None
        if self.finite_words is not None:
            words = {tuple(f(s) for s in w) for w in self.finite_words}
        return Nfa(self.states, alphabet, trans, self.initial, self.accepting,
                   finite_words=words)

    def intersect(self, other: "Nfa") -> "Nfa":
        if self.finite_words is not None:
            return Nfa.from_words(
                [w for w in self.finite_words if other.accepts(w)],
                alphabet=self.alphabet)
        if other.finite_words is not None:
            return Nfa.from_words(
                [w for w in other.finite_words if self.accepts(w)],
                alphabet=other.alphabet)
        alphabet = _merge_alphabets(self.alphabet, other.alphabet)
        start = {(p, q) for p in self.initial for q in other.initial}
        seen = set(start)
        agenda = deque(start)
        trans = []
        while agenda:
            p, q = agenda.popleft()
            for sym in alphabet:
                ps = self.transitions.get((p, sym), _EMPTY)
                qs = other.transitions.get((q, sym), _EMPTY)
                for p2 in ps:
                    for q2 in qs:
                        trans.append(((p, q), sym, (p2, q2)))
                        if (p2, q2) not in seen:
                            seen.add((p2, q2))
                            agenda.append((p2, q2))
        accepting = [s for s in seen if s[0] in self.accepting and s[1] in other.accepting]
        return Nfa(seen | start, alphabet, trans, start, accepting)

    def union(self, other: "Nfa") -> "Nfa":
        alphabet = _merge_alphabets(self.alphabet, other.alphabet)
        if self.finite_words is not None and other.finite_words is not None:
            return Nfa.from_words(self.finite_words | other.finite_words, alphabet)
        states = [(0, s) for s in self.states] + [(1, s) for s in other.states]
        trans = [((0, src), sym, (0, dst)) for (src, sym), ds in self.transitions.items() for dst in ds]
        trans += [((1, src), sym, (1, dst)) for (src, sym), ds in other.transitions.items() for dst in ds]
        initial = [(0, s) for s in self.initial] + [(1, s) for s in other.initial]
        accepting = [(0, s) for s in self.accepting] + [(1, s) for s in other.accepting]
        return Nfa(states, alphabet, trans, initial, accepting)

    def concat(self, other: "Nfa") -> "Nfa":
        alphabet = _merge_alphabets(self.alphabet, other.alphabet)
        if self.finite_words is not None and other.finite_words is not None:
            words = {u + v for u in self.finite_words for v in other.finite_words}
            return Nfa.from_words(words, alphabet)
        states = [(0, s) for s in self.states] + [(1, s) for s in other.states]
        trans = [((0, src), sym, (0, dst)) for (src, sym), ds in self.transitions.items() for dst in ds]
        trans += [((1, src), sym, (1, dst)) for (src, sym), ds in other.transitions.items() for dst in ds]
        # bridge: leaving an accepting state of self behaves like leaving an
        # initial state of other
        for (src, sym), ds in other.transitions.items():
            if src in other.initial:
                for f in self.accepting:
                    for dst in ds:
                        trans.append(((0, f), sym, (1, dst)))
        initial = [(0, s) for s in self.initial]
        accepting = [(1, s) for s in other.accepting]
        if other.initial & other.accepting:
            accepting += [(0, s) for s in self.accepting]
        return Nfa(states, alphabet, trans, initial, accepting)

    def reverse(self) -> "Nfa":
        if self.finite_words is not None:
            return Nfa.from_words({tuple(reversed(w)) for w in self.finite_words},
                                  self.alphabet)
        trans = [(dst, sym, src) for (src, sym), ds in self.transitions.items() for dst in ds]
        return Nfa(self.states, self.alphabet, trans, self.accepting, self.initial)

    def determinize(self, alphabet=None) -> "Nfa":
        """Complete deterministic automaton over the given alphabet."""
        alphabet = tuple(alphabet) if alphabet is not None else self.alphabet
        start = self.initial
        seen = {start}
        agenda = deque([start])
        trans = []
        while agenda:
            cur = agenda.popleft()
            for sym in alphabet:
                nxt = self.step(cur, sym)
                trans.append((cur, sym, nxt))
                if nxt not in seen:
                    seen.add(nxt)
                    agenda.append(nxt)
        accepting = [s for s in seen if s & self.accepting]
        return Nfa(seen, alphabet, trans, [start], accepting)

    def complement(self, alphabet=None) -> "Nfa":
        """Complement relative to (alphabet)*; requires a total alphabet."""
        alphabet = tuple(alphabet) if alphabet is not None else self.alphabet
        if not alphabet:
            raise ValueError("complement requires a declared alphabet")
        det = self.determinize(alphabet)
        accepting = [s for s in det.states if s not in det.accepting]
        trans = [(src, sym, dst) for (src, sym), ds in det.transitions.items() for dst in ds]
        return Nfa(det.states, alphabet, trans, det.initial, accepting)

    def difference(self, other: "Nfa") -> "Nfa":
        alphabet = _merge_alphabets(self.alphabet, other.alphabet)
        if self.finite_words is not None:
            return Nfa.from_words(
                [w for w in self.finite_words if not other.accepts(w)], self.alphabet)
        return self.intersect(other.complement(alphabet))

    def equivalent(self, other: "Nfa"):
        """(equal?, counterexample) for language equality."""
        alphabet = _merge_alphabets(self.alphabet, other.alphabet)
        ranks = symbol_ranks(alphabet)
        w = self.difference(other).shortest_word(ranks)
        if w is not None:
            return False, w
        w = other.difference(self).shortest_word(ranks)
        if w is not None:
            return False, w
        return True, None

    def __eq__(self, other):
        if not isinstance(other, Nfa):
            return NotImplemented
        return (self.states == other.states and self.alphabet == other.alphabet
                and self.transitions == other.transitions
                and self.initial == other.initial
                and self.accepting == other.accepting)

    def __hash__(self):
        return hash((self.states, self.alphabet, self.initial, self.accepting))

    def __repr__(self):
        return (f"Nfa(states={len(self.states)}, alphabet={list(self.alphabet)!r}, "
                f"finite={self.finite_words is not None})")


def _merge_alphabets(a, b):
    return tuple(dict.fromkeys(tuple(a) + tuple(b)))
