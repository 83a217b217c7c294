"""Nondeterministic finite automata and the regular-language algebra.

A finite word set is a trie automaton like any other: every construction
runs the one generic automaton algorithm.  An automaton keeps one
right-linear grammar (`Cfg.from_nfa`), whose normal form, merged lowering
and passes serve its shortest words, its bounded enumeration and every
product that reads it as a grammar.  A complement is a view whose subsets
are built only as a product reads them; products are `cfg`'s.  Every
constructor takes its alphabet, the order of its words; unions and images
derive theirs by the rules of `words`.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import cfg
from .words import image_alphabet, merged

_EMPTY = frozenset()


class Nfa:
    """Finite automaton without epsilon moves.

    States are arbitrary hashables.  The alphabet keeps declaration order,
    which fixes every lexicographic tie-break downstream.  Products read an
    automaton as the transducer that copies its input, by the protocol of
    `cfg._asked` that `Transducer` and `structure._Slots` share.
    """

    def __init__(self, states, alphabet, transitions, initial, accepting):
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
        self._reversed = None
        self._grammar = None       # Cfg.from_nfa(self)
        self._accepted: dict = {}  # word -> accepts(word)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_words(cls, words, alphabet) -> "Nfa":
        """Trie automaton for a finite set of words over the alphabet."""
        words = frozenset(tuple(w) for w in words)
        prefixes = {()} | {w[:i] for w in words for i in range(1, len(w) + 1)}
        order = sorted(prefixes, key=lambda p: (len(p), p))
        name = {p: f"q{i}" for i, p in enumerate(order)}
        transitions = [(name[p[:-1]], p[-1], name[p]) for p in order if p]
        return cls([name[p] for p in order], alphabet, transitions, [name[()]],
                   [name[w] for w in words])

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

    @classmethod
    def joined(cls, parts, seps) -> "Nfa":
        """Automaton for parts[0] seps[0] parts[1] ... seps[-1] parts[-1].

        State q of part i is (2i, q); separator i - 1 leads into (2i - 1,),
        which moves as part i's initial states do and ends part i only if
        part i accepts the empty word.  States sort by repr in part order.
        Only `fixtures.bicyclic` and the mirror test build a shape whole."""
        alphabet, states, trans, ends = [], [], [], []
        for i, part in enumerate(parts):
            tag = 2 * i
            moves = [(p, s, q) for (p, s), qs in part.transitions.items() for q in qs]
            if i:
                entry = (tag - 1,)
                alphabet.append(seps[i - 1])
                states.append(entry)
                trans += [(f, seps[i - 1], entry) for f in ends]
                trans += [(entry, s, (tag, q)) for p, s, q in moves if p in part.initial]
                ends = [entry] if part.initial & part.accepting else []
            alphabet += part.alphabet
            states += [(tag, q) for q in part.states]
            trans += [((tag, p), s, (tag, q)) for p, s, q in moves]
            ends += [(tag, q) for q in part.accepting]
        return cls(states, alphabet, trans, [(0, q) for q in parts[0].initial], ends)

    # -- basic queries ---------------------------------------------------------

    def moves(self, state, sym) -> list:
        """The (target, (sym,)) pairs of one move on sym from state."""
        out = (sym,)
        return [(q, out) for q in self.transitions.get((state, sym), _EMPTY)]

    def accepts(self, w: Sequence) -> bool:
        """Whether w is accepted; each answer is kept per word, which is
        safe because an automaton never changes."""
        w = tuple(w)
        got = self._accepted.get(w)
        if got is None:
            current, trans = self.initial, self.transitions
            for sym in w:
                reached = set()
                for q in current:
                    reached |= trans.get((q, sym), _EMPTY)
                current = reached
                if not reached:
                    break
            got = self._accepted[w] = not self.accepting.isdisjoint(current)
        return got

    def shortest_word(self):
        """Shortest accepted word, least among the shortest in the
        alphabet's order; None when the language is empty."""
        return cfg.shortest_word(cfg.Cfg.from_nfa(self))

    def enumerate_words(self, maxlen: int):
        """All accepted words of length <= maxlen, in shortlex order."""
        return cfg.enumerate_words(cfg.Cfg.from_nfa(self), maxlen)

    # -- algebra ---------------------------------------------------------------

    def substitute(self, images) -> "Nfa":
        """Image under the homomorphism x -> images[x], every image nonempty.

        Each arc on x becomes a chain of fresh states spelling images[x]; the
        arcs on a symbol without an image are dropped.  Its alphabet is
        `words.image_alphabet` of this automaton's and the images.
        """
        alphabet = image_alphabet(self.alphabet, images.values())
        index = {q: i for i, q in enumerate(self.states)}
        fresh = len(index)
        trans = []
        for (src, sym), dsts in self.transitions.items():
            out = images.get(sym)
            if out is None:
                continue
            for dst in dsts:
                cur = index[src]
                for s in out[:-1]:
                    trans.append((cur, s, fresh))
                    cur, fresh = fresh, fresh + 1
                trans.append((cur, out[-1], index[dst]))
        return Nfa(range(fresh), alphabet, trans, [index[q] for q in self.initial],
                   [index[q] for q in self.accepting])

    def union(self, other: "Nfa") -> "Nfa":
        alphabet = merged(self.alphabet, other.alphabet)
        states = [(0, s) for s in self.states] + [(1, s) for s in other.states]
        trans = [((0, src), sym, (0, dst)) for (src, sym), ds in self.transitions.items() for dst in ds]
        trans += [((1, src), sym, (1, dst)) for (src, sym), ds in other.transitions.items() for dst in ds]
        initial = [(0, s) for s in self.initial] + [(1, s) for s in other.initial]
        accepting = [(0, s) for s in self.accepting] + [(1, s) for s in other.accepting]
        return Nfa(states, alphabet, trans, initial, accepting)

    def reverse(self) -> "Nfa":
        """The automaton of the reversed words; built once per automaton."""
        if self._reversed is None:
            trans = [(dst, sym, src)
                     for (src, sym), ds in self.transitions.items() for dst in ds]
            self._reversed = Nfa(self.states, self.alphabet, trans, self.accepting,
                                 self.initial)
        return self._reversed

    def complement(self, alphabet) -> "_Complement":
        """Complement relative to (alphabet)*."""
        return _Complement(self, alphabet)

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
        return f"Nfa(states={len(self.states)}, alphabet={list(self.alphabet)!r})"


class _Complement:
    """The words over `alphabet` that a state space of `cfg._asked` with
    `accepts(w)` (an `Nfa`, `structure._Slots`) does not accept.  A state is
    the frozenset of space states that a prefix reaches, accepting when it
    holds no accepting one, so the view is its own `accepting`.  A move is
    worked out when a product first asks for it and kept in `next`: only the
    subsets a product reaches are built, never the whole exponential set."""

    __slots__ = ("_space", "_alphabet", "_ends", "initial", "next")

    def __init__(self, space, alphabet):
        if not alphabet:
            raise ValueError("complement requires a declared alphabet")
        self._space, self._alphabet = space, frozenset(alphabet)
        self._ends = frozenset(space.accepting)
        self.initial = (frozenset(space.initial),)
        self.next = {}  # (state, sym) -> its one (target, (sym,)) move

    @property
    def accepting(self):
        return self

    def __contains__(self, state) -> bool:
        return self._ends.isdisjoint(state)

    def moves(self, state, sym):
        if sym not in self._alphabet:
            return ()
        got = self.next.get((state, sym))
        if got is None:
            got = self.next[(state, sym)] = ((frozenset(
                r for q in state for r, _out in self._space.moves(q, sym)), (sym,)),)
        return got

    def accepts(self, w) -> bool:
        # most words a check asks about are in the space: test that first
        return not self._space.accepts(w) and self._alphabet.issuperset(w)
