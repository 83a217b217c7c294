"""Finite transducers realizing rational relations on words.

A transition reads exactly one input symbol and emits an output word,
possibly empty.  A transducer acts on context-free languages only: its
image of a grammar's language is again context-free.  Regular languages
are only ever substituted letterwise, by `Nfa.substitute`.

An automaton is the transducer that copies its input: both are read by
one protocol (`cfg._asked`), so images and intersections are one product.
"""

from __future__ import annotations

from collections import defaultdict

# normalize is no longer called here but stays importable from this module:
# benchmark/selfcheck.py checks that tracing wraps such copied bindings
from .cfg import Cfg, _product_grammar, cnf_of, normalize
from .words import image_alphabet


class Transducer:
    """Finite transducer with a set of initial states, as an `Nfa` has."""

    def __init__(self, states, transitions, initial, accepting):
        self.states = tuple(dict.fromkeys(states))
        sset = set(self.states)
        cleaned = []
        # (src, input symbol) -> [(dst, output word)]
        self._moves = defaultdict(list)
        for src, insym, out, dst in transitions:
            if src not in sset or dst not in sset:
                raise ValueError(f"undeclared state in transition {(src, insym, out, dst)!r}")
            if not isinstance(insym, str):
                raise ValueError(f"input label must be a symbol: {insym!r}")
            out = tuple(out)
            cleaned.append((src, insym, out, dst))
            self._moves[(src, insym)].append((dst, out))
        self.transitions = tuple(cleaned)
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        if not self.initial <= sset or not self.accepting <= sset:
            raise ValueError("undeclared initial or accepting state")

    @classmethod
    def letter_map(cls, mapping) -> "Transducer":
        """One-state machine substituting each input symbol by a fixed word."""
        trans = [("s", sym, tuple(out), "s") for sym, out in mapping.items()]
        return cls(["s"], trans, ["s"], ["s"])

    def moves(self, state, sym):
        """The (target, output word) pairs of one move on sym from state."""
        return self._moves.get((state, sym), ())

    # -- application -----------------------------------------------------------

    def apply_word(self, w):
        """All outputs of accepting runs that read exactly w."""
        moves = self._moves
        runs = {(p, ()) for p in self.initial}
        for sym in w:
            runs = {(dst, acc + out) for st, acc in runs
                    for dst, out in moves.get((st, sym), ())}
        return {acc for st, acc in runs if st in self.accepting}

    def apply_to_cfg(self, g: Cfg) -> Cfg:
        """Grammar for { v : u in language(g), (u, v) in relation }.

        Product of the binarized grammar, its bisimilar nodes merged
        (`cfg.cnf_of`), with the transducer's state pairs
        (`cfg._product_grammar`): a terminal rule A -> a from state p leads,
        for each move on a from p, to its target with the move's output as
        body.  The image's items are named after the merged nodes.  The
        empty word is dropped from the image.
        """
        alphabet = image_alphabet(g.terminals, (t[2] for t in self.transitions))
        # flat shortcut: without it decide-flat ran 35 % fewer ops/s, at
        # 11 % more peak RSS
        if g.flat_words is not None:
            words = set()
            for u in g.flat_words:
                words |= self.apply_word(u)
            words.discard(())
            return Cfg.from_words(alphabet, words)
        return _product_grammar(cnf_of(g), self, alphabet)

    def __repr__(self):
        return f"Transducer(states={len(self.states)}, transitions={len(self.transitions)})"
