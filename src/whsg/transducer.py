"""Finite transducers realizing rational relations on words.

A transition reads exactly one input symbol and emits an output word,
possibly empty.  Applying a transducer to a regular or context-free
language yields the image language, of the same kind.
"""

from __future__ import annotations

from collections import defaultdict, deque

# normalize is no longer called here but stays importable from this module:
# benchmark/selfcheck.py checks that tracing wraps such copied bindings
from .cfg import Cfg, _product_grammar, cnf_of, normalize
from .nfa import Nfa


class Transducer:
    """Finite transducer with a single initial state."""

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
        if initial not in sset:
            raise ValueError("undeclared initial state")
        self.initial = initial
        self.accepting = frozenset(accepting)
        if not self.accepting <= sset:
            raise ValueError("undeclared accepting state")

    @classmethod
    def letter_map(cls, mapping) -> "Transducer":
        """One-state machine substituting each input symbol by a fixed word."""
        trans = [("s", sym, tuple(out), "s") for sym, out in mapping.items()]
        return cls(["s"], trans, "s", ["s"])

    @classmethod
    def identity(cls, alphabet) -> "Transducer":
        return cls.letter_map({s: (s,) for s in alphabet})

    def output_symbols(self):
        syms = []
        for _src, _insym, out, _dst in self.transitions:
            syms.extend(out)
        return tuple(dict.fromkeys(syms))

    def _result_alphabet(self, base):
        outs = set(self.output_symbols())
        ordered = [s for s in base if s in outs]
        ordered += [s for s in self.output_symbols() if s not in ordered]
        return tuple(ordered)

    # -- application -----------------------------------------------------------

    def apply_word(self, w):
        """All outputs of accepting runs that read exactly w."""
        moves = self._moves
        runs = {(self.initial, ())}
        for sym in w:
            runs = {(dst, acc + out) for st, acc in runs
                    for dst, out in moves.get((st, sym), ())}
        return {acc for st, acc in runs if st in self.accepting}

    def apply_to_nfa(self, target: Nfa) -> Nfa:
        """Automaton for { v : u in language(target), (u, v) in relation }."""
        alphabet = self._result_alphabet(target.alphabet)
        # product automaton whose arcs emit output words; multi-symbol
        # outputs are chained, and empty ones are epsilon arcs to close over
        sym_edges = []
        eps_edges = []
        nodes = set()

        def emit(src_node, out, dst_node):
            # chain nodes carry the emitted word: transitions sharing both
            # endpoints but emitting different words must not share spine
            cur = src_node
            if not out:
                eps_edges.append((src_node, dst_node))
                return
            for i, sym in enumerate(out):
                nxt = (dst_node if i == len(out) - 1
                       else ("c", src_node, dst_node, out, i))
                nodes.add(nxt)
                sym_edges.append((cur, sym, nxt))
                cur = nxt

        for n_state in target.states:
            for t_state in self.states:
                nodes.add((n_state, t_state))
        for src, insym, out, dst in self.transitions:
            for (q, sym), q2s in target.transitions.items():
                if sym != insym:
                    continue
                for q2 in q2s:
                    emit((q, src), out, (q2, dst))
        initials = {(q, self.initial) for q in target.initial}
        accepting = {(q, t) for q in target.accepting for t in self.accepting}
        return _eliminate_epsilon(nodes, sym_edges, eps_edges, initials,
                                  accepting, alphabet)

    def apply_to_cfg(self, g: Cfg) -> Cfg:
        """Grammar for { v : u in language(g), (u, v) in relation }.

        Product of the binarized grammar with the transducer's state pairs:
        a terminal rule A -> a from state p leads, for each move on a from
        p, to its target with the move's output as body.  The empty word is
        dropped from the image.
        """
        alphabet = self._result_alphabet(g.terminals)
        # flat shortcut: without it decide-flat's peak RSS rose 10.5 %
        if g.flat_words is not None:
            words = set()
            for u in g.flat_words:
                words |= self.apply_word(u)
            words.discard(())
            return Cfg.from_words(alphabet, words)
        cnf = cnf_of(g)
        moves = self._moves

        def leaves_of(nt, p):
            return [leaf for sym in cnf.term_bodies.get(nt, ())
                    for leaf in moves.get((p, sym), ())]

        tops = [(self.initial, f) for f in self.accepting]
        return _product_grammar(cnf, leaves_of, tops, alphabet)

    def __repr__(self):
        return f"Transducer(states={len(self.states)}, transitions={len(self.transitions)})"


def _eliminate_epsilon(nodes, sym_edges, eps_edges, initials, accepting, alphabet):
    succ = defaultdict(set)
    for u, v in eps_edges:
        succ[u].add(v)

    closure_cache = {}

    def closure(u):
        got = closure_cache.get(u)
        if got is not None:
            return got
        seen = {u}
        agenda = deque([u])
        while agenda:
            cur = agenda.popleft()
            for nxt in succ.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    agenda.append(nxt)
        closure_cache[u] = frozenset(seen)
        return closure_cache[u]

    out_edges = defaultdict(set)
    for u, sym, v in sym_edges:
        out_edges[u].add((sym, v))

    new_trans = []
    new_accepting = set()
    reachable = set(initials)
    agenda = deque(initials)
    while agenda:
        u = agenda.popleft()
        cl = closure(u)
        if cl & accepting:
            new_accepting.add(u)
        for mid in cl:
            for sym, v in out_edges.get(mid, ()):
                new_trans.append((u, sym, v))
                if v not in reachable:
                    reachable.add(v)
                    agenda.append(v)
    return Nfa(reachable | set(initials), alphabet, new_trans, initials,
               new_accepting)
