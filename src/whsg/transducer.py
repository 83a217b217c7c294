"""Finite transducers realizing rational relations on words.

A transition reads one input symbol (or nothing, for epsilon input) and
emits an output word, possibly empty.  Applying a transducer to a regular
or context-free language yields the image language, of the same kind.
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
        for src, insym, out, dst in transitions:
            if src not in sset or dst not in sset:
                raise ValueError(f"undeclared state in transition {(src, insym, out, dst)!r}")
            if insym is not None and not isinstance(insym, str):
                raise ValueError(f"input label must be a symbol or None: {insym!r}")
            cleaned.append((src, insym, tuple(out), dst))
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

    def _epsilon_reach(self):
        """reach[q] = states reachable from q by epsilon-input moves."""
        succ = defaultdict(set)
        for src, insym, _out, dst in self.transitions:
            if insym is None:
                succ[src].add(dst)
        reach = {}
        for q in self.states:
            seen = {q}
            agenda = deque([q])
            while agenda:
                cur = agenda.popleft()
                for nxt in succ.get(cur, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        agenda.append(nxt)
            reach[q] = frozenset(seen)
        return reach

    def has_epsilon_input(self) -> bool:
        return any(insym is None for _s, insym, _o, _d in self.transitions)

    # -- application -----------------------------------------------------------

    def apply_word(self, w, max_outputs: int = 100000):
        """All outputs of accepting runs that read exactly w.

        Raises when the output set exceeds the bound, which happens only for
        machines with productive epsilon-input cycles; those are handled by
        the automaton and grammar constructions instead.
        """
        w = tuple(w)
        n = len(w)
        seen = {(0, self.initial, ())}
        agenda = deque(seen)
        by_state = defaultdict(list)
        for src, insym, out, dst in self.transitions:
            by_state[src].append((insym, out, dst))
        result = set()
        while agenda:
            pos, st, acc = agenda.popleft()
            if pos == n and st in self.accepting:
                result.add(acc)
            for insym, out, dst in by_state.get(st, ()):
                if insym is None:
                    tgt = (pos, dst, acc + out)
                elif pos < n and w[pos] == insym:
                    tgt = (pos + 1, dst, acc + out)
                else:
                    continue
                if tgt not in seen:
                    if len(seen) > max_outputs:
                        raise ValueError("transducer output set exceeds bound")
                    seen.add(tgt)
                    agenda.append(tgt)
        return result

    def apply_to_nfa(self, target: Nfa) -> Nfa:
        """Automaton for { v : u in language(target), (u, v) in relation }."""
        alphabet = self._result_alphabet(target.alphabet)
        if target.finite_words is not None and not self.has_epsilon_input():
            # letterwise machines map finite languages to finite languages
            words = set()
            for u in target.finite_words:
                words |= self.apply_word(u)
            return Nfa.from_words(words, alphabet)
        # product automaton whose arcs emit output words; epsilon arcs and
        # multi-symbol outputs are resolved by chaining and closure
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
            if insym is None:
                for q in target.states:
                    emit((q, src), out, (q, dst))
            else:
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

        Product of the binarized grammar with the transducer's state pairs;
        epsilon-input moves contribute regular glue languages between
        consumed symbols.  The empty word is dropped from the image.
        """
        alphabet = self._result_alphabet(g.terminals)
        if g.flat_words is not None and not self.has_epsilon_input():
            words = set()
            for u in g.flat_words:
                words |= self.apply_word(u)
            words.discard(())
            return Cfg.from_words(alphabet, words)
        cnf = cnf_of(g)
        reach = self._epsilon_reach()
        pred = defaultdict(set)
        for q, seen in reach.items():
            for r in seen:
                pred[r].add(q)
        letter_edges = defaultdict(list)
        eps_transitions = []
        for src, insym, out, dst in self.transitions:
            if insym is None:
                eps_transitions.append((src, out, dst))
            else:
                letter_edges[insym].append((src, out, dst))
        glue_needed = bool(eps_transitions)

        def glue(x, y):
            return ("g", x, y)

        leaves = []
        glue_nodes = set()
        for sym, edges in letter_edges.items():
            for nt in cnf.by_sym.get(sym, ()):
                for src, out, dst in edges:
                    for p in pred[src]:
                        for q in reach[dst]:
                            if glue_needed:
                                body = (glue(p, src),) + out + (glue(dst, q),)
                                glue_nodes.add((p, src))
                                glue_nodes.add((dst, q))
                            else:
                                body = out
                            leaves.append(((p, nt, q), body))
        glue_prods = []
        if glue_needed:
            agenda = deque(glue_nodes)
            while agenda:
                x, y = agenda.popleft()
                if x == y:
                    glue_prods.append((glue(x, y), ()))
                for src, out, dst in eps_transitions:
                    if src == x and y in reach[dst]:
                        if (dst, y) not in glue_nodes:
                            glue_nodes.add((dst, y))
                            agenda.append((dst, y))
                        glue_prods.append((glue(x, y), out + (glue(dst, y),)))
        glue_nts = sorted((glue(x, y) for x, y in glue_nodes), key=repr)
        tops = [(self.initial, f) for f in self.accepting]
        return _product_grammar(cnf, leaves, tops, alphabet, glue_nts, glue_prods)

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
