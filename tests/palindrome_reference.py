"""The mirror test that `structural.palindromic_defect` replaced, kept as a
differential reference: a depth-first search for a cycle among the
separator-free nonterminals, every word of each of them spliced into the
bodies that use it, free-group offsets over the spliced bodies, and a
witness found by enumerating members up to `witness_bound`.  It is
exponential in the nesting of separator-free nonterminals."""

import itertools
from collections import deque
from typing import Optional

from whsg import cfg as cfglib
from whsg.errors import OperandError
from whsg.freegroup import FreeGroupWord
from whsg.nfa import Nfa
from whsg.structural import Defect
from whsg.words import SEP1, SEP2, reverse


def palindromic_defect(g, witness_bound: int = 12) -> Optional[Defect]:
    """Decide whether a language inside A*#2A* contains a word x#2w-reversed
    with x != w.

    Returns None when every member is palindromic around the separator;
    otherwise a defect carrying a member witness when one exists within the
    bound, or the structural certificate alone.
    """
    if SEP2 not in g.terminals:
        raise OperandError("grammar must use the #2 separator")
    # products drop the empty word, which is outside A*#2A* as well
    if cfglib.derives_epsilon(g):
        bad = ()
    else:
        letters = tuple(t for t in g.terminals if t not in (SEP1, SEP2))
        # A*#2A*, built by hand so that the reference shares no shape code
        shape = Nfa(["x", "y"], letters + (SEP2,),
                    [(q, a, q) for q in ("x", "y") for a in letters]
                    + [("x", SEP2, "y")], ["x"], ["y"])
        bad = cfglib.least_word(g, shape.complement(g.terminals))
    if bad is not None:
        raise OperandError(
            f"language is not contained in A*#2A*: {' '.join(bad)!r}")
    gn = cfglib.normalize(g)
    if not gn.productions:
        return None
    # the nonterminals that reach the separator: one worklist over the
    # heads each nonterminal occurs under
    nts = set(gn.nonterminals)
    marked = set()
    occurs: dict = {}
    for head, body in gn.productions:
        if SEP2 in body:
            marked.add(head)
        for x in body:
            if x in nts:
                occurs.setdefault(x, []).append(head)
    agenda = list(marked)
    while agenda:
        for head in occurs.get(agenda.pop(), ()):
            if head not in marked:
                marked.add(head)
                agenda.append(head)
    plain = nts - marked

    by_head: dict = {}
    for head, body in gn.productions:
        by_head.setdefault(head, []).append(body)

    # one iterative depth-first pass over the separator-free nonterminals: a
    # cycle among them pumps one side only; without one, the post-order
    # lists every nonterminal after those its bodies use
    edges = {x: {y for body in by_head[x] for y in body if y in plain}
             for x in plain}
    state: dict = {}
    order = []
    for root in plain:
        if root in state:
            continue
        state[root] = "open"
        stack = [(root, iter(edges[root]))]
        while stack:
            x, children = stack[-1]
            for y in children:
                if state.get(y) == "open":
                    return Defect(
                        f"nonterminal {root!r} recurs on one side of the "
                        f"separator; pumping it breaks the mirror symmetry",
                        _palindromic_witness(gn, witness_bound))
                if y not in state:
                    state[y] = "open"
                    stack.append((y, iter(edges[y])))
                    break
            else:
                stack.pop()
                state[x] = "done"
                order.append(x)

    # expand the (finitely many) words of separator-free nonterminals away
    finite_words: dict = {}

    def spliced(body):
        options = [finite_words[x] if x in plain else [(x,)] for x in body]
        for combo in itertools.product(*options):
            yield tuple(sym for part in combo for sym in part)

    for x in order:
        finite_words[x] = sorted({w for body in by_head[x] for w in spliced(body)})
    prods = [(head, w) for head, body in gn.productions if head not in plain
             for w in spliced(body)]

    # every remaining body is p·S·t or p·#2·t with p, t separator-free
    values = {gn.start: FreeGroupWord()}
    agenda = deque([gn.start])
    spliced_by_head: dict = {}
    for head, body in prods:
        spliced_by_head.setdefault(head, []).append(body)
    while agenda:
        head = agenda.popleft()
        for body in spliced_by_head.get(head, ()):
            split = _split_single(body, marked)
            if split is None:
                raise OperandError(
                    "grammar body does not have exactly one separator-bearing symbol")
            p, x, t = split
            z = (FreeGroupWord.embed(p, -1) * values[head]
                 * FreeGroupWord.embed(reverse(t)))
            if x == SEP2:
                if not z.is_identity():
                    return Defect(
                        f"terminal production of {head!r} shifts one side by "
                        f"{z!r}", _palindromic_witness(gn, witness_bound))
            else:
                known = values.get(x)
                if known is None:
                    values[x] = z
                    agenda.append(x)
                elif known != z:
                    return Defect(
                        f"nonterminal {x!r} is reached with two different "
                        f"side offsets", _palindromic_witness(gn, witness_bound))
    return None


def _split_single(body, marked):
    pivot = None
    for i, sym in enumerate(body):
        if sym == SEP2 or sym in marked:
            if pivot is not None:
                return None
            pivot = i
    if pivot is None:
        return None
    return body[:pivot], body[pivot], body[pivot + 1:]


def _palindromic_witness(g, bound):
    for w in cfglib.enumerate_words(g, bound):
        i = w.index(SEP2)
        if w[:i] != reverse(w[i + 1:]):
            return w
    return None
