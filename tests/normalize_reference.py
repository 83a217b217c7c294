"""The normal-form writer that `cfg.normalize` replaced, kept as a
differential reference: the unit closure over every expanded body first,
then the productive filter and a breadth-first pass for what the start
reaches.  `cfg.normalize` runs the product writer's order of the same
passes and must write the same grammar, production for production.  Give
each writer its own copy of a grammar: both keep their result on it."""

import itertools
from collections import defaultdict, deque

from whsg.cfg import Cfg, _ranked, _unit_closed


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
    and productive sets are one counter-based pass each), up to the sort of
    the output and two steps: each body is expanded over every subset of
    its nullable symbols (2^k bodies for k of them), and the unit-rule
    closure, which copies into every nonterminal the non-unit bodies of all
    those it reaches by unit rules (one pass over the strongly connected
    components of the unit graph).
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

    # unit-production closure
    if any(len(b) == 1 and b[0] in nts for _h, b in prods):
        unit_edges = defaultdict(set)
        nonunit = defaultdict(set)
        for head, body in prods:
            if len(body) == 1 and body[0] in nts:
                unit_edges[head].add(body[0])
            else:
                nonunit[head].add(body)
        bodies = _unit_closed(unit_edges, nonunit)
        prods = {(a, body) for a in nts
                 for body in bodies.get(a, nonunit.get(a, ()))}
        # freed first, so that the closure's occurrence index does not raise
        # the peak memory of large grammars
        del unit_edges, nonunit, bodies

    productive = _closure(prods, nts)
    if g.start not in productive:
        out = Cfg([g.start], g.terminals, g.start, [])
        g._normal = out
        out._normal = out
        return out
    if len(productive) < len(nts):
        prods = {(h, b) for h, b in prods if h in productive
                 and all(x not in nts or x in productive for x in b)}

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
    _order, prods = _ranked(itertools.chain(reachable, g.terminals),
                            [(h, b) for h, b in prods if h in reachable])
    keep = [a for a in g.nonterminals if a in reachable]
    out = Cfg(keep, g.terminals, g.start, prods)
    g._normal = out
    out._normal = out
    return out
