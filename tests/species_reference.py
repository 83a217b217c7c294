"""The species cell phase that `structural._cells` replaced, kept as a
differential reference: every cell and every escaped-cell slot is the eager
product automaton of the representatives with the cell's band automaton
(`intersect`, a copy of the deleted `Nfa.intersect`), and each cell's pick
is that product's shortest word.  `structural._cells` reads the band
automata alone, which the table's shape invariant makes the same in a slot;
both species checks must give the same verdict, reason and witnesses with
either phase (swap it in for `structural._cells`)."""

from collections import deque

from whsg.nfa import Nfa
from whsg.structural import _band_automaton
from whsg.structure import Verdict, slot_middle, slot_word
from whsg.words import merged

_EMPTY = frozenset()


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """The product automaton of a and b, every pair a breadth-first search
    from the initial pairs reaches built whole."""
    alphabet = merged(a.alphabet, b.alphabet)
    start = {(p, q) for p in a.initial for q in b.initial}
    seen = set(start)
    agenda = deque(start)
    trans = []
    while agenda:
        p, q = agenda.popleft()
        for sym in alphabet:
            ps = a.transitions.get((p, sym), _EMPTY)
            qs = b.transitions.get((q, sym), _EMPTY)
            for p2 in ps:
                for q2 in qs:
                    trans.append(((p, q), sym, (p2, q2)))
                    if (p2, q2) not in seen:
                        seen.add((p2, q2))
                        agenda.append((p2, q2))
    accepting = [s for s in seen if s[0] in a.accepting and s[1] in b.accepting]
    return Nfa(seen | start, alphabet, trans, start, accepting)


def cells(ns, keys, place, mul, name, tag):
    """Steps 1-3 of both species checks, each cell the representatives in
    it: `structural._cells` with the product automata built."""
    cells, picks = {}, {}
    for x in keys:
        cells[x] = intersect(ns.reps, _band_automaton(ns.alphabet, keys, place, mul, (x,)))
        picks[x] = cells[x].shortest_word()
        if picks[x] is None:
            return Verdict.no(f"step 1: no representative in {name(x)} [{tag}]")
    escaped = {x: intersect(ns.reps, _band_automaton(
        ns.alphabet, keys, place, mul, [y for y in keys if y != x])) for x in keys}
    for x in keys:
        for y in keys:
            low = mul(x, y)
            wit = slot_word(ns, cells[x], cells[y], escaped[low])
            if wit is not None:
                return Verdict.no(f"step 2: product escapes {name(low)}: "
                                  f"{' '.join(wit)} [{tag}]")
    units = {}
    for x, w in picks.items():
        units[x] = slot_middle(ns, w, cells[x], w)
        if units[x] is None:
            return Verdict.no(f"step 3: nothing stabilizes {name(x)} on the "
                              f"right [{tag}]")
    return cells, units
