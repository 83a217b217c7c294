"""Structural decision procedures: completely simple, Clifford, free.

The first two derive one candidate shape, a species, from Green's relations
on the generators and validate it with language checks and product checks.
For complete simplicity the species is the R- and L-classes of the
generators (Rees's theorem), a rectangular band of cells; for Clifford it is
the semilattice of H-classes that a closure from the generators reaches.
Both sort words into classes by `_place`, run one cell phase over their
finite band (`_cells`), then check their groups.
Freeness eliminates redundant generators, then tests whether the projected
table language is exactly the palindromic one, from the two least words of
each nonterminal and free-group offsets; a defect's witness member is read
off that certificate.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import cfg as cfglib
from .arithmetic import check_multiply, multiply
from .basic import green_related
from .errors import OperandError
from .freegroup import FreeGroupWord
from .nfa import Nfa
from .structure import (Verdict, WhStructure, normalize_generators, slot_middle,
                        slot_word)
from .transducer import Transducer
from .words import SEP1, SEP2, reverse, spelled


# -- species types ----------------------------------------------------------------


@dataclass(frozen=True)
class CsSpecies:
    """Row and column class of each generator, both maps surjective."""

    letters: tuple
    rows: tuple
    cols: tuple

    def __post_init__(self):
        for assign in (self.rows, self.cols):
            if len(assign) != len(self.letters):
                raise ValueError("species assignments must cover the alphabet")

    def row_of(self, a):
        return self.rows[self.letters.index(a)]

    def col_of(self, a):
        return self.cols[self.letters.index(a)]

    @property
    def row_ids(self):
        return range(max(self.rows) + 1)

    @property
    def col_ids(self):
        return range(max(self.cols) + 1)

    def describe(self) -> str:
        return (f"rows {_blocks(self.letters, self.rows)} "
                f"cols {_blocks(self.letters, self.cols)}")


@dataclass(frozen=True)
class CliffordSpecies:
    """A finite meet semilattice with a generator placement generating it."""

    letters: tuple
    meet: tuple          # k x k table of element ids
    placement: tuple     # letter index -> element id
    labels: tuple        # element id -> printable label

    def place(self, a):
        return self.placement[self.letters.index(a)]

    def elements(self):
        return range(len(self.meet))

    def meet_of(self, x, y):
        return self.meet[x][y]

    def ge(self, x, y):
        return self.meet[x][y] == y

    def describe(self) -> str:
        placed = ",".join(f"{a}->{self.labels[self.place(a)]}"
                          for a in self.letters)
        return f"semilattice of {len(self.meet)} classes; {placed}"


def _blocks(letters, assign):
    by_class: dict = {}
    for letter, cls in zip(letters, assign):
        by_class.setdefault(cls, []).append(letter)
    return "|".join("".join(by_class[c]) for c in sorted(by_class))


# -- cells of a finite band -------------------------------------------------------


def _band_automaton(alphabet, keys, place, mul, targets):
    """Words whose letters' cells multiply out to one of `targets` in the band.

    The state after a nonempty prefix is its cell x, as (x,); the start,
    (), is therefore no cell.  In a band a cell x leads on to a target t
    exactly when x t = t, so only those cells are states."""
    live = [x for x in keys if any(mul(x, t) == t for t in targets)]
    places = {a: place(a) for a in alphabet}
    moves = [((), a, p) for a, p in places.items()]
    moves += [((x,), a, mul(x, p)) for x in live for a, p in places.items()]
    return Nfa([()] + [(x,) for x in live], alphabet,
               [(q, a, (y,)) for q, a, y in moves if y in live], [()],
               [(t,) for t in targets])


def _cells(ns, keys, place, mul, name, tag):
    """Steps 1-3 of both species checks over a finite band of cells: letter a
    lies in cell place(a), cells x and y multiply to mul(x, y), and name(x)
    prints x.  A cell is its band automaton alone: in a slot, the shape
    invariant keeps every table word among the representatives.  Step 1
    picks each cell's least representative, one `cfg.least_word` of the
    band with the representatives' kept grammar, step 2 checks that products
    of two cells' members stay in the product cell, and step 3 finds a
    member of each cell that stabilizes its pick on the right.  Returns
    (cells, units), or the no-verdict of the first failing step."""
    reps = cfglib.Cfg.from_nfa(ns.reps)
    cells, picks = {}, {}
    for x in keys:
        cells[x] = _band_automaton(ns.alphabet, keys, place, mul, (x,))
        picks[x] = cfglib.least_word(reps, cells[x])
        if picks[x] is None:
            return Verdict.no(f"step 1: no representative in {name(x)} [{tag}]")
    # right slots, the words in every other cell (no slot is empty): a
    # generic table's product reads each one's reverse, which Nfa.reverse
    # builds once for all k queries of its cell; a flat one none
    escaped = {x: _band_automaton(ns.alphabet, keys, place, mul,
                                  [y for y in keys if y != x]) for x in keys}
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


# -- completely simple ---------------------------------------------------------------


def _square_unstable(ns) -> Optional[Verdict]:
    """A generator not H-related to its square refutes any union of groups."""
    for a in ns.alphabet:
        sq = multiply(ns, (a,), (a,))
        if not green_related(ns, (a,), sq, "H"):
            return Verdict.no(
                f"generator {a!r} is not H-related to its square, so the "
                f"semigroup is not a union of groups")
    return None


def cs_species_check(s: WhStructure, sp: CsSpecies) -> Verdict:
    """Validate one row/column species for complete simplicity."""
    ns = normalize_generators(s)
    tag = sp.describe()
    found = _cells(ns, [(i, lam) for i in sp.row_ids for lam in sp.col_ids],
                   lambda a: (sp.row_of(a), sp.col_of(a)), lambda x, y: (x[0], y[1]),
                   lambda x: f"cell ({x[0]},{x[1]})", tag)
    if isinstance(found, Verdict):
        return found
    cells, units = found
    for a in sp.letters:
        for lam in sp.col_ids:
            if not check_multiply(ns, units[(sp.row_of(a), lam)], (a,), (a,)):
                return Verdict.no(f"step 5: unit of row {sp.row_of(a)} does not "
                                  f"fix generator {a!r} on the left [{tag}]")
        for i in sp.row_ids:
            if not check_multiply(ns, (a,), units[(i, sp.col_of(a))], (a,)):
                return Verdict.no(f"step 5: unit of column {sp.col_of(a)} does "
                                  f"not fix generator {a!r} on the right [{tag}]")
    h = {}
    for a in sp.letters:
        for i in sp.row_ids:
            for mu in sp.col_ids:
                for lam in sp.col_ids:
                    h[(i, a, mu, lam)] = multiply(
                        ns, multiply(ns, units[(i, mu)], (a,)), units[(i, lam)])
    for (i, a, mu, lam), ha in h.items():
        if not check_multiply(ns, ha, units[(i, sp.col_of(a))],
                              multiply(ns, units[(i, mu)], (a,))):
            return Verdict.no(f"step 7: translate of {a!r} misbehaves in row "
                              f"{i} [{tag}]")
        if not (check_multiply(ns, units[(i, lam)], ha, ha)
                and check_multiply(ns, ha, units[(i, lam)], ha)):
            return Verdict.no(f"step 8: cell unit is not an identity for the "
                              f"translate of {a!r} [{tag}]")
        # the inverse must come from the same cell, as in the Clifford
        # analogue; otherwise a wrong-row inverse fails the left check below
        v = slot_middle(ns, ha, cells[(i, lam)], units[(i, lam)])
        if v is None:
            return Verdict.no(f"step 9: translate of {a!r} has no right "
                              f"inverse in cell ({i},{lam}) [{tag}]")
        if not check_multiply(ns, v, ha, units[(i, lam)]):
            return Verdict.no(f"step 10: right inverse of the translate of "
                              f"{a!r} is not a left inverse [{tag}]")
    witnesses = {f"idempotent_{i}_{lam}": w for (i, lam), w in units.items()}
    return Verdict.yes(witnesses, reason=tag)


def _place(ns, firsts, w, rel) -> int:
    """The index of w's `rel`-class in `firsts`, where it is appended if new."""
    for i, first in enumerate(firsts):
        if green_related(ns, first, w, rel):
            return i
    firsts.append(w)
    return len(firsts) - 1


def _classes(ns, words, rel) -> tuple:
    """Label each word by its `rel`-class among the words, numbered in order
    of first occurrence; each word is compared with one word per class."""
    firsts = []
    return tuple(_place(ns, firsts, w, rel) for w in words)


def is_completely_simple(s: WhStructure) -> Verdict:
    """Check the one species Rees's theorem allows: rows are the R-classes of
    the generators and columns their L-classes.

    In a completely simple semigroup generated by A, an element lies in the
    row of its first letter and the column of its last, so every row and
    column holds a generator and no other species can be accepted.
    """
    ns = normalize_generators(s)
    unstable = _square_unstable(ns)
    if unstable is not None:
        return unstable
    letters = [(a,) for a in ns.alphabet]
    return cs_species_check(ns, CsSpecies(ns.alphabet, _classes(ns, letters, "R"),
                                          _classes(ns, letters, "L")))


# -- Clifford -------------------------------------------------------------------------


def clifford_species_check(s: WhStructure, sp: CliffordSpecies) -> Verdict:
    """Validate one semilattice species for being a Clifford semigroup."""
    ns = normalize_generators(s)
    tag = sp.describe()
    found = _cells(ns, sp.elements(), sp.place, sp.meet_of,
                   lambda x: f"class {sp.labels[x]}", tag)
    if isinstance(found, Verdict):
        return found
    cells, idem = found
    for alpha in sp.elements():
        for beta in sp.elements():
            if not check_multiply(ns, idem[alpha], idem[beta],
                                  idem[sp.meet_of(alpha, beta)]):
                return Verdict.no(f"step 4: chosen idempotents do not multiply "
                                  f"like the semilattice [{tag}]")
    for a in sp.letters:
        ia = idem[sp.place(a)]
        if not (check_multiply(ns, ia, (a,), (a,))
                and check_multiply(ns, (a,), ia, (a,))):
            return Verdict.no(f"step 5: class idempotent does not fix "
                              f"generator {a!r} [{tag}]")
        for alpha in sp.elements():
            r = multiply(ns, (a,), idem[alpha])
            if not check_multiply(ns, idem[alpha], (a,), r):
                return Verdict.no(f"step 5: idempotent of {sp.labels[alpha]} "
                                  f"does not commute with {a!r} [{tag}]")
    for alpha in sp.elements():
        for a in sp.letters:
            if not sp.ge(sp.place(a), alpha):
                continue
            v = slot_middle(ns, (a,), cells[alpha], idem[alpha])
            if v is None:
                return Verdict.no(f"step 6: generator {a!r} has no right "
                                  f"inverse into class {sp.labels[alpha]} [{tag}]")
            if not check_multiply(ns, v, (a,), idem[alpha]):
                return Verdict.no(f"step 7: right inverse of {a!r} in class "
                                  f"{sp.labels[alpha]} is not a left inverse [{tag}]")
    witnesses = {f"idempotent_{sp.labels[alpha]}": w for alpha, w in idem.items()}
    return Verdict.yes(witnesses, reason=tag)


def is_clifford(s: WhStructure) -> Verdict:
    """Check the one semilattice species the H-classes allow.

    In a Clifford semigroup H is a congruence, and its quotient is the
    semilattice that the classes of the generators generate.  A closure from
    the letters finds it with about n products per class: a generator subset
    whose product opens a new H-class labels it, and is extended by every
    other letter.  A class joins another by taking in the letters of the
    other's label one at a time.  Unless that table is commutative and
    associative the semigroup is not Clifford; otherwise it is the only
    species that can be accepted.
    """
    ns = normalize_generators(s)
    unstable = _square_unstable(ns)
    if unstable is not None:
        return unstable
    letters = ns.alphabet
    # keyed by (size, subset), so that each class's label is the least
    # generator subset in it, as in the enumerated species
    heap = [(1, (i,), (a,)) for i, a in enumerate(letters)]
    pushed = {x for _, x, _ in heap}
    firsts, labels, cls = [], [], {}
    while heap:
        _, x, w = heapq.heappop(heap)
        cls[x] = _place(ns, firsts, w, "H")
        if cls[x] == len(labels):
            labels.append(x)
            for i, a in enumerate(letters):
                y = tuple(sorted({*x, i}))
                if y not in pushed:
                    pushed.add(y)
                    heapq.heappush(heap, (len(y), y, multiply(ns, w, (a,))))

    def join(c, d):
        for i in labels[d]:
            c = cls[tuple(sorted({*labels[c], i}))]
        return c

    def spell(c):
        return "{" + ",".join(letters[i] for i in labels[c]) + "}"

    k = len(labels)
    meet = tuple(tuple(join(c, d) for d in range(k)) for c in range(k))
    for c in range(k):
        for d in range(c + 1, k):
            if meet[c][d] != meet[d][c]:
                return Verdict.no(
                    f"classes {spell(c)} and {spell(d)} join to "
                    f"{spell(meet[c][d])} one way and to {spell(meet[d][c])} "
                    f"the other, so H is not a congruence onto a semilattice")
    for c, d, e in itertools.product(range(k), repeat=3):
        left, right = meet[meet[c][d]][e], meet[c][meet[d][e]]
        if left != right:
            return Verdict.no(
                f"classes {spell(c)}, {spell(d)} and {spell(e)} join to "
                f"{spell(left)} through {spell(meet[c][d])} and to "
                f"{spell(right)} through {spell(meet[d][e])}, so H is not a "
                f"congruence onto a semilattice")
    sp = CliffordSpecies(letters, meet, tuple(cls[(i,)] for i in range(len(letters))),
                         tuple(",".join(letters[i] for i in x) for x in labels))
    return clifford_species_check(ns, sp)


# -- freeness ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Defect:
    """Evidence that a table language is not purely palindromic: a reason and
    a member x #2 w-reversed with x != w."""

    reason: str
    witness: tuple


def palindromic_defect(g) -> Optional[Defect]:
    """Decide whether a language inside A*#2A* (an `Nfa.joined` shape, else
    OperandError) contains a word x#2w-reversed with x != w.

    Returns None when every member is palindromic around the separator;
    otherwise a defect whose witness is read off the certificate.  One
    forward pass settles the two least words of every nonterminal of the
    normal form.  A nonterminal's words either all hold the separator or
    none does.  A separator-free nonterminal with two words is a defect:
    the same context around each gives two members that differ on one side
    only, so at most one is a mirror; it also catches every cycle among
    separator-free nonterminals, as the normal form has no epsilon or unit
    rules.  Otherwise each separator-free nonterminal derives one word, and
    one breadth-first search from the start gives every separator-bearing
    nonterminal its free-group offset p^-1 . offset . t-reversed over its
    bodies p X t; a terminal body p #2 t that shifts, or a nonterminal
    reached with two offsets, is a defect.  Each nonterminal's first
    derivation, with every sibling spelled as its least word, gives the
    members that the witness is chosen from.
    """
    if SEP2 not in g.terminals:
        raise OperandError("grammar must use the #2 separator")
    # products drop the empty word, which is outside A*#2A* as well
    if cfglib.derives_epsilon(g):
        bad = ()
    else:
        letters = tuple(t for t in g.terminals if t not in (SEP1, SEP2))
        shape = Nfa.joined((Nfa.universal(letters),) * 2, (SEP2,))
        bad = cfglib.least_word(g, shape.complement(g.terminals))
    if bad is not None:
        raise OperandError(
            f"language is not contained in A*#2A*: {' '.join(bad)!r}")
    gn = cfglib.normalize(g)
    if not gn.productions:
        return None
    symbols, sep2 = gn.terminals, gn.rank[SEP2]
    words: dict = {}
    pumped = None
    for x, w in cfglib._least_words(gn, 2):
        got = words.setdefault(x, [])
        got.append(w)
        if pumped is None and len(got) == 2 and sep2 not in got[0]:
            pumped = x
    least = {x: spelled(got[0], symbols) for x, got in words.items()}
    # the symbols whose words hold the separator, #2 itself included: each
    # body of a marked head has exactly one
    marked = {x for x, w in least.items() if SEP2 in w}
    marked.add(SEP2)

    def spell(syms):
        return tuple(s for x in syms for s in least.get(x, (x,)))

    by_head: dict = {}
    for head, body in gn.productions:
        by_head.setdefault(head, []).append(body)
    # via[x] = (head, body, i): the first derivation that reaches x
    via = {gn.start: None}
    offsets = {gn.start: FreeGroupWord()}
    agenda = deque([gn.start])

    def context(x):
        left, right = [], []
        while via[x] is not None:
            x, body, i = via[x]
            left += reversed(spell(body[:i]))
            right += spell(body[i + 1:])
        return reverse(left), tuple(right)

    def skewed(*members):
        return next(w for w in members if not _mirrors(w))

    while agenda:
        head = agenda.popleft()
        for body in by_head[head]:
            for i, x in enumerate(body):
                if x in by_head and x not in via:
                    via[x] = (head, body, i)
                    agenda.append(x)
            if pumped is not None or head not in marked:
                continue
            i = next(i for i, x in enumerate(body) if x in marked)
            p, x, t = spell(body[:i]), body[i], spell(body[i + 1:])
            z = (FreeGroupWord.embed(p, -1) * offsets[head]
                 * FreeGroupWord.embed(reverse(t)))
            if x == SEP2:
                if not z.is_identity():
                    u, v = context(head)
                    return Defect(f"terminal production of {head!r} shifts one "
                                  f"side by {z!r}", u + p + (SEP2,) + t + v)
            elif x not in offsets:
                offsets[x] = z
            elif offsets[x] != z:
                u, v = context(head)
                u0, v0 = context(x)
                return Defect(
                    f"nonterminal {x!r} is reached with two different side "
                    f"offsets", skewed(u0 + least[x] + v0,
                                       u + p + least[x] + t + v))
    if pumped is not None:
        u, v = context(pumped)
        w1, w2 = (spelled(w, symbols) for w in words[pumped])
        return Defect(f"nonterminal {pumped!r} derives two different words on "
                      f"one side of the separator", skewed(u + w1 + v, u + w2 + v))
    return None


def _mirrors(w) -> bool:
    i = w.index(SEP2)
    return w[:i] == reverse(w[i + 1:])


def is_free(s: WhStructure) -> Verdict:
    """Eliminate decomposable generators, then demand that the representatives
    are all nonempty words (they miss the empty word, and one product finds
    no word of A+ outside them) and the projected table is purely palindromic."""
    ns = normalize_generators(s)
    alphabet = list(ns.alphabet)
    reps = ns.reps
    table = ns.table
    eliminated = {}
    for a in list(alphabet):
        # the deleter reads u #1 v #2 a off the table itself: every table
        # word lies in reps #1 reps #2 reps^rev, checked at load and kept by
        # normalize_generators and by each elimination below, which
        # substitutes the same word in the representatives and in every
        # slot (reversed in the third)
        decomp = _slot_deleter(alphabet, a).apply_to_cfg(table)
        d = cfglib.shortest_word(decomp)
        if d is None:
            continue
        if a in d:
            return Verdict.no(
                f"generator {a!r} decomposes as {' '.join(d)!r}, which uses "
                f"{a!r} itself", {f"decomposition_{a}": d})
        eliminated[a] = d
        lmap = {b: (b,) for b in alphabet if b != a}
        reps = reps.substitute({**lmap, a: d})
        table = _three_slot_map(lmap, a, d).apply_to_cfg(table)
        alphabet.remove(a)
    if not alphabet:
        return Verdict.no("every generator was eliminated")
    # reps declares exactly the remaining letters, in this order, so
    # reps - A+ holds at most the empty word
    counter = () if reps.accepts(()) else cfglib.least_word(cfglib.Cfg.from_nfa(
        Nfa.universal_nonempty(alphabet)), reps.complement(alphabet))
    if counter is not None:
        return Verdict.no(
            "representatives differ from the nonempty words over "
            + ",".join(alphabet), {"counterexample": counter})
    proj = Transducer.letter_map(
        {**{b: (b,) for b in alphabet}, SEP1: (), SEP2: (SEP2,)})
    defect = palindromic_defect(proj.apply_to_cfg(table))
    if defect is not None:
        return Verdict.no(f"projected table is not palindromic: {defect.reason}",
                          {"defect": defect.witness})
    witnesses = {f"decomposition_{a}": d for a, d in eliminated.items()}
    return Verdict.yes(witnesses, reason="basis " + ",".join(alphabet))


def _slot_deleter(alphabet, a) -> Transducer:
    """Maps u#1v#2a to uv: separators and the trailing letter are dropped."""
    states = ["u", "v", "w", "end"]
    trans = []
    for b in alphabet:
        trans.append(("u", b, (b,), "u"))
        trans.append(("v", b, (b,), "v"))
    trans.append(("u", SEP1, (), "v"))
    trans.append(("v", SEP2, (), "w"))
    trans.append(("w", a, (), "end"))
    return Transducer(states, trans, ["u"], ["end"])


def _three_slot_map(lmap, a, d) -> Transducer:
    """Letterwise substitution in all three slots, reversed after #2."""
    states = ["u", "v", "w"]
    trans = []
    for b, out in lmap.items():
        for st in states:
            trans.append((st, b, out, st))
    trans.append(("u", a, tuple(d), "u"))
    trans.append(("v", a, tuple(d), "v"))
    trans.append(("w", a, reverse(d), "w"))
    trans.append(("u", SEP1, (SEP1,), "v"))
    trans.append(("v", SEP2, (SEP2,), "w"))
    return Transducer(states, trans, ["u"], ["w"])
