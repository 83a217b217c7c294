"""Structural decision procedures: completely simple, Clifford, free.

The first two derive one candidate shape, a species, from Green's relations
on the generators and validate it with language checks and product checks.
For complete simplicity the species is the R- and L-classes of the
generators (Rees's theorem); for Clifford it is the semilattice of H-classes
of the products of generator subsets. Freeness eliminates redundant
generators, then tests whether the projected table language is exactly the
palindromic one.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import cfg as cfglib
from .arithmetic import check_multiply, multiply
from .basic import green_related
from .errors import CapExceededError, OperandError
from .freegroup import FreeGroupWord
from .nfa import Nfa
from .structure import (Verdict, WhStructure, normalize_generators, slot_middle,
                        slot_word)
from .transducer import Transducer
from .words import SEP1, SEP2, reverse


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


# -- completely simple ---------------------------------------------------------------


def _first_last_automaton(alphabet, first, last):
    """Words over the alphabet with first letter in `first`, last in `last`."""
    states = ["s", "y", "n"]
    trans = []
    for a in alphabet:
        if a in first:
            trans.append(("s", a, "y" if a in last else "n"))
        for src in ("y", "n"):
            trans.append((src, a, "y" if a in last else "n"))
    return Nfa(states, alphabet, trans, ["s"], ["y"])


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
    cells = {}
    picks = {}
    for i in sp.row_ids:
        first = {a for a in sp.letters if sp.row_of(a) == i}
        for lam in sp.col_ids:
            last = {a for a in sp.letters if sp.col_of(a) == lam}
            cell = ns.reps.intersect(
                _first_last_automaton(ns.alphabet, first, last))
            w = cell.shortest_word(ns.ranks)
            if w is None:
                return Verdict.no(f"step 1: no representative in cell "
                                  f"({i},{lam}) [{tag}]")
            cells[(i, lam)] = cell
            picks[(i, lam)] = w
    for i in sp.row_ids:
        for j in sp.row_ids:
            for lam in sp.col_ids:
                for mu in sp.col_ids:
                    escaped = ns.reps.difference(cells[(i, mu)])
                    wit = slot_word(ns, cells[(i, lam)], cells[(j, mu)], escaped)
                    if wit is not None:
                        return Verdict.no(
                            f"step 2: product escapes cell ({i},{mu}): "
                            f"{' '.join(wit)} [{tag}]")
    units = {}
    for (i, lam), w in picks.items():
        unit = slot_middle(ns, w, cells[(i, lam)], w)
        if unit is None:
            return Verdict.no(f"step 3: nothing stabilizes cell ({i},{lam}) "
                              f"on the right [{tag}]")
        units[(i, lam)] = unit
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


def _classes(ns, words, rel) -> tuple:
    """Label each word by its `rel`-class among the words, numbered in order
    of first occurrence; each word is compared with one word per class."""
    firsts, labels = [], []
    for w in words:
        for i, first in enumerate(firsts):
            if green_related(ns, first, w, rel):
                labels.append(i)
                break
        else:
            labels.append(len(firsts))
            firsts.append(w)
    return tuple(labels)


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


def _meet_tracking_automaton(sp: CliffordSpecies, alphabet, target):
    """Words whose running meet of letter placements ends at `target`."""
    states = ["s"] + [("m", x) for x in sp.elements()]
    trans = []
    for a in alphabet:
        pa = sp.place(a)
        trans.append(("s", a, ("m", pa)))
        for x in sp.elements():
            trans.append((("m", x), a, ("m", sp.meet_of(x, pa))))
    return Nfa(states, alphabet, trans, ["s"], [("m", target)])


def clifford_species_check(s: WhStructure, sp: CliffordSpecies) -> Verdict:
    """Validate one semilattice species for being a Clifford semigroup."""
    ns = normalize_generators(s)
    tag = sp.describe()
    layers = {}
    picks = {}
    for alpha in sp.elements():
        layer = ns.reps.intersect(
            _meet_tracking_automaton(sp, ns.alphabet, alpha))
        w = layer.shortest_word(ns.ranks)
        if w is None:
            return Verdict.no(f"step 1: no representative lands in class "
                              f"{sp.labels[alpha]} [{tag}]")
        layers[alpha] = layer
        picks[alpha] = w
    for alpha in sp.elements():
        for beta in sp.elements():
            low = sp.meet_of(alpha, beta)
            escaped = ns.reps.difference(layers[low])
            wit = slot_word(ns, layers[alpha], layers[beta], escaped)
            if wit is not None:
                return Verdict.no(
                    f"step 2: product escapes class {sp.labels[low]}: "
                    f"{' '.join(wit)} [{tag}]")
    idem = {}
    for alpha in sp.elements():
        w = picks[alpha]
        idem[alpha] = slot_middle(ns, w, layers[alpha], w)
        if idem[alpha] is None:
            return Verdict.no(f"step 3: nothing stabilizes class "
                              f"{sp.labels[alpha]} on the right [{tag}]")
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
            v = slot_middle(ns, (a,), layers[alpha], idem[alpha])
            if v is None:
                return Verdict.no(f"step 6: generator {a!r} has no right "
                                  f"inverse into class {sp.labels[alpha]} [{tag}]")
            if not check_multiply(ns, v, (a,), idem[alpha]):
                return Verdict.no(f"step 7: right inverse of {a!r} in class "
                                  f"{sp.labels[alpha]} is not a left inverse [{tag}]")
    witnesses = {f"idempotent_{sp.labels[alpha]}": w for alpha, w in idem.items()}
    return Verdict.yes(witnesses, reason=tag)


def is_clifford(s: WhStructure, max_alphabet: int = 4) -> Verdict:
    """Check the one semilattice species the H-classes allow.

    In a Clifford semigroup H is a congruence and its quotient a semilattice,
    so the product of a set of generators lies in the H-class of the join of
    their classes, in whatever order the letters come. Nonempty generator
    subsets are therefore identified when the products of their letters, in
    alphabet order, are H-related. Unless that partition is compatible with
    joining each generator the semigroup is not Clifford; otherwise its
    quotient of the free semilattice is the only species that can be accepted.
    """
    ns = normalize_generators(s)
    unstable = _square_unstable(ns)
    if unstable is not None:
        return unstable
    n = len(ns.alphabet)
    if n > max_alphabet:
        raise CapExceededError(
            f"alphabet of size {n} exceeds the cap {max_alphabet} on the "
            f"generators whose 2^n - 1 nonempty subsets are multiplied out")
    # (size, lex) order: the singletons come first, in alphabet order
    subsets = [frozenset(c) for size in range(1, n + 1)
               for c in itertools.combinations(range(n), size)]
    index = {x: i for i, x in enumerate(subsets)}
    products = []
    for x in subsets:
        *rest, last = sorted(x)
        letter = (ns.alphabet[last],)
        products.append(multiply(ns, products[index[frozenset(rest)]], letter)
                        if rest else letter)
    part = _classes(ns, products, "H")
    firsts = [subsets[part.index(c)] for c in range(len(set(part)))]

    def spell(x):
        return "{" + ",".join(ns.alphabet[i] for i in sorted(x)) + "}"

    for x in subsets:
        first = firsts[part[index[x]]]
        for i, a in enumerate(ns.alphabet):
            if part[index[first | {i}]] != part[index[x | {i}]]:
                return Verdict.no(
                    f"generator subsets {spell(first)} and {spell(x)} have "
                    f"H-related products, but their joins with {a!r}, "
                    f"{spell(first | {i})} and {spell(x | {i})}, do not, so H "
                    f"is not a congruence onto a semilattice")
    sp = CliffordSpecies(
        ns.alphabet,
        tuple(tuple(part[index[x | y]] for y in firsts) for x in firsts),
        part[:n],
        tuple("".join(ns.alphabet[i] for i in sorted(x)) for x in firsts))
    return clifford_species_check(ns, sp)


# -- freeness ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Defect:
    """Evidence that a table language is not purely palindromic."""

    reason: str
    witness: Optional[tuple] = None


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
        shape = (Nfa.universal(letters)
                 .concat(Nfa.literal((SEP2,), (SEP2,)))
                 .concat(Nfa.universal(letters)))
        bad = cfglib.least_word(g, shape.complement(g.terminals))
    if bad is not None:
        raise OperandError(
            f"language is not contained in A*#2A*: {' '.join(bad)!r}")
    gn = cfglib.normalize(g, strict=False)
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


def is_free(s: WhStructure, defect_witness_length: int = 12) -> Verdict:
    """Eliminate decomposable generators, then demand that the representatives
    are all nonempty words and the projected table is purely palindromic."""
    ns = normalize_generators(s)
    alphabet = list(ns.alphabet)
    reps = ns.reps
    table = ns.table
    eliminated = {}
    for a in list(alphabet):
        # the deleter reads u #1 v #2 a off the table itself: every table
        # word lies in reps #1 reps #2 reps^rev, checked at load and kept by
        # normalize_generators and by each elimination below, whose ql and
        # qm substitute the same word in every slot (reversed in the third)
        decomp = _slot_deleter(alphabet, a).apply_to_cfg(table)
        d = cfglib.shortest_word(decomp, ns.ranks)
        if d is None:
            continue
        if a in d:
            return Verdict.no(
                f"generator {a!r} decomposes as {' '.join(d)!r}, which uses "
                f"{a!r} itself", {f"decomposition_{a}": d})
        eliminated[a] = d
        lmap = {b: (b,) for b in alphabet if b != a}
        ql = Transducer.letter_map({**lmap, a: d})
        qm = _three_slot_map(lmap, a, d)
        reps = ql.apply_to_nfa(reps)
        table = qm.apply_to_cfg(table)
        alphabet.remove(a)
    if not alphabet:
        return Verdict.no("every generator was eliminated")
    ok, counter = reps.equivalent(Nfa.universal_nonempty(alphabet))
    if not ok:
        extra = {} if counter is None else {"counterexample": counter}
        return Verdict.no(
            "representatives differ from the nonempty words over "
            + ",".join(alphabet), extra)
    proj = Transducer.letter_map(
        {**{b: (b,) for b in alphabet}, SEP1: (), SEP2: (SEP2,)})
    defect = palindromic_defect(proj.apply_to_cfg(table),
                                witness_bound=defect_witness_length)
    if defect is not None:
        extra = {"defect": defect.witness} if defect.witness else {}
        return Verdict.no(f"projected table is not palindromic: {defect.reason}",
                          extra)
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
    return Transducer(states, trans, "u", ["end"])


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
    return Transducer(states, trans, "u", ["w"])
