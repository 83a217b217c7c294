"""Finite-semigroup ground truth: multiplication tables, brute-force
deciders, and generation of structures from tables for property testing."""

from __future__ import annotations

import itertools
import json
from collections import deque

from .cfg import Cfg
from .errors import ParseError
from .nfa import Nfa
from .structure import Verdict, WhStructure, load_table_rows
from .words import SEP1, SEP2, reverse


class FiniteSemigroup:
    """A multiplication table over named elements plus a generating subset."""

    def __init__(self, elements, table, generators):
        self.elements = tuple(dict.fromkeys(elements))
        eset = set(self.elements)
        self.table = {}
        for (x, y), z in dict(table).items():
            if x not in eset or y not in eset or z not in eset:
                raise ParseError(f"table entry {(x, y, z)!r} uses unknown elements")
            self.table[(x, y)] = z
        for x in self.elements:
            for y in self.elements:
                if (x, y) not in self.table:
                    raise ParseError(f"table is missing the product {x!r}*{y!r}")
        self.generators = tuple(dict.fromkeys(generators))
        if not set(self.generators) <= eset:
            raise ParseError("generators must be elements")
        for x in self.elements:
            for y in self.elements:
                for z in self.elements:
                    left = self.table[(self.table[(x, y)], z)]
                    right = self.table[(x, self.table[(y, z)])]
                    if left != right:
                        raise ParseError(
                            f"table is not associative at ({x!r},{y!r},{z!r})")
        if self.generated(self.generators) != eset:
            raise ParseError("generators do not generate every element")

    @classmethod
    def from_rows(cls, elements, rows, generators):
        elements = list(elements)
        if len(rows) != len(elements):
            raise ParseError(f"table has {len(rows)} rows for "
                             f"{len(elements)} elements")
        for x, row in zip(elements, rows):
            if len(row) != len(elements):
                raise ParseError(f"table row of {x!r} has {len(row)} entries "
                                 f"for {len(elements)} elements")
        table = {(elements[i], elements[j]): rows[i][j]
                 for i in range(len(elements)) for j in range(len(elements))}
        return cls(elements, table, generators)

    def product(self, x, y):
        return self.table[(x, y)]

    def eval_word(self, w):
        w = tuple(w)
        if not w:
            raise ValueError("cannot evaluate the empty word")
        acc = w[0]
        for x in w[1:]:
            acc = self.table[(acc, x)]
        return acc

    def generated(self, seed):
        seen = set(seed)
        agenda = deque(seen)
        while agenda:
            x = agenda.popleft()
            for y in list(seen):
                for z in (self.table[(x, y)], self.table[(y, x)]):
                    if z not in seen:
                        seen.add(z)
                        agenda.append(z)
        return seen

    def identity(self):
        for e in self.elements:
            if all(self.table[(e, x)] == x == self.table[(x, e)]
                   for x in self.elements):
                return e
        return None

    def idempotents(self):
        return [e for e in self.elements if self.table[(e, e)] == e]

    def __repr__(self):
        return f"FiniteSemigroup(order={len(self.elements)})"


def load_table(source) -> FiniteSemigroup:
    """Load a table file from a path, file object or JSON text."""
    return FiniteSemigroup.from_rows(*load_table_rows(source))


def dumps_table(t: FiniteSemigroup) -> str:
    data = {
        "elements": list(t.elements),
        "table": [[t.table[(x, y)] for y in t.elements] for x in t.elements],
        "generators": list(t.generators),
    }
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def structure_from_table(t: FiniteSemigroup) -> WhStructure:
    """Structure whose letters are the generators, with one representative
    per element (the letter itself, or the first product word in shortlex
    order) and the full finite multiplication-table language."""
    rep_of = {g: (g,) for g in t.generators}
    value = {(g,): g for g in t.generators}
    frontier = [(g,) for g in t.generators]
    while len(rep_of) < len(t.elements):
        nxt = []
        for w in frontier:
            for g in t.generators:
                w2 = w + (g,)
                elt = t.table[(value[w], g)]
                value[w2] = elt
                nxt.append(w2)
                if elt not in rep_of:
                    rep_of[elt] = w2
        frontier = nxt
    reps = [rep_of[e] for e in t.elements]
    entries = set()
    for x in t.elements:
        for y in t.elements:
            u, v = rep_of[x], rep_of[y]
            w = rep_of[t.table[(x, y)]]
            entries.add(u + (SEP1,) + v + (SEP2,) + reverse(w))
    alphabet = t.generators
    table = Cfg.from_words(tuple(alphabet) + (SEP1, SEP2), entries)
    return WhStructure(alphabet, Nfa.from_words(reps, alphabet), table)


_PROPERTIES = ("monoid", "group", "commutative", "completely-simple",
               "clifford", "free")


def table_decide(t: FiniteSemigroup, prop: str) -> Verdict:
    """Brute-force decision over the table."""
    if prop not in _PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    if prop == "monoid":
        e = t.identity()
        if e is None:
            return Verdict.no("no two-sided identity in the table")
        return Verdict.yes({"identity": (e,)})
    if prop == "group":
        e = t.identity()
        if e is None:
            return Verdict.no("no identity")
        for x in t.elements:
            if not any(t.table[(x, y)] == e == t.table[(y, x)]
                       for y in t.elements):
                return Verdict.no(f"{x!r} has no inverse")
        return Verdict.yes({"identity": (e,)})
    if prop == "commutative":
        for x in t.elements:
            for y in t.elements:
                if t.table[(x, y)] != t.table[(y, x)]:
                    return Verdict.no(f"{x!r} and {y!r} do not commute")
        return Verdict.yes()
    if prop == "completely-simple":
        # no proper two-sided ideal, and a primitive idempotent exists
        full = set(t.elements)
        for x in t.elements:
            ideal = {x}
            for u in t.elements:
                for v in t.elements:
                    ideal.add(t.table[(t.table[(u, x)], v)])
                ideal.add(t.table[(u, x)])
                ideal.add(t.table[(x, u)])
            if ideal != full:
                return Verdict.no(f"{x!r} generates a proper ideal")
        idem = t.idempotents()
        for e in idem:
            if all(e == f or not (t.table[(e, f)] == f == t.table[(f, e)])
                   for f in idem):
                return Verdict.yes()
        return Verdict.no("no primitive idempotent")
    if prop == "clifford":
        for x in t.elements:
            if not any(t.table[(t.table[(x, y)], x)] == x for y in t.elements):
                return Verdict.no(f"{x!r} is not regular")
        for e in t.idempotents():
            for x in t.elements:
                if t.table[(e, x)] != t.table[(x, e)]:
                    return Verdict.no(f"idempotent {e!r} is not central")
        return Verdict.yes()
    return Verdict.no("finite semigroups are never free")


# -- named tables -----------------------------------------------------------------


def z2_table() -> FiniteSemigroup:
    """The two-element group."""
    return FiniteSemigroup.from_rows(
        ["e", "g"], [["e", "g"], ["g", "e"]], ["e", "g"])


def sl2_table() -> FiniteSemigroup:
    """The two-element meet semilattice {1, e} with top element 1."""
    return FiniteSemigroup.from_rows(
        ["1", "e"], [["1", "e"], ["e", "e"]], ["1", "e"])


def rb22_table() -> FiniteSemigroup:
    """The 2x2 rectangular band: (i,j)(k,l) = (i,l)."""
    names = {(i, j): f"x{i}{j}" for i in (1, 2) for j in (1, 2)}
    elements = [names[(i, j)] for i in (1, 2) for j in (1, 2)]
    table = {(names[(i, j)], names[(k, l)]): names[(i, l)]
             for i in (1, 2) for j in (1, 2) for k in (1, 2) for l in (1, 2)}
    return FiniteSemigroup(elements, table, ["x11", "x22"])


def null3_table() -> FiniteSemigroup:
    """The three-element null semigroup: every product is zero."""
    elements = ["0", "x", "y"]
    table = {(a, b): "0" for a in elements for b in elements}
    return FiniteSemigroup(elements, table, ["x", "y", "0"])


def rees_monoid_table() -> FiniteSemigroup:
    """Identity adjoined to a zero Rees matrix semigroup over the trivial
    group, with 2x3 coordinate pairs: (i,l)(j,m) is zero when l = j = 1 and
    (i,m) otherwise."""
    pairs = [(i, l) for i in (1, 2) for l in (1, 2, 3)]
    names = {p: f"p{p[0]}{p[1]}" for p in pairs}
    elements = [names[p] for p in pairs] + ["one", "zero"]

    def mult(x, y):
        if x == "one":
            return y
        if y == "one":
            return x
        if x == "zero" or y == "zero":
            return "zero"
        (i, l) = next(p for p, n in names.items() if n == x)
        (j, m) = next(p for p, n in names.items() if n == y)
        if l == 1 and j == 1:
            return "zero"
        return names[(i, m)]

    table = {(x, y): mult(x, y) for x in elements for y in elements}
    return FiniteSemigroup(elements, table,
                           ["p11", "p12", "p21", "p23", "one", "zero"])


NAMED_TABLES = {
    "z2": z2_table,
    "sl2": sl2_table,
    "rb22": rb22_table,
    "null3": null3_table,
    "rees": rees_monoid_table,
}


def direct_product(a: FiniteSemigroup, b: FiniteSemigroup) -> FiniteSemigroup:
    """Componentwise product table, with a minimal generating subset chosen
    deterministically."""
    elements = [f"{x}.{y}" for x in a.elements for y in b.elements]
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    rows = [[0] * n for _ in range(n)]
    for x1 in a.elements:
        for y1 in b.elements:
            for x2 in a.elements:
                for y2 in b.elements:
                    prod = f"{a.table[(x1, x2)]}.{b.table[(y1, y2)]}"
                    rows[index[f'{x1}.{y1}']][index[f'{x2}.{y2}']] = index[prod]
    gens = _minimal_generators(rows, n)
    named_rows = [[elements[v] for v in row] for row in rows]
    return FiniteSemigroup.from_rows(elements, named_rows,
                                     [elements[g] for g in gens])


# -- exhaustive small-order corpus ---------------------------------------------------


def small_semigroups(max_order: int = 3):
    """All semigroups of order <= max_order, one representative per class
    up to isomorphism and anti-isomorphism, in a deterministic order."""
    out = []
    for n in range(1, max_order + 1):
        perms = list(itertools.permutations(range(n)))
        seen = set()
        canon_tables = []
        for flat in itertools.product(range(n), repeat=n * n):
            rows = [flat[i * n:(i + 1) * n] for i in range(n)]
            if not _associative(rows, n):
                continue
            canon = _canonical_form(rows, n, perms)
            if canon not in seen:
                seen.add(canon)
                canon_tables.append(canon)
        for idx, canon in enumerate(sorted(canon_tables)):
            rows = [list(canon[i * n:(i + 1) * n]) for i in range(n)]
            names = [f"x{i}" for i in range(n)]
            named_rows = [[names[v] for v in row] for row in rows]
            gens = _minimal_generators(rows, n)
            out.append(FiniteSemigroup.from_rows(
                names, named_rows, [names[g] for g in gens]))
    return out


def _associative(rows, n):
    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            for z in range(n):
                if rows[xy][z] != rows[x][rows[y][z]]:
                    return False
    return True


def _canonical_form(rows, n, perms):
    best = None
    transposed = [[rows[j][i] for j in range(n)] for i in range(n)]
    for base in (rows, transposed):
        for p in perms:
            inv = [0] * n
            for i, pi in enumerate(p):
                inv[pi] = i
            arranged = tuple(p[base[inv[i]][inv[j]]]
                             for i in range(n) for j in range(n))
            if best is None or arranged < best:
                best = arranged
    return best


def _minimal_generators(rows, n):
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            seen = set(combo)
            agenda = deque(combo)
            while agenda:
                x = agenda.popleft()
                for y in list(seen):
                    for z in (rows[x][y], rows[y][x]):
                        if z not in seen:
                            seen.add(z)
                            agenda.append(z)
            if len(seen) == n:
                return combo
    return tuple(range(n))
