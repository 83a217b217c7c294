"""Every semigroup of a small order, by backtracking: the table is filled
one cell at a time in row-major order, and a value stays only if every
triple whose four products are known, one of them the newest cell,
associates.  `oracle.small_semigroups` tries all n^(n^2) tables instead,
which stops it at order 3; this search lists the 3,492 labelled tables of
order 4 in about half a second on a 2-vCPU machine."""

import itertools

from whsg.oracle import FiniteSemigroup, _canonical_form, _minimal_generators


def _touching(rows, n, x, y):
    """The triples (a, b, c) that read cell (x, y) in (a b) c = a (b c), as
    a b, (a b) c, b c or a (b c)."""
    for c in range(n):
        yield x, y, c
    for a in range(n):
        yield a, x, y
    for a, b in itertools.product(range(n), repeat=2):
        if rows[a][b] == x:
            yield a, b, y
        if rows[a][b] == y:
            yield x, a, b


def _associates(rows, a, b, c):
    ab, bc = rows[a][b], rows[b][c]
    if ab is None or bc is None or rows[ab][c] is None or rows[a][bc] is None:
        return True
    return rows[ab][c] == rows[a][bc]


def labelled_semigroups(n):
    """Every associative table on range(n), as rows, in lexicographic order
    of the cells read row by row."""
    rows = [[None] * n for _ in range(n)]
    cells = [(x, y) for x in range(n) for y in range(n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in rows]
            return
        x, y = cells[k]
        for v in range(n):
            rows[x][y] = v
            if all(_associates(rows, *t) for t in _touching(rows, n, x, y)):
                yield from fill(k + 1)
        rows[x][y] = None

    return fill(0)


def semigroups(order):
    """The semigroups of exactly this order, one per class up to isomorphism
    and anti-isomorphism, named and generated as `oracle.small_semigroups`
    names and generates them, in its order."""
    perms = list(itertools.permutations(range(order)))
    canon = sorted({_canonical_form(rows, order, perms)
                    for rows in labelled_semigroups(order)})
    names = [f"x{i}" for i in range(order)]
    out = []
    for flat in canon:
        rows = [list(flat[i * order:(i + 1) * order]) for i in range(order)]
        out.append(FiniteSemigroup.from_rows(
            names, [[names[v] for v in row] for row in rows],
            [names[g] for g in _minimal_generators(rows, order)]))
    return out
