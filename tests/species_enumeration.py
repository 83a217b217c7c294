"""Every candidate species, enumerated: the differential oracle for the
completely simple and Clifford procedures, which derive their one species
from Green's relations.  Trying every species and keeping the first that
`cs_species_check` / `clifford_species_check` accepts must give the same
verdict, witnesses and yes-reason as the derived species."""

import itertools
from collections import deque

from whsg.structural import (CliffordSpecies, CsSpecies, _square_unstable,
                             clifford_species_check, cs_species_check)
from whsg.structure import Verdict, normalize_generators


class TooManySpecies(Exception):
    """The enumeration found more species than its `max_species` allows."""


def _growth_strings(n):
    """Restricted growth strings: canonical set partitions of an n-set, in
    lexicographic order."""
    if not n:
        return [()]
    out = [(0,)]
    for _ in range(n - 1):
        out = [s + (v,) for s in out for v in range(max(s) + 2)]
    return out


def enumerate_cs_species(alphabet):
    """All surjective row/column pairs up to renaming the index sets."""
    alphabet = tuple(alphabet)
    parts = _growth_strings(len(alphabet))
    return [CsSpecies(alphabet, rows, cols)
            for rows in parts for cols in parts]


def _free_semilattice(n):
    """Nonempty subsets of an n-set under union, as a meet table."""
    elements = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            elements.append(frozenset(combo))
    index = {e: i for i, e in enumerate(elements)}
    meet = [[index[a | b] for b in elements] for a in elements]
    return elements, meet


def _congruence_close(n, meet, parent, extra):
    """Smallest semilattice congruence containing the given merges."""

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    agenda = list(extra)
    while agenda:
        x, y = agenda.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[rx] = ry
        for z in range(n):
            agenda.append((meet[x][z], meet[y][z]))
    labels = {}
    out = []
    for x in range(n):
        r = find(x)
        if r not in labels:
            labels[r] = len(labels)
        out.append(labels[r])
    return tuple(out)


def enumerate_clifford_species(alphabet, max_species=10000):
    """Species from the congruences of the free meet semilattice on the
    alphabet, finest first, deduplicated by canonical block labels."""
    alphabet = tuple(alphabet)
    n = len(alphabet)
    elements, meet = _free_semilattice(n)
    size = len(elements)
    identity = tuple(range(size))
    seen = {identity}
    agenda = deque([identity])
    partitions = [identity]
    while agenda:
        part = agenda.popleft()
        classes = sorted(set(part))
        for c1, c2 in itertools.combinations(classes, 2):
            x = part.index(c1)
            y = part.index(c2)
            merged = _congruence_close(size, meet, list(range(size)),
                                       [(u, v) for u in range(size)
                                        for v in range(size)
                                        if part[u] == part[v] and u < v] +
                                       [(x, y)])
            if merged not in seen:
                seen.add(merged)
                if len(seen) > max_species:
                    raise TooManySpecies(
                        f"more than {max_species} semilattice species")
                agenda.append(merged)
                partitions.append(merged)
    partitions.sort(key=lambda p: (-len(set(p)), p))
    singleton = {i: elements.index(frozenset([i])) for i in range(n)}
    species = []
    for part in partitions:
        k = len(set(part))
        class_rep = {}
        for idx, cls in enumerate(part):
            class_rep.setdefault(cls, elements[idx])
        meet_table = tuple(
            tuple(part[elements.index(class_rep[i] | class_rep[j])]
                  for j in range(k))
            for i in range(k))
        placement = tuple(part[singleton[i]] for i in range(n))
        labels = tuple(",".join(alphabet[i] for i in sorted(class_rep[c]))
                       for c in range(k))
        species.append(CliffordSpecies(alphabet, meet_table, placement, labels))
    return species


def first_accepted(s, prop):
    """The procedure as it was before the species were derived: the square
    test, then the first enumerated species that validates, or no."""
    ns = normalize_generators(s)
    unstable = _square_unstable(ns)
    if unstable is not None:
        return unstable
    if prop == "completely-simple":
        species, check = enumerate_cs_species(ns.alphabet), cs_species_check
    else:
        species, check = enumerate_clifford_species(ns.alphabet), clifford_species_check
    for sp in species:
        verdict = check(ns, sp)
        if verdict:
            return verdict
    return Verdict.no(f"no {prop} species is accepted")
