"""Seeded input generation.

Every input the library sees is made here from the workload seed: structure
files as JSON text and words as tuples of letters.  Structures come from the
committed fixture files or from finite multiplication tables, re-serialized
by this module, so a change to the library's own writers cannot change the
load.  The seed permutes production and transition order (which changes
the text but not the language) and draws the words.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SEP1, SEP2 = "#1", "#2"


def fixture(name: str) -> dict:
    """The parsed JSON of a committed fixture structure."""
    return json.loads((FIXTURES / f"{name}.whs").read_text(encoding="utf-8"))


def permuted(data: dict, rng: random.Random) -> dict:
    """Same structure with productions and transitions in a seeded order."""
    out = json.loads(json.dumps(data))
    rng.shuffle(out["reps"]["transitions"])
    rng.shuffle(out["table"]["productions"])
    return out


def generic_twin(data: dict, rng: random.Random) -> dict:
    """The same table language under one extra wrapper nonterminal.

    Every production body moves to the wrapper and the start symbol derives
    the wrapper, so the grammar is no longer a flat word list and every
    operation takes the generic path.
    """
    out = permuted(data, rng)
    table = out["table"]
    taken = set(table["nonterminals"]) | set(out["alphabet"])
    wrapper = f"W{rng.randrange(10**6)}"
    while wrapper in taken:
        wrapper += "_"
    table["productions"] = [[wrapper, body] for _head, body in table["productions"]]
    table["productions"].append([table["start"], [wrapper]])
    table["nonterminals"] = table["nonterminals"] + [wrapper]
    return out


def table_structure(t, rng: random.Random):
    """Structure JSON for a finite semigroup: the generators are the letters,
    each element is represented by its shortlex-first generator word, and the
    table language lists every product entry u #1 v #2 w-reversed."""
    gens = list(t.generators)
    rep_of = {g: (g,) for g in gens}
    frontier = [(g,) for g in gens]
    value = {(g,): g for g in gens}
    while len(rep_of) < len(t.elements):
        nxt = []
        for w in frontier:
            for g in gens:
                w2 = w + (g,)
                value[w2] = t.product(value[w], g)
                nxt.append(w2)
                rep_of.setdefault(value[w2], w2)
        frontier = nxt
    words = [rep_of[e] for e in t.elements]
    entries = []
    for x in t.elements:
        for y in t.elements:
            w = rep_of[t.product(x, y)]
            entries.append(list(rep_of[x]) + [SEP1] + list(rep_of[y]) + [SEP2]
                           + list(reversed(w)))
    data = {
        "alphabet": gens,
        "reps": _trie(words),
        "table": {"nonterminals": ["S"], "start": "S",
                  "productions": [["S", e] for e in entries]},
    }
    return permuted(data, rng)


def _trie(words) -> dict:
    prefixes = sorted({w[:i] for w in words for i in range(len(w) + 1)},
                      key=lambda p: (len(p), p))
    name = {p: f"q{i}" for i, p in enumerate(prefixes)}
    return {
        "states": [name[p] for p in prefixes],
        "initial": [name[()]],
        "accepting": sorted({name[w] for w in words}),
        "transitions": [[name[p[:-1]], p[-1], name[p]] for p in prefixes if p],
    }


def text(data: dict) -> str:
    return json.dumps(data, separators=(",", ":"))


def digest(inputs) -> str:
    """Hash of the generated load: structure texts and words."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
