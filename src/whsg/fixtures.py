"""Named example structures used by the test-suite, the docs and the CLI.

Run ``python -m whsg.fixtures <directory>`` to write them out as files.
"""

from __future__ import annotations

import sys
from pathlib import Path

from . import cfg as cfglib
from . import oracle
from .cfg import Cfg
from .nfa import Nfa
from .structure import WhStructure, dumps_structure
from .words import SEP1, SEP2, reverse


def null3() -> WhStructure:
    """Three letters, each its own representative, every product
    represented by the first letter: the three-element null semigroup."""
    alphabet = ("a", "b", "c")
    words = [(x,) for x in alphabet]
    entries = [u + (SEP1,) + v + (SEP2, "a") for u in words for v in words]
    table = Cfg.from_words(alphabet + (SEP1, SEP2), entries)
    return WhStructure(alphabet, Nfa.from_words(words, alphabet), table)


def free2() -> WhStructure:
    """All nonempty words over two letters, with concatenation as the table:
    the free semigroup of rank two."""
    alphabet = ("a", "b")
    reps = Nfa.universal_nonempty(alphabet)
    prods = []
    for x in alphabet:
        prods.append(("O", (x, "O", x)))
        prods.append(("O", (x, "F", x)))
        prods.append(("P", (x, "P", x)))
        prods.append(("P", (x, SEP2, x)))
    prods.append(("F", (SEP1, "P")))
    table = Cfg(["O", "F", "P"], alphabet + (SEP1, SEP2), "O", prods)
    return WhStructure(alphabet, reps, table)


def free2_with_redundant_letter() -> WhStructure:
    """The rank-two free structure plus a third letter assigned to the
    representative ab; normalization folds the letter into the languages and
    the freeness test eliminates it again."""
    base = free2()
    alphabet = ("a", "b", "c")
    return WhStructure(alphabet, base.reps, base.table,
                       {"a": ("a",), "b": ("b",), "c": ("a", "b")})


def rees() -> WhStructure:
    """A finite monoid with a zero: identity adjoined to a zero Rees matrix
    semigroup over the trivial group.

    The two three-letter representatives name the two elements that have no
    letter of their own, and the letter e is assigned the representative deb
    of the element it shares with that word.
    """
    t = oracle.rees_monoid_table()
    elt = {"a": "p11", "b": "p12", "c": "p21", "d": "p23", "e": "p22",
           "i": "one", "z": "zero"}
    alphabet = tuple(elt)
    rep_words = [("a",), ("b",), ("c",), ("d",), ("b", "e", "d"),
                 ("d", "e", "b"), ("i",), ("z",)]

    def value(w):
        return t.eval_word([elt[a] for a in w])

    rep_of = {value(w): w for w in rep_words}
    assert set(rep_of) == set(t.elements)
    entries = set()
    for u in rep_words:
        for v in rep_words:
            w = rep_of[t.product(value(u), value(v))]
            entries.add(u + (SEP1,) + v + (SEP2,) + reverse(w))
    table = Cfg.from_words(alphabet + (SEP1, SEP2), entries)
    assignment = {x: (x,) for x in alphabet}
    assignment["e"] = ("d", "e", "b")
    return WhStructure(alphabet, Nfa.from_words(rep_words, alphabet), table,
                       assignment)


def bicyclic() -> WhStructure:
    """The bicyclic monoid: b and a with a.b the identity and b.a not.

    Normal forms are the nonempty words b^i a^j, plus ab as the
    representative of the identity.  Multiplying b^i a^j by b^k a^l cancels
    min(j, k) inner letters, which makes every table entry a fully nested
    bracket pattern once the third slot is reversed; the table grammar below
    generates the two cancellation cases plus the identity entries, and a
    final intersection with the slot shape discards degenerate empty slots.
    """
    alphabet = ("a", "b")
    seps = alphabet + (SEP1, SEP2)
    reps = Nfa(
        ["s0", "s1", "s2", "t1", "t2"],
        alphabet,
        [("s0", "b", "s1"), ("s1", "b", "s1"), ("s1", "a", "s2"),
         ("s0", "a", "s2"), ("s2", "a", "s2"),
         ("s0", "a", "t1"), ("t1", "b", "t2")],
        ["s0"],
        ["s1", "s2", "t2"],
    )
    # cancellation cases over b^i a^j #1 b^k a^l #2 a^n b^m, slots may be
    # empty here; j <= k gives b^i a^j #1 b^j b^s a^l #2 a^l b^s b^i and
    # j >= k gives b^i a^t a^k #1 b^k a^l #2 a^l a^t b^i
    case1 = Cfg(
        ["R", "K", "S", "T"], seps, "R",
        [("R", ("b", "R", "b")), ("R", ("K", "S")),
         ("K", ("a", "K", "b")), ("K", (SEP1,)),
         ("S", ("b", "S", "b")), ("S", ("T",)),
         ("T", ("a", "T", "a")), ("T", (SEP2,))])
    case2 = Cfg(
        ["R", "W", "P", "Q"], seps, "R",
        [("R", ("b", "R", "b")), ("R", ("W",)),
         ("W", ("a", "W", "a")), ("W", ("P", "Q")),
         ("P", ("a", "P", "b")), ("P", (SEP1,)),
         ("Q", ("a", "Q", "a")), ("Q", (SEP2,))])
    # identity entries: a^j b^j and ab produce the identity, and the
    # identity is neutral on either side
    ident = Cfg(
        ["F", "J", "VC", "VD", "U", "U0"], seps, "F",
        [("F", ("J", SEP2, "b", "a")),
         ("J", ("a", "J", "b")), ("J", ("a", SEP1, "b")),
         ("F", ("a", "b", SEP1, "VC")),
         ("VC", ("b", "VD", "b")), ("VC", ("a", "VD", "a")),
         ("VC", ("a", "b", SEP2, "b", "a")),
         ("VD", ("b", "VD", "b")), ("VD", ("a", "VD", "a")), ("VD", (SEP2,)),
         ("F", ("U",)),
         ("U", ("b", "U0", "b")), ("U", ("a", "U0", "a")),
         ("U0", ("b", "U0", "b")), ("U0", ("a", "U0", "a")),
         ("U0", (SEP1, "a", "b", SEP2))])
    raw = cfglib.union_cfgs([case1, case2, ident], seps)
    shape = Nfa.joined((reps, reps, reps.reverse()), (SEP1, SEP2))
    table = cfglib.intersect_regular(raw, shape)
    return WhStructure(alphabet, reps, table)


def z2() -> WhStructure:
    return oracle.structure_from_table(oracle.z2_table())


def sl2() -> WhStructure:
    return oracle.structure_from_table(oracle.sl2_table())


def rb22() -> WhStructure:
    return oracle.structure_from_table(oracle.rb22_table())


NAMED = {
    "null3": null3,
    "free2": free2,
    "free2c": free2_with_redundant_letter,
    "rees": rees,
    "bicyclic": bicyclic,
    "z2": z2,
    "sl2": sl2,
    "rb22": rb22,
}


def write_all(directory) -> list:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in NAMED.items():
        path = directory / f"{name}.whs"
        path.write_text(dumps_structure(build()), encoding="utf-8")
        written.append(path)
    for name, build in oracle.NAMED_TABLES.items():
        path = directory / f"{name}_table.json"
        path.write_text(oracle.dumps_table(build()), encoding="utf-8")
        written.append(path)
    return written


if __name__ == "__main__":
    for p in write_all(sys.argv[1] if len(sys.argv) > 1 else "fixtures"):
        print(p)
