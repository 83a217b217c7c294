"""Symbols, words and the deterministic orderings used for witness selection.

A symbol is a nonempty string; a word is a tuple of symbols.  Two reserved
separator symbols mark the three slots of a multiplication-table entry and
may never occur in a structure's own alphabet.  Every symbol order is
declared; a language built from others takes its order by `merged` or,
as an image under a map, by `image_alphabet`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

SEP1 = "#1"
SEP2 = "#2"
RESERVED = frozenset((SEP1, SEP2))

def reverse(w: Sequence[str]) -> tuple:
    return tuple(reversed(w))


def merged(*orders: Iterable[str]) -> tuple:
    """One order from several: each symbol at its first place."""
    return tuple(dict.fromkeys(x for order in orders for x in order))


def image_alphabet(base: Iterable[str], outputs: Iterable[Sequence[str]]) -> tuple:
    """An image's alphabet: the symbols of base its output words use, in
    base's order, then the new ones in order of first use."""
    used = dict.fromkeys(x for out in outputs for x in out)
    return merged((x for x in base if x in used), used)


def spelled(w: Sequence[int], symbols: Sequence[str]) -> tuple:
    """The symbols of a word of ranks, symbols[r] the symbol of rank r."""
    return tuple(map(symbols.__getitem__, w))


def shortlex_key(ranks: Mapping):
    """Sort key for words: length first, then symbol ranks left to right."""

    def key(w):
        return (len(w), tuple(ranks[s] for s in w))

    return key
