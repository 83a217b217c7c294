"""Symbols, words and the deterministic orderings used for witness selection.

A symbol is a nonempty string; a word is a tuple of symbols.  Two reserved
separator symbols mark the three slots of a multiplication-table entry and
may never occur in a structure's own alphabet.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

SEP1 = "#1"
SEP2 = "#2"
RESERVED = frozenset((SEP1, SEP2))

def reverse(w: Sequence[str]) -> tuple:
    return tuple(reversed(w))


def symbol_ranks(symbols: Iterable[str]) -> dict:
    """Total symbol order: declared symbols in order, separators last."""
    ranks: dict = {}
    for s in symbols:
        if s not in ranks:
            ranks[s] = len(ranks)
    for s in (SEP1, SEP2):
        if s not in ranks:
            ranks[s] = len(ranks)
    return ranks


def spelled(w: Sequence[int], symbols: Sequence[str]) -> tuple:
    """The symbols of a word of ranks, symbols[r] the symbol of rank r."""
    return tuple(map(symbols.__getitem__, w))


def shortlex_key(ranks: Mapping):
    """Sort key for words: length first, then symbol ranks left to right."""

    def key(w):
        return (len(w), tuple(ranks[s] for s in w))

    return key
