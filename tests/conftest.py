import itertools

import pytest

from whsg import fixtures
from whsg.cfg import Cfg
from whsg.words import SEP1, SEP2, merged


def all_words(alphabet, maxlen, minlen=1):
    """Every word over the alphabet with minlen <= length <= maxlen."""
    out = []
    for n in range(minlen, maxlen + 1):
        out.extend(itertools.product(alphabet, repeat=n))
    return out


def declared(g, terminals):
    """g with its terminals declared in the given order, its word order."""
    return Cfg(g.nonterminals, terminals, g.start, g.productions)


def symbol_ranks(symbols):
    """Rank of each symbol: the given ones in order, then #1 and #2."""
    return {x: i for i, x in enumerate(merged(symbols, (SEP1, SEP2)))}


def finite_language(nfa):
    """Every word of an automaton whose language is finite, in shortlex
    order: no accepted word of such an automaton is longer than its number
    of states."""
    return nfa.enumerate_words(len(nfa.states))


def dense_chart(chart, w):
    """A chart of `cfg._cyk_masks` over w with every node's row and live
    list made: a node the chart left dead (None) gets a row of zeros and
    [].  A row the chart made must have a bit, so its live list is never
    empty."""
    masks, live, allow = chart
    assert all(got for got in live if got is not None)
    return ([[0] * (len(w) + 1) if row is None else row for row in masks],
            [[] if got is None else got for got in live], allow)


@pytest.fixture(scope="session")
def null3():
    return fixtures.null3()


@pytest.fixture(scope="session")
def free2():
    return fixtures.free2()


@pytest.fixture(scope="session")
def free2c():
    return fixtures.free2_with_redundant_letter()


@pytest.fixture(scope="session")
def rees():
    return fixtures.rees()


@pytest.fixture(scope="session")
def z2():
    return fixtures.z2()


@pytest.fixture(scope="session")
def sl2():
    return fixtures.sl2()


@pytest.fixture(scope="session")
def rb22():
    return fixtures.rb22()
