import itertools

import pytest

from whsg import fixtures


def all_words(alphabet, maxlen, minlen=1):
    """Every word over the alphabet with minlen <= length <= maxlen."""
    out = []
    for n in range(minlen, maxlen + 1):
        out.extend(itertools.product(alphabet, repeat=n))
    return out


def finite_language(nfa):
    """Every word of an automaton whose language is finite, in shortlex
    order: no accepted word of such an automaton is longer than its number
    of states."""
    return nfa.enumerate_words(len(nfa.states))


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
