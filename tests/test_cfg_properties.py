"""Property tests of enumeration and shortest words against CYK membership
on random grammars with empty and unit bodies."""

import pytest

from conftest import all_words
from whsg import cfg as cfglib
from whsg.cfg import Cfg
from whsg.words import shortlex_key, symbol_ranks

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

NONTERMINALS = ("N0", "N1", "N2", "N3", "N4")
WORDS = all_words(("a", "b"), 5, minlen=0)


@st.composite
def grammars(draw):
    nts = list(NONTERMINALS[:draw(st.integers(1, len(NONTERMINALS)))])
    body = st.lists(st.sampled_from(nts + ["a", "b"]), max_size=3).map(tuple)
    prods = draw(st.lists(st.tuples(st.sampled_from(nts), body), max_size=10))
    return Cfg(nts, ("a", "b"), "N0", prods)


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(grammars())
def test_enumeration_and_shortest_word_match_cyk(g):
    members = sorted((w for w in WORDS if cfglib.membership(g, w)),
                     key=shortlex_key(symbol_ranks(g.terminals)))
    assert cfglib.enumerate_words(g, 5) == members
    shortest = cfglib.shortest_word(g)
    if members:
        assert shortest == members[0]
    else:
        assert shortest is None or len(shortest) > 5
