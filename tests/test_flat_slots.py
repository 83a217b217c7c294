"""Slot queries on flat tables pick their words off the table's cut
(`cfg.flat_cut`): each table word cut once at its first #1 and the next #2,
grouped by its left slot.  `flat_slot_reference` keeps the scan that asked
every table word of the view, the judge of every answer here."""

import copy
import itertools
import random

import hypothesis
import hypothesis.strategies as st
import pytest

import flat_slot_reference as reference
from test_structural import _decide_flat_corpus
from whsg import cfg as cfglib
from whsg.cfg import Cfg
from whsg.nfa import Nfa, _Complement
from whsg.structural import _band_automaton
from whsg.structure import WhStructure, _Slots, slot_word
from whsg.words import SEP1, SEP2


@pytest.fixture(scope="module")
def corpus():
    # dropped after this module's tests: the timing tests that run later
    # pay for every object the session keeps in the collector's full scans
    return _decide_flat_corpus()


def _assert_picks_as_the_scan(g, view):
    want = reference.least_word(g, view)
    assert cfglib.least_word(g, view) == want
    assert cfglib.intersects(g, view) == (want is not None)


def _slot_pool(s, rng):
    """Each kind of slot a query may ask, as a callable drawing one: a word
    (a representative, the empty word or a letter doubled, which need not
    be one), any word (None), a cell or the escape from it of a two-cell
    band, and the representatives."""
    reps = s.reps.enumerate_words(2) + [()] + [(a, a) for a in s.alphabet]
    keys = (0, 1)
    place = {a: i % 2 for i, a in enumerate(s.alphabet)}.__getitem__
    bands = [_band_automaton(s.alphabet, keys, place, mul, targets)
             for mul in (lambda x, y: x, lambda x, y: y)
             for targets in ((0,), (1,))]
    return [lambda: rng.choice(reps), lambda: None, lambda: rng.choice(bands[::2]),
            lambda: rng.choice(bands[1::2]), lambda: s.reps]


def test_slot_queries_on_the_flat_corpus_match_the_scan(corpus):
    # the order <= 3 corpus, the named tables and the decide-flat products,
    # every kind of slot in every place, the views and their complements
    rng = random.Random(47)
    assert len(corpus) == 44
    for s in corpus:
        g = s.table
        assert g.flat_words is not None
        pool = _slot_pool(s, rng)
        narrow = g.terminals[1:]  # a complement over fewer symbols
        for kinds in itertools.product(pool, repeat=3):
            slots = [draw() for draw in kinds]
            _assert_picks_as_the_scan(g, _Slots(*slots))
            for alphabet in (g.terminals, narrow):
                _assert_picks_as_the_scan(g, _Complement(_Slots(*slots), alphabet))


def test_the_shape_check_reads_the_cut_as_the_scan(corpus):
    # tables kept whole and with words added that break the shape: outside
    # the representatives, with no #1, with #2 before #1, a second separator
    for s in corpus:
        a = s.alphabet[0]
        extra = [(), (a,), (a, SEP1, a), (a, SEP2, a, SEP1, a, SEP2, a),
                 (a, SEP1, a, SEP2, a, SEP1), (a, SEP1, a, a, a, SEP2, a)]
        for words in (s.table.flat_words, s.table.flat_words | set(extra[1:])):
            t = WhStructure(s.alphabet, s.reps, Cfg.from_words(s.table.terminals, words),
                            check=False)
            assert not t.reps.accepts(())
            outside = _Complement(_Slots(t.reps, t.reps, t.reps), t.table.terminals)
            assert t.table_shape_violation() == reference.least_word(t.table, outside)


_SYMBOLS = ("a", "b", SEP1, SEP2)
_SEGMENT = st.lists(st.sampled_from("ab"), max_size=2).map(tuple)
_AUTOMATA = [Nfa.from_words([("a",), ("a", "b")], "ab"), Nfa.universal("ab"),
             Nfa.universal_nonempty("ab"), Nfa.from_words([(), ("b", "b")], "ab")]


@st.composite
def _flat_cases(draw):
    """A flat grammar over a, b, #1 and #2 whose words are cut like table
    words, some with a separator after them, or are any words at all (none
    cut, #2 before #1, a second separator), three slots and an alphabet
    for the complement."""
    cut = st.builds(lambda u, v, y, tail: u + (SEP1,) + v + (SEP2,) + y + tuple(tail),
                    _SEGMENT, _SEGMENT, _SEGMENT,
                    st.lists(st.sampled_from(_SYMBOLS), max_size=2))
    loose = st.lists(st.sampled_from(_SYMBOLS), max_size=6).map(tuple)
    words = draw(st.lists(st.one_of(cut, loose), max_size=12))
    slot = st.one_of(st.none(), _SEGMENT, st.sampled_from(_AUTOMATA))
    slots = [draw(slot) for _ in range(3)]
    alphabet = draw(st.sampled_from([_SYMBOLS, ("a", SEP1, SEP2)]))
    return Cfg.from_words(_SYMBOLS, words), slots, alphabet


@hypothesis.settings(max_examples=400, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(_flat_cases())
def test_words_that_do_not_cut_are_judged_by_accepts(case):
    g, slots, alphabet = case
    view = _Slots(*slots)
    _assert_picks_as_the_scan(g, view)
    _assert_picks_as_the_scan(g, _Complement(view, alphabet))


class _Counted(Nfa):
    """An automaton that records every word it is asked about."""

    def __init__(self, a):
        super().__init__(a.states, a.alphabet,
                         [(p, x, q) for (p, x), qs in a.transitions.items() for q in qs],
                         a.initial, a.accepting)
        self.asked = []

    def accepts(self, w):
        self.asked.append(tuple(w))
        return super().accepts(w)


def test_an_automaton_left_slot_is_asked_once_per_left_word(corpus):
    # the scan asked it about every one of the 256 table words
    s = next(s for s in corpus if len(s.table.flat_words) == 256)
    g = s.table
    lefts = {w[:w.index(SEP1)] for w in g.flat_words}
    assert len(lefts) == 16
    left = _Counted(s.reps)
    assert slot_word(s, left, None, None) is not None
    assert sorted(left.asked) == sorted(lefts)
    # the emptiness query stops at the first word found
    left = _Counted(s.reps)
    assert cfglib.intersects(g, _Slots(left, None, None))
    assert len(set(left.asked)) == len(left.asked) <= len(lefts)

def test_the_cut_is_made_at_load_and_copied(corpus):
    s = corpus[-1]
    g = s.table
    assert g._cut is not None  # by the load-time shape check
    assert copy.deepcopy(s).table._cut == g._cut
    view = _Slots(s.reps, None, s.alphabet[:1])
    cfglib.least_word(g, view)
    assert view._starts is None  # a flat query never reads the slots' states
