"""Fuzzing of the structure file loader: whatever a mutated fixture file
holds, loading either succeeds or raises one of the package's errors; and
the slot view of slot queries against the eager slot automaton."""

import copy
import io
import itertools
import json
import random
from pathlib import Path

import pytest

from conftest import all_words
from test_differential import _generic_twin
from whsg import cfg as cfglib
from whsg import fixtures
from whsg.errors import WhsgError
from whsg.nfa import Nfa
from whsg.structure import _Slots, load_structure
from whsg.words import SEP1, SEP2, reverse

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SOURCES = [json.loads((FIXTURES / f"{name}.whs").read_text(encoding="utf-8"))
           for name in ("null3", "z2", "free2", "free2c")]
# symbols the fixtures use, so that mutations also reach the checks behind
# the parser (undeclared states, overlapping symbols, slot shapes)
NAMES = ["a", "b", "c", "e", "g", "#1", "#2", "O", "F", "P", "S", "q0", "q1", ""]
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(NAMES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(NAMES + ["states", "start"]), inner,
                      max_size=3),
    max_leaves=8)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw):
    data = copy.deepcopy(draw(st.sampled_from(SOURCES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        if not path:
            data = draw(VALUES)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(VALUES)
    return json.dumps(data)


@hypothesis.settings(max_examples=400, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(mutated())
def test_mutated_fixture_raises_only_package_errors(text):
    try:
        load_structure(io.StringIO(text))
    except WhsgError:
        pass


# -- slot queries: the view against the eager slot automaton ---------------------

STRUCTURES = {name: make() for name, make in fixtures.NAMED.items()}
TWINS = {name: _generic_twin(s) for name, s in STRUCTURES.items()}


def _automata(s):
    """Slot automata over s's alphabet: the representatives, a finite part
    of them, a finite part with two initial states, two words that are no
    palindromes, all words with and without the empty one, no word, and
    only the empty word."""
    letters = s.alphabet
    short = Nfa.from_words(s.reps.enumerate_words(2), letters)
    return [s.reps, short, short.union(Nfa.from_words([letters[-1:] * 3], letters)),
            Nfa.from_words([letters[:2], letters[:1] + letters[:2]], letters),
            Nfa.universal(letters), Nfa.universal_nonempty(letters),
            Nfa.from_words([], letters), Nfa.from_words([()], letters)]


AUTOMATA = {name: _automata(s) for name, s in STRUCTURES.items()}
# words each slot automaton accepts, up to length 2
ACCEPTED = {id(a): a.enumerate_words(2) for pool in AUTOMATA.values() for a in pool}


def _eager(s, left, middle, right):
    """The automaton of left #1 middle #2 right-reversed, built whole."""
    def slot(x, rev=False):
        if isinstance(x, Nfa):
            return x.reverse() if rev else x
        return Nfa.from_words([reverse(x) if rev else x], s.alphabet)

    return Nfa.joined((slot(left), slot(middle), slot(right, rev=True)),
                      (SEP1, SEP2))


def _slot_word(draw, letters):
    return tuple(draw(st.lists(st.sampled_from(letters), max_size=3)))


@st.composite
def slot_cases(draw):
    """A fixture, three slots, and words cut like table words around them,
    some with a separator dropped, doubled or inserted anywhere."""
    name = draw(st.sampled_from(sorted(STRUCTURES)))
    letters = STRUCTURES[name].alphabet
    slots = [draw(st.sampled_from(AUTOMATA[name]))
             if draw(st.booleans()) else _slot_word(draw, letters) for _ in range(3)]

    def segment(x):
        # a word the slot holds, often, so that some words pass
        if draw(st.booleans()):
            return _slot_word(draw, letters)
        if not isinstance(x, Nfa):
            return x
        return draw(st.sampled_from(ACCEPTED[id(x)] or [()]))

    words = []
    for _ in range(8):
        u, v, y = map(segment, slots)
        w = [*u, SEP1, *v, SEP2, *reverse(y)]
        for _ in range(draw(st.integers(0, 2))):
            edit = draw(st.sampled_from(["drop", "double", "insert"]))
            seps = [i for i, x in enumerate(w) if x in (SEP1, SEP2)]
            if edit == "insert":
                w.insert(draw(st.integers(0, len(w))), draw(st.sampled_from([SEP1, SEP2])))
            elif seps:
                i = draw(st.sampled_from(seps))
                if edit == "drop":
                    del w[i]
                else:
                    w.insert(i, w[i])
        words.append(tuple(w))
    return name, slots, words


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(slot_cases())
def test_slot_view_accepts_what_the_slot_shape_accepts(case):
    name, slots, words = case
    view, eager = _Slots(*slots), _eager(STRUCTURES[name], *slots)
    for w in words:
        assert view.accepts(w) == eager.accepts(w), w


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_slot_view_least_word_matches_the_slot_shape(name):
    # every pattern of word and automaton slots, on the flat table and on
    # its generic twin, whose product reads the view's moves
    s, twin = STRUCTURES[name], TWINS[name]
    rng = random.Random(name)
    reps = s.reps.enumerate_words(2)
    found = 0
    for pattern in itertools.product((False, True), repeat=3):
        for _ in range(8):
            slots = [rng.choice(AUTOMATA[name]) if automaton
                     else rng.choice(reps + [()]) for automaton in pattern]
            eager = _eager(s, *slots)
            want = cfglib.least_word(s.table, eager)
            assert want == cfglib.least_word(twin.table, eager)
            for t in (s, twin):
                assert cfglib.least_word(t.table, _Slots(*slots)) == want, slots
            found += want is not None
    assert found
