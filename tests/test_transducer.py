import random

import pytest

from conftest import all_words
from equivalence_reference import equivalent
from test_cfg import _random_cfg, _random_nfa
from whsg import cfg as cfglib
from whsg.cfg import Cfg
from whsg.nfa import Nfa
from whsg.transducer import Transducer
from whsg.words import SEP1, SEP2, reverse


def test_identity_substitution_preserves_languages(free2):
    out = free2.reps.substitute({"a": ("a",), "b": ("b",)})
    ok, _ = equivalent(out, free2.reps)
    assert ok


def test_letter_substitution_on_word_language():
    target = Nfa.from_words([("a", "b")], ("a", "b", "c"))
    out = target.substitute({"a": ("b", "c"), "b": ("b",), "c": ("c",)})
    assert sorted(out.enumerate_words(5)) == [("b", "c", "b")]


def test_substitution_alphabet_keeps_the_automaton_order():
    target = Nfa.universal(("a", "b", "c"))
    out = target.substitute({"a": ("c", "b"), "b": ("b",), "c": ("c",)})
    assert out.alphabet == ("b", "c")


def test_substitution_and_letter_map_image_declare_one_alphabet():
    # no image uses b and x is new: both images declare the used letters
    # in the automaton's order, then x
    a = Nfa.universal(("a", "b", "c"))
    images = {"a": ("c", "x"), "b": ("a",), "c": ("c",)}
    image = Transducer.letter_map(images).apply_to_cfg(Cfg.from_nfa(a))
    assert a.substitute(images).alphabet == image.terminals == ("a", "c", "x")


def test_substitution_drops_arcs_of_symbols_without_image():
    # a* b a*: without an image for b, only the empty-prefix path survives
    target = Nfa(["p", "q"], ("a", "b"),
                 [("p", "a", "p"), ("p", "b", "q"), ("q", "a", "q")],
                 ["p"], ["p", "q"])
    out = target.substitute({"a": ("a", "a")})
    assert out.alphabet == ("a",)
    assert out.enumerate_words(4) == [(), ("a", "a"), ("a", "a", "a", "a")]


def test_separator_projection_of_free2_table(free2):
    # dropping #1 from the table of the rank-two free structure leaves
    # exactly the words w#2w-reversed (w of length >= 2: both factors of a
    # table entry are nonempty)
    t = Transducer.letter_map({"a": ("a",), "b": ("b",),
                               SEP1: (), SEP2: (SEP2,)})
    out = t.apply_to_cfg(free2.table)
    expected = set()
    for n in range(2, 5):
        for w in all_words(("a", "b"), n, minlen=n):
            expected.add(w + (SEP2,) + reverse(w))
    got = set(cfglib.enumerate_words(out, 9))
    assert got == {w for w in expected if len(w) <= 9}


def test_every_move_reads_a_symbol():
    # an epsilon-input move (input label None) is rejected
    with pytest.raises(ValueError, match="input label"):
        Transducer(["s", "t"],
                   [("s", "a", ("a",), "s"), ("s", None, ("x",), "t")],
                   ["s"], ["t"])


def _random_letter_transducer(rng):
    """Letterwise machine with nonempty outputs, so length-bounded
    enumeration of inputs is a complete oracle for bounded outputs."""
    n_states = rng.randint(1, 3)
    states = [f"t{i}" for i in range(n_states)]
    trans = []
    for _ in range(rng.randint(2, 6)):
        out = tuple(rng.choice("ab") for _ in range(rng.randint(1, 2)))
        trans.append((rng.choice(states), rng.choice("ab"), out,
                      rng.choice(states)))
    return Transducer(states, trans, [states[0]],
                      rng.sample(states, rng.randint(1, n_states)))


def _relation_image(t, inputs, maxlen):
    image = set()
    for u in inputs:
        for v in t.apply_word(u):
            if len(v) <= maxlen:
                image.add(v)
    return image


def test_substitution_matches_the_brute_force_image():
    rng = random.Random(20240812)
    words = [()] + all_words(("a", "b"), 6)
    for _ in range(25):
        target = _random_nfa(rng)
        images = {x: tuple(rng.choice("ab") for _ in range(rng.randint(1, 2)))
                  for x in "ab"}
        got = target.substitute(images)
        # images are nonempty, so no input longer than 6 has an image this short
        expected = {sum((images[x] for x in u), ())
                    for u in words if target.accepts(u)}
        for w in words:
            assert got.accepts(w) == (w in expected)


def test_apply_to_cfg_matches_relation_semantics():
    rng = random.Random(77)
    for _ in range(25):
        t = _random_letter_transducer(rng)
        words = rng.sample(all_words(("a", "b"), 4), rng.randint(1, 6))
        g = Cfg.from_words(("a", "b"), words)
        # run the generic grammar construction, not the finite shortcut
        g_struct = Cfg(["S", "W"], ("a", "b"), "S",
                       [("S", ("W",))] + [("W", w) for w in words])
        assert g_struct.flat_words is None
        got = t.apply_to_cfg(g_struct)
        expected = _relation_image(t, words, 6)
        assert set(cfglib.enumerate_words(got, 6)) == expected
        flat = t.apply_to_cfg(g)
        assert set(cfglib.enumerate_words(flat, 6)) == expected


def test_several_initial_states_act_as_the_union_of_their_restrictions():
    # outputs of length 0-2, so the image of a finite language is finite and
    # enumerated whole; on an infinite language the images are compared to
    # length 5, on the flat path, the generic path and with a random grammar
    rng = random.Random(29)
    inputs = [()] + all_words(("a", "b"), 4)
    wider = 0
    for _ in range(40):
        states = [f"t{i}" for i in range(rng.randint(2, 4))]
        trans = [(rng.choice(states), rng.choice("ab"),
                  tuple(rng.choice("abc") for _ in range(rng.randint(0, 2))),
                  rng.choice(states)) for _ in range(rng.randint(3, 8))]
        initial = rng.sample(states, rng.randint(2, min(3, len(states))))
        accepting = rng.sample(states, rng.randint(1, len(states)))
        t = Transducer(states, trans, initial, accepting)
        assert t.initial == frozenset(initial)
        parts = [Transducer(states, trans, [p], accepting) for p in initial]
        for u in inputs:
            assert t.apply_word(u) == set().union(*(r.apply_word(u) for r in parts))
        words = rng.sample(all_words(("a", "b"), 4), rng.randint(1, 6))
        flat = Cfg.from_words(("a", "b"), words)
        generic = Cfg(["S", "W"], ("a", "b"), "S",
                      [("S", ("W",))] + [("W", w) for w in words])
        assert generic.flat_words is None
        for g, maxlen in ((flat, 8), (generic, 8), (_random_cfg(rng), 5)):
            images = [set(cfglib.enumerate_words(r.apply_to_cfg(g), maxlen))
                      for r in parts]
            got = set(cfglib.enumerate_words(t.apply_to_cfg(g), maxlen))
            assert got == set().union(*images)
            wider += all(image < got for image in images)
    # the union is larger than each restriction's image in some cases
    assert wider >= 10, wider
