import itertools
import re

import pytest

from conftest import all_words, finite_language
from whsg.arithmetic import check_multiply, multiply, represent, word_eq
from whsg.errors import EmptyProductError, OperandError
from whsg.oracle import null3_table, structure_from_table, z2_table
from whsg.structure import normalize_generators


def test_check_multiply_free2(free2):
    assert check_multiply(free2, ("a",), ("b",), ("a", "b"))
    assert not check_multiply(free2, ("a",), ("b",), ("b", "a"))


def test_check_multiply_null3(null3):
    assert check_multiply(null3, ("b",), ("b",), ("a",))
    assert not check_multiply(null3, ("b",), ("b",), ("b",))


def test_check_multiply_rejects_non_representatives(free2):
    with pytest.raises(OperandError):
        check_multiply(free2, (), ("b",), ("b",))


def test_public_products_reject_non_representatives(z2, rees):
    # represent multiplies without checking its operands; the public
    # functions still check every operand, whatever the caches hold
    for s in (z2, rees):
        good = finite_language(s.reps)[0]
        bad = next(w for w in all_words(s.alphabet, 3) if not s.in_reps(w))
        represent(s, good + bad)
        for p, q in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(OperandError, match="not a representative"):
                multiply(s, p, q)
        for p, q, r in ((bad, good, good), (good, bad, good), (good, good, bad)):
            with pytest.raises(OperandError, match="not a representative"):
                check_multiply(s, p, q, r)


def test_multiply_free2_concatenates(free2):
    assert multiply(free2, ("a", "b"), ("a",)) == ("a", "b", "a")


def test_multiply_null3_hits_the_zero_letter(null3):
    assert multiply(null3, ("c",), ("b",)) == ("a",)


def test_multiply_z2(z2):
    assert multiply(z2, ("g",), ("g",)) == ("e",)


def test_multiply_empty_product_language_is_an_error():
    from whsg.cfg import Cfg
    from whsg.nfa import Nfa
    from whsg.structure import WhStructure

    s = WhStructure(("a",), Nfa.from_words([("a",)], ("a",)),
                    Cfg.from_words(("a", "#1", "#2"), []))
    with pytest.raises(EmptyProductError):
        multiply(s, ("a",), ("a",))


def test_represent_free2_is_identity(free2):
    assert represent(free2, ("a", "b", "a", "b")) == ("a", "b", "a", "b")


def test_represent_null3_long_products(null3):
    assert represent(null3, ("b", "c", "b")) == ("a",)


def test_represent_z2_parity(z2):
    assert represent(z2, ("g", "g", "g")) == ("g",)
    assert represent(z2, ("g",) * 4) == ("e",)


def test_represent_rejects_bad_letters(free2):
    with pytest.raises(OperandError):
        represent(free2, ())
    with pytest.raises(OperandError):
        represent(free2, ("z",))


def test_word_eq_examples(null3, free2):
    assert word_eq(null3, ("b", "c"), ("c", "b"))
    assert not word_eq(null3, ("b",), ("c",))
    assert word_eq(free2, ("a", "b"), ("a", "b"))


def test_multiply_contract_on_sampled_pairs(free2, rees):
    for s, pool in ((free2, all_words(("a", "b"), 5)),
                    (rees, sorted(finite_language(rees.reps)))):
        ns = normalize_generators(s)
        for p in pool[:12]:
            for q in pool[:12]:
                r = multiply(ns, p, q)
                assert check_multiply(ns, p, q, r)


def test_word_eq_is_reflexive_and_symmetric(null3, z2):
    for s in (null3, z2):
        words = all_words(s.alphabet, 3)
        for w in words:
            assert word_eq(s, w, w)
        for w, w2 in itertools.combinations(words[:12], 2):
            assert word_eq(s, w, w2) == word_eq(s, w2, w)


def test_word_eq_is_transitive_on_short_words(null3, sl2):
    for s in (null3, sl2):
        words = all_words(s.alphabet, 3)
        for x, y, z in itertools.product(words[:10], repeat=3):
            if word_eq(s, x, y) and word_eq(s, y, z):
                assert word_eq(s, x, z)


def test_word_eq_matches_table_evaluation():
    for build in (z2_table, null3_table):
        t = build()
        s = structure_from_table(t)
        letters = s.alphabet
        words = all_words(letters, 5)
        for w in words[:40]:
            for w2 in words[:40]:
                expected = t.eval_word(w) == t.eval_word(w2)
                assert word_eq(s, w, w2) == expected, (w, w2)


def test_represent_output_is_equal_to_input(rees, free2):
    for s in (rees, free2):
        ns = normalize_generators(s)
        for w in all_words(s.alphabet, 3)[:30]:
            u = represent(ns, w)
            assert ns.in_reps(u)
            assert word_eq(ns, w, u)


def _free_cut_at_four(flat=False):
    """The free semigroup on {a, b} with its table cut at total length 4:
    every word of length 1 to 4 a representative, and a generic table
    (S -> T, T -> u #1 v #2 (uv)^rev for every pair with |uv| <= 4), or with
    flat=True the flat one (S -> u #1 v #2 (uv)^rev), so products of longer
    operands are empty."""
    from whsg.cfg import Cfg
    from whsg.nfa import Nfa
    from whsg.structure import WhStructure
    from whsg.words import SEP1, SEP2

    reps = all_words(("a", "b"), 4)
    bodies = [u + (SEP1,) + v + (SEP2,) + (u + v)[::-1]
              for u in reps for v in reps if len(u) + len(v) <= 4]
    terminals = ("a", "b", SEP1, SEP2)
    if flat:
        table = Cfg.from_words(terminals, bodies)
    else:
        table = Cfg(("S", "T"), terminals, "S",
                    [("S", ("T",))] + [("T", body) for body in bodies])
    return WhStructure(("a", "b"), Nfa.from_words(reps, ("a", "b")), table)


def _named_pair(err):
    """The operands an EmptyProductError names."""
    p, q = re.fullmatch(r"product of '(.*)' and '(.*)' has no representative",
                        str(err)).groups()
    return tuple(p.split()), tuple(q.split())


def _check_the_error_contract(flat):
    # the first two halving levels of an 8-letter word have several
    # uncached products each, which share one chart (a flat table's are
    # taken one prefix at a time); the third multiplies two 4-letter words,
    # whose product the table lacks
    from whsg.cfg import least_completions
    from whsg.words import SEP1, SEP2

    w = tuple("abbaabab")
    s = _free_cut_at_four(flat)
    assert (s.table.flat_words is not None) == flat
    with pytest.raises(EmptyProductError) as err:
        represent(s, w)
    assert str(err.value) == "product of 'a b b a' and 'a b a b' has no representative"
    # the cache holds the products of the first two levels and nothing else
    assert set(s._mul_cache) == {
        (w[i:i + 1], w[i + 1:i + 2]) for i in range(0, 8, 2)} | {
        (w[:2], w[2:4]), (w[4:6], w[6:])}

    s = _free_cut_at_four(flat)
    with pytest.raises(EmptyProductError) as err:
        word_eq(s, w, tuple("babbbaab"))
    p, q = _named_pair(err.value)
    assert (p, q) == (tuple("babb"), tuple("baab"))
    assert least_completions(s.table, [p + (SEP1,) + q + (SEP2,)])[0] == []
    for p, q in s._mul_cache:
        assert len(p) + len(q) <= 4
    assert word_eq(s, w[:4], tuple("abba"))


def test_batched_halving_keeps_the_error_contract():
    _check_the_error_contract(flat=False)


def test_batched_halving_keeps_the_error_contract_on_a_flat_table():
    # a flat table takes the level-by-level loop too, once its first level
    # has two or more products
    _check_the_error_contract(flat=True)


def test_a_second_word_eq_pass_halves_no_word_again(monkeypatch):
    # the joint loop keeps each word's representative: a second pass over
    # the same words asks the table nothing and runs no halving level, each
    # of which prefetches once; the one-word loop reads the multiply cache
    from whsg import arithmetic
    from whsg import cfg as cfglib
    from whsg.oracle import rees_monoid_table

    t = rees_monoid_table()
    s = structure_from_table(t)
    words = all_words(s.alphabet, 3)[:60]
    first = [word_eq(s, w, w2) for w in words for w2 in words]
    ns = normalize_generators(s)
    assert ns._rep_cache
    products = dict(ns._mul_cache)
    calls = {"least_completions": 0, "_prefetch": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(cfglib, "least_completions")
    counting(arithmetic, "_prefetch")
    second = [word_eq(s, w, w2) for w in words for w2 in words]
    assert second == first
    assert first == [t.eval_word(w) == t.eval_word(w2) for w in words for w2 in words]
    assert calls == {"least_completions": 0, "_prefetch": 0}
    assert ns._mul_cache == products


def test_the_joint_loop_checks_the_letters_of_uncached_words(free2):
    # the joint loop looks its words up before it checks any letter: a
    # cached a b lets the lookup pass, and the one uncached word, which holds
    # the foreign x, still raises before anything is halved or cached
    ns = normalize_generators(free2)
    assert word_eq(free2, ("a", "b", "a", "b"), ("a", "b", "a", "b"))
    assert ("a", "b") in ns._rep_cache
    with pytest.raises(OperandError, match="'x'"):
        word_eq(free2, ("a", "b", "a", "b"), ("a", "b", "a", "x"))
    assert not any("x" in w for w in ns._rep_cache)
