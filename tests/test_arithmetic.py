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


def test_multiply_empty_product_language_is_an_error(free2):
    from whsg.cfg import Cfg
    from whsg.structure import WhStructure

    s = WhStructure(("a",), free2.reps.intersect(free2.reps),
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


def _free_cut_at_four():
    """The free semigroup on {a, b} with its table cut at total length 4:
    every word of length 1 to 4 a representative, and a generic table
    (S -> T, T -> u #1 v #2 (uv)^rev for every pair with |uv| <= 4), so
    products of longer operands are empty."""
    from whsg.cfg import Cfg
    from whsg.nfa import Nfa
    from whsg.structure import WhStructure
    from whsg.words import SEP1, SEP2

    reps = all_words(("a", "b"), 4)
    bodies = [u + (SEP1,) + v + (SEP2,) + (u + v)[::-1]
              for u in reps for v in reps if len(u) + len(v) <= 4]
    table = Cfg(("S", "T"), ("a", "b", SEP1, SEP2), "S",
                [("S", ("T",))] + [("T", body) for body in bodies])
    return WhStructure(("a", "b"), Nfa.from_words(reps, ("a", "b")), table)


def _named_pair(err):
    """The operands an EmptyProductError names."""
    p, q = re.fullmatch(r"product of '(.*)' and '(.*)' has no representative",
                        str(err)).groups()
    return tuple(p.split()), tuple(q.split())


def test_batched_halving_keeps_the_error_contract():
    # the first two halving levels of an 8-letter word have several
    # uncached products each, which share one chart; the third multiplies
    # two 4-letter words, whose product the table lacks
    from whsg.cfg import least_completions
    from whsg.words import SEP1, SEP2

    w = tuple("abbaabab")
    s = _free_cut_at_four()
    assert s.table.flat_words is None
    with pytest.raises(EmptyProductError) as err:
        represent(s, w)
    assert str(err.value) == "product of 'a b b a' and 'a b a b' has no representative"
    # the cache holds the products of the first two levels and nothing else
    assert set(s._mul_cache) == {
        (w[i:i + 1], w[i + 1:i + 2]) for i in range(0, 8, 2)} | {
        (w[:2], w[2:4]), (w[4:6], w[6:])}

    s = _free_cut_at_four()
    with pytest.raises(EmptyProductError) as err:
        word_eq(s, w, tuple("babbbaab"))
    p, q = _named_pair(err.value)
    assert least_completions(s.table, p + (SEP1,) + q + (SEP2,), s.ranks) == []
    for p, q in s._mul_cache:
        assert len(p) + len(q) <= 4
    assert word_eq(s, w[:4], tuple("abba"))
