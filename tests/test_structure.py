import io
import json

import pytest

from conftest import all_words
from whsg import cfg as cfglib
from whsg.arithmetic import word_eq
from whsg.cfg import Cfg
from whsg.errors import InvariantError, OperandError, ParseError, ReservedSymbolError
from whsg.nfa import Nfa
from whsg.structure import (WhStructure, dumps_structure, load_structure,
                            merge_letters, normalize_generators,
                            rename_symbols, validate_necessary)
from whsg.words import SEP1, SEP2


def test_load_null3_file(tmp_path, null3):
    path = tmp_path / "null3.whs"
    path.write_text(dumps_structure(null3))
    s = load_structure(path)
    assert len(s.alphabet) == 3
    assert len(s.reps.enumerate_words(3)) == 3


def test_reserved_symbol_rejected(null3):
    with pytest.raises(ReservedSymbolError):
        WhStructure(("a", SEP1), Nfa.from_words([("a",)], ("a", SEP1)),
                    Cfg.from_words(("a", SEP1, SEP2), []))


def test_assignment_outside_reps_rejected(free2):
    with pytest.raises(InvariantError):
        WhStructure(("a", "b", "c"), free2.reps, free2.table,
                    {"c": ("c", "c")})


def test_table_outside_shape_rejected():
    alphabet = ("a",)
    reps = Nfa.from_words([("a",)], alphabet)
    bad = Cfg.from_words(alphabet + (SEP1, SEP2),
                         [("a", SEP1, "a", "a", SEP2, "a")])
    with pytest.raises(InvariantError):
        WhStructure(alphabet, reps, bad)


def test_load_checks_table_membership(free2, tmp_path):
    path = tmp_path / "free2.whs"
    path.write_text(dumps_structure(free2))
    s = load_structure(path)
    assert s.table_accepts(("a", SEP1, "b", SEP2, "b", "a"))


def test_malformed_file_raises_parse_error():
    with pytest.raises(ParseError):
        load_structure(io.StringIO("{\"alphabet\": [\"a\"]}"))
    with pytest.raises(ParseError):
        load_structure("{not json")


def test_round_trip_is_identity(null3, rees, z2, sl2, rb22):
    for s in (null3, rees, z2, sl2, rb22):
        text = dumps_structure(s)
        s2 = load_structure(io.StringIO(text))
        assert s2 == s
        assert dumps_structure(s2) == text


def test_save_is_deterministic(free2):
    assert dumps_structure(free2) == dumps_structure(free2)
    data = json.loads(dumps_structure(free2))
    assert list(data) == ["alphabet", "reps", "table", "assignment"]


# -- merge_letters ------------------------------------------------------------


def _null2_with_duplicate():
    # three letters over a two-element null semigroup: b and c both name x
    alphabet = ("a", "b", "c")
    words = [(x,) for x in alphabet]
    entries = [u + (SEP1,) + v + (SEP2, "a") for u in words for v in words]
    return WhStructure(alphabet, Nfa.from_words(words, alphabet),
                       Cfg.from_words(alphabet + (SEP1, SEP2), entries))


def test_merge_duplicate_letters():
    s = _null2_with_duplicate()
    merged = merge_letters(s, "b", "c")
    assert merged.alphabet == ("a", "b")
    assert sorted(merged.reps.enumerate_words(2)) == [("a",), ("b",)]
    assert merged.table_accepts(("b", SEP1, "b", SEP2, "a"))


def test_merge_requires_distinct_known_letters(null3):
    with pytest.raises(OperandError):
        merge_letters(null3, "a", "a")
    with pytest.raises(OperandError):
        merge_letters(null3, "a", "z")


def test_merge_pre_check_samples_table_twins(null3):
    s = _null2_with_duplicate()
    merged = merge_letters(s, "b", "c", verify_depth=6)
    assert merged.alphabet == ("a", "b")
    # merging the zero letter with a non-zero letter is refused: products
    # ending in the zero have no twins ending in b
    with pytest.raises(OperandError):
        merge_letters(null3, "a", "b", verify_depth=6)


def test_merge_preserves_untouched_verdicts():
    s = _null2_with_duplicate()
    merged = merge_letters(s, "b", "c")
    survivors = ("a", "b")
    for w in all_words(survivors, 4):
        for w2 in all_words(survivors, 2):
            assert word_eq(s, w, w2) == word_eq(merged, w, w2)


# -- normalize_generators -----------------------------------------------------


def test_normalize_is_idempotent_on_normalized_input(free2):
    ns = normalize_generators(free2)
    assert ns is free2
    again = normalize_generators(ns)
    assert again is ns


def test_normalize_identity_assignment_preserves_table():
    # a variant of the finite monoid fixture whose letters are all
    # representatives already: normalization must not change the languages
    from whsg.fixtures import rees

    base = rees()
    reps = base.reps.union(Nfa.from_words([("e",)], base.alphabet))
    s = WhStructure(base.alphabet, reps, base.table)
    ns = normalize_generators(s)
    assert set(cfglib.enumerate_words(ns.table, 10)) == set(
        cfglib.enumerate_words(base.table, 10))


def test_normalize_rewrites_assigned_slots():
    # two letters, a assigned to the representative bb over a unary semigroup
    # of words in b (lengths add): the rewritten table must contain a-slot
    # entries exactly where the original has bb-slot entries
    alphabet = ("a", "b")
    reps = Nfa.universal_nonempty(("b",)).map_symbols(lambda s: s)
    entries = []
    for i in range(1, 4):
        for j in range(1, 4):
            entries.append((("b",) * i) + (SEP1,) + (("b",) * j)
                           + (SEP2,) + (("b",) * (i + j)))
    table = Cfg.from_words(alphabet + (SEP1, SEP2), entries)
    s = WhStructure(alphabet, reps, table, {"a": ("b", "b"), "b": ("b",)})
    ns = normalize_generators(s)
    got = set(cfglib.enumerate_words(ns.table, 8))
    for w in got:
        assert ns.table_accepts(w)
    base = set(cfglib.enumerate_words(table, 8))
    for w in base:
        u, rest = w[:w.index(SEP1)], w[w.index(SEP1):]
        if u == ("b", "b"):
            assert (("a",) + rest) in got
    assert (("a",) + (SEP1, "b", SEP2) + ("b", "b", "b")) in got
    assert ns.in_reps(("a",))


def test_normalize_preserves_word_eq(rees):
    ns = normalize_generators(rees)
    assert ns.is_normalized()
    for w in all_words(rees.alphabet, 2):
        for w2 in all_words(rees.alphabet, 2):
            assert word_eq(rees, w, w2) == word_eq(ns, w, w2)


def test_rename_symbols_bijection(free2):
    s = rename_symbols(free2, {"a": "b", "b": "a"})
    assert s.alphabet == ("b", "a")
    assert s.table_accepts(("b", SEP1, "a", SEP2, "a", "b"))
    with pytest.raises(OperandError):
        rename_symbols(free2, {"a": "x", "b": "x"})


# -- validate_necessary ---------------------------------------------------------


def test_validate_rees_fixture(rees):
    assert validate_necessary(rees, depth=4)


def test_validate_z2_deeper(z2):
    assert validate_necessary(z2, depth=6)


def test_validate_detects_missing_product(free2):
    pruned = [(h, b) for h, b in free2.table.productions
              if (h, b) != ("O", ("a", "F", "a"))]
    table = Cfg(free2.table.nonterminals, free2.table.terminals, "O", pruned)
    s = WhStructure(free2.alphabet, free2.reps, table)
    v = validate_necessary(s, depth=2)
    assert not v
    assert "missing product witness" in v.reason


def test_validate_lets_internal_errors_propagate(z2, monkeypatch):
    from whsg import arithmetic

    def broken(*args):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(arithmetic, "multiply", broken)
    with pytest.raises(RuntimeError):
        validate_necessary(z2, depth=2)


def test_validate_rejects_silly_depth(z2):
    with pytest.raises(OperandError):
        validate_necessary(z2, depth=0)


def test_validate_detects_equality_inconsistency():
    # one product entry names two representatives that are distinct letters;
    # no injective reading can satisfy that
    alphabet = ("a", "b")
    words = [("a",), ("b",)]
    entries = []
    for u in words:
        for v in words:
            entries.append(u + (SEP1,) + v + (SEP2, "a"))
    entries.append(("a", SEP1, "a", SEP2, "b"))
    s = WhStructure(alphabet, Nfa.from_words(words, alphabet),
                    Cfg.from_words(alphabet + (SEP1, SEP2), entries))
    v = validate_necessary(s, depth=3)
    assert not v
    assert "test unequal" in v.reason


def test_validate_detects_associativity_failure():
    # a*a=b, a*b=a, b*a=b, b*b=a is not associative: (aa)a = b, a(aa) = a
    alphabet = ("a", "b")
    words = [("a",), ("b",)]
    products = {("a", "a"): "b", ("a", "b"): "a",
                ("b", "a"): "b", ("b", "b"): "a"}
    entries = [(x, SEP1, y, SEP2, z) for (x, y), z in products.items()]
    s = WhStructure(alphabet, Nfa.from_words(words, alphabet),
                    Cfg.from_words(alphabet + (SEP1, SEP2), entries))
    v = validate_necessary(s, depth=3)
    assert not v
    assert "associativity" in v.reason
