import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import all_words, symbol_ranks
from test_differential import _generic_twin as generic_twin, _unflatten_cfg
import whsg
from whsg import cfg as cfglib
from whsg import fixtures
from whsg.arithmetic import word_eq
from whsg.cfg import Cfg
from whsg.errors import InvariantError, OperandError, ParseError, ReservedSymbolError
from whsg.nfa import Nfa
from whsg.structure import (VALIDATE_SAMPLE_CAP, WhStructure, _Slots,
                            dumps_structure, load_structure,
                            normalize_generators, slot_middle, slot_word,
                            validate_necessary)
from whsg.words import SEP1, SEP2, shortlex_key


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


def test_two_letters_assigned_one_representative_rejected(free2, z2):
    # word_eq compares single letters by name, so c assigned b's word would
    # make b and c unequal while ab and ac are equal
    with pytest.raises(InvariantError, match="'b' and 'c'"):
        WhStructure(("a", "b", "c"), free2.reps, free2.table, {"c": ("b",)})
    with pytest.raises(InvariantError, match="'g' and 'h'"):
        WhStructure(("e", "g", "h"), z2.reps, z2.table, {"h": ("g",)})
    # b and g above keep the default assignment; two longer words collide too
    with pytest.raises(InvariantError, match="'c' and 'd'"):
        WhStructure(("a", "b", "c", "d"), free2.reps, free2.table,
                    {"c": ("a", "b"), "d": ("a", "b")})


def test_table_outside_shape_rejected():
    alphabet = ("a",)
    reps = Nfa.from_words([("a",)], alphabet)
    bad = Cfg.from_words(alphabet + (SEP1, SEP2),
                         [("a", SEP1, "a", "a", SEP2, "a")])
    with pytest.raises(InvariantError):
        WhStructure(alphabet, reps, bad)
    # the empty word, flat and behind a unit rule
    good = [("a", SEP1, "a", SEP2, "a")]
    for bad in (Cfg.from_words(alphabet + (SEP1, SEP2), good + [()]),
                Cfg(["O", "X"], alphabet + (SEP1, SEP2), "O",
                    [("O", ("X",)), ("X", ())] + [("X", w) for w in good])):
        with pytest.raises(InvariantError, match="''"):
            WhStructure(alphabet, reps, bad)
    WhStructure(alphabet, reps, Cfg.from_words(alphabet + (SEP1, SEP2), good))
    # an empty slot, flat and generic, when reps holds the empty word:
    # representatives are nonempty words all the same
    star = Nfa.universal(alphabet)
    words = [(SEP1, "a", SEP2, "a"), ("a", SEP1, "a", SEP2, "a", "a")]
    for bad in (Cfg.from_words(alphabet + (SEP1, SEP2), words),
                Cfg(["O", "X"], alphabet + (SEP1, SEP2), "O",
                    [("O", ("X",))] + [("X", w) for w in words])):
        with pytest.raises(InvariantError, match="'#1 a #2 a'"):
            WhStructure(alphabet, star, bad)
    WhStructure(alphabet, star, Cfg.from_words(alphabet + (SEP1, SEP2), words[1:]))
    # a flat table with a symbol outside the alphabet names it, too
    foreign = Cfg.from_words(alphabet + ("z", SEP1, SEP2),
                             good + [("z", SEP1, "a", SEP2, "a")])
    with pytest.raises(InvariantError, match="'z'"):
        WhStructure(alphabet, reps, foreign)


def test_table_symbol_outside_the_alphabet_is_named_behind_a_unit_rule():
    # refused at construction, before the shape check, flat or generic
    alphabet = ("a",)
    reps = Nfa.from_words([("a",)], alphabet)
    words = [("a", SEP1, "a", SEP2, "a"), ("z", SEP1, "a", SEP2, "a")]
    terminals = alphabet + ("z", SEP1, SEP2)
    for table in (Cfg.from_words(terminals, words),
                  Cfg(["O", "X"], terminals, "O",
                      [("O", ("X",))] + [("X", w) for w in words])):
        with pytest.raises(InvariantError, match="'z'"):
            WhStructure(alphabet, reps, table)


def _structure_json(table_words, wrapped):
    """A two-letter structure whose representatives are the letters; with
    wrapped=True its table words hang below a unit rule, so the table is
    not flat."""
    prods = [["X" if wrapped else "S", w.split()] for w in table_words]
    return json.dumps({
        "alphabet": ["a", "b"],
        "reps": {"states": ["0", "1"], "initial": ["0"], "accepting": ["1"],
                 "transitions": [["0", "a", "1"], ["0", "b", "1"]]},
        "table": {"nonterminals": ["S", "X"], "start": "S",
                  "productions": prods + ([["S", ["X"]]] if wrapped else [])},
    })


def test_shape_violation_is_the_shortlex_least_under_any_hash_seed():
    # four violators of one length, besides an entry in the shape: the flat
    # check must name the one the generic check of the wrapped table names,
    # whatever order string hashing gives the flat word set
    words = ["a a #1 a #2 a", "b b #1 a #2 a", "a #1 b b #2 a",
             "a #1 a #2 b b", "a #1 b #2 a"]
    with pytest.raises(InvariantError) as twin:
        load_structure(_structure_json(words, wrapped=True))
    assert "'a a #1 a #2 a'" in str(twin.value)
    script = ("import sys\n"
              "from whsg.errors import InvariantError\n"
              "from whsg.structure import load_structure\n"
              "try:\n"
              "    load_structure(sys.argv[1])\n"
              "except InvariantError as exc:\n"
              "    print(exc)\n")
    src = str(Path(whsg.__file__).resolve().parent.parent)
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script,
                              _structure_json(words, wrapped=False)],
                             env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == str(twin.value), seed


def _in_shape_reference(reps, w):
    """w is u #1 v #2 y with one separator of each kind, in that order, and
    u, v and reverse(y) nonempty words of the set reps."""
    if w.count(SEP1) != 1 or w.count(SEP2) != 1:
        return False
    i, j = w.index(SEP1), w.index(SEP2)
    if not 0 < i < j - 1 or j == len(w) - 1:
        return False
    return all(x in reps for x in (w[:i], w[i + 1:j], w[j + 1:][::-1]))


def _random_shape_table(rng):
    """A finite set of representatives over {a, b}, the empty word among
    them in some draws, and a table of words in the shape mixed with
    violators of every kind."""
    pool = all_words(("a", "b"), 3, minlen=0)
    reps = set(rng.sample(pool, rng.randint(1, 6)))
    nonempty = sorted(w for w in reps if w) or [("a",)]
    outside = [w for w in pool if w and w not in reps] or [("z",)]

    def slot(kind):
        if kind == "empty":
            return ()
        if kind == "outside":
            return rng.choice(outside)
        if kind == "foreign":
            return rng.choice(nonempty) + ("z",)
        return rng.choice(nonempty)

    table = set()
    for _ in range(rng.randint(1, 8)):
        kinds = ["in", "in", "in"]
        kind = rng.choice(["in", "in", "empty word", "missing", "doubled",
                           "order", "empty", "outside", "foreign"])
        if kind in ("empty", "outside", "foreign"):
            kinds[rng.randrange(3)] = kind
        u, v, y = (slot(k) for k in kinds)
        w = u + (SEP1,) + v + (SEP2,) + y[::-1]
        if kind == "empty word":
            w = ()
        elif kind == "missing":
            sep = rng.randrange(2)
            w = tuple(x for x in w if x != (SEP1, SEP2)[sep])
        elif kind == "doubled":
            at = rng.randrange(len(w) + 1)
            w = w[:at] + (rng.choice((SEP1, SEP2)),) + w[at:]
        elif kind == "order":
            w = u + (SEP2,) + v + (SEP1,) + y[::-1]
        table.add(w)
    return reps, sorted(table)


def test_shape_violation_matches_the_slotwise_reference():
    # the flat table and its wrapped twin run one check; both must name the
    # shortlex-least word that a slot-by-slot split rejects, and a table
    # that declares a symbol outside the alphabet is refused unchecked
    rng = random.Random(33)
    alphabet = ("a", "b")
    ranks = symbol_ranks((*alphabet, SEP1, SEP2))
    seen = set()  # (reps hold the empty word, the table has no violator)
    foreign = 0
    for _ in range(120):
        reps, words = _random_shape_table(rng)
        stray = any("z" in w for w in words)
        foreign += stray
        terminals = (*alphabet, SEP1, SEP2) + (("z",) if stray else ())
        want = None if stray else min(
            (w for w in words if not _in_shape_reference(reps, w)),
            key=shortlex_key(ranks), default=None)
        for table in (Cfg.from_words(terminals, words),
                      Cfg(["O", "X"], terminals, "O",
                          [("O", ("X",))] + [("X", w) for w in words])):
            if stray:
                with pytest.raises(InvariantError, match="'z'"):
                    WhStructure(alphabet, Nfa.from_words(reps, alphabet), table,
                                check=False)
                continue
            seen.add((() in reps, want is None))
            s = WhStructure(alphabet, Nfa.from_words(reps, alphabet), table,
                            check=False)
            assert s.table_shape_violation() == want, (words, table)
    assert {eps for eps, _ in seen} == {True, False} == {ok for _, ok in seen}
    assert 0 < foreign < 120


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


def test_construction_refuses_a_symbol_a_file_cannot_declare():
    # a file declares only the alphabet, and #1 and #2 in the table: a
    # structure that declares z could not be written, checked or not
    table = Cfg(["S"], ("a", SEP1, SEP2), "S", [("S", ("a", SEP1, "a", SEP2, "a"))])
    unreachable = (("a",), Nfa.from_words([("a",)], ("a",)),
                   Cfg(["S", "X"], ("a", SEP1, SEP2, "z"), "S",
                       [("S", ("a", SEP1, "a", SEP2, "a")), ("X", ("z",))]))
    stray_rep = (("a",), Nfa.from_words([("a",), ("z",)], ("a", "z")), table)
    for args in (unreachable, stray_rep):
        for check in (True, False):
            with pytest.raises(InvariantError, match=f"'z'.*{SEP1}, {SEP2}"):
                WhStructure(*args, check=check)


# -- exports ------------------------------------------------------------------


def test_every_exported_name_resolves_once():
    # a name left in __all__ after its definition is deleted breaks
    # `from whsg import *` for every caller
    assert len(set(whsg.__all__)) == len(whsg.__all__)
    missing = [name for name in whsg.__all__ if not hasattr(whsg, name)]
    assert not missing


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
    reps = Nfa.universal_nonempty(("b",))
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


def _rewrite_slots(s, w):
    """Reference rewrite of one table word: each slot is kept or, where it
    spells the representative assigned to a letter (reversed in the third
    slot), replaced by that letter."""
    i, j = w.index(SEP1), w.index(SEP2)
    options = []
    for k, part in enumerate((w[:i], w[i + 1:j], w[j + 1:])):
        opts = {part}
        for a in s.alphabet:
            image = s.assignment[a]
            if part == (tuple(reversed(image)) if k == 2 else image):
                opts.add((a,))
        options.append(opts)
    return {u + (SEP1,) + v + (SEP2,) + y
            for u in options[0] for v in options[1] for y in options[2]}


def _two_rewritten_letters():
    # c and d name ab and bba of the free semigroup; both images have
    # several letters and show up reversed in the third slot
    base = fixtures.free2()
    return WhStructure(("a", "b", "c", "d"), base.reps, base.table,
                       {"c": ("a", "b"), "d": ("b", "b", "a")})


@pytest.mark.parametrize("build, maxlen", [
    (fixtures.rees, 11), (fixtures.free2_with_redundant_letter, 9),
    (_two_rewritten_letters, 9)])
@pytest.mark.parametrize("other_path", [False, True])
def test_normalize_matches_slotwise_rewrite(build, maxlen, other_path):
    s = build()
    # rewriting never lengthens a word, and shortens it by at most this
    reach = maxlen + 3 * (max(len(w) for w in s.assignment.values()) - 1)
    if other_path and s.table.flat_words is not None:
        s = generic_twin(s)
    elif other_path:
        # the words up to `reach` suffice, listed as a flat table
        words = cfglib.enumerate_words(s.table, reach)
        s = WhStructure(s.alphabet, s.reps, Cfg.from_words(s.table.terminals, words),
                        dict(s.assignment))
    expected = {x for w in cfglib.enumerate_words(s.table, reach)
                for x in _rewrite_slots(s, w) if len(x) <= maxlen}
    ns = normalize_generators(s)
    assert set(cfglib.enumerate_words(ns.table, maxlen)) == expected


def test_normalize_preserves_word_eq(rees):
    ns = normalize_generators(rees)
    assert ns.is_normalized()
    for w in all_words(rees.alphabet, 2):
        for w2 in all_words(rees.alphabet, 2):
            assert word_eq(rees, w, w2) == word_eq(ns, w, w2)


# -- validate_necessary ---------------------------------------------------------


@pytest.mark.parametrize("name", ["bicyclic", "free2", "rees", "rees-twin"])
def test_slot_queries_match_the_written_product(name):
    s = fixtures.NAMED[name.removesuffix("-twin")]()
    if name.endswith("-twin"):
        s = generic_twin(s)
    reps, letters = s.reps, s.alphabet
    some = Nfa.from_words([w for w in all_words(letters, 2) if reps.accepts(w)], letters)
    queries = [(reps, reps, reps), (some, reps, reps.reverse())]
    for x in letters:
        queries += [((x,), reps, (x,)), (reps, reps, (x,)), (reps, (x,), (x,)),
                    ((x,), (x,), reps), (some, (x,), some)]
        queries += [((x,), (y,), (y, x)) for y in letters]
    found = 0
    for left, middle, right in queries:
        written = cfglib.intersect_regular(s.table, _Slots(left, middle, right))
        want = cfglib.shortest_word(written)
        assert slot_word(s, left, middle, right) == want
        found += want is not None
        middle_word = slot_middle(s, left, middle, right)
        assert middle_word == (None if want is None else
                               want[want.index(SEP1) + 1:want.index(SEP2)])
    assert found


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


def test_lazy_enumeration_yields_the_first_words_in_order(free2):
    first = list(itertools.islice(cfglib._shortlex_words(
        Cfg.from_nfa(free2.reps), 11), VALIDATE_SAMPLE_CAP))
    assert first == free2.reps.enumerate_words(11)[:VALIDATE_SAMPLE_CAP]


def test_validate_samples_representatives_lazily(free2, monkeypatch):
    # free2's representatives are (a|b)+, 2^24 - 2 words up to length 23:
    # the sample is their first 200 in shortlex order, and finding it
    # settles a few hundred words of the automaton's grammar, not them all
    empty = Cfg(free2.table.nonterminals, free2.table.terminals,
                free2.table.start, [])
    s = WhStructure(free2.alphabet, free2.reps, empty)
    ours = cfglib._least_words
    settled = []

    def counted(*args, **kwargs):
        for got in ours(*args, **kwargs):
            settled.append(got)
            assert len(settled) <= 1000, "every representative enumerated"
            yield got

    monkeypatch.setattr(cfglib, "_least_words", counted)
    v = validate_necessary(s, depth=24)
    assert v.reason == "missing product witness for 'a' * 'a'"


def test_validate_lets_internal_errors_propagate(z2, monkeypatch):
    from whsg import arithmetic

    def broken(*args):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(arithmetic, "multiply", broken)
    with pytest.raises(RuntimeError):
        validate_necessary(z2, depth=2)
    monkeypatch.undo()
    # the triples' product checks, asked together at depth 3 and up
    monkeypatch.setattr(cfglib, "memberships", broken)
    with pytest.raises(RuntimeError):
        validate_necessary(z2, depth=3)


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
    table = Cfg.from_words(alphabet + (SEP1, SEP2), entries)
    for t in (table, _unflatten_cfg(table)):
        v = validate_necessary(WhStructure(alphabet, Nfa.from_words(words, alphabet), t),
                               depth=3)
        assert not v
        assert "test unequal" in v.reason


@pytest.mark.parametrize("generic", [False, True], ids=["flat", "generic"])
@pytest.mark.parametrize("extra, answer", [(("b", "b"), "no"),
                                           (("b", "b", "b"), "yes")],
                         ids=["one-longer", "two-longer"])
def test_validate_unions_entries_at_most_one_letter_longer(generic, extra, answer):
    # a*a = a and every other product is b, which b, bb and bbb all name;
    # the extra entry a #1 a #2 extra-reversed claims a*a = extra as well.
    # Only entries at most one letter longer than the least one (a) are
    # tested for equality, so the false claim is caught for bb and not for
    # bbb
    alphabet = ("a", "b")
    reps = [("a",), ("b",), ("b", "b"), ("b", "b", "b")]
    entries = [u + (SEP1,) + v + (SEP2,) + r[::-1]
               for u in reps for v in reps
               for r in ([("a",)] if u == v == ("a",) else reps[1:])]
    entries.append(("a", SEP1, "a", SEP2) + extra[::-1])
    table = Cfg.from_words(alphabet + (SEP1, SEP2), entries)
    if generic:
        table = _unflatten_cfg(table)
    v = validate_necessary(WhStructure(alphabet, Nfa.from_words(reps, alphabet), table),
                           depth=3)
    assert v.answer == answer
    if answer == "no":
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


def test_shape_check_runs_once_per_structure(monkeypatch, free2):
    # validate_necessary reuses the check made when the structure was built
    s = WhStructure(free2.alphabet, free2.reps, free2.table,
                    dict(free2.assignment))
    tables = []
    least_word = cfglib.least_word
    monkeypatch.setattr(cfglib, "least_word",
                        lambda g, a, ranks=None: tables.append(g)
                        or least_word(g, a, ranks))
    assert s.table_shape_violation() is None
    assert validate_necessary(s, depth=2)
    assert not any(g is s.table for g in tables)
