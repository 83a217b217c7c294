"""`validate_necessary` asks each phase's questions off joined charts; it
must answer as the loops it replaced (`validate_reference`), first failure
and raised exception included, at a few charts per call.  It tests each
pair's completions against that pair's product, so a refutation names two
words of one table entry, and it refutes whatever the class rule it
replaced (`validate_reference.validate_by_classes`) refuted."""

import functools
import itertools
import random
import re
import time

import pytest

import validate_reference
from test_differential import _generic_twin, _unflatten_cfg
from test_multirep import TABLES, redundant_structure
from whsg import cfg as cfglib
from whsg import fixtures, oracle
from whsg.arithmetic import multiply, word_eq
from whsg.cfg import Cfg
from whsg.errors import EmptyProductError
from whsg.nfa import Nfa
from whsg.structure import WhStructure, validate_necessary
from whsg.words import SEP1, SEP2, reverse

DEPTHS = (2, 3, 4, 5)
# depth 1 samples no pairs and so no triples; not in DEPTHS, since there
# the aliased-letter case is no refutation
SHALLOW = (1, *DEPTHS)
TWINS = ("rb22", "sl2", "rees", "free2c")
# decide-flat's direct products, each in both factor orders
PRODUCT_PAIRS = (("z2", "z2"), ("z2", "sl2"), ("z2", "rb22"), ("z2", "null3"),
                 ("z2", "rees"), ("sl2", "sl2"), ("sl2", "rb22"), ("sl2", "null3"))


def _outcome(validate, s, depth):
    try:
        v = validate(s, depth)
    except Exception as exc:  # the reference's exception type is the answer
        return type(exc)
    return bool(v), v.reason


def _assert_same(build, depths=DEPTHS):
    """Each depth's outcome on a fresh structure per call, so neither call
    finds the other's products cached; the outcomes, for the caller."""
    got = []
    for depth in depths:
        want = _outcome(validate_reference.validate_necessary, build(), depth)
        assert _outcome(validate_necessary, build(), depth) == want, depth
        got.append(want)
    return got


def _operation(products, reps=None):
    """Flat structure of a table over the letters a and b: products maps
    each pair of letters to a representative; reps defaults to the
    letters, and a representative without entries has no products."""
    alphabet = ("a", "b")
    reps = reps or [(x,) for x in alphabet]
    entries = [x + (SEP1,) + y + (SEP2,) + r[::-1] for (x, y), r in products.items()]
    return WhStructure(alphabet, Nfa.from_words(reps, alphabet),
                       Cfg.from_words(alphabet + (SEP1, SEP2), entries))


def _twin(name):
    return _generic_twin(fixtures.NAMED[name]())


def _redundant(name):
    return redundant_structure(TABLES[name]())


def _decide_flat_tables():
    named = oracle.NAMED_TABLES
    tables = oracle.small_semigroups(3) + [f() for f in named.values()]
    return tables + [oracle.direct_product(named[a](), named[b]())
                     for pair in PRODUCT_PAIRS for a, b in {pair, pair[::-1]}]


LETTERS = [("a",), ("b",)]
LETTER_PAIRS = list(itertools.product(LETTERS, repeat=2))
# a and b multiply into a, b and bbb, which has no products
PARTIAL_VALUES = [("a",), ("b",), ("b", "b", "b")]


def _binary_operations():
    return [dict(zip(LETTER_PAIRS, got)) for got in itertools.product(LETTERS, repeat=4)]


def _partial_operations():
    return [dict(zip(LETTER_PAIRS, got))
            for got in itertools.product(PARTIAL_VALUES, repeat=4)]


def _aliased():
    # h names g g, which is e in z2, yet h and e are distinct letters
    s = redundant_structure(TABLES["z2"]())
    return WhStructure(s.alphabet + ("h",), s.reps, s.table, {"h": ("g", "g")})


@pytest.mark.parametrize("name", sorted(fixtures.NAMED))
def test_fixtures_fail_first_where_the_loops_do(name):
    _assert_same(fixtures.NAMED[name], SHALLOW)


@pytest.mark.parametrize("name", TWINS)
def test_twins_fail_first_where_the_loops_do(name):
    _assert_same(functools.partial(_twin, name), SHALLOW)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_redundant_structures_fail_first_where_the_loops_do(name):
    _assert_same(functools.partial(_redundant, name))


def test_decide_flat_corpus_fails_first_where_the_loops_do():
    for t in _decide_flat_tables():
        _assert_same(lambda: oracle.structure_from_table(t))


def test_binary_operations_on_two_letters_fail_first_where_the_loops_do():
    refuted = 0
    for products in _binary_operations():
        got = _assert_same(lambda: _operation(products))
        refuted += not got[-1][0]
    assert refuted == 8


def test_partial_operations_raise_where_the_loops_do():
    # at depth 3 the sample is a, b, so a triple's u.(v.x) may be bbb's
    # product and raise.  Some tables fail associativity before a later
    # triple's product raises, and that failure must be reported
    kinds = set()
    for products in _partial_operations():
        outcome, = _assert_same(lambda: _operation(products, PARTIAL_VALUES), (3,))
        kinds.add(outcome if outcome is EmptyProductError
                  else outcome[1].split(" on ")[0])
    assert kinds == {EmptyProductError, "associativity fails", ""}


def test_aliased_letters_fail_first_where_the_loops_do():
    for ok, reason in _assert_same(_aliased):
        assert not ok and reason.endswith("share a table entry but test unequal")


def _claims(seed, generic):
    # each pair's entries claim one to three random products, so most
    # tables hold an entry whose words test unequal
    rng = random.Random(seed)
    alphabet = ("a", "b")
    reps = [("a",), ("b",), ("a", "b"), ("b", "a"), ("b", "b")]
    entries = [u + (SEP1,) + v + (SEP2,) + r[::-1] for u in reps for v in reps
               for r in rng.sample(reps, rng.randint(1, 3))]
    table = Cfg.from_words(alphabet + (SEP1, SEP2), entries)
    return WhStructure(alphabet, Nfa.from_words(reps, alphabet),
                       _unflatten_cfg(table) if generic else table)


@pytest.mark.parametrize("generic", [False, True], ids=["flat", "generic"])
def test_random_claims_fail_first_where_the_loops_do(generic):
    reasons = set()
    for seed in range(40):
        for ok, reason in _assert_same(lambda: _claims(seed, generic), (2, 3, 4)):
            reasons.add(reason)
    assert len(reasons) > 10


UNEQUAL = re.compile(r"words '(.*)' and '(.*)' \(both '(.*)' \* '(.*)'\) "
                     r"share a table entry but test unequal")


@pytest.mark.parametrize("generic", [False, True], ids=["flat", "generic"])
def test_an_unequal_entry_is_refuted_with_its_pair(generic):
    # z2 with g g a representative too, and the false entry e #1 g #2 g g:
    # e * g is g, and g g is e.  At depth 2 only e and g are sampled, so the
    # class rule never compared g g, its class's root
    alphabet = ("e", "g")
    products = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    entries = [(x, SEP1, y, SEP2, z) for (x, y), z in products.items()]
    table = Cfg.from_words(alphabet + (SEP1, SEP2),
                           entries + [("e", SEP1, "g", SEP2, "g", "g")])
    reps = Nfa.from_words([("e",), ("g",), ("g", "g")], alphabet)
    s = WhStructure(alphabet, reps, _unflatten_cfg(table) if generic else table)
    v = validate_necessary(s, depth=2)
    assert v.reason == ("words 'g g' and 'g' (both 'e' * 'g') share a table entry "
                        "but test unequal")


@pytest.mark.parametrize("generic", [False, True], ids=["flat", "generic"])
def test_a_claim_compared_only_through_a_third_word_is_refuted(generic):
    # the class rule compared both unequal words of an entry with a third
    # word of their class, and never with each other
    assert not validate_necessary(_claims(5, generic), depth=2)


@pytest.mark.parametrize("generic", [False, True], ids=["flat", "generic"])
def test_an_unequal_entry_refutation_is_a_certificate(generic):
    # the two words the reason names lie in the entry of the pair it names,
    # and they test unequal
    refuted = 0
    for seed in range(40):
        for depth in DEPTHS:
            verdict = validate_necessary(_claims(seed, generic), depth)
            found = UNEQUAL.fullmatch(verdict.reason)
            if found is None:
                continue
            w, r, u, v = (tuple(x.split(" ")) for x in found.groups())
            s = _claims(seed, generic)
            for x in (w, r):
                assert s.table_accepts(u + (SEP1,) + v + (SEP2,) + reverse(x))
            assert not word_eq(s, w, r)
            refuted += 1
    assert refuted > 0


def _corpus():
    """A builder of each structure the tests above validate."""
    builds = [fixtures.NAMED[name] for name in sorted(fixtures.NAMED)]
    builds += [functools.partial(_twin, name) for name in TWINS]
    builds += [functools.partial(_redundant, name) for name in sorted(TABLES)]
    builds += [functools.partial(oracle.structure_from_table, t)
               for t in _decide_flat_tables()]
    builds += [functools.partial(_operation, p) for p in _binary_operations()]
    builds += [functools.partial(_operation, p, PARTIAL_VALUES)
               for p in _partial_operations()]
    builds.append(_aliased)
    return builds + [functools.partial(_claims, seed, generic)
                     for seed in range(40) for generic in (False, True)]


def test_the_entry_rule_refutes_whatever_the_class_rule_refutes():
    for build in _corpus():
        for depth in DEPTHS:
            want = _outcome(validate_reference.validate_by_classes, build(), depth)
            got = _outcome(validate_necessary, build(), depth)
            if isinstance(want, type):
                assert got is want, (build, depth)
            elif not want[0]:
                assert isinstance(got, tuple) and not got[0], (build, depth)


def test_associativity_failure_before_a_missing_triple_product():
    # (a.a).a = b.a = a but a.(a.a) = a.b = b; the later triple (a, b, b)
    # asks for a.(b.b) = a.bbb, which has no entry
    s = _operation({(("a",), ("a",)): ("b",), (("a",), ("b",)): ("b",),
                    (("b",), ("a",)): ("a",), (("b",), ("b",)): ("b", "b", "b")},
                   [("a",), ("b",), ("b", "b", "b")])
    with pytest.raises(EmptyProductError):
        multiply(s, ("a",), ("b", "b", "b"))
    v = validate_necessary(s, depth=3)
    assert v.reason == "associativity fails on 'a', 'a', 'a'"


def test_validate_on_free2c_builds_few_charts(monkeypatch):
    # one chart per pair's product and completions, and per triple's
    # product and check, was 329 charts here; 9 were measured
    chart = cfglib._cyk_masks
    calls = []
    monkeypatch.setattr(cfglib, "_cyk_masks",
                        lambda cnf, w: calls.append(w) or chart(cnf, w))
    assert validate_necessary(fixtures.free2_with_redundant_letter(), depth=4)
    assert 0 < len(calls) <= 9


def test_a_failing_first_pair_stays_cheap():
    # free2 with an empty table at depth 40: 200 sampled words, all 40,000
    # pairs prefetched before the first pair's missing product is reported
    s = fixtures.free2()
    s = WhStructure(s.alphabet, s.reps,
                    Cfg(s.table.nonterminals, s.table.terminals, s.table.start, []))
    began = time.perf_counter()
    v = validate_necessary(s, depth=40)
    assert time.perf_counter() - began < 0.5
    assert v.reason == "missing product witness for 'a' * 'a'"


def test_validate_joins_no_chart_past_the_cap(monkeypatch):
    # free2 at depth 6 asks one phase more symbols than one chart takes
    chart = cfglib._cyk_masks
    charted = []
    monkeypatch.setattr(cfglib, "_cyk_masks",
                        lambda cnf, w: charted.append(w) or chart(cnf, w))
    assert validate_necessary(fixtures.free2(), depth=6)
    assert all(len(w) <= cfglib._JOIN_CAP or cfglib._BREAK not in w
               for w in charted)
    assert max(map(len, charted)) > cfglib._JOIN_CAP // 2
