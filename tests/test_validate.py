"""`validate_necessary` asks each phase's questions off joined charts; it
must answer as the loops it replaced (`validate_reference`), first failure
and raised exception included, at a few charts per call."""

import itertools
import random
import time

import pytest

import validate_reference
from test_differential import _generic_twin, _unflatten_cfg
from test_multirep import TABLES, redundant_structure
from whsg import cfg as cfglib
from whsg import fixtures, oracle
from whsg.arithmetic import multiply
from whsg.cfg import Cfg
from whsg.errors import EmptyProductError
from whsg.nfa import Nfa
from whsg.structure import WhStructure, validate_necessary
from whsg.words import SEP1, SEP2

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


@pytest.mark.parametrize("name", sorted(fixtures.NAMED))
def test_fixtures_fail_first_where_the_loops_do(name):
    _assert_same(fixtures.NAMED[name], SHALLOW)


@pytest.mark.parametrize("name", TWINS)
def test_twins_fail_first_where_the_loops_do(name):
    _assert_same(lambda: _generic_twin(fixtures.NAMED[name]()), SHALLOW)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_redundant_structures_fail_first_where_the_loops_do(name):
    _assert_same(lambda: redundant_structure(TABLES[name]()))


def test_decide_flat_corpus_fails_first_where_the_loops_do():
    named = oracle.NAMED_TABLES
    tables = oracle.small_semigroups(3) + [f() for f in named.values()]
    tables += [oracle.direct_product(named[a](), named[b]())
               for pair in PRODUCT_PAIRS for a, b in {pair, pair[::-1]}]
    for t in tables:
        _assert_same(lambda: oracle.structure_from_table(t))


def test_binary_operations_on_two_letters_fail_first_where_the_loops_do():
    letters = [("a",), ("b",)]
    pairs = list(itertools.product(letters, repeat=2))
    refuted = 0
    for values in itertools.product(letters, repeat=4):
        got = _assert_same(lambda: _operation(dict(zip(pairs, values))))
        refuted += not got[-1][0]
    assert refuted == 8


def test_partial_operations_raise_where_the_loops_do():
    # a and b multiply into a, b and bbb, which has no products: at depth 3
    # the sample is a, b, so a triple's u.(v.x) may be bbb's product and
    # raise.  Some tables fail associativity before a later triple's
    # product raises, and that failure must be reported
    pairs = list(itertools.product([("a",), ("b",)], repeat=2))
    values = [("a",), ("b",), ("b", "b", "b")]
    kinds = set()
    for got in itertools.product(values, repeat=4):
        products = dict(zip(pairs, got))
        outcome, = _assert_same(lambda: _operation(products, values), (3,))
        kinds.add(outcome if outcome is EmptyProductError
                  else outcome[1].split(" on ")[0])
    assert kinds == {EmptyProductError, "associativity fails", ""}


def test_aliased_letters_fail_first_where_the_loops_do():
    # h names g g, which is e in z2, yet h and e are distinct letters
    def aliased():
        s = redundant_structure(TABLES["z2"]())
        return WhStructure(s.alphabet + ("h",), s.reps, s.table, {"h": ("g", "g")})

    for ok, reason in _assert_same(aliased):
        assert not ok and reason.endswith("share a table entry but test unequal")


def _claims(seed, generic):
    # each pair's entries claim one to three random products, so most
    # tables unite words that test unequal, named by the order of the unions
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
        for ok, reason in _assert_same(lambda: _claims(seed, generic), (3, 4)):
            reasons.add(reason)
    assert len(reasons) > 10


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
