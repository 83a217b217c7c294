"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and bound is asserted, nothing is deferred.
"""

import math
import random
import time

from conftest import all_words, finite_language
from whsg import cfg as cfglib
from whsg import fixtures
from whsg.arithmetic import check_multiply, multiply, word_eq
from whsg.basic import is_commutative, is_group, is_monoid
from whsg.cfg import Cfg
from whsg.nfa import Nfa
from whsg.oracle import (NAMED_TABLES, small_semigroups, structure_from_table,
                         table_decide)
from whsg.structural import is_clifford, is_completely_simple, is_free, \
    palindromic_defect
from whsg.structure import normalize_generators
from whsg.transducer import Transducer
from whsg.words import SEP2, reverse

PROCEDURES = {
    "monoid": is_monoid,
    "group": is_group,
    "commutative": is_commutative,
    "completely-simple": is_completely_simple,
    "clifford": is_clifford,
    "free": is_free,
}


def _report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} ({name}): PASS{suffix}")


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    corpus = small_semigroups(3)
    assert sum(len(t.elements) == 3 for t in corpus) == 18
    tables = corpus + [build() for build in NAMED_TABLES.values()]
    mismatches = []
    for t in tables:
        s = structure_from_table(t)
        for prop, decide in PROCEDURES.items():
            got = decide(s).answer
            want = table_decide(t, prop).answer
            if got != want:
                mismatches.append((t.elements, prop, got, want))
    elapsed = time.perf_counter() - started
    assert mismatches == []
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, "oracle equivalence",
            f"{len(tables)} tables x 6 procedures in {elapsed:.1f}s")


def test_criterion_2_word_problem_correctness():
    mismatches = 0
    checked = 0
    for build in NAMED_TABLES.values():
        t = build()
        s = structure_from_table(t)
        words = all_words(s.alphabet, 4)
        values = {w: t.eval_word(w) for w in words}
        for w in words:
            vw = values[w]
            for w2 in words:
                checked += 1
                if word_eq(s, w, w2) != (vw == values[w2]):
                    mismatches += 1
    rng = random.Random(20240801)
    s = fixtures.free2()
    for i in range(1000):
        n = rng.randint(1, 64)
        w = tuple(rng.choice("ab") for _ in range(n))
        kind = i % 3
        if kind == 0:
            w2 = w
        elif kind == 1:
            k = rng.randrange(n)
            w2 = w[:k] + ("a" if w[k] == "b" else "b",) + w[k + 1:]
        else:
            w2 = tuple(rng.choice("ab") for _ in range(rng.randint(1, 64)))
        checked += 1
        if word_eq(s, w, w2) != (w == w2):
            mismatches += 1
    assert mismatches == 0
    _report(2, "word problem correctness", f"{checked} pairs, 0 mismatches")


def test_criterion_3_polynomial_behavior():
    started = time.perf_counter()
    lengths = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    rng = random.Random(424242)
    medians = []
    for n in lengths:
        times = []
        for trial in range(3):
            s = fixtures.free2()  # fresh instance: cold caches per sample
            w = tuple(rng.choice("ab") for _ in range(n))
            if trial == 0:
                w2 = w
            else:
                k = rng.randrange(n)
                w2 = w[:k] + ("a" if w[k] == "b" else "b",) + w[k + 1:]
            t0 = time.perf_counter()
            got = word_eq(s, w, w2)
            times.append(time.perf_counter() - t0)
            assert got == (w == w2)
        medians.append(sorted(times)[1])
    slopes = [math.log2(medians[i + 1] / medians[i])
              for i in range(len(medians) - 1)]
    elapsed = time.perf_counter() - started
    assert all(slope <= 6.0 for slope in slopes), slopes
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s"
    _report(3, "polynomial behavior",
            "slopes " + ",".join(f"{x:.2f}" for x in slopes)
            + f"; sweep {elapsed:.1f}s")


def test_criterion_4_multiply_contract():
    pairs = []
    for build in NAMED_TABLES.values():
        s = structure_from_table(build())
        pool = sorted(finite_language(s.reps))
        pairs.extend((s, p, q) for p in pool for q in pool)
    s_free = fixtures.free2()
    rng = random.Random(8128)
    long_pool = all_words(("a", "b"), 8, minlen=5)
    short_pool = all_words(("a", "b"), 3)
    for _ in range(12):
        pairs.append((s_free, rng.choice(long_pool), rng.choice(short_pool)))
    free_pool = all_words(("a", "b"), 4)
    while len(pairs) < 500:
        pairs.append((s_free, rng.choice(free_pool), rng.choice(free_pool)))
    failures = 0
    for s, p, q in pairs[:500]:
        r = multiply(s, p, q)
        if not check_multiply(s, p, q, r):
            failures += 1
            continue
        shorter = all_words(s.alphabet, len(r) - 1) if len(r) > 1 else []
        if any(check_multiply(s, p, q, w) for w in shorter
               if s.in_reps(w)):
            failures += 1
    assert failures == 0
    _report(4, "product representative contract", "500 pairs, 0 failures")


def test_criterion_5_palindromic_defects():
    mirror = Cfg(["P"], ("a", "b", SEP2), "P",
                 [("P", ("a", "P", "a")), ("P", ("b", "P", "b")),
                  ("P", ("a", SEP2, "a")), ("P", ("b", SEP2, "b"))])
    assert palindromic_defect(mirror) is None
    for w in cfglib.enumerate_words(mirror, 12):
        i = w.index(SEP2)
        assert w[:i] == reverse(w[i + 1:])

    ab = ("a", "b", SEP2)
    defective = [
        Cfg(["O"], ab, "O", [("O", ("a", SEP2, "b"))]),
        Cfg(["O"], ab, "O", [("O", ("a", "b", SEP2, "a", "b"))]),
        Cfg(["O"], ab, "O",
            [("O", ("a", "O", "a")), ("O", ("a", SEP2, "a", "a"))]),
        Cfg(["O", "Y"], ab, "O",
            [("O", ("Y", SEP2, "a")), ("Y", ("a", "Y")), ("Y", ("a",))]),
        Cfg(["O", "Y"], ab, "O",
            [("O", ("a", SEP2, "Y")), ("Y", ("a", "Y")), ("Y", ("a",))]),
        Cfg(["O", "X"], ab, "O", [("O", ("X",)), ("X", ("b", SEP2, "a"))]),
        Cfg(["O", "X"], ab, "O", [("O", ("a", "X", "b")), ("X", (SEP2,))]),
        Cfg(["O", "X"], ab, "O",
            [("O", ("a", "X", "b")), ("O", ("a", "X", "a")),
             ("X", (SEP2,))]),
        Cfg(["O", "A"], ab, "O",
            [("O", ("A", SEP2)), ("A", ("a", "A", "a")), ("A", ("a",))]),
        Cfg(["O", "P"], ab, "O",
            [("O", ("a", "P")), ("P", ("a", "P", "a")), ("P", (SEP2,))]),
    ]
    assert len(defective) == 10
    failures = 0
    for g in defective:
        d = palindromic_defect(g)
        if d is None:
            failures += 1
            continue
        if d.witness is not None:
            if not cfglib.membership(g, d.witness):
                failures += 1
                continue
            i = d.witness.index(SEP2)
            if d.witness[:i] == reverse(d.witness[i + 1:]):
                failures += 1
    assert failures == 0
    _report(5, "palindromic defect detection", "10 defective grammars")


def test_criterion_6_normalization_semantics():
    for name, build in fixtures.NAMED.items():
        s = build()
        ns = normalize_generators(s)
        assert all(ns.in_reps((a,)) for a in ns.alphabet), name
        assert all(ns.assignment[a] == (a,) for a in ns.alphabet), name
        words = all_words(s.alphabet, 3)
        for w in words:
            for w2 in words:
                assert word_eq(s, w, w2) == word_eq(ns, w, w2), (name, w, w2)
    _report(6, "normalization semantics",
            f"{len(fixtures.NAMED)} fixtures, pairs up to length 3")


def _random_cfg(rng):
    nts = ["O", "X", "Y"][:rng.randint(1, 3)]
    prods = []
    for _ in range(rng.randint(2, 6)):
        head = rng.choice(nts)
        body = tuple(rng.choice(nts + ["a", "b", "a", "b"])
                     for _ in range(rng.randint(1, 3)))
        prods.append((head, body))
    return Cfg(nts, ("a", "b"), "O", prods)


def _random_nfa(rng):
    states = [f"s{i}" for i in range(3)]
    trans = [(rng.choice(states), rng.choice("ab"), rng.choice(states))
             for _ in range(rng.randint(2, 7))]
    return Nfa(states, ("a", "b"), trans, [rng.choice(states)],
               rng.sample(states, rng.randint(1, 3)))


def _random_letter_transducer(rng):
    states = [f"t{i}" for i in range(rng.randint(1, 3))]
    trans = []
    for _ in range(rng.randint(2, 6)):
        out = tuple(rng.choice("ab") for _ in range(rng.randint(1, 2)))
        trans.append((rng.choice(states), rng.choice("ab"), out,
                      rng.choice(states)))
    return Transducer(states, trans, [states[0]],
                      rng.sample(states, rng.randint(1, len(states))))


def test_criterion_7_formal_language_kernel():
    started = time.perf_counter()
    rng = random.Random(20240809)
    words = [()] + all_words(("a", "b"), 6)
    mismatches = 0
    for _ in range(50):
        g = _random_cfg(rng)
        n = _random_nfa(rng)
        inter = cfglib.intersect_regular(g, n)
        for w in words:
            expected = cfglib.membership(g, w) and n.accepts(w)
            if cfglib.membership(inter, w) != expected:
                mismatches += 1
    # the homomorphisms draw from their own stream, so the transducers and
    # automata below are those drawn from rng alone
    hrng = random.Random(20240810)
    for _ in range(50):
        t = _random_letter_transducer(rng)
        target = _random_nfa(rng)
        images = {x: tuple(hrng.choice("ab") for _ in range(hrng.randint(1, 2)))
                  for x in "ab"}
        image = target.substitute(images)
        # images are nonempty, so no input longer than 6 has an image this short
        expected = {sum((images[x] for x in u), ())
                    for u in words if target.accepts(u)}
        for w in words:
            if image.accepts(w) != (w in expected):
                mismatches += 1
        g_target = _random_cfg(rng)
        g_image = t.apply_to_cfg(g_target)
        g_expected = set()
        for u in [w for w in words if cfglib.membership(g_target, w)]:
            g_expected |= {v for v in t.apply_word(u) if len(v) <= 6}
        if set(cfglib.enumerate_words(g_image, 6)) != g_expected:
            mismatches += 1
    for _ in range(50):
        g = _random_cfg(rng)
        gn = cfglib.normalize(g)
        nts = set(gn.nonterminals)
        for head, body in gn.productions:
            assert body != ()
            assert not (len(body) == 1 and body[0] in nts)
        for w in words:
            if cfglib.membership(gn, w) != cfglib.membership(g, w):
                mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 60.0, f"criterion 7 took {elapsed:.1f}s"
    _report(7, "formal language kernel",
            f"150 operand sets in {elapsed:.1f}s")


def test_criterion_8_named_fixtures_behave_as_documented():
    null3 = fixtures.null3()
    assert is_commutative(null3)
    assert not is_monoid(null3)
    assert not is_free(null3)

    rees = fixtures.rees()
    monoid = is_monoid(rees)
    assert monoid
    assert word_eq(rees, monoid.witnesses["identity"], ("i",))
    assert not is_group(rees)

    free2 = fixtures.free2()
    assert is_free(free2)
    assert not is_commutative(free2)
    _report(8, "documented fixture behavior")
