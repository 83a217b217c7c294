import random

import pytest

from conftest import all_words
from whsg import cfg as cfglib
from whsg.cfg import Cfg
from whsg.nfa import Nfa
from whsg.transducer import Transducer
from whsg.words import SEP1, SEP2, symbol_ranks


def test_normalize_drops_unreachable():
    g = Cfg(["O", "X"], ("a", "b"), "O",
            [("O", ("a", "O")), ("O", ("a",)), ("X", ("b",))])
    gn = cfglib.normalize(g)
    assert "X" not in gn.nonterminals
    for w in all_words(("a", "b"), 6):
        assert cfglib.membership(gn, w) == cfglib.membership(g, w)


def test_normalize_collapses_unit_productions():
    g = Cfg(["O", "X"], ("a",), "O", [("O", ("X",)), ("X", ("a",))])
    gn = cfglib.normalize(g)
    assert set(gn.productions) == {("O", ("a",))}


def test_normalize_preserves_fixture_table_language(free2):
    g = free2.table
    gn = cfglib.normalize(g)
    for head, body in gn.productions:
        assert body, "no epsilon productions"
        assert not (len(body) == 1 and body[0] in gn.nonterminals)
    for w in all_words(("a", "b", SEP1, SEP2), 8):
        assert cfglib.membership(gn, w) == cfglib.membership(g, w)


def test_normalize_reports_empty_language():
    g = Cfg(["O"], ("a",), "O", [("O", ("a", "O"))])
    gn = cfglib.normalize(g)
    assert not gn.productions
    assert cfglib.is_empty_language(g)


def test_normalize_strict_rejects_epsilon():
    g = Cfg(["O"], ("a",), "O", [("O", ()), ("O", ("a",))])
    with pytest.raises(ValueError):
        cfglib.normalize(g, strict=True)
    gn = cfglib.normalize(g, strict=False)
    assert cfglib.membership(gn, ("a",))


def test_normalize_strict_checks_cached_result():
    for warm in (lambda g: cfglib.normalize(g, strict=False), cfglib.cnf_of):
        g = Cfg(["O"], ("a",), "O", [("O", ()), ("O", ("a", "O"))])
        warm(g)
        with pytest.raises(ValueError):
            cfglib.normalize(g, strict=True)


def test_membership_free2_table(free2):
    assert cfglib.membership(free2.table, ("a", SEP1, "b", SEP2, "b", "a"))
    assert not cfglib.membership(free2.table, ("a", SEP1, "b", SEP2, "a", "b"))


def test_membership_null3_table(null3):
    assert cfglib.membership(null3.table, ("b", SEP1, "c", SEP2, "a"))
    assert not cfglib.membership(null3.table, ("b", SEP1, "c", SEP2, "b"))


def test_intersect_regular_on_fixture(free2):
    shape = (Nfa.literal(("a",), ("a", "b")).concat(Nfa.literal((SEP1,), (SEP1,)))
             .concat(Nfa.literal(("b",), ("a", "b")))
             .concat(Nfa.literal((SEP2,), (SEP2,)))
             .concat(Nfa.universal(("a", "b"))))
    got = cfglib.intersect_regular(free2.table, shape)
    expected = [w for w in cfglib.enumerate_words(free2.table, 6)
                if shape.accepts(w)]
    assert expected == [("a", SEP1, "b", SEP2, "b", "a")]
    assert cfglib.enumerate_words(got, 6) == expected


def test_intersect_regular_empty_absorbs():
    empty = Cfg(["O"], ("a",), "O", [])
    got = cfglib.intersect_regular(empty, Nfa.universal(("a",)))
    assert cfglib.is_empty_language(got)


def test_intersect_regular_with_superset_shape(null3):
    shape = (null3.reps.concat(Nfa.literal((SEP1,), (SEP1,)))
             .concat(null3.reps).concat(Nfa.literal((SEP2,), (SEP2,)))
             .concat(null3.reps.reverse()))
    got = cfglib.intersect_regular(null3.table, shape)
    assert set(cfglib.enumerate_words(got, 8)) == set(
        cfglib.enumerate_words(null3.table, 8))


def test_shortest_word_unique():
    g = Cfg(["O"], ("a", "b"), "O", [("O", ("a", "O", "b")), ("O", ("a", "b"))])
    assert cfglib.shortest_word(g) == ("a", "b")


def test_shortest_word_empty_language():
    g = Cfg(["O"], ("a",), "O", [("O", ("a", "O"))])
    assert cfglib.shortest_word(g) is None


def test_shortest_word_identity_language_from_z2(z2):
    # the one-letter identity representative, found through the table:
    # brute force over the two-element group table says the identity is e
    table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    identity = next(x for x in ("e", "g")
                    if all(table[(x, y)] == y == table[(y, x)] for y in ("e", "g")))
    assert identity == "e"
    shape = (Nfa.literal(("g",), ("e", "g")).concat(Nfa.literal((SEP1,), (SEP1,)))
             .concat(z2.reps).concat(Nfa.literal((SEP2,), (SEP2,)))
             .concat(Nfa.literal(("g",), ("e", "g"))))
    candidates = cfglib.intersect_regular(z2.table, shape)
    w = cfglib.shortest_word(candidates, z2.ranks)
    middle = w[w.index(SEP1) + 1:w.index(SEP2)]
    assert middle == (identity,)


def test_shortest_word_respects_symbol_order():
    g = Cfg(["O"], ("a", "b"), "O", [("O", ("a",)), ("O", ("b",))])
    assert cfglib.shortest_word(g, symbol_ranks(("b", "a"))) == ("b",)
    assert cfglib.shortest_word(g, symbol_ranks(("a", "b"))) == ("a",)


def test_shortest_word_is_member_and_minimal():
    rng = random.Random(99)
    for _ in range(40):
        g = _random_cfg(rng)
        w = cfglib.shortest_word(g)
        members = cfglib.enumerate_words(g, 6)
        if w is None:
            assert not members
        elif len(w) <= 6:
            assert w == members[0]
            assert cfglib.membership(g, w)


def test_prefix_quotient_matches_definition():
    rng = random.Random(5)
    for _ in range(25):
        g = _random_cfg(rng)
        for prefix in (("a",), ("a", "b"), ("b",)):
            q = cfglib.prefix_quotient(g, prefix)
            got = set(cfglib.enumerate_words(q, 4))
            expected = {w[len(prefix):] for w in cfglib.enumerate_words(g, 4 + len(prefix))
                        if len(w) > len(prefix) and w[:len(prefix)] == tuple(prefix)}
            assert got == expected


def test_reverse_cfg(free2):
    rev = cfglib.reverse_cfg(free2.table)
    expected = {tuple(reversed(w)) for w in cfglib.enumerate_words(free2.table, 7)}
    assert set(cfglib.enumerate_words(rev, 7)) == expected


def test_union_cfgs():
    g1 = Cfg(["O"], ("a", "b"), "O", [("O", ("a",))])
    g2 = Cfg(["O"], ("a", "b"), "O", [("O", ("b", "b"))])
    u = cfglib.union_cfgs([g1, g2])
    assert set(cfglib.enumerate_words(u, 3)) == {("a",), ("b", "b")}


def _random_cfg(rng):
    """Small random grammar over {a, b}, with empty and unit bodies."""
    nts = ["O", "X", "Y"][:rng.randint(1, 3)]
    prods = []
    for _ in range(rng.randint(2, 6)):
        head = rng.choice(nts)
        body = tuple(rng.choice(nts + ["a", "b", "a", "b"])
                     for _ in range(rng.randint(0, 3)))
        prods.append((head, body))
    return Cfg(nts, ("a", "b"), "O", prods)


def _random_nfa(rng):
    states = range(rng.randint(1, 3))
    trans = [(p, sym, q) for p in states for sym in ("a", "b") for q in states
             if rng.random() < 0.4]
    return Nfa(states, ("a", "b"), trans, [0],
               [q for q in states if rng.random() < 0.5])


def test_membership_matches_enumeration_on_random_grammars():
    rng = random.Random(123)
    words = all_words(("a", "b"), 6, minlen=0)
    identity = Transducer.identity(("a", "b"))
    for _ in range(30):
        g = _random_cfg(rng)
        a = _random_nfa(rng)
        members = cfglib.enumerate_words(g, 6)
        member_set = set(members)
        product = cfglib.intersect_regular(g, a)
        image = identity.apply_to_cfg(g)
        shortest = cfglib.shortest_word(g)
        if members:
            assert shortest == members[0]
        else:
            assert shortest is None or len(shortest) > 6
        for w in words:
            member = w in member_set
            assert cfglib.membership(g, w) == member
            if w:  # products drop the empty word
                assert cfglib.membership(product, w) == (member and a.accepts(w))
                assert cfglib.membership(image, w) == member


def _naive_nullable(g):
    """Reference: rescan every production until a pass adds nothing."""
    nullable = set()
    changed = True
    while changed:
        changed = False
        for head, body in g.productions:
            if head not in nullable and all(x in nullable for x in body):
                nullable.add(head)
                changed = True
    return nullable


def _naive_productive(g):
    """Reference as above; also returns the number of passes it made."""
    nts = set(g.nonterminals)
    productive = set()
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        for head, body in g.productions:
            if head not in productive and \
                    all(x in productive or x not in nts for x in body):
                productive.add(head)
                changed = True
    return productive, passes


def _layered_cfg(rng, k):
    """Random grammar on N0..N(k-1) whose Ni mostly uses N(i+1) and later
    ones, listed from N0 on: reverse dependency order, so a rescanning
    fixpoint learns about one nonterminal per pass."""
    nts = [f"N{i}" for i in range(k)]
    prods = []
    for i, head in enumerate(nts[:-1]):
        later = nts[i + 1:]
        chain = [nts[i + 1]] + [rng.choice(later + ["a", "b"])
                                for _ in range(rng.randint(0, 2))]
        rng.shuffle(chain)
        prods.append((head, tuple(chain)))
        for _ in range(rng.randint(0, 2)):
            pool = later + ["a", "b"] + ([rng.choice(nts)] if rng.random() < 0.3 else [])
            prods.append((head, tuple(rng.choice(pool)
                                      for _ in range(rng.randint(1, 3)))))
    prods += [(nts[-1], body) for body in ((), ("a",), ("b", "a"))
              if rng.random() < 0.6]
    return Cfg(nts, ("a", "b"), "N0", prods)


def _assert_closures_match(g):
    nts = set(g.nonterminals)
    nullable = _naive_nullable(g)
    productive, passes = _naive_productive(g)
    assert cfglib._nullable_set(g) == nullable
    assert cfglib._closure(g.productions, nts) == productive
    eps = g.start in nullable
    assert cfglib.derives_epsilon(g) == eps
    # enumerate_words asks derives_epsilon about the empty word, so the
    # independent witness is the shortest-length pass over the lowering
    low = cfglib.lowered_of(g)
    assert (cfglib._min_lengths_lowered(low).get(low.start) == 0) == eps
    assert cfglib.is_empty_language(g) == (g.start not in productive)
    gn = cfglib.normalize(g, strict=False)
    assert cfglib.enumerate_words(gn, 6) == [
        w for w in cfglib.enumerate_words(g, 6) if w]
    if g.start not in productive:
        assert not gn.productions
    return passes


def test_closure_matches_naive_fixpoint_on_random_grammars():
    rng = random.Random(2024)
    for _ in range(60):
        _assert_closures_match(_random_cfg(rng))
    passes = [_assert_closures_match(_layered_cfg(rng, rng.randint(20, 40)))
              for _ in range(12)]
    assert max(passes) >= 15, "layered grammars should need many naive passes"


def test_normalize_unit_chain_to_epsilon_has_no_productions():
    k = 30
    nts = [f"C{i}" for i in range(k)] + ["D"]
    prods = [(f"C{i}", (f"C{i + 1}",)) for i in range(k - 1)]
    prods += [(f"C{i}", ("a", "D")) for i in range(0, k, 3)]
    prods += [("D", ("a", "D")), (f"C{k - 1}", ())]
    g = Cfg(nts, ("a",), "C0", prods)
    passes = _assert_closures_match(g)
    assert cfglib.derives_epsilon(g)
    gn = cfglib.normalize(g, strict=False)
    assert gn.productions == ()
    assert gn.nonterminals == ("C0",)
    assert cfglib.is_empty_language(gn)
    with pytest.raises(ValueError):
        cfglib.normalize(g, strict=True)
    assert passes >= k  # listed against the chain: one head per naive pass
