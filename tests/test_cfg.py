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
