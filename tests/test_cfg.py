import random
import time

import knuth_reference
from conftest import all_words, declared, symbol_ranks
from test_differential import _generic_twin
from whsg import cfg as cfglib
from whsg import fixtures
from whsg.cfg import Cfg
from whsg.nfa import Nfa
from whsg.structure import normalize_generators
from whsg.transducer import Transducer
from whsg.words import SEP1, SEP2, shortlex_key


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
    assert cfglib.shortest_word(g) is None


def test_membership_free2_table(free2):
    assert cfglib.membership(free2.table, ("a", SEP1, "b", SEP2, "b", "a"))
    assert not cfglib.membership(free2.table, ("a", SEP1, "b", SEP2, "a", "b"))


def test_membership_null3_table(null3):
    assert cfglib.membership(null3.table, ("b", SEP1, "c", SEP2, "a"))
    assert not cfglib.membership(null3.table, ("b", SEP1, "c", SEP2, "b"))


def test_intersect_regular_on_fixture(free2):
    shape = Nfa.joined((Nfa.from_words([("a",)], ("a", "b")),
                        Nfa.from_words([("b",)], ("a", "b")),
                        Nfa.universal(("a", "b"))), (SEP1, SEP2))
    got = cfglib.intersect_regular(free2.table, shape)
    expected = [w for w in cfglib.enumerate_words(free2.table, 6)
                if shape.accepts(w)]
    assert expected == [("a", SEP1, "b", SEP2, "b", "a")]
    assert cfglib.enumerate_words(got, 6) == expected


def test_intersect_regular_empty_absorbs():
    empty = Cfg(["O"], ("a",), "O", [])
    got = cfglib.intersect_regular(empty, Nfa.universal(("a",)))
    assert cfglib.shortest_word(got) is None
    # no top item: the product is the empty normal form of its start
    g = Cfg(["O"], ("a", "b"), "O", [("O", ("a", "O")), ("O", ("a",))])
    got = cfglib.intersect_regular(g, Nfa.universal(("b",)))
    assert got == Cfg([("&S",)], ("a", "b"), ("&S",), [])


def test_intersect_regular_drops_empty_word():
    star = Nfa.universal(("a",))
    flat = Cfg.from_words(("a",), [(), ("a",)])
    generic = Cfg(["O", "X"], ("a",), "O",
                  [("O", ("X",)), ("X", ()), ("X", ("a",))])
    assert flat.flat_words is not None and generic.flat_words is None
    for g in (flat, generic):
        got = cfglib.intersect_regular(g, star)
        assert cfglib.enumerate_words(got, 3) == [("a",)]


def test_intersect_regular_with_superset_shape(null3):
    shape = Nfa.joined((null3.reps, null3.reps, null3.reps.reverse()),
                       (SEP1, SEP2))
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
    g = Nfa.from_words([("g",)], ("e", "g"))
    shape = Nfa.joined((g, z2.reps, g), (SEP1, SEP2))
    candidates = cfglib.intersect_regular(z2.table, shape)
    w = cfglib.shortest_word(candidates)
    middle = w[w.index(SEP1) + 1:w.index(SEP2)]
    assert middle == (identity,)


def test_shortest_word_respects_symbol_order():
    g = Cfg(["O"], ("a", "b"), "O", [("O", ("a",)), ("O", ("b",))])
    assert cfglib.shortest_word(declared(g, ("b", "a"))) == ("b",)
    assert cfglib.shortest_word(declared(g, ("a", "b"))) == ("a",)


def test_every_query_orders_words_as_the_terminals_are_declared():
    # the same productions declared over (a, b) and over (b, a): each query
    # answers with the least words in its grammar's declared order, and an
    # automaton with those in its alphabet's order
    rng = random.Random(34)
    aut = Nfa.from_words(all_words(("a", "b"), 3, minlen=2), ("a", "b"))
    differ = 0
    for _ in range(60):
        g = _random_cfg(rng)
        x = rng.choice(((), ("a",), ("b",), ("b", "a")))
        answers = []
        for order in (("a", "b"), ("b", "a")):
            h, key = declared(g, order), shortlex_key(symbol_ranks(order))
            members = sorted((w for w in all_words(order, 6, minlen=0)
                              if cfglib.membership(g, w)), key=key)
            tails = sorted({w[len(x):][::-1] for w in members
                            if w[:len(x)] == x and 0 < len(w) - len(x) <= 3},
                           key=key)
            got = (cfglib.shortest_word(h), cfglib.enumerate_words(h, 6),
                   cfglib.least_word(h, aut),
                   cfglib.least_completions(h, [x], 3, 3)[0])
            assert got[0] == members[0] if members else (
                got[0] is None or len(got[0]) > 6)
            assert got[1:] == (members, next(
                (w for w in members if aut.accepts(w)), None), tails[:3])
            few = Nfa.from_words(members[:4], order)
            assert few.shortest_word() == (members[0] if members else None)
            assert few.enumerate_words(6) == members[:4]
            answers.append(got)
        differ += answers[0] != answers[1]
    assert differ > 10


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


def _chain(k):
    """P0 -> a P1, ..., P(k-2) -> a P(k-1), P(k-1) -> b: the one word
    a^(k-1) b, derived deeper than the interpreter's recursion limit."""
    nts = [f"P{i}" for i in range(k)]
    prods = [(x, ("a", y)) for x, y in zip(nts, nts[1:])] + [(nts[-1], ("b",))]
    return Cfg(nts, ("a", "b"), "P0", prods)


def test_shortest_word_on_deep_chain():
    g = _chain(5000)
    t0 = time.perf_counter()
    assert cfglib.shortest_word(g) == ("a",) * 4999 + ("b",)
    rev = Cfg(g.nonterminals, g.terminals, g.start,
              [(h, b[::-1]) for h, b in g.productions])
    assert cfglib.shortest_word(rev) == ("b",) + ("a",) * 4999
    assert time.perf_counter() - t0 < 2


def test_enumerate_words_on_deep_chain():
    g = _chain(1500)
    t0 = time.perf_counter()
    assert cfglib.enumerate_words(g, 1500) == [("a",) * 1499 + ("b",)]
    assert cfglib.enumerate_words(g, 1499) == []
    assert time.perf_counter() - t0 < 2


def test_unit_and_epsilon_sibling_cycles():
    # O -> X -> O is a unit cycle; X -> Y X and X -> X Y re-enter X at the
    # same length through the nullable Y
    g = Cfg(["O", "X", "Y"], ("a", "b"), "O",
            [("O", ("X",)), ("O", ("a", "O", "b")), ("X", ("O",)),
             ("X", ("Y", "X")), ("X", ("X", "Y")), ("X", ("b", "a")),
             ("Y", ()), ("Y", ("b", "Y"))])
    for order in (("a", "b"), ("b", "a")):
        ranks = symbol_ranks(order)
        members = sorted((w for w in all_words(("a", "b"), 6, minlen=0)
                          if cfglib.membership(g, w)),
                         key=shortlex_key(ranks))
        assert members[:3] == sorted([("b", "a"), ("b", "b", "a"),
                                      ("b", "a", "b")], key=shortlex_key(ranks))
        assert cfglib.enumerate_words(declared(g, order), 6) == members
        assert cfglib.shortest_word(declared(g, order)) == members[0]


def test_least_completions_match_definition():
    # with k above the number of candidates, every completion up to maxlen
    rng = random.Random(5)
    ranks = symbol_ranks(("a", "b"))
    for _ in range(25):
        g = _random_cfg(rng)
        for prefix in (("a",), ("a", "b"), ("b",)):
            got = cfglib.least_completions(g, [prefix], 64, 4)[0]
            expected = sorted({w[len(prefix):][::-1]
                               for w in cfglib.enumerate_words(g, 4 + len(prefix))
                               if len(w) > len(prefix) and w[:len(prefix)] == prefix},
                              key=shortlex_key(ranks))
            assert got == expected


def test_union_cfgs():
    g1 = Cfg(["O"], ("a", "b"), "O", [("O", ("a",))])
    g2 = Cfg(["O"], ("a", "b"), "O", [("O", ("b", "b"))])
    u = cfglib.union_cfgs([g1, g2], ("a", "b"))
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


def _may_begin_after(cnf):
    """node -> the terminals (None for a word's start) that may come right
    before it in a word of the start, by a naive fixpoint that rescans
    every binary rule A -> B C until nothing changes: A's words end as C's
    do, B may follow what A may, and C may follow a last terminal of B."""
    last = {a: set(syms) for a, syms in cnf.term_bodies.items()}
    before = {cnf.start: {None}}
    changed = True
    while changed:
        changed = False
        for a, b, c in cnf.binary:
            for sets, x, got in ((last, a, last.get(c, ())),
                                 (before, b, before.get(a, ())),
                                 (before, c, last.get(b, ()))):
                if not set(got) <= sets.get(x, set()):
                    sets.setdefault(x, set()).update(got)
                    changed = True
    return before


def _pruned_chart(cnf, w, masks):
    """(masks, live, allow) of a full chart of w with the row of each node
    cut to allow, the start positions i where it may begin after w[i-1]
    (None at i = 0), as `cfg._cyk_masks` charts."""
    before = _may_begin_after(cnf)
    n = len(w)
    allows = [sum(1 << i for i in range(n + 1)
                  if (w[i - 1] if i else None) in before.get(a, ()))
              for a in range(cnf.size)]
    pruned = [[row & allow for row in masks[a]] for a, allow in enumerate(allows)]
    return (pruned, [[l for l in range(1, n + 1) if row[l]] for row in pruned],
            allows)


def _random_nfa(rng):
    states = range(rng.randint(1, 3))
    trans = [(p, sym, q) for p in states for sym in ("a", "b") for q in states
             if rng.random() < 0.4]
    return Nfa(states, ("a", "b"), trans, [0],
               [q for q in states if rng.random() < 0.5])


def test_membership_matches_enumeration_on_random_grammars():
    rng = random.Random(123)
    words = all_words(("a", "b"), 6, minlen=0)
    identity = Transducer.letter_map({"a": ("a",), "b": ("b",)})
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
    # the independent witness is the reference lightest-derivation pass over
    # the lowering, which does not ask derives_epsilon
    low = cfglib.lowered_of(g)
    assert (knuth_reference.lightest(low).get(low.start) == (0, ())) == eps
    assert (cfglib.shortest_word(g) is None) == (g.start not in productive)
    gn = cfglib.normalize(g)
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
    gn = cfglib.normalize(g)
    assert gn.productions == ()
    assert gn.nonterminals == ("C0",)
    assert cfglib.shortest_word(gn) is None
    assert passes >= k  # listed against the chain: one head per naive pass


def test_bisimilar_nodes_merge_on_product_tables(free2):
    # products carry one nonterminal per state pair, and most copies derive
    # the same words; free2's table is no product and merges nothing
    def sizes(g):
        return (cfglib.lowered_of(cfglib.normalize(g)).size,
                cfglib.cnf_of(g).size)

    assert sizes(fixtures.bicyclic().table) == (119, 40)
    rees = _generic_twin(fixtures.rees())
    assert sizes(rees.table) == (294, 114)
    assert sizes(normalize_generators(rees).table)[1] <= 128
    assert sizes(free2.table) == (15, 15)


def test_bisimilar_cycles_merge():
    # T and Q derive the same words through cycles of their own, so only a
    # greatest fixpoint merges them: merging nodes whose bodies agree once
    # their children are merged never starts on a cycle
    g = Cfg(["S", "T", "Q"], ("a", "#2"), "S",
            [("S", ("T", "Q")), ("T", ("a", "T", "a")), ("T", ("#2",)),
             ("Q", ("a", "Q", "a")), ("Q", ("#2",))])
    cnf = cfglib.cnf_of(g)
    assert cnf.ids["T"] == cnf.ids["Q"]
    # S, the block of T and Q, the wrapper of a and the split node of a T a
    assert cnf.size == 4
    expected = {("a",) * n + ("#2",) + ("a",) * (n + m) + ("#2",) + ("a",) * m
                for n in range(3) for m in range(3)}
    for w in all_words(("a", "#2"), 7):
        assert cfglib.membership(g, w) == (w in expected), w


def test_merging_tells_apart_nodes_that_lose_a_pair():
    # u and w share one pair of blocks until A1 leaves the block of the
    # five bisimilar Bj: u keeps a rule into that block, w loses its only
    # one, so the two part although both gain the same pair
    bs = [f"B{j}" for j in range(1, 6)]
    cs = [f"C{j}" for j in range(1, 6)]
    prods = [("S", ("u", "b")), ("S", ("w", "c")),
             ("u", ("A1", "a")), ("u", ("B1", "a")), ("w", ("A1", "a")),
             ("A0", ("a", "A1")), ("A1", ("a", "A2")),
             ("A2", ("b", "A0")), ("A2", ("c",))]
    for b, c in zip(bs, cs):
        prods += [("S", (b, "b")), (b, ("a", c)), (c, ("a", b)), (c, ("b",))]
    g = Cfg(["S", "u", "w", "A0", "A1", "A2"] + bs + cs, ("a", "b", "c"),
            "S", prods)
    cnf = cfglib.cnf_of(g)
    assert cnf.ids["u"] != cnf.ids["w"]
    assert len({cnf.ids[b] for b in bs}) == 1
    assert cfglib.membership(g, ("a", "b", "a", "b"))  # S -> u b, u -> B1 a
    assert not cfglib.membership(g, ("a", "b", "a", "c"))
