import random

from conftest import all_words
from equivalence_reference import equivalent
from whsg import cfg as cfglib
from whsg.nfa import Nfa
from whsg.words import SEP1, SEP2


def test_membership_full_language():
    n = Nfa.universal_nonempty(("a", "b"))
    assert n.accepts(("a", "b"))
    assert not n.accepts(())


def test_membership_rejects_unknown_symbols():
    n = Nfa.universal_nonempty(("a", "b"))
    assert not n.accepts(("a", "z"))


def test_membership_finite_fixture_language(rees):
    assert rees.reps.accepts(("b", "e", "d"))
    assert rees.reps.accepts(("d", "e", "b"))
    assert not rees.reps.accepts(("e",))
    assert not rees.reps.accepts(("b", "e"))


def test_reversal_single_word():
    n = Nfa.from_words([("a", "b")], ("a", "b"))
    r = n.reverse()
    assert r.accepts(("b", "a"))
    assert not r.accepts(("a", "b"))


def test_equivalence_free2_reps(free2):
    ok, counter = equivalent(free2.reps, Nfa.universal_nonempty(("a", "b")))
    assert ok and counter is None


def test_equivalence_detects_difference():
    a = Nfa.universal_nonempty(("a", "b"))
    b = Nfa.universal(("a", "b"))
    ok, counter = equivalent(a, b)
    assert not ok
    assert counter == ()


def test_equivalence_counterexample_follows_the_first_alphabet():
    # other - self is {a, b}, and other declares b first: the counterexample
    # is least in the joint order, self's alphabet and then other's
    none = Nfa.from_words([], ("a", "b"))
    both = Nfa.from_words([("a",), ("b",)], ("b", "a"))
    assert equivalent(none, both) == (False, ("a",))
    assert equivalent(both, none) == (False, ("b",))


def test_an_automaton_keeps_one_grammar():
    a = Nfa.universal_nonempty(("a", "b"))
    assert cfglib.Cfg.from_nfa(a) is cfglib.Cfg.from_nfa(a)


def test_emptiness_witness_of_intersection():
    # words over {a,b} ending in b, intersected with words starting with a
    ends_b = Nfa(["p", "q"], ("a", "b"),
                 [("p", "a", "p"), ("p", "b", "p"), ("p", "b", "q")], ["p"], ["q"])
    starts_a = Nfa(["p", "q"], ("a", "b"),
                   [("p", "a", "q"), ("q", "a", "q"), ("q", "b", "q")], ["p"], ["q"])
    expected = [w for w in all_words(("a", "b"), 2)
                if w[-1] == "b" and w[0] == "a"]
    assert min(expected, key=lambda w: (len(w), w)) == ("a", "b")
    # the product is the closure's: one automaton read as its grammar
    assert cfglib.least_word(cfglib.Cfg.from_nfa(ends_b), starts_a) == ("a", "b")


def test_shortest_word_is_minimal_and_lex_least():
    words = [("b", "a"), ("a", "b"), ("a", "a", "a")]
    n = Nfa.from_words(words, ("a", "b"))
    assert n.alphabet == ("a", "b")
    assert n.shortest_word() == ("a", "b")
    empty = Nfa.from_words([], ("a", "b"))
    assert empty.shortest_word() is None


def test_shortest_word_respects_declared_order():
    words = [("b",), ("a",)]
    n = Nfa.from_words(words, alphabet=("b", "a"))
    assert n.shortest_word() == ("b",)


def _random_nfa(rng, n_states=3):
    states = [f"s{i}" for i in range(n_states)]
    trans = []
    for _ in range(rng.randint(2, 7)):
        trans.append((rng.choice(states), rng.choice("ab"), rng.choice(states)))
    initial = rng.sample(states, rng.randint(1, 2))
    accepting = rng.sample(states, rng.randint(1, n_states))
    return Nfa(states, ("a", "b"), trans, initial, accepting)


def test_algebra_agrees_with_enumeration():
    rng = random.Random(20240811)
    words = [()] + all_words(("a", "b"), 6)
    for _ in range(30):
        x = _random_nfa(rng)
        y = _random_nfa(rng)
        # the intersection is the grammar product's, which drops the
        # empty word
        inter = cfglib.intersect_regular(cfglib.Cfg.from_nfa(x), y)
        assert cfglib.enumerate_words(inter, 6) == [
            w for w in words if w and x.accepts(w) and y.accepts(w)]
        assert cfglib.least_word(cfglib.Cfg.from_nfa(x), y) == cfglib.shortest_word(inter)
        union = x.union(y)
        comp = x.complement(("a", "b"))
        rev = x.reverse()
        for w in words:
            assert union.accepts(w) == (x.accepts(w) or y.accepts(w))
            assert comp.accepts(w) == (not x.accepts(w))
            assert rev.accepts(w) == x.accepts(tuple(reversed(w)))
        # differences, read through the lazy complement; words are listed
        # in shortlex order, and every difference of these seeded pairs that
        # is nonempty holds a word of length at most 3, so the lists find
        # the least one
        x_y = [w for w in words if x.accepts(w) and not y.accepts(w)]
        y_x = [w for w in words if y.accepts(w) and not x.accepts(w)]
        counter = (x_y or y_x or [None])[0]
        assert equivalent(x, y) == (counter is None, counter)
        nonempty = [w for w in x_y if w]
        got = cfglib.least_word(cfglib.Cfg.from_nfa(x), y.complement(("a", "b")))
        assert got == (nonempty[0] if nonempty else None)
        # joined: two and three parts, a word checked by splitting it at
        # its separators
        for parts, seps, maxlen in (((x, y), (SEP1,), 6),
                                    ((x, y, _random_nfa(rng)), (SEP1, SEP2), 5)):
            joined = Nfa.joined(parts, seps)
            for w in [()] + all_words(("a", "b") + seps, maxlen):
                pieces = _split_at(w, seps)
                expect = pieces is not None and all(
                    p.accepts(piece) for p, piece in zip(parts, pieces))
                assert joined.accepts(w) == expect


def _split_at(w, seps):
    """The pieces of w between its separators, if those are seps in order."""
    pieces, cur, got = [], [], []
    for s in w:
        if s in seps:
            pieces.append(tuple(cur))
            got.append(s)
            cur = []
        else:
            cur.append(s)
    pieces.append(tuple(cur))
    return pieces if tuple(got) == tuple(seps) else None


def test_joined_names_states_by_part():
    # a #1 b* #2 (empty or c): state q of part i is (2i, q) and separator
    # i - 1 leads into (2i - 1,), which accepts as part i accepts the empty
    # word; repr puts the parts in order
    a = Nfa.from_words([("a",)], ("a",))
    bs = Nfa(["s"], ("b",), [("s", "b", "s")], ["s"], ["s"])
    c = Nfa.from_words([(), ("c",)], ("c",))
    joined = Nfa.joined((a, bs, c), (SEP1, SEP2))
    assert joined.alphabet == ("a", SEP1, "b", SEP2, "c")
    assert joined.initial == {(0, "q0")}
    assert joined.accepting == {(3,), (4, "q0"), (4, "q1")}
    assert joined.transitions[((0, "q1"), SEP1)] == {(1,)}
    assert joined.transitions[((1,), SEP2)] == {(3,)}
    assert joined.transitions[((3,), "c")] == {(4, "q1")}
    order = sorted(joined.states, key=repr)
    assert [q[0] for q in order] == sorted(q[0] for q in joined.states)
    assert joined.accepts(("a", SEP1, SEP2))
    assert joined.accepts(("a", SEP1, "b", "b", SEP2, "c"))
    assert not joined.accepts(("a", SEP1, "b"))


def test_shortest_word_on_random_nfas_matches_enumeration():
    rng = random.Random(7)
    words = [()] + all_words(("a", "b"), 6)
    for _ in range(40):
        x = _random_nfa(rng)
        got = x.shortest_word()
        accepted = [w for w in words if x.accepts(w)]
        if not accepted:
            # a 3-state machine with a nonempty language accepts a word of
            # length at most 2
            assert got is None
        else:
            assert got == min(accepted, key=lambda w: (len(w), w))


def _reach(x, sources, forward=True):
    """The states reachable from sources along x's arcs, or against them."""
    arcs = [(p, q) if forward else (q, p)
            for (p, _s), qs in x.transitions.items() for q in qs]
    seen, todo = set(sources), list(sources)
    while todo:
        p = todo.pop()
        for src, dst in arcs:
            if src == p and dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return seen


def test_grammar_view_matches_brute_force():
    # shortest_word and enumerate_words read the automaton as a grammar with
    # int nonterminals: checked against accepts on every short word, over
    # automata with states named like the letters, several initial states,
    # an accepted empty word, dead or unreachable states and no accepting one
    rng = random.Random(2025)
    seen = dict.fromkeys(("several initial", "empty word", "dead",
                          "unreachable", "no accepting", "letter-named"), 0)
    for _ in range(300):
        states = ["a", "b", 0, ("c",), "s"][:rng.randint(1, 5)]
        trans = [(p, sym, q) for p in states for sym in "ab" for q in states
                 if rng.random() < 0.25]
        x = Nfa(states, ("a", "b"), trans,
                rng.sample(states, rng.randint(1, min(3, len(states)))),
                rng.sample(states, rng.randint(0, len(states))))
        reached = _reach(x, x.initial)
        seen["several initial"] += len(x.initial) > 1
        seen["empty word"] += bool(x.initial & x.accepting)
        seen["dead"] += bool(reached - _reach(x, x.accepting, forward=False))
        seen["unreachable"] += bool(set(states) - reached)
        seen["no accepting"] += not x.accepting
        seen["letter-named"] += "a" in states
        order = rng.choice((("a", "b"), ("b", "a")))
        x = Nfa(states, order, trans, x.initial, x.accepting)
        maxlen = len(states) + 1
        key = lambda w: (len(w), [order.index(s) for s in w])
        accepted = sorted((w for w in [()] + all_words(order, maxlen)
                           if x.accepts(w)), key=key)
        assert x.enumerate_words(maxlen) == accepted
        # a shortest accepted word is shorter than the number of states
        assert x.shortest_word() == (accepted[0] if accepted else None)
    assert all(seen.values()), seen


def test_enumerate_words(free2):
    got = free2.reps.enumerate_words(3)
    assert got == all_words(("a", "b"), 3)
