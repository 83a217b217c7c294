import functools
import itertools
import random
import re

import pytest

import palindrome_reference
import species_reference
from conftest import all_words
from equivalence_reference import equivalent
from species_enumeration import (TooManySpecies, _free_semilattice,
                                 enumerate_clifford_species,
                                 enumerate_cs_species, first_accepted)
from test_differential import _generic_twin
from test_multirep import TABLES as REDUNDANT_TABLES, redundant_structure
from whsg import cfg as cfglib
from whsg import fixtures, structural
from whsg.arithmetic import check_multiply, multiply, word_eq
from whsg.basic import green_related, is_commutative, is_group, is_monoid
from whsg.cfg import Cfg
from whsg.errors import OperandError
from whsg.oracle import (NAMED_TABLES, FiniteSemigroup, direct_product,
                         small_semigroups, structure_from_table, table_decide)
from whsg.nfa import Nfa
from whsg.structural import (CsSpecies, Defect, _band_automaton, _slot_deleter,
                             _three_slot_map, clifford_species_check,
                             cs_species_check, is_clifford,
                             is_completely_simple, is_free, palindromic_defect)
from whsg.structure import (Verdict, WhStructure, dumps_structure,
                            load_structure, normalize_generators)
from whsg.transducer import Transducer
from whsg.words import SEP1, SEP2


# -- species enumeration --------------------------------------------------------


def _surjections_up_to_renaming(n):
    """Directly enumerate maps from an n-set onto initial segments, counted
    up to renaming the image: canonical first-occurrence labelings."""
    seen = set()
    for k in range(1, n + 1):
        for f in itertools.product(range(k), repeat=n):
            if set(f) != set(range(k)):
                continue
            relabel = {}
            canon = []
            for v in f:
                relabel.setdefault(v, len(relabel))
                canon.append(relabel[v])
            seen.add(tuple(canon))
    return seen


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cs_species_count_matches_direct_enumeration(n):
    alphabet = tuple("abc"[:n])
    species = enumerate_cs_species(alphabet)
    direct = _surjections_up_to_renaming(n)
    assert len(species) == len(direct) ** 2
    assert len(set(species)) == len(species)
    rows = {sp.rows for sp in species}
    assert rows == direct


def test_clifford_species_on_two_letters_cover_all_congruences():
    species = enumerate_clifford_species(("a", "b"))
    # congruences of the 3-element free semilattice {a, b, ab}: trivial,
    # collapse ab into a, collapse ab into b, collapse everything
    assert len(species) == 4
    sizes = sorted(len(sp.meet) for sp in species)
    assert sizes == [1, 2, 2, 3]


def test_clifford_species_cap():
    with pytest.raises(TooManySpecies):
        enumerate_clifford_species(("a", "b", "c"), max_species=2)


def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[head] + smaller[i]] + smaller[i + 1:]
        yield [[head]] + smaller


@pytest.mark.parametrize("n", [1, 2, 3])
def test_congruence_enumeration_matches_brute_force(n):
    # oracle: every partition of the free semilattice, kept iff compatible
    # with the union operation
    elements, meet = _free_semilattice(n)
    size = len(elements)
    compatible = set()
    for blocks in _set_partitions(range(size)):
        cls = [0] * size
        for label, block in enumerate(blocks):
            for x in block:
                cls[x] = label
        ok = all(cls[meet[x][z]] == cls[meet[y][z]]
                 for x in range(size) for y in range(size)
                 if cls[x] == cls[y] for z in range(size))
        if ok:
            canon = {}
            for x in range(size):
                canon.setdefault(cls[x], len(canon))
            compatible.add(tuple(canon[c] for c in cls))
    alphabet = tuple("abc"[:n])
    species = enumerate_clifford_species(alphabet)
    assert len(species) == len(compatible)


# -- species checks ---------------------------------------------------------------


def _species_bands():
    """(letters, keys, place, mul) of every CS species over two and three
    letters and every Clifford species over two, as the checks read them."""
    bands = []
    for n in (2, 3):
        for sp in enumerate_cs_species(tuple("abc"[:n])):
            bands.append((sp.letters,
                          [(i, lam) for i in sp.row_ids for lam in sp.col_ids],
                          lambda a, sp=sp: (sp.row_of(a), sp.col_of(a)),
                          lambda x, y: (x[0], y[1])))
    for sp in enumerate_clifford_species(("a", "b")):
        bands.append((sp.letters, list(sp.elements()), sp.place, sp.meet_of))
    return bands


def test_band_automaton_accepts_the_words_of_its_cell():
    # brute force: a word lies in the cell its letters' places multiply out to
    for letters, keys, place, mul in _species_bands():
        words = all_words(letters, 4)
        product = {w: functools.reduce(mul, map(place, w)) for w in words}
        for x in keys:
            nfa = _band_automaton(letters, keys, place, mul, (x,))
            assert ({w for w in words if nfa.accepts(w)}
                    == {w for w in words if product[w] == x}), (keys, x)
        # several targets, as the escape slots of _cells take every cell
        # but one: the nonempty words of any of them, and no others
        for targets in ([y for y in keys if y != keys[0]], keys, []):
            nfa = _band_automaton(letters, keys, place, mul, targets)
            assert ({w for w in words if nfa.accepts(w)}
                    == {w for w in words if w and product[w] in targets}), (keys, targets)


def test_cs_species_check_rb22(rb22):
    correct = CsSpecies(rb22.alphabet, (0, 1), (0, 1))
    assert cs_species_check(rb22, correct)
    merged_rows = CsSpecies(rb22.alphabet, (0, 0), (0, 1))
    v = cs_species_check(rb22, merged_rows)
    assert not v
    # the escape shows up at the unit checks, not at the cell-product check:
    # products stay in the predicted column regardless of the row map
    assert "step 5" in v.reason


def test_cs_species_check_group_with_trivial_indexes(z2):
    assert cs_species_check(z2, CsSpecies(z2.alphabet, (0, 0), (0, 0)))


def test_clifford_species_check_examples(sl2, z2, rb22):
    chain = next(sp for sp in enumerate_clifford_species(sl2.alphabet)
                 if len(sp.meet) == 2
                 and sp.place("1") != sp.place("e")
                 and sp.ge(sp.place("1"), sp.place("e")))
    assert clifford_species_check(sl2, chain)
    trivial = next(sp for sp in enumerate_clifford_species(z2.alphabet)
                   if len(sp.meet) == 1)
    assert clifford_species_check(z2, trivial)
    for sp in enumerate_clifford_species(rb22.alphabet):
        assert not clifford_species_check(rb22, sp)


def test_is_completely_simple(rb22, z2, sl2):
    v = is_completely_simple(rb22)
    assert v and "rows x11|x22" in v.reason
    assert is_completely_simple(z2)
    assert not is_completely_simple(sl2)


def test_is_clifford(sl2, null3, z2):
    assert is_clifford(sl2)
    assert not is_clifford(null3)
    assert is_clifford(z2)


def test_species_checks_reverse_each_escaped_cell_once(monkeypatch):
    # step 2 asks k^2 slot queries whose right slot is an escaped cell: a
    # flat table reverses none, a generic one each cell at most once
    built = []
    reverse = Nfa.reverse

    def counted(self):
        if self._reversed is None:
            built.append(self)
        return reverse(self)

    monkeypatch.setattr(Nfa, "reverse", counted)
    for s in (fixtures.rb22(), _generic_twin(fixtures.rb22())):
        built.clear()
        assert is_completely_simple(s)
        assert len({id(a) for a in built}) == len(built)
        assert len(built) <= (0 if s.table.flat_words else 4)
    assert built


def test_clifford_labels_of_distinct_classes_are_distinct():
    # the free semilattice on generators named a, ab and b: labels joined
    # without a separator would name both {ab} and {a,b} ab, and the two
    # classes would share one witness key
    gens = ("a", "ab", "b")
    subsets = [frozenset(c) for k in (1, 2, 3)
               for c in itertools.combinations(gens, k)]
    names = ["+".join(sorted(x)) for x in subsets]
    rows = [[names[subsets.index(x | y)] for y in subsets] for x in subsets]
    s = structure_from_table(FiniteSemigroup.from_rows(names, rows, gens))
    v = is_clifford(s)
    assert v and v.reason.startswith("semilattice of 7 classes")
    assert len(v.witnesses) == 7
    assert {"idempotent_ab", "idempotent_a,b"} <= set(v.witnesses)
    for w in v.witnesses.values():
        assert check_multiply(s, w, w, w)
    assert not any(word_eq(s, u, w) for u, w in
                   itertools.combinations(v.witnesses.values(), 2))


def test_species_checks_match_oracle_on_small_tables():
    # an accepted species certifies the property, and some species is
    # accepted exactly when the oracle confirms it
    for t in small_semigroups(3):
        s = structure_from_table(t)
        want_cs = table_decide(t, "completely-simple").answer == "yes"
        accepted = [sp for sp in enumerate_cs_species(s.alphabet)
                    if cs_species_check(s, sp)]
        assert bool(accepted) == want_cs, t.elements
        assert is_completely_simple(s).answer == ("yes" if want_cs else "no")
        want_cl = table_decide(t, "clifford").answer == "yes"
        accepted_cl = [sp for sp in enumerate_clifford_species(s.alphabet)
                       if clifford_species_check(s, sp)]
        assert bool(accepted_cl) == want_cl, t.elements
        assert is_clifford(s).answer == ("yes" if want_cl else "no")


def _species_corpus():
    """The order <= 3 corpus, the named tables, the products the flat
    benchmark draws (in both factor orders) and rb22 x rb22."""
    tables = [(f"order{len(t.elements)}-{i}", t)
              for i, t in enumerate(small_semigroups(3))]
    tables += [(name, make()) for name, make in NAMED_TABLES.items()]
    pairs = (("z2", "z2"), ("z2", "sl2"), ("z2", "rb22"), ("z2", "null3"),
             ("z2", "rees"), ("sl2", "sl2"), ("sl2", "rb22"), ("sl2", "null3"))
    for a, b in sorted({p for pair in pairs for p in (pair, pair[::-1])}):
        tables.append((f"{a}x{b}", direct_product(NAMED_TABLES[a](),
                                                   NAMED_TABLES[b]())))
    tables.append(("rb22xrb22", direct_product(NAMED_TABLES["rb22"](),
                                               NAMED_TABLES["rb22"]())))
    return [(label, structure_from_table(t)) for label, t in tables]


@pytest.mark.parametrize("prop,decide", [("completely-simple", is_completely_simple),
                                         ("clifford", is_clifford)])
def test_derived_species_match_first_enumerated(prop, decide):
    for label, s in _species_corpus():
        want, got = first_accepted(s, prop), decide(s)
        assert (got.answer, got.witnesses) == (want.answer, want.witnesses), label
        if got:
            assert got.reason == want.reason, label


def _both_cell_phases(monkeypatch, run, make):
    """run(make()) with `structural._cells`, then run(make()) again with the
    product-automaton phase of `species_reference` in its place; each run
    gets a structure of its own, so no cache is shared."""
    got = run(make())
    with monkeypatch.context() as m:
        m.setattr(structural, "_cells", species_reference.cells)
        want = run(make())
    return got, want


def _verdicts(verdicts):
    return [(v.answer, v.reason, v.witnesses) for v in verdicts]


@pytest.mark.parametrize("enumerate_species,check", [
    (enumerate_cs_species, cs_species_check),
    (enumerate_clifford_species, clifford_species_check)])
def test_species_checks_match_the_product_cell_reference(monkeypatch,
                                                         enumerate_species, check):
    # every species the enumeration gives for the order <= 3 corpus and the
    # named tables, 41,209 of them for rees's six generators; rees has too
    # many semilattice species to enumerate
    tables = list(small_semigroups(3)) + [make() for make in NAMED_TABLES.values()]
    for t in tables:
        try:
            species = enumerate_species(structure_from_table(t).alphabet)
        except TooManySpecies:
            continue

        def run(s):
            return _verdicts(check(s, sp) for sp in species)
        got, want = _both_cell_phases(monkeypatch, run,
                                      functools.partial(structure_from_table, t))
        assert got == want, t.elements


# the fixtures, the generic twins of rb22, sl2, rees and free2c, and the
# structures with redundant representatives, each by its constructor
SPECIES_STRUCTURES = {
    **fixtures.NAMED,
    **{f"{name}-twin": lambda name=name: _generic_twin(fixtures.NAMED[name]())
       for name in ("rb22", "sl2", "rees", "free2c")},
    **{f"{name}-redundant": lambda table=table: redundant_structure(table())
       for name, table in REDUNDANT_TABLES.items()}}


@pytest.mark.parametrize("name", SPECIES_STRUCTURES)
def test_species_procedures_match_the_product_cell_reference(monkeypatch, name):
    def run(s):
        return _verdicts((is_completely_simple(s), is_clifford(s)))
    got, want = _both_cell_phases(monkeypatch, run, SPECIES_STRUCTURES[name])
    assert got == want


def test_species_checks_normalize_the_representatives_grammar_once(monkeypatch):
    # the automaton keeps its grammar, so the Clifford check's cell picks
    # read the normal form that the completely simple check's wrote
    s = _generic_twin(fixtures.NAMED["z2"]())
    reps = Cfg.from_nfa(normalize_generators(s).reps)
    asked, written = [], []
    original = cfglib.normalize

    def counting(g):
        if g == reps:
            asked.append(g)
            if g._normal is None:
                written.append(g)
        return original(g)
    monkeypatch.setattr(cfglib, "normalize", counting)
    assert is_completely_simple(s).answer == "yes"
    assert is_clifford(s).answer == "yes"
    assert len(asked) >= 2 and len(written) == 1


_TWO_CLASSES = re.compile(r"classes \{([^}]*)\} and \{([^}]*)\} join to \{")
_THREE_CLASSES = re.compile(r"classes \{([^}]*)\}, \{([^}]*)\} and \{([^}]*)\} "
                            r"join to \{[^}]*\} through \{([^}]*)\} and to "
                            r"\{[^}]*\} through \{([^}]*)\}")


def _t2_table():
    """The full transformation monoid on two points, (f g)(i) = f(g(i)),
    generated by the swap t10 and the constants t00 and t11: its joins of
    classes commute but do not associate."""
    maps = [(1, 0), (0, 0), (1, 1), (0, 1)]
    names = ["t" + "".join(map(str, f)) for f in maps]
    rows = [[names[maps.index(tuple(f[i] for i in g))] for g in maps]
            for f in maps]
    return FiniteSemigroup.from_rows(names, rows, names[:3])


def test_clifford_refutations_recheck_with_green_relations():
    # a refutation names classes by their labels; joining the words of those
    # labels letter by letter, the two sides it compares are not H-related
    def product(ns, letters):
        word = (letters[0],)
        for a in letters[1:]:
            word = multiply(ns, word, (a,))
        return word

    found = {"commute": 0, "associate": 0}
    corpus = _species_corpus() + [("t2", structure_from_table(_t2_table()))]
    for label, s in corpus:
        v = is_clifford(s)
        if "join to" not in v.reason:
            continue
        assert not v, label
        ns = normalize_generators(s)
        m = _TWO_CLASSES.match(v.reason)
        if m is not None:
            found["commute"] += 1
            c, d = (m.group(k).split(",") for k in (1, 2))
            sides = c + d, d + c
        else:
            m = _THREE_CLASSES.match(v.reason)
            assert m is not None, (label, v.reason)
            found["associate"] += 1
            c, d, e, cd, de = (m.group(k).split(",") for k in range(1, 6))
            sides = cd + e, c + de
        left, right = (product(ns, side) for side in sides)
        assert not green_related(ns, left, right, "H"), (label, v.reason)
    # rb22 x sl2 and sl2 x rb22 fail to commute, t2 to associate
    assert found["commute"] and found["associate"], found


# -- palindromic defects -------------------------------------------------------------


def _mirror_grammar():
    return Cfg(["P"], ("a", "b", SEP2), "P",
               [("P", ("a", "P", "a")), ("P", ("b", "P", "b")),
                ("P", ("a", SEP2, "a")), ("P", ("b", SEP2, "b"))])


def test_palindromic_table_has_no_defect():
    assert palindromic_defect(_mirror_grammar()) is None


def test_letter_mismatch_defect():
    g = Cfg(["O"], ("a", "b", SEP2), "O", [("O", ("a", SEP2, "b"))])
    d = palindromic_defect(g)
    assert isinstance(d, Defect)
    assert d.witness == ("a", SEP2, "b")


def test_offset_inconsistency_defect():
    g = Cfg(["O"], ("a", SEP2), "O",
            [("O", ("a", "O", "a")), ("O", ("a", SEP2, "a", "a"))])
    d = palindromic_defect(g)
    assert d is not None
    assert d.witness == ("a", SEP2, "a", "a")


def test_pumping_defect():
    g = Cfg(["O", "Y"], ("a", SEP2), "O",
            [("O", ("Y", SEP2, "a")), ("Y", ("a", "Y")), ("Y", ("a",))])
    d = palindromic_defect(g)
    assert d is not None and "two different words" in d.reason
    assert d.witness is not None


def test_deep_chain_has_no_defect():
    # S -> P0 #2 P0, Pi -> a P(i+1), P2999 -> a: deeper than the interpreter's
    # recursion limit, and every member a^3000 #2 a^3000 is palindromic
    chain = [f"P{i}" for i in range(3000)]
    prods = [("S", ("P0", SEP2, "P0")), (chain[-1], ("a",))]
    prods += [(x, ("a", y)) for x, y in zip(chain, chain[1:])]
    g = Cfg(["S"] + chain, ("a", SEP2), "S", prods)
    assert palindromic_defect(g) is None
    # Qi -> a Q(i+1) a, Q2999 -> #2: the separator sits 3000 rules deep, and
    # a b before it shifts one side
    chain = [f"Q{i}" for i in range(3000)]
    prods = [(x, ("a", y, "a")) for x, y in zip(chain, chain[1:])]
    g = Cfg(chain, ("a", SEP2), "Q0", prods + [(chain[-1], (SEP2,))])
    assert palindromic_defect(g) is None
    g = Cfg(chain, ("a", "b", SEP2), "Q0", prods + [(chain[-1], ("b", SEP2))])
    assert "shifts one side" in palindromic_defect(g).reason


def test_defect_precondition_enforced():
    # two separators; the empty word, flat and behind a unit rule
    cases = [
        Cfg(["O"], ("a", SEP2), "O", [("O", ("a", SEP2, "a", SEP2, "a"))]),
        Cfg(["O"], ("a", SEP2), "O", [("O", ()), ("O", ("a", SEP2, "a"))]),
        Cfg(["O", "X"], ("a", SEP2), "O",
            [("O", ("X",)), ("X", ()), ("X", ("a", SEP2, "a"))]),
    ]
    for g in cases:
        with pytest.raises(OperandError):
            palindromic_defect(g)


def test_empty_word_is_rejected_before_any_product(monkeypatch):
    def no_product(*args):
        raise AssertionError("a product was built")

    for name in ("intersect_regular", "least_word", "_product_grammar"):
        monkeypatch.setattr(cfglib, name, no_product)
    g = Cfg(["O", "X"], ("a", SEP2), "O",
            [("O", ("X",)), ("X", ()), ("X", ("a", SEP2, "a"))])
    with pytest.raises(OperandError, match="''"):
        palindromic_defect(g)


def test_defect_witnesses_are_members():
    cases = [
        Cfg(["O"], ("a", "b", SEP2), "O", [("O", ("a", "b", SEP2, "a", "b"))]),
        Cfg(["O", "X"], ("a", "b", SEP2), "O",
            [("O", ("X",)), ("X", ("b", SEP2, "a"))]),
    ]
    for g in cases:
        d = palindromic_defect(g)
        assert d is not None and d.witness is not None
        assert cfglib.membership(g, d.witness)
        i = d.witness.index(SEP2)
        assert d.witness[:i] != tuple(reversed(d.witness[i + 1:]))


def _random_mirror_grammar(rng):
    """A grammar over {a, b, #2} inside A*#2A*: up to four separator-bearing
    nonterminals M0 (the start) to M3, each body p #2 t or p Mj t, and up to
    three separator-free ones P0 to P2 with bodies over a, b and the Pi,
    epsilon included; p and t mix letters and the Pi."""
    plain = [f"P{i}" for i in range(rng.randint(0, 3))]
    marked = [f"M{i}" for i in range(rng.randint(1, 4))]

    def side(n):
        return tuple(rng.choice(("a", "b") + tuple(plain)) for _ in range(n))

    prods = []
    for x in plain:
        for _ in range(rng.randint(1, 3)):
            prods.append((x, side(rng.randint(0, 2))))
    for x in marked:
        for _ in range(rng.randint(1, 3)):
            pivot = rng.choice((SEP2,) + tuple(marked))
            prods.append((x, side(rng.randint(0, 2)) + (pivot,)
                          + side(rng.randint(0, 2))))
    return Cfg(marked + plain, ("a", "b", SEP2), "M0", prods)


def test_defect_matches_the_splicing_reference():
    # the reference splices every word of each separator-free nonterminal
    # into the bodies that use it, which two letters nested three deep keep
    # small; its witness search is exponential in the bound and is skipped
    rng = random.Random(7)
    defects = 0
    for _ in range(1000):
        g = _random_mirror_grammar(rng)
        want = palindrome_reference.palindromic_defect(g, witness_bound=0)
        got = palindromic_defect(g)
        assert (got is None) == (want is None), g.productions
        if got is not None:
            defects += 1
            assert cfglib.membership(g, got.witness), (g.productions, got)
            i = got.witness.index(SEP2)
            assert got.witness[:i] != tuple(reversed(got.witness[i + 1:])), (
                g.productions, got)
    assert 300 < defects < 900


# -- freeness ----------------------------------------------------------------------


def test_is_free_free2(free2):
    assert is_free(free2)


def test_is_free_null3(null3):
    v = is_free(null3)
    assert not v
    assert "decomposes" in v.reason


def test_is_free_eliminates_redundant_letters(free2c):
    v = is_free(free2c)
    assert v
    assert v.witnesses == {"decomposition_c": ("a", "b")}


def test_is_free_no_on_finite_tables(z2, sl2, rb22, rees):
    for s in (z2, sl2, rb22, rees):
        assert not is_free(s)


def _is_free_by_slot_shape(s):
    """Reference is_free: each decomposition is read off the table words
    cut down to the slot shape reps #1 reps #2 a first."""
    ns = normalize_generators(s)
    alphabet = list(ns.alphabet)
    reps = ns.reps
    table = ns.table
    eliminated = {}
    for a in list(alphabet):
        shape = Nfa.joined((reps, reps, Nfa.from_words([(a,)], alphabet)),
                           (SEP1, SEP2))
        target = cfglib.intersect_regular(table, shape)
        decomp = _slot_deleter(alphabet, a).apply_to_cfg(target)
        d = cfglib.shortest_word(decomp)
        if d is None:
            continue
        if a in d:
            return Verdict.no("", {f"decomposition_{a}": d})
        eliminated[a] = d
        lmap = {b: (b,) for b in alphabet if b != a}
        reps = reps.substitute({**lmap, a: d})
        table = _three_slot_map(lmap, a, d).apply_to_cfg(table)
        alphabet.remove(a)
    if not alphabet:
        return Verdict.no("")
    ok, counter = equivalent(reps, Nfa.universal_nonempty(alphabet))
    if not ok:
        return Verdict.no("", {} if counter is None else {"counterexample": counter})
    proj = Transducer.letter_map(
        {**{b: (b,) for b in alphabet}, SEP1: (), SEP2: (SEP2,)})
    defect = palindromic_defect(proj.apply_to_cfg(table))
    if defect is not None:
        return Verdict.no("", {"defect": defect.witness} if defect.witness else {})
    return Verdict.yes({f"decomposition_{a}": d for a, d in eliminated.items()})


def _decide_flat_corpus():
    """The flat tables of the decide-flat benchmark workload: every
    semigroup of order <= 3, the named tables and the products of two named
    tables that need at most four generators, in both factor orders."""
    tables = list(small_semigroups(3)) + [b() for b in NAMED_TABLES.values()]
    pairs = (("z2", "z2"), ("z2", "sl2"), ("z2", "rb22"), ("z2", "null3"),
             ("z2", "rees"), ("sl2", "sl2"), ("sl2", "rb22"), ("sl2", "null3"))
    for x, y in pairs:
        for u, v in ((x, y), (y, x)):
            tables.append(direct_product(NAMED_TABLES[u](), NAMED_TABLES[v]()))
    return [structure_from_table(t) for t in tables]


def test_is_free_matches_the_slot_shape_formula():
    # the table lies in reps #1 reps #2 reps^rev, so cutting it down to the
    # slot shape before the deleter changes no decomposition
    structures = [build() for build in fixtures.NAMED.values()]
    structures += [_generic_twin(s) for s in structures]
    structures += _decide_flat_corpus()
    for s in structures:
        got, want = is_free(s), _is_free_by_slot_shape(s)
        assert (got.answer, got.witnesses) == (want.answer, want.witnesses), s


def test_is_free_eliminates_two_letters_in_a_row(free2):
    # the second elimination substitutes into representatives and a table
    # that the first has already rewritten; in the second alphabet c comes
    # first and its image b a is out of alphabet order
    for alphabet, c, d in ((("a", "b", "c", "d"), ("a", "b"), ("b", "a", "b")),
                           (("c", "a", "b", "d"), ("b", "a"), ("b", "b"))):
        s = WhStructure(alphabet, free2.reps, free2.table,
                        {"a": ("a",), "b": ("b",), "c": c, "d": d})
        v = is_free(s)
        assert v and v.reason == "basis a,b"
        assert v.witnesses == {"decomposition_c": c, "decomposition_d": d}
        want = _is_free_by_slot_shape(s)
        assert (v.answer, v.witnesses) == (want.answer, want.witnesses)


def test_is_free_invariant_under_renaming(free2, free2c, null3):
    for s, mapping in ((free2, {"a": "b", "b": "a"}),
                       (free2c, {"a": "c", "b": "b", "c": "a"}),
                       (null3, {"a": "b", "b": "c", "c": "a"})):
        # the alphabet takes the images' order; the separators stay put
        images = {a: (b,) for a, b in mapping.items()}
        letters = Transducer.letter_map({**images, SEP1: (SEP1,), SEP2: (SEP2,)})
        renamed = WhStructure(
            [mapping[a] for a in s.alphabet], s.reps.substitute(images),
            letters.apply_to_cfg(s.table),
            {mapping[a]: tuple(mapping[x] for x in w)
             for a, w in s.assignment.items()})
        assert is_free(renamed).answer == is_free(s).answer


def test_structures_declared_out_of_alphabet_order_answer_as_their_files(
        free2, free2c, null3):
    # free2c's table leaves out the letter c, and each renamed structure of
    # the renaming test above declares its table and representatives in the
    # old letters' order; the structure declares them again in its
    # alphabet's order, which its written file declares them in
    built = [free2c]
    for s, mapping in ((free2, {"a": "b", "b": "a"}),
                       (free2c, {"a": "c", "b": "b", "c": "a"}),
                       (null3, {"a": "b", "b": "c", "c": "a"})):
        images = {a: (b,) for a, b in mapping.items()}
        letters = Transducer.letter_map({**images, SEP1: (SEP1,), SEP2: (SEP2,)})
        table = letters.apply_to_cfg(s.table)
        reps = s.reps.substitute(images)
        alphabet = [mapping[a] for a in s.alphabet]
        assert table.terminals[:len(alphabet)] != tuple(alphabet)
        built.append(WhStructure(alphabet, reps, table,
                                 {mapping[a]: tuple(mapping[x] for x in w)
                                  for a, w in s.assignment.items()}))
    for s in built:
        loaded = load_structure(dumps_structure(s))
        assert loaded.table.terminals == s.table.terminals
        assert loaded.reps.alphabet == s.reps.alphabet
        for decide in (is_monoid, is_group, is_commutative,
                       is_completely_simple, is_clifford, is_free):
            v, want = decide(s), decide(loaded)
            assert (v.answer, v.witnesses, v.reason) == (
                want.answer, want.witnesses, want.reason), decide
        words = all_words(s.alphabet, 2)
        for p, q in itertools.product(words, repeat=2):
            if s.in_reps(p) and s.in_reps(q):
                assert multiply(s, p, q) == multiply(loaded, p, q)
            assert word_eq(s, p, q) == word_eq(loaded, p, q)
