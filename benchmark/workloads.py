"""The four workloads.

A workload turns a seed into a load (the hashed input data plus the
reference models that judge it) and a load into blocks of operations.  An
operation is one library call: a ``word_eq``, ``represent`` or ``multiply``
query, or one decision procedure.  Library functions are looked up on their
modules when an operation runs, so a traced run sees the wrapped bindings.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field

from whsg import arithmetic, basic, oracle, structural, structure

import inputs
import references

# the CLI's decision procedures and the modules that define them
PROCEDURES = {
    "is_monoid": basic,
    "is_group": basic,
    "is_commutative": basic,
    "green_related": basic,
    "is_completely_simple": structural,
    "is_clifford": structural,
    "is_free": structural,
    "validate_necessary": structure,
}
VALIDATE_DEPTH = 4  # the CLI default


@dataclass
class Op:
    kind: str
    call: object    # () -> result
    check: object   # result -> bool


@dataclass
class Load:
    data: dict                   # everything the library receives; hashed
    models: dict = field(default_factory=dict)

    def structure_texts(self) -> list:
        return list(self.data["structures"].values())


_LOADED = {}


def load(text):
    """A structure in the state ``load_structure(text)`` leaves it in, sharing
    nothing with any other: a deep copy of one load per text.  Copying costs
    a tenth of loading again; neither is timed, but loading made a
    ``decide-generic`` run 8 s longer."""
    if text not in _LOADED:
        _LOADED[text] = structure.load_structure(text)
    return copy.deepcopy(_LOADED[text])


def forget_loaded():
    """Drop the loaded structures, so that none made while tracing is reused."""
    _LOADED.clear()


class Workload:
    """``BLOCK_SECONDS`` is the wall time of one block, set-up of its
    operations and reference checks included, measured on a 2-vCPU virtual
    machine with Python 3.11 when the benchmark was introduced.  It turns
    ``--seconds`` into a fixed number of blocks, at least ``MIN_BLOCKS``, so
    that every run, on every commit, measures the same operations."""

    MIN_BLOCKS = 1


class Free2Cold(Workload):
    """word_eq on free2 at one length, each query on a fresh structure."""

    name = "wordeq-free2-cold"
    BLOCK_SECONDS = 2.5
    LENGTH, TINY_LENGTH = 256, 8
    BLOCKS = 80

    def make_load(self, seed, tiny=False) -> Load:
        rng = random.Random(seed)
        n = self.TINY_LENGTH if tiny else self.LENGTH
        pairs = []
        for _ in range(2 if tiny else self.BLOCKS):
            w = "".join(rng.choice("ab") for _ in range(n))
            flip = rng.randrange(n)
            flipped = w[:flip] + ("a" if w[flip] == "b" else "b") + w[flip + 1:]
            other = "".join(rng.choice("ab") for _ in range(n))
            pairs += [(w, w), (w, flipped), (w, other)]
        text = inputs.text(inputs.permuted(inputs.fixture("free2"), rng))
        return Load({"structures": {"free2": text}, "pairs": pairs})

    def blocks(self, ld: Load) -> list:
        text = ld.data["structures"]["free2"]
        pairs = ld.data["pairs"]

        def block(chunk):
            for w, w2 in chunk:
                s = load(text)
                w, w2 = tuple(w), tuple(w2)
                yield Op("word_eq",
                         lambda s=s, w=w, w2=w2: arithmetic.word_eq(s, w, w2),
                         lambda r, w=w, w2=w2: r is references.free_equal(w, w2))

        return [lambda c=pairs[i:i + 3]: block(c) for i in range(0, len(pairs), 3)]


class BicyclicSession(Workload):
    """Sessions on the bicyclic monoid: one structure answering a stream of
    mixed-length queries.  A block is one session, loaded fresh, so every
    block sees the same cache behaviour."""

    name = "wordeq-bicyclic-session"
    BLOCK_SECONDS = 3.5
    LO, HI = 64, 256
    SESSIONS, ROUNDS = 20, 5
    # per round of nine: mostly cheap multiply queries, whose dense cluster
    # of times holds the median (with a third of each kind the median fell
    # between the multiply and represent clusters and moved 16 % with the
    # seed), and two word_eq, the slowest kind, so the tail has samples
    MIX = ("multiply",) * 6 + ("represent",) + ("word_eq",) * 2

    def make_load(self, seed, tiny=False) -> Load:
        rng = random.Random(seed)
        lo, hi = (4, 16) if tiny else (self.LO, self.HI)
        sessions = []
        for _ in range(2 if tiny else self.SESSIONS):
            kinds = []
            for _ in range(1 if tiny else self.ROUNDS):
                kinds += rng.sample(self.MIX, len(self.MIX))
            # stratified lengths per kind: the m queries of one kind in a
            # session take one word from each m-th of [lo, hi], so that every
            # session costs about the same (with strata per round instead,
            # the lengths of a run's word_eq queries were left to chance and
            # its ops_per_s moved by 15 % with the seed)
            strata = {}
            for kind in sorted(set(kinds)):
                m = kinds.count(kind)
                strata[kind] = [rng.sample(range(m), m), rng.sample(range(m), m), m]
            queries = []
            for kind in kinds:
                s1, s2, m = strata[kind]
                k1, k2 = s1.pop(), s2.pop()
                width = (hi - lo) / m
                w = _word(rng, lo + int(k1 * width), lo + int((k1 + 1) * width))
                w2 = _word(rng, lo + int(k2 * width), lo + int((k2 + 1) * width))
                if kind == "multiply":
                    w = "".join(references.bicyclic_normal(w))
                    w2 = "".join(references.bicyclic_normal(w2))
                queries.append((kind, w, w2))
            sessions.append(queries)
        text = inputs.text(inputs.permuted(inputs.fixture("bicyclic"), rng))
        return Load({"structures": {"bicyclic": text}, "sessions": sessions})

    def blocks(self, ld: Load) -> list:
        text = ld.data["structures"]["bicyclic"]
        nf = references.bicyclic_normal

        def op(s, kind, w, w2):
            w, w2 = tuple(w), tuple(w2)
            if kind == "word_eq":
                return Op(kind, lambda: arithmetic.word_eq(s, w, w2),
                          lambda r: r is (nf(w) == nf(w2)))
            if kind == "represent":
                return Op(kind, lambda: arithmetic.represent(s, w),
                          lambda r: r == nf(w))
            return Op(kind, lambda: arithmetic.multiply(s, w, w2),
                      lambda r: r == nf(w + w2))

        def session(queries):
            s = load(text)
            for q in queries:
                yield op(s, *q)

        return [lambda q=queries: session(q) for queries in ld.data["sessions"]]


def _word(rng, lo, hi) -> str:
    return "".join(rng.choice("ab") for _ in range(rng.randrange(lo, max(hi, lo + 1))))


class Decide(Workload):
    """Every decision procedure on each input, each call on a fresh
    structure; ``green_related`` once for each of R, L and H.
    One block is one pass over all (input, procedure) pairs."""

    def sources(self, rng, tiny):
        """(label, structure JSON data, reference model) triples."""
        raise NotImplementedError

    def make_load(self, seed, tiny=False) -> Load:
        rng = random.Random(seed)
        structures, green, models = {}, {}, {}
        for label, data, model in self.sources(rng, tiny):
            structures[label] = inputs.text(data)
            # the first two letters: distinct elements, so the reachability
            # checks always run, and the same pair for every seed, so the
            # cost of a pass does not hinge on the draw
            green[label] = (data["alphabet"] * 2)[:2]
            models[label] = model
        order = [[label, proc, rel] for label in structures for proc in PROCEDURES
                 for rel in ("RLH" if proc == "green_related" else "-")]
        rng.shuffle(order)
        return Load({"structures": structures, "green": green, "order": order},
                    models)

    def blocks(self, ld: Load) -> list:
        data = ld.data

        def op(label, proc, rel):
            s = load(data["structures"][label])
            model = ld.models[label]
            home = PROCEDURES[proc]
            if proc == "green_related":
                a, b = data["green"][label]
                w, w2 = (a,), (b,)
                return Op(proc, lambda: home.green_related(s, w, w2, rel),
                          lambda r: r is model.green(w, w2, rel))
            if proc == "validate_necessary":
                call = lambda: home.validate_necessary(s, depth=VALIDATE_DEPTH)
            else:
                call = lambda: getattr(home, proc)(s)
            return Op(proc, call, lambda v: model.verdict_ok(proc, v))

        def one_pass():
            for label, proc, rel in data["order"]:
                yield op(label, proc, rel)

        return [one_pass]


class DecideGeneric(Decide):
    """Generic-grammar twins of the finite fixtures, plus bicyclic and free2c."""

    name = "decide-generic"
    BLOCK_SECONDS = 20.0
    # two passes put the tail (11th-largest time) inside the cluster of
    # rees-twin calls rather than at its lower edge, where it jumped with noise
    MIN_BLOCKS = 2
    FINITE = ("z2", "sl2", "rb22", "null3", "rees")
    # every input comes in two seeded variants but the rees twin and free2c,
    # whose calls take 1-4 s and 0.05-1 s: with one variant of each, the
    # median of a run fell in a sparse stretch of call times (4-10 ms) and
    # jumped by a quarter between runs; with two it falls among several
    # samples of each of the cheap calls
    VARIANTS, ONCE = 2, {"rees", "free2c"}

    def sources(self, rng, tiny):
        for name in self.FINITE[:2] if tiny else self.FINITE:
            data = inputs.fixture(name)
            model = references.fixture_model(name)
            model.check_entries(data)
            for k in range(1 if name in self.ONCE else self.VARIANTS):
                yield f"{name}-twin{k}", inputs.generic_twin(data, rng), model
        for name in ("bicyclic",) if tiny else ("bicyclic", "free2c"):
            model = references.fixture_model(name)
            for k in range(1 if name in self.ONCE else self.VARIANTS):
                yield f"{name}{k}", inputs.permuted(inputs.fixture(name), rng), model


class DecideFlat(Decide):
    """Flat finite tables: the order <= 3 corpus, the named tables and direct
    products of named tables, factor order seeded."""

    name = "decide-flat"
    BLOCK_SECONDS = 0.6
    # named-table pairs whose direct product needs at most four generators,
    # leaving out rb22 x rb22, whose species enumerations take 25 s
    PRODUCT_PAIRS = (("z2", "z2"), ("z2", "sl2"), ("z2", "rb22"), ("z2", "null3"),
                     ("z2", "rees"), ("sl2", "sl2"), ("sl2", "rb22"), ("sl2", "null3"))

    def sources(self, rng, tiny):
        tables = [(f"order{len(t.elements)}-{i}", t) for i, t in
                  enumerate(oracle.small_semigroups(2 if tiny else 3))]
        named = ("z2", "sl2") if tiny else tuple(oracle.NAMED_TABLES)
        tables += [(name, oracle.NAMED_TABLES[name]()) for name in named]
        for pair in self.PRODUCT_PAIRS[:1] if tiny else self.PRODUCT_PAIRS:
            a, b = rng.sample(pair, 2)  # the seed picks the factor order
            t = oracle.direct_product(oracle.NAMED_TABLES[a](), oracle.NAMED_TABLES[b]())
            tables.append((f"{a}x{b}", t))
        for label, t in tables:
            yield label, inputs.table_structure(t, rng), references.TableModel(t)


WORKLOADS = {w.name: w for w in (Free2Cold(), BicyclicSession(),
                                 DecideGeneric(), DecideFlat())}
