"""The interpreted structure: alphabet, representative language,
multiplication-table language and generator assignment, together with its
file format, decidable validation and the normalization steps that let the
decision procedures assume every generator is its own representative.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from dataclasses import dataclass, field

from . import cfg as cfglib
from .cfg import Cfg
from .errors import (EmptyProductError, InvariantError, OperandError, ParseError,
                     ReservedSymbolError)
from .nfa import Nfa, _Complement
from .transducer import Transducer
from .words import RESERVED, SEP1, SEP2, merged, reverse


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision procedure.

    A yes-verdict carries the witnesses the procedure promises; a no-verdict
    carries a machine-checkable reason.
    """

    answer: str
    witnesses: dict = field(default_factory=dict)
    reason: str = ""

    def __post_init__(self):
        if self.answer not in ("yes", "no"):
            raise ValueError(f"bad answer {self.answer!r}")

    def __bool__(self):
        return self.answer == "yes"

    @classmethod
    def yes(cls, witnesses=None, reason=""):
        return cls("yes", dict(witnesses or {}), reason)

    @classmethod
    def no(cls, reason, witnesses=None):
        return cls("no", dict(witnesses or {}), reason)


class WhStructure:
    """Representative language, table language and generator assignment.

    Instances are immutable; derived data (the normalized variant and the
    product caches) is attached lazily and never observable.  Membership in
    the representatives is kept by the automaton itself (`Nfa.accepts`), so
    `in_reps`, slot views and the shape check's complement share it.
    Witnesses are least in the alphabet's order, which the kernel reads off
    the declarations: the table and the representatives are declared again
    in it (#1 and #2 after the letters) unless they are.  They may declare
    no other symbol, even unchecked: a file could not write it.
    """

    def __init__(self, alphabet, reps: Nfa, table: Cfg, assignment=None,
                 check: bool = True):
        self.alphabet = tuple(dict.fromkeys(alphabet))
        if not self.alphabet:
            raise InvariantError("empty alphabet: a semigroup needs a generator")
        letters = set(self.alphabet)
        stray = [x for x in reps.alphabet if x not in letters] + [
            x for x in table.terminals if x not in letters and x not in RESERVED]
        if stray:
            raise InvariantError(f"symbol {stray[0]!r} is outside the alphabet (and "
                                 f"{SEP1}, {SEP2} in the table): no file declares it")
        if reps.alphabet != self.alphabet:
            moves = [(p, x, q) for (p, x), qs in reps.transitions.items() for q in qs]
            reps = Nfa(reps.states, self.alphabet, moves, reps.initial, reps.accepting)
        terminals = merged(self.alphabet, (SEP1, SEP2))
        if table.terminals != terminals:
            table = Cfg(table.nonterminals, terminals, table.start, table.productions)
        self.reps = reps
        self.table = table
        if assignment is None:
            assignment = {}
        for key in assignment:
            if key not in self.alphabet:
                raise InvariantError(f"assignment for undeclared symbol {key!r}")
        self.assignment = {a: tuple(assignment.get(a, (a,))) for a in self.alphabet}
        self._mul_cache: dict = {}
        self._chk_cache: dict = {}
        # word -> representative, read and filled only by arithmetic._halved's
        # joint loop, so that a caller repeating words halves each one once
        self._rep_cache: dict = {}
        self._normalized = None
        self._shape_violation = None  # (the violation or None,) once checked
        if check:
            self.check_invariants()

    # -- invariants ------------------------------------------------------------

    def check_invariants(self):
        _check_alphabet(self.alphabet)
        letter_of = {}
        for a, w in self.assignment.items():
            if not self.in_reps(w):
                raise InvariantError(
                    f"assignment word {' '.join(w)!r} for {a!r} is not a representative")
            # word_eq takes distinct letters to name distinct elements
            other = letter_of.setdefault(w, a)
            if other != a:
                raise InvariantError(
                    f"letters {other!r} and {a!r} are both assigned {' '.join(w)!r}")
        bad = self.table_shape_violation()
        if bad is not None:
            raise InvariantError(
                f"table word {' '.join(bad)!r} is outside reps#1reps#2reps-reversed")

    def table_shape_violation(self):
        """A table word outside L#1L#2L^rev, or None; computed once."""
        if self._shape_violation is None:
            self._shape_violation = (self._find_shape_violation(),)
        return self._shape_violation[0]

    def _find_shape_violation(self):
        if cfglib.derives_epsilon(self.table):  # products drop the empty word
            return ()
        reps = self.reps
        if reps.accepts(()):  # a representative is a nonempty word: enter
            # through a fresh state that accepts none, moving as the initial ones
            entry = object()
            moves = [(p, x, q) for (p, x), qs in reps.transitions.items() for q in qs]
            moves += [(entry, x, q) for p, x, q in moves if p in reps.initial]
            reps = Nfa((entry, *reps.states), self.alphabet, moves, [entry], reps.accepting)
        outside = _Complement(_Slots(reps, reps, reps), self.table.terminals)
        return cfglib.least_word(self.table, outside)

    # -- basic queries ---------------------------------------------------------

    def in_reps(self, w) -> bool:
        return self.reps.accepts(w)

    def table_accepts(self, w) -> bool:
        return cfglib.membership(self.table, w)

    def is_normalized(self) -> bool:
        return all(self.assignment[a] == (a,) and self.in_reps((a,))
                   for a in self.alphabet)

    def __eq__(self, other):
        if not isinstance(other, WhStructure):
            return NotImplemented
        return (self.alphabet == other.alphabet
                and self.assignment == other.assignment
                and self.reps == other.reps
                and self.table == other.table)

    def __repr__(self):
        return (f"WhStructure(alphabet={list(self.alphabet)!r}, "
                f"reps={self.reps!r}, table={self.table!r})")


_SEP_SLOT = {SEP1: 0, SEP2: 1}  # the slot each separator ends


class _Slots:
    """The automaton of left #1 middle #2 right-reversed, read from the
    three slots in place; each is an `Nfa`, a word over the alphabet or None
    for any word, and the right slot is given unreversed, as the product it
    names.

    `cfg.least_word` and `cfg.intersects` read it by the state-space
    protocol of `cfg._asked`, each move's output the symbol read, and by
    `accepts(w)`.  Slot queries read it as it is, and the load-time shape
    check reads its complement (`nfa._Complement`) with every slot the
    representatives.  State (i, q) is state q of slot i: a word slot's states
    are its positions, an automaton slot keeps its own, and an any-word slot
    has one, 0, looping on all but the separators, which `accepts` does not
    check: by the shape invariant it reads as the representatives.  A
    separator moves from the accepting states of one slot to the initial
    states of the next.  A right automaton is reversed only when its moves
    are asked for.  `prefix` is what every accepted word begins with: the
    word slots before the first other slot, each followed by its separator;
    a flat table's `cfg.least_word` reads only its words that begin with it.
    """

    __slots__ = ("_parts", "_starts", "_ends", "_words", "_automata", "prefix")

    def __init__(self, left, middle, right):
        if right is not None and not isinstance(right, Nfa):
            right = reverse(right)  # as it stands in a table word
        self._parts = parts = [x if x is None or isinstance(x, Nfa) else tuple(x)
                               for x in (left, middle, right)]
        self._words = [i for i, x in enumerate(parts) if type(x) is tuple]
        self._automata = [i for i, x in enumerate(parts) if isinstance(x, Nfa)]
        # each slot's own initial and accepting states; an any-word slot's one
        # state (i, 0) does both
        self._starts = [x.initial if isinstance(x, Nfa) else (0,) for x in parts]
        self._ends = [x.accepting if isinstance(x, Nfa)
                      else (0,) if x is None else (len(x),) for x in parts]
        if isinstance(right, Nfa):  # read reversed, it starts where it accepts
            self._starts[2], self._ends[2] = right.accepting, right.initial
        prefix = ()
        for x, sep in zip(parts, ((SEP1,), (SEP2,), ())):
            if type(x) is not tuple:
                break
            prefix += x + sep
        self.prefix = prefix

    @property
    def initial(self):
        return [(0, q) for q in self._starts[0]]

    @property
    def accepting(self):
        return [(2, q) for q in self._ends[2]]

    def moves(self, state, sym):
        i, q = state
        ended = _SEP_SLOT.get(sym)
        if ended is not None:
            if ended == i and q in self._ends[i]:
                return [((i + 1, r), (sym,)) for r in self._starts[i + 1]]
            return ()
        x = self._parts[i]
        if type(x) is tuple:
            return (((i, q + 1), (sym,)),) if q < len(x) and x[q] == sym else ()
        if x is None:
            return (((i, 0), (sym,)),)
        return [((i, r), out)
                for r, out in (x.reverse() if i == 2 else x).moves(q, sym)]

    def accepts(self, w) -> bool:
        """Cut w at its separators, compare the word slots, then run the
        automaton slots, the right one on its segment reversed."""
        w = tuple(w)
        try:
            i = w.index(SEP1)
            j = w.index(SEP2, i + 1)
        except ValueError:
            return False
        cut = (w[:i], w[i + 1:j], w[j + 1:])
        parts = self._parts
        for k in self._words:
            if cut[k] != parts[k]:
                return False
        for k in self._automata:
            if not parts[k].accepts(cut[k][::-1] if k == 2 else cut[k]):
                return False
        return True


def slot_word(s: WhStructure, left, middle, right):
    """The least table word left #1 middle #2 right-reversed, or None, with
    no grammar written and no automaton built: `cfg.least_word` reads the
    slots in place through the automaton interface of `_Slots`, and a flat
    table only its words that begin with the view's prefix."""
    return cfglib.least_word(s.table, _Slots(left, middle, right))


def slot_exists(s: WhStructure, left, middle, right) -> bool:
    """Whether slot_word is not None, with no word settled (cfg.intersects)."""
    return cfglib.intersects(s.table, _Slots(left, middle, right))


def slot_middle(s: WhStructure, left, middle, right):
    """Middle slot of slot_word, or None."""
    w = slot_word(s, left, middle, right)
    return None if w is None else w[w.index(SEP1) + 1:w.index(SEP2)]


# -- file format ----------------------------------------------------------------


def load_structure(source) -> WhStructure:
    """Load a structure from a path, file object or JSON text."""
    return WhStructure(*_read(source, "structure", _structure_from_json))


def load_grammar(source) -> Cfg:
    """Load a defect-check grammar from a path, file object or JSON text."""
    alphabet, grammar = _read(source, "grammar", _grammar_from_json)
    _check_alphabet(alphabet)
    return grammar


def load_table_rows(source):
    """(elements, rows, generators) of a table file, for FiniteSemigroup.from_rows."""
    return _read(source, "table", _rows_from_json)


def save_structure(s: WhStructure, target) -> None:
    text = dumps_structure(s)
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def dumps_structure(s: WhStructure) -> str:
    """The file text, sorted in the declared orders."""
    state_rank = {q: i for i, q in enumerate(s.reps.states)}
    letter_rank = {x: i for i, x in enumerate(s.reps.alphabet)}
    trans = sorted(
        ((src, sym, dst)
         for (src, sym), dsts in s.reps.transitions.items() for dst in dsts),
        key=lambda t: (state_rank[t[0]], letter_rank[t[1]], state_rank[t[2]]))
    nt_names = _nonterminal_names(s.table)
    nt_rank = {a: i for i, a in enumerate(s.table.nonterminals)}
    prods = sorted(
        s.table.productions,
        key=lambda p: (nt_rank[p[0]], len(p[1]),
                       tuple((0, nt_rank[x]) if x in nt_rank else (1, s.table.rank[x])
                             for x in p[1])))
    data = {
        "alphabet": list(s.alphabet),
        "reps": {
            "states": [str(q) for q in s.reps.states],
            "initial": [str(q) for q in s.reps.states if q in s.reps.initial],
            "accepting": [str(q) for q in s.reps.states if q in s.reps.accepting],
            "transitions": [[str(src), sym, str(dst)] for src, sym, dst in trans],
        },
        "table": {
            "nonterminals": [nt_names[a] for a in s.table.nonterminals],
            "start": nt_names[s.table.start],
            "productions": [[nt_names[h],
                             [nt_names[x] if x in nt_rank else x for x in b]]
                            for h, b in prods],
        },
        "assignment": {a: list(s.assignment[a]) for a in s.alphabet},
    }
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def _nonterminal_names(table: Cfg):
    if all(isinstance(a, str) for a in table.nonterminals):
        return {a: a for a in table.nonterminals}
    return {a: f"N{i}" for i, a in enumerate(table.nonterminals)}


def _check_alphabet(alphabet):
    for a in alphabet:
        if not a:
            raise InvariantError(f"empty symbol {a!r} declared in alphabet: "
                                 "a symbol is a nonempty string")
        if a in RESERVED:
            raise ReservedSymbolError(f"reserved symbol {a!r} declared in alphabet")


def _read(source, kind, convert):
    """convert(data) for the JSON data of a path, file object or JSON text;
    errors in reading or converting raise ParseError naming the kind of file."""
    try:
        if hasattr(source, "read"):
            data = json.load(source)
        else:
            text = str(source)
            if text.lstrip().startswith("{"):
                data = json.loads(text)
            else:
                with open(text, encoding="utf-8") as fh:
                    data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bytes that are not UTF-8 or text that is not JSON;
        # RecursionError: arrays or objects nested past the interpreter's limit
        raise ParseError(f"cannot read {kind} file: {exc}") from exc
    try:
        return convert(data)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ParseError(f"malformed {kind} file: {exc}") from exc


def _array(value, what):
    if not isinstance(value, list):
        raise TypeError(f"{what} is not a JSON array")
    return value


def _strings(value, what):
    return [str(x) for x in _array(value, what)]


def _structure_from_json(data):
    alphabet = _strings(data["alphabet"], "alphabet")
    return (alphabet, _nfa_from_json(data["reps"], alphabet),
            _cfg_from_json(data["table"], (*alphabet, SEP1, SEP2)),
            {str(k): _strings(v, f"assignment of {k!r}")
             for k, v in data.get("assignment", {}).items()})


def _grammar_from_json(data):
    alphabet = _strings(data["alphabet"], "alphabet")
    return alphabet, _cfg_from_json(data["grammar"], (*alphabet, SEP1, SEP2))


def _rows_from_json(data):
    return (_strings(data["elements"], "elements"),
            [_strings(row, "table row") for row in _array(data["table"], "table")],
            _strings(data["generators"], "generators"))


def _nfa_from_json(data, alphabet):
    # Nfa unpacks each transition into its three parts
    return Nfa(_strings(data["states"], "states"), alphabet,
               [_strings(t, "transition")
                for t in _array(data["transitions"], "transitions")],
               _strings(data["initial"], "initial"),
               _strings(data["accepting"], "accepting"))


def _cfg_from_json(data, terminals):
    prods = [_array(p, "production") for p in _array(data["productions"], "productions")]
    return Cfg(_strings(data["nonterminals"], "nonterminals"), terminals,
               str(data["start"]),
               [(str(head), _strings(body, "production body")) for head, body in prods])


# -- normalization ----------------------------------------------------------------


def normalize_generators(s: WhStructure) -> WhStructure:
    """Equivalent structure in which every letter is its own representative.

    Letters already satisfying that are left alone; each letter with a longer
    assigned representative contributes rewritten copies of the table entries
    where the representative fills a slot, with the slot collapsed to the bare
    letter.  Every decision procedure applies this on entry.
    """
    if s._normalized is not None:
        return s._normalized
    if s.is_normalized():
        s._normalized = s
        return s
    letters = Nfa.from_words([(a,) for a in s.alphabet], s.alphabet)
    reps2 = s.reps.union(letters)
    table2 = _slot_rewriter(s).apply_to_cfg(s.table)
    # no shape check: each slot of a table word is kept or replaced by a
    # letter, and reps2 = reps | letters holds both, so the rewritten table
    # stays inside reps2#1reps2#2reps2^rev whenever s's table was inside
    # reps#1reps#2reps^rev; every letter is its own representative in reps2
    result = WhStructure(s.alphabet, reps2, table2, None, check=False)
    result._normalized = result
    s._normalized = result
    return result


def _slot_rewriter(s: WhStructure) -> Transducer:
    """Transducer mapping u#1v#2y to every word obtained by keeping each slot
    or, where the slot exactly equals the representative assigned to a
    rewritten letter (reversed in the third slot), replacing it by that
    letter."""
    rewritten = [a for a in s.alphabet
                 if s.assignment[a] != (a,) or not s.in_reps((a,))]
    states = []
    transitions = []
    for slot, sep in enumerate((SEP1, SEP2, None)):
        entry, copy = ("in", slot), ("cp", slot)
        states += [entry, copy]
        for sym in s.alphabet:
            transitions.append((entry, sym, (sym,), copy))
            transitions.append((copy, sym, (sym,), copy))
        # the entry stays an exit: the copy phase may read an empty slot
        ends = [entry, copy]
        for letter in rewritten:
            image = s.assignment[letter]
            consumed = reverse(image) if slot == 2 else image
            chain = [entry] + [("ex", slot, letter, i + 1) for i in range(len(consumed))]
            states += chain[1:]
            for i, sym in enumerate(consumed):
                out = (letter,) if i == 0 else ()
                transitions.append((chain[i], sym, out, chain[i + 1]))
            ends.append(chain[-1])
        if sep is not None:
            for end in ends:
                transitions.append((end, sep, (sep,), ("in", slot + 1)))
    return Transducer(states, transitions, [("in", 0)], ends)


# -- decidable validation ----------------------------------------------------------


VALIDATE_SAMPLE_CAP = 200  # representatives sampled by validate_necessary


def validate_necessary(s: WhStructure, depth: int = 4) -> Verdict:
    """Check the decidable necessary conditions for the structure to describe
    a semigroup.

    Interpretability itself is not decidable and is trusted; this verifies the
    containment invariant, that every sampled product has a representative,
    that words sharing a product entry test equal, and that sampled triple
    products associate.

    Each phase asks its kernel questions off joined charts, a few for the
    whole phase rather than one per question: the sampled pairs' products
    (`arithmetic._prefetch`), then their three least completions, one
    `cfg.least_completions` call per length bound; the triples' new
    products u.(v.x) (`arithmetic._prefetch` again), then their distinct
    product checks, one `cfg.memberships` call.  The pairs are then read
    in loop order; the checks are gathered in loop order up to the first
    triple whose product raises `EmptyProductError`, and scanned in that
    order, so the first failure reported is the one the loops would meet:
    a failing check before that triple, else its exception.  A failing
    first pair still costs every pair's product.
    """
    from . import arithmetic

    if depth < 1:
        raise OperandError("depth must be at least 1")
    bad = s.table_shape_violation()
    if bad is not None:
        return Verdict.no(f"table word {' '.join(bad)!r} violates the slot shape")
    ns = normalize_generators(s)
    # the first words in shortlex order, with none past them enumerated
    words = list(itertools.islice(cfglib._shortlex_words(
        Cfg.from_nfa(ns.reps), max(depth - 1, 1)), VALIDATE_SAMPLE_CAP))
    if not words:
        return Verdict.no("representative language is empty")

    classes: dict = {}

    def find(w):
        while classes.get(w, w) != w:
            w = classes[w]
        return w

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru != rv:
            classes[ru] = rv

    pairs = [(u, v) for u in words for v in words
             if len(u) + len(v) <= depth]
    arithmetic._prefetch(ns, pairs)
    products = []
    for u, v in pairs:
        try:
            products.append(arithmetic.multiply(ns, u, v))
        except EmptyProductError:
            return Verdict.no(
                f"missing product witness for {' '.join(u)!r} * {' '.join(v)!r}")
    by_bound: dict = {}
    for pq, r in zip(pairs, products):
        by_bound.setdefault(len(r) + 1, []).append(pq)
    least: dict = {}
    for bound, group in by_bound.items():
        least.update(zip(group, cfglib.least_completions(
            ns.table, [u + (SEP1,) + v + (SEP2,) for u, v in group], 3, bound)))
    for pq, r in zip(pairs, products):
        for w in least[pq]:
            union(r, w)
    seen: dict = {}
    for w in list(classes) + list(words):
        root = find(w)
        other = seen.setdefault(root, w)
        if other != w and not arithmetic.word_eq(ns, w, other):
            return Verdict.no(
                f"words {' '.join(w)!r} and {' '.join(other)!r} share a table entry "
                f"but test unequal")

    def groups():
        # each (u, v) with the x that complete a triple, a slice of the
        # words, which ascend in length; walked twice, never kept: as
        # lists, free2's 249,840 triples at depth 12 peaked at 84 MB, not 40
        for u in words:
            for v in words[:bisect_right(words, depth - len(u) - 1, key=len)]:
                yield u, v, words[:bisect_right(words, depth - len(u) - len(v), key=len)]

    # every pair of a triple is a sampled pair, whose product is cached
    mul = ns._mul_cache
    arithmetic._prefetch(ns, ((u, mul[v, x]) for u, v, xs in groups() for x in xs))
    # each distinct check (u.v, x, u.(v.x)) -> the (u, v) of the first
    # triple that asks it, one tuple per pair.  A check's answer is the
    # same at every triple that asks it, so the first false one in this
    # order is the one met at the first failing triple: no earlier triple
    # asks it, and every check an earlier triple asks comes before it
    checks: dict = {}
    raised = None
    try:
        for u, v, xs in groups():
            uv, asker = mul[u, v], (u, v)
            for x in xs:
                checks.setdefault((uv, x, arithmetic._product(ns, u, mul[v, x])), asker)
    except EmptyProductError as exc:
        raised = exc
    held = cfglib.memberships(ns.table, (p + (SEP1,) + q + (SEP2,) + reverse(r)
                                         for p, q, r in checks))
    for ((_uv, x, _r), (u, v)), ok in zip(checks.items(), held):
        if not ok:
            return Verdict.no(
                f"associativity fails on {' '.join(u)!r}, {' '.join(v)!r}, "
                f"{' '.join(x)!r}")
    if raised is not None:
        raise raised
    return Verdict.yes()
