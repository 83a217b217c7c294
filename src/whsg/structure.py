"""The interpreted structure: alphabet, representative language,
multiplication-table language and generator assignment, together with its
file format, decidable validation and the normalization steps that let the
decision procedures assume every generator is its own representative.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from . import cfg as cfglib
from .cfg import Cfg
from .errors import (EmptyProductError, InvariantError, OperandError, ParseError,
                     ReservedSymbolError)
from .nfa import Nfa
from .transducer import Transducer
from .words import RESERVED, SEP1, SEP2, reverse, shortlex_key, symbol_ranks


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

    Instances are immutable; derived data (the normalized variant, product
    and membership caches) is attached lazily and never observable.
    """

    def __init__(self, alphabet, reps: Nfa, table: Cfg, assignment=None,
                 check: bool = True):
        self.alphabet = tuple(dict.fromkeys(alphabet))
        self.reps = reps
        self.table = table
        if assignment is None:
            assignment = {}
        for key in assignment:
            if key not in self.alphabet:
                raise InvariantError(f"assignment for undeclared symbol {key!r}")
        self.assignment = {a: tuple(assignment.get(a, (a,))) for a in self.alphabet}
        self.ranks = symbol_ranks(self.alphabet)
        self.key = shortlex_key(self.ranks)
        self._in_reps_cache: dict = {}
        self._mul_cache: dict = {}
        self._chk_cache: dict = {}
        self._rep_cache: dict = {}
        self._normalized = None
        if check:
            self.check_invariants()

    # -- invariants ------------------------------------------------------------

    def check_invariants(self):
        for a in self.alphabet:
            if a in RESERVED:
                raise ReservedSymbolError(f"reserved symbol {a!r} declared in alphabet")
        for a, w in self.assignment.items():
            if not self.in_reps(w):
                raise InvariantError(
                    f"assignment word {' '.join(w)!r} for {a!r} is not a representative")
        bad = self.table_shape_violation()
        if bad is not None:
            raise InvariantError(
                f"table word {' '.join(bad)!r} is outside reps#1reps#2reps-reversed")

    def table_shape_violation(self):
        """A table word outside L#1L#2L^rev, or None."""
        if self.table.flat_words is not None:
            for w in sorted(self.table.flat_words, key=len):
                parts = _split_table_word(w)
                if parts is None:
                    return w
                u, v, yrev = parts
                if not (self.in_reps(u) and self.in_reps(v)
                        and self.in_reps(reverse(yrev))):
                    return w
            return None
        shape = slot_shape(self.reps, self.reps, self.reps.reverse())
        full = tuple(self.alphabet) + (SEP1, SEP2)
        outside = cfglib.intersect_regular(self.table, shape.complement(full))
        return cfglib.shortest_word(outside, self.ranks)

    # -- basic queries ---------------------------------------------------------

    def in_reps(self, w) -> bool:
        w = tuple(w)
        got = self._in_reps_cache.get(w)
        if got is None:
            got = self.reps.accepts(w)
            self._in_reps_cache[w] = got
        return got

    def table_accepts(self, w) -> bool:
        return cfglib.membership(self.table, w)

    def sep_alphabet(self):
        return tuple(self.alphabet) + (SEP1, SEP2)

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


def slot_shape(left: Nfa, middle: Nfa, right: Nfa) -> Nfa:
    """Automaton for the table-word shape left #1 middle #2 right."""
    return (left.concat(Nfa.literal((SEP1,), (SEP1,))).concat(middle)
            .concat(Nfa.literal((SEP2,), (SEP2,))).concat(right))


def _split_table_word(w):
    w = tuple(w)
    if w.count(SEP1) != 1 or w.count(SEP2) != 1:
        return None
    i = w.index(SEP1)
    j = w.index(SEP2)
    if not 0 < i < j - 1 or j == len(w) - 1:
        # empty slots are never representatives
        return None
    return w[:i], w[i + 1:j], w[j + 1:]


# -- file format ----------------------------------------------------------------


def load_structure(source) -> WhStructure:
    """Load a structure from a path, file object or JSON text."""
    data = _read_json(source)
    try:
        alphabet = [str(s) for s in data["alphabet"]]
        reps = _nfa_from_json(data["reps"], alphabet)
        table = _cfg_from_json(data["table"], tuple(alphabet) + (SEP1, SEP2))
        assignment = {str(k): tuple(v) for k, v in data.get("assignment", {}).items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed structure file: {exc}") from exc
    return WhStructure(alphabet, reps, table, assignment)


def save_structure(s: WhStructure, target) -> None:
    text = dumps_structure(s)
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def dumps_structure(s: WhStructure) -> str:
    state_rank = {q: i for i, q in enumerate(s.reps.states)}
    sym_rank = dict(s.ranks)
    for extra in (SEP1, SEP2):
        sym_rank.setdefault(extra, len(sym_rank))
    trans = sorted(
        ((src, sym, dst)
         for (src, sym), dsts in s.reps.transitions.items() for dst in dsts),
        key=lambda t: (state_rank[t[0]], sym_rank[t[1]], state_rank[t[2]]))
    nt_names = _nonterminal_names(s.table)
    nt_rank = {a: i for i, a in enumerate(s.table.nonterminals)}
    prods = sorted(
        s.table.productions,
        key=lambda p: (nt_rank[p[0]], len(p[1]),
                       tuple((0, nt_rank[x]) if x in nt_rank else (1, sym_rank[x])
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


def _read_json(source):
    try:
        if hasattr(source, "read"):
            return json.load(source)
        text = str(source)
        if text.lstrip().startswith("{"):
            return json.loads(text)
        with open(text, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read structure input: {exc}") from exc


def _nfa_from_json(data, alphabet):
    states = [str(q) for q in data["states"]]
    trans = [(str(src), str(sym), str(dst)) for src, sym, dst in data["transitions"]]
    try:
        return Nfa(states, alphabet, trans,
                   [str(q) for q in data["initial"]],
                   [str(q) for q in data["accepting"]])
    except ValueError as exc:
        raise ParseError(f"malformed automaton: {exc}") from exc


def _cfg_from_json(data, terminals):
    nts = [str(a) for a in data["nonterminals"]]
    nt_set = set(nts)
    prods = []
    for head, body in data["productions"]:
        prods.append((str(head), tuple(str(x) for x in body)))
    for _h, body in prods:
        for x in body:
            if x not in nt_set and x not in terminals:
                raise ParseError(f"grammar body symbol {x!r} is neither a "
                                 f"nonterminal nor a declared terminal")
    try:
        return Cfg(nts, terminals, str(data["start"]), prods)
    except ValueError as exc:
        raise ParseError(f"malformed grammar: {exc}") from exc


# -- symbol surgery --------------------------------------------------------------


def merge_letters(s: WhStructure, a: str, b: str,
                  verify_depth: int = 0) -> WhStructure:
    """Substitute b by a everywhere and drop b from the alphabet.

    The caller asserts elt(a) = elt(b); that cannot be decided from the
    structure (distinct letters name distinct elements under any injective
    reading).  With verify_depth > 0 and both letters in the representative
    language, table entries up to that length are sampled and every product
    entry ending in one letter must have a twin ending in the other.
    """
    if a == b:
        raise OperandError("cannot merge a letter with itself")
    if a not in s.alphabet or b not in s.alphabet:
        raise OperandError(f"unknown symbols {a!r}, {b!r}")
    if verify_depth and s.in_reps((a,)) and s.in_reps((b,)):
        for x, y in ((a, b), (b, a)):
            shape = slot_shape(s.reps, s.reps, Nfa.literal((x,), s.alphabet))
            ending = cfglib.intersect_regular(s.table, shape)
            for w in cfglib.enumerate_words(ending, verify_depth, s.ranks):
                twin = w[:-1] + (y,)
                if not cfglib.membership(s.table, twin):
                    raise OperandError(
                        f"table entry {' '.join(w)!r} has no twin ending in "
                        f"{y!r}; the letters do not look interchangeable")

    def sub(sym):
        return a if sym == b else sym

    alphabet = [x for x in s.alphabet if x != b]
    reps = s.reps.map_symbols(sub)
    table = s.table.map_terminals(sub)
    assignment = {x: tuple(sub(sym) for sym in w)
                  for x, w in s.assignment.items() if x != b}
    return WhStructure(alphabet, reps, table, assignment)


def rename_symbols(s: WhStructure, mapping) -> WhStructure:
    """Apply a symbol bijection to the whole structure."""
    values = [mapping[a] for a in s.alphabet]
    if len(set(values)) != len(values):
        raise OperandError("renaming must be a bijection on the alphabet")

    def sub(sym):
        return mapping.get(sym, sym)

    alphabet = values
    reps = s.reps.map_symbols(sub)
    table = s.table.map_terminals(sub)
    assignment = {sub(x): tuple(sub(sym) for sym in w)
                  for x, w in s.assignment.items()}
    return WhStructure(alphabet, reps, table, assignment)


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
    rewritten = [a for a in s.alphabet
                 if s.assignment[a] != (a,) or not s.in_reps((a,))]
    parts = [s.table]
    for slots in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2)):
        for combo in itertools.product(s.alphabet, repeat=len(slots)):
            chosen = dict(zip(slots, combo))
            if not any(c in rewritten for c in combo):
                continue  # identity rewrite; already a subset of the table
            t = _slot_rewriter(s, chosen)
            parts.append(t.apply_to_cfg(s.table))
    table2 = cfglib.normalize(cfglib.union_cfgs(parts, s.sep_alphabet()),
                              strict=True)
    result = WhStructure(s.alphabet, reps2, table2, None)
    result._normalized = result
    s._normalized = result
    return result


def _slot_rewriter(s: WhStructure, chosen) -> Transducer:
    """Transducer mapping u#1v#2y to the same word with each chosen slot,
    which must exactly equal the assigned representative (reversed in the
    third slot), replaced by the bare letter."""
    states = []
    transitions = []

    def identity_phase(tag):
        st = ("id", tag)
        states.append(st)
        for sym in s.alphabet:
            transitions.append((st, sym, (sym,), st))
        return st, st

    def exact_phase(tag, consumed, emitted):
        chain = [("ex", tag, i) for i in range(len(consumed) + 1)]
        states.extend(chain)
        for i, sym in enumerate(consumed):
            out = emitted if i == 0 else ()
            transitions.append((chain[i], sym, out, chain[i + 1]))
        return chain[0], chain[-1]

    entries = []
    exits = []
    for slot in range(3):
        if slot in chosen:
            letter = chosen[slot]
            image = s.assignment[letter]
            consumed = reverse(image) if slot == 2 else image
            first, last = exact_phase(slot, consumed, (letter,))
        else:
            first, last = identity_phase(slot)
        entries.append(first)
        exits.append(last)
    transitions.append((exits[0], SEP1, (SEP1,), entries[1]))
    transitions.append((exits[1], SEP2, (SEP2,), entries[2]))
    return Transducer(states, transitions, entries[0], [exits[2]])


# -- decidable validation ----------------------------------------------------------


def validate_necessary(s: WhStructure, depth: int = 4, sample_cap: int = 200) -> Verdict:
    """Check the decidable necessary conditions for the structure to describe
    a semigroup.

    Interpretability itself is not decidable and is trusted; this verifies the
    containment invariant, that every sampled product has a representative,
    that words sharing a product entry test equal, and that sampled triple
    products associate.
    """
    from . import arithmetic

    if depth < 1:
        raise OperandError("depth must be at least 1")
    bad = s.table_shape_violation()
    if bad is not None:
        return Verdict.no(f"table word {' '.join(bad)!r} violates the slot shape")
    ns = normalize_generators(s)
    words = ns.reps.enumerate_words(max(depth - 1, 1), ns.ranks)[:sample_cap]
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
    for u, v in pairs:
        try:
            r = arithmetic.multiply(ns, u, v)
        except EmptyProductError:
            return Verdict.no(
                f"missing product witness for {' '.join(u)!r} * {' '.join(v)!r}")
        lang = arithmetic.product_language(ns, u, v)
        for w in cfglib.enumerate_words(lang, len(r) + 1, ns.ranks)[:3]:
            union(r, w)
    seen: dict = {}
    for w in list(classes) + list(words):
        root = find(w)
        other = seen.setdefault(root, w)
        if other != w and not arithmetic.word_eq(ns, w, other):
            return Verdict.no(
                f"words {' '.join(w)!r} and {' '.join(other)!r} share a table entry "
                f"but test unequal")
    for u in words:
        for v in words:
            for x in words:
                if len(u) + len(v) + len(x) > depth:
                    continue
                uv = arithmetic.multiply(ns, u, v)
                vx = arithmetic.multiply(ns, v, x)
                r2 = arithmetic.multiply(ns, u, vx)
                if not arithmetic.check_multiply(ns, uv, x, r2):
                    return Verdict.no(
                        f"associativity fails on {' '.join(u)!r}, {' '.join(v)!r}, "
                        f"{' '.join(x)!r}")
    return Verdict.yes()
