"""Independent reference answers.

Nothing here calls the library's decision procedures or word arithmetic.
Finite tables are judged by brute force over the table (``oracle``'s
``table_decide`` and ``FiniteSemigroup.eval_word``); the two infinite
structures by their normal forms and the verdicts their fixtures document.
"""

from __future__ import annotations

from whsg import oracle

PROPERTY = {
    "is_monoid": "monoid",
    "is_group": "group",
    "is_commutative": "commutative",
    "is_completely_simple": "completely-simple",
    "is_clifford": "clifford",
    "is_free": "free",
}


def free_equal(w, w2) -> bool:
    """Word problem of a free semigroup: equal as words."""
    return tuple(w) == tuple(w2)


def bicyclic_normal(w) -> tuple:
    """Delete ``ab`` factors until none remain; the result is b^i a^j, and the
    identity is represented by ``ab``."""
    out = []
    for sym in w:
        if sym == "b" and out and out[-1] == "a":
            out.pop()
        else:
            out.append(sym)
    return tuple(out) or ("a", "b")


class Model:
    """Element arithmetic and expected verdicts of one input structure."""

    def elt(self, w):
        raise NotImplementedError

    def green(self, w, w2, rel) -> bool:
        raise NotImplementedError

    def expected(self, proc) -> str:
        raise NotImplementedError

    def verdict_ok(self, proc, v) -> bool:
        """The answer matches and every witness the verdict carries holds."""
        if v.answer != self.expected(proc):
            return False
        wit = v.witnesses
        if "identity" in wit and not self.is_identity(wit["identity"]):
            return False
        if "left" in wit and self.elt(wit["left"]) == self.elt(wit["right"]):
            return False
        if proc in ("is_completely_simple", "is_clifford") and v.answer == "yes":
            if not all(self.is_idempotent(w) for w in wit.values()):
                return False
        for key, d in wit.items():
            if key.startswith("decomposition_"):
                if self.elt(d) != self.elt((key[len("decomposition_"):],)):
                    return False
        return True

    def is_identity(self, w) -> bool:
        raise NotImplementedError

    def is_idempotent(self, w) -> bool:
        x = self.elt(w)
        return self.elt(tuple(w) + tuple(w)) == x


class TableModel(Model):
    """A finite semigroup read through a map from letters to elements."""

    def __init__(self, table, letter_elt=None):
        self.table = table
        self.letter_elt = letter_elt or {g: g for g in table.elements}
        self._answers = {}

    def elt(self, w):
        return self.table.eval_word([self.letter_elt[x] for x in w])

    def is_identity(self, w) -> bool:
        return self.elt(w) == self.table.identity()

    def expected(self, proc) -> str:
        if proc == "validate_necessary":
            return "yes"
        if proc not in self._answers:
            self._answers[proc] = oracle.table_decide(self.table, PROPERTY[proc]).answer
        return self._answers[proc]

    def _ideal(self, x, side):
        t = self.table
        if side == "R":
            return {x} | {t.product(x, s) for s in t.elements}
        return {x} | {t.product(s, x) for s in t.elements}

    def green(self, w, w2, rel) -> bool:
        x, y = self.elt(w), self.elt(w2)
        sides = ("R", "L") if rel == "H" else (rel,)
        return all(self._ideal(x, s) == self._ideal(y, s) for s in sides)

    def check_entries(self, data) -> None:
        """Every table word u #1 v #2 w-reversed of a fixture must be a true
        product under the letter map; guards the map itself."""
        for _head, body in data["table"]["productions"]:
            i, j = body.index("#1"), body.index("#2")
            u, v, w = body[:i], body[i + 1:j], body[j + 1:][::-1]
            if self.table.product(self.elt(u), self.elt(v)) != self.elt(w):
                raise ValueError(f"letter map disagrees with table entry {body}")


class BicyclicModel(Model):
    """b^i a^j with a.b the identity; Green's R fixes i and L fixes j."""

    VERDICTS = {"is_monoid": "yes", "is_group": "no", "is_commutative": "no",
                "is_completely_simple": "no", "is_clifford": "no",
                "is_free": "no", "validate_necessary": "yes"}

    def elt(self, w):
        nf = bicyclic_normal(w)
        return nf if nf != ("a", "b") else ()

    def is_identity(self, w) -> bool:
        return self.elt(w) == ()

    def expected(self, proc) -> str:
        return self.VERDICTS[proc]

    def green(self, w, w2, rel) -> bool:
        x, y = self.elt(w), self.elt(w2)
        same_b = x.count("b") == y.count("b")
        same_a = x.count("a") == y.count("a")
        return {"R": same_b, "L": same_a, "H": same_b and same_a}[rel]


class FreeModel(Model):
    """The free semigroup on a and b, with extra letters naming words."""

    VERDICTS = {"is_monoid": "no", "is_group": "no", "is_commutative": "no",
                "is_completely_simple": "no", "is_clifford": "no",
                "is_free": "yes", "validate_necessary": "yes"}

    def __init__(self, letter_word):
        self.letter_word = letter_word

    def elt(self, w):
        return tuple(x for sym in w for x in self.letter_word[sym])

    def is_identity(self, w) -> bool:
        return False

    def expected(self, proc) -> str:
        return self.VERDICTS[proc]

    def green(self, w, w2, rel) -> bool:
        # without an identity, x S^1 = y S^1 only when x = y
        return self.elt(w) == self.elt(w2)


# letters of the finite fixtures, as elements of the matching named table
FIXTURE_LETTERS = {
    "z2": None,
    "sl2": None,
    "rb22": None,
    "null3": {"a": "0", "b": "x", "c": "y"},
    "rees": {"a": "p11", "b": "p12", "c": "p21", "d": "p23", "e": "p22",
             "i": "one", "z": "zero"},
}


def fixture_model(name: str) -> Model:
    if name == "bicyclic":
        return BicyclicModel()
    if name == "free2c":
        return FreeModel({"a": ("a",), "b": ("b",), "c": ("a", "b")})
    return TableModel(oracle.NAMED_TABLES[name](), FIXTURE_LETTERS[name])
