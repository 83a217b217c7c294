"""Command-line front end: every decision procedure, with JSON reports.

Each run prints one JSON object {"answer", "witnesses", "reason",
"elapsed_ms"} and exits 0 when the procedure ran (whatever the verdict),
1 on input errors, and 2 when an enumeration cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import arithmetic, basic, oracle, structural
from .errors import CapExceededError, OperandError, ParseError, WhsgError
from .structure import (load_structure, normalize_generators, save_structure,
                        validate_necessary)
from .words import SEP1, SEP2


def tokenize(text: str, symbols) -> tuple:
    """Parse a word argument: comma-separated symbols, or greedy
    longest-match over the declared symbols for plain strings."""
    if "," in text:
        parts = tuple(p for p in text.split(",") if p)
        return parts
    by_length = sorted(symbols, key=len, reverse=True)
    out = []
    rest = text
    while rest:
        for sym in by_length:
            if rest.startswith(sym):
                out.append(sym)
                rest = rest[len(sym):]
                break
        else:
            raise OperandError(f"cannot tokenize {text!r} over the alphabet "
                               f"{sorted(symbols)}")
    return tuple(out)


def _load(args):
    path = args.structure if args.structure is not None else args.structure_opt
    if path is None:
        raise ParseError("no structure file given (positional or --structure)")
    return load_structure(path)


def _word(args, s, text):
    return tokenize(text, set(s.alphabet) | {SEP1, SEP2})


def cmd_validate(args):
    s = _load(args)
    v = validate_necessary(s, depth=args.depth)
    return v.answer, v.witnesses, v.reason


def cmd_normalize(args):
    s = _load(args)
    ns = normalize_generators(s)
    source = args.structure if args.structure is not None else args.structure_opt
    out = args.output or _default_output(source, ".normalized.whs")
    save_structure(ns, out)
    return "yes", {}, f"wrote {out}"


def cmd_multiply(args):
    s = _load(args)
    r = arithmetic.multiply(s, _word(args, s, args.left), _word(args, s, args.right))
    return "yes", {"result": r}, ""


def cmd_represent(args):
    s = _load(args)
    r = arithmetic.represent(s, _word(args, s, args.word))
    return "yes", {"result": r}, ""


def cmd_word_eq(args):
    s = _load(args)
    res = arithmetic.word_eq(s, _word(args, s, args.left), _word(args, s, args.right))
    return "true" if res else "false", {}, ""


def cmd_green(args):
    s = _load(args)
    res = basic.green_related(s, _word(args, s, args.left),
                              _word(args, s, args.right), args.rel)
    return "true" if res else "false", {}, ""


def _verdict_cmd(fn):
    def run(args):
        v = fn(_load(args))
        return v.answer, v.witnesses, v.reason

    return run


def cmd_is_completely_simple(args):
    v = structural.is_completely_simple(_load(args), max_species=args.max_species)
    return v.answer, v.witnesses, v.reason


def cmd_is_clifford(args):
    v = structural.is_clifford(_load(args),
                               max_alphabet=args.max_alphabet_clifford,
                               max_species=args.max_species)
    return v.answer, v.witnesses, v.reason


def cmd_is_free(args):
    v = structural.is_free(_load(args),
                           defect_witness_length=args.defect_witness_length)
    return v.answer, v.witnesses, v.reason


def cmd_from_table(args):
    t = oracle.load_table(args.table)
    s = oracle.structure_from_table(t)
    out = args.output or _default_output(args.table, ".whs")
    save_structure(s, out)
    return "yes", {}, f"wrote {out}"


def cmd_defect_check(args):
    from .structure import _cfg_from_json, _read_json

    data = _read_json(args.grammar)
    try:
        alphabet = tuple(str(a) for a in data["alphabet"])
        grammar = _cfg_from_json(data["grammar"], alphabet + (SEP1, SEP2))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed grammar file: {exc}") from exc
    defect = structural.palindromic_defect(
        grammar, witness_bound=args.defect_witness_length)
    if defect is None:
        return "no", {}, "every member mirrors around the separator"
    witnesses = {"defect": defect.witness} if defect.witness else {}
    return "yes", witnesses, defect.reason


def _default_output(source, suffix):
    p = Path(str(source))
    return str(p.with_name(p.stem + suffix))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whsg",
        description="Decision procedures for semigroups given by a regular "
                    "language of representatives and a context-free "
                    "multiplication table.")
    sub = parser.add_subparsers(dest="command", required=True)

    def structure_cmd(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("structure", nargs="?", help="structure file (.whs)")
        p.add_argument("--structure", dest="structure_opt",
                       help="structure file (alternative to the positional)")
        p.set_defaults(handler=fn)
        return p

    p = structure_cmd("validate", cmd_validate,
                      "check the decidable necessary conditions")
    p.add_argument("--depth", type=int, default=4)

    p = structure_cmd("normalize", cmd_normalize,
                      "rewrite so every letter is its own representative")
    p.add_argument("--output", "-o")

    p = structure_cmd("multiply", cmd_multiply, "product representative")
    p.add_argument("left")
    p.add_argument("right")

    p = structure_cmd("represent", cmd_represent,
                      "representative of an alphabet word")
    p.add_argument("word")

    p = structure_cmd("word-eq", cmd_word_eq, "decide element equality")
    p.add_argument("left")
    p.add_argument("right")

    p = structure_cmd("green", cmd_green, "decide a Green relation")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--rel", choices=["R", "L", "H"], default="R")

    structure_cmd("is-monoid", _verdict_cmd(basic.is_monoid),
                  "is there a two-sided identity?")
    structure_cmd("is-group", _verdict_cmd(basic.is_group),
                  "is the semigroup a group?")
    structure_cmd("is-commutative", _verdict_cmd(basic.is_commutative),
                  "do all elements commute?")

    p = structure_cmd("is-completely-simple", cmd_is_completely_simple,
                      "is the semigroup completely simple?")
    p.add_argument("--max-species", type=int, default=10000)

    p = structure_cmd("is-clifford", cmd_is_clifford,
                      "is the semigroup a Clifford semigroup?")
    p.add_argument("--max-species", type=int, default=10000)
    p.add_argument("--max-alphabet-clifford", type=int, default=4)

    p = structure_cmd("is-free", cmd_is_free, "is the semigroup free?")
    p.add_argument("--defect-witness-length", type=int, default=12)

    p = sub.add_parser("from-table",
                       help="build a structure from a finite multiplication table")
    p.add_argument("table", help="table file (.json)")
    p.add_argument("--output", "-o")
    p.set_defaults(handler=cmd_from_table)

    p = sub.add_parser("defect-check",
                       help="check a grammar over A+#2 for palindromic defects")
    p.add_argument("grammar", help="grammar file (.json)")
    p.add_argument("--defect-witness-length", type=int, default=12)
    p.set_defaults(handler=cmd_defect_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    code = 0
    try:
        answer, witnesses, reason = args.handler(args)
    except CapExceededError as exc:
        answer, witnesses, reason = "error", {}, str(exc)
        code = 2
    except (WhsgError, OSError, ValueError) as exc:
        answer, witnesses, reason = "error", {}, str(exc)
        code = 1
    elapsed = int((time.perf_counter() - started) * 1000)
    report = {
        "answer": answer,
        "witnesses": {k: list(v) for k, v in sorted(witnesses.items())},
        "reason": reason,
        "elapsed_ms": elapsed,
    }
    print(json.dumps(report, ensure_ascii=False))
    return code


if __name__ == "__main__":
    sys.exit(main())
