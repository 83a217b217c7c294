"""Self-check of the benchmark itself, on tiny inputs.

    python3 benchmark/selfcheck.py

1. every workload runs on a tiny load with no failed operation;
2. a deliberately wrong reference makes the failure ratio non-zero;
3. the same seed reproduces the input hash, and another seed changes it;
4. tracing wraps the copies made by ``from .x import y`` with the same
   wrapper, and afterwards every binding is the original object again.

Exits non-zero if any check fails.
"""

from __future__ import annotations

import sys
import types

import run  # sets up the import path of the library
import inputs
import references
import spans
from workloads import WORKLOADS

import whsg
from whsg.nfa import Nfa
from whsg.structure import WhStructure
from whsg.transducer import Transducer

SEED = 7
problems = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def one_cycle(wl, seed=SEED):
    """All operations of one pass over the tiny load's blocks."""
    blocks = wl.blocks(wl.make_load(seed, tiny=True))
    return run.run_ops(blocks, len(blocks))


def fail_ratio(records):
    return len(run.failures(records)) / len(records)


def bindings():
    """Every function-valued binding in the whsg modules and traced classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "whsg" or name.startswith("whsg."):
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType):
                    out[(name, attr)] = obj
    for cls in (Nfa, Transducer, WhStructure):
        for attr, obj in vars(cls).items():
            out[(cls.__name__, attr)] = obj
    return out


def main():
    # 1. tiny loads, all correct
    for wl in WORKLOADS.values():
        records = one_cycle(wl)
        check(records and fail_ratio(records) == 0,
              f"{wl.name}: {len(records)} operations on the tiny load, none failed")

    # 2. wrong references are caught
    wrong = [
        ("wordeq-free2-cold", references, "free_equal", lambda w, w2: tuple(w) != tuple(w2)),
        ("wordeq-bicyclic-session", references, "bicyclic_normal", lambda w: ("b",) + tuple(w)),
        ("decide-generic", references.TableModel, "expected",
         lambda self, proc: "no" if proc == "validate_necessary" else "yes"),
        ("decide-flat", references.TableModel, "green", lambda self, w, w2, rel: None),
    ]
    for name, owner, attr, fake in wrong:
        original = vars(owner)[attr]
        setattr(owner, attr, fake)
        try:
            ratio = fail_ratio(one_cycle(WORKLOADS[name]))
        finally:
            setattr(owner, attr, original)
        check(ratio > 0, f"{name}: a wrong {attr} reference gives fail_ratio {ratio:.3f}")

    # 3. seeded inputs
    for wl in WORKLOADS.values():
        a = inputs.digest(wl.make_load(SEED, tiny=True).data)
        b = inputs.digest(wl.make_load(SEED, tiny=True).data)
        c = inputs.digest(wl.make_load(SEED + 1, tiny=True).data)
        check(a == b != c, f"{wl.name}: seed {SEED} hashes to {a} twice, seed {SEED + 1} to {c}")

    # 4. tracing wraps copies and restores every binding
    before = bindings()
    tracer = spans.Tracer()
    wrapped = tracer.install()
    try:
        shared = (whsg.transducer.normalize is whsg.cfg.normalize
                  and whsg.structural.multiply is whsg.arithmetic.multiply
                  and whsg.basic.word_eq is whsg.arithmetic.word_eq is whsg.word_eq)
        replaced = whsg.cfg.normalize is not before[("whsg.cfg", "normalize")]
        tracer.scope = "op"
        whsg.basic.is_monoid(whsg.structure.load_structure(
            inputs.text(inputs.fixture("z2"))))
    finally:
        restored = tracer.uninstall()
    after = bindings()
    check(replaced and shared,
          f"{wrapped} bindings wrapped; copies share the wrapper of their original")
    check(bool(tracer.totals("op")), "the traced call recorded spans")
    check(restored and before.keys() == after.keys()
          and all(after[k] is v for k, v in before.items()),
          f"all {len(before)} function bindings are the original objects after tracing")

    print("self-check " + ("passed" if not problems else f"FAILED: {len(problems)} checks"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
