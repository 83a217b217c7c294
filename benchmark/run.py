"""whsg benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the library in-process from one thread as a closed loop: the next
operation starts when the previous one returns.  With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced run; the last line of standard output is one JSON object.  Every
operation is checked against an independent reference.  The library is
imported from ``src/`` of the checkout that holds this file; without it the
run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import whsg
except ImportError as exc:
    sys.exit(f"benchmark: cannot import whsg from {ROOT / 'src'}: {exc}")
if not Path(whsg.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"benchmark: whsg was imported from {whsg.__file__}, not from this checkout")

import inputs  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, forget_loaded  # noqa: E402

SPAN_DIR = Path(__file__).resolve().parent / "out"
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_SECONDS = 5, 1000, 1.0
TAIL_BEYOND = 10


class Record:
    __slots__ = ("kind", "seconds", "ok", "error")

    def __init__(self, kind, seconds, ok, error):
        self.kind, self.seconds, self.ok, self.error = kind, seconds, ok, error


def run_ops(blocks, n_blocks, tracer=None, between=None):
    """Run `n_blocks` blocks of operations in order, cycling through the
    list, calling `between` after each block.  Only the library call is
    timed."""
    records = []
    for i in range(n_blocks):
        if i and between:
            between()
        for op in blocks[i % len(blocks)]():
            if tracer:
                tracer.scope = "op"
            t0 = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a raising operation counts as failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer:
                tracer.scope = "glue"
            records.append(Record(op.kind, dt, error is None and op.check(result), error))
    return records


def block_count(wl, seconds, minimum=1):
    return max(minimum, math.floor(seconds / wl.BLOCK_SECONDS + 0.5))


def setup_once(texts, tracer=None):
    """Wall time of loading the whole input set once."""
    if tracer:
        tracer.scope = "setup"
    t0 = time.perf_counter()
    for text in texts:
        whsg.structure.load_structure(text)
    dt = time.perf_counter() - t0
    if tracer:
        tracer.scope = "glue"
    return dt


def repeat_setup(texts, seconds, min_reps=1, tracer=None):
    """Wall times of loading the whole input set, repeated at least
    `min_reps` times and for `seconds`."""
    times = []
    while len(times) < min_reps or (sum(times) < seconds and len(times) < SETUP_MAX_REPS):
        times.append(setup_once(texts, tracer))
    return times


def tail(seconds):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    the (TAIL_BEYOND+1)-th largest sample, and its percentile."""
    xs = sorted(seconds)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[-TAIL_BEYOND - 1], 100.0 * (len(xs) - TAIL_BEYOND - 1) / (len(xs) - 1)


def failures(records):
    return [r for r in records if not r.ok]


def report_failures(records):
    for r in failures(records)[:10]:
        print(f"FAILED {r.kind}: {r.error or 'answer disagrees with the reference'}",
              file=sys.stderr)


def end_to_end(wl, ld, seconds):
    texts = ld.structure_texts()
    n_blocks = block_count(wl, seconds, wl.MIN_BLOCKS)
    setups = repeat_setup(texts, 0, SETUP_MIN_REPS)
    gc.collect()
    # the rest of the set-up repetitions are spread between the blocks: the
    # machine switches between a fast and a slow state (flat set-up 4.6 or
    # 7.5 ms) for seconds at a time, and repetitions bunched at the start
    # measured only the state of the run's first second
    records = run_ops(wl.blocks(ld), n_blocks, between=lambda: setups.extend(
        repeat_setup(texts, SETUP_SECONDS / n_blocks)))
    times = [r.seconds for r in records]
    n = len(records)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ops_per_s": (n / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": ((n - len(failures(records))) / n, "ratio"),
    }
    kinds = {}
    for r in records:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    print(f"operations: {n} ({', '.join(f'{k} {v}' for k, v in sorted(kinds.items()))}); "
          f"set-up repeated {len(setups)} times")
    print(f"fail_ratio: {len(failures(records)) / n:.4f} ({len(failures(records))} of {n})")
    print(f"op_tail_ms is p{tail_pct:.1f} of {n} samples")
    return records, metrics


# per-layer metrics: span name -> metric prefix, measured in the operations
OP_SPANS = {
    "cfg.normalize": "cfg.normalize",
    "cfg._cyk_masks": "cfg.cyk",
    "cfg.membership": "cfg.membership",
    "cfg.prefix_quotient": "cfg.prefix_quotient",
    "cfg.intersect_regular": "cfg.intersect_regular",
    "cfg.shortest_word": "cfg.shortest_word",
    "cfg.enumerate_words": "cfg.enumerate_words",
    "nfa.Nfa.determinize": "nfa.determinize",
    "nfa.Nfa.intersect": "nfa.intersect",
    "nfa.Nfa.equivalent": "nfa.equivalent",
    "transducer.Transducer.apply_to_cfg": "transducer.apply_to_cfg",
    "transducer.Transducer.apply_to_nfa": "transducer.apply_to_nfa",
    "structure.WhStructure.table_shape_violation": "structure.table_shape_violation",
    "structure.normalize_generators": "structure.normalize_generators",
    "arithmetic.multiply": "arithmetic.multiply",
}
# item totals reported per operation; the others are averaged per call
PER_OP_ITEMS = {"work"}
# callers of cfg.normalize, whose inclusive time shows where it is spent
INCLUSIVE = {"cfg.intersect_regular", "cfg.prefix_quotient",
             "transducer.Transducer.apply_to_cfg", "structure.normalize_generators"}
SETUP_SPANS = {
    "structure.load_structure": "setup.structure.load_structure",
    "structure.WhStructure.table_shape_violation": "setup.structure.table_shape_violation",
    "nfa.Nfa.determinize": "setup.nfa.determinize",
    "cfg.intersect_regular": "setup.cfg.intersect_regular",
}


def layer_metrics(tracer, n_ops, op_seconds, n_setups):
    ops = tracer.totals("op")
    zero = spans.Stat()

    def st(name, scope_stats=ops):
        return scope_stats.get(name, zero)

    m = {}
    for name, prefix in OP_SPANS.items():
        s = st(name)
        m[f"{prefix}.calls"] = (s.calls / n_ops, "calls/op")
        m[f"{prefix}.self_ms"] = (s.self_ns / 1e6 / n_ops, "ms/op")
        if name in INCLUSIVE:
            m[f"{prefix}.total_ms"] = (s.total_ns / 1e6 / n_ops, "ms/op")
        for item, _f in spans.ITEMS.get(name, ()):
            total = s.items.get(item, 0)
            if item == "flat":
                m[f"{prefix}.flat_share"] = (total / s.calls if s.calls else 0.0, "ratio")
            elif item in PER_OP_ITEMS:
                m[f"{prefix}.{item}"] = (total / n_ops, f"{item}/op")
            else:
                m[f"{prefix}.{item}"] = (total / s.calls if s.calls else 0.0,
                                         f"{item.split('_')[0]}/call")

    def ratio_complement(part, whole):
        return 1 - part / whole if whole else 0.0

    mul, chk = st("arithmetic.multiply").calls, st("arithmetic.check_multiply").calls
    m["arithmetic.mul_hit_ratio"] = (
        ratio_complement(st("arithmetic.product_language").calls, mul), "ratio")
    m["arithmetic.check_multiply.calls"] = (chk / n_ops, "calls/op")
    m["arithmetic.chk_hit_ratio"] = (
        ratio_complement(st("structure.WhStructure.table_accepts").calls, chk), "ratio")
    m["arithmetic.represent.calls"] = (st("arithmetic.represent").calls / n_ops, "calls/op")
    cs, cl = st("structural.cs_species_check"), st("structural.clifford_species_check")
    tried = cs.calls + cl.calls
    accepted = cs.items.get("accepted", 0) + cl.items.get("accepted", 0)
    m["structural.species_tried"] = (tried / n_ops, "species/op")
    m["structural.species_accept_ratio"] = (accepted / tried if tried else 0.0, "ratio")
    m["structural.palindromic_defect.self_ms"] = (
        st("structural.palindromic_defect").self_ns / 1e6 / n_ops, "ms/op")

    setup = tracer.totals("setup")
    for name, prefix in SETUP_SPANS.items():
        s = st(name, setup)
        m[f"{prefix}.calls"] = (s.calls / n_setups, "calls/setup")
        m[f"{prefix}.self_ms"] = (s.self_ns / 1e6 / n_setups, "ms/setup")
        if name == "nfa.Nfa.determinize":
            m[f"{prefix}.states_out"] = (
                s.items.get("states_out", 0) / s.calls if s.calls else 0.0, "states/call")

    by_layer = {}
    for name, s in ops.items():
        layer = spans.LAYERS[name.split(".", 1)[0]]
        by_layer[layer] = by_layer.get(layer, 0) + s.self_ns
    for layer in ("kernel", "arithmetic", "procedures", "structure"):
        m[f"layer.{layer}.self_ms"] = (by_layer.get(layer, 0) / 1e6 / n_ops, "ms/op")
    m["trace.accounted_share"] = (sum(by_layer.values()) / (op_seconds * 1e9), "ratio")
    glue = tracer.totals("glue")
    m["layer.oracle.self_ms"] = (
        sum(s.self_ns for name, s in glue.items() if name.startswith("oracle."))
        / 1e6 / n_ops, "ms/op")
    m["trace.op_ms"] = (op_seconds * 1e3 / n_ops, "ms/op")
    return m


def traced(wl, ld, seconds, seed):
    """Traced run of half the blocks, then the same operations untraced for
    the overhead ratio."""
    tracer = spans.Tracer()
    wrapped = tracer.install()
    try:
        n_setups = len(repeat_setup(ld.structure_texts(), SETUP_SECONDS, SETUP_MIN_REPS, tracer))
        gc.collect()
        records = run_ops(wl.blocks(ld), block_count(wl, seconds / 2), tracer=tracer)
    finally:
        restored = tracer.uninstall()
        forget_loaded()
    if not restored:
        raise RuntimeError("a wrapped binding was not restored")
    n = len(records)
    traced_s = sum(r.seconds for r in records)
    gc.collect()
    plain = run_ops(wl.blocks(ld), block_count(wl, seconds / 2))
    plain_s = sum(r.seconds for r in plain)
    metrics = layer_metrics(tracer, n, traced_s, n_setups)
    metrics["trace.ops_per_s_ratio"] = (plain_s / traced_s, "ratio")
    path = SPAN_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    written = tracer.write_spans(path)
    print(f"traced {n} operations with {wrapped} wrapped bindings; "
          f"untraced replay ops_per_s {n / plain_s:.4g}, traced {n / traced_s:.4g}")
    print(f"spans: {written} written to {path.relative_to(ROOT)}, {tracer.dropped} beyond the cap")
    top = sorted(tracer.totals("op").items(), key=lambda kv: -kv[1].self_ns)[:12]
    for name, s in top:
        print(f"  {name:44s} calls {s.calls:9d}  self {s.self_ns / 1e6:10.1f} ms "
              f"({100 * s.self_ns / (traced_s * 1e9):5.1f}%)")
    return records + plain, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    wl = WORKLOADS[args.workload]
    ld = wl.make_load(args.seed)
    print(f"workload {wl.name} seed {args.seed} inputs_sha256 {inputs.digest(ld.data)}")
    if args.trace:
        records, metrics = traced(wl, ld, args.seconds, args.seed)
    else:
        records, metrics = end_to_end(wl, ld, args.seconds)
    report_failures(records)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    failed = len(failures(records))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
