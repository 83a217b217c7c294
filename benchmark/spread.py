"""Run-to-run spread of the end-to-end metrics.

    python3 benchmark/spread.py [--workloads W ...] [--seeds 1 2 ...] [--out FILE]

Runs ``run.py`` once per (workload, seed), one process at a time, with the
run length from ``BENCHMARK.json``, and prints for every end-to-end metric
the median and the quartile spread (third minus first quartile, as a share
of the median, from ``statistics.quantiles(values, n=4)``) next to the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for wl in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{wl} seed {seed}: {result['failed']} operations failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary[wl] = {}
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _q2, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            summary[wl][name] = {"median": med, "spread": spread, "values": xs}
            flag = "" if spread < bounds[name] / 3 or name == "setup_s" else "  (above a third of the bound)"
            print(f"  {wl:26s} {name:12s} median {med:12.6g} spread {spread:7.4f} "
                  f"bound {bounds[name]}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
