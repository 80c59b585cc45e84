#!/usr/bin/env python3
"""Run the benchmark over several seeds and report the run-to-run spread.

    python3 bench/sweep.py --out DIR [--workloads a,b] [--seeds 1-10]
                           [--trace 0|1] [--seconds S]

Runs ``bench/run.py`` once per workload and seed, one run at a time,
writing each record into DIR.  For every end-to-end metric it then prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile range as a share of the median, against the metric's bound
in BENCHMARK.json.  Two such directories are compared with
``bench/compare.py``.  The exit code is 1 when any run is incorrect or
any spread other than that of ``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_records, load_spec, quartiles, spread, values

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    status = 0
    for name in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", args.out],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = done.stdout.splitlines()[-1] if done.stdout else ""
            ok = done.returncode == 0 and json.loads(last)["correct"]
            status |= not ok
            print(f"{name} seed {seed}: exit {done.returncode} "
                  f"{last[:160] if ok else done.stderr[-2000:] + last}",
                  flush=True)

    if args.trace == 0:
        status |= report_spread(Path(args.out), spec)
    return status


def report_spread(directory: Path, spec: dict) -> int:
    status = 0
    records = load_records(directory, 0)
    print(f"\n{'workload':<14} {'metric':<16} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            xs = values(records.get(w["name"], {}), m["name"])
            if not xs:
                continue
            q1, med, q3 = quartiles(xs)
            s = spread(xs)
            if s <= m["bound"] / 3:
                note = "ok"
            elif s <= m["bound"]:
                note = "within bound, above a third of it"
            else:
                note = "OVER BOUND"
                status |= m["name"] != "setup_s"
            print(f"{w['name']:<14} {m['name']:<16} {med:>10.4g} {q1:>10.4g} "
                  f"{q3:>10.4g} {s:>7.3f} {m['bound']:>6.2f}  {note} "
                  f"(n={len(xs)})")
    return status


if __name__ == "__main__":
    sys.exit(main())
