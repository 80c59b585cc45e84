#!/usr/bin/env python3
"""Compare two result sets of the benchmark.

    python3 bench/compare.py OLD_DIR NEW_DIR

Each directory holds the records ``bench/run.py --out DIR`` writes (for
example from ``bench/sweep.py``).  For every workload and end-to-end
metric in BENCHMARK.json it reports the medians and quartiles of both
sides and one verdict:

  better      NEW wins at least 9 in 10 of the pairs (ties count for
              neither) and the medians differ by more than OLD's
              interquartile range; or the spread is wider than the bound
              and every NEW run beats every OLD run.
  worse       NEW's median is worse than OLD's by more than the metric's
              bound (with a spread wider than the bound: only when every
              NEW run is worse than every OLD run).
  unresolved  the run-to-run spread of either side, as a share of its
              median, is wider than the bound, and neither of the above.
  unchanged   otherwise.

Runs are paired by seed.  A pair whose input fingerprints differ makes the
whole workload "inputs differ": the inputs changed, not the speed.  With
traced records (``--trace 1``) on both sides, per-layer medians and the
tracing overhead are listed as well.  The exit code is 1 when any metric
is worse or any inputs differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def load_records(directory: Path, trace: int) -> dict:
    """{workload: {seed: record}} for one trace mode."""
    out: dict = {}
    for path in sorted(Path(directory).glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        fp = record["fingerprint"]
        out.setdefault(fp["workload"], {})[fp["seed"]] = record
    return out


def values(records: dict, metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"]
            for _seed, r in sorted(records.items())
            if metric in r["result"]["metrics"]]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(old: list[float], new: list[float], bound: float,
            lower_is_better: bool) -> str:
    sign = 1 if lower_is_better else -1

    def gain(a, b):          # > 0 when b is better than a
        return (a - b) * sign

    pairs = list(zip(old, new))
    wins = sum(gain(a, b) > 0 for a, b in pairs)
    q1, med_old, q3 = quartiles(old)
    med_new = statistics.median(new)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_new - med_old) > q3 - q1:
        return "better"
    worse_by = -gain(med_old, med_new)
    if max(spread(old), spread(new)) > bound:
        if min(gain(a, b) for a in old for b in new) > 0:
            return "better"
        if max(gain(a, b) for a in old for b in new) < 0 \
                and worse_by > bound * abs(med_old):
            return "worse"
        return "unresolved"
    if worse_by > bound * abs(med_old):
        return "worse"
    return "unchanged"


def _inputs_match(old: dict, new: dict) -> bool:
    return all(old[s]["fingerprint"]["inputs_sha256"]
               == new[s]["fingerprint"]["inputs_sha256"]
               for s in old.keys() & new.keys())


def _paired(old: dict, new: dict) -> tuple[dict, dict]:
    common = old.keys() & new.keys()
    if common:
        return ({s: old[s] for s in common}, {s: new[s] for s in common})
    return old, new


def compare(old_dir: Path, new_dir: Path, spec: dict) -> int:
    status = 0
    old_all, new_all = load_records(old_dir, 0), load_records(new_dir, 0)
    print(f"{'workload':<14} {'metric':<16} {'old median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30}  bound  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in old_all or name not in new_all:
            print(f"{name:<14} (no records on both sides)")
            continue
        old, new = _paired(old_all[name], new_all[name])
        if not _inputs_match(old, new):
            print(f"{name:<14} inputs differ: compare runs of the same inputs")
            status = 1
            continue
        for m in spec["end_to_end"]:
            a, b = values(old, m["name"]), values(new, m["name"])
            if not a or not b:
                continue
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            status |= v == "worse"
            print(f"{name:<14} {m['name']:<16} {_fmt(a):>30} {_fmt(b):>30} "
                  f"{m['bound']:>5.2f}  {v}")
    _compare_layers(old_dir, new_dir, spec)
    return status


def _fmt(xs: list[float]) -> str:
    q1, med, q3 = quartiles(xs)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(xs)}"


def _compare_layers(old_dir: Path, new_dir: Path, spec: dict) -> None:
    old_all, new_all = load_records(old_dir, 1), load_records(new_dir, 1)
    shared = [w["name"] for w in spec["workloads"]
              if w["name"] in old_all and w["name"] in new_all]
    if not shared:
        return
    print("\nper-layer medians of the traced runs (no bounds):")
    for name in shared:
        for m in spec["per_layer"]:
            a = values(old_all[name], m["name"])
            b = values(new_all[name], m["name"])
            if a and b:
                print(f"{name:<14} {m['name']:<24} "
                      f"{statistics.median(a):>12.5g} -> "
                      f"{statistics.median(b):<12.5g} {m['unit']}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(Path(argv[0]), Path(argv[1]), load_spec())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
