#!/usr/bin/env python3
"""Time-to-verdict benchmark for eb2jml.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--size full|smoke] [--out DIR]

Run from the root of an eb2jml checkout; the program is imported from the
checkout's ``src/``.  One process runs one workload with no threads.
Every check uses a fresh ``Universe``, so its value cache starts cold, as
in each ``eb2jml check`` run.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs untraced passes, then traced passes, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record (fingerprint, per-pass times, checks run, spans) is written to
``DIR/<workload>-seed<N>-trace<T>.json``, by default under ``bench/out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_PROBES = 5
FRONTEND_ROUNDS = {"full": 1000, "smoke": 50}
WORKLOAD_NAMES = ("social_ladder", "dense_ints", "mutants", "frontend")


def _require_checkout() -> None:
    needed = ("src/eb2jml/__init__.py", "tests/genmachines.py",
              "tests/golden", "machines")
    missing = [p for p in needed if not (ROOT / p).exists()]
    if missing:
        raise SystemExit(f"bench: {ROOT} is not an eb2jml checkout "
                         f"(missing {', '.join(missing)})")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def _import_program():
    import eb2jml
    where = Path(eb2jml.__file__).resolve().parent
    if where != ROOT / "src" / "eb2jml":
        raise SystemExit(f"bench: imported eb2jml from {where}, "
                         f"not from this checkout")
    return eb2jml


# --- set-up -------------------------------------------------------------------

def setup_probe(args) -> None:
    """Child process: a fresh interpreter's import plus input set-up."""
    started = time.perf_counter()
    _import_program()
    import workloads
    wl = workloads.build(ROOT, args.workload, args.seed, args.size)
    workloads.prepare(wl)
    print(json.dumps({"setup_s": time.perf_counter() - started}))


def measure_setup(args) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


# --- operations and their correctness checks ------------------------------------

class Run:
    """Outcomes of one benchmark run: what was attempted, what failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.checks_run: Counter = Counter()
        self.first_output: dict = {}   # op id -> output of its first run

    def expect(self, kind: str, ok: bool, op_id: str, what: str) -> None:
        self.checks_run[kind] += 1
        if not ok:
            self.failures.append(f"{op_id}: {what}")

    def stable(self, kind: str, op_id: str, output) -> None:
        first = self.first_output.setdefault(op_id, output)
        self.expect(kind, output == first, op_id,
                    f"output changed between passes: {first} -> {output}")


def front_op(op, run: Run, tracer=None) -> dict:
    """Parse, well-formedness, translate, render; check the outputs.

    Returns per-layer seconds and the outcome ("translated", "rejected",
    "ill-formed" or "crashed").
    """
    from eb2jml import (
        TranslationError, parse_machine, render_class, translate_machine,
        well_formedness_check,
    )
    run.attempted += 1
    times = {}
    outcome = "crashed"
    rendered = None
    t0 = time.perf_counter()
    try:
        machine = parse_machine(op.text)
        t1 = time.perf_counter()
        times["parse"] = t1 - t0
        diagnostics = well_formedness_check(machine)
        t2 = time.perf_counter()
        times["wf"] = t2 - t1
        if diagnostics:
            outcome = "ill-formed"
        else:
            try:
                unit = translate_machine(machine)
            except TranslationError:
                outcome = "rejected"
            t3 = time.perf_counter()
            times["translate"] = t3 - t2
            if outcome != "rejected":
                rendered = render_class(unit.result)
                times["render"] = time.perf_counter() - t3
                outcome = "translated"
    except Exception:
        run.failures.append(f"{op.id}: crashed\n{traceback.format_exc()}")
        return {"outcome": outcome, "times": times}
    times["total"] = sum(times.values())
    if tracer is not None:
        _front_spans(tracer, t0, times)

    failures = len(run.failures)
    if op.generated:
        run.expect("front.round_trip", machine == op.source, op.id,
                   "parse_machine(render_machine(m)) != m")
    run.expect("front.well_formed", outcome != "ill-formed", op.id,
               f"well-formedness diagnostics: {diagnostics}")
    if not op.generated:
        run.expect("front.corpus_translates", outcome == "translated", op.id,
                   f"corpus machine ended {outcome}")
    if op.golden is not None and rendered is not None:
        run.expect("front.golden_render", rendered == op.golden, op.id,
                   "render differs from its golden file")
    digest = hashlib.sha256((rendered or outcome).encode()).hexdigest()
    run.stable("front.stable", op.id, digest)
    if len(run.failures) > failures:
        outcome = "wrong"
    return {"outcome": outcome, "times": times}


# (timing key, span name, per-layer metric)
FRONT_LAYERS = (("parse", "parser.parse_machine", "parser.parse_ms"),
                ("wf", "ebcheck.well_formedness_check", "ebcheck.wf_ms"),
                ("translate", "translate.translate_machine",
                 "translate.translate_ms"),
                ("render", "jmlast.render_class", "jmlast.render_ms"))


def _front_spans(tracer, t0: float, times: dict) -> None:
    top = tracer.add("bench.frontend", t0, t0 + times["total"], -1)
    start = t0
    for key, name, _metric in FRONT_LAYERS:
        if key in times:
            tracer.add(name, start, start + times[key], top)
            start += times[key]


def check_op(op, run: Run):
    """One check with a fresh Universe; verify the verdicts."""
    from eb2jml import Universe, check_machine
    from eb2jml.checker import FAIL, PASS, RESOURCE_LIMIT
    run.attempted += 1
    try:
        report = check_machine(
            op.machine,
            Universe(int_lo=op.int_lo, int_hi=op.int_hi,
                     carriers=dict(op.carriers)),
            op.unit)
    except Exception:
        run.failures.append(f"{op.id}: crashed\n{traceback.format_exc()}")
        return None
    decided = report.status != RESOURCE_LIMIT
    statuses = {v.status for v in report.verdicts}
    if decided:
        run.expect("check.expected_verdict", report.status == op.expected,
                   op.id, f"verdict {report.status}, expected {op.expected}")
    elif op.expected == PASS:
        run.expect("check.expected_verdict", FAIL not in statuses, op.id,
                   "a verdict FAILed where PASS is expected")
    for v in report.verdicts:
        if v.status == FAIL:
            run.expect("check.witnesses", 1 <= len(v.witnesses) <= 5, op.id,
                       f"{v.name} FAILed with {len(v.witnesses)} witnesses")
        elif v.status == PASS:
            run.expect("check.witnesses", not v.witnesses, op.id,
                       f"{v.name} PASSed with witnesses")
    run.stable("check.stable", op.id,
               tuple((v.name, v.status, len(v.witnesses))
                     for v in report.verdicts))
    return report


# --- passes ---------------------------------------------------------------------

def check_pass(wl, run: Run, tracer=None, label=None) -> dict:
    from eb2jml.checker import RESOURCE_LIMIT
    gc.collect()
    reports = {}
    started = time.perf_counter()
    for op in wl.checks:
        if tracer is None:
            reports[op.id] = check_op(op, run)
            continue
        tracer.check_id = (label, op.id)
        with tracer.span("bench.check"):
            reports[op.id] = check_op(op, run)
    elapsed = time.perf_counter() - started
    done = [r for r in reports.values() if r is not None]
    return {
        "seconds": elapsed,
        "wall": elapsed,
        "decided": sum(r.status != RESOURCE_LIMIT for r in done),
        "witnesses": sum(len(v.witnesses) for r in done for v in r.verdicts),
        "reports": reports,
    }


def front_pass(fronts, run: Run, tracer=None, label=None) -> dict:
    gc.collect()
    results = []
    started = time.perf_counter()
    for op in fronts:
        if tracer is not None:
            tracer.check_id = (label, op.id)
        results.append(front_op(op, run, tracer))
    elapsed = time.perf_counter() - started
    # The pass time is the time spent in the four front-end calls; the
    # benchmark's own output checks (round-trip equality, hashing) run
    # between them and are left out.
    return {
        "seconds": sum(r["times"].get("total", 0.0) for r in results),
        "wall": elapsed,
        "decided": sum(r["outcome"] == "translated" for r in results),
        "rejected": sum(r["outcome"] == "rejected" for r in results),
        "results": results,
    }


def frontend_rounds(wl, run: Run, n: int, tracer=None) -> list[list[dict]]:
    """n rounds of front-end runs, each over every checked machine.

    A check workload has two or three distinct machines whose front-end
    times differ several-fold, so one sample is the mean over a round:
    a percentile of single runs would sit on the edge between two modes.
    """
    rounds = []
    for _ in range(n):
        group = []
        for op in wl.fronts:
            if tracer is not None:
                tracer.check_id = ("frontend", op.id)
            group.append(front_op(op, run, tracer))
        rounds.append(group)
    return rounds


def timed_passes(one_pass, deadline: float) -> list[dict]:
    """Whole passes until the next would end after the deadline (>= 1)."""
    passes = [one_pass(0)]
    while time.perf_counter() + passes[-1]["wall"] <= deadline:
        passes.append(one_pass(len(passes)))
    return passes


# --- metrics ----------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def frontend_ms(groups, key: str = "total", translated: bool = True):
    """Per-machine milliseconds: the mean over each group of front-end runs.

    Groups with a run that did not translate are left out when
    ``translated`` is set, and runs that did not reach the layer always.
    """
    out = []
    for group in groups:
        if translated and any(r["outcome"] != "translated" for r in group):
            continue
        times = [r["times"][key] for r in group if key in r["times"]]
        if times:
            out.append(statistics.fmean(times) * 1e3)
    return out


def end_to_end(passes, fe_groups, setup_samples) -> tuple[dict, dict]:
    samples = frontend_ms(fe_groups) or [0.0]
    # A shared machine alternates between a fast and a ~1.5x slower state
    # for seconds to minutes.  A median (or mean) of passes or samples moves
    # with the share of slow time in the run, which differs from run to
    # run; the 90th percentile sits in the slow state, present in nearly
    # every run, and is the steadier figure.  With fewer than ten passes it
    # is the slowest pass.
    metrics = {
        "check_s.p90": (percentile([p["seconds"] for p in passes], 90), "s"),
        "cells_decided": (statistics.median_low(p["decided"] for p in passes),
                          "count"),
        "frontend_ms.p90": (percentile(samples, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }
    notes = {"passes": len(passes), "frontend_samples": len(samples),
             "check_s.mean": statistics.fmean(p["seconds"] for p in passes),
             "frontend_ms.mean": statistics.fmean(samples),
             "frontend_ms.p50": percentile(samples, 50),
             "frontend_ms.p99": percentile(samples, 99),
             "setup_samples": setup_samples,
             "pass_seconds": [p["seconds"] for p in passes]}
    return metrics, notes


def per_layer(wl, untraced, traced, fe_groups, tracer) -> tuple[dict, dict]:
    import tracing
    spans = tracer.spans
    self_s = tracing.self_times(spans)
    labels = [p["label"] for p in traced]

    def per_pass(fn):
        return statistics.median(fn(label) for label in labels)

    def layer_seconds(names, label):
        return sum(self_s[i] for i, s in enumerate(spans)
                   if s[tracing.NAME] in names
                   and s[tracing.CHECK] and s[tracing.CHECK][0] == label)

    metrics = {}
    for key, _name, metric in FRONT_LAYERS:
        durations = frontend_ms(fe_groups, key, translated=False)
        metrics[metric] = (statistics.median(durations) if durations else 0.0,
                           "ms")
    if wl.checks:
        rejected = sum(r["outcome"] == "rejected"
                       for group in fe_groups for r in group)
    else:
        rejected = per_pass(lambda lb: traced[labels.index(lb)]["rejected"])
    metrics["translate.rejected"] = (rejected, "count")

    for metric, names in tracing.LAYERS.items():
        metrics[metric] = (per_pass(lambda lb: layer_seconds(names, lb)), "s")

    inv_count = _invariant_counts(wl, tracer) if wl.checks else {}
    cells = {op.id: op.cell for op in wl.checks}
    typed = per_pass(lambda lb: sum(
        n for (label, _op), n in tracer.enumerated if label == lb))
    inv = per_pass(lambda lb: sum(
        inv_count[cells[op]] for (label, op), _n in tracer.enumerated
        if label == lb))
    units = per_pass(lambda lb: sum(
        b.spent for (label, _op), b in tracer.budgets if label == lb))
    semantics_s = sum(metrics[m][0] for m in (
        "semantics.enumerate_s", "semantics.eb_rel_s", "semantics.jml_rel_s"))
    metrics["semantics.typed_states"] = (typed, "count")
    metrics["semantics.inv_states"] = (inv, "count")
    metrics["semantics.inv_yield"] = (inv / typed if typed else 0.0, "ratio")
    metrics["semantics.work_units"] = (units, "count")
    metrics["semantics.us_per_unit"] = (
        semantics_s / units * 1e6 if units else 0.0, "us")
    metrics["checker.witnesses"] = (
        per_pass(lambda lb: traced[labels.index(lb)].get("witnesses", 0)),
        "count")

    top = {}
    for s in spans:
        if s[tracing.PARENT] < 0 and s[tracing.CHECK]:
            top[s[tracing.CHECK][0]] = (top.get(s[tracing.CHECK][0], 0.0)
                                        + s[tracing.END] - s[tracing.START])
    overhead = (statistics.fmean(p["seconds"] for p in traced)
                - statistics.fmean(p["seconds"] for p in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.uncovered_s"] = (
        per_pass(lambda lb: traced[labels.index(lb)]["wall"]
                 - top.get(lb, 0.0)), "s")
    notes = {"traced_passes": len(traced), "untraced_passes": len(untraced),
             "traced_pass_seconds": [p["seconds"] for p in traced],
             "untraced_pass_seconds": [p["seconds"] for p in untraced],
             "top_span_coverage": sum(top.get(lb, 0.0) for lb in labels)
             / sum(p["wall"] for p in traced),
             "missing_targets": tracer.missing,
             "spans": len(spans)}
    return metrics, notes


def _invariant_counts(wl, tracer) -> dict:
    """Invariant-satisfying states of each state space that was enumerated.

    Computed by the benchmark after the traced passes, outside any span,
    with the program's Event-B evaluator (undefined counts as false, as in
    the checker).
    """
    from eb2jml.checker import universe_for
    from eb2jml.semantics import (
        EvalError, Universe, eb_pred_holds, enumerate_states,
    )
    seen = {op for (_label, op), _n in tracer.enumerated}
    counts = {}
    for op in wl.checks:
        if op.id not in seen or op.cell in counts:
            continue
        u = universe_for(op.machine, Universe(
            int_lo=op.int_lo, int_hi=op.int_hi, carriers=dict(op.carriers)))
        n = 0
        for s in enumerate_states(op.machine.variables, u):
            try:
                n += all(eb_pred_holds(p, s, {}, u)
                         for _lbl, p in op.machine.invariants)
            except EvalError:
                pass
        counts[op.cell] = n
    return counts


# --- fingerprint and output ---------------------------------------------------------

def fingerprint(wl) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    return {
        "workload": wl.name,
        "size": wl.size,
        "seed": wl.seed,
        "inputs_sha256": wl.fingerprint_inputs(),
        "src_sha256": src.hexdigest(),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--out", default=str(BENCH / "out"),
                    help="directory for the full run record")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _require_checkout()
    if args.setup_probe:
        setup_probe(args)
        return 0

    setup_samples = [] if args.trace else measure_setup(args)
    _import_program()
    import tracing
    import workloads
    wl = workloads.build(ROOT, args.workload, args.seed, args.size)
    workloads.prepare(wl)
    run = Run()
    tracer = tracing.Tracer() if args.trace else None

    started = time.perf_counter()
    deadline = started + args.seconds
    fe_groups = []
    fe_wanted = FRONTEND_ROUNDS[args.size]
    if wl.checks:
        # Front-end samples of the checked machines come in chunks between
        # passes, so that they spread over the run like the checks do.
        def one(tr, label):
            fe_groups.extend(frontend_rounds(wl, run, fe_wanted // 10, tracer))
            return check_pass(wl, run, tr, label)
    else:
        def one(tr, label):
            result = front_pass(wl.fronts, run, tr, label)
            fe_groups.extend([r] for r in result["results"])
            return result

    def top_up():
        if wl.checks and len(fe_groups) < fe_wanted:
            fe_groups.extend(frontend_rounds(
                wl, run, fe_wanted - len(fe_groups), tracer))

    if args.trace:
        # Untraced passes for the first half, traced passes for the second.
        untraced = timed_passes(lambda i: one(None, None),
                                (started + deadline) / 2)
        if not wl.checks:
            fe_groups.clear()
        with tracer.installed():
            traced = timed_passes(
                lambda i: dict(one(tracer, f"pass{i}"), label=f"pass{i}"),
                deadline)
        top_up()
        metrics, notes = per_layer(wl, untraced, traced, fe_groups, tracer)
    else:
        passes = timed_passes(lambda i: one(None, None), deadline)
        top_up()
        metrics, notes = end_to_end(passes, fe_groups, setup_samples)
    first = (untraced if args.trace else passes)[0]
    if wl.checks:
        notes["verdicts"] = {
            op.id: (first["reports"][op.id].status
                    if first["reports"][op.id] else "crashed")
            + f" (expected {op.expected} when decided)"
            for op in wl.checks}

    fp = fingerprint(wl)
    result = {
        "correct": not run.failures and run.attempted > 0,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"fingerprint": fp, "result": result, "notes": notes,
              "checks_run": dict(sorted(run.checks_run.items())),
              "failures": run.failures[:50]}
    if tracer is not None:
        record["spans"] = [
            [s[0], s[1] - started, s[2] - started, s[3], s[4]]
            for s in tracer.spans]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))

    _print_report(wl, args, metrics, notes, run, fp)
    print(json.dumps(result))
    return 0


def _print_report(wl, args, metrics, notes, run, fp) -> None:
    print(f"workload {wl.name} (size {wl.size}, seed {wl.seed}, "
          f"trace {args.trace}): {len(wl.checks)} checks, "
          f"{len(wl.fronts)} front-end inputs")
    for key, value in notes.items():
        if key == "verdicts":
            for op_id, verdict in value.items():
                print(f"  {op_id}: {verdict}")
            continue
        if isinstance(value, list) and value and isinstance(value[0], float):
            value = (f"median {statistics.median(value):.4g}, "
                     f"min {min(value):.4g}, max {max(value):.4g} "
                     f"over {len(value)}")
        print(f"  {key}: {value}")
    print(f"  checks run: {dict(sorted(run.checks_run.items()))}")
    for failure in run.failures[:10]:
        print(f"  FAILED {failure}")
    print(f"  fingerprint: {json.dumps(fp)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
