"""Tests of the benchmark itself, on the smoke size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = compare.load_spec(ROOT)
CORRECTNESS_CHECKS = {
    "check.expected_verdict", "check.witnesses", "check.stable",
    "front.round_trip", "front.well_formed", "front.corpus_translates",
    "front.golden_render", "front.stable",
}


def _smoke(tmp_path, workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
         "--size", "smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    record = json.loads(
        (tmp_path / f"{workload}-seed7-trace{trace}.json").read_text())
    return result, record


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    return {(w["name"], t): _smoke(out, w["name"], t)
            for w in SPEC["workloads"] for t in (0, 1)}


def test_spec_matches_the_workloads_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_emitted_with_its_unit(smoke_runs, trace):
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for w in SPEC["workloads"]:
        result, _record = smoke_runs[(w["name"], trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        got = result["metrics"]
        assert set(got) == {m["name"] for m in wanted}, w["name"]
        for m in wanted:
            value = got[m["name"]]
            assert value["unit"] == m["unit"], (w["name"], m["name"])
            assert isinstance(value["value"], (int, float))
            assert math.isfinite(value["value"])
        if not trace:
            assert all(got[m["name"]]["value"] > 0 for m in wanted), w["name"]


def test_every_correctness_check_runs(smoke_runs):
    ran = set()
    for (_w, _t), (_result, record) in smoke_runs.items():
        ran |= set(record["checks_run"])
    assert CORRECTNESS_CHECKS <= ran


def test_every_result_carries_a_fingerprint(smoke_runs):
    for (w, _t), (_result, record) in smoke_runs.items():
        fp = record["fingerprint"]
        assert fp["workload"] == w and fp["seed"] == 7
        assert {"inputs_sha256", "src_sha256", "git_sha", "python",
                "nproc"} <= set(fp)


def test_traced_run_records_spans(smoke_runs):
    _result, record = smoke_runs[("social_ladder", 1)]
    assert record["notes"]["missing_targets"] == []
    names = {s[0] for s in record["spans"]}
    assert {"bench.check", "checker.check_event", "checker.jml_method_rel",
            "semantics.enumerate_states"} <= names


def test_same_seed_gives_same_inputs():
    a = workloads.build(ROOT, "frontend", 3, "smoke")
    b = workloads.build(ROOT, "frontend", 3, "smoke")
    c = workloads.build(ROOT, "frontend", 4, "smoke")
    assert a.fingerprint_inputs() == b.fingerprint_inputs()
    assert a.fingerprint_inputs() != c.fingerprint_inputs()


def test_wrong_verdict_counts_as_failed(monkeypatch):
    wl = workloads.build(ROOT, "mutants", 1, "smoke")
    workloads.prepare(wl)
    monkeypatch.setitem(workloads.KILL_MATRIX, "widen_ensures_true", "PASS")
    outcome = run.Run()
    run.check_op(wl.checks[0], outcome)
    assert outcome.attempted == 1 and len(outcome.failures) == 1


def test_wrong_render_counts_as_failed():
    op = workloads.build(ROOT, "dense_ints", 1, "smoke").fronts[0]
    op.golden = op.golden + "// changed\n"
    outcome = run.Run()
    run.front_op(op, outcome)
    assert len(outcome.failures) == 1


def test_tracer_restores_the_program_and_computes_self_time():
    import eb2jml.checker as checker
    import eb2jml.semantics as semantics
    before = (checker.check_event, checker.Budget, semantics.enumerate_states)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert checker.check_event is not before[0]
    assert (checker.check_event, checker.Budget,
            semantics.enumerate_states) == before
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None]]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]


@pytest.mark.parametrize("old,new,expected", [
    ([10.0] * 10, [10.0] * 10, "unchanged"),
    ([10.0 + i * 0.01 for i in range(10)],
     [8.0 + i * 0.01 for i in range(10)], "better"),
    ([10.0 + i * 0.01 for i in range(10)],
     [13.0 + i * 0.01 for i in range(10)], "worse"),
    ([5.0, 15.0] * 5, [6.0, 14.0] * 5, "unresolved"),
])
def test_compare_verdicts(old, new, expected):
    assert compare.verdict(old, new, 0.15, lower_is_better=True) == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense_ints",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
