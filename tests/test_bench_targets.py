"""The traced benchmark run wraps program functions by name; a rename must
fail here rather than drop per-layer metrics from the benchmark record."""

import ast
import importlib
import importlib.util

from eb2jml import Universe, check_machine, mutate_translation, translate_machine

from conftest import TESTS_DIR, load_machine

BENCH_DIR = TESTS_DIR.parent / "bench"
TRACING = BENCH_DIR / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    tracing = _load_tracing()
    missing = [f"{module.__name__}.{attr}" for module, attr in tracing.TARGETS
               if not hasattr(module, attr)]
    assert missing == []
    assert isinstance(tracing.checker.Budget, type)
    assert tracing.checker.Budget is tracing.semantics.Budget


def test_tracer_installs_without_missing_targets():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == []


def test_a_failing_check_reaches_the_traced_names():
    # the checker must reach its steps through the module globals that the
    # traced run wraps; semantics.enumerate_states is no longer called
    tracing = _load_tracing()
    machine = load_machine("counter.ebm")
    unit = mutate_translation(translate_machine(machine), "widen_ensures_true")
    tracer = tracing.Tracer()
    with tracer.installed():
        report = check_machine(machine, Universe(int_lo=0, int_hi=1), unit)
    assert report.status == "FAIL"
    targets = {f"{module.__name__.split('.')[-1]}.{attr}"
               for module, attr in tracing.TARGETS}
    recorded = {span[tracing.NAME] for span in tracer.spans}
    assert targets - recorded == {"semantics.enumerate_states"}
    assert tracer.budgets


def _program_imports():
    """(file, module, name) for each ``from eb2jml... import name`` in
    ``bench/*.py``, and (file, module, None) for each ``import eb2jml...``."""
    found = []
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    node.module.split(".")[0] == "eb2jml":
                found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names
                          if a.name.split(".")[0] == "eb2jml"]
    return found


def test_every_name_the_benchmark_imports_exists():
    imports = _program_imports()
    assert {(f, n) for f, _m, n in imports} >= {
        ("run.py", "enumerate_states"), ("run.py", "eb_pred_holds"),
        ("run.py", "EvalError"), ("run.py", "universe_for"),
        ("workloads.py", "mutate_translation")}
    missing = []
    for f, m, n in imports:
        module = importlib.import_module(m)  # a missing module fails here
        if n is not None and not hasattr(module, n):
            missing.append(f"{f}: {m}.{n}")
    assert missing == []
