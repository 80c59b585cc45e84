"""The traced benchmark run wraps program functions by name; a rename must
fail here rather than drop per-layer metrics from the benchmark record."""

import importlib.util

from conftest import TESTS_DIR

TRACING = TESTS_DIR.parent / "bench" / "tracing.py"


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
