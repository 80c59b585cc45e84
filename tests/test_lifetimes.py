"""Nothing outlives its pre-state.

A JML witness memo holds the witnesses of one pre-state at a time, and
neither the translator nor the checker leaves a reference cycle behind, so
what a search allocates is freed when it is done, without the cycle
collector.  The relations themselves are pinned elsewhere
(``test_first_fail.py``, ``test_check_golden.py``).
"""

import gc
import random
from dataclasses import replace

import pytest

import test_check_golden as golden
from eb2jml import (
    MutationError, TranslationError, Universe, check_machine,
    mutate_translation, parse_machine, render_class, translate_machine,
    well_formedness_check,
)
from eb2jml import semantics
from eb2jml.checker import MUTATIONS, state_spaces, universe_for
from eb2jml.semantics import Budget, jml_method_rel

from conftest import MACHINES_DIR
from genmachines import random_machine

CORPUS = ("counter", "swap", "social_abstract", "social_ref1")


@pytest.fixture
def no_collector():
    """The cycle collector off, and nothing left for it to start with."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    if enabled:
        gc.enable()


def _machines() -> list:
    """The corpus, and 300 generated machines, each also without its first
    variable declaration, which makes it ill-formed."""
    machines = [parse_machine((MACHINES_DIR / f"{name}.ebm").read_text(
        encoding="utf-8")) for name in CORPUS]
    rng = random.Random(3)
    for _ in range(300):
        machine = random_machine(rng)
        machines += [machine, replace(machine, variables=machine.variables[1:])]
    return machines


def test_translation_leaves_no_cycle(no_collector):
    machines = _machines()
    ill_formed = [bool(well_formedness_check(m)) for m in machines]
    outcomes = {"translated": 0, "ill-formed": 0, "rejected": 0}
    gc.collect()
    for machine, wrong in zip(machines, ill_formed):
        try:
            render_class(translate_machine(machine).result)
            outcomes["translated"] += 1
        except TranslationError:
            outcomes["ill-formed" if wrong else "rejected"] += 1
    assert gc.collect() == 0
    assert all(outcomes.values()), outcomes


# every cell of the check golden file, and a RESOURCE_LIMIT in an
# enumeration phase (the golden cells reach theirs in relation phases)
CELLS = golden.CELLS + (
    ("social_abstract 3x3 ceiling=100", "social_abstract.ebm",
     Universe(0, 2, {"PERSON": 3, "CONTENTS": 3}, 100)),
)


@pytest.mark.parametrize("label, filename, universe", CELLS,
                         ids=[cell[0] for cell in CELLS])
def test_a_check_leaves_no_cycle(no_collector, label, filename, universe):
    machine = parse_machine((MACHINES_DIR / filename).read_text(encoding="utf-8"))
    unit = translate_machine(machine)
    details = set()
    for mutation in (None,) + MUTATIONS:
        try:
            mutated = unit if mutation is None else mutate_translation(unit, mutation)
        except MutationError:
            continue
        gc.collect()
        report = check_machine(machine, universe, mutated)
        assert gc.collect() == 0, (label, mutation, report.status)
        details |= {v.detail.split(" needs ")[0] for v in report.verdicts
                    if v.detail}
    if label.endswith("ceiling=100"):
        assert details == {"Event-B invariant enumeration"}


def test_a_witness_memo_holds_one_pre_state(monkeypatch, social_ref1):
    u = universe_for(social_ref1, Universe(carriers={"PERSON": 2, "CONTENTS": 3}))
    unit = translate_machine(social_ref1)
    spaces = state_spaces(social_ref1, unit, u)
    guard, run = unit.method_pair("edit_owned")
    real = semantics._exists_witnesses
    found_at: dict = {}  # (memo, key) -> (entry, the pre-state it was found at)
    held, served = set(), set()

    def spy(p, pre, at_pre, env, u, memo):
        served.add(pre)
        out = real(p, pre, at_pre, env, u, memo)
        for key, entry in memo.items():
            seen = found_at.get((id(memo), key))
            if seen is None or seen[0] is not entry:
                found_at[id(memo), key] = (entry, pre)
        pres = {id(found_at[id(memo), key][1]) for key in memo}
        held.add(len(pres))
        return out

    monkeypatch.setattr(semantics, "_exists_witnesses", spy)
    rel = jml_method_rel(run, spaces.jml, guard, social_ref1.variables, u,
                         Budget(u.ceiling))
    assert len(rel) == 1077
    assert held == {1}
    assert served == spaces.jml
