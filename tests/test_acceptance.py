"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the criterion lines as they complete).
"""

import random
import time
from dataclasses import replace

import pytest

from genmachines import oracle_event_rel, random_int_event, random_machine
from eb2jml import (
    mutate_translation, normalize_jml, parse_machine, render_class,
    translate_machine, well_formedness_check,
)
from eb2jml.checker import (
    FAIL, PASS, check_event, check_machine, universe_for,
)
from eb2jml.ebast import Ident, IntType, mod_set
from eb2jml.parser import render_machine
from eb2jml.semantics import (
    DEFAULT_CEILING, Budget, State, Universe, eb_event_rel, eb_pred_holds,
    guard_holds, jml_method_rel,
)

from conftest import (
    GOLDEN_DIR, eb_inv_states, jml_inv_states, pairs, states_where,
)


class _criterion:
    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, _exc, _tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE CRITERION {self.number}: {status} ({self.label})")
        return False


@pytest.fixture(scope="module")
def flagship(social_abstract):
    universe = Universe(int_lo=0, int_hi=2,
                        carriers={"PERSON": 2, "CONTENTS": 2})
    unit = translate_machine(social_abstract)
    started = time.perf_counter()
    report = check_machine(social_abstract, universe, unit)
    elapsed = time.perf_counter() - started
    return social_abstract, universe, unit, report, elapsed


def test_criterion_1_reference_translation_golden(social_ref1):
    """Translating the refined social machine reproduces the published
    reference output token-for-token after normalization."""
    with _criterion(1, "reference translation golden file"):
        started = time.perf_counter()
        shown = replace(social_ref1, events=tuple(
            e for e in social_ref1.events if e.name == "edit_owned"))
        rendered = render_class(translate_machine(shown).result)
        ours = normalize_jml(rendered)
        reference = normalize_jml(
            (GOLDEN_DIR / "ref1_permissions_reference.txt").read_text())
        elapsed = time.perf_counter() - started
        assert ours == reference
        assert "public abstract boolean guard_edit_owned();" in rendered
        assert "assignable contents, pages, owner, viewp, editp;" in rendered
        assert normalize_jml(
            "persons.isEmpty() && contents.isEmpty() && owner.isEmpty() && "
            "pages.isEmpty() && viewp.isEmpty() && editp.isEmpty()") in ours
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget is 1s"


def test_criterion_2_exhaustive_simulation_check(flagship):
    """The exhaustive check over |PERSON| = |CONTENTS| = 2 passes for the
    initialisation and both events within the default ceiling."""
    with _criterion(2, "exhaustive check of the social machine"):
        _m, _u, _unit, report, elapsed = flagship
        statuses = {v.name: v.status for v in report.verdicts}
        assert statuses == {"initialisation": PASS, "create_account": PASS,
                            "edit_owned": PASS}
        assert report.status == PASS
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"


def test_criterion_3_mutation_kill(counter):
    """widen_ensures_true and drop_old must be caught with replayable
    witnesses; shrink_assignable must still pass."""
    with _criterion(3, "mutation kill test on the counter machine"):
        u = Universe(int_lo=0, int_hi=1)
        unit = translate_machine(counter)
        event = counter.event("incr")
        eb_rel = pairs(eb_event_rel(event, eb_inv_states(counter, u),
                                    counter.variables, u, Budget(u.ceiling)))

        for mutation in ("widen_ensures_true", "drop_old"):
            mutated = mutate_translation(unit, mutation)
            verdict = check_event(event, counter, u, mutated)
            assert verdict.status == FAIL, mutation
            assert verdict.witnesses, mutation
            guard, run = mutated.method_pair("incr")
            jml_rel = pairs(jml_method_rel(
                run, jml_inv_states(mutated.result.class_invariant,
                                    counter.variables, u),
                guard, counter.variables, u, Budget(u.ceiling)))
            for w in verdict.witnesses:
                assert (w.pre, w.post) in jml_rel, mutation
                assert (w.pre, w.post) not in eb_rel, mutation

        shrunk = mutate_translation(unit, "shrink_assignable")
        assert check_event(event, counter, u, shrunk).status == PASS


def test_criterion_4_event_semantics_against_oracle():
    """For 100 random single-variable events over [0, 2] the transition
    relation constructed from the invariant states equals an independent
    brute-force enumeration restricted to invariant pre-states."""
    with _criterion(4, "event semantics vs. brute-force oracle"):
        rng = random.Random(42424242)
        u = Universe(int_lo=0, int_hi=2)
        variables = ((Ident("v"), IntType()),)
        discrepancies = 0
        for i in range(100):
            event, inv = random_int_event(rng)
            states = states_where(
                variables, u, lambda s: eb_pred_holds(inv, s, {}, u))
            ours = pairs(eb_event_rel(event, states, variables, u, Budget(u.ceiling)))
            reference = frozenset(p for p in oracle_event_rel(event, inv, 0, 2)
                                  if p[0] in states)
            if ours != reference:
                discrepancies += 1
        assert discrepancies == 0


def test_criterion_5_simultaneous_swap(swap):
    """The swap body yields exactly the 9 swap transitions over [0, 2],
    and the Event-B and JML relations are equal."""
    with _criterion(5, "simultaneity of the swap body"):
        u = Universe(int_lo=0, int_hi=2)
        event = swap.event("exchange")
        eb_rel = pairs(eb_event_rel(event, eb_inv_states(swap, u), swap.variables, u,
                                    Budget(u.ceiling)))
        expected = frozenset(
            (State({"x": a, "y": b}), State({"x": b, "y": a}))
            for a in (0, 1, 2) for b in (0, 1, 2))
        assert eb_rel == expected
        assert len(eb_rel) == 9
        unit = translate_machine(swap)
        guard, run = unit.method_pair("exchange")
        jml_rel = pairs(jml_method_rel(
            run, jml_inv_states(unit.result.class_invariant, swap.variables, u),
            guard, swap.variables, u, Budget(u.ceiling)))
        assert jml_rel == eb_rel


def test_criterion_6_parser_round_trip():
    """500 random well-formed machines survive parse(render(m)) = m."""
    with _criterion(6, "parser round-trip on 500 random machines"):
        rng = random.Random(20260808)
        failures = 0
        for i in range(500):
            m = random_machine(rng)
            assert well_formedness_check(m) == [], f"generator broke at {i}"
            if parse_machine(render_machine(m)) != m:
                failures += 1
        assert failures == 0


def test_criterion_7_frame_properties(flagship):
    """On the passing flagship run, every JML transition with a false guard
    stutters, and every one with a true guard only moves assigned variables."""
    with _criterion(7, "frame conditions over the flagship relations"):
        machine, universe, unit, report, _elapsed = flagship
        assert report.status == PASS  # criterion applies to PASS runs
        u = universe_for(machine, universe)
        var_names = machine.variable_names()
        for event in machine.events:
            guard_spec, run_spec = unit.method_pair(event.name)
            rel = pairs(jml_method_rel(
                run_spec, jml_inv_states(unit.result.class_invariant,
                                         machine.variables, u),
                guard_spec, machine.variables, u, Budget(u.ceiling)))
            assigned = {v.name for v in mod_set(event.actions)}
            for a, b in rel:
                if guard_holds(guard_spec, a, u):
                    untouched = [n for n in var_names if n not in assigned]
                    assert all(a[n] == b[n] for n in untouched), (event.name, a, b)
                else:
                    assert a == b, (event.name, a, b)


def test_criterion_8_refinement_machine_decided(social_ref1, social_abstract):
    """The paper's refinement machine at |PERSON| = |CONTENTS| = 2 and the
    abstract machine at |PERSON| = 2, |CONTENTS| = 3 pass on every verdict
    under the default ceiling."""
    with _criterion(8, "social_ref1 2x2 and social_abstract 2x3 decided"):
        cells = ((social_ref1, {"PERSON": 2, "CONTENTS": 2}),
                 (social_abstract, {"PERSON": 2, "CONTENTS": 3}))
        for machine, carriers in cells:
            universe = Universe(int_lo=0, int_hi=2, carriers=carriers)
            assert universe.ceiling == DEFAULT_CEILING
            report = check_machine(machine, universe)
            statuses = {v.name: v.status for v in report.verdicts}
            assert statuses == {name: PASS for name in
                                ["initialisation"] +
                                [e.name for e in machine.events]}, statuses
