"""The JML relation tests each ensures conjunct only where it can change.

An ensures conjunct that reads no name and binds none outside \\old, such as
``true`` or ``\\old(guard)``, has one value at every post-state, so
``jml_method_rel`` decides it once per tuple of the pre-state values it
reads; only the other conjuncts are tested per candidate.  The relation must
still equal, pre-state by pre-state, a scan of every pair of invariant
states with every \\exists witness tried in full, and every candidate is
still charged.
"""

import logging
import tracemalloc

import pytest

import eb2jml.semantics as semantics
from eb2jml import translate_machine
from eb2jml.checker import check_machine, mutate_translation, universe_for
from eb2jml.ebast import Ident, IntType, RelType
from eb2jml.jmlast import (
    AssignNothing, AssignVars, JInt, JmlAnd, JmlCmp, JmlExists, JmlIntLit,
    JmlMethodCall, JmlMethodSpec, JmlOld, JmlOldExpr, JmlTrue, JmlVar, SpecCase,
)
from eb2jml.semantics import (
    Budget, EvalError, Universe, enumerate_states, inline_guard_calls,
    jml_method_rel,
)

from conftest import jml_inv_states, jml_scan_holds, load_machine

SWAP_0_12 = Universe(int_lo=0, int_hi=12)


def _holds(p, a, b, u) -> bool:
    try:
        return jml_scan_holds(p, a, b, {}, u)
    except EvalError:
        return False


def _scan_posts(run, guard, var_names, states, u, a) -> frozenset:
    """The post-states the run method admits from ``a``, each pair tested
    by definition: every active case's frame and ensures clause."""
    active = [c for c in (run.normal, run.exceptional) if c is not None
              and _holds(inline_guard_calls(c.requires, guard), a, a, u)]
    return frozenset(
        b for b in states
        if all(all(a[n] == b[n] for n in var_names
                   if n not in getattr(c.assignable, "names", ()))
               and _holds(c.ensures, a, b, u) for c in active))


def _assert_scan_equal(run, guard, variables, states, u) -> dict:
    """The relation, after checking it against the scan at each pre-state."""
    rel = jml_method_rel(run, states, guard, variables, u, Budget(u.ceiling))
    var_names = tuple(ident.name for ident, _ty in variables)
    for a in states:
        assert rel.get(a, frozenset()) == \
            _scan_posts(run, guard, var_names, states, u, a), a
    assert all(rel.values())
    return rel


def _check_counts(report) -> list:
    return [v.checked_pairs for v in report.verdicts]


# --- the corpus ---------------------------------------------------------------

@pytest.mark.parametrize("mutation", ["widen_ensures_true", "drop_old"])
def test_pre_state_ensures_are_not_evaluated_per_candidate(mutation, monkeypatch):
    # at the parent: 28,937 and 143,181 evaluations, for 169 pre-states
    machine = load_machine("swap.ebm")
    unit = mutate_translation(translate_machine(machine), mutation)
    entries = []
    holds = semantics.jml_pred_holds

    def spy(p, *args):
        entries.append(p)
        return holds(p, *args)

    monkeypatch.setattr(semantics, "jml_pred_holds", spy)
    report = check_machine(machine, SWAP_0_12, unit)
    assert report.status == "FAIL"
    assert _check_counts(report) == [170, 28_730]
    assert len(entries) <= 1_000


def test_faithful_old_guard_is_evaluated_per_pre_state_at_most(monkeypatch):
    # the old guard of the faithful swap was evaluated 28,561 times, once per pair
    machine = load_machine("swap.ebm")
    olds = []
    holds = semantics.jml_pred_holds

    def spy(p, *args):
        if isinstance(p, JmlOld):
            olds.append(p)
        return holds(p, *args)

    monkeypatch.setattr(semantics, "jml_pred_holds", spy)
    report = check_machine(machine, SWAP_0_12, translate_machine(machine))
    assert report.status == "PASS"
    assert _check_counts(report) == [170, 28_730]
    assert len(olds) <= 169


def test_fully_passing_pre_states_share_one_post_set():
    # ensures true over a frame of every variable: each pre-state's
    # candidates are all 169 states, kept once (1.5 MB at the parent)
    machine = load_machine("swap.ebm")
    unit = mutate_translation(translate_machine(machine), "widen_ensures_true")
    guard, run = unit.method_pair("exchange")
    u = universe_for(machine, SWAP_0_12)
    states = jml_inv_states(unit.result.class_invariant, machine.variables, u)
    rel = jml_method_rel(run, states, guard, machine.variables, u, Budget(u.ceiling))
    assert len(rel) == len(states) == 169
    assert len({id(bs) for bs in rel.values()}) == 1
    tracemalloc.start()
    try:
        report = check_machine(machine, SWAP_0_12, unit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _check_counts(report) == [170, 28_730]
    assert peak <= 500_000


def test_false_pre_state_conjunct_at_active_pre_states():
    # negate_guard_link makes the normal case active where v /= 0, and its
    # \old(v == 0) is false there: no candidate passes, each is charged
    machine = load_machine("counter.ebm")
    unit = mutate_translation(translate_machine(machine), "negate_guard_link")
    u = universe_for(machine, Universe(int_lo=0, int_hi=3))
    guard, run = unit.method_pair("incr")
    states = jml_inv_states(unit.result.class_invariant, machine.variables, u)
    assert isinstance(run.normal.ensures.left, JmlOld)
    rel = _assert_scan_equal(run, guard, machine.variables, states, u)
    assert [a["v"] for a in rel] == [0]
    # v = 0 has its own stutter as one candidate; each other pre-state has
    # every state as a candidate, and each candidate is charged
    budget = Budget(u.ceiling)
    jml_method_rel(run, states, guard, machine.variables, u, budget)
    assert len(states) == 4 and budget.spent == 1 + 3 * 4


# --- hand-built specifications ------------------------------------------------

U01 = Universe(int_lo=0, int_hi=1)
VARIABLES = ((Ident("x"), IntType()), (Ident("y"), IntType()),
             (Ident("r"), RelType(IntType(), IntType())))
STATES = frozenset(enumerate_states(VARIABLES, U01))
X, Y, R = JmlVar("x"), JmlVar("y"), JmlVar("r")
ZERO, ONE = JmlIntLit(0), JmlIntLit(1)
GUARD = JmlMethodSpec("guard_e", "guard",
                      SpecCase(JmlTrue(), AssignNothing(), JmlTrue()))


def _run(normal, exceptional=None):
    return JmlMethodSpec("run_e", "run", normal, exceptional)


def _and(*conjuncts):
    p = conjuncts[0]
    for c in conjuncts[1:]:
        p = JmlAnd(p, c)
    return p


def test_undefined_pre_state_conjunct_is_logged_once_per_value(caplog):
    # \old(r.apply(0) == 1) is undefined wherever r is not functional at 0:
    # at 8 of the 16 values of r, each the value of 4 pre-states, with 2
    # candidates apiece; one record per value of r, not one per candidate
    r_at_0 = JmlMethodCall(R, "apply", (ZERO,))
    run = _run(SpecCase(JmlTrue(), AssignVars(("x",)), _and(
        JmlOld(JmlCmp("==", r_at_0, ONE)), JmlCmp("==", X, JmlOldExpr(Y)))))
    with caplog.at_level(logging.DEBUG, logger="eb2jml.semantics"):
        rel = _assert_scan_equal(run, GUARD, VARIABLES, STATES, U01)
    undefined = [r for r in caplog.records if r.getMessage().startswith(
        "undefined evaluation counts as false (apply undefined at 0)")]
    assert len(undefined) == 8
    assert len(rel) == 16


def test_post_state_conjunct_before_a_pre_state_conjunct():
    run = _run(SpecCase(JmlTrue(), AssignVars(("x",)), _and(
        JmlCmp("==", X, JmlOldExpr(Y)), JmlOld(JmlCmp("<=", X, Y)))))
    rel = _assert_scan_equal(run, GUARD, VARIABLES, STATES, U01)
    assert 0 < len(rel) < len(STATES)


def test_two_active_cases_with_different_frames():
    # the lookup varies x alone; the other case's frame keeps x, so only
    # the stutter is left, where its ensures clause holds
    run = _run(SpecCase(JmlTrue(), AssignVars(("x",)),
                        _and(JmlOld(JmlCmp("<=", Y, ONE)),
                             JmlCmp("<=", X, ONE))),
               SpecCase(JmlTrue(), AssignVars(("y",)),
                        _and(JmlTrue(), JmlCmp("<=", Y, JmlOldExpr(X)))))
    rel = _assert_scan_equal(run, GUARD, VARIABLES, STATES, U01)
    assert rel and all(bs == {a} for a, bs in rel.items())
    assert all(a["y"] <= a["x"] for a in rel)


def test_old_conjunct_before_an_exists_is_not_pinned():
    k = JmlVar("k")
    run = _run(SpecCase(JmlTrue(), AssignVars(("x",)), _and(
        JmlOld(JmlCmp("<=", X, ZERO)),
        JmlExists("k", JInt(), _and(JmlOld(JmlCmp("<=", k, Y)),
                                    JmlCmp("==", X, JmlOldExpr(k)))))))
    rel = _assert_scan_equal(run, GUARD, VARIABLES, STATES, U01)
    assert rel and all(a["x"] == 0 for a in rel)
    assert any(len(bs) == 2 for bs in rel.values())


def test_a_pre_state_with_no_active_case_maps_to_the_states():
    run = _run(SpecCase(JmlCmp("<=", X, ZERO), AssignVars(("x",)),
                        _and(JmlOld(JmlTrue()), JmlCmp("==", X, JmlOldExpr(Y)))))
    rel = _assert_scan_equal(run, GUARD, VARIABLES, STATES, U01)
    assert all(bs is STATES for a, bs in rel.items() if a["x"] == 1)
    assert all(len(bs) == 1 for a, bs in rel.items() if a["x"] == 0)
