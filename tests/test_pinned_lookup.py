"""The JML relation's witness-pinned post-state lookup is exact.

Given a witness binding of an ensures clause's \\exists chain, each
conjunct ``v.equals(\\old(E))`` or ``v == \\old(E)`` on a state variable in
the frame fixes ``v``'s post-value, so ``jml_method_rel`` looks post-states
up instead of scanning every state with the right values outside the
frame.  Every candidate is still tested in full, so the relation must equal
a double loop over every pair of invariant states, with every \\exists
witness tried in full; where the pins fix every assigned variable, each
candidate is a transition, and the lookups return as many candidates as the
relation has pairs.
"""

import sys
from collections import Counter

import pytest

import eb2jml.semantics as semantics
from eb2jml import translate_machine
from eb2jml.checker import (
    MUTATIONS, MutationError, mutate_translation, state_spaces, universe_for,
)
from eb2jml.ebast import Ident, IntType, RelType
from eb2jml.jmlast import (
    AssignNothing, AssignVars, JInt, JmlAnd, JmlArith, JmlBoolCall, JmlCmp,
    JmlExists, JmlIntLit, JmlMethodCall, JmlMethodSpec, JmlNot, JmlOld,
    JmlOldExpr, JmlTrue, JmlVar, SpecCase,
)
from eb2jml.nodes import walk
from eb2jml.semantics import (
    Budget, EvalError, Universe, enumerate_states, inline_guard_calls,
    jml_method_rel,
)

from conftest import jml_scan_holds, load_machine, pairs


def _holds(p, a, b, u) -> bool:
    try:
        return jml_scan_holds(p, a, b, {}, u)
    except EvalError:
        return False


def _brute_rel(run, guard, var_names, inv_states, u):
    """Every pair of invariant states the run method admits, tested one by
    one with every \\exists witness tried in full."""
    cases = [c for c in (run.normal, run.exceptional) if c is not None]
    out = set()
    for a in inv_states:
        active = [c for c in cases
                  if _holds(inline_guard_calls(c.requires, guard), a, a, u)]
        for b in inv_states:
            if all(all(a[n] == b[n] for n in var_names
                       if n not in getattr(c.assignable, "names", ()))
                   and _holds(c.ensures, a, b, u) for c in active):
                out.add((a, b))
    return frozenset(out)


def _candidate_counts(monkeypatch) -> list[int]:
    """The number of post-states each pre-state's lookup returns, one entry
    per ``_Lookup.candidates`` call from here on."""
    counts = []
    candidates = semantics._Lookup.candidates

    def spy(self, *args):
        found = candidates(self, *args)
        counts.append(len(found))
        return found

    monkeypatch.setattr(semantics._Lookup, "candidates", spy)
    return counts


# --- the corpus, unmutated and under every mutation that applies -------------

CELLS = [
    ("counter", Universe(int_lo=0, int_hi=2)),
    ("swap", Universe(int_lo=0, int_hi=3)),
    ("social_abstract", Universe(carriers={"PERSON": 1, "CONTENTS": 2})),
    ("social_abstract", Universe(carriers={"PERSON": 2, "CONTENTS": 2})),
    ("social_ref1", Universe(carriers={"PERSON": 1, "CONTENTS": 2})),
]


def _corpus_cases():
    for name, universe in CELLS:
        unit = translate_machine(load_machine(f"{name}.ebm"))
        for mutation in (None,) + MUTATIONS:
            try:
                if mutation is not None:
                    mutate_translation(unit, mutation)
            except MutationError:
                continue
            yield pytest.param(
                name, universe, mutation,
                id=f"{name}-{universe.int_lo}..{universe.int_hi}-"
                   f"{sorted(universe.carriers.items())}-{mutation}")


@pytest.mark.parametrize("name,universe,mutation", _corpus_cases())
def test_corpus_relations_equal_brute_force(name, universe, mutation):
    machine = load_machine(f"{name}.ebm")
    unit = translate_machine(machine)
    if mutation is not None:
        unit = mutate_translation(unit, mutation)
    u = universe_for(machine, universe)
    inv = unit.result.class_invariant
    inv_states = frozenset(s for s in enumerate_states(machine.variables, u)
                           if _holds(inv, s, s, u))
    assert state_spaces(machine, unit, u).jml == inv_states
    for event in machine.events:
        guard, run = unit.method_pair(event.name)
        rel = pairs(jml_method_rel(run, inv_states, guard, machine.variables, u,
                                   Budget(u.ceiling)))
        assert rel == _brute_rel(run, guard, machine.variable_names(),
                                 inv_states, u), event.name


@pytest.mark.parametrize("name,carriers", [
    ("social_abstract", {"PERSON": 2, "CONTENTS": 2}),
    ("social_abstract", {"PERSON": 2, "CONTENTS": 3}),
    ("social_ref1", {"PERSON": 2, "CONTENTS": 2}),
])
def test_each_candidate_is_a_transition(name, carriers, monkeypatch):
    # every assigned variable of the corpus events is pinned, so the lookup
    # tries exactly the transitions (the frame index alone tried every
    # invariant state with the pre-state's values outside the frame)
    machine = load_machine(f"{name}.ebm")
    unit = translate_machine(machine)
    u = universe_for(machine, Universe(carriers=carriers))
    spaces = state_spaces(machine, unit, u)
    counts = _candidate_counts(monkeypatch)
    for event in machine.events:
        guard, run = unit.method_pair(event.name)
        counts.clear()
        rel = pairs(jml_method_rel(run, spaces.jml, guard, machine.variables, u,
                                   Budget(u.ceiling)))
        assert len(counts) == len(spaces.jml), event.name
        assert rel and sum(counts) == len(rel), event.name


@pytest.mark.parametrize("event", ("create_account", "edit_owned"))
def test_a_pinned_candidate_searches_no_witnesses(event, monkeypatch):
    # the witnesses of a pre-state are searched by its lookup, once, and by
    # its requires test, once per tuple of the values the clauses read; a
    # candidate the lookup found is tested at the bindings that found it
    machine = load_machine("social_ref1.ebm")
    unit = translate_machine(machine)
    u = universe_for(machine, Universe(carriers={"PERSON": 2, "CONTENTS": 3}))
    spaces = state_spaces(machine, unit, u)
    guard, run = unit.method_pair(event)
    searches, lookups, requires_tests = Counter(), [], []
    witnesses, candidates = semantics._exists_witnesses, semantics._Lookup.candidates
    active_cases = semantics.active_cases

    def search_spy(*args):
        frame, callers = sys._getframe(1), set()
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        searches["lookup" if "candidates" in callers else
                 "requires" if "active_cases" in callers else "ensures"] += 1
        return witnesses(*args)

    def candidates_spy(self, a, *args):
        lookups.append(self.exists is not None)
        return candidates(self, a, *args)

    def active_cases_spy(cases, a, *args):
        requires_tests.append(a)
        return active_cases(cases, a, *args)

    monkeypatch.setattr(semantics, "_exists_witnesses", search_spy)
    monkeypatch.setattr(semantics._Lookup, "candidates", candidates_spy)
    monkeypatch.setattr(semantics, "active_cases", active_cases_spy)
    rel = pairs(jml_method_rel(run, spaces.jml, guard, machine.variables, u,
                               Budget(u.ceiling)))
    assert rel and len(lookups) == len(spaces.jml) == 915
    assert searches["lookup"] == sum(lookups) > 0
    assert searches["requires"] > 0 and searches["ensures"] == 0
    reads = set().union(*(_jml_names(inline_guard_calls(c.requires, guard))
                          for c in (run.normal, run.exceptional)))
    keys = [tuple(v for n, v in sorted(a.items()) if n in reads)
            for a in requires_tests]
    assert len(set(keys)) == len(keys)


def _jml_names(p) -> set:
    return {n.name for n in walk(p) if isinstance(n, JmlVar)}


# --- hand-built specifications -------------------------------------------------

U01 = Universe(int_lo=0, int_hi=1)
VARIABLES = ((Ident("x"), IntType()), (Ident("y"), IntType()),
             (Ident("r"), RelType(IntType(), IntType())))
STATES = frozenset(enumerate_states(VARIABLES, U01))


def _var(name):
    return JmlVar(name)


def _old(e):
    return JmlOldExpr(e)


def _eq(name, e):
    return JmlCmp("==", _var(name), e)


def _equals(name, e):
    return JmlBoolCall(JmlMethodCall(_var(name), "equals", (e,)))


def _exists(var, *conjuncts):
    body = conjuncts[0]
    for c in conjuncts[1:]:
        body = JmlAnd(body, c)
    return JmlExists(var, JInt(), body)


def _case(ensures, *assigned):
    assignable = AssignVars(assigned) if assigned else AssignNothing()
    return SpecCase(JmlTrue(), assignable, ensures)


# name -> (normal case, exceptional case or None, whether the pins fix every
# assigned variable, so that each candidate is a transition)
HAND_BUILT = {
    # r.apply(k) is undefined where r is not functional at k: that binding
    # gives no candidate, the others still do
    "undefined pinned value": (
        _case(_exists("k", _equals(
            "x", _old(JmlMethodCall(_var("r"), "apply", (_var("k"),))))), "x"),
        None, True),
    # k + 1 = 2 lies outside the typed domain of x: no state has it
    "pinned value outside the typed domain": (
        _case(_exists("k", _eq("x", _old(JmlArith("+", _var("k"),
                                                   JmlIntLit(1))))), "x"),
        None, True),
    # the bound x shadows the state variable x: nothing is pinned, and
    # every post-value of x is a transition
    "bound name shadows a state variable": (
        _case(_exists("x", _eq("x", _old(_var("y")))), "x"), None, True),
    # the first equality pins x; only the full ensures rejects the second
    "two conflicting equalities on one variable": (
        _case(_exists("k", _eq("x", _old(_var("k"))),
                      _eq("x", _old(_var("y")))), "x"),
        None, False),
    # y is outside the frame, so its equality only constrains the witness
    "equality on a variable outside the frame": (
        _case(_exists("k", _eq("y", _old(_var("k"))),
                      _eq("x", _old(_var("y")))), "x"),
        None, True),
    # both requires clauses hold: a pair needs both frames and both ensures
    "both cases active": (
        _case(_exists("k", _eq("x", _old(_var("k"))),
                      _eq("y", _old(_var("y")))), "x", "y"),
        _case(_exists("k", JmlOld(JmlCmp("<=", _var("k"), _var("x"))),
                      _eq("x", _old(_var("y")))), "x"),
        False),
    # both pre-states with x = 0 share the requires test and the witness
    # search, which read x alone; the post-value of x is their y, which
    # only the remaining conjunct reads
    "pre-states that agree on what the searches read": (
        SpecCase(JmlCmp("<=", _var("x"), JmlIntLit(0)), AssignVars(("x",)),
                 _exists("k", JmlOld(JmlCmp("<=", _var("k"), _var("x"))),
                         _eq("x", _old(JmlArith("+", _var("k"), _var("y")))))),
        SpecCase(JmlNot(JmlCmp("<=", _var("x"), JmlIntLit(0))),
                 AssignNothing(), JmlTrue()),
        True),
    "int == pin inside exists": (
        _case(_exists("k", _eq("x", _old(JmlArith("*", _var("k"),
                                                   _var("y"))))), "x"),
        None, True),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_specs(name, monkeypatch):
    normal, exceptional, every_candidate_a_transition = HAND_BUILT[name]
    run = JmlMethodSpec("run_e", "run", normal, exceptional)
    guard = JmlMethodSpec("guard_e", "guard", _case(JmlTrue()))
    counts = _candidate_counts(monkeypatch)
    rel = pairs(jml_method_rel(run, STATES, guard, VARIABLES, U01, Budget(10 ** 6)))
    assert rel == _brute_rel(run, guard, ("x", "y", "r"), STATES, U01)
    assert rel  # every spec admits some pair
    assert len(counts) == len(STATES)
    assert (sum(counts) == len(rel)) == every_candidate_a_transition
