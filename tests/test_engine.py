"""The invariant-first state engine and the checker built on it agree with
brute force over the typed product.

Each side's invariant states are the typed states at which the whole
invariant holds; the checker's JML relation is the one a double loop over
every typed pair admits; its Event-B relation is the literal relation
restricted to invariant pre-states.  An invariant conjunct whose evaluation
fails counts as false.
"""

import itertools
import math
import random
from dataclasses import replace

import pytest

from eb2jml import TranslationError, translate_machine
from eb2jml import checker
from eb2jml.checker import (
    MUTATIONS, PASS, RESOURCE_LIMIT, check_event, check_init, check_machine,
    mutate_translation, state_spaces, universe_for,
)
from eb2jml.ebast import BecomesEqual, Ident, IntType, RelType
from eb2jml.ebcheck import resolve_types
from eb2jml.jmlast import (
    AssignNothing, AssignVars, JInt, JmlCmp, JmlExists, JmlFalse, JmlIntLit,
    JmlMethodCall, JmlMethodSpec, JmlTrue, JmlVar, SpecCase,
)
from eb2jml.parser import parse_machine, parse_predicate
from eb2jml.semantics import (
    Budget, EvalError, Phase, State, Universe, eb_event_rel, eb_init_states,
    eb_invariant_states, eb_pred_holds, enumerate_states, eval_eb_expr,
    guard_holds, inline_guard_calls, jml_initially_states,
    jml_invariant_states, jml_method_rel, jml_pred_holds,
)

from conftest import (
    eb_inv_states, jml_inv_states, jml_scan_holds, load_machine, pairs,
)
from genmachines import random_machine

CELLS = [
    ("counter", Universe(int_lo=0, int_hi=2)),
    ("swap", Universe(int_lo=0, int_hi=3)),
    ("social_abstract", Universe(carriers={"PERSON": 1, "CONTENTS": 2})),
    ("social_abstract", Universe(carriers={"PERSON": 2, "CONTENTS": 2})),
    ("social_ref1", Universe(carriers={"PERSON": 1, "CONTENTS": 2})),
]
CELL_IDS = [f"{name}-{u.int_lo}..{u.int_hi}-{sorted(u.carriers.items())}"
            for name, u in CELLS]


def _holds(test, *args) -> bool:
    try:
        return test(*args)
    except EvalError:
        return False


def _brute_jml_rel(machine, unit, event, u):
    """Every typed pair admitted by the run method, tested one by one with
    every \\exists witness tried in full."""
    guard, run = unit.method_pair(event.name)
    var_names = machine.variable_names()
    cases = [c for c in (run.normal, run.exceptional) if c is not None]
    inv = jml_inv_states(unit.result.class_invariant, machine.variables, u)
    out = set()
    for a in enumerate_states(machine.variables, u):
        if a not in inv:
            continue
        active = [c for c in cases if _holds(
            jml_scan_holds, inline_guard_calls(c.requires, guard), a, a, {}, u)]
        for b in enumerate_states(machine.variables, u):
            if b not in inv:
                continue
            if all(all(a[n] == b[n] for n in var_names
                       if n not in getattr(c.assignable, "names", ()))
                   and _holds(jml_scan_holds, c.ensures, a, b, {}, u)
                   for c in active):
                out.add((a, b))
    return frozenset(out)


def _checker_relations(monkeypatch, machine, unit, event, u):
    """The JML and Event-B relations check_event computes."""
    seen = {}

    def spy(name, fn):
        def recorded(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]
        monkeypatch.setattr(checker, name, recorded)

    spy("state_spaces", checker.state_spaces)
    spy("jml_method_rel", checker.jml_method_rel)
    spy("eb_event_rel_variants", checker.eb_event_rel_variants)
    assert check_event(event, machine, u, unit).status == PASS
    literal, strict = seen["eb_event_rel_variants"]
    assert literal == strict  # every stutter pair starts at an invariant state
    return pairs(seen["jml_method_rel"]), pairs(literal), seen["state_spaces"]


@pytest.mark.parametrize("name,universe", CELLS, ids=CELL_IDS)
def test_invariant_sets_equal_the_filtered_product(name, universe):
    machine = load_machine(f"{name}.ebm")
    unit = translate_machine(machine)
    u = universe_for(machine, universe)
    spaces = state_spaces(machine, unit, u)
    assert spaces.limit is None
    assert spaces.eb == eb_inv_states(machine, u)
    assert spaces.jml == jml_inv_states(unit.result.class_invariant, machine.variables, u)
    assert spaces.eb  # the initial state at least
    # a state both sides accept is one object
    eb_ids = {id(s) for s in spaces.eb}
    assert all(id(s) in eb_ids for s in spaces.jml if s in spaces.eb)


@pytest.mark.parametrize("name,universe", CELLS, ids=CELL_IDS)
def test_checker_relations_equal_brute_force(monkeypatch, name, universe):
    machine = load_machine(f"{name}.ebm")
    unit = translate_machine(machine)
    u = universe_for(machine, universe)
    eb_inv = eb_inv_states(machine, u)
    typed = enumerate_states(machine.variables, u)
    for event in machine.events:
        jml_rel, eb_rel, spaces = _checker_relations(
            monkeypatch, machine, unit, event, u)
        assert jml_rel == _brute_jml_rel(machine, unit, event, u), event.name
        literal = _reference_eb_rel(machine, event, u, typed)
        assert eb_rel == frozenset(p for p in literal if p[0] in eb_inv), event.name
        # each pair holds its side's own state objects, not equal copies
        for rel, space in ((jml_rel, spaces.jml), (eb_rel, spaces.eb)):
            own = {s: s for s in space}
            assert all(own[a] is a and own[b] is b for a, b in rel), event.name
        monkeypatch.undo()


@pytest.mark.parametrize("mutation", (None,) + MUTATIONS)
@pytest.mark.parametrize("name,universe", CELLS, ids=CELL_IDS)
def test_a_relation_maps_each_pre_state_to_its_own_posts(name, universe,
                                                         mutation):
    machine = load_machine(f"{name}.ebm")
    unit = translate_machine(machine)
    unit = unit if mutation is None else mutate_translation(unit, mutation)
    u = universe_for(machine, universe)
    spaces = state_spaces(machine, unit, u)
    for event in machine.events:
        guard, run = unit.method_pair(event.name)
        for rel, space in (
                (jml_method_rel(run, spaces.jml, guard, machine.variables, u,
                                Budget(u.ceiling)), spaces.jml),
                (eb_event_rel(event, spaces.eb, machine.variables, u,
                              Budget(u.ceiling)), spaces.eb)):
            # no empty entry; every key and post is its side's own object
            own = {id(s) for s in space}
            assert all(rel.values()), event.name
            assert all(id(a) in own and all(id(b) in own for b in bs)
                       for a, bs in rel.items()), event.name


def _reference_eb_rel(machine, event, u, pre_states):
    """The Event-B relation from ``pre_states``, by a plain loop over every
    parameter valuation in ``itertools.product`` with every guard, and over
    every typed after-value of a becomes-such-that action."""
    inv = eb_inv_states(machine, u)
    allowed = {ident.name: u.values_of(ty) for ident, ty in machine.variables}
    names = [ident.name for ident, _ty in event.params]
    domains = [u.values_of(ty) for _ident, ty in event.params]
    out = set()
    for a in pre_states:
        envs = [env for env in (dict(zip(names, combo))
                                for combo in itertools.product(*domains))
                if all(_holds(eb_pred_holds, g, a, env, u)
                       for _lbl, g in event.guards)]
        if not envs:
            out.add((a, a))
            continue
        if a not in inv:
            continue
        for env in envs:
            for b in _reference_posts(event.actions, a, env, allowed, u):
                if all(b[n] in allowed[n] for n in b) and b in inv:
                    out.add((a, b))
    return frozenset(out)


def _reference_posts(actions, a, env, allowed, u):
    """Each state the ``actions`` reach from ``a`` at ``env``; an undefined
    value or after-value predicate gives no post-state."""
    choices = []
    for act in actions:
        target = act.target.name
        if isinstance(act, BecomesEqual):
            try:
                values = [eval_eb_expr(act.rhs, a, env, u)]
            except EvalError:
                values = []
        else:
            values = [v for v in allowed[target] if _holds(
                eb_pred_holds, act.predicate, a, {**env, f"{target}'": v}, u)]
        choices.append([(target, v) for v in values])
    return [State({**a, **dict(combo)}) for combo in itertools.product(*choices)]


def _generated_seeds(count=40, most_states=4096) -> list[int]:
    """The first ``count`` seeds of ``random_machine`` whose machine
    translates and whose typed product over int 0..1 and carriers of 2 has
    at most ``most_states`` states."""
    seeds, seed = [], 0
    while len(seeds) < count:
        machine, u = _generated(seed)
        if math.prod(len(u.values_of(ty)) for _i, ty in machine.variables) \
                <= most_states:
            try:
                translate_machine(machine)
                seeds.append(seed)
            except TranslationError:
                pass
        seed += 1
    return seeds


def _generated(seed):
    machine = random_machine(random.Random(seed))
    return machine, Universe(0, 1, {c: 2 for c in machine.carrier_sets})


def _pairwise_jml_rel(run, guard, var_names, inv, u):
    """Every pair of invariant states the run method admits, each decided
    by the evaluator with a witness memo that serves one pre-state, so that
    no search is shared between pre-states.  A post-state is drawn from
    those that agree with the pre-state outside the first active case's
    frame, which every admitted one does."""
    cases = [c for c in (run.normal, run.exceptional) if c is not None]
    outside = [tuple(n for n in var_names
                     if n not in getattr(c.assignable, "names", ()))
               for c in cases]
    groups = [{} for _ in cases]
    for b in inv:
        for k, names in enumerate(outside):
            groups[k].setdefault(tuple(b[n] for n in names), []).append(b)
    out = set()
    for a in inv:
        memo = Phase(Budget(u.ceiling))
        active = [k for k, c in enumerate(cases) if _holds(
            jml_pred_holds, inline_guard_calls(c.requires, guard), a, a, {}, u, memo)]
        posts = inv if not active else groups[active[0]].get(
            tuple(a[n] for n in outside[active[0]]), ())
        for b in posts:
            if all(all(a[n] == b[n] for n in outside[k]) and _holds(
                    jml_pred_holds, cases[k].ensures, a, b, {}, u, memo)
                   for k in active):
                out.add((a, b))
    return frozenset(out)


@pytest.mark.parametrize("seed", _generated_seeds())
def test_generated_relations_equal_brute_force(seed):
    # a search is kept by the values it reads: a name left out of its key
    # would share a search between pre-states that it tells apart
    machine, u = _generated(seed)
    unit = translate_machine(machine)
    jml_inv = jml_inv_states(unit.result.class_invariant, machine.variables, u)
    eb_inv = eb_inv_states(machine, u)
    for event in machine.events:
        guard, run = unit.method_pair(event.name)
        assert pairs(jml_method_rel(run, jml_inv, guard, machine.variables, u,
                                    Budget(u.ceiling))) == \
            _pairwise_jml_rel(run, guard, machine.variable_names(), jml_inv, u), \
            event.name
        assert pairs(eb_event_rel(event, eb_inv, machine.variables, u,
                                  Budget(u.ceiling))) == \
            _reference_eb_rel(machine, event, u, eb_inv), event.name


@pytest.mark.parametrize("name,universe", CELLS, ids=CELL_IDS)
def test_eb_relation_equals_a_loop_over_every_parameter_valuation(name, universe):
    machine = load_machine(f"{name}.ebm")
    u = universe_for(machine, universe)
    eb_inv = eb_inv_states(machine, u)
    for event in machine.events:
        assert pairs(eb_event_rel(event, eb_inv, machine.variables, u,
                                  Budget(u.ceiling))) == \
            _reference_eb_rel(machine, event, u, eb_inv), event.name


# --- undefined conjuncts -----------------------------------------------------

R = (Ident("r"), RelType(IntType(), IntType()))
U01 = Universe(int_lo=0, int_hi=1)


def _functional_at_zero_to_one():
    # r(0) = 1 is defined only where r maps 0 to exactly one value
    return frozenset(s for s in enumerate_states((R,), U01)
                     if {y for x, y in s["r"] if x == 0} == {1})


def test_undefined_eb_conjunct_counts_as_false():
    invariants = (("inv1", parse_predicate("r(0) = 1")),)
    out = eb_invariant_states(invariants, (R,), U01, Budget(U01.ceiling))
    assert out == _functional_at_zero_to_one()
    assert len(out) == 4
    # an undefined conjunct is false even behind one that holds everywhere
    invariants = (("inv0", parse_predicate("r <: r")),) + invariants
    assert eb_invariant_states(invariants, (R,), U01, Budget(U01.ceiling)) == out


def test_undefined_jml_conjunct_counts_as_false():
    apply0 = JmlCmp("==", JmlMethodCall(JmlVar("r"), "apply", (JmlIntLit(0),)),
                    JmlIntLit(1))
    assert jml_invariant_states(apply0, (R,), U01, Budget(U01.ceiling)) == \
        _functional_at_zero_to_one()


# One case per place where an undefined evaluation counts as false.  Each
# evaluates r(0), which is undefined wherever r does not map 0 to exactly
# one value; F is the set of states where r(0) = 1, D where r(0) is defined.

PARTIAL = """
machine partial
  variables r
  invariants
    inv1: r : INT <-> INT
  events
    initialisation
      begin
        act1: r := {}
      end
    guarded
      when
        grd1: r(0) = 1
      then
        act1: r := {}
      end
    such_that
      begin
        act1: r :| r'(0) = 1
      end
    deterministic
      begin
        act1: r := {0 |-> r(0)}
      end
end
"""

R_STATES = frozenset(enumerate_states((R,), U01))
F = _functional_at_zero_to_one()
D = frozenset(s for s in R_STATES if len({y for x, y in s["r"] if x == 0}) == 1)
APPLY0 = JmlCmp("==", JmlMethodCall(JmlVar("r"), "apply", (JmlIntLit(0),)),
                JmlIntLit(1))
# \exists Integer x; r.apply(x) == 1
EXISTS = JmlExists("x", JInt(), JmlCmp(
    "==", JmlMethodCall(JmlVar("r"), "apply", (JmlVar("x"),)), JmlIntLit(1)))


def _r(*pairs):
    return State({"r": frozenset(pairs)})


def _partial():
    machine, _diags = resolve_types(parse_machine(PARTIAL))
    return machine


def _partial_rel(event):
    machine = _partial()
    return pairs(eb_event_rel(machine.event(event), R_STATES, machine.variables, U01,
                              Budget(U01.ceiling)))


def _run_rel(requires=JmlTrue(), ensures=JmlTrue(), assignable=AssignVars(("r",))):
    run = JmlMethodSpec("run_e", "run", SpecCase(requires, assignable, ensures))
    guard = JmlMethodSpec("guard_e", "guard",
                          SpecCase(JmlTrue(), AssignNothing(), JmlTrue()))
    return pairs(jml_method_rel(run, R_STATES, guard, (R,), U01, Budget(U01.ceiling)))


def _exists_outcomes(cache, same_object):
    return {a: jml_pred_holds(EXISTS, a, a if same_object else State(a), {},
                              U01, cache) for a in R_STATES}


def _exists_expected():
    return {a: any(
        {y for x, y in a["r"] if x == w} == {1} for w in U01.all_ints())
        for a in R_STATES}


UNDEFINED_SITES = {
    "eb invariant at an initial state": lambda: (
        eb_init_states(_partial().initialisation, eb_invariant_states(
            (("inv1", parse_predicate("r(0) = 1")),), (R,), U01,
            Budget(U01.ceiling)), (R,), U01, Budget(U01.ceiling)),
        frozenset()),
    "eb guard": lambda: (
        _partial_rel("guarded"),
        {(a, _r()) for a in F} | {(a, a) for a in R_STATES if a not in F}),
    "eb becomes-such-that predicate": lambda: (
        _partial_rel("such_that"), {(a, b) for a in R_STATES for b in F}),
    # no transition at all where r(0) is undefined, not even a stutter
    "eb deterministic action": lambda: (
        _partial_rel("deterministic"),
        {(a, _r(*((0, y) for x, y in a["r"] if x == 0))) for a in D}),
    "jml requires": lambda: (
        _run_rel(requires=APPLY0, assignable=AssignNothing(), ensures=JmlFalse()),
        {(a, b) for a in R_STATES if a not in F for b in R_STATES}),
    "jml ensures": lambda: (
        _run_rel(ensures=APPLY0), {(a, b) for a in R_STATES for b in F}),
    "jml initially": lambda: (
        jml_initially_states(APPLY0, R_STATES, U01, Budget(U01.ceiling)), F),
    "jml exists, cached, pre-state": lambda: (
        _exists_outcomes(Phase(Budget(U01.ceiling)), True), _exists_expected()),
    "jml exists, cached, post-state": lambda: (
        _exists_outcomes(Phase(Budget(U01.ceiling)), False), _exists_expected()),
    "guard_holds": lambda: (
        {a: guard_holds(JmlMethodSpec("guard_e", "guard", SpecCase(
            JmlTrue(), AssignNothing(), APPLY0)), a, U01) for a in R_STATES},
        {a: a in F for a in R_STATES}),
}


@pytest.mark.parametrize("site", sorted(UNDEFINED_SITES))
def test_undefined_counts_as_false_at_each_site(site):
    actual, expected = UNDEFINED_SITES[site]()
    assert actual == expected


def test_engine_charges_each_value_test():
    budget = Budget(10 ** 6)
    eb_invariant_states((("inv1", parse_predicate("r(0) = 1")),), (R,), U01,
                        budget)
    assert budget.spent == 16  # one variable, 16 relation values


# --- RESOURCE_LIMIT names the phase ------------------------------------------

U22 = Universe(int_lo=0, int_hi=2, carriers={"PERSON": 2, "CONTENTS": 2})


def _with_ceiling(ceiling):
    return Universe(U22.int_lo, U22.int_hi, dict(U22.carriers), ceiling)


def test_shared_enumeration_limit_reaches_every_verdict(social_abstract):
    # the Event-B enumeration at 2x2 needs 82 units
    report = check_machine(social_abstract, _with_ceiling(50))
    assert [v.status for v in report.verdicts] == [RESOURCE_LIMIT] * 3
    for v in report.verdicts:
        assert v.detail == ("Event-B invariant enumeration needs 51 work "
                            "units, exceeding the ceiling of 50")


def test_jml_enumeration_limit_is_named(social_abstract):
    unit = translate_machine(social_abstract)
    # without a class invariant the JML side enumerates the whole product
    loose = replace(unit, result=replace(unit.result, class_invariant=JmlTrue()))
    report = check_machine(social_abstract, _with_ceiling(1000), loose)
    assert all(v.detail.startswith("JML invariant enumeration needs")
               and "ceiling of 1000" in v.detail for v in report.verdicts)


def test_relation_limits_name_the_event_and_side(social_abstract):
    unit = translate_machine(social_abstract)
    spaces = state_spaces(social_abstract, unit, U22)
    event = social_abstract.event("create_account")
    v = check_event(event, social_abstract, _with_ceiling(10), unit,
                    spaces=spaces)
    assert v.status == RESOURCE_LIMIT
    assert v.detail.startswith("event create_account's JML relation needs 11")
    guard, run = unit.method_pair("create_account")
    jml_work = Budget(10 ** 6)
    jml_method_rel(run, spaces.jml, guard, social_abstract.variables,
                   universe_for(social_abstract, U22), jml_work)
    v = check_event(event, social_abstract, _with_ceiling(jml_work.spent), unit,
                    spaces=spaces)
    assert v.detail.startswith("event create_account's Event-B relation needs")
    v = check_init(social_abstract, _with_ceiling(1), unit, spaces=spaces)
    assert v.detail.startswith("initialisation's JML state set needs 2")


def test_checked_counts_only_the_verdicts_own_work(social_abstract):
    unit = translate_machine(social_abstract)
    spaces = state_spaces(social_abstract, unit, U22)
    v = check_init(social_abstract, U22, unit, spaces=spaces)
    # one candidate per JML invariant state, one Event-B initial assignment
    assert v.checked_pairs == len(spaces.jml) + 1
    assert v.status == PASS

