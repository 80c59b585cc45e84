import json
from dataclasses import replace

import pytest

from eb2jml import TranslationError, parse_machine, translate_machine
from eb2jml.checker import (
    FAIL, PASS, RESOURCE_LIMIT, MutationError, check_event, check_init,
    check_machine, mutate_translation, universe_for,
)
from eb2jml.jmlast import JmlTrue
from eb2jml.semantics import (
    Budget, State, Universe, eb_event_rel, jml_method_rel,
)

from conftest import eb_inv_states, jml_inv_states, pairs

U01 = Universe(int_lo=0, int_hi=1)


def test_check_event_counter_passes(counter):
    v = check_event(counter.event("incr"), counter, U01)
    assert v.status == PASS
    assert v.witnesses == ()
    assert v.jml_size == 2 and v.eb_size == 2


def test_widen_ensures_true_fails_with_replayable_witness(counter):
    unit = translate_machine(counter)
    mutated = mutate_translation(unit, "widen_ensures_true")
    v = check_event(counter.event("incr"), counter, U01, mutated)
    assert v.status == FAIL
    assert v.witnesses
    w = v.witnesses[0]
    assert dict(w.pre) == {"v": 0} and dict(w.post) == {"v": 0}
    # replay: the pair really is in the mutated JML relation and
    # really is absent from the Event-B relation
    jml_rel, eb_rel = _relations(counter, mutated, "incr")
    for w in v.witnesses:
        assert (w.pre, w.post) in jml_rel
        assert (w.pre, w.post) not in eb_rel


def _relations(machine, unit, event_name, u=U01):
    """Both relations of an event, built from the invariant states found
    by brute force over the typed product."""
    guard, run = unit.method_pair(event_name)
    jml_states = jml_inv_states(unit.result.class_invariant, machine.variables, u)
    return (pairs(jml_method_rel(run, jml_states, guard, machine.variables, u,
                                 Budget(u.ceiling))),
            pairs(eb_event_rel(machine.event(event_name), eb_inv_states(machine, u),
                               machine.variables, u, Budget(u.ceiling))))


def test_drop_old_fails(counter):
    unit = translate_machine(counter)
    mutated = mutate_translation(unit, "drop_old")
    v = check_event(counter.event("incr"), counter, U01, mutated)
    assert v.status == FAIL
    jml_rel, eb_rel = _relations(counter, mutated, "incr")
    for w in v.witnesses:
        assert (w.pre, w.post) in jml_rel and (w.pre, w.post) not in eb_rel


def test_shrink_assignable_still_passes(counter):
    unit = translate_machine(counter)
    mutated = mutate_translation(unit, "shrink_assignable")
    v = check_event(counter.event("incr"), counter, U01, mutated)
    assert v.status == PASS


def test_negate_guard_link_fails(counter):
    unit = translate_machine(counter)
    mutated = mutate_translation(unit, "negate_guard_link")
    v = check_event(counter.event("incr"), counter, U01, mutated)
    assert v.status == FAIL


def test_drop_old_on_swap_fails_when_values_differ(swap):
    unit = translate_machine(swap)
    mutated = mutate_translation(unit, "drop_old")
    wide = Universe(int_lo=0, int_hi=2)
    assert check_event(swap.event("exchange"), swap, wide, mutated).status == FAIL
    # over a one-point range pre and post never differ, so it still passes
    point = Universe(int_lo=0, int_hi=0)
    assert check_event(swap.event("exchange"), swap, point, mutated).status == PASS


def test_mutation_inapplicable(counter):
    bare = replace(counter, events=())
    unit = translate_machine(bare)
    with pytest.raises(MutationError):
        mutate_translation(unit, "widen_ensures_true")
    with pytest.raises(MutationError):
        mutate_translation(unit, "unknown_mutation")
    unit2 = translate_machine(counter)
    once = mutate_translation(unit2, "widen_ensures_true")
    with pytest.raises(MutationError):
        mutate_translation(once, "widen_ensures_true")


def test_check_init_passes(counter):
    v = check_init(counter, U01)
    assert v.status == PASS
    assert v.jml_size == 1 and v.eb_size == 1


def test_check_init_widened_initially_fails(counter):
    unit = translate_machine(counter)
    widened = replace(unit, result=replace(unit.result, initially=JmlTrue()))
    v = check_init(counter, U01, widened)
    assert v.status == FAIL
    assert [dict(w.post) for w in v.witnesses] == [{"v": 1}]
    assert all(w.pre is None for w in v.witnesses)


def test_check_init_contradictory_invariant_vacuous():
    text = """
machine absurd
  variables v
  invariants
    inv1: v : INT
    inv2: v < v
  events
    initialisation
      begin
        act1: v := 0
      end
end
"""
    m = parse_machine(text)
    v = check_init(m, U01)
    assert v.status == PASS
    assert v.jml_size == 0 and v.eb_size == 0


def test_check_machine_aggregates(counter):
    report = check_machine(counter, U01)
    assert [v.name for v in report.verdicts] == ["initialisation", "incr"]
    assert report.status == PASS
    assert report.elapsed >= 0


def test_check_machine_names_the_failing_event(social_abstract):
    u = Universe(int_lo=0, int_hi=2, carriers={"PERSON": 2, "CONTENTS": 2})
    unit = translate_machine(social_abstract)
    # widen only edit_owned's normal ensures
    methods = tuple(
        replace(m, normal=replace(m.normal, ensures=JmlTrue()))
        if m.name == "run_edit_owned" else m
        for m in unit.result.methods)
    broken = replace(unit, result=replace(unit.result, methods=methods))
    report = check_machine(social_abstract, u, broken)
    by_name = {v.name: v.status for v in report.verdicts}
    assert by_name["edit_owned"] == FAIL
    assert by_name["create_account"] == PASS
    assert by_name["initialisation"] == PASS
    assert report.status == FAIL


def test_resource_limit_is_not_fatal_to_other_events(social_abstract):
    u = Universe(int_lo=0, int_hi=2, carriers={"PERSON": 2, "CONTENTS": 2},
                 ceiling=10)
    report = check_machine(social_abstract, u)
    assert all(v.status == RESOURCE_LIMIT for v in report.verdicts)
    assert len(report.verdicts) == 3
    assert report.status == RESOURCE_LIMIT
    assert all("ceiling" in v.detail for v in report.verdicts)


def test_verdicts_are_deterministic(counter):
    a = check_machine(counter, U01)
    b = check_machine(counter, U01)
    assert a.verdicts == b.verdicts


def test_report_renderings_agree_on_status(counter):
    report = check_machine(counter, U01)
    text = report.to_text()
    tree = report.to_tree()
    assert f"overall: {report.status}" in text
    assert tree["overall"] == report.status
    json.dumps(tree)  # machine-readable form is JSON-serialisable


def test_universe_for_fills_missing_carriers(social_abstract):
    u = universe_for(social_abstract, Universe(int_lo=0, int_hi=1))
    assert u.carriers == {"PERSON": 2, "CONTENTS": 2}


@pytest.mark.parametrize("carriers", [{}, {"PERSON": 2, "CONTENTS": 2}])
def test_one_check_computes_each_value_domain_once(monkeypatch, social_abstract,
                                                   carriers):
    u = Universe(carriers=carriers)
    assert (universe_for(social_abstract, u) is u) == bool(carriers)
    computed = []
    original = Universe.values_of

    def counted(self, t):
        if t not in self._cache:
            computed.append(t)
        return original(self, t)
    monkeypatch.setattr(Universe, "values_of", counted)
    report = check_machine(social_abstract, u)
    assert report.status == PASS
    assert computed and len(computed) == len(set(computed)), computed


def test_int_is_built_once_per_universe(monkeypatch, counter):
    # each `v : INT` test evaluates INT; its set is built once, not 1,002 times
    calls = []
    original = Universe.all_ints

    def counted(self):
        calls.append(self)
        return original(self)
    monkeypatch.setattr(Universe, "all_ints", counted)
    report = check_machine(counter, Universe(int_lo=0, int_hi=1000),
                           translate_machine(counter))
    assert report.status == PASS
    assert len(calls) <= 2


def test_report_keeps_the_universe_without_its_value_domains(social_abstract):
    # a kept report must not keep every value domain the check computed
    u = Universe(carriers={"PERSON": 2, "CONTENTS": 2})
    report = check_machine(social_abstract, u)
    assert u._cache  # the check filled the caller's universe
    assert report.universe == u
    assert report.universe._cache == {}


def test_flagship_bisimulation_flag(counter):
    v = check_event(counter.event("incr"), counter, U01)
    assert v.bisimulation is True


def test_pass_means_literal_containment(counter, swap):
    # re-check a PASS verdict by an independent double loop over all pairs
    for machine in (counter, swap):
        unit = translate_machine(machine)
        for event in machine.events:
            assert check_event(event, machine, U01, unit).status == PASS
            jml_rel, eb_rel = _relations(machine, unit, event.name)
            for a, b in jml_rel:
                assert (a, b) in eb_rel


GAP = """
machine gap
  variables v
  invariants
    inv1: v : INT
    inv2: v <= {bound}
  events
    initialisation
      begin
        act1: v := {start}
      end
    stay
      begin
        act1: v := v
      end
    step
      begin
        act1: v := v + 1
      end
end
"""


def _gap(eb_bound, jml_bound, start=0):
    """The machine ``gap`` with the bound ``eb_bound`` and the initial value
    ``start``, and its translation with the class invariant of ``gap`` at
    the bound ``jml_bound``."""
    machine = parse_machine(GAP.format(bound=eb_bound, start=start))
    unit = translate_machine(machine)
    other = translate_machine(parse_machine(GAP.format(bound=jml_bound, start=start)))
    return machine, replace(unit, result=replace(
        unit.result, class_invariant=other.result.class_invariant))


def test_a_jml_pre_state_with_no_event_b_entry_is_a_witness():
    # v = 2 satisfies the JML invariant only: it is no Event-B pre-state,
    # so its stutter is missing although every Event-B pre-state agrees
    machine, unit = _gap(1, 2)
    v = check_event(machine.event("stay"), machine, Universe(0, 2), unit)
    assert v.status == FAIL and (v.jml_size, v.eb_size) == (3, 2)
    assert [(w.pre, w.post, w.eb_side) for w in v.witnesses] == [
        (State({"v": 2}), State({"v": 2}),
         "the pre-state violates the Event-B invariant")]
    # v = 1 -> v = 2 leaves the Event-B invariant, which the guard allows
    v = check_event(machine.event("step"), machine, Universe(0, 2), unit)
    assert [(w.pre, w.post, w.eb_side) for w in v.witnesses] == [
        (State({"v": 1}), State({"v": 2}),
         "the post-state violates the Event-B invariant")]
    machine, unit = _gap(1, 2, start=2)
    v = check_init(machine, Universe(0, 2), unit)
    assert [(w.post, w.eb_side) for w in v.witnesses] == [
        (State({"v": 2}), "the state violates the Event-B invariant")]


def test_an_event_b_pre_state_with_no_jml_post_is_no_bisimulation():
    machine, unit = _gap(1, 0)
    report = check_machine(machine, Universe(0, 2), unit)
    assert report.status == PASS
    assert "stay: PASS\n  jml transitions: 1   eb transitions: 2   checked: 3\n" \
           "  bisimulation (informational): no\n" in report.to_text()


def test_negative_witness_cap_is_rejected(counter, swap):
    # a negative cap used to slice the missing list from its end
    unit = mutate_translation(translate_machine(swap), "widen_ensures_true")
    u = Universe(int_lo=0, int_hi=2)
    event = swap.event("exchange")
    with pytest.raises(ValueError, match="witness_cap"):
        check_event(event, swap, u, unit, witness_cap=-1)
    with pytest.raises(ValueError, match="witness_cap"):
        check_init(counter, U01, witness_cap=-1)
    v = check_event(event, swap, u, unit, witness_cap=0)
    assert v.status == FAIL and v.witnesses == ()


UNDEFINED_GUARD = """
machine undefined_guard
  variables f : rel(INT, INT) x : INT
  events
    initialisation
      begin
        act1: f := {}
        act2: x := 0
      end
    e
      when
        grd1: f(x) = 1
      then
        act1: x := 1
      end
end
"""


def test_witness_at_an_undefined_guard_says_no_case_applies():
    machine = parse_machine(UNDEFINED_GUARD)
    v = check_event(machine.event("e"), machine, U01, witness_cap=1000)
    assert v.status == FAIL and len(v.witnesses) == v.jml_size - v.eb_size
    empty = frozenset()
    assert (State({"f": empty, "x": 0}), State({"f": empty, "x": 1})) in \
        {(w.pre, w.post) for w in v.witnesses}
    for w in v.witnesses:
        # where f(x) is defined the two relations agree
        assert len({y for x, y in w.pre["f"] if x == w.pre["x"]}) != 1
        assert w.jml_side == (
            "guard_e() is undefined at the pre-state, so neither requires "
            "clause holds and no case constrains this pair")
        assert w.eb_side == (
            "the guard is undefined at the pre-state, which counts as false, "
            "so only the pair (a, a) is allowed")


def test_witness_names_the_case_whose_requires_clause_holds(counter):
    # negate_guard_link swaps the requires clauses: where the guard holds,
    # the exceptional case is the active one, and it accepts stuttering
    unit = mutate_translation(translate_machine(counter), "negate_guard_link")
    v = check_event(counter.event("incr"), counter, Universe(int_lo=0, int_hi=2),
                    unit)
    assert v.status == FAIL
    w = next(w for w in v.witnesses
             if w.pre == State({"v": 0}) and w.post == State({"v": 0}))
    assert w.jml_side == ("guard_incr() is true at the pre-state; the "
                          "exceptional case accepts this pair")


ILL_FORMED = """
machine m
  variables v
  invariants
    inv1: v : INT
  events
    initialisation
      begin
        act1: v := 0
      end
    e
      begin
        act1: v := zz
      end
end
"""


def test_an_ill_formed_machine_gets_no_verdict():
    # the translation reads the undeclared zz as a name, and the check
    # used to PASS
    machine = parse_machine(ILL_FORMED)
    with pytest.raises(TranslationError,
                       match="13:20: undeclared identifier 'zz'"):
        check_machine(machine, Universe(int_lo=0, int_hi=2))


def test_a_unit_of_another_machine_gets_no_verdict(counter, swap):
    # the unit stands for the gate's check, so it must translate the machine
    with pytest.raises(ValueError, match="does not translate 'counter'"):
        check_machine(counter, U01, translate_machine(swap))


def test_a_too_wide_integer_range_is_a_resource_limit_verdict(counter):
    # the range is refused whole, not metered value by value until the
    # budget runs out
    report = check_machine(counter, Universe(0, 20_000, ceiling=5))
    assert report.status == RESOURCE_LIMIT
    assert {v.detail for v in report.verdicts} == {
        "Event-B invariant enumeration needs 20001 work units, exceeding "
        "the ceiling of 5"}
