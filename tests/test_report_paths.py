"""Report paths that no corpus check reaches: a witness at a pre-state where
the guard is false, an initialisation witness in both renderings, and a
guard of two conjuncts, which the translation groups in parentheses."""

import json
from dataclasses import replace

from eb2jml import parse_machine, translate_machine
from eb2jml.checker import FAIL, PASS, check_event, check_machine
from eb2jml.jmlast import AssignVars, JmlParen, JmlTrue
from eb2jml.semantics import State, Universe, guard_holds

U02 = Universe(int_lo=0, int_hi=2)


def test_witness_where_the_guard_is_false(counter):
    # an exceptional case that may change v accepts every post-state where
    # the guard v = 0 is false; Event-B only stutters there
    unit = translate_machine(counter)
    guard, run = unit.method_pair("incr")
    loose = replace(run, exceptional=replace(
        run.exceptional, assignable=AssignVars(("v",))))
    unit = replace(unit, result=replace(unit.result, methods=tuple(
        loose if m is run else m for m in unit.result.methods)))
    v = check_event(counter.event("incr"), counter, U02, unit, witness_cap=10)
    assert v.status == FAIL
    assert {(w.pre["v"], w.post["v"]) for w in v.witnesses} == \
        {(1, 0), (1, 2), (2, 0), (2, 1)}
    for w in v.witnesses:
        assert w.jml_side == ("guard_incr() is false at the pre-state; the "
                              "exceptional case accepts this pair")
        assert w.eb_side == \
            "with the guard unsatisfiable only the pair (a, a) is allowed"


def test_initialisation_witness_in_text_and_tree(counter):
    unit = translate_machine(counter)
    widened = replace(unit, result=replace(unit.result, initially=JmlTrue()))
    report = check_machine(counter, Universe(int_lo=0, int_hi=1), widened)
    assert report.verdicts[0].status == FAIL
    assert ("  witness initialisation: state State(v=1)\n"
            "    jml: satisfies the initially clause and the class invariant\n"
            "    eb:  not a result of the Event-B initialisation\n") in \
        report.to_text()
    tree = json.loads(json.dumps(report.to_tree()))
    assert tree["verdicts"][0]["witnesses"] == [{
        "event": "initialisation", "pre": None, "post": {"v": "1"},
        "jml_side": "satisfies the initially clause and the class invariant",
        "eb_side": "not a result of the Event-B initialisation"}]


TWO_GUARDS = """
machine counter2
  variables v
  invariants
    inv1: v : INT
  events
    initialisation
      begin
        act1: v := 0
      end
    incr
      when
        grd1: 0 <= v
        grd2: v < 2
      then
        act1: v := v + 1
      end
end
"""


def test_a_parameterless_guard_of_two_conjuncts():
    machine = parse_machine(TWO_GUARDS)
    unit = translate_machine(machine)
    guard, _run = unit.method_pair("incr")
    assert isinstance(guard.normal.ensures, JmlParen)
    assert [guard_holds(guard, State({"v": n}), U02) for n in range(3)] == \
        [True, True, False]
    report = check_machine(machine, U02, unit)
    assert [v.status for v in report.verdicts] == [PASS, PASS]
    # 0 -> 1, 1 -> 2, and 2 stutters
    assert (report.verdicts[1].jml_size, report.verdicts[1].eb_size) == (3, 3)
