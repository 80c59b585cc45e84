import random
import re
from dataclasses import replace

import pytest

from eb2jml import Universe, check_machine, normalize_jml, parse_machine
from eb2jml import parse_predicate
from eb2jml.ebast import (
    BecomesEqual, BecomesSuchThat, CarrierType, Cmp, Event, Ident, IntLit,
    IntType, Ref, RelType, SetType,
)
from eb2jml.ebcheck import base_type_env, well_formedness_check
from eb2jml.checker import PASS, _contains_old
from eb2jml.jmlast import (
    AssignNothing, AssignVars, JInt, JmlExists, JmlGuardCall,
    JmlNot, JmlOld, JmlTrue, JSet, render_class, render_jml_predicate,
    render_jml_type,
)
from eb2jml.nodes import walk
from eb2jml.translate import (
    TranslationError, jml_type_of, translate_action, translate_actions,
    translate_event, translate_initialisation, translate_invariants,
    translate_machine as tr_machine, translate_predicate,
)
from genmachines import random_machine

from conftest import load_machine

PERSONS_ENV = {
    "PERSON": SetType(CarrierType("PERSON")),
    "CONTENTS": SetType(CarrierType("CONTENTS")),
    "persons": SetType(CarrierType("PERSON")),
    "contents": SetType(CarrierType("CONTENTS")),
    "owner": RelType(CarrierType("CONTENTS"), CarrierType("PERSON")),
    "pages": RelType(CarrierType("CONTENTS"), CarrierType("PERSON")),
}

INT_ENV = {"v": IntType(), "x": IntType(), "y": IntType()}


def tr(text, env):
    return render_jml_predicate(translate_predicate(parse_predicate(text), env))


def test_subset_translation():
    assert tr("persons <: PERSON", PERSONS_ENV) == "persons.isSubset(PERSON)"


def test_total_surjection_membership():
    assert tr("owner : contents -->> persons", PERSONS_ENV) == (
        "owner.isaFunction() && owner.domain().equals(contents) "
        "&& owner.range().equals(persons)")


def test_truth_translation():
    assert tr("true", {}) == "true"


def test_pre_state_translation_wraps_old():
    pre = JmlOld(translate_predicate(parse_predicate("v = 0"), INT_ENV))
    assert render_jml_predicate(pre) == "\\old(v == 0)"


def test_relation_arrow_only_under_membership():
    from eb2jml.ebast import RelSpace
    arrow = RelSpace("<->", Ref(Ident("contents")), Ref(Ident("persons")))
    with pytest.raises(TranslationError):
        translate_predicate(Cmp("eq", Ref(Ident("pages")), arrow), PERSONS_ENV)


def test_disjunction_translates():
    assert tr("v = 0 or v = 1", INT_ENV) == "v == 0 || v == 1"


def test_translate_action_integer_assignment():
    a = BecomesEqual("act1", Ident("v"),
                     parse_predicate("v = v + 1").right)  # reuse parsed expr
    out = render_jml_predicate(translate_action(a, INT_ENV))
    assert out == "v == \\old(v + 1)"


def test_translate_action_nondeterministic():
    a = BecomesSuchThat("act1", Ident("v"), parse_predicate("v' = v + 1"))
    out = render_jml_predicate(translate_action(a, INT_ENV))
    assert out == ("(\\exists Integer v_after; \\old(v_after == v + 1) "
                   "&& v == v_after)")
    # the after-value name avoids every name in scope
    out = render_jml_predicate(translate_action(a, dict(INT_ENV, v_after=IntType())))
    assert out == ("(\\exists Integer v_after2; \\old(v_after2 == v + 1) "
                   "&& v == v_after2)")


LEGAL_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# after-values whose first fresh names are taken by a variable and a parameter
AFTER = """
machine after
  variables v v_after
  invariants
    inv1: v : INT
    inv2: v_after : INT
  events
    initialisation
      begin
        act1: v :| v' = 0
        act2: v_after := 0
      end
    e
      any v_after2
      where
        grd1: v_after2 : INT
      then
        act1: v :| v' = v_after2 + v_after
      end
end
"""


def test_renamed_after_values_keep_the_check_passing():
    report = check_machine(parse_machine(AFTER), Universe(0, 2))
    assert [(v.name, v.status, v.bisimulation) for v in report.verdicts] == [
        ("initialisation", PASS, True), ("e", PASS, True)]


def _translated_machines():
    """The corpus and seeded generated machines that translate."""
    machines = [load_machine(f"{name}.ebm") for name in
                ("counter", "swap", "social_abstract", "social_ref1")]
    machines.append(parse_machine(AFTER))
    rng = random.Random(20261018)
    machines.extend(random_machine(rng) for _ in range(300))
    for machine in machines:
        try:
            yield machine, tr_machine(machine)
        except TranslationError:
            continue


def test_bound_names_are_legal_and_fresh():
    # an after-value name differs from every name in its scope: the
    # variables and carriers, and in a run method the event's parameters
    after_values = 0
    for machine, unit in _translated_machines():
        names = set(machine.carrier_sets) | set(machine.variable_names())
        scopes = [(unit.result.initially, names, set())]
        for event in machine.events:
            _guard, run = unit.method_pair(event.name)
            params = {ident.name for ident, _ty in event.params}
            scopes.append((run.normal.ensures, names | params, params))
        for predicate, in_scope, params in scopes:
            for node in walk(predicate):
                if not isinstance(node, JmlExists):
                    continue
                assert LEGAL_NAME.fullmatch(node.var), (machine.name, node.var)
                # every other quantifier binds an after-value
                if node.var not in params:
                    assert node.var not in in_scope, (machine.name, node.var)
                    after_values += 1
        assert "'" not in render_class(unit.result), machine.name
    assert after_values > 100


def test_translate_action_set_difference_union(social_ref1):
    env = base_type_env(social_ref1)
    env["c1"] = CarrierType("CONTENTS")
    env["newc"] = CarrierType("CONTENTS")
    act = social_ref1.event("edit_owned").actions[0]
    out = render_jml_predicate(translate_action(act, env))
    assert out == ("contents.equals(\\old(contents.difference("
                   "new BSet<Integer>(c1)).union(new BSet<Integer>(newc))))")


def test_translate_actions_swap_conjunction():
    acts = (BecomesEqual("act1", Ident("x"), Ref(Ident("y"))),
            BecomesEqual("act2", Ident("y"), Ref(Ident("x"))))
    out = render_jml_predicate(translate_actions(acts, INT_ENV))
    assert out == "x == \\old(y) && y == \\old(x)"


def test_translate_actions_empty_is_true():
    assert isinstance(translate_actions((), INT_ENV), JmlTrue)


def test_translate_actions_label_order(social_abstract):
    env = base_type_env(social_abstract)
    env.update({"c1": CarrierType("CONTENTS"), "p1": CarrierType("PERSON"),
                "newc": CarrierType("CONTENTS")})
    acts = social_abstract.event("edit_owned").actions
    out = render_jml_predicate(translate_actions(acts, env))
    assert out.index("contents.equals") < out.index("pages.equals") \
        < out.index("owner.equals")


def test_translate_event_structure(social_ref1):
    env = base_type_env(social_ref1)
    guard, run = translate_event(social_ref1.event("edit_owned"), env)
    assert guard.name == "guard_edit_owned" and guard.kind == "guard"
    assert isinstance(guard.normal.assignable, AssignNothing)
    assert run.normal.assignable == AssignVars(
        ("contents", "pages", "owner", "viewp", "editp"))
    assert run.normal.requires == JmlGuardCall("guard_edit_owned")
    assert run.exceptional.requires == JmlNot(JmlGuardCall("guard_edit_owned"))
    assert isinstance(run.exceptional.ensures, JmlTrue)
    # three nested existentials in declaration order
    ens = run.normal.ensures
    names = []
    while isinstance(ens, JmlExists):
        names.append(ens.var)
        ens = ens.body
    assert names == ["c1", "p1", "newc"]


def test_translate_event_zero_parameters(counter):
    env = base_type_env(counter)
    guard, run = translate_event(counter.event("incr"), env)
    assert render_jml_predicate(guard.normal.ensures) == "v == 0"
    assert render_jml_predicate(run.normal.ensures) == \
        "\\old(v == 0) && v == \\old(1)"


def test_translate_event_unsatisfiable_guard_not_simplified():
    ev = Event(name="stuck", params=(),
               guards=(("grd1", parse_predicate("v /= v")),),
               actions=(BecomesEqual("act1", Ident("v"), IntLit(1)),))
    guard, run = translate_event(ev, {"v": IntType()})
    assert render_jml_predicate(guard.normal.ensures) == "v != v"
    assert render_jml_predicate(run.normal.ensures) == \
        "\\old(v != v) && v == \\old(1)"


def test_translate_invariants_order_and_fragment(social_ref1):
    env = base_type_env(social_ref1)
    out = render_jml_predicate(
        translate_invariants(social_ref1.invariants, env))
    assert normalize_jml(out).startswith(normalize_jml(
        "persons.isSubset(PERSON) && contents.isSubset(CONTENTS) && "
        "owner.isaFunction() && owner.domain().equals(contents) && "
        "owner.range().equals(persons)"))
    assert isinstance(translate_invariants((), env), JmlTrue)


def test_invariant_subset_example(social_ref1):
    env = base_type_env(social_ref1)
    out = render_jml_predicate(translate_invariants(
        (("inv5", parse_predicate("owner <: pages")),), env))
    assert out == "owner.isSubset(pages)"


def test_translate_initialisation_all_empty(social_ref1):
    env = base_type_env(social_ref1)
    out = render_jml_predicate(
        translate_initialisation(social_ref1.initialisation, env))
    assert out == ("persons.isEmpty() && contents.isEmpty() && "
                   "owner.isEmpty() && pages.isEmpty() && "
                   "viewp.isEmpty() && editp.isEmpty()")
    assert not _contains_old(translate_initialisation(social_ref1.initialisation, env))


def test_translate_initialisation_integer(counter):
    env = base_type_env(counter)
    out = render_jml_predicate(translate_initialisation(counter.initialisation, env))
    assert out == "v == 0"


def test_translate_initialisation_becomes_such_that():
    acts = (BecomesSuchThat("act1", Ident("who"), parse_predicate("who' : PERSON")),)
    env = {"who": CarrierType("PERSON"), "PERSON": SetType(CarrierType("PERSON"))}
    out = render_jml_predicate(translate_initialisation(acts, env))
    assert out == ("(\\exists Integer who_after; PERSON.has(who_after) "
                   "&& who == who_after)")


# one type per kind: the equality that the type takes, and its negation
EQUALITY_TYPES = {
    "INT": (IntType(), "{} == {}", "{} != {}"),
    "carrier": (CarrierType("S"), "{} == {}", "{} != {}"),
    "pow(S)": (SetType(CarrierType("S")), "{}.equals({})", "!{}.equals({})"),
    "relation": (RelType(CarrierType("S"), IntType()),
                 "{}.equals({})", "!{}.equals({})"),
}


@pytest.mark.parametrize("kind", sorted(EQUALITY_TYPES))
def test_every_producer_emits_the_same_equality(kind):
    # a guard '=', an event 'v := E', an initialisation 'v := E' and the
    # after-value link of 'v :| P' all pin a value with one operator
    t, eq, neq = EQUALITY_TYPES[kind]
    env = {"S": SetType(CarrierType("S")), "v": t, "w": t}
    v, w = Ref(Ident("v")), Ref(Ident("w"))
    assign = BecomesEqual("act1", Ident("v"), w)
    choose = BecomesSuchThat("act1", Ident("v"), Cmp(
        "eq", Ref(Ident("v", primed=True)), w))
    rendered = {
        "guard": translate_predicate(Cmp("eq", v, w), env),
        "event": translate_action(assign, env),
        "initialisation": translate_initialisation((assign,), env),
        "link": translate_action(choose, env),
    }
    rendered = {k: render_jml_predicate(p) for k, p in rendered.items()}
    jml_t = render_jml_type(jml_type_of(t))
    assert rendered == {
        "guard": eq.format("v", "w"),
        "event": eq.format("v", "\\old(w)"),
        "initialisation": eq.format("v", "w"),
        "link": (f"(\\exists {jml_t} v_after; \\old({eq.format('v_after', 'w')})"
                 f" && {eq.format('v', 'v_after')})"),
    }
    assert render_jml_predicate(translate_predicate(Cmp("neq", v, w), env)) \
        == neq.format("v", "w")


def _assert_rejected_as_well_formedness_does(machine, message):
    # the translator's gate is well_formedness_check: its error is the
    # machine's first wf diagnostic, text and span, here the one named
    diagnostic = next(d for d in well_formedness_check(machine)
                      if d.message == message)
    with pytest.raises(TranslationError) as exc:
        tr_machine(machine)
    assert str(exc.value) == str(diagnostic)
    assert exc.value.span == diagnostic.span


def _initialisation_machine(action):
    return parse_machine(f"""
machine m
  variables v w
  invariants
    inv1: v : INT
    inv2: w : INT
  events
    initialisation
      begin
        {action}
        act2: w := 0
      end
end
""")


def test_translate_initialisation_rejects_variable_reads():
    _assert_rejected_as_well_formedness_does(
        _initialisation_machine("act1: v := w"),
        "initialisation of 'v' reads variable 'w' (there is no pre-state)")


@pytest.mark.parametrize("action,message", [
    ("act1: v := w'",
     "primed identifier 'w'' is not allowed in a deterministic action"),
    ("act1: v := v'",
     "primed identifier 'v'' is not allowed in a deterministic action"),
    ("act1: v :| w' = 0", "'w'' cannot appear here; only 'v'' may be primed"),
])
def test_translate_initialisation_rejects_primed_identifiers(action, message):
    _assert_rejected_as_well_formedness_does(
        _initialisation_machine(action), message)


NOT_A_VARIABLE = {
    "initialisation": ("act2: w := 1", "when grd1: v = 0", "act2: v := 1",
                       "initialisation assigns 'w'"),
    "event": ("", "when grd1: v = 0", "act2: w := 1", "event 'e' assigns 'w'"),
    "event parameter": ("", "any p where grd1: p : INT", "act2: p := 1",
                        "event 'e' assigns 'p'"),
}


@pytest.mark.parametrize("case", sorted(NOT_A_VARIABLE))
def test_assigning_a_non_variable_is_a_translation_error(case):
    init_extra, head, action, prefix = NOT_A_VARIABLE[case]
    machine = parse_machine(f"""
machine m
  variables v
  invariants
    inv1: v : INT
  events
    initialisation
      begin
        act1: v := 0
        {init_extra}
      end
    e
      {head}
      then
        {action}
      end
end
""")
    _assert_rejected_as_well_formedness_does(
        machine, f"{prefix}, which is not a machine variable")


# (event head, event action, the wf diagnostic the action gets)
ILL_FORMED_EVENT_ACTION = {
    "primed identifier": ("when grd1: v = 0", "act1: v := v' + 1",
                          "primed identifier 'v'' is not allowed in a "
                          "deterministic action"),
    "type mismatch": ("any p where grd1: p : S", "act1: v := p",
                      "type mismatch: S vs INT"),
}


@pytest.mark.parametrize("case", sorted(ILL_FORMED_EVENT_ACTION))
def test_an_ill_formed_event_action_is_a_translation_error(case):
    head, action, message = ILL_FORMED_EVENT_ACTION[case]
    machine = parse_machine(f"""
machine m
  sets S
  variables v
  invariants
    inv1: v : INT
  events
    initialisation
      begin
        act1: v := 0
      end
    e
      {head}
      then
        {action}
      end
end
""")
    _assert_rejected_as_well_formedness_does(machine, message)


@pytest.mark.parametrize("name", ["v", "S"])
def test_a_parameter_shadowing_a_variable_or_set_is_a_translation_error(name):
    machine = parse_machine(f"""
machine m
  sets S
  variables v
  invariants
    inv1: v : INT
  events
    initialisation
      begin
        act1: v := 0
      end
    e
      any {name}
      where
        grd1: {name} : INT
      then
        act1: v :| v' = v + 1
      end
end
""")
    # without the check, the parameter captured the variable it shadows
    _assert_rejected_as_well_formedness_does(
        machine, f"parameter '{name}' of event 'e' shadows a variable or carrier set")


# (variables, second initialisation action, event head, event action, the
# one wf diagnostic of the machine)
ILL_FORMED = {
    "duplicate parameter": (
        "v", "", "any p p where grd1: p : INT", "act1: v := p",
        "duplicate parameter 'p'"),
    "untyped variable": (
        "v w", "act2: w := 0", "when grd1: v = 0", "act1: v := 1",
        "cannot determine the type of variable 'w' "
        "(annotate it or add a typing invariant)"),
    "untyped parameter": (
        "v", "", "any p where grd1: v = 0", "act1: v := 1",
        "cannot determine the type of parameter 'p' of event 'e'"),
    "unknown carrier set": (
        "v w : FOO", "act2: w :| w' = w'", "when grd1: v = 0", "act1: v := 1",
        "unknown carrier set 'FOO'"),
}


@pytest.mark.parametrize("case", sorted(ILL_FORMED))
def test_an_ill_formed_declaration_is_a_translation_error(case):
    variables, init_extra, head, action, message = ILL_FORMED[case]
    machine = parse_machine(f"""
machine m
  variables {variables}
  invariants
    inv1: v : INT
  events
    initialisation
      begin
        act1: v := 0
        {init_extra}
      end
    e
      {head}
      then
        {action}
      end
end
""")
    _assert_rejected_as_well_formedness_does(machine, message)


@pytest.mark.parametrize("guard,position", [
    ("{} : {}", "13:20"),  # the right-hand '{}'
    ("{} |-> 1 = {} |-> 1", "13:15"),  # the first maplet
])
def test_an_undetermined_set_type_is_rejected_at_its_position(guard, position):
    # well-formed, but no JML type exists for the elements of '{}'
    machine = parse_machine(f"""
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
      when
        grd1: {guard}
      then
        act1: v := 1
      end
end
""")
    assert well_formedness_check(machine) == []
    with pytest.raises(TranslationError) as exc:
        tr_machine(machine)
    assert str(exc.value) == (
        f"{position}: element type of a set is not determined")


def test_jml_type_of_examples():
    assert jml_type_of(SetType(CarrierType("PERSON"))) == JSet(JInt())
    assert render_jml_type(jml_type_of(
        RelType(CarrierType("CONTENTS"), CarrierType("PERSON")))) == \
        "BRelation<Integer,Integer>"
    assert jml_type_of(IntType()) == JInt()


def test_translate_machine_trace_and_fields(social_abstract):
    unit = tr_machine(social_abstract)
    assert unit.result.name == "abstract"
    assert [name for name, _t in unit.result.model_fields] == [
        "contents", "owner", "pages", "persons"]
    assert unit.result.carriers == ("CONTENTS", "PERSON")
    assert len(unit.result.methods) == 4
    labels = {source for source, _frag in unit.trace}
    assert {"inv1", "act1", "edit_owned/grd3", "create_account/act4"} <= labels


def test_translate_machine_zero_events(counter):
    bare = replace(counter, events=())
    unit = tr_machine(bare)
    assert unit.result.methods == ()
    assert render_jml_predicate(unit.result.initially) == "v == 0"


def test_method_pair_property(social_ref1):
    unit = tr_machine(social_ref1)
    names = [m.name for m in unit.result.methods]
    assert len(names) == len(set(names))
    for ev in social_ref1.events:
        guard, run = unit.method_pair(ev.name)
        assert guard.name == f"guard_{ev.name}"
        assert run.name == f"run_{ev.name}"
        expected = tuple(a.target.name for a in dict.fromkeys(ev.actions))
        assert isinstance(run.normal.assignable, AssignVars)
        assert set(run.normal.assignable.names) == \
            {a.target.name for a in ev.actions}


def test_no_old_in_guard_ensures_or_initially(social_ref1):
    unit = tr_machine(social_ref1)
    assert not _contains_old(unit.result.initially)
    for m in unit.result.methods:
        if m.kind == "guard":
            assert not _contains_old(m.normal.ensures)


def test_guard_totality(social_ref1):
    unit = tr_machine(social_ref1)
    for ev in social_ref1.events:
        _guard, run = unit.method_pair(ev.name)
        assert run.exceptional.requires == JmlNot(run.normal.requires)
