import random

import pytest

from genmachines import oracle_event_rel, random_int_event
from eb2jml import parse_predicate
from eb2jml.ebast import (
    BecomesEqual, BecomesSuchThat, BinOp, BTrue, CarrierType, Cmp, EmptySet,
    Event, Ident, IntLit, IntSet, IntType, Ref, RelSpace, RelType, SetEnum,
    SetType, UnOp,
)
from eb2jml.jmlast import (
    AssignNothing, AssignVars, JInt, JmlArith, JmlBoolCall, JmlCmp, JmlCross,
    JmlExists, JmlFalse, JmlIntLit, JmlMethodCall, JmlMethodSpec, JmlNewPair,
    JmlNewRelation, JmlNewSet, JmlOld, JmlOldExpr, JmlTrue, JmlVar, JSet,
    SpecCase,
)
from eb2jml.nodes import walk
from eb2jml.semantics import (
    Budget, EvalError, ResourceLimitError, State, Universe, eb_event_rel,
    eb_init_states, eb_pred_holds, enumerate_states, eval_eb_expr,
    eval_jml_expr, jml_initially_states, jml_method_rel, jml_pred_holds,
)
from eb2jml.translate import translate_machine, translate_predicate

from conftest import jml_inv_states, pairs, states_where

U01 = Universe(int_lo=0, int_hi=1)
U02 = Universe(int_lo=0, int_hi=2)

INT_V = (Ident("v"), IntType())


def ee(text, state=None, env=None, u=U02):
    return eval_eb_expr(parse_predicate(f"{text} = 0").left,
                        state or {}, env or {}, u)


def holds(text, state=None, env=None, u=U02):
    return eb_pred_holds(parse_predicate(text), state or {}, env or {}, u)


# --- evaluation ------------------------------------------------------------

def test_relational_image():
    state = {"pages": frozenset({(1, 1), (1, 2)}), "c1": 1}
    assert ee("pages[{c1}]", state) == frozenset({1, 2})


def test_domain_subtraction():
    state = {"r": frozenset({(1, 2), (3, 4)})}
    assert ee("{1} <<| r", state) == frozenset({(3, 4)})


def test_singleton_application():
    state = {"owner": frozenset({(5, 7)}), "c1": 5}
    assert ee("owner(c1)", state) == 7


def test_application_undefined_raises():
    state = {"owner": frozenset({(5, 7), (5, 8)}), "c1": 5}
    with pytest.raises(EvalError):
        ee("owner(c1)", state)
    with pytest.raises(EvalError):
        ee("owner(9)", {"owner": frozenset()})


def test_pred_simple_equality():
    assert holds("v = 0", {"v": 0})


def test_pred_membership_difference():
    u = Universe(carriers={"PERSON": 2})
    assert holds("p1 : PERSON \\ persons",
                 {"persons": frozenset({1})}, {"p1": 2}, u)


def test_pred_subset_false():
    assert not holds("owner <: pages",
                     {"owner": frozenset({(1, 1)}), "pages": frozenset()})


# --- each evaluator's values and failure texts ------------------------------

EVAL_U = Universe(int_lo=0, int_hi=2, carriers={"P": 2})
VALUES = {"n": 1, "s": frozenset({1, 2}), "t": frozenset({2, 3}),
          "r": frozenset({(1, 2), (3, 4)}), "g": frozenset({(0, 1), (0, 2)})}
OLD = {**VALUES, "n": 0, "s": frozenset({0})}  # the JML pre-state
S12, PROD = frozenset({1, 2}), frozenset({(1, 2), (1, 3), (2, 2), (2, 3)})


def _eb(x):
    return Ref(Ident(x)) if isinstance(x, str) else IntLit(x) \
        if isinstance(x, int) else x


def _bin(op, left, right):
    return BinOp(op, _eb(left), _eb(right))


# (expression, its value at VALUES or the text of its EvalError)
EB_CASES = [
    (_bin("maplet", "n", "s"), (1, S12)),
    (_bin("union", "s", "t"), frozenset({1, 2, 3})),
    (_bin("union", "n", "s"), "union needs a set value, got 1"),
    (_bin("union", "s", "n"), "union needs a set value, got 1"),
    (_bin("union", "n", "z"), "unbound identifier 'z'"),  # operands first
    (_bin("inter", "s", "t"), frozenset({2})),
    (_bin("inter", "s", "n"), "intersection needs a set value, got 1"),
    (_bin("diff", "s", "t"), frozenset({1})),
    (_bin("diff", "n", "t"), "difference needs a set value, got 1"),
    (_bin("domres", "s", "r"), frozenset({(1, 2)})),
    (_bin("domres", "n", "r"), "domain restriction needs a set value, got 1"),
    (_bin("domres", "s", "s"), "domain restriction needs a relation value"),
    (_bin("domsub", "s", "r"), frozenset({(3, 4)})),
    (_bin("domsub", "r", "n"), "domain subtraction needs a set value, got 1"),
    (_bin("domsub", "s", "s"), "domain subtraction needs a relation value"),
    (_bin("cross", "s", "t"), PROD),
    (_bin("cross", "s", "n"), "cartesian product needs a set value, got 1"),
    (_bin("image", "r", "s"), frozenset({2})),
    (_bin("image", "r", "n"), "image needs a set value, got 1"),
    (_bin("image", "s", "s"), "image needs a relation value"),
    (_bin("apply", "r", 1), 2),
    (_bin("apply", "g", 0), "apply undefined at 0"),
    (_bin("apply", "r", 2), "apply undefined at 2"),
    (_bin("apply", "s", 1), "application needs a relation value"),
    (_bin("add", "n", 2), 3),
    (_bin("add", "s", 2), "+ needs an integer value, got {1, 2}"),
    (_bin("sub", "n", 2), -1),
    (_bin("sub", "n", "s"), "- needs an integer value, got {1, 2}"),
    (_bin("mul", "n", 2), 2),
    (_bin("mul", "r", "n"), "* needs an integer value, got {(1 |-> 2), (3 |-> 4)}"),
    (_bin("foo", "n", "n"), "cannot evaluate operator 'foo'"),
    (_bin("foo", "n", "z"), "unbound identifier 'z'"),
    (UnOp("dom", _eb("r")), frozenset({1, 3})),
    (UnOp("ran", _eb("r")), frozenset({2, 4})),
    (UnOp("dom", _eb("s")), "dom needs a relation value"),
    (UnOp("ran", _eb("n")), "ran needs a set value, got 1"),
    (SetEnum((_eb("n"), IntLit(2))), S12),
    (SetEnum(()), frozenset()),
    (SetEnum((_eb("n"), _eb("z"))), "unbound identifier 'z'"),
    (IntSet(), frozenset({0, 1, 2})),
    (EmptySet(), frozenset()),
    (_eb("P"), S12),
    (Ref(Ident("P", primed=True)), "unbound identifier 'P''"),
    (_eb("z"), "unbound identifier 'z'"),
    (RelSpace("<->", _eb("s"), _eb("t")), "cannot evaluate RelSpace"),
    # a set operand is tested before a relation operand
    (_bin("image", "s", "n"), "image needs a set value, got 1"),
    (_bin("domres", "n", "s"), "domain restriction needs a set value, got 1"),
    (_bin("domsub", "n", "s"), "domain subtraction needs a set value, got 1"),
    # predicates: a comparison evaluates both operands first
    (Cmp("eq", _eb("n"), IntLit(1)), True),
    (Cmp("in", _eb("n"), _eb("s")), True),
    (Cmp("in", _eb("n"), _eb("n")), "membership needs a set value, got 1"),
    (Cmp("subset", _eb("s"), _eb("t")), False),
    (Cmp("subset", _eb("n"), _eb("s")), "subset needs a set value, got 1"),
    (Cmp("subset", _eb("s"), _eb("n")), "subset needs a set value, got 1"),
    (Cmp("lt", _eb("n"), IntLit(2)), True),
    (Cmp("lt", _eb("s"), _eb("n")), "< needs an integer value, got {1, 2}"),
    (Cmp("lt", _eb("s"), _eb("z")), "unbound identifier 'z'"),
    (Cmp("le", _eb("n"), _eb("s")), "<= needs an integer value, got {1, 2}"),
    # relation-space membership tests each operand as it is evaluated
    (Cmp("in", _eb("g"), RelSpace("<->", IntSet(), IntSet())), True),
    (Cmp("in", _eb("g"), RelSpace("-->", IntSet(), IntSet())), False),
    (Cmp("in", _eb("s"), RelSpace("<->", _eb("s"), _eb("t"))),
     "relation membership needs a relation value"),
    (Cmp("in", _eb("s"), RelSpace("<->", _eb("z"), _eb("t"))),
     "relation membership needs a relation value"),
    (Cmp("in", _eb("r"), RelSpace("-->", _eb("n"), _eb("t"))),
     "relation membership needs a set value, got 1"),
    (Cmp("in", _eb("r"), RelSpace("<->", _eb("s"), _eb("n"))),
     "relation membership needs a set value, got 1"),
]


def _jml(x):
    return JmlVar(x) if isinstance(x, str) else JmlIntLit(x) \
        if isinstance(x, int) else x


def _call(recv, method, *args):
    return JmlMethodCall(_jml(recv), method, tuple(_jml(a) for a in args))


JML_CASES = [
    (_call("s", "has", "n"), True),
    (_call("n", "has", "n"), "has needs a set value, got 1"),
    (_call("n", "has", "z"), "unbound identifier 'z'"),  # arguments first
    (_call("s", "isSubset", "t"), False),
    (_call("s", "isSubset", "n"), "isSubset needs a set value, got 1"),
    (_call("n", "equals", 1), True),
    (_call("s", "isEmpty"), False),
    (_call("n", "isEmpty"), "isEmpty needs a set value, got 1"),
    (_call("r", "isaFunction"), True),
    (_call("g", "isaFunction"), False),
    (_call("s", "isaFunction"), "isaFunction needs a relation value"),
    (_call("s", "union", "t"), frozenset({1, 2, 3})),
    (_call("n", "union", "t"), "union needs a set value, got 1"),
    (_call("s", "intersection", "t"), frozenset({2})),
    (_call("s", "intersection", "n"), "intersection needs a set value, got 1"),
    (_call("s", "difference", "t"), frozenset({1})),
    (_call("n", "difference", "t"), "difference needs a set value, got 1"),
    (_call("r", "domainSubtraction", "s"), frozenset({(3, 4)})),
    (_call("r", "domainSubtraction", "n"),
     "domainSubtraction needs a set value, got 1"),
    (_call("s", "domainSubtraction", "s"),
     "domainSubtraction needs a relation value"),
    (_call("r", "domainRestriction", "s"), frozenset({(1, 2)})),
    (_call("r", "domainRestriction", "n"),
     "domainRestriction needs a set value, got 1"),
    (_call("s", "domainRestriction", "s"),
     "domainRestriction needs a relation value"),
    (_call("r", "image", "s"), frozenset({2})),
    (_call("r", "image", "n"), "image needs a set value, got 1"),
    (_call("s", "image", "s"), "image needs a relation value"),
    (_call("r", "apply", 1), 2),
    (_call("g", "apply", 0), "apply undefined at 0"),
    (_call("s", "apply", 1), "apply needs a relation value"),
    (_call("r", "domain"), frozenset({1, 3})),
    (_call("s", "domain"), "domain needs a relation value"),
    (_call("r", "range"), frozenset({2, 4})),
    (_call("n", "range"), "range needs a set value, got 1"),
    (_call("s", "foo"), "unknown method 'foo'"),
    (_call("z", "foo"), "unbound identifier 'z'"),
    (JmlCross(_jml("s"), _jml("t")), PROD),
    (JmlCross(_jml("s"), _jml("n")), "cross needs a set value, got 1"),
    (JmlCross(_jml("n"), _jml("z")), "cross needs a set value, got 1"),
    (JmlNewSet(JInt(), (_jml("n"), _jml(2))), S12),
    (JmlNewSet(JInt()), frozenset()),
    (JmlNewSet(JInt(), (_jml("n"), _jml("z"))), "unbound identifier 'z'"),
    (JmlNewPair(JInt(), JSet(JInt()), _jml("n"), _jml("s")), (1, S12)),
    (JmlNewRelation(JInt(), JInt(), (
        JmlNewPair(JInt(), JInt(), _jml("n"), _jml(2)),
        JmlNewPair(JInt(), JInt(), _jml(3), _jml(4)))),
     frozenset({(1, 2), (3, 4)})),
    (JmlArith("+", _jml("n"), _jml(2)), 3),
    (JmlArith("-", _jml("n"), _jml(2)), -1),
    (JmlArith("*", _jml("n"), _jml(2)), 2),
    (JmlArith("+", _jml("s"), _jml("z")), "+ needs an integer value, got {1, 2}"),
    (JmlArith("+", _jml("n"), _jml("z")), "unbound identifier 'z'"),
    (JmlArith("*", _jml("n"), _call("s", "has", "n")),
     "* needs an integer value, got True"),
    (JmlOldExpr(_jml("n")), 0),
    (JmlOldExpr(_call("s", "union", "t")), frozenset({0, 2, 3})),
    (_call(JmlOldExpr(_jml("s")), "union", "s"), frozenset({0, 1, 2})),
    (_jml("P"), S12),
    (_jml("z"), "unbound identifier 'z'"),
    (JmlTrue(), "cannot evaluate JmlTrue"),
    # a set operand is tested before a relation operand
    (_call("s", "image", "n"), "image needs a set value, got 1"),
    (_call("s", "domainRestriction", "n"),
     "domainRestriction needs a set value, got 1"),
    (_call("s", "domainSubtraction", "n"),
     "domainSubtraction needs a set value, got 1"),
    # predicates: a comparison evaluates both operands first
    (JmlCmp("==", _jml("n"), _jml(1)), True),
    (JmlCmp("<", _jml("n"), _jml(2)), True),
    (JmlCmp("<", _jml("s"), _jml("n")), "< needs an integer value, got {1, 2}"),
    (JmlCmp("<", _jml("s"), _jml("z")), "unbound identifier 'z'"),
    (JmlCmp("<=", _jml("n"), _jml("s")), "<= needs an integer value, got {1, 2}"),
    (JmlBoolCall(_call("s", "has", "n")), True),
    (JmlBoolCall(_call("s", "union", "t")), "method 'union' is not boolean-valued"),
]


def _outcome(evaluate):
    try:
        return evaluate()
    except EvalError as exc:
        return str(exc)


def _only(values, e, var) -> dict:
    """``values`` restricted to the names ``e`` reads: a partial binding."""
    names = {getattr(n, "name", None) or n.ident.key
             for n in walk(e) if isinstance(n, var)}
    return {k: v for k, v in values.items() if k in names}


@pytest.mark.parametrize("e, expected", EB_CASES, ids=[
    f"{k}-{type(e).__name__}-{getattr(e, 'op', '')}"
    for k, (e, _v) in enumerate(EB_CASES)])
def test_event_b_values_and_failure_texts(e, expected):
    evaluate = eb_pred_holds if isinstance(e, Cmp) else eval_eb_expr
    assert _outcome(lambda: evaluate(e, State(VALUES), {}, EVAL_U)) == expected
    partial = _only(VALUES, e, Ref)
    assert _outcome(lambda: evaluate(e, partial, {}, EVAL_U)) == expected


@pytest.mark.parametrize("e, expected", JML_CASES, ids=[
    f"{k}-{type(e).__name__}-{getattr(e, 'method', getattr(e, 'op', ''))}"
    for k, (e, _v) in enumerate(JML_CASES)])
def test_jml_values_and_failure_texts(e, expected):
    evaluate = jml_pred_holds if isinstance(e, (JmlCmp, JmlBoolCall)) else eval_jml_expr
    assert _outcome(lambda: evaluate(
        e, State(OLD), State(VALUES), {}, EVAL_U)) == expected
    pre, post = _only(OLD, e, JmlVar), _only(VALUES, e, JmlVar)
    assert _outcome(lambda: evaluate(e, pre, post, {}, EVAL_U)) == expected


def test_a_binding_shadows_the_state_and_the_carrier_sets():
    env = {"n": 2, "P": 7}
    assert eval_eb_expr(_eb("n"), State(VALUES), env, EVAL_U) == 2
    assert eval_eb_expr(_eb("P"), {}, env, EVAL_U) == 7
    assert eval_jml_expr(JmlOldExpr(_jml("n")), OLD, VALUES, env, EVAL_U) == 2
    assert eval_jml_expr(_jml("P"), {}, {}, env, EVAL_U) == 7


# --- Event-B relations -------------------------------------------------------

def _counter_event():
    return Event(
        name="incr", params=(),
        guards=(("grd1", parse_predicate("v = 0")),),
        actions=(BecomesEqual("act1", Ident("v"), IntLit(1)),))


def s(**vals):
    return State(vals)


def _states(variables, u, invariant=BTrue()):
    """The typed states at which the Event-B ``invariant`` holds."""
    return states_where(variables, u, lambda st: eb_pred_holds(invariant, st, {}, u))


def _assg_rel(actions, variables, u, invariant=BTrue()):
    """The relation of the unguarded simultaneous substitution ``actions``."""
    ev = Event(name="assg", params=(), guards=(), actions=tuple(actions))
    return pairs(eb_event_rel(ev, _states(variables, u, invariant), variables, u,
                              Budget(u.ceiling)))


def test_counter_event_relation_exact():
    rel = pairs(eb_event_rel(_counter_event(), _states((INT_V,), U01), (INT_V,), U01,
                             Budget(U01.ceiling)))
    assert rel == frozenset({(s(v=0), s(v=1)), (s(v=1), s(v=1))})


def test_guard_false_everywhere_gives_identity():
    ev = Event(name="stuck", params=(),
               guards=(("grd1", parse_predicate("v = 5")),),
               actions=(BecomesEqual("act1", Ident("v"), IntLit(1)),))
    rel = pairs(eb_event_rel(ev, _states((INT_V,), U01), (INT_V,), U01,
                             Budget(U01.ceiling)))
    assert rel == frozenset({(s(v=0), s(v=0)), (s(v=1), s(v=1))})


def test_nondeterministic_choice_full_relation():
    ev = Event(name="free", params=(), guards=(),
               actions=(BecomesSuchThat(
                   "act1", Ident("v"),
                   parse_predicate("v' = 0 or v' = 1")),))
    rel = pairs(eb_event_rel(ev, _states((INT_V,), U01), (INT_V,), U01,
                             Budget(U01.ceiling)))
    assert rel == frozenset({
        (s(v=a), s(v=b)) for a in (0, 1) for b in (0, 1)})


def test_assg_such_that_identity():
    acts = (BecomesSuchThat("act1", Ident("v"), parse_predicate("v' = v")),)
    rel = _assg_rel(acts, (INT_V,), U01)
    assert rel == frozenset({(s(v=0), s(v=0)), (s(v=1), s(v=1))})


def test_assg_constant_assignment():
    acts = (BecomesEqual("act1", Ident("v"), IntLit(1)),)
    rel = _assg_rel(acts, (INT_V,), U01)
    assert rel == frozenset({(s(v=0), s(v=1)), (s(v=1), s(v=1))})


def test_assg_post_state_must_satisfy_invariant():
    acts = (BecomesEqual("act1", Ident("v"), IntLit(1)),)
    rel = _assg_rel(acts, (INT_V,), U01, parse_predicate("v = 0"))
    assert rel == frozenset()


def test_deterministic_equals_such_that_form():
    # v := E and v :| v' = E define the same relation
    for rhs_text in ("v + 1", "1", "v * v"):
        rhs = parse_predicate(f"v = {rhs_text}").right
        det = (BecomesEqual("act1", Ident("v"), rhs),)
        nondet = (BecomesSuchThat(
            "act1", Ident("v"), Cmp("eq", Ref(Ident("v", primed=True)), rhs)),)
        assert _assg_rel(det, (INT_V,), U02) == _assg_rel(nondet, (INT_V,), U02)


def test_swap_simultaneity():
    acts = (BecomesEqual("act1", Ident("x"), Ref(Ident("y"))),
            BecomesEqual("act2", Ident("y"), Ref(Ident("x"))))
    variables = ((Ident("x"), IntType()), (Ident("y"), IntType()))
    rel = _assg_rel(acts, variables, U02)
    assert rel == frozenset({
        (s(x=a, y=b), s(x=b, y=a)) for a in (0, 1, 2) for b in (0, 1, 2)})


def test_transitions_leaving_the_universe_are_dropped():
    acts = (BecomesEqual("act1", Ident("v"),
                         parse_predicate("v = v + 1").right),)
    rel = _assg_rel(acts, (INT_V,), U01)
    assert rel == frozenset({(s(v=0), s(v=1))})


def test_erroring_guard_counts_as_unsatisfied():
    ev = Event(
        name="e", params=(),
        guards=(("grd1", parse_predicate("r(0) = 1")),),
        actions=(BecomesEqual("act1", Ident("r"),
                              parse_predicate("r = {0 |-> 1}").right),))
    variables = ((Ident("r"), RelType(IntType(), IntType())),)
    u = Universe(int_lo=0, int_hi=1, ceiling=10 ** 5)
    rel = pairs(eb_event_rel(ev, _states(variables, u), variables, u,
                             Budget(u.ceiling)))
    # r(0) errors where r is not functional at 0 and where 0 is unmapped
    empty = frozenset()
    assert (s(r=empty), s(r=empty)) in rel
    good = frozenset({(0, 1)})
    assert (s(r=good), s(r=good)) in rel


# --- initialisation -----------------------------------------------------------

def test_init_deterministic():
    acts = (BecomesEqual("act1", Ident("v"), IntLit(0)),)
    assert eb_init_states(acts, _states((INT_V,), U01), (INT_V,), U01,
                          Budget(U01.ceiling)) == \
        frozenset({s(v=0)})


def test_init_nondeterministic_filtered_by_invariant():
    acts = (BecomesSuchThat("act1", Ident("v"),
                            parse_predicate("v' = 0 or v' = 1")),)
    out = eb_init_states(acts, _states((INT_V,), U01, parse_predicate("v = 1")),
                         (INT_V,), U01, Budget(U01.ceiling))
    assert out == frozenset({s(v=1)})


def test_init_contradictory_invariant():
    acts = (BecomesEqual("act1", Ident("v"), IntLit(0)),)
    states = _states((INT_V,), U01, parse_predicate("v < v"))
    assert eb_init_states(acts, states, (INT_V,), U01,
                          Budget(U01.ceiling)) == frozenset()


# --- JML evaluation -----------------------------------------------------------

def test_old_evaluates_in_pre_state():
    p = JmlOld(JmlCmp("==", JmlVar("v"), JmlIntLit(1)))
    assert jml_pred_holds(p, s(v=1), s(v=0), {}, U01)
    assert not jml_pred_holds(p, s(v=0), s(v=1), {}, U01)


def test_becomes_links_post_state_to_binding():
    # the after-value link of v :| P reads v in the post-state
    p = JmlCmp("==", JmlVar("v"), JmlVar("v_after"))
    assert jml_pred_holds(p, s(v=0), s(v=3), {"v_after": 3}, Universe(0, 3))
    assert not jml_pred_holds(p, s(v=0), s(v=2), {"v_after": 3}, Universe(0, 3))


def test_exists_finds_witness_in_range():
    p = JmlExists("x", JInt(), JmlCmp("==", JmlVar("x"), JmlIntLit(2)))
    assert jml_pred_holds(p, State(), State(), {}, Universe(0, 3))
    assert not jml_pred_holds(p, State(), State(), {}, Universe(0, 1))


def test_old_neutrality_without_old_or_becomes():
    rng = random.Random(7)
    texts = ["v = 0", "v < 1 or v = 1", "not v = 0 & v <= 1", "true"]
    for text in texts:
        p = translate_predicate(parse_predicate(text), {"v": IntType()})
        for k in (0, 1):
            st = s(v=k)
            assert jml_pred_holds(p, st, st, {}, U01) == \
                jml_pred_holds(JmlOld(p), st, st, {}, U01)


def test_translated_predicates_agree_with_source():
    # translation preserves meaning: checked over all states and small preds
    env = {"v": IntType(), "w": SetType(IntType())}
    variables = ((Ident("v"), IntType()), (Ident("w"), SetType(IntType())))
    texts = ["v = 0", "v : w", "w <: {0, 1}", "v < 1 & v : w or w = {}",
             "not (v = 1 or 1 <= v)"]
    for text in texts:
        src = parse_predicate(text)
        out = translate_predicate(src, env)
        for st in enumerate_states(variables, U01):
            assert eb_pred_holds(src, st, {}, U01) == \
                jml_pred_holds(out, st, st, {}, U01), (text, st)


# --- JML method relation --------------------------------------------------------

def _counter_specs():
    from eb2jml.parser import parse_machine
    from conftest import MACHINES_DIR
    m = parse_machine((MACHINES_DIR / "counter.ebm").read_text())
    unit = translate_machine(m)
    guard, run = unit.method_pair("incr")
    return m, unit, guard, run


def test_jml_method_relation_counter():
    _m, unit, guard, run = _counter_specs()
    states = jml_inv_states(unit.result.class_invariant, (INT_V,), U01)
    rel = pairs(jml_method_rel(run, states, guard, (INT_V,), U01, Budget(U01.ceiling)))
    assert rel == frozenset({(s(v=0), s(v=1)), (s(v=1), s(v=1))})


def test_jml_method_relation_vacuous_cases():
    guard = JmlMethodSpec("guard_e", "guard",
                          SpecCase(JmlTrue(), AssignNothing(), JmlTrue()))
    run = JmlMethodSpec(
        "run_e", "run",
        normal=SpecCase(JmlFalse(), AssignVars(("v",)), JmlFalse()),
        exceptional=SpecCase(JmlFalse(), AssignNothing(), JmlTrue()))
    rel = pairs(jml_method_rel(run, _states((INT_V,), U01), guard, (INT_V,), U01,
                               Budget(U01.ceiling)))
    # both requires false: nothing constrains the pair beyond the invariant
    assert rel == frozenset({
        (s(v=a), s(v=b)) for a in (0, 1) for b in (0, 1)})


def test_jml_method_relation_false_ensures_blocks_pre_state():
    _m, unit, guard, run = _counter_specs()
    from dataclasses import replace
    mutated = replace(run, normal=replace(run.normal, ensures=JmlFalse()))
    states = jml_inv_states(unit.result.class_invariant, (INT_V,), U01)
    rel = pairs(jml_method_rel(mutated, states, guard, (INT_V,), U01,
                               Budget(U01.ceiling)))
    assert all(dict(a) != {"v": 0} for a, _b in rel)
    assert (s(v=1), s(v=1)) in rel


def test_jml_initially_states_is_empty_set_only(social_ref1):
    unit = translate_machine(social_ref1)
    u = Universe(int_lo=0, int_hi=0, carriers={"PERSON": 1, "CONTENTS": 1})
    states = jml_inv_states(unit.result.class_invariant, social_ref1.variables, u)
    out = jml_initially_states(unit.result.initially, states, u, Budget(u.ceiling))
    empty = frozenset()
    assert out == frozenset({State({
        "persons": empty, "contents": empty, "owner": empty,
        "pages": empty, "viewp": empty, "editp": empty})})


def test_jml_initially_false_is_empty():
    assert jml_initially_states(JmlFalse(), _states((INT_V,), U01), U01,
                                Budget(U01.ceiling)) == \
        frozenset()


def test_jml_initially_counter():
    _m, unit, _guard, _run = _counter_specs()
    states = jml_inv_states(unit.result.class_invariant, (INT_V,), U01)
    out = jml_initially_states(unit.result.initially, states, U01, Budget(U01.ceiling))
    assert out == frozenset({s(v=0)})


# --- state enumeration ------------------------------------------------------

def test_enumerate_integer_states():
    assert len(enumerate_states((INT_V,), U01)) == 2


def test_enumerate_powerset_states():
    variables = ((Ident("v"), SetType(CarrierType("P"))),)
    u = Universe(carriers={"P": 2})
    assert len(enumerate_states(variables, u)) == 4


def test_enumerate_relation_states():
    variables = ((Ident("r"), RelType(CarrierType("P"), CarrierType("P"))),)
    u = Universe(carriers={"P": 2})
    assert len(enumerate_states(variables, u)) == 16


def test_enumeration_ceiling():
    variables = ((Ident("r"), RelType(CarrierType("P"), CarrierType("P"))),)
    u = Universe(carriers={"P": 2}, ceiling=10)
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_states(variables, u)
    assert exc.value.count == 16


def test_an_integer_range_wider_than_the_ceiling_is_never_built():
    with pytest.raises(ResourceLimitError) as exc:
        Universe(0, 10 ** 6, ceiling=10 ** 6).values_of(IntType())
    assert exc.value.count == 10 ** 6 + 1
    assert len(Universe(0, 9, ceiling=10).values_of(IntType())) == 10


def test_budget_charges_and_raises():
    b = Budget(3)
    b.charge()
    b.charge()
    b.charge()
    with pytest.raises(ResourceLimitError):
        b.charge()


def test_states_are_hashable_and_comparable():
    assert s(v=0) == State({"v": 0})
    assert hash(s(v=0)) == hash(State({"v": 0}))
    assert s(v=0) != s(v=1)


# --- oracle agreement (smoke; the acceptance suite runs the full count) ------

def test_event_relation_matches_oracle_sample():
    rng = random.Random(99)
    for _ in range(25):
        event, inv = random_int_event(rng)
        states = _states((INT_V,), U02, inv)
        ours = pairs(eb_event_rel(event, states, (INT_V,), U02, Budget(U02.ceiling)))
        reference = oracle_event_rel(event, inv, 0, 2)
        assert ours == frozenset(p for p in reference if p[0] in states), (event, inv)
