"""Pre-state witness pruning is exact.

Each \\exists keeps in the evaluator's memo, per (node, binding, and the
pre-state's values of the names its search reads), only the witnesses
whose leading \\old conjuncts hold (every conjunct when the post-state is
the pre-state), and searches directly nested quantifiers as one.  Every evaluation here, with one memo shared
across all pairs, is compared with ``conftest.jml_scan_holds``, which tries
every witness in full.
"""

import pytest

from eb2jml import translate_machine
from eb2jml.checker import MUTATIONS, mutate_translation, state_spaces, universe_for
from eb2jml.ebast import Ident, IntType, RelType
from eb2jml.jmlast import (
    JInt, JmlAnd, JmlCmp, JmlExists, JmlIntLit, JmlMethodCall, JmlOld,
    JmlParen, JmlVar,
)
from eb2jml.semantics import (
    Budget, EvalError, Phase, State, Universe, enumerate_states,
    inline_guard_calls, jml_invariant_states, jml_pred_holds,
)

from conftest import jml_inv_states, jml_scan_holds


def _outcome(holds, *args):
    try:
        return holds(*args)
    except EvalError:
        return "undefined"


def _agree(p, pairs, u):
    memo = Phase(Budget(u.ceiling))
    for a, b in pairs:
        assert _outcome(jml_pred_holds, p, a, b, {}, u, memo) == \
            _outcome(jml_scan_holds, p, a, b, {}, u), (a, b)


@pytest.mark.parametrize("mutation", (None,) + MUTATIONS)
def test_run_methods_of_the_flagship(social_abstract, mutation):
    unit = translate_machine(social_abstract)
    if mutation is not None:
        unit = mutate_translation(unit, mutation)
    u = universe_for(social_abstract,
                     Universe(carriers={"PERSON": 2, "CONTENTS": 2}))
    inv = state_spaces(social_abstract, unit, u).jml
    pairs = [(a, b) for a in inv for b in inv]
    for event in social_abstract.events:
        guard, run = unit.method_pair(event.name)
        for case in (run.normal, run.exceptional):
            _agree(case.ensures, pairs, u)
            _agree(inline_guard_calls(case.requires, guard),
                   [(a, a) for a in inv], u)


def _var(name):
    return JmlVar(name)


def _int(n):
    return JmlIntLit(n)


def _apply(x):
    return JmlMethodCall(_var("r"), "apply", (x,))


def _exists(var, body):
    return JmlExists(var, JInt(), body)


def _and(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = JmlAnd(out, p)
    return out


HAND_BUILT = {
    # r.apply(x) is undefined wherever r is not functional at x
    "leading old undefined": _exists("x", _and(
        JmlOld(JmlCmp("==", _apply(_var("x")), _int(1))),
        JmlCmp("==", _var("v"), _var("x")))),
    "no old conjunct": _exists("x", _and(
        JmlCmp("==", _var("v"), _apply(_var("x"))),
        JmlCmp("<", _var("x"), _int(1)))),
    "old conjuncts at two levels": _exists("x", _and(
        JmlOld(JmlCmp("<=", _var("x"), _var("v"))),
        _exists("y", _and(JmlOld(JmlCmp("!=", _var("y"), _var("x"))),
                          JmlCmp("==", _var("v"), _var("y")))))),
    "inner binding shadows the outer": _exists("x", _and(
        JmlOld(JmlCmp("==", _var("x"), _int(0))),
        JmlParen(_exists("x", _and(JmlOld(JmlCmp("==", _var("x"), _int(1))),
                                   JmlCmp("==", _var("v"), _var("x"))))))),
    # the inner x has one value and the outer two: binding the inner x
    # first would leave the outer x's value in the body
    "a name bound twice keeps declaration order": _exists("x", _and(
        JmlOld(JmlCmp("<=", _var("x"), _int(1))),
        JmlParen(_exists("x", _and(JmlOld(JmlCmp("==", _var("x"), _int(1))),
                                   JmlCmp("==", _var("v"), _var("x"))))))),
    # the inner v has one value and x two, but x != v reads the state's v
    "inner binding shadows a name read outside it": _exists("x", _and(
        JmlOld(JmlCmp("!=", _var("x"), _var("v"))),
        JmlParen(_exists("v", _and(JmlOld(JmlCmp("==", _var("v"), _int(1))),
                                   JmlCmp("==", _var("x"), _var("v"))))))),
    # the inner search reads v alone, but its witnesses carry the outer
    # binding of x, which the conjunct after it reads
    "inner search under each outer binding": _exists("x", _and(
        JmlOld(JmlCmp("<=", _var("x"), _int(1))),
        _exists("y", _and(JmlOld(JmlCmp("==", _var("y"), _var("v"))),
                          JmlCmp("==", _var("x"), _var("y")))),
        JmlCmp("<=", _var("v"), _int(1)))),
    "nested quantifier followed by a conjunct": _exists("x", _and(
        JmlOld(JmlCmp("==", _var("x"), _var("v"))),
        _exists("y", JmlCmp("==", _var("v"), _var("y"))),
        JmlCmp("==", _var("v"), _var("x")))),
    # the translation of a becomes-such-that action, v :| v' <= v
    "after-value binding": _exists("v_after", _and(
        JmlOld(JmlCmp("<=", _var("v_after"), _var("v"))),
        JmlCmp("==", _var("v"), _var("v_after")))),
    "quantifier inside old": JmlOld(_exists("x", JmlCmp(
        "==", _apply(_var("x")), _var("v")))),
    "old conjunct after a post-state conjunct": _exists("x", _and(
        JmlCmp("==", _var("v"), _var("x")),
        JmlOld(JmlCmp("==", _apply(_var("x")), _int(0))))),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_specs(name):
    u = Universe(int_lo=0, int_hi=1)
    variables = ((Ident("v"), IntType()), (Ident("r"), RelType(IntType(), IntType())))
    states = enumerate_states(variables, u)
    # (a, a) takes the pre-state path, (a, copy of a) the post-state path
    pairs = [(a, b) for a in states for b in states] + \
        [(a, State(a)) for a in states]
    _agree(HAND_BUILT[name], pairs, u)


def test_class_invariant_with_nested_quantifiers():
    """Invariant conjuncts are tested at partial bindings, which are dicts;
    the translator never puts an \\exists in a class invariant."""
    u = Universe(int_lo=0, int_hi=1)
    variables = ((Ident("v"), IntType()), (Ident("w"), IntType()),
                 (Ident("r"), RelType(IntType(), IntType())))
    invariant = _and(
        # reads v and w only: tested before r is bound
        _exists("x", _and(JmlCmp("!=", _var("x"), _var("v")),
                          _exists("y", _and(JmlCmp("==", _var("y"), _var("x")),
                                            JmlCmp("!=", _var("y"), _var("w")))))),
        _exists("x", JmlParen(_exists("y", _and(
            JmlCmp("==", _apply(_var("x")), _var("y")),
            JmlCmp("<", _var("y"), _var("v")))))))
    expected = jml_inv_states(invariant, variables, u)
    assert 0 < len(expected) < len(enumerate_states(variables, u))
    assert jml_invariant_states(invariant, variables, u,
                                Budget(u.ceiling)) == expected
