"""Invariant states drawn from each side's own bounds are exactly the
typed states at which the invariant holds.

Each side bounds a variable by the conjuncts that read only variables
bound before it: Event-B ``x <: S``, ``s <: x``, ``r : A <-> B`` (and the
other three arrows) and ``x : S``; JML ``x.isSubset(S)``,
``s.isSubset(x)``, ``r.domain()``/``r.range()`` with ``.isSubset(A)`` or
``.equals(A)``, and ``S.has(x)``.  A bound only decides which values are
tried, one work unit each; every conjunct is still tested.  The work
counts below pin that each pattern is used.
"""

import itertools
import logging
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from eb2jml import TranslationError, translate_machine
from eb2jml.checker import state_spaces, universe_for
from eb2jml.ebast import (
    REL_ARROWS, And, CarrierType, Cmp, Ident, IntType, Ref, RelSpace, RelType,
    SetType,
)
from eb2jml.jmlast import (
    JmlAnd, JmlBoolCall, JmlMethodCall, JmlNewSet, JmlIntLit, JmlVar, JInt,
)
from eb2jml.parser import parse_predicate
from eb2jml.semantics import (
    DEFAULT_CEILING, Budget, Universe, eb_invariant_states,
    jml_invariant_states,
)

from conftest import eb_inv_states, jml_inv_states, load_machine
from genmachines import random_expr, random_machine

U01 = Universe(int_lo=0, int_hi=1)
U02 = Universe(int_lo=0, int_hi=2)

SETS = SetType(IntType())
RELS = RelType(IntType(), IntType())


def _var(name, ty):
    return (Ident(name), ty)


def _subsets(values):
    return [frozenset(c) for n in range(len(values) + 1)
            for c in itertools.combinations(values, n)]


def _eb_work(text, variables, u):
    """Event-B enumeration work for the invariant ``text``, after checking
    the states found against the filtered typed product."""
    machine = SimpleNamespace(
        variables=variables, invariants=(("inv", parse_predicate(text)),))
    budget = Budget(DEFAULT_CEILING)
    found = eb_invariant_states(machine.invariants, variables, u, budget)
    assert found == eb_inv_states(machine, u)
    return budget.spent


def _jml_work(invariant, variables, u):
    """The same for a JML class invariant."""
    budget = Budget(DEFAULT_CEILING)
    found = jml_invariant_states(invariant, variables, u, budget)
    assert found == jml_inv_states(invariant, variables, u)
    return budget.spent


def _call(recv, method, *args):
    return JmlMethodCall(recv, method, tuple(args))


def _holds(recv, method, *args):
    return JmlBoolCall(_call(recv, method, *args))


def _v(name):
    return JmlVar(name)


# --- each pattern on each side -----------------------------------------------

S_X = (_var("s", SETS), _var("x", SETS))
X_S = (_var("x", SETS), _var("s", SETS))


def test_upper_bound():
    # s: 8 values; x: 2^|s| for each s, 3^3 in all
    assert _eb_work("x <: s", S_X, U02) == 8 + 27
    assert _jml_work(_holds(_v("x"), "isSubset", _v("s")), S_X, U02) == 8 + 27


def test_lower_bound():
    assert _eb_work("s <: x", S_X, U02) == 8 + 27
    assert _jml_work(_holds(_v("s"), "isSubset", _v("x")), S_X, U02) == 8 + 27


def test_element_candidates():
    variables = (_var("s", SETS), _var("x", IntType()))
    # x: the |s| members of s, 12 over the 8 subsets of {0, 1, 2}
    assert _eb_work("x : s", variables, U02) == 8 + 12
    assert _jml_work(_holds(_v("s"), "has", _v("x")), variables, U02) == 8 + 12


REL_VARS = (_var("a", SETS), _var("b", SETS), _var("r", RELS))
# r: each subset of a x b, for each of the 4 x 4 pairs (a, b) over {0, 1}
REL_WORK = 4 + 16 + sum(2 ** (len(a) * len(b))
                        for a in _subsets((0, 1)) for b in _subsets((0, 1)))


@pytest.mark.parametrize("arrow", REL_ARROWS)
def test_event_b_arrows_bound_domain_and_range(arrow):
    assert _eb_work(f"r : a {arrow} b", REL_VARS, U01) == REL_WORK


@pytest.mark.parametrize("dom_method", ["isSubset", "equals"])
@pytest.mark.parametrize("ran_method", ["isSubset", "equals"])
def test_jml_domain_and_range_bounds(dom_method, ran_method):
    invariant = JmlAnd(_holds(_call(_v("r"), "domain"), dom_method, _v("a")),
                       _holds(_call(_v("r"), "range"), ran_method, _v("b")))
    assert _jml_work(invariant, REL_VARS, U01) == REL_WORK


def test_domain_bound_alone():
    invariant = _holds(_call(_v("r"), "domain"), "isSubset", _v("a"))
    # r: pairs with a first component in a, 2 second components each
    work = 4 + 16 + sum(2 ** (2 * len(a)) for a in _subsets((0, 1))) * 4
    assert _jml_work(invariant, REL_VARS, U01) == work


def test_bounds_intersect():
    variables = (_var("s", SETS), _var("t", SETS), _var("x", SETS))
    # x: 2^|s & t| for each pair (s, t), 5^3 in all
    assert _eb_work("x <: s & x <: t", variables, U02) == 8 + 64 + 125
    # lower and upper: 2^|t - s| when s <: t, else none; 4^3 in all
    assert _eb_work("s <: x & x <: t", variables, U02) == 8 + 64 + 64


# --- edge cases ----------------------------------------------------------------

def test_lower_bound_outside_the_upper_bound_generates_nothing():
    # x: nothing when 2 is in s, else 2^(2 - |s|): 4 + 2 + 2 + 1
    assert _eb_work("s <: x & x <: {0, 1}", S_X, U02) == 8 + 9
    invariant = JmlAnd(_holds(_v("s"), "isSubset", _v("x")), _holds(
        _v("x"), "isSubset", JmlNewSet(JInt(), (JmlIntLit(0), JmlIntLit(1)))))
    assert _jml_work(invariant, S_X, U02) == 8 + 9


def test_bound_reading_a_later_variable_is_not_used(caplog):
    caplog.set_level(logging.DEBUG, logger="eb2jml.semantics")
    # x is bound first, so s \/ {0} cannot bound it: 8 x 8 values
    assert _eb_work("x <: s \\/ {0}", X_S, U02) == 8 + 64
    bound = _call(_v("s"), "union", JmlNewSet(JInt(), (JmlIntLit(0),)))
    assert _jml_work(_holds(_v("x"), "isSubset", bound), X_S, U02) == 8 + 64
    # nor is it evaluated, which would be undefined with s unbound
    assert not caplog.records


def test_bound_on_itself_is_not_used(caplog):
    caplog.set_level(logging.DEBUG, logger="eb2jml.semantics")
    assert _eb_work("x <: x \\/ s", S_X, U02) == 8 + 64
    assert not caplog.records


def test_undefined_bound_falls_back_to_the_typed_domain():
    variables = (_var("f", RELS), _var("x", IntType()))
    # f(0) is defined at 8 of the 16 relations, where x is tried once;
    # at the other 8 the bound is undefined and x takes both integers
    assert _eb_work("x : {f(0)}", variables, U01) == 16 + 8 + 8 * 2
    invariant = _holds(JmlNewSet(JInt(), (_call(_v("f"), "apply", JmlIntLit(0)),)),
                       "has", _v("x"))
    assert _jml_work(invariant, variables, U01) == 16 + 8 + 8 * 2


def test_membership_does_not_bound_a_set():
    variables = (_var("p", SetType(SETS)), _var("x", SETS))
    assert _eb_work("x : p", variables, U01) == 16 + 16 * 4
    assert _jml_work(_holds(_v("p"), "has", _v("x")), variables, U01) == 16 + 16 * 4


# --- seeded generated machines ---------------------------------------------------

def _with_bounds(machine, rng):
    """``machine`` with one more invariant per variable, shaped like a
    bound: membership of a set variable, a relation arrow, or a subset
    with a random expression on either side."""
    scope = {c: SetType(CarrierType(c)) for c in machine.carrier_sets}
    scope.update((ident.name, ty) for ident, ty in machine.variables)
    extra = []
    for ident, ty in machine.variables:
        if isinstance(ty, (IntType, CarrierType)):
            sets = [n for n, t in scope.items() if t == SetType(ty)]
            if sets:
                extra.append(Cmp("in", Ref(ident), Ref(Ident(rng.choice(sets)))))
        elif isinstance(ty, RelType) and rng.random() < 0.7:
            extra.append(Cmp("in", Ref(ident), RelSpace(
                rng.choice(REL_ARROWS),
                random_expr(rng, SetType(ty.dom), scope, 1),
                random_expr(rng, SetType(ty.ran), scope, 1))))
        else:
            bound = random_expr(rng, ty, scope, 1)
            extra.append(Cmp("subset", Ref(ident), bound) if rng.random() < 0.5
                         else Cmp("subset", bound, Ref(ident)))
    invariants = machine.invariants + tuple(
        (f"bnd{i}", p) for i, p in enumerate(extra))
    return replace(machine, invariants=invariants)


def _small_machines(count=200, most_states=2 ** 10):
    """Seeded generated machines over int 0..1 and carriers of 2, whose
    typed product the brute-force reference can afford."""
    seed = 0
    while count:
        machine = random_machine(random.Random(seed))
        u = Universe(0, 1, {c: 2 for c in machine.carrier_sets})
        typed = 1
        for _ident, ty in machine.variables:
            typed *= len(u.values_of(ty))
        if typed <= most_states:
            count -= 1
            yield seed, machine, u
        seed += 1


def test_generated_machines_match_brute_force():
    compared = jml_compared = bounded = 0
    for seed, machine, u in _small_machines():
        for m in (machine, _with_bounds(machine, random.Random(seed))):
            assert eb_invariant_states(m.invariants, m.variables, u,
                                       Budget(u.ceiling)) == \
                eb_inv_states(m, u), seed
            compared += 1
            try:
                invariant = translate_machine(m).result.class_invariant
            except TranslationError:
                continue
            assert jml_invariant_states(invariant, m.variables, u,
                                        Budget(u.ceiling)) == \
                jml_inv_states(invariant, m.variables, u), seed
            jml_compared += 1
        bounded += any(_bound_shaped(c) for _lbl, inv in machine.invariants
                       for c in _conjuncts(inv))
    assert compared == 400 and jml_compared >= 300
    assert bounded >= 10  # the plain machines hold bounds of their own


def _bound_shaped(p):
    return isinstance(p, Cmp) and (
        p.op in ("in", "subset") and isinstance(p.left, Ref)
        or p.op == "subset" and isinstance(p.right, Ref))


def _conjuncts(p):
    return _conjuncts(p.left) + _conjuncts(p.right) if isinstance(p, And) else [p]


# --- frontier and enumeration work ------------------------------------------------

@pytest.mark.parametrize("carriers", [{"PERSON": 4, "CONTENTS": 3},
                                      {"PERSON": 3, "CONTENTS": 4}],
                         ids=["4x3", "3x4"])
def test_abstract_frontier_cells_are_enumerated(social_abstract, carriers):
    unit = translate_machine(social_abstract)
    spaces = state_spaces(social_abstract, unit, Universe(carriers=carriers))
    assert spaces.limit is None
    assert len(spaces.eb) == len(spaces.jml) == \
        {4: 1997, 3: 12190}[carriers["PERSON"]]


@pytest.mark.parametrize("name,carriers", [
    ("social_abstract", {"PERSON": 3, "CONTENTS": 3}),
    ("social_ref1", {"PERSON": 2, "CONTENTS": 3}),
], ids=["abstract-3x3", "ref1-2x3"])
def test_enumeration_work_per_invariant_state(name, carriers):
    machine = load_machine(f"{name}.ebm")
    invariant = translate_machine(machine).result.class_invariant
    u = universe_for(machine, Universe(carriers=carriers))
    eb_work, jml_work = Budget(u.ceiling), Budget(u.ceiling)
    eb = eb_invariant_states(machine.invariants, machine.variables, u, eb_work)
    jml = jml_invariant_states(invariant, machine.variables, u, jml_work)
    assert eb == jml
    assert eb_work.spent <= 4 * len(eb) and jml_work.spent <= 4 * len(jml)
