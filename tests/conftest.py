from pathlib import Path

import pytest

from eb2jml import (
    EvalError, eb_pred_holds, enumerate_states, jml_pred_holds, parse_machine,
)
from eb2jml.jmlast import JmlAnd, JmlExists, JmlNot, JmlOld, JmlOr, JmlParen

TESTS_DIR = Path(__file__).resolve().parent
MACHINES_DIR = TESTS_DIR.parent / "machines"
GOLDEN_DIR = TESTS_DIR / "golden"


def load_machine(name: str):
    return parse_machine((MACHINES_DIR / name).read_text(encoding="utf-8"))


def states_where(variables, u, holds) -> frozenset:
    """The typed product filtered by ``holds``, an undefined evaluation
    counting as false: the brute-force reference for invariant states."""
    out = set()
    for s in enumerate_states(variables, u):
        try:
            if holds(s):
                out.add(s)
        except EvalError:
            pass
    return frozenset(out)


def pairs(rel) -> frozenset:
    """The (pre, post) pairs of a relation given as a map from each
    pre-state to its post-states, as ``eb_event_rel`` and
    ``jml_method_rel`` return it."""
    return frozenset((a, b) for a, bs in rel.items() for b in bs)


def eb_inv_states(machine, u) -> frozenset:
    """Typed states at which every Event-B invariant of ``machine`` holds."""
    return states_where(machine.variables, u, lambda s: all(
        eb_pred_holds(p, s, {}, u) for _lbl, p in machine.invariants))


def jml_scan_holds(p, pre, state, env, u) -> bool:
    """Truth of a JML predicate with every \\exists decided by trying each
    typed value of its variable in full, an undefined body failing that
    value: the brute-force reference for the program's witness search.
    Connectives and \\old are followed here; every other predicate goes to
    ``jml_pred_holds``.  Raises EvalError when undefined, as it does."""
    if isinstance(p, JmlExists):
        for value in u.values_of(p.ty):
            try:
                if jml_scan_holds(p.body, pre, state, {**env, p.var: value}, u):
                    return True
            except EvalError:
                pass
        return False
    if isinstance(p, JmlAnd):
        return jml_scan_holds(p.left, pre, state, env, u) and \
            jml_scan_holds(p.right, pre, state, env, u)
    if isinstance(p, JmlOr):
        return jml_scan_holds(p.left, pre, state, env, u) or \
            jml_scan_holds(p.right, pre, state, env, u)
    if isinstance(p, JmlNot):
        return not jml_scan_holds(p.operand, pre, state, env, u)
    if isinstance(p, JmlParen):
        return jml_scan_holds(p.operand, pre, state, env, u)
    if isinstance(p, JmlOld):
        return jml_scan_holds(p.operand, pre, pre, env, u)
    return jml_pred_holds(p, pre, state, env, u)


def jml_inv_states(invariant, variables, u) -> frozenset:
    """Typed states at which the JML class ``invariant`` holds."""
    return states_where(
        variables, u, lambda s: jml_scan_holds(invariant, s, s, {}, u))


@pytest.fixture(scope="session")
def social_abstract():
    return load_machine("social_abstract.ebm")


@pytest.fixture(scope="session")
def social_ref1():
    return load_machine("social_ref1.ebm")


@pytest.fixture(scope="session")
def counter():
    return load_machine("counter.ebm")


@pytest.fixture(scope="session")
def swap():
    return load_machine("swap.ebm")
