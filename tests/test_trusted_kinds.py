"""Inside a checker phase the evaluators trust the operand kinds.

The well-formedness gate types every machine the checker is given, and
every state value comes from its variable's type, so a phase compiles each
operator bare (``semantics._compiled``).  This runs the phases with the
checked forms swapped in instead, over the corpus under each mutation and
over the generated machines of ``test_engine``: no operand-kind failure
is logged, and every verdict equals the one the bare forms give.  With
the bare forms the phases cannot log such a failure at all, so the swap is
what makes the premise observable.
"""

import logging

import pytest

from eb2jml import semantics
from eb2jml.checker import MUTATIONS, MutationError, check_machine, mutate_translation
from eb2jml.ebast import Ident, IntType, SetType
from eb2jml.jmlast import JmlCmp, JmlIntLit, JmlVar
from eb2jml.semantics import Budget, Universe, jml_invariant_states
from eb2jml.translate import translate_machine

from conftest import load_machine
from test_engine import _generated, _generated_seeds

U = Universe(0, 1)
KIND_FAILURES = ("needs a set value", "needs a relation value",
                 "needs an integer value", "is not boolean-valued")
CELLS = [
    ("counter", U),
    ("swap", U),
    ("social_abstract", Universe(carriers={"PERSON": 2, "CONTENTS": 2})),
    ("social_ref1", Universe(carriers={"PERSON": 1, "CONTENTS": 2})),
]


def _checks():
    """(machine, universe, unit) for each corpus cell, unmutated and under
    each mutation that applies, and for each generated machine."""
    for name, u in CELLS:
        machine = load_machine(f"{name}.ebm")
        unit = translate_machine(machine)
        yield machine, u, unit
        for mutation in MUTATIONS:
            try:
                yield machine, u, mutate_translation(unit, mutation)
            except MutationError:
                pass
    for seed in _generated_seeds():
        machine, u = _generated(seed)
        yield machine, u, translate_machine(machine)


def _verdicts():
    return [check_machine(machine, u, unit).to_tree()["verdicts"]
            for machine, u, unit in _checks()]


def _swap_in_checked_forms(patch):
    """Make every expression a phase compiles, and every bound it reads,
    take the checked form."""
    for name in ("_compile_eb", "_compile_jml"):
        compile = getattr(semantics, name)
        patch.setattr(semantics, name,
                      lambda e, u, _checked, compile=compile: compile(e, u, True))
    bounded = semantics._bounded_domain
    patch.setattr(semantics, "_bounded_domain",
                  lambda plan, value, u, _checked=False: bounded(plan, value, u, True))


def _kind_failures(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if any(text in r.getMessage() for text in KIND_FAILURES)]


def test_the_phases_meet_no_operand_of_the_wrong_kind(monkeypatch, caplog):
    bare = _verdicts()
    _swap_in_checked_forms(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="eb2jml.semantics"):
        checked = _verdicts()
    assert _kind_failures(caplog) == []
    assert checked == bare


def test_the_swap_shows_an_operand_of_the_wrong_kind(monkeypatch, caplog):
    # a set compared with an integer, which no typed machine holds
    invariant = JmlCmp("<", JmlVar("s"), JmlIntLit(1))
    variables = [(Ident("s"), SetType(IntType()))]
    _swap_in_checked_forms(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="eb2jml.semantics"):
        states = jml_invariant_states(invariant, variables, U, Budget(U.ceiling))
    assert states == frozenset()
    assert set(_kind_failures(caplog)) == {
        "undefined evaluation counts as false (< needs an integer value, got {})",
        "undefined evaluation counts as false (< needs an integer value, got {0})",
        "undefined evaluation counts as false (< needs an integer value, got {0, 1})",
        "undefined evaluation counts as false (< needs an integer value, got {1})"}
