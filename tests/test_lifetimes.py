"""Nothing keeps a pre-state.

A relation's searches are kept by the values they read, not by the
pre-states they serve: the JML witness memo, the Event-B parameter
solutions and the active specification cases each hold at most one entry
per distinct tuple of the values their search reads, and none holds a
``State``.  Neither the translator nor the checker leaves a reference cycle
behind, so what a search allocates is freed when it is done, without the
cycle collector.  The relations themselves are pinned elsewhere
(``test_first_fail.py``, ``test_check_golden.py``).
"""

import gc
import random
import sys
import types
from collections import Counter
from dataclasses import replace

import pytest

import test_check_golden as golden
from eb2jml import (
    MutationError, TranslationError, Universe, check_machine,
    mutate_translation, parse_machine, render_class, translate_machine,
    well_formedness_check,
)
from eb2jml.checker import MUTATIONS, state_spaces, universe_for
from eb2jml.ebast import free_identifiers
from eb2jml.jmlast import JmlOld, JmlOldExpr, JmlVar
from eb2jml.nodes import walk
from eb2jml.semantics import (
    Budget, State, eb_event_rel, inline_guard_calls, jml_method_rel,
)

from conftest import MACHINES_DIR
from genmachines import random_machine

CORPUS = ("counter", "swap", "social_abstract", "social_ref1")


@pytest.fixture
def no_collector():
    """The cycle collector off, and nothing left for it to start with."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    if enabled:
        gc.enable()


def _machines() -> list:
    """The corpus, and 300 generated machines, each also without its first
    variable declaration, which makes it ill-formed."""
    machines = [parse_machine((MACHINES_DIR / f"{name}.ebm").read_text(
        encoding="utf-8")) for name in CORPUS]
    rng = random.Random(3)
    for _ in range(300):
        machine = random_machine(rng)
        machines += [machine, replace(machine, variables=machine.variables[1:])]
    return machines


def test_translation_leaves_no_cycle(no_collector):
    machines = _machines()
    ill_formed = [bool(well_formedness_check(m)) for m in machines]
    outcomes = {"translated": 0, "ill-formed": 0, "rejected": 0}
    gc.collect()
    for machine, wrong in zip(machines, ill_formed):
        try:
            render_class(translate_machine(machine).result)
            outcomes["translated"] += 1
        except TranslationError:
            outcomes["ill-formed" if wrong else "rejected"] += 1
    assert gc.collect() == 0
    assert all(outcomes.values()), outcomes


# every cell of the check golden file, and a RESOURCE_LIMIT in an
# enumeration phase (the golden cells reach theirs in relation phases)
CELLS = golden.CELLS + (
    ("social_abstract 3x3 ceiling=100", "social_abstract.ebm",
     Universe(0, 2, {"PERSON": 3, "CONTENTS": 3}, 100)),
)


@pytest.mark.parametrize("label, filename, universe", CELLS,
                         ids=[cell[0] for cell in CELLS])
def test_a_check_leaves_no_cycle(no_collector, label, filename, universe):
    machine = parse_machine((MACHINES_DIR / filename).read_text(encoding="utf-8"))
    unit = translate_machine(machine)
    details = set()
    for mutation in (None,) + MUTATIONS:
        try:
            mutated = unit if mutation is None else mutate_translation(unit, mutation)
        except MutationError:
            continue
        gc.collect()
        report = check_machine(machine, universe, mutated)
        assert gc.collect() == 0, (label, mutation, report.status)
        details |= {v.detail.split(" needs ")[0] for v in report.verdicts
                    if v.detail}
    if label.endswith("ceiling=100"):
        assert details == {"Event-B invariant enumeration"}


def _locals_at_return(fn, *args) -> tuple:
    """``fn(*args)``, and the local variables of its frame as it returns."""
    seen: dict = {}

    def local(frame, event, _arg):
        if event == "return":
            seen.update(frame.f_locals)
        return local

    sys.settrace(lambda frame, _event, _arg:
                 local if frame.f_code is fn.__code__ else None)
    try:
        out = fn(*args)
    finally:
        sys.settrace(None)
    return out, seen


def _reachable(root) -> list:
    """Every object ``root`` refers to, directly or not, short of code:
    classes, modules and functions."""
    seen: dict = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def _value_tuples(states, reads) -> int:
    """The number of distinct tuples of the values of ``reads`` in
    ``states``."""
    return len({tuple(v for n, v in sorted(s.items()) if n in reads)
                for s in states})


def _jml_names(p) -> set:
    return {n.name for n in walk(p) if isinstance(n, JmlVar)}


def _pre_state_names(p, at_pre: bool) -> set:
    """The names ``p`` reads in the pre-state: every name when the
    post-state is the pre-state, else those under \\old."""
    if at_pre:
        return _jml_names(p)
    return set().union(*(_jml_names(n) for n in walk(p)
                         if isinstance(n, (JmlOld, JmlOldExpr))))


@pytest.mark.parametrize("name", ("create_account", "edit_owned"))
def test_a_relation_keeps_searches_by_value_not_by_state(social_ref1, name):
    u = universe_for(social_ref1, Universe(carriers={"PERSON": 2, "CONTENTS": 3}))
    unit = translate_machine(social_ref1)
    spaces = state_spaces(social_ref1, unit, u)
    event = social_ref1.event(name)
    guard, run = unit.method_pair(name)
    jml_rel, jml_frame = _locals_at_return(
        jml_method_rel, run, spaces.jml, guard, social_ref1.variables, u,
        Budget(u.ceiling))
    eb_rel, eb_frame = _locals_at_return(
        eb_event_rel, event, spaces.eb, social_ref1.variables, u,
        Budget(u.ceiling))
    assert jml_rel == eb_rel and len(spaces.jml) == 915
    memo, actives, found = jml_frame["memo"], jml_frame["actives"], eb_frame["found"]
    for held in (memo, actives, found):
        assert held
        assert not any(isinstance(obj, State) for obj in _reachable(held))
    # at most one entry per distinct tuple of the values each search reads
    guards = {i.key for _lbl, g in event.guards for i in free_identifiers(g)}
    assert len(found) <= _value_tuples(spaces.eb, guards)
    requires = set().union(*(_jml_names(inline_guard_calls(case.requires, guard))
                             for case in (run.normal, run.exceptional)))
    assert len(actives) <= _value_tuples(spaces.jml, requires)
    searches = Counter((node, at_pre, env) for node, at_pre, env, _values in memo)
    for (node, at_pre, _env), entries in searches.items():
        chain, quantifier = memo.chains[node, at_pre]
        reads = set(chain[-1])  # the other names its search reads
        assert reads <= _pre_state_names(quantifier, at_pre)
        assert entries <= _value_tuples(spaces.jml, reads)
