"""A FAIL's witnesses are the first ``witness_cap`` missing transitions in
sort order, chosen without sorting every missing transition.

The reference here sorts the whole difference of the two relations, each
built by its own relation builder; the checker must report the same pairs
in the same order, and FAIL exactly when the difference is non-empty.
"""

import pytest

from eb2jml import translate_machine
from eb2jml.checker import (
    FAIL, MUTATIONS, PASS, check_event, mutate_translation, state_spaces,
)
from eb2jml.semantics import (
    Budget, State, Universe, eb_event_rel, jml_method_rel,
)

from conftest import load_machine

CELLS = [
    ("counter.ebm", Universe(int_lo=0, int_hi=2)),
    ("swap.ebm", Universe(int_lo=0, int_hi=4)),
    ("social_abstract.ebm",
     Universe(int_lo=0, int_hi=2, carriers={"PERSON": 2, "CONTENTS": 2})),
]


def _pair_key(pair):
    return pair[0].sort_key(), pair[1].sort_key()


def _missing(machine, unit, event, u, spaces) -> frozenset:
    """The JML transitions of ``event`` that are no Event-B transitions."""
    guard, run = unit.method_pair(event.name)
    jml_rel = jml_method_rel(run, spaces.jml, guard, machine.variables, u,
                             Budget(u.ceiling))
    eb_rel = eb_event_rel(event, spaces.eb, machine.variables, u,
                          Budget(u.ceiling))
    return jml_rel - eb_rel


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("name,u", CELLS, ids=[c[0] for c in CELLS])
def test_witnesses_are_the_sorted_prefix_of_the_missing_pairs(name, u,
                                                             mutation):
    machine = load_machine(name)
    unit = mutate_translation(translate_machine(machine), mutation)
    spaces = state_spaces(machine, unit, u)
    for event in machine.events:
        missing = _missing(machine, unit, event, u, spaces)
        expected = sorted(missing, key=_pair_key)
        for cap in (0, 1, 5, len(missing) + 1):
            v = check_event(event, machine, u, unit, cap, spaces)
            assert v.status == (FAIL if missing else PASS), (event.name, cap)
            assert [(w.pre, w.post) for w in v.witnesses] == expected[:cap]


def test_each_state_is_keyed_once_per_verdict(monkeypatch):
    swap = load_machine("swap.ebm")
    unit = mutate_translation(translate_machine(swap), "widen_ensures_true")
    u = Universe(int_lo=0, int_hi=12)
    keyed = []
    original = State.sort_key

    def counted(self):
        keyed.append(self)
        return original(self)
    monkeypatch.setattr(State, "sort_key", counted)
    v = check_event(swap.event("exchange"), swap, u, unit)
    assert v.status == FAIL and len(v.witnesses) == 5
    # 28,392 missing pairs over 13 * 13 states: two keys a pair would be 56,784
    assert len(keyed) == len(set(keyed)) <= 13 * 13
