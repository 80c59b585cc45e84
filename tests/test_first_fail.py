"""Event parameters and \\exists witnesses are bound from their guards,
most constrained name first.

Each side draws a name's values from the bounds its own pre-state
conjuncts state: a member bound ``x : S`` (JML ``S.has(x)``) and a pin
``x = E`` (JML ``x == E`` or ``x.equals(E)``), and binds first the name
with the fewest values.  On social_ref1's ``edit_owned`` this means that
where ``contents = CONTENTS`` no ``newc`` exists, and neither side tries a
value of ``c1`` or ``p1`` to find that out.  The relations themselves are
compared with brute force in ``test_engine.py`` and
``test_pinned_lookup.py``.
"""

import pytest

from eb2jml import semantics, translate_machine
from eb2jml.checker import check_event, state_spaces, universe_for
from eb2jml.semantics import (
    Budget, Universe, WitnessMemo, eb_event_rel, jml_method_rel, jml_pred_holds,
)

REF1_2X3 = Universe(carriers={"PERSON": 2, "CONTENTS": 3})


@pytest.fixture(scope="module")
def ref1_2x3(social_ref1):
    u = universe_for(social_ref1, REF1_2X3)
    unit = translate_machine(social_ref1)
    return u, unit, state_spaces(social_ref1, unit, u)


def _full(states, u):
    """The states in which every content exists, so no ``newc`` does."""
    every = frozenset(u.carrier_elems("CONTENTS"))
    return [s for s in states if s["contents"] == every]


def test_no_value_is_tried_where_the_guard_has_no_new_content(social_ref1, ref1_2x3):
    u, unit, spaces = ref1_2x3
    assert spaces.eb == spaces.jml
    full = _full(spaces.eb, u)
    assert len(full) == 752
    event = social_ref1.event("edit_owned")
    guard, run = unit.method_pair("edit_owned")
    eb_rel = eb_event_rel(event, spaces.eb, social_ref1.variables, u,
                          Budget(u.ceiling))
    jml_rel = jml_method_rel(run, spaces.jml, guard, social_ref1.variables, u,
                             Budget(u.ceiling))
    for a in full:
        # the parameter search: no value, no post-state
        budget = Budget(u.ceiling)
        assert eb_event_rel(event, frozenset((a,)), social_ref1.variables, u,
                            budget) == {(a, a)}
        assert budget.spent == 0
        # the witness search of the guard and of the ensures clause
        memo = WitnessMemo(Budget(u.ceiling))
        assert not jml_pred_holds(guard.normal.ensures, a, a, {}, u, memo)
        assert not any(jml_pred_holds(run.normal.ensures, a, b, {}, u, memo)
                       for b in spaces.jml)
        assert memo.budget.spent == 0
        # one candidate post-state, the pre-state, for the exceptional case
        budget = Budget(u.ceiling)
        assert jml_method_rel(run, frozenset((a,)), guard,
                              social_ref1.variables, u, budget) == {(a, a)}
        assert budget.spent == 1
        assert {b for pre, b in eb_rel if pre == a} == {a}
        assert {b for pre, b in jml_rel if pre == a} == {a}


def test_edit_owned_work_at_ref1_2x3(social_ref1, ref1_2x3):
    # 1,635 = 1,233 JML units + 402 Event-B units.  Searching at each of
    # the 915 pre-states it was 2,673 + 1,122 = 3,795 units, and 44,460
    # when parameters and witnesses were drawn from their types in
    # declaration order
    u, unit, spaces = ref1_2x3
    v = check_event(social_ref1.event("edit_owned"), social_ref1, u, unit,
                    spaces=spaces)
    assert (v.status, v.jml_size, v.eb_size) == ("PASS", 1077, 1077)
    assert v.checked_pairs == 1635


# event -> (JML searches, Event-B searches) at ref1 2x3, over 915 pre-states
# on each side.  An Event-B search runs once per distinct value of the
# variables its guards read; a JML search once per \exists, outer binding
# and distinct value of the names its pre-state conjuncts read.
SEARCHES = {"create_account": (32, 19), "edit_owned": (45, 27)}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_one_search_per_value_tuple_read(monkeypatch, social_ref1, ref1_2x3, name):
    u, unit, spaces = ref1_2x3
    assert len(spaces.jml) == len(spaces.eb) == 915
    calls = []
    solutions = semantics._solutions

    def spy(*args, **kwargs):
        calls.append(None)
        return solutions(*args, **kwargs)

    monkeypatch.setattr(semantics, "_solutions", spy)
    guard, run = unit.method_pair(name)
    jml_method_rel(run, spaces.jml, guard, social_ref1.variables, u,
                   Budget(u.ceiling))
    jml_searches = len(calls)
    calls.clear()
    eb_event_rel(social_ref1.event(name), spaces.eb, social_ref1.variables, u,
                 Budget(u.ceiling))
    assert (jml_searches, len(calls)) == SEARCHES[name]
