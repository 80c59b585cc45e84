"""A machine that uses ``dom``, ``ran``, a set of two maplets and a maplet
membership, end to end.

None of the corpus machines uses these, so this machine goes through every
layer here: parse and render, well-formedness, translation and the check
with its mutations.  The text is kept inline because the benchmark reads
the corpus directory.
"""

from dataclasses import replace

import pytest

from eb2jml import parse_machine, translate_machine, well_formedness_check
from eb2jml.checker import FAIL, PASS, check_machine, mutate_translation
from eb2jml.jmlast import render_class
from eb2jml.parser import render_machine
from eb2jml.semantics import Universe

LINKS = """
machine links
  sets S
  variables r d
  invariants
    inv1: r : S <-> S
    inv2: d <: S
    inv3: dom(r) <: d
  events
    initialisation
      begin
        act1: r := {}
        act2: d := {}
      end
    link
      any x y
      where
        grd1: x : d
        grd2: y : S \\ ran(r)
      then
        act1: r := r \\/ {x |-> y}
      end
    forget
      any x
      where
        grd1: x : d \\ dom(r)
      then
        act1: d := d \\ {x}
      end
    unlink
      any x y
      where
        grd1: x : S
        grd2: y : S
        grd3: x |-> y : r
      then
        act1: r := r \\ {x |-> y}
      end
    pair
      any x y
      where
        grd1: x : S
        grd2: y : S
      then
        act1: r := {x |-> y, y |-> x}
        act2: d := {x, y}
      end
end
"""

S2 = Universe(carriers={"S": 2})


@pytest.fixture(scope="module")
def links():
    return parse_machine(LINKS)


def test_round_trips_and_is_well_formed(links):
    assert parse_machine(render_machine(links)) == links
    assert well_formedness_check(links) == []


def test_render_calls_domain_and_range(links):
    text = render_class(translate_machine(links).result)
    assert "r.domain()" in text and "r.range()" in text


def test_render_tests_a_maplet_membership(links):
    text = render_class(translate_machine(links).result)
    assert "r.has(new JMLEqualsEqualsPair<Integer,Integer>(x,y))" in text


def test_a_maplet_of_relations_is_diagnosed_at_its_position():
    text = LINKS.replace("inv3: dom(r) <: d", "inv3: dom(r) <: d\n    inv4: {r |-> r} = {}")
    diags = well_formedness_check(parse_machine(text))
    assert [str(d) for d in diags] == ["9:12: relations of relations are not supported"]


def test_check_passes(links):
    assert check_machine(links, S2).status == PASS


@pytest.mark.parametrize("mutation,status", [
    ("drop_old", FAIL), ("widen_ensures_true", FAIL),
    ("negate_guard_link", FAIL), ("shrink_assignable", PASS),
])
@pytest.mark.parametrize("events", [None, ("unlink",)], ids=["all", "unlink"])
def test_kill_matrix(links, events, mutation, status):
    # ("unlink",): only the event whose guard is a maplet membership
    if events is not None:
        links = replace(links, events=tuple(
            e for e in links.events if e.name in events))
    unit = mutate_translation(translate_machine(links), mutation)
    assert check_machine(links, S2, unit).status == status
