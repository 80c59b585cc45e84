import random

import pytest

from genmachines import random_machine
from eb2jml import well_formedness_check
from eb2jml.ebast import Cmp, Ident, Or, Ref
from eb2jml.parser import (
    OutOfSubsetError, ParseError, parse_machine, parse_predicate,
    render_machine, render_predicate,
)

from conftest import MACHINES_DIR

MINIMAL = ("machine m variables v invariants i1: v : INT "
           "events initialisation begin a1: v := 0 end end")


def test_parse_social_abstract_machine(social_abstract):
    m = social_abstract
    assert m.name == "abstract"
    assert len(m.variables) == 4
    assert len(m.invariants) == 5
    # initialisation is held apart from the standard events
    assert len(m.initialisation) == 4
    assert [e.name for e in m.events] == ["create_account", "edit_owned"]
    assert [i.name for i, _t in m.events[1].params] == ["c1", "p1", "newc"]


def test_parse_minimal_machine():
    m = parse_machine(MINIMAL)
    assert m.name == "m"
    assert len(m.variables) == 1
    assert len(m.events) == 0
    assert len(m.initialisation) == 1


def test_refines_is_out_of_subset():
    with pytest.raises(OutOfSubsetError) as exc:
        parse_machine("machine m refines abstract variables v "
                      "events initialisation begin a1: v := 0 end end")
    assert exc.value.keyword == "refines"
    assert "refines" in str(exc.value)


def test_sees_is_out_of_subset():
    with pytest.raises(OutOfSubsetError) as exc:
        parse_machine("machine abstract sees ctx1 variables v "
                      "events initialisation begin a1: v := 0 end end")
    assert exc.value.keyword == "sees"


def test_parse_predicate_before_after():
    p = parse_predicate("x' = x + 1")
    assert isinstance(p, Cmp) and p.op == "eq"
    assert isinstance(p.left, Ref) and p.left.ident == Ident("x", primed=True)


def test_parse_predicate_subset():
    p = parse_predicate("owner <: pages")
    assert isinstance(p, Cmp) and p.op == "subset"


def test_parse_predicate_membership_over_difference():
    p = parse_predicate("p1 : PERSON \\ persons")
    assert isinstance(p, Cmp) and p.op == "in"
    assert p.right.op == "diff"


def test_parse_predicate_precedence():
    p = parse_predicate("not x = 1 & y = 2 or true")
    assert isinstance(p, Or)


def test_empty_input_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_machine("")
    assert "machine" in str(exc.value)


def test_error_cites_position():
    text = "machine m\nvariables v\ninvariants\n  i1: v :\nevents\n"
    with pytest.raises(ParseError) as exc:
        parse_machine(text)
    assert exc.value.span.line == 5  # the stray newline after ':'


def test_error_spans_stay_inside_input():
    bad_inputs = [
        "machine", "machine m variables", "machine m variables v events",
        "machine 3", "machine m variables v invariants i1 v : INT events",
        "machine m variables v events initialisation begin a1: v := end end",
        "?", "machine m variables v : rel(INT events",
    ]
    for text in bad_inputs:
        with pytest.raises(ParseError) as exc:
            parse_machine(text)
        span = exc.value.span
        assert 0 <= span.begin <= span.end <= max(len(text), 1)


def test_deep_nesting_is_a_parse_error_not_a_crash():
    for text in ["(" * 5000 + "x = 1" + ")" * 5000,
                 "{" * 2000 + "1" + "}" * 2000 + " = v"]:
        with pytest.raises(ParseError):
            parse_predicate(text)
    # flat operator chains are not nesting; they parse iteratively
    assert parse_predicate("not " * 5000 + "true") is not None


def test_nesting_limit_is_exact_and_reported_where_it_is_passed():
    # the predicate and the comparison's expression are 2 of the 60 levels
    assert parse_predicate("(" * 58 + "x" + ")" * 58 + " = 1") is not None
    with pytest.raises(ParseError) as exc:
        parse_predicate("(" * 59 + "x" + ")" * 59 + " = 1")
    # at the token opening the 61st level, not at the start of the input
    assert str(exc.value) == ("1:60: expected shallower nesting, "
                              "found more than 60 nested levels")


def test_message_reproducible_from_fields():
    with pytest.raises(ParseError) as exc:
        parse_machine("machine m variables v invariants i1: v + events")
    e = exc.value
    assert str(e) == (f"{e.span.line}:{e.span.column}: expected "
                      f"{e.expected}, found {e.found}")


def test_non_ascii_characters_are_parse_errors():
    # '²' is a Unicode digit and '٣' a decimal digit, yet neither is Event-B
    for text, column in [("x\u00b2 = 1", 2), ("v = \u0663", 5)]:
        with pytest.raises(ParseError) as exc:
            parse_predicate(text)
        assert exc.value.expected == "a token"
        assert exc.value.found == repr(text[column - 1])
        assert exc.value.span.column == column


def test_end_of_input_after_a_trailing_comment_cites_its_own_column():
    with pytest.raises(ParseError) as exc:
        parse_machine("machine m # no newline")
    span = exc.value.span
    assert exc.value.found == "end of input"
    assert (span.line, span.column) == (1, span.begin + 1)


def test_line_comments_are_skipped():
    m = parse_machine("# heading\n" + MINIMAL + "\n# trailing\n")
    assert m.name == "m"


def test_corpus_round_trips():
    for path in sorted(MACHINES_DIR.glob("*.ebm")):
        m = parse_machine(path.read_text(encoding="utf-8"))
        assert parse_machine(render_machine(m)) == m, path.name


def test_render_is_stable(social_ref1):
    once = render_machine(social_ref1)
    assert render_machine(parse_machine(once)) == once


def test_nondeterministic_action_renders_such_that():
    text = MINIMAL.replace("a1: v := 0", "a1: v :| v' = 0")
    m = parse_machine(text)
    assert ":|" in render_machine(m)


def test_random_round_trip_sample():
    rng = random.Random(20240817)
    for _ in range(60):
        m = random_machine(rng)
        assert well_formedness_check(m) == []
        assert parse_machine(render_machine(m)) == m


def test_render_predicate_preserves_grouping():
    for text in ["x = 1 & (y = 2 or z = 3)", "not (x = 1 & y = 2)",
                 "a \\/ (b /\\ c) <: d", "x |-> y = z |-> w"]:
        p = parse_predicate(text)
        assert parse_predicate(render_predicate(p)) == p


def test_render_prints_only_the_needed_parentheses():
    for text in ["x * r(y) = r[s](x)", "x - (y - z) * 2 = 0",
                 "a |-> b |-> c : r \\/ s ** t"]:
        assert render_predicate(parse_predicate(text)) == text
