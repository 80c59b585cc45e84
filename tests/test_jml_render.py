from eb2jml import normalize_jml, render_class, translate_machine
from eb2jml.jmlast import (
    AssignNothing, AssignVars, JInt, JmlAnd, JmlClass, JmlCmp, JmlIntLit,
    JmlMethodSpec, JmlNot, JmlOr, JmlTrue, JmlVar, JSet, SpecCase,
    render_jml_predicate, render_jml_type,
)

from conftest import GOLDEN_DIR


def test_normalize_collapses_whitespace():
    assert normalize_jml("a  &&\n b") == "a && b"


def test_normalize_empty():
    assert normalize_jml("") == ""


def test_normalize_strips_annotation_markers():
    assert normalize_jml("/*@ public invariant\n   true; */") == \
        "public invariant true;"


def test_normalize_is_idempotent():
    reference = (GOLDEN_DIR / "ref1_permissions_reference.txt").read_text()
    once = normalize_jml(reference)
    assert normalize_jml(once) == once


def test_render_is_deterministic(social_ref1):
    unit = translate_machine(social_ref1)
    again = translate_machine(social_ref1)
    assert render_class(unit.result) == render_class(again.result)


def test_render_matches_frozen_snapshot(social_ref1):
    expected = (GOLDEN_DIR / "ref1_permissions_full.java").read_text()
    assert render_class(translate_machine(social_ref1).result) == expected


def test_counter_render_matches_frozen_snapshot(counter):
    expected = (GOLDEN_DIR / "counter.java").read_text()
    assert render_class(translate_machine(counter).result) == expected


def test_every_run_method_has_exactly_one_also(social_ref1, social_abstract):
    for machine in (social_ref1, social_abstract):
        text = render_class(translate_machine(machine).result)
        for chunk in text.split("/*@")[1:]:
            body = chunk.split("*/")[0]
            if "requires" in body:
                assert body.count("also") == 1


def test_reference_guard_method_line(social_ref1):
    text = render_class(translate_machine(social_ref1).result)
    assert "public abstract boolean guard_edit_owned();" in text
    assert "assignable contents, pages, owner, viewp, editp;" in text


def test_assignable_nothing_literal(social_ref1):
    assert "assignable \\nothing;" in render_class(
        translate_machine(social_ref1).result)


def test_true_invariant_renders_inside_annotation(counter):
    text = render_class(translate_machine(counter).result)
    assert "public invariant\n      true; */" in text


def test_render_handles_everything_clause():
    spec = JmlMethodSpec(
        name="run_e", kind="run",
        normal=SpecCase(JmlTrue(), AssignVars(("v",)),
                        JmlCmp("==", JmlVar("v"), JmlIntLit(0))),
        exceptional=SpecCase(JmlTrue(), AssignNothing(), JmlTrue()))
    cls = JmlClass(
        name="tiny", carriers=(), model_fields=(("v", JInt()),),
        class_invariant=JmlTrue(), initially=JmlTrue(), methods=(spec,))
    text = render_class(cls)
    assert "public abstract void run_e();" in text
    assert render_class(cls) == text


def test_jml_type_rendering():
    assert render_jml_type(JInt()) == "Integer"
    assert render_jml_type(JSet(JInt())) == "BSet<Integer>"
    assert render_jml_type(JSet(JSet(JInt()))) == "BSet<BSet<Integer>>"


def test_negation_parenthesises_its_operand_once():
    x1, x2 = (JmlCmp("==", JmlVar("x"), JmlIntLit(n)) for n in (1, 2))
    assert render_jml_predicate(JmlNot(JmlAnd(x1, x2))) == "!(x == 1 && x == 2)"
    assert render_jml_predicate(JmlNot(JmlOr(x1, x2))) == "!(x == 1 || x == 2)"
    assert render_jml_predicate(JmlNot(JmlNot(x1))) == "!(!(x == 1))"
    # Java reads !x == 1 as (!x) == 1
    assert render_jml_predicate(JmlAnd(JmlNot(x1), x2)) == "!(x == 1) && x == 2"
