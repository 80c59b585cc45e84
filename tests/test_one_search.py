"""Every bound name goes through one search, and the JML evaluator has one
mode.

``semantics._solutions`` is the only loop over the values of a type:
Event-B parameters, Event-B after-values and JML \\exists witnesses are all
bound by it.  The JML evaluator always searches witnesses through its memo;
the one comparison of the memo with None is ``jml_pred_holds`` defaulting
it to a fresh dict.  A second loop or a mode switch would bring back the
unpruned search.
"""

import ast
from collections import Counter

import eb2jml.semantics as semantics

TYPED_VALUES = {"values_of_type", "values_of_jml_type"}
MEMO_NAMES = {"cache", "memo"}
ALLOWED_NONE_TESTS = Counter({("jml_pred_holds", "memo"): 1})


def _called(node) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _typed_value_loops(tree) -> list[int]:
    """Lines of the loops and comprehensions that iterate over a call of
    ``values_of_type`` or ``values_of_jml_type``."""
    return [node.iter.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.comprehension))
            and _called(node.iter) in TYPED_VALUES]


def _memo_none_tests(tree) -> Counter:
    """(function, name) for each comparison of a memo name with None."""
    found: Counter = Counter()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            names = {o.id for o in operands if isinstance(o, ast.Name)}
            if any(isinstance(o, ast.Constant) and o.value is None
                   for o in operands):
                for name in names & MEMO_NAMES:
                    found[(function, name)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def _semantics_tree():
    with open(semantics.__file__, encoding="utf-8") as f:
        return ast.parse(f.read())


def test_no_loop_over_typed_values_outside_the_search():
    assert _typed_value_loops(_semantics_tree()) == []


def test_the_memo_is_compared_with_none_only_to_default_it():
    assert _memo_none_tests(_semantics_tree()) == ALLOWED_NONE_TESTS


def test_the_checks_see_a_second_search_and_a_mode_switch():
    copied = ast.parse(
        "def f(u, t, cache):\n"
        "    if cache is not None:\n        pass\n"
        "    for y in u.values_of_type(t):\n        pass\n"
        "    return any(y for y in values_of_jml_type(t))\n")
    assert _typed_value_loops(copied) == [4, 6]
    assert _memo_none_tests(copied) == Counter({("f", "cache"): 1})
