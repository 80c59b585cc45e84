"""The rule "an undefined evaluation counts as false" lives in one helper.

``semantics._defined`` is the only handler of an EvalError: it turns one
into False, which fails a guard, predicate or conjunct, and which a
deterministic action's value in ``_action_assignments`` reads as no
transition.  A new handler anywhere else would copy the policy.
"""

import ast
from collections import Counter

import eb2jml.semantics as semantics

ALLOWED = Counter({"_defined": 1})


def _catches_eval_error(handler: ast.ExceptHandler) -> bool:
    """True for a handler that would catch EvalError (bare and broad ones too)."""
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None)
             for t in types}
    return bool(names & {"EvalError", "Exception", "BaseException"})


def _handlers_by_function(tree) -> Counter:
    found: Counter = Counter()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and _catches_eval_error(node):
            found[function] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_eval_errors_are_caught_only_by_the_helper():
    with open(semantics.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    assert _handlers_by_function(tree) == ALLOWED


def test_the_check_sees_a_copied_handler():
    copied = ast.parse(
        "def f():\n"
        "    try:\n        pass\n"
        "    except (ValueError, EvalError):\n        pass\n"
        "def g():\n"
        "    try:\n        pass\n"
        "    except semantics.EvalError:\n        pass\n")
    assert _handlers_by_function(copied) == Counter({"f": 1, "g": 1})
