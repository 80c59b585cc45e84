"""The rule "an undefined evaluation counts as false" lives in one helper.

``semantics._defined`` is the only handler of an EvalError: it turns one
into False, which fails a guard, predicate or conjunct, and which a
deterministic action's value in ``_action_assignments`` reads as no
transition.  A new handler anywhere else would copy the policy.

Likewise ``semantics._kind`` alone states an operand-kind failure: each
operator's label lives in its side's signature table, and a label text
copied into another function would be a second, unchecked statement of it.
"""

import ast
from collections import Counter

import eb2jml.semantics as semantics

ALLOWED = Counter({"_defined": 1})
KIND_TEXTS = ("needs a set value", "needs a relation value", "needs an integer value")


def _catches_eval_error(handler: ast.ExceptHandler) -> bool:
    """True for a handler that would catch EvalError (bare and broad ones too)."""
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None)
             for t in types}
    return bool(names & {"EvalError", "Exception", "BaseException"})


def _by_function(tree, hit) -> Counter:
    """Per enclosing function, the number of nodes at which ``hit`` holds."""
    found: Counter = Counter()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if hit(node):
            found[function] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def _handlers_by_function(tree) -> Counter:
    return _by_function(tree, lambda node: isinstance(node, ast.ExceptHandler)
                        and _catches_eval_error(node))


def _kind_texts_by_function(tree) -> Counter:
    return _by_function(tree, lambda node: isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and any(text in node.value for text in KIND_TEXTS))


def _semantics_tree():
    with open(semantics.__file__, encoding="utf-8") as f:
        return ast.parse(f.read())


def test_eval_errors_are_caught_only_by_the_helper():
    assert _handlers_by_function(_semantics_tree()) == ALLOWED


def test_the_check_sees_a_copied_handler():
    copied = ast.parse(
        "def f():\n"
        "    try:\n        pass\n"
        "    except (ValueError, EvalError):\n        pass\n"
        "def g():\n"
        "    try:\n        pass\n"
        "    except semantics.EvalError:\n        pass\n")
    assert _handlers_by_function(copied) == Counter({"f": 1, "g": 1})


def test_kind_failures_are_stated_in_one_function():
    assert set(_kind_texts_by_function(_semantics_tree())) == {"_kind"}


def test_the_check_sees_a_copied_label():
    copied = ast.parse(
        "def f(v):\n"
        "    raise EvalError(f'union needs a set value, got {v}')\n"
        "def g(v):\n"
        "    return _kind('int', 'bound', v) or 'bound needs an integer value'\n")
    assert _kind_texts_by_function(copied) == Counter({"f": 1, "g": 1})
