"""Every bound name goes through one search, and each evaluator has one
mode.

``semantics._solutions`` is the only loop over the values of a type:
Event-B parameters, Event-B after-values and JML \\exists witnesses are all
bound by it.  Every evaluation runs in a ``Phase``, which carries its
Budget, its compiled closures and its witnesses whole: no function takes a
table of compiled closures apart from its phase, and the only comparisons
of a phase with None are ``eb_pred_holds`` and ``jml_pred_holds``
defaulting it to a fresh one, so ``_compiled`` compiles each node once per
phase, a public call being a phase of its own.  A second loop or a mode
switch would bring back the unpruned search or the per-evaluation compile.

Every search is metered: each ``_solutions`` call charges a Budget, and no
function that does nothing stands in for one.  An unmetered search would
run past ``--ceiling``.
"""

import ast
from collections import Counter

import eb2jml.semantics as semantics
from eb2jml.jmlast import JInt, JmlAnd, JmlCmp, JmlExists, JmlIntLit, JmlVar
from eb2jml.semantics import Universe, jml_pred_holds

TYPED_VALUES = {"values_of"}
MEMO_NAMES = {"cache", "memo", "phase"}
ALLOWED_NONE_TESTS = Counter({("eb_pred_holds", "phase"): 1,
                              ("jml_pred_holds", "phase"): 1})


def _called(node) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _typed_value_loops(tree) -> list[int]:
    """Lines of the loops and comprehensions that iterate over a call of
    ``values_of``."""
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


def _compiled_parameters(tree) -> list[str]:
    """Functions that take a parameter named ``compiled``: a table of
    compiled closures travelling apart from its phase."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            if any(p.arg == "compiled" for p in params):
                out.append(getattr(node, "name", "<lambda>"))
    return out


def _unmetered_searches(tree) -> list[int]:
    """Lines of the ``_solutions`` calls whose charge is not some object's
    ``charge`` method."""
    out = []
    for node in ast.walk(tree):
        if _called(node) == "_solutions":
            charge = {k.arg: k.value for k in node.keywords}.get(
                "charge", node.args[5] if len(node.args) > 5 else None)
            if not (isinstance(charge, ast.Attribute) and charge.attr == "charge"):
                out.append(node.lineno)
    return out


def _no_op_functions(tree) -> list[str]:
    """Functions whose body is at most a docstring and ``pass`` or ``...``."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and all(isinstance(s, ast.Pass) or isinstance(s, ast.Expr)
                    and isinstance(s.value, ast.Constant) for s in node.body)]


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
        "    for y in u.values_of(t):\n        pass\n"
        "    return any(y for y in values_of(t))\n")
    assert _typed_value_loops(copied) == [4, 6]
    assert _memo_none_tests(copied) == Counter({("f", "cache"): 1})


def test_the_phase_travels_whole():
    assert _compiled_parameters(_semantics_tree()) == []


def test_the_check_sees_a_table_apart_from_its_phase():
    copied = ast.parse(
        "def f(e, u, phase):\n    return _compiled(_compile_eb, e, u, phase)\n"
        "def g(e, u, budget, compiled):\n    pass\n"
        "h = lambda e, *, compiled=None: e\n")
    assert _compiled_parameters(copied) == ["g", "<lambda>"]


def test_a_public_evaluation_compiles_each_node_once(monkeypatch):
    # \exists Integer x; x <= 29 && 29 <= x: six expression nodes, and the
    # witnesses 0..29 are each tested with both comparisons
    x, lit = JmlVar("x"), JmlIntLit(29)
    p = JmlExists("x", JInt(), JmlAnd(JmlCmp("<=", x, lit), JmlCmp("<=", lit, x)))
    u = Universe(0, 30)
    compiled = []
    compile = semantics._compile_jml
    monkeypatch.setattr(semantics, "_compile_jml", lambda e, u, checked: (
        compiled.append(e), compile(e, u, checked))[1])
    assert jml_pred_holds(p, {}, {}, {}, u) is True
    assert len(compiled) == 6
    # each public call is a phase of its own: nothing is kept on the universe
    assert jml_pred_holds(p, {}, {}, {}, u) is True
    assert len(compiled) == 12


def test_every_search_charges_a_budget():
    tree = _semantics_tree()
    assert _unmetered_searches(tree) == []
    assert _no_op_functions(tree) == []


def test_the_checks_see_an_unmetered_search():
    copied = ast.parse(
        "def _free():\n    pass\n"
        "def f(budget, memo):\n"
        "    _solutions(n, d, c, h, {}, budget.charge)\n"
        "    _solutions(n, d, c, h, {}, charge=memo.budget.charge)\n"
        "    _solutions(n, d, c, h, {}, _free)\n")
    assert _unmetered_searches(copied) == [6]
    assert _no_op_functions(copied) == ["_free"]
