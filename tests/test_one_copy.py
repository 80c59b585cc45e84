"""Each well-formedness rule exists once.

The translator rejects an ill-formed machine through
``well_formedness_check`` alone, and the rule functions are private to
``ebcheck``.  A module that imports an underscore name of another ``eb2jml``
module reaches past that gate, and a second module that words a rule's
diagnostic keeps a copy of the rule.
"""

import ast
from pathlib import Path

import eb2jml

SRC = Path(eb2jml.__file__).resolve().parent
RULE_MESSAGES = ("which is not a machine variable",
                 "shadows a variable or carrier set",
                 "only allowed as a membership right-hand side")


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _private_imports(tree) -> list[str]:
    """``module.name`` for each underscore name imported from an ``eb2jml``
    module, relative imports included."""
    return [f"{node.module}.{alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "eb2jml")
            for alias in node.names if alias.name.startswith("_")]


def _strings(tree) -> list[str]:
    """Every string constant; the parser joins implicit concatenations, and
    an f-string's literal parts between its fields."""
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def _builders(trees: dict, message: str) -> list[str]:
    return [name for name, tree in trees.items()
            if any(message in s for s in _strings(tree))]


def test_no_module_imports_a_private_name_of_another():
    found = {name: _private_imports(tree) for name, tree in _trees().items()}
    assert {name: names for name, names in found.items() if names} == {}


def test_each_rule_message_is_built_in_one_module():
    trees = _trees()
    for message in RULE_MESSAGES:
        assert _builders(trees, message) == ["ebcheck.py"], message


def test_the_checks_see_a_copy():
    copied = {"translate.py": ast.parse(
        "from .ebcheck import _check_action, check_target\n"
        "from . import ebast as eb\n"
        "m = f\"{where} assigns '{a}', which is not a \" f\"machine variable\"\n"),
        "ebcheck.py": ast.parse("m = f\"{x} which is not a machine variable\"\n")}
    assert _private_imports(copied["translate.py"]) == ["ebcheck._check_action"]
    assert _builders(copied, RULE_MESSAGES[0]) == ["translate.py", "ebcheck.py"]
