"""Abstract syntax and rendering for the produced JML specifications.

The renderer is deterministic: equal ASTs produce byte-identical Java
source.  ``normalize_jml`` reduces rendered or hand-written JML text to a
whitespace-insensitive token stream so outputs can be compared against
reference text with different layout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union


# --- types -------------------------------------------------------------

class JmlType:
    __slots__ = ()


@dataclass(frozen=True)
class JInt(JmlType):
    pass


@dataclass(frozen=True)
class JSet(JmlType):
    elem: JmlType


@dataclass(frozen=True)
class JRel(JmlType):
    dom: JmlType
    ran: JmlType


def render_jml_type(t: JmlType) -> str:
    if isinstance(t, JInt):
        return "Integer"
    if isinstance(t, JSet):
        return f"BSet<{render_jml_type(t.elem)}>"
    if isinstance(t, JRel):
        return f"BRelation<{render_jml_type(t.dom)},{render_jml_type(t.ran)}>"
    raise ValueError(f"cannot render type {t!r}")


# --- expressions ---------------------------------------------------------

class JmlExpr:
    __slots__ = ()


@dataclass(frozen=True)
class JmlIntLit(JmlExpr):
    value: int


@dataclass(frozen=True)
class JmlVar(JmlExpr):
    name: str


@dataclass(frozen=True)
class JmlOldExpr(JmlExpr):
    """\\old(E): E is evaluated in the pre-state."""

    expr: JmlExpr


@dataclass(frozen=True)
class JmlMethodCall(JmlExpr):
    recv: JmlExpr
    method: str
    args: tuple[JmlExpr, ...] = ()


@dataclass(frozen=True)
class JmlCross(JmlExpr):
    """Utils.cross(S, T): the cartesian product of two sets."""

    left: JmlExpr
    right: JmlExpr


@dataclass(frozen=True)
class JmlNewSet(JmlExpr):
    elem: JmlType
    items: tuple[JmlExpr, ...] = ()


@dataclass(frozen=True)
class JmlNewPair(JmlExpr):
    dom: JmlType
    ran: JmlType
    left: JmlExpr
    right: JmlExpr


@dataclass(frozen=True)
class JmlNewRelation(JmlExpr):
    dom: JmlType
    ran: JmlType
    pairs: tuple[JmlNewPair, ...] = ()


@dataclass(frozen=True)
class JmlArith(JmlExpr):
    op: str  # "+", "-", "*"
    left: JmlExpr
    right: JmlExpr


# --- predicates -----------------------------------------------------------

class JmlPredicate:
    __slots__ = ()


@dataclass(frozen=True)
class JmlTrue(JmlPredicate):
    pass


@dataclass(frozen=True)
class JmlFalse(JmlPredicate):
    pass


@dataclass(frozen=True)
class JmlAnd(JmlPredicate):
    left: JmlPredicate
    right: JmlPredicate


@dataclass(frozen=True)
class JmlOr(JmlPredicate):
    left: JmlPredicate
    right: JmlPredicate


@dataclass(frozen=True)
class JmlNot(JmlPredicate):
    operand: JmlPredicate


@dataclass(frozen=True)
class JmlParen(JmlPredicate):
    """Explicit grouping; semantically transparent."""

    operand: JmlPredicate


@dataclass(frozen=True)
class JmlOld(JmlPredicate):
    """\\old(P): P holds with both states taken as the pre-state."""

    operand: JmlPredicate


@dataclass(frozen=True)
class JmlExists(JmlPredicate):
    var: str
    ty: JmlType
    body: JmlPredicate


@dataclass(frozen=True)
class JmlCmp(JmlPredicate):
    op: str  # "==", "!=", "<", "<="
    left: JmlExpr
    right: JmlExpr


@dataclass(frozen=True)
class JmlBoolCall(JmlPredicate):
    """A boolean-valued method call used as an atom (has, isSubset, ...)."""

    call: JmlMethodCall


@dataclass(frozen=True)
class JmlGuardCall(JmlPredicate):
    """A call of a generated guard method inside a requires clause."""

    method: str


def conjuncts(p: JmlPredicate) -> list:
    """The conjunction spine of ``p``, left to right, through grouping."""
    if isinstance(p, JmlAnd):
        return conjuncts(p.left) + conjuncts(p.right)
    if isinstance(p, JmlParen):
        return conjuncts(p.operand)
    return [p]


# --- method specifications -------------------------------------------------

@dataclass(frozen=True)
class AssignNothing:
    pass


@dataclass(frozen=True)
class AssignVars:
    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("an assignable variable list cannot be empty")


AssignableClause = Union[AssignNothing, AssignVars]


@dataclass(frozen=True)
class SpecCase:
    requires: JmlPredicate
    assignable: AssignableClause
    ensures: JmlPredicate


@dataclass(frozen=True)
class JmlMethodSpec:
    name: str
    kind: str  # "guard" (pure boolean query) or "run" (void)
    normal: SpecCase
    exceptional: Optional[SpecCase] = None


@dataclass(frozen=True)
class JmlClass:
    name: str
    carriers: tuple[str, ...]
    model_fields: tuple[tuple[str, JmlType], ...]
    class_invariant: JmlPredicate
    initially: JmlPredicate
    methods: tuple[JmlMethodSpec, ...]


# --- rendering ----------------------------------------------------------

def render_jml_expr(e: JmlExpr) -> str:
    if isinstance(e, JmlIntLit):
        return str(e.value)
    if isinstance(e, JmlVar):
        return e.name
    if isinstance(e, JmlOldExpr):
        return f"\\old({render_jml_expr(e.expr)})"
    if isinstance(e, JmlMethodCall):
        recv = render_jml_expr(e.recv)
        if _expr_level(e.recv) < 3:
            recv = f"({recv})"
        args = ", ".join(render_jml_expr(a) for a in e.args)
        return f"{recv}.{e.method}({args})"
    if isinstance(e, JmlCross):
        return f"Utils.cross({render_jml_expr(e.left)}, {render_jml_expr(e.right)})"
    if isinstance(e, JmlNewSet):
        args = ", ".join(render_jml_expr(a) for a in e.items)
        return f"new BSet<{render_jml_type(e.elem)}>({args})"
    if isinstance(e, JmlNewRelation):
        generics = f"{render_jml_type(e.dom)},{render_jml_type(e.ran)}"
        args = ", ".join(render_jml_expr(pair) for pair in e.pairs)
        return f"new BRelation<{generics}>({args})"
    if isinstance(e, JmlNewPair):
        generics = f"{render_jml_type(e.dom)},{render_jml_type(e.ran)}"
        return (f"new JMLEqualsEqualsPair<{generics}>"
                f"({render_jml_expr(e.left)},{render_jml_expr(e.right)})")
    if isinstance(e, JmlArith):
        lvl = _expr_level(e)
        left = render_jml_expr(e.left)
        if _expr_level(e.left) < lvl:
            left = f"({left})"
        right = render_jml_expr(e.right)
        if _expr_level(e.right) <= lvl and isinstance(e.right, JmlArith):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise ValueError(f"cannot render {type(e).__name__}")


def _expr_level(e: JmlExpr) -> int:
    # levels: additive 1, multiplicative 2, postfix/primary 3
    if isinstance(e, JmlArith):
        return 2 if e.op == "*" else 1
    return 3


def render_jml_predicate(p: JmlPredicate) -> str:
    return _pred(p, 1)


def _pred(p: JmlPredicate, parent_level: int) -> str:
    # levels: || 1, && 2, ! 3, atoms 4
    if isinstance(p, JmlTrue):
        return "true"
    if isinstance(p, JmlFalse):
        return "false"
    if isinstance(p, JmlParen):
        return f"({_pred(p.operand, 1)})"
    if isinstance(p, JmlOld):
        return f"\\old({_pred(p.operand, 1)})"
    if isinstance(p, JmlExists):
        return (f"(\\exists {render_jml_type(p.ty)} {p.var}; "
                f"{_pred(p.body, 1)})")
    if isinstance(p, JmlCmp):
        return f"{render_jml_expr(p.left)} {p.op} {render_jml_expr(p.right)}"
    if isinstance(p, JmlBoolCall):
        return render_jml_expr(p.call)
    if isinstance(p, JmlGuardCall):
        return f"{p.method}()"
    if isinstance(p, JmlNot):
        inner = _pred(p.operand, 1)
        if _pred_level(p.operand) < 4:
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(p, (JmlAnd, JmlOr)):
        lvl = _pred_level(p)
        word = "&&" if isinstance(p, JmlAnd) else "||"
        left = _pred(p.left, lvl)
        right = _pred(p.right, lvl + 1)  # right child at same level gets parens
        text = f"{left} {word} {right}"
        if lvl < parent_level:
            return f"({text})"
        return text
    raise ValueError(f"cannot render {type(p).__name__}")


def _pred_level(p: JmlPredicate) -> int:
    if isinstance(p, JmlOr):
        return 1
    if isinstance(p, JmlAnd):
        return 2
    # a comparison binds looser than !, so it is wrapped when negated
    if isinstance(p, (JmlNot, JmlCmp)):
        return 3
    return 4


def _render_assignable(a: AssignableClause) -> str:
    if isinstance(a, AssignNothing):
        return "\\nothing"
    return ", ".join(a.names)


_LINE_WIDTH = 96


def _fill_conjuncts(text: str, head: str, cont: str) -> list[str]:
    """Greedy line fill, breaking only at top-level-rendered '&&'."""
    parts = text.split(" && ")
    lines = [head + parts[0]]
    for part in parts[1:]:
        joined = f"{lines[-1]} && {part}"
        if len(joined) <= _LINE_WIDTH:
            lines[-1] = joined
        else:
            lines.append(f"{cont}&& {part}")
    return lines


def render_class(c: JmlClass) -> str:
    """Deterministic Java source with JML annotation comments."""
    out: list[str] = [
        "import poporo.models.JML.*;",
        "import org.jmlspecs.models.JMLEqualsEqualsPair;",
        "",
        f"public abstract class {c.name} {{",
    ]
    for carrier in c.carriers:
        out.append(f"/*@ public model BSet<Integer> {carrier}; */")
    if c.carriers:
        out.append("")
    if c.model_fields:
        lines = [
            f"public model {render_jml_type(ty)} {name};"
            for name, ty in c.model_fields
        ]
        out.append("/*@ " + lines[0])
        out.extend("    " + line for line in lines[1:])
        out[-1] += " */"
        out.append("")
    out.append("/*@ public invariant")
    out.extend(_fill_conjuncts(
        render_jml_predicate(c.class_invariant), "      ", "   "))
    out[-1] += "; */"
    out.append("")
    out.append("/*@ initially")
    out.extend(_fill_conjuncts(
        render_jml_predicate(c.initially), "      ", "   "))
    out[-1] += "; */"
    for m in c.methods:
        out.append("")
        out.extend(_render_method(m))
    out.append("}")
    return "\n".join(out) + "\n"


def _render_method(m: JmlMethodSpec) -> list[str]:
    out: list[str] = []
    if m.kind == "guard":
        out.append(f"/*@ assignable {_render_assignable(m.normal.assignable)};")
        rhs = render_jml_predicate(m.normal.ensures)
        out.extend(_fill_conjuncts(
            rhs, "    ensures \\result <==> ", "       "))
        out[-1] += "; */"
        out.append(f"public abstract boolean {m.name}();")
        return out
    out.append(f"/*@ requires {render_jml_predicate(m.normal.requires)};")
    out.append(f"    assignable {_render_assignable(m.normal.assignable)};")
    out.extend(_fill_conjuncts(
        render_jml_predicate(m.normal.ensures), "    ensures ", "       "))
    out[-1] += ";"
    exc = m.exceptional
    out.append("also")
    out.append(f"    requires {render_jml_predicate(exc.requires)};")
    out.append(f"    assignable {_render_assignable(exc.assignable)};")
    out.extend(_fill_conjuncts(
        render_jml_predicate(exc.ensures), "    ensures ", "       "))
    out[-1] += "; */"
    out.append(f"public abstract void {m.name}();")
    return out


_ANNOTATION_MARKERS = ("/*@", "@*/", "*/", "//@")
_PUNCT = re.compile(r"\s*([()\[\]{},;.<>])\s*")


def normalize_jml(text: str) -> str:
    """Collapse rendered JML to a layout-independent token stream.

    Annotation comment markers are dropped, whitespace runs collapse to a
    single space, and spacing next to punctuation is removed, preserving
    token order.  Idempotent.
    """
    for marker in _ANNOTATION_MARKERS:
        text = text.replace(marker, " ")
    text = " ".join(text.split())
    text = _PUNCT.sub(r"\1", text)
    return text.strip()
