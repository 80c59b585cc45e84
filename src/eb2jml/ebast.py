"""Abstract syntax for the supported Event-B machine subset.

All nodes are immutable. Source spans are carried for diagnostics but are
excluded from structural equality, so two parses of equivalent text compare
equal regardless of layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .nodes import walk


@dataclass(frozen=True)
class Span:
    begin: int
    end: int
    line: int
    column: int


def _span():
    return field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Ident:
    """An identifier; ``primed`` marks an after-value occurrence (v')."""

    name: str
    primed: bool = False
    span: Optional[Span] = _span()

    @property
    def key(self) -> str:
        return self.name + "'" if self.primed else self.name

    def __str__(self) -> str:
        return self.key


# --- types ------------------------------------------------------------

class EbType:
    __slots__ = ()


@dataclass(frozen=True)
class IntType(EbType):
    pass


@dataclass(frozen=True)
class CarrierType(EbType):
    set_name: str


@dataclass(frozen=True)
class SetType(EbType):
    elem: Optional[EbType]  # None: element type not yet known (empty set)


@dataclass(frozen=True)
class RelType(EbType):
    dom: Optional[EbType]
    ran: Optional[EbType]


# --- expressions ------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Ref(Expr):
    ident: Ident
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class EmptySet(Expr):
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class IntSet(Expr):
    """The INT universe, usable only as a membership right-hand side."""

    span: Optional[Span] = _span()


@dataclass(frozen=True)
class SetEnum(Expr):
    items: tuple[Expr, ...]
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # a name in parser._BINARY, "apply" or "image"
    left: Expr
    right: Expr
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class UnOp(Expr):
    op: str  # "dom" | "ran"
    operand: Expr
    span: Optional[Span] = _span()


#: Relation-space arrows: plain, total function, total surjection,
#: total surjective relation.  Only legal as a membership right-hand side.
REL_ARROWS = ("<->", "-->", "-->>", "<<->>")


@dataclass(frozen=True)
class RelSpace(Expr):
    arrow: str
    left: Expr
    right: Expr
    span: Optional[Span] = _span()


# --- predicates -------------------------------------------------------

class Predicate:
    __slots__ = ()


@dataclass(frozen=True)
class Cmp(Predicate):
    op: str  # a name in parser._CMP_SYMBOL
    left: Expr
    right: Expr
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Not(Predicate):
    operand: Predicate
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class BTrue(Predicate):
    span: Optional[Span] = _span()


# --- actions, events, machines ---------------------------------------

@dataclass(frozen=True)
class BecomesEqual:
    """Deterministic action  v := E."""

    label: str
    target: Ident
    rhs: Expr
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class BecomesSuchThat:
    """Non-deterministic action  v :| P(v, v')."""

    label: str
    target: Ident
    predicate: Predicate
    span: Optional[Span] = _span()


Action = Union[BecomesEqual, BecomesSuchThat]


@dataclass(frozen=True)
class Event:
    name: str
    params: tuple[tuple[Ident, Optional[EbType]], ...]
    guards: tuple[tuple[str, Predicate], ...]
    actions: tuple[Action, ...]
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Machine:
    name: str
    carrier_sets: tuple[str, ...]
    variables: tuple[tuple[Ident, Optional[EbType]], ...]
    invariants: tuple[tuple[str, Predicate], ...]
    initialisation: tuple[Action, ...]
    events: tuple[Event, ...]
    span: Optional[Span] = _span()

    def variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v, _ in self.variables)

    def event(self, name: str) -> Event:
        for e in self.events:
            if e.name == name:
                return e
        raise KeyError(name)


# --- basic operations -------------------------------------------------

def mod_set(actions) -> set[Ident]:
    """The set of variables assigned by a list of actions."""
    return {a.target for a in actions}


def mod_list(actions) -> list[Ident]:
    """Assigned variables in first-assignment order (for rendering)."""
    seen: list[Ident] = []
    for a in actions:
        if a.target not in seen:
            seen.append(a.target)
    return seen


def free_identifiers(node) -> set[Ident]:
    """All identifier occurrences in a predicate or expression.

    Source predicates have no binders, so every occurrence is free; primed
    and unprimed occurrences of the same name are distinct members.
    """
    # strip the span so free-identifier sets compare positionally
    return {Ident(n.ident.name, n.ident.primed)
            for n in walk(node) if isinstance(n, Ref)}
