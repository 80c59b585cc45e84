"""Static well-formedness: scoping, typing, and structural rules.

Variables and event parameters may be declared with explicit type
annotations; missing types are filled in deterministically from typing
invariants (``v : INT``, ``v <: PERSON``, ``r : s <-> t``) and typing
guards.  Everything else is checked against the resolved types.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .ebast import (
    And, BecomesEqual, BinOp, BTrue, CarrierType, Cmp,
    EmptySet, Event, Expr, EbType, IntLit, IntSet, IntType, Machine, Not,
    Or, Predicate, Ref, RelSpace, RelType, SetEnum, SetType, Span, UnOp,
    free_identifiers,
)
from .nodes import walk


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: Optional[Span] = None

    def __str__(self) -> str:
        if self.span is not None:
            return f"{self.span.line}:{self.span.column}: {self.message}"
        return self.message


class TypeProblem(Exception):
    def __init__(self, message: str, span: Optional[Span] = None):
        super().__init__(message)
        self.message = message
        self.span = span


# Internal-only type used while checking; it never appears in machines.

@dataclass(frozen=True)
class PairType(EbType):
    left: Optional[EbType]
    right: Optional[EbType]


def _is_setlike(t) -> bool:
    return t is None or isinstance(t, (SetType, RelType))


def unify(a: Optional[EbType], b: Optional[EbType], span=None) -> Optional[EbType]:
    """Merge two partial types, treating None as a hole."""
    if a is None:
        return b
    if b is None:
        return a
    if isinstance(a, IntType) and isinstance(b, IntType):
        return a
    if isinstance(a, CarrierType) and isinstance(b, CarrierType):
        if a.set_name == b.set_name:
            return a
    if isinstance(a, SetType) and isinstance(b, SetType):
        return set_of(unify(a.elem, b.elem, span), span)
    if isinstance(a, RelType) and isinstance(b, RelType):
        return RelType(unify(a.dom, b.dom, span), unify(a.ran, b.ran, span))
    # the empty set unifies with relations too
    if isinstance(a, SetType) and a.elem is None and isinstance(b, RelType):
        return b
    if isinstance(b, SetType) and b.elem is None and isinstance(a, RelType):
        return a
    if isinstance(a, PairType) and isinstance(b, PairType):
        return PairType(unify(a.left, b.left, span), unify(a.right, b.right, span))
    raise TypeProblem(f"type mismatch: {type_name(a)} vs {type_name(b)}", span)


def set_of(elem: Optional[EbType], span=None) -> EbType:
    """The type of a set whose members have type ``elem``; a set of pairs
    is a relation."""
    if isinstance(elem, PairType):
        _reject_relation_element(elem.left, span)
        _reject_relation_element(elem.right, span)
        return RelType(elem.left, elem.right)
    return SetType(elem)


def _reject_relation_element(t: Optional[EbType], span=None) -> None:
    if isinstance(t, (RelType, PairType)):
        raise TypeProblem("relations of relations are not supported", span)


def _product_type(lt: Optional[EbType], rt: Optional[EbType], span) -> RelType:
    """The type of ``S ** T``, which is also the type of a member of
    ``S <-> T``: relations between the members of the sets ``S`` and ``T``."""
    dom = _member_type(unify(lt, SetType(None), span), span)
    ran = _member_type(unify(rt, SetType(None), span), span)
    _reject_relation_element(dom, span)
    _reject_relation_element(ran, span)
    return RelType(dom, ran)


def type_name(t: Optional[EbType]) -> str:
    if t is None:
        return "?"
    if isinstance(t, IntType):
        return "INT"
    if isinstance(t, CarrierType):
        return t.set_name
    if isinstance(t, SetType):
        return f"pow({type_name(t.elem)})"
    if isinstance(t, RelType):
        return f"rel({type_name(t.dom)}, {type_name(t.ran)})"
    if isinstance(t, PairType):
        return f"{type_name(t.left)} |-> {type_name(t.right)}"
    return repr(t)


def expr_type(e: Expr, env: dict[str, EbType]) -> Optional[EbType]:
    """Type of an expression under ``env`` (identifier key -> type)."""
    if isinstance(e, IntLit):
        return IntType()
    if isinstance(e, Ref):
        key = e.ident.key
        if key not in env:
            raise TypeProblem(f"undeclared identifier '{key}'", e.span)
        return env[key]
    if isinstance(e, EmptySet):
        return SetType(None)
    if isinstance(e, IntSet):
        return SetType(IntType())
    if isinstance(e, SetEnum):
        elem: Optional[EbType] = None
        for item in e.items:
            elem = unify(elem, expr_type(item, env), e.span)
        return set_of(elem, e.span)
    if isinstance(e, UnOp):
        t = unify(expr_type(e.operand, env), RelType(None, None), e.span)
        assert isinstance(t, RelType)
        return set_of(t.dom if e.op == "dom" else t.ran, e.span)
    if isinstance(e, RelSpace):
        # any arrow denotes a set of relations
        return SetType(_product_type(
            expr_type(e.left, env), expr_type(e.right, env), e.span))
    if isinstance(e, BinOp):
        return _binop_type(e, env)
    raise TypeProblem(f"cannot type {type(e).__name__}", getattr(e, "span", None))


def _binop_type(e: BinOp, env) -> Optional[EbType]:
    op = e.op
    if op in ("add", "sub", "mul"):
        unify(expr_type(e.left, env), IntType(), e.span)
        unify(expr_type(e.right, env), IntType(), e.span)
        return IntType()
    if op == "maplet":
        lt = expr_type(e.left, env)
        rt = expr_type(e.right, env)
        _reject_relation_element(lt, e.span)
        _reject_relation_element(rt, e.span)
        return PairType(lt, rt)
    lt = expr_type(e.left, env)
    rt = expr_type(e.right, env)
    if op in ("union", "inter", "diff"):
        if not (_is_setlike(lt) and _is_setlike(rt)):
            raise TypeProblem(f"'{op}' needs set operands", e.span)
        merged = unify(unify(lt, rt, e.span), SetType(None), e.span)
        return merged
    if op in ("domsub", "domres"):
        rel = unify(rt, RelType(None, None), e.span)
        assert isinstance(rel, RelType)
        unify(lt, SetType(rel.dom), e.span)
        return rel
    if op == "cross":
        return _product_type(lt, rt, e.span)
    if op == "image":
        rel = unify(lt, RelType(None, None), e.span)
        assert isinstance(rel, RelType)
        unify(rt, SetType(rel.dom), e.span)
        return set_of(rel.ran, e.span)
    if op == "apply":
        rel = unify(lt, RelType(None, None), e.span)
        assert isinstance(rel, RelType)
        unify(rt, rel.dom, e.span)
        return rel.ran
    raise TypeProblem(f"unknown operator '{op}'", e.span)


def check_predicate(p: Predicate, env: dict[str, EbType]) -> None:
    """Type-check a predicate; raises TypeProblem on the first error."""
    if isinstance(p, BTrue):
        return
    if isinstance(p, (And, Or)):
        check_predicate(p.left, env)
        check_predicate(p.right, env)
        return
    if isinstance(p, Not):
        check_predicate(p.operand, env)
        return
    if isinstance(p, Cmp):
        if p.op == "in":
            rt = expr_type(p.right, env)
            unify(expr_type(p.left, env), _member_type(rt, p.span), p.span)
            return
        lt = expr_type(p.left, env)
        rt = expr_type(p.right, env)
        if p.op in ("eq", "neq"):
            unify(lt, rt, p.span)
        elif p.op == "subset":
            if not (_is_setlike(lt) and _is_setlike(rt)):
                raise TypeProblem("subset needs set operands", p.span)
            unify(unify(lt, rt, p.span), SetType(None), p.span)
        elif p.op in ("lt", "le"):
            unify(lt, IntType(), p.span)
            unify(rt, IntType(), p.span)
        else:
            raise TypeProblem(f"unknown comparison '{p.op}'", p.span)
        return
    raise TypeProblem(f"cannot check {type(p).__name__}", getattr(p, "span", None))


# --- type resolution ---------------------------------------------------

def _member_type(rt: Optional[EbType], span=None) -> Optional[EbType]:
    """The type of a member of a set of type ``rt``; a relation's members
    are pairs."""
    if isinstance(rt, SetType):
        return rt.elem
    if isinstance(rt, RelType):
        return PairType(rt.dom, rt.ran)
    raise TypeProblem("membership needs a set on the right", span)


def _type_from_typing_pred(op: str, rhs: Expr, env) -> Optional[EbType]:
    """The type that ``x : rhs`` or ``x <: rhs`` gives ``x``, or None; it
    may still have holes (see ``_complete``)."""
    try:
        rt = expr_type(rhs, env)
        if op == "in":
            return _member_type(rt)
    except TypeProblem:
        return None
    return rt if isinstance(rt, (SetType, RelType)) else None


def _complete(t: Optional[EbType]) -> bool:
    if t is None or isinstance(t, PairType):
        return False
    if isinstance(t, SetType):
        return _complete(t.elem)
    if isinstance(t, RelType):
        return _complete(t.dom) and _complete(t.ran)
    return True


def _validate_annotation(t: EbType, carriers: set[str], diags, span) -> None:
    if isinstance(t, CarrierType):
        if t.set_name not in carriers:
            diags.append(Diagnostic(f"unknown carrier set '{t.set_name}'", span))
    elif isinstance(t, SetType):
        if t.elem is not None:
            _validate_annotation(t.elem, carriers, diags, span)
    elif isinstance(t, RelType):
        for side in (t.dom, t.ran):
            if isinstance(side, RelType):
                diags.append(Diagnostic("relations of relations are not supported", span))
            elif side is not None:
                _validate_annotation(side, carriers, diags, span)


def _resolve(decls, preds, env, carriers, diags, unknown: str) -> tuple:
    """``decls``, (identifier, type) pairs, each with its type resolved.

    An annotation is checked against ``carriers``.  A missing type is
    inferred by a fixpoint: the first labelled predicate ``x : T`` or
    ``x <: T`` of ``preds`` whose ``T`` is typable in ``env`` gives ``x``
    its type.  ``env`` gains every resolved type, and a name left without
    one gets the diagnostic ``unknown`` with the name in place of ``{}``.
    """
    types: dict[str, Optional[EbType]] = {}
    for ident, ty in decls:
        if ty is not None:
            _validate_annotation(ty, carriers, diags, ident.span)
        types[ident.name] = ty
    env.update({n: t for n, t in types.items() if t is not None})
    changed = True
    while changed:
        changed = False
        for _lbl, p in preds:
            if not (isinstance(p, Cmp) and p.op in ("in", "subset")):
                continue
            if not (isinstance(p.left, Ref) and not p.left.ident.primed):
                continue
            name = p.left.ident.name
            if name not in types or types[name] is not None:
                continue
            t = _type_from_typing_pred(p.op, p.right, env)
            if t is not None and _complete(t):
                types[name] = env[name] = t
                changed = True
    for ident, _ty in decls:
        if types[ident.name] is None:
            diags.append(Diagnostic(unknown.format(ident.name), ident.span))
    return tuple((ident, types[ident.name]) for ident, _ty in decls)


def resolve_types(machine: Machine) -> tuple[Machine, list[Diagnostic]]:
    """Fill in missing variable/parameter types; returns the typed machine.

    The variables are resolved against the typing invariants, and then
    each event's parameters against its typing guards (see ``_resolve``).
    """
    diags: list[Diagnostic] = []
    carriers = set(machine.carrier_sets)
    env: dict[str, EbType] = {
        c: SetType(CarrierType(c)) for c in machine.carrier_sets
    }
    variables = _resolve(
        machine.variables, machine.invariants, env, carriers, diags,
        "cannot determine the type of variable '{}' "
        "(annotate it or add a typing invariant)")
    events = tuple(replace(ev, params=_resolve(
        ev.params, ev.guards, dict(env), carriers, diags,
        f"cannot determine the type of parameter '{{}}' of event '{ev.name}'"))
        for ev in machine.events)
    return replace(machine, variables=variables, events=events), diags


def base_type_env(machine: Machine) -> dict[str, EbType]:
    """Carrier sets plus machine variables; machine must be fully typed."""
    env: dict[str, EbType] = {
        c: SetType(CarrierType(c)) for c in machine.carrier_sets
    }
    for ident, ty in machine.variables:
        if ty is None:
            raise ValueError(f"variable '{ident.name}' has no resolved type")
        env[ident.name] = ty
    return env


# --- well-formedness ---------------------------------------------------

def well_formedness_check(machine: Machine) -> list[Diagnostic]:
    """Every violation of the machine rules, ordered by source position."""
    typed, collected = resolve_types(machine)

    def emit(message: str, span=None) -> None:
        collected.append(Diagnostic(message, span))

    _check_unique(
        [(c, machine.span) for c in machine.carrier_sets], "carrier set", emit)
    _check_unique(
        [(v.name, v.span) for v, _ in machine.variables], "variable", emit)
    for v, _ in machine.variables:
        if v.name in machine.carrier_sets:
            emit(f"'{v.name}' is both a variable and a carrier set", v.span)
    _check_unique(
        [(lbl, p.span) for lbl, p in machine.invariants], "invariant label", emit)
    _check_unique(
        [(e.name, e.span) for e in machine.events], "event", emit)

    try:
        env = base_type_env(typed)
    except ValueError:
        # unresolved types were already reported; skip dependent checks
        return _finish(collected)

    var_names = set(typed.variable_names())

    for lbl, p in typed.invariants:
        _check_no_primes(p, f"invariant {lbl}", emit)
        _check_special_positions(p, emit)
        _typing(p, env, emit)

    _check_unique(
        [(a.label, a.span) for a in typed.initialisation],
        "initialisation label", emit)
    assigned: dict[str, int] = {}
    for act in typed.initialisation:
        assigned[act.target.name] = assigned.get(act.target.name, 0) + 1
        if _check_target(act, "initialisation", var_names, emit):
            _check_action(act, env[act.target.name], env, var_names, emit)
    for name in typed.variable_names():
        n = assigned.get(name, 0)
        if n == 0:
            emit(f"initialisation does not assign variable '{name}'", typed.span)
        elif n > 1:
            emit(f"initialisation assigns variable '{name}' more than once", typed.span)

    for ev in typed.events:
        _check_event(ev, env, var_names, emit)

    return _finish(collected)


def _finish(collected) -> list[Diagnostic]:
    """The diagnostics by position, a position's in the order emitted (the
    sort is stable), and those without one last."""
    return sorted(collected, key=lambda d: d.span.begin if d.span is not None
                  else 1 << 60)


def _check_unique(named, what, emit) -> None:
    seen = set()
    for name, span in named:
        if name in seen:
            emit(f"duplicate {what} '{name}'", span)
        seen.add(name)


def _check_no_primes(p: Predicate, where: str, emit) -> None:
    for ident in sorted(free_identifiers(p), key=lambda i: i.key):
        if ident.primed:
            emit(f"primed identifier '{ident.key}' is not allowed in {where}",
                 getattr(p, "span", None))


def _check_special_positions(node, emit) -> None:
    # INT and relation arrows may appear only as the right operand of ':'
    allowed = set()
    for n in walk(node):
        if isinstance(n, Cmp) and n.op == "in":
            allowed.add(id(n.right))
        elif isinstance(n, (IntSet, RelSpace)) and id(n) not in allowed:
            what = "INT" if isinstance(n, IntSet) else "a relation arrow"
            emit(f"{what} is only allowed as a membership right-hand side", n.span)


def _typing(p: Predicate, env, emit) -> None:
    try:
        check_predicate(p, env)
    except TypeProblem as exc:
        emit(exc.message, exc.span)


def _check_parameters(ev: Event, reserved, emit) -> None:
    """The parameters of ``ev`` are distinct, and none is named in
    ``reserved``, the machine's variables and carrier sets."""
    _check_unique([(p.name, p.span) for p, _ in ev.params], "parameter", emit)
    for p, _ in ev.params:
        if p.name in reserved:
            emit(f"parameter '{p.name}' of event '{ev.name}' shadows a "
                 f"variable or carrier set", p.span)


def _check_target(act, where: str, var_names, emit) -> bool:
    """Whether ``act``, an action of ``where`` (the initialisation or an
    event), assigns a name in ``var_names``, the machine variables."""
    if act.target.name in var_names:
        return True
    emit(f"{where} assigns '{act.target.name}', which is not a machine variable",
         act.span)
    return False


def _check_action(act, target_ty, env, no_pre_state, emit) -> None:
    """Rules for one action; ``no_pre_state`` names variables it may not read."""
    if isinstance(act, BecomesEqual):
        body, prime = act.rhs, None
    else:
        body, prime = act.predicate, act.target.name + "'"
    for ident in sorted(free_identifiers(body), key=lambda i: i.key):
        if ident.primed and prime is None:
            emit(f"primed identifier '{ident.key}' is not allowed in a deterministic action",
                 act.span)
        elif ident.primed and ident.key != prime:
            emit(f"'{ident.key}' cannot appear here; only '{prime}' may be primed",
                 act.span)
        elif not ident.primed and ident.name in no_pre_state:
            emit(f"initialisation of '{act.target.name}' reads variable '{ident.name}' "
                 f"(there is no pre-state)", act.span)
    if prime is None:
        try:
            unify(expr_type(act.rhs, env), target_ty, act.span)
        except TypeProblem as exc:
            emit(exc.message, exc.span or act.span)
    else:
        _typing(act.predicate, {**env, prime: target_ty}, emit)
    _check_special_positions(body, emit)


def _check_event(ev: Event, env, var_names, emit) -> None:
    _check_parameters(ev, env, emit)
    ev_env = dict(env)
    for p, ty in ev.params:
        if ty is None:
            return  # already reported by resolve_types
        ev_env[p.name] = ty

    _check_unique([(lbl, g.span) for lbl, g in ev.guards], "guard label", emit)
    for lbl, g in ev.guards:
        _check_no_primes(g, f"guard {lbl} of event '{ev.name}'", emit)
        _check_special_positions(g, emit)
        _typing(g, ev_env, emit)

    _check_unique([(a.label, a.span) for a in ev.actions], "action label", emit)
    seen_targets = set()
    for act in ev.actions:
        if act.target.name in seen_targets:
            emit(f"event '{ev.name}' assigns '{act.target.name}' twice "
                 f"(simultaneous actions must have distinct targets)", act.span)
        seen_targets.add(act.target.name)
        if _check_target(act, f"event '{ev.name}'", var_names, emit):
            _check_action(act, env[act.target.name], ev_env, (), emit)
