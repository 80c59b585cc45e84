"""Translation of Event-B machines to JML-annotated abstract class specs.

Each event becomes a pure boolean ``guard_<event>`` method plus a void
``run_<event>`` method with two specification cases: one for the guard
holding (framed by the assigned variables, post-state pinned by the
translated actions evaluated over pre-state values) and one for the guard
failing (no modification allowed).  Machine invariants become the class
invariant and the initialisation becomes the ``initially`` clause.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import ebast as eb
from . import jmlast as jml
from .ebast import Machine, Span
from .ebcheck import (
    TypeProblem, base_type_env, expr_type, resolve_types, set_of, unify,
    well_formedness_check,
)
from .nodes import map_children


class TranslationError(Exception):
    """A machine the translator refuses; when the gate refuses it,
    ``diagnostics`` holds every well-formedness diagnostic."""

    def __init__(self, message: str, span: Optional[Span] = None,
                 diagnostics: tuple = ()):
        if span is not None:
            message = f"{span.line}:{span.column}: {message}"
        super().__init__(message)
        self.span = span
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class TranslationUnit:
    source: Machine
    result: jml.JmlClass
    trace: tuple[tuple[str, str], ...]  # (source label, produced fragment)

    def method_pair(self, event_name: str) -> tuple[jml.JmlMethodSpec, jml.JmlMethodSpec]:
        guard = run = None
        for m in self.result.methods:
            if m.name == f"guard_{event_name}":
                guard = m
            elif m.name == f"run_{event_name}":
                run = m
        if guard is None or run is None:
            raise KeyError(event_name)
        return guard, run


def jml_type_of(t: eb.EbType, span: Optional[Span] = None) -> jml.JmlType:
    """Carrier elements and integers map to Integer; sets and relations
    nest.  ``span`` locates the expression of type ``t`` in an error."""
    if isinstance(t, (eb.IntType, eb.CarrierType)):
        return jml.JInt()
    if isinstance(t, eb.SetType):
        if t.elem is None:
            raise TranslationError("element type of a set is not determined", span)
        return jml.JSet(jml_type_of(t.elem, span))
    if isinstance(t, eb.RelType):
        if t.dom is None or t.ran is None:
            raise TranslationError(
                "element types of a relation are not determined", span)
        return jml.JRel(jml_type_of(t.dom, span), jml_type_of(t.ran, span))
    raise TranslationError(f"untranslatable type {t!r}", span)


def _equals(left: jml.JmlExpr, right: jml.JmlExpr, t) -> jml.JmlPredicate:
    """JML value equality at Event-B type ``t``: ``==`` for integers and
    carrier elements, ``.equals`` for sets and relations."""
    if isinstance(t, (eb.IntType, eb.CarrierType)):
        return jml.JmlCmp("==", left, right)
    return jml.JmlBoolCall(jml.JmlMethodCall(left, "equals", (right,)))


def _conj(parts: list[jml.JmlPredicate]) -> jml.JmlPredicate:
    """Left-associated conjunction; nested chains are spliced in flat."""
    flat = [c for part in parts for c in jml.conjuncts(part)]
    if not flat:
        return jml.JmlTrue()
    out = flat[0]
    for p in flat[1:]:
        out = jml.JmlAnd(out, p)
    return out


def _typed(e: eb.Expr, env, hint=None):
    try:
        t = expr_type(e, env)
        if hint is not None:
            t = unify(t, hint)
        return t
    except TypeProblem as exc:
        raise TranslationError(exc.message, exc.span or getattr(e, "span", None))


def _tr_expr(e: eb.Expr, env, hint=None) -> jml.JmlExpr:
    if isinstance(e, eb.IntLit):
        return jml.JmlIntLit(e.value)
    if isinstance(e, eb.Ref):
        return jml.JmlVar(e.ident.key)
    if isinstance(e, eb.EmptySet):
        t = hint
        if isinstance(t, eb.RelType) and t.dom is not None and t.ran is not None:
            return jml.JmlNewRelation(jml_type_of(t.dom, e.span),
                                      jml_type_of(t.ran, e.span))
        if isinstance(t, eb.SetType) and t.elem is not None:
            return jml.JmlNewSet(jml_type_of(t.elem, e.span))
        raise TranslationError("cannot determine the type of {} here", e.span)
    if isinstance(e, eb.SetEnum):
        t = _typed(e, env, hint)
        if isinstance(t, eb.RelType):
            dom, ran = jml_type_of(t.dom, e.span), jml_type_of(t.ran, e.span)
            pairs = []
            for item in e.items:
                if not (isinstance(item, eb.BinOp) and item.op == "maplet"):
                    raise TranslationError(
                        "a relation enumeration must list maplets", item.span)
                pairs.append(jml.JmlNewPair(
                    dom, ran, _tr_expr(item.left, env, t.dom),
                    _tr_expr(item.right, env, t.ran)))
            return jml.JmlNewRelation(dom, ran, tuple(pairs))
        if isinstance(t, eb.SetType) and t.elem is not None:
            return jml.JmlNewSet(
                jml_type_of(t.elem, e.span),
                tuple(_tr_expr(i, env, t.elem) for i in e.items))
        raise TranslationError("cannot determine the element type of this set", e.span)
    if isinstance(e, eb.UnOp):
        recv = _tr_expr(e.operand, env)
        return jml.JmlMethodCall(recv, "domain" if e.op == "dom" else "range")
    if isinstance(e, eb.BinOp):
        return _tr_binop(e, env, hint)
    raise TranslationError(f"untranslatable expression {type(e).__name__}",
                           getattr(e, "span", None))


_METHOD_OF = {"union": "union", "inter": "intersection", "diff": "difference"}


def _tr_binop(e: eb.BinOp, env, hint) -> jml.JmlExpr:
    op = e.op
    if op in _METHOD_OF:
        t = _typed(e, env, hint)
        return jml.JmlMethodCall(
            _tr_expr(e.left, env, t), _METHOD_OF[op], (_tr_expr(e.right, env, t),))
    if op in ("domsub", "domres"):
        t = _typed(e, env, hint)
        assert isinstance(t, eb.RelType)
        method = "domainSubtraction" if op == "domsub" else "domainRestriction"
        return jml.JmlMethodCall(
            _tr_expr(e.right, env, t), method,
            (_tr_expr(e.left, env, eb.SetType(t.dom)),))
    if op == "cross":
        t = _typed(e, env, hint)
        assert isinstance(t, eb.RelType)
        return jml.JmlCross(_tr_expr(e.left, env, eb.SetType(t.dom)),
                            _tr_expr(e.right, env, eb.SetType(t.ran)))
    if op == "image":
        rel_t = _typed(e.left, env)
        return jml.JmlMethodCall(
            _tr_expr(e.left, env), "image",
            (_tr_expr(e.right, env,
                      eb.SetType(rel_t.dom) if isinstance(rel_t, eb.RelType) else None),))
    if op == "apply":
        return jml.JmlMethodCall(
            _tr_expr(e.left, env), "apply", (_tr_expr(e.right, env),))
    if op == "maplet":
        lt = _typed(e.left, env)
        rt = _typed(e.right, env)
        return jml.JmlNewPair(jml_type_of(lt, e.span), jml_type_of(rt, e.span),
                              _tr_expr(e.left, env), _tr_expr(e.right, env))
    if op in ("add", "sub", "mul"):
        sym = {"add": "+", "sub": "-", "mul": "*"}[op]
        return jml.JmlArith(sym, _tr_expr(e.left, env), _tr_expr(e.right, env))
    raise TranslationError(f"untranslatable operator '{op}'", e.span)


def _tr_relspace_membership(left: eb.Expr, rs: eb.RelSpace, env) -> jml.JmlPredicate:
    rel_t = _typed(rs, env).elem  # the arrow is a set of relations
    member = _tr_expr(left, env, rel_t)
    dom_of = jml.JmlMethodCall(member, "domain")
    ran_of = jml.JmlMethodCall(member, "range")
    s = _tr_expr(rs.left, env)
    t = _tr_expr(rs.right, env)

    def subset(left, right):
        return jml.JmlBoolCall(jml.JmlMethodCall(left, "isSubset", (right,)))

    parts: list[jml.JmlPredicate] = []
    if rs.arrow in ("-->", "-->>"):
        parts.append(jml.JmlBoolCall(jml.JmlMethodCall(member, "isaFunction")))
    if rs.arrow == "<->":
        parts += [subset(dom_of, s), subset(ran_of, t)]
    else:
        parts.append(_equals(dom_of, s, eb.SetType(rel_t.dom)))
        parts.append(subset(ran_of, t) if rs.arrow == "-->"
                     else _equals(ran_of, t, eb.SetType(rel_t.ran)))
    return _conj(parts)


def translate_predicate(p: eb.Predicate, env) -> jml.JmlPredicate:
    """The JML form of an Event-B predicate over the names typed in ``env``."""
    if isinstance(p, eb.BTrue):
        return jml.JmlTrue()
    if isinstance(p, eb.And):
        return jml.JmlAnd(translate_predicate(p.left, env),
                          translate_predicate(p.right, env))
    if isinstance(p, eb.Or):
        return jml.JmlOr(translate_predicate(p.left, env),
                         translate_predicate(p.right, env))
    if isinstance(p, eb.Not):
        return jml.JmlNot(translate_predicate(p.operand, env))
    if isinstance(p, eb.Cmp):
        return _tr_cmp(p, env)
    raise TranslationError(f"untranslatable predicate {type(p).__name__}",
                           getattr(p, "span", None))


def _tr_cmp(p: eb.Cmp, env) -> jml.JmlPredicate:
    if p.op == "in":
        if isinstance(p.right, eb.IntSet):
            return jml.JmlTrue()
        if isinstance(p.right, eb.RelSpace):
            return _tr_relspace_membership(p.left, p.right, env)
        rt = _typed(p.right, env, set_of(_typed(p.left, env)))
        return jml.JmlBoolCall(jml.JmlMethodCall(
            _tr_expr(p.right, env, rt), "has", (_tr_expr(p.left, env),)))
    if p.op == "subset":
        t = _typed(p.left, env, _typed(p.right, env))
        return jml.JmlBoolCall(jml.JmlMethodCall(
            _tr_expr(p.left, env, t), "isSubset", (_tr_expr(p.right, env, t),)))
    if p.op in ("lt", "le"):
        sym = "<" if p.op == "lt" else "<="
        return jml.JmlCmp(sym, _tr_expr(p.left, env), _tr_expr(p.right, env))
    t = _typed(p.left, env, _typed(p.right, env))
    equal = _equals(_tr_expr(p.left, env, t), _tr_expr(p.right, env, t), t)
    if p.op == "eq":
        return equal
    if isinstance(equal, jml.JmlCmp):
        return replace(equal, op="!=")
    return jml.JmlNot(equal)


def _tr_becomes_such_that(a: eb.BecomesSuchThat, env, at_pre: bool) -> jml.JmlExists:
    """``v :| P`` as ``\\exists T y; P[y/v'] && v == y``, the equality
    being ``v.equals(y)`` for a set or relation ``v``.

    ``'`` is not legal in a JML identifier, so the after-value ``v'`` is
    bound as ``v_after`` (or ``v_after2``, ...), the first such name that
    is not in ``env``.  With ``at_pre``, P is read in the pre-state.
    """
    target = a.target.name
    t = env[target]
    name = target + "_after"
    k = 1
    while name in env:
        k += 1
        name = f"{target}_after{k}"

    bap_env = dict(env)
    bap_env[name] = t
    body = translate_predicate(_unprime(a.predicate, target, name), bap_env)
    return jml.JmlExists(
        name, jml_type_of(t),
        jml.JmlAnd(jml.JmlOld(body) if at_pre else body,
                   _equals(jml.JmlVar(target), jml.JmlVar(name), t)))


def _unprime(node, target: str, name: str):
    """``node`` with each after-value ``target'`` renamed ``name``."""
    if isinstance(node, eb.Ref) and node.ident.primed and \
            node.ident.name == target:
        return replace(node, ident=eb.Ident(name, span=node.ident.span))
    return map_children(node, lambda child: _unprime(child, target, name))


def translate_action(a: eb.Action, env, at_pre: bool = True) -> jml.JmlPredicate:
    """The post-condition of one action; with ``at_pre`` its right-hand
    side is read in the pre-state."""
    if isinstance(a, eb.BecomesSuchThat):
        return _tr_becomes_such_that(a, env, at_pre)
    t = env[a.target.name]
    rhs = _tr_expr(a.rhs, env, t)
    return _equals(jml.JmlVar(a.target.name),
                   jml.JmlOldExpr(rhs) if at_pre else rhs, t)


def translate_actions(actions, env) -> jml.JmlPredicate:
    """Simultaneous actions are translated individually and conjoined."""
    return _conj([translate_action(a, env) for a in actions])


def _nest_exists(params, body: jml.JmlPredicate) -> jml.JmlPredicate:
    for ident, ty in reversed(params):
        body = jml.JmlExists(ident.name, jml_type_of(ty), body)
    return body


def translate_event(e: eb.Event, env) -> tuple[jml.JmlMethodSpec, jml.JmlMethodSpec]:
    """A well-formed event with typed parameters becomes the (guard_<e>,
    run_<e>) method pair; ``env`` types the variables and carrier sets."""
    ev_env = {**env, **{ident.name: ty for ident, ty in e.params}}
    guard_pred = _conj([translate_predicate(g, ev_env) for _lbl, g in e.guards])
    guard_body = jml.JmlParen(guard_pred) if isinstance(guard_pred, jml.JmlAnd) \
        else guard_pred
    guard_spec = jml.JmlMethodSpec(
        name=f"guard_{e.name}",
        kind="guard",
        normal=jml.SpecCase(jml.JmlTrue(), jml.AssignNothing(),
                            _nest_exists(e.params, guard_body)),
    )

    ensures = _nest_exists(e.params, _conj(
        [jml.JmlOld(guard_pred), translate_actions(e.actions, ev_env)]))

    mod = eb.mod_list(e.actions)
    assignable = (jml.AssignVars(tuple(v.name for v in mod))
                  if mod else jml.AssignNothing())
    run_spec = jml.JmlMethodSpec(
        name=f"run_{e.name}",
        kind="run",
        normal=jml.SpecCase(jml.JmlGuardCall(f"guard_{e.name}"), assignable, ensures),
        exceptional=jml.SpecCase(
            jml.JmlNot(jml.JmlGuardCall(f"guard_{e.name}")),
            jml.AssignNothing(), jml.JmlTrue()),
    )
    return guard_spec, run_spec


def translate_invariants(invariants, env) -> jml.JmlPredicate:
    return _conj([translate_predicate(p, env) for _lbl, p in invariants])


def translate_initialisation(actions, env) -> jml.JmlPredicate:
    """Post-state-only conjunction of well-formed initialisation actions;
    the initialisation has no pre-state."""
    parts: list[jml.JmlPredicate] = []
    for a in actions:
        if isinstance(a, eb.BecomesEqual) and isinstance(a.rhs, eb.EmptySet):
            parts.append(jml.JmlBoolCall(
                jml.JmlMethodCall(jml.JmlVar(a.target.name), "isEmpty")))
        else:
            parts.append(translate_action(a, env, at_pre=False))
    return _conj(parts)


def translate_machine(machine: Machine) -> TranslationUnit:
    """Translate a whole machine into a single abstract JML class.

    An ill-formed machine is a TranslationError with the text and span of
    the first diagnostic of ``well_formedness_check``, carrying them all.
    """
    diagnostics = well_formedness_check(machine)
    if diagnostics:
        raise TranslationError(diagnostics[0].message, diagnostics[0].span,
                               tuple(diagnostics))
    typed, _diags = resolve_types(machine)
    env = base_type_env(typed)

    trace: list[tuple[str, str]] = []
    carriers = tuple(sorted(typed.carrier_sets))
    for c in carriers:
        trace.append((c, f"model field {c}"))
    fields = tuple(sorted(
        ((ident.name, jml_type_of(ty)) for ident, ty in typed.variables),
        key=lambda f: f[0]))
    for name, _ty in fields:
        trace.append((name, f"model field {name}"))

    invariant = translate_invariants(typed.invariants, env)
    for lbl, _p in typed.invariants:
        trace.append((lbl, "class invariant"))
    initially = translate_initialisation(typed.initialisation, env)
    for a in typed.initialisation:
        trace.append((a.label, "initially"))

    methods: list[jml.JmlMethodSpec] = []
    for ev in typed.events:
        guard_spec, run_spec = translate_event(ev, env)
        methods.extend((guard_spec, run_spec))
        for lbl, _g in ev.guards:
            trace.append((f"{ev.name}/{lbl}", guard_spec.name))
        for a in ev.actions:
            trace.append((f"{ev.name}/{a.label}", run_spec.name))

    result = jml.JmlClass(
        name=typed.name,
        carriers=carriers,
        model_fields=fields,
        class_invariant=invariant,
        initially=initially,
        methods=tuple(methods),
    )
    return TranslationUnit(source=typed, result=result, trace=tuple(trace))
