"""Executable finite-universe semantics for machines and their translations.

States map variable names to exact values (integers, finite sets, pairs,
finite relations).  Event and method semantics are state-transition
relations computed by exhaustive enumeration over a configurable finite
universe; all arithmetic is exact, there are no tolerances.  The values of
every type, Event-B or JML, come from one function, ``Universe.values_of``,
which computes each type's values once per universe.

Every bound name, an invariant state's variable, an Event-B parameter or
after-value, and a JML \\exists witness, is bound by one backtracking
search, ``_solutions``, which tests each conjunct as soon as the names it
reads are bound.  Event-B parameters and \\exists witnesses are drawn from
the bounds and pins of their own side's pre-state conjuncts, most
constrained name first.  Every search charges each value it tests to the one
``Budget`` of the phase it serves (an invariant enumeration, a state set or
a relation), which a JML evaluation reaches through its ``WitnessMemo``.
A search for \\exists witnesses, event parameters or active specification
cases runs once per tuple of the pre-state values it reads, kept while the
phase lasts; no memo keeps a state.

Evaluation can fail (function application at a non-functional point,
unbound identifiers); a guard or predicate whose evaluation fails counts
as unsatisfied for that valuation, and a deterministic action whose value
fails gives no transition.  ``_defined`` alone catches such a failure,
logs it and gives False.
"""

from __future__ import annotations

import itertools
import logging
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from . import ebast as eb
from . import jmlast as jml
from .nodes import map_children, walk

log = logging.getLogger(__name__)
_UNBOUND = object()  # the value of a name that a partial binding lacks

Value = Union[int, bool, frozenset, tuple]


class EvalError(Exception):
    pass


class ResourceLimitError(Exception):
    def __init__(self, count: int, ceiling: int):
        super().__init__(
            f"enumeration needs {count} work units, exceeding the ceiling of {ceiling}")
        self.count = count
        self.ceiling = ceiling


class Budget:
    """The work meter of one phase; aborts when the ceiling is hit."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def charge(self, n: int = 1) -> None:
        self.spent += n
        if self.spent > self.limit:
            raise ResourceLimitError(self.spent, self.limit)


class WitnessMemo(dict):
    """The \\exists witnesses of each quantifier, keyed by the values its
    search reads (see ``_exists_witnesses``), and its analysis (see
    ``_exists_chain``), for as long as the phase it serves lasts; and the
    Budget that pays for the searches."""

    __slots__ = ("budget", "chains")

    def __init__(self, budget: Budget):
        self.budget = budget
        self.chains: dict = {}


def fmt_value(v: Value) -> str:
    if isinstance(v, frozenset):
        return "{" + ", ".join(sorted(fmt_value(x) for x in v)) + "}"
    if isinstance(v, tuple):
        return f"({fmt_value(v[0])} |-> {fmt_value(v[1])})"
    return str(v)


class State(Mapping):
    """An immutable, hashable assignment of values to variable names."""

    __slots__ = ("_d", "_hash")

    def __init__(self, mapping=()):
        d = dict(mapping)
        self._d = d
        self._hash = hash(frozenset(d.items()))

    def __getitem__(self, key):
        return self._d[key]

    def __iter__(self):
        return iter(self._d)

    def __contains__(self, key):
        return key in self._d

    def __len__(self):
        return len(self._d)

    def __eq__(self, other):
        if isinstance(other, State):
            return self._d == other._d
        return NotImplemented

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return tuple((k, fmt_value(v)) for k, v in sorted(self._d.items()))

    def __repr__(self):
        inner = ", ".join(f"{k}={fmt_value(v)}" for k, v in sorted(self._d.items()))
        return f"State({inner})"


DEFAULT_CEILING = 10 ** 6
DEFAULT_CARRIER_SIZE = 2


@dataclass
class Universe:
    """Finite value bounds: an integer range plus carrier-set cardinalities."""

    int_lo: int = 0
    int_hi: int = 2
    carriers: dict[str, int] = field(default_factory=dict)
    ceiling: int = DEFAULT_CEILING
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.int_lo > self.int_hi:
            raise ValueError("empty integer range")
        if self.ceiling < 1:
            raise ValueError("ceiling must be at least 1")
        for name, size in self.carriers.items():
            if size < 1:
                raise ValueError(f"carrier set '{name}' needs cardinality >= 1")

    def with_carriers(self, names: Iterable[str]) -> "Universe":
        """A universe whose carrier table covers ``names``: ``self`` (and its
        value cache) when it already does, else a copy with default sizes."""
        carriers = dict(self.carriers)
        for name in names:
            carriers.setdefault(name, DEFAULT_CARRIER_SIZE)
        if carriers == self.carriers:
            return self
        return Universe(self.int_lo, self.int_hi, carriers, self.ceiling)

    def ints(self) -> tuple[int, ...]:
        """The integer range; like a powerset, it may not outgrow the ceiling."""
        count = self.int_hi - self.int_lo + 1
        if count > self.ceiling:
            raise ResourceLimitError(count, self.ceiling)
        return tuple(range(self.int_lo, self.int_hi + 1))

    def carrier_elems(self, name: str) -> tuple[int, ...]:
        if name not in self.carriers:
            raise EvalError(f"carrier set '{name}' has no configured cardinality")
        return tuple(range(1, self.carriers[name] + 1))

    def all_ints(self) -> tuple[int, ...]:
        """Every atomic value: the integer range plus all carrier elements."""
        out = set(self.ints())
        for name in self.carriers:
            out.update(self.carrier_elems(name))
        return tuple(sorted(out))

    def int_set(self) -> frozenset:
        """Event-B's ``INT`` as a set value (see ``all_ints``), built once."""
        if eb.IntSet not in self._cache:
            self._cache[eb.IntSet] = frozenset(self.all_ints())
        return self._cache[eb.IntSet]

    def values_of(self, t) -> tuple[Value, ...]:
        """The values of an Event-B or a JML type, computed once per type:
        ``INT`` takes the integer range, a carrier set its elements, and the
        JML ``Integer`` every atomic value (see ``all_ints``)."""
        if t in self._cache:
            return self._cache[t]
        if isinstance(t, eb.IntType):
            out = self.ints()
        elif isinstance(t, eb.CarrierType):
            out = self.carrier_elems(t.set_name)
        elif isinstance(t, jml.JInt):
            out = self.all_ints()
        elif isinstance(t, (eb.SetType, jml.JSet)) and t.elem is None:
            raise EvalError("set type with undetermined element type")
        elif isinstance(t, _RELATION_TYPES) and (t.dom is None or t.ran is None):
            raise EvalError("relation type with undetermined element types")
        elif isinstance(t, (eb.SetType, jml.JSet) + _RELATION_TYPES):
            base = _base(t, False, self)
            if 2 ** len(base) > self.ceiling:
                raise ResourceLimitError(2 ** len(base), self.ceiling)
            out = tuple(_Supersets(frozenset(), base))
        else:
            raise EvalError(f"cannot enumerate values of {t!r}")
        self._cache[t] = out
        return out


def enumerate_states(variables, u: Universe) -> tuple[State, ...]:
    """All type-respecting total assignments to the machine variables."""
    for ident, ty in variables:
        if ty is None:
            raise EvalError(f"variable '{ident.name}' has no resolved type")
    domains = [u.values_of(ty) for _ident, ty in variables]
    total = 1
    for vals in domains:
        total *= len(vals)
    if total > u.ceiling:
        raise ResourceLimitError(total, u.ceiling)
    names = [ident.name for ident, _ty in variables]
    return tuple(
        State(zip(names, combo)) for combo in itertools.product(*domains))


def _defined(test, *args) -> bool:
    """``test(*args)``, or False when its evaluation is undefined: the one
    place where an undefined guard, predicate or conjunct counts as false."""
    try:
        return test(*args)
    except EvalError as exc:
        log.debug("undefined evaluation counts as false (%s)", exc)
        return False


def _positions(reads, names) -> frozenset:
    """The positions among ``names`` of the names in ``reads``; a repeated
    name is read at its last position."""
    where = {n: k for k, n in enumerate(names)}
    return frozenset(where[n] for n in reads if n in where)


def _read(state, names) -> tuple:
    """The values of ``names`` in ``state``, a State or a partial binding
    (a dict): the key of a search that reads no other name."""
    d = state._d if isinstance(state, State) else state
    return tuple([d.get(n, _UNBOUND) for n in names])


def _solutions(names, domain, conjuncts, holds, start: dict, charge,
               first_fail: bool = False) -> list[dict]:
    """Every extension of ``start`` binding ``names`` at which all conjuncts
    hold, found by backtracking.

    Names are bound one at a time: in declaration order, or with
    ``first_fail`` the unbound name with the fewest values to try at each
    node, ties going to declaration order (the most-constrained-first order
    of Haralick & Elliott, AIJ 14(3), 1980).  The k-th name takes each
    value of ``domain(k, partial, bound)``, where ``partial`` binds the
    names at the positions in ``bound``; ``charge`` is called once per
    value test.  ``conjuncts`` pairs each conjunct with the positions of
    the names it reads, and a conjunct is tested as soon as all of them are
    bound, so a partial binding that violates a conjunct is never extended.
    A conjunct whose evaluation fails counts as false.
    """
    first: list = []
    watch: list[list] = [[] for _ in names]
    for conj, reads in conjuncts:
        for k in reads:
            watch[k].append((conj, reads))
        if not reads:
            first.append(conj)

    def all_hold(conjs, partial) -> bool:
        for conj in conjs:
            if not _defined(holds, conj, partial):
                return False
        return True

    def branches(partial: dict, bound: frozenset):
        """Each binding of one more name to ``partial`` that violates no
        conjunct, with the positions it binds."""
        if first_fail:
            k, values = min(
                ((k, domain(k, partial, bound))
                 for k in range(len(names)) if k not in bound),
                key=lambda choice: len(choice[1]))
        else:
            k = len(bound)
            values = domain(k, partial, bound)
        now = bound | {k}
        due = [conj for conj, reads in watch[k] if reads <= now]
        for value in values:
            charge()
            inner = dict(partial)
            inner[names[k]] = value
            if all_hold(due, inner):
                yield inner, now

    # depth first: a node's next branch is drawn once the last one is done
    out: list[dict] = []
    stack = [iter(((start, frozenset()),))] if all_hold(first, start) else []
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif len(node[1]) == len(names):
            out.append(node[0])
        else:
            stack.append(branches(*node))
    return out


def _invariant_states(variables, conjuncts, holds, bounds, value, u: Universe,
                      budget: Budget) -> frozenset:
    """Typed states at which every conjunct holds.

    ``conjuncts`` pairs each conjunct with the variable names it reads.
    Variables are bound in declaration order, each to the values its
    ``bounds`` allow (see ``_bounded_domain``), and each conjunct is tested
    as soon as the last variable it reads is bound; each value test is
    charged to ``budget``.
    """
    names = [ident.name for ident, _ty in variables]
    plan = _bound_plan(names, [ty for _ident, ty in variables],
                       _placed(bounds, names))
    return frozenset(State(s) for s in _solutions(
        names, _bounded_domain(plan, value, u),
        [(conj, _positions(reads, names)) for conj, reads in conjuncts],
        holds, {}, budget.charge))


def _placed(bounds, names) -> list:
    """(kind, position, expression, positions read) for each of ``bounds``,
    a (kind, name, expression, names read), that bounds one of ``names``
    (a repeated name at its last position)."""
    return [(kind, k, expr, _positions(reads, names))
            for kind, name, expr, reads in bounds
            for k in _positions((name,), names)]


_ELEMENT_TYPES = (eb.IntType, eb.CarrierType, jml.JInt)
_RELATION_TYPES = (eb.RelType, jml.JRel)


def _bound_plan(names, types, bounds) -> tuple:
    """Per name of ``names``, of the matching type in ``types``: its type,
    whether it is an element, and the ``bounds`` (placed, see ``_placed``)
    whose kind fits its type, split into those whose expression reads none
    of the names and the rest.

    An element takes "member" and "pin" bounds; a set "upper", "lower"
    and "pin" bounds, and a relation "dom" and "ran" bounds as well.
    """
    plan = []
    for k, (name, ty) in enumerate(zip(names, types)):
        if ty is None:
            raise EvalError(f"'{name}' has no resolved type")
        element = isinstance(ty, _ELEMENT_TYPES)
        kinds = ("member", "pin") if element else ("upper", "lower", "pin") + (
            ("dom", "ran") if isinstance(ty, _RELATION_TYPES) else ())
        mine = [(kind, expr, reads) for kind, at, expr, reads in bounds
                if at == k and kind in kinds]
        plan.append((ty, element,
                     [(kind, expr) for kind, expr, reads in mine if not reads],
                     [bound for bound in mine if bound[2]]))
    return tuple(plan)


def _bounded_domain(plan, value, u: Universe):
    """``domain(k, partial, bound)`` for ``_solutions``: the typed values of
    the k-th name that its bounds allow (see ``_bound_plan``).

    ``value(expression, partial)`` evaluates a bound's expression with one
    side's evaluator.  A bound counts once every name it reads is bound;
    those that read none are evaluated once, at the first node that asks.
    Where a bound is undefined, every value of the type.  The bounds only
    decide what is tried: every conjunct is still tested.
    """
    fixed: dict = {}

    def domain(k, partial, bound):
        ty, element, static, dynamic = plan[k]
        mine = [(kind, expr) for kind, expr, reads in dynamic if reads <= bound]
        if not static and not mine:
            return u.values_of(ty)
        if k not in fixed:
            fixed[k] = _defined(_pool, (_base(ty, element, u), frozenset()),
                                static, partial, value, element)
        allowed = fixed[k]
        if mine and allowed is not False:
            allowed = _defined(_pool, allowed, mine, partial, value, element)
        if allowed is False:
            return u.values_of(ty)
        pool, lower = allowed
        if element:
            return pool
        return _Supersets(lower, pool) if lower <= frozenset(pool) else ()

    return domain


def _base(ty, element: bool, u: Universe) -> tuple:
    """The values a bound filters: those of an element's type, or the
    possible members of a set or relation."""
    if element:
        return u.values_of(ty)
    if isinstance(ty, _RELATION_TYPES):
        return tuple(itertools.product(u.values_of(ty.dom), u.values_of(ty.ran)))
    return u.values_of(ty.elem)


def _pool(start, bounds, partial, value, element: bool):
    """``start``, a pool of elements and a lower bound, narrowed by
    ``bounds`` at ``partial``: the elements every upper bound allows, and
    the union of the lower bounds.  A member bound is an upper bound; a pin
    is the one-value upper bound of an element, and both bounds of a set."""
    pool, lower = start
    for kind, expr in bounds:
        v = value(expr, partial)
        s = frozenset((v,)) if kind == "pin" and element else _as_set(v, "bound")
        if kind == "dom":
            pool = tuple(e for e in pool if e[0] in s)
        elif kind == "ran":
            pool = tuple(e for e in pool if e[1] in s)
        elif kind != "lower":
            pool = tuple(e for e in pool if e in s)
        if kind == "lower" or kind == "pin" and not element:
            lower |= s
    return pool, lower


class _Supersets:
    """``lower`` joined with each subset of the rest of ``pool``, generated
    lazily; its length (capped at ``sys.maxsize``) lets first-fail order
    compare it without building it."""

    __slots__ = ("lower", "free")

    def __init__(self, lower: frozenset, pool: tuple):
        self.lower = lower
        self.free = [e for e in pool if e not in lower]

    def __len__(self):
        return min(2 ** len(self.free), sys.maxsize)

    def __iter__(self):
        free = self.free
        for mask in range(2 ** len(free)):
            yield self.lower.union(free[i] for i in range(len(free)) if mask >> i & 1)


def _eb_conjuncts(p: eb.Predicate):
    if isinstance(p, eb.And):
        return _eb_conjuncts(p.left) + _eb_conjuncts(p.right)
    return [p]


def _eb_bounds(c: eb.Predicate) -> list:
    """The (kind, name, expression) bounds an Event-B conjunct states:
    ``x <: S`` bounds x above and S below, ``r : A <-> B`` (any arrow)
    bounds r's domain by A and its range by B, and ``x : S`` makes x a
    member of S."""
    if not isinstance(c, eb.Cmp):
        return []
    out = []
    if c.op == "subset":
        if isinstance(c.left, eb.Ref):
            out.append(("upper", c.left.ident.key, c.right))
        if isinstance(c.right, eb.Ref):
            out.append(("lower", c.right.ident.key, c.left))
    elif c.op == "in" and isinstance(c.left, eb.Ref):
        if isinstance(c.right, eb.RelSpace):
            out += [("dom", c.left.ident.key, c.right.left),
                    ("ran", c.left.ident.key, c.right.right)]
        else:
            out.append(("member", c.left.ident.key, c.right))
    return out


def _eb_pins(c: eb.Predicate) -> list:
    """The (name, expression) pairs an Event-B conjunct ``x = E`` or
    ``E = x`` pins: x can take only the value of E."""
    if not isinstance(c, eb.Cmp) or c.op != "eq":
        return []
    return [(side.ident.key, other)
            for side, other in ((c.left, c.right), (c.right, c.left))
            if isinstance(side, eb.Ref)]


def _eb_reads(node) -> set[str]:
    return {i.key for i in eb.free_identifiers(node)}


def eb_invariant_states(invariants, variables, u: Universe,
                        budget: Budget) -> frozenset:
    """Typed states satisfying every labelled Event-B invariant."""
    conjs = [c for _lbl, p in invariants for c in _eb_conjuncts(p)]
    conjuncts = [(c, _eb_reads(c)) for c in conjs]
    bounds = [(kind, name, e, _eb_reads(e))
              for c in conjs for kind, name, e in _eb_bounds(c)]
    return _invariant_states(
        variables, conjuncts, lambda c, s: eb_pred_holds(c, s, {}, u), bounds,
        lambda e, s: eval_eb_expr(e, s, {}, u), u, budget)


# --- Event-B evaluation ---------------------------------------------------

def _as_set(v: Value, what: str) -> frozenset:
    if not isinstance(v, frozenset):
        raise EvalError(f"{what} needs a set value, got {fmt_value(v)}")
    return v


def _as_rel(v: Value, what: str) -> frozenset:
    s = _as_set(v, what)
    for item in s:
        if not (isinstance(item, tuple) and len(item) == 2):
            raise EvalError(f"{what} needs a relation value")
    return s


def _as_int(v: Value, what: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise EvalError(f"{what} needs an integer value, got {fmt_value(v)}")
    return v


def eval_eb_expr(e: eb.Expr, state: Mapping, env: Mapping, u: Universe) -> Value:
    if isinstance(e, eb.IntLit):
        return e.value
    if isinstance(e, eb.Ref):
        key = e.ident.key
        if key in env:
            return env[key]
        if key in state:
            return state[key]
        if not e.ident.primed and key in u.carriers:
            return frozenset(u.carrier_elems(key))
        raise EvalError(f"unbound identifier '{key}'")
    if isinstance(e, eb.EmptySet):
        return frozenset()
    if isinstance(e, eb.IntSet):
        return u.int_set()
    if isinstance(e, eb.SetEnum):
        return frozenset(eval_eb_expr(i, state, env, u) for i in e.items)
    if isinstance(e, eb.UnOp):
        r = _as_rel(eval_eb_expr(e.operand, state, env, u), e.op)
        if e.op == "dom":
            return frozenset(x for x, _y in r)
        return frozenset(y for _x, y in r)
    if isinstance(e, eb.BinOp):
        return _eval_eb_binop(e, state, env, u)
    raise EvalError(f"cannot evaluate {type(e).__name__}")


def _eval_eb_binop(e: eb.BinOp, state, env, u) -> Value:
    op = e.op
    left = eval_eb_expr(e.left, state, env, u)
    right = eval_eb_expr(e.right, state, env, u)
    if op == "union":
        return _as_set(left, "union") | _as_set(right, "union")
    if op == "inter":
        return _as_set(left, "intersection") & _as_set(right, "intersection")
    if op == "diff":
        return _as_set(left, "difference") - _as_set(right, "difference")
    if op == "domsub":
        s = _as_set(left, "domain subtraction")
        return frozenset(p for p in _as_rel(right, "domain subtraction")
                         if p[0] not in s)
    if op == "domres":
        s = _as_set(left, "domain restriction")
        return frozenset(p for p in _as_rel(right, "domain restriction")
                         if p[0] in s)
    if op == "cross":
        return frozenset(itertools.product(
            _as_set(left, "cartesian product"), _as_set(right, "cartesian product")))
    if op == "maplet":
        return (left, right)
    if op == "image":
        s = _as_set(right, "image")
        return frozenset(y for x, y in _as_rel(left, "image") if x in s)
    if op == "apply":
        matches = {y for x, y in _as_rel(left, "application") if x == right}
        if len(matches) != 1:
            raise EvalError(f"apply undefined at {fmt_value(right)}")
        return next(iter(matches))
    if op == "add":
        return _as_int(left, "+") + _as_int(right, "+")
    if op == "sub":
        return _as_int(left, "-") - _as_int(right, "-")
    if op == "mul":
        return _as_int(left, "*") * _as_int(right, "*")
    raise EvalError(f"cannot evaluate operator '{op}'")


def _functional(r: frozenset) -> bool:
    return len({x for x, _y in r}) == len(r)


def eb_pred_holds(p: eb.Predicate, state: Mapping, env: Mapping, u: Universe) -> bool:
    """Exact truth value of a predicate; raises EvalError when undefined."""
    if isinstance(p, eb.BTrue):
        return True
    if isinstance(p, eb.And):
        return eb_pred_holds(p.left, state, env, u) and \
            eb_pred_holds(p.right, state, env, u)
    if isinstance(p, eb.Or):
        return eb_pred_holds(p.left, state, env, u) or \
            eb_pred_holds(p.right, state, env, u)
    if isinstance(p, eb.Not):
        return not eb_pred_holds(p.operand, state, env, u)
    if isinstance(p, eb.Cmp):
        if p.op == "in" and isinstance(p.right, eb.RelSpace):
            return _relspace_holds(p.left, p.right, state, env, u)
        left = eval_eb_expr(p.left, state, env, u)
        right = eval_eb_expr(p.right, state, env, u)
        if p.op == "eq":
            return left == right
        if p.op == "neq":
            return left != right
        if p.op == "in":
            return left in _as_set(right, "membership")
        if p.op == "subset":
            return _as_set(left, "subset") <= _as_set(right, "subset")
        if p.op == "lt":
            return _as_int(left, "<") < _as_int(right, "<")
        if p.op == "le":
            return _as_int(left, "<=") <= _as_int(right, "<=")
    raise EvalError(f"cannot evaluate {type(p).__name__}")


def _relspace_holds(member: eb.Expr, rs: eb.RelSpace, state, env, u) -> bool:
    r = _as_rel(eval_eb_expr(member, state, env, u), "relation membership")
    s = _as_set(eval_eb_expr(rs.left, state, env, u), "relation membership")
    t = _as_set(eval_eb_expr(rs.right, state, env, u), "relation membership")
    dom = frozenset(x for x, _y in r)
    ran = frozenset(y for _x, y in r)
    if rs.arrow == "<->":
        return dom <= s and ran <= t
    if rs.arrow == "-->":
        return _functional(r) and dom == s and ran <= t
    if rs.arrow == "-->>":
        return _functional(r) and dom == s and ran == t
    if rs.arrow == "<<->>":
        return dom == s and ran == t
    raise EvalError(f"unknown relation arrow '{rs.arrow}'")


# --- Event-B transition relations ------------------------------------------

def _action_assignments(actions, state, env, var_types, u: Universe, budget: Budget):
    """All simultaneous result assignments for the actions at one valuation."""
    per_action: list[list[tuple[str, Value]]] = []
    for act in actions:
        target = act.target.name
        if isinstance(act, eb.BecomesEqual):
            val = _defined(eval_eb_expr, act.rhs, state, env, u)
            if val is False:  # undefined: no transition (a value may be 0)
                return
            per_action.append([(target, val)])
        else:
            prime = target + "'"
            choices = _solutions(
                [prime], lambda _k, _partial, _bound: u.values_of(var_types[target]),
                [(act.predicate, frozenset((0,)))],
                lambda p, bap_env: eb_pred_holds(p, state, bap_env, u),
                dict(env), budget.charge)
            if not choices:
                return
            per_action.append([(target, c[prime]) for c in choices])
    for combo in itertools.product(*per_action):
        yield dict(combo)


def _eb_post_states(actions, variables, u, budget, states):
    """``posts(a, env)`` yields each invariant state in ``states`` that one
    simultaneous execution of ``actions`` at (a, env) reaches: the object
    ``states`` holds, so that equal states are one object.

    Each action result is one unit of work.  ``states`` holds typed states
    only, so a result outside the bounded universe is dropped with the
    states that break the invariant.
    """
    var_types = {ident.name: ty for ident, ty in variables}
    index = {s: s for s in states}

    def posts(a, env):
        for assignment in _action_assignments(
                actions, a, env, var_types, u, budget):
            budget.charge()
            b = index.get(State({**a._d, **assignment}))
            if b is not None:
                yield b

    return posts


def eb_event_rel(event, states: frozenset, variables, u: Universe,
                 budget: Budget) -> frozenset:
    """The transition relation of an event over the invariant ``states``.

    A pair (a, b) of invariant states is included when some parameter
    valuation satisfies every guard at a and some after-value choice
    satisfies every action, with b equal to a overridden by the assigned
    values; or, when no parameter valuation satisfies the guards at a, the
    stuttering pair (a, a).  Parameters are bound most constrained first,
    each to the values its guards' bounds and pins allow at a, once per
    tuple of the values of the variables the guards read.
    """
    posts = _eb_post_states(event.actions, variables, u, budget, states)
    names = [ident.name for ident, _ty in event.params]
    conjs = [c for _lbl, g in event.guards for c in _eb_conjuncts(g)]
    guards = [(c, _positions(_eb_reads(c), names)) for c in conjs]
    plan = _bound_plan(names, [ty for _ident, ty in event.params], _placed(
        [(kind, name, e, _eb_reads(e)) for c in conjs
         for kind, name, e in _eb_bounds(c) + [
             ("pin", name, e) for name, e in _eb_pins(c)]], names))
    read = set().union(*(_eb_reads(c) for c in conjs))
    reads = [ident.name for ident, _ty in variables if ident.name in read]
    found: dict = {}
    rel: set[tuple[State, State]] = set()
    for a in states:
        key = _read(a, reads)
        sat_envs = found.get(key)
        if sat_envs is None:
            sat_envs = found[key] = _solutions(
                names, _bounded_domain(
                    plan, lambda e, env: eval_eb_expr(e, a, env, u), u),
                guards, lambda c, env: eb_pred_holds(c, a, env, u), {},
                budget.charge, first_fail=True)
        if not sat_envs:
            # the guard is unsatisfiable at a: only the stuttering pair
            rel.add((a, a))
        for env in sat_envs:
            for b in posts(a, env):
                rel.add((a, b))
    log.debug("%s Event-B relation: %d pre-states, %d parameter searches",
              event.name, len(states), len(found))
    return frozenset(rel)


def eb_event_rel_variants(event, states: frozenset, variables, u: Universe,
                          budget: Budget) -> tuple[frozenset, frozenset]:
    """``eb_event_rel`` twice: over invariant pre-states, adding the
    invariant to the stuttering branch changes nothing."""
    rel = eb_event_rel(event, states, variables, u, budget)
    return rel, rel


def eb_init_states(init_actions, states: frozenset, variables, u: Universe,
                   budget: Budget) -> frozenset:
    """The invariant ``states`` reachable by the initialisation."""
    posts = _eb_post_states(init_actions, variables, u, budget, states)
    return frozenset(posts(State(), {}))


# --- JML evaluation --------------------------------------------------------

def eval_jml_expr(e: jml.JmlExpr, pre: Mapping, state: Mapping, env: Mapping,
                  u: Universe) -> Value:
    """Evaluate with lookups in ``state``; \\old subterms switch to ``pre``."""
    if isinstance(e, jml.JmlVar):
        if e.name in env:
            return env[e.name]
        if e.name in state:
            return state[e.name]
        if e.name in u.carriers:
            return frozenset(u.carrier_elems(e.name))
        raise EvalError(f"unbound identifier '{e.name}'")
    if isinstance(e, jml.JmlOldExpr):
        return eval_jml_expr(e.expr, pre, pre, env, u)
    if isinstance(e, jml.JmlMethodCall):
        return _eval_jml_call(e, pre, state, env, u)
    if isinstance(e, jml.JmlIntLit):
        return e.value
    if isinstance(e, jml.JmlCross):
        left = _as_set(eval_jml_expr(e.left, pre, state, env, u), "cross")
        right = _as_set(eval_jml_expr(e.right, pre, state, env, u), "cross")
        return frozenset(itertools.product(left, right))
    if isinstance(e, jml.JmlNewSet):
        return frozenset(eval_jml_expr(i, pre, state, env, u) for i in e.items)
    if isinstance(e, jml.JmlNewRelation):
        return frozenset(
            eval_jml_expr(pair, pre, state, env, u) for pair in e.pairs)
    if isinstance(e, jml.JmlNewPair):
        return (eval_jml_expr(e.left, pre, state, env, u),
                eval_jml_expr(e.right, pre, state, env, u))
    if isinstance(e, jml.JmlArith):
        left = _as_int(eval_jml_expr(e.left, pre, state, env, u), e.op)
        right = _as_int(eval_jml_expr(e.right, pre, state, env, u), e.op)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        return left * right
    raise EvalError(f"cannot evaluate {type(e).__name__}")


def _eval_jml_call(e: jml.JmlMethodCall, pre, state, env, u) -> Value:
    recv = eval_jml_expr(e.recv, pre, state, env, u)
    args = [eval_jml_expr(a, pre, state, env, u) for a in e.args]
    m = e.method
    if m == "has":
        return args[0] in _as_set(recv, "has")
    if m == "isSubset":
        return _as_set(recv, "isSubset") <= _as_set(args[0], "isSubset")
    if m == "equals":
        return recv == args[0]
    if m == "isEmpty":
        return len(_as_set(recv, "isEmpty")) == 0
    if m == "isaFunction":
        return _functional(_as_rel(recv, "isaFunction"))
    if m == "union":
        return _as_set(recv, "union") | _as_set(args[0], "union")
    if m == "intersection":
        return _as_set(recv, "intersection") & _as_set(args[0], "intersection")
    if m == "difference":
        return _as_set(recv, "difference") - _as_set(args[0], "difference")
    if m == "domainSubtraction":
        s = _as_set(args[0], "domainSubtraction")
        return frozenset(p for p in _as_rel(recv, "domainSubtraction")
                         if p[0] not in s)
    if m == "domainRestriction":
        s = _as_set(args[0], "domainRestriction")
        return frozenset(p for p in _as_rel(recv, "domainRestriction")
                         if p[0] in s)
    if m == "image":
        s = _as_set(args[0], "image")
        return frozenset(y for x, y in _as_rel(recv, "image") if x in s)
    if m == "apply":
        matches = {y for x, y in _as_rel(recv, "apply") if x == args[0]}
        if len(matches) != 1:
            raise EvalError(f"apply undefined at {fmt_value(args[0])}")
        return next(iter(matches))
    if m == "domain":
        return frozenset(x for x, _y in _as_rel(recv, "domain"))
    if m == "range":
        return frozenset(y for _x, y in _as_rel(recv, "range"))
    raise EvalError(f"unknown method '{m}'")


def jml_pred_holds(p: jml.JmlPredicate, pre: Mapping, state: Mapping,
                   env: Mapping, u: Universe,
                   memo: Optional[WitnessMemo] = None) -> bool:
    """Truth of a JML predicate over a (pre, post) state pair.

    ``memo`` keeps the witnesses of each \\exists at one pre-state (see
    ``_exists_witnesses``) and charges their search to its Budget;
    evaluations given the same memo share both, and one given none starts
    a fresh memo metered at the universe's ceiling.  \\old is evaluated
    each time.
    """
    memo = memo if memo is not None else WitnessMemo(Budget(u.ceiling))
    if isinstance(p, jml.JmlBoolCall):
        v = eval_jml_expr(p.call, pre, state, env, u)
        if not isinstance(v, bool):
            raise EvalError(f"method '{p.call.method}' is not boolean-valued")
        return v
    if isinstance(p, jml.JmlTrue):
        return True
    if isinstance(p, jml.JmlFalse):
        return False
    if isinstance(p, jml.JmlAnd):
        return jml_pred_holds(p.left, pre, state, env, u, memo) and \
            jml_pred_holds(p.right, pre, state, env, u, memo)
    if isinstance(p, jml.JmlOr):
        return jml_pred_holds(p.left, pre, state, env, u, memo) or \
            jml_pred_holds(p.right, pre, state, env, u, memo)
    if isinstance(p, jml.JmlNot):
        return not jml_pred_holds(p.operand, pre, state, env, u, memo)
    if isinstance(p, jml.JmlParen):
        return jml_pred_holds(p.operand, pre, state, env, u, memo)
    if isinstance(p, jml.JmlOld):
        return jml_pred_holds(p.operand, pre, pre, env, u, memo)
    if isinstance(p, jml.JmlExists):
        rest, bindings = _exists_witnesses(p, pre, state is pre, env, u, memo)
        for inner in bindings:
            for c in rest:
                if not _defined(jml_pred_holds, c, pre, state, inner, u, memo):
                    break
            else:
                return True
        return False
    if isinstance(p, jml.JmlCmp):
        left = eval_jml_expr(p.left, pre, state, env, u)
        right = eval_jml_expr(p.right, pre, state, env, u)
        if p.op == "==":
            return left == right
        if p.op == "!=":
            return left != right
        if p.op == "<":
            return _as_int(left, "<") < _as_int(right, "<")
        if p.op == "<=":
            return _as_int(left, "<=") <= _as_int(right, "<=")
        raise EvalError(f"unknown comparison '{p.op}'")
    if isinstance(p, jml.JmlGuardCall):
        raise EvalError(
            f"guard method call '{p.method}()' must be inlined before evaluation")
    raise EvalError(f"cannot evaluate {type(p).__name__}")


def _jml_reads(p: jml.JmlPredicate) -> set[str]:
    """Every name ``p`` looks up, state variable or bound."""
    return {n.name for n in walk(p) if isinstance(n, jml.JmlVar)}


def _jml_pins(c: jml.JmlPredicate) -> list:
    """The (name, expression) pairs a JML conjunct ``x == E``, ``E == x``,
    ``x.equals(E)`` or ``E.equals(x)`` pins: x can take only the value of
    E."""
    if isinstance(c, jml.JmlCmp) and c.op == "==":
        left, right = c.left, c.right
    elif isinstance(c, jml.JmlBoolCall) and c.call.method == "equals" and \
            len(c.call.args) == 1:
        left, right = c.call.recv, c.call.args[0]
    else:
        return []
    return [(side.name, other)
            for side, other in ((left, right), (right, left))
            if isinstance(side, jml.JmlVar)]


def _exists_chain(p: jml.JmlExists, at_pre: bool, memo: WitnessMemo):
    """What ``_exists_witnesses`` searches for ``p``: the names that ``p``
    and the quantifiers directly nested in it bind, the pre-state
    conjuncts with the positions of the bound names they read, the
    conjuncts left to test, the bounds of each name (see ``_bound_plan``),
    whether the names may be bound most constrained first, and the names
    the pre-state conjuncts read from the outer binding or the pre-state.

    A bound comes from a pre-state conjunct ``S.has(x)`` or a pin (see
    ``_jml_bounds`` and ``_jml_pins``).  The names keep declaration order
    when one of them is bound twice, or is read by a conjunct outside its
    quantifier, where it means another binding: the search keeps one value
    per name.  Built once per quantifier and ``at_pre``, and kept in
    ``memo`` by the node's identity, with the node, so that the identity is
    not reused while ``memo`` lives.
    """
    key = (id(p), at_pre)
    if key in memo.chains:
        return memo.chains[key][0]
    names, types, tests, bounds = [], [], [], []
    outer: set[str] = set()
    node = p
    while True:
        names.append(node.var)
        types.append(node.ty)
        spine = jml.conjuncts(node.body)
        lead = 0
        for c in spine:
            if isinstance(c, jml.JmlOld):
                c = c.operand
            elif not at_pre or isinstance(c, jml.JmlExists):
                break
            for t in jml.conjuncts(c):
                reads = _jml_reads(t)
                outer |= reads - set(names)
                tests.append((t, _positions(reads, names)))
                bounds += _placed(
                    [(kind, name, e, _jml_reads(e)) for kind, name, e in
                     _jml_bounds(t) + [("pin", n, e) for n, e in _jml_pins(t)]],
                    names)
            lead += 1
        rest = tuple(spine[lead:])
        if len(rest) != 1 or not isinstance(rest[0], jml.JmlExists):
            break
        node = rest[0]
    chain = (tuple(names), tuple(tests), rest, _bound_plan(names, types, bounds),
             len(set(names)) == len(names) and not outer & set(names),
             tuple(sorted(outer)))
    memo.chains[key] = (chain, p)
    return chain


def _exists_witnesses(p: jml.JmlExists, pre, at_pre: bool, env, u, memo: WitnessMemo):
    """The witnesses of ``p`` that can still hold, with the conjuncts left
    to test; kept in ``memo`` per (node, ``at_pre``, binding ``env``) and
    the pre-state's values of the other names the search reads.

    The witnesses are found by ``_solutions``, the search that also binds
    Event-B parameters and after-values, and each value it tests is
    charged to the memo's Budget.  A body's conjuncts are evaluated
    left to right and a false or undefined one fails the witness, so a
    witness at which a leading pre-state conjunct does not hold fails at
    every post-state: dropping it is exact.  The pre-state conjuncts are the
    leading \\old ones, or every conjunct when ``at_pre`` says the post-state
    is the pre-state.  When the rest of a body is a single nested \\exists,
    the quantifiers are searched as one, most constrained name first, each
    name drawn from the values its pre-state conjuncts' bounds and pins
    allow, and each pre-state conjunct tested as soon as the names it reads
    are bound.

    Pre-states that agree on the names the conjuncts read outside their
    own binding (see ``_exists_chain``) share one search, which logs its
    undefined evaluations once; in a partial binding, a name not bound yet
    keys as absent.
    """
    names, tests, rest, plan, first_fail, reads = _exists_chain(p, at_pre, memo)
    key = (id(p), at_pre, frozenset(env.items()), _read(pre, reads))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (rest, _solutions(
            names, _bounded_domain(
                plan, lambda e, partial: eval_jml_expr(e, pre, pre, partial, u), u),
            tests, lambda c, e: jml_pred_holds(c, pre, pre, e, u, memo),
            dict(env), memo.budget.charge, first_fail))
    return hit


# --- JML transition relations ----------------------------------------------

def inline_guard_calls(p: jml.JmlPredicate,
                       guard_spec: jml.JmlMethodSpec) -> jml.JmlPredicate:
    """Replace calls of the guard method by its ensures right-hand side.

    The guard method is pure and its postcondition is an iff, so inlining
    the quantified guard predicate is exact.
    """
    if isinstance(p, jml.JmlGuardCall):
        return guard_spec.normal.ensures if p.method == guard_spec.name else p
    return map_children(p, lambda node: inline_guard_calls(node, guard_spec))


def _outside_frame(assignable, var_names: tuple[str, ...]) -> tuple[str, ...]:
    """The variables a specification case may not change."""
    if isinstance(assignable, jml.AssignNothing):
        return var_names
    return tuple(n for n in var_names if n not in assignable.names)


def _jml_bounds(c: jml.JmlPredicate) -> list:
    """The (kind, name, expression) bounds a JML conjunct states:
    ``x.isSubset(S)`` bounds x above and S below, ``r.domain()`` or
    ``r.range()`` with ``.isSubset(A)`` or ``.equals(A)`` bounds r's domain
    or range by A, and ``S.has(x)`` makes x a member of S."""
    if not isinstance(c, jml.JmlBoolCall) or len(c.call.args) != 1:
        return []
    recv, method, arg = c.call.recv, c.call.method, c.call.args[0]
    out = []
    if method == "has" and isinstance(arg, jml.JmlVar):
        out.append(("member", arg.name, recv))
    if method == "isSubset":
        if isinstance(recv, jml.JmlVar):
            out.append(("upper", recv.name, arg))
        if isinstance(arg, jml.JmlVar):
            out.append(("lower", arg.name, recv))
    if method in ("isSubset", "equals") and \
            isinstance(recv, jml.JmlMethodCall) and not recv.args and \
            recv.method in ("domain", "range") and isinstance(recv.recv, jml.JmlVar):
        out.append(("dom" if recv.method == "domain" else "ran", recv.recv.name, arg))
    return out


def jml_invariant_states(invariant: jml.JmlPredicate, variables, u: Universe,
                         budget: Budget) -> frozenset:
    """Typed states satisfying every conjunct of the class invariant; the
    conjunct tests share one witness memo, charged to ``budget``, so each
    quantifier is analysed once per enumeration."""
    conjs = jml.conjuncts(invariant)
    bounds = [(kind, name, e, _jml_reads(e))
              for c in conjs for kind, name, e in _jml_bounds(c)]
    memo = WitnessMemo(budget)
    return _invariant_states(
        variables, [(c, _jml_reads(c)) for c in conjs],
        lambda c, s: jml_pred_holds(c, s, s, {}, u, memo),
        bounds, lambda e, s: eval_jml_expr(e, s, s, {}, u), u, budget)


def spec_cases(run_spec: jml.JmlMethodSpec,
               guard_spec: jml.JmlMethodSpec) -> list[tuple]:
    """(requires, case) for each specification case of ``run_spec``, its
    requires clause with the guard method's calls inlined."""
    cases = [run_spec.normal]
    if run_spec.exceptional is not None:
        cases.append(run_spec.exceptional)
    return [(inline_guard_calls(case.requires, guard_spec), case)
            for case in cases]


def active_cases(cases, a: State, u: Universe, memo: WitnessMemo) -> list:
    """The ``cases``, each led by its inlined requires clause (see
    ``spec_cases``), whose requires clause holds at the pre-state ``a``, an
    undefined one not: a function of the values the clauses read."""
    return [case for case in cases
            if _defined(jml_pred_holds, case[0], a, a, {}, u, memo)]


def jml_method_rel(run_spec: jml.JmlMethodSpec, states: frozenset,
                   guard_spec: jml.JmlMethodSpec, variables, u: Universe,
                   budget: Budget) -> frozenset:
    """The transition relation admitted by a translated run method over the
    class-invariant ``states``.

    A pair (a, b) of invariant states is in the relation when, for each
    specification case whose requires clause holds in the pre-state, the
    ensures clause holds over (a, b) and b agrees with a outside the case's
    assignable set.  Guard-method calls in requires clauses are resolved by
    inlining the guard predicate.  The active cases are found once per
    tuple of the values the requires clauses read, as is each \\exists
    search's witnesses (see ``_exists_witnesses``).
    """
    memo = WitnessMemo(budget)
    var_names = tuple(ident.name for ident, _ty in variables)
    cases = []
    for req, case in spec_cases(run_spec, guard_spec):
        outside = _outside_frame(case.assignable, var_names)
        cases.append((req, case.ensures, outside,
                      _Lookup(case.ensures, outside, var_names, memo)))
    read = set().union(*(_jml_reads(case[0]) for case in cases))
    reads = [n for n in var_names if n in read]
    actives: dict = {}
    index: dict = {}

    rel: set[tuple[State, State]] = set()
    for a in states:
        key = _read(a, reads)
        active = actives.get(key)
        if active is None:
            active = actives[key] = active_cases(cases, a, u, memo)
        candidates = states
        if active:
            lookup = max((case[3] for case in active), key=lambda k: len(k.names))
            candidates = lookup.candidates(a, states, index, u, memo)
        for b in candidates:
            budget.charge()
            for _req, ensures, outside, _lookup in active:
                if any(a[v] != b[v] for v in outside) or \
                        not _defined(jml_pred_holds, ensures, a, b, {}, u, memo):
                    break
            else:
                rel.add((a, b))
    log.debug("%s JML relation: %d pre-states, %d witness searches",
              run_spec.name.removeprefix("run_"), len(states), len(memo))
    return frozenset(rel)


class _Lookup:
    """Post-state candidates for one specification case: a superset of the
    states it accepts from a pre-state.

    The key holds the names outside the case's frame, whose values come
    from the pre-state.  When the ensures clause is an \\exists chain, the
    key also holds the names its witnesses pin: a state variable ``v`` in
    the frame, not bound by the chain, with a remaining conjunct that pins
    it to an \\old expression (see ``_jml_pins``), such as
    ``v.equals(\\old(E))`` or ``v == \\old(E)`` (the first one per name).
    Every binding ``_exists_witnesses`` keeps then gives one lookup, with
    the values of those \\old expressions; a binding at which one of them is
    undefined fails the ensures clause and gives none.
    """

    def __init__(self, ensures, outside, var_names, memo: WitnessMemo):
        self.outside = outside
        self.exists = ensures if isinstance(ensures, jml.JmlExists) else None
        self.pins: dict[str, jml.JmlOldExpr] = {}
        if self.exists is not None:
            bound, _tests, rest, _plan, _order, _reads = _exists_chain(
                self.exists, False, memo)
            for c in rest:
                for target, value in _jml_pins(c):
                    if isinstance(value, jml.JmlOldExpr) and \
                            target in var_names and target not in outside and \
                            target not in bound:
                        self.pins.setdefault(target, value)
        self.names = outside + tuple(self.pins)

    def candidates(self, a: State, states, index: dict, u, memo: WitnessMemo):
        """The states matching ``a``'s lookups, from ``index`` (one table
        per key, built on first use)."""
        table = index.get(self.names)
        if table is None:
            table = index[self.names] = {}
            for s in states:
                table.setdefault(tuple(s[n] for n in self.names), []).append(s)
        fixed = tuple(a[n] for n in self.outside)
        if self.exists is None:
            return table.get(fixed, ())
        _rest, bindings = _exists_witnesses(self.exists, a, False, {}, u, memo)
        pins = tuple(self.pins.values())
        found: dict[State, None] = {}
        for binding in bindings:
            values = _defined(_old_values, pins, a, binding, u)
            if values is not False:
                found.update(dict.fromkeys(table.get(fixed + values, ())))
        return found


def _old_values(exprs, pre, env, u) -> tuple:
    return tuple(eval_jml_expr(e, pre, pre, env, u) for e in exprs)


def jml_initially_states(initially: jml.JmlPredicate, states: frozenset,
                         u: Universe, budget: Budget) -> frozenset:
    """The class-invariant ``states`` satisfying the initially clause."""
    memo = WitnessMemo(budget)
    out = set()
    for b in states:
        budget.charge()
        if _defined(jml_pred_holds, initially, b, b, {}, u, memo):
            out.add(b)
    return frozenset(out)


def guard_holds(guard_spec: jml.JmlMethodSpec, state: State, u: Universe) -> bool:
    """Whether the translated guard is satisfied in a state (pre = post)."""
    return _defined(jml_pred_holds, guard_spec.normal.ensures, state, state, {}, u)
