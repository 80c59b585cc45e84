"""Executable finite-universe semantics for machines and their translations.

States map variable names to exact values (integers, finite sets, pairs,
finite relations).  Event and method semantics are state-transition
relations computed by exhaustive enumeration over a configurable finite
universe, each a map from a pre-state to the frozenset of its post-states;
all arithmetic is exact, there are no tolerances.  The values of
every type, Event-B or JML, come from one function, ``Universe.values_of``,
which computes each type's values once per universe.

Every bound name, an invariant state's variable, an Event-B parameter or
after-value, and a JML \\exists witness, is bound by one backtracking
search, ``_solutions``, which tests each conjunct as soon as the names it
reads are bound.  Event-B parameters and \\exists witnesses are drawn from
the bounds and pins of their own side's pre-state conjuncts, most
constrained name first.  Every evaluation, on either side, runs in one
``Phase``: an invariant enumeration, a state set or a relation, which holds
the ``Budget`` each search charges for every value it tests.  A search for
\\exists witnesses, event parameters or active specification cases runs
once per tuple of the pre-state values it reads, kept while the phase
lasts; no phase keeps a state.  Event-B predicates and JML atoms are
compiled into closures once per phase, each operator bare: the
well-formedness gate typed the machine, and every state value comes from
its type.  A public evaluation given no phase, as of a hand-built tree,
opens a checked phase of its own for that call, which compiles each
operator once with the operand-kind tests of its side's signature table.

Evaluation can fail (an operand of the wrong kind in a checked phase, function
application at a non-functional point, unbound identifiers); a guard or
predicate whose evaluation fails counts as unsatisfied for that valuation,
and a deterministic action whose value fails gives no transition.
``_defined`` alone catches such a failure, logs it and gives False.
"""

from __future__ import annotations

import itertools
import logging
import operator
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

from . import ebast as eb
from . import jmlast as jml
from .nodes import children, map_children, walk

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

    def charge(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise ResourceLimitError(self.spent, self.limit)


class Phase(dict):
    """The context of one evaluation phase, on either side: the Budget that
    pays for its searches, its compiled expressions (see ``_compiled``),
    their form (``checked`` outside a checker phase), and on the JML side
    the \\exists witnesses of each quantifier, keyed by the values its search
    reads (see ``_exists_witnesses``), and its analysis (``_exists_chain``);
    all kept for as long as the phase lasts."""

    __slots__ = ("budget", "chains", "compiled", "checked")

    def __init__(self, budget: Budget, checked: bool = False):
        self.budget = budget
        self.chains: dict = {}
        self.compiled: dict = {}
        self.checked = checked


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
               first_fail: bool = False) -> Iterator[dict]:
    """Each extension of ``start`` binding ``names`` at which all conjuncts
    hold, found by backtracking and yielded as it is found.

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
    stack = [iter(((start, frozenset()),))] if all_hold(first, start) else []
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif len(node[1]) == len(names):
            yield node[0]
        else:
            stack.append(branches(*node))


def _invariant_states(variables, conjuncts, holds, bounds, value, u: Universe,
                      budget: Budget, known: frozenset = frozenset()) -> frozenset:
    """Typed states at which every conjunct holds; one equal to a state of
    ``known`` is that object.

    ``conjuncts`` pairs each conjunct with the variable names it reads.
    Variables are bound in declaration order, each to the values its
    ``bounds`` allow (see ``_bounded_domain``), and each conjunct is tested
    as soon as the last variable it reads is bound; each value test is
    charged to ``budget``.
    """
    names = [ident.name for ident, _ty in variables]
    plan = _bound_plan(names, [ty for _ident, ty in variables],
                       _placed(bounds, names))
    index = {s: s for s in known}
    return frozenset(index.get(s, s) for s in map(State, _solutions(
        names, _bounded_domain(plan, value, u),
        [(conj, _positions(reads, names)) for conj, reads in conjuncts],
        holds, {}, budget.charge)))


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
        element = isinstance(ty, _ELEMENT_TYPES)
        kinds = ("member", "pin") if element else ("upper", "lower", "pin") + (
            ("dom", "ran") if isinstance(ty, _RELATION_TYPES) else ())
        mine = [(kind, expr, reads) for kind, at, expr, reads in bounds
                if at == k and kind in kinds]
        plan.append((ty, element,
                     [(kind, expr) for kind, expr, reads in mine if not reads],
                     [bound for bound in mine if bound[2]]))
    return tuple(plan)


def _bounded_domain(plan, value, u: Universe, checked: bool = False):
    """``domain(k, partial, bound)`` for ``_solutions``: the typed values of
    the k-th name that its bounds allow (see ``_bound_plan``).

    ``value(expression, partial)`` evaluates a bound's expression, and with
    ``checked`` a set's bounds are tested to be sets.  A bound counts once
    every name it reads is bound; one that reads none is evaluated once.
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
                                static, partial, value, element, checked)
        allowed = fixed[k]
        if mine and allowed is not False:
            allowed = _defined(_pool, allowed, mine, partial, value, element, checked)
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


def _pool(start, bounds, partial, value, element: bool, checked: bool):
    """``start``, a pool of elements and a lower bound, narrowed by
    ``bounds`` at ``partial``: the elements every upper bound allows, and
    the union of the lower bounds.  A member bound is an upper bound; a pin
    is the one-value upper bound of an element, and both bounds of a set."""
    pool, lower = start
    for kind, expr in bounds:
        v = value(expr, partial)
        s = frozenset((v,)) if kind == "pin" and element else \
            _kind("set", "bound", v) if checked else v
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
    phase = Phase(budget)
    return _invariant_states(
        variables, conjuncts, lambda c, s: eb_pred_holds(c, s, {}, u, phase),
        bounds, lambda e, s: _compiled(_compile_eb, e, u, phase)(s, {}), u,
        budget)


# --- operators and their operand kinds -------------------------------------

def _kind(kind: Optional[str], label: str, v: Value) -> Value:
    """``v`` when it is of ``kind``, "set", "rel" (a set of pairs), "int",
    "bool" or None for any; else the EvalError that names ``label``."""
    if kind == "int" and (not isinstance(v, int) or isinstance(v, bool)):
        raise EvalError(f"{label} needs an integer value, got {fmt_value(v)}")
    if kind == "bool" and not isinstance(v, bool):
        raise EvalError(f"method '{label}' is not boolean-valued")
    if kind in ("set", "rel") and not isinstance(v, frozenset):
        raise EvalError(f"{label} needs a set value, got {fmt_value(v)}")
    if kind == "rel" and not all(isinstance(p, tuple) and len(p) == 2 for p in v):
        raise EvalError(f"{label} needs a relation value")
    return v


def _checked(label: str, kinds: tuple, operation):
    """``operation`` testing the kind of each operand (see ``_kind``) once
    all are evaluated: a set before a relation, else in operand order."""
    order = sorted((k for k, kind in enumerate(kinds) if kind),
                   key=lambda k: kinds[k] == "rel")
    def checked(*values):
        for k in order:
            _kind(kinds[k], label, values[k])
        return operation(*values)
    return checked if order else operation


def _tested(f, label: str, kind: str):
    """The closure ``f`` testing the kind of its value (see ``_kind``)."""
    return lambda *args: _kind(kind, label, f(*args))


def _compiled(compile, e, u: Universe, phase: Phase):
    """``compile(e, u, phase.checked)``, once per node of the ``phase``,
    kept in its table by the node's identity with the node, so that no
    identity is reused meanwhile; bare in a checker phase, as the gate
    typed the machine."""
    hit = phase.compiled.get(id(e))
    if hit is None:
        hit = phase.compiled[id(e)] = (compile(e, u, phase.checked), e)
    return hit[0]


def _unknown(message: str):
    """An operator whose every use is an EvalError saying ``message``."""
    def fail(*_values):
        raise EvalError(message)
    return fail


def _apply(f: frozenset, x: Value) -> Value:
    matches = {y for a, y in f if a == x}
    if len(matches) != 1:
        raise EvalError(f"apply undefined at {fmt_value(x)}")
    return next(iter(matches))


# --- Event-B evaluation ---------------------------------------------------

def _in_space(r: frozenset, s: frozenset, t: frozenset, arrow: str) -> bool:
    """Whether ``r`` is in the relation space ``s arrow t``."""
    if arrow not in ("<->", "-->", "-->>", "<<->>"):
        raise EvalError(f"unknown relation arrow '{arrow}'")
    dom, ran = frozenset(x for x, _y in r), frozenset(y for _x, y in r)
    return (dom <= s if arrow == "<->" else dom == s) and \
        (ran == t if arrow in ("-->>", "<<->>") else ran <= t) and \
        (arrow in ("<->", "<<->>") or len(dom) == len(r))


# each operator: its label in failure texts, operand kinds and operation
_EB_OPS = {
    "union": ("union", ("set", "set"), operator.or_),
    "inter": ("intersection", ("set", "set"), operator.and_),
    "diff": ("difference", ("set", "set"), operator.sub),
    "domsub": ("domain subtraction", ("set", "rel"),
               lambda s, r: frozenset(p for p in r if p[0] not in s)),
    "domres": ("domain restriction", ("set", "rel"),
               lambda s, r: frozenset(p for p in r if p[0] in s)),
    "cross": ("cartesian product", ("set", "set"),
              lambda a, b: frozenset(itertools.product(a, b))),
    "maplet": ("maplet", (None, None), lambda a, b: (a, b)),
    "image": ("image", ("rel", "set"), lambda r, s: frozenset(y for x, y in r if x in s)),
    "apply": ("application", ("rel", None), _apply),
    "add": ("+", ("int", "int"), operator.add),
    "sub": ("-", ("int", "int"), operator.sub),
    "mul": ("*", ("int", "int"), operator.mul),
    "dom": ("dom", ("rel",), lambda r: frozenset(x for x, _y in r)),
    "ran": ("ran", ("rel",), lambda r: frozenset(y for _x, y in r)),
    "eq": ("=", (None, None), operator.eq),
    "neq": ("/=", (None, None), operator.ne),
    "in": ("membership", (None, "set"), lambda x, s: x in s),
    "subset": ("subset", ("set", "set"), operator.le),
    "lt": ("<", ("int", "int"), operator.lt),
    "le": ("<=", ("int", "int"), operator.le),
    "relspace": ("relation membership", ("rel", "set", "set"), _in_space),
}
_EB_BARE = {name: operation for name, (_label, _kinds, operation) in _EB_OPS.items()}
_EB_CHECKED = {name: _checked(*entry) for name, entry in _EB_OPS.items()}


def eval_eb_expr(e: eb.Expr, state: Mapping, env: Mapping, u: Universe) -> Value:
    return _compile_eb(e, u, True)(state, env)


def _compile_eb(e, u: Universe, checked: bool):
    """``f(state, env)``, the value of the expression or predicate ``e``,
    its operators chosen now (after Feeley & Lapalme, "Using Closures for
    Code Generation", 1987) in their ``checked`` form or bare; a checked
    relation-space membership tests each operand as it is evaluated."""
    ops = _EB_CHECKED if checked else _EB_BARE
    if isinstance(e, eb.BTrue):
        return lambda state, env: True
    if isinstance(e, eb.Not):
        operand = _compile_eb(e.operand, u, checked)
        return lambda state, env: not operand(state, env)
    if isinstance(e, (eb.And, eb.Or)):
        left, right = _compile_eb(e.left, u, checked), _compile_eb(e.right, u, checked)
        if isinstance(e, eb.And):
            return lambda state, env: left(state, env) and right(state, env)
        return lambda state, env: left(state, env) or right(state, env)
    if isinstance(e, (eb.IntLit, eb.EmptySet)):
        value = e.value if isinstance(e, eb.IntLit) else frozenset()
        return lambda state, env: value
    if isinstance(e, eb.Ref):
        key = e.ident.key
        carrier = frozenset(u.carrier_elems(key)) \
            if not e.ident.primed and key in u.carriers else None

        def ref(state, env):
            if key in env:
                return env[key]
            if key in state:
                return state[key]
            if carrier is None:
                raise EvalError(f"unbound identifier '{key}'")
            return carrier
        return ref
    if isinstance(e, eb.IntSet):
        return lambda state, env: u.int_set()
    if isinstance(e, eb.SetEnum):
        items = [_compile_eb(i, u, checked) for i in e.items]
        return lambda state, env: frozenset([f(state, env) for f in items])
    if isinstance(e, eb.UnOp):
        operand = _compile_eb(e.operand, u, checked)
        op = ops.get(e.op) or _unknown(f"cannot evaluate operator '{e.op}'")
        return lambda state, env: op(operand(state, env))
    if isinstance(e, eb.Cmp) and e.op == "in" and isinstance(e.right, eb.RelSpace):
        label, kinds, holds = _EB_OPS["relspace"]
        arrow, parts = e.right.arrow, (e.left, e.right.left, e.right.right)
        r, s, t = [_tested(_compile_eb(x, u, True), label, kind) if checked
                   else _compile_eb(x, u, False) for x, kind in zip(parts, kinds)]
        return lambda state, env: holds(
            r(state, env), s(state, env), t(state, env), arrow)
    if isinstance(e, (eb.BinOp, eb.Cmp)):
        left, right = _compile_eb(e.left, u, checked), _compile_eb(e.right, u, checked)
        op = ops.get(e.op) or _unknown("cannot evaluate Cmp" if isinstance(e, eb.Cmp)
                                       else f"cannot evaluate operator '{e.op}'")
        return lambda state, env: op(left(state, env), right(state, env))
    return _unknown(f"cannot evaluate {type(e).__name__}")


def eb_pred_holds(p: eb.Predicate, state: Mapping, env: Mapping, u: Universe,
                  phase: Optional[Phase] = None) -> bool:
    """Exact truth value of a predicate; raises EvalError when undefined.
    It is compiled into ``phase`` (see ``_compiled``); given none, into a
    checked phase of its own, metered at the universe's ceiling."""
    phase = phase if phase is not None else Phase(Budget(u.ceiling), checked=True)
    return _compiled(_compile_eb, p, u, phase)(state, env)


# --- Event-B transition relations ------------------------------------------

def _action_assignments(actions, state, env, var_types, u: Universe, phase: Phase):
    """All simultaneous result assignments for the actions at one valuation."""
    per_action: list[list[tuple[str, Value]]] = []
    for act in actions:
        target = act.target.name
        if isinstance(act, eb.BecomesEqual):
            val = _defined(_compiled(_compile_eb, act.rhs, u, phase), state, env)
            if val is False:  # undefined: no transition (a value may be 0)
                return
            per_action.append([(target, val)])
        else:
            prime = target + "'"
            choices = list(_solutions(
                [prime], lambda _k, _partial, _bound: u.values_of(var_types[target]),
                [(act.predicate, frozenset((0,)))],
                lambda p, bap_env: eb_pred_holds(p, state, bap_env, u, phase),
                dict(env), phase.budget.charge))
            if not choices:
                return
            per_action.append([(target, c[prime]) for c in choices])
    for combo in itertools.product(*per_action):
        yield dict(combo)


def _eb_post_states(actions, variables, u, phase: Phase, states):
    """``posts(a, env)`` yields each invariant state in ``states`` that one
    simultaneous execution of ``actions`` at (a, env) reaches: the object
    ``states`` holds, so that equal states are one object.

    Each action result is one unit of work.  ``states`` holds typed states
    only, so a result outside the bounded universe is dropped with the
    states that break the invariant.
    """
    var_types = {ident.name: ty for ident, ty in variables}
    index = {s: s for s in states}
    charge = phase.budget.charge

    def posts(a, env):
        for assignment in _action_assignments(
                actions, a._d, env, var_types, u, phase):
            charge()
            b = index.get(State({**a._d, **assignment}))
            if b is not None:
                yield b

    return posts


def eb_event_rel(event, states: frozenset, variables, u: Universe,
                 budget: Budget) -> dict[State, frozenset]:
    """The transition relation of an event over the invariant ``states``:
    a map from each pre-state to its post-states, a pre-state with none
    left out, every state an object of ``states``.

    A pair (a, b) of invariant states is included when some parameter
    valuation satisfies every guard at a and some after-value choice
    satisfies every action, with b equal to a overridden by the assigned
    values; or, when no parameter valuation satisfies the guards at a, the
    stuttering pair (a, a).  Parameters are bound most constrained first,
    each to the values its guards' bounds and pins allow at a, once per
    tuple of the values of the variables the guards read.
    """
    phase = Phase(budget)
    posts = _eb_post_states(event.actions, variables, u, phase, states)
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
    rel: dict[State, frozenset] = {}
    for a in states:
        d = a._d
        key = _read(d, reads)
        sat_envs = found.get(key)
        if sat_envs is None:
            sat_envs = found[key] = list(_solutions(
                names, _bounded_domain(plan, lambda e, env: _compiled(
                    _compile_eb, e, u, phase)(d, env), u),
                guards, lambda c, env: eb_pred_holds(c, d, env, u, phase), {},
                budget.charge, first_fail=True))
        if not sat_envs:
            # the guard is unsatisfiable at a: only the stuttering pair
            rel[a] = frozenset((a,))
        elif bs := frozenset(b for env in sat_envs for b in posts(a, env)):
            rel[a] = bs
    log.debug("%s Event-B relation: %d pre-states, %d parameter searches",
              event.name, len(states), len(found))
    return rel


def eb_event_rel_variants(event, states: frozenset, variables, u: Universe,
                          budget: Budget) -> tuple[dict, dict]:
    """``eb_event_rel`` twice: over invariant pre-states, adding the
    invariant to the stuttering branch changes nothing."""
    rel = eb_event_rel(event, states, variables, u, budget)
    return rel, rel


def eb_init_states(init_actions, states: frozenset, variables, u: Universe,
                   budget: Budget) -> frozenset:
    """The invariant ``states`` reachable by the initialisation."""
    posts = _eb_post_states(init_actions, variables, u, Phase(budget), states)
    return frozenset(posts(State(), {}))


# --- JML evaluation --------------------------------------------------------

# each method (the receiver first), product, arithmetic operator and comparison
_JML_OPS = {
    "has": ("has", ("set", None), lambda s, x: x in s),
    "isSubset": ("isSubset", ("set", "set"), operator.le),
    "equals": ("equals", (None, None), operator.eq),
    "isEmpty": ("isEmpty", ("set",), lambda s: not s),
    "isaFunction": ("isaFunction", ("rel",), lambda r: len({x for x, _y in r}) == len(r)),
    "union": ("union", ("set", "set"), operator.or_),
    "intersection": ("intersection", ("set", "set"), operator.and_),
    "difference": ("difference", ("set", "set"), operator.sub),
    "domainSubtraction": ("domainSubtraction", ("rel", "set"),
                          lambda r, s: frozenset(p for p in r if p[0] not in s)),
    "domainRestriction": ("domainRestriction", ("rel", "set"),
                          lambda r, s: frozenset(p for p in r if p[0] in s)),
    "image": ("image", ("rel", "set"), lambda r, s: frozenset(y for x, y in r if x in s)),
    "apply": ("apply", ("rel", None), _apply),
    "domain": ("domain", ("rel",), lambda r: frozenset(x for x, _y in r)),
    "range": ("range", ("rel",), lambda r: frozenset(y for _x, y in r)),
    "cross": ("cross", ("set", "set"), lambda a, b: frozenset(itertools.product(a, b))),
    "+": ("+", ("int", "int"), operator.add),
    "-": ("-", ("int", "int"), operator.sub),
    "*": ("*", ("int", "int"), operator.mul),
    "==": ("==", (None, None), operator.eq),
    "!=": ("!=", (None, None), operator.ne),
    "<": ("<", ("int", "int"), operator.lt),
    "<=": ("<=", ("int", "int"), operator.le),
}
_JML_BARE = {name: operation for name, (_label, _kinds, operation) in _JML_OPS.items()}
_JML_CHECKED = {name: _checked(*entry) for name, entry in _JML_OPS.items()}


def eval_jml_expr(e: jml.JmlExpr, pre: Mapping, state: Mapping, env: Mapping,
                  u: Universe) -> Value:
    """Evaluate with lookups in ``state``; \\old subterms switch to ``pre``."""
    return _compile_jml(e, u, True)(pre, state, env)


def _compile_jml(e, u: Universe, checked: bool):
    """``f(pre, state, env)``, the value of ``e``, as ``_compile_eb`` has it;
    checked, the product and arithmetic test each operand as evaluated."""
    ops = _JML_CHECKED if checked else _JML_BARE
    if isinstance(e, jml.JmlVar):
        name = e.name
        carrier = frozenset(u.carrier_elems(name)) if name in u.carriers else None

        def var(pre, state, env):
            if name in env:
                return env[name]
            if name in state:
                return state[name]
            if carrier is None:
                raise EvalError(f"unbound identifier '{name}'")
            return carrier
        return var
    if isinstance(e, jml.JmlOldExpr):
        inner = _compile_jml(e.expr, u, checked)
        return lambda pre, state, env: inner(pre, pre, env)
    if isinstance(e, jml.JmlMethodCall):
        recv = _compile_jml(e.recv, u, checked)
        args = [_compile_jml(a, u, checked) for a in e.args]
        method = ops.get(e.method) or _unknown(f"unknown method '{e.method}'")
        if len(args) == 1:
            arg = args[0]
            return lambda pre, state, env: method(
                recv(pre, state, env), arg(pre, state, env))
        return lambda pre, state, env: method(
            recv(pre, state, env), *[a(pre, state, env) for a in args])
    if isinstance(e, jml.JmlBoolCall):
        call = _compile_jml(e.call, u, checked)
        return _tested(call, e.call.method, "bool") if checked else call
    if isinstance(e, jml.JmlIntLit):
        value = e.value
        return lambda pre, state, env: value
    if isinstance(e, (jml.JmlCross, jml.JmlArith)):
        label, kinds, op = _JML_OPS["cross" if isinstance(e, jml.JmlCross) else e.op]
        left, right = _compile_jml(e.left, u, checked), _compile_jml(e.right, u, checked)
        if checked:
            left, right = _tested(left, label, kinds[0]), _tested(right, label, kinds[1])
        return lambda pre, state, env: op(left(pre, state, env), right(pre, state, env))
    if isinstance(e, jml.JmlCmp):
        left, right = _compile_jml(e.left, u, checked), _compile_jml(e.right, u, checked)
        op = ops.get(e.op) or _unknown(f"unknown comparison '{e.op}'")
        return lambda pre, state, env: op(left(pre, state, env), right(pre, state, env))
    if isinstance(e, (jml.JmlNewSet, jml.JmlNewRelation)):
        items = [_compile_jml(i, u, checked) for i in (
            e.items if isinstance(e, jml.JmlNewSet) else e.pairs)]
        return lambda pre, state, env: frozenset([f(pre, state, env) for f in items])
    if isinstance(e, jml.JmlNewPair):
        left, right = _compile_jml(e.left, u, checked), _compile_jml(e.right, u, checked)
        return lambda pre, state, env: (left(pre, state, env), right(pre, state, env))
    return _unknown(f"cannot evaluate {type(e).__name__}")


def jml_pred_holds(p: jml.JmlPredicate, pre: Mapping, state: Mapping,
                   env: Mapping, u: Universe, phase: Optional[Phase] = None) -> bool:
    """Truth of a JML predicate over a (pre, post) state pair.

    ``phase`` keeps the witnesses of each \\exists at one pre-state (see
    ``_exists_witnesses``) and the compiled atoms (see ``_compiled``), and
    charges the searches to its Budget; evaluations given the same phase
    share all three, and one given none opens a checked phase of its own,
    metered at the universe's ceiling.  \\old is evaluated each time.
    """
    phase = phase if phase is not None else Phase(Budget(u.ceiling), checked=True)
    if isinstance(p, jml.JmlBoolCall):
        return _compiled(_compile_jml, p, u, phase)(pre, state, env)
    if isinstance(p, jml.JmlTrue):
        return True
    if isinstance(p, jml.JmlFalse):
        return False
    if isinstance(p, jml.JmlAnd):
        return jml_pred_holds(p.left, pre, state, env, u, phase) and \
            jml_pred_holds(p.right, pre, state, env, u, phase)
    if isinstance(p, jml.JmlOr):
        return jml_pred_holds(p.left, pre, state, env, u, phase) or \
            jml_pred_holds(p.right, pre, state, env, u, phase)
    if isinstance(p, jml.JmlNot):
        return not jml_pred_holds(p.operand, pre, state, env, u, phase)
    if isinstance(p, jml.JmlParen):
        return jml_pred_holds(p.operand, pre, state, env, u, phase)
    if isinstance(p, jml.JmlOld):
        return jml_pred_holds(p.operand, pre, pre, env, u, phase)
    if isinstance(p, jml.JmlExists):
        rest, bindings = _exists_witnesses(p, pre, state is pre, env, u, phase)
        return _some_binding_holds(rest, bindings, pre, state, u, phase)
    if isinstance(p, jml.JmlCmp):
        return _compiled(_compile_jml, p, u, phase)(pre, state, env)
    if isinstance(p, jml.JmlGuardCall):
        raise EvalError(
            f"guard method call '{p.method}()' must be inlined before evaluation")
    raise EvalError(f"cannot evaluate {type(p).__name__}")


def _some_binding_holds(rest, bindings, pre, state, u, phase: Phase) -> bool:
    """The \\exists rule: whether some binding of ``bindings`` satisfies
    every conjunct of ``rest`` over (``pre``, ``state``), where an undefined
    conjunct fails that binding."""
    for binding in bindings:
        for c in rest:
            if not _defined(jml_pred_holds, c, pre, state, binding, u, phase):
                break
        else:
            return True
    return False


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


def _exists_chain(p: jml.JmlExists, at_pre: bool, phase: Phase):
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
    ``phase`` by the node's identity, with the node, so that the identity is
    not reused while ``phase`` lives.
    """
    key = (id(p), at_pre)
    if key in phase.chains:
        return phase.chains[key][0]
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
    phase.chains[key] = (chain, p)
    return chain


def _exists_witnesses(p: jml.JmlExists, pre, at_pre: bool, env, u, phase: Phase):
    """The witnesses of ``p`` that can still hold, with the conjuncts left
    to test; kept in ``phase`` per (node, ``at_pre``, binding ``env``) and
    the pre-state's values of the other names the search reads.

    The witnesses are found by ``_solutions``, the search that also binds
    Event-B parameters and after-values, and each value it tests is
    charged to the phase's Budget.  A body's conjuncts are evaluated
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
    names, tests, rest, plan, first_fail, reads = _exists_chain(p, at_pre, phase)
    key = (id(p), at_pre, frozenset(env.items()), _read(pre, reads))
    hit = phase.get(key)
    if hit is None:
        hit = phase[key] = (rest, list(_solutions(
            names, _bounded_domain(plan, lambda e, partial: _compiled(
                _compile_jml, e, u, phase)(pre, pre, partial), u, phase.checked),
            tests, lambda c, e: jml_pred_holds(c, pre, pre, e, u, phase),
            dict(env), phase.budget.charge, first_fail)))
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
                         budget: Budget, shared: frozenset = frozenset()) -> frozenset:
    """Typed states satisfying every conjunct of the class invariant, one
    equal to a state of ``shared`` kept as that object; the conjunct tests
    share one phase, charged to ``budget``, so each quantifier is analysed
    and each atom compiled once per enumeration."""
    conjs = jml.conjuncts(invariant)
    bounds = [(kind, name, e, _jml_reads(e))
              for c in conjs for kind, name, e in _jml_bounds(c)]
    phase = Phase(budget)
    return _invariant_states(
        variables, [(c, _jml_reads(c)) for c in conjs],
        lambda c, s: jml_pred_holds(c, s, s, {}, u, phase), bounds,
        lambda e, s: _compiled(_compile_jml, e, u, phase)(s, s, {}), u,
        budget, shared)


def spec_cases(run_spec: jml.JmlMethodSpec,
               guard_spec: jml.JmlMethodSpec) -> list[tuple]:
    """(requires, case) for each specification case of ``run_spec``, its
    requires clause with the guard method's calls inlined."""
    return [(inline_guard_calls(case.requires, guard_spec), case)
            for case in (run_spec.normal, run_spec.exceptional) if case is not None]


def active_cases(cases, a: State, u: Universe, phase: Phase) -> list:
    """The ``cases``, each led by its inlined requires clause (see
    ``spec_cases``), whose requires clause holds at the pre-state ``a``, an
    undefined one not: a function of the values the clauses read."""
    return [case for case in cases
            if _defined(jml_pred_holds, case[0], a, a, {}, u, phase)]


def jml_method_rel(run_spec: jml.JmlMethodSpec, states: frozenset,
                   guard_spec: jml.JmlMethodSpec, variables, u: Universe,
                   budget: Budget) -> dict[State, frozenset]:
    """The transition relation admitted by a translated run method over the
    class-invariant ``states``: a map from each pre-state to its
    post-states, a pre-state with none left out, every state an object of
    ``states``; pre-states that accept all of a group (or ``states``) share one set.

    A pair (a, b) of invariant states is in the relation when, for each
    specification case whose requires clause holds in the pre-state, the
    ensures clause holds over (a, b) and b agrees with a outside the case's
    assignable set.  Guard-method calls in requires clauses are inlined.
    The active cases and their pre-state ensures conjuncts (see ``_at_pre``)
    are decided once per tuple of the values they read, as is each \\exists
    search's witnesses (see ``_exists_witnesses``); a conjunction holds when
    each conjunct does, in any order, so no candidate passes where one of
    those fails.  Elsewhere each candidate of the active case with the most
    names (see ``_Lookup``) is tested against the other active cases' frames
    and the post-state conjuncts alone.  Every candidate is charged.
    """
    phase = Phase(budget)
    var_names = tuple(ident.name for ident, _ty in variables)
    cases = [(req, _Lookup(case, var_names, phase))
             for req, case in spec_cases(run_spec, guard_spec)]
    read = set().union(*(_jml_reads(p) for r, c in cases for p in (r, *c.pre)))
    reads = [n for n in var_names if n in read]
    actives: dict = {}
    index: dict = {}
    groups = {id(states): states}  # by id: states and table lists outlive the loop

    rel: dict[State, frozenset] = {}
    for a in states:
        key = _read(a, reads)
        if key not in actives:
            active = [case for _req, case in active_cases(cases, a, u, phase)]
            actives[key] = active, all(_defined(jml_pred_holds, c, a, a, {}, u, phase)
                                       for case in active for c in case.pre)
        active, holds = actives[key]
        lookup = max(active, key=lambda k: len(k.names), default=None)
        candidates = lookup.candidates(a, states, index, u, phase) if lookup else states
        pre, found = a._d, candidates if isinstance(candidates, dict) else None
        frames = [(c.frame, c.frame(pre)) for c in active if c is not lookup]
        bs = []
        for b in candidates:
            budget.charge()
            if not holds or frames and any(f(b._d) != v for f, v in frames):
                continue
            for case in active:
                if case.post and not (
                        _some_binding_holds(case.rest, found[b], pre, b._d, u, phase)
                        if case is lookup and found is not None and b is not a else
                        all(_defined(jml_pred_holds, c, pre, b._d, {}, u, phase)
                            for c in case.post)):
                    break
            else:
                bs.append(b)
        if bs:
            whole = len(bs) == len(candidates) and type(candidates) in (list, frozenset)
            rel[a] = (groups.get(id(candidates)) or groups.setdefault(
                id(candidates), frozenset(bs))) if whole else frozenset(bs)
    log.debug("%s JML relation: %d pre-states, %d witness searches",
              run_spec.name.removeprefix("run_"), len(states), len(phase))
    return rel


def _values(names: tuple):
    """The values of ``names`` in a dict, through itemgetter: a tuple, or
    with one name its value."""
    return operator.itemgetter(*names) if names else lambda d: ()


def _at_pre(p) -> bool:
    """Whether ``p`` reads and binds no name outside \\old: a pre-state conjunct."""
    return isinstance(p, (jml.JmlOld, jml.JmlOldExpr)) or not isinstance(
        p, (jml.JmlVar, jml.JmlExists)) and all(map(_at_pre, children(p)))


class _Lookup:
    """A specification case, its ensures conjuncts split by ``_at_pre``, and
    its post-state candidates from a pre-state: a superset of the states the
    case accepts from it.

    The key holds the names outside the case's frame, whose values come
    from the pre-state.  When the ensures clause is an \\exists chain, the
    key also holds the names its witnesses pin: a state variable ``v`` in
    the frame, not bound by the chain, with a remaining conjunct that pins
    it to an \\old expression (see ``_jml_pins``), such as
    ``v.equals(\\old(E))`` or ``v == \\old(E)`` (the first one per name).
    Every binding ``_exists_witnesses`` keeps then gives one lookup, with
    the values of those \\old expressions; a binding at which one of them is
    undefined fails the ensures clause and gives none.  An empty frame with
    no \\exists leaves the pre-state as the one candidate.
    """

    def __init__(self, case: jml.SpecCase, var_names, phase: Phase):
        ensures = case.ensures
        self.pre = [c for c in jml.conjuncts(ensures) if _at_pre(c)]
        self.post = [c for c in jml.conjuncts(ensures) if not _at_pre(c)]
        outside = _outside_frame(case.assignable, var_names)
        self.frame = _values(outside)
        self.exists = ensures if isinstance(ensures, jml.JmlExists) else None
        self.pins: dict[str, jml.JmlOldExpr] = {}
        if self.exists is not None:
            bound, _tests, self.rest, _plan, _order, _reads = _exists_chain(
                self.exists, False, phase)
            for c in self.rest:
                for target, value in _jml_pins(c):
                    if isinstance(value, jml.JmlOldExpr) and \
                            target in var_names and target not in outside and \
                            target not in bound:
                        self.pins.setdefault(target, value)
        self.names = outside + tuple(self.pins)
        self.key = _values(self.names)
        self.only_pre = self.exists is None and len(outside) == len(var_names)

    def candidates(self, a: State, states, index: dict, u, phase: Phase):
        """The states matching ``a``'s lookups, from ``index`` (one table
        per key, built on first use); with \\exists, each with its bindings."""
        if self.only_pre:
            return (a,)
        table = index.get(self.names)
        if table is None:
            table = index[self.names] = {}
            for s in states:
                table.setdefault(self.key(s._d), []).append(s)
        if self.exists is None:
            return table.get(self.key(a._d), ())
        _rest, bindings = _exists_witnesses(self.exists, a._d, False, {}, u, phase)
        pins = [_compiled(_compile_jml, e, u, phase) for e in self.pins.values()]
        found: dict[State, list] = {}
        for binding in bindings:
            values = _defined(lambda: [f(a._d, a._d, binding) for f in pins])
            if values is not False:
                wanted = {**a._d, **dict(zip(self.pins, values))}
                for b in table.get(self.key(wanted), ()):
                    found.setdefault(b, []).append(binding)
        return found


def jml_initially_states(initially: jml.JmlPredicate, states: frozenset,
                         u: Universe, budget: Budget) -> frozenset:
    """The class-invariant ``states`` satisfying the initially clause."""
    phase = Phase(budget)
    out = set()
    for b in states:
        budget.charge()
        if _defined(jml_pred_holds, initially, b._d, b._d, {}, u, phase):
            out.add(b)
    return frozenset(out)


def guard_holds(guard_spec: jml.JmlMethodSpec, state: State, u: Universe) -> bool:
    """Whether the translated guard is satisfied in a state (pre = post), in
    a phase of its own: the checker explains a witness of a typed machine."""
    return _defined(jml_pred_holds, guard_spec.normal.ensures, state, state, {}, u,
                    Phase(Budget(u.ceiling)))
