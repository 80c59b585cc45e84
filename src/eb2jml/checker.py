"""Exhaustive refinement check: every JML transition of the translated
specification must be a transition of the source event (and likewise for
initialisation).  Verdicts are computed by literal subset containment of
the two enumerated relations, so a PASS is re-checkable by brute force.
"""

from __future__ import annotations

import functools
import heapq
import logging
import time
from dataclasses import dataclass, fields, replace
from typing import Optional

from . import ebast as eb
from . import jmlast as jml
from .ebast import Machine
from .nodes import map_children, walk
from .semantics import (
    Budget, ResourceLimitError, State, Universe, WitnessMemo, active_cases,
    eb_event_rel_variants, eb_init_states, eb_invariant_states, fmt_value,
    guard_holds, jml_initially_states, jml_invariant_states, jml_method_rel,
    spec_cases,
)
from .translate import TranslationUnit, translate_machine

log = logging.getLogger(__name__)

PASS = "PASS"
FAIL = "FAIL"
RESOURCE_LIMIT = "RESOURCE_LIMIT"

MUTATIONS = ("drop_old", "widen_ensures_true", "shrink_assignable",
             "negate_guard_link")


class MutationError(Exception):
    pass


@dataclass(frozen=True)
class Counterexample:
    event: str
    pre: Optional[State]  # None for initialisation (state sets, not pairs)
    post: State
    jml_side: str
    eb_side: str

    def __str__(self) -> str:
        if self.pre is None:
            return (f"{self.event}: state {self.post!r}\n"
                    f"  jml: {self.jml_side}\n  eb:  {self.eb_side}")
        return (f"{self.event}: {self.pre!r} -> {self.post!r}\n"
                f"  jml: {self.jml_side}\n  eb:  {self.eb_side}")


@dataclass(frozen=True)
class Verdict:
    name: str
    status: str
    checked_pairs: int
    jml_size: Optional[int] = None
    eb_size: Optional[int] = None
    bisimulation: Optional[bool] = None      # informational: eb side also contained?
    detail: str = ""
    witnesses: tuple[Counterexample, ...] = ()


@dataclass(frozen=True)
class Report:
    machine: str
    universe: Universe
    verdicts: tuple[Verdict, ...]
    elapsed: float

    @property
    def status(self) -> str:
        statuses = {v.status for v in self.verdicts}
        if RESOURCE_LIMIT in statuses:
            return RESOURCE_LIMIT
        if FAIL in statuses:
            return FAIL
        return PASS

    def to_text(self) -> str:
        lines = [f"machine {self.machine}", self._universe_line()]
        for v in self.verdicts:
            lines.append("")
            lines.append(f"{v.name}: {v.status}")
            if v.jml_size is not None:
                lines.append(f"  jml transitions: {v.jml_size}   "
                             f"eb transitions: {v.eb_size}   "
                             f"checked: {v.checked_pairs}")
            if v.bisimulation is not None:
                lines.append(f"  bisimulation (informational): "
                             f"{'yes' if v.bisimulation else 'no'}")
            if v.detail:
                lines.append(f"  {v.detail}")
            for w in v.witnesses:
                lines.append("  witness " + str(w).replace("\n", "\n  "))
        lines.append("")
        lines.append(f"overall: {self.status} ({self.elapsed:.2f}s)")
        return "\n".join(lines) + "\n"

    def _universe_line(self) -> str:
        carriers = " ".join(
            f"{n}={s}" for n, s in sorted(self.universe.carriers.items()))
        extra = f" {carriers}" if carriers else ""
        return (f"universe: int [{self.universe.int_lo}, {self.universe.int_hi}]"
                f"{extra} ceiling={self.universe.ceiling}")

    def to_tree(self) -> dict:
        def state_dict(s: Optional[State]):
            if s is None:
                return None
            return {k: fmt_value(v) for k, v in sorted(s.items())}

        return {
            "machine": self.machine,
            "universe": {**_fields(self.universe),
                         "carriers": dict(sorted(self.universe.carriers.items()))},
            "verdicts": [
                {**_fields(v), "witnesses": [
                    {**_fields(w), "pre": state_dict(w.pre), "post": state_dict(w.post)}
                    for w in v.witnesses]}
                for v in self.verdicts
            ],
            "overall": self.status,
            "elapsed": self.elapsed,
        }


def _fields(record) -> dict:
    """A dataclass record's fields by name, in declaration order, but for
    those left out of its repr."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.repr}


def universe_for(machine: Machine, universe: Universe) -> Universe:
    """``universe``, or a copy of it, covering every carrier set of the machine."""
    return universe.with_carriers(machine.carrier_sets)


@dataclass(frozen=True)
class StateSpaces:
    """The invariant states of each side, each found by its own evaluator,
    or the enumeration phase that hit the ceiling, with the work it needed
    and the ceiling."""

    eb: frozenset = frozenset()
    jml: frozenset = frozenset()
    limit: Optional[tuple[str, int, int]] = None


def state_spaces(machine: Machine, unit: TranslationUnit,
                 universe: Universe) -> StateSpaces:
    """Enumerate the Event-B invariant states and, separately, the states
    satisfying the rendered class invariant; a state that both sides
    accept is kept as one object, the Event-B side's."""
    u = universe_for(machine, universe)
    phase = "Event-B invariant enumeration"
    try:
        eb_states = eb_invariant_states(machine.invariants, machine.variables,
                                        u, Budget(u.ceiling))
        phase = "JML invariant enumeration"
        jml_states = jml_invariant_states(unit.result.class_invariant,
                                          machine.variables, u, Budget(u.ceiling))
    except ResourceLimitError as exc:
        return StateSpaces(limit=(phase, exc.count, exc.ceiling))
    index = {s: s for s in eb_states}
    jml_states = frozenset(index.get(s, s) for s in jml_states)
    log.debug("invariant states: %d Event-B, %d JML, %d shared", len(eb_states),
              len(jml_states), sum(s in index for s in jml_states))
    return StateSpaces(eb_states, jml_states)


def check_event(event: eb.Event, machine: Machine, universe: Universe,
                unit: Optional[TranslationUnit] = None,
                witness_cap: int = 5,
                spaces: Optional[StateSpaces] = None) -> Verdict:
    """PASS iff the translated event's JML relation is contained in the
    Event-B relation of the source event; FAIL collects witness pairs.

    Both relations are built over invariant pre-states only: a JML pair
    needs the class invariant at both ends, so an Event-B pair whose
    pre-state violates the invariant can never witness anything.
    """
    return _verdict(event, machine, universe, unit, witness_cap, spaces)


def check_init(machine: Machine, universe: Universe,
               unit: Optional[TranslationUnit] = None,
               witness_cap: int = 5,
               spaces: Optional[StateSpaces] = None) -> Verdict:
    """PASS iff every state satisfying initially-and-invariant is an
    invariant-respecting result of the source initialisation."""
    return _verdict(None, machine, universe, unit, witness_cap, spaces)


def _verdict(event: Optional[eb.Event], machine: Machine, universe: Universe,
             unit: Optional[TranslationUnit], witness_cap: int,
             spaces: Optional[StateSpaces]) -> Verdict:
    """The verdict on ``event``, or on the initialisation when it is None.

    The JML side and then the Event-B side are built on one Budget, whose
    spending is the verdict's ``checked`` count.  The first phase to pass
    the ceiling, an invariant enumeration or one of the two sides, makes
    the verdict a RESOURCE_LIMIT that names it.  A FAIL explains the first
    ``witness_cap`` of the sorted missing transitions, each explanation on
    its own Budget.  They are selected with a heap, not by sorting every
    missing transition, and each state's sort key is computed once.
    """
    if witness_cap < 0:
        raise ValueError(f"witness_cap must be at least 0, got {witness_cap}")
    unit = unit if unit is not None else translate_machine(machine)
    u = universe_for(machine, universe)
    spaces = spaces if spaces is not None else state_spaces(machine, unit, u)
    variables = machine.variables
    state_key = functools.cache(State.sort_key)
    if event is None:
        name, subject = "initialisation", "initialisation's {} state set"
        key, explain = state_key, lambda s: Counterexample(
            name, None, s, "satisfies the initially clause and the class invariant",
            "not a result of the Event-B initialisation")
        jml_side, eb_side = (
            lambda budget: jml_initially_states(
                unit.result.initially, spaces.jml, u, budget),
            lambda budget: eb_init_states(
                machine.initialisation, spaces.eb, variables, u, budget))
    else:
        name, subject = event.name, f"event {event.name}'s {{}} relation"
        guard_spec, run_spec = unit.method_pair(event.name)
        key, explain = (lambda pair: (state_key(pair[0]), state_key(pair[1])),
                        functools.partial(_explain_pair, event, guard_spec,
                                          run_spec, u))
        jml_side, eb_side = (
            lambda budget: jml_method_rel(
                run_spec, spaces.jml, guard_spec, variables, u, budget),
            lambda budget: eb_event_rel_variants(
                event, spaces.eb, variables, u, budget)[0])
    limit = spaces.limit
    if limit is None:
        budget = Budget(u.ceiling)
        try:
            phase = subject.format("JML")
            found = jml_side(budget)
            phase = subject.format("Event-B")
            allowed = eb_side(budget)
        except ResourceLimitError as exc:
            limit = (phase, exc.count, exc.ceiling)
    if limit is not None:
        phase, count, ceiling = limit
        return Verdict(name=name, status=RESOURCE_LIMIT, checked_pairs=count,
                       detail=f"{phase} needs {count} work units, "
                              f"exceeding the ceiling of {ceiling}")
    missing = found - allowed
    return Verdict(
        name=name,
        status=PASS if not missing else FAIL,
        checked_pairs=budget.spent,
        jml_size=len(found),
        eb_size=len(allowed),
        bisimulation=allowed <= found,
        witnesses=tuple(explain(m) for m in
                        heapq.nsmallest(witness_cap, missing, key=key)),
    )


def _explain_pair(event, guard_spec, run_spec, u, pair) -> Counterexample:
    """Why the pair is a JML transition but no Event-B one: whether the
    guard is true, false or undefined at its pre-state, and which
    specification cases are active there and so accept the pair."""
    a, b = pair
    normal = guard_spec.normal
    negated = replace(guard_spec, normal=replace(
        normal, ensures=jml.JmlNot(normal.ensures)))
    if guard_holds(guard_spec, a, u):
        guard = "true"
        eb_side = ("the guard is satisfiable, so stuttering is not available, "
                   "and no action valuation produces this post-state")
    elif guard_holds(negated, a, u):
        guard = "false"
        eb_side = "with the guard unsatisfiable only the pair (a, a) is allowed"
    else:
        guard = "undefined"
        eb_side = ("the guard is undefined at the pre-state, which counts as "
                   "false, so only the pair (a, a) is allowed")
    active = active_cases(spec_cases(run_spec, guard_spec), a, u,
                          WitnessMemo(Budget(u.ceiling)))
    accepts = "; ".join(
        "the normal case's ensures and frame accept this pair"
        if case is run_spec.normal else "the exceptional case accepts this pair"
        for _requires, case in active)
    jml_side = (f"guard_{event.name}() is {guard} at the pre-state; {accepts}"
                if accepts else
                f"guard_{event.name}() is {guard} at the pre-state, so neither "
                f"requires clause holds and no case constrains this pair")
    return Counterexample(event.name, a, b, jml_side, eb_side)


def check_machine(machine: Machine, universe: Universe,
                  unit: Optional[TranslationUnit] = None,
                  witness_cap: int = 5) -> Report:
    """Aggregate verdicts for the initialisation and every event.

    Each side's invariant states are enumerated once and shared by all
    verdicts; if that enumeration hits the ceiling, every verdict reports
    it.  A resource limit on one event is recorded in its verdict and does
    not stop the remaining checks.  The gate rejects an ill-formed machine;
    a ``unit`` that does not translate ``machine`` is a ValueError.
    """
    if unit is not None and unit.source != machine:
        raise ValueError(f"the unit does not translate '{machine.name}'")
    started = time.perf_counter()
    unit = unit if unit is not None else translate_machine(machine)
    u = universe_for(machine, universe)
    spaces = state_spaces(machine, unit, u)
    verdicts = [check_init(machine, u, unit, witness_cap, spaces)]
    for event in machine.events:
        verdicts.append(check_event(event, machine, u, unit, witness_cap, spaces))
    elapsed = time.perf_counter() - started
    # the report keeps the bounds, not the value domains computed for them
    return Report(machine=machine.name, universe=replace(u, _cache={}),
                  verdicts=tuple(verdicts), elapsed=elapsed)


# --- mutation hooks (negative tests for the checker itself) -----------------

def _contains_old(node) -> bool:
    return any(isinstance(n, (jml.JmlOld, jml.JmlOldExpr)) for n in walk(node))


def _drop_old(p: jml.JmlPredicate) -> jml.JmlPredicate:
    """Replace every pre-state-dependent conjunct with true.

    Walking the conjunction spine (through quantifiers and grouping), any
    element whose subtree mentions \\old loses its constraint entirely;
    post-state-only conjuncts are kept.  Returns ``p`` itself when nothing
    mentions \\old.
    """
    if isinstance(p, (jml.JmlAnd, jml.JmlExists, jml.JmlParen)):
        return map_children(p, _drop_old)
    if _contains_old(p):
        return jml.JmlTrue()
    return p


def mutate_translation(unit: TranslationUnit, mutation: str) -> TranslationUnit:
    """A syntactically valid but semantically altered translation.

    Used to confirm the checker can fail: widening an ensures clause or
    dropping pre-state constraints must be caught, while shrinking an
    assignable set only shrinks the JML relation and must still pass.
    """
    if mutation not in MUTATIONS:
        raise MutationError(f"unknown mutation '{mutation}' "
                            f"(expected one of {', '.join(MUTATIONS)})")
    changed = False
    methods = []
    for m in unit.result.methods:
        if m.kind != "run":
            methods.append(m)
            continue
        if mutation == "widen_ensures_true":
            if not isinstance(m.normal.ensures, jml.JmlTrue):
                m = replace(m, normal=replace(m.normal, ensures=jml.JmlTrue()))
                changed = True
        elif mutation == "shrink_assignable":
            if not isinstance(m.normal.assignable, jml.AssignNothing):
                m = replace(m, normal=replace(
                    m.normal, assignable=jml.AssignNothing()))
                changed = True
        elif mutation == "drop_old":
            ensures = _drop_old(m.normal.ensures)
            if ensures is not m.normal.ensures:
                m = replace(m, normal=replace(m.normal, ensures=ensures))
                changed = True
        elif mutation == "negate_guard_link":
            if m.exceptional is not None:
                m = replace(
                    m,
                    normal=replace(m.normal, requires=m.exceptional.requires),
                    exceptional=replace(m.exceptional, requires=m.normal.requires),
                )
                changed = True
        methods.append(m)
    if not changed:
        raise MutationError(
            f"mutation '{mutation}' does not apply to this translation "
            f"(nothing to alter)")
    mutated_class = replace(unit.result, methods=tuple(methods))
    return TranslationUnit(
        source=unit.source,
        result=mutated_class,
        trace=unit.trace + ((mutation, "mutation"),),
    )
