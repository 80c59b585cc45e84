"""Workload inputs and the expected-answer table.

Every workload is built from the checkout's own files: the corpus in
``machines/``, the golden renders in ``tests/golden/`` and the seeded
generator ``tests/genmachines.py``, all read and never written.  A
workload is a list of check operations (one ``check_machine`` call each)
or of front-end operations (parse, well-formedness, translate, render).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from eb2jml import (
    Machine, TranslationUnit, mutate_translation, parse_machine,
    render_machine, translate_machine,
)
from eb2jml.checker import FAIL, PASS
from genmachines import random_machine

WORKLOADS = ("social_ladder", "dense_ints", "mutants", "frontend")
SIZES = ("full", "smoke")

# --- expected answers ---------------------------------------------------------
#
# Faithful translations of the corpus PASS whenever the cell is decided.
# Source: acceptance criterion 2 (tests/test_acceptance.py) checks the
# flagship at PERSON = CONTENTS = 2, and the translator reproduces the
# paper's reference output (tests/golden/ref1_permissions_reference.txt).
# RESOURCE_LIMIT is undecided, never wrong.
FAITHFUL = PASS

# The kill matrix follows the contract in mutate_translation's docstring:
# widening an ensures clause or dropping its pre-state constraints must be
# caught, while shrinking an assignable set only shrinks the JML relation.
# negate_guard_link swaps the requires clauses of the normal and the
# exceptional case.  At a pre-state where the guard holds, the swapped-in
# exceptional case (assignable \nothing) admits only the stutter (a, a),
# and the event forbids that pair on every machine used here:
#   counter, int 0..1: the guard v = 0 holds at v = 0 and the event sets
#     v := 1, so (v=0, v=0) is not an Event-B transition.
#   swap, int 0..12: the guard is true everywhere, and at x /= y the swap
#     moves the state, so (a, a) is not an Event-B transition.
#   social_abstract, 2x2: create_account adds c1 /: contents to contents,
#     and edit_owned adds newc /: contents, so contents' /= contents
#     wherever either guard holds.
KILL_MATRIX = {
    "drop_old": FAIL,
    "widen_ensures_true": FAIL,
    "shrink_assignable": PASS,
    "negate_guard_link": FAIL,
}

# Corpus machines whose full render is pinned byte for byte (the same
# files tests/test_jml_render.py compares against).
GOLDEN_RENDERS = {
    "counter": "counter.java",
    "social_ref1": "ref1_permissions_full.java",
}

# Relation sizes (Verdict.eb_size / jml_size) are deliberately not pinned:
# an invariant-first state engine changes them on purpose.


@dataclass
class CheckOp:
    """One ``check_machine`` call on a corpus machine in a fixed universe."""

    id: str
    corpus: str
    text: str
    int_lo: int = 0
    int_hi: int = 2
    carriers: dict = field(default_factory=dict)
    mutation: Optional[str] = None
    machine: Optional[Machine] = None
    unit: Optional[TranslationUnit] = None

    @property
    def expected(self) -> str:
        return KILL_MATRIX[self.mutation] if self.mutation else FAITHFUL

    @property
    def cell(self) -> tuple:
        """The state space: machine plus universe, ignoring the mutation."""
        return (self.corpus, self.int_lo, self.int_hi,
                tuple(sorted(self.carriers.items())))


@dataclass
class FrontOp:
    """One front-end run: parse, well-formedness, translate, render."""

    id: str
    text: str
    source: Optional[Machine] = None   # generated machine: round-trip target
    golden: Optional[str] = None       # pinned render, when one exists

    @property
    def generated(self) -> bool:
        return self.source is not None


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    checks: list[CheckOp]
    fronts: list[FrontOp]

    def fingerprint_inputs(self) -> str:
        """sha256 over every input text and universe, in run order."""
        h = hashlib.sha256()
        for op in self.checks:
            h.update(json.dumps([op.id, op.text, op.int_lo, op.int_hi,
                                 sorted(op.carriers.items()), op.mutation])
                     .encode())
        for op in self.fronts:
            h.update(json.dumps([op.id, op.text, op.golden]).encode())
        return h.hexdigest()


def _corpus_text(root: Path, name: str) -> str:
    return (root / "machines" / f"{name}.ebm").read_text(encoding="utf-8")


def _golden(root: Path, name: str) -> Optional[str]:
    fname = GOLDEN_RENDERS.get(name)
    if fname is None:
        return None
    return (root / "tests" / "golden" / fname).read_text(encoding="utf-8")


def _check(root, corpus, lo=0, hi=2, carriers=None, mutation=None) -> CheckOp:
    carriers = dict(carriers or {})
    if carriers:
        where = "x".join(str(n) for n in carriers.values())
    else:
        where = f"{lo}..{hi}"
    op_id = f"{corpus}@{where}" + (f"/{mutation}" if mutation else "")
    return CheckOp(op_id, corpus, _corpus_text(root, corpus), lo, hi,
                   carriers, mutation)


def _pc(persons: int, contents: int) -> dict:
    """Carrier sizes; a check id reads PERSONxCONTENTS, as in 2x3."""
    return {"PERSON": persons, "CONTENTS": contents}


def _ladder(root, size):
    # The ROADMAP ladder under the default ceiling.  Today only
    # social_abstract 2x2 is decided; 2x3 burns ~16 s before its events
    # reach RESOURCE_LIMIT, and the other cells are refused at once.
    if size == "smoke":
        return [_check(root, "social_abstract", carriers=_pc(1, 1)),
                _check(root, "social_ref1", carriers=_pc(2, 2))]
    return [_check(root, "social_abstract", carriers=_pc(2, 2)),
            _check(root, "social_abstract", carriers=_pc(2, 3)),
            _check(root, "social_abstract", carriers=_pc(3, 3)),
            _check(root, "social_ref1", carriers=_pc(2, 2)),
            _check(root, "social_ref1", carriers=_pc(2, 3))]


def _dense(root, size):
    # Every typed state satisfies the invariant and each run method's
    # frame covers every variable: pruning by invariant or frame cannot help.
    if size == "smoke":
        return [_check(root, "counter", 0, 1), _check(root, "swap", 0, 3)]
    return [_check(root, "swap", 0, 20), _check(root, "counter", 0, 1000)]


def _mutants(root, size):
    if size == "smoke":
        return [_check(root, "counter", 0, 1, mutation="widen_ensures_true")]
    cells = (("counter", 0, 1, None), ("swap", 0, 12, None),
             ("social_abstract", 0, 2, _pc(2, 2)))
    return [_check(root, corpus, lo, hi, carriers, mutation)
            for mutation in KILL_MATRIX for corpus, lo, hi, carriers in cells]


def _fronts(root, seed, size):
    # Generated machines come from the workload seed; the ones that pass
    # well-formedness but fail translation are kept as expected rejections.
    n = 20 if size == "smoke" else 2000
    rng = random.Random(seed)
    fronts = []
    for i in range(n):
        m = random_machine(rng)
        fronts.append(FrontOp(f"gen{i}", render_machine(m), source=m))
    for corpus in ("counter", "swap", "social_abstract", "social_ref1"):
        fronts.append(FrontOp(corpus, _corpus_text(root, corpus),
                              golden=_golden(root, corpus)))
    return fronts


def _corpus_fronts(root: Path, checks: list[CheckOp]) -> list[FrontOp]:
    """The front-end runs a user pays before checking these machines."""
    names = sorted({op.corpus for op in checks})
    return [FrontOp(n, _corpus_text(root, n), golden=_golden(root, n))
            for n in names]


def build(root: Path, name: str, seed: int, size: str) -> Workload:
    """Inputs for one workload; the same seed gives the same inputs.

    On the check workloads the machines and universes are fixed and the
    seed only orders the checks within a pass.
    """
    if name == "frontend":
        return Workload(name, seed, size, [], _fronts(root, seed, size))
    checks = {"social_ladder": _ladder, "dense_ints": _dense,
              "mutants": _mutants}[name](root, size)
    random.Random(seed).shuffle(checks)
    return Workload(name, seed, size, checks, _corpus_fronts(root, checks))


def prepare(wl: Workload) -> None:
    """Parse and translate every checked machine (set-up, not timed)."""
    units = {}
    for op in wl.checks:
        if op.corpus not in units:
            machine = parse_machine(op.text)
            units[op.corpus] = (machine, translate_machine(machine))
        op.machine, unit = units[op.corpus]
        op.unit = mutate_translation(unit, op.mutation) if op.mutation else unit
