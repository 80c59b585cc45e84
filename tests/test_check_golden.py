"""Check reports of the corpus machines, pinned in a golden file.

Each cell is checked unmutated and under every mutation that applies to
its translation; the golden file holds each report's ``to_text()`` and
its sorted-key ``to_tree()`` JSON, with the elapsed time masked.  A
change that should keep every verdict, count and witness must keep this
file byte-identical.

To rewrite the golden file after an intended change of reports:

    PYTHONPATH=src python tests/test_check_golden.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from eb2jml import (
    MutationError, Universe, check_machine, mutate_translation, parse_machine,
    translate_machine,
)
from eb2jml.checker import MUTATIONS

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN = TESTS_DIR / "golden" / "check_reports.txt"
MACHINES_DIR = TESTS_DIR.parent / "machines"

SOCIAL_2X2 = {"PERSON": 2, "CONTENTS": 2}

# (label, machine file, universe)
CELLS = (
    ("counter 0..2", "counter.ebm", Universe(0, 2)),
    ("swap 0..3", "swap.ebm", Universe(0, 3)),
    ("social_abstract 2x2", "social_abstract.ebm", Universe(0, 2, SOCIAL_2X2)),
    ("social_abstract 2x3 ceiling=1000", "social_abstract.ebm",
     Universe(0, 2, {"PERSON": 2, "CONTENTS": 3}, 1000)),
    ("social_abstract 2x3 ceiling=500", "social_abstract.ebm",
     Universe(0, 2, {"PERSON": 2, "CONTENTS": 3}, 500)),
    ("social_ref1 2x2", "social_ref1.ebm", Universe(0, 2, SOCIAL_2X2)),
)

_ELAPSED_TEXT = re.compile(r"\(\d+\.\d+s\)$", re.M)


def _masked(report) -> str:
    tree = report.to_tree()
    tree["elapsed"] = "*"
    text = _ELAPSED_TEXT.sub("(*s)", report.to_text())
    return text + json.dumps(tree, indent=1, sort_keys=True) + "\n"


def report() -> str:
    out = []
    for label, filename, universe in CELLS:
        machine = parse_machine((MACHINES_DIR / filename).read_text(encoding="utf-8"))
        unit = translate_machine(machine)
        for mutation in (None,) + MUTATIONS:
            if mutation is None:
                mutated = unit
            else:
                try:
                    mutated = mutate_translation(unit, mutation)
                except MutationError:
                    continue
            out.append(f"== {label} / {mutation or 'unmutated'}")
            out.append(_masked(check_machine(machine, universe, mutated)))
    return "\n".join(out)


def test_check_reports_match_golden():
    assert report() == GOLDEN.read_text(encoding="utf-8")


def test_golden_covers_each_outcome():
    text = GOLDEN.read_text(encoding="utf-8")
    for fragment in ("overall: PASS", "overall: FAIL", "overall: RESOURCE_LIMIT",
                     "witness ", "/ drop_old", "/ widen_ensures_true",
                     "/ shrink_assignable", "/ negate_guard_link"):
        assert fragment in text, fragment


if __name__ == "__main__":
    GOLDEN.write_text(report(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
