"""JML renders of seeded generated machines, pinned in a golden file.

Each line records a seed of ``genmachines.random_machine`` and either the
sha256 of the rendered class of its translation or the TranslationError
text.  ``test_jml_render.py`` pins two corpus renders; these machines add
what the corpus lacks, such as ``:|`` actions over every variable type.

To rewrite the golden file after an intended change of renders:

    PYTHONPATH=src python tests/test_render_golden.py
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS_DIR))

from eb2jml import TranslationError, render_class, translate_machine  # noqa: E402
from genmachines import random_machine  # noqa: E402

GOLDEN = TESTS_DIR / "golden" / "render_outcomes.txt"
SEEDS = 1000


def outcome(seed: int) -> str:
    machine = random_machine(random.Random(seed))
    try:
        unit = translate_machine(machine)
    except TranslationError as exc:
        return f"error {exc}"
    text = render_class(unit.result)
    return "ok " + hashlib.sha256(text.encode("utf-8")).hexdigest()


def report() -> str:
    return "".join(f"{seed}: {outcome(seed)}\n" for seed in range(SEEDS))


def test_render_outcomes_match_golden():
    assert report() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(report(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
