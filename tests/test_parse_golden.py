"""Parse outcomes of character-level mutants, pinned in a golden file.

Each mutant is a corpus machine or a rendered generated machine with one
seeded edit: a symbol, keyword, reserved word, newline, '#' or stray ASCII
character is deleted, inserted or put in place of another.  Unlike the
whole-token substitutions of ``test_wf_golden.py`` these split and glue
operators, so they reach the lexer's and every precedence level's errors.

Each line records the mutant's name and either the parse error with its
span, or a digest of the typed syntax tree that includes every node's span.

To rewrite the golden file after an intended change of parse outcomes:

    PYTHONPATH=src python tests/test_parse_golden.py
"""

from __future__ import annotations

import hashlib
import random
import re
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS_DIR))

from eb2jml import ParseError, parse_machine  # noqa: E402
from eb2jml.parser import KEYWORDS, render_machine  # noqa: E402
from genmachines import random_machine  # noqa: E402

GOLDEN = TESTS_DIR / "golden" / "parse_outcomes.txt"
MACHINES_DIR = TESTS_DIR.parent / "machines"
CORPUS = ("counter", "swap", "social_abstract", "social_ref1")

_SYMBOLS = (
    "<<->>", "-->>", "<<|", "-->", "<->", "|->", "<=", "<:", "<|", ":=",
    ":|", "/=", "\\/", "/\\", "**", "(", ")", "{", "}", "[", "]", ",", ":",
    "=", "<", "+", "-", "*", "\\", "&",
)
# what an edit deletes or replaces; longest first, so '<<->>' is one unit
_UNITS = re.compile("|".join(
    [re.escape(s) for s in _SYMBOLS] + [r"\n", "#", "'"]
    + [rf"\b{w}\b" for w in sorted(KEYWORDS)]))
# what an edit puts in: the units, two reserved words and characters that
# start no token or only part of one
_INSERTS = (_SYMBOLS + tuple(sorted(KEYWORDS))
            + ("\n", "#", "'", "refines", "theorem", "|", "/", ">", "!", ".",
               "@", ";", "\t", "0", "_"))

MUTANTS = 2000


def _source(seed: int) -> tuple[str, str]:
    if seed % 5 < len(CORPUS):
        name = CORPUS[seed % 5]
        return name, (MACHINES_DIR / f"{name}.ebm").read_text(encoding="utf-8")
    return f"gen{seed}", render_machine(random_machine(random.Random(seed)))


def mutant(seed: int) -> tuple[str, str]:
    """The name and text of the machine with mutation ``seed``."""
    origin, text = _source(seed)
    rng = random.Random(seed)
    op = rng.choice(("delete", "insert", "replace"))
    if op == "insert":
        at = rng.randrange(len(text) + 1)
        new = rng.choice(_INSERTS)
        if rng.random() < 0.5:
            new = f" {new} "
        return f"{origin}-{seed} insert", text[:at] + new + text[at:]
    unit = rng.choice(list(_UNITS.finditer(text)))
    new = "" if op == "delete" else rng.choice(_INSERTS)
    return (f"{origin}-{seed} {op}",
            text[:unit.start()] + new + text[unit.end():])


def _dump(value) -> str:
    """Every field of a syntax tree, source spans included."""
    if type(value) is tuple:
        return "(" + ",".join(_dump(v) for v in value) + ")"
    if is_dataclass(value):
        return (type(value).__name__ + "("
                + ",".join(_dump(getattr(value, f.name)) for f in fields(value))
                + ")")
    return repr(value)


def outcome(text: str) -> str:
    try:
        machine = parse_machine(text)
    except ParseError as exc:
        s = exc.span
        return f"error [{s.begin},{s.end}) {exc}"
    digest = hashlib.sha256(_dump(machine).encode("utf-8")).hexdigest()
    return f"ok {digest[:16]}"


def report() -> str:
    lines = []
    for seed in range(MUTANTS):
        name, text = mutant(seed)
        lines.append(f"{name}: {outcome(text)}")
    return "\n".join(lines) + "\n"


def test_parse_outcomes_match_golden():
    assert report() == GOLDEN.read_text(encoding="utf-8")


def test_golden_reaches_lexer_and_operator_errors():
    text = GOLDEN.read_text(encoding="utf-8")
    for fragment in (
        "expected a token",
        "expected an expression",
        "expected a comparison operator",
        "is outside the supported machine subset",
        ": ok ",
    ):
        assert fragment in text, fragment


if __name__ == "__main__":
    GOLDEN.write_text(report(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
