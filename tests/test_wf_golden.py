"""Well-formedness diagnostics of ill-formed machines, pinned in a golden file.

The cases cover every action rule in both initialisation and event
position (primed identifiers, reading a variable with no pre-state, a
foreign prime in ':|', type mismatches, INT and relation arrows outside a
membership right-hand side), plus seeded token mutations of generated
machines.  Each case records its diagnostics as ``line:col: message`` in
emitted order, or the parse error.

To rewrite the golden file after an intended change of diagnostics:

    PYTHONPATH=src python tests/test_wf_golden.py
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS_DIR))

from eb2jml import (  # noqa: E402
    ParseError, TranslationError, parse_machine, translate_machine,
    well_formedness_check,
)
from eb2jml.ebast import (  # noqa: E402
    BecomesEqual, BecomesSuchThat, BinOp, Cmp, EmptySet, Ident, Ref, RelSpace,
)
from eb2jml.parser import KEYWORDS, render_machine  # noqa: E402
from genmachines import random_machine  # noqa: E402

GOLDEN = TESTS_DIR / "golden" / "wf_diagnostics.txt"

TEMPLATE = """
machine m
  sets S
  variables x y r
  invariants
    i1: x : INT
    i2: y <: S
    i3: r : S <-> S
  events
    initialisation
      begin
        {init}
      end
    e1
      any p
      where
        g1: p : S
      then
        {event}
      end
end
"""

INIT_OK = "a1: x := 0  a2: y := {}  a3: r := {}"
EVENT_OK = "b1: x := x + 1"

# (case name, initialisation actions, event e1 actions)
TEXT_CASES = [
    ("control", INIT_OK, EVENT_OK),
    ("init-primed", "a1: x := x' + 1  a2: y := {}  a3: r := {}", EVENT_OK),
    ("init-reads", "a1: x := x + 1  a2: y := y  a3: r := {}", EVENT_OK),
    ("init-reads-such-that", "a1: x :| x' < x  a2: y := {}  a3: r := {}",
     EVENT_OK),
    ("init-foreign-prime", "a1: x :| x' = 0 & y' = {}  a2: y := {}  a3: r := {}",
     EVENT_OK),
    ("init-foreign-prime-reads", "a1: x :| x' = 0 & r' = r  a2: y := {}  a3: r := {}",
     EVENT_OK),
    ("init-type-mismatch", "a1: x := {}  a2: y := {1}  a3: r := {}", EVENT_OK),
    ("init-type-mismatch-such-that", "a1: x :| x' = {1}  a2: y := {}  a3: r := {}",
     EVENT_OK),
    ("init-int", "a1: x := 0  a2: y := INT  a3: r := {}", EVENT_OK),
    ("init-int-such-that", "a1: x :| x' = INT  a2: y := {}  a3: r := {}", EVENT_OK),
    ("init-int-nested", "a1: x :| x' : INT \\/ {1}  a2: y := {}  a3: r := {}",
     EVENT_OK),
    ("init-int-membership", "a1: x :| x' : INT  a2: y := {}  a3: r := {}", EVENT_OK),
    ("init-not-a-variable", "a1: z := 0  a2: y := {}  a3: r := {}", EVENT_OK),
    ("init-twice-and-missing", "a1: x := 0  a2: x := 1", EVENT_OK),
    ("init-duplicate-label", "a1: x := 0  a1: y := {}  a3: r := {}", EVENT_OK),
    ("event-primed", INIT_OK, "b1: x := x' + 1"),
    ("event-reads", INIT_OK, "b1: x := x + 1  b2: y :| y' <: y"),
    ("event-foreign-prime", INIT_OK, "b1: x :| x' = 0 & y' = {}"),
    ("event-foreign-prime-param", INIT_OK, "b1: y :| y' = {p'}"),
    ("event-type-mismatch", INIT_OK, "b1: x := p"),
    ("event-type-mismatch-such-that", INIT_OK, "b1: x :| x' = p"),
    ("event-int", INIT_OK, "b1: y := INT"),
    ("event-int-such-that", INIT_OK, "b1: x :| x' = INT"),
    ("event-int-nested", INIT_OK, "b1: x :| x' : INT \\ {p}"),
    ("event-int-membership", INIT_OK, "b1: x :| x' : INT"),
    ("event-not-a-variable", INIT_OK, "b1: z := 0"),
    ("event-twice", INIT_OK, "b1: x := 0  b2: x := 1"),
    ("event-duplicate-label", INIT_OK, "b1: x := 0  b1: y := {}"),
    ("event-mixed", INIT_OK,
     "b1: x := x' + INT  b2: y :| y' = INT & r' = {} & x = p  b3: w := 1"),
    ("both-positions", "a1: x := y'  a2: y :| y' = INT & x' = y  a3: r := r",
     "b1: x := {}  b2: y :| r' = y"),
]

# whole-machine text cases (guards, invariants, parameters)
MACHINE_CASES = [
    ("event-shadowing-parameter", TEMPLATE.format(
        init=INIT_OK, event="b1: x := x").replace(
        "any p\n      where\n        g1: p : S",
        "any x\n      where\n        g1: x : S")),
    ("guard-and-invariant", TEMPLATE.format(init=INIT_OK, event=EVENT_OK)
     .replace("g1: p : S", "g1: p : S  g2: x' = INT")
     .replace("i3: r : S <-> S", "i3: r : S <-> S  i4: INT = {x'}")),
    ("comparison-missing", TEMPLATE.format(init=INIT_OK, event=EVENT_OK)
     .replace("g1: p : S", "g1: p S")),
    ("comparison-every-operator", TEMPLATE.format(init=INIT_OK, event=EVENT_OK)
     .replace("g1: p : S", "g1: p : S  g2: x = 1 & x /= 2 & y <: S & x < 3 & x <= 4")),
]


def _text_case(init: str, event: str) -> str:
    return TEMPLATE.format(init=init, event=event)


def _arrow() -> RelSpace:
    return RelSpace("<->", Ref(Ident("S")), Ref(Ident("S")))


def _ast_cases():
    """Relation arrows cannot be written outside ':' in the concrete
    syntax, so these cases are built as syntax trees."""
    base = parse_machine(_text_case(INIT_OK, EVENT_OK))
    r_ = Ref(Ident("r", primed=True))
    arrow_actions = {
        "arrow-deterministic": BecomesEqual("c1", Ident("r"), _arrow()),
        "arrow-eq": BecomesSuchThat("c1", Ident("r"), Cmp("eq", r_, _arrow())),
        "arrow-subset": BecomesSuchThat("c1", Ident("r"), Cmp("subset", r_, _arrow())),
        "arrow-nested": BecomesSuchThat("c1", Ident("r"), Cmp(
            "in", r_, BinOp("union", _arrow(), EmptySet()))),
        "arrow-membership": BecomesSuchThat("c1", Ident("r"), Cmp("in", r_, _arrow())),
        "arrow-inside-arrow": BecomesSuchThat("c1", Ident("r"), Cmp(
            "in", r_, RelSpace("<->", _arrow(), Ref(Ident("S"))))),
    }
    for name, act in arrow_actions.items():
        init = base.initialisation[:2] + (act,)
        yield f"init-{name}", replace(base, initialisation=init)
        ev = replace(base.events[0], actions=(act,))
        yield f"event-{name}", replace(base, events=(ev,))


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'?|\d+")


def _mutant(seed: int) -> str:
    """A generated machine with one seeded token substitution."""
    rng = random.Random(seed)
    text = render_machine(random_machine(rng))
    tokens = [t for t in _TOKEN.finditer(text) if t.group() not in KEYWORDS]
    names = sorted({t.group().rstrip("'") for t in tokens
                    if not t.group()[0].isdigit()})
    tok = rng.choice(tokens)
    word = tok.group()
    op = rng.randrange(5)
    if op == 0:
        new = word.rstrip("'") + "'"
    elif op == 1:
        new = rng.choice(names)
    elif op == 2:
        new = "INT"
    elif op == 3:
        new = "{}"
    else:
        new = str(rng.randint(0, 3))
    return text[:tok.start()] + new + text[tok.end():]


MUTANT_SEEDS = range(600)


def cases():
    for name, init, event in TEXT_CASES:
        yield name, _text_case(init, event)
    yield from MACHINE_CASES
    yield from _ast_cases()
    for seed in MUTANT_SEEDS:
        yield f"mutant-{seed}", _mutant(seed)


def _diagnostics(source) -> list[str]:
    if isinstance(source, str):
        try:
            machine = parse_machine(source)
        except ParseError as exc:
            return [f"parse error: {exc}"]
    else:
        machine = source
    return [str(d) for d in well_formedness_check(machine)]


def report() -> str:
    out = []
    for name, source in cases():
        out.append(f"== {name}")
        out.extend(_diagnostics(source))
    return "\n".join(out) + "\n"


def test_diagnostics_match_golden():
    assert report() == GOLDEN.read_text(encoding="utf-8")


def test_translation_rejects_with_the_first_diagnostic():
    # the translator's only gate is well_formedness_check
    for name, source in cases():
        try:
            machine = parse_machine(source) if isinstance(source, str) else source
        except ParseError:
            continue
        diagnostics = well_formedness_check(machine)
        if not diagnostics:
            continue
        with pytest.raises(TranslationError) as exc:
            translate_machine(machine)
        assert (str(exc.value), exc.value.span) == \
            (str(diagnostics[0]), diagnostics[0].span), name


def test_golden_covers_every_merged_rule():
    text = GOLDEN.read_text(encoding="utf-8")
    for fragment in (
        "is not allowed in a deterministic action",
        "(there is no pre-state)",
        "cannot appear here; only",
        "type mismatch",
        "INT is only allowed as a membership right-hand side",
        "a relation arrow is only allowed as a membership right-hand side",
        "which is not a machine variable",
        "expected a comparison operator",
    ):
        assert fragment in text, fragment


if __name__ == "__main__":
    GOLDEN.write_text(report(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
