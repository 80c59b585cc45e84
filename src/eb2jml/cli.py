"""Command-line front door: translate, check and parse machine files.

Exit codes: 0 success / all checks PASS, 1 a refinement check FAILed,
2 parse or well-formedness errors, unreadable input or an unwritable
output, 3 a resource limit was hit.  Diagnostics go to stderr; artifacts
and reports go to stdout or the --out path.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .checker import FAIL, RESOURCE_LIMIT, check_machine
from .ebcheck import well_formedness_check
from .jmlast import render_class
from .parser import ParseError, parse_machine, render_machine
from .semantics import DEFAULT_CEILING, Universe
from .translate import TranslationError, TranslationUnit, translate_machine

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_RESOURCE = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_ERROR):
        super().__init__(message)
        self.code = code


def _build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="eb2jml",
        description="Translate Event-B machines to JML class specifications "
                    "and check the translation by exhaustive finite-universe "
                    "simulation.")
    top.add_argument("-v", "--verbose", action="store_true",
                     help="log debug records to stderr, such as each "
                          "undefined evaluation counted as false")
    sub = top.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("translate", help="translate a machine to a .java spec")
    tr.add_argument("input", help="machine file (.ebm)")
    tr.add_argument("-o", "--out", help="output path (default <MachineName>.java)")

    ck = sub.add_parser("check", help="check the translation against the source")
    ck.add_argument("input", help="machine file (.ebm)")
    ck.add_argument("--int-range", default="0..2", metavar="LO..HI",
                    help="integer variable range (default 0..2)")
    ck.add_argument("--carrier", action="append", default=[], metavar="NAME=N",
                    help="carrier set cardinality; repeatable (default 2)")
    ck.add_argument("--ceiling", type=int, default=DEFAULT_CEILING,
                    help="enumeration work ceiling (default 10^6)")
    ck.add_argument("--witnesses", type=int, default=5,
                    help="maximum counterexamples reported per event")
    ck.add_argument("--format", choices=("text", "tree"), default="text",
                    help="report format: human text or machine-readable tree")

    pa = sub.add_parser("parse", help="parse and render a machine canonically")
    pa.add_argument("input", help="machine file (.ebm)")
    return top


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read '{path}': {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot read '{path}': {exc}")


def _located(path: str, problems) -> _CliError:
    return _CliError("\n".join(f"{path}:{p}" for p in problems))


def _load_machine(path: str):
    try:
        return parse_machine(_read(path))
    except ParseError as exc:
        raise _located(path, [exc])


def _translate(path: str, machine) -> TranslationUnit:
    try:
        return translate_machine(machine)
    except TranslationError as exc:
        raise _located(path, exc.diagnostics or [exc])


def _parse_int_range(text: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.partition("..")
    if not sep:
        raise _CliError(f"--int-range must look like LO..HI, got '{text}'")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise _CliError(f"--int-range must look like LO..HI, got '{text}'")
    return lo, hi


def _build_universe(args, machine) -> Universe:
    lo, hi = _parse_int_range(args.int_range)
    carriers: dict[str, int] = {}
    for spec in args.carrier:
        name, sep, size_text = spec.partition("=")
        if not sep or not name:
            raise _CliError(f"--carrier must look like NAME=N, got '{spec}'")
        try:
            size = int(size_text)
        except ValueError:
            raise _CliError(f"--carrier must look like NAME=N, got '{spec}'")
        if name not in machine.carrier_sets:
            declared = ", ".join(sorted(machine.carrier_sets)) or "none"
            raise _CliError(f"--carrier names '{name}', which machine "
                            f"{machine.name} does not declare (its sets: {declared})")
        if name in carriers:
            raise _CliError(f"--carrier gives '{name}' more than once")
        carriers[name] = size
    try:
        return Universe(int_lo=lo, int_hi=hi, carriers=carriers, ceiling=args.ceiling)
    except ValueError as exc:
        raise _CliError(str(exc))


def cmd_translate(args) -> int:
    machine = _load_machine(args.input)
    unit = _translate(args.input, machine)
    out_path = Path(args.out) if args.out else Path(f"{machine.name}.java")
    try:
        out_path.write_text(render_class(unit.result), encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot write '{out_path}': {exc.strerror or exc}")
    print(f"wrote {out_path}")
    print(f"class {unit.result.name}: {len(unit.result.model_fields)} model "
          f"fields, {len(unit.result.methods)} methods")
    for source, fragment in unit.trace:
        print(f"  {source} -> {fragment}")
    return EXIT_OK


def cmd_check(args) -> int:
    machine = _load_machine(args.input)
    unit = _translate(args.input, machine)
    universe = _build_universe(args, machine)
    if args.witnesses < 0:
        raise _CliError("--witnesses must be at least 0")
    report = check_machine(machine, universe, unit, witness_cap=args.witnesses)
    if args.format == "tree":
        print(json.dumps(report.to_tree(), indent=2))
    else:
        print(report.to_text(), end="")
    if report.status == RESOURCE_LIMIT:
        return EXIT_RESOURCE
    if report.status == FAIL:
        return EXIT_FAIL
    return EXIT_OK


def cmd_parse(args) -> int:
    machine = _load_machine(args.input)
    diagnostics = well_formedness_check(machine)
    if diagnostics:
        raise _located(args.input, diagnostics)
    print(render_machine(machine), end="")
    return EXIT_OK


_COMMANDS = {"translate": cmd_translate, "check": cmd_check, "parse": cmd_parse}


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    log = logging.getLogger("eb2jml")
    level, handler = log.level, logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    if args.verbose:
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"eb2jml: {exc}", file=sys.stderr)
        return exc.code
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
