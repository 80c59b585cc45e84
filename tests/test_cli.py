import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import eb2jml
from eb2jml import parse_machine, well_formedness_check
from eb2jml.cli import main

from conftest import MACHINES_DIR
from test_checker import UNDEFINED_GUARD


def _copy(tmp_path, name):
    dst = tmp_path / name
    shutil.copy(MACHINES_DIR / name, dst)
    return dst


def test_translate_writes_file(tmp_path, capsys):
    src = _copy(tmp_path, "social_ref1.ebm")
    out = tmp_path / "ref1_permissions.java"
    assert main(["translate", str(src), "-o", str(out)]) == 0
    text = out.read_text()
    assert "public abstract class ref1_permissions" in text
    assert "wrote" in capsys.readouterr().out


def test_translate_default_output_name(tmp_path, capsys, monkeypatch):
    src = _copy(tmp_path, "counter.ebm")
    monkeypatch.chdir(tmp_path)
    assert main(["translate", str(src)]) == 0
    assert (tmp_path / "counter.java").exists()


def test_translate_is_stable(tmp_path, capsys):
    src = _copy(tmp_path, "counter.ebm")
    out1, out2 = tmp_path / "a.java", tmp_path / "b.java"
    assert main(["translate", str(src), "-o", str(out1)]) == 0
    assert main(["translate", str(src), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_missing_file_names_the_path(capsys):
    assert main(["translate", "no_such_machine.ebm"]) == 2
    err = capsys.readouterr().err
    assert "no_such_machine.ebm" in err


def test_refines_gives_out_of_subset_error(tmp_path, capsys):
    src = tmp_path / "refined.ebm"
    src.write_text("machine m refines abstract variables v events "
                   "initialisation begin a1: v := 0 end end")
    assert main(["translate", str(src)]) == 2
    assert "refines" in capsys.readouterr().err


def test_well_formedness_errors_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.ebm"
    src.write_text("machine m variables v invariants i1: v : INT events "
                   "initialisation begin a1: w := 0 end end")
    assert main(["check", str(src)]) == 2
    assert "'w'" in capsys.readouterr().err


def test_check_counter_passes(tmp_path, capsys):
    src = _copy(tmp_path, "counter.ebm")
    assert main(["check", str(src), "--int-range", "0..1"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_check_social_flagship(tmp_path, capsys):
    src = _copy(tmp_path, "social_abstract.ebm")
    code = main(["check", str(src), "--carrier", "PERSON=2",
                 "--carrier", "CONTENTS=2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 4  # three verdicts plus the overall line


def test_check_tiny_ceiling_exit_3(tmp_path, capsys):
    src = _copy(tmp_path, "social_abstract.ebm")
    assert main(["check", str(src), "--ceiling", "10"]) == 3
    assert "RESOURCE_LIMIT" in capsys.readouterr().out


def test_check_tree_format_is_json(tmp_path, capsys):
    src = _copy(tmp_path, "counter.ebm")
    assert main(["check", str(src), "--int-range", "0..1",
                 "--format", "tree"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["overall"] == "PASS"
    assert [v["name"] for v in tree["verdicts"]] == ["initialisation", "incr"]


def test_check_fail_maps_to_exit_1(tmp_path, capsys, monkeypatch):
    # an honest translation never fails containment, so fake one verdict
    import eb2jml.cli as cli
    from eb2jml.checker import Report, Verdict

    def fake_check(machine, universe, unit, witness_cap=5):
        return Report(machine=machine.name, universe=universe,
                      verdicts=(Verdict(name="incr", status="FAIL",
                                        checked_pairs=1),),
                      elapsed=0.0)

    monkeypatch.setattr(cli, "check_machine", fake_check)
    src = _copy(tmp_path, "counter.ebm")
    assert main(["check", str(src)]) == 1


def test_verbose_logs_each_undefined_evaluation(tmp_path, capsys):
    # the guard f(x) = 1 is undefined wherever f is not functional at x;
    # -v shows that on stderr and changes neither stdout nor the exit code
    src = tmp_path / "undefined_guard.ebm"
    src.write_text(UNDEFINED_GUARD)
    args = ["check", str(src), "--int-range", "0..1"]
    runs = []
    for argv in (args, ["-v"] + args, args):
        assert main(argv) == 1
        runs.append(capsys.readouterr())
    quiet, verbose, quiet_again = runs
    elapsed = re.compile(r"\(\d+\.\d+s\)")
    assert elapsed.sub("", verbose.out) == elapsed.sub("", quiet.out)
    assert "FAIL" in quiet.out
    assert quiet.err == quiet_again.err == ""
    assert "eb2jml.semantics: undefined evaluation counts as false " \
        "(apply undefined at 0)" in verbose.err.splitlines()


def test_verbose_logs_the_searches_of_each_relation(tmp_path, capsys):
    # one record per relation: its pre-states, and the searches it ran,
    # one per distinct tuple of the values they read
    args = ["check", str(_copy(tmp_path, "social_ref1.ebm"))]
    assert main(["-v"] + args) == 0
    records = [line for line in capsys.readouterr().err.splitlines()
               if " relation: " in line]
    assert records == [
        "eb2jml.semantics: create_account JML relation: "
        "57 pre-states, 13 witness searches",
        "eb2jml.semantics: create_account Event-B relation: "
        "57 pre-states, 8 parameter searches",
        "eb2jml.semantics: edit_owned JML relation: "
        "57 pre-states, 13 witness searches",
        "eb2jml.semantics: edit_owned Event-B relation: "
        "57 pre-states, 9 parameter searches",
    ]
    assert main(args) == 0
    assert capsys.readouterr().err == ""


def test_verbose_logs_the_invariant_states_of_each_side(tmp_path, capsys):
    # one record: each side's invariant states, and how many of them are
    # one object because both sides accept them
    args = ["check", str(_copy(tmp_path, "social_ref1.ebm"))]
    assert main(["-v"] + args) == 0
    records = [line for line in capsys.readouterr().err.splitlines()
               if "invariant states" in line]
    assert records == [
        "eb2jml.checker: invariant states: 57 Event-B, 57 JML, 57 shared"]


def test_parse_prints_canonical_form(tmp_path, capsys):
    src = _copy(tmp_path, "counter.ebm")
    assert main(["parse", str(src)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("machine counter")
    assert "v : INT" in out


def test_parse_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.ebm"
    src.write_text("")
    assert main(["parse", str(src)]) == 2
    assert "machine" in capsys.readouterr().err


def test_parse_error_cites_line(tmp_path, capsys):
    src = tmp_path / "broken.ebm"
    src.write_text("machine m\nvariables v\ninvariants\n  i1: v : INT\n"
                   "events\n  initialisation\n    begin\n      a1: v 0\n"
                   "    end\nend\n")
    assert main(["parse", str(src)]) == 2
    assert "8:" in capsys.readouterr().err


def test_parse_non_ascii_digit_exits_2(tmp_path, capsys):
    src = tmp_path / "digit.ebm"
    src.write_text("machine m variables v invariants i1: v = \u00b2 events "
                   "initialisation begin a1: v := 0 end end", encoding="utf-8")
    assert main(["parse", str(src)]) == 2
    err = capsys.readouterr().err
    assert "1:42: expected a token, found '\u00b2'" in err
    assert "Traceback" not in err


def test_bad_universe_flags(tmp_path, capsys):
    src = _copy(tmp_path, "counter.ebm")
    assert main(["check", str(src), "--int-range", "nope"]) == 2
    assert main(["check", str(src), "--carrier", "PERSON"]) == 2
    assert main(["check", str(src), "--int-range", "3..1"]) == 2
    assert main(["check", str(src), "--ceiling", "0"]) == 2
    social = _copy(tmp_path, "social_abstract.ebm")
    assert main(["check", str(social), "--carrier", "PERSON=0"]) == 2
    err = capsys.readouterr().err
    assert err.count("eb2jml: ") == 5 and "Traceback" not in err
    assert "empty integer range" in err and "ceiling must be at least 1" in err
    assert "'PERSON' needs cardinality >= 1" in err


def test_negative_witness_cap_exits_2(tmp_path, capsys):
    src = _copy(tmp_path, "counter.ebm")
    assert main(["check", str(src), "--witnesses", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eb2jml: ") and "--witnesses" in err
    assert main(["check", str(src), "--int-range", "0..1", "--witnesses", "0"]) == 0


SUM_OF_THREE = """
machine sum_of_three
  variables v
  invariants
    inv1: v : INT
  events
    initialisation
      begin
        act1: v := 0
      end
    e
      any x y z
      where
        grd1: x : INT
        grd2: y : INT
        grd3: z : INT
        grd4: x + y + z = v
      then
        act1: v := x
      end
end
"""


def test_ceiling_bounds_the_jml_witness_search(tmp_path, capsys):
    # the JML witness search tries up to 31^3 bindings per pre-state: the
    # ceiling must stop it before the Event-B relation is built
    src = tmp_path / "sum_of_three.ebm"
    src.write_text(SUM_OF_THREE)
    assert main(["check", str(src), "--int-range", "0..30",
                 "--ceiling", "1000"]) == 3
    assert ("event e's JML relation needs 1001 work units, exceeding the "
            "ceiling of 1000") in capsys.readouterr().out


def test_undeclared_carrier_exits_2(tmp_path, capsys):
    src = _copy(tmp_path, "social_abstract.ebm")
    # a typo must not check PERSON at the default size and pass
    assert main(["check", str(src), "--carrier", "PERSONS=3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eb2jml: ") and "'PERSONS'" in err
    assert "CONTENTS, PERSON" in err
    counter = _copy(tmp_path, "counter.ebm")
    assert main(["check", str(counter), "--int-range", "0..1",
                 "--carrier", "PERSON=1"]) == 2
    assert "'PERSON'" in capsys.readouterr().err


def test_repeated_carrier_exits_2(tmp_path, capsys):
    src = _copy(tmp_path, "social_abstract.ebm")
    assert main(["check", str(src), "--carrier", "PERSON=2",
                 "--carrier", "PERSON=1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eb2jml: ") and "'PERSON'" in err
    assert "more than once" in err


UNTYPABLE_EMPTY_SET = """machine m
  variables v
  invariants
    inv1: v : INT
    inv2: {} = {}
  events
    initialisation
      begin
        act1: v := 0
      end
end
"""


def test_translator_rejection_has_the_diagnostic_format(tmp_path, capsys):
    # wf accepts this machine; the translator's own rejection is printed
    # as path:line:col: message, like every diagnostic, and comes before
    # the universe flags are read
    src = tmp_path / "empty.ebm"
    src.write_text(UNTYPABLE_EMPTY_SET)
    expected = f"eb2jml: {src}:5:11: cannot determine the type of {{}} here\n"
    assert main(["translate", str(src), "-o", str(tmp_path / "m.java")]) == 2
    assert capsys.readouterr().err == expected
    assert main(["check", str(src), "--carrier", "X=1"]) == 2
    assert capsys.readouterr().err == expected


def test_every_wf_diagnostic_is_listed(tmp_path, capsys):
    # the gate raises only the first; each command still lists them all
    text = ("machine m variables v invariants i1: v : INT events "
            "initialisation begin a1: w := 0 end e begin a1: v := zz end end")
    src = tmp_path / "bad.ebm"
    src.write_text(text)
    diagnostics = well_formedness_check(parse_machine(text))
    assert len(diagnostics) == 3
    expected = "eb2jml: " + "".join(f"{src}:{d}\n" for d in diagnostics)
    for command in ("translate", "check", "parse"):
        assert main([command, str(src)]) == 2
        assert capsys.readouterr().err == expected


def test_undecodable_input_exits_2(tmp_path, capsys):
    src = tmp_path / "latin1.ebm"
    src.write_bytes("machine m # café\nend\n".encode("latin-1"))
    for command in ("translate", "check", "parse"):
        assert main([command, str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"eb2jml: cannot read '{src}': ")
        assert "can't decode byte 0xe9" in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    src = _copy(tmp_path, "counter.ebm")
    out = tmp_path / "missing" / "dir" / "x.java"
    assert main(["translate", str(src), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"eb2jml: cannot write '{out}': "
                            f"No such file or directory\n")
    assert captured.out == ""


# a faked FAIL, as in test_check_fail_maps_to_exit_1, set before the module runs
FAKE_FAIL = """
import eb2jml.cli as cli
from eb2jml.checker import Report, Verdict
cli.check_machine = lambda machine, universe, unit, witness_cap=5: Report(
    machine.name, universe, (Verdict("incr", "FAIL", 1),), 0.0)
"""


@pytest.mark.parametrize("args,code,prelude", [
    (["counter.ebm", "--int-range", "0..1"], 0, None),
    (["counter.ebm"], 1, FAKE_FAIL),
    (["no_such_machine.ebm"], 2, None),
])
def test_python_m_eb2jml_runs_from_a_checkout(tmp_path, args, code, prelude):
    _copy(tmp_path, "counter.ebm")
    if prelude is None:
        command = [sys.executable, "-m", "eb2jml", "check", *args]
    else:
        command = [sys.executable, "-c", prelude + "import runpy\n"
                   "runpy.run_module('eb2jml', run_name='__main__', "
                   "alter_sys=True)", "check", *args]
    src = Path(eb2jml.__file__).resolve().parent.parent
    done = subprocess.run(command, cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == 0:
        assert "overall: PASS" in done.stdout
