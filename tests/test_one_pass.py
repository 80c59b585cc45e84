"""Well-formedness is decided once per command.

``translate_machine`` is the gate for ``translate`` and ``check``, and a
``TranslationUnit`` is the proof that it passed: ``check_machine`` does not
ask again when it is handed one.
"""

import shutil
import sys

import pytest

from eb2jml import Universe, check_machine, ebcheck, translate_machine
from eb2jml.cli import main

from conftest import MACHINES_DIR


@pytest.fixture
def wf_runs(monkeypatch) -> list:
    """The name of each machine ``well_formedness_check`` runs on, through
    whichever ``eb2jml`` module calls it."""
    real = ebcheck.well_formedness_check
    runs = []

    def spy(machine):
        runs.append(machine.name)
        return real(machine)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "eb2jml"
                and getattr(module, "well_formedness_check", None) is real):
            monkeypatch.setattr(module, "well_formedness_check", spy)
    return runs


@pytest.mark.parametrize("command", [
    ["check", "--int-range", "0..1"],
    ["translate", "-o", "counter.java"],
    ["parse"],
])
def test_each_command_runs_wf_once(wf_runs, command, tmp_path, monkeypatch,
                                   capsys):
    shutil.copy(MACHINES_DIR / "counter.ebm", tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([command[0], "counter.ebm", *command[1:]]) == 0
    assert wf_runs == ["counter"]


def test_check_machine_trusts_its_unit(wf_runs, counter):
    unit = translate_machine(counter)
    assert wf_runs == ["counter"]
    report = check_machine(counter, Universe(int_lo=0, int_hi=1), unit)
    assert report.status == "PASS"
    assert wf_runs == ["counter"]


def test_a_rejected_machine_is_listed_from_one_run(wf_runs, tmp_path,
                                                   capsys):
    # the gate's TranslationError carries every diagnostic
    src = tmp_path / "bad.ebm"
    src.write_text("machine m variables v invariants i1: v : INT events "
                   "initialisation begin a1: w := 0 end end")
    assert main(["check", str(src)]) == 2
    assert wf_runs == ["m"]
    assert len(capsys.readouterr().err.splitlines()) == 2
