"""Smoke test: every script under ``scripts/`` runs at small bounds."""

from __future__ import annotations

import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, head",
    [
        ("walkthrough_3_2.py", ["3,2"], "partition (3, 2), weight 5\n"),
        ("centre_survey.py", ["--n-max", "3", "--ell-max", "2"],
         "\n=== n=1, ell=1: total dimension 1\n"),
        ("wreath_dimension_survey.py", ["--budget", "6"],
         "ell label             oracle  hook-formula agree\n"),
    ],
    ids=["walkthrough", "centre-survey", "wreath-survey"],
)
def test_script_runs(script, args, head):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith(head)


def _load(name):
    """The script ``scripts/<name>.py`` as a module, and its path."""
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, path


WALKTHROUGH_3_2 = """\
partition (3, 2), weight 5

Schubert-cell basis:
  f_1(u) = u^7 + f1,1*u^6 + f1,3*u^4 + f1,4*u^3
  f_2(u) = u^5 + f2,1*u^4 + f2,2*u^3
  f_3(u) = u^2
  f_4(u) = u
  f_5(u) = 1

Wronskian leading u^5 coefficient: 50400
relations from the Wronskian:
  r_1 = 14400*f1,1 + 30240*f2,1
  r_2 = 11520*f1,1*f2,1 + 10080*f2,2
  r_3 = 4320*f1,1*f2,2 - 2880*f1,3
  r_4 = -1440*f1,4
  r_5 = 288*f1,3*f2,2 - 288*f1,4*f2,1

direct combinatorial construction agrees: True
simplified: C[f1,1] / (f1,1^5)
Hilbert series: 1 + q + q^2 + q^3 + q^4 (dimension 5)
"""


def test_walkthrough_prints_the_whole_pipeline_of_3_2(monkeypatch, capsys):
    """The basis, both routes' relations (printed from the Wronskian's packed
    codes, then compared code for code), the quotient and the series."""
    walkthrough, path = _load("walkthrough_3_2")
    monkeypatch.setattr(sys, "argv", [str(path), "3,2"])
    walkthrough.main()
    assert capsys.readouterr().out == WALKTHROUGH_3_2


def test_wreath_survey_reports_an_infinite_quotient(monkeypatch, capsys):
    """A presentation with its relations dropped has an infinite quotient:
    the oracle raises on it, and the survey prints ``NO`` and exits 1."""
    survey, path = _load("wreath_dimension_survey")
    real = survey.wreath_presentation
    monkeypatch.setattr(
        survey, "wreath_presentation",
        lambda q, ell: dataclasses.replace(real(q, ell), relations=()),
    )
    monkeypatch.setattr(sys, "argv", [str(path), "--budget", "2"])
    assert survey.main() == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  2 1|-                    -             1 NO",
        "  2 -|1                    -             1 NO",
    ]
