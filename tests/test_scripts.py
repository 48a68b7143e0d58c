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


def test_wreath_survey_reports_an_infinite_quotient(monkeypatch, capsys):
    """A presentation with its relations dropped has an infinite quotient:
    the oracle raises on it, and the survey prints ``NO`` and exits 1."""
    path = ROOT / "scripts" / "wreath_dimension_survey.py"
    spec = importlib.util.spec_from_file_location("wreath_dimension_survey", path)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
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
