"""The shipped entry points: ``python -m dvbcalc`` and the ``dvbcalc`` console script."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dvbcalc.harness import cli

ROOT = Path(__file__).resolve().parents[1]


def _run_module(*argv):
    """``python -m dvbcalc argv`` in a fresh interpreter that imports the package from src."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dvbcalc", *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)


def test_python_m_dvbcalc_writes_the_in_process_report(tmp_path):
    argv = ["verify", "--demo", "--samples", "2", "--seed", "1", "--quiet", "--json-out"]
    run = _run_module(*argv, str(tmp_path / "module.json"))
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
    assert cli.main([*argv, str(tmp_path / "in_process.json")]) == 0
    assert (tmp_path / "module.json").read_bytes() == (tmp_path / "in_process.json").read_bytes()


def test_python_m_dvbcalc_rejects_an_unusable_spec(tmp_path):
    run = _run_module("verify", str(tmp_path / "missing.json"))
    assert (run.returncode, run.stdout) == (2, "")
    [line] = run.stderr.splitlines()
    assert line.startswith("spec error: ")


def test_the_console_script_is_the_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as file:
        target = tomllib.load(file)["project"]["scripts"]["dvbcalc"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry) and entry is cli.main
