"""Committed reports that a fresh run must reproduce byte for byte.

A change that alters any report byte fails here.  If the change is meant
to, regenerate the file from the repository root with its command and
say why in CHANGES.md:

    PYTHONPATH=src python -m dvbcalc verify --demo --samples 20 --seed 1 --quiet --json-out tests/data/demo_samples20_seed1.json
    PYTHONPATH=src python -m dvbcalc verify perfbench/named_maps.json --samples 6 --seed 1 --quiet --json-out tests/data/named_maps_samples6_seed1.json
"""

from pathlib import Path

import pytest

from dvbcalc.harness import cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "golden, spec_argv",
    [
        ("demo_samples20_seed1.json", ["--demo", "--samples", "20"]),
        ("named_maps_samples6_seed1.json", [str(ROOT / "perfbench" / "named_maps.json"), "--samples", "6"]),
    ],
)
def test_report_matches_the_committed_bytes(tmp_path, golden, spec_argv):
    out = tmp_path / golden
    code = cli.main(["verify", *spec_argv, "--seed", "1", "--quiet", "--json-out", str(out)])
    assert code == 0
    assert out.read_bytes() == (ROOT / "tests" / "data" / golden).read_bytes()
