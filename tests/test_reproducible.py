"""The north-star property: the same config and seed give byte-identical
output.  ``synth6 --seed 0`` must reproduce the committed benchmark fixtures
for both plants, and two ``synth4`` runs must write identical files."""

from pathlib import Path

import pytest

from modalsyn import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _synth(command, plant, out):
    argv = [command, "--config", str(BENCH / "configs" / f"{plant}.json"),
            "--seed", "0", "--out", str(out)]
    assert cli.main(argv) == 0
    return out


@pytest.mark.parametrize("plant", ["two_mass", "mmpa_lite"])
def test_synth6_reproduces_committed_fixture(tmp_path, plant):
    out = _synth("synth6", plant, tmp_path)
    with open(BENCH / "fixtures" / plant / "results.json", "rb") as fh:
        fixture = fh.read()
    assert (out / "results.json").read_bytes() == fixture


def test_synth4_runs_are_identical(tmp_path):
    runs = [_synth("synth4", "two_mass", tmp_path / str(k)) for k in (1, 2)]
    names = sorted(p.name for p in runs[0].iterdir())
    assert {"results.json", "proposed_channels.csv",
            "conventional_channels.csv"} <= set(names)
    assert names == sorted(p.name for p in runs[1].iterdir())
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
