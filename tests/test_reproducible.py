"""The north-star property: the same config and seed give byte-identical
output.  ``synth6 --seed 0`` must reproduce the committed benchmark fixtures
for both plants, two ``synth4`` runs must write identical files, and
``analyze``, ``simulate`` and ``gridcheck`` on the fixtures must write the
files whose SHA-256 digests are recorded below, as must a ``synth6`` run
with random starts and ``decouple`` on each benchmark with no config."""

import hashlib
import json
from pathlib import Path

import pytest

from modalsyn import cli, statespace

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


VALIDATE_SHA256 = {
    "two_mass": {
        "certificate.json": "43997de1934c7cfeb9e8f7e520b3ebf00c110ec5d1332216810556937354b6a6",
        "conventional_channels.csv": "23caa525881dca5351fedd09b79e33cef1dec33fa20b94bcc4bb697abcdeadd5",
        "conventional_closedloop.csv": "aacba9df83d322d3c506c697b1da3f7eea677d33d0096d544c0e2da374d46c32",
        "proposed_channels.csv": "e900c9a598b0a4cc5ca1f362b504eb2903a835d5f961200cfaf850790e1c3e08",
        "proposed_closedloop.csv": "50dc2263d745d21848629c86407f35a3db1e347c1fac8cc857238a6a007b87c3",
        "simulation.json": "f8ecb0577210e3a11a7d2c9db84f7149a60bd5489c24ac5f270e86aca4ca05c9",
        "timeseries.csv": "567df9fd5b1e69376bfebf29066b8f1b6f5c92f0cf2af6bdea015b6fbef56e8d",
    },
    "mmpa_lite": {
        "certificate.json": "049da411bbea5a028b8ccc5fc3882eb770f224af74780b229158e489d66c6232",
        "conventional_channels.csv": "210ae799f565543efb55f9d22266cb2e61e056474f7aa298ede112048ec3006b",
        "conventional_closedloop.csv": "ab6d8c3785907b63f77440dd0594e7e44a2633213a564d2a60acdc8147b4c83a",
        "proposed_channels.csv": "b3faa2501678eec6da30b8f75eade50a6adc2b0fbae16ba6a92adc95b70514e6",
        "proposed_closedloop.csv": "b5250e21257f28760dddf492f3b8aae4ee0afd83f73972b78959bee228bb7a96",
        "simulation.json": "d15504e5bb64c896cdad41953f5c279d00a34449312b7e7d111bbb0fb87b7f2c",
        "timeseries.csv": "e3a5918a426a6929ee73110472ba0f086e52b1a8b9784771fbf20bb29c643a22",
    },
}


@pytest.mark.parametrize("plant", ["two_mass", "mmpa_lite"])
def test_validate_outputs_match_recorded_digests(tmp_path, plant):
    results = str(BENCH / "fixtures" / plant / "results.json")
    for command in ("analyze", "simulate", "gridcheck"):
        assert cli.main([command, results, "--seed", "0",
                         "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == VALIDATE_SHA256[plant]



@pytest.mark.parametrize("plant", ["two_mass", "mmpa_lite"])
def test_simulate_steps_both_designs_in_one_recurrence(tmp_path, plant,
                                                       monkeypatch):
    """``simulate`` on a two-design results file runs two stepping loops,
    the band-pass of the disturbance and one stack of both closed loops,
    and still writes the recorded bytes."""
    stacks = []

    def recurrence(Ad, *args):
        stacks.append(Ad.shape[0])
        return kernel(Ad, *args)

    kernel = statespace._zoh_recurrence
    monkeypatch.setattr(statespace, "_zoh_recurrence", recurrence)
    results = str(BENCH / "fixtures" / plant / "results.json")
    assert cli.main(["simulate", results, "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    assert stacks == [1, 2]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == {name: VALIDATE_SHA256[plant][name]
                       for name in ("simulation.json", "timeseries.csv")}

# synth6 on two_mass with three starts, seed 3, budget 36: the second random
# start wins (gamma 8.36 against 11.25 from the initial design), so the
# digests pin the random starts, their probes and the multi-start choice
MULTISTART_SHA256 = {
    "conventional_channels.csv": "23caa525881dca5351fedd09b79e33cef1dec33fa20b94bcc4bb697abcdeadd5",
    "proposed_channels.csv": "e75e0c375dcbaa76ea738ac1700f2c85921c068d64e1a5a4b5ca662c0c919cc5",
    "results.json": "179578cdfda49279cd4cad13ab19cfc3c12dd4bf47c40d6b785c5627fc2413df",
}


def test_multistart_synth6_matches_recorded_digests(tmp_path):
    config = json.loads((BENCH / "configs" / "two_mass.json").read_text())
    config["n_starts"] = 3
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["synth6", "--config", str(path), "--seed", "3",
                     "--budget", "36", "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
    assert digests == MULTISTART_SHA256


# decouple on each benchmark with its defaults: every retained mode, as many
# of them decoupled as the actuators allow, at the benchmark's design point
DECOUPLE_SHA256 = {
    "two_mass": {
        "decoupling.json": "0ff07c1613a63d4689a8cb3c404a1166f319cb8b31ecfdfbec0f84a577494276",
        "modal_summary.json": "8111e0859306149197a8da163ce2383670a9aae8266763eeafc44ffab96f7d11",
    },
    "two_mass_square": {
        "decoupling.json": "9a3ce545abb7c0ef18597f42c2c7c9c338d0b419ccdda7ba955d7402c5562a93",
        "modal_summary.json": "e3b5fe7cd859fb20fedfbaf500fab79e63bd658c4d0f3586d1caf5c02804a827",
    },
    "mmpa_lite": {
        "decoupling.json": "d2dcdec9d755d14986926be786d41d902c72f229784507da6402c9cad2fba27a",
        "modal_summary.json": "76fb0b516c386fed68d73b12ba8c2ef1afe3a94b9979d0ccb31e1cbc676e77ba",
    },
}


@pytest.mark.parametrize("model", sorted(DECOUPLE_SHA256))
def test_decouple_matches_recorded_digests(tmp_path, model):
    assert cli.main(["decouple", "--model", model, "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == DECOUPLE_SHA256[model]
