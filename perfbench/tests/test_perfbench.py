"""Tests of the benchmark's own machinery: python3 -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from modalsyn import cli, synthesis  # noqa: E402
from modalsyn.statespace import StateSpaceModel  # noqa: E402


def _bindings():
    """Every module global and class attribute the tracer may replace."""
    import importlib
    seen = {}
    for mod_name, qual, _ in tracing.TRACED:
        module = importlib.import_module(f"modalsyn.{mod_name}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(module, cls_name)
            seen[(cls, attr)] = vars(cls)[attr]
    for name, mod in list(sys.modules.items()):
        if name == "modalsyn" or name.startswith("modalsyn."):
            for attr, value in vars(mod).items():
                if callable(value):
                    seen[(mod, attr)] = value
    return seen


def test_wrappers_restore_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert synthesis.hinf_norm is not before[(synthesis, "hinf_norm")]
        assert cli.freq_response is not before[(cli, "freq_response")]
        assert (vars(synthesis.ClosedLoopMap)["evaluate"]
                is not before[(synthesis.ClosedLoopMap, "evaluate")])
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _synth(out, tracer=None):
    argv = ["synth6", "--config", str(run.CONFIGS / "two_mass.json"),
            "--out", str(out), "--seed", "3", "--budget", "6"]
    if tracer is not None:
        tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        if tracer is not None:
            tracer.restore()
    return out / "results.json"


def test_tracing_keeps_results_identical_and_classes_sum(tmp_path):
    plain = _synth(tmp_path / "plain")
    tracer = tracing.Tracer()
    traced = _synth(tmp_path / "traced", tracer)
    assert plain.read_bytes() == traced.read_bytes()
    assert ((tmp_path / "plain" / "proposed_channels.csv").read_bytes()
            == (tmp_path / "traced" / "proposed_channels.csv").read_bytes())
    doc = json.loads(traced.read_text())
    counts = tracer.objective_outcomes(0)
    n_evals = doc["proposed"]["n_evals"] + doc["conventional"]["n_evals"]
    assert sum(counts.values()) == n_evals
    totals = tracer.layer_totals(0)
    assert totals["synthesis.synthesize"]["calls"] == 2
    assert totals["synthesis.ClosedLoopMap.evaluate"]["calls"] >= n_evals
    assert totals["synthesis.synthesize"]["self_s"] >= 0.0


def _fake_run(tracer, children):
    """One synthesize span whose direct children are (name, raised) pairs."""
    def add(name, parent, raised=False):
        tracer.name.append(name)
        tracer.start.append(float(len(tracer.start)))
        tracer.end.append(float(len(tracer.end)) + 0.5)
        tracer.parent.append(parent)
        tracer.run.append(0)
        tracer.raised.append(raised)
        tracer.extra.append(0)
        return len(tracer.name) - 1
    top = add("synthesis.synthesize", -1)
    for name, raised in children:
        add(name, top, raised)


def test_outcome_classification_covers_every_class():
    ev, cfl, xo, hn = ("synthesis.ClosedLoopMap.evaluate",
                       "synthesis.close_full_loop", "synthesis.rb_crossover",
                       "statespace.hinf_norm")
    sa = "statespace.spectral_abscissa"
    tracer = tracing.Tracer()
    _fake_run(tracer, [
        (ev, True),                                            # realize_fail
        (ev, False), (sa, False),                              # nominal_unstable
        (ev, False), (sa, False), (cfl, False), (cfl, False),  # grid_unstable
        (ev, False), (cfl, False), (xo, False),                # crossover_miss
        (ev, False), (cfl, False), (xo, False), (hn, True),    # norm_fail
        (ev, False), (cfl, False), (xo, False), (hn, False),   # accepted
        (ev, False), (cfl, False), (xo, False), (hn, False),   # accepted
    ])
    counts = tracer.objective_outcomes(0)
    assert counts == {"realize_fail": 1, "nominal_unstable": 1,
                      "grid_unstable": 1, "crossover_miss": 1,
                      "norm_fail": 1, "accepted": 2}


def test_peak_gain_matches_the_analytic_resonance_peak():
    w0, zeta = 2 * np.pi * 50.0, 0.005
    A = np.array([[0.0, 1.0], [-w0 ** 2, -2 * zeta * w0]])
    M = StateSpaceModel(A, np.array([[0.0], [w0 ** 2]]),
                        np.array([[1.0, 0.0]]), np.zeros((1, 1)))
    exact = 1.0 / (2 * zeta * np.sqrt(1 - zeta ** 2))
    assert abs(run.peak_gain(M) - exact) <= 1e-9 * exact


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table


def test_exits_nonzero_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "validate", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 2
    assert '"correct"' not in r.stdout
