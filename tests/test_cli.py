import json
import os

import numpy as np
import pytest

from modalsyn.benchplant import make_two_mass
from modalsyn.cli import main

CONFIG = {
    "model": "two_mass",
    "f_bw": [10.0],
    "expected_error": [1e-4],
    "retain": [1],
    "controlled": [1],
    "n_flex_decouple": 1,
    "Q": 10.0,
    "budget": 20,
    "n_starts": 1,
    "weights": {"eps": 0.02},
    "simulate": {"dt": 1e-3, "duration": 0.2},
}


def write_config(path):
    with open(path, "w") as fh:
        json.dump(CONFIG, fh)
    return str(path)


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """One small synth6 run shared by the downstream-command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "config.json")
    out = root / "run"
    rc = main(["synth6", "--config", cfg, "--out", str(out)])
    assert rc == 0
    return cfg, str(out)


class TestSynth:
    def test_writes_results_and_channels(self, synth_run):
        _, out = synth_run
        with open(os.path.join(out, "results.json")) as fh:
            doc = json.load(fh)
        assert doc["kind"] == "6block"
        assert doc["model"] == "two_mass"
        for key in ("proposed", "conventional", "certificate_proposed",
                    "certificate_conventional", "config"):
            assert key in doc
        assert doc["proposed"]["gamma"] > 0
        assert os.path.exists(os.path.join(out, "proposed_channels.csv"))
        assert os.path.exists(os.path.join(out, "conventional_channels.csv"))

    def test_conventional_xi_frozen(self, synth_run):
        _, out = synth_run
        with open(os.path.join(out, "results.json")) as fh:
            doc = json.load(fh)
        assert doc["conventional"]["params"]["xi"] == [0.0]

    def test_deterministic_results(self, synth_run, tmp_path):
        cfg, out = synth_run
        rc = main(["synth6", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        with open(os.path.join(out, "results.json"), "rb") as fh:
            first = fh.read()
        with open(tmp_path / "results.json", "rb") as fh:
            second = fh.read()
        assert first == second

    def test_budget_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        rc = main(["synth6", "--config", cfg, "--out", str(tmp_path),
                   "--budget", "0"])
        assert rc == 0
        with open(tmp_path / "results.json") as fh:
            doc = json.load(fh)
        assert doc["budget"] == 0


class TestDownstream:
    def test_analyze(self, synth_run, tmp_path):
        _, out = synth_run
        rc = main(["analyze", os.path.join(out, "results.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        for label in ("proposed", "conventional"):
            assert (tmp_path / f"{label}_channels.csv").exists()
            assert (tmp_path / f"{label}_closedloop.csv").exists()

    def test_simulate(self, synth_run, tmp_path):
        _, out = synth_run
        rc = main(["simulate", os.path.join(out, "results.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "simulation.json") as fh:
            summary = json.load(fh)
        assert "rms_ratio" in summary
        assert summary["rms"]["proposed"] > 0
        data = np.genfromtxt(tmp_path / "timeseries.csv", delimiter=",",
                             names=True)
        assert data.shape[0] == int(round(0.2 / 1e-3))
        assert "proposed_y0" in data.dtype.names

    def test_gridcheck(self, synth_run, tmp_path):
        _, out = synth_run
        rc = main(["gridcheck", os.path.join(out, "results.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "certificate.json") as fh:
            cert = json.load(fh)
        assert len(cert["stable"]) == 11
        assert all(cert["stable"])


class TestDecouple:
    def test_writes_summary(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        rc = main(["decouple", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "decoupling.json").exists()
        with open(tmp_path / "modal_summary.json") as fh:
            doc = json.load(fh)
        assert doc["n_rb"] == 1 and doc["n_flex"] == 1
        assert doc["omega_hz"][1] == pytest.approx(50.0, rel=1e-6)

    def test_config_without_bandwidth(self, tmp_path):
        """Decoupling needs no shaping keys: a config without 'f_bw' or
        'expected_error' decouples."""
        cfg = tmp_path / "config.json"
        with open(cfg, "w") as fh:
            json.dump({"model": "two_mass", "retain": [1]}, fh)
        assert main(["decouple", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "modal_summary.json") as fh:
            assert json.load(fh)["retained"] == [1]

    def test_model_file_takes_design_point_and_grid_from_flags(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(make_two_mass().to_dict()))
        base = ["decouple", "--model", str(path), "--out", str(tmp_path)]
        assert main(base + ["--grid", "[[0.0], [0.5]]"]) == 2
        assert main(base + ["--p-star", "0.3", "--grid", "[[0.0], [0.5]]"]) == 0
        with open(tmp_path / "modal_summary.json") as fh:
            doc = json.load(fh)
        assert doc["model"] == "model.json" and doc["p_star"] == [0.3]

    def test_model_file_needs_no_grid(self, tmp_path):
        """Decoupling never uses the scheduling grid: a model file decouples
        with a design point alone, and a problem built on it still asks for
        the grid."""
        path = tmp_path / "model.json"
        path.write_text(json.dumps(make_two_mass().to_dict()))
        assert main(["decouple", "--model", str(path), "--p-star", "0.3",
                     "--out", str(tmp_path)]) == 0
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(CONFIG, model=str(path), p_star=0.3)))
        assert main(["synth6", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_mmpa_lite_decouples_without_config(self, tmp_path):
        """With no config, as many retained modes are decoupled as the
        actuators left after the rigid-body ones can take: one of
        mmpa_lite's two, with four actuators and three rigid-body modes."""
        assert main(["decouple", "--model", "mmpa_lite",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "modal_summary.json") as fh:
            summary = json.load(fh)
        with open(tmp_path / "decoupling.json") as fh:
            pair = json.load(fh)
        assert summary["model"] == "mmpa_lite" and summary["retained"] == [3, 4]
        assert pair["n_rb"] == 3 and pair["n_flex"] == 1


class TestErrors:
    def test_missing_config_is_usage_error(self):
        assert main(["synth6"]) == 2

    def test_unknown_model_is_usage_error(self, tmp_path):
        cfg = tmp_path / "config.json"
        bad = dict(CONFIG, model="no_such_benchmark")
        with open(cfg, "w") as fh:
            json.dump(bad, fh)
        assert main(["synth6", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_missing_required_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "config.json"
        bad = {k: v for k, v in CONFIG.items() if k != "f_bw"}
        with open(cfg, "w") as fh:
            json.dump(bad, fh)
        assert main(["synth6", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_missing_results_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_corrupt_results_file(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("{not json")
        assert main(["analyze", str(path), "--out", str(tmp_path)]) == 2

    def test_model_file_that_is_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        assert main(["decouple", "--model", str(path),
                     "--out", str(tmp_path)]) == 2

    def test_model_file_without_damping(self, tmp_path):
        doc = make_two_mass().to_dict()
        del doc["D"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["decouple", "--model", str(path),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag", ["--p-star", "--grid"])
    def test_flag_that_is_not_json(self, tmp_path, flag):
        assert main(["decouple", "--model", "two_mass", flag, "[0.3",
                     "--out", str(tmp_path)]) == 2

    def test_bandwidth_that_is_not_a_list(self, tmp_path):
        cfg = tmp_path / "config.json"
        with open(cfg, "w") as fh:
            json.dump(dict(CONFIG, f_bw=10.0), fh)
        assert main(["synth6", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_negative_simulation_seed_is_usage_error(self, synth_run, tmp_path):
        _, out = synth_run
        assert main(["simulate", os.path.join(out, "results.json"), "--seed",
                     "-1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("doc", [[CONFIG], "two_mass", None])
    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, doc):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["synth6", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_config_that_is_a_directory_is_usage_error(self, tmp_path):
        assert main(["synth6", "--config", str(tmp_path),
                     "--out", str(tmp_path)]) == 2

    def test_gridcheck_without_a_proposed_design(self, synth_run, tmp_path):
        _, out = synth_run
        with open(os.path.join(out, "results.json")) as fh:
            doc = json.load(fh)
        del doc["proposed"]
        path = tmp_path / "results.json"
        path.write_text(json.dumps(doc))
        assert main(["gridcheck", str(path), "--out", str(tmp_path)]) == 2

    def test_empty_grid_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        assert main(["synth6", "--config", cfg, "--grid", "[]",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flags, named", [
        (["--grid", "[2.5]"], "the scheduling point [2.5]"),
        (["--grid", "[[0.1, 0.2]]"], "the scheduling point [0.1, 0.2]"),
        (["--p-star", "2.5"], "the design point [2.5]")])
    def test_point_outside_the_box_is_usage_error(self, tmp_path, capsys,
                                                  flags, named):
        """A design or grid point outside the scheduling box, or of another
        dimension, is named with the box before any search runs."""
        cfg = write_config(tmp_path / "config.json")
        assert main(["synth6", "--config", cfg, *flags,
                     "--out", str(tmp_path)]) == 2
        assert (f"{named} is not in the model's scheduling box [[0.0, 1.0]]"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flags", [["--p-star", '"a"'],
                                       ["--p-star", "[[0.1], [0.2, 0.3]]"],
                                       ["--grid", '[["a"]]'], ["--grid", "2.5"]])
    def test_point_that_is_not_numbers_is_usage_error(self, tmp_path, flags):
        """A design point that numpy cannot read as numbers exits 2, as a
        grid that is not a list of such points does."""
        cfg = write_config(tmp_path / "config.json")
        assert main(["synth6", "--config", cfg, *flags,
                     "--out", str(tmp_path)]) == 2

    def test_gridcheck_point_outside_the_box_is_usage_error(self, synth_run,
                                                            tmp_path, capsys):
        _, out = synth_run
        assert main(["gridcheck", os.path.join(out, "results.json"), "--grid",
                     "[2.5]", "--out", str(tmp_path)]) == 2
        assert "[2.5] is not in the model's scheduling box" in capsys.readouterr().err

    @pytest.mark.parametrize("sim", [{"dt": 0}, {"dt": -1e-3},
                                     {"duration": 0}, {"duration": -1.0},
                                     {"dt": 0.1, "duration": 0.1},
                                     {"dt": "abc"}, {"f_disturbance": -50},
                                     {"f_disturbance": 0},
                                     {"f_disturbance": 1e9},
                                     {"f_disturbance": 500.0},
                                     {"amplitude": 0}, {"amplitude": "inf"},
                                     {"bogus": 1}, [1], "abc"])
    def test_simulation_without_two_samples_is_usage_error(
            self, synth_run, tmp_path, sim):
        _, out = synth_run
        cfg = tmp_path / "config.json"
        if isinstance(sim, dict):
            sim = {**CONFIG["simulate"], **sim}
        with open(cfg, "w") as fh:
            json.dump(dict(CONFIG, simulate=sim), fh)
        assert main(["simulate", os.path.join(out, "results.json"),
                     "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["analyze", "gridcheck"])
    @pytest.mark.parametrize("design", [{}, {"params": {"krb": [[1]]}}, [1]],
                             ids=["empty", "no_L", "list"])
    def test_malformed_design_is_usage_error(self, synth_run, tmp_path, capsys,
                                             command, design):
        _, out = synth_run
        with open(os.path.join(out, "results.json")) as fh:
            doc = json.load(fh)
        path = tmp_path / "results.json"
        path.write_text(json.dumps(dict(doc, proposed=design)))
        assert main([command, str(path), "--out", str(tmp_path)]) == 2
        assert "'proposed' design" in capsys.readouterr().err

    def test_results_without_a_design_cannot_be_simulated(self, synth_run,
                                                          tmp_path, capsys):
        _, out = synth_run
        with open(os.path.join(out, "results.json")) as fh:
            doc = json.load(fh)
        for label in ("proposed", "conventional"):
            doc.pop(label, None)
        path = tmp_path / "results.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path)]) == 2
        assert "no design to simulate" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        pytest.param(key, "abc", id=key) for key in ("budget", "seed", "n_starts")
    ] + [("Q", "abc"), ("Q", [10.0]), ("q_weight", "abc"), ("v_weight", [1.0]),
         ("crossover_tolerance", "abc"), ("n_flex_decouple", "abc"),
         ("n_flex_decouple", [1]), ("retain", ["a"]), ("retain", 1),
         ("retain", [0]), ("weights", [0.02]), ("weights", {"K_s": "a"}),
         ("weights", {"eps": "a"}), ("weights", {"f_int": [1.0, 2.0]}),
         ("weights", {"K_s": -1.0}), ("f_bw", [10.0, 20.0]),
         ("expected_error", [1e-4, 1e-4]), ("controlled", [0]),
         ("controlled", [5]), ("controlled", ["a"]), ("controlled", 1),
         ("budget", 2.7), ("retain", [1.9]), ("seed", True), ("Q", True),
         ("n_flex_decouple", -1), ("n_flex_decouple", 2), ("Q", -1.0),
         ("Q", 0.0), ("weights", {"Ks": 0.1}), ("weights", {"f_int": -1.0}),
         ("weights", {"f_roll": 0.0}), ("seed", -1), ("budget", -3),
         ("n_starts", 0), ("n_starts", -2), ("crossover_tolerance", -0.5),
         ("crossover_tolerance", 2.0), ("q_weight", -1.0),
         ("q_weight", float("nan")), ("v_weight", -1.0),
         ("v_weight", float("nan")), ("f_bw", [-10.0]), ("f_bw", [float("inf")]),
         ("expected_error", [0.0]), ("controlled", []), ("controlled", [1, 1]),
         ("retain", [1, 1])],
        ids=lambda v: json.dumps(v, separators=(",", ":")).strip('"'))
    def test_malformed_setting_is_usage_error(self, tmp_path, key, value):
        cfg = tmp_path / "config.json"
        with open(cfg, "w") as fh:
            json.dump(dict(CONFIG, **{key: value}), fh)
        assert main(["synth6", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
