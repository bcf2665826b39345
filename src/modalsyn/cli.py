"""Command-line front end.

Subcommands: ``decouple``, ``synth6``, ``synth4``, ``analyze``, ``simulate``
and ``gridcheck``.  All configuration is JSON; outputs are JSON/CSV files in
the directory given by ``--out``.  Results are deterministic for a fixed
config and seed (wall time is never written to results files).

Exit codes: 0 success, 1 numeric failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from modalsyn.benchplant import by_name
from modalsyn.decoupling import (
    apply_decoupling_partitioned,
    extended_input_decoupling,
)
from modalsyn.mechanics import (
    MechanicalModel,
    evaluate_local,
    group_and_partition,
    modal_decompose,
)
from modalsyn.shaping import compute_scalings, design_weights
from modalsyn.statespace import (
    _CHUNK_ROWS,
    ModelError,
    NumericError,
    diagonal_ss,
    freq_response,
    simulate,
)
from modalsyn.synthesis import (
    ClosedLoopMap,
    ConventionalView,
    StructuredControllerParams,
    close_full_loop,
    grid_stability_check,
    initial_params,
    synthesize,
)


class ConfigError(ValueError):
    """Bad or incomplete configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# configuration and problem assembly
# ---------------------------------------------------------------------------

@dataclass
class DecoupledModel:
    """The model a command works on, decoupled at its design point."""

    name: str
    p_star: np.ndarray
    bench_grid: object       # the benchmark's scheduling grid, None for a file
    pair: object             # the decoupling pair
    pm: object               # the decoupled partitioned model


@dataclass
class DesignProblem:
    model: DecoupledModel
    grid: list               # scheduling points, one array each
    cl: ClosedLoopMap
    config: dict


def _load_config(path):
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _json_flag(args, key):
    """The value of the JSON flag ``key``, None when it is not given."""
    flag = getattr(args, key, None)
    try:
        return None if flag is None else json.loads(flag)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--{key.replace('_', '-')} is not valid JSON: {exc}")


def _typed(kind, key, value):
    """``value`` of the setting ``key`` as a ``kind``, int or float."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"'{key}' is not a valid {kind.__name__}: {value!r}")


def _modes(key, value, allowed):
    """``value`` of the setting ``key``: a list of mode indices in ``allowed``."""
    modes = [_typed(int, key, v) for v in value] if isinstance(value, list) else None
    if modes is None or not set(modes) <= set(allowed):
        raise ConfigError(f"'{key}' must be a list of modes from "
                          f"{list(allowed)}: {value!r}")
    return modes


def _setting(key, config, args, default):
    """``key`` from its flag, else the config, else ``default``."""
    value = _json_flag(args, key)
    value = config.get(key) if value is None else value
    value = default if value is None else value
    if value is None:
        raise ConfigError(f"file-based models need '{key}' (from its flag or "
                          "the config)")
    return value


def decoupled_model(config, args) -> DecoupledModel:
    """The model that ``--model`` or the config names, a benchmark or a
    model JSON file, decoupled at its design point; the design point comes
    from its flag, else the config, else the benchmark (a model file brings
    none)."""
    name = getattr(args, "model", None) or config.get("model")
    if name is None:
        raise ConfigError("no model given (use --model or the 'model' key)")
    try:
        spec = by_name(name)
        name, model, p_star, grid = spec.name, spec.model, spec.p_star, spec.grid
    except (ModelError, KeyError):
        try:
            with open(name) as fh:
                model = MechanicalModel.from_dict(json.load(fh))
        except FileNotFoundError:
            raise ConfigError(f"unknown benchmark and no such file: {name}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model file is not valid JSON: {exc}")
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"model file {name} is not a mechanical model: {exc!r}")
        name, p_star, grid = os.path.basename(name), None, None
    p_star = np.atleast_1d(np.asarray(_setting("p_star", config, args, p_star),
                                      float))
    dec = modal_decompose(model)
    flexible = list(range(dec.n_rb, dec.n_modes))
    retain = _modes("retain", config.get("retain", flexible), flexible)
    pm = group_and_partition(dec, model, retain)
    # by default as many retained modes as the spare actuators can decouple
    n_flex_dec = _typed(int, "n_flex_decouple", config.get(
        "n_flex_decouple", max(0, min(pm.n_flex, pm.n_u - pm.n_rb))))
    pair = extended_input_decoupling(pm, p_star, n_flex_dec)
    return DecoupledModel(name, p_star, grid, pair,
                          apply_decoupling_partitioned(pm, pair))


def build_problem(config, args, kind) -> DesignProblem:
    """The ``kind`` design problem on the decoupled model; the scheduling
    grid comes from its flag, else the config, else the benchmark."""
    model = decoupled_model(config, args)
    points = _setting("grid", config, args, model.bench_grid)
    try:
        grid = [np.atleast_1d(np.asarray(p, float)) for p in points]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"the grid must be a list of scheduling points: {exc}")
    if not grid:
        raise ConfigError("the grid has no scheduling points")
    dpm, p_star = model.pm, model.p_star
    controlled = _modes("controlled", config.get("controlled", list(dpm.retained)),
                        dpm.retained)
    try:
        f_bw = [float(f) for f in config["f_bw"]]
        expected_error = [float(e) for e in config["expected_error"]]
    except KeyError as exc:
        raise ConfigError(f"config is missing required key {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'f_bw' and 'expected_error' must be lists of "
                          f"numbers: {exc}")
    if not len(f_bw) == len(expected_error) == dpm.n_rb:
        raise ConfigError(f"'f_bw' and 'expected_error' need one entry per "
                          f"rigid-body channel ({dpm.n_rb})")
    sc = compute_scalings(evaluate_local(dpm, p_star), f_bw, expected_error)
    f_flex = [float(dpm.omega[i]) / (2 * np.pi) for i in controlled]
    wcfg = config.get("weights", {})
    if not isinstance(wcfg, dict):
        raise ConfigError(f"'weights' must be an object: {wcfg!r}")
    wkw = {k: wcfg[k] for k in ("K_s", "K_r", "alpha", "beta1", "beta2",
                                "eps", "f_int", "f_roll") if k in wcfg}
    try:
        weights = design_weights(f_bw, f_flex, **wkw)
    except (TypeError, ValueError) as exc:   # ModelError included
        raise ConfigError(f"'weights' {wcfg} do not give shaping filters: {exc}")
    cl = ClosedLoopMap(kind, dpm, p_star, sc, weights, controlled,
                       Q=_typed(float, "Q", config.get("Q", 10.0)), f_bw=f_bw)
    return DesignProblem(model, grid, cl, config)


def _out_dir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path, columns):
    """CSV of equal-length float columns, a header of their names and every
    value as ``%.18e`` (the text of ``np.savetxt``), written in blocks of at
    most ``_CHUNK_ROWS`` rows."""
    data = np.column_stack(list(columns.values()))
    row = ",".join(["%.18e"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for k in range(0, data.shape[0], _CHUNK_ROWS):
            block = data[k:k + _CHUNK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def _channel_csv(path, M, f_lo=1e-1, f_hi=1e4, n=400):
    freqs = np.logspace(np.log10(f_lo), np.log10(f_hi), n)
    freq_response(M, freqs).to_csv(path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_decouple(args):
    config = _load_config(args.config) if args.config else {}
    model = decoupled_model(config, args)
    pm = model.pm
    out = _out_dir(args)
    model.pair.to_json(os.path.join(out, "decoupling.json"))
    doc = {"model": model.name, "p_star": model.p_star.tolist(),
           "n_rb": pm.n_rb, "n_flex": pm.n_flex,
           "omega_hz": (pm.omega / (2 * np.pi)).tolist(),
           "zeta": pm.zeta.tolist(),
           "retained": list(pm.retained),
           "discarded": list(pm.discarded)}
    _write_json(os.path.join(out, "modal_summary.json"), doc)
    print(f"wrote decoupling.json and modal_summary.json to {out}")
    return 0


def _run_synth(args, kind):
    config = _load_config(args.config)
    prob = build_problem(config, args, kind)
    budget = _typed(int, "budget", args.budget if args.budget is not None
                    else config.get("budget", 2000))
    seed = _typed(int, "seed", args.seed if args.seed is not None
                  else config.get("seed", 0))
    n_starts = _typed(int, "n_starts", config.get("n_starts", 5))
    cl = prob.cl
    init = initial_params(
        cl, q_weight=_typed(float, "q_weight", config.get("q_weight", 1e4)),
        v_weight=_typed(float, "v_weight", config.get("v_weight", 1.0)))
    tol = _typed(float, "crossover_tolerance",
                 config.get("crossover_tolerance", 0.06))
    band = ((1 - tol) * min(cl.f_bw), (1 + tol) * max(cl.f_bw))

    res = synthesize(cl, init, budget=budget, seed=seed, n_starts=n_starts,
                     grid_points=prob.grid, crossover_band=band)
    conv = synthesize(ConventionalView(cl), init, budget=budget, seed=seed,
                      n_starts=n_starts, grid_points=prob.grid,
                      crossover_band=band)
    cert = grid_stability_check(cl, res.params, prob.grid)
    cert_conv = grid_stability_check(cl, conv.params, prob.grid)

    out = _out_dir(args)
    doc = {"kind": kind, "model": prob.model.name, "seed": seed,
           "budget": budget, "config": config,
           "proposed": res.to_dict(), "conventional": conv.to_dict(),
           "certificate_proposed": cert.to_dict(),
           "certificate_conventional": cert_conv.to_dict()}
    _write_json(os.path.join(out, "results.json"), doc)
    _channel_csv(os.path.join(out, "proposed_channels.csv"),
                 cl.evaluate(res.params))
    _channel_csv(os.path.join(out, "conventional_channels.csv"),
                 cl.evaluate(conv.params))
    status = "certified" if cert.all_stable else "NOT grid-stable"
    print(f"{kind}: gamma {res.gamma:.4g} (conventional {conv.gamma:.4g}), "
          f"{status}; results in {out}")
    return 0


def cmd_synth6(args):
    return _run_synth(args, "6block")


def cmd_synth4(args):
    return _run_synth(args, "4block")


def _load_results(args):
    """The results document and its problem, rebuilt for the results' kind
    from ``--config`` or else the config stored in the results."""
    try:
        with open(args.results) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"results file not found: {args.results}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"results file is not valid JSON: {exc}")
    config = _load_config(args.config) if args.config else doc.get("config")
    if config is None:
        raise ConfigError("no config available (pass --config)")
    return doc, build_problem(config, args, doc.get("kind", "6block"))


def cmd_analyze(args):
    doc, prob = _load_results(args)
    out = _out_dir(args)
    for label in ("proposed", "conventional"):
        if label not in doc:
            continue
        params = StructuredControllerParams.from_dict(doc[label]["params"])
        M = prob.cl.evaluate(params)
        _channel_csv(os.path.join(out, f"{label}_channels.csv"), M)
        closed = close_full_loop(prob.cl.plant, prob.cl, params)
        _channel_csv(os.path.join(out, f"{label}_closedloop.csv"), closed)
    print(f"analysis CSVs written to {out}")
    return 0


def _band_disturbance(n, dt, f_center, seed, q=5.0, amplitude=1.0):
    """Band-limited noise: white noise through a band-pass around f_center."""
    rng = np.random.default_rng(seed)
    w = 2 * np.pi * f_center
    bp = diagonal_ss([[(np.array([w / q, 0.0]), np.array([1.0, w / q, w ** 2]))]])
    white = rng.standard_normal((n, 1))
    _, _, d = simulate(bp, white, dt)
    scale = np.max(np.abs(d))
    return amplitude * d / (scale if scale > 0 else 1.0)


def cmd_simulate(args):
    doc, prob = _load_results(args)
    cl = prob.cl
    sim = prob.config.get("simulate", {})
    dt = _typed(float, "dt", sim.get("dt", 1e-4))
    duration = _typed(float, "duration", sim.get("duration", 2.0))
    f_dist = _typed(float, "f_disturbance", sim.get("f_disturbance", 50.0))
    seed = _typed(int, "seed", args.seed if args.seed is not None
                  else sim.get("seed", 0))
    if not (0 < dt < np.inf and 0 < duration < np.inf):
        raise ConfigError(f"'dt' ({dt}) and 'duration' ({duration}) must be "
                          "positive and finite")
    n = int(round(duration / dt))
    if n < 2:
        raise ConfigError(f"a duration of {duration} s at dt {dt} s gives "
                          f"{n} samples, fewer than 2")
    amplitude = _typed(float, "amplitude", sim.get("amplitude", 1.0))
    if not (0 < f_dist < 0.5 / dt and 0 < amplitude < np.inf):
        raise ConfigError(f"need 0 < 'f_disturbance' ({f_dist}) < {0.5 / dt} Hz "
                          f"(Nyquist) and 0 < 'amplitude' ({amplitude}) < inf")
    d = _band_disturbance(n, dt, f_dist, seed, amplitude=amplitude)
    w = np.hstack([np.zeros((n, cl.n_rb)),
                   np.tile(d, (1, cl.n_flex))])
    out = _out_dir(args)
    rows = {"t": np.arange(n) * dt}
    rms = {}
    for label in ("proposed", "conventional"):
        if label not in doc:
            continue
        params = StructuredControllerParams.from_dict(doc[label]["params"])
        closed = close_full_loop(cl.plant, cl, params)
        _, _, y = simulate(closed, w, dt)
        for j in range(y.shape[1]):
            rows[f"{label}_y{j}"] = y[:, j]
        rms[label] = float(np.sqrt(np.mean(y ** 2)))
    _write_table(os.path.join(out, "timeseries.csv"), rows)
    summary = {"dt": dt, "duration": duration, "f_disturbance": f_dist,
               "seed": seed, "rms": rms}
    if "proposed" in rms and "conventional" in rms and rms["conventional"] > 0:
        summary["rms_ratio"] = rms["proposed"] / rms["conventional"]
    _write_json(os.path.join(out, "simulation.json"), summary)
    print(f"simulation written to {out}: " +
          ", ".join(f"{k} RMS {v:.3e}" for k, v in rms.items()))
    return 0


def cmd_gridcheck(args):
    doc, prob = _load_results(args)
    if "proposed" not in doc:
        raise ConfigError("results file has no 'proposed' design")
    params = StructuredControllerParams.from_dict(doc["proposed"]["params"])
    cert = grid_stability_check(prob.cl, params, prob.grid)
    out = _out_dir(args)
    _write_json(os.path.join(out, "certificate.json"), cert.to_dict())
    n_ok = sum(cert.stable)
    print(f"grid certificate: {n_ok}/{len(cert.stable)} points stable "
          f"(worst abscissa {max(cert.abscissa):.4g})")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--model", help="benchmark name or model JSON file")
    sp.add_argument("--config", help="configuration JSON file")
    sp.add_argument("--out", help="output directory (default: current)")
    sp.add_argument("--seed", type=int, help="override the RNG seed")
    sp.add_argument("--p-star", dest="p_star",
                    help="design point, JSON (e.g. '0.3' or '[0.3,0.4]')")
    sp.add_argument("--grid", help="scheduling grid, JSON list")
    sp.add_argument("--budget", type=int, help="optimizer evaluation budget")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="modalsyn",
        description="modal decoupling, observer and structured H-infinity "
                    "co-design for flexible motion systems")
    sub = ap.add_subparsers(dest="command", required=True)
    specs = [
        ("decouple", cmd_decouple, "compute and export the decoupling pair", []),
        ("synth6", cmd_synth6, "output-based co-design (2x3 weighted map)", []),
        ("synth4", cmd_synth4, "error-based co-design (2x2 weighted map)", []),
        ("analyze", cmd_analyze, "export frequency-domain CSVs for a result",
         ["results"]),
        ("simulate", cmd_simulate, "time-domain disturbance comparison",
         ["results"]),
        ("gridcheck", cmd_gridcheck, "re-run the grid stability certificate",
         ["results"]),
    ]
    for name, func, help_text, positionals in specs:
        sp = sub.add_parser(name, help=help_text)
        for pos in positionals:
            sp.add_argument(pos, help="results.json from a synth run")
        _add_common(sp)
        sp.set_defaults(func=func)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for key in ("p_star", "grid"):     # a malformed flag fails every command
            _json_flag(args, key)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
