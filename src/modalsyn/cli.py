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
from functools import partial

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
    _E18_WIDTH,
    _format_e18,
    _write_cells,
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


def _read_json(path, what):
    """The JSON object in the ``what`` file at ``path``."""
    if path is None:
        raise ConfigError(f"this command needs a {what} file (--{what})")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}")
    except ValueError as exc:              # not JSON, or not text
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} file {path} holds no JSON object")
    return doc


def _json_flag(args, key):
    """The value of the flag ``key``, parsed as JSON when argparse left it a
    string; None when it is not given."""
    flag = getattr(args, key, None)
    try:
        return json.loads(flag) if isinstance(flag, str) else flag
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--{key.replace('_', '-')} is not valid JSON: {exc}")


def _typed(cast, key, value, lo=-np.inf, hi=np.inf):
    """``value`` of the setting ``key`` as a ``cast``, int or float, with
    ``lo < value < hi``, which NaN fails; a bool is refused, and by an int
    setting any value that ``int`` would change."""
    try:
        typed = cast(value)
    except (TypeError, ValueError, OverflowError):
        typed = None
    if (typed is None or isinstance(value, bool) or cast is int and typed != value
            or not lo < typed < hi):
        raise ConfigError(f"'{key}' must be of type {cast.__name__}, strictly "
                          f"between {lo} and {hi}: {value!r}")
    return typed


def _given(config, cast, *keys):
    """The positive settings ``keys`` that ``config`` sets, as ``cast``; the
    others keep the defaults of the library function they are passed to."""
    return {key: _typed(cast, key, config[key], 0) for key in keys if key in config}


def _modes(key, value, allowed, least=0):
    """``value`` of the setting ``key``: a list of at least ``least`` distinct
    mode indices, each in ``allowed``."""
    modes = [_typed(int, key, v) for v in value] if isinstance(value, list) else None
    if (modes is None or len(modes) < least or len(set(modes)) < len(modes)
            or not set(modes) <= set(allowed)):
        raise ConfigError(f"'{key}' must be a list of at least {least} distinct "
                          f"modes from {list(allowed)}: {value!r}")
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


def _point(pm, value, what):
    """``value`` as a point of ``pm``'s scheduling box: numbers, as many as
    the box has coordinates, each within its range."""
    try:
        p = np.atleast_1d(np.asarray(value, float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} {value!r} is not a list of numbers: {exc}")
    if not pm.C.contains(p):
        raise ConfigError(f"{what} {p.tolist()} is not in the model's "
                          f"scheduling box {pm.C.domain.tolist()}")
    return p


def decoupled_model(config, args) -> DecoupledModel:
    """The model that ``--model`` or the config names, a benchmark or a
    model JSON file, decoupled at its design point; the design point comes
    from its flag, else the config, else the benchmark (a model file brings
    none), and must lie in the model's scheduling box."""
    name = getattr(args, "model", None) or config.get("model")
    if name is None:
        raise ConfigError("no model given (use --model or the 'model' key)")
    try:
        spec = by_name(name)
        name, model, p_star, grid = spec.name, spec.model, spec.p_star, spec.grid
    except (ModelError, KeyError):
        try:
            model = MechanicalModel.from_dict(_read_json(name, "model"))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"model file {name} is not a mechanical model: {exc!r}")
        name, p_star, grid = os.path.basename(name), None, None
    p_star = _setting("p_star", config, args, p_star)
    dec = modal_decompose(model)
    flexible = list(range(dec.n_rb, dec.n_modes))
    retain = _modes("retain", config.get("retain", flexible), flexible)
    pm = group_and_partition(dec, model, retain)
    p_star = _point(pm, p_star, "the design point")
    # by default as many retained modes as the spare actuators can decouple
    n_flex_dec = _typed(int, "n_flex_decouple", config.get(
        "n_flex_decouple", max(0, min(pm.n_flex, pm.n_u - pm.n_rb))),
        -1, pm.n_flex + 1)
    pair = extended_input_decoupling(pm, p_star, n_flex_dec)
    return DecoupledModel(name, p_star, grid, pair,
                          apply_decoupling_partitioned(pm, pair))


def build_problem(config, args, kind) -> DesignProblem:
    """The ``kind`` design problem on the decoupled model; the scheduling
    grid comes from its flag, else the config, else the benchmark, and each
    of its points must lie in the model's scheduling box."""
    model = decoupled_model(config, args)
    points = _setting("grid", config, args, model.bench_grid)
    try:
        points = list(points)
    except TypeError as exc:
        raise ConfigError(f"the grid must be a list of scheduling points: {exc}")
    grid = [_point(model.pm, p, "the scheduling point") for p in points]
    if not grid:
        raise ConfigError("the grid has no scheduling points")
    dpm, p_star = model.pm, model.p_star
    # K_FM damps at least one mode when any is retained
    controlled = _modes("controlled", config.get("controlled", list(dpm.retained)),
                        dpm.retained, least=min(1, dpm.n_flex))
    lists = {key: config.get(key) for key in ("f_bw", "expected_error")}
    if not all(isinstance(v, list) and len(v) == dpm.n_rb for v in lists.values()):
        raise ConfigError(f"'f_bw' and 'expected_error' must be lists of one "
                          f"number per rigid-body channel ({dpm.n_rb}): {lists}")
    f_bw, expected_error = ([_typed(float, key, v, 0) for v in values]
                            for key, values in lists.items())
    sc = compute_scalings(evaluate_local(dpm, p_star), f_bw, expected_error)
    f_flex = [float(dpm.omega[i]) / (2 * np.pi) for i in controlled]
    wcfg = config.get("weights", {})
    if not isinstance(wcfg, dict):
        raise ConfigError(f"'weights' must be an object: {wcfg!r}")
    try:
        weights = design_weights(f_bw, f_flex, **wcfg)
    except (TypeError, ValueError) as exc:   # ModelError included
        raise ConfigError(f"'weights' {wcfg} do not give shaping filters: {exc}")
    Q = _typed(float, "Q", config.get("Q", 10.0), 0)
    cl = ClosedLoopMap(kind, dpm, p_star, sc, weights, controlled, Q=Q, f_bw=f_bw)
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
    most ``_CHUNK_ROWS`` rows: each block's values are formatted by
    :func:`_format_e18` into one fixed-width byte matrix whose NUL padding
    is deleted before the write."""
    cols = list(columns.values())
    n_rows = len(cols[0])
    cells = np.empty((min(n_rows, _CHUNK_ROWS), len(cols), _E18_WIDTH + 1),
                     np.uint8)
    cells[:, :, -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        for k in range(0, n_rows, _CHUNK_ROWS):
            block = np.column_stack([c[k:k + _CHUNK_ROWS] for c in cols])
            rows = cells[:block.shape[0]]
            _format_e18(block.ravel(), rows.reshape(-1, _E18_WIDTH + 1))
            _write_cells(fh, rows)


def _channel_csv(path, M):
    """M's frequency response at 400 points from 0.1 Hz to 10 kHz."""
    freq_response(M, np.logspace(-1.0, 4.0, 400)).to_csv(path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_decouple(args):
    config = _read_json(args.config, "config") if args.config else {}
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


# each design: its label in the results and the objective it minimizes
DESIGNS = (("proposed", lambda cl: cl), ("conventional", ConventionalView))


def _run_synth(args, kind):
    config = _read_json(args.config, "config")
    prob = build_problem(config, args, kind)
    cl = prob.cl
    budget = _typed(int, "budget", _setting("budget", config, args, 2000), -1)
    seed = _typed(int, "seed", _setting("seed", config, args, 0), -1)
    tol = _typed(float, "crossover_tolerance",
                 config.get("crossover_tolerance", 0.06), 0, 1)
    band = ((1 - tol) * min(cl.f_bw), (1 + tol) * max(cl.f_bw))
    init = initial_params(cl, **_given(config, float, "q_weight", "v_weight"))
    starts = _given(config, int, "n_starts")
    designs = {label: synthesize(view(cl), init, budget=budget, seed=seed,
                                 grid_points=prob.grid, crossover_band=band,
                                 **starts)
               for label, view in DESIGNS}
    out = _out_dir(args)
    doc = {"kind": kind, "model": prob.model.name, "seed": seed,
           "budget": budget, "config": config}
    for label, res in designs.items():
        doc[label] = res.to_dict()
        doc[f"certificate_{label}"] = res.certificate.to_dict()
        _channel_csv(os.path.join(out, f"{label}_channels.csv"),
                     cl.evaluate(res.params))
    _write_json(os.path.join(out, "results.json"), doc)
    res, conv = designs.values()
    print(f"{kind}: gamma {res.gamma:.4g} (conventional {conv.gamma:.4g}), "
          f"{'certified' if res.certificate.all_stable else 'NOT grid-stable'}; "
          f"results in {out}")
    return 0


def _load_results(args):
    """The results document and its problem, rebuilt for the results' kind
    from ``--config`` or else the config stored in the results."""
    doc = _read_json(args.results, "results")
    config = _read_json(args.config, "config") if args.config else doc.get("config")
    if not isinstance(config, dict):
        raise ConfigError("no config object available (pass --config)")
    return doc, build_problem(config, args, doc.get("kind", "6block"))


def _designs(doc):
    """``{label: params}`` of the designs that the results ``doc`` holds."""
    designs = {}
    for label, _ in DESIGNS:
        try:
            if label in doc:
                designs[label] = StructuredControllerParams.from_dict(doc[label]["params"])
        except (KeyError, TypeError, ValueError) as exc:   # ModelError too
            raise ConfigError(f"the '{label}' design of the results holds no "
                              f"controller parameters: {exc!r}")
    return designs


def cmd_analyze(args):
    doc, prob = _load_results(args)
    out = _out_dir(args)
    for label, params in _designs(doc).items():
        _channel_csv(os.path.join(out, f"{label}_channels.csv"),
                     prob.cl.evaluate(params))
        closed = close_full_loop(prob.cl.plant, prob.cl, params)
        _channel_csv(os.path.join(out, f"{label}_closedloop.csv"), closed)
    print(f"analysis CSVs written to {out}")
    return 0


def _band_disturbance(n, dt, f_center, seed, amplitude):
    """Band-limited noise of peak ``amplitude``: white noise through a
    band-pass of quality factor 5 around f_center."""
    rng = np.random.default_rng(seed)
    w = 2 * np.pi * f_center
    bw = w / 5.0
    bp = diagonal_ss([[(np.array([bw, 0.0]), np.array([1.0, bw, w ** 2]))]])
    white = rng.standard_normal((n, 1))
    _, _, d = simulate(bp, white, dt)
    scale = np.max(np.abs(d))
    return amplitude * d / (scale if scale > 0 else 1.0)


def cmd_simulate(args):
    doc, prob = _load_results(args)
    cl = prob.cl
    sim = prob.config.get("simulate", {})
    keys = ("dt", "duration", "f_disturbance", "amplitude", "seed")
    if not isinstance(sim, dict) or not set(sim) <= set(keys):
        raise ConfigError(f"'simulate' must be an object with keys from "
                          f"{list(keys)}: {sim!r}")
    dt = _typed(float, "dt", sim.get("dt", 1e-4), 0)
    duration = _typed(float, "duration", sim.get("duration", 2.0), 0)
    f_dist = _typed(float, "f_disturbance", sim.get("f_disturbance", 50.0),
                    0, 0.5 / dt)               # below the Nyquist frequency
    amplitude = _typed(float, "amplitude", sim.get("amplitude", 1.0), 0)
    seed = _typed(int, "seed", _setting("seed", sim, args, 0), -1)
    n = int(round(duration / dt))
    if n < 2:
        raise ConfigError(f"a duration of {duration} s at dt {dt} s gives "
                          f"{n} samples, fewer than 2")
    d = _band_disturbance(n, dt, f_dist, seed, amplitude)
    w = np.hstack([np.zeros((n, cl.n_rb)),
                   np.tile(d, (1, cl.n_flex))])
    out = _out_dir(args)
    rows = {"t": np.arange(n) * dt}
    rms = {}
    designs = _designs(doc)
    if not designs:
        raise ConfigError("results file has no design to simulate")
    # every design's loop has one shape, so all step in one recurrence
    _, _, ys = simulate([close_full_loop(cl.plant, cl, params)
                         for params in designs.values()], w, dt)
    for i, label in enumerate(designs):
        y = ys[:, i]
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
    params = _designs(doc)
    if "proposed" not in params:
        raise ConfigError("results file has no 'proposed' design")
    cert = grid_stability_check(prob.cl, params["proposed"], prob.grid)
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
        ("synth6", partial(_run_synth, kind="6block"),
         "output-based co-design (2x3 weighted map)", []),
        ("synth4", partial(_run_synth, kind="4block"),
         "error-based co-design (2x2 weighted map)", []),
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
