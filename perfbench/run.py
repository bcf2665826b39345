"""Co-design benchmark of the modalsyn CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a modalsyn checkout: it imports the package from
``src/`` there and writes scratch output under ``.perfbench/``.  One process
runs one workload: a closed loop with one caller that calls
``modalsyn.cli.main`` for each command of the workload, in order, and starts
the next pass over the commands when the previous one has returned, until
``--seconds`` have passed (and at least twice).  BLAS is pinned to one
thread before numpy is imported.  ``--seed`` is passed to every command's
``--seed``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` passes alternate between untraced
and traced, and it holds the per-layer metrics.  The exit code is 1 if any
output check failed, 2 if the benchmark could not run.  ``--workload all``
runs every workload, each in its own process, and prints every metric by
name and unit.  README.md in this directory explains the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import OUTCOMES, TRACED_NAMES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
CONFIGS = BENCH_DIR / "configs"
FIXTURES = BENCH_DIR / "fixtures"

WORKLOADS = {
    "two_mass_codesign": (("synth6", "two_mass"), ("synth4", "two_mass")),
    "mmpa_lite_synth6": (("synth6", "mmpa_lite"),),
    "validate": tuple((cmd, plant) for plant in ("two_mass", "mmpa_lite")
                      for cmd in ("analyze", "simulate", "gridcheck")),
}
COMMANDS = ("synth6", "synth4", "analyze", "simulate", "gridcheck")
SYNTH_KIND = {"synth6": "6block", "synth4": "4block"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3      # fresh-interpreter imports and build_problem calls
PEAK_RTOL = 1e-4       # allowed relative gap between gamma and peak_gain
NORM_RTOL = 1e-5       # bisection tolerance synthesize uses for gamma
TARGET_RTOL = 1e-3     # evals_to_target: first log entry this close to gamma

# name -> (unit, better) of the metrics reported with --trace 0 and 1
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "gamma": ("1", "lower"),
    "gamma_conv": ("1", "lower"),
    "cert_stable_share": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_share": ("ratio", "higher"),
}
# traced functions that call other traced functions also report self time
SELF_TIME = (
    "synthesis.synthesize", "synthesis.ClosedLoopMap.evaluate",
    "synthesis.ClosedLoopMap.g_delta", "synthesis.close_full_loop",
    "synthesis.rb_crossover", "synthesis.grid_stability_check",
    "synthesis.initial_params", "statespace.hinf_norm",
    "statespace.care_solve", "observer.build_output_observer",
    "observer.build_error_observer", "observer.sigma_subsystem",
    "cli.build_problem",
)


def per_layer_units():
    units = {}
    for name in TRACED_NAMES:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.s"] = ("s", "lower")
        if name in SELF_TIME:
            units[f"{name}.self_s"] = ("s", "lower")
    for cmd in COMMANDS:
        units[f"cli.{cmd}.s"] = ("s", "lower")
    units.update({
        "statespace.freq_response.points": ("count", "lower"),
        "statespace.simulate.steps": ("count", "lower"),
        "synthesis.M_states": ("count", "lower"),
        "synthesis.objective.evals": ("count", "lower"),
        **{f"synthesis.objective.{o}": ("count", "lower")
           for o in OUTCOMES if o != "accepted"},
        "synthesis.objective.accepted": ("count", "higher"),
        "synthesis.objective.accepted_share": ("ratio", "higher"),
        "synthesis.evals_to_target": ("count", "lower"),
        "cli.import_s": ("s", "lower"),
        "cli.cpu_s": ("s", "lower"),
        "trace.wall_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
    })
    return units


PER_LAYER = per_layer_units()


class SetupError(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def import_modalsyn(root):
    src = root / "src"
    if not (src / "modalsyn" / "__init__.py").is_file():
        raise SetupError(f"no src/modalsyn under {root}; run from the root "
                         "of a modalsyn checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import modalsyn.cli as cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (src / "modalsyn").resolve():
        raise SetupError(f"modalsyn was imported from {cli.__file__}, "
                         f"not from {src}")
    return cli, import_s


def fresh_import_seconds(root, n):
    """Import time of modalsyn.cli in n fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import modalsyn.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = []
    for _ in range(n):
        r = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                           capture_output=True, text=True, timeout=120)
        if r.returncode != 0:
            raise SetupError(f"import in a fresh interpreter failed:\n{r.stderr}")
        out.append(float(r.stdout.split()[-1]))
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "seed": seed}


def command_argv(cmd, plant, out, seed):
    if cmd in SYNTH_KIND:
        source = ["--config", str(CONFIGS / f"{plant}.json")]
    else:
        source = [str(FIXTURES / plant / "results.json")]
    return [cmd, *source, "--out", str(out), "--seed", str(seed)]


def problem_inputs(cmd, plant):
    """(config, kind) that the command hands to cli.build_problem."""
    if cmd in SYNTH_KIND:
        with open(CONFIGS / f"{plant}.json") as fh:
            return json.load(fh), SYNTH_KIND[cmd]
    with open(FIXTURES / plant / "results.json") as fh:
        doc = json.load(fh)
    return doc["config"], doc["kind"]


def build_seconds(cli, steps, n):
    """Median build_problem time of each distinct problem of the workload,
    and the problems themselves (reused by the output checks)."""
    problems, seconds = {}, {}
    for cmd, plant in steps:
        config, kind = problem_inputs(cmd, plant)
        key = (plant, kind)
        if key in problems:
            continue
        args = cli.build_parser().parse_args(command_argv(cmd, plant, ".", 0))
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            problems[key] = cli.build_problem(config, args, kind)
            times.append(time.perf_counter() - t0)
        seconds[key] = statistics.median(times)
    return problems, seconds


# ---------------------------------------------------------------------------
# one pass over the workload's commands, and its output checks
# ---------------------------------------------------------------------------

def run_pass(cli, steps, seed, out_root):
    """Run every command once; returns wall, CPU, per-command s, exit codes."""
    per_cmd = dict.fromkeys(COMMANDS, 0.0)
    codes = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for cmd, plant in steps:
        argv = command_argv(cmd, plant, out_root / f"{plant}-{cmd}", seed)
        ts = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        per_cmd[cmd] += time.perf_counter() - ts
        codes.append(rc)
    wall = time.perf_counter() - t0
    return wall, time.process_time() - c0, per_cmd, codes


def digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def certificates(cmd, out):
    if cmd in SYNTH_KIND:
        doc = json.loads((out / "results.json").read_text())
        return [doc["certificate_proposed"], doc["certificate_conventional"]]
    if cmd == "gridcheck":
        return [json.loads((out / "certificate.json").read_text())]
    return []


def check_step(cmd, out, rc, reference):
    """Problems with one command's run; also its certificate counts."""
    if rc != 0:
        return [f"exit code {rc}"], (0, 0)
    problems = []
    certs = certificates(cmd, out)
    stable = sum(sum(c["stable"]) for c in certs)
    checked = sum(len(c["stable"]) for c in certs)
    if stable != checked:
        problems.append(f"certificate: {stable}/{checked} points stable")
    if cmd == "simulate":
        rms = json.loads((out / "simulation.json").read_text())["rms"]
        if not all(math.isfinite(v) and v > 0 for v in rms.values()):
            problems.append(f"simulation RMS not finite and positive: {rms}")
    if reference is not None and digests(out) != reference:
        problems.append("outputs differ from the first pass")
    return problems, (stable, checked)


# ---------------------------------------------------------------------------
# gamma and its independent cross-check
# ---------------------------------------------------------------------------

def _sigma_max(A, B, C, D, w):
    """Largest singular value of C (jw I - A)^-1 B + D at each w (rad/s)."""
    import numpy as np
    n = A.shape[0]
    out = np.empty(w.size)
    for lo in range(0, w.size, 256):
        ww = w[lo:lo + 256]
        X = np.linalg.solve(1j * ww[:, None, None] * np.eye(n) - A, B)
        out[lo:lo + 256] = np.linalg.svd(C @ X + D, compute_uv=False)[:, 0]
    return out


def peak_gain(M, n_log=4000, n_band=201, n_refine=8):
    """H-infinity norm of a stable map, found without modalsyn's own
    frequency-response or norm code, so it checks them.

    Samples a log grid two decades beyond the pole magnitudes and a band of
    +-5 decay rates around every oscillatory pole (where a lightly damped
    peak is narrower than any log grid step), then maximises around the
    best samples with a bounded scalar search.  The result is a lower bound
    whose sampling error is far below PEAK_RTOL.
    """
    import numpy as np
    from scipy.optimize import minimize_scalar
    A, B, C, D = M.A, M.B, M.C, M.D
    if min(B.shape[1], C.shape[0]) == 0:
        return 0.0
    if A.shape[0] == 0:
        return float(np.linalg.norm(D, 2))
    lam = np.linalg.eigvals(A)
    mag = np.abs(lam)[np.abs(lam) > 0]
    w = [np.zeros(1), np.geomspace(mag.min() / 100, mag.max() * 100, n_log)]
    for z in lam[lam.imag > 0]:
        w.append(z.imag + abs(z.real) * np.linspace(-5.0, 5.0, n_band))
    w = np.unique(np.concatenate(w).clip(min=0.0))
    sv = _sigma_max(A, B, C, D, w)
    best = float(sv.max())
    for k in np.argsort(sv)[::-1][:n_refine]:
        lo, hi = w[max(k - 1, 0)], w[min(k + 1, w.size - 1)]
        if hi <= lo:
            continue
        res = minimize_scalar(
            lambda x: -_sigma_max(A, B, C, D, np.array([x]))[0],
            bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-10 * max(hi, 1.0)})
        best = max(best, -float(res.fun))
    return best


def weighted_map(prob, doc, label):
    from modalsyn.synthesis import ConventionalView, StructuredControllerParams
    params = StructuredControllerParams.from_dict(doc[label]["params"])
    cl = prob.cl if label == "proposed" else ConventionalView(prob.cl)
    return cl.evaluate(params)


def gamma_checks(cmd, plant, out, problems_by_key):
    """gamma of both designs of one command, and the problems found.

    A synth command's gamma is the one its results.json records; validate
    recomputes the gamma of its fixture designs with hinf_norm.
    """
    from modalsyn.statespace import hinf_norm
    if cmd in SYNTH_KIND:
        doc = json.loads((out / "results.json").read_text())
    else:
        doc = json.loads((FIXTURES / plant / "results.json").read_text())
    prob = problems_by_key[(plant, doc["kind"])]
    gammas, problems = {}, []
    for label in ("proposed", "conventional"):
        M = weighted_map(prob, doc, label)
        if cmd in SYNTH_KIND:
            gamma = float(doc[label]["gamma"])
        else:
            gamma = hinf_norm(M, rel_tol=NORM_RTOL)
        gammas[label] = gamma
        ref = peak_gain(M)
        gap = abs(gamma - ref) / gamma
        print(f"gamma {plant} {cmd} {label}: {gamma:.10g}, "
              f"peak gain {ref:.10g}, relative gap {gap:.2e}")
        if not gap <= PEAK_RTOL:
            problems.append(f"{label} gamma {gamma:.10g} and peak gain "
                            f"{ref:.10g} differ by {gap:.2e} > {PEAK_RTOL}")
    return gammas, problems


def synth_docs(steps, out_root):
    return [json.loads((out_root / f"{plant}-{cmd}" / "results.json").read_text())
            for cmd, plant in steps if cmd in SYNTH_KIND]


def evals_to_target(docs):
    """Mean over designs of the first accepted-log evaluation within
    TARGET_RTOL of that design's final gamma."""
    hits = []
    for doc in docs:
        for label in ("proposed", "conventional"):
            g = doc[label]["gamma"]
            hits.append(next(n for n, v in doc[label]["log"]
                             if v <= g * (1 + TARGET_RTOL)))
    return statistics.fmean(hits) if hits else 0.0


def geomean(values):
    """Geometric mean; 0 when nothing was measured (the run has failed)."""
    if not values:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them, each in a fresh process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args, root):
    cli, import_s = import_modalsyn(root)
    steps = WORKLOADS[args.workload]
    traced = bool(args.trace)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    imports = [] if traced else fresh_import_seconds(root, SETUP_REPEATS)
    problems_by_key, build_s = build_seconds(cli, steps, SETUP_REPEATS)
    setup_s = statistics.median(imports or [import_s]) + sum(build_s.values())

    tracer = Tracer()
    passes = []          # (wall, cpu, per-command s, traced?)
    reference = {}       # step index -> output digests of the first pass
    failed_runs = set()  # (pass, step index)
    cert = [0, 0]
    layer_runs, outcome_runs, n_evals_runs, target_runs = [], [], [], []
    t_start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - t_start < args.seconds:
        out_root = work / f"pass{k}"
        trace_this = traced and k % 2 == 1
        if trace_this:
            tracer.run_id = k
            tracer.install()
        try:
            wall, cpu, per_cmd, codes = run_pass(cli, steps, args.seed, out_root)
        finally:
            tracer.restore()
        passes.append((wall, cpu, per_cmd, trace_this))
        for j, ((cmd, plant), rc) in enumerate(zip(steps, codes)):
            out = out_root / f"{plant}-{cmd}"
            problems, (stable, checked) = check_step(cmd, out, rc,
                                                     reference.get(j))
            cert[0] += stable
            cert[1] += checked
            if rc == 0 and k == 0:
                reference[j] = digests(out)
            if problems:
                failed_runs.add((k, j))
                print(f"FAIL pass {k} {cmd} {plant}: " + "; ".join(problems))
        if trace_this:
            ok = all((k, j) not in failed_runs for j in range(len(steps)))
            docs = synth_docs(steps, out_root) if ok else []
            layer_runs.append(tracer.layer_totals(k))
            outcome_runs.append(tracer.objective_outcomes(k))
            n_evals_runs.append(sum(d[lab]["n_evals"] for d in docs
                                    for lab in ("proposed", "conventional")))
            target_runs.append(evals_to_target(docs))
        if k > 0:
            shutil.rmtree(out_root)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # gamma of every design, checked once per invocation outside the loop;
    # validate checks each fixture once, after its analyze step
    gammas = {"proposed": [], "conventional": []}
    for j, (cmd, plant) in enumerate(steps):
        if (0, j) in failed_runs or cmd not in (*SYNTH_KIND, "analyze"):
            continue
        g, problems = gamma_checks(cmd, plant, work / "pass0" / f"{plant}-{cmd}",
                                   problems_by_key)
        for label, v in g.items():
            gammas[label].append(v)
        if problems:
            failed_runs.add((0, j))
            print(f"FAIL gamma {cmd} {plant}: " + "; ".join(problems))

    attempted = len(passes) * len(steps)
    failed = len(failed_runs)
    correct = failed == 0
    untraced = [p for p in passes if not p[3]]
    walls = [p[0] for p in untraced]
    print("pass wall s: " + ", ".join(f"{p[0]:.4f}{' (traced)' if p[3] else ''}"
                                      for p in passes))
    if traced:
        tr = [p for p in passes if p[3]]
        metrics = per_layer_metrics(layer_runs, outcome_runs, n_evals_runs,
                                    target_runs, tr, untraced, import_s)
        objective_sums = all(sum(o.values()) == n for o, n in
                             zip(outcome_runs, n_evals_runs))
        if not objective_sums:
            print(f"FAIL objective classes {outcome_runs} do not sum to "
                  f"the evaluation counts {n_evals_runs}")
        correct = correct and objective_sums
        tracer.write(work / "trace.json.gz")
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "gamma": geomean(gammas["proposed"]),
            "gamma_conv": geomean(gammas["conventional"]),
            "cert_stable_share": cert[0] / cert[1] if cert[1] else 0.0,
            "peak_rss_mb": peak_rss_mb,
            "ok_share": 1.0 - failed / attempted,
        }
        units = END_TO_END
    shutil.rmtree(work / "pass0", ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n][0]}
                          for n in units}}
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup": {
                  "import_s": imports or [import_s],
                  "build_problem_s": {f"{p}/{kd}": v
                                      for (p, kd), v in build_s.items()}},
              "passes": [{"wall_s": w, "cpu_s": c, "traced": t,
                          "commands_s": {n: v for n, v in pc.items() if v}}
                         for w, c, pc, t in passes],
              "gammas": gammas, "result": result}
    with open(work / "result.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return result


def per_layer_metrics(layer_runs, outcome_runs, n_evals_runs, target_runs,
                      traced_passes, untraced_passes, import_s):
    med = statistics.median
    m = {}
    for name in TRACED_NAMES:
        m[f"{name}.calls"] = med([r[name]["calls"] for r in layer_runs])
        m[f"{name}.s"] = med([r[name]["s"] for r in layer_runs])
        if name in SELF_TIME:
            m[f"{name}.self_s"] = med([r[name]["self_s"] for r in layer_runs])
    for cmd in COMMANDS:
        m[f"cli.{cmd}.s"] = med([p[2][cmd] for p in traced_passes])
    m["statespace.freq_response.points"] = med(
        [r["statespace.freq_response"]["extra"] for r in layer_runs])
    m["statespace.simulate.steps"] = med(
        [r["statespace.simulate"]["extra"] for r in layer_runs])
    ev = [r["synthesis.ClosedLoopMap.evaluate"] for r in layer_runs]
    m["synthesis.M_states"] = med([e["extra"] / e["calls"] if e["calls"] else 0
                                   for e in ev])
    m["synthesis.objective.evals"] = med(n_evals_runs)
    for o in OUTCOMES:
        m[f"synthesis.objective.{o}"] = med([r[o] for r in outcome_runs])
    m["synthesis.objective.accepted_share"] = med(
        [r["accepted"] / n if n else 0.0
         for r, n in zip(outcome_runs, n_evals_runs)])
    m["synthesis.evals_to_target"] = med(target_runs)
    m["cli.import_s"] = import_s
    m["cli.cpu_s"] = med([p[1] for p in untraced_passes])
    m["trace.wall_s"] = med([p[0] for p in traced_passes])
    m["trace.overhead_s"] = m["trace.wall_s"] - med([p[0] for p in untraced_passes])
    return m


def run_all(args, root):
    """Run every workload in its own fresh process, one after the other, and
    print each metric as '<workload> <metric> <value> <unit>'."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        r = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True,
                           timeout=args.seconds + 900)
        lines = r.stdout.strip().splitlines()
        if r.returncode == 2 or not lines or not lines[-1].startswith("{"):
            raise SetupError(f"workload {name} printed no result "
                             f"(exit code {r.returncode})")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        for metric, v in results[name]["metrics"].items():
            print(f"{name} {metric} {v['value']:.6g} {v['unit']}")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()}}


def main(argv=None):
    args = parse_args(argv)
    # numpy reads these when it is first imported, through modalsyn
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        if args.workload == "all":
            result = run_all(args, Path.cwd())
        else:
            result = run(args, Path.cwd())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
