"""Byte identity across BLAS thread counts.

The commands of ``test_reproducible.py`` (``synth6`` on both plants, the
multi-start ``synth6``, ``analyze``, ``simulate`` and ``gridcheck`` on both
fixtures, ``decouple`` on each benchmark) and ``synth4`` on ``two_mass`` run
in two fresh interpreters, one with BLAS pinned to 1 thread and one to 2;
every file they write must have the same SHA-256 in both."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = r"""
import json, sys
from pathlib import Path
from modalsyn import cli

bench, out = Path(sys.argv[1]), Path(sys.argv[2])
for plant in ("two_mass", "mmpa_lite"):
    config = str(bench / "configs" / f"{plant}.json")
    runs = [("synth6", "--config", config)]
    if plant == "two_mass":
        runs.append(("synth4", "--config", config))
    runs += [(cmd, str(bench / "fixtures" / plant / "results.json"))
             for cmd in ("analyze", "simulate", "gridcheck")]
    for argv in runs:
        dest = out / plant / argv[0]
        assert cli.main([*argv, "--seed", "0", "--out", str(dest)]) == 0, argv
config = json.loads((bench / "configs" / "two_mass.json").read_text())
config["n_starts"] = 3
path = out / "multistart.json"
path.write_text(json.dumps(config))
assert cli.main(["synth6", "--config", str(path), "--seed", "3", "--budget",
                 "36", "--out", str(out / "multistart")]) == 0
for model in ("two_mass", "two_mass_square", "mmpa_lite"):
    assert cli.main(["decouple", "--model", model,
                     "--out", str(out / "decouple" / model)]) == 0, model
"""


def _start(threads, out):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen(
        [sys.executable, "-c", COMMANDS, str(ROOT / "perfbench"), str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def _digests(out):
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    outs = {threads: tmp_path / str(threads) for threads in (1, 2)}
    procs = {threads: _start(threads, out) for threads, out in outs.items()}
    try:
        for threads, proc in procs.items():
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, (threads, err)
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    one, two = (_digests(out) for out in outs.values())
    # 3 files per synth run (4 runs), 7 per plant from the validate commands,
    # the multi-start config and 2 per decouple run (3 runs)
    assert len(one) == 4 * 3 + 2 * 7 + 1 + 3 * 2
    assert one == two
