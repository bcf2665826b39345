"""Span tracing of modalsyn from outside the package.

`Tracer.install` replaces each traced function with a wrapper that records a
span (name, start, end, parent, run id, whether it raised) and `restore` puts
the originals back.  A module-level function is replaced under every name any
loaded ``modalsyn`` module binds it to (``synthesis`` and ``cli`` import
``hinf_norm``, ``route``, ``freq_response`` ... at import time), a method on
its class.  Spans stay in memory until `write` dumps them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time


def _result_states(args, kwargs, out):
    return out.n_states


def _result_points(args, kwargs, out):
    return out.values.shape[0]


def _result_steps(args, kwargs, out):
    return out[0].size


# (module, qualified name, optional measure of one call).  The measure of a
# call is summed into the "<name>.extra" total.
TRACED = (
    ("synthesis", "synthesize", None),
    ("synthesis", "ClosedLoopMap.evaluate", _result_states),
    ("synthesis", "ClosedLoopMap.g_delta", None),
    ("synthesis", "close_full_loop", None),
    ("synthesis", "rb_crossover", None),
    ("synthesis", "grid_stability_check", None),
    ("synthesis", "initial_params", None),
    ("statespace", "route", None),
    ("statespace", "RationalDiagonalFilter.to_ss", None),
    ("statespace", "freq_response", _result_points),
    ("statespace", "hinf_norm", None),
    ("statespace", "hinf_norm_grid", None),
    ("statespace", "spectral_abscissa", None),
    ("statespace", "simulate", _result_steps),
    ("statespace", "FrequencyResponse.to_csv", None),
    ("statespace", "care_solve", None),
    ("observer", "build_output_observer", None),
    ("observer", "build_error_observer", None),
    ("observer", "sigma_subsystem", None),
    ("observer", "truncate_with_compliance", None),
    ("shaping", "make_kfm", None),
    ("shaping", "compute_scalings", None),
    ("shaping", "design_weights_6block", None),
    ("shaping", "design_weights_4block", None),
    ("mechanics", "evaluate_local", None),
    ("mechanics", "modal_decompose", None),
    ("mechanics", "group_and_partition", None),
    ("decoupling", "extended_input_decoupling", None),
    ("decoupling", "apply_decoupling_partitioned", None),
    ("benchplant", "by_name", None),
    ("cli", "build_problem", None),
)

TRACED_NAMES = tuple(f"{mod}.{qual}" for mod, qual, _ in TRACED)

OUTCOMES = ("realize_fail", "nominal_unstable", "grid_unstable",
            "crossover_miss", "norm_fail", "accepted")


class Tracer:
    """Records spans of the traced modalsyn functions while installed."""

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.run = []
        self.raised = []
        self.extra = []
        self.run_id = 0
        self._stack = []
        self._saved = []

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.name)
            tracer.name.append(name)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.run.append(tracer.run_id)
            tracer.end.append(0.0)
            tracer.raised.append(False)
            tracer.extra.append(0)
            tracer._stack.append(i)
            tracer.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.end[i] = time.perf_counter()
                tracer.raised[i] = True
                tracer._stack.pop()
                raise
            tracer.end[i] = time.perf_counter()
            tracer._stack.pop()
            if measure is not None:
                tracer.extra[i] = measure(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every traced function that the loaded package defines."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "modalsyn" or n.startswith("modalsyn.")]
        for mod_name, qual, measure in TRACED:
            module = importlib.import_module(f"modalsyn.{mod_name}")
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or attr not in vars(cls):
                    continue
                original = vars(cls)[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, measure))
                continue
            original = getattr(module, qual, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, measure)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self):
        """Put every original function back, in reverse order of wrapping."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------
    def spans_of_run(self, run_id):
        return [i for i, r in enumerate(self.run) if r == run_id]

    def children(self, ids):
        kids = {i: [] for i in ids}
        for i in ids:
            p = self.parent[i]
            if p in kids:
                kids[p].append(i)
        return kids

    def layer_totals(self, run_id):
        """Per traced name: calls, inclusive s, self s and summed measure.

        Inclusive time counts only the outermost span of a name, so a function
        reached again below itself is not counted twice.  Self time is the
        span minus its direct traced children.
        """
        ids = self.spans_of_run(run_id)
        kids = self.children(ids)
        tot = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": 0}
               for n in TRACED_NAMES}
        for i in ids:
            n = self.name[i]
            dur = self.end[i] - self.start[i]
            t = tot[n]
            t["calls"] += 1
            t["extra"] += self.extra[i]
            t["self_s"] += dur - sum(self.end[c] - self.start[c]
                                     for c in kids[i])
            p = self.parent[i]
            while p >= 0 and self.name[p] != n:
                p = self.parent[p]
            if p < 0:
                t["s"] += dur
        return tot

    def objective_outcomes(self, run_id):
        """Classify each objective evaluation inside every `synthesize` span.

        An evaluation starts at a `ClosedLoopMap.evaluate` call made directly
        by `synthesize` and runs until the next one.  Its class follows the
        order of the objective's checks: evaluate raised, no grid closure
        followed (nominally unstable), no crossover test (grid-unstable), no
        norm (crossover miss), norm raised, else accepted.
        """
        ids = self.spans_of_run(run_id)
        kids = self.children(ids)
        counts = dict.fromkeys(OUTCOMES, 0)
        for i in ids:
            if self.name[i] != "synthesis.synthesize":
                continue
            evals, cur = [], None
            for c in kids[i]:
                if self.name[c] == "synthesis.ClosedLoopMap.evaluate":
                    cur = [c]
                    evals.append(cur)
                elif cur is not None:
                    cur.append(c)
            for ev in evals:
                counts[self._classify(ev)] += 1
        return counts

    def _classify(self, ev):
        if self.raised[ev[0]]:
            return "realize_fail"
        names = [self.name[c] for c in ev[1:]]
        if "synthesis.close_full_loop" not in names:
            return "nominal_unstable"
        if "synthesis.rb_crossover" not in names:
            return "grid_unstable"
        if "statespace.hinf_norm" not in names:
            return "crossover_miss"
        norm = ev[1 + names.index("statespace.hinf_norm")]
        return "norm_fail" if self.raised[norm] else "accepted"

    def write(self, path):
        """Dump every span, column by column, as gzipped JSON."""
        names = sorted(set(self.name))
        code = {n: k for k, n in enumerate(names)}
        doc = {"names": names,
               "columns": ["name", "start", "end", "parent", "run", "raised"],
               "name": [code[n] for n in self.name],
               "start": self.start, "end": self.end, "parent": self.parent,
               "run": self.run, "raised": [int(r) for r in self.raised]}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
