"""Structured H-infinity synthesis of diag(K_RB, L, K_FM).

Declares the output-based 2x3 ("6-block") and the error-based 2x2
("4-block") weighted closed-loop maps as named-signal interconnections.  The
two problems differ only in that data: the same Luenberger modal observer,
built on each problem's design model, closes an inner loop with K_FM that
becomes the plant block of M (output-based) or the flexible-loop subsystem
Sigma (error-based).  The closed-loop H-infinity norm is minimized over the
structured parameter set with a derivative-free pattern search.  A grid
certificate closes the full loop at every frozen scheduling point and checks
local stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from modalsyn.mechanics import evaluate_local
from modalsyn.observer import (
    error_design_model,
    modal_observer,
    retained_positions,
    selection_matrix,
    truncate_with_compliance,
)
from modalsyn.statespace import (
    Interconnection,
    ModelError,
    NumericError,
    StateSpaceModel,
    _block_diag,
    care_solve,
    diagonal_response,
    diagonal_ss,
    freq_response,
    hinf_lower_bound,
    hinf_norm,
    lmul,
    rmul,
    sigma_max,
    spectral_abscissa,
)

PENALTY_BASE = 1e6


# ---------------------------------------------------------------------------
# structured controller parameterization
# ---------------------------------------------------------------------------

# per rigid-body channel: gain, integrator corner, lead zero, lead pole,
# low-pass corner, low-pass damping -- all positive
KRB_PARAM_NAMES = ("gain", "w_int", "w_zero", "w_pole", "w_lp", "zeta_lp")


def _check_krb(krb):
    if not ((krb > 0) & (krb < math.inf)).all():    # NaN fails both
        raise ModelError("krb entries must be positive and finite")


@dataclass(frozen=True)
class StructuredControllerParams:
    """Decision variables (K_RB sections, L, xi) plus the fixed backbone.

    K_RB is diagonal; each channel is gain * integrator * lead-lag *
    second-order low-pass.  The flexible-mode controller keeps its band-pass
    backbone (omega, Q) fixed; only the gains xi move.
    """

    krb: np.ndarray      # (n_rb, 6) positive entries
    L: np.ndarray        # observer gain
    xi: np.ndarray       # (n_ctrl,)
    omega: np.ndarray    # (n_ctrl,) fixed band-pass centers, rad/s
    Q: float

    def __post_init__(self):
        krb = np.atleast_2d(np.asarray(self.krb, dtype=float))
        if krb.shape[1] != len(KRB_PARAM_NAMES):
            raise ModelError(f"krb needs {len(KRB_PARAM_NAMES)} columns")
        _check_krb(krb)
        object.__setattr__(self, "krb", krb)
        object.__setattr__(self, "L", np.atleast_2d(np.asarray(self.L, float)))
        object.__setattr__(self, "xi", np.atleast_1d(np.asarray(self.xi, float)))
        object.__setattr__(self, "omega", np.atleast_1d(np.asarray(self.omega, float)))
        if self.xi.shape != self.omega.shape:
            raise ModelError("xi and omega lengths must match")
        if not (np.all(self.omega > 0) and self.Q > 0):
            raise ModelError("omega and Q must be positive")

    @property
    def n_params(self):
        return self.krb.size + self.L.size + self.xi.size

    def krb_sections(self):
        """Per channel, the ``(num, den)`` sections of K_RB in descending
        powers of s: g (s + w_int) / s, the lead-lag and the low-pass."""
        return tuple(
            ((g * np.array([1.0, wi]), np.array([1.0, 0.0])),
             (np.array([1.0 / wz, 1.0]), np.array([1.0 / wp, 1.0])),
             (np.array([1.0]), np.array([1.0 / wlp ** 2, 2 * zlp / wlp, 1.0])))
            for g, wi, wz, wp, wlp, zlp in self.krb)

    def kfm_sections(self):
        """Per controlled mode, the band-pass section of K_FM,
        xi (w/Q) s / (s^2 + (w/Q) s + w^2): zero DC gain and feed-through,
        peak gain |xi| at w."""
        sections = []
        for xi, w in zip(self.xi, self.omega):
            bw = w / self.Q
            sections.append(((np.array([xi * bw, 0.0]),
                              np.array([1.0, bw, w ** 2])),))
        return tuple(sections)

    # -- flat vector mapping: log10 for the positive K_RB entries, linear
    #    for L and xi ---------------------------------------------------
    def to_vector(self) -> np.ndarray:
        return np.concatenate([np.log10(self.krb).ravel(),
                               self.L.ravel(), self.xi])

    def with_vector(self, vec) -> "StructuredControllerParams":
        """Parameters at ``vec``, built from arrays of the right shapes and
        type without the constructor's conversions.  K_RB's entries are
        still checked: ``10 ** v`` underflows to 0 or overflows to infinity
        for |v| beyond about 308."""
        vec = np.asarray(vec, dtype=float)
        if vec.size != self.n_params:
            raise ModelError(f"expected {self.n_params} entries, got {vec.size}")
        nk = self.krb.size
        nl = self.L.size
        krb = 10.0 ** vec[:nk].reshape(self.krb.shape)
        _check_krb(krb)
        new = object.__new__(type(self))
        for name, value in (("krb", krb), ("L", vec[nk:nk + nl].reshape(self.L.shape)),
                            ("xi", vec[nk + nl:]), ("omega", self.omega),
                            ("Q", self.Q)):
            object.__setattr__(new, name, value)
        return new

    def to_dict(self):
        return {"krb": self.krb.tolist(), "L": self.L.tolist(),
                "xi": self.xi.tolist(), "omega": self.omega.tolist(),
                "Q": self.Q}

    @classmethod
    def from_dict(cls, doc):
        return cls(np.array(doc["krb"], ndmin=2), np.array(doc["L"], ndmin=2),
                   np.array(doc["xi"], ndmin=1), np.array(doc["omega"], ndmin=1),
                   float(doc["Q"]))


def _block_keys(params):
    """The keys of K_RB, the observer O and K_FM: the bytes of the fields
    each reads, ``krb``, ``L`` and ``xi``, ``omega`` and ``Q``.  Together
    they key the whole parameter set."""
    return (params.krb.tobytes(), params.L.tobytes(),
            (params.xi.tobytes(), params.omega.tobytes(), params.Q))


def initial_params(cl: "ClosedLoopMap", q_weight: float = 1e4,
                   v_weight: float = 1.0) -> StructuredControllerParams:
    """Default starting point: Riccati observer gain, xi = 0, and a classical
    loop-shaping K_RB with crossover at the target bandwidth.

    The default process-noise weight is deliberately large: the observer must
    reconstruct the lightly damped modal velocity much faster than the mode
    decays for modal-rate feedback to inject damping, and a low-gain observer
    leaves the damping channel with no leverage regardless of the modal gain.
    """
    A, C = cl.observer_model.A, cl.observer_model.C
    _, L = care_solve(A, C, q_weight * np.eye(A.shape[0]),
                      v_weight * np.eye(C.shape[0]))
    krb = np.empty((cl.n_rb, 6))
    for i, f in enumerate(cl.f_bw):
        wb = 2 * np.pi * f
        row = np.array([1.0, wb / 4, wb / 3, 3 * wb, 6 * wb, 0.7])
        # normalize so the scaled loop crosses 0 dB at f_bw
        probe = StructuredControllerParams(row[None, :], np.zeros((1, 1)),
                                           [], [], 1.0)
        mag = np.abs(diagonal_response(probe.krb_sections(), [1j * wb])[0, 0])
        row[0] = 1.0 / mag
        krb[i] = row
    return StructuredControllerParams(krb, L, np.zeros(cl.n_ctrl),
                                      cl.omega_ctrl, cl.Q)


# ---------------------------------------------------------------------------
# generalized plant assembly
# ---------------------------------------------------------------------------

def _interconnections(kind, pm, p_star, plant, weights, embed, left, right):
    """Declare a ``kind`` problem: everything in which the kinds differ.

    Returns the observer design model (A, B_u, C, D_u) at ``p_star``; the
    block of M that the observer + K_FM inner loop fills, with the left and
    right scaling it gets there; the inner loop; the weighted map M from the
    disturbances w to the weighted errors z; and the physical full loop from
    the output and flexible-input disturbances (d, d_fm) to the tracking
    error e.  The inner loop is the block M names ``G`` for the output-based
    problem (the plant with the observer loop closed around it) and
    ``Sigma`` for the error-based one (the observer driven by e, from e to
    the flexible input).  ``weights`` holds a realization per shaping role,
    which each kind places on its weight blocks; ``embed`` routes the K_FM
    channels into the flexible inputs; ``left`` and ``right`` scale the
    plant's outputs and inputs in M.  Block and port orders fix the state
    order of each realization.
    """
    n_rb, n_flex, n_ctrl = pm.n_rb, pm.n_flex, embed.shape[1]
    plant_in, y, eta = ((("u_rb", n_rb), ("u_fm", n_flex)), (("y", n_rb),),
                        (("eta", n_ctrl),))
    e = (("e", n_rb),)
    G = ("G", None, plant_in, y)
    K_RB = ("K_RB", None, e, (("u", n_rb),))

    def W(**layout):
        """Weight blocks in declaration order, ``name=role``."""
        return tuple((name, weights[role], (("u", weights[role].n_inputs),),
                      (("y", weights[role].n_outputs),))
                     for name, role in layout.items())

    K_FM = ("K_FM", None, eta, (("u", n_ctrl),))
    observer = (("O", None, plant_in + y, eta), K_FM)
    z = (("z1", n_rb), ("z2", n_rb))
    weighted_errors = (("K_RB.e", "G.y", 1), ("W_z1.u", "G.y", 1),
                       ("W_z2.u", "K_RB.u", 1), ("G.u_rb", "K_RB.u", -1),
                       ("W_w1.u", "w1", 1), ("W_w2.u", "w2", 1),
                       ("z1", "W_z1.y", 1), ("z2", "W_z2.y", 1))
    d = (("d", n_rb), ("d_fm", n_flex))
    loop = (("G.u_rb", "K_RB.u", -1), ("G.u_fm", "d_fm", 1),
            ("K_RB.e", "d", 1), ("K_RB.e", "G.y", 1),
            ("e", "d", 1), ("e", "G.y", 1))
    if kind == "6block":
        inner = Interconnection(
            (("G", plant, plant_in, y), *observer),
            (("G.u_rb", "u_rb", 1), ("G.u_fm", "u_fm", 1),
             ("G.u_fm", "K_FM.u", embed), ("O.u_rb", "u_rb", 1),
             ("O.u_fm", "K_FM.u", embed), ("O.y", "G.y", 1),
             ("K_FM.eta", "O.eta", 1), ("y", "G.y", 1)),
            plant_in, y)
        # w1 enters as an output disturbance, w2 at the rigid-body input and
        # w3 at the flexible input
        weighted = Interconnection(
            (G, K_RB, *W(W_z1="integral", W_z2="rolloff", W_w1="identity",
                         W_w2="identity", W_w3="damping")),
            weighted_errors + (
                ("K_RB.e", "W_w1.y", 1), ("W_z1.u", "W_w1.y", 1),
                ("G.u_rb", "W_w2.y", 1), ("G.u_fm", "W_w3.y", 1),
                ("W_w3.u", "w3", 1)),
            (("w1", n_rb), ("w2", n_rb), ("w3", n_flex)), z)
        full = Interconnection(
            (G, K_RB, *observer),
            loop + (("G.u_fm", "K_FM.u", embed), ("O.u_rb", "K_RB.u", -1),
                    ("O.u_fm", "K_FM.u", embed), ("O.y", "G.y", 1),
                    ("K_FM.eta", "O.eta", 1)),
            d, e)
        return (truncate_with_compliance(pm, p_star), ("G", left, right),
                inner, weighted, full)
    if kind == "4block":
        u_fm = (("u_fm", n_flex),)
        inner = Interconnection(
            (("O", None, u_fm + e, eta), K_FM),
            (("O.u_fm", "K_FM.u", embed), ("O.e", "e", 1),
             ("K_FM.eta", "O.eta", 1), ("u_fm", "K_FM.u", embed)),
            e, u_fm)
        sigma = ("Sigma", None, e, (("u", n_flex),))
        # w1 enters at the rigid-body input and w2 at the flexible input
        weighted = Interconnection(
            (G, K_RB, sigma, *W(W_z1="integral", W_z2="identity",
                                W_w1="rolloff", W_w2="damping")),
            weighted_errors + (
                ("G.u_rb", "W_w1.y", 1), ("G.u_fm", "W_w2.y", 1),
                ("G.u_fm", "Sigma.u", -1), ("Sigma.e", "G.y", 1)),
            (("w1", n_rb), ("w2", n_flex)), z)
        full = Interconnection(
            (G, K_RB, sigma),
            loop + (("G.u_fm", "Sigma.u", -1), ("Sigma.e", "d", 1),
                    ("Sigma.e", "G.y", 1)),
            d, e)
        # Sigma maps the scaled error to the flexible input, which M leaves unscaled
        slot = ("Sigma", np.eye(n_flex), np.diag(1.0 / np.diag(left)))
        return error_design_model(pm, p_star), slot, inner, weighted, full
    raise ModelError(f"unknown interconnection kind {kind!r}")


class ClosedLoopMap:
    """Bound generalized plant: ``evaluate(params)`` realizes the weighted
    closed-loop matrix M for the structured controller parameters.

    ``kind`` names the declaration of :func:`_interconnections`, which fixes
    the observer design model at the design point ``p_star`` and places the
    shaping ``weights`` (a filter per role, as ``design_weights`` returns
    them) on M's weight blocks; ``self.weights`` keeps them by role.  Each
    block that depends on the parameters is realized once per value of the
    fields it reads, compared by their bytes (:func:`_block_keys`), and is
    shared by M, the grid closure and the crossover check: a probe that
    moves only K_RB realizes only K_RB, and keeps the inner loop and so the
    identity of :meth:`g_delta`.
    """

    def __init__(self, kind, pm, p_star, scalings, weights, controlled_modes,
                 Q, f_bw):
        self.pm = pm                      # decoupled partitioned model
        self.p_star = np.atleast_1d(np.asarray(p_star, dtype=float))
        self.scalings = scalings
        self.weights = weights
        self.controlled_modes = tuple(int(i) for i in controlled_modes)
        positions = retained_positions(pm, self.controlled_modes)
        self.Q = float(Q)
        self.f_bw = np.atleast_1d(np.asarray(f_bw, dtype=float))
        self.n_rb = pm.n_rb
        self.n_flex = pm.n_flex
        self.n_ctrl = len(self.controlled_modes)
        self.omega_ctrl = pm.omega[list(self.controlled_modes)]
        self.plant = evaluate_local(pm, self.p_star)
        if self.plant.n_outputs != self.n_rb:
            raise ModelError("decoupled plant must have one output per "
                             "rigid-body channel")
        embed = np.eye(self.n_flex)[:, positions]
        left = np.diag(scalings.wz)
        right = _block_diag(np.diag(scalings.ww1), np.eye(self.n_flex))
        # M's plant block, unless the inner loop takes its slot
        self._g_plant = lmul(left, rmul(self.plant, right))
        # the column of per-channel gains W_w1_sc W_z_sc that take K_RB to
        # physical units; lmul and rmul have checked that both fit
        self._unscaling = (scalings.ww1 * scalings.wz)[:, None]
        (self.observer_model, self._slot, self._inner, self._map,
         self._loop) = _interconnections(
            kind, pm, self.p_star, self.plant,
            {role: f.to_ss() for role, f in self.weights.items()},
            embed, left, right)
        self.Psi = selection_matrix(pm, positions, self.observer_model.n_states)
        self._columns = None              # columns of M kept by evaluate
        # block name -> (key, realization) of its last value; a
        # ConventionalView shares this dict with its map
        self._blocks = {}
        # (g_delta, n_points, response) of the last crossover sweep: the
        # scaled plant of the error-based problem does not depend on params
        self._gd_response = (None, 0, None)

    # -- parameter-dependent blocks ------------------------------------
    def observer(self, params) -> StateSpaceModel:
        """Modal observer realization for the gain ``params.L``."""
        return modal_observer(self.observer_model, params.L, self.Psi)

    def _block(self, name, key, build):
        """``build()``, called only when the last key of ``name`` differs."""
        seen = self._blocks.get(name)
        if seen is None or seen[0] != key:
            seen = self._blocks[name] = (key, build())
        return seen[1]

    def _realize(self, params):
        """Blocks of M (scaled) and of the full loop (physical) for
        ``params``.  K_RB, the observer O and K_FM are each realized again
        only when the fields they read change, and the inner loop only when
        O or K_FM does.  The full loop always takes its plant ``G`` from the
        caller.  K_RB is realized once: the full loop's copy has each output
        row times its unscaling gain, the arithmetic of a last section
        ``(gain, 1)`` in :func:`diagonal_ss`."""
        keys = _block_keys(params)
        return self._block("M", keys, lambda: self._assemble(params, *keys))

    def _assemble(self, params, key_rb, key_o, key_fm):
        def krb():
            K, k = diagonal_ss(params.krb_sections()), self._unscaling
            return K, StateSpaceModel._built(K.A, K.B, 0.0 + k * K.C, 0.0 + k * K.D)

        def inner():
            closed = self._inner.close(loop)
            return closed, lmul(left, rmul(closed, right))
        K, physical = self._block("K_RB", key_rb, krb)
        loop = {"K_RB": physical,
                "O": self._block("O", key_o, lambda: self.observer(params)),
                "K_FM": self._block("K_FM", key_fm,
                                    lambda: diagonal_ss(params.kfm_sections()))}
        name, left, right = self._slot
        loop[name], scaled = self._block(name, (key_o, key_fm), inner)
        return {"G": self._g_plant, name: scaled, "K_RB": K}, loop

    def g_delta(self, params) -> StateSpaceModel:
        """Scaled plant seen by the synthesis loop.

        For the output-based problem this closes the observer + K_FM loop
        inside; the observer taps the full rigid-body channel input and the
        K_FM contribution of the flexible channel (not exogenous injections).
        For the error-based problem it is the scaled nominal plant itself.
        """
        return self._realize(params)[0]["G"]

    # -- M assembly ----------------------------------------------------
    def evaluate(self, params) -> StateSpaceModel:
        """Weighted closed-loop map M from the disturbances w to z."""
        M = self._map.close(self._realize(params)[0])
        return M if self._columns is None else M.select_inputs(self._columns)


class ConventionalView(ClosedLoopMap):
    """Synthesis objective restricted to the rigid-body disturbance columns.

    Mirrors the classical mixed-sensitivity comparison design: the flexible
    injection channel is dropped from the norm, everything else (structure,
    weights, grid closure) is shared with the given problem.  The design has
    no K_FM to tune: :func:`synthesize` keeps its gains xi where they start.
    """

    def __init__(self, cl: ClosedLoopMap):
        vars(self).update(vars(cl))
        # the flexible injection is the last disturbance group of M
        self._columns = range(sum(width for _, width in cl._map.inputs[:-1]))


# ---------------------------------------------------------------------------
# closed-loop checks
# ---------------------------------------------------------------------------

def close_full_loop(g_local: StateSpaceModel, cl: ClosedLoopMap,
                    params: StructuredControllerParams) -> StateSpaceModel:
    """Close K_RB, the observer and K_FM around a frozen local plant.

    The loop matches the synthesis interconnection with the shaping weights
    removed.  Inputs are (output disturbance, flexible-input disturbance);
    the output is the tracking error, so the A matrix carries the local
    closed-loop poles and the response doubles as the validation model.
    For the error-based problem the flexible input is -Sigma eps in
    physical coordinates.
    """
    return cl._loop.close({**cl._realize(params)[1], "G": g_local})


def rb_crossover(cl: ClosedLoopMap, params, n_points: int = 300) -> np.ndarray:
    """Unity-gain crossing frequency (Hz) of each scaled rigid-body loop.

    Returns the highest frequency at which the open-loop gain of the diagonal
    rigid-body channel reaches one; NaN if the loop never does.
    """
    gd = cl.g_delta(params)
    f = np.geomspace(min(cl.f_bw) / 20.0, max(cl.f_bw) * 50.0, n_points)
    seen, seen_n, Gv = cl._gd_response
    if seen is not gd or seen_n != n_points:
        Gv = freq_response(gd, f).values
        cl._gd_response = (gd, n_points, Gv)
    Kv = diagonal_response(params.krb_sections(), 2j * np.pi * f)
    out = np.full(cl.n_rb, np.nan)
    for i in range(cl.n_rb):
        L = np.abs(Gv[:, i, i] * Kv[i])
        idx = np.flatnonzero(L >= 1.0)
        if idx.size:
            out[i] = f[idx[-1]]
    return out


@dataclass(frozen=True)
class GridCertificate:
    """Per-grid-point local stability record."""

    points: tuple            # scheduling points
    stable: tuple            # bool per point
    abscissa: tuple          # slowest-pole real part per point

    @property
    def all_stable(self):
        return all(self.stable)

    def to_dict(self):
        return {"points": [np.atleast_1d(p).tolist() for p in self.points],
                "stable": list(self.stable),
                "abscissa": list(self.abscissa)}


def _certificate(grid_points, abscissa) -> GridCertificate:
    """The certificate of a full loop whose slowest pole at each of
    ``grid_points`` has the real part in ``abscissa``."""
    return GridCertificate(
        tuple(np.atleast_1d(np.asarray(p, dtype=float)) for p in grid_points),
        tuple(bool(a < 0) for a in abscissa), tuple(float(a) for a in abscissa))


def _grid_abscissa(cl, params, grid_local):
    """Spectral abscissa of the full loop closed around each frozen plant."""
    return [spectral_abscissa(close_full_loop(g, cl, params)) for g in grid_local]


def grid_stability_check(cl: ClosedLoopMap, params, grid_points) -> GridCertificate:
    """Close the full structured loop at every frozen point of the grid."""
    return _certificate(grid_points, _grid_abscissa(
        cl, params, [evaluate_local(cl.pm, p) for p in grid_points]))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class SynthesisResult:
    """What :func:`synthesize` returns.  ``certificate`` is the grid
    certificate of ``params``, as :func:`grid_stability_check` gives it,
    taken from the search's own grid closure (None without a grid); it is
    not part of :meth:`to_dict`."""

    params: StructuredControllerParams
    gamma: float
    log: list                # (n_evals, gamma): x0, then each improvement
    n_evals: int
    stable: bool
    certificate: GridCertificate | None = None

    def to_dict(self):
        return {"params": self.params.to_dict(), "gamma": self.gamma,
                "log": [[int(k), float(v)] for k, v in self.log],
                "n_evals": self.n_evals, "stable": self.stable}


NORM_TOL = 1e-5      # relative tolerance of the objective's H-infinity norm
STEP0 = 0.25         # first compass step, relative to max(|x_i|, 1)
STEP_MIN = 1e-3      # the search stops once every step is below this


def _penalty(base, excess):
    """Penalty in [base, 2 base] that grows with ``excess`` >= 0: bounded, so
    each penalty class keeps its band, and ordered within the class."""
    return base * (1.0 + excess / (1.0 + excess))


def _objective(cl, template, grid_points=None, crossover_band=None,
               certified=None):
    """Objective ``f(vec, bar=inf) -> value``.

    The value is ||M||_inf for a vector that passes every constraint and a
    penalty of at least ``PENALTY_BASE / 10`` otherwise.  A finite ``bar``
    asks only whether the value is below it, and a vector rejected early
    returns some value at or above ``bar``; a value below ``bar`` is always
    exact.  ``bar`` applies only up to ``PENALTY_BASE / 10``, the smallest
    penalty of a later stage.  Two early rejections run in turn:

    - the incumbent's peak: ``f`` keeps the frequency at which the norm
      lower bound of its last exact value below ``bar`` peaked, and a
      vector whose M reaches ``bar`` there returns that singular value,
      before M is eigensolved.  A stable M has a norm at least as large,
      and an unstable M, a failed bound and every later penalty score at
      least ``bar``;
    - the bound: once M is nominally stable, a vector whose norm lower
      bound already reaches ``bar`` returns that bound, which is at most
      its value, without the grid closure, the crossover check or the norm.

    The same ``bar`` stops the norm's bisection once it has proven the norm
    at or above it.  The poles of M serve both the stability test and the
    bound, so M is eigensolved once.  A bound or norm that cannot be
    computed scores ``PENALTY_BASE`` whatever the ``bar``.  For each exact
    value below ``bar`` with a grid, the dict ``certified`` gets the grid
    closure's abscissa per point under the parameters' :func:`_block_keys`.
    """
    grid_local = ([evaluate_local(cl.pm, p) for p in grid_points]
                  if grid_points is not None else None)

    peak_hz = math.inf     # none known yet

    def f(vec, bar=math.inf):
        nonlocal peak_hz
        try:
            params = template.with_vector(vec)
            M = cl.evaluate(params)
            if peak_hz < math.inf and bar <= PENALTY_BASE / 10:
                try:
                    at_peak = sigma_max(M, [peak_hz])[0]
                except NumericError:    # on or next to a pole of M
                    at_peak = -math.inf
                if at_peak >= bar:
                    return at_peak
            poles = M.poles()
            a = float(np.max(poles.real)) if poles.size else -np.inf
            if not a < 0:
                return _penalty(PENALTY_BASE, a)
            try:
                lower = hinf_lower_bound(M, poles)
            except NumericError:
                return PENALTY_BASE
            if lower[0] >= bar <= PENALTY_BASE / 10:
                return lower[0]
            if grid_local is not None:
                abscissa = _grid_abscissa(cl, params, grid_local)
                worst = max(abscissa)
                if not worst < 0:
                    return _penalty(PENALTY_BASE / 10, worst)
            if crossover_band is not None:
                lo, hi = crossover_band
                xc = rb_crossover(cl, params)
                if np.any(~np.isfinite(xc)):
                    return PENALTY_BASE / 10 + 1.0
                miss = np.maximum(lo - xc, 0.0) + np.maximum(xc - hi, 0.0)
                if miss.max() > 0:
                    return PENALTY_BASE / 10 + float(miss.max())
            try:
                value = hinf_norm(M, rel_tol=NORM_TOL, lower=lower,
                                  bar=bar if bar <= PENALTY_BASE / 10 else math.inf)
            except NumericError:
                return PENALTY_BASE
            if value < bar:
                peak_hz = lower[2]
                if certified is not None and grid_local is not None:
                    certified[_block_keys(params)] = abscissa
            return value
        except (NumericError, ModelError, FloatingPointError, la.LinAlgError):
            # a stage that cannot compute scores as a realization failure
            return PENALTY_BASE * 10

    return f


def _compass_search(f, x0, budget, frozen=None):
    """Deterministic coordinate pattern search from ``x0`` with at most
    ``budget`` calls of ``f``; returns ``(x, fx, n_evals, log)``.

    A probe moves the search when its value is below ``bar``, the incumbent
    less a relative 1e-12, and ``f`` gets that ``bar``: it may answer any
    value at or above it for a probe it rejects.  The starting point is
    evaluated exactly, so every value kept is exact.  ``log`` holds
    ``(n, value)`` after each move, ``n`` the calls made so far; ``frozen``
    masks coordinates that never move.
    """
    x = np.asarray(x0, dtype=float).copy()
    free = (np.flatnonzero(~frozen) if frozen is not None
            else np.arange(x.size))
    fx, n, log = f(x), 1, []
    step = np.full(x.size, STEP0)
    scale = np.maximum(np.abs(x), 1.0)
    while n < budget and step.max() > STEP_MIN:
        best_val, best_x = fx, None
        for i in free:
            for sgn in (1.0, -1.0):
                if n >= budget:
                    break
                cand = x.copy()
                cand[i] += sgn * step[i] * scale[i]
                bar = best_val - 1e-12 * max(abs(best_val), 1.0)
                val = f(cand, bar)
                n += 1
                if val < bar:
                    best_val, best_x = val, cand
        if best_x is None:
            step *= 0.5
            continue
        x, fx = best_x, best_val
        scale = np.maximum(np.abs(x), 1.0)
        log.append((n, fx))
    return x, fx, n, log


def synthesize(cl: ClosedLoopMap, init: StructuredControllerParams,
               budget: int, seed: int = 0, n_starts: int = 5,
               grid_points=None, crossover_band=None) -> SynthesisResult:
    """Minimize ||M(params)||_inf by seeded multi-start pattern search.

    ``init`` is evaluated once; then each of ``max(n_starts, 1)`` starts
    (``init`` itself, then seeded perturbations of it) runs a compass search
    on an equal share of ``budget``, at least one evaluation, so ``n_evals``
    is 1 plus the sum of the starts' counts, which ``budget`` does not cap.
    ``budget`` 0 returns the initialization as the search evaluated it,
    ``init.with_vector(init.to_vector())``, whose K_RB may differ from
    ``init``'s in the last bit, so that γ is that θ's.  The log holds
    the initial value, the first start's moves and, when another start ends
    lower, its best value.  Unstable candidates are scored by a
    penalty on the spectral abscissa, which doubles as the stabilization
    pre-phase.  When ``grid_points`` is given, candidates whose full loop is
    unstable at any frozen point are penalized too, so the returned design
    certifies.  ``crossover_band`` (lo, hi), in Hz, pins every rigid-body
    loop's unity-gain crossing inside the band, preserving the target
    bandwidth while the flexible channel is shaped.  For a
    :class:`ConventionalView` the flexible-mode gains xi stay at ``init``'s.
    With ``grid_points``, a sequence, the result's certificate is the one
    the search computed for the returned parameters; the grid is closed
    again only for parameters the search never certified (``budget`` 0
    from a penalized ``init``).
    """
    certified = {}
    f = _objective(cl, init, grid_points, crossover_band, certified)

    def result(params, gamma, log, n_evals, stable):
        cert = None
        if grid_points is not None:
            abscissa = certified.get(_block_keys(params))
            cert = (grid_stability_check(cl, params, grid_points) if abscissa is None
                    else _certificate(grid_points, abscissa))
        return SynthesisResult(params, float(gamma), log, n_evals, stable, cert)

    x0 = init.to_vector()
    frozen = np.zeros(x0.size, bool)
    if isinstance(cl, ConventionalView):
        frozen[x0.size - init.xi.size:] = True
    g0 = f(x0)
    if budget <= 0:
        return result(init.with_vector(x0), g0, [(1, float(g0))], 1,
                      bool(g0 < PENALTY_BASE / 10))
    rng = np.random.default_rng(seed)
    starts = [x0]
    for _ in range(max(n_starts - 1, 0)):
        pert = 0.2 * rng.standard_normal(x0.size) * np.maximum(np.abs(x0), 1.0)
        pert[frozen] = 0.0
        starts.append(x0 + pert)
    per_start = max(budget // len(starts), 1)
    best_x, best_val, log, used = x0, g0, [(1, float(g0))], 1
    for k, xs in enumerate(starts):
        # the first start evaluates x0 again, as the committed fixtures'
        # evaluation counts and logs record
        bx, bv, n, moves = _compass_search(f, xs, per_start, frozen)
        if k == 0:
            log.extend((used + m, float(v)) for m, v in moves)
        used += n
        if bv < best_val:
            best_val, best_x = bv, bx
    if best_val < log[-1][1]:
        log.append((used, float(best_val)))
    if not best_val < PENALTY_BASE / 10:
        raise NumericError("no stabilizing parameters found within budget; "
                           f"best penalized objective {best_val:.6g}")
    return result(init.with_vector(best_x), best_val, log, used, True)
