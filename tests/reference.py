"""Independent oracles of the package's fast paths, kept for the tests: plain
constructions of what the package computes some other way."""

import numpy as np
import scipy.linalg as la

from modalsyn.statespace import (
    ModelError,
    NumericError,
    StateSpaceModel,
    _block_diag,
    _stacked,
    is_hurwitz,
    sigma_max,
)


def _tf_section_realization(num, den):
    """Controllable-canonical realization of a proper rational section."""
    num = np.trim_zeros(np.atleast_1d(num), "f")
    den = np.trim_zeros(np.atleast_1d(den), "f")
    if den.size == 0 or den[0] == 0:
        raise ModelError("section denominator must have a nonzero leading coefficient")
    if num.size == 0:
        num = np.zeros(1)
    if num.size > den.size:
        raise ModelError("section is not proper (numerator degree exceeds denominator)")
    num = np.concatenate([np.zeros(den.size - num.size), num]) / den[0]
    den = den / den[0]
    m = den.size - 1
    if m == 0:
        return (np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                np.array([[num[0]]]))
    d = num[0]
    # strictly proper remainder after removing the feed-through
    rem = num[1:] - d * den[1:]
    A = np.zeros((m, m))
    A[:-1, 1:] = np.eye(m - 1)
    A[-1, :] = -den[1:][::-1]
    B = np.zeros((m, 1))
    B[-1, 0] = 1.0
    C = rem[::-1].reshape(1, m)
    return A, B, C, np.array([[d]])


def from_tf(num, den):
    """SISO realization of num(s)/den(s), coefficients in descending powers."""
    A, B, C, D = _tf_section_realization(np.asarray(num, float),
                                         np.asarray(den, float))
    return StateSpaceModel(A, B, C, D)


def series(g1: StateSpaceModel, g2: StateSpaceModel) -> StateSpaceModel:
    """Cascade: output of ``g1`` drives ``g2``; transfer is G2(s) G1(s)."""
    if g1.n_outputs != g2.n_inputs:
        raise ModelError(f"series: {g1.n_outputs} outputs feeding {g2.n_inputs} inputs")
    n1 = g1.n_states
    A = _block_diag(g1.A, g2.A)
    A[n1:, :n1] = g2.B @ g1.C
    B = np.vstack([g1.B, g2.B @ g1.D])
    C = np.hstack([g2.D @ g1.C, g2.C])
    D = g2.D @ g1.D
    return StateSpaceModel(A, B, C, D)


def blockdiag(systems) -> StateSpaceModel:
    """Stack systems diagonally: independent inputs and outputs."""
    return StateSpaceModel(*_stacked(list(systems)))


def physical_ss(model, p) -> StateSpaceModel:
    """Second-order form state-space at frozen p, states (q, q')."""
    if not model.phi_a.contains(p):
        raise ModelError(f"scheduling point {p} outside the domain box")
    n, n_u, n_y = model.M.shape[0], model.phi_a.shape[1], model.phi_s.shape[0]
    Minv = la.solve(model.M, np.eye(n))
    A = np.block([[np.zeros((n, n)), np.eye(n)],
                  [-Minv @ model.K, -Minv @ model.D]])
    B = np.vstack([np.zeros((n, n_u)), Minv @ model.phi_a(p)])
    C = np.hstack([model.phi_s(p), np.zeros((n_y, n))])
    return StateSpaceModel(A, B, C, np.zeros((n_y, n_u)))


def flexible_column(cl, params) -> StateSpaceModel:
    """Sub-map of M carrying the flexible injection channel: its last
    ``cl.n_flex`` inputs."""
    M = cl.evaluate(params)
    return M.select_inputs(range(M.n_inputs - cl.n_flex, M.n_inputs))


def with_gains(sections, gains):
    """The diagonal ``sections`` with a last section ``(gain, 1)`` per
    channel."""
    return tuple(chan + ((np.array([k]), np.array([1.0])),)
                 for chan, k in zip(sections, gains))


def _default_freq_grid(g: StateSpaceModel, n_points: int):
    pole_f = np.abs(g.poles()) / (2 * np.pi)
    pole_f = pole_f[pole_f > 0]
    lo = min(pole_f.min() / 100 if pole_f.size else 1e-3, 1e-3)
    hi = max(pole_f.max() * 100 if pole_f.size else 1e3, 1e3)
    return np.logspace(np.log10(lo), np.log10(hi), n_points)


def hinf_norm_grid(g: StateSpaceModel, n_points: int = 100_000) -> float:
    """Dense log-grid oracle: max over the grid of the largest singular value."""
    if not is_hurwitz(g):
        raise NumericError("H-infinity norm undefined: system is not Hurwitz")
    if min(g.n_inputs, g.n_outputs) == 0:
        return 0.0
    freqs = np.concatenate([[0.0], _default_freq_grid(g, n_points)])
    return sigma_max(g, freqs)[0]
