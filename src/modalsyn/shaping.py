"""Static channel scalings and dynamic shaping filters.

Encodes the loop-shaping intent: integral action at low frequency, roll-off
at high frequency and an inverse-notch weight that forces damping at each
controlled flexible mode.  ``design_weights`` builds every weight as a
rational diagonal, the integral one with its pole already moved off s = 0;
``RationalDiagonalFilter.to_ss`` realizes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from modalsyn.statespace import (
    ModelError,
    RationalDiagonalFilter,
    StateSpaceModel,
)

INTEGRATOR_REG = 1000.0   # integral-weight pole at 2 pi f_I / INTEGRATOR_REG


@dataclass(frozen=True)
class ScalingSet:
    """Diagonal static scalings (stored as the diagonal vectors)."""

    wz: np.ndarray    # output scaling, reciprocal expected error
    ww1: np.ndarray   # rigid-body input scaling

    def __post_init__(self):
        for name in ("wz", "ww1"):
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if np.any(v <= 0) or not np.all(np.isfinite(v)):
                raise ModelError(f"{name} scaling entries must be positive and finite")
            object.__setattr__(self, name, v)


def compute_scalings(g_nom: StateSpaceModel, f_bw, expected_error) -> ScalingSet:
    """Normalize plant channels: output scaling is the reciprocal expected
    tracking error; the rigid-body input scaling puts the scaled diagonal
    0 dB crossing at the target bandwidth f_bw per channel."""
    f_bw = np.atleast_1d(np.asarray(f_bw, dtype=float))
    err = np.atleast_1d(np.asarray(expected_error, dtype=float))
    n_rb = f_bw.size
    if err.size != g_nom.n_outputs:
        raise ModelError("expected_error must have one entry per output")
    if np.any(f_bw <= 0) or np.any(err <= 0):
        raise ModelError("bandwidths and expected errors must be positive")
    wz = 1.0 / err
    gains = np.empty(n_rb)
    for i, f in enumerate(f_bw):
        gains[i] = abs(g_nom.transfer_at(2j * np.pi * f)[i, i])
        if gains[i] < 1e-300:
            raise ModelError(f"zero diagonal response at {f} Hz in channel {i}; "
                             "scaling is ill-posed")
    ww1 = 1.0 / (gains * wz[:n_rb])
    return ScalingSet(wz, ww1)


def design_weights(f_bw, f_flex, K_s=0.5, K_r=0.5, alpha=20.0, beta1=0.5,
                   beta2=0.005, eps=1.0, f_int=None, f_roll=None) -> dict:
    """The shaping filters by role, one section per channel; each problem
    kind places the roles on its weight blocks.  On the rigid-body channels:

    - ``integral``, K_s (s + w_I) / (s + w_I / INTEGRATOR_REG) with
      w_I = 2 pi f_int (f_bw / 4 by default): an integrator whose pole is
      off s = 0, so H-infinity norms exist;
    - ``rolloff``, K_r (s + w_r) / (s / alpha + w_r) with w_r = 2 pi f_roll
      (4 f_bw by default);
    - ``identity``.

    ``damping`` is, per controlled flexible mode at ``f_flex``, the inverse
    notch eps (s^2/w^2 + 2 beta1 s/w + 1) / (s^2/w^2 + 2 beta2 s/w + 1) that
    peaks at eps beta1 / beta2.  K_s = K_r = 0.5 bound the sensitivity and
    the complementary sensitivity at 6 dB.
    """
    f_bw = np.atleast_1d(np.asarray(f_bw, dtype=float))
    f_flex = np.atleast_1d(np.asarray(f_flex, dtype=float))

    def per_channel(value, like):
        return np.broadcast_to(np.atleast_1d(np.asarray(value, dtype=float)),
                               like.shape)

    def diagonal(sections):
        return RationalDiagonalFilter(tuple([sec] for sec in sections))

    f_int = per_channel(f_bw / 4.0 if f_int is None else f_int, f_bw)
    f_roll = per_channel(4.0 * f_bw if f_roll is None else f_roll, f_bw)
    eps = per_channel(eps, f_flex)
    knobs = np.concatenate([f_bw, f_int, f_roll, f_flex, eps,
                            np.asarray([K_s, K_r], dtype=float)])
    if not ((knobs > 0) & (knobs < np.inf)).all():    # NaN fails both
        raise ModelError("K_s, K_r, the frequencies and eps must be positive "
                         "and finite")
    if not (alpha > 1 and beta1 > beta2 > 0):
        raise ModelError("require alpha > 1 and beta1 > beta2 > 0 (the "
                         "damping weight must peak, not notch)")
    nums = [np.array([K_s, K_s * 2 * np.pi * fi]) for fi in f_int]
    return {"integral": diagonal((num, np.array([1.0, num[1] / num[0] / INTEGRATOR_REG]))
                                 for num in nums),
            "rolloff": diagonal((np.array([K_r, K_r * 2 * np.pi * fr]),
                                 np.array([1.0 / alpha, 2 * np.pi * fr]))
                                for fr in f_roll),
            "damping": diagonal((e * np.array([1.0 / w ** 2, 2 * beta1 / w, 1.0]),
                                 np.array([1.0 / w ** 2, 2 * beta2 / w, 1.0]))
                                for w, e in zip(2 * np.pi * f_flex, eps)),
            "identity": RationalDiagonalFilter.identity(f_bw.size)}
