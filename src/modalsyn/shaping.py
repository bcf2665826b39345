"""Static channel scalings and dynamic shaping filters.

Encodes the loop-shaping intent: integral action at low frequency, roll-off
at high frequency and an inverse-notch weight that forces damping at each
controlled flexible mode.  The weights are rational diagonals, realized by
``RationalDiagonalFilter.to_ss``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from modalsyn.statespace import (
    ModelError,
    RationalDiagonalFilter,
    StateSpaceModel,
)

DEFAULT_KS = 0.5        # 6 dB sensitivity bound
DEFAULT_KR = 0.5        # 6 dB complementary-sensitivity bound
DEFAULT_ALPHA = 20.0
DEFAULT_BETA1 = 0.5
DEFAULT_BETA2 = 0.005
INTEGRATOR_REG_FACTOR = 1000.0  # near-integrator pole at 2*pi*f_I / factor


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


def make_integral_filter(f_bw, K_s: float = DEFAULT_KS,
                         f_int=None) -> RationalDiagonalFilter:
    """Integral-action weight K_s (s + 2 pi f_I) / s with f_I = f_bw / 4."""
    f_bw = np.atleast_1d(np.asarray(f_bw, dtype=float))
    if K_s <= 0 or np.any(f_bw <= 0):
        raise ModelError("K_s and bandwidths must be positive")
    f_int = f_bw / 4.0 if f_int is None else np.broadcast_to(
        np.atleast_1d(np.asarray(f_int, dtype=float)), f_bw.shape)
    chans = [[(np.array([K_s, K_s * 2 * np.pi * fi]), np.array([1.0, 0.0]))]
             for fi in f_int]
    return RationalDiagonalFilter(tuple(chans))


def regularize_integral_filter(filt: RationalDiagonalFilter) -> RationalDiagonalFilter:
    """Shift exact s=0 poles to -corner / ``INTEGRATOR_REG_FACTOR`` so
    H-infinity norms exist.

    Sections without a pole at the origin pass through unchanged.
    """
    chans = []
    for sections in filt.channels:
        sec = []
        for num, den in sections:
            den = np.asarray(den, dtype=float)
            if den.size >= 2 and den[-1] == 0.0 and num[-1] != 0.0:
                corner = abs(num[-1] / num[0]) if num[0] != 0 else abs(num[-1])
                den = den.copy()
                den[-1] = den[0] * corner / INTEGRATOR_REG_FACTOR
            sec.append((num, den))
        chans.append(sec)
    return RationalDiagonalFilter(tuple(chans))


def make_rolloff_filter(f_bw, K_r: float = DEFAULT_KR, alpha: float = DEFAULT_ALPHA,
                        f_roll=None) -> RationalDiagonalFilter:
    """Roll-off weight K_r (s + 2 pi f_r) / (s/alpha + 2 pi f_r), f_r = 4 f_bw."""
    f_bw = np.atleast_1d(np.asarray(f_bw, dtype=float))
    if K_r <= 0 or alpha <= 1 or np.any(f_bw <= 0):
        raise ModelError("require K_r > 0, alpha > 1 and positive bandwidths")
    f_roll = 4.0 * f_bw if f_roll is None else np.broadcast_to(
        np.atleast_1d(np.asarray(f_roll, dtype=float)), f_bw.shape)
    chans = [[(np.array([K_r, K_r * 2 * np.pi * fr]),
               np.array([1.0 / alpha, 2 * np.pi * fr]))] for fr in f_roll]
    return RationalDiagonalFilter(tuple(chans))


def make_damping_filter(f_flex, beta1: float = DEFAULT_BETA1,
                        beta2: float = DEFAULT_BETA2,
                        eps=1.0) -> RationalDiagonalFilter:
    """Inverse notch peaking at each flexible eigenfrequency.

    Per channel eps * (s^2/w^2 + 2 b1 s/w + 1) / (s^2/w^2 + 2 b2 s/w + 1);
    the peak magnitude is eps * beta1 / beta2.
    """
    f_flex = np.atleast_1d(np.asarray(f_flex, dtype=float))
    eps = np.broadcast_to(np.atleast_1d(np.asarray(eps, dtype=float)), f_flex.shape)
    if not (beta1 > beta2 > 0):
        raise ModelError("require beta1 > beta2 > 0 (the weight must peak, not notch)")
    if np.any(f_flex <= 0) or np.any(eps <= 0):
        raise ModelError("frequencies and eps must be positive")
    chans = []
    for f, e in zip(f_flex, eps):
        w = 2 * np.pi * f
        num = e * np.array([1.0 / w ** 2, 2 * beta1 / w, 1.0])
        den = np.array([1.0 / w ** 2, 2 * beta2 / w, 1.0])
        chans.append([(num, den)])
    return RationalDiagonalFilter(tuple(chans))


def design_weights(f_bw, f_flex, K_s=DEFAULT_KS, K_r=DEFAULT_KR,
                   alpha=DEFAULT_ALPHA, beta1=DEFAULT_BETA1,
                   beta2=DEFAULT_BETA2, eps=1.0, f_int=None,
                   f_roll=None) -> dict:
    """The shaping filters by role: ``integral`` (exact integrator, see
    :func:`regularize_integral_filter`), ``rolloff`` and ``identity`` on the
    rigid-body channels, ``damping`` on the controlled flexible modes.  Each
    problem kind places the roles on its weight blocks."""
    f_bw = np.atleast_1d(np.asarray(f_bw, dtype=float))
    return {"integral": make_integral_filter(f_bw, K_s, f_int),
            "rolloff": make_rolloff_filter(f_bw, K_r, alpha, f_roll),
            "damping": make_damping_filter(f_flex, beta1, beta2, eps),
            "identity": RationalDiagonalFilter.identity(f_bw.size)}
