"""Rigid-body and extended modal input decoupling.

Computes the input/output decoupling matrices from the partitioned modal
model at a design point and applies them to the partitioned model itself.
Pseudo-inverses use an SVD with a relative singular-value cutoff so rank
deficiencies fail loudly instead of silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la

from modalsyn.mechanics import PartitionedModalModel
from modalsyn.statespace import ModelError, NumericError

SVD_CUTOFF = 1e-10


@dataclass(frozen=True)
class DecouplingPair:
    """Input matrix T_u and output matrix T_y frozen at a design point."""

    T_u: np.ndarray   # n_u x (n_rb + n_flex)
    T_y: np.ndarray   # n_rb x n_y
    p_design: np.ndarray
    n_rb: int
    n_flex: int

    def to_dict(self):
        return {"T_u": self.T_u.tolist(), "T_y": self.T_y.tolist(),
                "p_design": None if self.p_design is None else
                np.asarray(self.p_design).tolist(),
                "n_rb": self.n_rb, "n_flex": self.n_flex}

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def _pinv_full_rank(M, need_rank, side, what):
    """Moore-Penrose pseudo-inverse requiring the stated rank."""
    U, s, Vt = la.svd(M, full_matrices=False)
    keep = s > SVD_CUTOFF * (s[0] if s.size else 1.0)
    rank = int(np.sum(keep))
    if rank < need_rank:
        null = (U[:, rank:] if side == "row" else Vt[rank:, :].T)
        raise NumericError(
            f"{what}: rank {rank} < required {need_rank}; "
            f"deficient directions:\n{np.round(null, 6)}")
    return Vt[:rank].T @ np.diag(1.0 / s[:rank]) @ U[:, :rank].T


def extended_input_decoupling(pm: PartitionedModalModel, p, n_flex: int) -> DecouplingPair:
    """Decoupling at p of the rigid-body modes and the first ``n_flex``
    retained flexible modes.

    T_u is the Moore-Penrose pseudo-inverse of the velocity input rows of
    those modes in B(p), T_y that of the rigid-body position output columns
    of C(p); ``n_flex`` 0 gives the rigid-body decoupling.
    """
    n_rb = pm.n_rb
    if n_flex < 0 or n_flex > pm.n_flex:
        raise ModelError(f"n_flex={n_flex} is outside 0 ... {pm.n_flex}, the "
                         "number of retained modes")
    if pm.n_u < n_rb + n_flex:
        raise ModelError(f"{pm.n_u} actuators cannot decouple {n_rb} rigid-body "
                         f"+ {n_flex} flexible modes")
    Bv = pm.B(p)[pm.kept][1::2][:n_rb + n_flex]   # velocity rows
    Cp = pm.C(p)[:, pm.rb][:, ::2]                # position columns
    T_u = _pinv_full_rank(Bv, n_rb + n_flex, "row", "input decoupling")
    T_y = _pinv_full_rank(Cp, n_rb, "col", "rigid-body output decoupling")
    if not np.allclose(Bv @ T_u, np.eye(n_rb + n_flex), atol=1e-10):
        raise NumericError("input decoupling consistency check failed")
    if not np.allclose(T_y @ Cp, np.eye(n_rb), atol=1e-10):
        raise NumericError("output decoupling consistency check failed")
    constant = (pm.B.select_rows(pm.kept if n_flex else pm.rb).is_constant
                and pm.C.select_cols(pm.rb).is_constant)
    return DecouplingPair(T_u, T_y,
                          None if constant else np.atleast_1d(np.asarray(p, float)),
                          n_rb, n_flex)


def apply_decoupling_partitioned(pm: PartitionedModalModel,
                                 pair: DecouplingPair) -> PartitionedModalModel:
    """Decoupled partitioned model: B right-multiplied by T_u, C
    left-multiplied by T_y; the PositionMaps keep their p dependence."""
    if pm.n_u != pair.T_u.shape[0] or pm.n_y != pair.T_y.shape[1]:
        raise ModelError("decoupling pair does not conform to the partitioned model")
    return replace(pm, B=pm.B.matmul_right(pair.T_u),
                   C=pm.C.matmul_left(pair.T_y))
