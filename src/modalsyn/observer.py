"""Modal observers: compliance-corrected truncation, output-based and
error-based Luenberger observers, the velocity selection matrix and the
flexible-loop subsystem used by the error-based synthesis."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from modalsyn.mechanics import PartitionedModalModel
from modalsyn.statespace import (
    ModelError,
    NumericError,
    RationalDiagonalFilter,
    StateSpaceModel,
    _block_diag,
    connect,
    is_hurwitz,
)


@dataclass(frozen=True)
class TruncatedModel:
    """Truncated observer-design model with compliance feed-through.

    States are [rigid-body pairs; retained flexible pairs]; the feed-through
    D_o is the static gain of the discarded flexible subsystem at the same
    scheduling point.
    """

    ss: StateSpaceModel
    p: np.ndarray
    n_rb: int
    n_flex: int

    @property
    def D_o(self):
        return self.ss.D


def discarded_static_gain(pm: PartitionedModalModel, p) -> np.ndarray:
    """Compliance correction -C_FM_d(p) A_FM_d^{-1} B_FM_d(p)."""
    if pm.n_disc == 0:
        return np.zeros((pm.n_y, pm.n_u))
    w_disc = pm.omega[list(pm.discarded)]
    if np.any(w_disc <= 0):
        raise NumericError("discarded block contains a zero-stiffness mode; "
                           "its static gain does not exist")
    return -pm.C_FM_d(p) @ la.solve(pm.A_FM_d, pm.B_FM_d(p))


def truncate_with_compliance(pm: PartitionedModalModel, p) -> TruncatedModel:
    """Drop the discarded flexible block, keeping its static gain as feed-through."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    D_o = discarded_static_gain(pm, p)
    A = _block_diag(pm.A_RB, pm.A_FM_r)
    B = np.vstack([pm.B_RB(p), pm.B_FM_r(p)])
    C = np.hstack([pm.C_RB(p), pm.C_FM_r(p)])
    return TruncatedModel(StateSpaceModel(A, B, C, D_o), p, pm.n_rb, pm.n_flex)


def selection_matrix(pm: PartitionedModalModel, controlled_modes,
                     kind: str = "output") -> np.ndarray:
    """0/1 matrix picking the velocity state of each controlled flexible mode.

    ``controlled_modes`` are global mode indices and must be retained.  For
    the output-based observer the state vector is [RB pairs; retained pairs];
    for the error-based observer it is the retained pairs only.
    """
    controlled = [int(i) for i in controlled_modes]
    for i in controlled:
        if i not in pm.retained:
            raise ModelError(f"mode {i} is not in the retained set {pm.retained}")
    offset = pm.n_rb if kind == "output" else 0
    n_states = 2 * (offset + pm.n_flex)
    psi = np.zeros((len(controlled), n_states))
    for row, i in enumerate(controlled):
        j = pm.retained.index(i)
        psi[row, 2 * (offset + j) + 1] = 1.0
    return psi


@dataclass(frozen=True)
class ModalObserver:
    """Luenberger modal observer realization.

    Inputs are (plant input, measured signal); the output is the estimated
    modal velocity vector Psi x_hat.  ``n_u`` counts the plant-input channels
    seen by the observer; the remaining inputs are the measurement.
    """

    kind: str  # "output" or "error"
    realization: StateSpaceModel
    L: np.ndarray
    Psi: np.ndarray
    n_u: int
    controlled: tuple  # positions within the retained mode list

    @property
    def n_meas(self):
        return self.realization.n_inputs - self.n_u

    def to_dict(self):
        return {"kind": self.kind, "realization": self.realization.to_dict(),
                "L": self.L.tolist(), "Psi": self.Psi.tolist(),
                "n_u": self.n_u, "controlled": list(self.controlled)}

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def from_dict(cls, doc):
        return cls(doc["kind"], StateSpaceModel.from_dict(doc["realization"]),
                   np.array(doc["L"], ndmin=2), np.array(doc["Psi"], ndmin=2),
                   int(doc["n_u"]), tuple(doc["controlled"]))


def _controlled_positions(Psi, offset):
    pos = []
    for row in Psi:
        idx = np.flatnonzero(row)
        pos.append((int(idx[0]) - 1) // 2 - offset)
    return tuple(pos)


def build_output_observer(tm: TruncatedModel, L, Psi) -> ModalObserver:
    """Output-based observer over [RB; retained flexible] states.

    Dynamics A_o - L C_o driven by (u, y) through [B_o - L D_o, L]; the
    output is the selected modal velocity estimate.
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    Psi = np.atleast_2d(np.asarray(Psi, dtype=float))
    n = tm.ss.n_states
    if L.shape != (n, tm.ss.n_outputs):
        raise ModelError(f"L must be {n}x{tm.ss.n_outputs}, got {L.shape}")
    if Psi.shape[1] != n:
        raise ModelError(f"Psi must have {n} columns")
    A = tm.ss.A - L @ tm.ss.C
    B = np.hstack([tm.ss.B - L @ tm.ss.D, L])
    real = StateSpaceModel(A, B, Psi, np.zeros((Psi.shape[0], B.shape[1])))
    if not is_hurwitz(real):
        warnings.warn("output-based observer error dynamics are not Hurwitz",
                      stacklevel=2)
    return ModalObserver("output", real, L, Psi, tm.ss.n_inputs,
                         _controlled_positions(Psi, tm.n_rb))


def build_error_observer(pm: PartitionedModalModel, p, L, Psi) -> ModalObserver:
    """Error-based observer over the retained flexible states only.

    Assumes the rigid-body feedforward cancels the rigid modes from the
    tracking error, so the measurement is e = -y_flex.  With that sign the
    estimation-error dynamics are A_FM_r + L C_FM_r(p), which is A - L C for
    the negated output map.  The plant-input channels are the flexible
    decoupled inputs only.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    L = np.atleast_2d(np.asarray(L, dtype=float))
    Psi = np.atleast_2d(np.asarray(Psi, dtype=float))
    n = 2 * pm.n_flex
    if L.shape != (n, pm.n_y):
        raise ModelError(f"L must be {n}x{pm.n_y}, got {L.shape}")
    if Psi.shape[1] != n:
        raise ModelError(f"Psi must have {n} columns")
    fm_cols = list(range(pm.n_rb, pm.n_rb + pm.n_flex))
    C_r = pm.C_FM_r(p)
    D_o = discarded_static_gain(pm, p)[:, fm_cols]
    A = pm.A_FM_r + L @ C_r
    B = np.hstack([pm.B_FM_r(p)[:, fm_cols] + L @ D_o, L])
    real = StateSpaceModel(A, B, Psi, np.zeros((Psi.shape[0], B.shape[1])))
    if not is_hurwitz(real):
        warnings.warn("error-based observer error dynamics are not Hurwitz; "
                      "synthesis may still proceed", stacklevel=2)
    return ModalObserver("error", real, L, Psi, pm.n_flex,
                         _controlled_positions(Psi, 0))


def sigma_subsystem(obs: ModalObserver, kfm: RationalDiagonalFilter) -> StateSpaceModel:
    """Flexible-loop subsystem mapping the tracking error to the flexible input.

    Closes u_fm = K_FM eta_hat around the observer:
    Sigma = [I - K_FM O_{eta,u}]^{-1} K_FM O_{eta,e}.
    """
    if obs.kind != "error":
        raise ModelError("sigma_subsystem requires an error-based observer")
    if kfm.n_channels != obs.Psi.shape[0]:
        raise ModelError("K_FM channel count must match the controlled modes")
    n_fm, n_e, n_ctrl = obs.n_u, obs.n_meas, kfm.n_channels
    embed = np.eye(n_fm)[:, list(obs.controlled)]
    return connect(
        [("O", obs.realization, [("u_fm", n_fm), ("e", n_e)], [("eta", n_ctrl)]),
         ("K_FM", kfm.to_ss(), [("eta", n_ctrl)], [("u", n_ctrl)])],
        [("O.u_fm", "K_FM.u", embed), ("O.e", "e", 1),
         ("K_FM.eta", "O.eta", 1), ("u_fm", "K_FM.u", embed)],
        inputs=[("e", n_e)], outputs=[("u_fm", n_fm)])
