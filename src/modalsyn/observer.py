"""Modal observers: compliance-corrected truncation, the design models of the
output-based and error-based Luenberger observers, one observer realization
for both, and the velocity selection matrix."""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

from modalsyn.mechanics import PartitionedModalModel
from modalsyn.statespace import (
    ModelError,
    NumericError,
    StateSpaceModel,
    _block_diag,
)


def discarded_static_gain(pm: PartitionedModalModel, p) -> np.ndarray:
    """Compliance correction -C_FM_d(p) A_FM_d^{-1} B_FM_d(p)."""
    if pm.n_disc == 0:
        return np.zeros((pm.n_y, pm.n_u))
    w_disc = pm.omega[list(pm.discarded)]
    if np.any(w_disc <= 0):
        raise NumericError("discarded block contains a zero-stiffness mode; "
                           "its static gain does not exist")
    return -pm.C_FM_d(p) @ la.solve(pm.A_FM_d, pm.B_FM_d(p))


def truncate_with_compliance(pm: PartitionedModalModel, p) -> StateSpaceModel:
    """Design model of the output-based observer: states [rigid-body pairs;
    retained flexible pairs], with the static gain of the discarded flexible
    block at ``p`` kept as feed-through."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    D_o = discarded_static_gain(pm, p)
    A = _block_diag(pm.A_RB, pm.A_FM_r)
    B = np.vstack([pm.B_RB(p), pm.B_FM_r(p)])
    C = np.hstack([pm.C_RB(p), pm.C_FM_r(p)])
    return StateSpaceModel(A, B, C, D_o)


def selection_matrix(pm: PartitionedModalModel, controlled_modes,
                     n_states: int) -> np.ndarray:
    """0/1 matrix picking the velocity state of each controlled flexible mode.

    ``controlled_modes`` are global mode indices and must be retained.  The
    observer's ``n_states`` states end with the retained pairs; any pairs
    before them are rigid-body pairs (the output-based design model).
    """
    controlled = [int(i) for i in controlled_modes]
    for i in controlled:
        if i not in pm.retained:
            raise ModelError(f"mode {i} is not in the retained set {pm.retained}")
    offset = n_states // 2 - pm.n_flex
    psi = np.zeros((len(controlled), n_states))
    for row, i in enumerate(controlled):
        j = pm.retained.index(i)
        psi[row, 2 * (offset + j) + 1] = 1.0
    return psi


def error_design_model(pm: PartitionedModalModel, p) -> StateSpaceModel:
    """Design model of the error-based observer: the retained flexible states
    driven by the flexible decoupled inputs.

    Assumes the rigid-body feedforward cancels the rigid modes from the
    tracking error, so the measurement is e = -y_flex: the output map and the
    compliance feed-through enter negated, and the observer's estimation
    error evolves as A_FM_r + L C_FM_r(p).
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    fm = list(range(pm.n_rb, pm.n_rb + pm.n_flex))
    return StateSpaceModel(pm.A_FM_r, pm.B_FM_r(p)[:, fm], -pm.C_FM_r(p),
                           -discarded_static_gain(pm, p)[:, fm])


def modal_observer(design: StateSpaceModel, L, Psi) -> StateSpaceModel:
    """Luenberger modal observer of a design model (A, B_u, C, D_u).

    Dynamics A - L C driven by (u, measurement) through [B_u - L D_u, L]; the
    output is the selected modal velocity estimate Psi x_hat.  The design
    model is :func:`truncate_with_compliance` for the output-based
    observer and :func:`error_design_model` for the error-based one.
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    Psi = np.atleast_2d(np.asarray(Psi, dtype=float))
    n = design.n_states
    if L.shape != (n, design.n_outputs):
        raise ModelError(f"L must be {n}x{design.n_outputs}, got {L.shape}")
    if Psi.shape[1] != n:
        raise ModelError(f"Psi must have {n} columns")
    B = np.hstack([design.B - L @ design.D, L])
    return StateSpaceModel._built(design.A - L @ design.C, B, Psi,
                                  np.zeros((Psi.shape[0], B.shape[1])))
