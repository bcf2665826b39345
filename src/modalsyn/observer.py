"""Modal observers: compliance-corrected truncation, the design models of the
output-based and error-based Luenberger observers, one observer realization
for both, and the velocity selection matrix."""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

from modalsyn.mechanics import PartitionedModalModel, evaluate_local
from modalsyn.statespace import ModelError, NumericError, StateSpaceModel


def discarded_static_gain(pm: PartitionedModalModel, g: StateSpaceModel) -> np.ndarray:
    """Compliance correction -C_d A_d^{-1} B_d of the discarded modes' states
    of ``g = evaluate_local(pm, p)``."""
    if not pm.discarded:
        return np.zeros((pm.n_y, pm.n_u))
    if np.any(pm.omega[list(pm.discarded)] <= 0):
        raise NumericError("discarded block contains a zero-stiffness mode; "
                           "its static gain does not exist")
    d = pm.fm_d
    return -g.C[:, d] @ la.solve(g.A[d, d], g.B[d])


def truncate_with_compliance(pm: PartitionedModalModel, p) -> StateSpaceModel:
    """Design model of the output-based observer: the states of the
    rigid-body and retained modes, with the static gain of the discarded
    modes at ``p`` kept as feed-through."""
    g = evaluate_local(pm, p)
    k = pm.kept
    return StateSpaceModel(g.A[k, k], g.B[k], g.C[:, k], discarded_static_gain(pm, g))


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
    velocities = np.eye(n_states)[n_states - 2 * pm.n_flex:][1::2]
    return velocities[[pm.retained.index(i) for i in controlled]]


def error_design_model(pm: PartitionedModalModel, p) -> StateSpaceModel:
    """Design model of the error-based observer: the retained flexible states
    driven by the flexible decoupled inputs.

    Assumes the rigid-body feedforward cancels the rigid modes from the
    tracking error, so the measurement is e = -y_flex: the output map and the
    compliance feed-through enter negated, and the observer's estimation
    error evolves as A_r + L C_r(p) on the retained states.
    """
    g = evaluate_local(pm, p)
    r, fm = pm.fm_r, slice(pm.n_rb, pm.n_rb + pm.n_flex)
    return StateSpaceModel(g.A[r, r], g.B[r, fm], -g.C[:, r],
                           -discarded_static_gain(pm, g)[:, fm])


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
