"""Modal models of mechanical systems with position-dependent actuation/sensing.

Turns (M, D, K, Phi_a(p), Phi_s(p)) data into a modal model whose states are
grouped per mode and partitioned into rigid-body / retained-flexible /
discarded-flexible blocks, and freezes the scheduling parameter to obtain
local LTI dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from modalsyn.statespace import ModelError, NumericError, StateSpaceModel, _block_diag

RB_FREQ_RATIO = 1e-6  # eigenfrequency below this fraction of the max counts as rigid-body
OFFDIAG_TOL = 1e-8    # relative off-diagonal modal damping taken as proportional


@dataclass(frozen=True)
class PositionMap:
    """Matrix-valued polynomial in the scheduling vector p.

    ``coeffs`` maps a monomial exponent tuple (one exponent per scheduling
    coordinate) to its coefficient matrix.  ``domain`` is the scheduling box
    as an (n_p, 2) array of per-coordinate [min, max].
    """

    shape: tuple
    coeffs: dict
    domain: np.ndarray

    def __post_init__(self):
        dom = np.atleast_2d(np.asarray(self.domain, dtype=float))
        if dom.shape[1] != 2 or np.any(dom[:, 0] > dom[:, 1]):
            raise ModelError("domain must be per-coordinate [min, max] rows")
        coeffs = {}
        for expo, mat in self.coeffs.items():
            expo = tuple(int(e) for e in np.atleast_1d(expo))
            if len(expo) != dom.shape[0] or any(e < 0 for e in expo):
                raise ModelError("monomial exponents must match scheduling dimension")
            mat = np.atleast_2d(np.asarray(mat, dtype=float))
            if mat.shape != tuple(self.shape):
                raise ModelError(f"coefficient shape {mat.shape} != {self.shape}")
            if not np.all(np.isfinite(mat)):
                raise ModelError("non-finite coefficient matrix")
            coeffs[expo] = mat
        object.__setattr__(self, "shape", tuple(self.shape))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "domain", dom)

    @property
    def n_p(self):
        return self.domain.shape[0]

    @property
    def is_constant(self):
        return all(sum(e) == 0 or not np.any(c) for e, c in self.coeffs.items())

    @classmethod
    def constant(cls, matrix, domain):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        dom = np.atleast_2d(np.asarray(domain, dtype=float))
        return cls(matrix.shape, {(0,) * dom.shape[0]: matrix}, dom)

    def contains(self, p):
        """Whether p lies in the domain box, widened by 1e-12 each way."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        lo, hi = self.domain[:, 0] - 1e-12, self.domain[:, 1] + 1e-12
        return p.size == self.n_p and bool(np.all(p >= lo) and np.all(p <= hi))

    def __call__(self, p):
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if not self.contains(p):
            raise ModelError(f"scheduling point {p} outside the domain box")
        out = np.zeros(self.shape)
        for expo, mat in self.coeffs.items():
            out += mat * np.prod(p ** np.array(expo))
        return out

    def matmul_left(self, M):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        return PositionMap((M.shape[0], self.shape[1]),
                           {e: M @ c for e, c in self.coeffs.items()}, self.domain)

    def matmul_right(self, M):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        return PositionMap((self.shape[0], M.shape[1]),
                           {e: c @ M for e, c in self.coeffs.items()}, self.domain)

    def select_rows(self, idx):
        idx = np.arange(self.shape[0])[idx]
        return PositionMap((idx.size, self.shape[1]),
                           {e: c[idx, :] for e, c in self.coeffs.items()}, self.domain)

    def select_cols(self, idx):
        idx = np.arange(self.shape[1])[idx]
        return PositionMap((self.shape[0], idx.size),
                           {e: c[:, idx] for e, c in self.coeffs.items()}, self.domain)

    def to_dict(self):
        entries = []
        for r in range(self.shape[0]):
            for c in range(self.shape[1]):
                vals = {",".join(map(str, e)): m[r, c]
                        for e, m in self.coeffs.items() if m[r, c] != 0.0}
                if vals:
                    entries.append({"entry": [r, c], "coeffs": vals})
        return {"shape": list(self.shape), "entries": entries,
                "domain": self.domain.tolist()}

    @classmethod
    def from_dict(cls, doc):
        shape = tuple(doc["shape"])
        dom = np.atleast_2d(np.asarray(doc["domain"], dtype=float))
        coeffs = {}
        for item in doc["entries"]:
            r, c = item["entry"]
            for key, val in item["coeffs"].items():
                expo = tuple(int(x) for x in key.split(","))
                coeffs.setdefault(expo, np.zeros(shape))[r, c] = float(val)
        return cls(shape, coeffs, dom)


def _check_sym(name, mat):
    if not np.allclose(mat, mat.T, atol=1e-9 * max(1.0, np.linalg.norm(mat))):
        raise ModelError(f"{name} must be symmetric")


@dataclass(frozen=True)
class MechanicalModel:
    """Second-order mechanical model M q'' + D q' + K q = Phi_a(p) u."""

    M: np.ndarray
    D: np.ndarray
    K: np.ndarray
    phi_a: PositionMap  # n_q x n_u
    phi_s: PositionMap  # n_y x n_q

    def __post_init__(self):
        M = np.atleast_2d(np.asarray(self.M, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        n_q = M.shape[0]
        for name, mat in (("M", M), ("D", D), ("K", K)):
            if mat.shape != (n_q, n_q):
                raise ModelError(f"{name} must be {n_q}x{n_q}")
            _check_sym(name, mat)
        if np.min(la.eigvalsh(M)) <= 0:
            raise ModelError("M must be positive definite")
        scale = max(1.0, np.linalg.norm(K))
        if np.min(la.eigvalsh(K)) < -1e-9 * scale:
            raise ModelError("K must be positive semidefinite")
        if D.size and np.min(la.eigvalsh(D)) < -1e-9 * max(1.0, np.linalg.norm(D)):
            raise ModelError("D must be positive semidefinite")
        if self.phi_a.shape[0] != n_q:
            raise ModelError("phi_a must have n_q rows")
        if self.phi_s.shape[1] != n_q:
            raise ModelError("phi_s must have n_q columns")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "K", K)

    def to_dict(self):
        return {"M": self.M.tolist(), "D": self.D.tolist(), "K": self.K.tolist(),
                "phi_a": self.phi_a.to_dict(), "phi_s": self.phi_s.to_dict(),
                "domain": self.phi_a.domain.tolist()}

    @classmethod
    def from_dict(cls, doc):
        return cls(np.array(doc["M"], ndmin=2), np.array(doc["D"], ndmin=2),
                   np.array(doc["K"], ndmin=2),
                   PositionMap.from_dict(doc["phi_a"]),
                   PositionMap.from_dict(doc["phi_s"]))


@dataclass(frozen=True)
class ModalDecomposition:
    """Mass-normalized modal basis: Vtilde' M Vtilde = I, Vtilde' K Vtilde = Omega^2."""

    Vtilde: np.ndarray
    omega: np.ndarray  # rad/s, ascending
    zeta: np.ndarray   # dimensionless modal damping

    @property
    def n_modes(self):
        return self.omega.size

    @property
    def n_rb(self):
        wmax = self.omega.max() if self.omega.size else 0.0
        return int(np.sum(self.omega < RB_FREQ_RATIO * max(wmax, 1e-300)))


def modal_decompose(model: MechanicalModel) -> ModalDecomposition:
    """Solve K V = M V Lambda with mass normalization and extract modal damping.

    Damping must be proportional (Rayleigh-type): the modal damping matrix
    Vtilde' D Vtilde has to be diagonal within ``OFFDIAG_TOL`` relative to its
    norm, else a :class:`NumericError` is raised.
    """
    lam, V = la.eigh(model.K, model.M)  # ascending, V' M V = I
    lam = np.clip(lam, 0.0, None)
    omega = np.sqrt(lam)
    # deterministic sign: largest-magnitude entry of each mode shape positive
    for j in range(V.shape[1]):
        i = np.argmax(np.abs(V[:, j]))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
    Dm = V.T @ model.D @ V
    off = Dm - np.diag(np.diag(Dm))
    if np.linalg.norm(off) > OFFDIAG_TOL * max(1.0, np.linalg.norm(Dm)):
        raise NumericError(
            "non-proportional damping: modal damping matrix is not diagonal "
            f"(off-diagonal norm {np.linalg.norm(off):.3e})")
    zeta = np.zeros_like(omega)
    wmax = omega.max() if omega.size else 0.0
    flex = omega >= RB_FREQ_RATIO * max(wmax, 1e-300)
    zeta[flex] = 0.5 * np.diag(Dm)[flex] / omega[flex]
    return ModalDecomposition(V, omega, zeta)


def _mode_block(w, z):
    return np.array([[0.0, 1.0], [-w ** 2, -2 * z * w]])


@dataclass(frozen=True)
class PartitionedModalModel:
    """Mode-grouped modal model.

    The states are the rigid-body modes, then the retained flexible modes,
    then the discarded flexible modes, each mode a (position, velocity) pair.
    ``A`` is block diagonal with a 2x2 block per mode, the PositionMap ``B``
    has two rows per mode and ``C`` two columns per mode.  The slices ``rb``,
    ``fm_r`` and ``fm_d`` pick the states of one group, ``kept`` those of the
    rigid-body and retained modes, which the truncated design model keeps.
    """

    A: np.ndarray
    B: PositionMap
    C: PositionMap
    omega: np.ndarray          # all modal eigenfrequencies, ascending
    zeta: np.ndarray
    n_rb: int
    retained: tuple            # global mode indices kept in the flexible block
    discarded: tuple

    @property
    def n_flex(self):
        return len(self.retained)

    @property
    def n_u(self):
        return self.B.shape[1]

    @property
    def n_y(self):
        return self.C.shape[0]

    @property
    def rb(self):
        return slice(0, 2 * self.n_rb)

    @property
    def fm_r(self):
        return slice(2 * self.n_rb, 2 * (self.n_rb + self.n_flex))

    @property
    def fm_d(self):
        return slice(2 * (self.n_rb + self.n_flex), self.A.shape[0])

    @property
    def kept(self):
        return slice(0, 2 * (self.n_rb + self.n_flex))


def group_and_partition(dec: ModalDecomposition, model: MechanicalModel,
                        retain) -> PartitionedModalModel:
    """Group the states per mode, one (position, velocity) pair each, with
    the modes ordered rigid-body, retained flexible, discarded flexible."""
    n_rb = dec.n_rb
    retain = sorted(set(int(i) for i in retain))
    if any(i < n_rb or i >= dec.n_modes for i in retain):
        raise ModelError("retain set must reference flexible (nonzero-frequency) modes")
    discarded = [i for i in range(n_rb, dec.n_modes) if i not in retain]
    modes = list(range(n_rb)) + retain + discarded
    # grouped input/output composition matrices: B(p) = S_B Phi_a(p) drives
    # the velocities, C(p) = Phi_s(p) S_C reads the positions
    V = dec.Vtilde[:, modes]
    S_B, S_C = np.zeros((2 * len(modes), len(V))), np.zeros((len(V), 2 * len(modes)))
    S_B[1::2], S_C[:, ::2] = V.T, V
    return PartitionedModalModel(
        A=_block_diag(*[_mode_block(dec.omega[i], dec.zeta[i]) for i in modes]),
        B=model.phi_a.matmul_left(S_B), C=model.phi_s.matmul_right(S_C),
        omega=dec.omega.copy(), zeta=dec.zeta.copy(), n_rb=n_rb,
        retained=tuple(retain), discarded=tuple(discarded))


def evaluate_local(pm: PartitionedModalModel, p) -> StateSpaceModel:
    """Local LTI dynamics at p, in the state order of ``pm``."""
    return StateSpaceModel(pm.A.copy(), pm.B(p), pm.C(p),
                           np.zeros((pm.n_y, pm.n_u)))
