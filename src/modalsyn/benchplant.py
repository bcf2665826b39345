"""Deterministic desk-scale surrogate plants with position-dependent sensing.

Both benchmarks combine rigid-body modes with position-dependent flexible
modes so that the decoupling, observer and synthesis machinery is exercised
end to end.  All numbers are constructed; eigenfrequencies are exact by
design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from modalsyn.mechanics import MechanicalModel, PositionMap

TWO_MASS_FLEX_HZ = 50.0
TWO_MASS_ZETA = 0.01
MMPA_TORSION_HZ = 120.0
MMPA_SADDLE_HZ = 180.0
MMPA_ZETA = 0.005


@dataclass(frozen=True)
class BenchmarkSpec:
    """A named benchmark plant plus its design point and analysis grid."""

    name: str
    model: MechanicalModel
    p_star: np.ndarray
    grid: np.ndarray  # (n_points, n_p)


def make_two_mass(two_outputs: bool = False) -> MechanicalModel:
    """Two unit masses on a coupling spring; one rigid-body + one flexible mode.

    The flexible mode sits at exactly 50 Hz with 1% damping.  Two collocated
    actuators (Phi_a = I); one sensor reading the p-weighted combination
    [1-p, p] of the two masses, p in [0, 1].  At p = 0.5 the flexible mode is
    invisible in the output.  With ``two_outputs`` a second row [p, 1-p] is
    added for square designs.
    """
    w_flex = 2 * np.pi * TWO_MASS_FLEX_HZ
    k = 0.5 * w_flex ** 2  # eigenvalue of k[[1,-1],[-1,1]] is 2k = w_flex^2
    M = np.eye(2)
    K = k * np.array([[1.0, -1.0], [-1.0, 1.0]])
    # stiffness-proportional damping: zeta = beta * omega / 2, rigid mode undamped
    beta = 2 * TWO_MASS_ZETA / w_flex
    D = beta * K
    domain = np.array([[0.0, 1.0]])
    phi_a = PositionMap.constant(np.eye(2), domain)
    rows = [({(0,): np.array([[1.0, 0.0]]), (1,): np.array([[-1.0, 1.0]])})]
    if two_outputs:
        rows.append({(0,): np.array([[0.0, 1.0]]), (1,): np.array([[1.0, -1.0]])})
    shape = (len(rows), 2)
    coeffs = {}
    for expo in {(0,), (1,)}:
        coeffs[expo] = np.vstack([r.get(expo, np.zeros((1, 2))) for r in rows])
    phi_s = PositionMap(shape, coeffs, domain)
    return MechanicalModel(M, D, K, phi_a, phi_s)


def two_mass_spec(two_outputs: bool = False) -> BenchmarkSpec:
    """two_mass, or two_mass_square with ``two_outputs``, designed at p = 0.3
    and gridded at 11 points over [0, 1]."""
    return BenchmarkSpec("two_mass_square" if two_outputs else "two_mass",
                         make_two_mass(two_outputs),
                         p_star=np.array([0.3]),
                         grid=np.linspace(0.0, 1.0, 11).reshape(-1, 1))


# mmpa_lite geometry: four corner masses plus a center mass, vertical motion only
_CORNER_UV = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
_PLATE_HALF = 0.1  # m
_SENSOR_OFFSETS = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
_SENSOR_SPAN = 0.8  # read-head center sweeps [0.1, 0.9] in normalized coords


def _bilinear_weights_poly(ax, bx, ay, by):
    """Corner weights for a read point (u, v) = (ax + bx*p1, ay + by*p2).

    Returns dict: monomial exponent (e1, e2) -> 1x4 weight row over the
    corners ordered as _CORNER_UV.
    """
    # w = [(1-u)(1-v), u(1-v), uv, (1-u)v]
    u = {(0, 0): ax, (1, 0): bx}
    v = {(0, 0): ay, (0, 1): by}
    one_minus_u = {(0, 0): 1.0 - ax, (1, 0): -bx}
    one_minus_v = {(0, 0): 1.0 - ay, (0, 1): -by}

    def poly_mul(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                out[e] = out.get(e, 0.0) + c1 * c2
        return out

    weights = [poly_mul(one_minus_u, one_minus_v), poly_mul(u, one_minus_v),
               poly_mul(u, v), poly_mul(one_minus_u, v)]
    coeffs = {}
    for j, w in enumerate(weights):
        for e, c in w.items():
            coeffs.setdefault(e, np.zeros((1, 4)))[0, j] += c
    return coeffs


def make_mmpa_lite() -> MechanicalModel:
    """Lumped plate with 3 rigid-body modes (z, rx, ry) and 2 flexible modes.

    Four corner masses and a center mass move vertically; stiffness and
    damping are synthesized spectrally from prescribed mode shapes so the
    torsion mode sits at exactly 120 Hz and the umbrella-type "saddle" mode
    at 180 Hz, both with 0.5% damping.  Four constant corner actuators; three
    sensors bilinearly interpolating corner motion at read points that travel
    with p in [0, 1]^2.
    """
    a = _PLATE_HALF
    m_corner, m_center = 0.5, 1.0
    masses = np.array([m_corner] * 4 + [m_center])
    M = np.diag(masses)
    xy = np.vstack([(_CORNER_UV * 2 - 1) * a, [0.0, 0.0]])
    shapes = np.column_stack([
        np.ones(5),                 # z translation
        xy[:, 1],                   # rx: displacement proportional to y
        -xy[:, 0],                  # ry
        [1, -1, 1, -1, 0],          # torsion (xy sign pattern)
        [1, 1, 1, 1, -4 * m_corner / m_center],  # saddle: corners vs center
    ])
    # mass-normalize the (already M-orthogonal) shape set
    for j in range(5):
        shapes[:, j] /= np.sqrt(shapes[:, j] @ (masses * shapes[:, j]))
    omega = 2 * np.pi * np.array([0.0, 0.0, 0.0, MMPA_TORSION_HZ, MMPA_SADDLE_HZ])
    zeta = np.array([0.0, 0.0, 0.0, MMPA_ZETA, MMPA_ZETA])
    K = M @ shapes @ np.diag(omega ** 2) @ shapes.T @ M
    D = M @ shapes @ np.diag(2 * zeta * omega) @ shapes.T @ M
    K = 0.5 * (K + K.T)
    D = 0.5 * (D + D.T)

    domain = np.array([[0.0, 1.0], [0.0, 1.0]])
    phi_a = PositionMap.constant(np.vstack([np.eye(4), np.zeros((1, 4))]), domain)
    lo = (1.0 - _SENSOR_SPAN) / 2
    rows = []
    for off in _SENSOR_OFFSETS:
        coeffs = _bilinear_weights_poly(lo + off[0], _SENSOR_SPAN,
                                        lo + off[1], _SENSOR_SPAN)
        rows.append({e: np.hstack([c, np.zeros((1, 1))]) for e, c in coeffs.items()})
    exps = set().union(*[r.keys() for r in rows])
    coeffs = {e: np.vstack([r.get(e, np.zeros((1, 5))) for r in rows]) for e in exps}
    phi_s = PositionMap((3, 5), coeffs, domain)
    return MechanicalModel(M, D, K, phi_a, phi_s)


def mmpa_lite_spec() -> BenchmarkSpec:
    """mmpa_lite designed at p = (0.3, 0.4) and gridded at 5 x 5 points."""
    side = np.linspace(0.0, 1.0, 5)
    grid = np.array([[x, y] for x in side for y in side])
    return BenchmarkSpec("mmpa_lite", make_mmpa_lite(),
                         p_star=np.array([0.3, 0.4]), grid=grid)


def by_name(name: str) -> BenchmarkSpec:
    if name == "two_mass":
        return two_mass_spec()
    if name == "two_mass_square":
        return two_mass_spec(two_outputs=True)
    if name == "mmpa_lite":
        return mmpa_lite_spec()
    raise KeyError(f"unknown benchmark '{name}'")
