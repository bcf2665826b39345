"""End-to-end acceptance checks.

Each test prints an explicit PASS/FAIL line for its criterion so a plain
``pytest -s tests/test_acceptance.py`` doubles as the acceptance report.
The co-design runs are shared module-scoped fixtures; every numeric target
is checked at the stated tolerance.
"""

import time

import numpy as np
import pytest
import scipy.linalg as la

from modalsyn.benchplant import by_name
from modalsyn.decoupling import (
    apply_decoupling_partitioned,
    extended_input_decoupling,
)
from modalsyn.mechanics import (
    MechanicalModel,
    PositionMap,
    evaluate_local,
    group_and_partition,
    modal_decompose,
)
from modalsyn.observer import truncate_with_compliance
from modalsyn.shaping import compute_scalings, design_weights
from modalsyn.statespace import (
    StateSpaceModel,
    care_solve,
    diagonal_response,
    freq_response,
    hinf_norm,
    hinf_norm_grid,
    simulate,
)
from modalsyn.synthesis import (
    ClosedLoopMap,
    ConventionalView,
    StructuredControllerParams,
    close_full_loop,
    grid_stability_check,
    initial_params,
    rb_crossover,
    synthesize,
)

GRID_1D = [np.array([p]) for p in np.linspace(0.0, 1.0, 11)]
BAND = (9.4, 10.6)          # Hz, rigid-body crossover window around 10 Hz
BUDGET = 2000
EPS_DAMP = 0.05


def report(num, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}")
    return ok


# ---------------------------------------------------------------------------
# shared problem setups and co-design runs
# ---------------------------------------------------------------------------

def two_mass_problem(kind, **weight_kw):
    spec = by_name("two_mass")
    dec = modal_decompose(spec.model)
    pm = group_and_partition(dec, spec.model, [1])
    pair = extended_input_decoupling(pm, spec.p_star, 1)
    dpm = apply_decoupling_partitioned(pm, pair)
    g_nom = evaluate_local(dpm, spec.p_star)
    sc = compute_scalings(g_nom, [10.0], [1e-4])
    f_flex = [float(dpm.omega[1]) / (2 * np.pi)]
    kw = dict(eps=EPS_DAMP)
    kw.update(weight_kw)
    ws = design_weights([10.0], f_flex, **kw)
    return ClosedLoopMap(kind, dpm, spec.p_star, sc, ws, [1], Q=10.0,
                         f_bw=[10.0])


def mmpa_problem(kind="6block"):
    spec = by_name("mmpa_lite")
    dec = modal_decompose(spec.model)
    pm = group_and_partition(dec, spec.model, [3])
    pair = extended_input_decoupling(pm, spec.p_star, 1)
    dpm = apply_decoupling_partitioned(pm, pair)
    g_nom = evaluate_local(dpm, spec.p_star)
    f_bw = [10.0, 10.0, 10.0]
    sc = compute_scalings(g_nom, f_bw, [1e-4] * 3)
    f_flex = [float(dpm.omega[3]) / (2 * np.pi)]
    ws = design_weights(f_bw, f_flex, eps=EPS_DAMP)
    return ClosedLoopMap(kind, dpm, spec.p_star, sc, ws, [3], Q=10.0,
                         f_bw=f_bw)


def flexible_peak_db(cl, params, f_lo=-1, f_hi=4, n=3000):
    col = cl.flexible_column(params)
    f = np.logspace(f_lo, f_hi, n)
    return 20 * np.log10(np.abs(freq_response(col, f).values).max())


def rb_sensitivity_peak(cl, params, n=2000):
    """Peak of the unweighted scaled sensitivity, recovered per channel."""
    gd = cl.g_delta(params)
    f = np.logspace(-1, 3, n)
    s = 2j * np.pi * f
    Gv = freq_response(gd, f).values
    Kv = diagonal_response(params.krb_sections(), s)
    peaks = []
    for i in range(cl.n_rb):
        S = 1.0 / (1.0 + Gv[:, i, i] * Kv[i])
        peaks.append(np.abs(S).max())
    return max(peaks)


@pytest.fixture(scope="module")
def design6():
    cl = two_mass_problem("6block")
    init = initial_params(cl)
    t0 = time.perf_counter()
    res = synthesize(cl, init, budget=BUDGET, seed=0, grid_points=GRID_1D,
                     crossover_band=BAND)
    wall = time.perf_counter() - t0
    conv = synthesize(ConventionalView(cl), init, budget=BUDGET, seed=0,
                      grid_points=GRID_1D, crossover_band=BAND)
    gamma_init = synthesize(cl, init, budget=0).gamma
    return {"cl": cl, "init": init, "res": res, "conv": conv,
            "gamma_init": gamma_init, "wall": wall}


@pytest.fixture(scope="module")
def design_nominal():
    """Design-position synthesis without the scheduling-grid constraint.

    Sensor-based modal-rate damping reverses sign once the sensing point
    crosses the mode's node (p = 0.5 on the two-mass plant), so a design
    certified over the whole p in [0, 1] grid can only use modest modal
    feedback.  The time-domain damping demonstration therefore uses the
    design-position synthesis, where the full damping authority is available.
    """
    cl = two_mass_problem("6block")
    init = initial_params(cl)
    res = synthesize(cl, init, budget=BUDGET, seed=0, crossover_band=BAND)
    return {"cl": cl, "res": res}


@pytest.fixture(scope="module")
def design4():
    cl = two_mass_problem("4block")
    init = initial_params(cl)
    res = synthesize(cl, init, budget=BUDGET, seed=0, grid_points=GRID_1D,
                     crossover_band=BAND)
    conv = synthesize(ConventionalView(cl), init, budget=BUDGET, seed=0,
                      grid_points=GRID_1D, crossover_band=BAND)
    return {"cl": cl, "init": init, "res": res, "conv": conv}


@pytest.fixture(scope="module")
def design_mmpa():
    cl = mmpa_problem()
    init = initial_params(cl)
    grid = list(by_name("mmpa_lite").grid)
    res = synthesize(cl, init, budget=300, seed=0, n_starts=2,
                     grid_points=grid)
    return {"cl": cl, "init": init, "res": res, "grid": grid}


# ---------------------------------------------------------------------------
# 1. modal algebra on random mass/stiffness pairs
# ---------------------------------------------------------------------------

def test_criterion_1_modal_algebra():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst_m, worst_k = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        A = rng.standard_normal((n, n))
        M = A @ A.T + n * np.eye(n)
        r = int(rng.integers(1, n + 1))
        B = rng.standard_normal((n, r))
        K = B @ B.T
        dom = np.array([[0.0, 1.0]])
        model = MechanicalModel(M, np.zeros((n, n)), K,
                                PositionMap.constant(np.eye(n), dom),
                                PositionMap.constant(np.eye(n), dom))
        dec = modal_decompose(model)
        V = dec.Vtilde
        worst_m = max(worst_m, np.abs(V.T @ M @ V - np.eye(n)).max())
        worst_k = max(worst_k,
                      np.abs(V.T @ K @ V - np.diag(dec.omega ** 2)).max())
    elapsed = time.perf_counter() - t0
    ok = worst_m < 1e-10 and worst_k < 1e-8 and elapsed < 10.0
    assert report(1, ok, "modal algebra: mass-normalization "
                  f"{worst_m:.2e} (<1e-10), stiffness diagonalization "
                  f"{worst_k:.2e} (<1e-8), {elapsed:.2f}s (<10s)")


# ---------------------------------------------------------------------------
# 2. decoupling exactness on both benchmarks
# ---------------------------------------------------------------------------

def test_criterion_2_decoupling_exactness():
    worst = 0.0
    for name, retain, n_dec in (("two_mass", [1], 1), ("mmpa_lite", [3], 1)):
        spec = by_name(name)
        dec = modal_decompose(spec.model)
        pm = group_and_partition(dec, spec.model, retain)
        pair = extended_input_decoupling(pm, spec.p_star, n_dec)
        n_rb = pm.n_rb
        B, C = pm.B(spec.p_star), pm.C(spec.p_star)
        Bv = np.vstack([B[pm.rb][1::2], B[pm.fm_r][1::2][:n_dec]])
        Cp = C[:, pm.rb][:, ::2]
        worst = max(worst, np.abs(Bv @ pair.T_u - np.eye(n_rb + n_dec)).max())
        worst = max(worst, np.abs(pair.T_y @ Cp - np.eye(n_rb)).max())
        dpm = apply_decoupling_partitioned(pm, pair)
        rb_cols = dpm.B(spec.p_star)[dpm.fm_r][1::2, :n_rb]
        worst = max(worst, np.abs(rb_cols[:n_dec]).max())
    ok = worst < 1e-10
    assert report(2, ok, f"decoupling exactness: worst residual {worst:.2e} "
                  "(<1e-10) on two_mass and mmpa_lite")


# ---------------------------------------------------------------------------
# 3. static compliance correction across the grid
# ---------------------------------------------------------------------------

def test_criterion_3_compliance_correction():
    spec = by_name("two_mass")
    dec = modal_decompose(spec.model)
    pm = group_and_partition(dec, spec.model, [])  # discard the mode
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 11):
        tm = truncate_with_compliance(pm, p)
        # independent oracle: discarded-mode static contribution from the raw
        # partitioned matrices, c_i b_i^T / omega_i^2
        Bd = pm.B(p)[pm.fm_d][1::2]
        Cd = pm.C(p)[:, pm.fm_d][:, ::2]
        oracle = np.zeros((pm.n_y, pm.n_u))
        for i, mode in enumerate(pm.discarded):
            oracle += np.outer(Cd[:, i], Bd[i]) / pm.omega[mode] ** 2
        worst = max(worst, np.abs(tm.D - oracle).max())
    ok = worst < 1e-10
    assert report(3, ok, "compliance correction: DC feedthrough matches the "
                  f"discarded static contribution, worst {worst:.2e} (<1e-10) "
                  "at 11 grid points")


# ---------------------------------------------------------------------------
# 4. H-infinity norm against a dense-grid oracle and an analytic case
# ---------------------------------------------------------------------------

def test_criterion_4_hinf_norm():
    rng = np.random.default_rng(99)
    worst_rel = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        A -= (np.max(la.eigvals(A).real) + 0.5) * np.eye(n)
        g = StateSpaceModel(A, rng.standard_normal((n, 2)),
                            rng.standard_normal((2, n)),
                            0.1 * rng.standard_normal((2, 2)))
        ref = hinf_norm_grid(g, 100_000)
        worst_rel = max(worst_rel, abs(hinf_norm(g) - ref) / ref)
    resonant = StateSpaceModel.from_tf([1.0], [1.0, 0.2, 1.0])
    analytic = hinf_norm(resonant)
    rel_res = abs(analytic - 5.0252) / 5.0252
    ok = worst_rel < 5e-3 and rel_res < 1e-3
    assert report(4, ok, "H-infinity norm: bisection vs dense grid "
                  f"{worst_rel:.2e} (<0.5%), resonant case {analytic:.5f} "
                  f"vs 5.0252 ({rel_res:.2e} < 0.1%)")


# ---------------------------------------------------------------------------
# 5. Riccati observer initialization on both benchmarks
# ---------------------------------------------------------------------------

def test_criterion_5_riccati_initialization():
    ok = True
    details = []
    for make in (lambda: two_mass_problem("6block"), mmpa_problem):
        cl = make()
        tm = truncate_with_compliance(cl.pm, cl.p_star)
        A, C = tm.A, tm.C
        n = A.shape[0]
        P, L = care_solve(A, C, np.eye(n), np.eye(C.shape[0]))
        res = A @ P + P @ A.T - P @ C.T @ C @ P + np.eye(n)
        scale = max(np.linalg.norm(A @ P), np.linalg.norm(P @ C.T @ C @ P), 1.0)
        r = np.linalg.norm(res) / scale
        hurwitz = bool(np.max(la.eigvals(A - L @ C).real) < 0)
        ok = ok and r <= 1e-8 and hurwitz
        details.append(f"relative residual {r:.2e}, Hurwitz {hurwitz}")
    assert report(5, ok, "Riccati initialization: " + "; ".join(details))


# ---------------------------------------------------------------------------
# 6. output-based co-design damps the flexible mode
# ---------------------------------------------------------------------------

def test_criterion_6_flexible_damping(design6):
    cl = design6["cl"]
    peak_prop = flexible_peak_db(cl, design6["res"].params)
    peak_conv = flexible_peak_db(cl, design6["conv"].params)
    gain_db = peak_conv - peak_prop
    improved = design6["res"].gamma < design6["gamma_init"]
    fast = design6["wall"] < 300.0
    ok = gain_db >= 6.0 and improved and fast
    assert report(6, ok, "flexible-mode damping: peak "
                  f"{peak_prop:.2f} dB vs conventional {peak_conv:.2f} dB "
                  f"({gain_db:.2f} dB >= 6 dB), gamma {design6['res'].gamma:.3g} "
                  f"< init {design6['gamma_init']:.3g}: {improved}, "
                  f"run {design6['wall']:.0f}s (<300s)")


# ---------------------------------------------------------------------------
# 7. rigid-body bandwidth is preserved
# ---------------------------------------------------------------------------

def test_criterion_7_bandwidth_preservation(design6):
    cl = design6["cl"]
    xc_prop = rb_crossover(cl, design6["res"].params, n_points=2000)[0]
    xc_conv = rb_crossover(cl, design6["conv"].params, n_points=2000)[0]
    ratio = xc_prop / xc_conv
    ok = 0.85 <= ratio <= 1.15
    assert report(7, ok, "bandwidth preservation: crossover "
                  f"{xc_prop:.2f} Hz vs conventional {xc_conv:.2f} Hz "
                  f"(ratio {ratio:.3f} within [0.85, 1.15])")


# ---------------------------------------------------------------------------
# 8. error-based co-design and its documented performance limit
# ---------------------------------------------------------------------------

def test_criterion_8_error_based_tradeoff(design4, design6):
    cl4 = design4["cl"]
    peak_prop = flexible_peak_db(cl4, design4["res"].params)
    peak_off = flexible_peak_db(cl4, design4["conv"].params)
    gain_db = peak_off - peak_prop
    s4 = rb_sensitivity_peak(cl4, design4["res"].params)
    s6 = rb_sensitivity_peak(design6["cl"], design6["res"].params)
    ok = gain_db >= 3.0 and s4 >= s6
    assert report(8, ok, "error-based co-design: flexible peak reduced "
                  f"{gain_db:.2f} dB (>=3 dB); sensitivity peak {s4:.3f} >= "
                  f"output-based {s6:.3f}")


# ---------------------------------------------------------------------------
# 9. scheduling-grid stability certificates
# ---------------------------------------------------------------------------

def test_criterion_9_grid_certificates(design6, design_mmpa):
    cert_tm = grid_stability_check(design6["cl"], design6["res"].params,
                                   GRID_1D)
    cert_mm = grid_stability_check(design_mmpa["cl"],
                                   design_mmpa["res"].params,
                                   design_mmpa["grid"])
    # negative control: forge a drive-gain sign flip (the public constructor
    # rejects non-positive gains by design)
    good = design6["res"].params
    flipped = StructuredControllerParams(good.krb, good.L, good.xi,
                                         good.omega, good.Q)
    object.__setattr__(flipped, "krb",
                       good.krb * np.array([-1.0, 1, 1, 1, 1, 1]))
    cert_bad = grid_stability_check(design6["cl"], flipped, GRID_1D)
    ok = (cert_tm.all_stable and len(cert_tm.stable) == 11
          and cert_mm.all_stable and len(cert_mm.stable) == 25
          and not cert_bad.all_stable)
    assert report(9, ok, "grid certificates: two_mass 11/11 "
                  f"{cert_tm.all_stable}, mmpa_lite 25/25 {cert_mm.all_stable}, "
                  f"sign-flipped gain fails {not cert_bad.all_stable}")


# ---------------------------------------------------------------------------
# 10. the norm bound implies the classical sensitivity bound
# ---------------------------------------------------------------------------

def test_criterion_10_weighted_bound_semantics(design6):
    cl = two_mass_problem("6block", K_s=0.05, K_r=0.05, eps=0.01)
    params = design6["conv"].params
    M = cl.evaluate(params)
    gamma = hinf_norm(M)
    assert gamma <= 1.0, f"rescaled problem must close below 1, got {gamma}"
    f = np.logspace(-1, 3, 200)
    s = 2j * np.pi * f
    gd = cl.g_delta(params)
    Gv = freq_response(gd, f).values
    Kv = diagonal_response(params.krb_sections(), s)
    wz1 = diagonal_response(cl.weights["integral"].channels, s)
    ww1 = diagonal_response(cl.weights["identity"].channels, s)
    worst = -np.inf
    for i in range(cl.n_rb):
        S = np.abs(1.0 / (1.0 + Gv[:, i, i] * Kv[i]))
        bound = gamma / np.abs(wz1[i] * ww1[i])
        worst = max(worst, np.max(S / bound))
    ok = worst <= 1.0 + 1e-6
    assert report(10, ok, f"weighted-bound semantics: gamma {gamma:.3f} <= 1 "
                  f"and |S| within gamma*|(Wz1 Ww1)^-1| (max ratio {worst:.6f}) "
                  "at 200 frequencies")


# ---------------------------------------------------------------------------
# 11. time-domain active damping under a band disturbance
# ---------------------------------------------------------------------------

def test_criterion_11_time_domain(design_nominal):
    cl = design_nominal["cl"]
    dt, n = 1e-4, 20000
    rng = np.random.default_rng(0)
    w0 = 2 * np.pi * 50.0
    bp = StateSpaceModel.from_tf([w0 / 5.0, 0.0], [1.0, w0 / 5.0, w0 ** 2])
    _, _, d = simulate(bp, rng.standard_normal((n, 1)), dt)
    d /= np.max(np.abs(d))
    w = np.hstack([np.zeros((n, cl.n_rb)), d])
    g = evaluate_local(cl.pm, cl.p_star)
    on = design_nominal["res"].params
    off = StructuredControllerParams(on.krb, on.L, np.zeros_like(on.xi),
                                     on.omega, on.Q)
    rms = {}
    for label, params in (("on", on), ("off", off)):
        closed = close_full_loop(g, cl, params)
        _, _, y = simulate(closed, w, dt)
        rms[label] = float(np.sqrt(np.mean(y ** 2)))
    ratio = rms["on"] / rms["off"]
    ok = ratio <= 0.7
    assert report(11, ok, "time-domain damping: observer-on RMS "
                  f"{rms['on']:.3e} / observer-off {rms['off']:.3e} "
                  f"= {ratio:.3f} (<= 0.7)")


# ---------------------------------------------------------------------------
# 12. error-based observers drop the rigid-body states
# ---------------------------------------------------------------------------

def test_criterion_12_observer_dimensions():
    ok = True
    details = []
    for make in (two_mass_problem, mmpa_problem):
        cl6 = make("6block")
        cl4 = make("4block")
        n_out = cl6.observer(initial_params(cl6)).n_states
        n_err = cl4.observer(initial_params(cl4)).n_states
        ok = ok and n_err == n_out - 2 * cl6.n_rb
        details.append(f"{n_out} -> {n_err} (n_rb={cl6.n_rb})")
    assert report(12, ok, "observer state dimensions: " + "; ".join(details))
