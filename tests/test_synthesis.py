import math

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from modalsyn import synthesis
from modalsyn.benchplant import make_two_mass
from modalsyn.decoupling import (
    apply_decoupling_partitioned,
    extended_input_decoupling,
)
from modalsyn.mechanics import evaluate_local, group_and_partition, modal_decompose
from modalsyn.shaping import compute_scalings, design_weights
from modalsyn.statespace import (
    ModelError,
    NumericError,
    StateSpaceModel,
    diagonal_response,
    diagonal_ss,
    freq_response,
    hinf_lower_bound,
    hinf_norm,
    is_hurwitz,
    sigma_max,
    spectral_abscissa,
)
from modalsyn.synthesis import (
    PENALTY_BASE,
    ClosedLoopMap,
    ConventionalView,
    StructuredControllerParams,
    _compass_search,
    _objective,
    _rb_unscaling,
    close_full_loop,
    grid_stability_check,
    initial_params,
    rb_crossover,
    synthesize,
)

F_BW = [10.0]
EXPECTED_ERROR = [1e-4]


def _decoupled_two_mass(p_star):
    model = make_two_mass()
    dec = modal_decompose(model)
    pm = group_and_partition(dec, model, [1])
    pair = extended_input_decoupling(pm, p_star, 1)
    return apply_decoupling_partitioned(pm, pair)


def _make_cl(kind, p_star=0.3):
    dpm = _decoupled_two_mass(p_star)
    g_nom = evaluate_local(dpm, p_star)
    sc = compute_scalings(g_nom, F_BW, EXPECTED_ERROR)
    f_flex = [float(dpm.omega[1]) / (2 * np.pi)]
    ws = design_weights(F_BW, f_flex)
    return ClosedLoopMap(kind, dpm, p_star, sc, ws, [1], Q=10.0, f_bw=F_BW)


@pytest.fixture(scope="module")
def cl6():
    return _make_cl("6block")


@pytest.fixture(scope="module")
def cl4():
    return _make_cl("4block")


def _active_params(cl, xi=2.0):
    """Initialization with the flexible gain switched on."""
    init = initial_params(cl)
    return StructuredControllerParams(init.krb, init.L,
                                      xi * np.ones(init.xi.size),
                                      init.omega, init.Q)


def _diag_eval(channels, s):
    """Diagonal of the rational diagonal ``channels`` at the point ``s``."""
    return diagonal_response(channels, [s])[:, 0]


def _embedded_kfm(cl, params, s):
    """E K_FM at one point; E is the 0/1 map from the controlled channels
    into the flexible inputs."""
    E = np.zeros((cl.n_flex, cl.n_ctrl))
    for col, mode in enumerate(cl.controlled_modes):
        E[cl.pm.retained.index(mode), col] = 1.0
    return E @ np.diag(_diag_eval(params.kfm_sections(), s))


def _observer_loop_blocks(cl, params, s):
    """Output-based observer transfer split by input group, and E K_FM, at
    one point."""
    O = cl.observer(params).transfer_at(s)
    nrb, nfl = cl.n_rb, cl.n_flex
    return (O[:, :nrb], O[:, nrb:nrb + nfl], O[:, nrb + nfl:],
            _embedded_kfm(cl, params, s))


class TestClosedLoopFormulas:
    """The routed interconnection must reproduce the textbook block formulas
    computed independently, frequency point by frequency point."""

    def test_output_based_map_matches_block_formula(self, cl6):
        params = _active_params(cl6)
        M = cl6.evaluate(params)
        Gd = cl6.g_delta(params)
        K = diagonal_ss(params.krb_sections())
        for f in np.logspace(-1, 3, 100):
            s = 2j * np.pi * f
            G = Gd.transfer_at(s)       # 1 x 2: RB column, flexible column
            g1, g2 = G[0, 0], G[0, 1]
            k = K.transfer_at(s)[0, 0]
            wz1 = _diag_eval(cl6.weights["integral"].channels, s)[0]
            wz2 = _diag_eval(cl6.weights["rolloff"].channels, s)[0]
            ww3 = _diag_eval(cl6.weights["damping"].channels, s)[0]
            S = 1.0 / (1.0 + g1 * k)
            # w1/w2 shaping is identity on this problem
            oracle = np.array([
                [wz1 * S, wz1 * S * g1, wz1 * S * g2 * ww3],
                [wz2 * k * S, wz2 * k * S * g1, wz2 * k * S * g2 * ww3]])
            np.testing.assert_allclose(M.transfer_at(s), oracle, rtol=1e-8,
                                       atol=1e-12)

    def test_error_based_map_matches_block_formula(self, cl4):
        params = _active_params(cl4)
        M = cl4.evaluate(params)
        Gt = cl4.g_delta(params)
        K = diagonal_ss(params.krb_sections())
        Sig = cl4._realize(params)[0]["Sigma"]
        for f in np.logspace(-1, 3, 100):
            s = 2j * np.pi * f
            G = Gt.transfer_at(s)
            g1, g2 = G[0, 0], G[0, 1]
            k = K.transfer_at(s)[0, 0]
            sg = Sig.transfer_at(s)[0, 0]
            wz1 = _diag_eval(cl4.weights["integral"].channels, s)[0]
            ww1 = _diag_eval(cl4.weights["rolloff"].channels, s)[0]
            ww2 = _diag_eval(cl4.weights["damping"].channels, s)[0]
            S = 1.0 / (1.0 + g1 * k + g2 * sg)
            oracle = np.array([
                [wz1 * S * g1 * ww1, wz1 * S * g2 * ww2],
                [k * S * g1 * ww1, k * S * g2 * ww2]])
            np.testing.assert_allclose(M.transfer_at(s), oracle, rtol=1e-8,
                                       atol=1e-12)

    def test_output_based_inner_loop_matches_block_formula(self, cl6):
        """g_delta with K_FM active solves y = G [w_rb; w_fm + E K_FM eta],
        eta = O [w_rb; E K_FM eta; y] at every frequency."""
        params = _active_params(cl6)
        gd = cl6.g_delta(params)
        sc = cl6.scalings
        nrb, nfl, nc = cl6.n_rb, cl6.n_flex, cl6.n_ctrl
        right = np.diag(np.concatenate([sc.ww1, np.ones(nfl)]))
        for f in np.logspace(-1, 3, 60):
            s = 2j * np.pi * f
            G = cl6.plant.transfer_at(s)
            Gr, Gf = G[:, :nrb], G[:, nrb:]
            O1, O2, O3, EK = _observer_loop_blocks(cl6, params, s)
            ny = G.shape[0]
            lhs = np.block([[np.eye(ny), -Gf @ EK],
                            [-O3, np.eye(nc) - O2 @ EK]])
            rhs = np.block([[Gr, Gf], [O1, np.zeros((nc, nfl))]])
            y = la.solve(lhs, rhs)[:ny]
            want = np.diag(sc.wz) @ y @ right
            np.testing.assert_allclose(gd.transfer_at(s), want, rtol=1e-8,
                                       atol=1e-12)

    def test_zero_xi_gdelta_is_scaled_plant(self, cl6):
        """With the flexible controller off, the inner loop is transparent."""
        init = initial_params(cl6)
        assert np.all(init.xi == 0.0)
        gd = cl6.g_delta(init)
        sc = cl6.scalings
        plant = evaluate_local(cl6.pm, cl6.p_star)
        for f in (0.3, 5.0, 50.0, 500.0):
            s = 2j * np.pi * f
            raw = plant.transfer_at(s)
            scaled = np.diag(sc.wz) @ raw @ np.diag(
                np.concatenate([sc.ww1, [1.0]]))
            np.testing.assert_allclose(gd.transfer_at(s), scaled, rtol=1e-9)

    def test_flexible_column_is_last_input(self, cl6):
        params = _active_params(cl6)
        M = cl6.evaluate(params)
        col = cl6.flexible_column(params)
        assert col.n_inputs == 1
        s = 2j * np.pi * 42.0
        np.testing.assert_allclose(col.transfer_at(s),
                                   M.transfer_at(s)[:, 2:], rtol=1e-12)

    def test_conventional_view_drops_flexible_column(self, cl6):
        params = _active_params(cl6)
        view = ConventionalView(cl6)
        Mv = view.evaluate(params)
        M = cl6.evaluate(params)
        assert Mv.n_inputs == 2 and M.n_inputs == 3
        s = 2j * np.pi * 7.0
        np.testing.assert_allclose(Mv.transfer_at(s),
                                   M.transfer_at(s)[:, :2], rtol=1e-12)


def test_unknown_kind_is_refused_by_name():
    with pytest.raises(ModelError, match="unknown interconnection kind '8block'"):
        _make_cl("8block")


class TestStructuredParams:
    def test_vector_roundtrip(self, cl6):
        params = _active_params(cl6, xi=1.7)
        back = params.with_vector(params.to_vector())
        np.testing.assert_allclose(back.krb, params.krb, rtol=1e-13)
        np.testing.assert_array_equal(back.L, params.L)
        np.testing.assert_array_equal(back.xi, params.xi)

    def test_dict_roundtrip_rebuilds_identical_map(self, cl6):
        params = _active_params(cl6, xi=0.9)
        back = StructuredControllerParams.from_dict(params.to_dict())
        M1 = cl6.evaluate(params)
        M2 = cl6.evaluate(back)
        np.testing.assert_array_equal(M1.A, M2.A)
        np.testing.assert_array_equal(M1.B, M2.B)
        np.testing.assert_array_equal(M1.C, M2.C)
        np.testing.assert_array_equal(M1.D, M2.D)

    def test_rejects_nonpositive_krb(self):
        krb = np.array([[1.0, 1.0, -1.0, 1.0, 1.0, 0.7]])
        with pytest.raises(ModelError):
            StructuredControllerParams(krb, np.zeros((2, 1)), [0.0], [10.0], 5.0)

    def test_rejects_wrong_vector_length(self, cl6):
        params = initial_params(cl6)
        with pytest.raises(ModelError):
            params.with_vector(np.zeros(params.n_params + 1))

    def test_with_vector_matches_the_constructor(self, cl6):
        params = _active_params(cl6, xi=1.3)
        x = params.to_vector() * 1.01
        nk, nl = params.krb.size, params.L.size
        want = StructuredControllerParams(
            10.0 ** x[:nk].reshape(params.krb.shape),
            x[nk:nk + nl].reshape(params.L.shape), x[nk + nl:], params.omega,
            params.Q)
        got = params.with_vector(x)
        for name in ("krb", "L", "xi", "omega"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert got.Q == want.Q

    @pytest.mark.parametrize("v", [-400.0, 400.0, math.nan])
    def test_with_vector_refuses_a_krb_entry_out_of_range(self, cl6, v):
        """10 ** v is 0 below about -308 and infinite above 308."""
        params = initial_params(cl6)
        x = params.to_vector()
        x[2] = v
        with np.errstate(over="ignore"), \
                pytest.raises(ModelError, match="positive and finite"):
            params.with_vector(x)

    def test_initial_loop_crosses_unity_at_bandwidth(self, cl6):
        init = initial_params(cl6)
        wb = 2j * np.pi * F_BW[0]
        k = np.abs(diagonal_response(init.krb_sections(), [wb])[0, 0])
        assert k == pytest.approx(1.0, rel=1e-12)


class TestPhysicalController:
    def test_unscaling_gains(self, cl6):
        params = initial_params(cl6)
        kp = params.krb_sections(_rb_unscaling(cl6.scalings, cl6.n_rb))
        s = 2j * np.pi * 3.0
        expect = (cl6.scalings.ww1[0] * cl6.scalings.wz[0]
                  * diagonal_response(params.krb_sections(), [s])[0, 0])
        assert _diag_eval(kp, s)[0] == pytest.approx(expect, rel=1e-12)
        assert diagonal_ss(kp).transfer_at(s)[0, 0] == pytest.approx(expect,
                                                                      rel=1e-9)

    def test_full_loop_dc_disturbance_rejection(self, cl6):
        """The loop reports the tracking error: integral action rejects a
        constant output disturbance, while far above crossover the
        disturbance passes straight through."""
        params = initial_params(cl6)
        g = evaluate_local(cl6.pm, cl6.p_star)
        closed = close_full_loop(g, cl6, params)
        assert is_hurwitz(closed)
        assert abs(closed.transfer_at(2j * np.pi * 1e-7)[0, 0]) < 1e-3
        assert abs(closed.transfer_at(2j * np.pi * 1e4)[0, 0]) \
            == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("kind", ["6block", "4block"])
    def test_full_loop_matches_block_formula(self, cl6, cl4, kind):
        """Off the design point and with K_FM active, the closed loop from
        (d, d_fm) to e = d + y solves the loop equations at every frequency."""
        cl = cl6 if kind == "6block" else cl4
        params = _active_params(cl)
        g = evaluate_local(cl.pm, 0.8)
        closed = close_full_loop(g, cl, params)
        kp = params.krb_sections(_rb_unscaling(cl.scalings, cl.n_rb))
        nrb, nfl, nc = cl.n_rb, cl.n_flex, cl.n_ctrl
        ny = g.n_outputs
        for f in np.logspace(-1, 3, 60):
            s = 2j * np.pi * f
            G = g.transfer_at(s)
            Gr, Gf = G[:, :nrb], G[:, nrb:]
            Kp = np.diag(_diag_eval(kp, s))
            if kind == "6block":
                # y = Gr u1 + Gf (E K_FM eta + d_fm), u1 = -Kp (d + y),
                # eta = O [u1; E K_FM eta; y]
                O1, O2, O3, EK = _observer_loop_blocks(cl, params, s)
                lhs = np.block([[np.eye(ny) + Gr @ Kp, -Gf @ EK],
                                [O1 @ Kp - O3, np.eye(nc) - O2 @ EK]])
                rhs = np.block([[-Gr @ Kp, Gf],
                                [-O1 @ Kp, np.zeros((nc, nfl))]])
                y = la.solve(lhs, rhs)[:ny]
                want = np.hstack([np.eye(ny), np.zeros((ny, nfl))]) + y
            else:
                # e = d + Gr u1 + Gf (d_fm - Sigma e), u1 = -Kp e
                # Sigma closes u_fm = E K_FM eta around the observer
                # eta = O [u_fm; e]
                O = cl.observer(params).transfer_at(s)
                EK = _embedded_kfm(cl, params, s)
                Sg = la.solve(np.eye(nfl) - EK @ O[:, :nfl], EK @ O[:, nfl:])
                want = la.solve(np.eye(ny) + Gr @ Kp + Gf @ Sg,
                                np.hstack([np.eye(ny), Gf]))
            np.testing.assert_allclose(closed.transfer_at(s), want, rtol=1e-8,
                                       atol=1e-12)

    def test_full_loop_stable_both_kinds(self, cl6, cl4):
        for cl in (cl6, cl4):
            params = initial_params(cl)
            g = evaluate_local(cl.pm, cl.p_star)
            assert spectral_abscissa(close_full_loop(g, cl, params)) < 0


class TestGridCertificate:
    def test_structure_and_consistency(self, cl6):
        params = initial_params(cl6)
        grid = [np.array([p]) for p in np.linspace(0.0, 1.0, 11)]
        cert = grid_stability_check(cl6, params, grid)
        assert len(cert.points) == len(cert.stable) == len(cert.abscissa) == 11
        for ok, a in zip(cert.stable, cert.abscissa):
            assert ok == (a < 0)
        assert cert.all_stable == all(cert.stable)
        doc = cert.to_dict()
        assert doc["points"][3] == [grid[3][0]]

    def test_high_gain_destabilizes(self, cl6):
        init = initial_params(cl6)
        hot = StructuredControllerParams(
            init.krb * np.array([1e4, 1, 1, 1, 1, 1]),
            init.L, init.xi, init.omega, init.Q)
        cert = grid_stability_check(cl6, hot, [np.array([0.3])])
        assert not cert.all_stable


def _count_realizations(monkeypatch):
    """Count the realizations of the controller's rational diagonals and the
    observer builds."""
    counts = dict.fromkeys(("diagonal_ss", "observer"), 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(synthesis, "diagonal_ss",
                        counting("diagonal_ss", synthesis.diagonal_ss))
    monkeypatch.setattr(synthesis, "modal_observer",
                        counting("observer", synthesis.modal_observer))
    return counts


class TestObjective:
    # wide enough that every candidate here reaches the norm
    BAND = (1.0, 100.0)

    @pytest.mark.parametrize("kind", ["6block", "4block"])
    def test_blocks_realized_once_whatever_the_grid(self, cl6, cl4, kind,
                                                     monkeypatch):
        cl = cl6 if kind == "6block" else cl4
        x = _active_params(cl).to_vector()
        counts = _count_realizations(monkeypatch)
        seen = []
        for n in (1, 11):
            grid = [np.array([p]) for p in np.linspace(0.0, 1.0, n)]
            f = _objective(cl, initial_params(cl), grid, self.BAND)
            counts.update(dict.fromkeys(counts, 0))
            val = f(x)
            seen.append(dict(counts))
            assert val == hinf_norm(cl.evaluate(initial_params(cl).with_vector(x)),
                                    rel_tol=1e-5)
        # K_RB scaled for M, K_RB physical and K_FM for the full loop
        assert seen[0] == seen[1] == {"diagonal_ss": 3, "observer": 1}

    @pytest.mark.parametrize("kind", ["6block", "4block"])
    def test_crossover_after_evaluate_builds_nothing(self, cl6, cl4, kind,
                                                     monkeypatch):
        cl = cl6 if kind == "6block" else cl4
        params = _active_params(cl)
        cl.evaluate(params)
        counts = _count_realizations(monkeypatch)
        rb_crossover(cl, params)
        assert counts == {"diagonal_ss": 0, "observer": 0}

    @pytest.mark.parametrize("kind", ["6block", "4block"])
    def test_close_rejects_misfitting_model(self, cl6, cl4, kind):
        """A supplied model whose widths do not fit its declared ports is
        refused with the block's name, though the declaration is lowered
        before any model is known."""
        cl = cl6 if kind == "6block" else cl4
        models = dict(cl._realize(_active_params(cl))[0])
        cl._map.close(models)
        models["K_RB"] = StateSpaceModel([], [], [], np.eye(cl.n_rb + 1))
        with pytest.raises(ModelError, match="block 'K_RB' declares 1 inputs"):
            cl._map.close(models)

    @pytest.mark.parametrize("kind", ["6block", "4block"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), scale=st.sampled_from([1e-2, 1.0, 30.0, 300.0]))
    def test_objective_is_finite_for_any_vector(self, cl6, cl4, kind, data,
                                                scale):
        """Random and extreme parameter vectors score a finite value or a
        finite penalty no larger than the realization-failure penalty; the
        objective never raises."""
        cl = cl6 if kind == "6block" else cl4
        init = initial_params(cl)
        x0 = init.to_vector()
        unit = data.draw(arrays(float, x0.size, elements=st.floats(-1.0, 1.0)))
        grid = [np.array([p]) for p in (0.0, 0.5, 1.0)]
        f = _objective(cl, init, grid, (9.4, 10.6))
        val = f(x0 + scale * unit * np.maximum(np.abs(x0), 1.0))
        assert np.isfinite(val)
        assert val <= 10 * PENALTY_BASE


    @pytest.mark.parametrize("kind", ["6block", "4block"])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data(), scale=st.sampled_from([1e-2, 1.0, 30.0, 300.0]))
    def test_bar_changes_only_values_at_or_above_it(self, cl6, cl4, kind,
                                                    data, scale):
        """Given a bar, the objective returns its exact value or, when that
        value is at or above the bar, possibly another one at or above it."""
        cl = cl6 if kind == "6block" else cl4
        init = initial_params(cl)
        x0 = init.to_vector()
        unit = data.draw(arrays(float, x0.size, elements=st.floats(-1.0, 1.0)))
        grid = [np.array([p]) for p in (0.0, 0.5, 1.0)]
        f = _objective(cl, init, grid, (9.4, 10.6))
        gamma0 = f(x0)
        x = x0 + scale * unit * np.maximum(np.abs(x0), 1.0)
        exact = f(x)
        for bar in (0.5 * gamma0, gamma0, 2 * gamma0, 1e5, 1e6, math.inf):
            got = f(x, bar)
            assert got == exact or min(got, exact) >= bar, bar

    @pytest.mark.parametrize("kind", ["6block", "4block"])
    def test_dominated_probe_stops_at_the_bound(self, cl6, cl4, kind,
                                                monkeypatch):
        """A probe whose norm lower bound reaches the bar returns the bound
        without the grid closure, the crossover check or the norm, having
        computed the bound once."""
        cl = cl6 if kind == "6block" else cl4
        init = initial_params(cl)
        x = _active_params(cl).to_vector()
        bound = hinf_lower_bound(cl.evaluate(init.with_vector(x)))[0]
        grid = [np.array([p]) for p in (0.0, 0.5, 1.0)]
        f = _objective(cl, init, grid, self.BAND)
        for stage in ("close_full_loop", "rb_crossover", "hinf_norm"):
            def fail(*args, _stage=stage, **kwargs):
                raise AssertionError(f"{_stage} called for a dominated probe")
            monkeypatch.setattr(synthesis, stage, fail)
        bounds = []
        monkeypatch.setattr(synthesis, "hinf_lower_bound",
                            lambda *a: bounds.append(a) or hinf_lower_bound(*a))
        assert f(x, bound) == bound
        assert len(bounds) == 1

    @pytest.mark.parametrize("kind", ["6block", "4block"])
    def test_a_probe_stops_at_the_incumbents_peak(self, cl6, cl4, kind,
                                                  monkeypatch):
        """After an exact value, a probe whose M reaches the bar at the
        frequency where that value's bound peaked returns its singular
        value there, which is at most its norm, before M is eigensolved."""
        cl = cl6 if kind == "6block" else cl4
        init = initial_params(cl)
        x = _active_params(cl).to_vector()
        grid = [np.array([p]) for p in (0.0, 0.5, 1.0)]
        f = _objective(cl, init, grid, self.BAND)
        exact = f(x)
        M = cl.evaluate(init.with_vector(x))
        assert exact == hinf_norm(M, rel_tol=1e-5)
        at_peak = sigma_max(M, [hinf_lower_bound(M)[2]])[0]

        def fail(*args, **kwargs):
            raise AssertionError("a stage after the peak ran")
        for stage in ("hinf_lower_bound", "close_full_loop", "rb_crossover",
                      "hinf_norm"):
            monkeypatch.setattr(synthesis, stage, fail)
        monkeypatch.setattr(StateSpaceModel, "poles", fail)
        assert f(x, at_peak) == at_peak <= exact

    @pytest.mark.parametrize("kind", ["6block", "4block"])
    def test_bound_failure_scores_the_same_whatever_the_bar(self, cl6, cl4,
                                                            kind, monkeypatch):
        """A norm lower bound that cannot be computed scores PENALTY_BASE
        with or without a bar, ahead of the grid closure: with every frozen
        loop unstable the value is still PENALTY_BASE."""
        cl = cl6 if kind == "6block" else cl4
        x = _active_params(cl).to_vector()
        grid = [np.array([p]) for p in (0.0, 0.5, 1.0)]
        f = _objective(cl, initial_params(cl), grid, self.BAND)

        def fail(*args, **kwargs):
            raise NumericError("bound failed")
        monkeypatch.setattr(synthesis, "hinf_lower_bound", fail)
        unstable = StateSpaceModel(np.eye(1), np.ones((1, 1)), np.ones((1, 1)),
                                   np.zeros((1, 1)))
        monkeypatch.setattr(synthesis, "close_full_loop",
                            lambda *args: unstable)
        assert f(x) == f(x, 10.0) == PENALTY_BASE

    @pytest.mark.parametrize("kind, sweeps", [("6block", 2), ("4block", 1)])
    def test_crossover_reuses_an_unchanged_plant_response(self, cl6, cl4, kind,
                                                          sweeps, monkeypatch):
        """The 300-point response of g_delta is solved again only when
        g_delta is a new model: the error-based scaled plant does not
        depend on the parameters."""
        cl = cl6 if kind == "6block" else cl4
        designs = [_active_params(cl, xi) for xi in (2.0, 3.0)]
        cl._gd_response = (None, 0, None)
        sweep = []
        monkeypatch.setattr(synthesis, "freq_response",
                            lambda g, f: sweep.append(g) or freq_response(g, f))
        got = [rb_crossover(cl, p) for p in designs]
        assert len(sweep) == sweeps
        for params, xc in zip(designs, got):
            cl._gd_response = (None, 0, None)
            np.testing.assert_array_equal(rb_crossover(cl, params), xc)

    @pytest.mark.parametrize("kind", ["6block", "4block"])
    @pytest.mark.parametrize("stage", ["close_full_loop", "rb_crossover",
                                       "hinf_norm"])
    def test_stage_that_raises_scores_a_penalty(self, cl6, cl4, kind, stage,
                                                 monkeypatch):
        """The grid closure, the crossover check and the norm sit under the
        objective's guard: a stage that raises scores 10 PENALTY_BASE, except
        that a norm NumericError keeps its PENALTY_BASE."""
        cl = cl6 if kind == "6block" else cl4
        x = _active_params(cl).to_vector()
        grid = [np.array([p]) for p in (0.0, 0.5, 1.0)]
        f = _objective(cl, initial_params(cl), grid, self.BAND)
        assert f(x) < PENALTY_BASE / 10
        for exc in (NumericError, ModelError, FloatingPointError,
                    la.LinAlgError):
            def fail(*args, **kwargs):
                raise exc(f"{stage} failed")
            monkeypatch.setattr(synthesis, stage, fail)
            val = f(x)
            assert np.isfinite(val) and val <= 10 * PENALTY_BASE
            assert val >= PENALTY_BASE / 10
            want = (PENALTY_BASE if (stage, exc) == ("hinf_norm", NumericError)
                    else 10 * PENALTY_BASE)
            assert val == want, exc


class TestOptimizer:
    def test_compass_search_quadratic(self):
        target = np.array([1.3, -0.4, 2.2])

        def f(x, bar=math.inf):
            return float(np.sum((x - target) ** 2)) + 5.0

        x, fx, _, log = _compass_search(f, np.zeros(3), 4000)
        assert fx == pytest.approx(5.0, abs=1e-4)
        np.testing.assert_allclose(x, target, atol=0.02)
        assert log[-1][1] == fx

    @pytest.mark.parametrize("budget", [1, 2, 7, 30, 4000])
    def test_compass_search_counts_its_calls(self, budget):
        """``n_evals`` is the number of calls of ``f``, never above the
        budget; the log's counts rise with its strictly falling values."""
        target = np.array([1.3, -0.4, 2.2])
        calls = []

        def f(x, bar=math.inf):
            calls.append(x)
            return float(np.sum((x - target) ** 2)) + 5.0

        frozen = np.array([False, True, False])
        x, fx, n_evals, log = _compass_search(f, np.zeros(3), budget, frozen)
        assert n_evals == len(calls) <= budget
        assert x[1] == 0.0
        assert all(n1 < n2 and v1 > v2
                   for (n1, v1), (n2, v2) in zip(log, log[1:]))
        assert all(n <= n_evals for n, _ in log)

    def test_compass_search_needs_no_value_above_the_bar(self):
        """An objective that answers the bar itself for every probe at or
        above it steers the search exactly as the exact objective does."""
        target = np.array([1.3, -0.4, 2.2])

        def exact(x, bar=math.inf):
            return float(np.sum((x - target) ** 2)) + 5.0

        def bounded(x, bar=math.inf):
            return min(exact(x), bar)

        runs = []
        for f in (exact, bounded):
            x, fx, n_evals, log = _compass_search(f, np.zeros(3), 300)
            runs.append((x.tolist(), fx, n_evals, log))
        assert runs[0] == runs[1]

    def test_budget_zero_returns_initialization(self, cl6):
        init = initial_params(cl6)
        res = synthesize(cl6, init, budget=0)
        np.testing.assert_array_equal(res.params.to_vector(), init.to_vector())
        assert res.gamma > 0 and res.stable
        assert res.log == [(1, res.gamma)]

    def test_log_monotone_and_gamma_improves(self, cl6):
        init = initial_params(cl6)
        res = synthesize(cl6, init, budget=150, seed=0, n_starts=1)
        gammas = [v for _, v in res.log]
        evals = [n for n, _ in res.log]
        assert all(b < a for a, b in zip(gammas, gammas[1:]))
        assert all(b >= a for a, b in zip(evals, evals[1:]))
        res0 = synthesize(cl6, init, budget=0)
        assert res.gamma <= res0.gamma
        assert res.n_evals <= 150 + len(res.log)

    def test_n_evals_is_x0_and_the_starts_counts(self, cl6, monkeypatch):
        """``n_evals`` counts the evaluation of the initialization and every
        call of each start's search, which are all the objective's calls."""
        calls, counts = [], []

        def objective(*args, **kwargs):
            f = _objective(*args, **kwargs)
            return lambda *a: calls.append(a) or f(*a)

        def search(*args, **kwargs):
            out = _compass_search(*args, **kwargs)
            counts.append(out[2])
            return out
        monkeypatch.setattr(synthesis, "_objective", objective)
        monkeypatch.setattr(synthesis, "_compass_search", search)
        res = synthesize(cl6, initial_params(cl6), budget=30, seed=3,
                         n_starts=3)
        assert len(counts) == 3 and all(n <= 10 for n in counts)
        assert res.n_evals == 1 + sum(counts) == len(calls)

    def test_deterministic_given_seed(self, cl6):
        init = initial_params(cl6)
        r1 = synthesize(cl6, init, budget=60, seed=3, n_starts=2)
        r2 = synthesize(cl6, init, budget=60, seed=3, n_starts=2)
        np.testing.assert_array_equal(r1.params.to_vector(),
                                      r2.params.to_vector())
        assert r1.gamma == r2.gamma

    def test_freeze_xi_keeps_flexible_gain(self, cl6):
        """The conventional design keeps xi where it starts; the same run on
        the full map moves it."""
        init = initial_params(cl6)
        conv = synthesize(ConventionalView(cl6), init, budget=100, seed=0,
                          n_starts=1)
        np.testing.assert_array_equal(conv.params.xi, init.xi)
        res = synthesize(cl6, init, budget=100, seed=0, n_starts=1)
        assert np.all(res.params.xi != init.xi)
