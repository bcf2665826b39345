import numpy as np
import pytest
import scipy.linalg as la

from modalsyn.benchplant import make_mmpa_lite, make_two_mass
from modalsyn.mechanics import evaluate_local
from modalsyn.observer import (
    discarded_static_gain,
    error_design_model,
    modal_observer,
    retained_positions,
    selection_matrix,
    truncate_with_compliance,
)
from modalsyn.statespace import (
    Interconnection,
    ModelError,
    NumericError,
    StateSpaceModel,
    care_solve,
    diagonal_response,
    diagonal_ss,
    freq_response,
    is_hurwitz,
    simulate,
)
from modalsyn.synthesis import StructuredControllerParams, initial_params
from test_decoupling import decoupled_two_mass, partitioned
from test_synthesis import two_mass_map


def _joint_system(plant, obs):
    """Plant and observer sharing the input, measurement wired internally."""
    n_u, n_y = plant.n_inputs, plant.n_outputs
    n_eta = obs.n_outputs
    return Interconnection(
        [("P", plant, [("u", n_u)], [("y", n_y)]),
         ("O", obs, [("u", n_u), ("y", n_y)], [("eta", n_eta)])],
        [("P.u", "u", 1), ("O.u", "u", 1), ("O.y", "P.y", 1),
         ("eta", "O.eta", 1)],
        inputs=[("u", n_u)], outputs=[("eta", n_eta)]).close()


class TestCompliance:
    def test_zero_when_nothing_discarded(self):
        pm = partitioned(make_two_mass())
        np.testing.assert_array_equal(
            discarded_static_gain(pm, evaluate_local(pm, 0.3)), np.zeros((1, 2)))

    def test_matches_low_frequency_residual(self):
        # discard the only flexible mode of the two-mass plant; the
        # feed-through must equal the missing low-frequency contribution
        pm = partitioned(make_two_mass(), retain=[])
        p = 0.3
        g_full = evaluate_local(pm, p)
        D_o = discarded_static_gain(pm, g_full)
        tm = truncate_with_compliance(pm, p)
        f = np.array([1e-3])
        full = freq_response(g_full, f).values[0]
        rb_only = freq_response(
            tm, f).values[0] - tm.D  # RB part alone, no correction
        np.testing.assert_allclose(full - rb_only, D_o, rtol=1e-4)

    def test_direct_formula_mmpa(self):
        pm = partitioned(make_mmpa_lite(), retain=[3])
        p = np.array([0.3, 0.4])
        d = pm.fm_d
        want = -pm.C(p)[:, d] @ la.solve(pm.A[d, d], pm.B(p)[d])
        np.testing.assert_allclose(
            discarded_static_gain(pm, evaluate_local(pm, p)), want)

    def test_zero_stiffness_discard_rejected(self):
        # a zero-frequency mode in the discarded block has no static gain
        from dataclasses import replace
        pm = partitioned(make_two_mass(), retain=[])
        A = pm.A.copy()
        A[pm.fm_d, pm.fm_d] = [[0.0, 1.0], [0.0, 0.0]]
        bad = replace(pm, A=A, omega=np.array([0.0, 0.0]))
        with pytest.raises(NumericError):
            discarded_static_gain(bad, evaluate_local(bad, 0.3))


class TestTruncation:
    def test_pole_set_is_rb_plus_retained(self):
        pm = partitioned(make_mmpa_lite(), retain=[3])
        tm = truncate_with_compliance(pm, (0.3, 0.4))
        assert tm.n_states == 2 * (pm.n_rb + 1)
        poles = np.sort_complex(tm.poles())
        want = np.sort_complex(np.concatenate(
            [la.eigvals(pm.A[pm.rb, pm.rb]),
             la.eigvals(pm.A[pm.fm_r, pm.fm_r])]))
        np.testing.assert_allclose(poles, want, atol=1e-8)

    def test_feedthrough_is_compliance(self):
        pm = partitioned(make_mmpa_lite(), retain=[3])
        p = (0.3, 0.4)
        tm = truncate_with_compliance(pm, p)
        np.testing.assert_allclose(
            tm.D, discarded_static_gain(pm, evaluate_local(pm, p)))


class TestSelectionMatrix:
    def test_output_kind_picks_velocity(self):
        pm = partitioned(make_mmpa_lite())
        n = 2 * (pm.n_rb + pm.n_flex)
        psi = selection_matrix(pm, retained_positions(pm, [3]), n)
        assert psi.shape == (1, n)
        # mode 3 is the first retained mode; its velocity state follows the
        # three rigid-body pairs
        want = np.zeros(psi.shape[1])
        want[2 * pm.n_rb + 1] = 1.0
        np.testing.assert_array_equal(psi[0], want)

    def test_error_kind_offsets_from_zero(self):
        pm = partitioned(make_mmpa_lite())
        psi = selection_matrix(pm, retained_positions(pm, [4]), 2 * pm.n_flex)
        assert psi.shape == (1, 2 * pm.n_flex)
        assert psi[0, 3] == 1.0 and psi.sum() == 1.0

    def test_not_retained_rejected(self):
        pm = partitioned(make_mmpa_lite(), retain=[3])
        with pytest.raises(ModelError, match=r"mode 4 is not in the retained "
                                             r"set \(3,\)"):
            retained_positions(pm, [4])


class TestOutputObserver:
    def test_zero_gain_keeps_open_loop_poles(self):
        pm = partitioned(make_two_mass())
        tm = truncate_with_compliance(pm, 0.3)
        psi = selection_matrix(pm, [0], tm.n_states)
        L = np.zeros((tm.n_states, pm.n_y))
        obs = modal_observer(tm, L, psi)
        np.testing.assert_allclose(np.sort_complex(obs.poles()),
                                   np.sort_complex(tm.poles()), atol=1e-10)

    def test_riccati_gain_is_stabilizing(self):
        pm = decoupled_two_mass()
        tm = truncate_with_compliance(pm, 0.3)
        _, L = care_solve(tm.A, tm.C, np.eye(tm.n_states),
                          np.eye(pm.n_y))
        psi = selection_matrix(pm, [0], tm.n_states)
        obs = modal_observer(tm, L, psi)
        assert is_hurwitz(obs)
        # inputs are the two plant inputs, then the one measurement
        assert obs.n_inputs == 3 and obs.n_outputs == 1
        np.testing.assert_array_equal(obs.B[:, 2:], L)

    def test_estimate_converges_in_simulation(self):
        pm = decoupled_two_mass()
        tm = truncate_with_compliance(pm, 0.3)
        _, L = care_solve(tm.A, tm.C, 1e4 * np.eye(4), np.eye(1))
        psi = selection_matrix(pm, [0], tm.n_states)
        obs = modal_observer(tm, L, psi)

        # joint plant+observer simulation: the estimate error follows the
        # autonomous error dynamics exactly, independent of the input
        joint = _joint_system(tm, obs)
        dt, n = 1e-3, 20_000
        t = np.arange(n) * dt
        u = np.column_stack([0.2 * np.sin(2 * np.pi * 3 * t),
                             0.1 * np.sin(2 * np.pi * 45 * t)])
        x0 = np.concatenate([[0.01, 0.0, 0.005, 0.0], np.zeros(4)])
        _, xs, _ = simulate(joint, u, dt, x0)
        true_eta = xs[:, :4] @ psi.T
        eta = xs[:, 4:] @ psi.T
        err = np.abs(eta - true_eta)
        assert err[:100].max() > 1e-4        # the transient is visible ...
        assert err[-1000:].max() < 1e-8 * np.abs(true_eta).max()  # ... then gone

    def test_dimension_checks(self):
        pm = partitioned(make_two_mass())
        tm = truncate_with_compliance(pm, 0.3)
        psi = selection_matrix(pm, [0], tm.n_states)
        with pytest.raises(ModelError, match="L must be 4x1"):
            modal_observer(tm, np.zeros((3, 1)), psi)
        with pytest.raises(ModelError, match="Psi must have 4 columns"):
            modal_observer(tm, np.zeros((4, 1)), psi[:, :2])


class TestErrorObserver:
    def riccati_observer(self, pm, p=0.3, q=1.0):
        """Observer realization, its gain L and its selection matrix."""
        A = pm.A[pm.fm_r, pm.fm_r]
        C = pm.C(p)[:, pm.fm_r]
        _, L = care_solve(A, -C, q * np.eye(A.shape[0]), np.eye(C.shape[0]))
        psi = selection_matrix(pm, [0], A.shape[0])
        return modal_observer(error_design_model(pm, p), L, psi), L, psi

    def test_state_dimension_is_retained_only(self):
        pm = decoupled_two_mass()
        obs, _, _ = self.riccati_observer(pm)
        assert obs.n_states == 2 * pm.n_flex
        # inputs are the flexible plant inputs, then the measured error
        assert obs.n_inputs == pm.n_flex + pm.n_y
        assert is_hurwitz(obs)

    def test_estimation_error_dynamics(self):
        # the error e = x_hat - x must evolve as A + L C regardless of input
        pm = decoupled_two_mass()
        obs, L, _ = self.riccati_observer(pm)
        want = pm.A[pm.fm_r, pm.fm_r] + L @ pm.C(0.3)[:, pm.fm_r]
        np.testing.assert_allclose(obs.A, want, atol=1e-12)

    def test_converges_against_flexible_subsystem(self):
        pm = decoupled_two_mass()
        p = 0.3
        obs, _, psi = self.riccati_observer(pm, p, q=1e4)
        fm_cols = [pm.n_rb + j for j in range(pm.n_flex)]
        B = pm.B(p)[pm.fm_r][:, fm_cols]
        # measurement convention: e is the negated flexible output
        flex = StateSpaceModel(pm.A[pm.fm_r, pm.fm_r], B,
                               -pm.C(p)[:, pm.fm_r],
                               np.zeros((pm.n_y, len(fm_cols))))
        joint = _joint_system(flex, obs)
        dt, n = 1e-4, 20_000
        t = np.arange(n) * dt
        u = 0.1 * np.sin(2 * np.pi * 30 * t)[:, None]
        x0 = np.array([0.02, 0.0, 0.0, 0.0])
        _, xs, _ = simulate(joint, u, dt, x0)
        true_eta = xs[:, :2] @ psi.T
        eta = xs[:, 2:] @ psi.T
        err = np.abs(eta - true_eta)
        assert err[:100].max() > 1e-4
        assert err[-1000:].max() < 1e-8 * np.abs(true_eta).max()


class TestSigmaSubsystem:
    def build(self):
        """Observer, the sections of K_FM and the physical Sigma that the
        error-based problem closes for them."""
        cl = two_mass_map("4block")
        pm, w = cl.pm, cl.omega_ctrl[0]
        _, L = care_solve(pm.A[pm.fm_r, pm.fm_r], -pm.C(0.3)[:, pm.fm_r],
                          np.eye(2), np.eye(1))
        init = initial_params(cl)
        params = StructuredControllerParams(init.krb, L, [2.0], [w], cl.Q)
        return (cl.observer(params), params.kfm_sections(),
                cl._realize(params)[1]["Sigma"])

    def test_pointwise_closed_form(self):
        obs, kfm, sigma = self.build()
        n_u = obs.n_inputs - 1        # the last input is the measured error
        f = np.logspace(-1, 2.5, 40)
        resp = freq_response(sigma, f).values
        o = freq_response(obs, f).values
        k = diagonal_response(kfm, 2j * np.pi * f)
        for i, _ in enumerate(f):
            O_u, O_e = o[i, :, :n_u], o[i, :, n_u:]
            K = np.diag(k[:, i])
            want = la.solve(np.eye(1) - K @ O_u, K @ O_e)
            np.testing.assert_allclose(resp[i], want, rtol=1e-8, atol=1e-12)

    def test_zero_at_dc(self):
        _, _, sigma = self.build()
        np.testing.assert_allclose(sigma.transfer_at(0.0), 0.0, atol=1e-10)

    def test_state_count(self):
        obs, kfm, sigma = self.build()
        assert sigma.n_states == obs.n_states + diagonal_ss(kfm).n_states
