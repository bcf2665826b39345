import numpy as np
import pytest

from modalsyn.benchplant import make_two_mass
from modalsyn.mechanics import (
    MechanicalModel,
    ModelError,
    NumericError,
    PositionMap,
    evaluate_local,
    group_and_partition,
    modal_decompose,
    mode_grouping_transform,
    physical_ss,
    to_modal_ss,
)
from modalsyn.statespace import freq_response


def random_spd_psd(rng, n, n_rb=0):
    """Random SPD mass and PSD stiffness with n_rb exact zero modes."""
    Qm = rng.standard_normal((n, n))
    M = Qm @ Qm.T + n * np.eye(n)
    Qk = rng.standard_normal((n, n - n_rb))
    K = Qk @ Qk.T
    return M, 0.5 * (K + K.T)


def simple_model(M, D, K, n_u=None):
    n = np.atleast_2d(M).shape[0]
    dom = np.array([[0.0, 1.0]])
    return MechanicalModel(M, D, K,
                           PositionMap.constant(np.eye(n), dom),
                           PositionMap.constant(np.eye(n), dom))


class TestPositionMap:
    def test_constant_evaluation(self):
        pm = PositionMap.constant([[1.0, 2.0]], [[0, 1]])
        np.testing.assert_array_equal(pm(0.3), [[1.0, 2.0]])
        assert pm.is_constant

    def test_linear_endpoints(self):
        dom = np.array([[0.0, 1.0]])
        pm = PositionMap((1, 2), {(0,): np.array([[1.0, 0.0]]),
                                  (1,): np.array([[-1.0, 1.0]])}, dom)
        np.testing.assert_allclose(pm(0.0), [[1.0, 0.0]])
        np.testing.assert_allclose(pm(1.0), [[0.0, 1.0]])
        assert max(sum(e) for e in pm.coeffs) == 1

    def test_outside_domain(self):
        pm = PositionMap.constant([[1.0]], [[0, 1]])
        with pytest.raises(ModelError):
            pm(1.5)

    def test_dict_roundtrip(self):
        dom = np.array([[0.0, 1.0], [0.0, 2.0]])
        pm = PositionMap((2, 2), {(0, 0): np.eye(2),
                                  (1, 1): np.array([[0.0, 3.0], [0.0, 0.0]])}, dom)
        pm2 = PositionMap.from_dict(pm.to_dict())
        p = [0.4, 1.2]
        np.testing.assert_allclose(pm2(p), pm(p))

    def test_matmul(self):
        pm = PositionMap((2, 2), {(0,): np.eye(2), (1,): np.ones((2, 2))},
                         [[0, 1]])
        M = np.array([[1.0, -1.0]])
        np.testing.assert_allclose(pm.matmul_left(M)(0.5), M @ pm(0.5))
        np.testing.assert_allclose(pm.matmul_right(M.T)(0.5), pm(0.5) @ M.T)


class TestModalDecompose:
    def test_identity_case(self):
        dec = modal_decompose(simple_model(np.eye(2), np.zeros((2, 2)), np.eye(2)))
        np.testing.assert_allclose(dec.omega, [1.0, 1.0])
        np.testing.assert_allclose(dec.Vtilde.T @ dec.Vtilde, np.eye(2), atol=1e-12)

    def test_two_mass_toy(self):
        K = np.array([[1.0, -1.0], [-1.0, 1.0]])
        dec = modal_decompose(simple_model(np.eye(2), np.zeros((2, 2)), K))
        np.testing.assert_allclose(dec.omega, [0.0, np.sqrt(2)], atol=1e-12)
        np.testing.assert_allclose(dec.Vtilde[:, 0], [1, 1] / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(dec.Vtilde[:, 1], [1, -1] / np.sqrt(2), atol=1e-12)
        assert dec.n_rb == 1

    def test_scalar_damped(self):
        dec = modal_decompose(simple_model([[2.0]], [[0.8]], [[8.0]]))
        np.testing.assert_allclose(dec.omega, [2.0])
        np.testing.assert_allclose(dec.Vtilde, [[1 / np.sqrt(2)]])
        # 2 q'' + 0.8 q' + 8 q = 0  =>  zeta = 0.4 / (2*2) = 0.1
        np.testing.assert_allclose(dec.zeta, [0.1])

    def test_mass_stiffness_orthogonality_random(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(2, 11))
            M, K = random_spd_psd(rng, n, n_rb=int(rng.integers(0, 2)))
            dec = modal_decompose(simple_model(M, np.zeros((n, n)), K))
            assert np.allclose(dec.Vtilde.T @ M @ dec.Vtilde, np.eye(n), atol=1e-10)
            assert np.allclose(dec.Vtilde.T @ K @ dec.Vtilde, dec.Omega ** 2, atol=1e-8)
            assert np.all(np.diff(dec.omega) >= -1e-12)

    def test_rigid_count_matches_nullspace(self):
        rng = np.random.default_rng(11)
        for n_rb in (0, 1, 2):
            M, K = random_spd_psd(rng, 6, n_rb=n_rb)
            dec = modal_decompose(simple_model(M, np.zeros((6, 6)), K))
            null_dim = 6 - np.linalg.matrix_rank(K, tol=1e-9 * np.linalg.norm(K))
            assert dec.n_rb == null_dim

    def test_nonproportional_damping_rejected(self):
        D = np.array([[1.0, 0.0], [0.0, 0.0]])
        K = np.array([[2.0, -1.0], [-1.0, 2.0]])
        with pytest.raises(NumericError):
            modal_decompose(simple_model(np.eye(2), D, K))


class TestModalSS:
    def test_single_mode_direct(self):
        w, z = 2.0, 0.05
        model = simple_model([[1.0]], [[2 * z * w]], [[w ** 2]])
        dec = modal_decompose(model)
        g = to_modal_ss(dec, model, 0.5)
        np.testing.assert_allclose(g.A, [[0, 1], [-4.0, -0.2]], atol=1e-12)

    def test_constant_map_position_independent(self):
        model = make_two_mass()
        dec = modal_decompose(model)
        g0 = to_modal_ss(dec, model, 0.2)
        g1 = to_modal_ss(dec, model, 0.8)
        np.testing.assert_array_equal(g0.B, g1.B)  # Phi_a constant

    def test_matches_second_order_oracle(self):
        model = make_two_mass()
        dec = modal_decompose(model)
        p = 0.3
        f = np.logspace(0, 2.5, 40)
        got = freq_response(to_modal_ss(dec, model, p), f).values
        want = freq_response(physical_ss(model, p), f).values
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_outside_domain(self):
        model = make_two_mass()
        dec = modal_decompose(model)
        with pytest.raises(ModelError):
            to_modal_ss(dec, model, 2.0)


class TestGroupAndPartition:
    def test_transform_is_permutation(self):
        for n in (1, 3, 5):
            T = mode_grouping_transform(n)
            np.testing.assert_array_equal(T @ T.T, np.eye(2 * n))
            assert np.all(np.sum(T == 1.0, axis=0) == 1)
            assert np.all(np.sum(T == 1.0, axis=1) == 1)

    def test_two_mass_toy_blocks(self):
        K = np.array([[1.0, -1.0], [-1.0, 1.0]])
        zeta = 0.05
        w = np.sqrt(2)
        D = (2 * zeta / w) * K
        model = simple_model(np.eye(2), D, K)
        dec = modal_decompose(model)
        pm = group_and_partition(dec, model, retain={1})
        np.testing.assert_allclose(pm.A[pm.rb, pm.rb], [[0, 1], [0, 0]],
                                   atol=1e-12)
        np.testing.assert_allclose(pm.A[pm.fm_r, pm.fm_r],
                                   [[0, 1], [-2.0, -2 * zeta * w]], atol=1e-12)
        assert pm.A[pm.fm_d, pm.fm_d].shape == (0, 0)
        np.testing.assert_array_equal(pm.A[pm.rb, pm.fm_r], np.zeros((2, 2)))

    def test_retain_all_flexible(self):
        model = make_two_mass()
        dec = modal_decompose(model)
        pm = group_and_partition(dec, model, retain={1})
        assert pm.discarded == () and pm.A.shape == (4, 4)

    def test_retain_rigid_rejected(self):
        model = make_two_mass()
        dec = modal_decompose(model)
        with pytest.raises(ModelError):
            group_and_partition(dec, model, retain={0})

    def test_partition_preserves_transfer(self):
        model = make_two_mass()
        dec = modal_decompose(model)
        pm = group_and_partition(dec, model, retain={1})
        f = np.logspace(0, 2.5, 30)
        for p in (0.0, 0.3, 0.7):
            got = freq_response(evaluate_local(pm, p), f).values
            want = freq_response(to_modal_ss(dec, model, p), f).values
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


class TestEvaluateLocal:
    def test_grid_matches_direct_construction(self):
        model = make_two_mass()
        dec = modal_decompose(model)
        pm = group_and_partition(dec, model, retain={1})
        for p in np.linspace(0, 1, 11):
            g = evaluate_local(pm, p)
            # modes in their natural order, each a (position, velocity) pair
            direct_C, direct_B = np.zeros((1, 4)), np.zeros((4, 2))
            direct_C[:, ::2] = model.phi_s(p) @ dec.Vtilde
            direct_B[1::2] = dec.Vtilde.T @ model.phi_a(p)
            np.testing.assert_allclose(g.C, direct_C, atol=1e-12)
            np.testing.assert_allclose(g.B, direct_B, atol=1e-12)

    def test_sensing_endpoint(self):
        model = make_two_mass()
        np.testing.assert_allclose(model.phi_s(0.0), [[1.0, 0.0]])

    def test_mechanical_model_local(self):
        model = make_two_mass()
        g = physical_ss(model, 0.5)
        assert g.n_states == 4 and g.n_inputs == 2 and g.n_outputs == 1


class TestModelValidation:
    def test_nonspd_mass_rejected(self):
        with pytest.raises(ModelError):
            simple_model(-np.eye(2), np.zeros((2, 2)), np.eye(2))

    def test_asymmetric_stiffness_rejected(self):
        with pytest.raises(ModelError):
            simple_model(np.eye(2), np.zeros((2, 2)),
                         np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_json_roundtrip(self):
        model = make_two_mass()
        model2 = MechanicalModel.from_dict(model.to_dict())
        np.testing.assert_allclose(model2.K, model.K)
        np.testing.assert_allclose(model2.phi_s(0.3), model.phi_s(0.3))
