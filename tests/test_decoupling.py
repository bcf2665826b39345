import numpy as np
import pytest

from modalsyn.benchplant import make_two_mass, mmpa_lite_spec
from modalsyn.decoupling import (
    DecouplingPair,
    apply_decoupling,
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
from modalsyn.statespace import ModelError, NumericError, freq_response


def partitioned(model, retain=None):
    dec = modal_decompose(model)
    if retain is None:
        retain = range(dec.n_rb, dec.n_modes)
    return group_and_partition(dec, model, retain)


def rb_only_model(phi_a, n_rb):
    """n_rb free masses (zero stiffness), arbitrary actuator map."""
    n = n_rb
    dom = np.array([[0.0, 1.0]])
    return MechanicalModel(np.eye(n), np.zeros((n, n)), np.zeros((n, n)),
                           PositionMap.constant(phi_a, dom),
                           PositionMap.constant(np.eye(n), dom))


class TestRbDecoupling:
    def test_already_decoupled(self):
        pm = partitioned(rb_only_model(np.eye(1), 1))
        pair = extended_input_decoupling(pm, 0.0, 0)
        np.testing.assert_allclose(pair.T_u, np.eye(1), atol=1e-12)

    def test_two_identical_actuators(self):
        pm = partitioned(rb_only_model(np.array([[1.0, 1.0]]), 1))
        pair = extended_input_decoupling(pm, 0.0, 0)
        np.testing.assert_allclose(pair.T_u, [[0.5], [0.5]], atol=1e-12)

    def test_underactuated_rank_error(self):
        # two actuators that push both masses alike span one direction
        pm = partitioned(rb_only_model(np.ones((2, 2)), 2))
        with pytest.raises(NumericError, match="rank 1 < required 2"):
            extended_input_decoupling(pm, 0.0, 0)
        # one actuator for two modes is refused before any pseudo-inverse
        pm = partitioned(rb_only_model(np.array([[1.0], [1.0]]), 2))
        with pytest.raises(ModelError, match="1 actuators cannot decouple"):
            extended_input_decoupling(pm, 0.0, 0)

    def test_consistency_two_mass(self):
        pm = partitioned(make_two_mass())
        pair = extended_input_decoupling(pm, 0.3, 0)
        Bv = pm.B(0.3)[pm.rb][1::2]
        np.testing.assert_allclose(Bv @ pair.T_u, np.eye(1), atol=1e-10)

    def test_consistency_mmpa(self):
        spec = mmpa_lite_spec()
        pm = partitioned(spec.model)
        pair = extended_input_decoupling(pm, spec.p_star, 0)
        Bv = pm.B(spec.p_star)[pm.rb][1::2]
        Cp = pm.C(spec.p_star)[:, pm.rb][:, [0, 2, 4]]
        np.testing.assert_allclose(Bv @ pair.T_u, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(pair.T_y @ Cp, np.eye(3), atol=1e-10)


class TestExtendedDecoupling:
    def test_nflex_zero_reduces_to_rb(self):
        """With no flexible mode T_u and T_y are the pseudo-inverses of the
        rigid-body velocity input rows and position output columns."""
        spec = mmpa_lite_spec()
        pm = partitioned(spec.model)
        p = spec.p_star
        pair = extended_input_decoupling(pm, p, 0)
        Bv = pm.B(p)[pm.rb][1::2]
        Cp = pm.C(p)[:, pm.rb][:, ::2]
        assert pair.T_u.shape == (4, 3) and pair.n_flex == 0
        np.testing.assert_allclose(pair.T_u, np.linalg.pinv(Bv), atol=1e-12)
        np.testing.assert_allclose(pair.T_y, np.linalg.pinv(Cp), atol=1e-12)

    def test_two_mass_exact_inverse(self):
        pm = partitioned(make_two_mass())
        pair = extended_input_decoupling(pm, 0.3, 1)
        stacked = np.vstack([pm.B(0.3)[pm.rb][[1]], pm.B(0.3)[pm.fm_r][[1]]])
        np.testing.assert_allclose(stacked @ pair.T_u, np.eye(2), atol=1e-12)
        # square case: pseudo-inverse equals the plain inverse
        np.testing.assert_allclose(pair.T_u, np.linalg.inv(stacked), atol=1e-12)

    def test_too_many_modes_requested(self):
        pm = partitioned(make_two_mass())
        with pytest.raises(ModelError):
            extended_input_decoupling(pm, 0.3, 2)

    def test_mmpa_extended(self):
        spec = mmpa_lite_spec()
        pm = partitioned(spec.model)
        pair = extended_input_decoupling(pm, spec.p_star, 1)
        stacked = np.vstack([pm.B(spec.p_star)[pm.rb][1::2],
                             pm.B(spec.p_star)[pm.fm_r][[1]]])
        np.testing.assert_allclose(stacked @ pair.T_u, np.eye(4), atol=1e-10)


class TestApplyDecoupling:
    def test_identity_pair(self):
        pm = partitioned(make_two_mass())
        g = evaluate_local(pm, 0.3)
        pair = DecouplingPair(np.eye(2), np.eye(1), None, 1, 1)
        g2 = apply_decoupling(g, pair)
        np.testing.assert_array_equal(g2.B, g.B)
        np.testing.assert_array_equal(g2.C, g.C)

    def test_rb_channel_double_integrator_slope(self):
        pm = partitioned(make_two_mass())
        pair = extended_input_decoupling(pm, 0.3, 1)
        g = apply_decoupling(evaluate_local(pm, 0.3), pair)
        # RB channel: input 0 -> output 0, -40 dB/dec well below the 50 Hz mode
        f = np.array([0.5, 5.0])
        mags = np.abs(freq_response(g, f).values[:, 0, 0])
        slope = np.log10(mags[1] / mags[0])  # per decade
        assert slope == pytest.approx(-2.0, abs=0.01)

    def test_flexible_mode_not_excited_by_rb_input(self):
        pm = partitioned(make_two_mass())
        pair = extended_input_decoupling(pm, 0.3, 1)
        dpm = apply_decoupling_partitioned(pm, pair)
        B_flex = dpm.B(0.3)[dpm.fm_r]
        # RB input column of the retained flexible mode rows vanishes at p*
        assert np.max(np.abs(B_flex[:, 0])) <= 1e-10
        # and the flexible input column is the unit selection on the velocity row
        np.testing.assert_allclose(B_flex[:, 1], [0.0, 1.0], atol=1e-10)

    def test_decoupled_transfer_oracle(self):
        pm = partitioned(make_two_mass())
        pair = extended_input_decoupling(pm, 0.3, 1)
        g = evaluate_local(pm, 0.3)
        gd = apply_decoupling(g, pair)
        f = np.logspace(0, 2.5, 25)
        want = np.einsum("ij,kjl,lm->kim", pair.T_y,
                         freq_response(g, f).values, pair.T_u)
        np.testing.assert_allclose(freq_response(gd, f).values, want,
                                   rtol=1e-10, atol=1e-12)


class TestPositionDependentDecoupling:
    def make_varying_model(self):
        # actuator effectiveness drifts with p so decoupling is exact only at p*
        w = 2 * np.pi * 30.0
        K = 0.5 * w ** 2 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        D = (2 * 0.02 / w) * K
        dom = np.array([[0.0, 1.0]])
        phi_a = PositionMap((2, 2), {(0,): np.eye(2),
                                     (1,): np.array([[0.0, 0.3], [0.0, 0.0]])}, dom)
        phi_s = PositionMap.constant(np.array([[1.0, 0.0]]), dom)
        return MechanicalModel(np.eye(2), D, K, phi_a, phi_s)

    def test_unit_selection_only_at_design_point(self):
        pm = partitioned(self.make_varying_model())
        p_star = 0.4
        pair = extended_input_decoupling(pm, p_star, 1)
        dpm = apply_decoupling_partitioned(pm, pair)
        np.testing.assert_allclose(dpm.B(p_star)[dpm.fm_r][1], [0.0, 1.0], atol=1e-10)
        dev_near = np.abs(dpm.B(0.5)[dpm.fm_r][1] - [0.0, 1.0]).max()
        dev_far = np.abs(dpm.B(1.0)[dpm.fm_r][1] - [0.0, 1.0]).max()
        assert 0 < dev_near < dev_far

    def test_pair_records_design_point(self):
        pm = partitioned(self.make_varying_model())
        pair = extended_input_decoupling(pm, 0.4, 1)
        np.testing.assert_allclose(pair.p_design, [0.4])
        const_pair = extended_input_decoupling(partitioned(make_two_mass()), 0.3, 1)
        assert const_pair.p_design is None


def test_json_roundtrip(tmp_path):
    pm = None
    dec_pm = partitioned(make_two_mass())
    pair = extended_input_decoupling(dec_pm, 0.3, 1)
    path = tmp_path / "pair.json"
    pair.to_json(path)
    import json
    pair2 = DecouplingPair.from_dict(json.loads(path.read_text()))
    np.testing.assert_allclose(pair2.T_u, pair.T_u)
    np.testing.assert_allclose(pair2.T_y, pair.T_y)
