import numpy as np
import pytest

from modalsyn.benchplant import make_two_mass
from modalsyn.decoupling import (
    apply_decoupling,
    apply_decoupling_partitioned,
    extended_input_decoupling,
)
from modalsyn.mechanics import evaluate_local, group_and_partition, modal_decompose
from modalsyn.shaping import (
    ScalingSet,
    compute_scalings,
    design_weights,
    make_damping_filter,
    make_integral_filter,
    make_rolloff_filter,
    regularize_integral_filter,
)
from modalsyn.statespace import (
    ModelError,
    diagonal_response,
    diagonal_ss,
    freq_response,
    hinf_norm,
)
from modalsyn.synthesis import ClosedLoopMap, StructuredControllerParams


def mag(filt, f_hz):
    s = 2j * np.pi * np.atleast_1d(f_hz)
    return np.abs(diagonal_response(filt.channels, s))


def decoupled_plant(p=0.3):
    model = make_two_mass()
    dec = modal_decompose(model)
    pm = group_and_partition(dec, model, dec.n_rb, [1])
    pair = extended_input_decoupling(pm, p, 1)
    return apply_decoupling(evaluate_local(pm, p), pair)


def weight_layout(kind, f_bw=10.0, p=0.3):
    """The role of each weight block that a ``kind`` map places on M, found
    by matching each block's transfer against the roles' realizations."""
    model = make_two_mass()
    dec = modal_decompose(model)
    pm = group_and_partition(dec, model, dec.n_rb, [1])
    dpm = apply_decoupling_partitioned(pm, extended_input_decoupling(pm, p, 1))
    sc = compute_scalings(evaluate_local(dpm, p), [f_bw], [1e-4], n_flex=1)
    f_flex = float(dpm.omega[1]) / (2 * np.pi)
    cl = ClosedLoopMap(kind, dpm, p, sc, design_weights([f_bw], [f_flex]),
                       [1], Q=10.0, f_bw=[f_bw])
    points = 2j * np.pi * np.array([0.7, 7.0, f_flex, 300.0])
    layout = {}
    for name, block, _, _ in cl._map.blocks:
        if not name.startswith("W_"):
            continue
        roles = [role for role, filt in cl.weights.items()
                 if len(filt.channels) == block.n_inputs
                 and all(np.allclose(block.transfer_at(s),
                                     filt.to_ss().transfer_at(s))
                         for s in points)]
        assert len(roles) == 1, (name, roles)
        layout[name] = roles[0]
    return layout


class TestIntegralFilter:
    def test_high_frequency_gain(self):
        w = make_integral_filter([10.0], K_s=0.5)
        np.testing.assert_allclose(mag(w, 1e5)[0, 0], 0.5, rtol=1e-3)

    def test_corner_at_quarter_bandwidth(self):
        w = make_integral_filter([10.0], K_s=0.5)
        # |K_s (j w + w_I)/(j w)| = K_s sqrt(2) at w = w_I = 2 pi 2.5
        np.testing.assert_allclose(mag(w, 2.5)[0, 0], 0.5 * np.sqrt(2),
                                   rtol=1e-12)

    def test_low_frequency_slope(self):
        w = make_integral_filter([10.0])
        m = mag(w, [1e-4, 1e-3])[0]
        np.testing.assert_allclose(m[0] / m[1], 10.0, rtol=1e-3)

    def test_per_channel_bandwidths(self):
        w = make_integral_filter([10.0, 40.0])
        assert len(w.channels) == 2
        np.testing.assert_allclose(mag(w, 10.0)[1, 0],
                                   mag(make_integral_filter([40.0]), 10.0)[0, 0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ModelError):
            make_integral_filter([0.0])


class TestRegularization:
    def test_norm_exists_after_shift(self):
        w = make_integral_filter([10.0])
        reg = regularize_integral_filter(w)
        g = reg.to_ss()
        assert np.all(np.linalg.eigvals(g.A).real < 0)
        assert np.isfinite(hinf_norm(g))

    def test_response_unchanged_above_corner(self):
        w = make_integral_filter([10.0])
        reg = regularize_integral_filter(w)
        f = np.logspace(-1, 3, 30)
        np.testing.assert_allclose(mag(reg, f), mag(w, f), rtol=2e-3)

    def test_pole_location(self):
        reg = regularize_integral_filter(make_integral_filter([10.0]))
        pole = reg.to_ss().poles()
        np.testing.assert_allclose(pole, [-2 * np.pi * 2.5 / 1000], rtol=1e-10)

    def test_static_sections_untouched(self):
        from modalsyn.statespace import RationalDiagonalFilter
        ident = RationalDiagonalFilter.identity(2)
        reg = regularize_integral_filter(ident)
        np.testing.assert_allclose(mag(reg, [1.0, 10.0]), 1.0)


class TestRolloffFilter:
    def test_dc_and_asymptote(self):
        w = make_rolloff_filter([10.0], K_r=0.5, alpha=20.0)
        np.testing.assert_allclose(mag(w, 1e-6)[0, 0], 0.5, rtol=1e-6)
        np.testing.assert_allclose(mag(w, 1e6)[0, 0], 0.5 * 20, rtol=1e-3)

    def test_corner_frequency_is_four_bandwidths(self):
        w = make_rolloff_filter([10.0])
        # numerator corner at 40 Hz: phase of the zero is 45 degrees there
        v = diagonal_response(w.channels, 2j * np.pi * np.array([40.0]))[0, 0]
        num_phase = np.angle(v * (1 / 20 * 2j * np.pi * 40 + 2 * np.pi * 40))
        np.testing.assert_allclose(num_phase, np.pi / 4, atol=1e-6)

    def test_monotone_increasing(self):
        w = make_rolloff_filter([5.0])
        m = mag(w, np.logspace(-1, 4, 50))[0]
        assert np.all(np.diff(m) > -1e-12)

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ModelError):
            make_rolloff_filter([10.0], alpha=1.0)


class TestDampingFilter:
    def test_exact_peak_value(self):
        w = make_damping_filter([50.0], beta1=0.5, beta2=0.005, eps=1.0)
        # at the center frequency the ratio collapses to eps*beta1/beta2
        np.testing.assert_allclose(mag(w, 50.0)[0, 0], 100.0, rtol=1e-12)

    def test_unit_gain_far_from_peak(self):
        w = make_damping_filter([50.0], eps=0.3)
        np.testing.assert_allclose(mag(w, 1e-3)[0, 0], 0.3, rtol=1e-6)
        np.testing.assert_allclose(mag(w, 1e5)[0, 0], 0.3, rtol=1e-3)

    def test_stable_realization(self):
        g = make_damping_filter([50.0, 120.0]).to_ss()
        assert np.all(np.linalg.eigvals(g.A).real < 0)

    def test_notch_orientation_enforced(self):
        with pytest.raises(ModelError):
            make_damping_filter([50.0], beta1=0.005, beta2=0.5)


def kfm(xi, omega, Q):
    """K_FM realized from the band-pass sections of a structured controller
    with the flexible-mode data ``xi``, ``omega`` (rad/s) and ``Q``."""
    params = StructuredControllerParams(np.ones((1, 6)), np.zeros((1, 1)),
                                        xi, omega, Q)
    return diagonal_ss(params.kfm_sections())


def kfm_mag(k, f_hz):
    return np.abs(freq_response(k, np.atleast_1d(f_hz)).values[:, 0, 0])


class TestFlexController:
    def test_zero_dc_and_feedthrough(self):
        g = kfm([2.0], [2 * np.pi * 50], 10.0)
        np.testing.assert_allclose(g.D, 0.0)
        np.testing.assert_allclose(np.abs(g.transfer_at(0.0)), 0.0, atol=1e-12)

    def test_peak_gain_is_xi(self):
        xi, w0 = -3.5, 2 * np.pi * 80
        k = kfm([xi], [w0], 8.0)
        np.testing.assert_allclose(kfm_mag(k, 80.0), abs(xi), rtol=1e-12)

    def test_half_power_bandwidth(self):
        w0, Q = 2 * np.pi * 50, 10.0
        k = kfm([1.0], [w0], Q)
        f = np.linspace(30, 80, 20001)
        band = f[kfm_mag(k, f) >= 1 / np.sqrt(2)]
        measured = 2 * np.pi * (band[-1] - band[0])
        assert measured == pytest.approx(w0 / Q, rel=0.05)

    def test_negative_gain_allowed(self):
        k = kfm([-1.0], [100.0], 5.0)
        assert k.transfer_at(100j)[0, 0].real < 0

    def test_validation(self):
        for xi, omega, Q in (([1.0, 2.0], [100.0], 5.0), ([1.0], [100.0], 0.0),
                             ([1.0], [0.0], 5.0)):
            with pytest.raises(ModelError):
                kfm(xi, omega, Q)


class TestScalings:
    def test_output_scaling_is_reciprocal_error(self):
        sc = ScalingSet([2.0], [3.0], [1.0])
        np.testing.assert_allclose(np.diag(sc.wz), [[2.0]])
        with pytest.raises(ModelError):
            ScalingSet([0.0], [1.0], [1.0])

    def test_scaled_plant_crosses_unity_at_bandwidth(self):
        g = decoupled_plant()
        f_bw = 10.0
        sc = compute_scalings(g, [f_bw], [1e-4], n_flex=1)
        np.testing.assert_allclose(sc.wz, [1e4])
        G = g.transfer_at(2j * np.pi * f_bw)[:1, :1]
        val = np.diag(sc.wz)[:1, :1] @ G @ np.diag(sc.ww1)
        np.testing.assert_allclose(np.abs(val[0, 0]), 1.0, rtol=1e-10)

    def test_flexible_scaling_identity(self):
        g = decoupled_plant()
        sc = compute_scalings(g, [10.0], [1e-4], n_flex=1)
        np.testing.assert_allclose(sc.ww2, [1.0])


class TestWeightSets:
    def test_6block_layout(self):
        assert weight_layout("6block") == {
            "W_z1": "integral", "W_z2": "rolloff", "W_w1": "identity",
            "W_w2": "identity", "W_w3": "damping"}
        ws = design_weights([10.0], [50.0])
        assert len(ws["integral"].channels) == 1
        assert len(ws["damping"].channels) == 1
        np.testing.assert_allclose(mag(ws["identity"], 7.0), 1.0)

    def test_4block_layout(self):
        # no third disturbance block; the damping weight sits on the
        # flexible disturbance channel
        assert weight_layout("4block") == {
            "W_z1": "integral", "W_z2": "identity", "W_w1": "rolloff",
            "W_w2": "damping"}
        ws = design_weights([10.0, 20.0], [50.0])
        assert len(ws["rolloff"].channels) == 2
        np.testing.assert_allclose(mag(ws["identity"], 3.0), 1.0)
        np.testing.assert_allclose(mag(ws["damping"], 50.0)[0, 0], 100.0,
                                   rtol=1e-10)

    def test_design_weights_by_role(self):
        ws = design_weights([10.0, 20.0], [50.0])
        assert sorted(ws) == ["damping", "identity", "integral", "rolloff"]
        for role in ("integral", "rolloff", "identity"):
            assert len(ws[role].channels) == 2
        assert len(ws["damping"].channels) == 1
        np.testing.assert_allclose(mag(ws["identity"], [3.0, 7.0]), 1.0)
        # the damping weight peaks at the flexible mode
        np.testing.assert_allclose(mag(ws["damping"], 50.0)[0, 0], 100.0,
                                   rtol=1e-10)

    def test_defaults_follow_bandwidth(self):
        ws = design_weights([8.0], [60.0])
        np.testing.assert_allclose(mag(ws["integral"], 2.0)[0, 0],
                                   0.5 * np.sqrt(2), rtol=1e-12)
        np.testing.assert_allclose(mag(ws["rolloff"], 1e6)[0, 0], 10.0,
                                   rtol=1e-3)
