import numpy as np
import pytest
import scipy.linalg as la

from modalsyn.benchplant import (
    MMPA_SADDLE_HZ,
    MMPA_TORSION_HZ,
    by_name,
    make_mmpa_lite,
    make_two_mass,
    mmpa_lite_spec,
    two_mass_spec,
)
from modalsyn.mechanics import modal_decompose
from modalsyn.statespace import freq_response
from reference import physical_ss


class TestTwoMass:
    def test_eigenfrequencies(self):
        dec = modal_decompose(make_two_mass())
        f = dec.omega / (2 * np.pi)
        assert f[0] == pytest.approx(0.0, abs=1e-9)
        assert f[1] == pytest.approx(50.0, rel=1e-9)

    def test_flexible_mode_invisible_at_center(self):
        model = make_two_mass()
        dec = modal_decompose(model)
        coupling = model.phi_s(0.5) @ dec.Vtilde[:, 1]
        assert abs(coupling[0]) < 1e-12

    def test_endpoint_sensing(self):
        np.testing.assert_allclose(make_two_mass().phi_s(0.0), [[1.0, 0.0]])
        np.testing.assert_allclose(make_two_mass().phi_s(1.0), [[0.0, 1.0]])

    def test_damping_ratio(self):
        dec = modal_decompose(make_two_mass())
        assert dec.zeta[1] == pytest.approx(0.01, rel=1e-9)
        assert dec.zeta[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_output_variant(self):
        model = make_two_mass(two_outputs=True)
        np.testing.assert_allclose(model.phi_s(0.3), [[0.7, 0.3], [0.3, 0.7]])

    def test_spec_grid(self):
        spec = two_mass_spec()
        assert spec.grid.shape == (11, 1)
        dec = modal_decompose(spec.model)
        assert dec.n_rb == 1 and dec.n_modes == 2


class TestMmpaLite:
    def test_three_rigid_modes(self):
        model = make_mmpa_lite()
        null_dim = 5 - np.linalg.matrix_rank(model.K,
                                             tol=1e-9 * np.linalg.norm(model.K))
        assert null_dim == 3

    def test_flexible_eigenfrequencies(self):
        dec = modal_decompose(make_mmpa_lite())
        f = np.sort(dec.omega / (2 * np.pi))
        assert f[3] == pytest.approx(MMPA_TORSION_HZ, rel=1e-6)
        assert f[4] == pytest.approx(MMPA_SADDLE_HZ, rel=1e-6)
        assert dec.n_rb == 3

    def test_torsion_invisible_at_plate_center(self):
        model = make_mmpa_lite()
        dec = modal_decompose(model)
        idx = np.argmin(np.abs(dec.omega - 2 * np.pi * MMPA_TORSION_HZ))
        coupling = model.phi_s([0.5, 0.5]) @ dec.Vtilde[:, idx]
        np.testing.assert_allclose(coupling, 0.0, atol=1e-12)

    def test_proportional_damping(self):
        dec = modal_decompose(make_mmpa_lite())  # raises if non-proportional
        flex = dec.omega > 1.0
        np.testing.assert_allclose(dec.zeta[flex], 0.005, rtol=1e-9)

    def test_spec_grid(self):
        spec = mmpa_lite_spec()
        assert spec.grid.shape == (25, 2)


class TestPositionDependence:
    def test_flexible_channel_variation_exceeds_20_percent(self):
        # deviation from the nominal local model across the grid must be a
        # substantial fraction of the flexible resonance peak
        spec = two_mass_spec()
        f = np.linspace(45.0, 55.0, 101)
        nom = freq_response(physical_ss(spec.model, spec.p_star), f).values
        peak = max(la.svdvals(nom[k]).max() for k in range(len(f)))
        dev = 0.0
        for p in spec.grid:
            loc = freq_response(physical_ss(spec.model, p), f).values
            dev = max(dev, max(la.svdvals(loc[k] - nom[k]).max()
                               for k in range(len(f))))
        assert dev > 0.2 * peak


def test_by_name():
    assert by_name("two_mass").name == "two_mass"
    assert by_name("two_mass_square").name == "two_mass_square"
    assert by_name("mmpa_lite").name == "mmpa_lite"
    with pytest.raises(KeyError):
        by_name("nope")
