import math

import numpy as np
import pytest
import scipy.linalg as la
from scipy.linalg import lapack
from hypothesis import given, settings, strategies as st

from modalsyn.statespace import (
    Interconnection,
    FrequencyResponse,
    ModelError,
    NumericError,
    RationalDiagonalFilter,
    StateSpaceModel,
    care_solve,
    diagonal_response,
    discretize_zoh,
    freq_response,
    hinf_lower_bound,
    hinf_norm,
    is_hurwitz,
    simulate,
    spectral_abscissa,
)
from modalsyn import statespace
from modalsyn.statespace import _CHUNK_ENTRIES, _CHUNK_ROWS
from reference import blockdiag, hinf_norm_grid, series
from test_cli import is_exact_tie


def random_stable(rng, n, m=1, p=1):
    Q = rng.standard_normal((n, n))
    rho = np.max(la.eigvals(Q).real)
    A = Q - (rho + 1.0) * np.eye(n)
    return StateSpaceModel(A, rng.standard_normal((n, m)),
                           rng.standard_normal((p, n)),
                           np.zeros((p, m)))


def first_order():
    # G(s) = 1/(s+1)
    return StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


def siso_loop(g, h, sign=-1):
    """r -> y of y = G (r + sign H y), declared by signal name."""
    return Interconnection([("G", g, [("u", 1)], [("y", 1)]),
                            ("H", h, [("u", 1)], [("y", 1)])],
                           [("G.u", "r", 1), ("G.u", "H.y", sign),
                            ("H.u", "G.y", 1), ("y", "G.y", 1)],
                           inputs=[("r", 1)], outputs=[("y", 1)]).close()


class TestConstruction:
    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            StateSpaceModel(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ModelError):
            StateSpaceModel([[np.nan]], [[1.0]], [[1.0]], [[0.0]])

    @pytest.mark.parametrize("bad", "ABCD")
    def test_built_names_the_nonfinite_array(self, bad):
        mats = {name: np.ones((2, 2)) for name in "ABCD"}
        mats[bad][1, 0] = np.inf
        with pytest.raises(ModelError, match=f"non-finite entries in {bad}"):
            StateSpaceModel._built(*mats.values())

    def test_pure_gain(self):
        g = StateSpaceModel([], [], [], [[3.0, 0.0]])
        assert g.n_states == 0 and g.n_inputs == 2 and g.n_outputs == 1


class TestConnect:
    def test_series_identity(self):
        g = random_stable(np.random.default_rng(1), 3, 2, 2)
        gi = series(g, StateSpaceModel([], [], [], np.eye(2)))
        f = np.logspace(-1, 2, 20)
        np.testing.assert_allclose(freq_response(gi, f).values,
                                   freq_response(g, f).values, atol=1e-12)

    def test_unit_feedback_integrator(self):
        integ = StateSpaceModel([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        cl = siso_loop(integ, StateSpaceModel([], [], [], np.eye(1)))  # 1/(s+1)
        f = np.logspace(-2, 2, 30)
        expect = 1.0 / (2j * np.pi * f + 1.0)
        got = freq_response(cl, f).values[:, 0, 0]
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_series_product_oracle(self):
        rng = np.random.default_rng(2)
        g1 = random_stable(rng, 3, 2, 2)
        g2 = random_stable(rng, 3, 2, 2)
        f = np.logspace(-1, 3, 50)
        r1 = freq_response(g1, f).values
        r2 = freq_response(g2, f).values
        rs = freq_response(series(g1, g2), f).values
        prod = np.einsum("kij,kjl->kil", r2, r1)
        err = np.abs(rs - prod) / np.maximum(np.abs(prod), 1e-12)
        assert err.max() < 1e-10

    def test_series_matches_block_formula(self):
        """Bit-equal to the cascade written out with ``np.block``, also when
        either factor is a pure gain."""
        rng = np.random.default_rng(7)
        dyn1, dyn2 = random_stable(rng, 3, 2, 2), random_stable(rng, 2, 2, 1)
        gain1 = StateSpaceModel([], [], [], rng.standard_normal((2, 2)))
        gain2 = StateSpaceModel([], [], [], rng.standard_normal((1, 2)))
        for g1, g2 in ((dyn1, dyn2), (gain1, dyn2), (dyn1, gain2), (gain1, gain2)):
            n1, n2 = g1.n_states, g2.n_states
            expect = (np.block([[g1.A, np.zeros((n1, n2))], [g2.B @ g1.C, g2.A]]),
                      np.vstack([g1.B, g2.B @ g1.D]),
                      np.hstack([g2.D @ g1.C, g2.C]), g2.D @ g1.D)
            g = series(g1, g2)
            for got, want in zip((g.A, g.B, g.C, g.D), expect):
                assert got.shape == want.shape
                np.testing.assert_array_equal(got, want)

    def test_feedback_oracle(self):
        rng = np.random.default_rng(4)
        g = random_stable(rng, 3, 1, 1)
        h = random_stable(rng, 2, 1, 1)
        cl = siso_loop(g, h, sign=-1)
        f = np.logspace(-1, 2, 25)
        gv = freq_response(g, f).values[:, 0, 0]
        hv = freq_response(h, f).values[:, 0, 0]
        want = gv / (1 + gv * hv)
        got = freq_response(cl, f).values[:, 0, 0]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_singular_algebraic_loop(self):
        g = StateSpaceModel([], [], [], [[1.0]])
        with pytest.raises(NumericError):
            siso_loop(g, StateSpaceModel([], [], [], [[1.0]]), sign=+1)

    def test_unknown_signal_is_named(self):
        block = [("G", first_order(), [("u", 1)], [("y", 1)])]
        with pytest.raises(ModelError, match="'G.v'"):
            Interconnection(block, [("G.v", "r", 1)], [("r", 1)], []).close()
        with pytest.raises(ModelError, match="'q'"):
            Interconnection(block, [("G.u", "q", 1)], [("r", 1)], []).close()
        with pytest.raises(ModelError, match="'z'"):
            Interconnection(block, [("z", "G.y", 1)], [("r", 1)], [("y", 1)]).close()
        with pytest.raises(ModelError, match="'r'.*twice"):
            Interconnection(block, [], [("r", 1), ("r", 1)], []).close()

    def test_gain_shape_must_fit_ports(self):
        g = random_stable(np.random.default_rng(5), 2, 2, 2)
        block = [("G", g, [("u", 2)], [("y", 2)])]
        for gain in (1.0, np.ones((2, 2)), np.ones((3, 2))):
            with pytest.raises(ModelError, match="'r'.*'G.u'"):
                Interconnection(block, [("G.u", "r", gain)], [("r", 3)], []).close()

    def test_declared_widths_must_fit_model(self):
        g = random_stable(np.random.default_rng(6), 2, 2, 1)
        with pytest.raises(ModelError, match="'G'"):
            Interconnection([("G", g, [("u", 1)], [("y", 1)])], [], [], []).close()

    def test_matrix_gain_and_summed_sources(self):
        """y = [1 2] r + 3 G(r1): a matrix gain and two sources summed."""
        g = first_order()
        cl = Interconnection([("G", g, [("u", 1)], [("y", 1)])],
                             [("G.u", "r", [[1.0, 0.0]]),
                              ("y", "r", [[1.0, 2.0]]), ("y", "G.y", 3.0)],
                             inputs=[("r", 2)], outputs=[("y", 1)]).close()
        f = np.logspace(-1, 2, 10)
        gv = 1.0 / (2j * np.pi * f + 1.0)
        got = freq_response(cl, f).values[:, 0, :]
        np.testing.assert_allclose(got[:, 0], 1.0 + 3.0 * gv, atol=1e-12)
        np.testing.assert_allclose(got[:, 1], 2.0, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_connect_matches_pointwise_arithmetic(self, seed):
        rng = np.random.default_rng(seed)
        g1 = random_stable(rng, rng.integers(1, 5), 2, 2)
        g2 = random_stable(rng, rng.integers(1, 5), 2, 2)
        f = np.logspace(-1, 2, 15)
        r1 = freq_response(g1, f).values
        r2 = freq_response(g2, f).values
        rs = freq_response(series(g1, g2), f).values
        scale = np.maximum(np.abs(r2 @ r1), 1.0)
        assert np.max(np.abs(rs - np.einsum("kij,kjl->kil", r2, r1)) / scale) < 1e-10


class TestFreqResponse:
    def test_dc_gain(self):
        assert freq_response(first_order(), [0.0]).values[0, 0, 0] == pytest.approx(1.0)

    def test_corner_frequency(self):
        f = 1.0 / (2 * np.pi)  # omega = 1 rad/s
        v = freq_response(first_order(), [f]).values[0, 0, 0]
        assert v == pytest.approx(1 / (1 + 1j), abs=1e-12)
        assert abs(v) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_dense_solve_oracle(self):
        rng = np.random.default_rng(5)
        # the 40-state grid spans four full chunks and a partial fifth
        for n, n_freq, tol in ((4, 10, {"atol": 1e-12}),
                               (40, 4 * (_CHUNK_ENTRIES // 40 ** 2) + 3,
                                {"rtol": 1e-12})):
            g = random_stable(rng, n, 2, 3)
            f = np.logspace(-1, 2, n_freq)
            got = freq_response(g, f).values
            for k, fk in enumerate(f):
                s = 2j * np.pi * fk
                want = g.C @ np.linalg.solve(s * np.eye(n) - g.A, g.B) + g.D
                np.testing.assert_allclose(got[k], want, **tol)

    def test_pole_on_grid_raises(self):
        # undamped oscillator: poles at +-j
        g = StateSpaceModel([[0, 1], [-1, 0]], [[0], [1]], [[1, 0]], [[0]])
        f_pole = 1.0 / (2 * np.pi)
        with pytest.raises(NumericError):
            freq_response(g, [f_pole])
        # the pole in a later chunk than the first
        chunk = _CHUNK_ENTRIES // g.n_states ** 2
        f = np.append(np.linspace(0.01, 0.1, chunk + 5), f_pole)
        with pytest.raises(NumericError):
            freq_response(g, f)

    def test_descending_grid_rejected(self):
        with pytest.raises(ModelError):
            freq_response(first_order(), [2.0, 1.0])

    def test_csv_export(self, tmp_path):
        fr = freq_response(first_order(), np.logspace(-1, 1, 5))
        path = tmp_path / "fr.csv"
        fr.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "freq_hz,out,in,re,im,mag_db,phase_deg"
        assert len(lines) == 6

    def test_csv_matches_scalar_writer(self, tmp_path):
        def scalar_writer(fr, path):
            with open(path, "w") as fh:
                fh.write("freq_hz,out,in,re,im,mag_db,phase_deg\n")
                for k, f in enumerate(fr.freqs_hz):
                    for i in range(fr.values.shape[1]):
                        for j in range(fr.values.shape[2]):
                            v = fr.values[k, i, j]
                            mag = abs(v)
                            mag_db = 20 * np.log10(mag) if mag > 0 else -np.inf
                            fh.write(f"{f:.12g},{i},{j},{v.real:.12g},{v.imag:.12g},"
                                     f"{mag_db:.12g},{np.degrees(np.angle(v)):.12g}\n")

        def both_texts(fr, name):
            fr.to_csv(tmp_path / f"{name}.csv")
            scalar_writer(fr, tmp_path / f"{name}_scalar.csv")
            text = (tmp_path / f"{name}.csv").read_bytes()
            assert text == (tmp_path / f"{name}_scalar.csv").read_bytes()
            return text

        def complex_normal(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        rng = np.random.default_rng(8)
        n_y, n_u = 3, 4
        # more than two blocks of rows, the last one partial
        n_f = 2 * (_CHUNK_ROWS // (n_y * n_u)) + 5
        shape = (n_f, n_y, n_u)
        v = complex_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
        v[0, 0, 0] = 0.0                       # the -inf dB row
        v[1, 1, 2] = complex(-2.5, 0.0)        # phase +180
        v[2, 2, 3] = complex(-2.5, -0.0)       # phase -180
        v[3, 0, 1] = complex(-1.0, 1e-300)     # phase next to +180
        fr = FrequencyResponse(np.logspace(-1, 4, n_f), v)
        assert (fr.values.real < 0).sum() > fr.values.size // 3
        assert b",-inf," in both_texts(fr, "block")
        # no channel or no grid point: the header alone
        for shape in ((3, 0, 2), (3, 2, 0), (0, 2, 2)):
            fr = FrequencyResponse(np.arange(shape[0]) + 1.0, np.zeros(shape))
            assert both_texts(fr, "empty") == b"freq_hz,out,in,re,im,mag_db,phase_deg\n"
        # one grid point with more channels than a block has rows
        assert 40 * 40 > _CHUNK_ROWS
        fr = FrequencyResponse([2.5], complex_normal((1, 40, 40)))
        assert both_texts(fr, "wide").count(b"\n") == 1 + 40 * 40
        # frequencies printed in exponent form, 0 and 1e-4 in fixed notation
        low = [0.0, 1e-300, 3e-9, 5e-5, 9.9999999999995e-05, 1e-4]
        text = both_texts(FrequencyResponse(low, complex_normal((6, 2, 1))), "low")
        assert b"\n3e-09,1,0," in text and b"\n0.0001,0,0," in text


def g12_texts(values):
    """``_format_g12`` of ``values``, one string per value, and the indices
    it hands to Python."""
    v = np.asarray(values, dtype=float)
    out = np.zeros((v.size, statespace._G12_WIDTH + 1), np.uint8)
    fallback = statespace._format_g12(v, out)
    texts = [row.tobytes().replace(b"\0", b"").decode() for row in out]
    return texts, fallback


class TestChannelText:
    def test_edge_values_are_python_percent(self):
        """Zeros, infinities, nan, the least subnormal and 1e±300, which
        Python formats; 12-digit rounding that carries into the next power
        of ten, across the fixed notation's ends; an exact 12-digit tie,
        which Python rounds to even; and powers of ten and their neighbours
        below, where ``log10`` can miss the exponent by one."""
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                   1e300, -1e300, 1e-300, -1e-300]
        rounded = [1e-5, 9.9999999999995e-05, 999999999999.5, 999999999999.6,
                   -99999999999.95, 123456789012.0, 1234567890125.0,
                   1234567890135.0, 0.5, 1200.0, 0.1]
        powers = 10.0 ** np.arange(-270, 271)
        values = special + rounded + [*powers, *np.nextafter(powers, 0)]
        texts, fallback = g12_texts(values)
        assert texts == ["%.12g" % x for x in values]
        assert texts[12] == "0.0001" and texts[14] == "1e+12"
        # Python formats the special values and the ties: an exact tie at 19
        # digits, or 19 digits ending in 5000000, no other value
        ties = [i for i, x in enumerate(values) if np.isfinite(x) and (
            is_exact_tie(x) or ("%.18e" % x).split("e")[0].endswith("5000000"))]
        assert set(fallback) == {*range(len(special)), *ties}
        assert {999999999999.5, 1234567890125.0, 1234567890135.0} <= {
            values[i] for i in ties}

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(
        st.floats(),
        st.integers(0, 2 ** 64 - 1).map(
            lambda bits: float(np.uint64(bits).view(np.float64)))),
        min_size=1, max_size=20))
    def test_any_float_is_python_percent(self, values):
        """Any doubles, subnormals, inf and nan among them."""
        texts, _ = g12_texts(values)
        assert texts == ["%.12g" % x for x in values]


def _pattern_systems(rng):
    """(name, A, whether every resolvent of A is a general matrix) for
    seeded A of each pattern that scipy's solve tells apart."""
    for n in (2, 3, 5, 8):
        A = rng.standard_normal((n, n))
        yield "dense", A, True
        yield "diagonal", np.diag(np.diag(A)), False
        yield "lower", np.tril(A), False
        yield "upper", np.triu(A), False
        # scipy's tridiagonal solver takes n > 3 only
        yield "tridiagonal", np.triu(np.tril(A, 1), -1), n <= 3
        yield "symmetric", A + A.T, False
        yield "hessenberg", np.triu(A, -1), True


class TestResponseDispatch:
    """``_responses`` gives the bits of a one-point-at-a-time reference:
    LAPACK ``zgesv`` when every resolvent is general, scipy's solve, with
    its structure check, otherwise."""

    @staticmethod
    def _reference(g, s, general):
        out = []
        for sk in s:
            M = sk * np.eye(g.n_states) - g.A
            if general:
                X = lapack.zgesv(M, g.B.astype(complex))[2]
            else:
                X = la.solve(M, g.B)
            out.append(g.C @ X + g.D)
        return np.array(out)

    def test_each_pattern_matches_its_reference(self):
        rng = np.random.default_rng(11)
        s = 2j * np.pi * np.concatenate([[0.0], np.geomspace(0.05, 50.0, 60)])
        for name, A, general in _pattern_systems(rng):
            assert statespace._general_resolvents(A) == general, name
            n = A.shape[0]
            g = StateSpaceModel(A, rng.standard_normal((n, 2)),
                                rng.standard_normal((3, n)),
                                rng.standard_normal((3, 2)))
            got = np.concatenate(list(statespace._responses(g, s)))
            want = self._reference(g, s, general)
            assert got.tobytes() == want.tobytes(), name

    def test_a_point_on_a_pole_raises_on_both_paths(self):
        """A zero first column puts a pole at s = 0 for every pattern."""
        rng = np.random.default_rng(12)
        paths = set()
        for name, A, _ in _pattern_systems(rng):
            A = A.copy()
            A[:, 0] = 0.0
            if name == "symmetric":
                A[0, :] = 0.0
            n = A.shape[0]
            g = StateSpaceModel(A, np.ones((n, 1)), np.ones((1, n)),
                                np.zeros((1, 1)))
            paths.add(statespace._general_resolvents(A))
            with pytest.raises(NumericError):
                list(statespace._responses(g, [1j, 0.0]))
        assert paths == {False, True}


class TestStability:
    def test_scalar_stable(self):
        assert is_hurwitz(StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]]))

    def test_double_integrator_marginal(self):
        g = StateSpaceModel([[0, 1], [0, 0]], [[0], [1]], [[1, 0]], [[0]])
        assert not is_hurwitz(g)

    def test_constructed_stable(self):
        rng = np.random.default_rng(6)
        Q = rng.standard_normal((6, 6))
        rho = np.max(la.eigvals(Q).real)
        A = Q - (rho + 0.5) * np.eye(6)
        assert spectral_abscissa(A) < 0
        assert is_hurwitz(StateSpaceModel(A, np.zeros((6, 1)), np.zeros((1, 6)), 0.0))


class TestHinfNorm:
    def test_first_order(self):
        assert hinf_norm(first_order()) == pytest.approx(1.0, rel=1e-5)

    def test_pure_gain(self):
        assert hinf_norm(StateSpaceModel([], [], [], [[3.0]])) == pytest.approx(3.0)

    def test_resonance_analytic(self):
        # 1/(s^2 + 0.2 s + 1): peak 1/(2 zeta sqrt(1-zeta^2)), zeta = 0.1
        g = StateSpaceModel([[0, 1], [-1, -0.2]], [[0], [1]], [[1, 0]], [[0]])
        zeta = 0.1
        peak = 1 / (2 * zeta * np.sqrt(1 - zeta ** 2))
        assert hinf_norm(g, rel_tol=1e-8) == pytest.approx(peak, rel=1e-6)

    def test_unstable_raises(self):
        g = StateSpaceModel([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(NumericError):
            hinf_norm(g)

    def test_bisection_vs_grid(self):
        rng = np.random.default_rng(7)
        systems = [random_stable(rng, int(rng.integers(1, 11)), 2, 2)
                   for _ in range(8)]
        # lightly damped pair in a 3-fold real Jordan block: the eigenbasis
        # is numerically singular, so no diagonalization can evaluate it
        R = np.array([[-0.1, 1.0], [-1.0, -0.1]])
        A = np.kron(np.eye(3), R) + np.kron(np.eye(3, k=1), np.eye(2))
        assert np.linalg.cond(la.eig(A)[1]) > 1e8
        systems.append(StateSpaceModel(A, rng.standard_normal((6, 2)),
                                       rng.standard_normal((2, 6)), np.zeros((2, 2))))
        for g in systems:
            gb = hinf_norm(g, rel_tol=1e-6)
            gd = hinf_norm_grid(g, 20_000)
            assert abs(gb - gd) <= 0.005 * gb

    def test_zero_system(self):
        g = StateSpaceModel([[-1.0]], [[0.0]], [[0.0]], [[0.0]])
        assert hinf_norm(g) == pytest.approx(0.0, abs=1e-12)

    def test_lower_bound_is_where_the_bisection_starts(self):
        """The bound never exceeds the norm, and handing it to the norm
        gives the same bits as letting the norm compute it."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_stable(rng, int(rng.integers(1, 9)), 2, 2)
            lower = hinf_lower_bound(g, g.poles())
            bound, exact, _ = lower
            assert not exact
            assert lower == hinf_lower_bound(g)
            assert bound <= hinf_norm(g)
            assert hinf_norm(g, lower=lower) == hinf_norm(g)

    def test_lower_bound_is_exact_without_dynamics(self):
        gain = StateSpaceModel([], [], [], [[3.0]])
        assert hinf_lower_bound(gain) == (3.0, True, 0.0)
        g = StateSpaceModel([[-1.0]], [[0.0]], [[1.0]], [[0.5]])
        assert hinf_lower_bound(g) == (0.5, True, 0.0)
        with pytest.raises(NumericError):
            hinf_lower_bound(StateSpaceModel([[1.0]], [[1.0]], [[1.0]], [[0.0]]))

    def test_lower_bound_peaks_at_infinity_where_d_dominates(self):
        """1/(s + 1) - 5 has |G| 4 at DC, 4.53 at the pole frequency and
        tends to 5: the bound is |D|, reached at infinite frequency."""
        g = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[-5.0]])
        assert hinf_lower_bound(g) == (5.0, False, math.inf)

    def test_failed_eigensolve_raises_instead_of_sampling(self, monkeypatch):
        """A 1 Hz pole with damping 1e-6 falls halfway between two points
        of the oracle's log grid, which then sees about 1/70 of the peak;
        the bound's candidate frequencies hit it.  No sampled value stands
        in for the norm: a failed Hamiltonian eigensolve raises."""
        w, zeta = 2 * np.pi, 1e-6
        g = StateSpaceModel([[0.0, 1.0], [-w * w, -2 * zeta * w]],
                            [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        peak = 1 / (2 * zeta * w * w * np.sqrt(1 - zeta ** 2))
        bound, _, peak_hz = hinf_lower_bound(g)
        assert peak_hz == pytest.approx(w * np.sqrt(1 - 2 * zeta ** 2) / (2 * np.pi),
                                        rel=1e-6)
        assert hinf_norm_grid(g) < 0.1 * peak <= bound
        assert hinf_norm(g) >= bound

        def ill_conditioned(*args):
            raise la.LinAlgError("singular matrix")

        monkeypatch.setattr(statespace, "_hamiltonian_has_imag_eig",
                            ill_conditioned)
        with pytest.raises(NumericError, match="eigensolve") as info:
            hinf_norm(g)
        assert isinstance(info.value.__cause__, la.LinAlgError)


class TestCare:
    def test_scalar_stable_zero_noise(self):
        P, L = care_solve([[-1.0]], [[1.0]], [[0.0]], [[1.0]])
        assert P[0, 0] == pytest.approx(0.0, abs=1e-10)
        assert L[0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_scalar_unstable(self):
        # quadratic 2P - P^2 = 0 (A=1, C=1, Q=0, V=1) => P = 2
        P, L = care_solve([[1.0]], [[1.0]], [[0.0]], [[1.0]])
        assert P[0, 0] == pytest.approx(2.0, rel=1e-8)
        assert L[0, 0] == pytest.approx(2.0, rel=1e-8)
        assert (1.0 - L[0, 0]) == pytest.approx(-1.0, rel=1e-8)

    def test_random_detectable(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            A = rng.standard_normal((4, 4))
            C = rng.standard_normal((2, 4))
            Q = np.eye(4)
            V = np.eye(2)
            P, L = care_solve(A, C, Q, V)
            res = A @ P + P @ A.T - P @ C.T @ np.linalg.solve(V, C @ P) + Q
            assert np.linalg.norm(res) <= 1e-8 * max(1.0, np.linalg.norm(P) ** 2)
            assert np.max(la.eigvals(A - L @ C).real) < 0

    def test_undetectable_raises(self):
        # unobservable unstable mode
        A = np.diag([1.0, -1.0])
        C = np.array([[0.0, 1.0]])
        with pytest.raises(NumericError):
            care_solve(A, C, np.eye(2), [[1.0]])


class TestSimulate:
    def test_zero_everything(self):
        g = first_order()
        _, _, y = simulate(g, np.zeros((100, 1)), dt=0.01)
        assert np.all(y == 0)

    def test_first_order_step(self):
        g = first_order()
        n = 5001
        t, _, y = simulate(g, np.ones((n, 1)), dt=0.001)
        assert y[-1, 0] == pytest.approx(1 - np.exp(-t[-1]), abs=1e-6)

    def test_sinusoid_steady_state_matches_gain(self):
        # lightly damped oscillator driven at resonance
        w0, zeta = 2 * np.pi * 5.0, 0.05
        g = StateSpaceModel([[0, 1], [-w0 ** 2, -2 * zeta * w0]],
                            [[0], [1]], [[1, 0]], [[0]])
        f = 5.0
        dt = 1 / (200 * f)
        t = np.arange(0, 20.0, dt)
        u = np.sin(2 * np.pi * f * t).reshape(-1, 1)
        _, _, y = simulate(g, u, dt)
        amp = np.max(np.abs(y[int(0.8 * len(t)):, 0]))
        gain = abs(freq_response(g, [f]).values[0, 0, 0])
        assert amp == pytest.approx(gain, rel=0.01)

    def test_matches_step_by_step_loop(self):
        """One model and stacks of 1, 2 and 3 models of one shape, each
        from its own nonzero x0, over two full blocks and a partial one:
        every system's states and outputs equal its own step-by-step loop."""
        def stepwise(g, u, dt, x0):
            Ad, Bd = discretize_zoh(g, dt)
            x = np.asarray(x0, dtype=float)
            X = np.empty((u.shape[0], g.n_states))
            Y = np.empty((u.shape[0], g.n_outputs))
            for k in range(u.shape[0]):
                X[k] = x
                Y[k] = g.C @ x + g.D @ u[k]
                x = Ad @ x + Bd @ u[k]
            return X, Y

        def model(n, m):
            if n == 0:
                return StateSpaceModel([], [], [], rng.standard_normal((3, m)))
            g = random_stable(rng, n, m, 3)
            return StateSpaceModel(g.A, g.B, g.C, rng.standard_normal((3, m)))

        rng = np.random.default_rng(12)
        n_s = 2 * _CHUNK_ROWS + 7  # two full blocks and a partial one
        for n in (0, 1, 5, 32):
            for m in (1, 4):
                u = rng.standard_normal((n_s, m))
                g = model(n, m)
                x0 = rng.standard_normal(n)
                _, X, Y = simulate(g, u, 1e-3, x0)
                X_ref, Y_ref = stepwise(g, u, 1e-3, x0)
                assert np.array_equal(X, X_ref), n
                assert np.array_equal(Y, Y_ref), n
                for n_sys in (1, 2, 3):
                    gs = [model(n, m) for _ in range(n_sys)]
                    x0 = rng.standard_normal((n_sys, n))
                    _, X, Y = simulate(gs, u, 1e-3, x0)
                    assert X.shape == (n_s, n_sys, n) and Y.shape == (n_s, n_sys, 3)
                    for i, g in enumerate(gs):
                        X_ref, Y_ref = stepwise(g, u, 1e-3, x0[i])
                        assert np.array_equal(X[:, i], X_ref), (n, n_sys, i)
                        assert np.array_equal(Y[:, i], Y_ref), (n, n_sys, i)

    def test_bad_inputs(self):
        g = first_order()
        with pytest.raises(ModelError):
            simulate(g, np.ones((1, 1)), dt=0.01)
        with pytest.raises(ModelError):
            simulate(g, np.array([[1.0], [np.inf]]), dt=0.01)
        with pytest.raises(ModelError):
            simulate(g, np.ones((10, 1)), dt=0.0)

    @pytest.mark.parametrize("u", [np.ones((1, 10)), np.ones(10),
                                   np.ones((10, 1, 1))],
                             ids=["transposed", "flat", "3d"])
    def test_refuses_inputs_not_samples_by_channels(self, u):
        """Inputs are (n_samples, m), taken as given: a transposed, 1-D or
        3-D array is refused, not reshaped."""
        with pytest.raises(ModelError, match=r"not \(n_samples, 1\)"):
            simulate(first_order(), u, dt=0.01)

    def test_stack_needs_a_system(self):
        with pytest.raises(ModelError, match="at least one system"):
            simulate([], np.ones((10, 1)), dt=0.01)

    @pytest.mark.parametrize("other", [
        StateSpaceModel([[-2.0, 0], [0, -3]], [[1.0], [1]], [[1.0, 1]], [[0.0]]),
        StateSpaceModel([[-2.0]], [[1.0, 1]], [[1.0]], [[0.0, 0]]),
        StateSpaceModel([[-2.0]], [[1.0]], [[1.0], [2]], [[0.0], [0]]),
    ], ids=["n", "m", "p"])
    def test_stack_refuses_another_shape(self, other):
        g = first_order()
        with pytest.raises(ModelError, match="system 2 has"):
            simulate([g, g, other], np.ones((10, 1)), dt=0.01)

    @pytest.mark.parametrize("x0", [np.zeros(2), np.zeros((3, 1)),
                                    np.zeros((2, 2))],
                             ids=["flat", "rows", "columns"])
    def test_stack_refuses_an_x0_of_another_shape(self, x0):
        g = first_order()
        with pytest.raises(ModelError, match=r"not \(2, 1\): one row per system"):
            simulate([g, g], np.ones((10, 1)), dt=0.01, x0=x0)

    def test_refuses_a_nonfinite_x0(self):
        g = first_order()
        with pytest.raises(ModelError, match="non-finite x0 of system 0"):
            simulate(g, np.ones((10, 1)), dt=0.01, x0=[np.nan])
        with pytest.raises(ModelError, match="non-finite x0 of system 1"):
            simulate([g, g], np.ones((10, 1)), dt=0.01, x0=[[0.0], [np.inf]])


class TestRationalFilter:
    def test_section_realization_matches_polynomials(self):
        flt = RationalDiagonalFilter((
            [(np.array([0.5, 0.5 * 2 * np.pi * 25]), np.array([1.0, 0.1]))],
            [(np.array([2.0]), np.array([1.0, 3.0]))],
        ))
        f = np.logspace(-2, 3, 60)
        s = 2j * np.pi * f
        direct = diagonal_response(flt.channels, s)
        ss = flt.to_ss()
        fr = freq_response(ss, f).values
        for i in range(2):
            np.testing.assert_allclose(fr[:, i, i], direct[i], rtol=1e-10, atol=1e-12)
            # off-diagonal channels decoupled
        assert np.allclose(fr[:, 0, 1], 0) and np.allclose(fr[:, 1, 0], 0)

    def test_biquad_cascade(self):
        w = 2 * np.pi * 50
        sec1 = (np.array([w / 10, 0.0]), np.array([1.0, w / 10, w ** 2]))
        sec2 = (np.array([1.0, 2.0]), np.array([1.0, 40.0]))
        flt = RationalDiagonalFilter(([sec1, sec2],))
        f = np.logspace(0, 3, 40)
        s = 2j * np.pi * f
        np.testing.assert_allclose(
            freq_response(flt.to_ss(), f).values[:, 0, 0],
            diagonal_response(flt.channels, s)[0], rtol=1e-9, atol=1e-14)

    def test_nonmonic_denominator(self):
        # leading coefficient != 1, as in sections written 1/((s/w)^2 + ...)
        w = 2 * np.pi * 60
        sec = (np.array([1.0]), np.array([1.0 / w ** 2, 2 * 0.7 / w, 1.0]))
        flt = RationalDiagonalFilter(([sec],))
        f = np.logspace(0, 3, 40)
        np.testing.assert_allclose(
            freq_response(flt.to_ss(), f).values[:, 0, 0],
            diagonal_response(flt.channels, 2j * np.pi * f)[0],
            rtol=1e-9, atol=1e-14)

    def test_improper_rejected(self):
        with pytest.raises(ModelError):
            RationalDiagonalFilter(([(np.array([1.0, 0, 0]), np.array([1.0, 1.0]))],))

    def test_dict_roundtrip(self):
        # the filter rebuilds from its stored channel sections
        flt = RationalDiagonalFilter(tuple([(np.array([g]), np.array([1.0]))]
                                           for g in (1.0, 2.5)))
        flt2 = RationalDiagonalFilter(flt.channels)
        s = np.array([1j, 2j])
        np.testing.assert_allclose(diagonal_response(flt.channels, s),
                                   diagonal_response(flt2.channels, s))


class TestBlockdiag:
    def test_dimensions(self):
        g = blockdiag([first_order(), StateSpaceModel([], [], [], np.eye(2))])
        assert g.n_inputs == 3 and g.n_outputs == 3 and g.n_states == 1

    def test_freq_structure(self):
        g1, g2 = first_order(), first_order()
        g = blockdiag([g1, g2])
        fr = freq_response(g, [0.5]).values[0]
        assert fr[0, 1] == 0 and fr[1, 0] == 0
        assert fr[0, 0] == fr[1, 1]

    def test_scipy_block_diag_oracle(self):
        """Bit-equal to ``scipy.linalg.block_diag`` of each matrix, with
        zero-state blocks, pure gains and blocks without inputs or outputs."""
        rng = np.random.default_rng(3)
        no_inputs = StateSpaceModel(-np.eye(2), np.zeros((2, 0)),
                                    rng.standard_normal((1, 2)), np.zeros((1, 0)))
        no_outputs = StateSpaceModel(-np.eye(2), rng.standard_normal((2, 3)),
                                     np.zeros((0, 2)), np.zeros((0, 3)))
        gain = StateSpaceModel([], [], [], rng.standard_normal((1, 2)))
        cases = ([random_stable(rng, 3, 2, 1), gain, no_inputs,
                  random_stable(rng, 1), no_outputs],
                 [gain, StateSpaceModel([], [], [], np.eye(2))],
                 [no_inputs, no_outputs],
                 [random_stable(rng, 4, 3, 2)])
        for systems in cases:
            g = blockdiag(systems)
            for m in "ABCD":
                want = la.block_diag(*[getattr(s, m) for s in systems])
                assert getattr(g, m).shape == want.shape
                np.testing.assert_array_equal(getattr(g, m), want)
