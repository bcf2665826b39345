"""Closed-form diagonal realizations and the compiled interconnection.

K_RB, K_FM and the shaping weights are realized by ``diagonal_ss``, and every
loop is closed by an :class:`Interconnection` that keeps its stacked blocks
and its algebraic-loop products between closes.  Both must give, byte for
byte, what the section-by-section cascade of ``from_tf`` and ``series`` and a
fresh solve of the routing formula give."""

import argparse
import json
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from modalsyn import cli, synthesis
from modalsyn.mechanics import evaluate_local
from modalsyn.shaping import ScalingSet
from modalsyn.statespace import (
    Interconnection,
    ModelError,
    NumericError,
    RationalDiagonalFilter,
    StateSpaceModel,
    _lower,
    blockdiag,
    diagonal_response,
    diagonal_ss,
    freq_response,
    lmul,
    rmul,
    series,
)
from modalsyn.synthesis import (
    PENALTY_BASE,
    StructuredControllerParams,
    _objective,
    _rb_unscaling,
    close_full_loop,
    initial_params,
    rb_crossover,
)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
PLANTS = ("two_mass", "mmpa_lite")
KINDS = ("6block", "4block")


def assert_same_bytes(got, want):
    """Equal shapes and equal bytes, so signed zeros count."""
    for m in "ABCD":
        a, b = getattr(got, m), getattr(want, m)
        assert a.shape == b.shape, m
        assert a.tobytes() == b.tobytes(), m


def route(blocks, E_w, E_y, F_w, F_y):
    """The routing formula solved afresh for every call: the blocks stacked,
    the algebraic loop inverted and the closed-loop products formed."""
    A, B, C, D = (la.block_diag(*[getattr(g, m) for g in blocks]) for m in "ABCD")
    n_y = D.shape[0]
    loop = np.eye(n_y) - D @ E_y
    if np.linalg.cond(loop) > 1e12:
        raise NumericError("singular algebraic loop in routed interconnection")
    Minv = la.solve(loop, np.eye(n_y))
    return StateSpaceModel(A + B @ E_y @ Minv @ C,
                           B @ (E_w + E_y @ Minv @ D @ E_w),
                           F_y @ Minv @ C,
                           F_w + F_y @ Minv @ D @ E_w)


def route_declaration(ic, models):
    """``ic`` closed by :func:`route`, its free blocks taken from ``models``."""
    routing, _ = _lower(ic.blocks, ic.connections, ic.inputs, ic.outputs)
    return route([models[name] if model is None else model
                  for name, model, _, _ in ic.blocks], *routing)


def cascade_ss(channels):
    """The reference realization of a rational diagonal: each channel's
    sections realized by ``from_tf`` and chained by ``series``, the channels
    stacked by ``blockdiag``."""
    return blockdiag(
        reduce(lambda g, section: series(g, StateSpaceModel.from_tf(*section)),
               sections, StateSpaceModel([], [], [], np.eye(1)))
        for sections in channels)


def reference_blocks(cl, params):
    """The blocks of M and of the full loop as the reference realizations
    give them, each loop closed by :func:`route`."""
    gains = _rb_unscaling(cl.scalings, cl.n_rb)
    loop = {"K_RB": cascade_ss(params.krb_sections(gains)),
            "O": cl.observer(params),
            "K_FM": cascade_ss(params.kfm_sections())}
    name, left, right = cl._slot
    loop[name] = route_declaration(cl._inner, loop)
    scaled = {"G": cl._g_plant, name: lmul(left, rmul(loop[name], right)),
              "K_RB": cascade_ss(params.krb_sections())}
    return scaled, loop


def outcome(fn):
    """The model ``fn`` returns, or the class of the model or numeric error
    it raises."""
    try:
        return fn()
    except (ModelError, NumericError) as exc:
        return type(exc)


def assert_same_outcome(got, want):
    if isinstance(want, StateSpaceModel):
        assert isinstance(got, StateSpaceModel), got
        assert_same_bytes(got, want)
    else:
        assert got is want


@pytest.fixture(scope="module")
def problems():
    built = {}

    def get(plant, kind):
        if (plant, kind) not in built:
            config = json.loads((BENCH / "configs" / f"{plant}.json").read_text())
            args = argparse.Namespace(model=None, p_star=None, grid=None)
            built[plant, kind] = cli.build_problem(config, args, kind)
        return built[plant, kind]

    return get


# -- closed-form realizations ----------------------------------------------

positive = st.one_of(st.floats(1e-3, 1e3),
                     st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
krb_rows = st.lists(st.tuples(*[positive] * 6), min_size=1, max_size=3)
signed = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3),
                   st.floats(-3.0, 3.0).map(lambda e: -(10.0 ** e)),
                   st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
# a denominator of one to three coefficients and a numerator of up to one
# more: leading zeros (of either sign), gain-only, improper and all-zero
# sections, and now and then a coefficient at or past the range of a float
coefficient = st.one_of(signed, st.sampled_from([1e-300, 1e300, np.inf, np.nan]))
section = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(coefficient, max_size=n + 1),
    st.lists(coefficient, min_size=n, max_size=n)))


class TestClosedFormRealization:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(channels=st.lists(st.lists(section, max_size=3), max_size=3))
    def test_any_sections_are_byte_equal_to_the_cascade(self, channels):
        """The same bytes as the reference, or the same error."""
        with np.errstate(all="ignore"):
            assert_same_outcome(outcome(lambda: diagonal_ss(channels)),
                                outcome(lambda: cascade_ss(channels)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=krb_rows, data=st.data())
    def test_krb_is_byte_equal_to_the_filter(self, rows, data):
        """K_RB as M takes it, and with the gains that unscale it to
        physical units, each as its sections' cascade."""
        n = len(rows)
        params = StructuredControllerParams(np.array(rows), np.zeros((1, 1)),
                                            [], [], 1.0)
        sections = params.krb_sections()
        assert_same_bytes(diagonal_ss(sections), cascade_ss(sections))
        wz, ww1 = (data.draw(st.lists(positive, min_size=n, max_size=n))
                   for _ in range(2))
        gains = _rb_unscaling(ScalingSet(wz, ww1), n)
        scaled = params.krb_sections(gains)
        assert [chan[-1] for chan in scaled] == [(k, 1.0) for k in gains]
        assert_same_bytes(diagonal_ss(scaled), cascade_ss(scaled))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(modes=st.lists(st.tuples(signed, positive), min_size=0, max_size=3),
           Q=positive)
    def test_kfm_is_byte_equal_to_the_filter(self, modes, Q):
        xi = [x for x, _ in modes]
        omega = [w for _, w in modes]
        params = StructuredControllerParams(np.ones((1, 6)), np.zeros((1, 1)),
                                            xi, omega, Q)
        sections = params.kfm_sections()
        assert_same_bytes(diagonal_ss(sections), cascade_ss(sections))

    def test_squared_corners_take_the_scalar_power(self):
        """The sections square w_lp and the band-pass centre with the scalar
        power, which differs from the array square in a few values per
        thousand; corners where they differ must still give equal bytes."""
        rng = np.random.default_rng(0)
        odd = [w for w in 10.0 ** rng.uniform(-3.0, 3.0, 20000) if w ** 2 != w * w]
        corners = np.array((odd + [1.0, 2.0, 3.0])[:3])
        krb = np.ones((3, 6))
        krb[:, 4] = corners
        params = StructuredControllerParams(krb, np.zeros((1, 1)), [1.0, -2.0, 0.5],
                                            corners, 7.0)
        for sections in (params.krb_sections(), params.kfm_sections()):
            assert_same_bytes(diagonal_ss(sections), cascade_ss(sections))

    def test_a_zero_gain_has_a_positive_zero_output_entry(self):
        params = StructuredControllerParams(np.ones((1, 6)), np.zeros((1, 1)),
                                            [-0.0], [3.0], 2.0)
        assert np.signbit(diagonal_ss(params.kfm_sections()).C).sum() == 0
        assert np.signbit(diagonal_ss(params.krb_sections()).A[0, 0])

    @pytest.mark.parametrize("column, value", [
        (4, 1e160),    # w_lp^2 overflows: the low-pass section loses its s^2
        (4, 1e-170),   # w_lp^2 underflows to zero
        (3, 1e-310),   # 1 / w_pole overflows
    ])
    def test_out_of_pattern_corners_realize_as_the_filter_does(self, column,
                                                               value):
        krb = np.ones((2, 6))
        krb[1, column] = value
        params = StructuredControllerParams(krb, np.zeros((1, 1)), [], [], 1.0)
        with np.errstate(all="ignore"):
            for gains in (None, [2.0, -0.5]):
                sections = params.krb_sections(gains)
                want = outcome(lambda: cascade_ss(sections))
                assert_same_outcome(outcome(lambda: diagonal_ss(sections)), want)
        if value == 1e160:
            assert want.n_states == 7

    def test_kfm_refuses_what_its_filter_refuses(self):
        """A centre or Q that is not positive is refused by the sections, an
        infinite gain by the realization."""
        for xi, omega, Q in (([1.0], [-3.0], 2.0), ([1.0], [3.0], 0.0),
                             ([np.inf], [3.0], 2.0)):
            params = StructuredControllerParams(np.ones((1, 6)),
                                                np.zeros((1, 1)), xi, omega, Q)
            with pytest.raises(ModelError):
                diagonal_ss(params.kfm_sections())


class TestCrossover:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rows=krb_rows)
    def test_krb_values_are_byte_equal_to_the_filter(self, rows):
        params = StructuredControllerParams(np.array(rows), np.zeros((1, 1)),
                                            [], [], 1.0)
        s = 2j * np.pi * np.geomspace(1e-2, 1e4, 50)
        filt = RationalDiagonalFilter(params.krb_sections())
        assert (diagonal_response(params.krb_sections(), s).tobytes()
                == diagonal_response(filt.channels, s).tobytes())

    @pytest.mark.parametrize("kind", KINDS)
    def test_crossover_matches_the_filter_evaluation(self, problems, kind):
        prob = problems("two_mass", kind)
        cl, init = prob.cl, initial_params(prob.cl)
        for scale in (0.0, 0.1, 0.3):
            params = init.with_vector(init.to_vector() * (1.0 + scale))
            f = np.geomspace(min(cl.f_bw) / 20.0, max(cl.f_bw) * 50.0, 300)
            Gv = freq_response(cl.g_delta(params), f).values
            Kv = diagonal_response(params.krb_sections(), 2j * np.pi * f)
            want = np.full(cl.n_rb, np.nan)
            for i in range(cl.n_rb):
                idx = np.flatnonzero(np.abs(Gv[:, i, i] * Kv[i]) >= 1.0)
                if idx.size:
                    want[i] = f[idx[-1]]
            np.testing.assert_array_equal(rb_crossover(cl, params), want)


# -- compiled interconnection ----------------------------------------------

class TestCompiledClose:
    @pytest.mark.parametrize("plant", PLANTS)
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(data=st.data(), scale=st.sampled_from([1e-2, 0.3, 3.0]))
    def test_every_loop_matches_the_routing_formula(self, problems, plant,
                                                    kind, data, scale):
        """M, the block the inner loop fills and the full loop at every grid
        point, for random parameters: the same bytes, or the same error."""
        prob = problems(plant, kind)
        cl, init = prob.cl, initial_params(prob.cl)
        x0 = init.to_vector()
        unit = data.draw(arrays(float, x0.size, elements=st.floats(-1.0, 1.0)))
        params = init.with_vector(x0 + scale * unit * np.maximum(np.abs(x0), 1.0))
        name = cl._slot[0]
        with np.errstate(all="ignore"):
            want = outcome(lambda: reference_blocks(cl, params))
            got = outcome(lambda: cl._realize(params))
            if not isinstance(want, tuple):
                assert got is want
                return
            scaled, loop = want
            assert_same_bytes(got[1][name], loop[name])
            assert_same_outcome(outcome(lambda: cl.evaluate(params)),
                                outcome(lambda: route_declaration(cl._map, scaled)))
            for p in prob.grid:
                g = evaluate_local(cl.pm, p)
                assert_same_outcome(
                    outcome(lambda: close_full_loop(g, cl, params)),
                    outcome(lambda: route_declaration(cl._loop, {**loop, "G": g})))

    @pytest.mark.parametrize("kind", KINDS)
    def test_results_are_never_views_of_the_workspace(self, problems, kind):
        """Earlier results survive later closes unchanged: the realized
        blocks, M and the full loop are kept by their callers."""
        prob = problems("two_mass", kind)
        cl, init = prob.cl, initial_params(prob.cl)
        g = evaluate_local(cl.pm, prob.grid[3])
        p1 = init.with_vector(init.to_vector() * 1.1)
        p2 = init.with_vector(init.to_vector() * 0.9)
        first = [cl.evaluate(p1), cl._realize(p1)[1][cl._slot[0]],
                 close_full_loop(g, cl, p1)]
        kept = [[getattr(m, k).copy() for k in "ABCD"] for m in first]
        second = [cl.evaluate(p2), cl._realize(p2)[1][cl._slot[0]],
                  close_full_loop(g, cl, p2)]
        for m, arrays_before, later in zip(first, kept, second):
            for k, before in zip("ABCD", arrays_before):
                assert getattr(m, k).tobytes() == before.tobytes(), k
                assert not np.shares_memory(getattr(m, k), getattr(later, k)), k


def random_block(rng, n, d_scale):
    A = rng.standard_normal((n, n)) - 3.0 * n * np.eye(n)
    return StateSpaceModel(A, rng.standard_normal((n, 2)),
                           rng.standard_normal((2, n)),
                           d_scale * rng.standard_normal((2, 2)))


# a matrix gain in the loop, so the association of the products shows
FEEDBACK = dict(connections=[("G.u", "r", 1),
                             ("G.u", "K.y", [[-0.7, 0.2], [0.1, -1.3]]),
                             ("K.u", "G.y", 1), ("y", "G.y", 1), ("y", "K.y", 1)],
                inputs=[("r", 2)], outputs=[("y", 2)])


def feedback(G, K):
    """G in feedback with K through a matrix gain, from r to G.y + K.y."""
    return [("G", G, [("u", 2)], [("y", 2)]), ("K", K, [("u", 2)], [("y", 2)])]


class TestInterconnection:
    def test_a_changed_feed_through_is_solved_again(self, monkeypatch):
        """The loop products are kept for one stacked D only: every close
        equals a fresh interconnection closed once and the formula solved
        afresh, and a D seen before the last one is solved again."""
        rng = np.random.default_rng(5)
        G = random_block(rng, 3, 0.4)
        ic = Interconnection(feedback(G, None), **FEEDBACK)
        solves = []
        products = Interconnection._loop_products

        def counted(self, D):
            if self is ic:
                solves.append(D.copy())
            return products(self, D)
        monkeypatch.setattr(Interconnection, "_loop_products", counted)
        K1, K2 = random_block(rng, 2, 0.3), random_block(rng, 2, 0.3)
        K0 = random_block(rng, 2, 0.0)
        K1b = StateSpaceModel(K2.A, K2.B, K2.C, K1.D)   # new dynamics, D of K1
        for K, new in ((K1, True), (K1, False), (K2, True), (K1, True),
                       (K1b, False), (K0, True), (K0, False)):
            before = len(solves)
            got = ic.close({"K": K})
            fresh = Interconnection(feedback(G, K), **FEEDBACK).close()
            assert_same_bytes(got, fresh)
            assert_same_bytes(got, route_declaration(ic, {"K": K}))
            assert len(solves) == before + new

    def test_a_changed_state_count_is_laid_out_again(self):
        rng = np.random.default_rng(6)
        G = random_block(rng, 3, 0.4)
        ic = Interconnection(feedback(G, None), **FEEDBACK)
        for n in (2, 4, 2, 0):
            K = (random_block(rng, n, 0.3) if n else
                 StateSpaceModel([], [], [], 0.3 * rng.standard_normal((2, 2))))
            assert_same_bytes(ic.close({"K": K}), route_declaration(ic, {"K": K}))

    def test_a_singular_loop_is_refused_on_every_close(self):
        one = StateSpaceModel([], [], [], np.eye(2))
        ic = Interconnection(feedback(one, None),
                             [("G.u", "r", 1), ("G.u", "K.y", 1),
                              ("K.u", "G.y", 1), ("y", "G.y", 1)],
                             [("r", 2)], [("y", 2)])
        for _ in range(2):
            with pytest.raises(NumericError, match="singular algebraic loop"):
                ic.close({"K": one})

    def test_a_missing_model_is_named(self):
        G = random_block(np.random.default_rng(7), 2, 0.0)
        with pytest.raises(ModelError, match="block 'K' has no model"):
            Interconnection(feedback(G, None), **FEEDBACK).close()

    def test_a_result_that_overflows_is_refused(self):
        """Finite blocks whose closed loop overflows raise ModelError, so no
        infinity reaches an eigensolver or a linear solve."""
        G = StateSpaceModel(-np.eye(2), np.eye(2), 1e200 * np.eye(2), np.zeros((2, 2)))
        K = StateSpaceModel(-np.eye(2), 1e200 * np.eye(2), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ModelError, match="non-finite"):
            Interconnection(feedback(G, K), **FEEDBACK).close()


class TestObjectiveGuard:
    @pytest.mark.parametrize("kind", KINDS)
    def test_huge_observer_gains_score_a_penalty(self, problems, kind):
        """L near 1e300 leaves every block finite (the design model's output
        map has entries of at most one) and scores a stability penalty; at
        1e306 times the Riccati gain L itself overflows, the observer is
        refused and the vector scores the realization penalty.  Neither
        raises."""
        prob = problems("two_mass", kind)
        cl, init = prob.cl, initial_params(prob.cl)
        f = _objective(cl, init, prob.grid, (9.4, 10.6))
        with np.errstate(all="ignore"):
            finite = StructuredControllerParams(
                init.krb, 1e300 * np.sign(init.L), init.xi, init.omega, init.Q)
            assert PENALTY_BASE <= f(finite.to_vector()) <= 2 * PENALTY_BASE
            over = StructuredControllerParams(init.krb, init.L * 1e306,
                                              init.xi, init.omega, init.Q)
            assert not np.isfinite(over.L).all()
            with pytest.raises(ModelError, match="non-finite"):
                cl.observer(over)
            assert f(over.to_vector()) == 10 * PENALTY_BASE

    def test_a_plain_value_error_is_not_caught(self, problems, monkeypatch):
        """A NaN given to a linear solve raises a plain ValueError, which the
        objective lets through: that is why every realized block and every
        closed loop is checked for finiteness before it is solved with."""
        with pytest.raises(ValueError) as exc:
            la.solve(np.array([[np.nan]]), np.eye(1))
        assert type(exc.value) is ValueError
        prob = problems("two_mass", "6block")
        cl, init = prob.cl, initial_params(prob.cl)
        f = _objective(cl, init, prob.grid, (9.4, 10.6))

        def nan_solve(*args, **kwargs):
            raise exc.value
        monkeypatch.setattr(synthesis, "hinf_lower_bound", nan_solve)
        with pytest.raises(ValueError):
            f(init.to_vector())
