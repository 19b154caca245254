import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divischeck import pauli_family as pf
from divischeck import superop as so
from oracles import compose, generator_eigenvalues, intermediate_channel, loop_pauli_channel

EIGENVALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# times near 1e3 put cosh past a double's range: cp_criterion's log branch
TIMES = st.lists(st.one_of(st.floats(0.0, 20.0), st.floats(990.0, 1010.0)),
                 min_size=1, max_size=16)
# the largest alpha whose double is finite
ALPHA_LIMIT = sys.float_info.max / 2
CLOSED_FORMS = (pf.log_cosh, pf.bloch_eigenvalues, pf.pauli_weights,
                pf.squared_pauli_weights, pf.cp_criterion)


def _call(f, t, alpha):
    return f(t) if f is pf.log_cosh else f(t, alpha)


class TestRates:
    def test_origin(self):
        assert pf.rates(0.0, 0.7) == (0.7, 0.7, 0.0)

    def test_tanh_value(self):
        g = pf.rates(1.0, 1.0)
        assert g[2] == pytest.approx(-math.tanh(1.0))
        assert g[0] == g[1] == 1.0

    def test_late_time_limit(self):
        g = pf.rates(50.0, 0.8)
        assert g[2] == pytest.approx(-0.8, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            pf.rates(-0.1, 1.0)
        with pytest.raises(ValueError):
            pf.rates(1.0, 0.0)
        with pytest.raises(ValueError, match="time"):
            pf.rates(math.nan, 0.6)
        with pytest.raises(ValueError, match="alpha"):
            pf.rates(1.0, math.nan)
        with pytest.raises(ValueError, match="alpha"):
            pf.channel(0.5, math.nan)
        with pytest.raises(ValueError, match="alpha"):
            pf.channel(0.0, math.inf)
        with pytest.raises(ValueError, match="alpha"):
            pf.bloch_eigenvalues(0.0, math.inf)
        with pytest.raises(ValueError, match="time"):
            pf.channel(math.inf, 0.6)
        with pytest.raises(ValueError, match="time"):
            pf.rates(math.inf, 0.6)

    @pytest.mark.parametrize("f, at_limit", [
        (pf.rates, (ALPHA_LIMIT, ALPHA_LIMIT, 0.0)),
        (pf.bloch_eigenvalues, [1.0, 1.0, 1.0]),
        (pf.pauli_weights, [1.0, 0.0, 0.0, 0.0]),
        (pf.squared_pauli_weights, [1.0, 0.0, 0.0, 0.0]),
        (pf.cp_criterion, True),
        (lambda t, a: pf.channel(t, a), np.eye(4)),
        (lambda t, a: pf.semigroup_channel(t, a), np.eye(4)),
    ], ids=["rates", "bloch_eigenvalues", "pauli_weights", "squared_pauli_weights",
            "cp_criterion", "channel", "semigroup_channel"])
    def test_rejects_an_alpha_whose_double_overflows(self, f, at_limit):
        # 2 alpha overflowed to inf and 0 * inf turned every entry into NaN;
        # the largest alpha with a finite double still gives the t = 0 values
        message = re.escape(f"at most {ALPHA_LIMIT} so that 2 alpha is finite, got 1e+308")
        with pytest.raises(ValueError, match=message):
            f(0.0, 1e308)
        assert np.array_equal(f(0.0, ALPHA_LIMIT), at_limit)


class TestGeneratorEigenvalues:
    def test_origin_unit_strength(self):
        np.testing.assert_allclose(generator_eigenvalues(0.0, 1.0),
                                   (0.0, -1.0, -1.0, -2.0))

    def test_identity_component_always_zero(self):
        for t in (0.0, 0.3, 2.0, 10.0):
            assert generator_eigenvalues(t, 1.3)[0] == 0.0

    def test_direct_value(self):
        lam = generator_eigenvalues(1.0, 0.5)
        assert lam[1] == pytest.approx(0.5 * (math.tanh(1.0) - 1.0))
        assert lam[3] == -1.0


class TestBlochEigenvalues:
    def test_identity_at_origin(self):
        assert pf.bloch_eigenvalues(0.0, 0.9).tolist() == [1.0, 1.0, 1.0]

    def test_unit_strength_values(self):
        l1, _, l3 = pf.bloch_eigenvalues(1.0, 1.0)
        assert l1 == pytest.approx(math.exp(-1.0) * math.cosh(1.0), rel=1e-14)
        assert l3 == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_late_time_transverse_limit(self):
        # exp(-t) cosh(t) -> 1/2
        assert pf.bloch_eigenvalues(400.0, 1.0)[0] == pytest.approx(0.5, abs=1e-12)

    def test_no_overflow_at_huge_times(self):
        l1, _, l3 = pf.bloch_eigenvalues(5000.0, 2.0)
        assert math.isfinite(l1) and math.isfinite(l3)
        assert l1 == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.7, -0.7, 800.0, -800.0])
    def test_log_cosh_is_even_and_never_overflows(self, t):
        # cosh(800) overflows a double; log cosh 800 = 800 - ln 2 + log1p(e^-1600)
        expected = 800.0 - math.log(2.0) if abs(t) == 800.0 else math.log(math.cosh(t))
        assert pf.log_cosh(t) == pytest.approx(expected, rel=1e-15, abs=1e-16)
        assert pf.log_cosh(t) == pf.log_cosh(-t)

    def test_never_exceed_one(self):
        for alpha in (0.1, 0.5, 1.0, 3.0):
            l = pf.bloch_eigenvalues(np.linspace(0.0, 5.0, 51), alpha)
            assert np.abs(l).max() <= 1.0 + 1e-15


class TestPauliWeights:
    def test_identity_channel_at_origin(self):
        np.testing.assert_allclose(pf.pauli_weights(0.0, 0.5), [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_sum_to_one_and_p1_equals_p2(self):
        for alpha in (0.3, 1.0, 2.5):
            w = pf.pauli_weights(np.linspace(0.0, 5.0, 21), alpha)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
            assert np.array_equal(w[:, 1], w[:, 2])

    def test_p3_vanishes_identically_at_unit_strength(self):
        # 2 exp(-t) cosh(t) = 1 + exp(-2t)
        assert np.abs(pf.pauli_weights(np.linspace(0.0, 6.0, 61), 1.0)[:, 3]).max() <= 1e-14

    def test_value_against_naive_formula(self):
        t, alpha = 1.0, 0.75
        naive = 0.25 * (1.0 - 2.0 * math.exp(-alpha * t) * math.cosh(t) ** alpha
                        + math.exp(-2.0 * alpha * t))
        p3 = pf.pauli_weights(t, alpha)[3]
        assert p3 == pytest.approx(naive, abs=1e-14)
        assert p3 == pytest.approx(-0.0212, abs=5e-5)

    def test_p3_sign_characterizes_strength(self):
        grid = pf.default_grid()
        for alpha in (0.3, 0.6, 0.9):
            assert pf.pauli_weights(grid, alpha)[:, 3].min() < 0
        for alpha in (1.0, 1.5, 2.0):
            assert pf.pauli_weights(grid, alpha)[:, 3].min() >= -1e-12


class TestSquaredWeights:
    def test_equals_doubled_strength(self):
        times = np.linspace(0.0, 5.0, 100)
        for alpha in (0.3, 0.5, 0.75):
            q = pf.squared_pauli_weights(times, alpha)
            p2 = pf.pauli_weights(times, 2 * alpha)
            assert np.max(np.abs(q - p2)) <= 1e-14

    def test_boundary_half_strength(self):
        q3 = pf.squared_pauli_weights(np.linspace(0.0, 5.0, 50), 0.5)[:, 3]
        assert np.abs(q3).max() <= 1e-14

    def test_origin(self):
        np.testing.assert_allclose(pf.squared_pauli_weights(0.0, 0.4),
                                   [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_q3_nonnegative_iff_half_strength(self):
        grid = pf.default_grid()
        assert pf.squared_pauli_weights(grid, 0.5)[:, 3].min() >= -1e-12
        assert pf.squared_pauli_weights(grid, 0.75)[:, 3].min() >= -1e-12
        assert pf.squared_pauli_weights(grid, 0.4)[:, 3].min() < -1e-6


class TestCpCriterion:
    def test_above_unit_strength(self):
        # cosh(2) = 3.7622 >= cosh(1)^2 = 2.3811
        assert pf.cp_criterion(1.0, 2.0)

    def test_below_unit_strength(self):
        # cosh(0.5) = 1.1276 < cosh(1)^0.5 = 1.2422
        assert not pf.cp_criterion(1.0, 0.5)

    def test_equality_at_unit_strength(self):
        assert pf.cp_criterion(np.linspace(0.0, 5.0, 26), 1.0).all()

    def test_large_time_log_path(self):
        assert pf.cp_criterion(500.0, 2.0)
        assert not pf.cp_criterion(500.0, 0.5)

    def test_agrees_with_p3_sign(self):
        times = np.linspace(0.0, 5.0, 26)
        for alpha in (0.5, 0.8, 1.0, 1.7):
            assert np.array_equal(pf.cp_criterion(times, alpha),
                                  pf.pauli_weights(times, alpha)[:, 3] >= -1e-12)


class TestTimeArrays:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.05, 5.0), TIMES)
    def test_closed_forms_over_time_arrays(self, alpha, times):
        t = np.array(times)
        for f in CLOSED_FORMS:
            stacked = _call(f, t, alpha)
            # one float, or a 0-d array, gives the same bits as inside an array
            assert np.array_equal(stacked, [_call(f, x, alpha) for x in times])
            assert np.array_equal(stacked, [_call(f, np.asarray(x), alpha) for x in times])
        w = pf.pauli_weights(t, alpha)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert np.array_equal(pf.squared_pauli_weights(t, alpha), pf.pauli_weights(t, 2.0 * alpha))

    def test_shapes(self):
        t = np.linspace(0.0, 2.0, 6).reshape(2, 3)
        assert pf.log_cosh(t).shape == (2, 3)
        assert pf.bloch_eigenvalues(t, 0.6).shape == (2, 3, 3)
        assert pf.pauli_weights(t, 0.6).shape == (2, 3, 4)
        assert pf.squared_pauli_weights(t, 0.6).shape == (2, 3, 4)
        assert pf.cp_criterion(t, 0.6).shape == (2, 3)
        assert pf.cp_criterion(t, 0.6).dtype == bool
        assert pf.bloch_eigenvalues(1.0, 0.6).shape == (3,)
        assert pf.pauli_weights(1.0, 0.6).shape == (4,)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_bad_time_inside_an_array_is_named(self, bad):
        times = np.array([0.0, 1.0, bad, 2.0])
        message = re.escape(f"time must be nonnegative and finite, got {bad}")
        for f in CLOSED_FORMS[1:]:
            with pytest.raises(ValueError, match=message):
                f(times, 0.6)
            with pytest.raises(ValueError, match="alpha"):
                f(times[:2], -1.0)


class TestHugeAlpha:
    """An alpha t past the largest double is a decay to exactly 0; the closed
    forms reach that limit without a warning (pytest turns one into an error)."""

    ALPHA = 8e307
    TIMES = np.array([0.0, 1e-300, 1.0, 5.0])

    def test_bloch_eigenvalues_and_weights_reach_their_limits(self):
        np.testing.assert_array_equal(pf.bloch_eigenvalues(self.TIMES, self.ALPHA),
                                      [[1.0] * 3] + [[0.0] * 3] * 3)
        for weights in (pf.pauli_weights, pf.squared_pauli_weights):
            w = weights(self.TIMES, self.ALPHA)
            np.testing.assert_array_equal(w[0], [1.0, 0.0, 0.0, 0.0])
            np.testing.assert_array_equal(w[1:], 0.25)
        np.testing.assert_array_equal(pf.channel(1.0, self.ALPHA), pf.pauli_channel(0.0, 0.0, 0.0))

    def test_cp_criterion_holds(self):
        assert pf.cp_criterion(self.TIMES, self.ALPHA).all()
        assert pf.cp_criterion(1.0, self.ALPHA)

    def test_log_cosh_past_half_the_largest_double(self):
        t = np.array([1e308, -1e308, np.inf, 373.0, 1e3, 2e3])
        np.testing.assert_array_equal(pf.log_cosh(t),
                                      [1e308, 1e308, np.inf] + [x - math.log(2.0) for x in t[3:]])


class TestChannel:
    def test_identity_at_origin(self):
        np.testing.assert_allclose(pf.channel(0.0, 0.7), np.eye(4), atol=1e-15)

    def test_choi_spectrum_is_twice_weights(self):
        for t in (0.3, 1.0, 2.5):
            for alpha in (0.5, 1.0, 1.5):
                eigs = np.sort(np.linalg.eigvalsh(so.choi(pf.channel(t, alpha))))
                expected = np.sort(2 * pf.pauli_weights(t, alpha))
                np.testing.assert_allclose(eigs, expected, atol=1e-12)

    def test_self_composition_matches_squared_weights(self):
        t, alpha = 1.2, 0.6
        squared = compose(pf.channel(t, alpha), pf.channel(t, alpha))
        expected = pf.pauli_channel(*pf.bloch_eigenvalues(t, alpha) ** 2)
        np.testing.assert_allclose(squared, expected, atol=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(so.choi(squared)))
        q = np.sort(2 * pf.squared_pauli_weights(t, alpha))
        np.testing.assert_allclose(eigs, q, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(EIGENVALUES, EIGENVALUES, EIGENVALUES)
    def test_pauli_channel_is_the_loop_sum(self, l1, l2, l3):
        assert np.array_equal(pf.pauli_channel(l1, l2, l3),
                              loop_pauli_channel(l1, l2, l3))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(EIGENVALUES, EIGENVALUES, EIGENVALUES), min_size=1, max_size=8))
    def test_a_stack_of_pauli_channels_is_the_maps_one_by_one(self, eigenvalues):
        l = np.array(eigenvalues)
        stack = pf.pauli_channel(l[:, 0], l[:, 1], l[:, 2])
        assert stack.shape == (len(l), 4, 4)
        for mat, l_k in zip(stack, eigenvalues):
            assert np.array_equal(mat, pf.pauli_channel(*l_k))
        # any shape of eigenvalue arrays: the stack keeps it
        grid = l[None].repeat(2, axis=0)
        assert np.array_equal(pf.pauli_channel(grid[..., 0], grid[..., 1], grid[..., 2]),
                              stack[None].repeat(2, axis=0))


class TestIntermediateChannel:
    def test_trivial_cases(self):
        np.testing.assert_allclose(intermediate_channel(1.0, 1.0, 0.8),
                                   np.eye(4), atol=1e-14)
        np.testing.assert_allclose(intermediate_channel(1.5, 0.0, 0.8),
                                   pf.channel(1.5, 0.8), atol=1e-14)

    def test_rejects_reversed_times(self):
        with pytest.raises(ValueError):
            intermediate_channel(0.5, 1.0, 0.8)

    def test_bloch_ratios_in_unit_interval(self):
        alpha = 0.65
        for s in (0.0, 0.4, 1.0, 2.0):
            for dt in (0.1, 0.7, 2.0):
                inter = intermediate_channel(s + dt, s, alpha)
                ratio = pf.bloch_eigenvalues(s + dt, alpha) / pf.bloch_eigenvalues(s, alpha)
                assert ((0.0 < ratio) & (ratio <= 1.0)).all()
                np.testing.assert_allclose(inter, pf.pauli_channel(*ratio), atol=1e-14)

    def test_divisibility_composition(self):
        alpha = 0.7
        grid = np.linspace(0.0, 4.0, 9)
        for s in grid:
            for t in grid:
                if t < s:
                    continue
                lhs = compose(intermediate_channel(float(t), float(s), alpha),
                                 pf.channel(float(s), alpha))
                np.testing.assert_allclose(lhs, pf.channel(float(t), alpha),
                                           atol=1e-10)


class TestGrid:
    def test_default_grid_shape(self):
        grid = pf.default_grid()
        assert len(grid) == 201
        assert grid[0] == 0.0
        assert grid[-1] == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pf.default_grid(points=0)
        with pytest.raises(ValueError):
            pf.default_grid(t_max=-1.0)
        with pytest.raises(ValueError, match="t_max"):
            pf.default_grid(t_max=math.nan, points=3)
        with pytest.raises(ValueError, match="t_max"):
            pf.default_grid(t_max=math.inf, points=3)
