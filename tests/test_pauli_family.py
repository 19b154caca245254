import math

import numpy as np
import pytest

from divischeck import pauli_family as pf
from divischeck import superop as so


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


class TestGeneratorEigenvalues:
    def test_origin_unit_strength(self):
        np.testing.assert_allclose(pf.generator_eigenvalues(0.0, 1.0),
                                   (0.0, -1.0, -1.0, -2.0))

    def test_identity_component_always_zero(self):
        for t in (0.0, 0.3, 2.0, 10.0):
            assert pf.generator_eigenvalues(t, 1.3)[0] == 0.0

    def test_direct_value(self):
        lam = pf.generator_eigenvalues(1.0, 0.5)
        assert lam[1] == pytest.approx(0.5 * (math.tanh(1.0) - 1.0))
        assert lam[3] == -1.0


class TestBlochEigenvalues:
    def test_identity_at_origin(self):
        assert pf.bloch_eigenvalues(0.0, 0.9).as_tuple() == (1.0, 1.0, 1.0)

    def test_unit_strength_values(self):
        l = pf.bloch_eigenvalues(1.0, 1.0)
        assert l.l1 == pytest.approx(math.exp(-1.0) * math.cosh(1.0), rel=1e-14)
        assert l.l3 == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_late_time_transverse_limit(self):
        # exp(-t) cosh(t) -> 1/2
        assert pf.bloch_eigenvalues(400.0, 1.0).l1 == pytest.approx(0.5, abs=1e-12)

    def test_no_overflow_at_huge_times(self):
        l = pf.bloch_eigenvalues(5000.0, 2.0)
        assert math.isfinite(l.l1) and math.isfinite(l.l3)
        assert l.l1 == pytest.approx(0.25, abs=1e-12)

    def test_never_exceed_one(self):
        for alpha in (0.1, 0.5, 1.0, 3.0):
            for t in np.linspace(0.0, 5.0, 51):
                l = pf.bloch_eigenvalues(float(t), alpha)
                assert max(abs(x) for x in l.as_tuple()) <= 1.0 + 1e-15


class TestPauliWeights:
    def test_identity_channel_at_origin(self):
        w = pf.pauli_weights(0.0, 0.5)
        np.testing.assert_allclose(w.as_array(), [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_sum_to_one_and_p1_equals_p2(self):
        for alpha in (0.3, 1.0, 2.5):
            for t in np.linspace(0.0, 5.0, 21):
                w = pf.pauli_weights(float(t), alpha)
                assert w.p0 + w.p1 + w.p2 + w.p3 == pytest.approx(1.0, abs=1e-12)
                assert w.p1 == w.p2

    def test_p3_vanishes_identically_at_unit_strength(self):
        # 2 exp(-t) cosh(t) = 1 + exp(-2t)
        for t in np.linspace(0.0, 6.0, 61):
            assert abs(pf.pauli_weights(float(t), 1.0).p3) <= 1e-14

    def test_value_against_naive_formula(self):
        t, alpha = 1.0, 0.75
        naive = 0.25 * (1.0 - 2.0 * math.exp(-alpha * t) * math.cosh(t) ** alpha
                        + math.exp(-2.0 * alpha * t))
        w = pf.pauli_weights(t, alpha)
        assert w.p3 == pytest.approx(naive, abs=1e-14)
        assert w.p3 == pytest.approx(-0.0212, abs=5e-5)

    def test_p3_sign_characterizes_strength(self):
        grid = pf.default_grid()
        for alpha in (0.3, 0.6, 0.9):
            assert min(pf.pauli_weights(float(t), alpha).p3 for t in grid) < 0
        for alpha in (1.0, 1.5, 2.0):
            assert min(pf.pauli_weights(float(t), alpha).p3 for t in grid) >= -1e-12


class TestSquaredWeights:
    def test_equals_doubled_strength(self):
        for alpha in (0.3, 0.5, 0.75):
            for t in np.linspace(0.0, 5.0, 100):
                q = pf.squared_pauli_weights(float(t), alpha).as_array()
                p2 = pf.pauli_weights(float(t), 2 * alpha).as_array()
                assert np.max(np.abs(q - p2)) <= 1e-14

    def test_boundary_half_strength(self):
        for t in np.linspace(0.0, 5.0, 50):
            assert abs(pf.squared_pauli_weights(float(t), 0.5).p3) <= 1e-14

    def test_origin(self):
        np.testing.assert_allclose(pf.squared_pauli_weights(0.0, 0.4).as_array(),
                                   [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_q3_nonnegative_iff_half_strength(self):
        grid = pf.default_grid()
        assert min(pf.squared_pauli_weights(float(t), 0.5).p3 for t in grid) >= -1e-12
        assert min(pf.squared_pauli_weights(float(t), 0.75).p3 for t in grid) >= -1e-12
        assert min(pf.squared_pauli_weights(float(t), 0.4).p3 for t in grid) < -1e-6


class TestCpCriterion:
    def test_above_unit_strength(self):
        # cosh(2) = 3.7622 >= cosh(1)^2 = 2.3811
        assert pf.cp_criterion(1.0, 2.0)

    def test_below_unit_strength(self):
        # cosh(0.5) = 1.1276 < cosh(1)^0.5 = 1.2422
        assert not pf.cp_criterion(1.0, 0.5)

    def test_equality_at_unit_strength(self):
        for t in np.linspace(0.0, 5.0, 26):
            assert pf.cp_criterion(float(t), 1.0)

    def test_large_time_log_path(self):
        assert pf.cp_criterion(500.0, 2.0)
        assert not pf.cp_criterion(500.0, 0.5)

    def test_agrees_with_p3_sign(self):
        for alpha in (0.5, 0.8, 1.0, 1.7):
            for t in np.linspace(0.0, 5.0, 26):
                assert pf.cp_criterion(float(t), alpha) == \
                    (pf.pauli_weights(float(t), alpha).p3 >= -1e-12)


class TestChannel:
    def test_identity_at_origin(self):
        np.testing.assert_allclose(pf.channel(0.0, 0.7).mat, np.eye(4), atol=1e-15)

    def test_choi_spectrum_is_twice_weights(self):
        for t in (0.3, 1.0, 2.5):
            for alpha in (0.5, 1.0, 1.5):
                eigs = np.sort(np.linalg.eigvalsh(so.choi(pf.channel(t, alpha))))
                expected = np.sort(2 * pf.pauli_weights(t, alpha).as_array())
                np.testing.assert_allclose(eigs, expected, atol=1e-12)

    def test_self_composition_matches_squared_weights(self):
        t, alpha = 1.2, 0.6
        squared = so.compose(pf.channel(t, alpha), pf.channel(t, alpha))
        l = pf.bloch_eigenvalues(t, alpha)
        expected = pf.pauli_channel(l.l1 ** 2, l.l2 ** 2, l.l3 ** 2)
        np.testing.assert_allclose(squared.mat, expected.mat, atol=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(so.choi(squared)))
        q = np.sort(2 * pf.squared_pauli_weights(t, alpha).as_array())
        np.testing.assert_allclose(eigs, q, atol=1e-12)


class TestIntermediateChannel:
    def test_trivial_cases(self):
        np.testing.assert_allclose(pf.intermediate_channel(1.0, 1.0, 0.8).mat,
                                   np.eye(4), atol=1e-14)
        np.testing.assert_allclose(pf.intermediate_channel(1.5, 0.0, 0.8).mat,
                                   pf.channel(1.5, 0.8).mat, atol=1e-14)

    def test_rejects_reversed_times(self):
        with pytest.raises(ValueError):
            pf.intermediate_channel(0.5, 1.0, 0.8)

    def test_bloch_ratios_in_unit_interval(self):
        alpha = 0.65
        for s in (0.0, 0.4, 1.0, 2.0):
            for dt in (0.1, 0.7, 2.0):
                inter = pf.intermediate_channel(s + dt, s, alpha)
                lt = pf.bloch_eigenvalues(s + dt, alpha)
                ls = pf.bloch_eigenvalues(s, alpha)
                for ratio in (lt.l1 / ls.l1, lt.l3 / ls.l3):
                    assert 0.0 < ratio <= 1.0
                np.testing.assert_allclose(
                    inter.mat,
                    pf.pauli_channel(lt.l1 / ls.l1, lt.l2 / ls.l2, lt.l3 / ls.l3).mat,
                    atol=1e-14)

    def test_divisibility_composition(self):
        alpha = 0.7
        grid = np.linspace(0.0, 4.0, 9)
        for s in grid:
            for t in grid:
                if t < s:
                    continue
                lhs = so.compose(pf.intermediate_channel(float(t), float(s), alpha),
                                 pf.channel(float(s), alpha))
                np.testing.assert_allclose(lhs.mat, pf.channel(float(t), alpha).mat,
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
