import math

import numpy as np
import pytest

from divischeck import infoflow as iflow
from divischeck import pauli_family as pf
from divischeck import superop as so
from divischeck.linalg import PAULI


def model_map(alpha):
    return lambda t: pf.channel(t, alpha)


def tensor_model_map(alpha):
    def at(t):
        ch = pf.channel(t, alpha)
        return so.tensor(ch, ch)
    return at


def z_pair():
    return iflow.StatePair(np.diag([1.0, 0.0]).astype(complex),
                           np.diag([0.0, 1.0]).astype(complex), label="z")


class TestStatePair:
    def test_accepts_valid_states(self):
        pair = z_pair()
        np.testing.assert_allclose(pair.difference(), PAULI[3], atol=1e-15)

    def test_rejects_nonhermitian(self):
        bad = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            iflow.StatePair(bad, np.eye(2, dtype=complex) / 2)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            iflow.StatePair(np.eye(2, dtype=complex),
                            np.eye(2, dtype=complex) / 2)

    def test_rejects_negative_states(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="positive semidefinite"):
            iflow.StatePair(bad, np.eye(2, dtype=complex) / 2)


class TestInformationFlow:
    def test_identity_dynamics_has_zero_flow(self):
        sample = iflow.information_flow(lambda t: so.identity(2), z_pair(), 1.0)
        assert abs(sample.sigma) <= 1e-10

    def test_model_z_pair_matches_analytic_rate(self):
        # difference = sigma_3, norm 2 exp(-2 a t), rate -4 a exp(-2 a t)
        alpha = 0.6
        for t in (0.3, 1.0, 2.0):
            sample = iflow.information_flow(model_map(alpha), z_pair(), t)
            expected = -4.0 * alpha * math.exp(-2.0 * alpha * t)
            assert sample.sigma == pytest.approx(expected, rel=1e-6)
            assert not sample.one_sided

    def test_single_map_flow_never_positive(self):
        alpha = 0.6
        rng = np.random.default_rng(0)
        for _ in range(10):
            pair = iflow.haar_orthogonal_pair(2, rng)
            for t in (0.2, 1.0, 3.0):
                assert iflow.information_flow(model_map(alpha), pair, t).sigma <= 1e-9

    def test_one_sided_flag_near_origin(self):
        sample = iflow.information_flow(model_map(0.6), z_pair(), 0.0, h=1e-4)
        assert sample.one_sided

    def test_finite_difference_second_order(self):
        alpha = 0.6
        pair = z_pair()
        t = 1.0
        s_h = iflow.information_flow(model_map(alpha), pair, t, h=2e-3).sigma
        s_h2 = iflow.information_flow(model_map(alpha), pair, t, h=1e-3).sigma
        s_h4 = iflow.information_flow(model_map(alpha), pair, t, h=5e-4).sigma
        ratio = abs(s_h - s_h2) / abs(s_h2 - s_h4)
        assert 2.5 <= ratio <= 6.0

    def test_trace_norm_monotone_for_single_map(self):
        alpha = 0.6
        rng = np.random.default_rng(1)
        grid = pf.default_grid(t_max=4.0, points=40)
        for _ in range(5):
            pair = iflow.haar_orthogonal_pair(2, rng)
            delta = pair.difference()
            norms = [np.abs(np.linalg.eigvalsh(
                so.apply(pf.channel(float(t), alpha), delta))).sum() for t in grid]
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


class TestPairLibraries:
    def test_bell_pairs_count_and_orthogonality(self):
        pairs = iflow.bell_pairs()
        assert len(pairs) == 6
        for p in pairs:
            assert abs(np.trace(p.rho1 @ p.rho2)) <= 1e-12

    def test_product_pairs(self):
        assert len(iflow.product_pairs()) == 6

    def test_tilted_parity_pair_is_mixed_and_valid(self):
        (pair,) = iflow.tilted_parity_pairs()
        for rho in (pair.rho1, pair.rho2):
            assert np.linalg.eigvalsh(rho)[0] >= -1e-12
            purity = float(np.real(np.trace(rho @ rho)))
            assert purity < 0.5  # genuinely mixed

    def test_haar_pairs_deterministic_given_seed(self):
        p1 = iflow.haar_orthogonal_pair(4, np.random.default_rng(5))
        p2 = iflow.haar_orthogonal_pair(4, np.random.default_rng(5))
        np.testing.assert_array_equal(p1.rho1, p2.rho1)


class TestBackflowScan:
    def test_single_map_clean(self):
        grid = pf.default_grid(t_max=4.0, points=50)
        report = iflow.backflow_scan(model_map(0.6), 2, grid, samples=30, seed=2)
        assert report.max_sigma <= 1e-6

    def test_tensor_map_superactivation(self):
        grid = pf.default_grid(t_max=4.0, points=50)
        report = iflow.backflow_scan(tensor_model_map(0.6), 4, grid,
                                     samples=30, seed=2)
        assert report.max_sigma > 1e-4
        assert report.argmax_label == "mixed:tilted-parity"

    def test_semigroup_tensor_clean(self):
        def semi_tensor(t):
            ch = pf.semigroup_channel(t, 1.0)
            return so.tensor(ch, ch)
        grid = pf.default_grid(t_max=3.0, points=30)
        report = iflow.backflow_scan(semi_tensor, 4, grid, samples=20, seed=3)
        assert report.max_sigma <= 1e-6

    def test_deterministic_given_seed(self):
        grid = pf.default_grid(t_max=2.0, points=20)
        r1 = iflow.backflow_scan(model_map(0.6), 2, grid, samples=10, seed=4)
        r2 = iflow.backflow_scan(model_map(0.6), 2, grid, samples=10, seed=4)
        np.testing.assert_array_equal(r1.sigma, r2.sigma)

    def test_information_flow_matches_scan_entries(self):
        grid = np.array([0.0, 0.7, 1.9])
        report = iflow.backflow_scan(tensor_model_map(0.6), 4, grid, samples=3, seed=6)
        for k, pair in enumerate(report.pairs):
            for ti, t in enumerate(grid):
                sample = iflow.information_flow(tensor_model_map(0.6), pair, float(t))
                assert sample.one_sided == report.one_sided[ti]
                assert sample.sigma == pytest.approx(report.sigma[k, ti], abs=1e-10)

    def test_one_sided_column_flagged(self):
        grid = np.array([0.0, 0.5, 1.0])
        report = iflow.backflow_scan(model_map(0.6), 2, grid, samples=5, seed=5)
        assert report.one_sided[0]
        assert not report.one_sided[1]

    @pytest.mark.parametrize("dim, labels", [
        (2, ["axis:z", "axis:x", "axis:y"]),
        (4, ["bell:phi+/phi-", "bell:phi+/psi+", "bell:phi+/psi-",
             "bell:phi-/psi+", "bell:phi-/psi-", "bell:psi+/psi-",
             "prod:00/01", "prod:00/10", "prod:00/11",
             "prod:01/10", "prod:01/11", "prod:10/11",
             "mixed:tilted-parity"]),
    ])
    def test_scans_the_library_in_order(self, dim, labels):
        report = iflow.backflow_scan(lambda t: so.identity(dim), dim,
                                     np.array([0.0, 1.0]), samples=0, seed=0)
        assert [p.label for p in report.pairs] == labels
        assert [p.label for p in iflow.pair_library(dim)] == labels
        assert report.sigma.shape == (len(labels), 2)

    def test_requires_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            iflow.backflow_scan(lambda t: so.identity(3), 3,
                                np.array([0.0, 1.0]), samples=0, seed=0)

    @pytest.mark.parametrize("h", [0.0, -1e-4])
    def test_rejects_nonpositive_step(self, h):
        with pytest.raises(ValueError, match="must be positive"):
            iflow.backflow_scan(model_map(0.6), 2, np.array([0.0, 1.0]),
                                samples=2, seed=0, h=h)
