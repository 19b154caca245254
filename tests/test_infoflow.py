import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divischeck import infoflow as iflow
from divischeck import pauli_family as pf
from divischeck import superop as so
from divischeck.linalg import PAULI
from oracles import flow_column, trace_norms

PROPERTY = settings(max_examples=60, deadline=None)
FLOOR = iflow.EIGEN_FLOOR


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        rho = np.array([[bad, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="rho1 has non-finite entries"):
            iflow.StatePair(rho, np.eye(2, dtype=complex) / 2)


def _eigenvalue(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_subnormal=False)


@st.composite
def qubit_operators(draw):
    """(x, scale): a 2 x 2 Hermitian operator with drawn eigenvalues in a
    drawn eigenbasis, plus an anti-Hermitian part of rounding size; scale
    is its largest eigenvalue magnitude."""
    kind = draw(st.sampled_from(["generic", "degenerate", "floor"]))
    big = draw(_eigenvalue(-10.0, 10.0))
    if kind == "generic":
        small = draw(_eigenvalue(-10.0, 10.0))
    elif kind == "degenerate":           # |r| about 0
        small = big + draw(_eigenvalue(-1e-12, 1e-12))
    else:                                # one eigenvalue either side of the floor
        big = math.copysign(max(abs(big), 1e-3), big)
        small = FLOOR * draw(st.sampled_from([-1.0, 1.0])) * draw(
            st.one_of(_eigenvalue(0.01, 0.5), _eigenvalue(2.0, 100.0)))
    # rounding may move an eigenvalue this close to the floor across it
    assume(not any(0.5 * FLOOR <= abs(v) <= 2.0 * FLOOR for v in (big, small)))
    theta = draw(_eigenvalue(0.0, math.pi))
    phi = draw(_eigenvalue(0.0, 2.0 * math.pi))
    u = np.array([[math.cos(theta), -np.exp(-1j * phi) * math.sin(theta)],
                  [np.exp(1j * phi) * math.sin(theta), math.cos(theta)]])
    scale = max(abs(big), abs(small))
    noise = np.array(draw(st.lists(_eigenvalue(-1.0, 1.0), min_size=8, max_size=8)))
    k = (noise[:4] + 1j * noise[4:]).reshape(2, 2)
    x = u @ np.diag([big, small]) @ u.conj().T + 1e-16 * scale * (k - k.conj().T)
    return x, scale


def pauli_dynamics():
    """Random qubit Pauli dynamics, Bloch eigenvalues exp(-g_k t) cos(w_k t)."""
    rates = st.lists(_eigenvalue(0.0, 3.0), min_size=6, max_size=6)

    def family(gw):
        g, w = np.array(gw[:3]), np.array(gw[3:])
        return lambda t: pf.pauli_channel(*(np.exp(-g * t) * np.cos(w * t)))
    return rates.map(family)


class TestTraceNorms:
    @PROPERTY
    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(qubit_operators(), min_size=2 * n, max_size=2 * n)))
    def test_qubit_closed_form_matches_eigvalsh(self, ops):
        x = np.stack([op for op, _ in ops]).reshape(2, -1, 2, 2)
        scale = np.array([s for _, s in ops]).reshape(2, -1)
        got = iflow._trace_norms(x)
        assert got.shape == scale.shape
        assert np.all(np.abs(got - trace_norms(x)) <= 1e-14 * scale)

    @settings(max_examples=30, deadline=None)
    @given(pauli_dynamics(), st.integers(0, 2**32 - 1), st.booleans())
    def test_scan_matches_the_eigvalsh_oracle(self, single, seed, squared):
        if squared:
            dim, map_at = 4, lambda t: so.tensor(single(t), single(t))
        else:
            dim, map_at = 2, single
        grid = np.array([0.0, 0.4, 1.3, 2.9])
        report = iflow.backflow_scan(map_at, dim, grid, samples=3, seed=seed)
        deltas = np.stack([p.difference() for p in report.pairs])
        want = np.stack([flow_column(map_at, deltas, float(t), 1e-4) for t in grid], axis=1)
        np.testing.assert_allclose(report.sigma, want, rtol=0, atol=1e-10)

    def test_qubit_scan_solves_no_eigenproblem(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        grid = np.array([0.0, 0.5, 1.0])
        iflow.backflow_scan(model_map(0.6), 2, grid, samples=4, seed=0)
        assert [s for s in shapes if len(s) > 2 and s[-2:] == (2, 2)] == []
        # the recorder does see the stacks a two-qubit scan solves
        iflow.backflow_scan(tensor_model_map(0.6), 4, grid, samples=4, seed=0)
        assert [s for s in shapes if len(s) > 2] == [(2, 17, 4, 4)] * len(grid)


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

    @pytest.mark.parametrize("t, h, message", [
        (1.0, 0.0, "step h must be positive and finite"),
        (1.0, math.inf, "step h must be positive and finite"),
        (math.nan, 1e-4, "time t must be finite"),
        (math.inf, 1e-4, "time t must be finite"),
    ], ids=["h-zero", "h-inf", "t-nan", "t-inf"])
    def test_rejects_bad_time_or_step(self, t, h, message):
        with pytest.raises(ValueError, match=message):
            iflow.information_flow(lambda t: so.identity(2), z_pair(), t, h=h)

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

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError, match="samples must be nonnegative"):
            iflow.backflow_scan(model_map(0.6), 2, np.array([0.0, 1.0]),
                                samples=-1, seed=0)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="grid is empty"):
            iflow.backflow_scan(model_map(0.6), 2, np.array([]), samples=2, seed=0)

    @pytest.mark.parametrize("grid", [1.0, np.zeros((2, 3))], ids=["scalar", "2-d"])
    def test_rejects_a_grid_that_is_not_1d(self, grid):
        with pytest.raises(ValueError, match="grid must be a 1-d array of times"):
            iflow.backflow_scan(model_map(0.6), 2, grid, samples=2, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_grid(self, bad):
        with pytest.raises(ValueError, match="grid must be finite"):
            iflow.backflow_scan(lambda t: so.identity(2), 2,
                                np.array([0.0, bad, 1.0]), samples=2, seed=0)

    @pytest.mark.parametrize("h", [0.0, -1e-4, math.inf])
    def test_rejects_nonpositive_step(self, h):
        with pytest.raises(ValueError, match="must be positive"):
            iflow.backflow_scan(model_map(0.6), 2, np.array([0.0, 1.0]),
                                samples=2, seed=0, h=h)
