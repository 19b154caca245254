import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divischeck import infoflow as iflow
from divischeck import pauli_family as pf
from divischeck import superop as so
from divischeck.linalg import PAULI
from oracles import flow_column, haar_orthogonal_pair, trace_norms

PROPERTY = settings(max_examples=60, deadline=None)
FLOOR = iflow.EIGEN_FLOOR


def model_map(alpha):
    return lambda t: pf.channel(t, alpha)


def tensor_model_map(alpha):
    def at(t):
        ch = pf.channel(t, alpha)
        return so.tensor(ch, ch)
    return at


def one_pair(rho1, rho2, label="p"):
    return iflow.StatePairs([[rho1, rho2]], [label])


def z_pair():
    return one_pair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), label="z")


def differences(pairs):
    return pairs.states[:, 0] - pairs.states[:, 1]


def each_pair(pairs):
    """Every pair of a set as a one-pair set of its own."""
    return [iflow.StatePairs(pairs.states[k:k + 1], pairs.labels[k:k + 1])
            for k in range(len(pairs))]


# one bad qubit state per check, in the order the checks run
FAULTS = [
    (np.array([[math.nan, 0.0], [0.0, 1.0]]), "has non-finite entries"),
    (np.array([[0.5, 1.0], [0.0, 0.5]]), "is not Hermitian"),
    (np.eye(2), "does not have unit trace"),
    (np.diag([1.5, -0.5]), "is not positive semidefinite"),
]
FAULT_IDS = ["non-finite", "non-hermitian", "trace", "negative"]


class TestStatePairs:
    def test_accepts_valid_states(self):
        pairs = z_pair()
        assert pairs.labels == ("z",)
        assert pairs.states.shape == (1, 2, 2, 2) and pairs.states.dtype == complex
        np.testing.assert_allclose(differences(pairs)[0], PAULI[3], atol=1e-15)

    def test_holds_a_read_only_copy_of_the_checked_stack(self):
        states = np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]], dtype=complex)
        pairs = iflow.StatePairs(states, ["z"])
        states[0, 0] = math.nan
        assert np.isfinite(pairs.states).all()
        with pytest.raises(ValueError, match="read-only"):
            pairs.states[0, 0] = math.nan

    def test_rejects_nonhermitian(self):
        bad = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            one_pair(bad, np.eye(2, dtype=complex) / 2)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            one_pair(np.eye(2, dtype=complex), np.eye(2, dtype=complex) / 2)

    def test_rejects_negative_states(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="positive semidefinite"):
            one_pair(bad, np.eye(2, dtype=complex) / 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        rho = np.array([[bad, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="pair p rho1 has non-finite entries"):
            one_pair(rho, np.eye(2, dtype=complex) / 2)

    @pytest.mark.parametrize("bad, message", FAULTS, ids=FAULT_IDS)
    @pytest.mark.parametrize("slot", [1, 2])
    def test_names_the_faulty_state(self, bad, message, slot):
        # both states are checked in one stacked pass; the message names the bad one
        good = np.eye(2, dtype=complex) / 2
        states = (bad, good) if slot == 1 else (good, bad)
        with pytest.raises(ValueError, match=f"^pair p rho{slot} {message}"):
            one_pair(*states)

    @pytest.mark.parametrize("states, labels", [
        (np.zeros((2, 2, 2)), ["a", "b"]),
        (np.zeros((1, 3, 2, 2)), ["a"]),
        (np.zeros((1, 2, 2, 3)), ["a"]),
        (np.zeros((1, 2, 2, 2)), ["a", "b"]),
        (np.zeros(()), []),
    ], ids=["no-slot-axis", "three-slots", "not-square", "label-count", "scalar"])
    def test_rejects_a_stack_of_the_wrong_shape(self, states, labels):
        n = len(labels)
        with pytest.raises(ValueError, match=re.escape(
                f"{n} labeled state pairs need an ({n}, 2, d, d) stack, "
                f"got shape {states.shape}")):
            iflow.StatePairs(states, labels)

    def test_join_keeps_both_sets_in_order(self):
        a, b = iflow.pair_library(2, 2, seed=1), z_pair()
        joined = a + b
        assert joined.labels == a.labels + b.labels
        np.testing.assert_array_equal(joined.states, np.concatenate([a.states, b.states]))
        assert not joined.states.flags.writeable

    def test_sets_of_different_dimensions_do_not_join(self):
        with pytest.raises(ValueError, match="must match exactly"):
            iflow.pair_library(2) + iflow.pair_library(4)


class TestStackedStateCheck:
    @staticmethod
    def library_stack(dim, samples):
        pairs = iflow.pair_library(dim, samples, seed=3)
        return np.array(pairs.states), pairs.labels

    @pytest.mark.parametrize("bad, message", FAULTS, ids=FAULT_IDS)
    def test_names_the_first_bad_state_by_pair_label_and_slot(self, bad, message):
        states, labels = self.library_stack(2, 4)
        for k in range(len(labels)):
            for slot in (1, 2):
                # the state at (k, slot) and every state after it is bad
                stack = states.copy()
                stack[k, slot - 1:] = bad
                stack[k + 1:] = bad
                with pytest.raises(ValueError, match=f"^pair {re.escape(labels[k])} "
                                                     f"rho{slot} {message}"):
                    iflow.StatePairs(stack, labels)

    def test_each_check_covers_the_whole_stack_before_the_next(self):
        # a non-Hermitian first state loses to a non-finite last one
        states, labels = self.library_stack(2, 4)
        states[0, 0], states[-1, 1] = FAULTS[1][0], FAULTS[0][0]
        with pytest.raises(ValueError,
                           match=f"^pair {re.escape(labels[-1])} rho2 has non-finite"):
            iflow.StatePairs(states, labels)

    @pytest.mark.parametrize("dim, samples, count", [(4, 0, 13), (2, 0, 3), (3, 2, 2)])
    def test_library_counts(self, dim, samples, count):
        assert len(iflow.pair_library(dim, samples)) == count

    def test_library_checks_each_family_and_each_join_with_one_stacked_solve(self,
                                                                             monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        assert len(iflow.pair_library(4, 100)) == 113
        # the Haar stack, then one solve each for the Bell, product and
        # tilted-parity families and for each of the three joins, in order
        assert shapes == [(100, 2, 4, 4), (6, 2, 4, 4), (6, 2, 4, 4), (12, 2, 4, 4),
                          (1, 2, 4, 4), (13, 2, 4, 4), (113, 2, 4, 4)]


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
        report = iflow.backflow_scan(map_at, iflow.pair_library(dim, 3, seed), grid)
        deltas = differences(report.pairs)
        want = np.stack([flow_column(map_at, deltas, float(t), 1e-4) for t in grid], axis=1)
        np.testing.assert_allclose(report.sigma, want, rtol=0, atol=1e-10)

    def test_qubit_scan_solves_no_eigenproblem(self, monkeypatch):
        # the pairs are built (and their states checked) before the recorder
        # is installed, so it sees only the scans' own eigensolves
        qubit_pairs, two_qubit_pairs = iflow.pair_library(2, 4), iflow.pair_library(4, 4)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        grid = np.linspace(0.0, 1.0, iflow._BLOCK + 2)
        iflow.backflow_scan(model_map(0.6), qubit_pairs, grid)
        assert shapes == []
        # the recorder does see the stacks a two-qubit scan solves: one per block
        iflow.backflow_scan(tensor_model_map(0.6), two_qubit_pairs, grid)
        assert shapes == [(iflow._BLOCK, 2, 17, 4, 4), (2, 2, 17, 4, 4)]

    @pytest.mark.parametrize("squared", [False, True], ids=["qubit", "tensor"])
    @pytest.mark.parametrize("start", [0.0, 0.5], ids=["from-0", "from-0.5"])
    @pytest.mark.parametrize("n", [1, iflow._BLOCK, iflow._BLOCK + 1],
                             ids=["one", "block", "block+1"])
    def test_blocks_match_the_per_time_oracle(self, monkeypatch, squared, start, n):
        # from 0 the first block mixes the forward difference at t = 0 < h
        # with central ones
        calls = []
        single = model_map(0.6)

        def map_at(t):
            calls.append(t)
            return so.tensor(single(t), single(t)) if squared else single(t)

        stacks = []
        trace_norms_ = iflow._trace_norms

        def recording(x):
            stacks.append(x.shape)
            return trace_norms_(x)

        monkeypatch.setattr(iflow, "_trace_norms", recording)
        grid = start + np.linspace(0.0, 0.2 * n, n, endpoint=False)
        report = iflow.backflow_scan(map_at, iflow.pair_library(4 if squared else 2, 3, 9),
                                     grid)
        assert len(calls) == 2 * len(grid)
        assert all(math.prod(shape[:-3]) <= 2 * iflow._BLOCK for shape in stacks)
        deltas = differences(report.pairs)
        for k, t in enumerate(grid.tolist()):
            want = flow_column(map_at, deltas, t, 1e-4, norms=trace_norms_)
            np.testing.assert_array_equal(report.sigma[:, k], want)


@st.composite
def pair_sets(draw, dim):
    """A nonempty run of consecutive pairs of a drawn library."""
    pairs = iflow.pair_library(dim, draw(st.integers(0, 5)), draw(st.integers(0, 2**32 - 1)))
    i = draw(st.integers(0, len(pairs) - 1))
    j = draw(st.integers(i + 1, len(pairs)))
    return iflow.StatePairs(pairs.states[i:j], pairs.labels[i:j])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(lambda dim: st.tuples(pair_sets(dim), pair_sets(dim))),
       pauli_dynamics())
def test_scan_of_a_join_is_the_scans_of_its_parts(parts, single):
    a, b = parts
    if a.states.shape[-1] == 2:
        map_at = single
    else:
        map_at = lambda t: so.tensor(single(t), single(t))  # noqa: E731
    grid = np.array([0.0, 0.4, 1.3, 2.9, 3.1])  # two blocks
    joined = iflow.backflow_scan(map_at, a + b, grid)
    assert joined.pairs.labels == a.labels + b.labels
    rows = [iflow.backflow_scan(map_at, part, grid).sigma for part in (a, b)]
    np.testing.assert_array_equal(joined.sigma, np.concatenate(rows))


def one_pair_flow(map_at, pair, times, h=1e-4):
    """Flow rates of a one-pair set at the given times, from its scan."""
    return iflow.backflow_scan(map_at, pair, np.atleast_1d(times), h=h).sigma[0]


class TestInformationFlow:
    def test_identity_dynamics_has_zero_flow(self):
        (sigma,) = one_pair_flow(lambda t: so.identity(2), z_pair(), 1.0)
        assert abs(sigma) <= 1e-10

    def test_model_z_pair_matches_analytic_rate(self):
        # difference = sigma_3, norm 2 exp(-2 a t), rate -4 a exp(-2 a t)
        alpha = 0.6
        times = np.array([0.3, 1.0, 2.0])
        sigma = one_pair_flow(model_map(alpha), z_pair(), times)
        expected = -4.0 * alpha * np.exp(-2.0 * alpha * times)
        np.testing.assert_allclose(sigma, expected, rtol=1e-6)

    def test_single_map_flow_never_positive(self):
        alpha = 0.6
        for pair in each_pair(iflow.pair_library(2, 10, seed=0))[3:]:
            assert np.all(one_pair_flow(model_map(alpha), pair, [0.2, 1.0, 3.0]) <= 1e-9)

    def test_forward_difference_near_origin(self):
        # at t = 0 < h the rate is (N(h) - N(0)) / h, with N(t) = 2 exp(-2 a t)
        alpha, h = 0.6, 1e-4
        pair = z_pair()
        (sigma,) = one_pair_flow(model_map(alpha), pair, 0.0, h=h)
        (want,) = flow_column(model_map(alpha), differences(pair), 0.0, h)
        assert sigma == pytest.approx(want, abs=1e-10)
        assert sigma == pytest.approx(2.0 * math.expm1(-2.0 * alpha * h) / h, rel=1e-9)

    @pytest.mark.parametrize("t, h, message", [
        (1.0, 0.0, "step h must be positive and finite"),
        (1.0, math.inf, "step h must be positive and finite"),
        (math.nan, 1e-4, "grid must be finite"),
        (math.inf, 1e-4, "grid must be finite"),
    ], ids=["h-zero", "h-inf", "t-nan", "t-inf"])
    def test_rejects_bad_time_or_step(self, t, h, message):
        with pytest.raises(ValueError, match=message):
            one_pair_flow(lambda t: so.identity(2), z_pair(), t, h=h)

    def test_finite_difference_second_order(self):
        alpha = 0.6
        pair = z_pair()
        t = 1.0
        s_h, s_h2, s_h4 = (one_pair_flow(model_map(alpha), pair, t, h=h)[0]
                           for h in (2e-3, 1e-3, 5e-4))
        ratio = abs(s_h - s_h2) / abs(s_h2 - s_h4)
        assert 2.5 <= ratio <= 6.0

    def test_trace_norm_monotone_for_single_map(self):
        alpha = 0.6
        grid = pf.default_grid(t_max=4.0, points=40)
        for delta in differences(iflow.pair_library(2, 5, seed=1))[3:]:
            norms = [np.abs(np.linalg.eigvalsh(
                so.apply(pf.channel(float(t), alpha), delta))).sum() for t in grid]
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


class TestPairLibraries:
    def test_bell_pairs_count_and_orthogonality(self):
        pairs = iflow.bell_pairs()
        assert len(pairs) == 6
        for rho1, rho2 in pairs.states:
            assert abs(np.trace(rho1 @ rho2)) <= 1e-12

    def test_product_pairs(self):
        assert len(iflow.product_pairs()) == 6

    def test_tilted_parity_pair_is_mixed_and_valid(self):
        pairs = iflow.tilted_parity_pairs()
        assert pairs.labels == ("mixed:tilted-parity",)
        for rho in pairs.states[0]:
            assert np.linalg.eigvalsh(rho)[0] >= -1e-12
            purity = float(np.real(np.trace(rho @ rho)))
            assert purity < 0.5  # genuinely mixed

    @pytest.mark.parametrize("dim", [2, 4])
    def test_library_haar_pairs_match_the_per_pair_draw(self, dim):
        # one stacked draw and QR reproduce drawing and factoring pair by pair
        rng = np.random.default_rng(7)
        want = np.stack([haar_orthogonal_pair(dim, rng) for _ in range(20)])
        got = iflow.pair_library(dim, 20, seed=7)
        assert got.labels[-20:] == tuple(f"haar:{k}" for k in range(20))
        np.testing.assert_array_equal(got.states[-20:], want)

    def test_haar_pairs_deterministic_given_seed(self):
        p1, p2 = (iflow.pair_library(4, 3, seed=5) for _ in range(2))
        assert p1.labels == p2.labels
        np.testing.assert_array_equal(p1.states, p2.states)

    @pytest.mark.parametrize("dim", [1, 0, -2])
    def test_rejects_a_dimension_without_an_orthogonal_pair(self, dim):
        with pytest.raises(ValueError, match=rf"dimension at least 2, got {dim}$"):
            iflow.pair_library(dim, 2)


class TestBackflowScan:
    def test_single_map_clean(self):
        grid = pf.default_grid(t_max=4.0, points=50)
        report = iflow.backflow_scan(model_map(0.6), iflow.pair_library(2, 30, 2), grid)
        assert report.max_sigma <= 1e-6

    def test_tensor_map_superactivation(self):
        grid = pf.default_grid(t_max=4.0, points=50)
        report = iflow.backflow_scan(tensor_model_map(0.6), iflow.pair_library(4, 30, 2),
                                     grid)
        assert report.max_sigma > 1e-4
        assert report.argmax_label == "mixed:tilted-parity"

    def test_semigroup_tensor_clean(self):
        def semi_tensor(t):
            ch = pf.semigroup_channel(t, 1.0)
            return so.tensor(ch, ch)
        grid = pf.default_grid(t_max=3.0, points=30)
        report = iflow.backflow_scan(semi_tensor, iflow.pair_library(4, 20, 3), grid)
        assert report.max_sigma <= 1e-6

    def test_deterministic_given_seed(self):
        grid = pf.default_grid(t_max=2.0, points=20)
        r1 = iflow.backflow_scan(model_map(0.6), iflow.pair_library(2, 10, 4), grid)
        r2 = iflow.backflow_scan(model_map(0.6), iflow.pair_library(2, 10, 4), grid)
        np.testing.assert_array_equal(r1.sigma, r2.sigma)
        assert r1.pairs.labels == r2.pairs.labels

    def test_one_pair_scans_match_the_full_scan(self):
        grid = np.array([0.0, 0.7, 1.9])
        report = iflow.backflow_scan(tensor_model_map(0.6), iflow.pair_library(4, 3, 6), grid)
        for k, pair in enumerate(each_pair(report.pairs)):
            np.testing.assert_array_equal(one_pair_flow(tensor_model_map(0.6), pair, grid),
                                          report.sigma[k])

    @pytest.mark.parametrize("dim, labels", [
        (2, ["axis:z", "axis:x", "axis:y"]),
        (4, ["bell:phi+/phi-", "bell:phi+/psi+", "bell:phi+/psi-",
             "bell:phi-/psi+", "bell:phi-/psi-", "bell:psi+/psi-",
             "prod:00/01", "prod:00/10", "prod:00/11",
             "prod:01/10", "prod:01/11", "prod:10/11",
             "mixed:tilted-parity"]),
    ])
    def test_scans_the_library_in_order(self, dim, labels):
        report = iflow.backflow_scan(lambda t: so.identity(dim), iflow.pair_library(dim),
                                     np.array([0.0, 1.0]))
        assert report.pairs.labels == tuple(labels)
        assert iflow.pair_library(dim).labels == tuple(labels)
        assert report.sigma.shape == (len(labels), 2)

    def test_requires_pairs(self):
        pairs = iflow.pair_library(3)
        assert pairs.states.shape == (0, 2, 3, 3) and pairs.labels == ()
        with pytest.raises(ValueError, match="no state pairs to scan"):
            iflow.backflow_scan(lambda t: so.identity(3), pairs, np.array([0.0, 1.0]))

    def test_rejects_a_map_of_the_wrong_shape(self):
        message = "superoperator on dimension 2 needs a 4 x 4 matrix, got shape (2, 2, 4, 5)"
        with pytest.raises(ValueError, match=re.escape(message)):
            iflow.backflow_scan(lambda t: np.zeros((4, 5), dtype=complex),
                                iflow.pair_library(2), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("squared", [False, True], ids=["qubit", "tensor"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_map_with_non_finite_entries(self, squared, bad):
        def map_at(t):
            ch = pf.channel(t, 0.6)
            m = so.tensor(ch, ch) if squared else ch
            if t > 1.0:
                m = np.where(np.eye(len(m)) > 0, bad, m)
            return m

        grid = np.linspace(0.0, 2.0, 3 * iflow._BLOCK)
        t_bad = (grid[grid > 1.0][0] - 1e-4).item()
        with pytest.raises(ValueError, match=rf"map at t={t_bad!r} has non-finite entries"):
            iflow.backflow_scan(map_at, iflow.pair_library(4 if squared else 2, 2), grid)

    @pytest.mark.parametrize("dim, map_at, t_bad", [
        (2, lambda t: 1j * so.identity(2) * (1 + t), 0.0),
        # only entry (1, 4) of the map's matrix moves with t
        (4, lambda t: so.identity(4) + t * np.outer(np.eye(16)[1], np.eye(16)[4]), 1e-4),
    ], ids=["qubit", "two-qubit"])
    def test_rejects_a_map_that_is_not_hermiticity_preserving(self, dim, map_at, t_bad):
        # the trace norms read only lower triangles: such maps gave numbers,
        # max_sigma 2.000000000002 and 0.5027, instead of an error
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match=rf"^map at t={t_bad!r} is not "
                                             r"Hermiticity-preserving$"):
            iflow.backflow_scan(map_at, iflow.pair_library(dim, 3), grid)

    def test_refuses_a_scan_past_its_sample_bound_before_any_map(self, monkeypatch):
        calls = []

        def map_at(t):
            calls.append(t)
            return pf.channel(t, 0.6)

        pairs, grid = iflow.pair_library(2, 2), np.linspace(0.0, 1.0, 5)
        monkeypatch.setattr(iflow, "MAX_FLOW_SAMPLES", 25)
        assert iflow.backflow_scan(map_at, pairs, grid).sigma.shape == (5, 5)
        calls.clear()
        monkeypatch.setattr(iflow, "MAX_FLOW_SAMPLES", 24)
        with pytest.raises(ValueError, match=r"^the scan needs 25 \(pair, time\) samples, more "
                                             r"than the bound MAX_FLOW_SAMPLES = 24$"):
            iflow.backflow_scan(map_at, pairs, grid)
        assert calls == []

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError, match="samples must be nonnegative"):
            iflow.pair_library(2, samples=-1)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="grid is empty"):
            iflow.backflow_scan(model_map(0.6), iflow.pair_library(2, 2), np.array([]))

    @pytest.mark.parametrize("grid", [1.0, np.zeros((2, 3))], ids=["scalar", "2-d"])
    def test_rejects_a_grid_that_is_not_1d(self, grid):
        with pytest.raises(ValueError, match="grid must be a 1-d array of times"):
            iflow.backflow_scan(model_map(0.6), iflow.pair_library(2, 2), grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_grid(self, bad):
        with pytest.raises(ValueError, match="grid must be finite"):
            iflow.backflow_scan(lambda t: so.identity(2), iflow.pair_library(2, 2),
                                np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize("grid", [[2.0, 1.0], [0.0, 0.0]], ids=["descending", "repeated"])
    def test_rejects_a_grid_that_is_not_ascending(self, grid):
        with pytest.raises(ValueError, match="grid must be strictly ascending"):
            iflow.backflow_scan(lambda t: so.identity(2), iflow.pair_library(2), grid)

    @pytest.mark.parametrize("h", [0.0, -1e-4, math.inf])
    def test_rejects_nonpositive_step(self, h):
        calls = []

        def map_at(t):
            calls.append(t)
            return pf.channel(t, 0.6)

        with pytest.raises(ValueError, match="must be positive"):
            iflow.backflow_scan(map_at, iflow.pair_library(2, 2), np.array([0.0, 1.0]), h=h)
        assert calls == []  # rejected before any map is built
