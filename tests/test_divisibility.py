import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from divischeck import divisibility as dv
from divischeck import generator as gen
from divischeck import pauli_family as pf
from divischeck import superop as so
from divischeck.linalg import PAULI
from oracles import i_major_intermediates, intermediate_channel, pair_by_pair_cp_scan

STEP = 1e-3
ENTRIES = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def model_family(grid, alpha):
    return gen.propagate(gen.model_generator(alpha), grid, STEP)


def semigroup_family(grid, alpha):
    return gen.propagate(gen.qubit_rate_generator((alpha, alpha, alpha)), grid, STEP)


class TestCpDivisibilityScan:
    def test_model_violated(self):
        grid = pf.default_grid(t_max=3.0, points=60)
        report = dv.cp_divisibility_scan(model_family(grid, 0.75))
        assert report.verdict == dv.VIOLATED
        assert report.worst_value < -1e-4
        assert report.witness is not None
        # witness reproduces the worst Choi eigenvalue on the closed form
        s, t = report.worst_pair
        c = so.choi(intermediate_channel(t, s, 0.75))
        value = float(np.real(np.vdot(report.witness, c @ report.witness)))
        assert value == pytest.approx(report.worst_value, abs=1e-9)

    def test_worst_value_tracks_first_order_rate(self):
        grid = pf.default_grid(t_max=3.0, points=60)
        alpha = 0.75
        report = dv.cp_divisibility_scan(model_family(grid, alpha))
        s = report.worst_pair[0]
        dt = report.worst_pair[1] - s
        assert report.worst_value == pytest.approx(-alpha * math.tanh(s) * dt,
                                                   rel=0.05)

    def test_semigroup_holds(self):
        grid = pf.default_grid(t_max=2.0, points=20)
        report = dv.cp_divisibility_scan(semigroup_family(grid, 1.0))
        assert report.verdict == dv.HOLDS
        assert report.witness is None

    def test_all_pairs_mode(self):
        grid = pf.default_grid(t_max=1.0, points=6)
        report = dv.cp_divisibility_scan(model_family(grid, 0.6), all_pairs=True)
        assert report.pairs_scanned == 6 * 7 // 2
        assert report.verdict == dv.VIOLATED


@pytest.mark.parametrize("scan", [dv.cp_divisibility_scan,
                                  lambda f: dv.tensor_p_divisibility_probe(f, restarts=2)],
                         ids=["cp", "tensor-p"])
def test_worst_map_is_not_a_view_of_the_family(scan):
    # offset 1 scans the family's own segment stack; the report owns its map
    family = model_family(pf.default_grid(t_max=1.0, points=4), 0.6)
    segments = family.segments.copy()
    report = scan(family)
    assert any(np.array_equal(report.worst_map, seg) for seg in segments)
    report.worst_map[...] = 0.0
    assert np.array_equal(family.segments, segments)


class TestTensorProbe:
    def test_model_violated_with_reproducible_witness(self):
        grid = pf.default_grid(t_max=2.0, points=40)
        family = model_family(grid, 0.6)
        report = dv.tensor_p_divisibility_probe(family, restarts=60, steps=400,
                                                tol=1e-6, seed=0)
        assert report.verdict == dv.VIOLATED
        s, t = report.worst_pair
        assert s > 0.0
        assert report.worst_value < -1e-6
        big = so.tensor(report.worst_map, report.worst_map)
        again = so.min_output_eigenvalue(big, report.witness)
        assert again == pytest.approx(report.worst_value, abs=1e-9)

    def test_semigroup_holds(self):
        grid = pf.default_grid(t_max=1.0, points=8)
        family = semigroup_family(grid, 1.0)
        report = dv.tensor_p_divisibility_probe(family, restarts=15, steps=300,
                                                tol=1e-9, seed=1)
        assert report.verdict == dv.HOLDS
        assert report.worst_value >= -1e-9

    def test_deterministic(self):
        grid = pf.default_grid(t_max=1.0, points=10)
        family = model_family(grid, 0.6)
        r1 = dv.tensor_p_divisibility_probe(family, restarts=10, steps=200, seed=3)
        r2 = dv.tensor_p_divisibility_probe(family, restarts=10, steps=200, seed=3)
        assert r1.worst_value == r2.worst_value
        assert r1.worst_pair == r2.worst_pair

    def test_all_pairs_scan_short_intervals_first(self):
        # (t_0, t_1) is the map itself, whose tensor square is positive for
        # alpha >= 1/2; the next shortest pair (t_1, t_2) already violates
        grid = pf.default_grid(t_max=1.0, points=8)
        report = dv.tensor_p_divisibility_probe(model_family(grid, 0.6), restarts=10,
                                                steps=200, seed=0, all_pairs=True)
        assert report.verdict == dv.VIOLATED
        assert report.worst_pair == (float(grid[1]), float(grid[2]))
        assert report.pairs_scanned == 2

    @pytest.mark.parametrize("family_of, alpha, verdict", [
        (model_family, 0.6, dv.VIOLATED), (semigroup_family, 1.0, dv.HOLDS),
    ], ids=["violated", "clean"])
    def test_reported_value_is_the_pair_seeded_probe(self, family_of, alpha, verdict):
        # pair (i, j) is searched from SeedSequence([seed, i, j]) whatever the
        # walk: the report is the lowest (value, i, j) of those searches over
        # the pairs it scanned; a clean scan scans all n(n-1)/2 of them, and
        # the model violates on a consecutive pair, reached first
        grid = pf.default_grid(t_max=1.0, points=5)
        family, seed, tol = family_of(grid, alpha), 4, 1e-9
        report = dv.tensor_p_divisibility_probe(family, restarts=3, steps=100, tol=tol,
                                                seed=seed, all_pairs=True)
        maps, direct = {}, {}
        for i, j, inter in i_major_intermediates(family, True):
            maps[i, j] = inter
            direct[i, j] = so.positivity_probe(
                so.tensor(inter, inter), restarts=3, steps=100, tol=tol,
                seed=np.random.SeedSequence([seed, i, j]).generate_state(1)[0],
                stop_at=-tol).min_value
        assert report.verdict == verdict
        i, j = (int(np.searchsorted(grid, t)) for t in report.worst_pair)
        assert report.worst_value == direct[i, j]
        assert np.array_equal(report.worst_map, maps[i, j])
        if report.verdict == dv.HOLDS:
            assert report.pairs_scanned == len(direct) == 6 * 5 // 2
            assert (report.worst_value, i, j) == min((v, *pair) for pair, v in direct.items())
        else:
            assert (j - i, report.pairs_scanned) == (1, i + 1)


class TestStiffSemigroup:
    """Strong semigroup decay leaves the later maps too ill-conditioned to
    invert, but the integrated segments need no inverse: every pair is
    scanned."""

    @pytest.fixture(scope="class")
    def family(self):
        return semigroup_family(pf.default_grid(5.0, 20), 10.0)

    def test_segments_match_the_closed_form(self, family):
        expected = pf.semigroup_channel(0.25, 10.0)
        for seg in family.segments:
            np.testing.assert_allclose(seg, expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("scan", [
        dv.cp_divisibility_scan,
        lambda fam: dv.tensor_p_divisibility_probe(fam, restarts=4, steps=100, seed=1),
    ], ids=["cp-scan", "tensor-probe"])
    def test_every_pair_is_scanned(self, family, scan):
        report = scan(family)
        assert report.pairs_scanned == 20
        assert report.verdict == dv.HOLDS


GRIDS = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5).map(
    lambda spans: np.concatenate([[0.0], np.cumsum(spans)]))


@settings(max_examples=25, deadline=None)
@given(GRIDS, st.floats(0.3, 2.0), st.booleans())
def test_intermediates_match_the_closed_form(grid, alpha, all_pairs):
    # every offset stack, k = 1 first, holds V(t_{i+k}, t_i) at row i: the
    # closed form to rounding, and the i-major running product bit for bit
    family = model_family(grid, alpha)
    n = len(grid)
    reference = {(i, j): inter for i, j, inter in i_major_intermediates(family, all_pairs)}
    stacks = list(dv._offset_stacks(family, all_pairs))
    assert [k for k, _ in stacks] == list(range(1, n if all_pairs else 2))
    for k, stack in stacks:
        assert stack.shape == (n - k, 4, 4)
        for i, mat in enumerate(stack):
            expected = intermediate_channel(float(grid[i + k]), float(grid[i]), alpha)
            np.testing.assert_allclose(mat, expected, rtol=0, atol=1e-12)
            assert np.array_equal(mat, reference.pop((i, i + k)))
    assert reference == {}
    selected = n * (n - 1) // 2 if all_pairs else n - 1
    report = dv.cp_divisibility_scan(family, all_pairs=all_pairs)
    assert report.pairs_scanned == selected


def assert_matches_pair_by_pair_scan(family, all_pairs):
    """The stacked CP scan reports the per-pair reference's lowest pair, its
    map and witness bit for bit."""
    report = dv.cp_divisibility_scan(family, all_pairs=all_pairs)
    value, (i, j), inter, vector = pair_by_pair_cp_scan(i_major_intermediates(family, all_pairs))
    assert report.worst_value == value
    assert report.worst_pair == (float(family.grid[i]), float(family.grid[j]))
    assert np.array_equal(report.worst_map, inter)
    if report.verdict == dv.VIOLATED:
        assert np.array_equal(report.witness, vector)
    else:
        assert report.witness is None
    return report


def driven_family(grid, alpha):
    """A rotating drive over fixed rates, one of them negative: its segments
    do not commute, and its lowest Choi eigenvalue often lies on a wide pair,
    so the order of every product shows."""
    g = gen.GeneratorSpec(2, (alpha, 0.5 * alpha, -0.2 * alpha), hamiltonian=lambda t: (
        math.cos(3.0 * t) * PAULI[1] + math.sin(3.0 * t) * PAULI[3]))
    return gen.propagate(g, grid, STEP)


@settings(max_examples=25, deadline=None)
@given(GRIDS, st.floats(0.3, 2.0),
       st.sampled_from([model_family, semigroup_family, driven_family]), st.booleans())
def test_stacked_cp_scan_matches_the_pair_by_pair_scan(grid, alpha, family_of, all_pairs):
    assert_matches_pair_by_pair_scan(family_of(grid, alpha), all_pairs)


@pytest.mark.parametrize("segments, all_pairs, pair", [
    # every pair of one offset is the same map: the first one wins
    (["transpose", "transpose", "transpose"], False, (0.0, 1.0)),
    # V(t_2, t_0) = T I and V(t_2, t_1) = T tie at -1, and (0, 2) comes
    # first in i-major order although its offset is scanned second
    (["identity", "transpose"], True, (0.0, 2.0)),
    # V(t_1, t_0) = T and V(t_2, t_0) = I T tie at -1 in one row, and the
    # shorter pair comes first in i-major order and is scanned first
    (["transpose", "identity"], True, (0.0, 1.0)),
], ids=["consecutive", "all-pairs", "all-pairs-one-row"])
def test_stacked_cp_scan_keeps_the_first_pair_on_exact_ties(segments, all_pairs, pair):
    eye = np.eye(4, dtype=complex)
    maps = {"identity": eye, "transpose": eye[[0, 2, 1, 3]]}
    segs = np.array([maps[name] for name in segments])
    grid = np.arange(len(segs) + 1, dtype=float)
    family = gen.PropagatedFamily(grid, np.array([so.identity(2)] * len(grid)), segs)
    report = assert_matches_pair_by_pair_scan(family, all_pairs)
    assert report.worst_pair == pair
    assert report.worst_value == pytest.approx(-1.0)


def test_stacked_cp_scan_finds_a_wide_pair_of_non_commuting_segments():
    grid = np.linspace(0.0, 1.0, 6)
    report = assert_matches_pair_by_pair_scan(driven_family(grid, 0.6), True)
    assert report.worst_pair[1] - report.worst_pair[0] > 0.2 + 1e-12


def test_stacked_cp_scan_on_tied_offsets():
    # a fixed semigroup on a dyadic grid: every pair of one offset is one map
    grid = np.arange(7) / 8
    family = semigroup_family(grid, 0.6)
    assert all(np.array_equal(seg, family.segments[0]) for seg in family.segments)
    report = assert_matches_pair_by_pair_scan(family, True)
    assert report.worst_pair[0] == 0.0


class TestCorollaryChain:
    def test_all_four_properties_at_once(self):
        """For strengths in [1/2, 1): not CP, P-divisible, tensor square
        positive, tensor-squared intermediates not all positive."""
        alpha = 0.6
        grid = pf.default_grid(t_max=2.0, points=40)

        # not CP but positive
        assert pf.pauli_weights(grid, alpha)[:, 3].min() < -1e-4
        assert np.abs(pf.bloch_eigenvalues(grid, alpha)).max() <= 1.0

        # P-divisible at generator level
        assert gen.p_divisibility_check_pauli(gen.model_generator(alpha), grid).satisfied

        # tensor square positive (evidence)
        ch = pf.channel(1.0, alpha)
        probe = so.positivity_probe(so.tensor(ch, ch), restarts=30, steps=300, seed=5)
        assert probe.verdict == so.HOLDS_NO_VIOLATION

        # tensor-squared intermediates violated (constructive)
        family = model_family(grid, alpha)
        report = dv.tensor_p_divisibility_probe(family, restarts=60, steps=400,
                                                tol=1e-6, seed=6)
        assert report.verdict == dv.VIOLATED


class TestFirstOrderWitness:
    def test_model_witness_matches_analytic_rate(self):
        for alpha, s in ((0.75, 1.0), (0.6, 0.5), (1.5, 2.0)):
            g = gen.model_generator(alpha)
            w = dv.first_order_witness(g, s)
            assert w.delta_rate < 0
            assert w.delta_rate == pytest.approx(-alpha * math.tanh(s), abs=1e-10)
            assert abs(np.vdot(w.phi, w.psi)) <= 1e-10
            assert abs(np.trace(w.m)) <= 1e-10

    def test_rate_consistent_with_coefficient_expectation(self):
        # delta_rate = 2 <u|C|u> / (|Psi|^2 |Phi|^2) for unnormalized Psi, Phi
        from divischeck.linalg import similarity_to_transpose

        g = gen.model_generator(0.75)
        s = 1.0
        w = dv.first_order_witness(g, s)
        c = g.coefficient_matrix(s)
        expectation = float(np.real(np.vdot(w.u, c @ w.u)))
        umat = similarity_to_transpose(w.m)
        psi_mat = w.m @ np.linalg.inv(umat)
        phi_mat = umat.conj().T
        norms = np.linalg.norm(psi_mat) ** 2 * np.linalg.norm(phi_mat) ** 2
        assert w.delta_rate == pytest.approx(2 * expectation / norms, abs=1e-8)

    def test_diagonal_toy_case(self):
        g = gen.qubit_rate_generator((1.0, 1.0, -1.0))
        w = dv.first_order_witness(g, 0.3)
        # u is the third axis; M proportional to the third Pauli over sqrt(2)
        np.testing.assert_allclose(np.abs(w.u), [0.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(w.m), np.abs(PAULI[3]) / math.sqrt(2.0),
                                   atol=1e-12)
        assert w.delta_rate == pytest.approx(-1.0, abs=1e-8)

    def test_complex_coefficient_matrix(self):
        c = np.array([[1.0, 0.0, 0.0],
                      [0.0, 0.3, 0.4 - 0.2j],
                      [0.0, 0.4 + 0.2j, -0.5]], dtype=complex)
        g = gen.GeneratorSpec(2, lambda t: c)
        w = dv.first_order_witness(g, 0.0)
        assert w.delta_rate < 0
        assert abs(np.vdot(w.phi, w.psi)) <= 1e-10
        assert abs(np.trace(w.m)) <= 1e-10
        np.testing.assert_allclose([np.trace(w.m @ f) for f in g.basis], np.conj(w.u),
                                   atol=1e-15)
        assert w.c_min == pytest.approx(np.linalg.eigvalsh(c)[0], abs=1e-12)
        assert w.delta_rate == pytest.approx(w.c_min, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, (2, 3, 3), elements=ENTRIES),
           st.none() | arrays(np.float64, 3, elements=ENTRIES))
    def test_rate_is_the_most_negative_coefficient(self, parts, field):
        # the unitary transpose similarity gives every qubit witness the full
        # rate c_min, with or without a Hamiltonian
        c = parts[0] + 1j * parts[1]
        c = 0.5 * (c + c.conj().T)
        assume(np.linalg.eigvalsh(c)[0] <= -1e-3)
        h = None if field is None else sum(x * p for x, p in zip(field, PAULI[1:]))
        g = gen.GeneratorSpec(2, c, hamiltonian=None if h is None else lambda t: h)
        w = dv.first_order_witness(g, 0.7)
        assert abs(w.delta_rate - w.c_min) <= 1e-10 * abs(w.c_min)
        assert abs(np.vdot(w.phi, w.psi)) <= 1e-10

    def test_nilpotent_m(self):
        # the most negative C eigenvector (1, i, 0)/sqrt(2) makes M a
        # multiple of (sigma_1 - i sigma_2)/2, a 2x2 Jordan block
        v = np.array([1.0, 1.0j, 0.0]) / math.sqrt(2.0)
        c = np.eye(3) - 2.0 * np.outer(v, v.conj())
        g = gen.GeneratorSpec(2, lambda t: c)
        w = dv.first_order_witness(g, 0.5)
        assert np.allclose(w.m @ w.m, 0.0, atol=1e-15)
        assert w.c_min == pytest.approx(-1.0, abs=1e-12)
        assert w.delta_rate == pytest.approx(-1.0, abs=1e-12)   # c_min
        assert abs(np.vdot(w.phi, w.psi)) <= 1e-10
        for dt in (1e-4, 5e-5):
            value = dv.verify_witness(g, w, dt=dt)
            assert abs(value - dt * w.delta_rate) <= 10 * dt * dt

    def test_hamiltonian_part_drops_out_of_the_rate(self):
        # <psi|phi> = 0 makes the commutator term vanish, so the rate only
        # sees the coefficient matrix
        c = lambda t: np.diag([1.0, 1.0, -0.5]).astype(complex)
        bare = gen.GeneratorSpec(2, c)
        driven = gen.GeneratorSpec(2, c, hamiltonian=lambda t: 0.8 * PAULI[3])
        w_bare = dv.first_order_witness(bare, 0.2)
        w_driven = dv.first_order_witness(driven, 0.2)
        assert w_driven.delta_rate == pytest.approx(w_bare.delta_rate, abs=1e-10)
        assert w_driven.delta_rate == pytest.approx(-0.5, abs=1e-10)

    def test_rejects_qutrit_generator(self):
        diag = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.2, -0.4])
        g = gen.GeneratorSpec(3, np.diag(diag).astype(complex))
        with pytest.raises(ValueError, match="qubit generators"):
            dv.first_order_witness(g, 0.0)

    def test_rejects_nonnegative_coefficients(self):
        g = gen.model_generator(0.9)
        with pytest.raises(ValueError, match="positive semidefinite"):
            dv.first_order_witness(g, 0.0)
        semi = gen.qubit_rate_generator((1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            dv.first_order_witness(semi, 1.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, s):
        # a fixed C has a negative eigenvalue at every s, non-finite ones too
        g = gen.qubit_rate_generator((1.0, 1.0, -1.0))
        with pytest.raises(ValueError, match="witness time s must be finite"):
            dv.first_order_witness(g, s)


class TestVerifyWitness:
    def test_first_order_agreement_and_halving(self):
        g = gen.model_generator(0.75)
        w = dv.first_order_witness(g, 1.0)
        v1 = dv.verify_witness(g, w, dt=1e-4)
        assert v1 < 0
        assert v1 / 1e-4 == pytest.approx(w.delta_rate, rel=1e-2)
        d1 = abs(v1 - 1e-4 * w.delta_rate)
        v2 = dv.verify_witness(g, w, dt=5e-5)
        d2 = abs(v2 - 5e-5 * w.delta_rate)
        assert d1 / d2 >= 3.5

    def test_nonnegative_rate_direction_stays_nonnegative(self):
        # hand-built witness along a positive coefficient direction
        g = gen.model_generator(0.75)
        psi = so.vec(PAULI[1]).copy() / np.linalg.norm(so.vec(PAULI[1]))
        phi = so.vec(np.eye(2)) / np.linalg.norm(so.vec(np.eye(2)))
        w = dv.FirstOrderWitness(s=1.0, u=np.array([1.0, 0, 0]),
                                 m=PAULI[1] / math.sqrt(2.0), psi=psi, phi=phi,
                                 delta_rate=+0.75, c_min=-0.1)
        dt = 1e-4
        value = dv.verify_witness(g, w, dt=dt)
        assert value >= -10 * dt * dt

    def test_rejects_bad_dt(self):
        g = gen.model_generator(0.75)
        w = dv.first_order_witness(g, 1.0)
        with pytest.raises(ValueError):
            dv.verify_witness(g, w, dt=0.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            dv.verify_witness(g, w, dt=math.nan)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            dv.verify_witness(g, w, dt=math.inf)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_witness_time(self, s):
        # a fixed C never looks at t, so only the time check can refuse s
        g = gen.qubit_rate_generator((1.0, 1.0, -1.0))
        w = dataclasses.replace(dv.first_order_witness(g, 1.0), s=s)
        with pytest.raises(ValueError, match="witness time s must be finite"):
            dv.verify_witness(g, w)

    def test_checks_the_witness_at_its_own_time(self):
        g = gen.model_generator(0.75)
        w = dv.first_order_witness(g, 1.0)
        # C(s) = diag(a, a, -a tanh s) keeps its eigenvectors, so the same
        # pair moved to s = 2 leaves zero at the rate -a tanh 2 instead
        later = dataclasses.replace(w, s=2.0)
        assert dv.verify_witness(g, w) / 1e-4 == pytest.approx(-0.75 * math.tanh(1.0), rel=1e-2)
        assert dv.verify_witness(g, later) / 1e-4 == pytest.approx(-0.75 * math.tanh(2.0),
                                                                   rel=1e-2)
