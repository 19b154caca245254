import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from divischeck import cli
from divischeck import divisibility as dv
from divischeck import generator as gen
from divischeck import pauli_family as pf
from divischeck import superop as so
from divischeck.linalg import PAULI, NumericalError
from oracles import (
    grid_order_tensor_probe,
    i_major_intermediates,
    intermediate_channel,
    pair_by_pair_cp_scan,
    seeded_segment_probe,
)

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


@pytest.mark.parametrize("scan", [dv.cp_divisibility_scan,
                                  lambda f: dv.tensor_p_divisibility_probe(f, restarts=2)],
                         ids=["cp", "tensor-p"])
def test_worst_map_is_not_a_view_of_the_family(scan):
    # the scans test the family's own segment stack; the report owns its map
    family = model_family(pf.default_grid(t_max=1.0, points=4), 0.6)
    segments = family.segments.copy()
    report = scan(family)
    assert any(np.array_equal(report.worst_map, seg) for seg in segments)
    report.worst_map[...] = 0.0
    assert np.array_equal(family.segments, segments)


SCANS = [dv.cp_divisibility_scan, lambda f: dv.tensor_p_divisibility_probe(f, restarts=2)]

# (grid, segments, message): a family that cannot be built
MALFORMED = {
    # its Choi matrix is i times a Hermitian one: is_cp rejects this map
    "not-hermiticity-preserving": (
        [0.0, 1.0], 1j * so.identity(2)[None],
        "family segment Choi matrix [0] is not Hermitian: max asymmetry 2.000e+00 exceeds "
        "1.0e-10 * 1.000e+00"),
    "non-finite": ([0.0, 1.0], np.full((1, 4, 4), math.nan + 0j),
                   "family segments have non-finite entries"),
    "too-few-segments": ([0.0, 0.5, 1.0], so.identity(2)[None],
                         "3 grid times need 2 segments, got shape (1, 4, 4)"),
    "descending-grid": ([0.0, -0.5, -1.0], np.array([so.identity(2)] * 2),
                        "grid must be strictly ascending"),
    "grid-not-from-0": ([1.0, 2.0], so.identity(2)[None], "grid must start at 0, got 1.0"),
}


@pytest.mark.parametrize("grid, segments, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_family_is_rejected_when_built(grid, segments, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gen.PropagatedFamily(np.array(grid), np.array([so.identity(2)] * len(grid)), segments)


# (maps, message) on a 5-point grid with 4 identity segments
MALFORMED_MAPS = {
    "too-few-maps": (np.array([so.identity(2)] * 2),
                     "5 grid times need 5 maps of shape (4, 4), got shape (2, 4, 4)"),
    "maps-of-another-dimension": (np.array([so.identity(3)] * 5),
                                  "5 grid times need 5 maps of shape (4, 4), got shape (5, 9, 9)"),
    "not-a-stack": (np.zeros(3, dtype=complex),
                    "5 grid times need 5 maps of shape (4, 4), got shape (3,)"),
    "non-finite": (np.full((5, 4, 4), math.nan + 0j), "family maps have non-finite entries"),
}


@pytest.mark.parametrize("maps, message", MALFORMED_MAPS.values(), ids=MALFORMED_MAPS.keys())
def test_a_family_with_malformed_maps_is_rejected_when_built(maps, message):
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gen.PropagatedFamily(grid, maps, np.array([so.identity(2)] * 4))


@pytest.mark.parametrize("scan", SCANS, ids=["cp", "tensor-p"])
def test_families_allow_hermiticity_within_the_relative_tolerance_of_is_cp(scan):
    # (1 + i eps) I has Choi asymmetry 2 eps against the scale 1
    def family(eps):
        segs = (1.0 + 1j * eps) * so.identity(2)[None]
        return gen.PropagatedFamily(np.array([0.0, 1.0]), np.array([so.identity(2)] * 2), segs)

    assert scan(family(1e-11)).pairs_scanned == 1
    so.is_cp(family(1e-11).segments[0])
    beyond = "is not Hermitian: max asymmetry 2.000e-09 exceeds 1.0e-10 * 1.000e+00"
    with pytest.raises(ValueError) as err:
        family(1e-9)
    assert str(err.value) == f"family segment Choi matrix [0] {beyond}"
    with pytest.raises(ValueError) as err:
        so.is_cp((1.0 + 1e-9j) * so.identity(2))
    assert str(err.value) == f"matrix {beyond}"


def test_each_segment_is_held_to_its_own_scale():
    # segment 0's Choi entries of 1e3 must not lift the bound of segment 1,
    # whose asymmetry 2e-9 exceeds 1e-10 * 1 but not 1e-10 * 1e3; segment 2
    # fails under either scale, so a wrong index or a global scale names it
    segs = np.array([1e3, 1.0 + 1e-9j, 1.0 + 1e-3j])[:, None, None] * so.identity(2)
    with pytest.raises(ValueError) as err:
        gen.PropagatedFamily(np.arange(4.0), np.array([so.identity(2)] * 4), segs)
    assert str(err.value) == ("family segment Choi matrix [1] is not Hermitian: max asymmetry "
                              "2.000e-09 exceeds 1.0e-10 * 1.000e+00")


def test_a_family_keeps_read_only_copies_of_its_arrays():
    grid, maps = np.array([0.0, 1.0]), np.array([so.identity(2)] * 2)
    segs = maps[1:].copy()
    family = gen.PropagatedFamily(grid, maps, segs)
    for name, own in (("grid", grid), ("maps", maps), ("segments", segs)):
        with pytest.raises(ValueError, match="read-only"):
            getattr(family, name)[...] = 0.0
        own[...] = 2.0    # the caller's array stays writable, and the family's copy apart
        assert not np.shares_memory(getattr(family, name), own)
    for name in ("choi_min", "choi_vectors"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(family, name)[...] = 0.0
    assert family.grid.tolist() == [0.0, 1.0]
    np.testing.assert_array_equal(family.segments, so.identity(2)[None])


def test_a_divisibility_run_checks_its_family_once(monkeypatch, tmp_path):
    # the family is checked when propagate builds it and solves the Choi stack its
    # check forms once; neither scan checks it again, forms that stack anew or
    # solves a spectrum of it
    built, chois, solved = [], [], []
    post_init, choi = gen.PropagatedFamily.__post_init__, so.choi

    def counted_post_init(family):
        built.append(family)
        post_init(family)

    def recorded_choi(s):
        chois.append(np.shape(s))
        return choi(s)

    def recording(solver):
        def recorded(a, *args, **kwargs):
            solved.append(np.shape(a))
            return solver(a, *args, **kwargs)
        return recorded

    monkeypatch.setattr(gen.PropagatedFamily, "__post_init__", counted_post_init)
    monkeypatch.setattr(so, "choi", recorded_choi)
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    assert cli.main(["divisibility", "--alpha", "0.6", "--grid-points", "6", "--restarts", "2",
                     "--output", str(tmp_path / "out")]) == 0
    assert len(built) == 1
    assert chois == [built[0].segments.shape]
    assert solved.count(built[0].segments.shape) == 1   # the probe solves (2, 4, 4) stacks


# (generator, grid) of families whose CP scan and probe read one choi_min
CHOI_FAMILIES = {
    "rates-negative": (gen.qubit_rate_generator((1.0, 0.5, -0.3)), np.linspace(0.0, 0.5, 6)),
    "rates-positive": (gen.qubit_rate_generator((0.2, 0.7, 1.1)), np.linspace(0.0, 0.5, 6)),
    "rates-one-zero": (gen.qubit_rate_generator((0.0, 0.4, 0.4)), np.linspace(0.0, 0.5, 6)),
    "model-0.6": (gen.model_generator(0.6), pf.default_grid(2.0, 40)),
    "model-1.3": (gen.model_generator(1.3), pf.default_grid(2.0, 40)),
}


@pytest.mark.parametrize("g, grid", CHOI_FAMILIES.values(), ids=CHOI_FAMILIES.keys())
def test_both_scans_read_the_familys_one_choi_spectrum(monkeypatch, g, grid):
    # the CP scan's worst value is choi_min's least, bit for bit, and its
    # witness that segment's row of choi_vectors; the probe visits that
    # segment first
    family = gen.propagate(g, grid, STEP)
    report = dv.cp_divisibility_scan(family)
    i = int(np.argmin(family.choi_min))
    assert report.worst_value == family.choi_min.min()
    assert report.worst_pair == (grid[i], grid[i + 1])
    if report.verdict == dv.VIOLATED:
        assert np.array_equal(report.witness, family.choi_vectors[i])
    probed, probe = [], so.positivity_probe

    def recorded_probe(s, **kwargs):
        probed.append(s)
        return probe(s, **kwargs)

    monkeypatch.setattr(so, "positivity_probe", recorded_probe)
    dv.tensor_p_divisibility_probe(family, restarts=2, steps=20)
    assert np.array_equal(probed[0], so.tensor(family.segments[i], family.segments[i]))


@pytest.mark.parametrize("scan", SCANS, ids=["cp", "tensor-p"])
def test_scans_of_a_one_time_grid_scan_nothing(scan):
    family = semigroup_family(np.array([0.0]), 1.0)
    assert family.segments.shape == (0, 4, 4)
    assert (family.choi_min.shape, family.choi_vectors.shape) == ((0,), (0, 4))
    report = scan(family)
    assert (report.pairs_scanned, report.verdict, report.worst_map) == (0, dv.HOLDS, None)


@pytest.fixture(scope="module")
def violating_family():
    # the model at alpha = 0.6 on [0, 1]: none of its 10 segments is CP
    return model_family(np.linspace(0.0, 1.0, 11), 0.6)


# each library verdict that takes a tol -> (its verdict at tol, that verdict at
# tol = 0 on the violating family)
TOL_ENTRIES = {
    "is_cp": (lambda family, tol: so.is_cp(so.identity(2), tol=tol)[0], True),
    "cp_divisibility_check": (lambda family, tol: gen.cp_divisibility_check(
        gen.model_generator(0.6), family.grid, tol=tol).satisfied, False),
    "p_divisibility_check_pauli": (lambda family, tol: gen.p_divisibility_check_pauli(
        gen.model_generator(0.6), family.grid, tol=tol).satisfied, True),
    "cp_divisibility_scan": (lambda family, tol: dv.cp_divisibility_scan(
        family, tol=tol).verdict, dv.VIOLATED),
    "tensor_p_divisibility_probe": (lambda family, tol: dv.tensor_p_divisibility_probe(
        family, restarts=2, tol=tol).verdict, dv.VIOLATED),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("entry", [e for e, _ in TOL_ENTRIES.values()], ids=TOL_ENTRIES.keys())
def test_every_verdict_refuses_a_tol_that_is_not_finite_and_nonnegative(
        monkeypatch, violating_family, entry, tol):
    # a NaN tol made both scans report "holds-on-grid" on segments that all
    # fail; the refusal comes before any C(t), Choi matrix or probe
    def work(*args, **kwargs):
        raise AssertionError("work done before the tol check")

    monkeypatch.setattr(gen.GeneratorSpec, "coefficient_matrix", work)
    monkeypatch.setattr(so, "choi", work)
    monkeypatch.setattr(so, "positivity_probe", work)
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'tol must be finite and nonnegative, got {tol}')}$"):
        entry(violating_family, tol)


@pytest.mark.parametrize("entry, verdict", TOL_ENTRIES.values(), ids=TOL_ENTRIES.keys())
def test_every_verdict_takes_a_zero_tol(violating_family, entry, verdict):
    assert entry(violating_family, 0.0) == verdict


def test_the_probe_refuses_a_walk_past_its_restart_bound_before_the_first_probe(
        monkeypatch, violating_family):
    # 10 segments x 3 restarts = 30 restarts in the walk
    probes = []
    probe = so.positivity_probe
    monkeypatch.setattr(so, "positivity_probe", lambda *a, **k: probes.append(a) or probe(*a, **k))
    monkeypatch.setattr(so, "MAX_PROBE_RESTARTS", 29)
    with pytest.raises(ValueError, match=r"^the probe walk needs 30 restarts, more than the "
                                         r"bound MAX_PROBE_RESTARTS = 29$"):
        dv.tensor_p_divisibility_probe(violating_family, restarts=3)
    assert probes == []
    monkeypatch.setattr(so, "MAX_PROBE_RESTARTS", 30)
    report = dv.tensor_p_divisibility_probe(violating_family, restarts=3)
    assert report.verdict == dv.VIOLATED and len(probes) == report.pairs_scanned


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

    def test_scan_stops_at_the_first_violating_segment(self):
        # the walk starts at the least CP segment, the CP scan's worst one,
        # and its tensor square already violates: the scan stops there
        grid = pf.default_grid(t_max=1.0, points=8)
        family = model_family(grid, 0.6)
        report = dv.tensor_p_divisibility_probe(family, restarts=10, steps=200, seed=0)
        assert report.verdict == dv.VIOLATED
        assert report.worst_pair == dv.cp_divisibility_scan(family).worst_pair
        assert report.pairs_scanned == 1

    @pytest.mark.parametrize("family_of, alpha, verdict", [
        (model_family, 0.6, dv.VIOLATED), (semigroup_family, 1.0, dv.HOLDS),
    ], ids=["violated", "clean"])
    def test_reported_value_is_the_pair_seeded_probe(self, family_of, alpha, verdict):
        # segment i is searched from SeedSequence([seed, i, i + 1]): the report
        # is the lowest (value, i) of those searches over the segments it
        # scanned; a clean scan scans all of them, a violated one stops at its
        # segment, scanned after those below it in the stable Choi order
        grid = pf.default_grid(t_max=1.0, points=5)
        family, seed, tol = family_of(grid, alpha), 4, 1e-9
        report = dv.tensor_p_divisibility_probe(family, restarts=3, steps=100, tol=tol,
                                                seed=seed)
        maps, direct = {}, {}
        for i, j, inter in i_major_intermediates(family):
            maps[i, j] = inter
            direct[i, j] = so.positivity_probe(
                so.tensor(inter, inter), restarts=3, steps=100,
                seed=np.random.SeedSequence([seed, i, j]).generate_state(1)[0],
                stop_at=-tol).min_value
        assert report.verdict == verdict
        i, j = (int(np.searchsorted(grid, t)) for t in report.worst_pair)
        assert report.worst_value == direct[i, j]
        assert np.array_equal(report.worst_map, maps[i, j])
        if report.verdict == dv.HOLDS:
            assert report.pairs_scanned == len(direct) == 5
            assert (report.worst_value, i, j) == min((v, *pair) for pair, v in direct.items())
        else:
            order = np.argsort(family.choi_min, kind="stable")
            rank = order.tolist().index(i)
            assert (j - i, report.pairs_scanned) == (1, rank + 1)


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
@given(GRIDS, st.floats(0.3, 2.0))
def test_intermediates_match_the_closed_form(grid, alpha):
    # segment i holds V(t_{i+1}, t_i), the closed form to rounding, and the
    # CP scan tests each of them once
    family = model_family(grid, alpha)
    assert family.segments.shape == (len(grid) - 1, 4, 4)
    for i, mat in enumerate(family.segments):
        expected = intermediate_channel(float(grid[i + 1]), float(grid[i]), alpha)
        np.testing.assert_allclose(mat, expected, rtol=0, atol=1e-12)
    assert dv.cp_divisibility_scan(family).pairs_scanned == len(grid) - 1


def assert_matches_pair_by_pair_scan(family):
    """The stacked CP scan reports the per-segment reference's lowest
    segment, its map and witness bit for bit."""
    report = dv.cp_divisibility_scan(family)
    value, (i, j), inter, vector = pair_by_pair_cp_scan(i_major_intermediates(family))
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
    differ from one another and do not commute."""
    g = gen.GeneratorSpec(2, (alpha, 0.5 * alpha, -0.2 * alpha), hamiltonian=lambda t: (
        math.cos(3.0 * t) * PAULI[1] + math.sin(3.0 * t) * PAULI[3]))
    return gen.propagate(g, grid, STEP)


@settings(max_examples=25, deadline=None)
@given(GRIDS, st.floats(0.3, 2.0),
       st.sampled_from([model_family, semigroup_family, driven_family]))
def test_stacked_cp_scan_matches_the_pair_by_pair_scan(grid, alpha, family_of):
    assert_matches_pair_by_pair_scan(family_of(grid, alpha))


@pytest.mark.parametrize("segments, pair", [
    # every segment is the same map: the first one wins
    (["transpose", "transpose", "transpose"], (0.0, 1.0)),
    # the transposes after a CP segment tie at -1: the first of them wins
    (["identity", "transpose", "transpose"], (1.0, 2.0)),
], ids=["all-equal", "after-a-cp-segment"])
def test_stacked_cp_scan_keeps_the_first_pair_on_exact_ties(segments, pair):
    eye = np.eye(4, dtype=complex)
    maps = {"identity": eye, "transpose": eye[[0, 2, 1, 3]]}
    segs = np.array([maps[name] for name in segments])
    grid = np.arange(len(segs) + 1, dtype=float)
    family = gen.PropagatedFamily(grid, np.array([so.identity(2)] * len(grid)), segs)
    report = assert_matches_pair_by_pair_scan(family)
    assert report.worst_pair == pair
    assert report.worst_value == pytest.approx(-1.0)


def test_stacked_cp_scan_on_equal_segments():
    # a fixed semigroup on a dyadic grid: every segment is one map
    grid = np.arange(7) / 8
    family = semigroup_family(grid, 0.6)
    assert all(np.array_equal(seg, family.segments[0]) for seg in family.segments)
    report = assert_matches_pair_by_pair_scan(family)
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
        assert probe.min_value >= -1e-9

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
        g = gen.model_generator(0.75)
        s = 1.0
        w = dv.first_order_witness(g, s)
        c = g.coefficient_matrix(s)
        expectation = float(np.real(np.vdot(w.u, c @ w.u)))
        psi_mat = w.m @ PAULI[2]
        phi_mat = PAULI[2]
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
        # sigma_y M sigma_y = -M.T gives every qubit witness the full rate
        # c_min, with or without a Hamiltonian, on the singlet phi and
        # psi = sqrt(2) (M (x) I) phi, both up to one global phase
        c = parts[0] + 1j * parts[1]
        c = 0.5 * (c + c.conj().T)
        assume(np.linalg.eigvalsh(c)[0] <= -1e-3)
        h = None if field is None else sum(x * p for x, p in zip(field, PAULI[1:]))
        g = gen.GeneratorSpec(2, c, hamiltonian=None if h is None else lambda t: h)
        w = dv.first_order_witness(g, 0.7)
        assert abs(w.delta_rate - w.c_min) <= 1e-10 * abs(w.c_min)
        assert abs(np.vdot(w.phi, w.psi)) <= 1e-10
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        phase = np.vdot(singlet, w.phi)
        assert abs(abs(phase) - 1.0) <= 1e-12
        np.testing.assert_allclose(w.phi, phase * singlet, atol=1e-12)
        np.testing.assert_allclose(w.psi, phase * math.sqrt(2.0) * np.kron(w.m, np.eye(2))
                                   @ singlet, atol=1e-12)

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

    @pytest.mark.parametrize("rates", [(1e308, 1e308, -1e308), (-1e308, -1e308, -1e308)],
                             ids=["sum-overflows", "l-overflows"])
    def test_refuses_an_overflowing_rate_without_a_warning(self, rates):
        # L or the tensor generator overflows: the rate would be NaN; the
        # suite's filterwarnings = error turns any overflow warning into a failure
        with pytest.raises(NumericalError, match=r"produced a rate nan that is not negative"):
            dv.first_order_witness(gen.qubit_rate_generator(rates), 0.0)

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

    def test_rejects_a_dt_outside_rk4s_stability_region_for_l(self):
        # the model's L(s) decays at 2 alpha at fastest, and the tensor square
        # of its step is stable iff the step is: dt x 28,000 = 2.8 lies past
        # RK4's real-axis limit
        g = gen.model_generator(14000.0)
        w = dv.first_order_witness(g, 1.0)
        message = (r"^step 0\.0001 is outside RK4's stability region for L\(t\) at t=1; "
                   r"the largest stable step is 9\.94748e-05$")
        with pytest.raises(ValueError, match=message):
            dv.verify_witness(g, w, dt=1e-4)
        assert math.isfinite(dv.verify_witness(g, w, dt=9.9e-5))

    def test_rejects_a_dt_past_a_rate_jump_inside_the_step(self):
        # L(s) is mild, but L(s + dt/2) and L(s + dt) decay at 2e5: checked on
        # L(s) alone, the step gave 75,333 where the first-order value is -1e-4
        g = gen.qubit_rate_generator(
            lambda t: (1.0, 1.0, -1.0) if t < 1.00004 else (1e5, 1e5, -1e5))
        w = dv.first_order_witness(g, 1.0)
        message = (r"^step 0\.0001 is outside RK4's stability region for L\(t\) at "
                   r"t=1\.00005; the largest stable step is 1\.39265e-05$")
        with pytest.raises(ValueError, match=message):
            dv.verify_witness(g, w, dt=1e-4)
        assert dv.verify_witness(g, w, dt=1e-5) == pytest.approx(-1e-5, rel=1e-3)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_witness_time(self, s):
        # a fixed C never looks at t, so only the time check can refuse s
        g = gen.qubit_rate_generator((1.0, 1.0, -1.0))
        w = dataclasses.replace(dv.first_order_witness(g, 1.0), s=s)
        with pytest.raises(ValueError, match="witness time s must be finite"):
            dv.verify_witness(g, w)

    @staticmethod
    def value_on(segment, w):
        """<phi| (V (x) V)[|psi><psi|] |phi> on the tensor square of a segment."""
        out = so.apply(so.tensor(segment, segment), np.outer(w.psi, w.psi.conj()))
        return float(np.real(np.vdot(w.phi, out @ w.phi)))

    @pytest.mark.parametrize("dt", [1e-4, 3e-3])
    def test_checks_the_tensor_square_of_a_segment_bit_for_bit(self, dt):
        # a fixed C: the one-segment family from s = 0 takes the very RK4
        # step the check takes, and the map scans test its tensor square
        g = gen.qubit_rate_generator((1.0, 1.0, -0.3))
        w = dv.first_order_witness(g, 0.0)
        segment = gen.propagate(g, [0.0, dt], dt).segments[0]
        assert dv.verify_witness(g, w, dt=dt) == self.value_on(segment, w)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.75])
    def test_checks_the_tensor_square_of_the_models_segment(self, alpha):
        # the segment [1, 1 + dt] spans (1 + dt) - 1, not dt, so the two
        # agree to rounding only
        g, dt = gen.model_generator(alpha), 1e-4
        w = dv.first_order_witness(g, 1.0)
        segment = gen.propagate(g, [0.0, 1.0, 1.0 + dt], dt).segments[1]
        assert abs(dv.verify_witness(g, w, dt=dt) - self.value_on(segment, w)) <= 2e-16

    def test_checks_the_witness_at_its_own_time(self):
        g = gen.model_generator(0.75)
        w = dv.first_order_witness(g, 1.0)
        # C(s) = diag(a, a, -a tanh s) keeps its eigenvectors, so the same
        # pair moved to s = 2 leaves zero at the rate -a tanh 2 instead
        later = dataclasses.replace(w, s=2.0)
        assert dv.verify_witness(g, w) / 1e-4 == pytest.approx(-0.75 * math.tanh(1.0), rel=1e-2)
        assert dv.verify_witness(g, later) / 1e-4 == pytest.approx(-0.75 * math.tanh(2.0),
                                                                   rel=1e-2)


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.lists(st.floats(0.05, 0.5), min_size=1,
       max_size=3), st.integers(0, 2**32 - 1))
def test_the_two_scans_of_one_family_never_contradict(rates, spans, seed):
    # CP of a map makes its tensor square positive: wherever the probe finds a
    # violation, the map is not CP, so the CP scan of the same segments sees it too
    grid = np.concatenate([[0.0], np.cumsum(spans)])
    family = gen.propagate(gen.qubit_rate_generator(rates), grid, STEP)
    probe = dv.tensor_p_divisibility_probe(family, restarts=4, steps=50, seed=seed)
    if probe.verdict == dv.VIOLATED:
        assert np.linalg.eigvalsh(so.choi(probe.worst_map))[0] < 0
        assert dv.cp_divisibility_scan(family).worst_value < 0


@settings(max_examples=25, deadline=None)
@given(st.floats(0.3, 1.5).map(gen.model_generator)
       | st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(gen.qubit_rate_generator),
       st.lists(st.floats(0.05, 0.5), min_size=1, max_size=5), st.integers(2, 3),
       st.integers(0, 2**32 - 1))
def test_the_choi_ordered_probe_keeps_the_grid_order_verdict(g, spans, restarts, seed):
    # each segment's seeded search does not depend on the walk's order: the
    # verdict and a clean report are the grid-order walk's, and a violated
    # report names the first segment in Choi order whose search violates
    grid, tol = np.concatenate([[0.0], np.cumsum(spans)]), 1e-9
    family = gen.propagate(g, grid, STEP)
    report = dv.tensor_p_divisibility_probe(family, restarts=restarts, steps=50, tol=tol,
                                            seed=seed)
    reference = grid_order_tensor_probe(family, restarts, 50, tol, seed)
    assert report.verdict == reference.verdict
    if report.verdict == dv.HOLDS:
        for f in dataclasses.fields(dv.DivisibilityReport):
            mine, theirs = getattr(report, f.name), getattr(reference, f.name)
            assert np.array_equal(mine, theirs) if f.name == "worst_map" else mine == theirs
        return
    lowest = family.choi_min
    i = int(np.searchsorted(grid, report.worst_pair[0]))
    assert lowest[i] < 0
    order = np.argsort(lowest, kind="stable").tolist()
    rank = order.index(i)
    assert report.pairs_scanned == rank + 1
    assert report.worst_value == seeded_segment_probe(family, i, restarts, 50, tol,
                                                      seed).min_value < -tol
    for k in order[:rank]:
        assert seeded_segment_probe(family, k, restarts, 50, tol, seed).min_value >= -tol


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[st.floats(0.0, 2.0)] * 3), st.lists(st.floats(0.05, 0.5), min_size=1,
       max_size=3), st.integers(0, 2**32 - 1))
def test_a_family_of_nonnegative_fixed_rates_passes_every_check(rates, spans, seed):
    # C >= 0 at every t: both generator criteria hold, and its segments are
    # CP semigroup steps, so neither map scan may report a violation
    grid = np.concatenate([[0.0], np.cumsum(spans)])
    g = gen.qubit_rate_generator(rates)
    assert gen.cp_divisibility_check(g, grid).satisfied
    assert gen.p_divisibility_check_pauli(g, grid).satisfied
    family = gen.propagate(g, grid, STEP)
    assert dv.cp_divisibility_scan(family).verdict == dv.HOLDS
    assert dv.tensor_p_divisibility_probe(family, restarts=4, steps=50,
                                          seed=seed).verdict == dv.HOLDS
