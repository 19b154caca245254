"""Property tests pinning the conventions the superoperator reshapes rely on,
and the positivity probe against an exact answer.

The loop builds below are the defining constructions of ``tensor`` and
``choi`` (column by column on the product operator basis, and the sum
over matrix units); the reshaped versions must reproduce them bit for bit.
"""
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from divischeck import superop as so
from divischeck.linalg import PAULI
from oracles import apply_single, compose, map_dim, unvec

DIMS = st.sampled_from([2, 3])
ENTRIES = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False,
                    allow_subnormal=False)
PROPERTY = settings(max_examples=60, deadline=None)


def operators(n):
    real = arrays(np.float64, (n, n), elements=ENTRIES)
    return st.tuples(real, real).map(lambda ri: ri[0] + 1j * ri[1])


def maps(d):
    return operators(d * d)


def unit(d, i, j):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def loop_tensor(s1, s2):
    d1, d2 = map_dim(s1), map_dim(s2)
    d = d1 * d2
    img1 = [[so.apply(s1, unit(d1, a, b)) for b in range(d1)] for a in range(d1)]
    img2 = [[so.apply(s2, unit(d2, a, b)) for b in range(d2)] for a in range(d2)]
    mat = np.empty((d * d, d * d), dtype=complex)
    for a1 in range(d1):
        for a2 in range(d2):
            for b1 in range(d1):
                for b2 in range(d2):
                    col = (b1 * d2 + b2) * d + (a1 * d2 + a2)
                    mat[:, col] = so.vec(np.kron(img1[a1][b1], img2[a2][b2]))
    return mat


def loop_choi(s):
    d = map_dim(s)
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            c += np.kron(so.apply(s, unit(d, i, j)), unit(d, i, j))
    return c


@PROPERTY
@given(st.data(), DIMS)
def test_vec_unvec_roundtrip(data, d):
    x = data.draw(operators(d))
    v = so.vec(x)
    assert v.shape == (d * d,)
    np.testing.assert_array_equal(v[:d], x[:, 0])
    np.testing.assert_array_equal(unvec(v, d), x)


@PROPERTY
@given(st.data(), DIMS)
def test_vec_of_product(data, d):
    a, x, b = (data.draw(operators(d)) for _ in range(3))
    np.testing.assert_allclose(so.vec(a @ x @ b), np.kron(b.T, a) @ so.vec(x),
                               rtol=0, atol=1e-10)


@PROPERTY
@given(st.data(), st.sampled_from([2, 3, 4]))
def test_apply_to_one_operator_is_the_matrix_vector_product(data, d):
    s = data.draw(maps(d))
    x = data.draw(operators(d))
    got = so.apply(s, x)
    expected = apply_single(s, x)
    assert got.shape == (d, d)
    assert np.max(np.abs(got - expected)) <= 1e-15 * max(1.0, np.max(np.abs(expected)))


@PROPERTY
@given(st.data(), DIMS, DIMS)
def test_tensor_is_the_loop_build(data, d1, d2):
    s1, s2 = data.draw(maps(d1)), data.draw(maps(d2))
    np.testing.assert_array_equal(so.tensor(s1, s2), loop_tensor(s1, s2))


@PROPERTY
@given(st.data(), DIMS, DIMS)
def test_tensor_acts_on_products(data, d1, d2):
    s1, s2 = data.draw(maps(d1)), data.draw(maps(d2))
    x, y = data.draw(operators(d1)), data.draw(operators(d2))
    lhs = so.apply(so.tensor(s1, s2), np.kron(x, y))
    rhs = np.kron(so.apply(s1, x), so.apply(s2, y))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)


@PROPERTY
@given(st.data(), DIMS)
def test_choi_is_the_defining_sum(data, d):
    s, s2 = data.draw(maps(d)), data.draw(maps(d))
    np.testing.assert_array_equal(so.choi(s), loop_choi(s))
    # a (2, 1) stack of map matrices gives the stack of their Choi matrices
    stacked = so.choi(np.stack([s, s2])[:, None])
    np.testing.assert_array_equal(stacked, np.stack([loop_choi(s), loop_choi(s2)])[:, None])


@PROPERTY
@given(st.data(), DIMS)
def test_compose_applies_in_turn(data, d):
    s1, s2, x = data.draw(maps(d)), data.draw(maps(d)), data.draw(operators(d))
    np.testing.assert_allclose(so.apply(compose(s1, s2), x),
                               so.apply(s1, so.apply(s2, x)), rtol=0, atol=1e-9)


def pauli_transfer_map(r):
    """The qubit map with S[sigma_j] = sum_i r_ij sigma_i; Hermiticity-preserving
    for real r, and trace-preserving when r's first row is (1, 0, 0, 0)."""
    basis = np.array([so.vec(p) for p in PAULI]).T
    return 0.5 * basis @ r @ basis.conj().T


def unital_qubit_map(t):
    """The qubit map taking (I + r.sigma)/2 to (I + (t r).sigma)/2 (Bloch form,
    no translation), extended linearly."""
    bloch = np.eye(4)
    bloch[1:, 1:] = t
    return pauli_transfer_map(bloch)


TRANSFER_ENTRIES = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False,
                             allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, (4, 4), elements=TRANSFER_ENTRIES))
def test_tensor_square_choi_spectrum_is_the_pairwise_products(r):
    """choi(S (x) S) is a reordering of choi(S) (x) choi(S), so its spectrum is
    the pairwise products of choi(S)'s.  A tensor interleave that does not
    match the Choi realignment breaks the reordering."""
    s = pauli_transfer_map(r)
    w = np.linalg.eigvalsh(so.choi(s))
    got = np.linalg.eigvalsh(so.choi(so.tensor(s, s)))
    want = np.sort(np.outer(w, w).ravel())
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(w)) ** 2)


@settings(max_examples=200, deadline=None)
@example(np.zeros((3, 4)))                               # fully depolarizing: CP
@example(np.hstack([np.zeros((3, 1)), -np.eye(3)]))     # universal NOT: not CP
@given(arrays(np.float64, (3, 4), elements=TRANSFER_ENTRIES))
def test_tensor_square_of_trace_preserving_map_is_cp_iff_the_map_is(rows):
    """The source paper's first claim at the level of one map: a negative Choi
    eigenvalue times a positive one (the trace is 2) is a negative eigenvalue
    of the tensor square's Choi matrix."""
    s = pauli_transfer_map(np.vstack([[1.0, 0.0, 0.0, 0.0], rows]))
    cp, min_eig = so.is_cp(s)
    assume(abs(min_eig) >= 1e-6)        # clear of the tolerance edge
    assert so.is_cp(so.tensor(s, s))[0] is cp


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, (3, 3), elements=st.floats(-2.0, 2.0, allow_nan=False,
                                                    allow_infinity=False,
                                                    allow_subnormal=False)),
       st.integers(0, 2**32 - 1))
def test_probe_finds_unital_qubit_minimum(t, seed):
    """A pure input with Bloch vector r has output eigenvalues (1 +- |t r|)/2,
    so the smallest over pure inputs is (1 - sigma_max(t))/2 (King and
    Ruskai, IEEE Trans. Inf. Theory 47, 192 (2001)).

    The probe reports the value of a real state, so it never undercuts that
    minimum.  It reaches it when the two largest singular values of t are
    apart; when they nearly coincide the objective is almost flat along a
    circle of states, and the seesaw's gain-based stop can end the search
    early (t = [[a, 0, 1], [0, 0, 0], [0, 1, 0]] with a = 4.2e-4 stops
    2e-9 short), so the accuracy check skips those maps.
    """
    sigma = np.linalg.svd(t, compute_uv=False)
    exact = (1.0 - sigma[0]) / 2
    value = so.positivity_probe(unital_qubit_map(t), restarts=4, seed=seed).min_value
    assert value >= exact - 1e-12
    assume(sigma[0] - sigma[1] >= 1e-5)
    assert abs(value - exact) <= 1e-9
