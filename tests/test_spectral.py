"""Gap coordinates, coweight algebra, polytope geometry and exact volumes."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specang import (
    CrossoverDegeneracyError,
    GapVector,
    ProbVector,
    ValidationError,
    cartan_matrix,
    crossover_index,
    fundamental_coweights,
    gaps_from_probs,
    gaps_stack,
    in_polytope,
    inverse_cartan,
    inverse_cartan_exact,
    jacobian_matrix,
    ordered_simplex_volume,
    polytope_vertices,
    probs_from_gaps,
    probs_stack,
    rejection_volume_estimate,
    sorted_probs,
    spectral_diagonal,
    weighted_simplex_volume,
)
from specang.spectral import VOLUME_BLOCK

dims = st.integers(min_value=2, max_value=7)


def gap_vectors(n):
    """Strategy for gap vectors drawn inside R_{n-1} (boundary excluded)."""
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=n - 1,
        max_size=n - 1,
    ).map(
        lambda xs: GapVector(
            n,
            0.95
            * np.array(xs)
            / max(float(np.arange(1, n) @ np.array(xs)), 1.0),
        )
    )


# --- round trips -----------------------------------------------------------


@given(dims, st.data())
def test_round_trip_r_to_p_to_r(n, data):
    r = data.draw(gap_vectors(n))
    back = gaps_from_probs(probs_from_gaps(r))
    assert np.allclose(back.r, r.r, atol=1e-14)


@given(dims, st.data())
def test_round_trip_p_to_r_to_p(n, data):
    raw = data.draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0),
            min_size=n,
            max_size=n,
        )
    )
    p = sorted_probs(np.array(raw) / np.sum(raw))
    back = probs_from_gaps(gaps_from_probs(p))
    assert np.allclose(back.p, p.p, atol=1e-14)


@given(dims, st.data())
def test_probs_are_affine_in_gaps(n, data):
    r = data.draw(gap_vectors(n))
    p = probs_from_gaps(r).p
    assert np.allclose(p, 1.0 / n + jacobian_matrix(n) @ r.r, atol=1e-15)
    assert abs(p.sum() - 1.0) < 1e-12


@given(st.integers(2, 16), st.data())
def test_the_jacobian_product_is_probs_stack_bit_for_bit(n, data):
    # the split stage forms p = 1/n + M r from jacobian_matrix(n) itself, with no
    # reshapes; its records equal probs_stack's only if the two agree bit for bit
    r = data.draw(gap_vectors(n)).r
    assert np.array_equal(1.0 / n + jacobian_matrix(n) @ r, probs_stack(r))


@given(dims, st.data())
def test_stacked_kernels_match_the_per_vector_maps(n, data):
    r = np.array([g.r for g in data.draw(st.lists(gap_vectors(n), min_size=1, max_size=6))])
    p = probs_stack(r)
    assert p.shape == (len(r), n)
    for row_r, row_p in zip(r, p):
        assert np.array_equal(row_p, probs_from_gaps(GapVector(n, row_r)).p)
        assert np.array_equal(gaps_stack(row_p), gaps_from_probs(ProbVector(n, row_p)).r)
    assert np.array_equal(gaps_stack(p), np.array([gaps_stack(row) for row in p]))
    assert np.allclose(gaps_stack(p), r, atol=1e-14)


def test_jacobian_matrix_is_cached_and_read_only():
    M = jacobian_matrix(4)
    assert jacobian_matrix(4) is M
    with pytest.raises(ValueError):
        M[0, 0] = 1.0


# --- validation ------------------------------------------------------------


def test_unordered_probabilities_rejected():
    with pytest.raises(ValidationError):
        ProbVector(3, np.array([0.2, 0.5, 0.3]))


def test_sorted_probs_reorders_explicitly():
    p = sorted_probs([0.2, 0.5, 0.3])
    assert np.allclose(p.p, [0.5, 0.3, 0.2])


def test_negative_gap_rejected():
    with pytest.raises(ValidationError):
        GapVector(3, np.array([0.1, -0.2]))


def test_outside_polytope_rejected():
    with pytest.raises(ValidationError):
        GapVector(3, np.array([0.5, 0.5]))  # 0.5 + 2*0.5 > 1


def test_dimension_one_rejected():
    with pytest.raises(ValidationError):
        GapVector(1, np.array([]))


def test_gap_vector_is_immutable():
    r = GapVector(3, np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        r.r[0] = 0.5


# --- coweight algebra ------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_coweights_are_traceless_and_match_jacobian(n):
    M = jacobian_matrix(n)
    for a, w in enumerate(fundamental_coweights(n).omega):
        assert abs(np.trace(w)) < 1e-14
        assert np.allclose(np.diag(w), M[:, a], atol=1e-15)


@pytest.mark.parametrize("n", range(2, 9))
def test_simple_roots_dual_to_coweights(n):
    # alpha_j(omega_a) = d_j - d_{j+1} = delta_ja
    for a, w in enumerate(fundamental_coweights(n).omega, start=1):
        d = np.diag(w)
        for j in range(1, n):
            assert abs((d[j - 1] - d[j]) - (1.0 if j == a else 0.0)) < 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_adjoint_action_on_root_vectors(n):
    for a, w in enumerate(fundamental_coweights(n).omega, start=1):
        for j in range(1, n):
            E = np.zeros((n, n))
            E[j - 1, j] = 1.0
            comm = w @ E - E @ w
            assert np.allclose(comm, (1.0 if a == j else 0.0) * E, atol=1e-14)


@pytest.mark.parametrize("n", range(2, 9))
def test_cartan_inverse_pair(n):
    C = cartan_matrix(n)
    assert np.allclose(C @ inverse_cartan(n), np.eye(n - 1), atol=1e-13)
    exact = inverse_cartan_exact(n)
    assert np.allclose(
        [[float(x) for x in row] for row in exact], inverse_cartan(n), atol=0.0
    )
    # exact rational inverse: C @ exact == identity over the rationals
    m = n - 1
    for i in range(m):
        for j in range(m):
            s = sum(Fraction(int(C[i, k])) * exact[k][j] for k in range(m))
            assert s == (1 if i == j else 0)


@pytest.mark.parametrize("n", range(2, 9))
def test_coweight_expansion_in_simple_coroots(n):
    cinv = inverse_cartan_exact(n)
    H = [np.diag([1.0 if k == j else -1.0 if k == j + 1 else 0.0 for k in range(n)])
         for j in range(n - 1)]
    for a, w in enumerate(fundamental_coweights(n).omega):
        expansion = sum(float(cinv[a][j]) * H[j] for j in range(n - 1))
        assert np.allclose(w, expansion, atol=1e-14)


@given(dims, st.data())
def test_spectral_diagonal_is_coweight_combination(n, data):
    r = data.draw(gap_vectors(n))
    D = spectral_diagonal(r)
    assert abs(np.trace(D)) < 1e-12
    combo = sum(ra * w for ra, w in zip(r.r, fundamental_coweights(n).omega))
    assert np.allclose(D, combo, atol=1e-13)


# --- polytope --------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 8))
def test_vertices(n):
    verts = polytope_vertices(n)
    assert len(verts) == n
    assert np.allclose(probs_from_gaps(verts[0]).p, np.full(n, 1.0 / n))
    for a in range(1, n):
        assert in_polytope(verts[a].r, n)
        p = probs_from_gaps(verts[a]).p
        expect = np.concatenate([np.full(a, 1.0 / a), np.zeros(n - a)])
        assert np.allclose(p, expect, atol=1e-14)


def test_in_polytope_boundary_and_outside():
    assert in_polytope(np.array([1.0, 0.0]), 3)
    assert not in_polytope(np.array([1.0, 0.1]), 3)
    assert not in_polytope(np.array([-0.1, 0.1]), 3)
    with pytest.raises(ValidationError, match=re.escape("gaps must have shape (2,), got (3,)")):
        in_polytope(np.zeros(3), 3)


# --- volumes ---------------------------------------------------------------


def test_volume_closed_forms():
    assert weighted_simplex_volume(3) == Fraction(1, 4)
    assert weighted_simplex_volume(4) == Fraction(1, 36)
    assert ordered_simplex_volume(3) == Fraction(1, 12)


@pytest.mark.parametrize("n", range(2, 11))
def test_volume_ratio_is_n(n):
    assert weighted_simplex_volume(n) / ordered_simplex_volume(n) == n


def test_volume_cap():
    for volume in (weighted_simplex_volume, ordered_simplex_volume):
        with pytest.raises(ValidationError, match="^exact volumes limited to n <= 20$"):
            volume(21)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rejection_estimate_consistent(n):
    est, se = rejection_volume_estimate(n, 200_000, seed=7)
    assert abs(est - float(weighted_simplex_volume(n))) < 3.0 * se


def test_rejection_estimate_deterministic():
    a = rejection_volume_estimate(4, 10_000, seed=3)
    b = rejection_volume_estimate(4, 10_000, seed=3)
    assert a == b


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rejection_estimate_matches_the_box_point_formula(n):
    # accepting sum_a u_a <= 1 is the test sum_a a x_a <= 1 on x_a = u_a / a
    a = np.arange(1, n, dtype=float)
    box = float(np.prod(1.0 / a))
    for seed in range(20):
        x = np.random.default_rng(seed).random((20_000, n - 1)) / a
        frac = float(np.mean(x @ a <= 1.0))
        want = (box * frac, box * math.sqrt(frac * (1.0 - frac) / 20_000))
        assert rejection_volume_estimate(n, 20_000, seed) == want


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize(
    "num_samples", [1, VOLUME_BLOCK - 1, VOLUME_BLOCK, VOLUME_BLOCK + 1, 3 * VOLUME_BLOCK + 7])
def test_rejection_estimate_streams_the_stream_of_one_draw(n, num_samples):
    # the blocks hold the generator's draws in order, so the counts, and with
    # them the estimate and its error, are those of one whole (N, n-1) draw
    box = float(np.prod(1.0 / np.arange(1, n, dtype=float)))
    for seed in range(3):
        u = np.random.default_rng(seed).random((num_samples, n - 1))
        frac = float(np.mean(u @ np.ones(n - 1) <= 1.0))
        want = (box * frac, box * math.sqrt(max(frac * (1.0 - frac), 0.0) / num_samples))
        assert rejection_volume_estimate(n, num_samples, seed) == want


@pytest.mark.parametrize("num_samples", [10**5, 2 * 10**6])
def test_rejection_estimate_memory_does_not_grow_with_num_samples(num_samples):
    # one whole draw at N = 2e6 traces 61 MB; the block buffer stays below 1 MB
    tracemalloc.start()
    try:
        rejection_volume_estimate(4, num_samples, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("num_samples", [0, -3, 2.5])
def test_rejection_estimate_needs_a_sample(num_samples):
    message = f"num_samples must be an integer >= 1, got {num_samples!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        rejection_volume_estimate(4, num_samples, seed=0)


# --- crossover index -------------------------------------------------------


def test_crossover_known_cases():
    # p = (0.7, 0.2, 0.1): only p_1 >= 1/3
    r = gaps_from_probs(ProbVector(3, np.array([0.7, 0.2, 0.1])))
    assert crossover_index(r) == 1
    # p = (0.45, 0.40, 0.15): p_1, p_2 >= 1/3
    r = gaps_from_probs(ProbVector(3, np.array([0.45, 0.40, 0.15])))
    assert crossover_index(r) == 2


def test_crossover_tie_raises():
    r = gaps_from_probs(ProbVector(3, np.array([0.5, 1.0 / 3.0, 1.0 / 6.0])))
    with pytest.raises(CrossoverDegeneracyError):
        crossover_index(r)


@given(dims, st.data())
@settings(max_examples=50)
def test_crossover_matches_direct_scan(n, data):
    r = data.draw(gap_vectors(n))
    p = probs_from_gaps(r).p
    dev = p - 1.0 / n
    if np.any(np.abs(dev) < 1e-12):
        return
    assert crossover_index(r) == int(np.max(np.nonzero(dev > 0)[0])) + 1
