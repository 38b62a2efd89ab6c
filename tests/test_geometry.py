"""Fisher-Rao metric, relative entropy, Bures split and purity functional."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specang import (
    DegenerateSpectrumError,
    GapVector,
    NumericalBreakdownError,
    ProbVector,
    assemble_density,
    bures_decomposition,
    fisher_metric_r,
    gaps_from_probs,
    inverse_cartan,
    jacobian_matrix,
    kl_exact,
    kl_quadratic,
    probs_from_gaps,
    purity_gap,
    purity_trace_norm,
    sample_flag,
    shannon_entropy,
)
from conftest import interior_gaps

dims = st.integers(min_value=2, max_value=6)


def interior_strategy(n):
    return st.lists(
        st.floats(min_value=0.1, max_value=1.0), min_size=n - 1, max_size=n - 1
    ).map(
        lambda xs: GapVector(
            n, 0.7 * np.array(xs) / float(np.arange(1, n) @ np.array(xs))
        )
    )


# --- Fisher-Rao ------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 7))
def test_fisher_at_origin(n):
    g = fisher_metric_r(GapVector(n, np.zeros(n - 1))).g
    assert np.allclose(g, n * inverse_cartan(n), atol=1e-12)


def _fisher_fd(r, h=1e-6):
    """Independent finite-difference route: g_ab = 4 sum_k d_a sqrt(p) d_b sqrt(p)."""
    n = r.n
    M = jacobian_matrix(n)
    J = np.empty((n, n - 1))
    for a in range(n - 1):
        e = np.zeros(n - 1)
        e[a] = h
        pp = 1.0 / n + M @ (r.r + e)
        pm = 1.0 / n + M @ (r.r - e)
        J[:, a] = (np.sqrt(pp) - np.sqrt(pm)) / (2.0 * h)
    return 4.0 * J.T @ J


@given(dims, st.data())
@settings(max_examples=40, deadline=None)
def test_fisher_matches_finite_differences(n, data):
    r = data.draw(interior_strategy(n))
    g = fisher_metric_r(r).g
    fd = _fisher_fd(r)
    assert np.max(np.abs(g - fd)) / np.max(np.abs(g)) < 1e-6


@given(dims, st.data())
@settings(max_examples=40)
def test_fisher_positive_definite(n, data):
    r = data.draw(interior_strategy(n))
    assert np.min(np.linalg.eigvalsh(fisher_metric_r(r).g)) > 0.0


def test_fisher_singular_at_boundary():
    with pytest.raises(NumericalBreakdownError):
        fisher_metric_r(GapVector(2, np.array([1.0])))


# --- relative entropy ------------------------------------------------------


def test_kl_zero_at_uniform():
    assert kl_exact(ProbVector(4, np.full(4, 0.25))) == pytest.approx(0.0, abs=1e-15)
    assert kl_quadratic(GapVector(4, np.zeros(3))) == 0.0


@given(dims, st.data())
@settings(max_examples=40)
def test_kl_nonnegative(n, data):
    r = data.draw(interior_strategy(n))
    assert kl_exact(probs_from_gaps(r)) >= 0.0


@pytest.mark.parametrize("n", range(2, 7))
def test_kl_quadratic_is_second_order_model(n, rng):
    # the relative error of the quadratic model vanishes linearly in the
    # scale (cubic remainder over quadratic leading term)
    for _ in range(20):
        direction = interior_gaps(n, rng).r
        for scale in (0.01, 0.001):
            rs = GapVector(n, scale * direction)
            quad = kl_quadratic(rs)
            rel = abs(kl_exact(probs_from_gaps(rs)) - quad) / quad
            assert rel < 5.0 * n * scale


def test_kl_quadratic_qubit_value():
    # n=2: (C^-1) = [[1/2]], so quadratic KL = r^2/2... times n/2 -> r^2 / 2
    assert kl_quadratic(GapVector(2, np.array([0.3]))) == pytest.approx(
        0.5 * 2 * 0.5 * 0.3**2
    )


# --- Bures split -----------------------------------------------------------


@given(dims, st.data())
@settings(max_examples=30)
def test_bures_decomposition(n, data):
    r = data.draw(interior_strategy(n))
    dec = bures_decomposition(r)
    assert np.allclose(dec.spectral_part.g, 0.25 * fisher_metric_r(r).g, atol=1e-14)
    p = probs_from_gaps(r).p
    cum = np.concatenate(([0.0], np.cumsum(r.r)))
    for (i, j), w in dec.angular_weights.items():
        gap = cum[j - 1] - cum[i - 1]
        assert w >= 0.0
        assert w == pytest.approx(0.5 * gap**2 / (p[i - 1] + p[j - 1]), abs=1e-14)
    assert len(dec.angular_weights) == n * (n - 1) // 2


def test_bures_degenerate_raises():
    with pytest.raises(DegenerateSpectrumError):
        bures_decomposition(GapVector(3, np.array([0.3, 0.0])))


# --- purity ----------------------------------------------------------------


def test_purity_extremes():
    n = 4
    pure = np.zeros(n - 1)
    pure[0] = 1.0  # p = (1, 0, 0, 0)
    assert purity_gap(GapVector(n, pure)) == pytest.approx(1.0, abs=1e-14)
    rho_pure = np.zeros((n, n), dtype=complex)
    rho_pure[0, 0] = 1.0
    assert purity_trace_norm(rho_pure) == pytest.approx(1.0, abs=1e-14)
    assert purity_trace_norm(np.eye(n) / n) == pytest.approx(0.0, abs=1e-14)


@given(dims, st.data())
@settings(max_examples=30, deadline=None)
def test_purity_routes_agree(n, data):
    r = data.draw(interior_strategy(n))
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rho = assemble_density(r, sample_flag(n, seed))
    assert abs(purity_trace_norm(rho) - purity_gap(r)) < 1e-12


def test_purity_gap_at_ties():
    # every p_k = 1/n at r = 0; p_2 = 1/3 at r = (1/6, 1/6)
    assert purity_gap(GapVector(3, np.zeros(2))) == 0.0
    r = GapVector(3, np.array([1.0, 1.0]) / 6.0)
    assert purity_gap(r) == pytest.approx(0.25, abs=1e-15)
    assert purity_trace_norm(np.diag([0.5, 1.0 / 3.0, 1.0 / 6.0])) == pytest.approx(0.25)


@given(dims, st.data())
@settings(max_examples=60, deadline=None)
def test_purity_gap_matches_trace_norm_with_ties(n, data):
    # p = 1/n + s d with integer offsets d: zeros in d put p_k at 1/n exactly
    d = data.draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    d = np.sort(np.append(d, -sum(d)))[::-1].astype(float)
    s = data.draw(st.floats(min_value=0.0, max_value=0.9)) / (n * max(np.abs(d).max(), 1.0))
    p = 1.0 / n + s * d
    r = GapVector(n, p[:-1] - p[1:])
    assert abs(purity_gap(r) - purity_trace_norm(np.diag(p))) < 1e-12


def test_purity_accepts_wrapper_and_array(rng):
    r = interior_gaps(3, rng)
    rho = assemble_density(r, sample_flag(3, 5))
    assert purity_trace_norm(rho) == purity_trace_norm(np.asarray(rho.rho))


@given(dims, st.data())
@settings(max_examples=30, deadline=None)
def test_purity_mixing_linearity(n, data):
    r = data.draw(interior_strategy(n))
    s = data.draw(st.floats(min_value=0.05, max_value=1.0))
    rho = assemble_density(r, sample_flag(n, 11)).rho
    mixed = (1.0 - s) * np.eye(n) / n + s * rho
    assert abs(purity_trace_norm(mixed) - s * purity_trace_norm(rho)) < 1e-12


def test_purity_convexity(rng):
    n = 4
    for _ in range(50):
        rho1 = assemble_density(
            interior_gaps(n, rng), sample_flag(n, int(rng.integers(1 << 30)))
        ).rho
        rho2 = assemble_density(
            interior_gaps(n, rng), sample_flag(n, int(rng.integers(1 << 30)))
        ).rho
        lam = float(rng.random())
        mix = lam * rho1 + (1.0 - lam) * rho2
        bound = lam * purity_trace_norm(rho1) + (1.0 - lam) * purity_trace_norm(rho2)
        assert purity_trace_norm(mix) <= bound + 1e-12


@given(dims, st.data())
@settings(max_examples=40)
def test_purity_in_unit_interval(n, data):
    r = data.draw(interior_strategy(n))
    val = purity_gap(r)
    assert -1e-12 <= val <= 1.0 + 1e-12


# --- entropy ---------------------------------------------------------------


@given(dims, st.data())
@settings(max_examples=40)
def test_entropy_bounds(n, data):
    r = data.draw(interior_strategy(n))
    s = shannon_entropy(probs_from_gaps(r))
    assert -1e-12 <= s <= math.log(n) + 1e-12


def test_entropy_handles_zero_eigenvalues():
    p = ProbVector(3, np.array([0.5, 0.5, 0.0]))
    assert shannon_entropy(p) == pytest.approx(math.log(2.0))
