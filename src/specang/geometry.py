"""Information geometry in gap coordinates.

Fisher-Rao metric pulled back to the weighted simplex, the quadratic
relative-entropy form it generates at the origin, the split of the Bures
metric into a spectral block and per-mode angular weights, and the
piecewise-linear purity functional (normalized trace distance to the
maximally mixed state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    SYMMETRY_TOL, TOL, NumericalBreakdownError, ValidationError, _finite, check_count,
    check_gap_floor, checked_array,
)
from .flags import pair_indices
from .spectral import (
    GapVector,
    ProbVector,
    inverse_cartan,
    jacobian_matrix,
    probs_stack,
)


@dataclass(frozen=True)
class MetricTensor:
    """Real symmetric (n-1) x (n-1) metric in r-coordinates."""

    n: int
    g: np.ndarray

    def __post_init__(self):
        check_count("dimension", self.n, 2)
        g = checked_array("metric", self.g, float, (self.n - 1, self.n - 1))
        if not np.max(np.abs(g - g.T)) <= SYMMETRY_TOL:
            raise ValidationError("metric components must be symmetric")
        object.__setattr__(self, "g", g)


@dataclass(frozen=True)
class BuresDecomposition:
    """Bures metric split: spectral block plus angular weight per mode (i,j)."""

    spectral_part: MetricTensor
    angular_weights: dict


def fisher_metric_r(r: GapVector) -> MetricTensor:
    """Fisher-Rao metric pulled back to gap coordinates:
    g_ab = sum_k M_ka M_kb / p_k.
    """
    p = probs_stack(r.r)
    if not np.min(p) >= TOL:
        raise NumericalBreakdownError("Fisher metric singular: an eigenvalue vanishes")
    M = jacobian_matrix(r.n)
    return MetricTensor(r.n, M.T @ (M / p[:, None]))


def kl_exact(p: ProbVector) -> float:
    """Relative entropy to the uniform distribution, sum_k p_k ln(n p_k), 0 ln 0 = 0."""
    q = p.p[p.p > 0.0]
    return float(np.sum(q * np.log(p.n * q)))


def kl_quadratic(r: GapVector) -> float:
    """Quadratic model of the relative entropy near the origin:
    (n/2) sum_ab (C^-1)_ab r_a r_b.
    """
    return float(0.5 * r.n * r.r @ inverse_cartan(r.n) @ r.r)


def bures_decomposition(r: GapVector) -> BuresDecomposition:
    """Split of the Bures line element in gap coordinates.

    The spectral block is a quarter of the Fisher-Rao metric; the angular
    weight of mode (i,j), i<j, is (1/2) (sum_{a=i}^{j-1} r_a)^2 / (p_i + p_j).
    Requires a nondegenerate spectrum: vanishing gaps collapse the
    corresponding angular modes and degenerate the coordinate chart.
    """
    check_gap_floor(r.r, TOL, "Bures angular chart")
    p = probs_stack(r.r)
    spectral = MetricTensor(r.n, 0.25 * fisher_metric_r(r).g)
    cum = np.concatenate(([0.0], np.cumsum(r.r)))
    pairs = pair_indices(r.n)
    i, j = np.array(pairs).T - 1
    gap = cum[j] - cum[i]
    return BuresDecomposition(spectral, dict(zip(pairs, 0.5 * gap * gap / (p[i] + p[j]))))


def purity_trace_norm(rho) -> float:
    """Normalized trace distance to the maximally mixed state,
    (n / (2(n-1))) sum_i |p_i - 1/n|, computed from the spectrum of rho.

    Accepts a DensityMatrix or a plain Hermitian array, read as a square complex matrix.
    """
    mat = _finite("rho", getattr(rho, "rho", rho), complex, (None, None), "finite")
    check_count("dimension", len(mat), 2)
    return float(purity_spectrum(np.linalg.eigvalsh(mat)))


def purity_spectrum(p) -> np.ndarray:
    """Purity (n / (2(n-1))) sum_i |p_i - 1/n| of a stack of spectra p (..., n)."""
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    return n / (2.0 * (n - 1)) * np.sum(np.abs(p - 1.0 / n), axis=-1)


def purity_gap(r: GapVector) -> float:
    """Purity from gap coordinates via the crossover index:
    (n/(n-1)) sum_a (C^-1)_{a,k*} r_a.

    k* counts the p_k above 1/n, kept in 1..n-1.  Where some p_k equals 1/n
    (r = 0 included) the neighbouring indices give the same value, so ties,
    at which `crossover_index` raises, need no special case here.
    """
    dev = probs_stack(r.r) - 1.0 / r.n
    k = min(max(int(np.count_nonzero(dev > 0.0)), 1), r.n - 1)
    cinv = inverse_cartan(r.n)
    return float(r.n / (r.n - 1.0) * cinv[:, k - 1] @ r.r)


def shannon_entropy(p: ProbVector) -> float:
    """Shannon entropy -sum p_k log p_k, with zero entries contributing 0."""
    q = p.p[p.p > 0.0]
    return float(0.0 - np.sum(q * np.log(q)))  # +0.0, not -0.0, at a pure state
