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

from .errors import DegenerateSpectrumError, NumericalBreakdownError, ValidationError
from .flags import pair_indices
from .spectral import (
    GapVector,
    ProbVector,
    inverse_cartan,
    jacobian_matrix,
    probs_from_gaps,
)

SYMMETRY_TOL = 1e-13
SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class MetricTensor:
    """Real symmetric (n-1) x (n-1) metric in r-coordinates."""

    n: int
    g: np.ndarray

    def __post_init__(self):
        g = np.array(self.g, dtype=float)
        m = self.n - 1
        if g.shape != (m, m):
            raise ValidationError(f"metric must be {m} x {m}, got {g.shape}")
        if np.max(np.abs(g - g.T), initial=0.0) > SYMMETRY_TOL:
            raise ValidationError("metric components must be symmetric")
        g.setflags(write=False)
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
    p = probs_from_gaps(r).p
    if np.min(p) < SINGULAR_TOL:
        raise NumericalBreakdownError(
            "Fisher metric singular: an eigenvalue vanishes"
        )
    M = jacobian_matrix(r.n)
    return MetricTensor(r.n, M.T @ (M / p[:, None]))


def kl_exact(p: ProbVector) -> float:
    """Relative entropy to the uniform distribution, sum_k p_k ln(n p_k)."""
    if np.min(p.p) < SINGULAR_TOL:
        raise NumericalBreakdownError("relative entropy undefined at zero probability")
    return float(np.sum(p.p * np.log(p.n * p.p)))


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
    if np.min(r.r) < SINGULAR_TOL:
        raise DegenerateSpectrumError(
            "Bures angular chart degenerates at vanishing gaps"
        )
    p = probs_from_gaps(r).p
    spectral = MetricTensor(r.n, 0.25 * fisher_metric_r(r).g)
    cum = np.concatenate(([0.0], np.cumsum(r.r)))
    weights = {}
    for (i, j) in pair_indices(r.n):
        gap = cum[j - 1] - cum[i - 1]
        weights[(i, j)] = 0.5 * gap * gap / (p[i - 1] + p[j - 1])
    return BuresDecomposition(spectral, weights)


def purity_trace_norm(rho) -> float:
    """Normalized trace distance to the maximally mixed state,
    (n / (2(n-1))) sum_i |p_i - 1/n|, computed from the spectrum of rho.

    Accepts a DensityMatrix or a plain Hermitian array.
    """
    mat = np.asarray(getattr(rho, "rho", rho), dtype=complex)
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
    dev = probs_from_gaps(r).p - 1.0 / r.n
    k = min(max(int(np.count_nonzero(dev > 0.0)), 1), r.n - 1)
    cinv = inverse_cartan(r.n)
    return float(r.n / (r.n - 1.0) * cinv[:, k - 1] @ r.r)


def shannon_entropy(p: ProbVector) -> float:
    """Shannon entropy -sum p_k log p_k, with zero entries contributing 0."""
    q = p.p[p.p > 0.0]
    return float(-np.sum(q * np.log(q)))
