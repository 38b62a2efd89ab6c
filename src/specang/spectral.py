"""Gap coordinates on the weighted simplex and the A_{n-1} coweight algebra.

An ordered eigenvalue vector p_1 >= ... >= p_n >= 0 (summing to 1) is traded
for its successive gaps r_a = p_a - p_{a+1}.  The admissible gap vectors fill
the weighted simplex

    R_{n-1} = { r : r_a >= 0,  sum_a a * r_a <= 1 },

and the linear map back to probabilities is p = 1/n + M r, where column a of
M is the diagonal of the a-th fundamental coweight of sl(n).  Everything here
is a pure function of its inputs; values are immutable after construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    TOL, CrossoverDegeneracyError, ValidationError, _finite, _frozen, check_count, check_gaps,
    check_probs, checked_array,
)

# Exact (rational) volume formulas use factorials; keep them well inside the
# range where the geometry is actually explored.
MAX_EXACT_N = 20
# Rows per uniform draw of rejection_volume_estimate (1.1 MB at n = 4); freed, it lifts
# glibc's mmap and trim thresholds, so later MB-sized temporaries reuse heap pages.
VOLUME_BLOCK = 49152


@dataclass(frozen=True)
class ProbVector:
    """Ordered probability (eigenvalue) vector of length n."""

    n: int
    p: np.ndarray

    def __post_init__(self):
        check_count("dimension", self.n, 2)
        p = checked_array("probabilities", self.p, float, (self.n,))
        check_probs(p)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class GapVector:
    """Spectral gap vector r of length n-1, constrained to R_{n-1}."""

    n: int
    r: np.ndarray

    def __post_init__(self):
        check_count("dimension", self.n, 2)
        r = checked_array("gaps", self.r, float, (self.n - 1,))
        check_gaps(r)
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class CoweightBasis:
    """The n-1 fundamental coweights of sl(n) as diagonal traceless matrices."""

    n: int
    omega: tuple

    def __post_init__(self):
        check_count("dimension", self.n, 2)
        omega = tuple(checked_array("coweight", w, float, (self.n, self.n)) for w in self.omega)
        if len(omega) != self.n - 1:
            raise ValidationError("coweight basis must contain n-1 matrices")
        object.__setattr__(self, "omega", omega)


def gaps_stack(p: np.ndarray) -> np.ndarray:
    """Successive gaps r_a = p_a - p_{a+1} of a stack of spectra: (..., n) -> (..., n-1)."""
    return p[..., :-1] - p[..., 1:]


def gaps_from_probs(p: ProbVector) -> GapVector:
    """Successive gaps of an ordered probability vector; see gaps_stack."""
    return GapVector(p.n, gaps_stack(p.p))


def sorted_probs(values) -> ProbVector:
    """Explicitly sort raw values in descending order into a ProbVector.

    gaps_from_probs rejects unordered input; use this when reordering is
    actually intended, so it never happens silently.
    """
    v = _finite("probabilities", values, float, (None,), "finite")
    return ProbVector(v.size, np.sort(v)[::-1])


@functools.cache
def jacobian_matrix(n: int) -> np.ndarray:
    """The n x (n-1) matrix M with p = 1/n + M r; column a is diag(omega_a).
    Built once per n, read-only."""
    check_count("dimension", n, 2)
    a = np.arange(1, n, dtype=float)
    k = np.arange(1, n + 1, dtype=float)
    return _frozen(np.where(k[:, None] <= a[None, :], 1.0 - a / n, -a / n))


def probs_stack(r: np.ndarray) -> np.ndarray:
    """Probabilities p = 1/n + M r of a stack of gap vectors: (..., n-1) -> (..., n).
    One matrix-vector product per row, so a row equals the single-vector result."""
    n = r.shape[-1] + 1
    return 1.0 / n + (jacobian_matrix(n) @ r[..., None])[..., 0]


def probs_from_gaps(r: GapVector) -> ProbVector:
    """Recover the ordered probabilities from a gap vector; see probs_stack."""
    return ProbVector(r.n, probs_stack(r.r))


def fundamental_coweights(n: int) -> CoweightBasis:
    """Fundamental coweights omega_a = (1/n) diag(n-a,...,-a,...) of sl(n)."""
    M = jacobian_matrix(n)
    return CoweightBasis(n, tuple(np.diag(M[:, a]) for a in range(n - 1)))


def cartan_matrix(n: int) -> np.ndarray:
    """Type A_{n-1} Cartan matrix (integer, tridiagonal)."""
    check_count("dimension", n, 2)
    m = n - 1
    C = 2 * np.eye(m, dtype=int)
    C -= np.eye(m, k=1, dtype=int) + np.eye(m, k=-1, dtype=int)
    return C


@functools.cache
def inverse_cartan(n: int) -> np.ndarray:
    """Inverse A_{n-1} Cartan matrix, inverse_cartan_exact rounded to floats.
    Built once per n, read-only."""
    return _frozen(np.array(inverse_cartan_exact(n), dtype=float))


def inverse_cartan_exact(n: int):
    """Inverse Cartan matrix as exact Fractions (nested lists): entries
    min(a,j)(n - max(a,j))/n."""
    check_count("dimension", n, 2)
    return [
        [Fraction(min(a, j) * (n - max(a, j)), n) for j in range(1, n)]
        for a in range(1, n)
    ]


def spectral_diagonal(r: GapVector) -> np.ndarray:
    """Traceless diagonal D(r) = sum_a r_a omega_a = diag(p_k - 1/n)."""
    return np.diag(probs_stack(r.r) - 1.0 / r.n)


def in_polytope(r, n: int) -> bool:
    """Membership in the weighted simplex R_{n-1} (boundary inclusive)."""
    check_count("dimension", n, 2)
    r = _finite("gaps", r, float, (n - 1,), "finite")
    return bool(np.all(r >= -TOL)) and float(np.arange(1, n) @ r) <= 1.0 + TOL


def polytope_vertices(n: int):
    """The n vertices of R_{n-1}: the origin and e_a / a for a = 1..n-1."""
    check_count("dimension", n, 2)
    rows = np.vstack([np.zeros(n - 1), np.diag(1.0 / np.arange(1, n))])
    return [GapVector(n, v) for v in rows]


def ordered_simplex_volume(n: int) -> Fraction:
    """Euclidean volume of the ordered probability simplex: 1/(n! (n-1)!)."""
    check_count("dimension", n, 2)
    if n > MAX_EXACT_N:
        raise ValidationError(f"exact volumes limited to n <= {MAX_EXACT_N}")
    return Fraction(1, math.factorial(n) * math.factorial(n - 1))


def weighted_simplex_volume(n: int) -> Fraction:
    """Euclidean volume of R_{n-1}: 1/((n-1)!)^2."""
    check_count("dimension", n, 2)
    if n > MAX_EXACT_N:
        raise ValidationError(f"exact volumes limited to n <= {MAX_EXACT_N}")
    return Fraction(1, math.factorial(n - 1) ** 2)


def crossover_index(r: GapVector) -> int:
    """Largest k (1-based) with p_k >= 1/n.

    Raises CrossoverDegeneracyError if some p_k is within tolerance of 1/n,
    where the index (a measure-zero configuration) is ill-defined.
    """
    dev = probs_stack(r.r) - 1.0 / r.n
    if not np.all(np.abs(dev) >= TOL):
        raise CrossoverDegeneracyError(
            "an eigenvalue coincides with 1/n; crossover index undefined"
        )
    return int(np.max(np.nonzero(dev > 0.0)[0])) + 1


def rejection_volume_estimate(n: int, num_samples: int, seed: int):
    """Monte-Carlo estimate of Vol(R_{n-1}) by rejection from the bounding box
    [0,1] x ... x [0,1/(n-1)]: its point x_a = u_a / a, u uniform, lies in
    R_{n-1} when sum_a a x_a = sum_a u_a <= 1.  The u stream through one buffer of
    VOLUME_BLOCK rows in the generator's order, so memory stays bounded and the
    result is that of one whole draw.  Returns (estimate, standard_error)."""
    check_count("dimension", n, 2)
    check_count("num_samples", num_samples, 1)
    check_count("seed", seed, 0)
    box_volume = float(np.prod(1.0 / np.arange(1, n, dtype=float)))
    rng, ones, hits = np.random.default_rng(seed), np.ones(n - 1), 0
    block = np.empty((min(num_samples, VOLUME_BLOCK), n - 1))
    for start in range(0, num_samples, VOLUME_BLOCK):
        hits += int(np.count_nonzero(rng.random(out=block[: num_samples - start]) @ ones <= 1.0))
    frac = hits / num_samples
    est = box_volume * frac
    se = box_volume * math.sqrt(max(frac * (1.0 - frac), 0.0) / num_samples)
    return est, se
