"""Two-sided one-sample Kolmogorov-Smirnov test against Uniform(0, 1), on the
branches of scipy's `kstwo.sf` (Simard & L'Ecuyer, J. Stat. Softw. 39(11), 2011).
Durbin's exact matrix (scaled as in Marsaglia, Tsang & Wang, J. Stat. Softw.
8(18), 2003) also stands in for scipy's Pomeranz recursion."""

import math

import numpy as np

from .errors import NumericalBreakdownError, ValidationError


def _smirnov_sf(N: int, d: float) -> float:
    """P(D_N^+ >= d) = d sum_j C(N, j) (1 - d - j/N)^(N-j) (d + j/N)^(j-1), summed
    in np.longdouble, since a float64 cumulative sum of the log-binomials drifts
    to 2e-8 relative at N = 1e6."""
    j = np.arange(math.floor(N * (1.0 - d)) + 1, dtype=np.longdouble)
    j = j[1.0 - d - j / N > 0]
    log_binom = np.cumsum(np.log(np.concatenate(([1.0], (N + 1 - j[1:]) / j[1:]))))
    log_terms = log_binom + (N - j) * np.log(1.0 - d - j / N) + (j - 1) * np.log(d + j / N)
    return float(d * np.exp(log_terms).sum())


def _durbin_cdf(N: int, d: float) -> float:
    """P(D_N < d): entry (k, k) of N!/N^N H^N for Durbin's m x m matrix H."""
    k = math.ceil(N * d)
    h, m = k - N * d, 2 * k - 1
    w = np.cumprod(np.concatenate(([1.0], 1.0 / np.arange(1.0, m + 1))))  # 1/j!, j = 0..m
    H = np.tril(w[np.abs(np.arange(m)[:, None] - np.arange(m) + 1)], 1)  # 1/(i - j + 1)!
    H[:, 0] = (1.0 - h ** np.arange(1, m + 1)) * w[1:]
    H[-1, 0] = (1.0 + max(2.0 * h - 1.0, 0.0) ** m - 2.0 * h**m) * w[m]
    H[-1] = H[::-1, 0]
    P, expo = np.eye(m), 0  # H^N = 2^expo P, squared up from the leading bit of N
    for bit in bin(N)[2:]:
        P, expo = (P @ P @ H if bit == "1" else P @ P), 2 * expo
        if P[k - 1, k - 1] > 2.0**128:
            P, expo = np.ldexp(P, -128), expo + 128
    p, log_ratio = P[k - 1, k - 1], np.log(np.arange(1, N + 1) / N).sum()  # log N!/N^N
    return math.exp(math.log(p) + expo * math.log(2.0) + log_ratio) if p > 0 else 0.0


def _pelz_good_cdf(N: int, d: float) -> float:
    """P(D_N < d) to O(1/N^2): the Pelz-Good series in z = sqrt(N) d."""
    z, z2, pi2 = math.sqrt(N) * d, N * d * d, math.pi**2
    k = np.arange(1.0, math.ceil(16.0 * z / math.pi) + 1)
    u = pi2 / 4 * (2.0 * k - 1.0) ** 2  # pi^2 m^2 / 4 over odd m = 2k - 1
    C = np.array([[1.0, 0, 0, 0], [-z2, 1, 0, 0],  # K_i = sum_m (C_i . u^(0..3)) exp(-u / 2z^2)
                  [2 * z2**2 * (3 * z2 + 1), z2 * (2 * z2 - 5), 1 - 2 * z2, 0],
                  [-30 * z2**3 * (1 + 3 * z2), 3 * z2**2 * (45 - 32 * z2),
                   4 * z2 * (53 * z2 - 15), 5 - 30 * z2]])
    K = C @ u ** np.arange(4)[:, None] @ np.exp(-u / (2.0 * z2))
    K /= np.array([z, 6 * z2**2, 72 * z**7, 6480 * z2**5])
    k2q = k**2 * np.exp(-pi2 / (2.0 * z2) * k**2)
    K[2] -= pi2 / (36 * z**3) * k2q.sum()
    K[3] += pi2 / (216 * z2**3) * ((3 * z2 - pi2 * k**2) * k2q).sum()
    return float(math.sqrt(2 * math.pi) * K @ float(N) ** (-np.arange(4) / 2))


def kolmogorov_sf(N: int, d: float) -> float:
    """P(D_N >= d) for the two-sided KS statistic of N uniform draws."""
    nd2 = N * d * d
    if d >= 1.0 or N * d <= 0.5 or (d < 0.5 and N > 140 and nd2 >= 370.0):
        return float(N * d <= 0.5)  # the edges: 1 for N d <= 1/2, else 0
    if d >= 0.5 or (nd2 > 4.0 if N <= 140 else nd2 >= 2.2):
        return min(2.0 * _smirnov_sf(N, d), 1.0)
    if N <= 140 or (N <= 100_000 and N * d**1.5 <= 1.4):
        return max(1.0 - _durbin_cdf(N, d), 0.0)
    return min(max(1.0 - _pelz_good_cdf(N, d), 0.0), 1.0)


def ks_uniform(x) -> tuple[float, float]:
    """(D_N, P(D_N >= D_N observed)) for a non-empty 1-D sample of reals against Uniform(0, 1),
    else ValidationError; a NaN or infinite entry raises NumericalBreakdownError."""
    try:
        if np.iscomplexobj(x):  # the cast below would keep only the real part, with a warning
            raise TypeError("got complex entries")
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # a string, ragged nesting, 10**400
        raise ValidationError(f"sample must be an array of numbers: {exc}") from None
    if not (x.ndim == 1 and x.size):  # None reads as a 0-D NaN
        raise ValidationError(f"sample must be a non-empty 1-D array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NumericalBreakdownError("non-finite entry in the sample")
    x = np.sort(np.clip(x, 0.0, 1.0))
    i = np.arange(x.size)
    d = float(max(np.max((i + 1.0) / x.size - x), np.max(x - i / x.size)))  # max(D+, D-)
    return d, kolmogorov_sf(x.size, d)
