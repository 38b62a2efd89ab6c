"""specang.kolmogorov against scipy's kstwo and kstest."""

import re

import numpy as np
import pytest
from scipy.stats import kstest, kstwo

from specang import NumericalBreakdownError, ValidationError
from specang.kolmogorov import kolmogorov_sf, ks_uniform

P_GRID = np.geomspace(1e-9, 0.9999, 9)


def assert_parity(N, d):
    ref = float(kstwo.sf(d, N))
    err = abs(kolmogorov_sf(N, d) - ref)
    assert err <= 1e-11 and err <= 1e-9 * ref, (N, d, ref, err)


@pytest.mark.parametrize("N", [1, 2, 3, 10, 50, 140, 141, 1000, 10**4, 10**5, 10**6])
def test_sf_matches_kstwo_over_p(N):
    # scipy's tail sum costs about 1.3 s per point at N = 1e6: keep three there
    for p in P_GRID if N < 10**6 else P_GRID[[0, 7, 8]]:
        assert_parity(N, float(kstwo.isf(p, N)))


@pytest.mark.parametrize(
    "N, d",
    [
        (10, 0.05),  # N d <= 1/2
        (1, 0.75), (3, 0.6), (40, 0.5),  # d >= 1/2: twice the one-sided sum, exact
        (50, 0.1), (140, 0.15),  # N <= 140: Durbin (scipy: MTW, then Pomeranz)
        (100, 0.25),  # N <= 140, N d^2 > 4: the one-sided tail
        (141, 0.005), (1000, 0.01),  # Durbin for N d^1.5 <= 1.4, N <= 1e5
        (1000, 0.03), (200_000, 0.002),  # Pelz-Good
        (1000, 0.05), (10**5, 0.005),  # N d^2 >= 2.2: the one-sided tail
        (10**4, 0.2),  # N d^2 >= 370
    ],
)
def test_sf_matches_kstwo_on_every_branch(N, d):
    assert_parity(N, d)


def test_sf_edges_are_exact():
    assert kolmogorov_sf(10, 0.05) == 1.0
    assert kolmogorov_sf(5, 0.0) == 1.0
    assert kolmogorov_sf(5, 1.0) == 0.0
    assert kolmogorov_sf(10**4, 0.2) == 0.0


@pytest.mark.parametrize("N", [1, 2, 7, 140, 2000])
def test_ks_uniform_matches_kstest(N):
    for seed in range(5):
        x = np.random.default_rng(seed).random(N) ** (1.0 + 0.1 * seed)
        ref = kstest(x, "uniform")
        d, p = ks_uniform(x)
        assert d == ref.statistic
        assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("N", [4, 1000], ids=["durbin", "pelz-good"])
def test_ks_uniform_rejects_a_non_finite_entry(N, bad):
    # a NaN reached math.ceil on either branch of kolmogorov_sf as a bare ValueError;
    # an infinity was clipped into the sample
    x = np.random.default_rng(N).random(N)
    x[N // 2] = bad
    with pytest.raises(NumericalBreakdownError, match="^non-finite entry in the sample$"):
        ks_uniform(x)


@pytest.mark.parametrize("x, message", [
    ("a", "sample must be an array of numbers: could not convert string to float: 'a'"),
    ([[0.1, 0.2], [0.3]], "sample must be an array of numbers: setting an array element"),
    (np.full((2, 3), 0.5), "sample must be a non-empty 1-D array, got shape (2, 3)"),
    ([], "sample must be a non-empty 1-D array, got shape (0,)"),
    (None, "sample must be a non-empty 1-D array, got shape ()"),
    (np.array([0.5 + 0.3j, 0.2]), "sample must be an array of numbers: got complex entries"),
    ([0.5 + 0.3j, 0.2], "sample must be an array of numbers: got complex entries"),
], ids=["string", "ragged", "2-d", "empty", "none", "complex-array", "complex-list"])
def test_ks_uniform_rejects_a_sample_that_is_not_a_1d_array_of_numbers(x, message):
    # each ended in a bare numpy ValueError, or (None, read as a 0-D NaN) in
    # NumericalBreakdownError
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        ks_uniform(x)
