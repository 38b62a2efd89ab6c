"""Flag-manifold Monte Carlo experiments.

Prints the resolution-of-identity error of the sampled frame measure as a
function of sample size (expected ~1/sqrt(N)), the rejection estimate of the
gap-polytope volume against its exact rational value, and the normalization
of the explicit angular density.

Usage: python3 scripts/flag_montecarlo.py --n 3 --seed 0
"""

import argparse
import math

import numpy as np

from specang import (
    flag_density_theta,
    pair_indices,
    rejection_volume_estimate,
    resolution_check,
    weighted_simplex_volume,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    n, seed = args.n, args.seed

    print(f"resolution of identity, n={n} (first column):")
    for N in (1_000, 10_000, 100_000):
        _, err = resolution_check(n, 1, N, seed)
        print(f"  N={N:>7d}: frobenius error {err:.5f}  (err*sqrt(N) = {err * math.sqrt(N):.2f})")

    exact = float(weighted_simplex_volume(n))
    est, se = rejection_volume_estimate(n, 1_000_000, seed)
    print(f"\ngap polytope volume, n={n}:")
    print(f"  exact    : {exact:.6f} ({weighted_simplex_volume(n)})")
    # at n = 2 the sampling box is the polytope itself, so se = 0
    sigma = abs(est - exact) / se if se > 0.0 else 0.0
    print(f"  rejection: {est:.6f} +- {se:.6f}  ({sigma:.2f} sigma)")

    rng = np.random.default_rng(seed)
    m = len(pair_indices(n))
    N = 200_000
    vals = flag_density_theta(n, rng.random((N, m)) * math.pi)
    box = (2.0 * math.pi**2) ** m
    est = box * vals.mean()
    se = box * vals.std(ddof=1) / math.sqrt(N)
    print(f"\nangular density normalization, n={n}: {est:.4f} +- {se:.4f} (expect 1)")


if __name__ == "__main__":
    main()
