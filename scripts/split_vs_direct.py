"""Cross-validation sweep of the two GKLS integrators.

Draws random models (Gaussian Hamiltonian, Gaussian jump operators) and
random nondegenerate initial states, integrates each with the direct
density-matrix RK4 and with the split gap/frame RK4, and reports the worst
Frobenius divergence per dimension along with the smallest spectral gap
encountered (the split chart breaks down when gaps close) and the worst
recorded frame defect ||U^dag U - 1||_F of a split step before its polar
correction (a step is rejected from FRAME_DEFECT = 0.5 on).

Usage: python3 scripts/split_vs_direct.py --dims 2 3 4 --models 10
"""

import argparse
import time

import numpy as np

from specang import integrate_direct, integrate_split
from specang.dynamics import random_density, random_model


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--models", type=int, default=10)
    parser.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for n in args.dims:
        worst = 0.0
        min_gap = np.inf
        max_defect = 0.0
        t0 = time.time()
        for k in range(args.models):
            model = random_model(n, seed=args.seed + k)
            rho0 = random_density(n, seed=args.seed + 1000 + k)
            direct = integrate_direct(rho0, model, args.t_end, args.dt, record_every=100)
            split = integrate_split(rho0, model, args.t_end, args.dt, record_every=100)
            div = np.max(np.linalg.norm(direct.rho - split.rho, axis=(1, 2)))
            worst = max(worst, float(div))
            min_gap = min(min_gap, float(np.min(split.diagnostics["min_gap"])))
            max_defect = max(max_defect, float(np.max(split.diagnostics["frame_defect"])))
        elapsed = time.time() - t0
        print(
            f"n={n}: {args.models} models, worst divergence {worst:.3e}, "
            f"min spectral gap {min_gap:.3e}, max frame defect {max_defect:.3e}, {elapsed:.1f}s"
        )


if __name__ == "__main__":
    main()
