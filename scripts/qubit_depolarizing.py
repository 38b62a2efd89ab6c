"""Depolarizing qubit benchmark.

Integrates the qubit with the three Pauli jump operators at equal rates in
both direct and split form, writes the trajectories to CSV, and fits the
radial decay rate, which should equal -4 times the common rate.

Usage: python3 scripts/qubit_depolarizing.py --rate 1.0 --t-end 1.0 --out /tmp/depol
"""

import argparse
import math

import numpy as np

from specang import PAULI, LindbladModel, integrate_direct, integrate_split, write_trajectory_csv
from specang.dynamics import random_density


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=1.0)
    parser.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="depol", help="output CSV prefix")
    args = parser.parse_args()

    model = LindbladModel(2, np.zeros((2, 2)), PAULI, (args.rate,) * 3)
    rho0 = random_density(2, seed=args.seed, fill=0.8)

    direct = integrate_direct(rho0, model, args.t_end, args.dt, record_every=10)
    split = integrate_split(rho0, model, args.t_end, args.dt, record_every=10)
    header = {"rate": args.rate, "dt": args.dt, "seed": args.seed}
    write_trajectory_csv(f"{args.out}_direct.csv", direct, {**header, "method": "direct"})
    write_trajectory_csv(f"{args.out}_split.csv", split, {**header, "method": "split"})

    radii = split.r[:, 0]
    slope = np.polyfit(split.times, np.log(radii), 1)[0]
    divergence = np.max(np.linalg.norm(direct.rho - split.rho, axis=(1, 2)))
    r_exact = radii[0] * math.exp(-4.0 * args.rate * split.times[-1])

    print(f"fitted radial rate : {slope:.8f} (expect {-4.0 * args.rate})")
    print(f"final radius       : {radii[-1]:.3e} (exact {r_exact:.3e})")
    print(f"split vs direct    : {divergence:.3e} (Frobenius, worst record)")
    print(f"wrote {args.out}_direct.csv and {args.out}_split.csv")


if __name__ == "__main__":
    main()
