"""Per-step cost of the two GKLS integrators.

Times `integrate_direct` and `integrate_split` on one random model and state
per dimension, at dt = 1e-3, over a fixed number of steps with records only
at the two ends, and prints the median and interquartile range of the cost
in microseconds per RK4 step over the repeats.  Each timed call includes its
own set-up (the direct route builds the Liouvillian once per call).  The
results, with the numpy, scipy and BLAS versions, are stored under
`runs[<label>]` of the JSON output, so runs of two versions of the library
can share one file.

Usage: python3 scripts/step_costs.py --label change --out BENCH_3.json
       PYTHONPATH=<other checkout>/src python3 scripts/step_costs.py --label base
"""

import os

# one BLAS thread, as in the benchmark: the matrices are at most 256 x 256
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import time
from pathlib import Path

import numpy as np
import scipy

from specang import integrate_direct, integrate_split
from specang.dynamics import random_density, random_model

INTEGRATORS = {"direct": integrate_direct, "split": integrate_split}
DT = 1e-3
SEED = 0


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def provenance():
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def step_costs(n, method, steps, repeats):
    """Microseconds per step of `repeats` timed calls, after one warm-up."""
    model = random_model(n, seed=SEED + n)
    rho0 = random_density(n, seed=SEED + 100 + n)
    integrate = INTEGRATORS[method]
    integrate(rho0, model, steps * DT, DT, record_every=steps)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        integrate(rho0, model, steps * DT, DT, record_every=steps)
        costs.append((time.perf_counter() - t0) / steps * 1e6)
    return costs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 8, 16])
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--label", default="run")
    parser.add_argument("--out", default="BENCH_3.json")
    args = parser.parse_args()

    results = []
    for n in args.dims:
        for method in INTEGRATORS:
            costs = step_costs(n, method, args.steps, args.repeats)
            q25, med, q75 = np.percentile(costs, [25, 50, 75])
            results.append(
                {
                    "n": n,
                    "method": method,
                    "us_per_step_median": med,
                    "us_per_step_q25": q25,
                    "us_per_step_q75": q75,
                    "us_per_step_iqr": q75 - q25,
                }
            )
            print(
                f"n={n:2d} {method:6s} median {med:8.1f} us/step  IQR {q75 - q25:7.1f} "
                f"({args.repeats} repeats x {args.steps} steps, dt {DT:g})"
            )

    prov = provenance()
    print(
        f"numpy {prov['numpy']}, scipy {prov['scipy']}, BLAS {prov['blas']} "
        f"({prov['blas_threads']} thread)"
    )
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("description", "microseconds per RK4 step, see scripts/step_costs.py")
    doc.setdefault("runs", {})[args.label] = {
        "provenance": prov,
        "params": {
            "dt": DT,
            "steps": args.steps,
            "repeats": args.repeats,
            "seed": SEED,
        },
        "results": results,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote runs[{args.label!r}] to {out}")


if __name__ == "__main__":
    main()
