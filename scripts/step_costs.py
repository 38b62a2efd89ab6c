"""Per-step and per-record cost of the two GKLS integrators, per-call cost
of the kernels of a step, and per-call cost of sampling.

Every run prints and stores five tables.  The step table times
`integrate_direct` and `integrate_split` on one random model and state per
dimension, at dt = 1e-3, over a fixed number of steps with records only at
the two ends, and gives the median and interquartile range of the cost in
microseconds per RK4 step over the repeats.  Each timed call includes its
own set-up: it builds a fresh `LindbladModel`, so the route's superoperator
(the Liouvillian or the dissipator alone), which a model caches on first
use, is built once per call.

The record table gives the cost of a record on each route: the same run
with `record_every=1` minus the run with `record_every=steps`, each on a
fresh model, timed back to back in each repeat and divided by the number of
steps, in microseconds per record.

The kernels table gives the same statistics in microseconds per call of
the layers one RK4 step is made of: `split_rhs` at the split state of the
random state (its frame and gaps), `polar_special` on the frame that one
step of `integrate_split` hands to it (one RK4 step off SU(n), so its
Newton-Schulz updates run as in a run), and `lindblad_rhs` at the state.
Each timed sample is KERNEL_CALLS calls on a warm model.

The sampling table gives the same statistics in microseconds per call of
`sample_flags(n, count)` for every dimension and count in 1, 1000 and 4000,
of the whole `verify identity --n n --N 4000` command in this process (one
frame draw and the error of every column, its report discarded), of
`rejection_volume_estimate(4, 750000)`, of `flag_density_theta(3, theta)`
on a fixed (2500, 3) stack of angles, and of `coset_unitaries(3, theta, phi)` and
`qutrit_unitaries_closed_form(theta, phi)` on 200 fixed angle draws: the
kernels behind `sample` and the five `verify` reports (identity, volumes,
measure, unitarity, qutrit-matrix) at the benchmark's parameters.  It also
times the KS p-value of `sample --n 2`,
`kolmogorov_sf(N, 2/sqrt(N))` for N in 1e3, 1e4, 1e5 and 1e6: at N d^2 = 4
it is the one-sided tail sum, whose cost grows with N.  Each call also gets
two memory figures: the
`tracemalloc` peak of one call, in KiB, and the minor page faults per call
(`ru_minflt` of this process) over the repeats, after the timed ones, so
the heap is as warm as in a long-running process.

The writing table gives microseconds per line of the text files: per frame
line of `sample` (the whole `sample --n n --N 1000` command on a fixed frame
stack, so the header statistics and file handling are included, divided by
the 1000 frames) and per row of a trajectory CSV (`write_trajectory_csv` on
a recorded 50-step run, divided by its 51 rows), for every dimension.

The results, with the numpy, scipy and BLAS versions, are stored under
`runs[<label>]` of the JSON output (`results` for steps, `records` for
records, `kernels` for kernels, `sampling` for sampling, `writing` for text
output), so runs of two versions of the library can share one file.

Usage: python3 scripts/step_costs.py --label change --out BENCH_19.json
       PYTHONPATH=<other checkout>/src python3 scripts/step_costs.py --label parent \
           --out BENCH_19.json
"""

import os

# one BLAS thread, as in the benchmark: the matrices are at most 256 x 256
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import math
import resource
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import scipy

from specang import (
    LindbladModel, SplitState, cli, coset_unitaries, dynamics, eigendecompose_ordered,
    flag_density_theta, integrate_direct, integrate_split, lindblad_rhs, pair_indices,
    qutrit_unitaries_closed_form, rejection_volume_estimate, sample_flags, split_rhs,
    write_trajectory_csv,
)
from specang.dynamics import polar_special, random_density, random_model
from specang.kolmogorov import kolmogorov_sf

INTEGRATORS = {"direct": integrate_direct, "split": integrate_split}
DT = 1e-3
SEED = 0
COUNTS = (1, 1000, 4000)  # one frame (random_density), `sample`, `verify identity`
VOLUME_CALL = (4, 750_000)  # the (n, num_samples) of `verify volumes` in the benchmark
MEASURE_CALL = (3, 2500)  # the (n, N) of `verify measure` in the benchmark
DRAWS = 200  # the --trials of `verify unitarity` and `verify qutrit-matrix` (n = 3)
FRAMES = 1000  # frames per `sample` file, as in the benchmark
CSV_STEPS = 50  # steps of the trajectory written to CSV, one record each
KERNEL_CALLS = 100  # kernel calls per timed sample


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


def fresh(model):
    """A new model with the same operators, so no superoperator is cached on it."""
    return LindbladModel(model.n, model.H, model.jumps, model.rates)


def timings(call, repeats):
    """Microseconds of each of `repeats` timed calls of call(), after one warm-up."""
    call()
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        costs.append((time.perf_counter() - t0) * 1e6)
    return costs


def memory(call, repeats):
    """Traced peak in KiB of one call of call(), and minor page faults per
    call over `repeats` untraced calls."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        call()
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / repeats
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"traced_peak_kib": peak / 1024, "minor_faults_per_call": faults}


def summary(costs, unit):
    """Median, quartiles and interquartile range of costs, keyed by unit."""
    q25, med, q75 = np.percentile(costs, [25, 50, 75])
    return {f"{unit}_median": med, f"{unit}_q25": q25, f"{unit}_q75": q75,
            f"{unit}_iqr": q75 - q25}


def step_table(dims, steps, repeats):
    results = []
    for n in dims:
        model = random_model(n, seed=SEED + n)
        rho0 = random_density(n, seed=SEED + 100 + n)
        for method, integrate in INTEGRATORS.items():
            costs = timings(
                lambda: integrate(rho0, fresh(model), steps * DT, DT, record_every=steps), repeats)
            stats = summary(np.array(costs) / steps, "us_per_step")
            results.append({"n": n, "method": method, **stats})
            print(
                f"n={n:2d} {method:6s} median {stats['us_per_step_median']:8.1f} us/step  "
                f"IQR {stats['us_per_step_iqr']:7.1f} "
                f"({repeats} repeats x {steps} steps, dt {DT:g})"
            )
    return results


def record_table(dims, steps, repeats):
    results = []
    for n in dims:
        model = random_model(n, seed=SEED + n)
        rho0 = random_density(n, seed=SEED + 100 + n)
        for method, integrate in INTEGRATORS.items():
            def run(every):
                t0 = time.perf_counter()
                integrate(rho0, fresh(model), steps * DT, DT, record_every=every)
                return time.perf_counter() - t0

            run(1)
            run(steps)
            costs = [(run(1) - run(steps)) * 1e6 / steps for _ in range(repeats)]
            stats = summary(costs, "us_per_record")
            results.append({"n": n, "method": method, **stats})
            print(
                f"n={n:2d} {method:6s} median {stats['us_per_record_median']:8.1f} us/record  "
                f"IQR {stats['us_per_record_iqr']:7.1f} ({repeats} repeats x {steps} records)"
            )
    return results


def off_frame(rho0, model):
    """The frame one RK4 step of integrate_split hands to polar_special."""
    frames = []

    def capture(U):
        frames.append(np.array(U))
        return polar_special(U)

    with mock.patch.object(dynamics, "polar_special", capture):
        integrate_split(rho0, model, DT, DT)
    return frames[0]


def kernel_table(dims, repeats):
    results = []
    for n in dims:
        model = random_model(n, seed=SEED + n)
        rho0 = random_density(n, seed=SEED + 100 + n)
        state = SplitState(*eigendecompose_ordered(rho0), 0.0)
        U = off_frame(rho0, model)
        calls = {"split_rhs": lambda: split_rhs(state, model),
                 "polar_special": lambda: polar_special(U),
                 "lindblad_rhs": lambda: lindblad_rhs(rho0, model)}
        for kernel, call in calls.items():
            def batch(call=call):
                for _ in range(KERNEL_CALLS):
                    call()

            stats = summary(np.array(timings(batch, repeats)) / KERNEL_CALLS, "us_per_call")
            results.append({"n": n, "kernel": kernel, **stats})
            print(f"n={n:2d} {kernel:13s} median {stats['us_per_call_median']:8.2f} us/call  "
                  f"IQR {stats['us_per_call_iqr']:6.2f} ({repeats} repeats x {KERNEL_CALLS})")
    return results


def verify_identity(n):
    """`verify identity --n n --N 4000` through cli.main, its report discarded."""
    argv = ["verify", "identity", "--n", str(n), "--N", str(COUNTS[-1]), "--seed", str(SEED)]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)


def sampling_table(dims, repeats):
    calls = [("sample_flags", {"n": n, "count": count},
              lambda n=n, count=count: sample_flags(n, count, SEED))
             for n in dims for count in COUNTS]
    calls += [("verify identity", {"n": n, "N": COUNTS[-1]}, lambda n=n: verify_identity(n))
              for n in dims]
    volume_n, volume_samples = VOLUME_CALL
    calls.append(("rejection_volume_estimate", {"n": volume_n, "num_samples": volume_samples},
                  lambda: rejection_volume_estimate(volume_n, volume_samples, SEED)))
    measure_n, measure_samples = MEASURE_CALL
    rng = np.random.default_rng(SEED)
    thetas = rng.random((measure_samples, len(pair_indices(measure_n)))) * math.pi
    calls.append(("flag_density_theta", {"n": measure_n, "stack": measure_samples},
                  lambda: flag_density_theta(measure_n, thetas)))
    theta, phi = rng.random((DRAWS, 3)) * math.pi, rng.random((DRAWS, 3)) * (2.0 * math.pi)
    calls.append(("coset_unitaries", {"n": 3, "draws": DRAWS},
                  lambda: coset_unitaries(3, theta, phi)))
    calls.append(("qutrit_unitaries_closed_form", {"n": 3, "draws": DRAWS},
                  lambda: qutrit_unitaries_closed_form(theta, phi)))
    calls += [("kolmogorov_sf", {"N": N, "d": 2.0 / math.sqrt(N)},
               lambda N=N: kolmogorov_sf(N, 2.0 / math.sqrt(N)))
              for N in (10**3, 10**4, 10**5, 10**6)]
    results = []
    for name, params, call in calls:
        stats = summary(timings(call, repeats), "us_per_call")
        mem = memory(call, repeats)
        results.append({"call": name, **params, **stats, **mem})
        args = ", ".join(f"{key}={value}" for key, value in params.items())
        print(f"{name}({args}) median {stats['us_per_call_median']:10.1f} us/call  "
              f"IQR {stats['us_per_call_iqr']:8.1f} ({repeats} repeats)  "
              f"peak {mem['traced_peak_kib']:9.1f} KiB  "
              f"{mem['minor_faults_per_call']:7.1f} faults/call")
    return results


def writing_table(dims, repeats):
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in dims:
            frames = sample_flags(n, FRAMES, SEED)
            argv = ["sample", "--n", str(n), "--N", str(FRAMES), "--seed", str(SEED),
                    "--out", str(Path(tmp) / "frames.jsonl")]
            with mock.patch.object(cli, "sample_flags", lambda *_: frames), \
                    contextlib.redirect_stdout(io.StringIO()):
                line = timings(lambda: cli.main(argv), repeats)
            traj = integrate_direct(random_density(n, seed=SEED + 100 + n),
                                    random_model(n, seed=SEED + n), CSV_STEPS * DT, DT)
            path = Path(tmp) / "traj.csv"
            row = timings(lambda: write_trajectory_csv(path, traj, {"dt": DT}), repeats)
            for kind, costs, count in (("sample_line", line, FRAMES),
                                       ("csv_row", row, len(traj.times))):
                stats = summary(np.array(costs) / count, "us_per_item")
                results.append({"n": n, "output": kind, "items": count, **stats})
                print(f"n={n:2d} {kind:11s} median {stats['us_per_item_median']:8.2f} us/item  "
                      f"IQR {stats['us_per_item_iqr']:6.2f} ({repeats} repeats x {count})")
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 8, 16])
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--label", default="run")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    results = step_table(args.dims, args.steps, args.repeats)
    records = record_table(args.dims, args.steps, args.repeats)
    kernels = kernel_table(args.dims, args.repeats)
    sampling = sampling_table(args.dims, args.repeats)
    writing = writing_table(args.dims, args.repeats)

    prov = provenance()
    print(
        f"numpy {prov['numpy']}, scipy {prov['scipy']}, BLAS {prov['blas']} "
        f"({prov['blas_threads']} thread)"
    )
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault(
        "description",
        "microseconds per RK4 step (results), per record (records), per kernel call "
        "(kernels), per sampling call with its traced peak and page faults (sampling) and "
        "per written frame line or CSV row (writing), see scripts/step_costs.py",
    )
    doc.setdefault("runs", {})[args.label] = {
        "provenance": prov,
        "params": {
            "dt": DT,
            "steps": args.steps,
            "repeats": args.repeats,
            "seed": SEED,
            "counts": COUNTS,
            "measure_call": MEASURE_CALL,
            "draws": DRAWS,
            "frames": FRAMES,
            "csv_steps": CSV_STEPS,
            "kernel_calls": KERNEL_CALLS,
        },
        "results": results,
        "records": records,
        "kernels": kernels,
        "sampling": sampling,
        "writing": writing,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote runs[{args.label!r}] to {out}")


if __name__ == "__main__":
    main()
