"""Per-step and per-record cost of the two GKLS integrators, per-call cost
of the kernels of a step, and per-call cost of sampling.

Every run prints and stores five tables through one harness, `table`.  A
table is a list of rows; a row is its identity fields, a call or the list of
its costs already measured, and the number of items one cost stands for.  A
call is timed `--repeats` times after one warm-up, and every row gets the
median, quartiles and interquartile range of its cost per item.

The step and record tables share one set of runs.  Per dimension and route
(`integrate_direct`, `integrate_split`; one random model and state, dt = 1e-3,
a fixed number of steps) each repeat is a pair of runs back to back: one
recording only at the two ends, one with `record_every=1`.  A warm-up pair
comes first: 2 * repeats + 2 runs.  Each run builds a fresh `LindbladModel`,
so what the model's form (`model.jump_form`) caches on first use is built,
and timed, once per run: the route's superoperator (the Liouvillian or the
dissipator alone), or in the jump form, which two-jump models take from
n = 13, the jump pairs (B, C) of both generators.  The step
table gives the end-recording run per RK4 step, the record table the
difference of a pair per step, both in microseconds.

The kernels table gives the same statistics in microseconds per call of
the layers one RK4 step is made of: `split_rhs` at the split state of the
random state (its frame and gaps), `polar_special` on the frame that one
step of `integrate_split` hands to it (one RK4 step off SU(n), so its
Newton-Schulz updates run as in a run), and `lindblad_rhs` at the state.
Each timed sample is KERNEL_CALLS calls on a warm model.  Beside them it gives
the three costs of the direct route's superoperator step, timed through
`integrate_direct` itself (`direct_step_costs`): `matrix_build`, one build of
the increment matrix E = sum_{k=1..4} (dt L)^k / k!, `matrix_step`, one step
rho + E rho, and `horner_step`, one Horner step of four matvecs, each with the
re-Hermitizing and renormalizing that every direct step shares.  Runs of one
warm model at 1 and n^2 - 1 steps take the Horner step, runs at n^2 and 2 n^2
steps build E and take the matrix step, and the differences of their times
give the three costs.  A run takes E from n^2 steps on; the build divided by
the saving per step, horner_step less matrix_step, is the number of steps
after which E has paid for itself.  These three rows are left out at an n
where an n^2-step run takes no matrix step (the model is in the jump form, as
two-jump models are from n = 13, or E's five n^4 arrays exceed MEMORY_LIMIT).

The sampling table gives the same statistics in microseconds per call of
`sample_flags(n, count)` for every dimension and count in 1, 7, 200, 1000 and
4000, on both sides of the frame draw's loop choice (Gram-Schmidt over the
frame axis from FRAME_AXIS_COST n^4 frames on, batched products below),
of the whole `verify identity --n n --N 4000` command in this process (one
frame draw and the error of every column, its report discarded), of
`rejection_volume_estimate(4, 750000)`, of `flag_density_theta(3, theta)` on
a fixed (2500, 3) stack of angles, and of `coset_unitaries(3, theta, phi)`
and `qutrit_unitaries_closed_form(theta, phi)` on 200 fixed angle draws: the
kernels behind `sample` and the five `verify` reports (identity, volumes,
measure, unitarity, qutrit-matrix) at the benchmark's parameters.  It also
times the KS p-value of `sample --n 2`, `kolmogorov_sf(N, 2/sqrt(N))` for N
in 1e3, 1e4, 1e5 and 1e6: at N d^2 = 4 it is the one-sided tail sum, whose
cost grows with N.  Each call also gets two memory figures: the `tracemalloc`
peak of one call, in KiB, and the minor page faults per call (`ru_minflt` of
this process) over the repeats, after the timed ones, so the heap is as warm
as in a long-running process.

The writing table gives microseconds per line of the text files: per frame
line of `sample` (the whole `sample --n n --N 1000` command on a fixed frame
stack, so the header statistics and file handling are included, divided by
the 1000 frames) and per row of a trajectory CSV (`write_trajectory_csv` on
a recorded 50-step run, divided by its 51 rows), for every dimension.  With
two or more usable CPUs, `sample` forks a child that formats half its frames,
so the provenance records the CPUs this process may use.

The results, with the numpy, scipy and BLAS versions and the usable CPUs, are
stored under `runs[<label>]` of the JSON output (`results` for steps, `records`
for records, `kernels` for kernels, `sampling` for sampling, `writing` for text
output), so runs of two versions of the library can share one file.

The default dimensions are 2, 3, 4, 8, 12 and 16.

Usage: python3 scripts/step_costs.py --label change --out BENCH_38.json
       PYTHONPATH=<other checkout>/src python3 scripts/step_costs.py --label parent \
           --out BENCH_38.json
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
COUNTS = (1, 7, 200, 1000, 4000)  # random_density, small stacks, `sample`, `verify identity`
VOLUME_CALL = (4, 750_000)  # the (n, num_samples) of `verify volumes` in the benchmark
MEASURE_CALL = (3, 2500)  # the (n, N) of `verify measure` in the benchmark
DRAWS = 200  # the --trials of `verify unitarity` and `verify qutrit-matrix` (n = 3)
FRAMES = 1000  # frames per `sample` file, as in the benchmark
CSV_STEPS = 50  # steps of the trajectory written to CSV, one record each
KERNEL_CALLS = 100  # kernel calls per timed sample
RUNS_PER_COST = 5  # runs per time of direct_step_costs, the least kept


def provenance():
    """The numpy, scipy and BLAS versions, the BLAS thread count and the CPUs this
    process may use: with two or more, `sample` formats half its frames in a child."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "cpus": len(os.sched_getaffinity(0))}


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


def table(unit, rows, repeats, with_memory=False):
    """Time, summarize, print and return the rows of one table.

    A row is (identity, cost, items): cost is a call, timed by `timings`, or
    the list of its costs already measured, in microseconds; items is what one
    cost stands for, so the statistics, keyed by unit, are per item.  With
    with_memory each row also gets the `memory` figures of its call."""
    results = []
    for identity, cost, items in rows:
        with contextlib.redirect_stdout(io.StringIO()):  # a timed command's report
            costs = timings(cost, repeats) if callable(cost) else cost
            extra = memory(cost, repeats) if with_memory else {}
        stats = summary(np.array(costs) / items, unit)
        results.append({**identity, **stats, **extra})
        fields = " ".join(f"{key}={value}" for key, value in identity.items())
        print(f"{fields:44s} median {stats[f'{unit}_median']:10.2f} "
              f"{unit.replace('_per_', '/')}  IQR {stats[f'{unit}_iqr']:8.2f} "
              f"({repeats} repeats x {items})"
              + "".join(f"  {key} {value:.1f}" for key, value in extra.items()))
    return results


def case(n):
    """The random model and state of dimension n."""
    return random_model(n, seed=SEED + n), random_density(n, seed=SEED + 100 + n)


def route_rows(dims, steps, repeats):
    """Rows of the step and record tables, from one set of paired runs per (n, route):
    a run recording only at its two ends and one recording every step, back to back,
    each on a fresh model, after one warm-up pair."""
    step_rows, record_rows = [], []
    for n in dims:
        model, rho0 = case(n)
        for method, integrate in INTEGRATORS.items():
            def run(every):
                t0 = time.perf_counter()
                fresh = LindbladModel(n, model.H, model.jumps, model.rates)  # nothing cached
                integrate(rho0, fresh, steps * DT, DT, record_every=every)
                return (time.perf_counter() - t0) * 1e6

            run(1), run(steps)  # the warm-up pair
            pairs = [(run(1), run(steps)) for _ in range(repeats)]
            identity = {"n": n, "method": method}
            step_rows.append((identity, [ends for _, ends in pairs], steps))
            record_rows.append((identity, [every - ends for every, ends in pairs], steps))
    return step_rows, record_rows


def off_frame(rho0, model):
    """The frame one RK4 step of integrate_split hands to polar_special."""
    with mock.patch.object(dynamics, "polar_special", wraps=polar_special) as spy:
        integrate_split(rho0, model, DT, DT)
    return spy.call_args.args[0]


def batched(call):
    """KERNEL_CALLS calls of call() as one call."""
    def batch():
        for _ in range(KERNEL_CALLS):
            call()
    return batch


def direct_step_costs(n, repeats):
    """Microseconds per repeat of the direct route's build of E, its matrix step and its
    Horner step at n, from integrate_direct runs of one warm model that record at their two
    ends: T(1) and T(n^2 - 1) take the Horner step, T(n^2) and T(2 n^2) build E and take the
    matrix step, each T the least of RUNS_PER_COST runs, the four back to back in each repeat
    after one warm-up set.  Horner step h = (T(n^2 - 1) - T(1)) / (n^2 - 2), matrix step
    m = (T(2 n^2) - T(n^2)) / n^2, and build T(n^2) - (T(1) - h) - n^2 m: what a run of n^2
    steps costs beyond its fixed cost T(1) - h and its steps.  Empty where an n^2-step run
    takes no matrix step."""
    model, rho0 = case(n)

    def run(steps):
        best = math.inf
        for _ in range(RUNS_PER_COST):
            t0 = time.perf_counter()
            traj = integrate_direct(rho0, model, steps * DT, DT, record_every=steps)
            best = min(best, (time.perf_counter() - t0) * 1e6)
        return best, traj.direct_step

    ladder = (1, n * n - 1, n * n, 2 * n * n)
    if [run(steps)[1] for steps in ladder][2:] != ["matrix", "matrix"]:  # also the warm-up
        return {}
    costs = {"matrix_build": [], "matrix_step": [], "horner_step": []}
    for _ in range(repeats):
        one, below, at, twice = (run(steps)[0] for steps in ladder)
        h, m = (below - one) / (n * n - 2), (twice - at) / (n * n)
        for kernel, cost in zip(costs, (at - (one - h) - n * n * m, m, h)):
            costs[kernel].append(cost)
    return costs


def kernel_calls(n, repeats):
    """(call or costs, calls per sample) of the layers of one RK4 step at n: split_rhs at
    the random state's split state, polar_special on the frame one step hands it,
    lindblad_rhs at the state, and the direct route's build of E, matrix step and Horner
    step from direct_step_costs, where a run takes the matrix step."""
    model, rho0 = case(n)
    state = SplitState(*eigendecompose_ordered(rho0), 0.0)
    U = off_frame(rho0, model)
    calls = {"split_rhs": (batched(lambda: split_rhs(state, model)), KERNEL_CALLS),
             "polar_special": (batched(lambda: polar_special(U)), KERNEL_CALLS),
             "lindblad_rhs": (batched(lambda: lindblad_rhs(rho0, model)), KERNEL_CALLS)}
    direct = {kernel: (costs, 1) for kernel, costs in direct_step_costs(n, repeats).items()}
    return {**calls, **direct}


def sampling_rows(dims):
    calls = [("sample_flags", {"n": n, "count": count},
              lambda n=n, count=count: sample_flags(n, count, SEED))
             for n in dims for count in COUNTS]
    calls += [("verify identity", {"n": n, "N": COUNTS[-1]},
               lambda n=n: cli.main(["verify", "identity", "--n", str(n), "--N",
                                     str(COUNTS[-1]), "--seed", str(SEED)]))
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
    return [({"call": name, **params}, call, 1) for name, params, call in calls]


def writing_rows(dims, repeats):
    """Rows of the writing table, their costs measured here while their temporary
    files and the patched frame draw exist."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in dims:
            frames = sample_flags(n, FRAMES, SEED)
            argv = ["sample", "--n", str(n), "--N", str(FRAMES), "--seed", str(SEED),
                    "--out", str(Path(tmp) / "frames.jsonl")]
            with mock.patch.object(cli, "sample_flags", lambda *_: frames), \
                    contextlib.redirect_stdout(io.StringIO()):
                line = timings(lambda: cli.main(argv), repeats)
            model, rho0 = case(n)
            traj = integrate_direct(rho0, model, CSV_STEPS * DT, DT)
            path = Path(tmp) / "traj.csv"
            row = timings(lambda: write_trajectory_csv(path, traj, {"dt": DT}), repeats)
            rows += [({"n": n, "output": "sample_line", "items": FRAMES}, line, FRAMES),
                     ({"n": n, "output": "csv_row", "items": len(traj.times)}, row,
                      len(traj.times))]
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 8, 12, 16])
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--label", default="run")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    step_rows, record_rows = route_rows(args.dims, args.steps, args.repeats)
    tables = {
        "results": table("us_per_step", step_rows, args.repeats),
        "records": table("us_per_record", record_rows, args.repeats),
        "kernels": table("us_per_call", [({"n": n, "kernel": kernel}, call, calls)
                                         for n in args.dims for kernel, (call, calls)
                                         in kernel_calls(n, args.repeats).items()],
                         args.repeats),
        "sampling": table("us_per_call", sampling_rows(args.dims), args.repeats,
                          with_memory=True),
        "writing": table("us_per_item", writing_rows(args.dims, args.repeats), args.repeats),
    }
    cost = {(row["n"], row["kernel"]): row["us_per_call_median"] for row in tables["kernels"]}
    for n in (n for n in args.dims if (n, "matrix_build") in cost):
        saved = cost[n, "horner_step"] - cost[n, "matrix_step"]
        payback = f"{cost[n, 'matrix_build'] / saved:.1f} steps" if saved > 0.0 else "never"
        print(f"n={n}: E is paid back after {payback}; a run takes it from n^2 = {n * n} steps")

    prov = provenance()
    print(f"numpy {prov['numpy']}, scipy {prov['scipy']}, BLAS {prov['blas']} "
          f"({prov['blas_threads']} thread), {prov['cpus']} usable CPUs")
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
        "params": {"dt": DT, "steps": args.steps, "repeats": args.repeats, "seed": SEED,
                   "counts": COUNTS, "measure_call": MEASURE_CALL, "draws": DRAWS,
                   "frames": FRAMES, "csv_steps": CSV_STEPS, "kernel_calls": KERNEL_CALLS,
                   "runs_per_cost": RUNS_PER_COST},
        **tables,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote runs[{args.label!r}] to {out}")


if __name__ == "__main__":
    main()
