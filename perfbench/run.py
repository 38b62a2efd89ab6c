"""specang benchmark: one workload, one seed, one closed-loop client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload evolve_long --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` and driven in this process through
``specang.cli.main(argv)``; each command is sent only after the previous one
returned (closed loop, one client, one thread, BLAS pinned to one thread).
Every op's exit code and output are checked; an op fails on a non-zero exit,
an exception or a failed check.

``--trace 0`` runs whole op cycles for at least ``--seconds`` and at least
100 ops and reports the end-to-end metrics: the median and 90th percentile
op latency; ``work_per_s``, the work items of the passing ops (RK4 steps,
frames or Monte-Carlo samples, by workload) per second of op time;
``peak_rss_mb``; and ``setup_s``, the median of three set-ups (imports,
input generation and one warm-up op of each kind), this process's and two
in fresh processes started after the timed loop.  Every time in these
metrics is scaled to a nominal machine speed by the reference kernel of
``reference.py``, timed between ops, because the host's own speed drifts by
up to 2x within minutes; the measured wall-clock values are printed and
saved beside them.  ``--trace 1`` runs a fixed
number of op pairs (whole cycles, at least 100), each op once untraced and
once traced through the wrappers in ``tracing.py``, and reports the per-layer
metrics; the fixed count makes its counters repeat exactly for a seed.

The last stdout line is the JSON result; the lines before it name every
metric with its unit, the provenance and the baseline cross-check.  A copy
of the result with provenance, and in traced runs the spans, are written
under ``.bench_work/results/``.
"""

import time

_T0 = time.perf_counter()

import os

# One BLAS thread: the matrices are at most 16 x 16, and a second thread on
# a 2-core machine only adds scheduling noise.  Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_OPS = 100  # >= 10 latencies beyond the 90th percentile
SETUPS = 3  # set-ups per run (this process + 2 fresh ones); setup_s is their median

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("work_per_s", "items/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("dynamics.lindblad_rhs.calls", "count"),
    ("dynamics.lindblad_rhs.busy_s", "s"),
    ("dynamics.dissipator.calls", "count"),
    ("dynamics.dissipator.busy_s", "s"),
    ("dynamics.integrate_direct.busy_s", "s"),
    ("dynamics.integrate_direct.self_s", "s"),
    ("dynamics.integrate_split.busy_s", "s"),
    ("dynamics.integrate_split.self_s", "s"),
    ("dynamics.direct_us_per_step", "us"),
    ("dynamics.split_us_per_step", "us"),
    ("dynamics.steps", "count"),
    ("dynamics.records", "count"),
    ("dynamics.write_trajectory_csv.busy_s", "s"),
    ("dynamics.write_trajectory_csv.bytes", "B"),
    ("dynamics.load.busy_s", "s"),
    ("flags.DensityMatrix.validations", "count"),
    ("flags.UnitaryFrame.validations", "count"),
    ("spectral.GapVector.validations", "count"),
    ("flags.eigendecompose_ordered.calls", "count"),
    ("flags.eigendecompose_ordered.busy_s", "s"),
    ("geometry.purity_trace_norm.calls", "count"),
    ("geometry.purity_trace_norm.busy_s", "s"),
    ("serialize.matrix_to_pairs.calls", "count"),
    ("serialize.matrix_to_pairs.busy_s", "s"),
    ("serialize.matrix_from_pairs.calls", "count"),
    ("serialize.matrix_from_pairs.busy_s", "s"),
    ("flags.sample_flags.calls", "count"),
    ("flags.sample_flags.busy_s", "s"),
    ("flags.sample_flags.frames", "count"),
    ("flags.sample_flags.op_share", "ratio"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("flags.flag_density.calls", "count"),
    ("flags.flag_density.busy_s", "s"),
    ("flags.AngleSet.validations", "count"),
    ("flags.coset_unitary.calls", "count"),
    ("flags.coset_unitary.busy_s", "s"),
    ("flags.resolution_check.busy_s", "s"),
    ("spectral.rejection_volume_estimate.busy_s", "s"),
    ("geometry.calls", "count"),
    ("geometry.busy_s", "s"),
    ("dynamics.max_divergence", "norm"),
    ("dynamics.breakdowns", "count"),
    ("cli.ops", "count"),
    ("cli.failed_ops", "count"),
    ("trace.overhead_frac", "ratio"),
)
# ROADMAP item 1's baselines, printed next to the traced values.
BASELINES = {
    "dynamics.direct_us_per_step": "140-250 us/step",
    "dynamics.split_us_per_step": "270-450 us/step",
    "flags.sample_flags.op_share": "0.04-0.10 of a sample op",
}


@dataclass
class OpResult:
    op: object
    seconds: float
    error: str | None  # None when the op exited 0 and passed its check
    out_bytes: int  # stdout plus the files the op wrote
    diag: dict  # what the check read from the output, e.g. max_divergence


def execute(op, cli) -> OpResult:
    """Run one CLI command in-process, time it, and check its output."""
    out, err = io.StringIO(), io.StringIO()
    error, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        except Exception:  # any crash is a failed op; the run goes on
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
    stdout = out.getvalue()
    diag = {}
    if error is None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()[-300:]}"
    if error is None:
        try:
            diag = op.check(stdout)
        except Exception as exc:  # a malformed output fails the check
            error = f"check: {type(exc).__name__}: {exc}"
    out_bytes = len(stdout.encode()) + sum(
        os.path.getsize(p) for p in op.outputs if os.path.exists(p)
    )
    return OpResult(op, seconds, error, out_bytes, diag)


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = ROOT / ".git" / ref
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def provenance(seed):
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "specang").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def child_setup(args, k):
    """Set up once more in a fresh process and return its setup time."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-only", str(k),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up {k} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(results, factors, setups):
    """End-to-end metrics; each op's time is multiplied by its factor."""
    latencies = [r.seconds * f for r, f in zip(results, factors)]
    busy = sum(latencies)
    items = sum(r.op.items for r in results if r.error is None)
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "work_per_s": items / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(pairs, tracer, summarize):
    """Per-layer metrics of the traced ops; ``pairs`` holds (untraced, traced)."""
    cols = tracer.arrays()
    s, c = summarize(cols), tracer.counts
    get = lambda key: s.get(key, 0)
    traced = [t for _, t in pairs]
    direct_steps = c["dynamics.integrate_direct.steps"]
    split_steps = c["dynamics.integrate_split.steps"]
    # share of sample_flags in the time of `sample` ops (op ids are indices)
    sample_ops = [i for i, r in enumerate(traced) if r.op.argv[0] == "sample"]
    in_sample = np.isin(cols["op"], sample_ops) & (cols["names"][cols["name_id"]] == "flags.sample_flags")
    sample_s = sum(traced[i].seconds for i in sample_ops)
    m = {key: get(key) for key, _ in PER_LAYER if key.endswith((".calls", ".busy_s", ".self_s"))}
    m.update(
        {
            "dynamics.direct_us_per_step": get("dynamics.integrate_direct.busy_s") / direct_steps * 1e6
            if direct_steps else 0.0,
            "dynamics.split_us_per_step": get("dynamics.integrate_split.busy_s") / split_steps * 1e6
            if split_steps else 0.0,
            "dynamics.steps": direct_steps + split_steps,
            "dynamics.records": c["dynamics.integrate_direct.records"]
            + c["dynamics.integrate_split.records"],
            "dynamics.write_trajectory_csv.bytes": c["dynamics.write_trajectory_csv.bytes"],
            "dynamics.load.busy_s": get("dynamics.load_model.busy_s") + get("dynamics.load_density.busy_s"),
            "flags.DensityMatrix.validations": c["flags.DensityMatrix.validations"],
            "flags.UnitaryFrame.validations": c["flags.UnitaryFrame.validations"],
            "spectral.GapVector.validations": c["spectral.GapVector.validations"],
            "flags.AngleSet.validations": c["flags.AngleSet.validations"],
            "flags.sample_flags.frames": c["flags.sample_flags.frames"],
            "flags.sample_flags.op_share": float(cols["dur"][in_sample].sum()) / sample_s
            if sample_s else 0.0,
            "cli.output_bytes": sum(r.out_bytes for r in traced),
            "dynamics.max_divergence": max(
                (r.diag.get("max_divergence", 0.0) for r in traced), default=0.0
            ),
            "dynamics.breakdowns": c["dynamics.integrate_split.breakdowns"],
            "cli.ops": len(traced),
            "cli.failed_ops": sum(r.error is not None for r in traced),
            "trace.overhead_frac": sum(r.seconds for r in traced)
            / sum(u.seconds for u, _ in pairs) - 1.0,
        }
    )
    return {key: m[key] for key, _ in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "specang" / "__init__.py").is_file():
        print(f"error: no specang sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    cli = importlib.import_module("specang.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "specang").resolve():
        print(f"error: imported specang from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import reference
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    tag = "" if args.setup_only is None else f"-setup{args.setup_only}"
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, cli, WORKLOADS[args.workload](args.seed, workdir), reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, cli, workload, reference):
    workload.generate()
    warm = [execute(op, cli) for op in workload.warmup()]
    own_setup = {"raw_s": time.perf_counter() - _T0}
    # the kernel right after set-up gives the machine's speed during it
    own_setup["setup_s"] = own_setup["raw_s"] * reference.NOMINAL_S / reference.settled_reference()
    if args.setup_only is not None:
        print(json.dumps(own_setup))
        return 0

    cycle = len(workload.cycle)
    if args.trace:
        from tracing import Tracer, summarize

        tracer = Tracer()
        for op in workload.warmup():  # let the wrappers warm up too
            with tracer.installed(-1):
                warm.append(execute(op, cli))
        tracer.reset()
        pairs = []
        for i in range(math.ceil(MIN_OPS / cycle) * cycle):
            op = workload.op(i)
            # alternate which side goes first, so neither gets the warmer cache
            first_traced = i % 2 == 1
            if first_traced:
                with tracer.installed(i):
                    t = execute(op, cli)
                u = execute(op, cli)
            else:
                u = execute(op, cli)
                with tracer.installed(i):
                    t = execute(op, cli)
            pairs.append((u, t))
        timed = [r for pair in pairs for r in pair]
        metrics = per_layer(pairs, tracer, summarize)
        units = dict(PER_LAYER)
    else:
        clock = reference.Clock()
        timed, marks, start, i = [], [], time.perf_counter(), 0
        while i < MIN_OPS or i % cycle or time.perf_counter() - start < args.seconds:
            marks.append(clock.before_op())
            timed.append(execute(workload.op(i), cli))
            i += 1
        clock.finish()
        setups = [own_setup] + [child_setup(args, k) for k in range(1, SETUPS)]
        factors = [clock.factor(m) for m in marks]
        metrics = end_to_end(timed, factors, [s["setup_s"] for s in setups])
        measured = end_to_end(timed, [1.0] * len(timed), [s["raw_s"] for s in setups])
        units = dict(END_TO_END)

    checked = warm + timed
    failures = [r for r in checked if r.error is not None]
    prov = provenance(args.seed)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": prov,
        "timed_ops": len(timed),
        "warmup_ops": len(warm),
        "failed_frac": len(failures) / len(checked),
        "failures": [f"{r.op.kind}: {r.error}" for r in failures[:10]],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if not args.trace:
        report["setups"] = setups
        report["measured"] = {k: {"value": measured[k], "unit": units[k]} for k in metrics}
        report["reference_ms"] = [1e3 * t for t in clock.times]
        report["ops"] = [[r.op.kind, r.seconds, f] for r, f in zip(timed, factors)]
        report[f"{workload.unit}_per_s"] = metrics["work_per_s"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(
        f"ops: {len(timed)} timed, {len(warm)} warm-up; failed {len(failures)} "
        f"(failed_frac {report['failed_frac']:.4g})"
    )
    for f in report["failures"]:
        print("FAILED " + f.replace("\n", " | "))
    for key, value in metrics.items():
        line = f"{key:44s} {value:.6g} {units[key]}"
        if not args.trace and key != "peak_rss_mb":
            line += f"  (measured {measured[key]:.6g})"
        if key == "work_per_s":
            line += f"  ({workload.unit}_per_s)"
        if key == "setup_s":
            line += "  (median of " + ", ".join(f"{s['setup_s']:.3f}" for s in setups) + ")"
        if key in BASELINES:
            line += f"  [ROADMAP baseline {BASELINES[key]}]"
        print(line)
    if args.trace:
        print("wait time: 0 by construction (one thread, closed loop, nothing queues)")
    else:
        ref = np.array(report["reference_ms"])
        print(
            f"reference kernel: {len(ref)} timings, median {np.median(ref):.3g} ms, "
            f"5-95 % {np.percentile(ref, 5):.3g}-{np.percentile(ref, 95):.3g} ms; "
            f"times above are scaled to {1e3 * reference.NOMINAL_S:g} ms"
        )
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.save(stem.with_suffix(".spans.npz"))
    print(f"report written to {stem.with_suffix('.json').relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(checked),
                "failed": len(failures),
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
