"""Tests of the benchmark itself.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import specang.cli as cli  # noqa: E402

import reference  # noqa: E402
import run as bench  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _argv(workload, i):
    return [a.replace(str(workload.workdir), "<work>") for a in workload.op(i).argv]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    a, b, c = (WORKLOADS[name](seed, tmp_path / d) for seed, d in ((7, "a"), (7, "b"), (8, "c")))
    for w in (a, b, c):
        w.workdir.mkdir()
        w.generate()
    files = sorted(p.name for p in a.workdir.iterdir())
    assert files == sorted(p.name for p in b.workdir.iterdir())
    for f in files:
        assert (a.workdir / f).read_bytes() == (b.workdir / f).read_bytes()
    ops = range(2 * len(a.cycle))
    assert [_argv(a, i) for i in ops] == [_argv(b, i) for i in ops]
    differs = [_argv(a, i) for i in ops] != [_argv(c, i) for i in ops] or any(
        (a.workdir / f).read_bytes() != (c.workdir / f).read_bytes() for f in files
    )
    assert differs, "another seed must give other inputs"


def _drop_last_line(path):
    lines = Path(path).read_text().splitlines(keepends=True)
    Path(path).write_text("".join(lines[:-1]))


def _last_value_nan(path):
    text = Path(path).read_text()
    Path(path).write_text(text[: text.rindex(",") + 1] + "nan\n")


def _edit(stdout, key, change):
    doc = json.loads(stdout)
    doc[key] = change(doc[key])
    return json.dumps(doc)


# (workload, op index, corruption of the op's stdout and/or output files)
CORRUPTIONS = {
    "frames file loses its last frame": (
        "sample_frames", 0, lambda op, out: _drop_last_line(op.outputs[0]) or out),
    "split trajectory loses its last row": (
        "evolve_long", 0, lambda op, out: _drop_last_line(op.outputs[1]) or out),
    "direct trajectory holds a NaN": (
        "evolve_long", 0, lambda op, out: _last_value_nan(op.outputs[0]) or out),
    "fisher metric is off by 0.1 %": (
        "verify_analysis", 1, lambda op, out: _edit(out, "fisher", lambda g: [[1.001 * x for x in row] for row in g])),
    "converted gaps are off by 1e-9": (
        "verify_analysis", 2, lambda op, out: _edit(out, "r", lambda r: [x + 1e-9 for x in r])),
    "verify report FAILs": (
        "verify_analysis", 0, lambda op, out: out.replace("PASS", "FAIL")),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failed(case, tmp_path):
    name, i, corrupt = CORRUPTIONS[case]
    workload = WORKLOADS[name](3, tmp_path)
    workload.generate()
    op = workload.op(i)
    assert bench.execute(op, cli).error is None

    class Corrupting:
        """The real CLI, followed by damage to its stdout or output files."""

        @staticmethod
        def main(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            print(corrupt(op, buf.getvalue()), end="")
            return code

    result = bench.execute(op, Corrupting)
    assert result.error is not None and result.error.startswith("check")


def test_nonzero_exit_counts_as_failed(tmp_path):
    op = WORKLOADS["verify_analysis"](3, tmp_path).op(1)

    class Failing:
        @staticmethod
        def main(argv):
            return 3

    assert bench.execute(op, Failing).error.startswith("exit 3")


def test_self_times_are_nonnegative_and_within_op_time(tmp_path):
    verify = WORKLOADS["verify_analysis"](5, tmp_path / "v")
    evolve = WORKLOADS["evolve_dense"](5, tmp_path / "e")
    for w in (verify, evolve):
        w.workdir.mkdir()
        w.generate()
    ops = [verify.op(i) for i in range(len(verify.cycle))] + [evolve.op(0)]
    original = cli.main
    tracer = Tracer()
    results = []
    for i, op in enumerate(ops):
        with tracer.installed(i):
            results.append(bench.execute(op, cli))
    assert cli.main is original, "wrappers must be removed after the op"
    cols = tracer.arrays()
    assert (cols["self"] >= -1e-12).all()
    for i, result in enumerate(results):
        assert result.error is None
        sel = cols["op"] == i
        root = sel & (cols["parent"] < 0)
        assert list(cols["names"][cols["name_id"][root]]) == ["cli.main"]
        assert cols["self"][sel].sum() == pytest.approx(cols["dur"][root].sum(), abs=1e-9)
        assert cols["self"][sel].sum() <= result.seconds
    s = summarize(cols)
    assert s["dynamics.lindblad_rhs.calls"] == 4 * 50  # four RHS calls per direct step
    assert s["flags.flag_density.calls"] == 2500  # one per verify-measure sample
    assert tracer.counts["dynamics.integrate_direct.steps"] == 50


def test_each_op_is_scaled_by_the_kernel_times_around_it(monkeypatch):
    kernel = iter([0.02, 0.01, 0.04, 0.03])
    monkeypatch.setattr(reference, "reference", lambda: next(kernel))
    monkeypatch.setattr(reference, "EVERY_S", 0.0)
    clock = reference.Clock()
    marks = [clock.before_op() for _ in range(3)]
    clock.finish()
    assert marks == [0, 1, 2]
    nominal = reference.NOMINAL_S
    assert [clock.factor(m) for m in marks] == pytest.approx([nominal / 0.015, nominal / 0.025, nominal / 0.035])


def test_ops_shorter_than_the_kernel_period_share_its_timings(monkeypatch):
    kernel = iter([0.02, 0.04])
    monkeypatch.setattr(reference, "reference", lambda: next(kernel))
    monkeypatch.setattr(reference, "EVERY_S", 3600.0)
    clock = reference.Clock()
    marks = [clock.before_op() for _ in range(3)]
    clock.finish()
    assert marks == [0, 0, 0]
    assert clock.factor(0) == pytest.approx(reference.NOMINAL_S / 0.03)


def test_a_uniformly_slower_machine_gives_the_same_scaled_metrics(tmp_path):
    op = WORKLOADS["verify_analysis"](3, tmp_path).op(0)
    fast = [bench.OpResult(op, s, None, 0, {}) for s in (0.01, 0.02, 0.05)]
    slow = [bench.OpResult(op, 1.7 * r.seconds, None, 0, {}) for r in fast]
    a = bench.end_to_end(fast, [1.0] * 3, [1.0])
    b = bench.end_to_end(slow, [1.0 / 1.7] * 3, [1.0])
    for key in ("op_p50_ms", "op_p90_ms", "work_per_s"):
        assert b[key] == pytest.approx(a[key])


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evolve_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
