"""Smoke test: every script in scripts/ runs to completion on small inputs."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("qubit_depolarizing.py", ["--t-end", "0.05", "--out", "depol"]),
        ("split_vs_direct.py", ["--dims", "2", "3", "--models", "1", "--t-end", "0.05"]),
        (
            "step_costs.py",
            ["--dims", "2", "3", "--steps", "3", "--repeats", "2", "--out", "bench.json"],
        ),
    ],
)
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if script == "step_costs.py":
        check_step_costs_schema(json.loads((tmp_path / "bench.json").read_text()))
    if script == "split_vs_direct.py":  # one line per dimension, with its worst frame defect
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        assert all(re.search(r", max frame defect \d\.\d{3}e[+-]\d\d, ", line) for line in lines)


def check_step_costs_schema(doc):
    """The five tables of one step_costs.py run at --dims 2 3: table names, each row's
    identity fields in order, its statistic keys, and a positive median but for records."""
    dims = (2, 3)
    identities = {
        "results": [{"n": n, "method": m} for n in dims for m in ("direct", "split")],
        "records": [{"n": n, "method": m} for n in dims for m in ("direct", "split")],
        "kernels": [{"n": n, "kernel": k} for n in dims
                    for k in ("split_rhs", "polar_special", "lindblad_rhs", "matrix_build",
                              "matrix_step", "horner_step")],
        "sampling": [{"call": "sample_flags", "n": n, "count": c} for n in dims
                     for c in (1, 7, 200, 1000, 4000)]
        + [{"call": "verify identity", "n": n, "N": 4000} for n in dims]
        + [{"call": "rejection_volume_estimate", "n": 4, "num_samples": 750000},
           {"call": "flag_density_theta", "n": 3, "stack": 2500},
           {"call": "coset_unitaries", "n": 3, "draws": 200},
           {"call": "qutrit_unitaries_closed_form", "n": 3, "draws": 200}]
        + [{"call": "kolmogorov_sf", "N": N, "d": 2.0 / math.sqrt(N)}
           for N in (10**3, 10**4, 10**5, 10**6)],
        "writing": [{"n": n, "output": o, "items": i} for n in dims
                    for o, i in (("sample_line", 1000), ("csv_row", 51))],
    }
    units = {"results": "us_per_step", "records": "us_per_record", "kernels": "us_per_call",
             "sampling": "us_per_call", "writing": "us_per_item"}
    run = doc["runs"]["run"]
    assert list(run) == ["provenance", "params", *identities]
    # the sample_line row depends on the usable CPUs: two or more fork a formatting child
    assert list(run["provenance"]) == ["numpy", "scipy", "blas", "blas_threads", "cpus"]
    assert run["provenance"]["cpus"] == len(os.sched_getaffinity(0))
    for table, expected in identities.items():
        unit = units[table]
        stats = [f"{unit}_{s}" for s in ("median", "q25", "q75", "iqr")]
        extra = ["traced_peak_kib", "minor_faults_per_call"] if table == "sampling" else []
        assert len(run[table]) == len(expected), table
        for row, ident in zip(run[table], expected):
            assert {k: row[k] for k in ident} == ident, table
            assert list(row) == [*ident, *stats, *extra], table
            assert table == "records" or row[f"{unit}_median"] > 0.0, (table, ident)
            assert all(row[key] >= 0.0 for key in extra), (table, ident)


def test_ab_runs_both_trees_and_claims_no_gain_from_one_pair(tmp_path):
    # this checkout as both trees, one short pair of verify_analysis runs
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), "--parent", str(ROOT), "--change",
         str(ROOT), "--workloads", "verify_analysis", "--pairs", "1", "--seconds", "1",
         "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert list(doc) == ["schema", "machine", "libraries", "trees", "params", "workloads"]
    assert doc["schema"] == "specang-ab/1"
    assert list(doc["libraries"]) == ["numpy", "scipy"]
    assert doc["trees"]["parent"] == doc["trees"]["change"]
    assert list(doc["trees"]["change"]) == ["commit", "dirty", "src_sha256"]
    assert list(doc["workloads"]) == ["verify_analysis"]
    run = doc["workloads"]["verify_analysis"]
    assert len(run["pairs"]) == 1 and run["pairs"][0]["first"] == "parent"
    end_to_end = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert list(run["metrics"]) == end_to_end
    for name, m in run["metrics"].items():
        assert list(m) == ["unit", "better", "bound", "parent_values", "change_values", "parent",
                           "change", "ratio", "change_wins", "pairs", "gain_claimed",
                           "worse_beyond_bound", "unresolved"]
        assert list(m["parent"]) == ["median", "q25", "q75", "iqr"]
        assert m["pairs"] == 1 and len(m["parent_values"]) == len(m["change_values"]) == 1
        assert m["gain_claimed"] is False, name  # one pair never claims a gain
    for side in ("parent", "change"):
        assert run["pairs"][0][side]["failed"] == 0


def test_ab_claims_a_gain_only_from_nine_of_ten_wins_beyond_the_parents_iqr():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    lower = {"unit": "ms", "better": "lower", "bound": 0.25}
    parent = [50.0, 51.0, 52.0, 53.0, 54.0, 50.5, 51.5, 52.5, 53.5, 54.5]  # IQR 2.25
    change = [p - 3.0 for p in parent]
    assert ab.verdict(lower, parent, change)["gain_claimed"]
    assert not ab.verdict(lower, parent[:9], change[:9])["gain_claimed"]  # too few pairs
    assert not ab.verdict(lower, parent, [p - 1.5 for p in parent])["gain_claimed"]  # within IQR
    lost_two = change[:8] + [p + 1.0 for p in parent[8:]]  # 8 of 10 wins
    assert not ab.verdict(lower, parent, lost_two)["gain_claimed"]
    lost_one = change[:9] + [parent[9] + 1.0]
    assert ab.verdict(lower, parent, lost_one)["gain_claimed"]
    higher = {"unit": "items/s", "better": "higher", "bound": 0.25}
    m = ab.verdict(higher, parent, change)
    assert not m["gain_claimed"] and m["change_wins"] == 0 and not m["worse_beyond_bound"]
    assert ab.verdict(higher, parent, [0.7 * p for p in parent])["worse_beyond_bound"]
    assert not ab.verdict(lower, parent, change)["unresolved"]  # IQR 2.25 of a median near 52
    assert ab.verdict({**lower, "bound": 0.01}, parent, change)["unresolved"]
