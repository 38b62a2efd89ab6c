"""Smoke test: every script in scripts/ runs to completion on small inputs."""

import json
import os
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
    if script == "step_costs.py":  # a kernels row per kernel and dimension, with its median
        kernels = json.loads((tmp_path / "bench.json").read_text())["runs"]["run"]["kernels"]
        rows = {(row["n"], row["kernel"]): row["us_per_call_median"] for row in kernels}
        assert rows.keys() == {(n, kernel) for n in (2, 3)
                               for kernel in ("split_rhs", "polar_special", "lindblad_rhs")}
        assert all(cost > 0.0 for cost in rows.values())
