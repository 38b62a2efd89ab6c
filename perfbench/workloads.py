"""The benchmark's four workloads: seeded inputs, op schedules, output checks.

Every op is one ``specang`` CLI command.  A workload is a fixed *cycle* of op
kinds; the timed loop runs whole cycles, so the share of each kind is the
same in every run and the latency percentiles land inside a kind's cluster
rather than on the edge between two clusters.  All randomness (models,
states, gap vectors, per-op ``--seed`` values) comes from the workload seed,
so the same seed gives byte-identical input files and the same argv.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from specang.dynamics import random_density, random_model, save_density, save_model


class CheckFailed(Exception):
    """An op's output did not pass its check."""


@dataclass
class Op:
    kind: str
    argv: list
    items: int  # work units: RK4 steps, frames, or Monte-Carlo samples
    check: Callable[[str], dict]  # stdout -> diagnostics; raises on bad output
    outputs: tuple = field(default_factory=tuple)  # files the op writes


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _floats(values):
    return ",".join(repr(float(x)) for x in values)


def interior_gaps(n, rng):
    """Gap vector strictly inside R_{n-1} = {r >= 0, sum_a a r_a <= 1}.

    A Dirichlet point w on the n-simplex, pulled 10 % towards its centre,
    gives r_a = w_a / a: every gap is >= 0.1/n^2 and the smallest eigenvalue
    p_n = w_n / n >= 0.1/n^2, so no chart or metric is singular.
    """
    w = 0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n
    return w[:-1] / np.arange(1, n)


def probs(r):
    """p_k = 1/n + sum_a r_a ([a >= k] - a/n), the inverse of r_a = p_a - p_{a+1}."""
    n = len(r) + 1
    a = np.arange(1, n)
    k = np.arange(1, n + 1)
    M = (a[None, :] >= k[:, None]) - a[None, :] / n
    return 1.0 / n + M @ r


def _close(x, y, what, tol=1e-9):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    _expect(x.shape == y.shape, f"{what}: shape {x.shape} != {y.shape}")
    _expect(
        np.all(np.abs(x - y) <= tol * (1.0 + np.abs(y))),
        f"{what}: {x.ravel()[:4]} != {y.ravel()[:4]}",
    )


class Workload:
    """Base: ``cycle`` lists the op kinds of one cycle, ``op(i)`` builds op i."""

    name = ""
    unit = ""  # what one work item is, for the human-readable report
    cycle: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)

    def _rng(self, i):
        return np.random.default_rng([self.seed, i])

    def generate(self):
        """Write the input files the ops read (none by default)."""

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def warmup(self) -> list:
        """One op of each kind, taken from the first cycle."""
        seen, ops = set(), []
        for i in range(len(self.cycle)):
            op = self.op(i)
            if op.kind not in seen:
                seen.add(op.kind)
                ops.append(op)
        return ops


# --- evolve ------------------------------------------------------------------


def _read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    _expect(len(lines) >= 2, f"{path}: no data rows")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return lines[0].split(","), rows


class EvolveWorkload(Workload):
    """``evolve --method both`` on seeded random_model/random_density files."""

    unit = "rk4_steps"
    dt = 1e-3
    t_end = 0.0
    record_every = 1
    pairs_per_slot = 3
    # Bound on the direct-vs-split max_divergence, by n.  The split route's
    # RK4 error grows as a spectral gap closes, so its tail over random
    # models is heavy: over 300 seeds of evolve_dense the largest values
    # were 7e-10 (n = 4), 6e-6 (n = 8) and 1.4e-3 (n = 16); over 800 random
    # n = 8 models on [0, 0.2] it was 1.3e-3.  The bounds keep a margin of
    # 30x or more; a wrong integrator diverges by far more.
    divergence_bound = {2: 1e-6, 3: 1e-6, 4: 1e-6, 8: 5e-2, 16: 5e-2}

    def _paths(self, slot, k):
        return (
            self.workdir / f"model_{slot}_{k}.json",
            self.workdir / f"state_{slot}_{k}.json",
        )

    def generate(self):
        rng = np.random.default_rng(self.seed)
        for slot, n in enumerate(self.cycle):
            for k in range(self.pairs_per_slot):
                model_seed, state_seed = (int(s) for s in rng.integers(2**31, size=2))
                model_path, state_path = self._paths(slot, k)
                save_model(model_path, random_model(n, model_seed))
                save_density(state_path, random_density(n, state_seed))

    @property
    def steps(self):
        return max(int(round(self.t_end / self.dt)), 1)

    @property
    def records(self):
        return self.steps // self.record_every + 1 + (self.steps % self.record_every != 0)

    def op(self, i):
        slot = i % len(self.cycle)
        n = self.cycle[slot]
        model_path, state_path = self._paths(slot, (i // len(self.cycle)) % self.pairs_per_slot)
        prefix = self.workdir / f"traj_{slot}"
        outputs = (f"{prefix}_direct.csv", f"{prefix}_split.csv")
        # With --fallback a spectral crossing (about 1 in 600 random n = 16
        # models within t = 0.05) switches the split route to the direct one
        # and is counted in dynamics.breakdowns instead of failing the op.
        argv = [
            "evolve", "--model", str(model_path), "--rho0", str(state_path),
            "--method", "both", "--dt", repr(self.dt), "--t-end", repr(self.t_end),
            "--record-every", str(self.record_every), "--fallback", "--out", str(prefix),
            "--seed", str(self.seed),
        ]

        def check(stdout):
            doc = json.loads(stdout)
            _expect(doc["files"] == list(outputs), f"files {doc['files']}")
            div = float(doc["max_divergence"])
            bound = self.divergence_bound[n]
            _expect(div < bound, f"n={n}: max_divergence {div:.3e} >= {bound:.0e}")
            for path in outputs:
                header, rows = _read_csv(path)
                _expect(len(header) == n + 3, f"{path}: header {header}")
                _expect(rows.shape == (self.records, n + 3), f"{path}: shape {rows.shape}")
                _expect(np.all(np.isfinite(rows)), f"{path}: non-finite values")
                _expect(rows[0, 0] == 0.0, f"{path}: first t {rows[0, 0]}")
                _expect(abs(rows[-1, 0] - self.t_end) < 1e-9, f"{path}: last t {rows[-1, 0]}")
                purity = rows[:, n]
                _expect(np.all((purity >= 0.0) & (purity <= 1.0)), f"{path}: purity out of [0, 1]")
            return {"max_divergence": div}

        return Op(f"evolve n={n}", argv, 2 * self.steps, check, outputs)


class EvolveLong(EvolveWorkload):
    name = "evolve_long"
    t_end = 0.2
    record_every = 50
    # n = 8 twice: with five slots the median and the 90th percentile fall
    # in the middle of a latency cluster, not between two.
    cycle = (2, 3, 4, 8, 8)


class EvolveDense(EvolveWorkload):
    name = "evolve_dense"
    t_end = 0.05
    record_every = 1
    cycle = (4, 8, 16)


# --- sample ------------------------------------------------------------------


def _decode(pairs):
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


class SampleFrames(Workload):
    """``sample --n {2,4,8} --N 1000`` with a fresh seed per op."""

    name = "sample_frames"
    unit = "frames"
    cycle = (2, 4, 8)
    N = 1000

    def op(self, i):
        n = self.cycle[i % len(self.cycle)]
        seed = int(self._rng(i).integers(2**32))
        out = self.workdir / f"frames_{n}.jsonl"
        argv = ["sample", "--n", str(n), "--N", str(self.N), "--seed", str(seed), "--out", str(out)]

        def check(stdout):
            _expect(stdout.strip() == f"wrote {self.N} frames to {out}", f"stdout {stdout!r}")
            with open(out) as fh:
                lines = fh.read().splitlines()
            _expect(len(lines) == self.N + 1, f"{len(lines)} lines, expected {self.N + 1}")
            head = json.loads(lines[0])
            _expect((head["n"], head["N"], head["seed"]) == (n, self.N, seed), f"header {head}")
            if n == 2:
                # under the invariant measure |U_11|^2 is uniform on [0, 1]
                _expect(0.0 <= head["ks_statistic"] <= 1.0, f"ks_statistic {head['ks_statistic']}")
                _expect(1e-9 < head["ks_pvalue"] <= 1.0, f"ks_pvalue {head['ks_pvalue']}")
            else:
                err = head["resolution_error"]
                _expect(0.0 <= err < 1e-9, f"resolution_error {err}")
            for line in (lines[1], lines[1 + self.N // 2], lines[-1]):
                U = _decode(json.loads(line)["U"])
                _expect(U.shape == (n, n), f"frame shape {U.shape}")
                _expect(np.linalg.norm(U.conj().T @ U - np.eye(n)) < 1e-10, "frame not unitary")
                _expect(abs(np.linalg.det(U) - 1.0) < 1e-10, "frame det != 1")
            return {}

        return Op(f"sample n={n}", argv, self.N, check, (str(out),))


# --- verify / geometry / convert ---------------------------------------------

# The measure and volumes reports pass within three standard errors, so
# about 0.3 % of seeds FAIL by chance.  The --seed of every verify op is
# drawn from seeds 0..255 less seed 10 (volumes at 3.0 standard errors);
# each of them PASSes every report below at these parameters, so a FAIL in
# the benchmark means an estimator changed, not an unlucky draw.
MC_SEEDS = tuple(s for s in range(256) if s != 10)
# (report, parameters, samples or trials); identity's --tol is about seven
# times its expected error at N = 4000, so it cannot FAIL by chance.
MC_REPORTS = (
    ("measure", ["--n", "3", "--N", "2500"], 2500),
    ("identity", ["--n", "3", "--N", "4000", "--tol", "0.25"], 4000),
    ("unitarity", ["--n", "3", "--trials", "200"], 200),
    ("qutrit-matrix", ["--trials", "200"], 200),
    ("volumes", ["--n", "4", "--N", "750000"], 750000),
)
GEOMETRY_FLAGS = ("fisher", "bures", "purity", "kl", "entropy")


def _verify_check(stdout):
    lines = stdout.strip().splitlines()
    _expect(lines and lines[-1] == "RESULT: PASS", f"verify: {lines[-1:] or stdout!r}")
    _expect(not any(ln.endswith("FAIL") for ln in lines), "verify: a check FAILed")
    return {}


def _inverse_cartan(n):
    a = np.arange(1, n)
    return np.minimum.outer(a, a) * (n - np.maximum.outer(a, a)) / n


def _geometry_expected(flag, r, p):
    """Reference values from the closed forms, computed independently of specang."""
    n = len(p)
    a = np.arange(1, n)
    M = (a[None, :] >= np.arange(1, n + 1)[:, None]) - a[None, :] / n
    fisher = M.T @ (M / p[:, None])
    if flag == "fisher":
        return {"fisher": fisher}
    if flag == "bures":
        cum = np.concatenate(([0.0], np.cumsum(r)))
        weights = {
            f"{i},{j}": 0.5 * (cum[j - 1] - cum[i - 1]) ** 2 / (p[i - 1] + p[j - 1])
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        return {"bures_spectral": 0.25 * fisher, "bures_angular_weights": weights}
    if flag == "purity":
        return {"purity": n / (2.0 * (n - 1)) * np.abs(p - 1.0 / n).sum()}
    if flag == "kl":
        return {
            "kl_exact": float(np.sum(p * np.log(n * p))),
            "kl_quadratic": 0.5 * n * r @ _inverse_cartan(n) @ r,
        }
    return {"entropy": float(-np.sum(p * np.log(p)))}


class VerifyAnalysis(Workload):
    """Monte-Carlo ``verify`` reports mixed with per-state geometry/convert.

    Each Monte-Carlo op is followed by one ``geometry`` and one ``convert``
    op on a fresh gap vector, so two thirds of the ops are the small
    per-call path.  The Monte-Carlo parameters are set so each report takes
    a similar time, which keeps the 90th percentile inside one cluster.
    """

    name = "verify_analysis"
    unit = "mc_samples"
    cycle = tuple(
        kind
        for (which, _, _), flag in zip(MC_REPORTS, GEOMETRY_FLAGS)
        for kind in (f"verify {which}", f"geometry --{flag}", "convert")
    )

    def op(self, i):
        rng = self._rng(i)
        k, role = divmod(i % len(self.cycle), 3)
        if role == 0:
            which, params, items = MC_REPORTS[k]
            seed = int(rng.choice(MC_SEEDS))
            return Op(f"verify {which}", ["verify", which, *params, "--seed", str(seed)], items, _verify_check)
        n = int(rng.integers(2, 9))
        r = interior_gaps(n, rng)
        p = probs(r)
        if role == 1:
            flag = GEOMETRY_FLAGS[k]
            argv = ["geometry", "--n", str(n), "--r", _floats(r), f"--{flag}"]

            def check(stdout):
                doc = json.loads(stdout)
                _expect(doc["r"] == [float(x) for x in r], "geometry: r not echoed")
                for key, want in _geometry_expected(flag, r, p).items():
                    got = doc[key]
                    if isinstance(want, dict):
                        _expect(set(got) == set(want), f"{key}: modes {sorted(got)}")
                        got, want = [got[m] for m in want], list(want.values())
                    _close(got, want, f"geometry {key}")
                return {}

            return Op(f"geometry --{flag}", argv, 0, check)
        # convert alternates between r -> p and p -> r; both must round-trip
        if (i // 3) % 2 == 0:
            argv = ["convert", "--n", str(n), "--r", _floats(r)]
        else:
            argv = ["convert", "--n", str(n), "--p", _floats(p)]

        def check(stdout):
            doc = json.loads(stdout)
            _expect(doc["in_polytope"] is True, "convert: state outside R_{n-1}")
            _close(doc["p"], p, "convert p", tol=1e-12)
            _close(doc["r"], r, "convert r", tol=1e-12)
            _close(-np.diff(doc["p"]), doc["r"], "convert round trip", tol=1e-12)
            return {}

        return Op("convert", argv, 0, check)


WORKLOADS = {w.name: w for w in (EvolveLong, EvolveDense, SampleFrames, VerifyAnalysis)}
