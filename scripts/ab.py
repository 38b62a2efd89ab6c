"""Alternating A/B pairs of benchmark runs: a parent tree against a change tree.

Usage:
    python3 scripts/ab.py --parent ../parent --change . --workloads evolve_long \\
        --pairs 10 --seconds 25 --out BENCH_37.json

Each tree is a source checkout with `perfbench/` and `src/`; the parent can be
made with `git worktree add ../parent <commit>`.  One pair runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once in each
tree, as a fresh process of this interpreter whose working directory is that
tree, with the same seed.  Pairs alternate which tree goes first, so neither
side always runs on the warmer (or the more disturbed) machine.

For every workload and every end-to-end metric of the change tree's
BENCHMARK.json the output stores each pair's two values, each side's median
and quartiles, the ratio of the medians, the pairs the change won and three
verdicts:

- `gain_claimed`: the change won at least CLAIM_WINS of the pairs, with at
  least CLAIM_PAIRS pairs, and its median beats the parent's by more than the
  parent's interquartile range;
- `worse_beyond_bound`: the change's median is worse than the parent's by
  more than the metric's bound (a fraction of the parent's median);
- `unresolved`: either side's interquartile range is wider than that bound,
  so the pairs cannot tell a change of that size from noise.

The machine, the numpy and scipy versions, each tree's commit and source hash
(as perfbench reports them) and each run's failed-op counts go with them,
under one versioned schema, SCHEMA.  The file is rewritten after each
workload, so an interrupted run keeps the workloads it finished.
"""

import argparse
import json
import math
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SCHEMA = "specang-ab/1"
CLAIM_PAIRS = 10  # fewer pairs than this never claim a gain
CLAIM_WINS = 0.9  # share of the pairs the change must win


def run_tree(tree, workload, seed, seconds):
    """The result line and provenance of one perfbench run in tree."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    prov = next(json.loads(ln[len("provenance "):]) for ln in lines if ln.startswith("provenance "))
    return json.loads(lines[-1]), prov


def quartiles(values):
    q25, median, q75 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q25": q25, "q75": q75, "iqr": q75 - q25}


def verdict(spec, parent, change):
    """Statistics and verdicts of one metric from its per-pair values."""
    sign = 1.0 if spec["better"] == "lower" else -1.0  # sign * (parent - change) > 0: change better
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (a - b) > 0.0 for a, b in zip(parent, change))
    pairs = len(parent)
    gain = sign * (p["median"] - c["median"])
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent_values": parent, "change_values": change, "parent": p, "change": c,
        "ratio": c["median"] / p["median"] if p["median"] else None,
        "change_wins": wins, "pairs": pairs,
        "gain_claimed": bool(pairs >= CLAIM_PAIRS and wins >= math.ceil(CLAIM_WINS * pairs)
                             and gain > p["iqr"]),
        "worse_beyond_bound": bool(-gain > spec["bound"] * abs(p["median"])),
        "unresolved": bool(max(p["iqr"], c["iqr"]) > spec["bound"] * abs(p["median"])),
    }


def git_state(tree):
    """(commit, dirty) of tree's checkout, or (None, None) outside git."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    if head.returncode != 0:
        return None, None
    status = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                            cwd=tree, capture_output=True, text=True)
    return head.stdout.strip(), bool(status.stdout.strip())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workloads", required=True, nargs="+")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0.0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    specs = {m["name"]: m for m in
             json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]}

    doc = {"schema": SCHEMA, "machine": {}, "libraries": {},
           "trees": {side: dict(zip(("commit", "dirty"), git_state(tree)))
                     for side, tree in trees.items()},
           "params": {"workloads": args.workloads, "pairs": args.pairs,
                      "seconds": args.seconds, "seed": args.seed,
                      "claim_pairs": CLAIM_PAIRS, "claim_wins": CLAIM_WINS},
           "workloads": {}}
    for workload in args.workloads:
        runs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                result, prov = run_tree(trees[side], workload, args.seed, args.seconds)
                pair[side] = {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
                              "attempted": result["attempted"], "failed": result["failed"]}
                doc["trees"][side]["src_sha256"] = prov["src_sha256"]
            doc["machine"] = {"platform": platform.platform(), "cpu_model": prov["cpu_model"],
                              "nproc": prov["nproc"], "affinity": prov["affinity"],
                              "python": prov["python"], "blas": prov["blas"],
                              "blas_threads": prov["blas_threads"]}
            doc["libraries"] = {"numpy": prov["numpy"], "scipy": prov["scipy"]}
            runs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first): " + ", ".join(
                f"{k} {pair['parent']['metrics'][k]:.4g} -> {pair['change']['metrics'][k]:.4g}"
                for k in specs), flush=True)
        metrics = {name: verdict(spec, [r["parent"]["metrics"][name] for r in runs],
                                 [r["change"]["metrics"][name] for r in runs])
                   for name, spec in specs.items()}
        doc["workloads"][workload] = {"pairs": runs, "metrics": metrics}
        for name, m in metrics.items():
            print(f"{workload} {name}: parent {m['parent']['median']:.4g} "
                  f"[{m['parent']['q25']:.4g}, {m['parent']['q75']:.4g}] -> change "
                  f"{m['change']['median']:.4g} [{m['change']['q25']:.4g}, "
                  f"{m['change']['q75']:.4g}], change won {m['change_wins']}/{m['pairs']}"
                  + ("; GAIN" if m["gain_claimed"] else "")
                  + ("; WORSE BEYOND BOUND" if m["worse_beyond_bound"] else "")
                  + ("; UNRESOLVED" if m["unresolved"] else ""))
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
