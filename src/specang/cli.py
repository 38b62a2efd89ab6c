"""Command-line front end.

Subcommands: convert, geometry, verify, evolve, sample.  All output embeds
the package version, the seed, and the parameters of the run.  Exit codes:
0 success, 2 input validation, 3 numerical breakdown or failed verification,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import NumericalBreakdownError, ValidationError
from .spectral import (
    GapVector,
    ProbVector,
    gaps_from_probs,
    in_polytope,
    ordered_simplex_volume,
    probs_from_gaps,
    rejection_volume_estimate,
    weighted_simplex_volume,
)
from .geometry import (
    bures_decomposition,
    fisher_metric_r,
    kl_exact,
    kl_quadratic,
    purity_gap,
    shannon_entropy,
)
from .flags import (
    AngleSet,
    coset_unitary,
    flag_density_theta,
    pair_indices,
    qutrit_unitary_closed_form,
    resolution_check,
    sample_flags,
)
from .serialize import matrix_to_pairs
from .dynamics import (
    integrate_direct,
    integrate_split,
    load_density,
    load_model,
    write_trajectory_csv,
)


def _default_seed() -> int:
    return int(os.environ.get("SPECANG_SEED", "0"))


def _floats(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"could not parse float list {text!r}") from exc


def _provenance(args, **extra) -> dict:
    doc = {"version": __version__, "subcommand": args.command}
    for key in ("n", "seed", "N", "dt", "t_end"):
        if hasattr(args, key):
            doc[key] = getattr(args, key)
    doc.update(extra)
    return doc


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def cmd_convert(args) -> int:
    if (args.p is None) == (args.r is None):
        raise ValidationError("convert needs exactly one of --p or --r")
    if args.p is not None:
        p = ProbVector(args.n, _floats(args.p))
        r = gaps_from_probs(p)
    else:
        r = GapVector(args.n, _floats(args.r))
        p = probs_from_gaps(r)
    _emit(
        _provenance(
            args,
            p=list(p.p),
            r=list(r.r),
            in_polytope=in_polytope(r.r, args.n),
        )
    )
    return 0


def cmd_geometry(args) -> int:
    r = GapVector(args.n, _floats(args.r))
    out = _provenance(args, r=list(r.r))
    if args.which == "fisher":
        out["fisher"] = [list(row) for row in fisher_metric_r(r).g]
    elif args.which == "bures":
        dec = bures_decomposition(r)
        out["bures_spectral"] = [list(row) for row in dec.spectral_part.g]
        out["bures_angular_weights"] = {
            f"{i},{j}": w for (i, j), w in dec.angular_weights.items()
        }
    elif args.which == "purity":
        out["purity"] = purity_gap(r)
    elif args.which == "kl":
        out["kl_exact"] = kl_exact(probs_from_gaps(r))
        out["kl_quadratic"] = kl_quadratic(r)
    elif args.which == "entropy":
        out["entropy"] = shannon_entropy(probs_from_gaps(r))
    _emit(out)
    return 0


def _report(lines, passed) -> int:
    for line in lines:
        print(line)
    print("RESULT:", "PASS" if passed else "FAIL")
    return 0 if passed else 3


def _verify_identity(args):
    lines, ok = [], True
    for i in range(1, args.n + 1):
        _, err = resolution_check(args.n, i, args.N, args.seed + i)
        good = err < args.tol
        ok &= good
        lines.append(
            f"identity column {i}: frobenius_error={err:.4f} "
            f"(N={args.N}) {'PASS' if good else 'FAIL'}"
        )
    return lines, ok


def _verify_measure(args):
    rng = np.random.default_rng(args.seed)
    n = args.n
    m = len(pair_indices(n))
    thetas = rng.random((args.N, m)) * math.pi
    box = (math.pi * 2.0 * math.pi) ** m
    vals = flag_density_theta(n, thetas)
    est = box * float(vals.mean())
    se = box * float(vals.std(ddof=1)) / math.sqrt(args.N)
    ok = abs(est - 1.0) < 3.0 * se
    lines = [
        f"measure normalization n={n}: integral={est:.4f} +- {se:.4f} "
        f"{'PASS' if ok else 'FAIL'}"
    ]
    return lines, ok


def _verify_volumes(args):
    n = args.n
    ordered = ordered_simplex_volume(n)
    weighted = weighted_simplex_volume(n)
    ratio = weighted / ordered
    est, se = rejection_volume_estimate(n, args.N, args.seed)
    ok_ratio = ratio == n
    ok_mc = abs(est - float(weighted)) < 3.0 * se
    lines = [
        f"ordered simplex volume: {ordered}",
        f"weighted simplex volume: {weighted}",
        f"ratio weighted/ordered = {ratio} (expect {n}) {'PASS' if ok_ratio else 'FAIL'}",
        f"monte-carlo volume: {est:.6f} +- {se:.6f} vs exact {float(weighted):.6f} "
        f"{'PASS' if ok_mc else 'FAIL'}",
    ]
    return lines, ok_ratio and ok_mc


def _random_angles(n, rng, with_torus=False) -> AngleSet:
    pairs = pair_indices(n)
    theta = {k: float(rng.random() * math.pi) for k in pairs}
    phi = {k: float(rng.random() * 2.0 * math.pi) for k in pairs}
    torus = tuple(rng.random(n - 1) * 2.0 * math.pi) if with_torus else None
    return AngleSet(n, theta, phi, torus)


def _verify_unitarity(args):
    rng = np.random.default_rng(args.seed)
    worst_u = worst_det = 0.0
    for _ in range(args.trials):
        U = coset_unitary(_random_angles(args.n, rng)).U
        worst_u = max(worst_u, float(np.linalg.norm(U.conj().T @ U - np.eye(args.n))))
        worst_det = max(worst_det, abs(np.linalg.det(U) - 1.0))
    flags = sample_flags(args.n, args.trials, args.seed)
    for U in flags:
        worst_u = max(worst_u, float(np.linalg.norm(U.conj().T @ U - np.eye(args.n))))
        worst_det = max(worst_det, abs(np.linalg.det(U) - 1.0))
    ok = worst_u < 1e-12 and worst_det < 1e-12
    lines = [
        f"unitarity: max |U^dag U - 1|_F = {worst_u:.2e}, "
        f"max |det U - 1| = {worst_det:.2e} {'PASS' if ok else 'FAIL'}"
    ]
    return lines, ok


def _verify_qutrit_matrix(args):
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        angles = _random_angles(3, rng)
        dev = np.abs(coset_unitary(angles).U - qutrit_unitary_closed_form(angles))
        worst = max(worst, float(dev.max()))
    ok = worst < 1e-12
    lines = [
        f"qutrit product vs closed form: max entrywise deviation = {worst:.2e} "
        f"over {args.trials} draws {'PASS' if ok else 'FAIL'}"
    ]
    return lines, ok


def cmd_verify(args) -> int:
    dispatch = {
        "identity": _verify_identity,
        "measure": _verify_measure,
        "volumes": _verify_volumes,
        "unitarity": _verify_unitarity,
        "qutrit-matrix": _verify_qutrit_matrix,
    }
    lines, ok = dispatch[args.which](args)
    return _report(lines, ok)


def cmd_evolve(args) -> int:
    model = load_model(args.model)
    rho0 = load_density(args.rho0)
    header = {
        "version": __version__,
        "model": args.model,
        "rho0": args.rho0,
        "dt": args.dt,
        "t_end": args.t_end,
        "seed": args.seed,
    }
    out = _provenance(args, model=args.model, rho0=args.rho0, files=[])
    trajectories = {}
    if args.method in ("direct", "both"):
        traj = integrate_direct(rho0, model, args.t_end, args.dt, args.record_every)
        path = f"{args.out}_direct.csv"
        write_trajectory_csv(path, traj, model.n, {**header, "method": "direct"})
        trajectories["direct"] = traj
        out["files"].append(path)
    if args.method in ("split", "both"):
        traj = integrate_split(
            rho0, model, args.t_end, args.dt, args.record_every, args.fallback
        )
        path = f"{args.out}_split.csv"
        write_trajectory_csv(path, traj, model.n, {**header, "method": "split"})
        trajectories["split"] = traj
        out["files"].append(path)
        if traj.breakdown_time is not None:
            out["breakdown_time"] = traj.breakdown_time
    if args.method == "both":
        # compare records taken at the same step: after a fallback the split
        # route records on a grid shifted by the breakdown time
        direct, split = trajectories["direct"], trajectories["split"]
        _, i, j = np.intersect1d(
            np.rint(direct.times / args.dt), np.rint(split.times / args.dt),
            return_indices=True,
        )
        diff = direct.rho[i] - split.rho[j]
        out["max_divergence"] = float(np.max(np.linalg.norm(diff, axis=(1, 2))))
    _emit(out)
    return 0


def cmd_sample(args) -> int:
    frames = sample_flags(args.n, args.N, args.seed)
    header = _provenance(args)
    if args.n == 2 and args.N > 0:
        # first-column overlap |<e1|u1>|^2 should be uniform on [0, 1]
        from scipy.stats import kstest

        overlap = np.abs(frames[:, 0, 0]) ** 2
        ks = kstest(overlap, "uniform")
        header["ks_statistic"] = float(ks.statistic)
        header["ks_pvalue"] = float(ks.pvalue)
    elif args.N > 0:
        avg = args.n * np.einsum("bik,bjk->ij", frames, frames.conj()) / (
            args.N * args.n
        )
        header["resolution_error"] = float(np.linalg.norm(avg - np.eye(args.n)))
    with open(args.out, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for U in frames:
            fh.write(json.dumps({"U": matrix_to_pairs(U)}) + "\n")
    print(f"wrote {args.N} frames to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specang",
        description="spectral-angular density matrix toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between p and r vectors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", help="comma-separated probabilities")
    p.add_argument("--r", help="comma-separated gaps")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("geometry", help="metric/purity/entropy quantities at r")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    for which in ("fisher", "bures", "purity", "kl", "entropy"):
        group.add_argument(
            f"--{which}", dest="which", action="store_const", const=which
        )
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("verify", help="numerical verification reports")
    p.add_argument(
        "which",
        choices=["identity", "measure", "volumes", "unitarity", "qutrit-matrix"],
    )
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--N", type=int, default=100000)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--tol", type=float, default=0.05)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evolve", help="integrate a GKLS model")
    p.add_argument("--model", required=True)
    p.add_argument("--rho0", required=True)
    p.add_argument("--method", choices=["direct", "split", "both"], default="both")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    p.add_argument("--record-every", dest="record_every", type=int, default=10)
    p.add_argument("--fallback", action="store_true",
                   help="fall back to direct integration on spectral degeneracy")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sample", help="sample invariantly distributed frames")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalBreakdownError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
