"""Command-line front end.

Subcommands: convert, geometry, verify, evolve, sample.  All output embeds
the package version, the seed, and the parameters of the run.  Exit codes:
0 success, 2 input validation, 3 numerical breakdown or failed verification,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import TOL, NumericalBreakdownError, ValidationError, check_memory
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
    _column_errors,
    _ginibre_columns,
    coset_unitaries,
    flag_density_theta,
    pair_indices,
    qutrit_unitaries_closed_form,
    sample_flags,
)
from .kolmogorov import ks_uniform
from .serialize import write_frames
from .dynamics import (
    integrate_direct,
    integrate_split,
    load_density,
    load_model,
    write_trajectory_csv,
)


def _floats(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"could not parse float list {text!r}") from exc


def _bounded(kind, minimum, strict=False):
    """argparse type: a `kind` (int or float), finite, >= minimum (> if strict), else exit 2."""
    what = ("an integer" if kind is int else "a finite float") + (" > " if strict else " >= ")

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan  # fails the bound
        if not (minimum < value < math.inf if strict else minimum <= value < math.inf):
            raise argparse.ArgumentTypeError(f"must be {what}{minimum}, got {text!r}")
        return value

    return parse


def _provenance(args, **extra) -> dict:
    doc = {"version": __version__, "subcommand": args.command}
    for key in ("n", "seed", "N", "dt", "t_end"):
        if hasattr(args, key):
            doc[key] = getattr(args, key)
    doc.update(extra)
    return doc


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, default=str) + "\n")


def cmd_convert(args) -> int:
    if (args.p is None) == (args.r is None):
        raise ValidationError("convert needs exactly one of --p or --r")
    if args.p is not None:
        p = ProbVector(args.n, _floats(args.p))
        r = gaps_from_probs(p)
    else:
        r = GapVector(args.n, _floats(args.r))
        p = probs_from_gaps(r)
    _emit(_provenance(args, p=list(p.p), r=list(r.r), in_polytope=in_polytope(r.r, args.n)))
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


def _verify_identity(args):
    _, errors = _column_errors(_ginibre_columns(args.n, args.N, args.seed, args.n))
    lines = [
        f"identity column {i}: frobenius_error={err:.4f} "
        f"(N={args.N}) {'PASS' if err < args.tol else 'FAIL'}"
        for i, err in enumerate(errors, 1)
    ]
    return lines, bool(np.all(errors < args.tol))


def _verify_measure(args):
    if not args.N >= 2:  # the standard error needs two samples
        raise ValidationError("measure needs N >= 2")
    check_memory(args.N + 1, args.n)
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
    # <=: at n = 2 the sampling box is the polytope itself, so est is exact and se = 0
    ok_mc = abs(est - float(weighted)) <= 3.0 * se
    lines = [
        f"ordered simplex volume: {ordered}",
        f"weighted simplex volume: {weighted}",
        f"ratio weighted/ordered = {ratio} (expect {n}) {'PASS' if ok_ratio else 'FAIL'}",
        f"monte-carlo volume: {est:.6f} +- {se:.6f} vs exact {float(weighted):.6f} "
        f"{'PASS' if ok_mc else 'FAIL'}",
    ]
    return lines, ok_ratio and ok_mc


def _angle_draws(n, trials, seed):
    """(theta, phi) stacks (trials, m): per trial m draws for theta, then m for phi."""
    check_memory(trials + 1, n)
    x = np.random.default_rng(seed).random((trials, 2, len(pair_indices(n))))
    return x[:, 0] * math.pi, x[:, 1] * (2.0 * math.pi)


def _verify_unitarity(args):
    n = args.n
    cosets = coset_unitaries(n, *_angle_draws(n, args.trials, args.seed))
    U = np.concatenate([cosets, sample_flags(n, args.trials, args.seed)])
    defect = np.linalg.norm(U.conj().swapaxes(-1, -2) @ U - np.eye(n), axis=(-2, -1))
    worst_u = float(np.max(defect, initial=0.0))
    worst_det = float(np.max(np.abs(np.linalg.det(U) - 1.0), initial=0.0))
    ok = worst_u < TOL and worst_det < TOL
    lines = [
        f"unitarity: max |U^dag U - 1|_F = {worst_u:.2e}, "
        f"max |det U - 1| = {worst_det:.2e} {'PASS' if ok else 'FAIL'}"
    ]
    return lines, ok


def _verify_qutrit_matrix(args):
    theta, phi = _angle_draws(3, args.trials, args.seed)
    dev = np.abs(coset_unitaries(3, theta, phi) - qutrit_unitaries_closed_form(theta, phi))
    worst = float(np.max(dev, initial=0.0))
    ok = worst < TOL
    lines = [
        f"qutrit product vs closed form: max entrywise deviation = {worst:.2e} "
        f"over {args.trials} draws {'PASS' if ok else 'FAIL'}"
    ]
    return lines, ok


def cmd_verify(args) -> int:
    dispatch = {"identity": _verify_identity, "measure": _verify_measure,
                "volumes": _verify_volumes, "unitarity": _verify_unitarity,
                "qutrit-matrix": _verify_qutrit_matrix}
    lines, passed = dispatch[args.which](args)
    print(*lines, f"RESULT: {'PASS' if passed else 'FAIL'}", sep="\n")
    return 0 if passed else 3


def cmd_evolve(args) -> int:
    model = load_model(args.model)
    rho0 = load_density(args.rho0)
    header = {"version": __version__, "model": args.model, "rho0": args.rho0,
              "dt": args.dt, "t_end": args.t_end, "seed": args.seed}
    out = _provenance(args, model=args.model, rho0=args.rho0, files=[])
    rhos = []
    for method, integrate, extra in (
        ("direct", integrate_direct, ()), ("split", integrate_split, (args.fallback,))
    ):
        if args.method not in (method, "both"):
            continue
        traj = integrate(rho0, model, args.t_end, args.dt, args.record_every, *extra)
        path = f"{args.out}_{method}.csv"
        write_trajectory_csv(path, traj, {**header, "method": method})
        out["files"].append(path)
        rhos.append(traj.rho)
        out.setdefault("direct_step", {})[method] = traj.direct_step
        if traj.breakdown_time is not None:
            out["breakdown_time"] = traj.breakdown_time
    if args.method == "both":  # both routes record on the same grid
        diff = rhos[0] - rhos[1]
        out["max_divergence"] = float(np.max(np.linalg.norm(diff, axis=(1, 2))))
    _emit(out)
    return 0


def cmd_sample(args) -> int:
    frames = sample_flags(args.n, args.N, args.seed)
    header = _provenance(args)
    if args.n == 2 and args.N > 0:
        # first-column overlap |<e1|u1>|^2 should be uniform on [0, 1]
        header["ks_statistic"], header["ks_pvalue"] = ks_uniform(np.abs(frames[:, 0, 0]) ** 2)
    elif args.N > 0:
        # column i averages n u_i u_i^dag to 1 only under the invariant measure;
        # their mean, mean_b U U^dag, is 1 for any unitary frames
        avg, errors = _column_errors(frames.transpose(2, 0, 1))
        header["resolution_error"] = float(np.linalg.norm((avg - np.eye(args.n)).mean(axis=0)))
        header["column_resolution_error"] = float(errors.max())
    write_frames(args.out, json.dumps(header, sort_keys=True) + "\n", frames)
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
    p.add_argument("--n", type=_bounded(int, 2), required=True)
    p.add_argument("--p", help="comma-separated probabilities")
    p.add_argument("--r", help="comma-separated gaps")

    p = sub.add_parser("geometry", help="metric/purity/entropy quantities at r")
    p.add_argument("--n", type=_bounded(int, 2), required=True)
    p.add_argument("--r", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    for which in ("fisher", "bures", "purity", "kl", "entropy"):
        group.add_argument(
            f"--{which}", dest="which", action="store_const", const=which
        )

    p = sub.add_parser("verify", help="numerical verification reports")
    p.add_argument(
        "which",
        choices=["identity", "measure", "volumes", "unitarity", "qutrit-matrix"],
    )
    p.add_argument("--n", type=_bounded(int, 2), default=3)
    p.add_argument("--N", type=_bounded(int, 1), default=100000)
    p.add_argument("--trials", type=_bounded(int, 0), default=1000)
    p.add_argument("--seed", type=_bounded(int, 0))
    p.add_argument("--tol", type=_bounded(float, 0, strict=True), default=0.05)

    p = sub.add_parser("evolve", help="integrate a GKLS model")
    p.add_argument("--model", required=True)
    p.add_argument("--rho0", required=True)
    p.add_argument("--method", choices=["direct", "split", "both"], default="both")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    p.add_argument("--record-every", dest="record_every", type=_bounded(int, 1), default=10)
    p.add_argument("--fallback", action="store_true",
                   help="fall back to direct integration on spectral degeneracy")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--seed", type=_bounded(int, 0))

    p = sub.add_parser("sample", help="sample invariantly distributed frames")
    p.add_argument("--n", type=_bounded(int, 2), required=True)
    p.add_argument("--N", type=_bounded(int, 0), required=True)
    p.add_argument("--seed", type=_bounded(int, 0))
    p.add_argument("--out", required=True)

    return parser


_parser = functools.cache(build_parser)  # one parser per process, reused by every main()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # handlers are looked up per call, so the cached parser holds none of them
    handler = {"convert": cmd_convert, "geometry": cmd_geometry, "verify": cmd_verify,
               "evolve": cmd_evolve, "sample": cmd_sample}[args.command]
    try:
        if getattr(args, "seed", 0) is None:  # read on every call, not at parser build
            try:
                args.seed = _bounded(int, 0)(os.environ.get("SPECANG_SEED", "0"))
            except argparse.ArgumentTypeError as exc:
                raise ValidationError(f"SPECANG_SEED {exc}") from None
        with np.errstate(all="ignore"):  # a guard reports the NaN a numpy warning would announce
            return handler(args)
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
