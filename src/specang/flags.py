"""SU(n) angular machinery and the complete flag manifold.

Embedded two-level rotations assemble coset unitaries whose columns form an
ordered eigenframe; frames modulo column phases live on the flag manifold
SU(n)/T^{n-1}.  This module provides the closed-form rotation factors, the
explicit angular density of the invariant measure, invariant sampling of
frames by orthonormalized Gaussian matrices, the Monte-Carlo resolution of
identity, covariant quantization of functions on frames, and the closed-form
volumes of the flag manifold and of the nondegenerate state space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EIG_TOL, ValidationError, _finite, check_angle, check_count, check_density, check_frame,
    check_gap_floor, check_memory, check_real, checked_array,
)
from .spectral import GapVector, gaps_stack, probs_stack, weighted_simplex_volume


def pair_indices(n: int) -> list:
    """The pairs (i, j), 1 <= i < j <= n, i ascending outer and j ascending
    inner: the order of the coset product and of every per-pair stack."""
    check_count("dimension", n, 2)
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def density_stack(p: np.ndarray, U: np.ndarray) -> np.ndarray:
    """U diag(p) U^dagger on stacks: p (..., n), U (..., n, n) -> (..., n, n).

    The one assembly of a density matrix from its spectrum and eigenframe.
    """
    return (U * p[..., None, :]) @ U.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class AngleSet:
    """Two-level rotation angles theta_{i,j} in [0, pi], phi_{i,j} in [0, 2pi)
    for every pair i < j, plus optional torus phases (n-1 of them)."""

    n: int
    theta: dict
    phi: dict
    torus: tuple | None = None

    def __post_init__(self):
        pairs = set(pair_indices(self.n))
        if set(self.theta) != pairs or set(self.phi) != pairs:
            raise ValidationError(
                f"angle maps must have exactly the {len(pairs)} keys (i,j), i<j"
            )
        for key in pair_indices(self.n):
            check_angle(f"theta{key}", self.theta[key], full_turn=False)
            check_angle(f"phi{key}", self.phi[key], full_turn=True)
        if self.torus is not None:
            object.__setattr__(self, "torus", tuple(_torus_phases(self.n, self.torus).tolist()))


def _torus_phases(n: int, phases) -> np.ndarray:
    """The n-1 torus phases after the length test, by checked_array's rule and messages."""
    if not (np.iterable(phases) and len(phases) == n - 1):
        raise ValidationError("torus phases must have length n-1")
    return _finite("torus phases", phases, float, (n - 1,), "finite")


@dataclass(frozen=True)
class UnitaryFrame:
    """Special unitary n x n matrix; its columns are an ordered eigenframe."""

    n: int
    U: np.ndarray

    def __post_init__(self):
        check_count("dimension", self.n, 2)
        U = checked_array("frame", self.U, complex, (self.n, self.n))
        check_frame(U)
        object.__setattr__(self, "U", U)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite n x n matrix."""

    n: int
    rho: np.ndarray

    def __post_init__(self):
        check_count("dimension", self.n, 2)
        rho = checked_array("density matrix", self.rho, complex, (self.n, self.n))
        check_density(rho)
        object.__setattr__(self, "rho", rho)


def embedded_generator(n: int, i: int, j: int, k: int) -> np.ndarray:
    """Pauli matrix sigma_k embedded in the (i,j)-plane of C^n (1-based)."""
    check_count("dimension", n, 2)
    check_count("j", j, 2, n)
    check_count("i", i, 1, j - 1)
    if k not in (1, 2, 3):
        raise ValidationError("k must be 1, 2 or 3")
    g = np.zeros((n, n), dtype=complex)
    g[np.ix_((i - 1, j - 1), (i - 1, j - 1))] = PAULI[int(k) - 1]  # k = 2.0 passes the check too
    return g


def cartan_generator(n: int, ell: int) -> np.ndarray:
    """Trace-orthonormal diagonal generator H_ell of su(n) (1-based)."""
    check_count("dimension", n, 2)
    check_count("ell", ell, 1, n - 1)
    d = np.zeros(n)
    d[:ell] = 1.0
    d[ell] = -float(ell)
    return np.diag(d / math.sqrt(ell * (ell + 1)))


def rotation_factor(n: int, i: int, j: int, theta: float, phi: float) -> UnitaryFrame:
    """Embedded two-level rotation exp(-i phi sigma3/2) exp(-i theta sigma2/2)
    exp(i phi sigma3/2) on the (i,j) block, identity elsewhere: the coset product
    with (theta, phi) at the pair (i,j) and every other angle zero."""
    check_count("dimension", n, 2)
    check_count("j", j, 2, n)
    check_count("i", i, 1, j - 1)
    check_real("theta", theta)
    check_real("phi", phi)
    angles = np.zeros((2, n * (n - 1) // 2))
    angles[:, pair_indices(n).index((i, j))] = theta, phi
    return UnitaryFrame(n, coset_unitaries(n, *angles))


def _angle_arrays(angles: AngleSet):
    """(theta, phi) of an AngleSet as a (2, m) array in pair_indices order."""
    return np.array([[angles.theta[k], angles.phi[k]] for k in pair_indices(angles.n)]).T


def coset_unitaries(n: int, theta, phi) -> np.ndarray:
    """Ordered product of the two-level rotations, i ascending outer and j
    ascending inner, R_{1,2} R_{1,3} ... R_{n-1,n}, on stacks theta and phi
    (..., n(n-1)/2) in pair_indices order: a (..., n, n) stack.  Each factor
    R_{i,j} mixes only columns i and j, so it is one two-column update.
    """
    check_count("dimension", n, 2)
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    c, se = np.cos(theta / 2.0), np.sin(theta / 2.0) * np.exp(1j * phi)
    U = np.broadcast_to(np.eye(n, dtype=complex), theta.shape[:-1] + (n, n)).copy()
    for k, (i, j) in enumerate(pair_indices(n)):
        ui, uj, ck, sek = U[..., i - 1], U[..., j - 1], c[..., k, None], se[..., k, None]
        U[..., i - 1], U[..., j - 1] = ck * ui + sek * uj, ck * uj - sek.conj() * ui
    return U


def coset_unitary(angles: AngleSet) -> UnitaryFrame:
    """The coset product at one AngleSet; see coset_unitaries."""
    return UnitaryFrame(angles.n, coset_unitaries(angles.n, *_angle_arrays(angles)))


def torus_element(n: int, phases) -> np.ndarray:
    """Diagonal torus factor exp(i sum_ell phi_ell H_ell)."""
    check_count("dimension", n, 2)
    phases = _torus_phases(n, phases)
    d = np.zeros(n)
    for ell in range(1, n):
        d += phases[ell - 1] * np.diag(cartan_generator(n, ell)).real
    return np.diag(np.exp(1j * d))


def full_unitary(angles: AngleSet) -> UnitaryFrame:
    """Coset product right-multiplied by the torus factor; a generic element
    of SU(n) with n^2 - 1 real parameters."""
    if angles.torus is None:
        raise ValidationError("full_unitary requires torus phases")
    U = coset_unitaries(angles.n, *_angle_arrays(angles)) @ torus_element(angles.n, angles.torus)
    return UnitaryFrame(angles.n, U)


def qutrit_unitary_closed_form(angles: AngleSet) -> np.ndarray:
    """The qutrit closed form at one AngleSet; see qutrit_unitaries_closed_form."""
    if angles.n != 3:
        raise ValidationError("closed form is specific to n = 3")
    return qutrit_unitaries_closed_form(*_angle_arrays(angles))


def qutrit_unitaries_closed_form(theta, phi) -> np.ndarray:
    """Explicit 3 x 3 coset matrices in terms of the six angles (closed form of
    the ordered product R_{1,2} R_{1,3} R_{2,3}), on stacks theta and phi
    (..., 3) in pair_indices order: a (..., 3, 3) stack."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    c12, c13, c23 = np.moveaxis(np.cos(theta / 2.0), -1, 0)
    s12, s13, s23 = np.moveaxis(np.sin(theta / 2.0), -1, 0)
    e12, e13, e23 = np.moveaxis(np.exp(1j * phi), -1, 0)
    rows = [
        [c12 * c13, -s12 * c23 / e12 - c12 * s13 * s23 * e23 / e13,
         s12 * s23 / (e12 * e23) - c12 * s13 * c23 / e13],
        [e12 * s12 * c13, c12 * c23 - e12 * e23 / e13 * s12 * s13 * s23,
         -c12 * s23 / e23 - e12 / e13 * s12 * s13 * c23],
        [e13 * s13, e23 * c13 * s23, c13 * c23],
    ]
    return np.moveaxis(np.array(rows, dtype=complex), (0, 1), (-2, -1))


def assemble_density(r: GapVector, frame) -> DensityMatrix:
    """Density matrix 1/n + U D(r) U^dagger from gaps and an eigenframe.

    `frame` may be an AngleSet (the coset unitary is built from it) or a
    UnitaryFrame.
    """
    if isinstance(frame, AngleSet):
        frame = coset_unitary(frame)
    return DensityMatrix(r.n, density_stack(probs_stack(r.r), frame.U))


def _fix_column_phases(U: np.ndarray) -> np.ndarray:
    """Rotate each column of each frame in the stack U (..., n, n) so its
    largest-modulus entry is real positive, then restore det = 1 by a phase
    on the last column."""
    rows = np.argmax(np.abs(U), axis=-2)
    lead = np.take_along_axis(U, rows[..., None, :], axis=-2)
    U = U * (np.abs(lead) / lead)
    det = np.linalg.det(U)[..., None]  # an array even for one matrix: no scalar arithmetic
    U[..., -1] *= det.conjugate() / np.hypot(det.real, det.imag)
    return U


def eigendecompose_ordered(rho: DensityMatrix):
    """Descending eigendecomposition with a deterministic phase section.

    Returns (GapVector, UnitaryFrame) such that assemble_density reproduces
    rho.  Raises DegenerateSpectrumError when the minimal eigenvalue gap is
    below threshold and the angular chart breaks down.
    """
    w, V = np.linalg.eigh(rho.rho)
    w, V = w[::-1], V[:, ::-1]
    check_gap_floor(gaps_stack(w), EIG_TOL, "eigenframe")
    w = np.clip(w, 0.0, None)
    r = GapVector(rho.n, gaps_stack(w / w.sum()))
    return r, UnitaryFrame(rho.n, _fix_column_phases(V))


def flag_density(angles: AngleSet) -> float:
    """Normalized invariant density on the flag manifold at one AngleSet;
    see flag_density_theta."""
    return float(flag_density_theta(angles.n, _angle_arrays(angles)[0]))


def flag_density_theta(n: int, theta) -> np.ndarray:
    """Normalized invariant density on the flag manifold with respect to
    prod dtheta_{i,j} dphi_{i,j}, on a stack theta (..., n(n-1)/2) of angles
    in pair_indices order:

    prod_{i<j} sin(theta_ij) cos^{2(j-i-1)}(theta_ij/2) / flag_volume(n).
    """
    volume = flag_volume(n)  # first: it checks n
    theta = np.asarray(theta, dtype=float)
    powers = np.array([2 * (j - i - 1) for (i, j) in pair_indices(n)])
    return np.prod(np.sin(theta) * np.cos(theta / 2.0) ** powers, axis=-1) / volume


FRAME_AXIS_COST = 0.6  # frame-axis loop where count >= FRAME_AXIS_COST n^4, fitted in BENCH_38.json
GAUSS_BLOCK = 2**17  # Gaussians per block of a frame draw (1 MiB)


def _ginibre_columns(n: int, count: int, seed: int, k: int) -> np.ndarray:
    """Columns 1..k of the positive-R QR factor of `count` complex Gaussian n x n matrices
    (standard_normal((2, count, n, n)), drawn GAUSS_BLOCK at a time) as a (k, count, n) stack:
    classical Gram-Schmidt, run twice.  From FRAME_AXIS_COST n^4 frames on it is a view of
    (k, n, count), frames on the fast axis, and each pair of columns a few vector operations."""
    check_count("seed", seed, 0)
    check_memory(count + 1, n)
    across, step = count >= FRAME_AXIS_COST * n**4, max(1, GAUSS_BLOCK // n**2)
    Q = np.empty((k, n, count) if across else (k, count, n), complex)
    Qv, rng = Q.swapaxes(1, 2) if across else Q, np.random.default_rng(seed)
    for part in (Qv.real, Qv.imag):  # all real parts, then all imaginary parts
        for s in range(0, count, step):
            G = rng.standard_normal((min(step, count - s), n, n))
            part[:, s:s + step] = G[..., :k].transpose(2, 0, 1)
    for j, v in enumerate(Q):
        if across:  # v (n, count): twice v -= sum_m <q_m, v> q_m, one column q_m at a time
            for _ in range(2 if j else 0):
                for c, q in zip([(q.conj() * v).sum(axis=0) for q in Q[:j]], Q[:j]):
                    v -= c * q
            v *= 1.0 / np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=0))
        elif j:  # v (count, n): twice v -= (v P^dag) P, P the columns before v, v P^dag as
            w, P = v[:, None], Q[:j].transpose(1, 0, 2)  # conj(conj(v) P^T): P is not copied
            w -= (w.conj() @ P.swapaxes(1, 2)).conj() @ P
            w -= (w.conj() @ P.swapaxes(1, 2)).conj() @ P
        if not across:
            v /= np.sqrt(np.einsum("bi,bi->b", v.view(float), v.view(float)))[:, None]
    return Qv


def sample_flags(n: int, count: int, seed: int) -> np.ndarray:
    """Stack of `count` frames distributed by the invariant flag measure.

    A complex Gaussian matrix is orthonormalized (QR with positive R
    diagonal, by Gram-Schmidt), which is invariant by construction; each
    frame then gets the deterministic phase section of eigendecompose_ordered.
    """
    check_count("dimension", n, 2)
    check_count("count", count, 0)
    return _fix_column_phases(_ginibre_columns(n, count, seed, n).transpose(1, 2, 0).copy())


def sample_flag(n: int, seed: int) -> UnitaryFrame:
    """A single invariantly distributed frame (deterministic in the seed)."""
    return UnitaryFrame(n, sample_flags(n, 1, seed)[0])


def resolution_check(n: int, i: int, num_samples: int, seed: int):
    """Monte-Carlo average of n |u_i><u_i| over sample_flags(n, num_samples,
    seed), from columns 1..i alone and without the phase section, which leaves
    |u_i><u_i| unchanged.  Returns (average matrix, Frobenius distance to the
    identity); the error is expected to scale like 1/sqrt(num_samples).
    """
    check_count("dimension", n, 2)
    check_count("column index", i, 1, n)
    check_count("num_samples", num_samples, 1)
    avg = _column_errors(_ginibre_columns(n, num_samples, seed, i)[-1:])[0][0]
    return avg, float(np.linalg.norm(avg - np.eye(n)))


def _column_errors(cols: np.ndarray):
    """n * mean_b u_i u_i^dag for each column stack u_i of cols (k, B, n), by one batched
    product, and its ||. - 1||_F: (k, n, n) and (k,) stacks.  Column i of a draw is
    resolution_check's average bit for bit, its error (a stacked norm) to an ulp."""
    avg = cols.shape[-1] * (cols.swapaxes(-1, -2) @ cols.conj()) / cols.shape[1]
    return avg, np.linalg.norm(avg - np.eye(cols.shape[-1]), axis=(-2, -1))


def quantize(f, r: GapVector, num_samples: int, seed: int) -> np.ndarray:
    """Covariant integral quantization of a function on frames:
    Monte-Carlo estimate of Op_f = integral f(F) n rho_{r,F} dmu(F).

    `f` is called with each sampled frame as a plain (n, n) complex array.
    """
    check_count("num_samples", num_samples, 1)
    n = r.n
    frames = sample_flags(n, num_samples, seed)
    weights = np.array([f(U) for U in frames], dtype=complex)
    rhos = density_stack(probs_stack(r.r), frames)
    return n * np.einsum("b,bij->ij", weights, rhos) / num_samples


def flag_volume(n: int) -> float:
    """Total volume (4 pi)^{n(n-1)/2} / prod_m m! of the flag manifold."""
    check_count("dimension", n, 2)
    log_vol = n * (n - 1) / 2.0 * math.log(4.0 * math.pi)
    for m in range(1, n):
        log_vol -= math.lgamma(m + 1)
    return math.exp(log_vol)


def state_space_volume(n: int) -> float:
    """Volume of the nondegenerate state space: the product of the weighted
    simplex volume and the flag volume."""
    return float(weighted_simplex_volume(n)) * flag_volume(n)
