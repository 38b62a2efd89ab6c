"""GKLS open-system evolution in direct and split spectral-angular form.

The direct route integrates the master equation on the density matrix with
fixed-step RK4.  The split route evolves the gap vector r (driven by the
dissipator alone) coupled to an eigenframe rotation U' = Omega U, where the
off-diagonal generator entries in the moving frame carry both Hamiltonian
and dissipative contributions divided by the eigenvalue gaps.  Closed-form
specializations are provided for a qubit with Pauli jump operators and for
the real symmetric qutrit sector in zyz Euler angles.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrumError, NumericalBreakdownError, ValidationError
from .flags import (
    HERMITICITY_TOL,
    DensityMatrix,
    UnitaryFrame,
    check_density,
    check_frame,
    density_stack,
    eigendecompose_ordered,
    pair_indices,
)
from .serialize import matrix_from_pairs, matrix_to_pairs, dump_json, load_json
from .spectral import GapVector, check_gaps, jacobian_matrix, probs_from_gaps

MIN_GAP = 1e-8
POSITIVITY_FLOOR = -1e-8
TRACE_DRIFT_MAX = 1e-8

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian H, jump operators L_k, and non-negative rates h_k."""

    n: int
    H: np.ndarray
    jumps: tuple
    rates: tuple

    def __post_init__(self):
        H = np.array(self.H, dtype=complex)
        if H.shape != (self.n, self.n):
            raise ValidationError(f"H must be {self.n} x {self.n}")
        if np.linalg.norm(H - H.conj().T) > HERMITICITY_TOL * 10:
            raise ValidationError("H must be Hermitian")
        jumps = tuple(np.array(L, dtype=complex) for L in self.jumps)
        for L in jumps:
            if L.shape != (self.n, self.n):
                raise ValidationError("jump operator dimension mismatch")
        rates = tuple(float(h) for h in self.rates)
        if len(rates) != len(jumps):
            raise ValidationError("need one rate per jump operator")
        if any(h < 0.0 for h in rates):
            raise ValidationError("rates must be non-negative")
        for a in (H, *jumps):
            a.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "rates", rates)
        # operator stack [H, K, sqrt(h_k) L_k] with K = sum_k h_k L_k^dag L_k,
        # shared by the dissipator, the Liouvillian and the frame generator
        K = sum((h * (L.conj().T @ L) for h, L in zip(rates, jumps)), np.zeros_like(H))
        ops = np.stack([H, K, *(math.sqrt(h) * L for h, L in zip(rates, jumps))])
        ops.setflags(write=False)
        object.__setattr__(self, "_ops", ops)


@dataclass(frozen=True)
class SplitState:
    """Point of the split flow: gaps r, eigenframe U, time t."""

    r: GapVector
    U: UnitaryFrame
    t: float


@dataclass(frozen=True)
class QubitAngles:
    """Bloch coordinates (r, theta, phi) of a qubit state."""

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0 + 1e-12:
            raise ValidationError("qubit radius must lie in [0, 1]")
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise ValidationError("theta must lie in [0, pi]")
        if not -1e-12 <= self.phi < 2.0 * math.pi:
            raise ValidationError("phi must lie in [0, 2pi)")


@dataclass(frozen=True)
class QutritEuler:
    """Real qutrit coordinates: gaps (r1, r2) and zyz Euler angles."""

    r1: float
    r2: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        GapVector(3, np.array([self.r1, self.r2]))
        if not 0.0 < self.beta < math.pi:
            raise ValidationError("beta must lie in (0, pi)")
        for name in ("alpha", "gamma"):
            v = getattr(self, name)
            if not -1e-12 <= v < 2.0 * math.pi:
                raise ValidationError(f"{name} must lie in [0, 2pi)")


@dataclass
class Trajectory:
    """Recorded run as stacked columns over T records: times (T,), gaps
    r (T, n-1), density matrices rho (T, n, n), per-record diagnostics
    (arrays of length T) and the split-chart breakdown time, if any."""

    times: np.ndarray
    r: np.ndarray
    rho: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    breakdown_time: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0.0):
            raise ValidationError("trajectory times must be strictly increasing")
        err = self.diagnostics.get("trace_error")
        if err is not None and not np.max(err, initial=0.0) <= TRACE_DRIFT_MAX:
            raise ValidationError("trace drift exceeds tolerance along trajectory")


def dissipator(rho, model: LindbladModel) -> np.ndarray:
    """Dissipative part sum_k h_k (L rho L^dag - {rho, L^dag L}/2)."""
    rho = np.asarray(getattr(rho, "rho", rho), dtype=complex)
    K, A = model._ops[1], model._ops[2:]
    jump = np.sum(A @ rho @ A.conj().swapaxes(-1, -2), axis=0)
    return jump - 0.5 * (K @ rho + rho @ K)


def _liouvillian(model: LindbladModel) -> np.ndarray:
    """The n^2 x n^2 GKLS superoperator on row-major vec(rho).

    With vec(A X B) = (A kron B^T) vec(X) and G = -iH - K/2 the generator
    G rho + rho G^dag + sum_k A_k rho A_k^dag (A_k = sqrt(h_k) L_k) is
    kron(G, 1) + kron(1, conj(G)) + sum_k kron(A_k, conj(A_k)).  Built in
    place with no n^4 temporary: the jump sum is written straight into the
    (i, a, j, b) block view, then the G blocks are added to it.
    """
    n = model.n
    H, K, A = model._ops[0], model._ops[1], model._ops[2:]
    G = -1j * H - 0.5 * K
    out = np.empty((n * n, n * n), dtype=complex)
    blocks = out.reshape(n, n, n, n)
    np.einsum("kij,kab->iajb", A, A.conj(), out=blocks)
    for a in range(n):
        blocks[:, a, :, a] += G
        blocks[a, :, a, :] += G.conj()
    return out


def lindblad_rhs(rho, model: LindbladModel) -> np.ndarray:
    """Full generator -i[H, rho] + dissipator, as the Liouvillian on vec(rho)."""
    mat = np.asarray(getattr(rho, "rho", rho), dtype=complex)
    if mat.shape != (model.n, model.n):
        raise ValidationError("state and model dimensions disagree")
    return (_liouvillian(model) @ mat.ravel()).reshape(mat.shape)


def _rk4(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_count(t_end, dt):
    if dt <= 0.0 or t_end <= 0.0:
        raise ValidationError("t_end and dt must be positive")
    steps = int(round(t_end / dt))
    return max(steps, 1)


def integrate_direct(
    rho0: DensityMatrix, model: LindbladModel, t_end: float, dt: float, record_every: int = 1
) -> Trajectory:
    """Fixed-step RK4 on the density matrix itself.

    The generator is linear, so one RK4 step is the polynomial
    sum_{k<=4} (dt L)^k / k! in the Liouvillian L, applied in Horner form as
    four matrix-vector products.  The state is re-Hermitized and
    trace-renormalized after each step; the pre-renormalization drift and
    the spectral diagnostics are recorded.  Aborts with
    NumericalBreakdownError at the step where the trace drift exceeds
    TRACE_DRIFT_MAX, and at a record where an eigenvalue drops below the
    positivity floor.
    """
    steps = _step_count(t_end, dt)
    n = model.n
    A = _liouvillian(model)
    A *= dt
    rho = np.array(rho0.rho, dtype=complex)

    times, rhos, spectra, drifts = [], [], [], []
    drift = 0.0

    def record(t):
        w = np.linalg.eigvalsh(rho)
        if w[0] < POSITIVITY_FLOOR:
            raise NumericalBreakdownError(
                f"positivity violated at t={t:.6g}: min eigenvalue {w[0]:.3e}"
            )
        check_density(rho, w)
        times.append(t)
        rhos.append(rho)
        spectra.append(w)
        drifts.append(drift)

    record(0.0)
    for step in range(1, steps + 1):
        v = rho.ravel()
        x = v
        for c in (0.25, 1.0 / 3.0, 0.5, 1.0):
            x = v + c * (A @ x)
        rho = x.reshape(n, n)
        rho = 0.5 * (rho + rho.conj().T)
        tr = float(np.trace(rho).real)
        drift = abs(tr - 1.0)
        if not drift <= TRACE_DRIFT_MAX:
            raise NumericalBreakdownError(
                f"trace drift {drift:.3e} exceeds {TRACE_DRIFT_MAX:.0e} at t={step * dt:.6g}"
            )
        rho = rho / tr
        if step % record_every == 0 or step == steps:
            record(step * dt)

    w = np.array(spectra)
    r = np.diff(w, axis=1)[:, ::-1]  # ascending spectrum -> descending gaps
    diag = {"trace_error": np.array(drifts), "min_eig": w[:, 0], "min_gap": r.min(axis=1)}
    return Trajectory(np.array(times), r, np.array(rhos), diag)


def frame_generator(U, p, model: LindbladModel):
    """Hamiltonian and dissipator seen in the frame U at spectrum p.

    Returns (U^dag H U, U^dag D(U diag(p) U^dag) U), where p may be a stack
    (..., n).  The dissipator is formed from the frame operators
    Ht, Kt, At_k = U^dag [H, K, sqrt(h_k) L_k] U and G = U^dag U as
    sum_k At_k P At_k^dag - (G P Kt + Kt P G)/2 with P = diag(p), so it
    never assembles rho; G P Kt is taken as (Kt P G)^dag, both factors being
    Hermitian.  G is the identity on the unitary manifold; keeping it extends
    the formula exactly to the non-unitary RK4 stages.
    """
    Ud = np.conj(U).T
    ops = Ud @ model._ops @ U
    Ht, Kt, At = ops[0], ops[1], ops[2:]
    p = np.asarray(p)
    jump = np.sum((At * p[..., None, None, :]) @ At.conj().swapaxes(-1, -2), axis=-3)
    X = (Kt * p[..., None, :]) @ (Ud @ U)
    return Ht, jump - 0.5 * (X + X.conj().swapaxes(-1, -2))


def _split_rhs_arrays(r_vec, U, model: LindbladModel, M):
    """Raw split right-hand side on plain arrays.

    Returns (r_dot, Omega_tilde) where Omega_tilde = U^dag dU/dt has zero
    diagonal (torus gauge) and off-diagonal entries
    -i Htilde_ij - (Ltilde_diss)_ij / (p_i - p_j).
    """
    n = model.n
    p = 1.0 / n + M @ r_vec
    if np.min(r_vec) < MIN_GAP:
        raise DegenerateSpectrumError(
            f"spectral gap below {MIN_GAP}; angular chart breaks down"
        )
    Ht, Lt = frame_generator(U, p, model)
    d = Lt.diagonal().real
    r_dot = d[:-1] - d[1:]
    denom = p[:, None] - p[None, :]
    np.fill_diagonal(denom, 1.0)
    Omega_t = -1j * Ht - Lt / denom
    np.fill_diagonal(Omega_t, 0.0)
    return r_dot, Omega_t


def split_rhs(state: SplitState, model: LindbladModel):
    """Split right-hand side: gap rates and the frame generator Omega.

    r evolves under the dissipator alone (adjacent differences of the
    diagonal dissipator entries in the eigenbasis); Omega = dU/dt U^dag is
    returned in the fixed basis, anti-Hermitian, with the torus gauge pinned
    by a zero diagonal in the moving frame.
    """
    if model.n != state.r.n:
        raise ValidationError("state and model dimensions disagree")
    M = jacobian_matrix(model.n)
    U = state.U.U
    r_dot, Omega_t = _split_rhs_arrays(state.r.r, U, model, M)
    return r_dot, U @ Omega_t @ U.conj().T


def _polar_special(U):
    """Nearest unitary (polar factor), det pushed back to 1 on the last column."""
    X, _, Yh = np.linalg.svd(U)
    Q = X @ Yh
    det = np.linalg.det(Q)
    Q[:, -1] *= det.conjugate() / abs(det)
    return Q


def integrate_split(
    rho0: DensityMatrix,
    model: LindbladModel,
    t_end: float,
    dt: float,
    record_every: int = 1,
    fallback_direct: bool = False,
) -> Trajectory:
    """Fixed-step RK4 on the coupled system (r' = adjacent dissipator
    differences, U' = U Omega_tilde), with the frame re-orthonormalized by a
    polar correction after every step.

    On spectral degeneracy the integration stops with the breakdown time; if
    `fallback_direct` is set, the remainder of the interval is integrated
    directly instead and the trajectory carries the breakdown time.
    """
    steps = _step_count(t_end, dt)
    n = model.n
    M = jacobian_matrix(n)
    r_vec, frame = eigendecompose_ordered(rho0)
    r_arr = np.array(r_vec.r)
    U = np.array(frame.U)

    # RK4 steps the packed complex array (U.ravel(), r); r carries a zero
    # imaginary part, so its arithmetic is that of a real array.
    def f(y):
        V = y[: n * n].reshape(n, n)
        r_dot, Omega_t = _split_rhs_arrays(y[n * n :].real.copy(), V, model, M)
        return np.concatenate([(V @ Omega_t).ravel(), r_dot])

    times, rs, ps, frames = [], [], [], []

    def record(t):
        check_gaps(r_arr)
        check_frame(U)
        times.append(t)
        rs.append(r_arr)
        ps.append(1.0 / n + M @ r_arr)
        frames.append(U)

    def trajectory():
        r, p = np.array(rs), np.array(ps)
        diag = {
            "trace_error": np.abs(p.sum(axis=1) - 1.0),
            "min_eig": p[:, -1],
            "min_gap": r.min(axis=1),
        }
        return Trajectory(np.array(times), r, density_stack(p, np.array(frames)), diag)

    record(0.0)
    for step in range(1, steps + 1):
        try:
            y = _rk4(f, np.concatenate([U.ravel(), r_arr]), dt)
        except DegenerateSpectrumError as exc:
            t_break = (step - 1) * dt
            if not fallback_direct:
                raise DegenerateSpectrumError(
                    f"split integration broke down at t={t_break:.6g}: {exc}"
                ) from exc
            rho = DensityMatrix(n, density_stack(1.0 / n + M @ r_arr, U))
            return _continue_direct(trajectory(), model, rho, t_break, t_end, dt, record_every)
        r_arr, U = y[n * n :].real.copy(), _polar_special(y[: n * n].reshape(n, n))
        if step % record_every == 0 or step == steps:
            record(step * dt)

    return trajectory()


def _continue_direct(traj, model, rho, t_break, t_end, dt, record_every):
    """Resume a broken split trajectory with the direct integrator from the
    state rho the split flow reached at t_break."""
    rest = integrate_direct(rho, model, t_end - t_break, dt, record_every)
    return Trajectory(
        np.concatenate([traj.times, rest.times[1:] + t_break]),
        np.concatenate([traj.r, rest.r[1:]]),
        np.concatenate([traj.rho, rest.rho[1:]]),
        {k: np.concatenate([v, rest.diagnostics[k][1:]]) for k, v in traj.diagnostics.items()},
        breakdown_time=t_break,
    )


def _require_pauli_model(model: LindbladModel):
    if model.n != 2 or len(model.jumps) != 3:
        raise ValidationError("qubit closed form needs n=2 with jumps sigma_1..3")
    for L, sigma in zip(model.jumps, PAULI):
        if np.linalg.norm(L - sigma) > 1e-12:
            raise ValidationError("qubit closed form needs Pauli jump operators")


def qubit_rhs(state: QubitAngles, model: LindbladModel):
    """Closed-form qubit rates (phi_dot, theta_dot, r_dot) for Pauli jumps
    with rates (h1, h2, h3) and a general Hamiltonian."""
    _require_pauli_model(model)
    if state.r <= 0.0:
        raise NumericalBreakdownError("qubit chart needs r > 0")
    st = math.sin(state.theta)
    if abs(st) < 1e-8:
        raise NumericalBreakdownError("qubit chart singular at theta in {0, pi}")
    h1, h2, h3 = model.rates
    H = model.H
    h00, h11 = H[0, 0].real, H[1, 1].real
    re01, im01 = H[0, 1].real, H[0, 1].imag
    ct = math.cos(state.theta) / st
    cph, sph = math.cos(state.phi), math.sin(state.phi)

    phi_dot = (
        h00
        - h11
        - 2.0 * ct * (re01 * cph - im01 * sph)
        + (h2 - h1) * math.sin(2.0 * state.phi)
    )
    theta_dot = -2.0 * (re01 * sph + im01 * cph) + math.sin(2.0 * state.theta) * (
        h1 * cph**2 + h2 * sph**2 - h3
    )
    r_dot = (
        -2.0
        * state.r
        * (h1 * (1.0 - st**2 * cph**2) + h2 * (1.0 - st**2 * sph**2) + h3 * st**2)
    )
    return phi_dot, theta_dot, r_dot


def qubit_frame(theta: float, phi: float) -> np.ndarray:
    """Coset unitary of the qubit chart: columns are the eigenvectors."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]], dtype=complex
    )


def so3_euler(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """zyz Euler rotation R_z(alpha) R_y(beta) R_z(gamma)."""

    def rz(v):
        c, s = math.cos(v), math.sin(v)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    cb, sb = math.cos(beta), math.sin(beta)
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    return rz(alpha) @ ry @ rz(gamma)


def euler_omega(alpha, beta, gamma, alpha_dot, beta_dot, gamma_dot) -> np.ndarray:
    """Closed-form body generator U^T dU/dt of the zyz Euler chart."""
    sb, cb = math.sin(beta), math.cos(beta)
    sg, cg = math.sin(gamma), math.cos(gamma)
    w12 = -(alpha_dot * cb + gamma_dot)
    w13 = alpha_dot * sb * sg + beta_dot * cg
    w23 = alpha_dot * sb * cg - beta_dot * sg
    return np.array(
        [[0.0, w12, w13], [-w12, 0.0, w23], [-w13, -w23, 0.0]]
    )


def real_qutrit_rhs(state: QutritEuler, A: np.ndarray, diss):
    """Closed-form rates (alpha_dot, beta_dot, gamma_dot, r1_dot, r2_dot) for
    the real symmetric qutrit sector.

    `A` is the real antisymmetric generator of the Hamiltonian part (H = iA);
    `diss` is a callable mapping real symmetric matrices to real symmetric
    matrices (the dissipative part of the generator).
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3) or np.linalg.norm(A + A.T) > 1e-12:
        raise ValidationError("A must be real antisymmetric 3 x 3")
    r1, r2 = state.r1, state.r2
    for name, val in (("r1", r1), ("r2", r2), ("r1+r2", r1 + r2)):
        if val < MIN_GAP:
            raise DegenerateSpectrumError(f"spectral degeneracy: {name} too small")
    sb = math.sin(state.beta)
    if abs(sb) < 1e-8:
        raise NumericalBreakdownError("Euler chart singular at beta in {0, pi}")

    p = probs_from_gaps(GapVector(3, np.array([r1, r2]))).p
    U = so3_euler(state.alpha, state.beta, state.gamma)
    rho = density_stack(p, U)
    L = np.asarray(diss(rho))
    if np.linalg.norm(np.asarray(L, dtype=complex).imag) > 1e-10 or np.linalg.norm(
        L.real - L.real.T
    ) > 1e-10:
        raise ValidationError("dissipator must preserve real symmetric matrices")
    Lt = U.T @ L.real @ U
    d = Lt.diagonal()
    r1_dot, r2_dot = d[0] - d[1], d[1] - d[2]

    At = U.T @ A @ U
    om12 = At[0, 1] - Lt[0, 1] / r1
    om23 = At[1, 2] - Lt[1, 2] / r2
    om13 = At[0, 2] - Lt[0, 2] / (r1 + r2)

    sg, cg = math.sin(state.gamma), math.cos(state.gamma)
    alpha_dot = (om13 * sg + om23 * cg) / sb
    beta_dot = om13 * cg - om23 * sg
    gamma_dot = -om12 - (math.cos(state.beta) / sb) * (om13 * sg + om23 * cg)
    return alpha_dot, beta_dot, gamma_dot, r1_dot, r2_dot


def secular_factorization_test(
    model: LindbladModel,
    state: SplitState,
    tolerance: float,
    num_r_samples: int = 8,
    seed: int = 0,
):
    """Probe whether the off-diagonal dissipator entries in the eigenbasis
    factor as (angular function) x (eigenvalue gap).

    The frame of `state` is held fixed while the gap vector is re-drawn; the
    ratios k_ij / (p_i - p_j) are compared across draws.  Returns
    (factorized, residuals) where residuals maps each mode (i, j) to the
    spread of its ratio.
    """
    n = model.n
    U = state.U.U
    rng = np.random.default_rng(seed)
    weights = np.arange(1, n)
    M = jacobian_matrix(n)

    r = []
    for _ in range(num_r_samples):
        x = 0.5 + rng.random(n - 1)
        r.append(x * (0.3 + 0.6 * rng.random()) / float(weights @ x))
    p = 1.0 / n + np.array(r) @ M.T
    _, Lt = frame_generator(U, p, model)

    residuals = {}
    for (i, j) in pair_indices(n):
        vals = Lt[:, i - 1, j - 1] / (p[:, i - 1] - p[:, j - 1])
        residuals[(i, j)] = float(np.max(np.abs(vals - np.mean(vals))))
    return max(residuals.values()) <= tolerance, residuals


# --- random model and state generation (seeded) ---------------------------


def random_hermitian(n: int, rng) -> np.ndarray:
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (A + A.conj().T)


def random_model(
    n: int, seed: int, jump_scale: float = 0.3, num_jumps: int = 2
) -> LindbladModel:
    """Gaussian Hermitian H, Gaussian complex jump operators, unit rates."""
    rng = np.random.default_rng(seed)
    H = random_hermitian(n, rng)
    jumps = tuple(
        jump_scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for _ in range(num_jumps)
    )
    return LindbladModel(n, H, jumps, (1.0,) * num_jumps)


def random_interior_gaps(n: int, rng, fill: float = 0.75) -> GapVector:
    """Gap vector well inside R_{n-1}: every gap bounded away from zero and
    the weighted sum pinned to `fill`."""
    x = 0.5 + rng.random(n - 1)
    r = x * fill / float(np.arange(1, n) @ x)
    return GapVector(n, r)


def random_density(n: int, seed: int, fill: float = 0.75) -> DensityMatrix:
    """Nondegenerate random state: interior gaps + invariantly sampled frame."""
    from .flags import sample_flag, assemble_density

    rng = np.random.default_rng(seed)
    r = random_interior_gaps(n, rng, fill)
    return assemble_density(r, sample_flag(n, seed + 1))


# --- model / trajectory IO -------------------------------------------------


def model_to_document(model: LindbladModel) -> dict:
    return {
        "n": model.n,
        "H": matrix_to_pairs(model.H),
        "jumps": [matrix_to_pairs(L) for L in model.jumps],
        "rates": list(model.rates),
    }


def model_from_document(doc: dict) -> LindbladModel:
    try:
        n = int(doc["n"])
        H = matrix_from_pairs(doc["H"])
        jumps = tuple(matrix_from_pairs(L) for L in doc["jumps"])
        rates = tuple(float(h) for h in doc["rates"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed model document: {exc}") from exc
    return LindbladModel(n, H, jumps, rates)


def save_model(path, model: LindbladModel) -> None:
    dump_json(path, model_to_document(model))


def load_model(path) -> LindbladModel:
    return model_from_document(load_json(path))


def save_density(path, rho: DensityMatrix) -> None:
    dump_json(path, {"n": rho.n, "rho": matrix_to_pairs(rho.rho)})


def load_density(path) -> DensityMatrix:
    doc = load_json(path)
    try:
        return DensityMatrix(int(doc["n"]), matrix_from_pairs(doc["rho"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed state document: {exc}") from exc


def write_trajectory_csv(path, traj: Trajectory, n: int, header_fields: dict) -> None:
    """Trajectory CSV: provenance header block (# key = value lines) followed
    by columns t, r_1..r_{n-1}, purity_R, trace_error, min_gap."""
    from .geometry import purity_spectrum

    purity = purity_spectrum(1.0 / n + traj.r @ jacobian_matrix(n).T)
    with open(path, "w", newline="") as fh:
        for key, val in header_fields.items():
            fh.write(f"# {key} = {val}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["t"] + [f"r_{a}" for a in range(1, n)] + ["purity_R", "trace_error", "min_gap"]
        )
        diag = traj.diagnostics
        for t, r, pur, err, gap in zip(
            traj.times, traj.r, purity, diag["trace_error"], diag["min_gap"]
        ):
            writer.writerow(
                [f"{t:.12g}"]
                + [f"{x:.15g}" for x in r]
                + [f"{pur:.15g}", f"{err:.3e}", f"{gap:.6e}"]
            )
