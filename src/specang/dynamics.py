"""GKLS open-system evolution in direct and split spectral-angular form.

The direct route integrates the master equation on the density matrix with
fixed-step RK4.  The split route evolves the spectrum p (driven by the
dissipator alone) coupled to an eigenframe rotation U' = Omega U, where the
off-diagonal generator entries in the moving frame carry both Hamiltonian
and dissipative contributions divided by the eigenvalue gaps.  Closed-form
specializations are provided for a qubit with Pauli jump operators and for
the real symmetric qutrit sector in zyz Euler angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np

from .errors import (
    BREAKDOWN_TOL, EIG_TOL, FRAME_DEFECT, GRID_TOL, MATRIX_TOL, POLAR_TOL, TOL,
    DegenerateSpectrumError, NumericalBreakdownError, ValidationError, _finite, _frozen,
    check_angle, check_count, check_gap_floor, check_memory, check_real, checked_array, fits_memory,
)
from .flags import (
    PAULI, DensityMatrix, UnitaryFrame, assemble_density, density_stack,
    eigendecompose_ordered, pair_indices, rotation_factor, sample_flag,
)
from .geometry import purity_spectrum
from .serialize import dump_json, matrix_to_pairs, open_output, read_document
from .spectral import GapVector, gaps_stack, probs_stack

RECORD_CHUNK = 1000  # steps spanned by one stacked record check, so a failing record stops a run
JUMP_FORM_COST = 0.32  # jump form where (k + 2) n^3 < JUMP_FORM_COST n^4, fitted in BENCH_33.json


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian H, jump operators L_k, and non-negative rates h_k."""

    n: int
    H: np.ndarray
    jumps: tuple
    rates: tuple

    def __post_init__(self):
        check_count("dimension", self.n, 2)
        H = checked_array("H", self.H, complex, (self.n, self.n))
        jumps = tuple(checked_array("jump operator", L, complex, (self.n, self.n))
                      for L in self.jumps)
        if not np.linalg.norm(H - H.conj().T) <= MATRIX_TOL:
            raise ValidationError("H must be Hermitian")
        rates = _finite("rates", self.rates, float, (len(jumps),), "finite and non-negative")
        if not np.all(rates >= 0.0):
            raise ValidationError("rates must be finite and non-negative")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "rates", tuple(rates.tolist()))

    @cached_property
    def jump_form(self) -> bool:
        """Whether the kernels apply the jump form: it costs less, or a superoperator won't fit."""
        return len(self.jumps) + 2 < JUMP_FORM_COST * self.n or not fits_memory(self.n**2, self.n)

    @cached_property
    def liouvillian(self) -> np.ndarray:
        """The GKLS generator on row-major vec(rho), built once, read-only."""
        return _liouvillian(self, hamiltonian=True)

    @cached_property
    def dissipator_superoperator(self) -> np.ndarray:
        """The dissipator alone, with no H in it, built once, read-only."""
        return _liouvillian(self, hamiltonian=False)

    @cached_property
    def _jump_pairs(self) -> tuple:
        """Read-only (B, C) of _jump, B = (G | 1 | A_1 | ... | A_k), C = (1, G^dag, A_1^dag, ...),
        A_k = sqrt(h_k) L_k: for G = -K/2 and -iH - K/2, K = sum_k h_k L_k^dag L_k."""
        n, hL = self.n, list(zip(self.rates, self.jumps))
        K = sum((h * (L.conj().T @ L) for h, L in hL), np.zeros_like(self.H))
        A, eye = [math.sqrt(h) * L for h, L in hL], np.eye(n, dtype=complex)
        return tuple((_frozen(np.concatenate((G, eye, *A), axis=1)),
                      _frozen(np.array([eye, G.conj().T, *(a.conj().T for a in A)])))
                     for G in (-0.5 * K, -1j * self.H - 0.5 * K))


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
        check_real("r", self.r)
        if not 0.0 <= self.r <= 1.0 + TOL:
            raise ValidationError("qubit radius must lie in [0, 1]")
        check_angle("theta", self.theta, full_turn=False)
        check_angle("phi", self.phi, full_turn=True)


@dataclass(frozen=True)
class QutritEuler:
    """Real qutrit coordinates: gaps (r1, r2) and zyz Euler angles."""

    r1: float
    r2: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("r1", "r2", "beta"):
            check_real(name, getattr(self, name))
        GapVector(3, np.array([self.r1, self.r2]))
        if not 0.0 < self.beta < math.pi:
            raise ValidationError("beta must lie in (0, pi)")
        check_angle("alpha", self.alpha, full_turn=True)
        check_angle("gamma", self.gamma, full_turn=True)


@dataclass
class Trajectory:
    """Recorded run as stacked columns over T records: times (T,), gaps
    r (T, n-1), density matrices rho (T, n, n), per-record diagnostics
    (arrays of length T), the split-chart breakdown time, if any, and the direct
    route's step, "matrix", "superoperator" or "jump", if the run took it."""

    times: np.ndarray
    r: np.ndarray
    rho: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    breakdown_time: float | None = None
    direct_step: str | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if not np.all(np.diff(self.times) > 0.0):
            raise ValidationError("trajectory times must be strictly increasing")


def _jump(BC, X, out=None):
    """G X + X G^dag + sum_k A_k X A_k^dag on one matrix or a stack (..., n, n) in jump form
    (Lindblad 1976): B times the stack X C as rows, for the pair (B, C) of _jump_pairs."""
    B, C = BC
    return np.matmul(B, (X[..., None, :, :] @ C).reshape(*X.shape[:-2], -1, X.shape[-1]), out=out)


def _liouvillian(model: LindbladModel, hamiltonian: bool) -> np.ndarray:
    """The read-only n^2 x n^2 superoperator of X -> sum_j B_j X C_j on row-major
    vec(X), for the k + 2 pairs of _jump_pairs, after check_memory has passed it.

    With vec(B X C) = (B kron C^T) vec(X) (Havel 2003) it is sum_j B_j kron C_j^T:
    its (i, c, a, b) block view is sum_j B_j[i, a] C_j[b, c], one matmul over the
    (i, c) grid written into the result, so no n^4 temporary exists.  That costs
    (k + 2) n^4 multiply-adds, where the identity terms need only n^3.
    """
    n, (B, C) = model.n, model._jump_pairs[hamiltonian]
    check_memory(n * n, n)
    out = np.empty((n * n, n * n), dtype=complex)
    np.matmul(B.reshape(n, -1, n).swapaxes(1, 2)[:, None], C.transpose(2, 0, 1), out=out.reshape((n,) * 4))
    return _frozen(out)


def _matvec(hamiltonian, rho, model):
    """The generator (or dissipator alone) on one matrix or a stack (..., n, n), in rho's shape."""
    rho, n = _finite("rho", getattr(rho, "rho", rho), complex, (...,), "finite"), model.n
    if rho.shape[-2:] != (n, n):
        raise ValidationError("state and model dimensions disagree")
    if model.jump_form:
        return _jump(model._jump_pairs[hamiltonian], rho)
    superop = model.liouvillian if hamiltonian else model.dissipator_superoperator
    return (rho.reshape(*rho.shape[:-2], n * n) @ superop.T).reshape(rho.shape)


def dissipator(rho, model: LindbladModel) -> np.ndarray:
    """Dissipative part sum_k h_k (L rho L^dag - {rho, L^dag L}/2), on one
    matrix or a stack (..., n, n)."""
    return _matvec(False, rho, model)


def lindblad_rhs(rho, model: LindbladModel) -> np.ndarray:
    """Full generator -i[H, rho] + dissipator, on one matrix or a stack."""
    return _matvec(True, rho, model)


def _step_count(t_end, dt, record_every, n):
    """Number of RK4 steps of a run, after checking its parameters and its records' memory."""
    check_real("t_end", t_end)
    check_real("dt", dt)
    if not (0.0 < dt and 0.0 < t_end):
        raise ValidationError("t_end and dt must be positive and finite")
    if not dt <= t_end:
        raise ValidationError(f"dt = {dt:g} exceeds t_end = {t_end:g}")
    ratio = t_end / dt
    if not ratio < math.inf:
        raise ValidationError(f"t_end / dt = {t_end:g} / {dt:g} overflows the step count")
    if abs(ratio - round(ratio)) > GRID_TOL * ratio:  # a run ends at t_end, not near it
        raise ValidationError(
            f"t_end = {t_end:g} is not a multiple of dt = {dt:g}; the nearest grid ends are "
            f"{math.floor(ratio) * dt:g} and {math.ceil(ratio) * dt:g}")
    check_count("record_every", record_every, 1)
    check_memory(-(-round(ratio) // record_every) + 1, n)  # steps 0, record_every, ..., the last
    return round(ratio)


def integrate_direct(
    rho0: DensityMatrix, model: LindbladModel, t_end: float, dt: float, record_every: int = 1
) -> Trajectory:
    """Fixed-step RK4 on the density matrix itself.

    The generator is linear, so one RK4 step is the polynomial
    sum_{k<=4} (dt L)^k / k! in the Liouvillian L: on n^2 or more steps in the superoperator
    form, rho + E rho with E = sum_{1<=k<=4} (dt L)^k / k! built once, else in Horner form,
    four applications of L in the model's form.  The state is re-Hermitized and
    trace-renormalized after each step; the pre-renormalization drift and
    the spectral diagnostics are recorded.  Aborts with
    NumericalBreakdownError at the step where the trace drift exceeds
    BREAKDOWN_TOL, and at a record where an eigenvalue drops below -EIG_TOL.
    """
    return _run(rho0, model, t_end, dt, record_every, split=False)


@cache
def stage_constants(n: int):
    """(1, off, -i off) of the split stage at dimension n: the identity, the
    off-diagonal mask 1 - delta_ij and -i times it.  Built once per n, read-only."""
    off = 1.0 - np.eye(n)
    return _frozen(1.0 - off), _frozen(off), _frozen(-1j * off)


def _split_stage(V, p, model, checked=True):
    """The split flow (V Omega_tilde, p_dot) at frame V and spectrum p.

    The stage takes the differences P = p_i - p_j once: their first superdiagonal is the
    gaps p_a - p_{a+1}, whose floor it checks if `checked`, and P + 1 is the divisor
    p_i - p_j + delta_ij.  It forms D(rho), the model's dissipator in its form, at
    rho = V diag(p) V^dag, and rotates H and D into the frame, Ht = V^dag H V and
    Lt = V^dag D V, every 2-D product a plain dot.  V need not be unitary: RK4 stages sit
    at U + O(dt).  p_dot is diag Lt less its mean, so sum(p) stays 1 to round-off and H
    enters only through Ht, not p_dot; Omega_tilde = V^dag dV/dt, zero on the diagonal
    (torus gauge), is Ht o (-i off) - Lt o (off / (P + 1)).
    """
    n = len(V)
    eye, off, neg_i_off = stage_constants(n)
    P = p[:, None] - p
    if checked:
        check_gap_floor(P.diagonal(1), BREAKDOWN_TOL, "angular chart")
    Vh = V.conj().T  # one conjugate for rho = density_stack(p, V) and for the rotation
    rho = (V * p).dot(Vh)
    if model.jump_form:
        D = _jump(model._jump_pairs[0], rho)
    else:
        D = model.dissipator_superoperator.dot(rho.ravel()).reshape(n, n)
    Omega_t = Vh.dot(model.H).dot(V) * neg_i_off
    Lt = Vh.dot(D).dot(V)
    Omega_t -= Lt * (off / (P + eye))
    d = Lt.diagonal().real
    return V.dot(Omega_t), d - np.add.reduce(d) / n


def split_rhs(state: SplitState, model: LindbladModel):
    """Split right-hand side: gap rates and the frame generator Omega.

    r evolves under the dissipator alone (adjacent differences of the
    diagonal dissipator entries in the eigenbasis); Omega = dU/dt U^dag is
    returned in the fixed basis, anti-Hermitian, with the torus gauge pinned
    by a zero diagonal in the moving frame.
    """
    if model.n != state.r.n:
        raise ValidationError("state and model dimensions disagree")
    U = state.U.U
    U_Omega, p_dot = _split_stage(U, probs_stack(state.r.r), model)
    return gaps_stack(p_dot), U_Omega @ U.conj().T


def _frobenius(F):
    """||F||_F by np.linalg.norm's own two dot products, bit for bit, without its checks."""
    f = F.ravel()
    return math.sqrt(f.real.dot(f.real) + f.imag.dot(f.imag))


def polar_special(U):
    """(Q, e): the unitary polar factor Q of U, with U's determinant phase (a gauge
    no split record sees), and the defect e = ||U^dag U - 1||_F.  Newton-Schulz
    X <- X (1 - F/2), F = X^dag X - 1, maps a defect e < 1 to 3/4 e^2 + O(e^3),
    whose trace, and so det X - 1, is of that size too; the update from
    e <= sqrt(POLAR_TOL) is the last.  Every U gets at least one update: a
    defect at or below POLAR_TOL can carry a trace up to sqrt(n) times larger,
    a determinant error past round-off.  A defect of FRAME_DEFECT or more (or
    NaN), far outside any step that keeps to the chart, raises
    DegenerateSpectrumError: U has left U(n)."""
    eye = stage_constants(len(U))[0]
    F = U.conj().T.dot(U) - eye
    defect = err = _frobenius(F)
    if not defect < FRAME_DEFECT:
        raise DegenerateSpectrumError(f"frame defect {defect:.3e} not below {FRAME_DEFECT}")
    while True:
        U = U - 0.5 * U.dot(F)
        if not err * err > POLAR_TOL:
            return U, defect
        F = U.conj().T.dot(U) - eye
        err = _frobenius(F)


def integrate_split(
    rho0: DensityMatrix,
    model: LindbladModel,
    t_end: float,
    dt: float,
    record_every: int = 1,
    fallback_direct: bool = False,
) -> Trajectory:
    """Fixed-step RK4 on the coupled system (p' = diagonal of the rotated
    dissipator less its mean, U' = U Omega_tilde); after every step polar_special
    takes U back to U(n), and its defect before that is the frame_defect record.

    On a state with a gap below BREAKDOWN_TOL or a step that leaves the chart,
    the integration stops at the breakdown time, that of the last accepted state;
    if `fallback_direct` is set, the direct route continues from that state on
    the run's own record grid and carries the breakdown time.
    """
    return _run(rho0, model, t_end, dt, record_every, split=True, fallback_direct=fallback_direct)


def _split_step(state, t, model, dt, operand):
    """One RK4 step of the split state (p, U, frame defect) under _split_stage (the run has
    checked (p, U), so stage 1 does not), then polar_special, whose defect is the new one.
    The sums K1 + 2 K2 + 2 K3 + K4 and k1 + ... accumulate in place in K1, k1.  A step
    leaving the chart (gap floor, FRAME_DEFECT, R_{n-1}) raises DegenerateSpectrumError.
    t and operand go unread: the run calls both routes' steps alike."""
    p, U, _ = state
    K, k = S, s = _split_stage(U, p, model, checked=False)
    for c in (0.5, 0.5, 1.0):
        K, k = _split_stage(U + c * dt * K, p + c * dt * k, model)
        S += K + K if c < 1.0 else K  # weights 2, 2, 1; K + K is 2 K exactly
        s += k + k if c < 1.0 else k
    U, defect = polar_special(U + dt / 6.0 * S)
    p = p + dt / 6.0 * s
    if not p[-1] >= -TOL / len(p):  # R_{n-1}'s sum_a a r_a <= 1 + TOL, read on p
        raise DegenerateSpectrumError(f"min eigenvalue {p[-1]:.3e} below -TOL/n; left R_{{n-1}}")
    return p, U, defect


def _direct_step(state, t, model, dt, A, horner=(0.25, 1.0 / 3.0, 0.5, 1.0)):
    """One RK4 step by Horner on A of the direct state (rho, trace drift) to t, as integrate_direct says."""
    rho, jump = state[0], model.jump_form
    x = v = rho if jump else rho.ravel()
    for c in horner:
        x = v + (c * dt) * _jump(A, x) if jump else v + c * A.dot(x)
    rho = x.reshape(rho.shape)
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(rho.trace().real)
    drift = abs(tr - 1.0)
    if not drift <= BREAKDOWN_TOL:
        raise NumericalBreakdownError(
            f"trace drift {drift:.3e} exceeds {BREAKDOWN_TOL:.0e} at t={t:.6g}")
    return rho / tr, drift


_matrix_step = partial(_direct_step, horner=(1.0,))  # rho + E rho, for the E of _start


def _start(split, rho, model, dt, steps):
    """(step, operand, record reader, first state) of the split route, or else the direct one,
    from rho for `steps` steps: no operand (None) on the split route, L's jump pairs,
    A = dt L or, if steps >= n^2 and L, A, E and two temporaries fit, E = sum_{k=1..4} A^k/k!."""
    if split:
        r_vec, frame = eigendecompose_ordered(rho)
        state = probs_stack(r_vec.r), frame.U, 0.0  # read-only U: no step writes it
        return _split_step, None, _split_records, state
    A = model._jump_pairs[1] if model.jump_form else dt * model.liouvillian
    step, n, E = _direct_step, model.n, A
    if not model.jump_form and steps >= n * n and fits_memory(5 * n * n, n):
        step = _matrix_step
        for c in (4.0, 3.0, 2.0):  # E = A (1 + A/2 (1 + A/3 (1 + A/4))), 3 n^6 multiply-adds
            E = A + A @ E / c
    return step, E, _direct_records, (np.asarray(getattr(rho, "rho", rho), dtype=complex), 0.0)


def _split_records(records):
    """Columns (t, r, rho, trace drift |sum p - 1|, min eigenvalue, frame defect) of raw
    split records (t, p, U, defect), unchecked: every p passed the gap floor and
    p_n >= -TOL/n at its step, and U is the validated frame or a polar_special factor."""
    t, P, Us, defects = map(np.array, zip(*records))
    return t, gaps_stack(P), density_stack(P, Us), abs(P.sum(axis=-1) - 1.0), P[:, -1], defects


def _direct_records(records):
    """The same columns of raw direct records (t, rho, drift), frame defect
    NaN, from one eigvalsh.  The earliest record with an eigenvalue below
    -EIG_TOL raises NumericalBreakdownError; Hermiticity and unit trace hold
    by each step's 0.5 (rho + rho^dag) and rho / tr."""
    t, rhos, drifts = map(np.array, zip(*records))
    w = np.linalg.eigvalsh(rhos)
    low = np.flatnonzero(~(w[:, 0] >= -EIG_TOL))
    if low.size:
        k = low[0]
        raise NumericalBreakdownError(
            f"positivity violated at t={t[k]:.6g}: min eigenvalue {w[k, 0]:.3e}")
    return t, gaps_stack(w[:, ::-1]), rhos, drifts, w[:, 0], np.full(len(t), np.nan)


def _run(rho0, model, t_end, dt, record_every, split, fallback_direct=False):
    """The step loop of both integrators, over the route that _start gives.

    It starts on the split route if `split` is set and on the direct route
    otherwise, and records (t, *state) at step 0, at every step with
    step % record_every == 0 and at the last, at time step * dt.  A split
    breakdown (integrate_split's; a rho0 with no eigenframe breaks down at t = 0)
    raises unless `fallback_direct` is set.  Then the live state (rho0 itself at
    step 0, U diag(p) U^dag after it) passes the direct record floor and starts
    the direct route.  Records are read as a stack once they span RECORD_CHUNK
    steps and at every exit (the end, an exception, the hand-over); the earliest
    failing direct record raises ahead of a later step's exception.
    """
    steps = _step_count(t_end, dt, record_every, model.n)
    if rho0.n != model.n:
        raise ValidationError("state and model dimensions disagree")
    t_break, raw, blocks, live = None, [], [], 0  # raw records of the live route, columns, live step
    try:
        for step in range(steps + 1):
            try:
                if step:
                    state = advance(state, step * dt, model, dt, operand)
                else:
                    advance, operand, read, state = _start(split, rho0, model, dt, steps)
                live = step
                if split:
                    check_gap_floor(gaps_stack(state[0]), BREAKDOWN_TOL, "angular chart")
            except DegenerateSpectrumError as exc:
                t_break = live * dt
                if not fallback_direct:
                    raise DegenerateSpectrumError(
                        f"split integration broke down at t={t_break:.6g}: {exc}"
                    ) from exc
                pending, raw, split = raw, [], False
                if pending:
                    blocks.append(read(pending))
                rho = density_stack(*state[:2]) if live else rho0.rho  # at step 0, rho0 itself
                _direct_records([(t_break, rho, 0.0)])  # the hand-over state, as a record
                advance, operand, read, state = _start(False, rho, model, dt, steps - live)
            if live < step:  # the step the split route did not take
                state = advance(state, step * dt, model, dt, operand)
            if step % record_every == 0 or step == steps:
                raw.append((step * dt, *state))
                if len(raw) * record_every >= RECORD_CHUNK:
                    pending, raw = raw, []
                    blocks.append(read(pending))
    finally:
        if raw:
            blocks.append(read(raw))

    times, gaps, rhos, errors, mins, defects = map(np.concatenate, zip(*blocks))
    diag = {"trace_error": errors, "min_eig": mins, "min_gap": gaps.min(axis=1),
            "frame_defect": defects}
    direct = None if split else (
        "matrix" if advance is _matrix_step else "jump" if model.jump_form else "superoperator")
    return Trajectory(times, gaps, rhos, diag, t_break, direct)


def qubit_rhs(state: QubitAngles, model: LindbladModel):
    """Closed-form qubit rates (phi_dot, theta_dot, r_dot) for Pauli jumps
    with rates (h1, h2, h3) and a general Hamiltonian."""
    if model.n != 2 or len(model.jumps) != 3:
        raise ValidationError("qubit closed form needs n=2 with jumps sigma_1..3")
    for L, sigma in zip(model.jumps, PAULI):
        if not np.linalg.norm(L - sigma) <= TOL:
            raise ValidationError("qubit closed form needs Pauli jump operators")
    if not state.r > 0.0:
        raise NumericalBreakdownError("qubit chart needs r > 0")
    st = math.sin(state.theta)
    if not abs(st) >= BREAKDOWN_TOL:
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
    return rotation_factor(2, 1, 2, theta, phi).U


def so3_euler(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """zyz Euler rotation R_z(alpha) R_y(beta) R_z(gamma)."""
    for name, angle in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        check_real(name, angle)

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
    A = _finite("A", A, float, (3, 3), "finite")
    if not np.linalg.norm(A + A.T) <= TOL:
        raise ValidationError("A must be real antisymmetric 3 x 3")
    r1, r2 = state.r1, state.r2
    check_gap_floor((r1, r2), BREAKDOWN_TOL, "Euler chart")
    sb = math.sin(state.beta)
    if not abs(sb) >= BREAKDOWN_TOL:
        raise NumericalBreakdownError("Euler chart singular at beta in {0, pi}")

    p = probs_stack(np.array([r1, r2]))
    U = so3_euler(state.alpha, state.beta, state.gamma)
    rho = density_stack(p, U)
    L = np.asarray(diss(rho), dtype=complex)
    if not np.max(np.linalg.norm([L.imag, L.real - L.real.T], axis=(1, 2))) <= EIG_TOL:
        raise ValidationError("dissipator must preserve real symmetric matrices")
    Lt = U.T @ L.real @ U
    r1_dot, r2_dot = gaps_stack(Lt.diagonal())

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
    check_real("tolerance", tolerance)
    check_count("num_r_samples", num_r_samples, 2)
    check_count("seed", seed, 0)
    if model.n != state.r.n:
        raise ValidationError("state and model dimensions disagree")
    n = model.n
    U = state.U.U
    rng = np.random.default_rng(seed)
    r = [random_interior_gaps(n, rng, 0.3 + 0.6 * rng.random()).r for _ in range(num_r_samples)]
    p = probs_stack(np.array(r))
    Lt = U.conj().T @ dissipator(density_stack(p, U), model) @ U

    pairs = pair_indices(n)
    i, j = np.array(pairs).T - 1
    vals = Lt[:, i, j] / (p[:, i] - p[:, j])
    spread = np.max(np.abs(vals - np.mean(vals, axis=0)), axis=0)
    residuals = dict(zip(pairs, spread.tolist()))
    return max(residuals.values()) <= tolerance, residuals


# --- random model and state generation (seeded) ---------------------------


def random_model(n: int, seed: int, jump_scale: float = 0.3) -> LindbladModel:
    """Gaussian Hermitian H, two Gaussian complex jump operators, unit rates."""
    check_count("dimension", n, 2)
    check_count("seed", seed, 0)
    check_real("jump_scale", jump_scale)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    jumps = tuple(
        jump_scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for _ in range(2)
    )
    return LindbladModel(n, 0.5 * (A + A.conj().T), jumps, (1.0, 1.0))


def random_interior_gaps(n: int, rng, fill: float = 0.75) -> GapVector:
    """Gap vector well inside R_{n-1}: every gap bounded away from zero and
    the weighted sum pinned to `fill`."""
    check_count("dimension", n, 2)
    check_real("fill", fill)
    x = 0.5 + rng.random(n - 1)
    r = x * fill / float(np.arange(1, n) @ x)
    return GapVector(n, r)


def random_density(n: int, seed: int, fill: float = 0.75) -> DensityMatrix:
    """Nondegenerate random state: interior gaps + invariantly sampled frame."""
    check_count("seed", seed, 0)
    frame = sample_flag(n, seed + 1)  # first: it checks n
    r = random_interior_gaps(n, np.random.default_rng(seed), fill)
    return assemble_density(r, frame)


# --- model / trajectory IO -------------------------------------------------


def save_model(path, model: LindbladModel) -> None:
    dump_json(path, {
        "n": model.n,
        "H": matrix_to_pairs(model.H),
        "jumps": matrix_to_pairs(model.jumps),
        "rates": list(model.rates),
    })


def load_model(path) -> LindbladModel:
    fields = read_document(path, "model", H="matrix", jumps="matrices", rates="rates")
    return LindbladModel(**fields)


def save_density(path, rho: DensityMatrix) -> None:
    dump_json(path, {"n": rho.n, "rho": matrix_to_pairs(rho.rho)})


def load_density(path) -> DensityMatrix:
    return DensityMatrix(**read_document(path, "state", rho="matrix"))


def write_trajectory_csv(path, traj: Trajectory, header_fields: dict) -> None:
    """Trajectory CSV: provenance header block (# key = value lines) followed
    by columns t, r_1..r_{n-1}, purity_R, trace_error, min_gap, in rows that
    end in \\r\\n as in the csv module's excel dialect."""
    n = traj.r.shape[1] + 1
    diag = traj.diagnostics
    purity = purity_spectrum(probs_stack(traj.r))
    table = np.column_stack((traj.times, traj.r, purity, diag["trace_error"], diag["min_gap"]))
    row = "%.12g," + "%.15g," * n + "%.3e,%.6e\r\n"
    names = ["t"] + [f"r_{a}" for a in range(1, n)] + ["purity_R", "trace_error", "min_gap"]
    with open_output(path, "w", newline="") as fh:
        for key, val in header_fields.items():
            fh.write(f"# {key} = {val}\n")
        fh.write(",".join(names) + "\r\n")
        fh.writelines(row % tuple(values) for values in table.tolist())
