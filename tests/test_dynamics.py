"""GKLS integration: direct vs split, closed forms, factorization, IO."""

import csv
import itertools
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specang.dynamics as dynamics
import specang.errors as errors
from specang import (
    PAULI,
    DegenerateSpectrumError,
    DensityMatrix,
    GapVector,
    LindbladModel,
    NumericalBreakdownError,
    QubitAngles,
    QutritEuler,
    SplitState,
    Trajectory,
    UnitaryFrame,
    ValidationError,
    assemble_density,
    dissipator,
    eigendecompose_ordered,
    integrate_direct,
    integrate_split,
    lindblad_rhs,
    load_density,
    load_model,
    qubit_rhs,
    real_qutrit_rhs,
    sample_flag,
    save_density,
    save_model,
    secular_factorization_test,
    split_rhs,
    write_trajectory_csv,
)
from specang.dynamics import (
    JUMP_FORM_COST,
    euler_omega,
    polar_special,
    random_density,
    random_interior_gaps,
    random_model,
    so3_euler,
    stage_constants,
)
from specang.errors import FRAME_DEFECT, MEMORY_LIMIT
from specang.flags import density_stack
from specang.geometry import purity_spectrum
from specang.spectral import gaps_stack, jacobian_matrix, probs_stack
from conftest import qubit_split_rates


def pauli_model(h1, h2, h3, H=None):
    if H is None:
        H = np.zeros((2, 2), dtype=complex)
    return LindbladModel(2, H, PAULI, (h1, h2, h3))


def split_point(n, seed, fill=0.75):
    rho = random_density(n, seed, fill)
    r, frame = eigendecompose_ordered(rho)
    return rho, SplitState(r, frame, 0.0)


# --- model validation ---------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValidationError):
        LindbladModel(2, np.array([[0.0, 1.0], [0.0, 0.0]]), (), ())  # H not Hermitian
    with pytest.raises(ValidationError):
        LindbladModel(2, np.zeros((2, 2)), (PAULI[0],), (-1.0,))  # negative rate
    with pytest.raises(ValidationError):
        LindbladModel(2, np.zeros((2, 2)), (PAULI[0],), (1.0, 2.0))  # count mismatch
    with pytest.raises(ValidationError, match="^dimension must be an integer >= 2, got 1$"):
        LindbladModel(1, [[0.5]], ([[1.0]],), (1.0,))  # one level: no gap, no frame


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: random_model(1.5, 0), "dimension must be an integer >= 2, got 1.5"),
        (lambda: random_model(2, -1), "seed must be an integer >= 0, got -1"),
        (lambda: random_density(1, 0), "dimension must be an integer >= 2, got 1"),
        (lambda: random_density(2, -1), "seed must be an integer >= 0, got -1"),
        (lambda: random_interior_gaps(1.5, np.random.default_rng(0)),
         "dimension must be an integer >= 2, got 1.5"),
    ],
    ids=["model-dimension", "model-seed", "density-dimension", "density-seed", "gaps-dimension"],
)
def test_random_generators_check_n_and_seed_before_drawing(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_generator_structure(rng):
    model = random_model(3, seed=1)
    rho = random_density(3, seed=2).rho
    d = dissipator(rho, model)
    full = lindblad_rhs(rho, model)
    for mat in (d, full):
        assert abs(np.trace(mat)) < 1e-12
        assert np.linalg.norm(mat - mat.conj().T) < 1e-12


def matrix_form_rhs(rho, model, hamiltonian=True):
    """Reference GKLS generator in matrix form on a stack (..., n, n):
    -i[H, rho] (if `hamiltonian`) + sum_k h_k (L rho L^dag - {L^dag L, rho}/2)."""
    rho = np.asarray(rho, dtype=complex)
    out = -1j * (model.H @ rho - rho @ model.H) if hamiltonian else np.zeros_like(rho)
    for h, L in zip(model.rates, model.jumps):
        LdL = L.conj().T @ L
        out = out + h * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
    return out


def reference_models(n, scale=1.0):
    """A random model, one with a zero rate and one with no jumps, sharing H."""
    rng = np.random.default_rng(n)
    H = random_model(n, seed=n).H
    L = [scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
         for _ in range(3)]
    return (
        random_model(n, seed=20 + n),
        LindbladModel(n, H, tuple(L), (0.7, 0.0, 1.3)),  # one zero rate
        LindbladModel(n, H, (), ()),  # no jumps: -i[H, rho] alone
    )


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_superoperator_matvecs_match_the_matrix_form(n):
    rhos = np.stack([random_density(n, seed=s).rho for s in range(6)]).reshape(2, 3, n, n)
    for model in reference_models(n):
        for rhs, hamiltonian in ((lindblad_rhs, True), (dissipator, False)):
            got, expect = rhs(rhos, model), matrix_form_rhs(rhos, model, hamiltonian)
            assert got.shape == rhos.shape
            assert np.max(np.abs(got - expect)) <= 1e-14 * max(1.0, np.max(np.abs(expect)))
    with pytest.raises(ValidationError, match="dimensions disagree"):
        lindblad_rhs(rhos[..., :-1], model)


def test_superoperators_are_cached_read_only():
    model = random_model(3, seed=2)
    for name in ("liouvillian", "dissipator_superoperator"):
        S = getattr(model, name)
        assert S is getattr(model, name)
        assert S.shape == (9, 9) and not S.flags.writeable
    L = model.liouvillian.copy()
    integrate_direct(random_density(3, seed=3), model, 0.01, 1e-3)
    assert np.array_equal(model.liouvillian, L)  # the run scales a copy
    # the dissipator superoperator holds no H
    other = LindbladModel(3, random_model(3, seed=4).H, model.jumps, model.rates)
    assert np.array_equal(other.dissipator_superoperator, model.dissipator_superoperator)
    assert not np.array_equal(other.liouvillian, model.liouvillian)
    # both are the Kronecker sums, in either form, to round-off of their largest entry
    for n in range(2, 13):
        for k in range(6):
            model = jump_model(n, k)
            for name, hamiltonian in (("liouvillian", True), ("dissipator_superoperator", False)):
                S, expect = getattr(model, name), kron_superoperator(model, hamiltonian)
                assert np.max(np.abs(S - expect)) <= 1e-15 * np.max(np.abs(expect))


# --- the generator's form -------------------------------------------------------


def jump_model(n, k):
    """random_model(n)'s H with k Gaussian jump operators at rates in [0.5, 1.5)."""
    rng = np.random.default_rng([n, k])
    jumps = tuple(0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                  for _ in range(k))
    return LindbladModel(n, random_model(n, seed=n).H, jumps, tuple(0.5 + rng.random(k)))


def kron_superoperator(model, hamiltonian=True):
    """The generator (or the dissipator alone) on row-major vec(rho), from Kronecker
    products: G (x) 1 + 1 (x) conj(G) + sum_k h_k L_k (x) conj(L_k), G = -iH - K/2 or -K/2."""
    n, eye = model.n, np.eye(model.n)
    K = sum((h * L.conj().T @ L for h, L in zip(model.rates, model.jumps)), np.zeros((n, n)))
    G = (-1j * model.H if hamiltonian else 0.0) - 0.5 * K
    S = np.kron(G, eye) + np.kron(eye, G.conj())
    for h, L in zip(model.rates, model.jumps):
        S += h * np.kron(L, L.conj())
    return S


def relative_error(got, expect):
    return np.max(np.abs(got - expect)) / max(np.max(np.abs(expect)), 1e-300)


def kron_rk4_direct(rho0, S, dt, steps):
    """The records of `steps` direct RK4 steps on the superoperator S, four stages a
    step, each re-Hermitized and renormalized as the direct route does."""
    n, rho, expect = len(rho0), rho0.astype(complex), [rho0]
    for _ in range(steps):
        k1 = S @ rho.ravel()
        k2 = S @ (rho.ravel() + 0.5 * dt * k1)
        k3 = S @ (rho.ravel() + 0.5 * dt * k2)
        k4 = S @ (rho.ravel() + dt * k3)
        rho = rho + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4).reshape(n, n)
        rho = 0.5 * (rho + rho.conj().T)
        expect.append(rho / np.trace(rho).real)
        rho = expect[-1]
    return np.array(expect)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 12, 13, 16, 22, 32, 90])
def test_the_generator_form_follows_its_cost_rule(n):
    # jump form where (k + 2) n^3 < JUMP_FORM_COST n^4; up to n = 90 a superoperator fits
    for k in range(6):
        assert jump_model(n, k).jump_form == (k + 2 < JUMP_FORM_COST * n)


def test_benchmark_and_criterion_models_keep_the_superoperator():
    # every random_model of evolve_long (n <= 8, two jumps) and of criteria 09 and 12
    # (n <= 4), the Pauli qubit of criterion 10 and the two-jump qutrit of criterion 11
    for n in (2, 3, 4, 8):
        for seed in range(3):
            assert not random_model(n, seed=seed).jump_form
    assert not pauli_model(1.0, 1.0, 1.0).jump_form
    assert not jump_model(3, 2).jump_form
    assert random_model(16, seed=0).jump_form  # evolve_dense's n = 16 op


@pytest.mark.parametrize("n", [2, 3, 8, 12, 16, 24, 32])
def test_both_forms_match_the_matrix_form_per_stage(n):
    # lindblad_rhs, dissipator and split_rhs in the form each (n, k) picks, against
    # the matrix form and the Kronecker superoperator built here
    rhos = np.stack([random_density(n, seed=s).rho for s in range(3)])
    rho, state = split_point(n, 7)
    U, p = state.U.U, probs_stack(state.r.r)
    eye, off = np.eye(n), 1.0 - np.eye(n)
    for k in range(6):
        model = jump_model(n, k)
        for rhs, hamiltonian in ((lindblad_rhs, True), (dissipator, False)):
            expect = matrix_form_rhs(rhos, model, hamiltonian)
            assert relative_error(rhs(rhos, model), expect) <= 1e-12
            S = kron_superoperator(model, hamiltonian)
            assert relative_error(rhs(rhos, model), (rhos.reshape(3, n * n) @ S.T).reshape(
                rhos.shape)) <= 1e-12
        # the split stage: D(rho) from the Kronecker superoperator, rotated into the frame
        D = (kron_superoperator(model, False) @ rho.rho.ravel()).reshape(n, n)
        Ht, Lt = U.conj().T @ model.H @ U, U.conj().T @ D @ U
        Omega_t = -1j * Ht * off - Lt * off / (p[:, None] - p + eye)
        d = Lt.diagonal().real
        r_dot, Omega = split_rhs(state, model)
        assert relative_error(Omega, U @ Omega_t @ U.conj().T) <= 1e-12
        assert np.max(np.abs(probs_stack(r_dot) - 1.0 / n - (d - d.mean()))) <= (
            1e-12 * np.max(np.abs(d)))


@pytest.mark.parametrize("n", [2, 3, 8, 12, 16, 32])
def test_both_forms_match_a_superoperator_rk4_per_step(n):
    # two steps of each route in the form each (n, k) picks, against RK4 on the
    # Kronecker superoperators built here, with the routes' own corrections; on the
    # direct route the increments rho(t) - rho0 are compared, so an error of dt / 1e9
    # shows (a split record, assembled from (U, p), carries round-off of rho itself)
    dt, steps = 1e-4, 2
    rho0 = random_density(n, seed=40 + n)
    r0, frame = eigendecompose_ordered(rho0)
    eye, off = np.eye(n), 1.0 - np.eye(n)
    for k in range(6):
        model = jump_model(n, k)
        S, SD = kron_superoperator(model), kron_superoperator(model, False)
        expect = kron_rk4_direct(rho0.rho, S, dt, steps)
        traj = integrate_direct(rho0, model, steps * dt, dt)
        assert relative_error(traj.rho - rho0.rho, expect - rho0.rho) <= 1e-12

        def stage(V, p):
            D = (SD @ ((V * p) @ V.conj().T).ravel()).reshape(n, n)
            Ht, Lt = V.conj().T @ model.H @ V, V.conj().T @ D @ V
            d = Lt.diagonal().real
            return V @ (-1j * Ht * off - Lt * off / (p[:, None] - p + eye)), d - d.mean()

        U, p = frame.U, probs_stack(r0.r)
        expect = [rho0.rho]
        for _ in range(steps):
            k1 = stage(U, p)
            k2 = stage(U + 0.5 * dt * k1[0], p + 0.5 * dt * k1[1])
            k3 = stage(U + 0.5 * dt * k2[0], p + 0.5 * dt * k2[1])
            k4 = stage(U + dt * k3[0], p + dt * k3[1])
            U, p = (y + dt / 6.0 * (a + 2.0 * b + 2.0 * c + e)
                    for y, a, b, c, e in zip((U, p), k1, k2, k3, k4))
            U = svd_polar_special(U)
            expect.append((U * p) @ U.conj().T)
        traj = integrate_split(rho0, model, steps * dt, dt)
        assert relative_error(traj.rho, np.array(expect)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 8, 12])
def test_the_matrix_step_matches_a_superoperator_rk4_per_step(n):
    # direct runs of n^2 steps, so the superoperator form steps as rho + E rho with the
    # increment matrix E, against the Kronecker RK4 on each record's increment rho(t) - rho0:
    # applied as (1 + E) rho, the step loses about 4 digits of its increment and fails this
    # bound at every n (1.0e-12 to 4.9e-12 for some k), where rho + E rho stays below 5e-14
    dt, steps = 1e-4, n * n
    rho0 = random_density(n, seed=40 + n)
    for k in range(6):
        model = jump_model(n, k)
        traj = integrate_direct(rho0, model, steps * dt, dt)
        assert traj.direct_step == ("jump" if model.jump_form else "matrix")
        expect = kron_rk4_direct(rho0.rho, kron_superoperator(model), dt, steps)
        for got, want in zip(traj.rho[1:] - rho0.rho, expect[1:] - rho0.rho):
            assert relative_error(got, want) <= 1e-12


def test_each_run_shape_takes_its_direct_step(monkeypatch):
    # the increment matrix from n^2 steps left on, in the superoperator form and within
    # the memory limit; Horner on dt L below that, and on the jump pairs in the jump form
    def step_of(run, n, model, t_end, *args):
        return run(random_density(n, seed=1), model, t_end, 1e-3, *args).direct_step

    for n in (2, 3, 4, 8):  # evolve_long's shapes: 200 steps, n^2 <= 64
        model = random_model(n, seed=0)
        assert step_of(integrate_direct, n, model, 0.2) == "matrix"
        assert step_of(integrate_split, n, model, 0.2) is None  # never fell back
    assert step_of(integrate_direct, 8, random_model(8, seed=0), 0.05) == "superoperator"
    assert step_of(integrate_direct, 8, random_model(8, seed=0), 0.064) == "matrix"
    assert step_of(integrate_direct, 16, jump_model(16, 2), 0.2) == "jump"
    # the amplitude-damped qubit hands over at t = 0.336: 3 steps left take Horner, 4 E
    model, rho0 = _amplitude_damped_qubit()
    for t_end, step in ((0.339, "superoperator"), (0.34, "matrix")):
        traj = integrate_split(rho0, model, t_end, 1e-3, 1000, fallback_direct=True)
        assert traj.breakdown_time == pytest.approx(0.336) and traj.direct_step == step
    # the build holds L, dt L, E and two temporaries: at n = 8, 5 x 64 kB
    model = random_model(8, seed=0)
    for limit, step in ((5 * 2**16 - 1, "superoperator"), (5 * 2**16, "matrix")):
        monkeypatch.setattr(errors, "MEMORY_LIMIT", limit)
        assert step_of(integrate_direct, 8, model, 0.2, 50) == step


def test_a_superoperator_beyond_the_memory_limit_is_never_built():
    # at n = 96 one superoperator takes 16 n^4 B = 1.36 GB, over MEMORY_LIMIT: the jump form
    # is forced even with enough jumps that the cost rule alone would keep the superoperator
    n = 96
    k = math.ceil(JUMP_FORM_COST * n) - 2
    model = jump_model(n, k)
    assert not k + 2 < JUMP_FORM_COST * n and model.jump_form
    for name in ("liouvillian", "dissipator_superoperator"):
        with pytest.raises(ValidationError, match=(
                f"^9216 complex 96 x 96 matrices exceed the memory limit of {MEMORY_LIMIT} B$")):
            getattr(model, name)
    # the kernels and one direct step apply it with no n^4 array (1.36 GB) allocated
    rho0 = random_density(n, seed=1)
    tracemalloc.start()
    try:
        rhs, diss = lindblad_rhs(rho0, model), dissipator(rho0, model)
        integrate_direct(rho0, model, 1e-4, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**25
    assert relative_error(rhs, matrix_form_rhs(rho0.rho, model)) <= 1e-12
    assert relative_error(diss, matrix_form_rhs(rho0.rho, model, hamiltonian=False)) <= 1e-12


def frame_operator_form(U, p, model):
    """Reference split frame images from the rotated operators: with
    Ht, Kt, At_k = U^dag [H, K, sqrt(h_k) L_k] U, G = U^dag U and P = diag(p),
    (Ht, sum_k At_k P At_k^dag - (G P Kt + Kt P G)/2)."""
    n = model.n
    Ud = U.conj().T
    K = sum((h * L.conj().T @ L for h, L in zip(model.rates, model.jumps)), np.zeros((n, n)))
    Kt, G, P = Ud @ K @ U, Ud @ U, np.diag(p)
    jump = np.zeros((n, n), dtype=complex)
    for h, L in zip(model.rates, model.jumps):
        At = Ud @ (math.sqrt(h) * L) @ U
        jump += At @ P @ At.conj().T
    return Ud @ model.H @ U, jump - 0.5 * (G @ P @ Kt + Kt @ P @ G)


def test_dissipator_on_stacks():
    model = random_model(3, seed=4)
    rhos = np.stack([random_density(3, seed=s).rho for s in range(6)]).reshape(2, 3, 3, 3)
    D = dissipator(rhos, model)
    assert D.shape == rhos.shape
    for rho, d in zip(rhos.reshape(-1, 3, 3), D.reshape(-1, 3, 3)):
        assert np.max(np.abs(d - dissipator(rho, model))) < 1e-15
    assert np.array_equal(dissipator(rhos, LindbladModel(3, model.H, (), ())), np.zeros_like(D))


# --- split right-hand side ------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rhs_reconstruction_identity(n):
    # rho_dot = U diag(M r_dot) U^dag + [Omega, rho]
    for seed in range(10):
        model = random_model(n, seed=seed)
        rho, state = split_point(n, seed + 100)
        r_dot, Omega = split_rhs(state, model)
        U = state.U.U
        p_dot = jacobian_matrix(n) @ r_dot
        recon = (U * p_dot) @ U.conj().T + Omega @ rho.rho - rho.rho @ Omega
        assert np.max(np.abs(recon - lindblad_rhs(rho, model))) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_spectral_flow_ignores_hamiltonian(n):
    model = random_model(n, seed=3)
    _, state = split_point(n, 7)
    r_dot, _ = split_rhs(state, model)
    for seed in (11, 12):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        other = LindbladModel(n, 0.5 * (A + A.conj().T), model.jumps, model.rates)
        r_dot2, _ = split_rhs(state, other)
        assert np.array_equal(r_dot, r_dot2)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_stage_constants_are_cached_and_read_only(n):
    eye, off, neg_i_off = stage_constants(n)
    assert stage_constants(n) is stage_constants(n)
    assert np.array_equal(eye, np.eye(n)) and np.array_equal(off, 1.0 - np.eye(n))
    assert np.array_equal(neg_i_off, -1j * (1.0 - np.eye(n)))
    for a in (eye, off, neg_i_off):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 2.0


def test_split_rhs_degenerate_raises():
    model = random_model(3, seed=0)
    frame = sample_flag(3, 1)
    state = SplitState(GapVector(3, np.array([0.3, 0.0])), frame, 0.0)
    with pytest.raises(DegenerateSpectrumError):
        split_rhs(state, model)


def test_split_omega_antihermitian():
    model = random_model(3, seed=5)
    _, state = split_point(3, 6)
    _, Omega = split_rhs(state, model)
    assert np.linalg.norm(Omega + Omega.conj().T) < 1e-12
    # torus gauge: U^dag Omega U has a zero diagonal, which the reconstruction
    # identity cannot see, since a diagonal commutes with diag(p)
    U = state.U.U
    assert np.max(np.abs(np.diagonal(U.conj().T @ Omega @ U))) < 1e-12


# --- integrators ----------------------------------------------------------------


def test_direct_depolarizing_qubit_exact():
    model = pauli_model(1.0, 1.0, 1.0)
    rho0 = DensityMatrix(2, np.array([[0.85, 0.1 + 0.2j], [0.1 - 0.2j, 0.15]]))
    traj = integrate_direct(rho0, model, t_end=0.5, dt=1e-3, record_every=100)
    dev0 = rho0.rho - np.eye(2) / 2.0
    for t, rho in zip(traj.times, traj.rho):
        expect = np.eye(2) / 2.0 + math.exp(-4.0 * t) * dev0
        assert np.max(np.abs(rho - expect)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_direct_matches_reference_rk4(n):
    # four matrix-form generator evaluations per step, the same re-Hermitize
    # and renormalize steps, against the Horner form on the Liouvillian
    rho0 = random_density(n, seed=30 + n)
    dt, steps, every = 1e-2, 40, 8
    for model in reference_models(n):
        traj = integrate_direct(rho0, model, steps * dt, dt, record_every=every)
        rho = rho0.rho.astype(complex)
        expect = [rho]
        for step in range(1, steps + 1):
            k1 = matrix_form_rhs(rho, model)
            k2 = matrix_form_rhs(rho + 0.5 * dt * k1, model)
            k3 = matrix_form_rhs(rho + 0.5 * dt * k2, model)
            k4 = matrix_form_rhs(rho + dt * k3, model)
            rho = rho + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().T)
            rho = rho / np.trace(rho).real
            if step % every == 0:
                expect.append(rho)
        assert len(traj.rho) == len(expect)
        assert np.max(np.abs(traj.rho - np.array(expect))) < 1e-13


def svd_polar_special(U):
    """Polar factor of U from its SVD, with det pushed back to 1 on the last column."""
    X, _, Yh = np.linalg.svd(U)
    Q = X @ Yh
    det = np.linalg.det(Q)
    Q[:, -1] *= det.conjugate() / abs(det)
    return Q


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_split_matches_reference_rk4(n):
    # RK4 on (U, r) with the rotated-operator form of the split RHS and the
    # same polar correction, against the dissipator-superoperator stages;
    # with no jumps the frame turns rigidly
    models = reference_models(n, scale=0.3)
    rho0 = random_density(n, seed=30 + n)
    r0, frame = eigendecompose_ordered(rho0)
    M = jacobian_matrix(n)
    off = ~np.eye(n, dtype=bool)
    dt, steps, every = 1e-2, 40, 8

    def rhs(U, r):
        p = 1.0 / n + M @ r
        Ht, Lt = frame_operator_form(U, p, model)
        Omega_t = np.zeros((n, n), dtype=complex)
        Omega_t[off] = (-1j * Ht - Lt / (p[:, None] - p[None, :] + np.eye(n)))[off]
        d = Lt.diagonal().real
        return U @ Omega_t, d[:-1] - d[1:]

    for model in models:
        traj = integrate_split(rho0, model, steps * dt, dt, record_every=every)
        U, r = frame.U, r0.r
        expect_r, expect_rho = [r], [(U * (1.0 / n + M @ r)) @ U.conj().T]
        for step in range(1, steps + 1):
            k1 = rhs(U, r)
            k2 = rhs(U + 0.5 * dt * k1[0], r + 0.5 * dt * k1[1])
            k3 = rhs(U + 0.5 * dt * k2[0], r + 0.5 * dt * k2[1])
            k4 = rhs(U + dt * k3[0], r + dt * k3[1])
            U, r = (
                y + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                for y, a, b, c, d in zip((U, r), k1, k2, k3, k4)
            )
            U = svd_polar_special(U)
            if step % every == 0:
                expect_r.append(r)
                expect_rho.append((U * (1.0 / n + M @ r)) @ U.conj().T)
        assert len(traj.times) == len(expect_r)
        assert np.max(np.abs(traj.r - np.array(expect_r))) < 1e-13
        assert np.max(np.abs(traj.rho - np.array(expect_rho))) < 1e-13


def batched_split_stage(V, p, model, HD, checked=True):
    """The split stage with every product an @: (Ht, Lt) = V^dag [H, D] V as one batched
    product on the (2, n, n) buffer HD = [H, H], whose D it overwrites, and the gap floor
    by a ufunc reduce over gaps_stack(p)."""
    n, off = len(V), 1.0 - np.eye(len(V))
    if checked and not np.minimum.reduce(gaps_stack(p)) >= errors.BREAKDOWN_TOL:
        raise DegenerateSpectrumError(
            f"spectral gap below {errors.BREAKDOWN_TOL}; angular chart breaks down")
    Vh = V.conj().T
    if model.jump_form:
        HD[1] = dissipator((V * p) @ Vh, model)
    else:
        np.matmul(model.dissipator_superoperator, ((V * p) @ Vh).ravel(),
                  out=HD[1].reshape(n * n))
    HLt = Vh @ HD @ V
    Omega_t = HLt[0] * (-1j * off)
    Omega_t -= HLt[1] * (off / (p[:, None] - p + np.eye(n)))
    d = HLt[1].diagonal().real
    return V @ Omega_t, d - np.add.reduce(d) / n


def matmul_polar_special(U):
    """polar_special with @ products: (Q, defect) or its DegenerateSpectrumError."""
    def frobenius(F):
        f = F.ravel()
        return math.sqrt(f.real.dot(f.real) + f.imag.dot(f.imag))

    eye = np.eye(len(U))
    F = U.conj().T @ U - eye
    defect = err = frobenius(F)
    if not defect < FRAME_DEFECT:
        raise DegenerateSpectrumError(f"frame defect {defect:.3e} not below {FRAME_DEFECT}")
    while True:
        U = U - 0.5 * (U @ F)
        if not err * err > errors.POLAR_TOL:
            return U, defect
        F = U.conj().T @ U - eye
        err = frobenius(F)


def batched_split_run(rho0, model, dt, steps):
    """The split states (p, U, defect) of up to `steps` RK4 steps by batched_split_stage and
    matmul_polar_special, with the breakdown message of the first stage below the gap floor."""
    r, frame = eigendecompose_ordered(rho0)
    p, U, HD = probs_stack(r.r), frame.U, np.array([model.H, model.H])
    states = [(p, U, 0.0)]
    for step in range(1, steps + 1):
        try:
            K, k = S, s = batched_split_stage(U, p, model, HD, checked=False)
            for c in (0.5, 0.5, 1.0):
                K, k = batched_split_stage(U + c * dt * K, p + c * dt * k, model, HD)
                S += K + K if c < 1.0 else K
                s += k + k if c < 1.0 else k
        except DegenerateSpectrumError as exc:
            return states, f"split integration broke down at t={(step - 1) * dt:.6g}: {exc}"
        U, defect = matmul_polar_special(U + dt / 6.0 * S)
        p = p + dt / 6.0 * s
        assert p[-1] >= -errors.TOL / len(p) and np.min(gaps_stack(p)) >= errors.BREAKDOWN_TOL
        states.append((p, U, defect))
    return states, None


def recorded_split_states(rho0, model, t_end, dt, monkeypatch):
    """(p, U) of every record of integrate_split, read where the records assemble rho."""
    seen = []

    def spy(P, Us):
        seen.append((P, Us))
        return density_stack(P, Us)

    monkeypatch.setattr(dynamics, "density_stack", spy)
    traj = integrate_split(rho0, model, t_end, dt)
    return traj, np.concatenate([P for P, _ in seen]), np.concatenate([Us for _, Us in seen])


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_split_steps_match_the_batched_stage_bit_for_bit(n, monkeypatch):
    # 20 steps of the run against the stage on one batched (2, n, n) product and @ products
    # everywhere: each plain product is the same BLAS call, so every p, U and frame defect
    # is equal, in the superoperator form at n <= 8 and in the jump form at n = 16
    model, rho0 = random_model(n, seed=n), random_density(n, seed=70 + n)
    assert model.jump_form == (n == 16)
    states, broke = batched_split_run(rho0, model, 1e-3, 20)
    traj, P, Us = recorded_split_states(rho0, model, 0.02, 1e-3, monkeypatch)
    assert broke is None and len(traj.times) == len(states) == 21
    assert np.array_equal(P, np.array([p for p, _, _ in states]))
    assert np.array_equal(Us, np.array([U for _, U, _ in states]))
    assert np.array_equal(traj.diagnostics["frame_defect"], [e for _, _, e in states])


@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
       exponent=st.floats(-16.0, math.log10(0.3)))
@example(n=16, seed=0, exponent=-7.0)
@example(n=2, seed=0, exponent=math.log10(0.3))
@example(n=9, seed=1, exponent=-7.375)  # the first measured defect, 9e-15, had trace 2e-14
@example(n=16, seed=4146007888, exponent=-0.564009786173779)  # a defect past FRAME_DEFECT
@example(n=16, seed=0, exponent=-0.96)  # a defect of 0.489, just below FRAME_DEFECT
@settings(max_examples=60, deadline=None)
def test_polar_special_matches_the_svd_polar_factor(n, seed, exponent):
    # U = W (1 + E), W Haar and E Hermitian with ||E||_2 up to 0.3: the
    # Newton-Schulz factor below a defect of FRAME_DEFECT, a raise from it on
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    E = A + A.conj().T
    U = sample_flag(n, seed).U @ (np.eye(n) + 10.0**exponent / np.linalg.norm(E, 2) * E)
    defect = np.linalg.norm(U.conj().T @ U - np.eye(n))
    if not defect < FRAME_DEFECT:
        msg = f"frame defect {defect:.3e} not below 0.5"
        with pytest.raises(DegenerateSpectrumError, match=f"^{re.escape(msg)}$"):
            polar_special(U)
        return
    Q, got = polar_special(U)
    assert np.max(np.abs(Q - svd_polar_special(U))) <= 1e-14
    assert abs(np.linalg.det(Q) - 1.0) <= 1e-14
    assert got == defect


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("exponent", [-12.0, -3.0, math.log10(0.3)],
                         ids=["newton-schulz-1e-12", "newton-schulz-1e-3", "frame-defect-0.3"])
def test_polar_special_keeps_the_determinant_phase(n, exponent):
    # U = e^{i theta / n} W (1 + E), W Haar in SU(n): det U has the phase
    # e^{i theta}, and the polar factor X Y^dag of U's SVD keeps it.  At
    # ||E||_2 = 0.3 the defect is at least 2 (0.3) - 0.3^2 > FRAME_DEFECT: U
    # has left U(n), and polar_special raises rather than repair it
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    E = A + A.conj().T
    theta = 2.0
    W = np.exp(1j * theta / n) * sample_flag(n, n).U
    U = W @ (np.eye(n) + 10.0**exponent / np.linalg.norm(E, 2) * E)
    if exponent > -1.0:
        with pytest.raises(DegenerateSpectrumError, match="^frame defect .* not below 0.5$"):
            polar_special(U)
        return
    Q, defect = polar_special(U)
    X, _, Yh = np.linalg.svd(U)
    assert np.max(np.abs(Q - X @ Yh)) <= 1e-14
    assert abs(np.linalg.det(Q) - np.exp(1j * theta)) <= 1e-14
    assert defect == np.linalg.norm(U.conj().T @ U - np.eye(n))


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_split_records_do_not_see_the_frame_gauge(n, monkeypatch):
    # a frame is a point of SU(n)/T^{n-1}: a random diagonal unitary on the
    # right of every polar factor changes no record, which is why the split
    # step needs no determinant fix
    model, rho0 = random_model(n, seed=n), random_density(n, seed=n + 60)
    plain = integrate_split(rho0, model, 0.2, 1e-3, record_every=10)
    rng = np.random.default_rng(n)

    def gauged(U):
        Q, defect = polar_special(U)
        return Q * np.exp(2j * np.pi * rng.random(n)), defect

    monkeypatch.setattr(dynamics, "polar_special", gauged)
    turned = integrate_split(rho0, model, 0.2, 1e-3, record_every=10)
    assert np.array_equal(plain.times, turned.times)
    assert np.max(np.abs(plain.r - turned.r)) <= 1e-13
    assert np.max(np.abs(plain.rho - turned.rho)) <= 1e-13
    defects = plain.diagnostics["frame_defect"], turned.diagnostics["frame_defect"]
    assert np.max(np.abs(defects[0] - defects[1])) <= 1e-13


@pytest.mark.parametrize("n", range(2, 9))
def test_split_trace_drift_stays_at_round_off(n):
    # the stage's rates are diag Lt less its mean, so sum(p) - 1 stays at
    # round-off; without the projection it drifts by O(dt^3) a step
    model, rho0 = random_model(n, seed=n), random_density(n, seed=n + 70)
    traj = integrate_split(rho0, model, 1.0, 1e-3)
    assert len(traj.times) == 1001
    assert np.max(traj.diagnostics["trace_error"]) <= 1e-13


def test_direct_trace_drift_breaks_down_at_the_step():
    # dt far outside the RK4 stability region: the state grows until the
    # trace drifts, long before the next record; without a per-step check
    # the run went on to a NaN trajectory that passed every record check
    model = random_model(2, seed=1, jump_scale=1.0)
    rho0 = random_density(2, seed=2)
    with pytest.raises(NumericalBreakdownError, match=r"trace drift .* at t="):
        integrate_direct(rho0, model, 60.0, 1.5, record_every=1000)


@pytest.mark.parametrize("n", [2, 3])
def test_split_matches_direct(n):
    model = random_model(n, seed=n)
    rho0 = random_density(n, seed=n + 40)
    direct = integrate_direct(rho0, model, 0.5, 1e-3, record_every=50)
    split = integrate_split(rho0, model, 0.5, 1e-3, record_every=50)
    assert np.allclose(direct.times, split.times)
    for a, b in zip(direct.rho, split.rho):
        assert np.linalg.norm(a - b) < 1e-7


@given(n=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_every_record_is_a_valid_density_matrix(n, seed):
    # records are checked only by the guards that can fail on them (the
    # direct eigenvalue floor, the split gap floor and R_{n-1} bound at each
    # step); Hermiticity, unit trace and the split frame hold by construction
    model, rho0 = random_model(n, seed=seed), random_density(n, seed=seed + 1)
    for traj in (integrate_direct(rho0, model, 0.05, 1e-3),
                 integrate_split(rho0, model, 0.05, 1e-3, fallback_direct=True)):
        assert len(traj.rho) == 51
        for rho in traj.rho:
            DensityMatrix(n, rho)


def test_split_breakdown_and_fallback():
    # gaps above the eigendecomposition threshold but below the flow threshold
    model = random_model(3, seed=9)
    frame = sample_flag(3, 2)
    r = GapVector(3, np.array([0.4, 5e-9]))
    rho0 = assemble_density(r, frame)
    with pytest.raises(DegenerateSpectrumError):
        integrate_split(rho0, model, 0.2, 1e-3)
    traj = integrate_split(rho0, model, 0.2, 1e-3, fallback_direct=True)
    assert traj.breakdown_time == 0.0
    assert traj.times[-1] == pytest.approx(0.2)
    # a hand-over at t = 0 resumes from rho0 itself
    assert np.array_equal(traj.rho, integrate_direct(rho0, model, 0.2, 1e-3).rho)


@pytest.mark.parametrize("rho0", [np.eye(3) / 3.0, np.diag([1.0, 0.0, 0.0]),
                                  np.eye(16) / 16.0, np.diag(np.eye(16)[0])],
                         ids=["maximally-mixed", "pure", "maximally-mixed-16", "pure-16"])
def test_start_with_no_eigenframe_hands_over_at_t0(rho0):
    # random_model(16, 1) is in the jump form, so the hand-over starts that form's direct route
    n = len(rho0)
    model, rho0 = random_model(n, seed=1), DensityMatrix(n, rho0)
    traj = integrate_split(rho0, model, 0.05, 1e-3, fallback_direct=True)
    assert traj.breakdown_time == 0.0
    assert np.array_equal(traj.rho, integrate_direct(rho0, model, 0.05, 1e-3).rho)
    msg = "split integration broke down at t=0: spectral gap below 1e-10; eigenframe breaks down"
    with pytest.raises(DegenerateSpectrumError, match=f"^{re.escape(msg)}$"):
        integrate_split(rho0, model, 0.05, 1e-3)


def _amplitude_damped_qubit():
    # amplitude damping closes the gap of diag(0.3, 0.7) at t = ln(7/5)
    L = np.array([[0.0, 1.0], [0.0, 0.0]])
    model = LindbladModel(2, np.zeros((2, 2)), (L,), (1.0,))
    return model, DensityMatrix(2, np.diag([0.3, 0.7]))


def test_split_state_accepted_below_the_gap_floor_breaks_down_at_its_own_time():
    # a classical qutrit whose step to t = 0.1 is accepted with a gap below
    # BREAKDOWN_TOL: the breakdown is at 0.1, not at the last state before it
    E = np.eye(3)
    jumps = tuple(np.outer(E[i], E[j]) for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)))
    model = LindbladModel(3, np.zeros((3, 3)), jumps, (1.632, 0.005, 1.715, 0.067, 1.459, 0.351))
    rho0 = DensityMatrix(3, np.diag([0.8265, 0.0929, 0.0806]))
    msg = "split integration broke down at t=0.1: spectral gap below 1e-08; angular chart breaks down"
    with pytest.raises(DegenerateSpectrumError, match=f"^{re.escape(msg)}$"):
        integrate_split(rho0, model, 0.2, 0.1)
    traj = integrate_split(rho0, model, 0.2, 0.1, fallback_direct=True)
    assert traj.breakdown_time == 0.1
    assert np.array_equal(traj.times, [0.0, 0.1, 0.2])


def _amplitude_damped_16():
    # the qubit's crossing at t = ln(7/5) among 14 more levels, under an H, in the jump form
    n, L = 16, np.zeros((16, 16))
    L[0, 1] = 1.0
    p = np.concatenate(([0.3, 0.7], np.linspace(0.02, 0.09, 14)))
    model = LindbladModel(n, np.diag(np.linspace(0.0, 1.5, n)), (L,), (1.0,))
    return model, DensityMatrix(n, np.diag(p / p.sum()))


def test_fallback_resumes_from_live_state():
    for (model, rho0), record_every in itertools.product(
            (_amplitude_damped_qubit(), _amplitude_damped_16()), (1, 10, 100)):
        direct = integrate_direct(rho0, model, 1.0, 1e-3, record_every)
        split = integrate_split(rho0, model, 1.0, 1e-3, record_every, fallback_direct=True)
        assert split.breakdown_time == pytest.approx(0.336)
        assert len(split.times) == len(direct.times)
        assert np.array_equal(split.times, direct.times)
        assert np.max(np.linalg.norm(split.rho - direct.rho, axis=(1, 2))) < 1e-12
        diag = split.diagnostics
        for key in ("trace_error", "min_eig", "min_gap", "frame_defect"):
            assert len(diag[key]) == len(split.times)
        assert np.array_equal(diag["min_gap"], split.r.min(axis=1))
        after = split.times > split.breakdown_time
        assert after.any()
        delta = diag["min_eig"][after] - direct.diagnostics["min_eig"][after]
        assert np.max(np.abs(delta)) < 1e-12


@pytest.mark.parametrize("case", [_amplitude_damped_qubit, _amplitude_damped_16])
def test_a_stage_below_the_gap_floor_breaks_down_as_the_batched_stage_does(case, monkeypatch):
    # the qubit's crossing in the superoperator form and among 16 levels in the jump form:
    # a stage of the step to t = 0.337 falls below the gap floor, with the same message
    model, rho0 = case()
    states, broke = batched_split_run(rho0, model, 1e-3, 400)
    assert broke == ("split integration broke down at t=0.336: spectral gap below 1e-08; "
                     "angular chart breaks down")
    with pytest.raises(DegenerateSpectrumError, match=f"^{re.escape(broke)}$"):
        integrate_split(rho0, model, 0.4, 1e-3)
    traj, P, Us = recorded_split_states(rho0, model, 0.336, 1e-3, monkeypatch)
    assert np.array_equal(P, np.array([p for p, _, _ in states]))
    assert np.array_equal(Us, np.array([U for _, U, _ in states]))


@given(record_every=st.integers(1, 120), steps=st.integers(400, 1000))
@example(record_every=7, steps=1000)
@example(record_every=336, steps=1000)  # 7 and 336 put the breakdown on the grid
@settings(max_examples=20, deadline=None)
def test_fallback_records_on_the_run_grid(record_every, steps):
    model, rho0 = _amplitude_damped_qubit()
    t_end = steps / 1000
    direct = integrate_direct(rho0, model, t_end, 1e-3, record_every)
    split = integrate_split(rho0, model, t_end, 1e-3, record_every, fallback_direct=True)
    assert split.breakdown_time == pytest.approx(0.336)
    assert np.array_equal(split.times, direct.times)
    assert len(np.unique(split.times)) == len(split.times)


def test_record_checks_raise_at_the_record():
    # split: the first RK4 step at an unstable dt throws the frame far off
    # U(n); the step is rejected, so the breakdown is at t = 0, whether or
    # not a record falls at t = 0.05
    model = random_model(2, seed=3, jump_scale=1.0)
    rho0 = random_density(2, seed=503, fill=0.5)
    with pytest.raises(DegenerateSpectrumError, match="broke down at t=0: frame defect 7.550e"):
        integrate_split(rho0, model, 0.05, 0.05)
    with pytest.raises(DegenerateSpectrumError, match="broke down at t=0: frame defect 7.550e"):
        integrate_split(rho0, model, 1.0, 0.05, record_every=3)
    model = random_model(2, seed=25, jump_scale=2.0)
    rho0 = random_density(2, seed=525, fill=0.5)
    with pytest.raises(DegenerateSpectrumError, match="broke down at t=0: frame defect 1.192e"):
        integrate_split(rho0, model, 0.05, 0.05)
    # direct: RK4 just outside its stability region grows the Bloch vector of
    # a unitary qubit; a slow growth first crosses -EIG_TOL at record 2, a
    # fast one at record 1.  Either is a breakdown of the run, not bad input,
    # even when the eigenvalue stays above -BREAKDOWN_TOL
    model = LindbladModel(2, np.diag([0.5, -0.5]), (), ())
    rho0 = DensityMatrix(2, 0.5 * np.array([[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]]))
    dt = math.sqrt(8.0 + 2.25e-9)
    integrate_direct(rho0, model, dt, dt)
    with pytest.raises(NumericalBreakdownError,
                       match="positivity violated at t=5.65685: min eigenvalue -5.000e-10"):
        integrate_direct(rho0, model, 2.0 * dt, dt)
    rho0 = DensityMatrix(2, 0.5 * np.array([[1.0, 0.999], [0.999, 1.0]]))
    dt = math.sqrt(8.01)
    with pytest.raises(NumericalBreakdownError, match="positivity violated at t=2.83"):
        integrate_direct(rho0, model, dt, dt)


def test_a_failing_record_stops_a_long_run_early():
    # the unitary qubit of test_record_checks_raise_at_the_record over 200,000
    # steps: its trace holds, so only the record check can stop it, and it
    # raises at record 2 within one chunk of records, not at t_end
    model = LindbladModel(2, np.diag([0.5, -0.5]), (), ())
    rho0 = DensityMatrix(2, 0.5 * np.array([[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]]))
    dt = math.sqrt(8.0 + 2.25e-9)
    t0 = time.perf_counter()
    with pytest.raises(NumericalBreakdownError,
                       match="positivity violated at t=5.65685: min eigenvalue -5.000e-10"):
        integrate_direct(rho0, model, 200_000 * dt, dt)
    assert time.perf_counter() - t0 < 1.0


def test_a_failing_record_stops_a_sparsely_recorded_run_early():
    # the run above at record_every=100: a stacked check spans RECORD_CHUNK
    # steps, not records, so record 2 raises within 1000 steps, not 100,000
    model = LindbladModel(2, np.diag([0.5, -0.5]), (), ())
    rho0 = DensityMatrix(2, 0.5 * np.array([[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]]))
    dt = math.sqrt(8.0 + 2.25e-9)
    t0 = time.perf_counter()
    with pytest.raises(NumericalBreakdownError,
                       match="positivity violated at t=282.843: min eigenvalue -4.950e-08"):
        integrate_direct(rho0, model, 200_000 * dt, dt, record_every=100)
    assert time.perf_counter() - t0 < 1.0


def test_split_breakdown_does_not_depend_on_record_every():
    # the step to t = 0.003 throws the frame off U(n) (defect 1.3e3) while the
    # direct route's smallest gap there is 0.044; the step is rejected, so the
    # run breaks down at t = 0.002, whatever record_every is, and a fallback
    # resumes from the true state there, not from the broken one
    model = random_model(4, seed=4, jump_scale=3.0)
    rho0 = random_density(4, seed=104)
    for record_every in (1, 10):
        with pytest.raises(DegenerateSpectrumError,
                           match="broke down at t=0.002: frame defect 1.316e[+]03"):
            integrate_split(rho0, model, 0.1, 1e-3, record_every)
        split = integrate_split(rho0, model, 0.1, 1e-3, record_every, fallback_direct=True)
        direct = integrate_direct(rho0, model, 0.1, 1e-3, record_every)
        assert split.breakdown_time == 0.002
        assert np.array_equal(split.times, direct.times)
        assert np.max(np.linalg.norm(split.rho - direct.rho, axis=(1, 2))) <= 1e-3


def test_a_step_outside_r_n_minus_1_is_rejected_at_the_last_accepted_step():
    # H, the jumps |0><1|, |1><0| and rho0 = diag(0.99, 0.01) keep rho diagonal,
    # so the frame never moves and only the spectrum can leave the chart.  At
    # dt = 1.3, past RK4's stability bound, the step to t = 2.6 takes p_2 to
    # -1.0e-2: outside R_{n-1}, a breakdown at t = 1.3 like a stage below the
    # gap floor; the fallback's direct route meets the same negative
    # eigenvalue at t = 2.6 that integrate_direct does
    E01 = np.array([[0.0, 1.0], [0.0, 0.0]])
    model = LindbladModel(2, np.diag([0.5, -0.5]), (E01, E01.T), (2.0, 0.2))
    rho0 = DensityMatrix(2, np.diag([0.99, 0.01]))
    with pytest.raises(DegenerateSpectrumError,
                       match=r"^split integration broke down at t=1.3: .*R_\{n-1\}$"):
        integrate_split(rho0, model, 26.0, 1.3)
    msg = "positivity violated at t=2.6: min eigenvalue -1.033e-02"
    for run in (lambda: integrate_split(rho0, model, 26.0, 1.3, fallback_direct=True),
                lambda: integrate_direct(rho0, model, 26.0, 1.3)):
        with pytest.raises(NumericalBreakdownError, match=f"^{re.escape(msg)}$"):
            run()


def test_a_failing_record_wins_over_a_later_step():
    # the record at t = 1.5 fails positivity; the run without it reaches a
    # trace drift at t = 10.5, which must not mask the earlier record
    model = random_model(2, seed=1, jump_scale=1.0)
    rho0 = random_density(2, seed=2)
    with pytest.raises(NumericalBreakdownError, match="trace drift .* at t=10.5"):
        integrate_direct(rho0, model, 60.0, 1.5, record_every=1000)
    with pytest.raises(NumericalBreakdownError, match="positivity violated at t=1.5: min"):
        integrate_direct(rho0, model, 60.0, 1.5, record_every=1)


def test_a_skewed_polar_factor_surfaces_as_trace_drift_after_the_hand_over(monkeypatch):
    # from step 100 on every polar factor is scaled by 1 + 1e-6, so the
    # hand-over state at t = 0.336 has trace 1 + 2e-6; it passes the
    # eigenvalue floor, and the first direct step's trace drift guard
    # raises, whatever record_every is
    model, rho0 = _amplitude_damped_qubit()
    calls = []

    def skewed(U):
        Q, defect = polar_special(U)
        calls.append(defect)
        return Q * (1.0 + 1e-6 * (len(calls) >= 100)), defect

    monkeypatch.setattr(dynamics, "polar_special", skewed)
    for record_every in (1000, 1):
        calls.clear()
        with pytest.raises(NumericalBreakdownError,
                           match="trace drift 2.000e-06 exceeds 1e-08 at t=0.337"):
            integrate_split(rho0, model, 1.0, 1e-3, record_every, fallback_direct=True)


def test_frame_defect_is_the_defect_before_the_polar_correction(monkeypatch):
    seen = []

    def logged(U):
        seen.append(np.linalg.norm(U.conj().T @ U - np.eye(len(U))))
        return polar_special(U)

    monkeypatch.setattr(dynamics, "polar_special", logged)
    rho0, model = random_density(3, seed=5), random_model(3, seed=5)
    defect = integrate_split(rho0, model, 0.05, 1e-3, record_every=5).diagnostics["frame_defect"]
    assert defect[0] == 0.0
    assert np.array_equal(defect[1:], np.array(seen)[4::5])
    assert 0.0 < np.max(defect) < 1e-8
    assert np.all(np.isnan(integrate_direct(rho0, model, 0.05, 1e-3).diagnostics["frame_defect"]))
    # after a fallback the records are direct ones
    model, rho0 = _amplitude_damped_qubit()
    split = integrate_split(rho0, model, 1.0, 1e-3, 10, fallback_direct=True)
    after = split.times > split.breakdown_time
    assert np.all(np.isnan(split.diagnostics["frame_defect"][after]))
    assert np.all(np.isfinite(split.diagnostics["frame_defect"][~after]))


def test_step_validation():
    model = random_model(2, seed=0)
    rho0 = random_density(2, seed=1)
    with pytest.raises(ValidationError):
        integrate_direct(rho0, model, t_end=-1.0, dt=1e-3)
    with pytest.raises(ValidationError):
        integrate_direct(rho0, model, t_end=1.0, dt=0.0)
    with pytest.raises(ValidationError, match="exceeds t_end"):
        integrate_direct(rho0, model, t_end=0.1, dt=1.0)


@pytest.mark.parametrize("integrate", [integrate_direct, integrate_split])
def test_t_end_off_the_step_grid_is_a_validation_error(integrate):
    model, rho0 = random_model(2, seed=0), random_density(2, seed=1)
    # a run ends at t_end: 2.5 steps is rejected, not rounded to 0.2
    with pytest.raises(ValidationError, match="nearest grid ends are 0.2 and 0.3"):
        integrate(rho0, model, 0.25, 0.1)
    # t_end / dt within round-off of a whole number still runs
    for t_end, dt, steps in ((0.3, 0.1, 3), (0.2, 1e-3, 200), (0.05, 1e-3, 50)):
        traj = integrate(rho0, model, t_end, dt, steps)
        assert traj.times[-1] == pytest.approx(t_end, abs=1e-12)


@pytest.mark.parametrize("integrate", [integrate_direct, integrate_split])
def test_step_count_overflow_is_a_validation_error(integrate):
    # t_end / dt overflows to inf although both are finite
    with pytest.raises(ValidationError, match="overflows the step count"):
        integrate(random_density(2, seed=1), random_model(2, seed=0), 1e300, 1e-10)


@pytest.mark.parametrize("integrate", [integrate_direct, integrate_split])
def test_records_beyond_the_memory_limit_are_a_validation_error(integrate):
    # 1e299 steps: t_end / dt is finite, and the run could only end by
    # exhausting memory.  Its records are counted before the first step
    model, rho0 = random_model(2, seed=0), random_density(2, seed=1)
    with pytest.raises(ValidationError, match=f"exceed the memory limit of {MEMORY_LIMIT} B$"):
        integrate(rho0, model, 0.1, 1e-300, 10)
    # what is bounded is the records, not the steps: one record per 10**12 steps
    assert len(integrate(rho0, model, 0.01, 1e-3, 10**12).times) == 2


@pytest.mark.parametrize("integrate", [integrate_direct, integrate_split])
@pytest.mark.parametrize("record_every", [0, -3, 2.5])
def test_record_every_must_be_a_positive_integer(integrate, record_every):
    with pytest.raises(ValidationError, match="record_every"):
        integrate(random_density(2, seed=1), random_model(2, seed=0), 0.01, 1e-3, record_every)


@pytest.mark.parametrize("integrate", [integrate_direct, integrate_split])
@pytest.mark.parametrize("n_state, n_model", [(3, 2), (2, 3)])
def test_state_and_model_dimensions_must_agree(integrate, n_state, n_model):
    with pytest.raises(ValidationError, match="state and model dimensions disagree"):
        integrate(random_density(n_state, seed=1), random_model(n_model, seed=0), 0.01, 1e-3)


@pytest.mark.parametrize(
    "kernel",
    [split_rhs, lambda state, model: secular_factorization_test(model, state, 1e-10)],
    ids=["split_rhs", "secular_factorization_test"],
)
def test_split_kernels_need_matching_dimensions(kernel):
    _, state = split_point(3, 18)
    with pytest.raises(ValidationError, match="^state and model dimensions disagree$"):
        kernel(state, random_model(2, seed=0))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: QubitAngles(r="a", theta=1.0, phi=0.0), "r must be a real number, got 'a'"),
        (lambda: QubitAngles(r=1.5, theta=1.0, phi=0.0), "qubit radius must lie in [0, 1]"),
        (lambda: QutritEuler(0.2, 0.1, 0.0, "x", 0.0), "beta must be a real number, got 'x'"),
        (lambda: QutritEuler(0.2, 0.1, 0.0, 0.0, 0.0), "beta must lie in (0, pi)"),
    ],
    ids=["radius-string", "radius-range", "beta-string", "beta-range"],
)
def test_chart_coordinates_name_the_bad_field(build, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


def test_trajectory_validation():
    with pytest.raises(ValidationError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), np.zeros((2, 2, 2)))


# --- qubit closed form ------------------------------------------------------------


def test_qubit_closed_form_matches_split(rng):
    for _ in range(40):
        H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        model = pauli_model(*rng.random(3), H=0.5 * (H + H.conj().T))
        state = QubitAngles(
            r=0.2 + 0.6 * float(rng.random()),
            theta=0.3 + 2.4 * float(rng.random()),
            phi=float(rng.random()) * 2.0 * math.pi,
        )
        expect = qubit_split_rates(state, model)
        got = qubit_rhs(state, model)
        assert np.allclose(got, expect, atol=1e-12)


def test_qubit_radial_contraction(rng):
    model = pauli_model(*rng.random(3))
    for _ in range(100):
        state = QubitAngles(
            r=0.5,
            theta=0.1 + 2.9 * float(rng.random()),
            phi=float(rng.random()) * 2.0 * math.pi,
        )
        assert qubit_rhs(state, model)[2] <= 1e-15


def test_qubit_chart_singularities():
    model = pauli_model(1.0, 1.0, 1.0)
    with pytest.raises(NumericalBreakdownError):
        qubit_rhs(QubitAngles(r=0.0, theta=1.0, phi=0.0), model)
    with pytest.raises(NumericalBreakdownError):
        qubit_rhs(QubitAngles(r=0.5, theta=0.0, phi=0.0), model)


def test_qubit_requires_pauli_jumps():
    state = QubitAngles(r=0.5, theta=1.0, phi=0.0)
    message = "qubit closed form needs n=2 with jumps sigma_1..3"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        qubit_rhs(state, random_model(2, seed=0))
    jumps = tuple(sigma.T for sigma in PAULI)  # three jumps, sigma_2 transposed
    model = LindbladModel(2, np.zeros((2, 2)), jumps, (1.0, 1.0, 1.0))
    with pytest.raises(ValidationError, match="^qubit closed form needs Pauli jump operators$"):
        qubit_rhs(state, model)


# --- real qutrit -------------------------------------------------------------------


def real_qutrit_setup(rng):
    """Real antisymmetric A and a dissipator built from real jump operators."""
    a = rng.standard_normal(3)
    A = np.array(
        [[0.0, a[0], a[1]], [-a[0], 0.0, a[2]], [-a[1], -a[2], 0.0]]
    )
    jumps = tuple(0.3 * rng.standard_normal((3, 3)) for _ in range(2))
    model = LindbladModel(3, 1j * A, jumps, (1.0, 1.0))
    return A, model


def random_euler_state(rng):
    return QutritEuler(
        r1=0.1 + 0.2 * float(rng.random()),
        r2=0.1 + 0.15 * float(rng.random()),
        alpha=float(rng.random()) * 2.0 * math.pi,
        beta=0.3 + 2.4 * float(rng.random()),
        gamma=float(rng.random()) * 2.0 * math.pi,
    )


def test_real_qutrit_matches_split(rng):
    for _ in range(30):
        A, model = real_qutrit_setup(rng)
        state = random_euler_state(rng)
        rates = real_qutrit_rhs(state, A, lambda rho: dissipator(rho, model))

        U = so3_euler(state.alpha, state.beta, state.gamma)
        r = GapVector(3, np.array([state.r1, state.r2]))
        det_fix = np.linalg.det(U)
        frame = UnitaryFrame(3, U * np.sign(det_fix))
        sp = SplitState(r, frame, 0.0)
        r_dot, Omega = split_rhs(sp, model)
        assert abs(rates[3] - r_dot[0]) < 1e-12
        assert abs(rates[4] - r_dot[1]) < 1e-12
        body = euler_omega(state.alpha, state.beta, state.gamma, *rates[:3])
        # split Omega is in the fixed basis; euler_omega is the body generator
        assert np.max(np.abs(U.T @ Omega.real @ U - body)) < 1e-12


def test_euler_omega_antisymmetric_and_fd():
    vals = (0.7, 1.1, 2.0)
    rates = (0.3, -0.2, 0.5)
    W = euler_omega(*vals, *rates)
    assert np.allclose(W, -W.T)
    h = 1e-6
    Up = so3_euler(*(v + h * d for v, d in zip(vals, rates)))
    Um = so3_euler(*(v - h * d for v, d in zip(vals, rates)))
    U = so3_euler(*vals)
    fd = U.T @ ((Up - Um) / (2.0 * h))
    assert np.max(np.abs(W - fd)) < 1e-9


def test_real_qutrit_validation(rng):
    A, model = real_qutrit_setup(rng)
    with pytest.raises(ValidationError):
        real_qutrit_rhs(random_euler_state(rng), np.eye(3), lambda rho: dissipator(rho, model))
    complex_model = random_model(3, seed=2)
    with pytest.raises(ValidationError):
        real_qutrit_rhs(
            random_euler_state(rng), A, lambda rho: dissipator(rho, complex_model)
        )
    with pytest.raises(DegenerateSpectrumError):
        real_qutrit_rhs(
            QutritEuler(r1=1e-9, r2=0.2, alpha=0.1, beta=1.0, gamma=0.1),
            A,
            lambda rho: dissipator(rho, model),
        )
    with pytest.raises(NumericalBreakdownError,
                       match=r"^Euler chart singular at beta in \{0, pi\}$"):
        real_qutrit_rhs(
            QutritEuler(r1=0.2, r2=0.2, alpha=0.1, beta=1e-9, gamma=0.1),
            A,
            lambda rho: dissipator(rho, model),
        )


# --- secular factorization -----------------------------------------------------------


def test_secular_factorization_positive_case():
    # a conjugated normal jump factorizes exactly for n = 2
    U = sample_flag(2, seed=3).U
    N = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex)
    model = LindbladModel(2, np.zeros((2, 2)), (U @ N @ U.conj().T,), (1.0,))
    _, state = split_point(2, 17)
    ok, residuals = secular_factorization_test(model, state, tolerance=1e-10)
    assert ok
    assert max(residuals.values()) < 1e-12


def test_secular_factorization_negative_case():
    model = random_model(3, seed=8)
    _, state = split_point(3, 18)
    ok, residuals = secular_factorization_test(model, state, tolerance=1e-10)
    assert not ok
    assert max(residuals.values()) > 1e-4


def test_secular_factorization_rejects_a_single_gap_draw():
    # one draw has a ratio spread of 0 and would report factorized=True for any model
    _, state = split_point(3, 18)
    with pytest.raises(ValidationError, match="num_r_samples must be an integer >= 2, got 1"):
        secular_factorization_test(random_model(3, seed=0), state, 1e-10, num_r_samples=1)


@pytest.mark.parametrize("count", [0, -3, 2.0, 8.5, True, "8"])
def test_secular_factorization_rejects_a_non_count(count):
    _, state = split_point(3, 18)
    with pytest.raises(ValidationError, match="num_r_samples must be an integer >= 2"):
        secular_factorization_test(random_model(3, seed=0), state, 1e-10, num_r_samples=count)


# --- IO --------------------------------------------------------------------------------


def test_model_round_trip(tmp_path):
    model = random_model(3, seed=4)
    path = tmp_path / "model.json"
    save_model(path, model)
    back = load_model(path)
    assert back.n == model.n
    assert np.allclose(back.H, model.H)
    for a, b in zip(back.jumps, model.jumps):
        assert np.allclose(a, b)
    assert back.rates == model.rates


def test_density_round_trip(tmp_path):
    rho = random_density(4, seed=5)
    path = tmp_path / "state.json"
    save_density(path, rho)
    assert np.allclose(load_density(path).rho, rho.rho)


def test_malformed_model_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "H": "nope", "jumps": [], "rates": []}\n')
    with pytest.raises(ValidationError):
        load_model(path)


@pytest.mark.parametrize("rates", ["12", {"1": 0, "2": 0}, ["0.5", 1], [True, 1]],
                         ids=["string", "object", "string-item", "bool-item"])
def test_model_rates_must_be_a_list_of_numbers(tmp_path, rates):
    # a string or an object would iterate as characters or keys, read as (1.0, 2.0)
    path = tmp_path / "model.json"
    save_model(path, random_model(2, seed=3))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "rates": rates}))
    with pytest.raises(ValidationError, match="rates must be a JSON list of numbers"):
        load_model(path)


def test_rate_beyond_float_range_is_a_validation_error(tmp_path):
    # float(10**400) raises OverflowError; a JSON integer can be that large
    with pytest.raises(ValidationError, match="rates must be finite and non-negative"):
        LindbladModel(2, np.zeros((2, 2)), (PAULI[0],), (10**400,))
    path = tmp_path / "model.json"
    save_model(path, random_model(2, seed=3))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "rates": [10**400, 1]}))
    with pytest.raises(ValidationError, match="rates must be finite and non-negative"):
        load_model(path)


def test_trajectory_csv_schema(tmp_path):
    model = random_model(3, seed=6)
    rho0 = random_density(3, seed=7)
    traj = integrate_direct(rho0, model, 0.1, 1e-3, record_every=20)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj, {"method": "direct", "dt": 1e-3})
    lines = path.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("# ")]
    assert "# method = direct" in header
    cols = lines[len(header)].split(",")
    assert cols == ["t", "r_1", "r_2", "purity_R", "trace_error", "min_gap"]
    rows = [ln.split(",") for ln in lines[len(header) + 1 :]]
    assert len(rows) == len(traj.times)
    assert float(rows[0][0]) == 0.0
    for row in rows:
        assert len(row) == 6
        assert 0.0 <= float(row[3]) <= 1.0  # purity column


def ref_trajectory_csv(path, traj, n, header_fields):
    """The csv.writer version of write_trajectory_csv, with its f-string fields."""
    purity = purity_spectrum(probs_stack(traj.r))
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


def test_trajectory_csv_matches_the_csv_module_on_signed_and_zero_gaps(tmp_path):
    # -0.0 prints as "-0" in both, a zero gap as 0.000000e+00; rows end in \r\n
    traj = Trajectory(
        np.array([0.0, 0.1, 0.30000000000000004, 1e-7]).cumsum(),
        np.array([[0.5, 0.25], [-0.0, 0.25], [0.0, 1e-300], [1 / 3, 5e-324]]),
        np.zeros((4, 3, 3), dtype=complex),
        {"trace_error": np.array([0.0, 1e-17, -0.0, 2.5e-13]),
         "min_gap": np.array([0.25, -0.0, 0.0, 5e-324])},
    )
    header = {"version": "x", "method": "direct", "dt": 1e-3, "note": "a, b"}
    write_trajectory_csv(tmp_path / "new.csv", traj, header)
    ref_trajectory_csv(tmp_path / "ref.csv", traj, 3, header)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert b",-0," in new and b",0.000000e+00\r\n" in new


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("integrate", [integrate_direct, integrate_split])
def test_trajectory_csv_is_byte_identical_to_the_csv_module(tmp_path, n, integrate):
    traj = integrate(random_density(n, seed=n), random_model(n, seed=n), 0.01, 1e-3)
    header = {"method": integrate.__name__, "dt": 1e-3, "t_end": 0.01}
    write_trajectory_csv(tmp_path / "new.csv", traj, header)
    ref_trajectory_csv(tmp_path / "ref.csv", traj, n, header)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
