"""GKLS integration: direct vs split, closed forms, factorization, IO."""

import math

import numpy as np
import pytest

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
    frame_generator,
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
    euler_omega,
    qubit_frame,
    random_density,
    random_model,
    so3_euler,
)
from specang.spectral import jacobian_matrix, spectral_diagonal
from conftest import interior_gaps


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


def test_generator_structure(rng):
    model = random_model(3, seed=1)
    rho = random_density(3, seed=2).rho
    d = dissipator(rho, model)
    full = lindblad_rhs(rho, model)
    for mat in (d, full):
        assert abs(np.trace(mat)) < 1e-12
        assert np.linalg.norm(mat - mat.conj().T) < 1e-12


def matrix_generator(rho, model):
    """-i[H, rho] + dissipator in matrix form, the reference for the Liouvillian."""
    return -1j * (model.H @ rho - rho @ model.H) + dissipator(rho, model)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_liouvillian_matches_matrix_generator(n):
    rng = np.random.default_rng(n)
    H = random_model(n, seed=n).H
    L = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
    models = (
        random_model(n, seed=n),
        LindbladModel(n, H, tuple(L), (0.7, 0.0, 1.3)),  # one zero rate
        LindbladModel(n, H, (), ()),  # no jumps: -i[H, rho] alone
    )
    for model in models:
        for seed in range(3):
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for rho in (random_density(n, seed=seed).rho, X):
                expect = matrix_generator(rho, model)
                assert np.max(np.abs(lindblad_rhs(rho, model) - expect)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frame_generator_matches_rotated_dissipator_off_manifold(n):
    # RK4 stages evaluate the split RHS at U + eps X, where U^dag U != 1; the
    # frame form must still equal U^dag D(U P U^dag) U there
    rng = np.random.default_rng(10 + n)
    model = random_model(n, seed=n)
    U = sample_flag(n, seed=n).U
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    V = U + 0.1 * X
    assert np.linalg.norm(V.conj().T @ V - np.eye(n)) > 1e-2
    p = 1.0 / n + jacobian_matrix(n) @ interior_gaps(n, rng).r
    Ht, Lt = frame_generator(V, p, model)
    Vd = V.conj().T
    rho = (V * p) @ Vd
    assert np.max(np.abs(Ht - Vd @ model.H @ V)) < 1e-12
    assert np.max(np.abs(Lt - Vd @ dissipator(rho, model) @ V)) < 1e-12
    # a stack of spectra gives the stack of values
    ps = np.stack([p, p[::-1]])
    _, Ls = frame_generator(V, ps, model)
    for q, Lq in zip(ps, Ls):
        assert np.max(np.abs(Lq - Vd @ dissipator((V * q) @ Vd, model) @ V)) < 1e-12


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


@pytest.mark.parametrize("n", [2, 3, 4])
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
    model = random_model(n, seed=20 + n)
    rho0 = random_density(n, seed=30 + n)
    dt, steps, every = 1e-2, 40, 8
    traj = integrate_direct(rho0, model, steps * dt, dt, record_every=every)
    rho = rho0.rho.astype(complex)
    expect = [rho]
    for step in range(1, steps + 1):
        k1 = matrix_generator(rho, model)
        k2 = matrix_generator(rho + 0.5 * dt * k1, model)
        k3 = matrix_generator(rho + 0.5 * dt * k2, model)
        k4 = matrix_generator(rho + dt * k3, model)
        rho = rho + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
        if step % every == 0:
            expect.append(rho)
    assert len(traj.rho) == len(expect)
    assert np.max(np.abs(traj.rho - np.array(expect))) < 1e-13


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


def test_fallback_resumes_from_live_state():
    # amplitude damping closes the gap of diag(0.3, 0.7) at t = ln(7/5)
    L = np.array([[0.0, 1.0], [0.0, 0.0]])
    model = LindbladModel(2, np.zeros((2, 2)), (L,), (1.0,))
    rho0 = DensityMatrix(2, np.diag([0.3, 0.7]))
    for record_every in (1, 10, 100):
        direct = integrate_direct(rho0, model, 1.0, 1e-3, record_every)
        split = integrate_split(rho0, model, 1.0, 1e-3, record_every, fallback_direct=True)
        assert split.breakdown_time == pytest.approx(0.336)
        assert len(split.times) == len(direct.times)
        assert np.linalg.norm(split.rho[-1] - direct.rho[-1]) < 1e-12


def test_record_checks_raise_at_the_record():
    # split: one RK4 step at an unstable dt leaves R_{n-1}; the record after
    # it fails validation, and a run that skips that record breaks down at
    # the next step instead
    model = random_model(2, seed=3, jump_scale=1.0)
    rho0 = random_density(2, seed=503, fill=0.5)
    with pytest.raises(ValidationError, match="non-negative"):
        integrate_split(rho0, model, 0.05, 0.05)
    with pytest.raises(DegenerateSpectrumError, match="t=0.05"):
        integrate_split(rho0, model, 1.0, 0.05, record_every=3)
    model = random_model(2, seed=25, jump_scale=2.0)
    rho0 = random_density(2, seed=525, fill=0.5)
    with pytest.raises(ValidationError, match="exceeds 1"):
        integrate_split(rho0, model, 0.05, 0.05)
    # direct: RK4 just outside its stability region grows the Bloch vector of
    # a unitary qubit; a slow growth first crosses EIG_FLOOR at record 2, a
    # fast one crosses the positivity floor at record 1, which is checked first
    model = LindbladModel(2, np.diag([0.5, -0.5]), (), ())
    rho0 = DensityMatrix(2, 0.5 * np.array([[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]]))
    dt = math.sqrt(8.0 + 2.25e-9)
    integrate_direct(rho0, model, dt, dt)
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        integrate_direct(rho0, model, 2.0 * dt, dt)
    rho0 = DensityMatrix(2, 0.5 * np.array([[1.0, 0.999], [0.999, 1.0]]))
    dt = math.sqrt(8.01)
    with pytest.raises(NumericalBreakdownError, match="positivity violated at t=2.83"):
        integrate_direct(rho0, model, dt, dt)


def test_step_validation():
    model = random_model(2, seed=0)
    rho0 = random_density(2, seed=1)
    with pytest.raises(ValidationError):
        integrate_direct(rho0, model, t_end=-1.0, dt=1e-3)
    with pytest.raises(ValidationError):
        integrate_direct(rho0, model, t_end=1.0, dt=0.0)


def test_trajectory_validation():
    with pytest.raises(ValidationError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), np.zeros((2, 2, 2)))
    with pytest.raises(ValidationError):
        Trajectory(
            np.array([0.0, 1.0]),
            np.zeros((2, 1)),
            np.zeros((2, 2, 2)),
            {"trace_error": np.array([0.0, 1e-3])},
        )


# --- qubit closed form ------------------------------------------------------------


def qubit_split_rates(state, model):
    """Chart rates extracted from the general split machinery."""
    r = GapVector(2, np.array([state.r]))
    U = qubit_frame(state.theta, state.phi)
    sp = SplitState(r, UnitaryFrame(2, U), 0.0)
    r_dot, Omega = split_rhs(sp, model)
    Omega_t = U.conj().T @ Omega @ U
    # chart partials give (U^dag dU/dt)_{12} = e^{-i phi} (-theta_dot/2
    #                                          + i sin(theta/2)cos(theta/2) phi_dot)
    th, ph = state.theta, state.phi
    x = Omega_t[0, 1] * np.exp(1j * ph)
    theta_dot = -2.0 * x.real
    phi_dot = x.imag / (math.sin(th / 2.0) * math.cos(th / 2.0))
    return phi_dot, theta_dot, float(r_dot[0])


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
    model = random_model(2, seed=0)
    with pytest.raises(ValidationError):
        qubit_rhs(QubitAngles(r=0.5, theta=1.0, phi=0.0), model)


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


def test_trajectory_csv_schema(tmp_path):
    model = random_model(3, seed=6)
    rho0 = random_density(3, seed=7)
    traj = integrate_direct(rho0, model, 0.1, 1e-3, record_every=20)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj, 3, {"method": "direct", "dt": 1e-3})
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
