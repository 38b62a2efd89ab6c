"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every test computes its figure of merit, prints a single summary line, and
asserts at the stated tolerance.  Tolerances and sample sizes are fixed here
and not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np

from specang import (
    GapVector,
    LindbladModel,
    SplitState,
    UnitaryFrame,
    cartan_matrix,
    coset_unitary,
    dissipator,
    eigendecompose_ordered,
    fisher_metric_r,
    flag_density_theta,
    fundamental_coweights,
    inverse_cartan,
    inverse_cartan_exact,
    integrate_direct,
    integrate_split,
    jacobian_matrix,
    lindblad_rhs,
    ordered_simplex_volume,
    pair_indices,
    purity_gap,
    purity_trace_norm,
    qubit_rhs,
    qutrit_unitary_closed_form,
    real_qutrit_rhs,
    rejection_volume_estimate,
    resolution_check,
    sample_flags,
    split_rhs,
    weighted_simplex_volume,
)
from specang import PAULI, QubitAngles, QutritEuler
from specang.dynamics import (
    euler_omega,
    random_density,
    random_model,
    so3_euler,
)
from conftest import fisher_fd, interior_gaps, qubit_split_rates, random_angles


def report(num, name, ok, detail):
    print(f"\n[criterion {num:02d}] {name}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -----------------------------------------------------------------------------


def test_criterion_01_volume_identities():
    ok = weighted_simplex_volume(3) == Fraction(1, 4)
    ok &= weighted_simplex_volume(4) == Fraction(1, 36)
    for n in range(2, 11):
        ok &= ordered_simplex_volume(n) == Fraction(
            1, math.factorial(n) * math.factorial(n - 1)
        )
        ok &= weighted_simplex_volume(n) == Fraction(1, math.factorial(n - 1) ** 2)
        ok &= weighted_simplex_volume(n) / ordered_simplex_volume(n) == n
    t0 = time.time()
    mc = []
    for n in (3, 4, 5):
        est, se = rejection_volume_estimate(n, 1_000_000, seed=100 + n)
        dev = abs(est - float(weighted_simplex_volume(n)))
        mc.append(dev / se)
        ok &= dev < 3.0 * se
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(
        1,
        "volume identities",
        ok,
        f"exact rationals n<=10, ratio=n; MC deviations {max(mc):.2f} sigma max at N=1e6",
    )


def test_criterion_02_coweight_algebra():
    worst = 0.0
    ok = True
    for n in range(2, 9):
        omega = fundamental_coweights(n).omega
        M = jacobian_matrix(n)
        C = cartan_matrix(n)
        cinv = inverse_cartan_exact(n)
        # (1) basis of the traceless diagonal subalgebra
        stack = np.array([np.diag(w) for w in omega])
        ok &= np.linalg.matrix_rank(stack) == n - 1
        ok &= float(np.max(np.abs(stack.sum(axis=1)))) < 1e-14
        H = [
            np.diag([1.0 * (k == j) - 1.0 * (k == j + 1) for k in range(n)])
            for j in range(n - 1)
        ]
        for a, w in enumerate(omega, start=1):
            d = np.diag(w)
            for j in range(1, n):
                # (2) simple roots are dual to the coweights
                worst = max(
                    worst, abs((d[j - 1] - d[j]) - (1.0 if j == a else 0.0))
                )
                # (3) adjoint action on root vectors
                E = np.zeros((n, n))
                E[j - 1, j] = 1.0
                comm = w @ E - E @ w
                worst = max(
                    worst,
                    float(np.max(np.abs(comm - (1.0 if a == j else 0.0) * E))),
                )
            # (4) change of basis to simple coroots, both directions
            expansion = sum(float(cinv[a - 1][j]) * H[j] for j in range(n - 1))
            worst = max(worst, float(np.max(np.abs(w - expansion))))
            # (5) Jacobian identity
            worst = max(worst, float(np.max(np.abs(np.diag(w) - M[:, a - 1]))))
            # (6) compact real form: i*omega is anti-Hermitian and traceless
            iw = 1j * w
            worst = max(worst, float(np.max(np.abs(iw + iw.conj().T))))
            worst = max(worst, abs(np.trace(iw)))
        for j in range(n - 1):
            back = sum(C[j, a] * omega[a] for a in range(n - 1))
            worst = max(worst, float(np.max(np.abs(back - H[j]))))
        # exact rational inverse of the Cartan matrix
        for i in range(n - 1):
            for j in range(n - 1):
                s = sum(Fraction(int(C[i, k])) * cinv[k][j] for k in range(n - 1))
                ok &= s == (1 if i == j else 0)
    ok &= worst < 1e-14
    report(2, "coweight algebra", ok, f"items 1-6 for n<=8, worst error {worst:.2e}")


def test_criterion_03_fisher_metric():
    worst_origin = 0.0
    for n in range(2, 7):
        g0 = fisher_metric_r(GapVector(n, np.zeros(n - 1))).g
        worst_origin = max(
            worst_origin, float(np.max(np.abs(g0 - n * inverse_cartan(n))))
        )
    rng = np.random.default_rng(303)
    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        r = interior_gaps(n, rng, fill=float(0.2 + 0.6 * rng.random()))
        g = fisher_metric_r(r).g
        worst_rel = max(
            worst_rel, float(np.max(np.abs(g - fisher_fd(r))) / np.max(np.abs(g)))
        )
    ok = worst_origin < 1e-13 and worst_rel < 1e-6
    report(
        3,
        "Fisher-Rao metric",
        ok,
        f"origin vs n*C^-1 max dev {worst_origin:.2e}; "
        f"finite-difference rel err {worst_rel:.2e} over 100 interior points",
    )


def test_criterion_04_kl_hessian():
    worst = 0.0
    h = 1e-4
    for n in range(2, 7):
        M = jacobian_matrix(n)

        def kl_raw(r_vec):
            p = 1.0 / n + M @ r_vec
            return float(np.sum(p * np.log(n * p)))

        m = n - 1
        hess = np.empty((m, m))
        f0 = kl_raw(np.zeros(m))
        for a in range(m):
            ea = np.zeros(m)
            ea[a] = h
            hess[a, a] = (kl_raw(ea) - 2.0 * f0 + kl_raw(-ea)) / h**2
            for b in range(a + 1, m):
                eb = np.zeros(m)
                eb[b] = h
                hess[a, b] = hess[b, a] = (
                    kl_raw(ea + eb) - kl_raw(ea - eb) - kl_raw(-ea + eb) + kl_raw(-ea - eb)
                ) / (4.0 * h**2)
        g0 = fisher_metric_r(GapVector(n, np.zeros(m))).g
        worst = max(worst, float(np.max(np.abs(hess - g0))))
    ok = worst < 1e-5
    report(
        4,
        "KL Hessian at the origin",
        ok,
        f"central-difference Hessian vs Fisher metric, max dev {worst:.2e} (n=2..6)",
    )


def test_criterion_05_purity():
    N = 100_000
    worst = 0.0
    ok = True
    for n in range(2, 7):
        rng = np.random.default_rng(5000 + n)
        a = np.arange(1, n, dtype=float)
        x = 0.5 + rng.random((N, n - 1))
        fill = 0.05 + 0.9 * rng.random((N, 1))
        r = x * fill / (x @ a)[:, None]
        M = jacobian_matrix(n)
        p = 1.0 / n + r @ M.T
        frames = sample_flags(n, N, seed=600 + n)
        rho = np.einsum("bik,bk,bjk->bij", frames, p, frames.conj())
        eig = np.linalg.eigvalsh(rho)
        via_matrix = n / (2.0 * (n - 1)) * np.sum(np.abs(eig - 1.0 / n), axis=1)
        dev = p - 1.0 / n
        kstar = np.sum(dev > 0.0, axis=1)  # p is descending: count above 1/n
        cinv = inverse_cartan(n)
        via_gaps = n / (n - 1.0) * np.einsum("ba,ba->b", r, cinv.T[kstar - 1])
        worst = max(worst, float(np.max(np.abs(via_matrix - via_gaps))))
        # tie the batched computation to the public scalar API
        for b in range(50):
            assert abs(purity_trace_norm(rho[b]) - via_matrix[b]) < 1e-13
            assert abs(purity_gap(GapVector(n, r[b])) - via_gaps[b]) < 1e-13
    ok &= worst < 1e-12
    # extremes, mixing linearity, convexity
    extreme = 0.0
    for n in range(2, 7):
        pure = np.zeros(n - 1)
        pure[0] = 1.0
        extreme = max(extreme, abs(purity_gap(GapVector(n, pure)) - 1.0))
        extreme = max(extreme, abs(purity_trace_norm(np.eye(n) / n)))
    ok &= extreme < 1e-14
    rng = np.random.default_rng(55)
    mix_dev = 0.0
    convex_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        frames = sample_flags(n, 2, seed=int(rng.integers(1 << 30)))
        rho1 = (frames[0] * (1.0 / n + jacobian_matrix(n) @ interior_gaps(n, rng).r)) @ frames[0].conj().T
        rho2 = (frames[1] * (1.0 / n + jacobian_matrix(n) @ interior_gaps(n, rng).r)) @ frames[1].conj().T
        s = float(rng.random())
        mixed = (1.0 - s) * np.eye(n) / n + s * rho1
        mix_dev = max(
            mix_dev, abs(purity_trace_norm(mixed) - s * purity_trace_norm(rho1))
        )
        lam = float(rng.random())
        convex_ok &= (
            purity_trace_norm(lam * rho1 + (1.0 - lam) * rho2)
            <= lam * purity_trace_norm(rho1)
            + (1.0 - lam) * purity_trace_norm(rho2)
            + 1e-12
        )
    ok &= mix_dev < 1e-12 and convex_ok
    report(
        5,
        "purity functional",
        ok,
        f"two routes agree to {worst:.2e} on 1e5 states per n=2..6; "
        f"extremes dev {extreme:.1e}; mixing linearity dev {mix_dev:.1e}; "
        f"convexity {'holds' if convex_ok else 'violated'}",
    )


def test_criterion_06_qutrit_unitary():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(1000):
        angles = random_angles(3, rng)
        worst = max(
            worst,
            float(
                np.max(
                    np.abs(coset_unitary(angles).U - qutrit_unitary_closed_form(angles))
                )
            ),
        )
    worst_unitary = worst_det = 0.0
    for n in range(2, 7):
        for _ in range(50):
            U = coset_unitary(random_angles(n, rng)).U
            worst_unitary = max(
                worst_unitary, float(np.linalg.norm(U.conj().T @ U - np.eye(n)))
            )
            worst_det = max(worst_det, abs(np.linalg.det(U) - 1.0))
        for U in sample_flags(n, 200, seed=660 + n):
            worst_unitary = max(
                worst_unitary, float(np.linalg.norm(U.conj().T @ U - np.eye(n)))
            )
            worst_det = max(worst_det, abs(np.linalg.det(U) - 1.0))
    ok = worst < 1e-12 and worst_unitary < 1e-12 and worst_det < 1e-12
    report(
        6,
        "qutrit unitary closed form",
        ok,
        f"product vs closed form max dev {worst:.2e} over 1e3 draws; "
        f"unitarity {worst_unitary:.2e}, det {worst_det:.2e} for n<=6",
    )


def test_criterion_07_resolution_of_identity():
    ok = True
    details = []
    for n in (2, 3, 4):
        t0 = time.time()
        errs = {}
        for N in (1_000, 10_000, 100_000):
            errs[N] = max(
                resolution_check(n, i, N, seed=700 + 10 * n + i)[1]
                for i in range(1, n + 1)
            )
        elapsed = time.time() - t0
        ok &= errs[100_000] < 0.05
        ratio = errs[1_000] / errs[100_000]
        # two decades of N: expect ~x10 shrinkage, allow wide MC slack
        ok &= 3.0 < ratio < 35.0
        ok &= elapsed < 30.0
        details.append(f"n={n}: err(1e5)={errs[100_000]:.4f}, shrink x{ratio:.1f}")
    report(7, "resolution of identity", ok, "; ".join(details))


def test_criterion_08_flag_measure_normalization():
    ok = True
    details = []
    for n in (2, 3):
        rng = np.random.default_rng(800 + n)
        m = len(pair_indices(n))
        N = 200_000
        thetas = rng.random((N, m)) * math.pi
        vals = flag_density_theta(n, thetas)
        box = (2.0 * math.pi**2) ** m
        est = box * float(vals.mean())
        se = box * float(vals.std(ddof=1)) / math.sqrt(N)
        ok &= abs(est - 1.0) < 3.0 * se
        details.append(f"n={n}: {est:.4f} +- {se:.4f}")
    report(8, "flag measure normalization", ok, "; ".join(details))


def test_criterion_09_gkls_equivalence():
    worst_div = 0.0
    for n in (2, 3, 4):
        for seed in range(20):
            model = random_model(n, seed=900 + seed)
            rho0 = random_density(n, seed=950 + seed)
            direct = integrate_direct(rho0, model, 1.0, 1e-3, record_every=100)
            split = integrate_split(rho0, model, 1.0, 1e-3, record_every=100)
            div = max(
                float(np.linalg.norm(a - b))
                for a, b in zip(direct.rho, split.rho)
            )
            worst_div = max(worst_div, div)
    worst_rhs = 0.0
    rng = np.random.default_rng(909)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        model = random_model(n, seed=int(rng.integers(1 << 30)))
        rho = random_density(n, seed=int(rng.integers(1 << 30)))
        r, frame = eigendecompose_ordered(rho)
        r_dot, Omega = split_rhs(SplitState(r, frame, 0.0), model)
        U = frame.U
        recon = (U * (jacobian_matrix(n) @ r_dot)) @ U.conj().T
        recon += Omega @ rho.rho - rho.rho @ Omega
        worst_rhs = max(worst_rhs, float(np.max(np.abs(recon - lindblad_rhs(rho, model)))))
    ok = worst_div < 1e-6 and worst_rhs < 1e-10
    report(
        9,
        "split vs direct GKLS",
        ok,
        f"trajectory divergence {worst_div:.2e} over 20 models x n=2,3,4 on [0,1]; "
        f"RHS identity {worst_rhs:.2e} on 1e3 pairs",
    )


def test_criterion_10_qubit_closed_form():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(200):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        model = LindbladModel(2, 0.5 * (A + A.conj().T), PAULI, tuple(rng.random(3)))
        state = QubitAngles(
            r=0.2 + 0.6 * float(rng.random()),
            theta=0.3 + 2.4 * float(rng.random()),
            phi=float(rng.random()) * 2.0 * math.pi,
        )
        worst = max(
            worst,
            float(
                np.max(
                    np.abs(
                        np.array(qubit_rhs(state, model))
                        - np.array(qubit_split_rates(state, model))
                    )
                )
            ),
        )
    # depolarizing decay: all rates 1 gives r(t) = r(0) exp(-4t)
    depol = LindbladModel(2, np.zeros((2, 2)), PAULI, (1.0, 1.0, 1.0))
    rho0 = random_density(2, seed=77, fill=0.8)
    traj = integrate_split(rho0, depol, 1.0, 1e-3, record_every=10)
    radii = traj.r[:, 0]
    slope = np.polyfit(traj.times, np.log(radii), 1)[0]
    # radial contraction on an angular grid with random non-negative rates
    grid_model = LindbladModel(2, np.zeros((2, 2)), PAULI, tuple(rng.random(3)))
    grid_ok = True
    for th in np.linspace(0.02, math.pi - 0.02, 50):
        for ph in np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False):
            grid_ok &= qubit_rhs(QubitAngles(0.5, th, ph), grid_model)[2] <= 1e-15
    ok = worst < 1e-10 and abs(slope + 4.0) < 1e-3 and grid_ok
    report(
        10,
        "qubit closed form",
        ok,
        f"rates vs split machinery {worst:.2e} over 200 draws; "
        f"depolarizing fitted rate {slope:.6f} (expect -4); "
        f"r_dot <= 0 on 50x50 grid {'holds' if grid_ok else 'violated'}",
    )


def test_criterion_11_real_qutrit():
    rng = np.random.default_rng(1111)
    worst = 0.0
    worst_fd = 0.0
    for _ in range(100):
        a = rng.standard_normal(3)
        A = np.array([[0.0, a[0], a[1]], [-a[0], 0.0, a[2]], [-a[1], -a[2], 0.0]])
        jumps = tuple(0.3 * rng.standard_normal((3, 3)) for _ in range(2))
        model = LindbladModel(3, 1j * A, jumps, (1.0, 1.0))
        state = QutritEuler(
            r1=0.1 + 0.2 * float(rng.random()),
            r2=0.1 + 0.15 * float(rng.random()),
            alpha=float(rng.random()) * 2.0 * math.pi,
            beta=0.3 + 2.4 * float(rng.random()),
            gamma=float(rng.random()) * 2.0 * math.pi,
        )
        rates = real_qutrit_rhs(state, A, lambda rho: dissipator(rho, model))
        U = so3_euler(state.alpha, state.beta, state.gamma)
        sp = SplitState(
            GapVector(3, np.array([state.r1, state.r2])), UnitaryFrame(3, U), 0.0
        )
        r_dot, Omega = split_rhs(sp, model)
        worst = max(worst, abs(rates[3] - r_dot[0]), abs(rates[4] - r_dot[1]))
        body = euler_omega(state.alpha, state.beta, state.gamma, *rates[:3])
        worst = max(worst, float(np.max(np.abs(U.T @ Omega.real @ U - body))))
        # closed-form body generator vs central-difference U^T dU/dt
        h = 1e-6
        vals = (state.alpha, state.beta, state.gamma)
        Up = so3_euler(*(v + h * d for v, d in zip(vals, rates[:3])))
        Um = so3_euler(*(v - h * d for v, d in zip(vals, rates[:3])))
        fd = U.T @ ((Up - Um) / (2.0 * h))
        worst_fd = max(worst_fd, float(np.max(np.abs(body - fd))))
    ok = worst < 1e-10 and worst_fd < 1e-6
    report(
        11,
        "real qutrit closed form",
        ok,
        f"Euler rates vs split machinery {worst:.2e} over 100 draws; "
        f"generator vs finite differences {worst_fd:.2e}",
    )


def test_criterion_12_spectral_invariance():
    rng = np.random.default_rng(1212)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        model = random_model(n, seed=int(rng.integers(1 << 30)))
        rho = random_density(n, seed=int(rng.integers(1 << 30)))
        r, frame = eigendecompose_ordered(rho)
        state = SplitState(r, frame, 0.0)
        r_dot, _ = split_rhs(state, model)
        for _ in range(3):
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            other = LindbladModel(
                n, 0.5 * (B + B.conj().T), model.jumps, model.rates
            )
            r_dot2, _ = split_rhs(state, other)
            worst = max(worst, float(np.max(np.abs(r_dot - r_dot2))))
    ok = worst < 1e-12
    report(
        12,
        "spectral flow invariant under Hamiltonian change",
        ok,
        f"max |delta r_dot| = {worst:.2e} over 100 states x 3 replacements",
    )
