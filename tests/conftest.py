import math

import numpy as np
import pytest

from specang import (
    AngleSet, GapVector, SplitState, UnitaryFrame, jacobian_matrix, pair_indices, split_rhs,
)
from specang.dynamics import qubit_frame
from specang.dynamics import random_interior_gaps as interior_gaps


def random_angles(n, rng, with_torus=False):
    pairs = pair_indices(n)
    theta = {k: float(rng.random() * math.pi) for k in pairs}
    phi = {k: float(rng.random() * 2.0 * math.pi) for k in pairs}
    torus = tuple(rng.random(n - 1) * 2.0 * math.pi) if with_torus else None
    return AngleSet(n, theta, phi, torus)


def fisher_fd(r, h=1e-6):
    """Independent finite-difference route: g_ab = 4 sum_k d_a sqrt(p) d_b sqrt(p)."""
    n = r.n
    M = jacobian_matrix(n)
    J = np.empty((n, n - 1))
    for a in range(n - 1):
        e = np.zeros(n - 1)
        e[a] = h
        pp = 1.0 / n + M @ (r.r + e)
        pm = 1.0 / n + M @ (r.r - e)
        J[:, a] = (np.sqrt(pp) - np.sqrt(pm)) / (2.0 * h)
    return 4.0 * J.T @ J


def qubit_split_rates(state, model):
    """Chart rates (phi_dot, theta_dot, r_dot) extracted from the general split machinery."""
    r = GapVector(2, np.array([state.r]))
    U = qubit_frame(state.theta, state.phi)
    r_dot, Omega = split_rhs(SplitState(r, UnitaryFrame(2, U), 0.0), model)
    # chart partials give (U^dag dU/dt)_{12} = e^{-i phi} (-theta_dot/2
    #                                          + i sin(theta/2)cos(theta/2) phi_dot)
    x = (U.conj().T @ Omega @ U)[0, 1] * np.exp(1j * state.phi)
    theta_dot = -2.0 * x.real
    phi_dot = x.imag / (math.sin(state.theta / 2.0) * math.cos(state.theta / 2.0))
    return phi_dot, theta_dot, float(r_dot[0])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
