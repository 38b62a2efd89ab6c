"""SU(n) factors, flag sampling, invariant measure and quantization."""

import collections
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import specang
from specang import (
    PAULI,
    AngleSet,
    DegenerateSpectrumError,
    DensityMatrix,
    GapVector,
    MetricTensor,
    ProbVector,
    UnitaryFrame,
    ValidationError,
    assemble_density,
    cartan_generator,
    coset_unitaries,
    coset_unitary,
    density_stack,
    eigendecompose_ordered,
    embedded_generator,
    flag_density,
    flag_density_theta,
    flag_volume,
    full_unitary,
    probs_from_gaps,
    quantize,
    qutrit_unitaries_closed_form,
    qutrit_unitary_closed_form,
    resolution_check,
    rotation_factor,
    sample_flag,
    sample_flags,
    spectral_diagonal,
    state_space_volume,
    weighted_simplex_volume,
)
from specang.dynamics import random_density
from specang.errors import MEMORY_LIMIT
from specang.flags import FRAME_AXIS_COST, pair_indices, torus_element
from conftest import interior_gaps, random_angles


# --- generators ------------------------------------------------------------


def test_embedded_generators_are_pauli_algebra():
    n = 4
    for (i, j) in pair_indices(n):
        s1 = embedded_generator(n, i, j, 1)
        s2 = embedded_generator(n, i, j, 2)
        s3 = embedded_generator(n, i, j, 3)
        for s in (s1, s2, s3):
            assert np.allclose(s, s.conj().T)
            assert abs(np.trace(s)) < 1e-15
        # [s1, s2] = 2i s3 within the embedded plane
        assert np.allclose(s1 @ s2 - s2 @ s1, 2j * s3, atol=1e-15)


@pytest.mark.parametrize("n", range(2, 6))
def test_embedded_generator_places_the_pauli_matrix(n):
    # sigma_k on rows and columns (i, j), zero everywhere else
    for (i, j) in pair_indices(n):
        plane = np.ix_((i - 1, j - 1), (i - 1, j - 1))
        for k in (1, 2, 3):
            g = embedded_generator(n, i, j, k)
            assert np.array_equal(g[plane], PAULI[k - 1])
            assert np.array_equal(embedded_generator(n, i, j, float(k)), g)
            g[plane] = 0.0
            assert not g.any()


def test_pauli_is_one_object():
    assert specang.PAULI is specang.flags.PAULI is specang.dynamics.PAULI


def test_embedded_generator_validation():
    with pytest.raises(ValidationError):
        embedded_generator(3, 2, 2, 1)
    with pytest.raises(ValidationError):
        embedded_generator(3, 1, 2, 4)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: flag_volume(-3), "dimension must be an integer >= 2, got -3"),
        (lambda: flag_volume(1.5), "dimension must be an integer >= 2, got 1.5"),
        (lambda: flag_density_theta(1.5, [0.3]), "dimension must be an integer >= 2, got 1.5"),
        (lambda: rotation_factor(3, 1, 2.0, 0.3, 0.2), "j must be an integer in 2..3, got 2.0"),
        (lambda: rotation_factor(3, 2, 2, 0.3, 0.2), "i must be an integer in 1..1, got 2"),
        (lambda: embedded_generator(3, 1.0, 2, 1), "i must be an integer in 1..1, got 1.0"),
        (lambda: cartan_generator(3, 1.5), "ell must be an integer in 1..2, got 1.5"),
        (lambda: cartan_generator(3, 3), "ell must be an integer in 1..2, got 3"),
        (lambda: resolution_check(3, 1.5, 10, 0),
         "column index must be an integer in 1..3, got 1.5"),
        (lambda: torus_element(3, [0.1]), "torus phases must have length n-1"),
        (lambda: torus_element(3, 0.1), "torus phases must have length n-1"),
        (lambda: torus_element(3, [0.1, math.nan]),
         "torus phases must be finite, got the entry nan"),
        (lambda: pair_indices(2.5), "dimension must be an integer >= 2, got 2.5"),
        (lambda: pair_indices(-1), "dimension must be an integer >= 2, got -1"),
        (lambda: AngleSet(1.5, {}, {}), "dimension must be an integer >= 2, got 1.5"),
        (lambda: coset_unitaries(2.5, [0.3], [0.2]), "dimension must be an integer >= 2, got 2.5"),
        (lambda: torus_element(1, []), "dimension must be an integer >= 2, got 1"),
        (lambda: torus_element(True, []), "dimension must be an integer >= 2, got True"),
        (lambda: resolution_check(1, 1, 10, 0), "dimension must be an integer >= 2, got 1"),
        (lambda: resolution_check(0, 1, 10, 0), "dimension must be an integer >= 2, got 0"),
    ],
    ids=[
        "volume-negative", "volume-float", "density-float", "rotation-float",
        "rotation-range", "generator-float", "cartan-float", "cartan-range",
        "column-float", "torus-length", "torus-scalar", "torus-nan", "pairs-float",
        "pairs-negative", "angles-float", "coset-float", "torus-one-level", "torus-bool",
        "column-one-level", "column-zero-level",
    ],
)
def test_index_arguments_are_integers_in_range(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("n", range(2, 7))
def test_cartan_generators_trace_orthonormal(n):
    gens = [cartan_generator(n, ell) for ell in range(1, n)]
    for a, A in enumerate(gens):
        assert abs(np.trace(A)) < 1e-14
        for b, B in enumerate(gens):
            assert np.trace(A @ B) == pytest.approx(1.0 if a == b else 0.0, abs=1e-14)


# --- rotation factors and coset products ------------------------------------


def test_rotation_factor_identity_at_zero():
    assert np.allclose(rotation_factor(3, 1, 2, 0.0, 1.0).U, np.eye(3))


@given(n=st.integers(2, 6), theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=30, deadline=None)
def test_rotation_factor_matches_exponential(n, theta, phi):
    # the independent oracle of the one factor: the coset product of
    # test_coset_unitaries_match_the_rotation_product is checked against it
    from scipy.linalg import expm

    for i, j in pair_indices(n):
        s2 = embedded_generator(n, i, j, 2)
        s3 = embedded_generator(n, i, j, 3)
        expect = expm(-0.5j * phi * s3) @ expm(-0.5j * theta * s2) @ expm(0.5j * phi * s3)
        assert np.allclose(rotation_factor(n, i, j, theta, phi).U, expect, atol=1e-13)


def test_angle_set_validation():
    pairs = pair_indices(3)
    theta = {k: 0.5 for k in pairs}
    phi = {k: 0.5 for k in pairs}
    AngleSet(3, theta, phi)
    with pytest.raises(ValidationError):
        AngleSet(3, {**theta, (1, 2): 4.0}, phi)  # theta outside [0, pi]
    with pytest.raises(ValidationError):
        AngleSet(3, theta, {**phi, (1, 3): 7.0})  # phi outside [0, 2pi)
    with pytest.raises(ValidationError):
        AngleSet(3, {(1, 2): 0.5}, phi)  # missing keys


@pytest.mark.parametrize(
    "theta, phi, torus, message",
    [
        (0.3, 0.2, (math.nan,), "^torus phases must be finite, got the entry nan$"),
        (0.3, 0.2, (-math.inf,), "^torus phases must be finite, got the entry -inf$"),
        (0.3, 0.2, ("abc",), "^torus phases must be an array of numbers: "),
        (0.3, 0.2, (0.1, 0.2), "^torus phases must have length n-1$"),
        (0.3, 0.2, 0.5, "^torus phases must have length n-1$"),
        ("x", 0.2, None, r"^theta\(1, 2\) must be a real number, got 'x'$"),
        (None, 0.2, None, r"^theta\(1, 2\) must be a real number, got None$"),
        (np.array([0.1, 0.2]), 0.2, None, r"^theta\(1, 2\) must be a real number, got array"),
        (0.3, 1j, None, r"^phi\(1, 2\) must be a real number, got 1j$"),
        (0.3, 7.0, None, r"^phi\(1, 2\) = 7.0 outside \[0, 2pi\)$"),
    ],
    ids=["torus-nan", "torus-inf", "torus-string", "torus-length", "torus-scalar", "theta-string",
         "theta-none", "theta-array", "phi-complex", "phi-range"],
)
def test_angle_set_names_the_bad_field(theta, phi, torus, message):
    # a bad torus phase fails here, not later in full_unitary as a non-finite frame
    with pytest.raises(ValidationError, match=message):
        AngleSet(2, {(1, 2): theta}, {(1, 2): phi}, torus)


def test_torus_element_names_a_phase_that_is_not_a_number():
    # read as AngleSet reads its torus phases: the length, then the entries
    with pytest.raises(ValidationError, match="^torus phases must be an array of numbers: "):
        torus_element(3, ["a", 0.1])


def test_coset_unitary_is_ordered_product(rng):
    angles = random_angles(4, rng)
    U = np.eye(4, dtype=complex)
    for (i, j) in pair_indices(4):
        U = U @ rotation_factor(4, i, j, angles.theta[(i, j)], angles.phi[(i, j)]).U
    assert np.allclose(coset_unitary(angles).U, U, atol=1e-14)


def _angle_stacks(n, shape, seed):
    """theta in [0, pi], phi in [0, 2pi) stacks of shape (*shape, n(n-1)/2)."""
    rng = np.random.default_rng(seed)
    m = len(pair_indices(n))
    return rng.random((*shape, m)) * math.pi, rng.random((*shape, m)) * 2.0 * math.pi


def _angle_set(n, theta, phi):
    pairs = pair_indices(n)
    return AngleSet(n, dict(zip(pairs, map(float, theta))), dict(zip(pairs, map(float, phi))))


@given(
    n=st.integers(2, 6),
    shape=st.sampled_from([(), (1,), (4,), (2, 3), (0,)]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_coset_unitaries_match_the_rotation_product(n, shape, seed):
    theta, phi = _angle_stacks(n, shape, seed)
    stack = coset_unitaries(n, theta, phi)
    assert stack.shape == (*shape, n, n)
    for idx in np.ndindex(*shape):
        product = np.eye(n, dtype=complex)
        for k, (i, j) in enumerate(pair_indices(n)):
            product = product @ rotation_factor(n, i, j, theta[idx][k], phi[idx][k]).U
        assert np.allclose(stack[idx], product, rtol=0, atol=1e-14)
        angles = _angle_set(n, theta[idx], phi[idx])
        assert np.allclose(stack[idx], coset_unitary(angles).U, rtol=0, atol=1e-14)


@pytest.mark.parametrize("shape", [(), (2, 3), (0,)])
def test_qutrit_unitaries_closed_form_match_the_product(shape):
    theta, phi = _angle_stacks(3, shape, seed=7)
    closed = qutrit_unitaries_closed_form(theta, phi)
    assert closed.shape == (*shape, 3, 3)
    assert np.allclose(closed, coset_unitaries(3, theta, phi), rtol=0, atol=1e-14)
    for idx in np.ndindex(*shape):
        angles = _angle_set(3, theta[idx], phi[idx])
        assert np.allclose(closed[idx], qutrit_unitary_closed_form(angles), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", range(2, 7))
def test_coset_and_full_unitary_special(n, rng):
    for _ in range(10):
        U = coset_unitary(random_angles(n, rng)).U
        assert np.linalg.norm(U.conj().T @ U - np.eye(n)) < 1e-13
        assert abs(np.linalg.det(U) - 1.0) < 1e-13
        V = full_unitary(random_angles(n, rng, with_torus=True)).U
        assert np.linalg.norm(V.conj().T @ V - np.eye(n)) < 1e-13
        assert abs(np.linalg.det(V) - 1.0) < 1e-13


def test_full_unitary_needs_torus(rng):
    with pytest.raises(ValidationError):
        full_unitary(random_angles(3, rng, with_torus=False))


def test_torus_element_diagonal_special():
    d = torus_element(4, [0.3, 1.2, 2.1])
    assert np.allclose(d, np.diag(np.diag(d)))
    assert abs(np.linalg.det(d) - 1.0) < 1e-13


def test_qutrit_closed_form(rng):
    for _ in range(50):
        angles = random_angles(3, rng)
        assert np.allclose(
            coset_unitary(angles).U,
            qutrit_unitary_closed_form(angles),
            atol=1e-13,
        )


def test_qutrit_closed_form_rejects_other_n(rng):
    with pytest.raises(ValidationError):
        qutrit_unitary_closed_form(random_angles(4, rng))


# --- assembly and eigendecomposition ----------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_assemble_eigendecompose_round_trip(n, rng):
    for trial in range(5):
        r = interior_gaps(n, rng)
        frame = sample_flag(n, 100 + trial)
        rho = assemble_density(r, frame)
        r2, frame2 = eigendecompose_ordered(rho)
        assert np.allclose(r2.r, r.r, atol=1e-12)
        assert np.allclose(frame2.U, frame.U, atol=1e-10)
        rho2 = assemble_density(r2, frame2)
        assert np.allclose(rho2.rho, rho.rho, atol=1e-12)


def test_assemble_accepts_angles(rng):
    angles = random_angles(3, rng)
    r = interior_gaps(3, rng)
    direct = assemble_density(r, coset_unitary(angles))
    via_angles = assemble_density(r, angles)
    assert np.allclose(direct.rho, via_angles.rho)


def test_density_stack_matches_per_frame_assembly(rng):
    n, count = 4, 20
    frames = sample_flags(n, count, seed=5)
    gaps = [interior_gaps(n, rng) for _ in range(count)]
    p = np.array([probs_from_gaps(r).p for r in gaps])
    stack = density_stack(p, frames)
    assert stack.shape == (count, n, n)
    for U, r, rho in zip(frames, gaps, stack):
        expect = np.eye(n) / n + U @ spectral_diagonal(r) @ U.conj().T
        assert np.max(np.abs(rho - expect)) < 1e-14


def test_eigendecompose_degenerate_raises():
    with pytest.raises(DegenerateSpectrumError):
        eigendecompose_ordered(DensityMatrix(3, np.eye(3) / 3.0))


@pytest.fixture
def constructed(monkeypatch):
    """Counter of the validating constructors run, by class name."""
    counts = collections.Counter()
    for cls in (GapVector, ProbVector, UnitaryFrame, DensityMatrix):
        def counted(self, check=cls.__post_init__):
            counts[type(self).__name__] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


def test_library_intermediates_are_not_revalidated(constructed, rng):
    # each public result is validated once; the vectors and frames the
    # library computes on the way to it are not
    rho = random_density(4, seed=1)
    assert constructed == {"GapVector": 1, "UnitaryFrame": 1, "DensityMatrix": 1}
    constructed.clear()
    eigendecompose_ordered(rho)
    assert constructed == {"GapVector": 1, "UnitaryFrame": 1}
    angles = random_angles(3, rng, with_torus=True)
    constructed.clear()
    full_unitary(angles)
    assert constructed == {"UnitaryFrame": 1}
    r = interior_gaps(3, rng)
    constructed.clear()
    quantize(lambda U: 1.0, r, 10, seed=0)
    assert constructed == {}


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(2, np.array([[0.5, 0.5], [0.4, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(2, np.array([[0.8, 0.0], [0.0, 0.4]]))  # trace != 1
    with pytest.raises(ValidationError):
        DensityMatrix(2, np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative eigenvalue


@pytest.mark.parametrize("cls", [DensityMatrix, UnitaryFrame, MetricTensor])
def test_one_level_matrices_are_rejected(cls):
    # n = 1 has no gap vector and no flag, so neither a state, a frame nor a metric
    with pytest.raises(ValidationError, match="^dimension must be an integer >= 2, got 1$"):
        cls(1, [[1.0]])


# --- invariant measure -------------------------------------------------------


def test_flag_density_qubit_closed_form():
    # n = 2: density is sin(theta) / (4 pi)
    for th in (0.3, 1.0, 2.5):
        angles = AngleSet(2, {(1, 2): th}, {(1, 2): 1.0})
        assert flag_density(angles) == pytest.approx(
            math.sin(th) / (4.0 * math.pi), rel=1e-13
        )


def test_flag_density_theta_matches_product_formula(rng):
    for n in (2, 3, 4):
        pref = 1.0
        for m in range(1, n):
            pref *= math.factorial(m) / (4.0 * math.pi) ** m
        angles = [random_angles(n, rng) for _ in range(30)]
        theta = np.array([[a.theta[key] for key in pair_indices(n)] for a in angles])
        stack = flag_density_theta(n, theta)
        assert stack.shape == (30,)
        for a, val in zip(angles, stack):
            expect = pref
            for (i, j), th in a.theta.items():
                expect *= math.sin(th) * math.cos(th / 2.0) ** (2 * (j - i - 1))
            assert val == pytest.approx(expect, rel=1e-13)
            assert flag_density(a) == val


def test_flag_density_normalization_qubit():
    # exact 1D integral of sin(theta)/(4 pi) over the angle box
    from scipy.integrate import quad

    val, _ = quad(lambda th: math.sin(th) / (4.0 * math.pi), 0.0, math.pi)
    assert val * 2.0 * math.pi == pytest.approx(1.0, abs=1e-10)


def test_flag_volumes():
    assert flag_volume(2) == pytest.approx(4.0 * math.pi, rel=1e-13)
    assert flag_volume(3) == pytest.approx((4.0 * math.pi) ** 3 / 2.0, rel=1e-13)
    assert state_space_volume(3) == pytest.approx(
        float(weighted_simplex_volume(3)) * (4.0 * math.pi) ** 3 / 2.0, rel=1e-13
    )


def test_flag_volume_finite_at_large_n():
    # the factorial denominator dominates: the volume stays finite and
    # eventually underflows toward zero rather than overflowing
    assert np.isfinite(flag_volume(40))
    assert flag_volume(100) == 0.0


# --- sampling ----------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sample_flags_shape_and_unitarity(n):
    frames = sample_flags(n, 200, seed=0)
    assert frames.shape == (200, n, n)
    eye = np.eye(n)
    for U in frames[:50]:
        assert np.linalg.norm(U.conj().T @ U - eye) < 1e-12
        assert abs(np.linalg.det(U) - 1.0) < 1e-12


def test_sample_flags_deterministic():
    assert np.array_equal(sample_flags(3, 10, seed=4), sample_flags(3, 10, seed=4))
    assert not np.allclose(sample_flags(3, 10, seed=4), sample_flags(3, 10, seed=5))


def test_sample_flags_empty():
    assert sample_flags(3, 0, seed=0).shape == (0, 3, 3)


def test_sample_flags_one_level():
    # a 1 x 1 "frame" is no flag: it was sampled as 0.9999999999999999
    with pytest.raises(ValidationError, match="^dimension must be an integer >= 2, got 1$"):
        sample_flags(1, 3, seed=0)


def test_sample_flags_negative_count():
    with pytest.raises(ValidationError, match="^count must be an integer >= 0, got -1$"):
        sample_flags(3, -1, seed=0)


def test_sample_flags_count_must_be_an_integer():
    with pytest.raises(ValidationError, match="^count must be an integer >= 0, got 2.5$"):
        sample_flags(3, 2.5, seed=0)


def ginibre_reference(n, count, seed, k):
    """Columns 1..k of the Gram-Schmidt QR of complex Gaussian matrices as a
    (k, count, n) stack, from the complex sum G[0] + 1j G[1] of one whole draw
    copied into a separate contiguous stack: from FRAME_AXIS_COST n^4 frames on,
    (k, n, count) with each pair of columns one vector update over all frames,
    else (k, count, n) with each column two batched products over the frames,
    v P^dag from a conjugated copy of the earlier columns P."""
    G = np.random.default_rng(seed).standard_normal((2, count, n, n))
    Z = G[0, ..., :k] + 1j * G[1, ..., :k]  # (count, n, k)
    if count >= FRAME_AXIS_COST * n**4:
        Q = np.ascontiguousarray(Z.transpose(2, 1, 0))
        for j, v in enumerate(Q):
            for _ in range(2 if j else 0):
                coefficients = [(q.conj() * v).sum(axis=0) for q in Q[:j]]
                for c, q in zip(coefficients, Q[:j]):
                    v -= c * q
            v *= 1.0 / np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=0))
        return Q.swapaxes(1, 2)
    Q = np.ascontiguousarray(Z.transpose(2, 0, 1))
    for j, v in enumerate(Q):
        if j:
            w, P, Ph = v[:, None], Q[:j].transpose(1, 0, 2), Q[:j].conj().transpose(1, 2, 0)
            w -= (w @ Ph) @ P
            w -= (w @ Ph) @ P
        v /= np.sqrt(np.einsum("bi,bi->b", v.view(float), v.view(float)))[:, None]
    return Q


def phase_section_reference(U):
    """Each column's largest-modulus entry real positive, then det = 1 by a
    phase on the last column."""
    rows = np.argmax(np.abs(U), axis=-2)
    lead = np.take_along_axis(U, rows[..., None, :], axis=-2)
    U = U * (np.abs(lead) / lead)
    det = np.linalg.det(U)
    U[..., :, -1] *= (det.conjugate() / np.hypot(det.real, det.imag))[..., None]
    return U


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("count", [1, 7, 4000])
def test_flag_sampling_matches_the_complex_sum_assembly(n, count):
    # the real and imaginary draws fill one complex stack in place, block by
    # block; the frames and the column averages stay bit-identical to the
    # complex sum of one whole draw, on either side of the loop choice
    assert (count >= FRAME_AXIS_COST * n**4) == (count == 4000)
    for seed in range(3):
        frames = ginibre_reference(n, count, seed, n).transpose(1, 2, 0).copy()
        want = phase_section_reference(frames)
        assert np.array_equal(sample_flags(n, count, seed), want)
        for i in range(1, n + 1):
            cols = ginibre_reference(n, count, seed, i)[-1][:, :, None].transpose(2, 1, 0)
            avg = (n * (cols @ cols.conj().swapaxes(-1, -2)) / count)[0]
            got, err = resolution_check(n, i, count, seed)
            assert np.array_equal(got, avg)
            assert err == float(np.linalg.norm(avg - np.eye(n)))


def test_sample_flag_single():
    U = sample_flag(4, seed=9)
    assert np.allclose(U.U, sample_flags(4, 1, seed=9)[0])


def _reference_flags(n, count, seed):
    """sample_flags by LAPACK: the same Gaussian draws, np.linalg.qr, a
    positive R diagonal, then the phase section written out per column."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    Q = Q * (d / np.abs(d))[:, None, :]
    for U in Q:
        for col in U.T:  # views: the largest-modulus entry of each column real positive
            lead = col[np.argmax(np.abs(col))]
            col *= abs(lead) / lead
        det = np.linalg.det(U)
        U[:, -1] *= np.conj(det) / abs(det)
    return Q


@given(
    st.integers(min_value=2, max_value=8) | st.sampled_from([12, 16]),
    st.sampled_from([0, 1, 7, 200]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(3, 200, 0).via("frames on the fast axis")
@example(16, 200, 0).via("batched products")
@example(12, 1, 0).via("batched products")
@example(16, 7, 0).via("batched products")
@settings(max_examples=40, deadline=None)
def test_sample_flags_match_the_lapack_qr_reference(n, count, seed):
    frames = sample_flags(n, count, seed)
    assert frames.shape == (count, n, n)
    assert np.abs(frames - _reference_flags(n, count, seed)).max(initial=0.0) <= 1e-13
    defect = frames.conj().swapaxes(-1, -2) @ frames - np.eye(n)
    assert np.linalg.norm(defect, axis=(-2, -1)).max(initial=0.0) <= 1e-13
    assert np.abs(np.linalg.det(frames) - 1.0).max(initial=0.0) <= 1e-13


def test_qubit_overlap_uniform():
    # invariance check: |<e1|u1>|^2 is uniform on [0,1] for n = 2
    frames = sample_flags(2, 20_000, seed=21)
    overlap = np.abs(frames[:, 0, 0]) ** 2
    assert kstest(overlap, "uniform").pvalue > 1e-3


# --- resolution of identity and quantization ---------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_resolution_check(n):
    avg, err = resolution_check(n, 1, 20_000, seed=2)
    assert err < 0.05
    assert np.allclose(avg, avg.conj().T, atol=1e-12)


@pytest.mark.parametrize("n, i", [(2, 1), (2, 2), (3, 2), (4, 4), (5, 3)])
def test_resolution_check_is_the_column_average_of_sample_flags(n, i):
    # the check skips the phase section, which leaves |u_i><u_i| unchanged
    u = sample_flags(n, 500, seed=11)[:, :, i - 1]
    want = n * np.einsum("bj,bk->jk", u, u.conj()) / len(u)
    avg, err = resolution_check(n, i, 500, seed=11)
    assert np.abs(avg - want).max() <= 1e-13
    assert err == pytest.approx(np.linalg.norm(want - np.eye(n)), abs=1e-13)


def test_resolution_check_bad_column():
    with pytest.raises(ValidationError):
        resolution_check(3, 4, 10, seed=0)


@pytest.mark.parametrize("n, num_samples, bound", [(3, 10**6, 2.0), (8, 10**5, 1.5)])
def test_a_large_resolution_check_holds_no_gaussian_array_beside_its_columns(
        n, num_samples, bound):
    # the Gaussians fill the column stack block by block, and Gram-Schmidt over
    # the frame axis copies no earlier columns: the traced peak stays below
    # `bound` times the N n^2 16 B that the memory check charges (a whole
    # Gaussian array beside the stack peaked at 2.22x and 2.63x here)
    assert num_samples >= FRAME_AXIS_COST * n**4
    tracemalloc.start()
    try:
        resolution_check(n, n, num_samples, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * num_samples * n * n * 16


@pytest.mark.parametrize("num_samples", [0, -1, 2.5])
def test_resolution_check_needs_a_sample(num_samples):
    # an average over zero samples is NaN, not an estimate
    message = f"num_samples must be an integer >= 1, got {num_samples!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        resolution_check(3, 1, num_samples, seed=0)


def test_quantize_constant_function(rng):
    # f = 1 quantizes to n * <rho> which averages to the identity
    r = interior_gaps(3, rng)
    op = quantize(lambda U: 1.0, r, 40_000, seed=3)
    assert np.linalg.norm(op - np.eye(3)) < 0.05


def test_quantize_negative_sample_count(rng):
    with pytest.raises(ValidationError, match="^num_samples must be an integer >= 1, got -1$"):
        quantize(lambda U: 1.0, interior_gaps(3, rng), -1, seed=0)


def test_quantize_needs_a_sample(rng):
    # a mean over no frames is no estimate, as in resolution_check
    with pytest.raises(ValidationError, match="^num_samples must be an integer >= 1, got 0$"):
        quantize(lambda U: 1.0, interior_gaps(3, rng), 0, seed=0)


@pytest.mark.parametrize("draw", [
    lambda count: sample_flags(8, count, 0),
    lambda count: resolution_check(8, 1, count, 0),
    lambda count: quantize(lambda U: 1.0, GapVector(8, np.full(7, 0.02)), count, 0),
], ids=["sample_flags", "resolution_check", "quantize"])
def test_frame_draws_beyond_the_memory_limit_raise_before_drawing(draw):
    # the draw checks its own memory: 1e9 frames at n = 8 would take 954 GiB of
    # Gaussians, which ended in numpy's MemoryError, not the limit's ValidationError
    message = f"1000000001 complex 8 x 8 matrices exceed the memory limit of {MEMORY_LIMIT} B"
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            draw(10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_quantize_linear_in_f(rng):
    r = interior_gaps(3, rng)
    f1 = lambda U: abs(U[0, 0]) ** 2
    f2 = lambda U: U[1, 1].real
    a = quantize(f1, r, 500, seed=6)
    b = quantize(f2, r, 500, seed=6)
    both = quantize(lambda U: 2.0 * f1(U) + f2(U), r, 500, seed=6)
    assert np.allclose(both, 2.0 * a + b, atol=1e-12)


def test_quantize_hermitian_for_real_f(rng):
    r = interior_gaps(3, rng)
    op = quantize(lambda U: abs(U[2, 0]) ** 2, r, 300, seed=8)
    assert np.linalg.norm(op - op.conj().T) < 1e-12
