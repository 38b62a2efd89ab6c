"""The failure policy: tolerances live in errors.py and every check rejects NaN."""

import ast
import inspect
import math
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import specang
from specang import (
    AngleSet,
    CoweightBasis,
    DegenerateSpectrumError,
    DensityMatrix,
    GapVector,
    LindbladModel,
    MetricTensor,
    ProbVector,
    SplitState,
    UnitaryFrame,
    ValidationError,
    cartan_generator,
    cartan_matrix,
    coset_unitaries,
    eigendecompose_ordered,
    embedded_generator,
    flag_density_theta,
    flag_volume,
    fundamental_coweights,
    in_polytope,
    integrate_split,
    inverse_cartan,
    inverse_cartan_exact,
    jacobian_matrix,
    ordered_simplex_volume,
    pair_indices,
    polytope_vertices,
    purity_trace_norm,
    quantize,
    rejection_volume_estimate,
    resolution_check,
    rotation_factor,
    sample_flag,
    sample_flags,
    secular_factorization_test,
    sorted_probs,
    state_space_volume,
    weighted_simplex_volume,
)
from specang import dynamics, flags, geometry, kolmogorov, serialize, spectral
from specang.dynamics import (
    QubitAngles, QutritEuler, dissipator, integrate_direct, lindblad_rhs, polar_special,
    qubit_frame, random_density, random_interior_gaps, random_model, real_qutrit_rhs, so3_euler,
)
from specang.flags import torus_element
from specang.serialize import read_document
from specang.errors import (
    MEMORY_LIMIT,
    check_angle,
    check_density,
    check_frame,
    check_gap_floor,
    check_gaps,
    check_memory,
    check_probs,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "specang"
NAN, INF = math.nan, math.inf


def tolerance_literals(path):
    """Numeric literals of magnitude below 1e-5 (exponent -6 or lower)."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    return [
        (tok.start[0], tok.string)
        for tok in tokens
        if tok.type == tokenize.NUMBER and 0.0 < abs(ast.literal_eval(tok.string)) < 1e-5
    ]


def test_tolerances_live_in_errors_only():
    found = {
        path.name: lits
        for path in sorted(SRC.glob("*.py"))
        if path.name != "errors.py" and (lits := tolerance_literals(path))
    }
    assert found == {}
    assert len(tolerance_literals(SRC / "errors.py")) == 7


def owners_of(word):
    """(file, enclosing function) of every name, attribute or import of `word` in src/."""
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        uses += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                 if isinstance(node, (ast.Attribute, ast.Name, ast.alias))
                 and word in (getattr(node, "attr", None), getattr(node, "id", None),
                              getattr(node, "name", None))]
    return uses


def test_integer_rule_lives_in_check_count_only():
    # numbers.Integral is read once: by errors.check_count, the one integer rule
    assert owners_of("Integral") == [("errors.py", "check_count")]


def test_real_rule_lives_in_check_real_only():
    # numbers.Real is read once: by errors.check_real, the one real-number rule
    assert owners_of("Real") == [("errors.py", "check_real")]


def test_frame_defect_rule_lives_in_polar_special_only():
    # FRAME_DEFECT is set in errors.py and read (its test and its message) by
    # dynamics.polar_special alone, and no SVD repairs a frame past it
    assert owners_of("FRAME_DEFECT") == [
        ("dynamics.py", None), ("dynamics.py", "polar_special"),
        ("dynamics.py", "polar_special"), ("errors.py", None)]
    assert owners_of("svd") == []


def nan_matrix():
    return np.full((2, 2), NAN)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GapVector(3, [NAN, 0.1]), "gaps must be finite, got the entry nan"),
        (lambda: ProbVector(2, [NAN, NAN]), "probabilities must be finite, got the entry nan"),
        (lambda: DensityMatrix(2, nan_matrix()), "density matrix must be finite, got the entry nan"),
        (lambda: UnitaryFrame(2, nan_matrix()), "frame must be finite, got the entry nan"),
        (lambda: LindbladModel(2, np.zeros((2, 2)), (np.eye(2),), (NAN,)),
         "rates must be finite and non-negative, got the entry nan"),
        (lambda: LindbladModel(2, np.zeros((2, 2)), (np.eye(2),), (INF,)),
         "rates must be finite and non-negative, got the entry inf"),
        (lambda: LindbladModel(2, nan_matrix(), (), ()), "H must be finite, got the entry nan"),
        (lambda: LindbladModel(
            2, np.zeros((2, 2)), (np.array([[0.0, INF], [0.0, 0.0]]),), (1.0,)),
         "jump operator must be finite, got the entry inf"),
        (lambda: LindbladModel(2, [[10**400, 0], [0, 0]], (), ()),
         "H must be finite, got a number beyond float range"),
        (lambda: integrate_direct(random_density(2, seed=1), random_model(2, seed=0), 1.0, NAN),
         "dt must be a real number, got nan"),
        (lambda: integrate_direct(random_density(2, seed=1), random_model(2, seed=0), INF, 1e-3),
         "t_end must be a real number, got inf"),
        (lambda: lindblad_rhs(nan_matrix(), random_model(2, seed=0)),
         "rho must be finite, got the entry nan"),
        (lambda: dissipator(np.stack([np.eye(2), [[0.5, 0.0], [0.0, -INF]]]),
                            random_model(2, seed=0)),
         "rho must be finite, got the entry -inf"),
    ],
    ids=[
        "gaps", "probs", "density", "frame", "nan-rate", "inf-rate", "nan-H", "inf-jump",
        "huge-H", "nan-dt", "inf-t_end", "nan-rhs-rho", "inf-dissipator-stack",
    ],
)
def test_non_finite_input_is_rejected(build, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "value, token, got",
    [(10**400, "1" + "0" * 400, "a number beyond float range"),
     (-(10**400), "-1" + "0" * 400, "a number beyond float range"),
     (NAN, "NaN", "the entry nan"), (INF, "Infinity", "the entry inf"),
     (-INF, "-Infinity", "the entry -inf")],
    ids=["huge", "-huge", "nan", "inf", "-inf"],
)
def test_documents_and_dataclasses_share_one_finiteness_rule(tmp_path, value, token, got):
    # the same entry as a JSON token in a document and as a Python number in a
    # dataclass field: one rule, one wording after each reader's own prefix
    state, model = tmp_path / "state.json", tmp_path / "model.json"
    state.write_text('{"n": 2, "rho": [[[0.5, 0], [0, 0]], [[0, 0], [%s, 0]]]}' % token)
    model.write_text('{"n": 2, "H": [[[0, 0]]], "jumps": [], "rates": [1, %s]}' % token)
    cases = [
        (lambda: read_document(state, "state", rho="matrix"),
         "malformed state document: rho must be finite"),
        (lambda: read_document(model, "model", H="matrix", jumps="matrices", rates="rates"),
         "malformed model document: rates must be finite and non-negative"),
        (lambda: DensityMatrix(2, [[0.5, 0], [0, value]]), "density matrix must be finite"),
        (lambda: LindbladModel(2, [[0, 0], [0, value]], (), ()), "H must be finite"),
        (lambda: LindbladModel(2, np.zeros((2, 2)), (np.eye(2),), (value,)),
         "rates must be finite and non-negative"),
    ]
    for build, prefix in cases:
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{prefix}, got {got}')}$"):
            build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GapVector(3, [0.1, 0.1, 0.1]), "gaps must have shape (2,), got (3,)"),
        (lambda: ProbVector(3, [0.5, 0.5]), "probabilities must have shape (3,), got (2,)"),
        (lambda: CoweightBasis(2, ([[1.0, 2.0, 3.0]],)),
         "coweight must have shape (2, 2), got (1, 3)"),
        (lambda: UnitaryFrame(3, np.eye(2)), "frame must have shape (3, 3), got (2, 2)"),
        (lambda: DensityMatrix(3, np.eye(2) / 2.0),
         "density matrix must have shape (3, 3), got (2, 2)"),
        (lambda: MetricTensor(3, np.eye(3)), "metric must have shape (2, 2), got (3, 3)"),
        (lambda: LindbladModel(2, np.zeros((3, 3)), (), ()),
         "H must have shape (2, 2), got (3, 3)"),
        (lambda: LindbladModel(2, np.zeros((2, 2)), (np.eye(3),), (1.0,)),
         "jump operator must have shape (2, 2), got (3, 3)"),
        (lambda: GapVector(3, [[0.1], [0.1, 0.2]]), "gaps must be an array of numbers: "),
        (lambda: DensityMatrix(2, [["a", 0.0], [0.0, 0.5]]),
         "density matrix must be an array of numbers: "),
        (lambda: LindbladModel(2, {"H": 1.0}, (), ()), "H must be an array of numbers: "),
        (lambda: LindbladModel(2, np.zeros((2, 2)), (np.eye(2),), ("abc",)),
         "rates must be an array of numbers: "),
        (lambda: LindbladModel(2, np.zeros((2, 2)), (np.eye(2),), (None,)),
         "rates must be finite and non-negative, got the entry nan"),
        (lambda: LindbladModel(2, np.zeros((2, 2)), (np.eye(2),), (1.0, 1.0)),
         "rates must have shape (1,), got (2,)"),
        (lambda: in_polytope("a", 2), "gaps must be an array of numbers: "),
        (lambda: purity_trace_norm("x"), "rho must be an array of numbers: "),
        (lambda: purity_trace_norm(5.0), "rho must be an array of numbers: "),
        (lambda: purity_trace_norm(np.zeros((3, 2))), "rho must have shape (3, 3), got (3, 2)"),
        (lambda: purity_trace_norm([[1.0]]), "dimension must be an integer >= 2, got 1"),
        (lambda: sorted_probs("a"), "probabilities must be an array of numbers: "),
        (lambda: real_qutrit_rhs(QutritEuler(0.2, 0.1, 0.0, 1.0, 0.0), "a", lambda rho: rho),
         "A must be an array of numbers: "),
        (lambda: lindblad_rhs("x", random_model(2, seed=0)), "rho must be an array of numbers: "),
        (lambda: dissipator([[1, 2], [3]], random_model(2, seed=0)),
         "rho must be an array of numbers: "),
        (lambda: MetricTensor(3, [[1.0, 0.5], [0.0, 1.0]]), "metric components must be symmetric"),
        (lambda: CoweightBasis(3, (np.zeros((3, 3)),)), "coweight basis must contain n-1 matrices"),
    ],
    ids=[
        "gaps", "probs", "coweight", "frame", "density", "metric", "H", "jump",
        "ragged", "string", "object", "string-rate", "none-rate", "rate-count", "polytope-string",
        "purity-string", "purity-number", "purity-3x2", "purity-one-level", "sorted-string",
        "qutrit-A-string", "rhs-string", "dissipator-ragged",
        "asymmetric-metric", "coweight-count",
    ],
)
def test_array_fields_name_their_shape_and_entries(build, message):
    # a full message is matched whole; one ending ": " is followed by numpy's reason
    pattern = re.escape(message) + ("" if message.endswith(": ") else "$")
    with pytest.raises(ValidationError, match=f"^{pattern}"):
        build()


def test_transposed_complex_arrays_are_read_as_given():
    # a Fortran-ordered complex input is checked like any other and kept as it is
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    U = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
    L = np.array([[0.0, 1.0 + 2.0j], [0.0, 0.0]])
    assert np.array_equal(DensityMatrix(2, rho.T).rho, rho.T)
    # the dataclass freezes its own copy, never the caller's array
    assert not np.shares_memory(DensityMatrix(2, rho).rho, rho) and rho.flags.writeable
    assert np.array_equal(UnitaryFrame(2, U.conj().T).U, U.conj().T)
    assert np.array_equal(LindbladModel(2, np.diag([1.0, -1.0]), (L.T,), (1.0,)).jumps[0], L.T)
    bad = np.array([[0.0, complex(0.0, INF)], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="^jump operator must be finite, got the entry inf$"):
        LindbladModel(2, np.zeros((2, 2)), (bad.T,), (1.0,))


@pytest.mark.parametrize(
    "check, error",
    [
        (lambda: check_probs(np.array([0.6, NAN])), ValidationError),
        (lambda: check_gaps(np.array([0.2, NAN])), ValidationError),
        (lambda: check_frame(nan_matrix()), ValidationError),
        (lambda: check_density(nan_matrix()), ValidationError),
        (lambda: check_angle("theta", NAN, full_turn=False), ValidationError),
        (lambda: check_angle("phi", NAN, full_turn=True), ValidationError),
        (lambda: check_gap_floor(np.array([0.2, NAN]), 1e-8, "chart"), DegenerateSpectrumError),
        (lambda: polar_special(np.full((3, 3), NAN)), DegenerateSpectrumError),
        (lambda: polar_special(np.full((3, 3), INF)), DegenerateSpectrumError),
    ],
    ids=["probs", "gaps", "frame", "density", "polar", "azimuth", "gap-floor",
         "polar-special-nan", "polar-special-inf"],
)
def test_every_check_rejects_nan(check, error):
    with pytest.raises(error):
        check()


@pytest.mark.parametrize(
    "check, value, message",
    [
        (check_gaps, np.array([0.2, 0.1]), None),
        (check_gaps, np.array([-0.1, 0.9]), "non-negative"),
        (check_gaps, np.array([0.9, 0.2]), "weighted gap sum exceeds 1"),
        (check_frame, np.eye(2), None),
        (check_frame, 2.0 * np.eye(2), "not unitary"),
        (check_frame, np.diag([1j, 1j]), "determinant is not 1"),
        (check_density, np.eye(2) / 2.0, None),
        (check_density, np.array([[1.0, 2.0], [0.0, -1.5]]), "not Hermitian"),
        (check_density, np.diag([1.2, -0.7]), "trace is not 1"),
        (check_density, np.diag([1.2, -0.2]), "negative eigenvalue"),
        (check_probs, np.array([1.2, -0.1]), "^probabilities must be non-negative$"),
        (check_probs, np.array([0.6, 0.3]), "^probabilities must sum to 1$"),
    ],
)
def test_each_check_names_its_first_failing_test(check, value, message):
    # every failing value also fails each later test of its check
    if message is None:
        check(value)
    else:
        with pytest.raises(ValidationError, match=message):
            check(value)


INPUT_CHECKS = {
    "check_probs", "check_gaps", "check_frame", "check_density", "check_angle", "checked_array",
}


def test_input_checks_run_only_in_validating_constructors():
    # the validators guard input at the API boundary; a state the library
    # computes itself is guarded by the step loop (check_gap_floor and the
    # breakdown checks), never by re-validating it as input
    outside = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == "__post_init__"
            for node in ast.walk(func)
        }
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        outside += [
            (path.name, node.lineno, name)
            for node in calls
            if (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in INPUT_CHECKS
            and id(node) not in inside
        ]
    assert outside == []


def test_memory_check_bounds_count_times_n_squared_complex_entries():
    check_memory(MEMORY_LIMIT // 64, 2)  # 16 B per entry of a 2 x 2 matrix: at the limit
    check_memory(0, 10**6)
    with pytest.raises(ValidationError, match=(
            f"^{MEMORY_LIMIT // 64 + 1} complex 2 x 2 matrices exceed the memory limit "
            f"of {MEMORY_LIMIT} B$")):
        check_memory(MEMORY_LIMIT // 64 + 1, 2)
    with pytest.raises(ValidationError, match="^2 complex 100000 x 100000 matrices"):
        check_memory(2, 10**5)


def secular(tolerance=1e-10, **integers):
    state = SplitState(*eigendecompose_ordered(random_density(2, seed=1)), 0.0)
    return secular_factorization_test(random_model(2, seed=0), state, tolerance, **integers)


def integrate(route, record_every):
    return route(random_density(2, seed=1), random_model(2, seed=0), 0.01, 1e-3, record_every)


GAPS = GapVector(3, [0.2, 0.1])

# Every integer parameter of a public name: "function.parameter", the call with that
# parameter set to a value and every other argument valid, the name in the message,
# and the bound.  A seed is an integer >= 0 of any size.
INTEGER_PARAMETERS = [
    ("ProbVector.n", lambda v: ProbVector(v, [1.0]), "dimension", ">= 2"),
    ("GapVector.n", lambda v: GapVector(v, []), "dimension", ">= 2"),
    ("CoweightBasis.n", lambda v: CoweightBasis(v, ()), "dimension", ">= 2"),
    ("MetricTensor.n", lambda v: MetricTensor(v, np.eye(1)), "dimension", ">= 2"),
    ("AngleSet.n", lambda v: AngleSet(v, {}, {}), "dimension", ">= 2"),
    ("UnitaryFrame.n", lambda v: UnitaryFrame(v, np.eye(2)), "dimension", ">= 2"),
    ("DensityMatrix.n", lambda v: DensityMatrix(v, np.eye(2) / 2.0), "dimension", ">= 2"),
    ("LindbladModel.n", lambda v: LindbladModel(v, np.zeros((2, 2)), (), ()), "dimension", ">= 2"),
    ("jacobian_matrix.n", jacobian_matrix, "dimension", ">= 2"),
    ("fundamental_coweights.n", fundamental_coweights, "dimension", ">= 2"),
    ("cartan_matrix.n", cartan_matrix, "dimension", ">= 2"),
    ("inverse_cartan.n", inverse_cartan, "dimension", ">= 2"),
    ("inverse_cartan_exact.n", inverse_cartan_exact, "dimension", ">= 2"),
    ("in_polytope.n", lambda v: in_polytope([0.1], v), "dimension", ">= 2"),
    ("polytope_vertices.n", polytope_vertices, "dimension", ">= 2"),
    ("ordered_simplex_volume.n", ordered_simplex_volume, "dimension", ">= 2"),
    ("weighted_simplex_volume.n", weighted_simplex_volume, "dimension", ">= 2"),
    ("rejection_volume_estimate.n", lambda v: rejection_volume_estimate(v, 10, 0),
     "dimension", ">= 2"),
    ("rejection_volume_estimate.num_samples", lambda v: rejection_volume_estimate(3, v, 0),
     "num_samples", ">= 1"),
    ("rejection_volume_estimate.seed", lambda v: rejection_volume_estimate(3, 10, v),
     "seed", ">= 0"),
    ("pair_indices.n", pair_indices, "dimension", ">= 2"),
    ("embedded_generator.n", lambda v: embedded_generator(v, 1, 2, 1), "dimension", ">= 2"),
    ("embedded_generator.i", lambda v: embedded_generator(3, v, 3, 1), "i", "in 1..2"),
    ("embedded_generator.j", lambda v: embedded_generator(3, 1, v, 1), "j", "in 2..3"),
    ("cartan_generator.n", lambda v: cartan_generator(v, 1), "dimension", ">= 2"),
    ("cartan_generator.ell", lambda v: cartan_generator(3, v), "ell", "in 1..2"),
    ("rotation_factor.n", lambda v: rotation_factor(v, 1, 2, 0.3, 0.2), "dimension", ">= 2"),
    ("rotation_factor.i", lambda v: rotation_factor(3, v, 3, 0.3, 0.2), "i", "in 1..2"),
    ("rotation_factor.j", lambda v: rotation_factor(3, 1, v, 0.3, 0.2), "j", "in 2..3"),
    ("coset_unitaries.n", lambda v: coset_unitaries(v, [], []), "dimension", ">= 2"),
    ("torus_element.n", lambda v: torus_element(v, []), "dimension", ">= 2"),
    ("flag_density_theta.n", lambda v: flag_density_theta(v, []), "dimension", ">= 2"),
    ("flag_volume.n", flag_volume, "dimension", ">= 2"),
    ("state_space_volume.n", state_space_volume, "dimension", ">= 2"),
    ("sample_flags.n", lambda v: sample_flags(v, 1, 0), "dimension", ">= 2"),
    ("sample_flags.count", lambda v: sample_flags(3, v, 0), "count", ">= 0"),
    ("sample_flags.seed", lambda v: sample_flags(3, 1, v), "seed", ">= 0"),
    ("sample_flag.n", lambda v: sample_flag(v, 0), "dimension", ">= 2"),
    ("sample_flag.seed", lambda v: sample_flag(3, v), "seed", ">= 0"),
    ("resolution_check.n", lambda v: resolution_check(v, 1, 10, 0), "dimension", ">= 2"),
    ("resolution_check.i", lambda v: resolution_check(3, v, 10, 0), "column index", "in 1..3"),
    ("resolution_check.num_samples", lambda v: resolution_check(3, 1, v, 0),
     "num_samples", ">= 1"),
    ("resolution_check.seed", lambda v: resolution_check(3, 1, 10, v), "seed", ">= 0"),
    ("quantize.num_samples", lambda v: quantize(lambda U: 1.0, GAPS, v, 0), "num_samples", ">= 1"),
    ("quantize.seed", lambda v: quantize(lambda U: 1.0, GAPS, 2, v), "seed", ">= 0"),
    ("integrate_direct.record_every", lambda v: integrate(integrate_direct, v),
     "record_every", ">= 1"),
    ("integrate_split.record_every", lambda v: integrate(integrate_split, v),
     "record_every", ">= 1"),
    ("secular_factorization_test.num_r_samples", lambda v: secular(num_r_samples=v),
     "num_r_samples", ">= 2"),
    ("secular_factorization_test.seed", lambda v: secular(seed=v), "seed", ">= 0"),
    ("random_model.n", lambda v: random_model(v, 0), "dimension", ">= 2"),
    ("random_model.seed", lambda v: random_model(2, v), "seed", ">= 0"),
    ("random_interior_gaps.n", lambda v: random_interior_gaps(v, np.random.default_rng(0)),
     "dimension", ">= 2"),
    ("random_density.n", lambda v: random_density(v, 0), "dimension", ">= 2"),
    ("random_density.seed", lambda v: random_density(2, v), "seed", ">= 0"),
]

# Integer parameters outside the rule, with the reason.
UNCHECKED = {
    "embedded_generator.k": "a Pauli label, checked by k in (1, 2, 3), so 2.0 is sigma_2",
    "stage_constants.n": "a cached constant of the split stage, read at len(frame)",
    "kolmogorov_sf.N": "the size of ks_uniform's sample",
}


@pytest.mark.parametrize(
    "call, name, bound", [entry[1:] for entry in INTEGER_PARAMETERS],
    ids=[entry[0] for entry in INTEGER_PARAMETERS],
)
def test_every_integer_parameter_has_one_rule(call, name, bound):
    for value in (1.5, 2.0, -1, True, "a", None):
        message = f"{name} must be an integer {bound}, got {value!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(value)
    if name == "seed":  # as a dimension or count it would allocate or loop
        call(10**400)


def annotated(kind):
    """"function.parameter" of every parameter of a public name annotated `kind`."""
    modules = (specang, spectral, geometry, flags, dynamics, kolmogorov, serialize)
    public = {
        attr: obj for module in modules for attr, obj in vars(module).items()
        if callable(obj) and not attr.startswith("_")
        and getattr(obj, "__module__", "").startswith("specang.")
        and obj.__module__ != "specang.errors"
    }
    return {
        f"{attr}.{param.name}" for attr, obj in public.items()
        for param in inspect.signature(obj).parameters.values()
        if param.annotation in (kind.__name__, kind)
    }


def test_every_integer_parameter_is_in_the_table():
    assert annotated(int) == {entry[0] for entry in INTEGER_PARAMETERS} | set(UNCHECKED)


def run(route, t_end, dt):
    return route(random_density(2, seed=1), random_model(2, seed=0), t_end, dt)


# Every real-number parameter of a public name: "function.parameter", the call with
# that parameter set to a value and every other argument valid, and the name in the
# message.  A real number is finite and in float range, and a bool is not one.
REAL_PARAMETERS = [
    ("QubitAngles.r", lambda v: QubitAngles(v, 1.0, 0.0), "r"),
    ("QubitAngles.theta", lambda v: QubitAngles(0.5, v, 0.0), "theta"),
    ("QubitAngles.phi", lambda v: QubitAngles(0.5, 1.0, v), "phi"),
    ("QutritEuler.r1", lambda v: QutritEuler(v, 0.1, 0.0, 1.0, 0.0), "r1"),
    ("QutritEuler.r2", lambda v: QutritEuler(0.2, v, 0.0, 1.0, 0.0), "r2"),
    ("QutritEuler.alpha", lambda v: QutritEuler(0.2, 0.1, v, 1.0, 0.0), "alpha"),
    ("QutritEuler.beta", lambda v: QutritEuler(0.2, 0.1, 0.0, v, 0.0), "beta"),
    ("QutritEuler.gamma", lambda v: QutritEuler(0.2, 0.1, 0.0, 1.0, v), "gamma"),
    ("integrate_direct.t_end", lambda v: run(integrate_direct, v, 1e-3), "t_end"),
    ("integrate_direct.dt", lambda v: run(integrate_direct, 0.01, v), "dt"),
    ("integrate_split.t_end", lambda v: run(integrate_split, v, 1e-3), "t_end"),
    ("integrate_split.dt", lambda v: run(integrate_split, 0.01, v), "dt"),
    ("rotation_factor.theta", lambda v: rotation_factor(3, 1, 2, v, 0.2), "theta"),
    ("rotation_factor.phi", lambda v: rotation_factor(3, 1, 2, 0.3, v), "phi"),
    ("qubit_frame.theta", lambda v: qubit_frame(v, 0.2), "theta"),
    ("qubit_frame.phi", lambda v: qubit_frame(0.3, v), "phi"),
    ("so3_euler.alpha", lambda v: so3_euler(v, 0.1, 0.2), "alpha"),
    ("so3_euler.beta", lambda v: so3_euler(0.3, v, 0.2), "beta"),
    ("so3_euler.gamma", lambda v: so3_euler(0.3, 0.1, v), "gamma"),
    ("secular_factorization_test.tolerance", lambda v: secular(tolerance=v), "tolerance"),
    ("random_model.jump_scale", lambda v: random_model(2, 0, v), "jump_scale"),
    ("random_interior_gaps.fill", lambda v: random_interior_gaps(2, np.random.default_rng(0), v),
     "fill"),
    ("random_density.fill", lambda v: random_density(2, 0, v), "fill"),
]

# Real-number parameters outside the rule, with the reason.
UNCHECKED_REAL = {
    "SplitState.t": "never read: the split kernels take the state's gaps and frame",
    "kolmogorov_sf.d": "the kernel's statistic, computed by ks_uniform",
}


@pytest.mark.parametrize(
    "call, name", [entry[1:] for entry in REAL_PARAMETERS],
    ids=[entry[0] for entry in REAL_PARAMETERS],
)
def test_every_real_parameter_has_one_rule(call, name):
    for value in ("a", None, True, 1j, NAN, INF, -INF, 10**400, np.array([0.1, 0.2])):
        message = f"{name} must be a real number, got {value!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(value)


def test_every_real_parameter_is_in_the_table():
    assert annotated(float) == {entry[0] for entry in REAL_PARAMETERS} | set(UNCHECKED_REAL)
