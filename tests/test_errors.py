"""The failure policy: tolerances live in errors.py and every check rejects NaN."""

import ast
import math
import tokenize
from pathlib import Path

import numpy as np
import pytest

from specang import (
    DegenerateSpectrumError,
    DensityMatrix,
    GapVector,
    LindbladModel,
    ProbVector,
    UnitaryFrame,
    ValidationError,
)
from specang.dynamics import integrate_direct, random_density, random_model
from specang.errors import (
    check_angle,
    check_density,
    check_frame,
    check_gap_floor,
    check_gaps,
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


def nan_matrix():
    return np.full((2, 2), NAN)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GapVector(3, [NAN, 0.1]),
        lambda: ProbVector(2, [NAN, NAN]),
        lambda: DensityMatrix(2, nan_matrix()),
        lambda: UnitaryFrame(2, nan_matrix()),
        lambda: LindbladModel(2, np.zeros((2, 2)), (np.eye(2),), (NAN,)),
        lambda: LindbladModel(2, np.zeros((2, 2)), (np.eye(2),), (INF,)),
        lambda: LindbladModel(2, nan_matrix(), (), ()),
        lambda: LindbladModel(2, np.zeros((2, 2)), (np.array([[0.0, INF], [0.0, 0.0]]),), (1.0,)),
        lambda: integrate_direct(random_density(2, seed=1), random_model(2, seed=0), 1.0, NAN),
        lambda: integrate_direct(random_density(2, seed=1), random_model(2, seed=0), INF, 1e-3),
    ],
    ids=[
        "gaps", "probs", "density", "frame", "nan-rate", "inf-rate", "nan-H", "inf-jump",
        "nan-dt", "inf-t_end",
    ],
)
def test_non_finite_input_is_rejected(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize(
    "check, error",
    [
        (lambda: check_probs(np.array([0.6, NAN])), ValidationError),
        (lambda: check_gaps(np.array([0.2, NAN])), ValidationError),
        (lambda: check_frame(nan_matrix()), ValidationError),
        (lambda: check_density(np.eye(2) / 2.0, np.array([NAN, 0.5])), ValidationError),
        (lambda: check_angle("theta", NAN, full_turn=False), ValidationError),
        (lambda: check_angle("phi", NAN, full_turn=True), ValidationError),
        (lambda: check_gap_floor(np.array([0.2, NAN]), 1e-8, "chart"), DegenerateSpectrumError),
    ],
    ids=["probs", "gaps", "frame", "density", "polar", "azimuth", "gap-floor"],
)
def test_every_check_rejects_nan(check, error):
    with pytest.raises(error):
        check()


def test_stacked_checks_raise_for_the_first_failing_entry():
    # entry 1 fails a later test than entry 2 does; entry 1 names the failure,
    # and a stack with no failing entry passes
    gaps = np.array([[0.2, 0.1], [0.9, 0.2], [-0.1, 0.1], [NAN, 0.1]])
    check_gaps(gaps[:1])
    with pytest.raises(ValidationError, match="weighted gap sum exceeds 1"):
        check_gaps(gaps)
    with pytest.raises(ValidationError, match="non-negative"):
        check_gaps(gaps[2:])
    frames = np.stack([np.eye(2), np.diag([1j, 1j]), 2.0 * np.eye(2), nan_matrix()])
    check_frame(frames[:1])
    with pytest.raises(ValidationError, match="determinant is not 1"):
        check_frame(frames)
    with pytest.raises(ValidationError, match="not unitary"):
        check_frame(frames[2:])
    rhos = np.stack([np.eye(2) / 2.0, np.eye(2), np.array([[0.5, 1.0], [0.0, 0.5]]), nan_matrix()])
    spectra = np.linalg.eigvalsh(rhos[:2])
    spectra = np.concatenate([spectra, [[0.2, 0.8], [NAN, NAN]]])
    check_density(rhos[:1], spectra[:1])
    with pytest.raises(ValidationError, match="trace is not 1"):
        check_density(rhos, spectra)
    with pytest.raises(ValidationError, match="not Hermitian"):
        check_density(rhos[2:], spectra[2:])
