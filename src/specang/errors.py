"""The failure policy: exception types, tolerances and the checks using them.

Every guard states what must hold (`x <= tol`, never `x > tol`), so a NaN
in its input fails it.  No other module defines a tolerance.
"""

import math
import numbers
import sys

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented invariant."""


class NumericalBreakdownError(RuntimeError):
    """A computation left its domain of validity."""


class DegenerateSpectrumError(NumericalBreakdownError):
    """Spectrum too close to degenerate for the angular coordinates."""


class CrossoverDegeneracyError(NumericalBreakdownError):
    """Some eigenvalue sits at the uniform value 1/n, so the crossover
    index (and with it the piecewise-linear purity) is ill-defined."""


# Round-off slack of exact identities: probability order and sum, faces of
# R_{n-1}, angle ranges, known operators, zeros in the metrics, verify reports.
TOL = 1e-12
# Unitarity and determinant of a frame; Hermiticity and trace of a matrix.
MATRIX_TOL = 1e-11
# Symmetry of a metric tensor.
SYMMETRY_TOL = 1e-13
# Eigenvalue floor of a density matrix and of every direct-route record (and
# hand-over state), the smallest eigenvalue gap at which a frame is fixed, and
# the real symmetric output of a dissipator.
EIG_TOL = 1e-10
# Breakdown along a flow: smallest gap of the split and Euler charts, the
# trace drift of each direct step, the qubit and Euler chart sines.  Above
# EIG_TOL so that every state the split chart accepts has a frame fixed well
# above round-off; a start below either floor hands over at t = 0 from rho0.
BREAKDOWN_TOL = 1e-8
# Relative slack of t_end / dt against a whole number of steps.
GRID_TOL = 1e-9
# Round-off of ||U^dag U - 1||_F for a unitary frame: the polar iteration's stop.
POLAR_TOL = 1e-14
# Defect ||U^dag U - 1||_F from which a split step's frame has left U(n): the step is rejected.
FRAME_DEFECT = 0.5
# Bytes of the complex n x n matrices that one run records or one draw makes.
MEMORY_LIMIT = 2**30


def _frozen(a: np.ndarray) -> np.ndarray:
    """a made read-only: the one freeze of an array the library hands out."""
    a.setflags(write=False)
    return a


def _finite(name: str, value, dtype, shape: tuple, rule: str) -> np.ndarray:
    """value as an array of dtype and shape (a None in it: len(value); (...,): any shape, for
    a stacked kernel) with finite entries, else a ValidationError "<name> must ...": the one
    float-range and finiteness rule.  value itself when it is such an array: no copy."""
    try:
        a = np.asarray(value, dtype=dtype)
        shape = tuple(len(value) if k is None else k for k in shape)
    except OverflowError:  # an integer beyond float range
        raise ValidationError(f"{name} must be {rule}, got a number beyond float range") from None
    except (TypeError, ValueError) as exc:  # ragged nesting, a string, an object
        raise ValidationError(f"{name} must be an array of numbers: {exc}") from None
    if shape != (...,) and a.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {a.shape}")
    x = a.ravel().view(float)  # a complex entry as its (re, im); ravel: C order, as view needs
    if not np.isfinite(x).all():
        raise ValidationError(f"{name} must be {rule}, got the entry {x[~np.isfinite(x)][0]}")
    return a


def checked_array(name: str, value, dtype, shape: tuple) -> np.ndarray:
    """value as a read-only array of dtype and shape with finite entries, else a
    ValidationError naming `name`: the one reading of an array field of a dataclass."""
    return _frozen(np.array(_finite(name, value, dtype, shape, "finite")))


def check_probs(p: np.ndarray) -> None:
    """Raise ValidationError unless p is descending, non-negative and sums to 1."""
    if not np.all(np.diff(p) <= TOL):
        raise ValidationError("probabilities must be in descending order")
    if not p[-1] >= -TOL:
        raise ValidationError("probabilities must be non-negative")
    if not abs(float(p.sum()) - 1.0) <= TOL:
        raise ValidationError("probabilities must sum to 1")


def check_gaps(r: np.ndarray) -> None:
    """Raise ValidationError unless the gap vector r is in R_{n-1}."""
    if not np.all(r >= -TOL):
        raise ValidationError("gaps must be non-negative")
    if not r @ np.arange(1.0, r.size + 1) <= 1.0 + TOL:
        raise ValidationError("weighted gap sum exceeds 1 (outside R_{n-1})")


def check_count(name: str, value, minimum: int, maximum: float = math.inf) -> None:
    """Raise ValidationError unless value is an integer in minimum..maximum, not a bool:
    the one rule of every dimension, count, index and seed."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and minimum <= value <= maximum):
        bound = f">= {minimum}" if maximum == math.inf else f"in {minimum}..{maximum}"
        raise ValidationError(f"{name} must be an integer {bound}, got {value!r}")


def fits_memory(count: int, n: int) -> bool:
    """Whether count complex n x n matrices fit in MEMORY_LIMIT."""
    return count * n * n * 16 <= MEMORY_LIMIT


def check_memory(count: int, n: int) -> None:
    """Raise ValidationError unless count complex n x n matrices fit in MEMORY_LIMIT."""
    if not fits_memory(count, n):
        raise ValidationError(
            f"{count} complex {n} x {n} matrices exceed the memory limit of {MEMORY_LIMIT} B")


def check_gap_floor(gaps, floor: float, chart: str) -> None:
    """Raise DegenerateSpectrumError unless every gap, of a 1-D array or a sequence of
    numbers, is at least `floor`, below which the named chart breaks down.  The test is
    one comparison per gap on Python floats, cheaper than a ufunc reduce at these sizes;
    a NaN gap fails it wherever it sits."""
    if not all(g >= floor for g in np.asarray(gaps).tolist()):
        raise DegenerateSpectrumError(f"spectral gap below {floor}; {chart} breaks down")


def check_real(name: str, value) -> None:
    """Raise ValidationError unless value is a finite real number, not a bool: the one real rule."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):  # fails nan, +-inf and an int beyond range
        raise ValidationError(f"{name} must be a real number, got {value!r}")


def check_angle(name: str, value: float, full_turn: bool) -> None:
    """Raise ValidationError unless the angle is a real number in [0, 2pi)
    (full_turn) or in [0, pi], with slack TOL at the closed ends."""
    check_real(name, value)
    ok = -TOL <= value < 2.0 * math.pi if full_turn else -TOL <= value <= math.pi + TOL
    if not ok:
        raise ValidationError(f"{name} = {value} outside [0, {'2pi)' if full_turn else 'pi]'}")


def check_frame(U: np.ndarray) -> None:
    """Raise ValidationError unless U is special unitary."""
    if not np.linalg.norm(U.conj().T @ U - np.eye(len(U))) <= MATRIX_TOL:
        raise ValidationError("frame is not unitary")
    if not abs(np.linalg.det(U) - 1.0) <= MATRIX_TOL:
        raise ValidationError("frame determinant is not 1")


def check_density(rho: np.ndarray) -> None:
    """Raise ValidationError unless rho is Hermitian, unit-trace and has no
    eigenvalue below -EIG_TOL."""
    if not np.linalg.norm(rho - rho.conj().T) <= MATRIX_TOL:
        raise ValidationError("density matrix is not Hermitian")
    if not abs(rho.trace().real - 1.0) <= MATRIX_TOL:
        raise ValidationError("density matrix trace is not 1")
    if not np.linalg.eigvalsh(rho)[0] >= -EIG_TOL:
        raise ValidationError("density matrix has a negative eigenvalue")
