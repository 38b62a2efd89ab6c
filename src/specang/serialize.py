"""JSON layout for complex matrices and frames.

Matrices are stored row-major as nested lists of [re, im] pairs.  Sampling
seeds are 64-bit unsigned integers and are echoed into every output document
for reproducibility.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import NumericalBreakdownError, ValidationError


def matrix_to_pairs(M) -> list:
    """Complex matrix, or stack of them -> row-major nested lists of [re, im] pairs."""
    M = np.ascontiguousarray(M, dtype=complex)
    return M.view(float).reshape(*M.shape, 2).tolist()


def frame_lines(frames):
    """JSONL lines of a (B, n, n) frame stack, each json.dumps({"U": matrix_to_pairs(U)})
    plus a newline, filled into one template of json's layout: %r and json both print
    floats by repr.  A non-finite entry (json would print NaN) raises before any line."""
    frames = np.ascontiguousarray(frames, dtype=complex)
    if not np.isfinite(frames).all():
        raise NumericalBreakdownError("non-finite entry in a sampled frame")
    n = frames.shape[-1]
    line = json.dumps({"U": [[["%r", "%r"]] * n] * n}).replace('"%r"', "%r") + "\n"
    return (line % tuple(U.tolist()) for U in frames.reshape(len(frames), n * n).view(float))


def matrix_from_pairs(data) -> np.ndarray:
    """Inverse of matrix_to_pairs; each entry must be a JSON number (not a bool) in float range."""
    try:
        rows = [[complex(re, im) for re, im in row] for row in data]
        if not {type(x) for row in data for pair in row for x in pair} <= {int, float}:
            raise TypeError("entries must be JSON numbers")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed [re, im] matrix payload: {exc}") from exc
    M = np.array(rows, dtype=complex)
    if M.ndim != 2:
        raise ValidationError("matrix payload must be two-dimensional")
    return M


def dump_json(path, document) -> None:
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")


def load_json(path):
    """Parsed JSON document at path; unreadable text or JSON is a ValidationError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
