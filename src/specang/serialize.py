"""JSON layout for complex matrices and frames.

Matrices are stored row-major as nested lists of [re, im] pairs.  Sampling
seeds are 64-bit unsigned integers and are echoed into every output document
for reproducibility.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading

import numpy as np

from .errors import NumericalBreakdownError, ValidationError, _finite


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


def open_output(path, mode="w", **options):
    """open(path, mode, **options) on a fresh file: ext4 flushes a truncated file on close and
    the next rewrite waits for it, so a regular file there is unlinked first (not a symlink)."""
    with contextlib.suppress(OSError):  # none there, or a directory that forbids the unlink
        if os.path.isfile(path) and not os.path.islink(path):
            os.unlink(path)
    return open(path, mode, **options)


def can_fork() -> bool:
    """Whether write_frames may fork: os.fork exists, 2+ CPUs are usable, 1 Python thread runs."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1)


def write_frames(path, header: str, frames) -> None:
    """header + "".join(frame_lines(frames)) to open_output(path).  When can_fork(), a forked
    child formats the second half while this process writes the first; its failure is an OSError.
    A fork that fails (EAGAIN, ENOMEM) leaves the second half to this process."""
    half = len(frames) // 2
    head, tail = frame_lines(frames[:half]), frame_lines(frames[half:])  # both check, no I/O yet
    pid, rest = None, map(str.encode, tail)
    if half and can_fork():
        r, w = os.pipe()
        with contextlib.suppress(OSError):  # EAGAIN, ENOMEM: no child; this process writes all
            pid = os.fork()
        if pid == 0:  # the child ends in _exit on every path
            try:
                os.close(r)
                with open(w, "wb") as pipe:
                    pipe.write("".join(tail).encode())  # formatted before a write can block
                os._exit(0)  # only after the last byte
            finally:
                os._exit(1)
        os.close(w)
        if pid:
            rest = iter(lambda: os.read(r, 1 << 20), b"")
        else:
            os.close(r)
    try:
        with open_output(path, "wb") as fh:
            fh.write(header.encode())
            fh.writelines(map(str.encode, head))
            fh.writelines(rest)
    finally:
        if pid:
            os.close(r)  # first, so a child blocked on a full pipe gets EPIPE, not a hang
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if pid and status:
        raise OSError(f"the child formatting frames {half}.. of {path} failed: exit code {status}")


# The layouts of a document value: what its JSON must be, what its numbers must be
LAYOUTS = {"rates": ("a JSON list of numbers", "finite and non-negative"),
           "matrix": ("a square JSON matrix of [re, im] number pairs", "finite"),
           "matrices": ("a JSON list of matrices", "finite")}


def _numbers(data, layout: str, what: str):
    """data in a layout of LAYOUTS: a float vector, a complex matrix or a list
    of matrices, else a ValidationError "<what> must be ...".  The one rule for
    a number in a document: an int or a float, not a bool, in float range and finite."""
    form, rule = LAYOUTS[layout]
    if layout == "matrices" and type(data) is list:
        return [_numbers(M, "matrix", what) for M in data]
    a = np.array(data, dtype=object)
    k = len(a) if a.ndim else -1
    if a.shape != {"rates": (k,), "matrix": (k, k, 2)}.get(layout) or not set(
            map(type, a.flat)) <= {int, float}:
        raise ValidationError(f"{what} must be {form}")
    a = _finite(what, a, float, a.shape, rule)
    return a.view(complex)[..., 0] if layout == "matrix" else a


def matrix_from_pairs(data) -> np.ndarray:
    """Inverse of matrix_to_pairs on a square matrix of document numbers."""
    return _numbers(data, "matrix", "malformed [re, im] matrix payload: data")


def dump_json(path, document) -> None:
    with open_output(path, "w") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")


def read_document(path, kind: str, **layouts) -> dict:
    """The fields of the model or state document at path: "n" as it stands, for
    the dataclass built from them to check, and each key of `layouts` read in its
    layout.  Bad JSON, JSON nested too deep or a missing key is a ValidationError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    keys = ["n", *layouts]
    if type(doc) is not dict or not doc.keys() >= set(keys):
        raise ValidationError(f"malformed {kind} document: need a JSON object with keys {keys}")
    return {"n": doc["n"], **{key: _numbers(doc[key], layout, f"malformed {kind} document: {key}")
                              for key, layout in layouts.items()}}
