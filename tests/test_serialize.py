"""JSON layout of complex matrices and of the `sample` frame lines, and the file writers."""

import errno
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specang import NumericalBreakdownError, ValidationError, sample_flags, serialize
from specang.serialize import (
    frame_lines, matrix_from_pairs, matrix_to_pairs, open_output, read_document, write_frames,
)


def ref_matrix_to_pairs(M):
    """The per-element list comprehension that matrix_to_pairs replaced."""
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def ref_frame_line(U):
    return json.dumps({"U": ref_matrix_to_pairs(U)}) + "\n"


# finite floats, with the values whose repr is easiest to get wrong
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
           1.7976931348623157e308, 1.0, -3.0, 1e16, 123456789012345678.0, 0.1, 1e-7)
entries = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def frame_stacks(draw):
    n = draw(st.integers(1, 8))
    count = draw(st.integers(1, 3))
    values = draw(st.lists(entries, min_size=2 * count * n * n, max_size=2 * count * n * n))
    return np.array(values).view(complex).reshape(count, n, n)


@given(frame_stacks())
@example(np.array([[[-0.0 + 5e-324j, 1e308 - 1e308j], [2.0 + 0j, -0.0 - 0.0j]]]))
@settings(max_examples=150, deadline=None)
def test_frame_lines_equal_json_dumps_of_the_pairs(frames):
    lines = list(frame_lines(frames))
    assert lines == [ref_frame_line(U) for U in frames]
    for line, U in zip(lines, frames):
        assert np.array_equal(matrix_from_pairs(json.loads(line)["U"]), U)


@given(frame_stacks())
@settings(max_examples=50, deadline=None)
def test_matrix_to_pairs_equals_the_per_element_lists(frames):
    for U in frames:
        pairs = matrix_to_pairs(U)
        assert pairs == ref_matrix_to_pairs(U)
        # the same values and the same signs of zero, as Python floats
        assert all(type(x) is float for row in pairs for pair in row for x in pair)
        assert json.dumps(pairs) == json.dumps(ref_matrix_to_pairs(U))
    assert matrix_to_pairs(frames) == [ref_matrix_to_pairs(U) for U in frames]


def test_matrix_to_pairs_reads_real_and_strided_input():
    A = np.arange(12.0).reshape(3, 4)[:, ::2]  # real, not contiguous
    assert matrix_to_pairs(A) == ref_matrix_to_pairs(A)
    assert matrix_to_pairs(A.T) == ref_matrix_to_pairs(A.T)


@pytest.mark.parametrize(
    "entry",
    [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
     complex(0.0, -math.inf)],
)
def test_frame_lines_reject_a_non_finite_entry(entry):
    # json would write NaN or Infinity, which is not JSON; the frame is a breakdown
    frames = np.zeros((3, 2, 2), dtype=complex)
    frames[2, 1, 0] = entry
    with pytest.raises(NumericalBreakdownError, match="non-finite"):
        frame_lines(frames)


def test_frame_lines_of_no_frames():
    assert list(frame_lines(np.zeros((0, 3, 3), dtype=complex))) == []


@pytest.mark.parametrize(
    "pair",
    [[True, 0.0], [0.0, False], [10**400, 0], [0, -(10**400)], ["1", 0.0], [None, 0.0]],
    ids=["bool-re", "bool-im", "huge-re", "huge-im", "string", "null"],
)
def test_matrix_from_pairs_rejects_an_entry_that_is_not_a_float(pair):
    # complex(True, 0) is 1 + 0j and complex(10**400, 0) raises OverflowError
    data = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], pair]]
    with pytest.raises(ValidationError, match=r"^malformed \[re, im\] matrix payload: "):
        matrix_from_pairs(data)


def test_matrix_from_pairs_reads_ints_and_floats():
    M = matrix_from_pairs([[[1, 0], [0.5, -2]], [[0.5, 2], [-1, 0.0]]])
    assert M.dtype == complex
    assert np.array_equal(M, np.array([[1, 0.5 - 2j], [0.5 + 2j, -1]]))


@pytest.mark.parametrize("entry, shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
def test_matrix_from_pairs_rejects_a_non_finite_entry(entry, shown):
    data = [[[0.5, 0.0], [0.0, entry]], [[0.0, 0.0], [0.5, 0.0]]]
    with pytest.raises(ValidationError, match=(
            rf"^malformed \[re, im\] matrix payload: data must be finite, got the entry {shown}$")):
        matrix_from_pairs(data)


@pytest.mark.parametrize(
    "data",
    [[[[1.0, 0.0]], [[0.0, 1.0]]], [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0]]],
     [[[1.0, 0.0, 0.0]]], [[[1.0]]], [[1.0, 0.0]], [[[[1.0, 0.0]]]], [], 1.0, "x",
     {"re": 1.0}, [[[1.0, [0.0]]]]],
    ids=["2x1", "ragged", "triple", "single", "too-shallow", "too-deep", "empty", "number",
         "string", "object", "list-entry"],
)
def test_matrix_from_pairs_rejects_what_is_not_a_square_matrix_of_pairs(data):
    with pytest.raises(ValidationError, match=(
            r"^malformed \[re, im\] matrix payload: data must be a square JSON matrix of "
            r"\[re, im\] number pairs$")):
        matrix_from_pairs(data)


@pytest.mark.parametrize(
    "text, message",
    [
        ('[1, 2]', "malformed state document: need a JSON object with keys ['n', 'rho']"),
        ('{"n": 2}', "malformed state document: need a JSON object with keys ['n', 'rho']"),
        ('{"n": 2, "rho": ' + "[" * 10**5 + "]" * 10**5 + "}", "malformed JSON in "),
        ('{"n": 2, "rho": [[[1, 0]]], "rates": "x"}', None),
    ],
    ids=["not-an-object", "missing-key", "nested-too-deep", "extra-key"],
)
def test_read_document_reads_an_object_with_its_keys(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    if message is None:  # a key the document kind does not read is ignored
        fields = read_document(path, "state", rho="matrix")
        assert fields["n"] == 2 and np.array_equal(fields["rho"], [[1.0]])
        return
    with pytest.raises(ValidationError) as exc:
        read_document(path, "state", rho="matrix")
    assert str(exc.value).startswith(message)


def test_read_document_names_the_key_and_the_rule(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"n": 2, "H": [[[1, 0]]], "jumps": 5, "rates": [1e999, 1]}')
    layouts = {"H": "matrix", "jumps": "matrices", "rates": "rates"}
    with pytest.raises(ValidationError, match="^malformed model document: jumps must be a JSON "
                                              "list of matrices$"):
        read_document(path, "model", **layouts)
    path.write_text('{"n": 2, "H": [[[1, 0]]], "jumps": [], "rates": [1e999, 1]}')
    with pytest.raises(ValidationError, match="^malformed model document: rates must be finite "
                                              "and non-negative, got the entry inf$"):
        read_document(path, "model", **layouts)
    path.write_text('{"n": 2.5, "H": [[[1, 0]]], "jumps": [], "rates": [2, 0.5]}')
    fields = read_document(path, "model", **layouts)
    # "n" is left to the dataclass; the numbers are floats and the matrices complex
    assert fields["n"] == 2.5 and fields["jumps"] == []
    assert fields["rates"].dtype == float and fields["H"].dtype == complex


# --- writing files -------------------------------------------------------------


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
@pytest.mark.parametrize("N", [0, 1, 2, 3, 1001])
@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_write_frames_writes_the_header_and_the_frame_lines(tmp_path, monkeypatch, n, N, forked):
    # both paths write the same bytes; a stack of fewer than two frames never forks
    forks = []
    fork = os.fork
    monkeypatch.setattr(serialize, "can_fork", lambda: forked)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    frames = sample_flags(n, N, 7)
    header = json.dumps({"n": n, "N": N}) + "\n"
    write_frames(tmp_path / "f.jsonl", header, frames)
    assert (tmp_path / "f.jsonl").read_bytes() == (header + "".join(frame_lines(frames))).encode()
    assert len(forks) == (forked and N >= 2)
    with pytest.raises(ChildProcessError):  # the child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("code", [errno.EAGAIN, errno.ENOMEM], ids=["EAGAIN", "ENOMEM"])
def test_write_frames_writes_in_process_when_the_fork_fails(tmp_path, monkeypatch, code):
    # at a process or memory limit os.fork raises: this process writes the second half
    # too, the same bytes, and closes both ends of the pipe it made for the child
    pipes, pipe = [], os.pipe

    def failing_fork():
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(serialize, "can_fork", lambda: True)
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    monkeypatch.setattr(os, "fork", failing_fork)
    frames = sample_flags(3, 1001, 7)
    header = json.dumps({"n": 3, "N": 1001}) + "\n"
    write_frames(tmp_path / "f.jsonl", header, frames)
    assert (tmp_path / "f.jsonl").read_bytes() == (header + "".join(frame_lines(frames))).encode()
    assert len(pipes) == 1
    for fd in pipes[0]:
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF


def test_write_frames_checks_every_frame_before_it_opens(tmp_path):
    out = tmp_path / "f.jsonl"
    out.write_bytes(b"previous\n")
    frames = sample_flags(3, 6, 0)
    frames[5, 2, 2] = complex(0.0, np.inf)
    with pytest.raises(NumericalBreakdownError, match="non-finite"):
        write_frames(out, "{}\n", frames)
    assert out.read_bytes() == b"previous\n"


def test_open_output_writes_a_fresh_file_that_a_hard_link_does_not_see(tmp_path):
    path, alias = tmp_path / "out.txt", tmp_path / "alias.txt"
    path.write_text("old\n")
    os.link(path, alias)
    with open_output(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n" and alias.read_text() == "old\n"


def test_open_output_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old content\n")
    link.symlink_to(target)
    with open_output(link, "w") as fh:
        fh.write("new\n")
    assert link.is_symlink() and target.read_text() == "new\n"


def test_open_output_of_a_directory_raises(tmp_path):
    with pytest.raises(IsADirectoryError):
        open_output(tmp_path)
    assert tmp_path.is_dir()
