"""Command-line interface: subcommands, exit codes, determinism."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from specang import (
    DensityMatrix, LindbladModel, __version__, resolution_check, sample_flags, serialize,
)
from specang.cli import main
from specang.dynamics import random_density, random_model, save_density, save_model
from specang.errors import MEMORY_LIMIT

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- convert ---------------------------------------------------------------


def test_convert_p_to_r(capsys):
    code, out, _ = run(capsys, "convert", "--n", "3", "--p", "0.5,0.3,0.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == pytest.approx([0.2, 0.1])
    assert doc["in_polytope"] is True
    assert doc["subcommand"] == "convert"
    assert "version" in doc


def test_convert_r_to_p(capsys):
    code, out, _ = run(capsys, "convert", "--n", "3", "--r", "0.2,0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == pytest.approx([0.5, 0.3, 0.2])


def test_convert_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "convert", "--n", "3")
    assert code == 2
    assert "error" in err
    code, _, _ = run(
        capsys, "convert", "--n", "3", "--p", "0.5,0.3,0.2", "--r", "0.2,0.1"
    )
    assert code == 2


def test_convert_rejects_bad_vector(capsys):
    code, _, err = run(capsys, "convert", "--n", "3", "--p", "0.2,0.3,0.5")
    assert code == 2
    code, _, err = run(capsys, "convert", "--n", "3", "--r", "0.2,abc")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("convert", "--n", "3", "--r", "nan,0.1"),
        ("convert", "--n", "3", "--p", "nan,0.5,0.5"),
        ("geometry", "--n", "3", "--r", "nan,0.1", "--purity"),
    ],
    ids=["convert-r", "convert-p", "geometry"],
)
def test_nan_input_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be finite, got the entry nan" in err


# --- geometry ---------------------------------------------------------------


def test_geometry_purity(capsys):
    code, out, _ = run(capsys, "geometry", "--n", "3", "--r", "0.2,0.1", "--purity")
    assert code == 0
    assert 0.0 < json.loads(out)["purity"] <= 1.0


def test_geometry_purity_at_maximally_mixed_state(capsys):
    code, out, _ = run(capsys, "geometry", "--n", "3", "--r", "0,0", "--purity")
    assert code == 0
    assert json.loads(out)["purity"] == 0.0


def test_geometry_fisher_symmetric(capsys):
    code, out, _ = run(capsys, "geometry", "--n", "4", "--r", "0.1,0.1,0.05", "--fisher")
    assert code == 0
    g = np.array(json.loads(out)["fisher"])
    assert np.allclose(g, g.T)


def test_geometry_kl_pair(capsys):
    code, out, _ = run(capsys, "geometry", "--n", "3", "--r", "0.02,0.01", "--kl")
    doc = json.loads(out)
    assert code == 0
    assert doc["kl_exact"] == pytest.approx(doc["kl_quadratic"], rel=0.05)


def test_geometry_kl_at_a_pure_state(capsys):
    code, out, _ = run(capsys, "geometry", "--n", "2", "--r", "1.0", "--kl")
    assert code == 0
    assert json.loads(out)["kl_exact"] == 0.6931471805599453


def test_geometry_entropy_of_a_pure_state_prints_a_positive_zero(capsys):
    code, out, _ = run(capsys, "geometry", "--n", "2", "--r", "1.0", "--entropy")
    assert code == 0
    assert '"entropy": 0.0' in out


def test_geometry_singular_exit_code(capsys):
    # pure state: Fisher metric blows up -> numerical breakdown exit code
    code, _, err = run(capsys, "geometry", "--n", "2", "--r", "1.0", "--fisher")
    assert code == 3
    assert "breakdown" in err


# --- printed numbers --------------------------------------------------------

# stdout of `geometry` and `convert` at one fixed gap vector for n = 3 and
# n = 5, compared as text: a change in the last bit (or the sign of a zero)
# of any printed number fails here
GOLDEN_R = {3: "0.31,0.17", 5: "0.21,0.13,0.08,0.04"}
GOLDEN_P = {
    3: "0.5966666666666667,0.2866666666666667,0.11666666666666664",
    5: "0.48600000000000004,0.276,0.14600000000000002,0.066,0.026000000000000023",
}
GOLDEN = {
    ("fisher", 3): {"fisher": [
        [2.0848568087752186, 1.889604484121829],
        [1.889604484121829, 4.383340448040982],
    ]},
    ("bures", 3): {
        "bures_spectral": [
            [0.5212142021938047, 0.4724011210304572],
            [0.4724011210304572, 1.0958351120102454],
        ],
        "bures_angular_weights": {
            "1,2": 0.05439622641509435, "1,3": 0.16149532710280373, "2,3": 0.03582644628099173,
        },
    },
    ("purity", 3): {"purity": 0.395},
    ("kl", 3): {"kl_exact": 0.18167351026332967, "kl_quadratic": 0.1777},
    ("entropy", 3): {"entropy": 0.91693877840478},
    ("convert-r", 3): {
        "p": [0.5966666666666667, 0.2866666666666667, 0.11666666666666664],
        "r": [0.31, 0.17],
        "in_polytope": True,
    },
    ("convert-p", 3): {
        "p": [0.5966666666666667, 0.2866666666666667, 0.11666666666666664],
        "r": [0.31, 0.17000000000000004],
        "in_polytope": True,
    },
    ("fisher", 5): {"fisher": [
        [3.8802947114772928, 5.389861206815741, 6.254202369614979, 5.458103515809818],
        [5.389861206815741, 11.719067555875174, 13.134634834059087, 11.229322079034201],
        [6.254202369614979, 13.134634834059087, 21.30551796358161, 17.64576597479779],
        [5.458103515809818, 11.229322079034201, 17.64576597479779, 25.722649887165783],
    ]},
    ("bures", 5): {
        "bures_spectral": [
            [0.9700736778693232, 1.3474653017039353, 1.5635505924037447, 1.3645258789524546],
            [1.3474653017039353, 2.9297668889687936, 3.2836587085147717, 2.8073305197585503],
            [1.5635505924037447, 3.2836587085147717, 5.326379490895403, 4.4114414936994475],
            [1.3645258789524546, 2.8073305197585503, 4.4114414936994475, 6.430662471791446],
        ],
        "bures_angular_weights": {
            "1,2": 0.028937007874015742, "1,3": 0.09145569620253162,
            "1,4": 0.15978260869565214, "1,5": 0.20664062499999994,
            "2,3": 0.020023696682464447, "2,4": 0.06447368421052631,
            "2,5": 0.10347682119205294, "3,4": 0.015094339622641515,
            "3,5": 0.041860465116279055, "4,5": 0.008695652173913031,
        },
    },
    ("purity", 5): {"purity": 0.45250000000000007},
    ("kl", 5): {"kl_exact": 0.34824495333725647, "kl_quadratic": 0.34680000000000005},
    ("entropy", 5): {"entropy": 1.2611929590968438},
    ("convert-r", 5): {
        "p": [0.48600000000000004, 0.276, 0.14600000000000002, 0.066, 0.026000000000000023],
        "r": [0.21, 0.13, 0.08, 0.04],
        "in_polytope": True,
    },
    ("convert-p", 5): {
        "p": [0.48600000000000004, 0.276, 0.14600000000000002, 0.066, 0.026000000000000023],
        "r": [0.21000000000000002, 0.13, 0.08000000000000002, 0.03999999999999998],
        "in_polytope": True,
    },
}


@pytest.mark.parametrize("which, n", list(GOLDEN))
def test_printed_output_matches_golden_text(capsys, which, n):
    if which.startswith("convert"):
        flag, vec = ("--r", GOLDEN_R[n]) if which == "convert-r" else ("--p", GOLDEN_P[n])
        argv = ["convert", "--n", str(n), flag, vec]
        head = {"version": __version__, "subcommand": "convert", "n": n}
    else:
        argv = ["geometry", "--n", str(n), "--r", GOLDEN_R[n], f"--{which}"]
        r = [float(x) for x in GOLDEN_R[n].split(",")]
        head = {"version": __version__, "subcommand": "geometry", "n": n, "r": r}
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps({**head, **GOLDEN[which, n]}, indent=2) + "\n"


def test_convert_prints_equal_probabilities_as_a_positive_zero_gap(capsys):
    code, out, _ = run(capsys, "convert", "--n", "3", "--p", "0.4,0.4,0.2")
    assert code == 0
    assert not np.any(np.signbit(json.loads(out)["r"]))


# --- verify -----------------------------------------------------------------


def test_verify_volumes(capsys):
    code, out, _ = run(
        capsys, "verify", "volumes", "--n", "4", "--N", "50000", "--seed", "1"
    )
    assert code == 0
    assert "RESULT: PASS" in out


def test_verify_volumes_exact_at_n2(capsys):
    # at n = 2 the sampling box is the polytope: the estimate is exact, se = 0
    code, out, _ = run(capsys, "verify", "volumes", "--n", "2", "--N", "1000")
    assert code == 0
    assert "RESULT: PASS" in out


def test_verify_identity_small(capsys):
    code, out, _ = run(
        capsys, "verify", "identity", "--n", "2", "--N", "5000", "--tol", "0.1"
    )
    assert code == 0
    assert out.count("PASS") >= 2


def identity_errors(out):
    """The frobenius_error of each column line of a `verify identity` report."""
    return [line.split("frobenius_error=")[1].split()[0] for line in out.splitlines()[:-1]]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_identity_is_one_draw_at_the_seed(capsys, n):
    # every column comes from one frame draw at --seed: column i is
    # resolution_check's column i at that same seed
    N, seed = 3000, 7
    code, out, _ = run(capsys, "verify", "identity", "--n", str(n), "--N", str(N),
                       "--seed", str(seed), "--tol", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == n + 1 and lines[-1] == "RESULT: PASS"
    assert all(line.startswith(f"identity column {i}: ") for i, line in enumerate(lines[:-1], 1))
    assert identity_errors(out) == [
        f"{resolution_check(n, i, N, seed)[1]:.4f}" for i in range(1, n + 1)
    ]


@pytest.mark.parametrize("n", [3, 4])
def test_verify_identity_matches_sample_column_error(capsys, tmp_path, n):
    # the phase section of `sample` leaves each u_i u_i^dag unchanged, so the
    # largest column error of the report is the header's, up to print precision
    N, seed = 2000, 5
    _, out, _ = run(capsys, "verify", "identity", "--n", str(n), "--N", str(N),
                    "--seed", str(seed), "--tol", "0.5")
    path = tmp_path / "frames.jsonl"
    code, _, _ = run(capsys, "sample", "--n", str(n), "--N", str(N), "--seed", str(seed),
                     "--out", str(path))
    assert code == 0
    header = json.loads(path.read_text().splitlines()[0])
    worst = max(map(float, identity_errors(out)))
    assert worst == pytest.approx(header["column_resolution_error"], abs=5e-5)


def test_verify_measure(capsys):
    code, out, _ = run(capsys, "verify", "measure", "--n", "2", "--N", "20000")
    assert code == 0
    assert "RESULT: PASS" in out


def test_verify_measure_single_sample_exits_2(capsys):
    # one sample has no standard error: an input error, not a failed check
    code, out, err = run(capsys, "verify", "measure", "--n", "2", "--N", "1")
    assert code == 2
    assert "measure needs N >= 2" in err
    assert "RESULT" not in out


def test_verify_unitarity_and_qutrit(capsys):
    code, out, _ = run(capsys, "verify", "unitarity", "--n", "3", "--trials", "50")
    assert code == 0
    code, out, _ = run(capsys, "verify", "qutrit-matrix", "--trials", "50")
    assert code == 0


@pytest.mark.parametrize("which", ["unitarity", "qutrit-matrix"])
def test_verify_zero_trials_passes(capsys, which):
    code, out, _ = run(capsys, "verify", which, "--trials", "0")
    assert code == 0
    assert "RESULT: PASS" in out


# --- evolve -----------------------------------------------------------------


@pytest.fixture
def model_files(tmp_path):
    save_model(tmp_path / "model.json", random_model(2, seed=3))
    save_density(tmp_path / "rho0.json", random_density(2, seed=4))
    return tmp_path


def test_evolve_both(capsys, model_files):
    out_prefix = str(model_files / "run")
    code, out, _ = run(
        capsys,
        "evolve",
        "--model", str(model_files / "model.json"),
        "--rho0", str(model_files / "rho0.json"),
        "--method", "both",
        "--dt", "1e-3",
        "--t-end", "0.2",
        "--out", out_prefix,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["max_divergence"] < 1e-7
    # 200 steps of a qubit in the superoperator form take the increment matrix; the
    # split run never fell back, so it took no direct step
    assert doc["direct_step"] == {"direct": "matrix", "split": None}
    for path in doc["files"]:
        text = open(path).read()
        assert text.startswith("# ")
        assert "purity_R" in text


@pytest.mark.parametrize("record_every", [1, 10, 100])
def test_evolve_both_compares_matching_times_after_fallback(capsys, tmp_path, record_every):
    # amplitude damping closes the gap of diag(0.3, 0.7) at t = 0.336; the
    # direct route continues the split run on its own grid, so both CSVs
    # hold the same times and every record is compared
    L = np.array([[0.0, 1.0], [0.0, 0.0]])
    save_model(tmp_path / "model.json", LindbladModel(2, np.zeros((2, 2)), (L,), (1.0,)))
    save_density(tmp_path / "rho0.json", DensityMatrix(2, np.diag([0.3, 0.7])))
    code, out, _ = run(
        capsys,
        "evolve",
        "--model", str(tmp_path / "model.json"),
        "--rho0", str(tmp_path / "rho0.json"),
        "--method", "both",
        "--t-end", "1",
        "--record-every", str(record_every),
        "--fallback",
        "--out", str(tmp_path / "run"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["breakdown_time"] == pytest.approx(0.336)
    assert doc["max_divergence"] <= 1e-12
    assert doc["direct_step"] == {"direct": "matrix", "split": "matrix"}  # 664 steps left
    direct, split = (
        [row.split(",")[0] for row in (tmp_path / f"run_{m}.csv").read_text().splitlines()
         if not row.startswith("#")]
        for m in ("direct", "split")
    )
    assert split == direct


def test_evolve_fallback_resumes_before_a_step_that_leaves_the_chart(capsys, tmp_path):
    # the split step to t = 0.003 throws the frame off U(n) (defect 1.3e3): it is
    # rejected, and the direct route resumes from the true state at t = 0.002
    # instead of a broken one that fails positivity at t = 0.003
    save_model(tmp_path / "model.json", random_model(4, seed=4, jump_scale=3.0))
    save_density(tmp_path / "rho0.json", random_density(4, seed=104))
    code, out, err = run(
        capsys,
        "evolve",
        "--model", str(tmp_path / "model.json"),
        "--rho0", str(tmp_path / "rho0.json"),
        "--method", "both",
        "--fallback",
        "--dt", "1e-3",
        "--t-end", "0.1",
        "--record-every", "1",
        "--out", str(tmp_path / "run"),
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["breakdown_time"] == 0.002
    assert doc["max_divergence"] <= 1e-3


def test_evolve_from_the_maximally_mixed_state_hands_over_at_t0(capsys, tmp_path):
    # 1/3 has no eigenframe: the split run hands over at t = 0 from rho0 itself
    save_model(tmp_path / "model.json", random_model(3, seed=1))
    save_density(tmp_path / "rho0.json", DensityMatrix(3, np.eye(3) / 3.0))
    argv = ["evolve", "--model", str(tmp_path / "model.json"),
            "--rho0", str(tmp_path / "rho0.json"), "--t-end", "0.05",
            "--out", str(tmp_path / "run")]
    code, out, _ = run(capsys, *argv, "--method", "both", "--fallback")
    assert code == 0
    doc = json.loads(out)
    assert doc["breakdown_time"] == 0.0 and doc["max_divergence"] == 0.0
    code, out, _ = run(capsys, *argv, "--method", "split", "--fallback")
    assert code == 0 and json.loads(out)["direct_step"] == {"split": "matrix"}
    code, out, err = run(capsys, *argv, "--method", "split")
    assert code == 3 and out == ""
    assert err == ("numerical breakdown: split integration broke down at t=0: "
                   "spectral gap below 1e-10; eigenframe breaks down\n")


@pytest.mark.parametrize("rates", ["12", {"1": 0, "2": 0}, ["0.5", 1], [True, 1]],
                         ids=["string", "object", "string-item", "bool-item"])
def test_evolve_rates_not_a_list_of_numbers_exits_2(capsys, model_files, rates):
    path = model_files / "model.json"
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "rates": rates}))
    code, out, err = run(
        capsys,
        "evolve",
        "--model", str(path),
        "--rho0", str(model_files / "rho0.json"),
        "--out", str(model_files / "run"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "rates" in err
    assert not list(model_files.glob("run_*.csv"))


def _set_entry(doc, key, value):
    """Put value at the first real part of a matrix of doc, or as its first rate."""
    if key == "rates":
        doc["rates"][0] = value
    else:
        (doc["jumps"][0] if key == "jumps" else doc[key])[0][0][0] = value


@pytest.mark.parametrize("value", [10**400, True], ids=["beyond-float-range", "bool"])
@pytest.mark.parametrize("name, key", [("model.json", "rates"), ("model.json", "H"),
                                       ("model.json", "jumps"), ("rho0.json", "rho")])
def test_evolve_entry_that_is_not_a_float_exits_2(capsys, model_files, name, key, value):
    # a JSON integer beyond float range raised OverflowError (exit 1, a traceback),
    # and a bool was read as 1.0; a bool rate was already rejected
    path = model_files / name
    doc = json.loads(path.read_text())
    _set_entry(doc, key, value)
    path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys,
        "evolve",
        "--model", str(model_files / "model.json"),
        "--rho0", str(model_files / "rho0.json"),
        "--out", str(model_files / "run"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not list(model_files.glob("run_*.csv"))


@pytest.mark.parametrize("method", ["direct", "split"])
def test_evolve_nan_rate_is_rejected(capsys, model_files, method):
    path = model_files / "model.json"
    doc = json.loads(path.read_text())
    doc["rates"][0] = float("nan")
    path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys,
        "evolve",
        "--model", str(path),
        "--rho0", str(model_files / "rho0.json"),
        "--method", method,
        "--out", str(model_files / "run"),
    )
    assert code == 2
    assert "rates must be finite" in err
    assert not list(model_files.glob("run_*.csv"))


@pytest.mark.parametrize("method", ["direct", "split"])
@pytest.mark.parametrize("n_model, n_state", [(2, 3), (3, 2)])
def test_evolve_dimension_mismatch_exits_2(capsys, tmp_path, method, n_model, n_state):
    save_model(tmp_path / "model.json", random_model(n_model, seed=3))
    save_density(tmp_path / "rho0.json", random_density(n_state, seed=4))
    code, _, err = run(
        capsys,
        "evolve",
        "--model", str(tmp_path / "model.json"),
        "--rho0", str(tmp_path / "rho0.json"),
        "--method", method,
        "--out", str(tmp_path / "run"),
    )
    assert code == 2
    assert "state and model dimensions disagree" in err


@pytest.mark.parametrize("method", ["direct", "split", "both"])
def test_evolve_one_level_input_exits_2(capsys, tmp_path, method):
    # a model and a state of dimension 1 are input errors, not numpy's reduction traceback
    (tmp_path / "model.json").write_text(
        '{"n": 1, "H": [[[0.5, 0.0]]], "jumps": [[[[1.0, 0.0]]]], "rates": [1.0]}')
    (tmp_path / "rho0.json").write_text('{"n": 1, "rho": [[[1.0, 0.0]]]}')
    code, out, err = run(
        capsys,
        "evolve",
        "--model", str(tmp_path / "model.json"),
        "--rho0", str(tmp_path / "rho0.json"),
        "--method", method,
        "--out", str(tmp_path / "run"),
    )
    assert code == 2 and out == ""
    assert err == "error: dimension must be an integer >= 2, got 1\n"
    assert not list(tmp_path.glob("run_*.csv"))


@pytest.mark.parametrize(
    "name, content",
    [
        ("model.json", b"{not json"),
        ("rho0.json", b"{not json"),
        ("rho0.json", b'{"n": "x", "rho": [[[1.0, 0.0]]]}'),
        ("rho0.json", b"\xff\xfe{}"),
        # a fractional, huge or boolean "n" is not read as an integer, although
        # the 2 x 2 rho would pass as the model's dimension
        ("rho0.json", b'{"n": 2.7, "rho": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}'),
        ("rho0.json", b'{"n": 1e308, "rho": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}'),
        ("rho0.json", b'{"n": true, "rho": [[[1.0, 0.0]]]}'),
    ],
    ids=["model-not-json", "state-not-json", "state-n-not-an-int", "state-not-utf8",
         "state-n-fractional", "state-n-huge-float", "state-n-bool"],
)
def test_evolve_malformed_input_file_exits_2(capsys, model_files, name, content):
    (model_files / name).write_bytes(content)
    code, _, err = run(
        capsys,
        "evolve",
        "--model", str(model_files / "model.json"),
        "--rho0", str(model_files / "rho0.json"),
        "--out", str(model_files / "run"),
    )
    assert code == 2
    assert err.startswith("error:")


def evolve_argv(files, *extra):
    return ["evolve", "--model", str(files / "model.json"), "--rho0", str(files / "rho0.json"),
            "--out", str(files / "run"), *extra]


class CountedWrites(io.StringIO):
    """A text stream that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [["convert", "--n", "3", "--p", "0.5,0.3,0.2"], ["convert", "--n", "3", "--r", "0.2,0.1"]]
    + [["geometry", "--n", "3", "--r", "0.2,0.1", f"--{which}"]
       for which in ("fisher", "bures", "purity", "kl", "entropy")]
    + [["--t-end", "0.05", "--method", method] for method in ("direct", "split", "both")],
    ids=["convert-p", "convert-r", "fisher", "bures", "purity", "kl", "entropy",
         "evolve-direct", "evolve-split", "evolve-both"],
)
def test_a_json_document_is_one_write_in_the_indented_layout(monkeypatch, model_files, argv):
    # the document is written whole, in json.dumps(..., indent=2) layout and a newline,
    # the bytes json.dump wrote chunk by chunk
    if argv[0].startswith("--"):
        argv = evolve_argv(model_files, *argv)
    stdout = CountedWrites()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    out = stdout.getvalue()
    assert stdout.writes == 1
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_evolve_deeply_nested_document_exits_2(capsys, model_files):
    # json.load raised RecursionError: a traceback and exit 1.  The text is
    # written raw: json.dumps of such a list would recurse itself
    depth = 10**5
    (model_files / "rho0.json").write_text('{"n": 2, "rho": ' + "[" * depth + "]" * depth + "}")
    code, out, err = run(capsys, *evolve_argv(model_files))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed JSON in ") and "recursion" in err
    assert err.count("\n") == 1 and "Traceback" not in err


# JSON tokens that Python's json reads as non-finite floats, and their repr
NON_FINITE = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf", "1e400": "inf"}


def _write_token(path, doc, token):
    """Write doc with its "TOKEN" string replaced by the raw JSON token."""
    path.write_text(json.dumps(doc).replace('"TOKEN"', token))


@pytest.mark.parametrize("token", list(NON_FINITE))
def test_evolve_non_finite_state_entry_exits_2(capsys, model_files, token):
    # such a rho used to fail later, and as "density matrix is not Hermitian"
    path = model_files / "rho0.json"
    doc = json.loads(path.read_text())
    doc["rho"][1][0][1] = "TOKEN"
    _write_token(path, doc, token)
    code, out, err = run(capsys, *evolve_argv(model_files))
    assert code == 2 and out == ""
    assert err == ("error: malformed state document: rho must be finite, "
                   f"got the entry {NON_FINITE[token]}\n")
    assert not list(model_files.glob("run_*.csv"))


@pytest.mark.parametrize("token", list(NON_FINITE))
@pytest.mark.parametrize("key", ["H", "jumps"])
def test_evolve_non_finite_model_entry_exits_2(capsys, model_files, key, token):
    path = model_files / "model.json"
    doc = json.loads(path.read_text())
    _set_entry(doc, key, "TOKEN")
    _write_token(path, doc, token)
    code, out, err = run(capsys, *evolve_argv(model_files))
    assert code == 2 and out == ""
    assert err == (f"error: malformed model document: {key} must be finite, "
                   f"got the entry {NON_FINITE[token]}\n")


def test_evolve_records_beyond_the_memory_limit_exit_2(capsys, model_files):
    # t_end / dt = 1e299 steps is finite, so the run started and could only
    # end by exhausting memory; its record count is checked before any step
    code, out, err = run(capsys, *evolve_argv(model_files, "--dt", "1e-300", "--t-end", "0.1"))
    assert code == 2 and out == ""
    assert err.startswith("error: 1") and err.count("\n") == 1
    assert err.endswith(f" complex 2 x 2 matrices exceed the memory limit of {MEMORY_LIMIT} B\n")
    assert not list(model_files.glob("run_*.csv"))


@pytest.mark.parametrize("method", ["direct", "split", "both"])
def test_evolve_blow_up_writes_one_stderr_line(model_files, method):
    # a rate of 1e308 overflows the first step; numpy's overflow warnings went to
    # stderr ahead of the breakdown line, which only a fresh interpreter shows
    (model_files / "model.json").write_text(json.dumps({
        "n": 2, "H": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        "jumps": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]], "rates": [1e308]}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "specang.cli",
         *evolve_argv(model_files, "--method", method, "--fallback")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("numerical breakdown: ") and proc.stderr.count("\n") == 1


# Each draw is checked before it is made, so none of these allocates.  With
# no check, each would fail at once on its first allocation, or (--N 0) loop
# over a million empty Gram-Schmidt columns, rather than fill memory slowly
@pytest.mark.parametrize(
    "argv, count, n",
    [
        (("sample", "--n", "1000000", "--N", "1"), 2, 1000000),
        (("sample", "--n", "1000000", "--N", "0"), 1, 1000000),
        (("sample", "--n", "2", "--N", "10000000000"), 10000000001, 2),
        (("verify", "identity", "--n", "1000000", "--N", "1"), 2, 1000000),
        (("verify", "measure", "--n", "3", "--N", "10000000000"), 10000000001, 3),
        (("verify", "unitarity", "--n", "3", "--trials", "10000000000"), 10000000001, 3),
        (("verify", "qutrit-matrix", "--trials", "10000000000"), 10000000001, 3),
    ],
    ids=["sample-n", "sample-n-no-frames", "sample-N", "verify-identity", "verify-measure",
         "verify-unitarity", "verify-qutrit-matrix"],
)
def test_draws_beyond_the_memory_limit_exit_2(capsys, tmp_path, argv, count, n):
    out_file = tmp_path / "frames.jsonl"
    extra = ("--out", str(out_file)) if argv[0] == "sample" else ()
    code, out, err = run(capsys, *argv, *extra)
    assert code == 2 and out == ""
    assert err == (f"error: {count} complex {n} x {n} matrices exceed the memory limit "
                   f"of {MEMORY_LIMIT} B\n")
    assert not out_file.exists()


# --- the document boundary, fuzzed --------------------------------------------

FUZZ_MODEL = {
    "n": 2,
    "H": [[[0.5, 0.0], [0.1, -0.2]], [[0.1, 0.2], [-0.5, 0.0]]],
    "jumps": [[[[0.3, 0.0], [0.2, 0.1]], [[0.0, 0.0], [-0.3, 0.0]]]],
    "rates": [1],
}
FUZZ_STATE = {"n": 2, "rho": [[[0.6, 0.0], [0.1, 0.1]], [[0.1, -0.1], [0.4, 0.0]]]}
DEEP = "\u0000deep"  # a value written as a list nested 10**5 deep
SWAPS = [True, False, None, "0.5", 10**400, -(10**400), math.nan, math.inf, -math.inf,
         1e308, 0, 0.25, -1, 3, 2.0, [], {}, [0.5], [[0.5, 0.0]], DEEP]


@st.composite
def mutated_documents(draw):
    """(model, state) after up to three edits at random places: a value
    swapped for one of SWAPS, an item or key deleted, an item duplicated or
    an extra key added, or a value wrapped in one more list."""
    docs = copy.deepcopy((FUZZ_MODEL, FUZZ_STATE))
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(docs))
        if not isinstance(node, dict) or not node:
            continue
        key = draw(st.sampled_from(sorted(node)))
        while isinstance(node[key], list) and node[key] and draw(st.booleans()):
            node, key = node[key], draw(st.integers(0, len(node[key]) - 1))
        edit = draw(st.sampled_from(["swap", "delete", "add", "wrap"]))
        if edit == "swap":
            node[key] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
        elif edit == "delete":
            del node[key]
        elif edit == "add" and isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
        elif edit == "add":
            node["extra"] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
        else:
            node[key] = [node[key]]
    return docs


def _document_text(doc):
    deep = "[" * 10**5 + "]" * 10**5
    return json.dumps(doc).replace(json.dumps(DEEP), deep)


def _with(doc, key, value):
    return {**copy.deepcopy(doc), key: value}


def _rho_entry(token_value):
    return _with(FUZZ_STATE, "rho", [[[token_value, 0.0], [0.1, 0.1]], [[0.1, -0.1], [0.4, 0.0]]])


@given(mutated_documents(), st.sampled_from(["0.001", "0.005", "0.01", "1e-300"]))
@example((FUZZ_MODEL, _with(FUZZ_STATE, "rho", DEEP)), "0.001")  # RecursionError, exit 1
@example((FUZZ_MODEL, _rho_entry(math.nan)), "0.001")  # "not Hermitian"
@example((FUZZ_MODEL, _rho_entry(math.inf)), "0.001")
@example((FUZZ_MODEL, _rho_entry(-math.inf)), "0.001")
@example((FUZZ_MODEL, _rho_entry(10**400)), "0.001")
@example((_with(FUZZ_MODEL, "rates", [math.nan]), FUZZ_STATE), "0.001")
@example((_with(FUZZ_MODEL, "n", True), FUZZ_STATE), "0.001")
@example((FUZZ_MODEL, _with(FUZZ_STATE, "n", 3)), "0.001")
@example((FUZZ_MODEL, FUZZ_STATE), "1e-300")  # a run that could not end
@example((_with(FUZZ_MODEL, "rates", [1e308]), FUZZ_STATE), "0.001")  # exit 3
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_every_document_exits_with_one_line(docs, dt):
    # whatever the documents hold, evolve ends in 0, 2 or 3 and at most one
    # stderr line, never in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        files = Path(tmp)
        for name, doc in zip(("model.json", "rho0.json"), docs):
            (files / name).write_text(_document_text(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(evolve_argv(files, "--dt", dt, "--t-end", "0.01", "--fallback"))
    err = err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and json.loads(out.getvalue())["files"]
    else:
        prefix = {2: "error: ", 3: "numerical breakdown: "}[code]
        assert err.startswith(prefix) and err.count("\n") == 1 and out.getvalue() == ""


def test_evolve_dt_above_t_end_exits_2(capsys, model_files):
    code, out, err = run(
        capsys,
        "evolve",
        "--model", str(model_files / "model.json"),
        "--rho0", str(model_files / "rho0.json"),
        "--dt", "1", "--t-end", "0.1",
        "--out", str(model_files / "run"),
    )
    assert code == 2
    assert out == ""
    assert "exceeds t_end" in err


def test_evolve_t_end_off_the_step_grid_exits_2(capsys, model_files):
    # 0.25 / 0.1 steps: the run would have ended at 0.2 without a word
    code, out, err = run(
        capsys,
        "evolve",
        "--model", str(model_files / "model.json"),
        "--rho0", str(model_files / "rho0.json"),
        "--dt", "0.1", "--t-end", "0.25",
        "--out", str(model_files / "run"),
    )
    assert code == 2
    assert out == ""
    assert "not a multiple of dt" in err and "0.2 and 0.3" in err
    assert not (model_files / "run_direct.csv").exists()


def test_evolve_eigenvalue_below_the_record_floor_exits_3(capsys, tmp_path):
    # RK4 just outside its stability region grows the Bloch vector of a
    # unitary qubit: record 2 has an eigenvalue of -5e-10, below -EIG_TOL but
    # above -BREAKDOWN_TOL.  The run broke down (exit 3); its input was valid
    save_model(tmp_path / "model.json", LindbladModel(2, np.diag([0.5, -0.5]), (), ()))
    c = 1.0 - 1e-9
    save_density(tmp_path / "rho0.json", DensityMatrix(2, 0.5 * np.array([[1.0, c], [c, 1.0]])))
    dt = math.sqrt(8.0 + 2.25e-9)
    code, out, err = run(
        capsys,
        "evolve",
        "--model", str(tmp_path / "model.json"),
        "--rho0", str(tmp_path / "rho0.json"),
        "--method", "direct",
        "--dt", repr(dt), "--t-end", repr(2.0 * dt),
        "--record-every", "1",
        "--out", str(tmp_path / "run"),
    )
    assert code == 3
    assert out == ""
    assert "positivity violated at t=5.65685" in err


def test_evolve_missing_model_is_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "evolve",
        "--model", str(tmp_path / "nope.json"),
        "--rho0", str(tmp_path / "nope2.json"),
        "--out", str(tmp_path / "x"),
    )
    assert code == 4
    assert "i/o error" in err


# --- sample -----------------------------------------------------------------


def test_sample_qubit_ks(capsys, tmp_path):
    out = tmp_path / "frames.jsonl"
    code, stdout, _ = run(
        capsys, "sample", "--n", "2", "--N", "2000", "--seed", "5", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["ks_pvalue"] > 1e-4
    assert len(lines) == 2001
    U = json.loads(lines[1])["U"]
    mat = np.array([[complex(re, im) for re, im in row] for row in U])
    assert np.linalg.norm(mat.conj().T @ mat - np.eye(2)) < 1e-12


@pytest.mark.parametrize("N", [1, 7, 2000])
def test_sample_ks_matches_scipy_kstest(capsys, tmp_path, N):
    out = tmp_path / "frames.jsonl"
    code, _, _ = run(capsys, "sample", "--n", "2", "--N", str(N), "--seed", "11", "--out", str(out))
    assert code == 0
    header = json.loads(out.read_text().splitlines()[0])
    # the overlap from the frames themselves: one re-read from the file may be an ulp off
    ref = kstest(np.abs(sample_flags(2, N, 11)[:, 0, 0]) ** 2, "uniform")
    assert header["ks_statistic"] == ref.statistic
    assert header["ks_pvalue"] == pytest.approx(ref.pvalue, rel=1e-9, abs=0.0)


def test_sample_does_not_import_scipy(tmp_path):
    # scipy is a test dependency only; importing it cost `sample` over a second
    code = (
        "import sys\n"
        "from specang.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['sample', '--n', '2', '--N', '100', '--seed', '1', '--out', out]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "f.jsonl")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_sample_resolution_statistics(capsys, tmp_path):
    # each column averages n u_i u_i^dag to 1 up to sampling noise; the mean
    # over columns is mean_b U U^dag, which is 1 for any unitary frames
    out = tmp_path / "frames.jsonl"
    code, _, _ = run(capsys, "sample", "--n", "3", "--N", "2000", "--seed", "4", "--out", str(out))
    assert code == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert 0.0 < header["column_resolution_error"] < 0.3
    assert header["resolution_error"] < 1e-9


def test_sample_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(capsys, "sample", "--n", "3", "--N", "20", "--seed", "9", "--out", str(a))
    run(capsys, "sample", "--n", "3", "--N", "20", "--seed", "9", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_seed_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPECANG_SEED", "33")
    # main() resolves an omitted --seed from the environment on every call
    out = tmp_path / "env.jsonl"
    code, _, _ = run(capsys, "sample", "--n", "2", "--N", "5", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text().splitlines()[0])["seed"] == 33


def test_seed_from_environment_set_after_a_first_call(capsys, tmp_path, monkeypatch):
    # the parser is built once per process; the seed is still read per call
    monkeypatch.delenv("SPECANG_SEED", raising=False)
    out = tmp_path / "env.jsonl"

    def seed():
        code, _, _ = run(capsys, "sample", "--n", "2", "--N", "1", "--out", str(out))
        assert code == 0
        return json.loads(out.read_text().splitlines()[0])["seed"]

    assert seed() == 0
    monkeypatch.setenv("SPECANG_SEED", "41")
    assert seed() == 41
    monkeypatch.delenv("SPECANG_SEED")
    assert seed() == 0


def seeded_argv(command, model_files, tmp_path):
    """A short run of each subcommand that takes a seed, without --seed."""
    return {
        "verify": ["verify", "volumes", "--n", "4", "--N", "100"],
        "evolve": ["evolve", "--model", str(model_files / "model.json"),
                   "--rho0", str(model_files / "rho0.json"), "--t-end", "0.01",
                   "--out", str(tmp_path / "traj")],
        "sample": ["sample", "--n", "2", "--N", "5", "--out", str(tmp_path / "s.jsonl")],
    }[command]


@pytest.mark.parametrize("command", ["verify", "evolve", "sample"])
def test_non_integer_seed_from_environment_exits_2(capsys, tmp_path, monkeypatch,
                                                    model_files, command):
    monkeypatch.setenv("SPECANG_SEED", "abc")
    code, out, err = run(capsys, *seeded_argv(command, model_files, tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: SPECANG_SEED must be an integer") and "'abc'" in err
    assert err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("command", ["verify", "evolve", "sample"])
def test_negative_seed_from_environment_exits_2(capsys, tmp_path, monkeypatch,
                                                model_files, command):
    # numpy's generators take no negative seed; it is an input error, not a traceback
    monkeypatch.setenv("SPECANG_SEED", "-3")
    code, out, err = run(capsys, *seeded_argv(command, model_files, tmp_path))
    assert code == 2 and out == ""
    assert err == "error: SPECANG_SEED must be an integer >= 0, got '-3'\n"


def test_convert_ignores_the_seed_variable(capsys, monkeypatch):
    monkeypatch.setenv("SPECANG_SEED", "abc")
    code, out, _ = run(capsys, "convert", "--n", "3", "--p", "0.5,0.3,0.2")
    assert code == 0
    assert json.loads(out)["r"] == pytest.approx([0.2, 0.1])


def test_repeated_main_calls_get_fresh_defaults(capsys):
    code, out, _ = run(capsys, "verify", "measure", "--n", "4", "--N", "200")
    assert code == 0 and "n=4" in out
    code, out, _ = run(capsys, "verify", "measure", "--N", "200")
    assert code == 0 and "n=3" in out


def test_valid_call_after_argparse_rejection(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "measure", "--n", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "convert", "--n", "3", "--p", "0.5,0.3,0.2")
    assert code == 0
    assert json.loads(out)["r"] == pytest.approx([0.2, 0.1])


def test_sample_zero_frames_writes_header_only(capsys, tmp_path):
    out = tmp_path / "none.jsonl"
    code, _, _ = run(capsys, "sample", "--n", "3", "--N", "0", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["N"] == 0


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_sample_frame_lines_are_json_dumps_of_the_pairs(capsys, tmp_path, n):
    # the frame lines of `sample` are byte for byte json.dumps of [re, im] lists
    out = tmp_path / "frames.jsonl"
    code, _, _ = run(capsys, "sample", "--n", str(n), "--N", "30", "--seed", "3", "--out", str(out))
    assert code == 0
    expected = "".join(
        json.dumps({"U": [[[float(z.real), float(z.imag)] for z in row] for row in U]}) + "\n"
        for U in sample_flags(n, 30, 3)
    )
    text = out.read_text()
    assert text[text.index("\n") + 1:] == expected


def test_sample_non_finite_frame_exits_3(capsys, tmp_path, monkeypatch):
    # a NaN entry is a numerical breakdown, not a "NaN" token in the JSONL file; it is
    # found before the output file is touched: at n = 2 in the KS column (entry (0, 0))
    # by ks_uniform, anywhere else by write_frames
    cases = ((3, None, 1), (3, b"a previous run\n", 1), (2, b"a previous run\n", 1),
             (2, b"a previous run\n", 0))
    for n, previous, column in cases:
        frames = sample_flags(n, 4, 0)
        frames[2, 0, column] = complex(np.nan, 0.0)
        monkeypatch.setattr("specang.cli.sample_flags", lambda n, count, seed: frames)
        out = tmp_path / f"frames_{n}_{previous is None}_{column}.jsonl"
        if previous is not None:
            out.write_bytes(previous)
        code, stdout, err = run(capsys, "sample", "--n", str(n), "--N", "4", "--out", str(out))
        assert code == 3 and stdout == ""
        assert err.startswith("numerical breakdown:") and "non-finite" in err
        assert (out.read_bytes() if out.exists() else None) == previous


def test_sample_exits_4_when_the_child_that_formats_half_fails(capsys, tmp_path, monkeypatch):
    # write_frames calls frame_lines in this process; the lines of the second
    # half are formatted in the forked child, where these raise
    parent, frame_lines = os.getpid(), serialize.frame_lines

    def failing_in_the_child(frames):
        lines = frame_lines(frames)
        if os.getpid() != parent:
            raise RuntimeError("formatting failed")
        yield from lines

    monkeypatch.setattr(serialize, "can_fork", lambda: True)
    monkeypatch.setattr(serialize, "frame_lines", failing_in_the_child)
    out = tmp_path / "frames.jsonl"
    code, stdout, err = run(capsys, "sample", "--n", "3", "--N", "10", "--out", str(out))
    assert code == 4 and stdout == ""
    assert err.startswith("i/o error: the child formatting frames 5..") and "exit code 1" in err
    with pytest.raises(ChildProcessError):  # the child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_sample_into_a_missing_directory_exits_4_without_a_hang(tmp_path):
    # at n = 8 the child's half of 4000 frames (about 6 MB) overfills the pipe, so
    # the child is still writing when the parent's open fails
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = tmp_path / "missing" / "frames.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "specang.cli", "sample", "--n", "8", "--N", "4000",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr.startswith("i/o error:") and "No such file or directory" in proc.stderr


def test_sample_into_a_directory_exits_4(capsys, tmp_path):
    code, stdout, err = run(capsys, "sample", "--n", "2", "--N", "5", "--out", str(tmp_path))
    assert code == 4 and stdout == ""
    assert err.startswith("i/o error:") and "Is a directory" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("evolve", "--model", "m.json", "--rho0", "r.json", "--record-every", "0", "--out", "x"),
        ("sample", "--n", "2", "--N", "-5", "--out", "x"),
        ("sample", "--n", "0", "--N", "5", "--out", "x"),
        ("verify", "measure", "--N", "0"),
        ("verify", "volumes", "--N", "0"),
        ("verify", "unitarity", "--trials", "-1"),
        ("verify", "measure", "--n", "1", "--N", "100"),
        ("verify", "unitarity", "--n", "0", "--trials", "2"),
        ("verify", "identity", "--n", "0"),
        ("evolve", "--model", "m.json", "--rho0", "r.json", "--seed", "-1", "--out", "x"),
        ("sample", "--n", "2", "--N", "5", "--seed", "-1", "--out", "x"),
        ("verify", "volumes", "--n", "4", "--N", "10", "--seed", "-1"),
        ("sample", "--n", "1", "--N", "5", "--out", "x"),
    ],
    ids=["evolve-record-every", "sample-N", "sample-n", "verify-measure-N",
         "verify-volumes-N", "verify-unitarity-trials", "verify-measure-n",
         "verify-unitarity-n", "verify-identity-n", "evolve-seed", "sample-seed",
         "verify-volumes-seed", "sample-n-one-level"],
)
def test_count_below_its_bound_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be an integer >=" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1", "1.5"])
@pytest.mark.parametrize(
    "argv", [("convert", "--p", "1.0"), ("geometry", "--r", "1.0", "--purity")],
    ids=["convert", "geometry"],
)
def test_dimension_flag_has_one_rule(capsys, argv, n):
    # --n of every subcommand is read as verify's and sample's: one argparse line
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--n", n, *argv[1:]])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --n: must be an integer >= 2, got '{n}'\n")


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf", "abc"])
def test_tol_must_be_positive_and_finite_exits_2(capsys, tol):
    # nan or a bound <= 0 would fail every check and inf pass every one
    with pytest.raises(SystemExit) as exc:
        main(["verify", "identity", "--n", "3", "--N", "100", f"--tol={tol}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be a finite float > 0" in err or "invalid float" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
