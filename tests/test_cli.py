"""Command-line interface: subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

from specang import DensityMatrix, LindbladModel
from specang.cli import main
from specang.dynamics import random_density, random_model, save_density, save_model


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


def test_geometry_singular_exit_code(capsys):
    # pure state: Fisher metric blows up -> numerical breakdown exit code
    code, _, err = run(capsys, "geometry", "--n", "2", "--r", "1.0", "--fisher")
    assert code == 3
    assert "breakdown" in err


# --- verify -----------------------------------------------------------------


def test_verify_volumes(capsys):
    code, out, _ = run(
        capsys, "verify", "volumes", "--n", "4", "--N", "50000", "--seed", "1"
    )
    assert code == 0
    assert "RESULT: PASS" in out


def test_verify_identity_small(capsys):
    code, out, _ = run(
        capsys, "verify", "identity", "--n", "2", "--N", "5000", "--tol", "0.1"
    )
    assert code == 0
    assert out.count("PASS") >= 2


def test_verify_measure(capsys):
    code, out, _ = run(capsys, "verify", "measure", "--n", "2", "--N", "20000")
    assert code == 0
    assert "RESULT: PASS" in out


def test_verify_unitarity_and_qutrit(capsys):
    code, out, _ = run(capsys, "verify", "unitarity", "--n", "3", "--trials", "50")
    assert code == 0
    code, out, _ = run(capsys, "verify", "qutrit-matrix", "--trials", "50")
    assert code == 0


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
    for path in doc["files"]:
        text = open(path).read()
        assert text.startswith("# ")
        assert "purity_R" in text


@pytest.mark.parametrize("record_every", [1, 10, 100])
def test_evolve_both_compares_matching_times_after_fallback(capsys, tmp_path, record_every):
    # amplitude damping closes the gap of diag(0.3, 0.7) at t = 0.336; after
    # the fallback the split records sit on a grid shifted by that time
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


def test_sample_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(capsys, "sample", "--n", "3", "--N", "20", "--seed", "9", "--out", str(a))
    run(capsys, "sample", "--n", "3", "--N", "20", "--seed", "9", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_seed_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPECANG_SEED", "33")
    # parser defaults are bound at build time, so rebuild via main()
    out = tmp_path / "env.jsonl"
    code, _, _ = run(capsys, "sample", "--n", "2", "--N", "5", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text().splitlines()[0])["seed"] == 33


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
