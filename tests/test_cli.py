"""Command-line interface: subcommands, reproducibility, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from arrgm import cli, gaussmanin
from arrgm.arrangement import ProjForm, validate
from arrgm.aomoto import Weights
from arrgm.errors import ArrgmError
from arrgm.fixtures import fixtures
from arrgm.gaussmanin import MovingFamily, gm_matrix
from arrgm.monodromy import residue_of
from reference_expm import expm_reference, max_gap

CLI = [sys.executable, "-m", "arrgm.cli"]


def run_cli(*args, expect: int = 0):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def test_nbc_on_ceva():
    proc = run_cli("nbc", "--arrangement", "ceva")
    data = json.loads(proc.stdout)
    assert data["nbc_bases"] == [[1, 2], [1, 4], [1, 5], [2, 3], [3, 4], [3, 5]]


def test_discriminant_example1():
    proc = run_cli("discriminant", "--arrangement", "example1")
    data = json.loads(proc.stdout)
    assert len(data["components"]) == 6


def test_circuits_and_relations_text(tmp_path: Path):
    proc = run_cli("circuits", "--arrangement", "ceva", "--format", "text")
    assert "{0, 1, 3}" in proc.stdout
    proc = run_cli("os-relations", "--arrangement", "ceva", "--format", "text")
    assert "[dependent]" in proc.stdout and "[boundary]" in proc.stdout


def test_lattice_and_bad_loci():
    lat = json.loads(run_cli("lattice", "--arrangement", "ceva").stdout)
    assert any(f["support"] == [0, 1, 3] for f in lat["flats"])
    bad = json.loads(run_cli("bad-loci", "--arrangement", "ceva").stdout)
    assert sorted(f["support"] for f in bad["bad_loci"]) == [
        [0, 1, 3], [0, 2, 4], [1, 2, 5], [3, 4, 5],
    ]


def test_aomoto_dims_family(tmp_path: Path):
    weights = tmp_path / "w.json"
    weights.write_text(
        json.dumps({"a": {"1": "1/3", "2": "1/7", "3": "1/5"}, "ah": "-1/2"})
    )
    proc = run_cli(
        "aomoto-dims", "--arrangement", "example1", "--weights", str(weights)
    )
    assert json.loads(proc.stdout)["dims"] == [0, 0, 3]


def test_gauss_manin_reproducible(tmp_path: Path):
    first = run_cli("gauss-manin", "--arrangement", "example1").stdout
    second = run_cli("gauss-manin", "--arrangement", "example1").stdout
    assert first == second
    data = json.loads(first)
    assert data["basis"] == [[1, 2], [1, 3], [2, 3]]
    assert len(data["components"]) == 6
    # h0 component is last
    assert data["components"][-1]["form"] == ["1", "0", "0"]


def test_gauss_manin_text_brackets():
    proc = run_cli("gauss-manin", "--arrangement", "example1", "--format", "text")
    assert "[d(h1)/(h1) - d(h0)/(h0)]" in proc.stdout


def test_gauss_manin_output_file(tmp_path: Path):
    out = tmp_path / "conn.json"
    run_cli(
        "gauss-manin", "--arrangement", "example1", "--output", str(out)
    )
    data = json.loads(out.read_text())
    assert data["components"][0]["residue"][0][0]["coeffs"]


def monodromy_gap(fixture: str, weights: dict, component: str, payload: dict) -> float:
    """Distance of the CLI's monodromy matrix from the 30-digit exponential."""
    arr = fixtures()[fixture].arrangement
    conn = gm_matrix(MovingFamily(arr))
    matrix = residue_of(conn, [F(c) for c in component.split(",")])
    w = Weights.make({int(i): F(v) for i, v in weights["a"].items()}, F(weights["ah"]))
    got = [[complex(float(re), float(im)) for re, im in row] for row in payload["matrix"]]
    return max_gap(got, expm_reference(matrix, conn.assignment_for(w)))


def test_monodromy_component(tmp_path: Path):
    data = {"a": {"1": "1/3", "2": "1/7", "3": "1/5"}, "ah": "-1/2"}
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps(data))
    proc = run_cli(
        "monodromy",
        "--arrangement", "example1",
        "--weights", str(weights),
        "--component", "0,1,0",
    )
    payload = json.loads(proc.stdout)
    assert set(payload) == {"matrix", "conditions"}
    assert len(payload["matrix"]) == 3
    assert monodromy_gap("example1", data, "0,1,0", payload) < 1e-12


def test_monodromy_rank_two_residue(tmp_path: Path):
    """A ceva triple point has a rank-2 residue without the projector
    structure A^2 = tr(A) A: the closed form still applies, exit 0."""
    data = {"a": {str(i): f"{i}/13" for i in range(1, 6)}, "ah": "3/11"}
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps(data))
    proc = run_cli(
        "monodromy",
        "--arrangement", "ceva",
        "--weights", str(weights),
        "--component", "0,1,0",
    )
    assert monodromy_gap("ceva", data, "0,1,0", json.loads(proc.stdout)) < 1e-12


def test_monodromy_resonant_exit_code(tmp_path: Path):
    weights = tmp_path / "w.json"
    # a1 + a3 + ah = 1: the residue along h0 - h2 has eigenvalues {1, 0, 0}
    weights.write_text(
        json.dumps({"a": {"1": "1/2", "2": "1/7", "3": "1/3"}, "ah": "1/6"})
    )
    proc = run_cli(
        "monodromy",
        "--arrangement", "example1",
        "--weights", str(weights),
        "--component", "1,0,-1",
        expect=3,
    )
    err = json.loads(proc.stderr)
    assert err["error"] == "ResonantResidueError"


@pytest.mark.parametrize("command", ["gauss-manin", "aomoto-dims"])
def test_nongeneric_weights_exit_code(tmp_path: Path, capsys, command):
    """a1 = 1 is an integer weight: both commands report resonance, exit 3."""
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"a": {"1": "1", "2": "1/7", "3": "1/5"}, "ah": "-1/2"}))
    code, err = run_main(capsys, command, "--arrangement", "example1", "--weights", str(weights))
    assert code == 3
    assert err["error"] == "ResonantWeightsError" and "a1 = 1 is an integer" in err["message"]


def test_validation_exit_code(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "hyperplanes": [["0", "1", "0"], ["0", "2", "0"]], "infinity": 0}))
    proc = run_cli("nbc", "--arrangement", str(bad), expect=2)
    err = json.loads(proc.stderr)
    assert err["error"] == "DuplicateHyperplaneError"


def test_arrangement_file_round_trip(tmp_path: Path):
    path = tmp_path / "arr.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "hyperplanes": [
                    ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"],
                ],
                "infinity": 0,
            }
        )
    )
    proc = run_cli("nbc", "--arrangement", str(path))
    assert json.loads(proc.stdout)["nbc_bases"] == [[1, 2], [1, 3], [2, 3]]


def test_verify_paper_reports_known_deviations():
    """The golden comparison must fail loudly: the published tables deviate
    from the computed connection on documented diagonal entries."""
    proc = subprocess.run(
        CLI + ["verify-paper", "example1"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 4
    assert "PASS nbc basis" in proc.stdout
    assert "PASS discriminant" in proc.stdout
    assert "PASS flatness" in proc.stdout
    assert "PASS monodromy closed forms" in proc.stdout
    assert "known deviation" in proc.stdout
    assert "UNEXPECTED" not in proc.stdout


def test_import_leaves_numpy_out():
    """The library is pure Python: importing it loads no numpy."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, arrgm, arrgm.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def run_main(capsys, *argv) -> tuple[int, dict | None]:
    """Run the CLI in-process; return the exit code and the JSON error, if any."""
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    return code, json.loads(err) if err else None


def test_bad_component_literal_exit_code(tmp_path: Path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(
        json.dumps({"a": {"1": "1/3", "2": "1/7", "3": "1/5"}, "ah": "-1/2"})
    )
    code, err = run_main(
        capsys, "monodromy", "--arrangement", "example1",
        "--weights", str(weights), "--component", "0,x,0",
    )
    assert code == 2
    assert err["error"] == "ArrgmError" and "--component" in err["message"]


def test_weights_missing_hyperplane_exit_code(tmp_path: Path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"a": {"1": "1/3", "3": "1/5"}, "ah": "-1/2"}))
    code, err = run_main(
        capsys, "monodromy", "--arrangement", "example1",
        "--weights", str(weights), "--component", "0,1,0",
    )
    assert code == 2
    assert err["error"] == "ArrgmError" and "hyperplane(s) [2]" in err["message"]


def test_weights_without_ah_exit_code(tmp_path: Path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"a": {"1": "1/3", "2": "1/7", "3": "1/5"}}))
    code, err = run_main(
        capsys, "gauss-manin", "--arrangement", "example1", "--weights", str(weights)
    )
    assert code == 2 and "ah" in err["message"]
    code, err = run_main(
        capsys, "monodromy", "--arrangement", "example1",
        "--weights", str(weights), "--component", "1,0,0",
    )
    assert code == 2 and "no value for ah" in err["message"]


def test_malformed_arrangement_exit_code(tmp_path: Path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "hyperplanes": [["1", "0", "0"], ["0", "1/0", "1"]]}))
    code, err = run_main(capsys, "nbc", "--arrangement", str(bad))
    assert code == 2
    assert err["error"] == "ArrgmError"


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(family):
        raise KeyError(2)

    monkeypatch.setattr(cli, "gm_matrix", broken)
    code, err = run_main(capsys, "gauss-manin", "--arrangement", "example1")
    assert code == 4
    assert err["error"] == "KeyError" and err["exit"] == 4
    assert "broken" in err["traceback"]


def test_non_coordinate_infinity_rejected_before_discriminant(tmp_path: Path, monkeypatch, capsys):
    """One chart rule: an infinity hyperplane z0 + z1 = 0 has no affine chart,
    and both entry points say so before computing the discriminant."""
    def no_discriminant(arr):
        raise AssertionError("discriminant called")

    monkeypatch.setattr(gaussmanin, "discriminant", no_discriminant)
    monkeypatch.setattr(cli, "discriminant", no_discriminant)
    arr = validate([ProjForm.make(row) for row in [[1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3]]], 0)
    with pytest.raises(ArrgmError) as direct:
        gm_matrix(MovingFamily(arr))
    arrangement = tmp_path / "arr.json"
    arrangement.write_text(json.dumps(arr.to_json()))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"a": {"1": "1/3", "2": "1/7", "3": "1/5"}, "ah": "-1/2"}))
    code, err = run_main(
        capsys, "aomoto-dims", "--arrangement", str(arrangement), "--weights", str(weights)
    )
    assert code == 2
    assert err["error"] == "ArrgmError" and err["message"] == str(direct.value)
    assert "not a coordinate hyperplane" in err["message"]
