"""Command-line interface: subcommands, reproducibility, exit codes."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from collections import Counter
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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_gauss_manin_renders_only_the_requested_format(monkeypatch, capsys, fmt):
    """The connection is rendered once, in the format asked for."""
    calls = Counter()

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counting(cli, "_connection_text")
    counting(gaussmanin.GMConnection, "to_json")
    code, _ = run_main(capsys, "gauss-manin", "--arrangement", "example1", "--format", fmt)
    assert code == 0
    assert calls == Counter({"to_json" if fmt == "json" else "_connection_text": 1})


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


# sha256 of ``--format text`` stdout, recorded before the term printers were merged
TEXT_DIGESTS = {
    "example1": {
        "lattice": "cf3090309df4556ab5989e6bf3ff983e76010188b7bc4183c3f2240004d8750c",
        "bad-loci": "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345",
        "circuits": "a4e89ee15cfe853f0573b7e61b0f084c6cfe061be11f4eb97cc02eb2ef688442",
        "nbc": "83636fda8c1c243a6904186793dd19fcd85e468efcb5898491907b6fca3e4ba7",
        "os-relations": "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345",
        "discriminant": "27e173174607c9846e6334ad8b5f0acdc3bb8d59c8d006479e8ba2cd03acd8e2",
        "gauss-manin": "b00fc0bc874c6d9f37d4e89fe1a51b9d43570102e98ffb511310afbf6ff0fe28",
    },
    "ceva": {
        "lattice": "936d576f31d932d6a08f35bd1c824d2652fb8e646673492d5afb6b43a6180bb2",
        "bad-loci": "a95fe60837474c3594c0b893db6e9e290966175578a668859b5e3d27a3d13a79",
        "circuits": "0781a46a5ed598429932db755737d9b50aa96d7934ee152da289d536f2c3981e",
        "nbc": "2947de6cb5771fa54e36209b282e9137c5a98c164726533dd1fe092dbc2cd599",
        "os-relations": "92b1311aacdb0de74fe60669b77556dd465999de57f9809b95b26f1d0472e834",
        "discriminant": "b4ae5a22e5fad8b85a80e2780c2438bec6bd2a514e03e61d3cd4864512e1a13b",
        "gauss-manin": "123df1984f8933239623e7e4468b7b3c4f70ad27be8ce728380cfdbefd10b4b0",
    },
    "p2-6": {
        "lattice": "6ae9635c70a4d202efd640244c49f0692f6bc59b0c898a7743b279d6e85e7bf0",
        "bad-loci": "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345",
        "circuits": "4b4a2453f19d7cb9dd0003825ab66afdaf4701d0c8c47f0e20eee316e6daa488",
        "nbc": "3aea431f8c02067550874beb0b660014235dbfc0ad24349f5fb18cfb6b01b756",
        "os-relations": "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345",
        "discriminant": "8b0b6b0d9c414e591d2d6ed27f8bcab36f2e502b36d5c773ea2c8abf280f59f0",
        "gauss-manin": "d4ec8f8bd193d580096d192d24c95b773ff82d28dc19216decbce983525a6bab",
    },
}


@pytest.mark.parametrize(
    "arrangement, command",
    [(arr, cmd) for arr, digests in TEXT_DIGESTS.items() for cmd in digests],
)
def test_text_output_digest(tmp_path: Path, capsys, arrangement, command):
    """The text output is fixed too: every term printer, ``ProjForm``,
    ``WeightExpr`` and ``ExtElem`` alike, renders as it always did.  p2-6 is
    the coordinate frame of P^2 plus three lines in general position."""
    if arrangement == "p2-6":
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, -3], [2, -1, 3]]
        path = tmp_path / "p2-6.json"
        path.write_text(json.dumps(validate([ProjForm.make(r) for r in rows], 0).to_json()))
        arrangement = str(path)
    code = cli.main([command, "--arrangement", arrangement, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == TEXT_DIGESTS[Path(arrangement).stem][command]
