"""The benchmark workloads and the checks on their outputs.

A workload is built once from the workload seed (its inputs are drawn then)
and then runs identical passes.  ``run_pass`` returns what one pass did:
its operations, the failed ones, a digest of every output, and the residue
entries it produced.  Calls into ``gm_matrix`` are timed through
:class:`Stopwatch`, which rebinds the function in every ``arrgm`` module,
so calls the CLI makes are timed too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass, field
from time import perf_counter

import arrgm
from arrgm import cli, gaussmanin
from arrgm.errors import ArrgmError
from arrgm.fixtures import fixtures

import inputs


def digest(payload) -> str:
    """sha256 of a JSON value (sorted keys) or of a text."""
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def library_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "arrgm" or name.startswith("arrgm.")]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Replace every module-level binding of ``original`` in the library.

    Modules import functions by name (``from .exactnum import solve_linear``),
    so patching the defining module alone would miss those callers.  Returns
    the (module, name, original) triples that undo the change.
    """
    undo = []
    for module in library_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                undo.append((module, name, original))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


class Stopwatch:
    """Running wall time spent inside ``gm_matrix``."""

    def __init__(self):
        self.seconds = 0.0
        original = gaussmanin.gm_matrix

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - start

        self._undo = rebind(original, timed)

    def close(self) -> None:
        restore(self._undo)


@dataclass
class PassResult:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)  # operation -> output digest
    entries: int = 0
    # unit -> (wall, gm_matrix) seconds
    timings: dict[str, tuple[float, float]] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @contextlib.contextmanager
    def unit(self, key: str, stopwatch: Stopwatch):
        """Time one unit of the pass: its wall time and its time inside ``gm_matrix``."""
        gm_before = stopwatch.seconds
        start = perf_counter()
        try:
            yield
        finally:
            self.timings[key] = (perf_counter() - start, stopwatch.seconds - gm_before)


def connection_entries(conn_json: dict) -> int:
    """Residue entries of one connection: components x size^2."""
    return len(conn_json["components"]) * len(conn_json["basis"]) ** 2


# ---------------------------------------------------------------------------
# paper-cli: both bundled fixtures through every CLI subcommand
# ---------------------------------------------------------------------------

# Subcommands whose output depends on the fixture alone.
PLAIN_COMMANDS = ("lattice", "bad-loci", "circuits", "nbc", "os-relations", "discriminant")
# verify-paper fails by design (exit 4): the published tables drop ah on
# 4 (example1) and 8 (ceva) diagonal entries.  For ceva, four of the published
# residues missing ah also lack the projector structure A^2 = tr(A) A, so its
# verdict reads FAIL with exactly those four FAIL lines.
# fixture -> (verdict, known-deviation lines, projector-structure FAIL lines)
VERIFY_PAPER = {"example1": ("PASS with known deviations", 4, 0), "ceva": ("FAIL", 8, 4)}
EXIT_INTERNAL = 4


class PaperCli:
    """Each pass runs every subcommand on ``example1`` and ``ceva`` in-process."""

    PASS_S = 5.5  # wall time of one pass at the seed commit, development host

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.commands: list[tuple[str, list[str]]] = []
        self.inputs = {}
        for name, fixture in fixtures().items():
            arr = fixture.arrangement
            weights = inputs.nonresonant_weights(rng, arr)
            components = arrgm.discriminant(arr)
            component = components[rng.randrange(len(components))]
            self.inputs[name] = {
                "weights": inputs.weights_to_json(weights),
                "component": component.to_json(),
            }
            path = os.path.join(workdir, f"weights-{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(self.inputs[name]["weights"], handle)
            for command in PLAIN_COMMANDS:
                self.commands.append((name, [command, "--arrangement", name]))
            self.commands += [
                (name, ["aomoto-dims", "--arrangement", name, "--weights", path]),
                (name, ["gauss-manin", "--arrangement", name, "--weights", "symbolic"]),
                (name, ["monodromy", "--arrangement", name, "--weights", path,
                        "--component", ",".join(component.to_json())]),
                (name, ["verify-paper", name]),
            ]

    def run_pass(self, stopwatch: Stopwatch) -> PassResult:
        result = PassResult()
        entries = {}  # residue entries of the fixture's connection
        for fixture, argv in self.commands:
            key = f"{fixture}:{argv[0]}"
            out, err = io.StringIO(), io.StringIO()
            with result.unit(key, stopwatch), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            text = out.getvalue()
            result.outputs[key] = digest(text)
            if argv[0] == "verify-paper":
                result.check(verify_paper_ok(fixture, code, text), f"{key} exit {code}")
                result.entries += entries.get(fixture, 0)
                continue
            result.check(code == 0, f"{key} exit {code}: {err.getvalue().strip()}")
            if code != 0:
                continue
            if argv[0] == "aomoto-dims":
                dims = json.loads(text)["dims"]
                result.check(
                    all(d == 0 for d in dims[:-1]) and dims[-1] > 0,
                    f"{key}: cohomology not concentrated in top degree: {dims}",
                )
            elif argv[0] == "gauss-manin":
                entries[fixture] = connection_entries(json.loads(text))
                result.entries += entries[fixture]
            elif argv[0] == "monodromy":
                result.entries += entries.get(fixture, 0)
        return result


def verify_paper_ok(fixture: str, code: int, text: str) -> bool:
    """Exit 4 with the by-design deviations only: nothing unexpected, nothing else failing."""
    verdict, deviations, projector_fails = VERIFY_PAPER[fixture]
    lines = [line.strip() for line in text.splitlines()]
    fails = [line for line in lines if line.startswith("FAIL")]
    return (
        code == EXIT_INTERNAL
        and bool(lines)
        and lines[0] == f"verify {fixture}: {verdict}"
        and sum(line.startswith("MISMATCH [known deviation]") for line in lines) == deviations
        and not any("UNEXPECTED" in line for line in lines)
        and len(fails) == projector_fails
        and all(line.startswith("FAIL projector structure on published residue") for line in fails)
    )


# ---------------------------------------------------------------------------
# generic families: seeded general-position arrangements
# ---------------------------------------------------------------------------

class GenericFamilies:
    """Seeded general-position families at seeded non-resonant numeric weights.

    Each pass builds the connection of every family (one weight setting, no
    affine lift), checks its flatness and takes the monodromy around every
    component.
    """

    N = 3  # projective dimension
    SIZE = 5  # hyperplanes per family: 4 nbc, 10 discriminant components
    FAMILIES = 5
    PASS_S = 4.5  # wall time of one pass at the seed commit, development host

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.families = []
        for _ in range(self.FAMILIES):
            arr = inputs.generic_arrangement(rng, self.N, self.SIZE)
            self.families.append((arr, inputs.nonresonant_weights(rng, arr)))
        self.inputs = [
            {"arrangement": arr.to_json(), "weights": inputs.weights_to_json(w)}
            for arr, w in self.families
        ]

    def run_pass(self, stopwatch: Stopwatch) -> PassResult:
        result = PassResult()
        for index, (arr, weights) in enumerate(self.families):
            key = f"family-{index}"
            with result.unit(key, stopwatch):
                self._run_family(result, key, arr, weights)
        return result

    @staticmethod
    def _run_family(result: PassResult, key: str, arr, weights) -> None:
        try:
            conn = gaussmanin.gm_matrix(gaussmanin.MovingFamily(arr, weights))
            conn_json = conn.to_json()
            result.outputs[f"{key}:connection"] = digest(conn_json)
            result.entries += connection_entries(conn_json)
            result.check(True, "")
            report = gaussmanin.flatness_check(conn, arr)
        except ArrgmError as exc:
            result.check(False, f"{key}: {exc!r}")
            return
        result.check(report.ok, f"{key}: flatness {report.witness}")
        assignment = conn.assignment_for(weights)
        for comp in conn.components:
            try:
                arrgm.monodromy(comp.residue, assignment)
            except Exception as exc:  # any exception fails the check
                result.check(False, f"{key}: monodromy {comp.form}: {exc!r}")
            else:
                result.check(True, "")


# name -> class built from (seed, workdir)
WORKLOADS = {"paper-cli": PaperCli, "generic-p3-numeric": GenericFamilies}
