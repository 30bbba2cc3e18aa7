"""Monodromy representatives from residue matrices.

A loop around a discriminant component acts on the cohomology bundle, for
non-resonant residues, by a conjugacy class of exp(-2 pi i A) where A is the
component's residue matrix.  A residue of rank one satisfies
A^2 = tr(A) A, which gives the closed form

    T = I + (exp(-2 pi i t) - 1) / t * A      (t = tr A != 0)
    T = I - 2 pi i A                          (t = 0, then A^2 = 0)

which ``monodromy`` cross-checks against the numeric matrix exponential.
Not every residue has rank one: the four triple-point components of
``ceva`` have rank-2 residues with A^2 = lambda_X A and tr A = 2 lambda_X,
so A^2 != tr(A) A.  ``projector_structure``, exact on the coefficient
matrices of A, rejects those, and ``monodromy`` returns the numeric
exponential alone for them.  Only the conjugacy class is canonical; the
representative is in the nbc basis.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .arrangement import ProjForm, format_linear
from .errors import ArrgmError, ResonantResidueError, UnknownComponentError
from .exactnum import (
    WeightExpr, cexp_matrix, complex_to_str_pair, first_nonzero_quadratic, integer_coefficients,
)
from .gaussmanin import GMConnection

RESONANCE_TOL = 1e-9
CROSSCHECK_TOL = 1e-10

WeightMatrix = Sequence[Sequence[WeightExpr]]


@dataclass(frozen=True)
class MonodromyResult:
    matrix: np.ndarray
    method: str  # "both" (closed form, cross-checked) | "numeric"
    condition_report: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "matrix": [[complex_to_str_pair(z) for z in row] for row in self.matrix],
            "method": self.method,
            "conditions": list(self.condition_report),
        }


def residue_of(connection: GMConnection, component: ProjForm | Sequence) -> WeightMatrix:
    """Residue matrix stored for one discriminant component (up to scaling)."""
    form = component if isinstance(component, ProjForm) else ProjForm.make(component)
    found = connection.residue(form)
    if found is None:
        names = [
            format_linear(c.form.coeffs, [f"h{i}" for i in range(len(c.form.coeffs))])
            for c in connection.components
        ]
        requested = format_linear(form.coeffs, [f"h{i}" for i in range(len(form.coeffs))])
        raise UnknownComponentError(requested, names)
    return found


def projector_structure(matrix: WeightMatrix) -> WeightExpr | None:
    """Certificate for A * A = tr(A) * A, checked exactly for all weights.

    The identity is checked on the coefficient matrices of A, one pair of
    weight symbols at a time (``first_nonzero_quadratic``), with tr(A) I
    as the left factor of the second product.  Returns the trace as a
    weight expression when the identity holds, None otherwise.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("projector_structure needs a square matrix")
    (a,) = integer_coefficients([matrix])
    traces = {s: sum(rows[i].get(i, 0) for i in range(size)) for s, rows in a.items()}
    scalar = {s: [{i: t} for i in range(size)] for s, t in traces.items() if t}
    if first_nonzero_quadratic([(1, a, a), (-1, scalar, a)], size) is not None:
        return None
    return sum((matrix[i][i] for i in range(size)), WeightExpr.constant(0))


def _evaluate_matrix(matrix: WeightMatrix, assignment: Mapping[str, Fraction]) -> np.ndarray:
    return np.array(
        [[float(e.evaluate(assignment)) for e in row] for row in matrix], dtype=complex
    )


def _resonance_report(a: np.ndarray) -> tuple[list[str], bool]:
    """Pairwise eigenvalue differences against nonzero integers."""
    eigenvalues = np.linalg.eigvals(a)
    report: list[str] = []
    resonant = False
    for i in range(len(eigenvalues)):
        for j in range(i + 1, len(eigenvalues)):
            diff = eigenvalues[i] - eigenvalues[j]
            nearest = round(diff.real)
            margin = abs(diff - nearest)
            if nearest != 0 and margin < RESONANCE_TOL:
                resonant = True
                report.append(
                    f"eigenvalue difference {diff:.6g} within {margin:.2e} of integer {nearest}"
                )
            else:
                report.append(
                    f"eigenvalue difference {diff:.6g}: margin {abs(diff - nearest):.2e} "
                    f"from nearest integer {nearest} (ok)"
                )
    return report, resonant


def monodromy(matrix: WeightMatrix, assignment: Mapping[str, Fraction]) -> MonodromyResult:
    """Monodromy representative exp(-2 pi i A) at numeric weights.

    Where ``projector_structure`` certifies A^2 = tr(A) A (rank-one
    residues), the closed form is returned, cross-checked against the
    numeric matrix exponential (method "both").  Otherwise (the rank-2
    triple-point residues of ``ceva``, where A^2 = lambda_X A with
    tr A = 2 lambda_X) the numeric exponential is returned alone (method
    "numeric").  Residues whose eigenvalues differ by a nonzero integer
    raise :class:`ResonantResidueError` (the conjugacy-class formula does
    not apply there).
    """
    a = _evaluate_matrix(matrix, assignment)
    report, resonant = _resonance_report(a)
    if resonant:
        raise ResonantResidueError()

    trace_expr = projector_structure(matrix)
    numeric = cexp_matrix(-2j * np.pi * a)
    if trace_expr is None:
        return MonodromyResult(numeric, "numeric", tuple(report))
    t = trace_expr.evaluate(assignment)
    ident = np.eye(len(a), dtype=complex)
    if t != 0:
        closed = ident + (cmath.exp(-2j * cmath.pi * float(t)) - 1) / float(t) * a
    else:
        closed = ident - 2j * cmath.pi * a
    gap = np.max(np.abs(closed - numeric))
    if gap > CROSSCHECK_TOL:
        raise ArrgmError(f"closed-form and numeric exponentials disagree by {gap:.3e}")
    return MonodromyResult(closed, "both", tuple(report))
