"""Monodromy representatives from residue matrices.

A loop around a discriminant component acts on the cohomology bundle, for
non-resonant residues, by a conjugacy class of exp(-2 pi i A) where A is the
component's residue matrix.  Every residue of the family satisfies a
quadratic identity A^2 = alpha A + beta I: an affine component's residue
has A^2 = lambda_X A, and the h0 residue is B - ah I with B^2 = lambda B.
With mu_1, mu_2 the roots of x^2 - alpha x - beta and e_k = exp(-2 pi i
mu_k), Lagrange-Sylvester interpolation gives the closed form

    T = p I + q A,   q = (e_1 - e_2) / (mu_1 - mu_2),   p = e_1 - q mu_1,

with q = -2 pi i e_1 and p = e_1 (1 + 2 pi i mu_1) when mu_1 = mu_2.  The
eigenvalues of A differ by 0 or mu_1 - mu_2, so A is resonant exactly when
D = alpha^2 + 4 beta = (mu_1 - mu_2)^2 is the square of a nonzero integer,
an exact test.  Only the conjugacy class is canonical; the representative
is in the nbc basis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .arrangement import ProjForm, format_linear
from .errors import ArrgmError, ResonantResidueError, UnknownComponentError
from .exactnum import (
    WeightExpr, complex_to_str_pair, first_nonzero_quadratic, integer_coefficients, rat_to_str,
)
from .gaussmanin import GMConnection

WeightMatrix = Sequence[Sequence[WeightExpr]]


@dataclass(frozen=True)
class MonodromyResult:
    matrix: tuple[tuple[complex, ...], ...]
    condition_report: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "matrix": [[complex_to_str_pair(z) for z in row] for row in self.matrix],
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

    This is the rank-one case of the quadratic identity ``monodromy`` uses;
    ``verify-paper`` checks it on the published residue tables.  The
    identity is checked on the coefficient matrices of A, one pair of
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


def _quadratic_identity(a: Sequence[Sequence[Fraction]]) -> tuple[Fraction, Fraction]:
    """The exact (alpha, beta) with A^2 = alpha A + beta I.

    A scalar matrix c I takes (2c, -c^2), the square of its minimal
    polynomial.  Otherwise the pair is unique: it is read off one
    off-diagonal entry and one diagonal entry of A^2, or off two distinct
    diagonal values of a diagonal A, and then checked on every entry.  The
    work is in integers, on M = s A with s the common denominator: with
    alpha = p / q in lowest terms for M, the check is q M^2 = p M + q beta I.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("monodromy needs a square matrix")
    s = math.lcm(*(x.denominator for row in a for x in row))
    m = [[x.numerator * (s // x.denominator) for x in row] for row in a]
    diagonal = list(dict.fromkeys(m[i][i] for i in range(n)))
    off = next(((i, j) for i in range(n) for j in range(n) if i != j and m[i][j]), None)
    if off is None and len(diagonal) < 2:
        c = Fraction(diagonal[0] if diagonal else 0, s)
        return 2 * c, -c * c
    square = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in m]
    if off is None:
        p, q = diagonal[0] + diagonal[1], 1
        qbeta = -diagonal[0] * diagonal[1]
    else:
        i, j = off
        g = math.gcd(square[i][j], m[i][j])
        p, q = square[i][j] // g, m[i][j] // g
        qbeta = q * square[i][i] - p * m[i][i]
    if any(
        q * square[i][j] != p * m[i][j] + (qbeta if i == j else 0)
        for i in range(n) for j in range(n)
    ):
        raise ArrgmError("residue satisfies no quadratic identity A^2 = alpha A + beta I")
    return Fraction(p, q * s), Fraction(qbeta, q * s * s)


def monodromy(matrix: WeightMatrix, assignment: Mapping[str, Fraction]) -> MonodromyResult:
    """Monodromy representative exp(-2 pi i A) at numeric weights.

    A is evaluated exactly and its quadratic identity A^2 = alpha A +
    beta I found (``_quadratic_identity``).  The closed form T = p I + q A
    of the module docstring is then evaluated in floating point as
    e^{-i pi alpha} (cos(pi r) I - 2i sin(pi r)/r (A - alpha/2 I)) with
    r = mu_1 - mu_2, r^2 = D: the same p and q, written so that nothing
    cancels as mu_1 and mu_2 draw together.  Raises
    :class:`ResonantResidueError` when D = alpha^2 + 4 beta is the square
    of a nonzero integer, and :class:`ArrgmError` when A satisfies no
    quadratic identity (no residue of the family does).
    """
    a = [[e.evaluate(assignment) for e in row] for row in matrix]
    alpha, beta = _quadratic_identity(a)
    disc = alpha * alpha + 4 * beta
    if disc.denominator == 1 and disc > 0 and math.isqrt(disc.numerator) ** 2 == disc:
        raise ResonantResidueError()
    root = cmath.sqrt(float(disc))
    sinc = cmath.sin(cmath.pi * root) / root if disc else cmath.pi
    phase = cmath.exp(-1j * cmath.pi * float(alpha))
    q = -2j * phase * sinc
    p = phase * (cmath.cos(cmath.pi * root) + 1j * float(alpha) * sinc)
    t = tuple(
        tuple(q * float(x) + (p if i == j else 0) for j, x in enumerate(row))
        for i, row in enumerate(a)
    )
    condition = (
        f"A^2 = alpha A + beta I with alpha = {rat_to_str(alpha)}, beta = {rat_to_str(beta)}; "
        f"D = alpha^2 + 4 beta = {rat_to_str(disc)} is not the square of a nonzero integer"
    )
    return MonodromyResult(t, (condition,))
