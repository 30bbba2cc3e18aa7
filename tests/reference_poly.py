"""Polynomial forms of the exact checks on residues (test-only oracle).

``flatness_check`` and ``projector_structure`` check their quadratic matrix
identities on per-symbol coefficient matrices.  The functions here check
the same identities the direct way: every entry becomes a ``WeightPoly``
and the matrix products are expanded as polynomials.  They share nothing
with the library checks but the enumeration of the codimension-2 flats.
"""

from __future__ import annotations

from fractions import Fraction

from arrgm.arrangement import format_linear
from arrgm.exactnum import WeightExpr
from arrgm.gaussmanin import FlatnessReport, GMConnection, _codim2_flats

from reference_partialfrac import WeightPoly


def to_poly(expr: WeightExpr) -> WeightPoly:
    """A weight expression as a polynomial of degree at most one."""
    terms: dict = {(): expr.const}
    for s, c in expr.coeffs:
        terms[((s, 1),)] = c
    return WeightPoly.make(terms)


def _poly_commutator(a, b):
    """ab - ba for square matrices of ``WeightPoly``; zero entries are skipped."""
    size = len(a)
    zero = WeightPoly.zero()
    out = [[zero for _ in range(size)] for _ in range(size)]
    for left, right, sign in ((a, b, 1), (b, a, -1)):
        for i in range(size):
            for t in range(size):
                if left[i][t].is_zero:
                    continue
                for j in range(size):
                    if not right[t][j].is_zero:
                        out[i][j] = out[i][j] + (left[i][t] * right[t][j]).scale(sign)
    return out


def poly_flatness_check(connection: GMConnection, base) -> FlatnessReport:
    """Kohno's criterion with every commutator expanded as ``WeightPoly`` entries."""
    comps = connection.components
    residues = [[[to_poly(e) for e in row] for row in c.residue] for c in comps]
    size = connection.size
    names = [f"h{i}" for i in range(base.n + 1)]
    for flat in _codim2_flats([c.form for c in comps]):
        total = [
            [sum((residues[q][r][c] for q in flat), WeightPoly.zero()) for c in range(size)]
            for r in range(size)
        ]
        for p in flat[:-1]:
            comm = _poly_commutator(residues[p], total)
            for r in range(size):
                for c in range(size):
                    if not comm[r][c].is_zero:
                        forms = ", ".join(format_linear(comps[q].form.coeffs, names) for q in flat)
                        return FlatnessReport(
                            False,
                            witness=f"flat {{{forms}}}: [A_p, S_X][{r}][{c}] != 0 "
                            f"for p = {format_linear(comps[p].form.coeffs, names)}",
                        )
    return FlatnessReport(True)


def poly_projector_structure(matrix) -> WeightExpr | None:
    """A * A = tr(A) * A expanded as ``WeightPoly`` entries; the trace or None."""
    size = len(matrix)
    trace = WeightExpr.constant(Fraction(0))
    for i in range(size):
        trace = trace + matrix[i][i]
    trace_poly = to_poly(trace)
    polys = [[to_poly(e) for e in row] for row in matrix]
    for i in range(size):
        for j in range(size):
            acc = WeightPoly.zero()
            for t in range(size):
                acc = acc + polys[i][t] * polys[t][j]
            if not (acc - trace_poly * polys[i][j]).is_zero:
                return None
    return trace
