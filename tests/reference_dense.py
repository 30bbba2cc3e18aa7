"""Test-only oracle for the exact elimination: the same Bareiss echelon on dense rows.

``exactnum._bareiss_echelon`` eliminates sparse rows {column: value}.  This
oracle keeps every row as a full list, the right-hand sides appended to it,
and runs one ``bareiss_step`` per row below each pivot, with the same pivot
rule (the first row at or below the current one that is nonzero in the
column) and the same skip rule (a zero in the pivot column under a pivot
equal to the one before comes back unchanged).  Both are exact, so every
result must agree with the library's bit for bit.  The back substitution of
the echelon is the library's own, which reads dense rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from arrgm.errors import InconsistentSystemError
from arrgm.exactnum import _back_substitution, _kernel_columns, bareiss_step


def _integer_rows(rows):
    """Each row times the least common denominator of its entries: (rows, scales)."""
    out, scales = [], []
    for row in rows:
        scale = math.lcm(*[x.denominator for x in row])
        out.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return out, scales


def _bareiss_echelon(rows: list[list[int]], ncols_a: int) -> tuple[list[int], list[int], int]:
    """(pivot columns, original row per row, parity of the swaps), in place."""
    origin = list(range(len(rows)))
    pivots: list[int] = []
    swaps = 0
    prev_pivot = 1
    r = 0
    for c in range(ncols_a):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            origin[r], origin[pivot_row] = origin[pivot_row], origin[r]
            swaps ^= 1
        top = rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] or (top[c] != prev_pivot and any(rows[i])):
                rows[i] = bareiss_step(rows[i], top, c, prev_pivot)
        prev_pivot = top[c]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, origin, swaps


def dense_solve(matrix: Sequence[Sequence], rhs: Sequence[Sequence]):
    """(scaled_solutions, rank, pivot_cols, scaled_kernel) of ``solve_linear``,
    or its :class:`InconsistentSystemError`."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if not nrows:
        return [(1, []) for _ in rhs], 0, [], (1, [])
    ech, row_scales = _integer_rows(matrix)
    rhs_ints, rhs_scales = _integer_rows(rhs)
    for i, (row, scale) in enumerate(zip(ech, row_scales)):
        row.extend(scale * b[i] for b in rhs_ints)
    pivots, origin, _ = _bareiss_echelon(ech, ncols)
    rank = len(pivots)
    for i in range(rank, nrows):
        assert not any(ech[i][:ncols])
        if any(ech[i][ncols:]):
            raise InconsistentSystemError(origin[i])
    d, substitute = _back_substitution(ech, pivots, ncols)
    solutions = [
        (d * scale, substitute([0] * ncols, ncols + k)) for k, scale in enumerate(rhs_scales)
    ]
    return solutions, rank, pivots, (d, _kernel_columns(ncols, pivots, d, substitute))


def dense_rank(matrix: Sequence[Sequence]) -> int:
    if not matrix or not matrix[0]:
        return 0
    rows, _ = _integer_rows(matrix)
    return len(_bareiss_echelon(rows, len(rows[0]))[0])


def dense_determinant(matrix: Sequence[Sequence]) -> Fraction:
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    rows, scales = _integer_rows(matrix)
    pivots, _, swaps = _bareiss_echelon(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    last = rows[-1][-1]
    return Fraction(-last if swaps else last, math.prod(scales))
