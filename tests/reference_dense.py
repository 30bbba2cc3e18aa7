"""Test-only oracle for the exact elimination: the same Bareiss echelon on dense rows.

``exactnum._bareiss_echelon`` eliminates sparse rows {column: value}.  This
oracle keeps every row as a full list, the right-hand sides appended to it,
and runs one ``bareiss_step`` per row below each pivot, with the same pivot
rule (the first row at or below the current one that is nonzero in the
column) and the same skip rule (a zero in the pivot column under a pivot
equal to the one before comes back unchanged).  The back substitution
reads the dense rows too.  Both are exact, so every result must agree with
the library's bit for bit.  The oracle shares no code with the library: its
``bareiss_step`` and back substitution are its own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from arrgm.errors import InconsistentSystemError


def _integer_rows(rows):
    """Each row times the least common denominator of its entries: (rows, scales)."""
    out, scales = [], []
    for row in rows:
        scale = math.lcm(*[x.denominator for x in row])
        out.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return out, scales


def bareiss_step(row: list[int], top: list[int], c: int, prev_pivot: int) -> list[int]:
    """top[c] * row - row[c] * top, divided exactly by the previous pivot."""
    out = []
    for x, y in zip(row, top):
        q, r = divmod(top[c] * x - row[c] * y, prev_pivot)
        assert r == 0
        out.append(q)
    return out


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


def _back_substitution(ech: list[list[int]], pivots: list[int], ncols: int):
    """(d, substitute): d the last pivot, and substitute(y, column) fills in
    y = d x on the pivot columns, bottom row first, given y on the free
    columns and the right-hand side in ``column`` (None: homogeneous)."""
    rank = len(pivots)
    d = ech[rank - 1][pivots[rank - 1]] if rank else 1

    def substitute(y: list[int], column):
        for r in range(rank - 1, -1, -1):
            c = pivots[r]
            s = d * ech[r][column] if column is not None else 0
            s -= sum(ech[r][j] * y[j] for j in range(c + 1, ncols))
            assert s % ech[r][c] == 0
            y[c] = s // ech[r][c]
        return y

    return d, substitute


def _kernel_columns(ncols: int, pivots: list[int], d: int, substitute) -> list[list[int]]:
    """d times the kernel basis, one vector per free column."""
    out = []
    for fc in range(ncols):
        if fc not in pivots:
            y = [0] * ncols
            y[fc] = d
            out.append(substitute(y, None))
    return out


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
