"""Exact arithmetic kernel.

Rational scalars are ``fractions.Fraction`` (aliased ``Rat``): arbitrary
precision, always reduced, positive denominator.  On top of that this module
provides

* ``WeightExpr``  -- exact affine-linear expressions in the weight symbols
  ``a1..am, ah`` (the residue symbols).  The dependent symbol ``a0`` is
  eliminated on construction through ``a0 = -(a1 + ... + am) - ah``.
* ``integer_coefficients``, ``first_nonzero_quadratic`` -- matrices of weight
  expressions as per-symbol sparse coefficient matrices, and the exact
  check of a quadratic matrix identity among them, one pair of symbols at a
  time (flatness commutators, the projector identity A^2 = tr(A) A).
* ``solve_linear``, ``determinant``, ``matrix_rank``, ``nullspace``,
  ``integer_kernel`` -- the library's one exact elimination: rows are
  cleared to sparse integer rows {column: value}, right-hand sides as extra
  columns, and reduced by fraction-free (Bareiss) elimination over their
  nonzero entries.  ``echelon_kernel`` reads the kernel of an echelon form
  in the same sparse rows, also of the one the matroid walk builds with
  ``bareiss_step`` on dense rows of 2n + 3 entries.  The back substitution
  reads the sparse rows as they are and is fraction-free too (d x is
  integral, d the last pivot), so a solve returns particular solutions and,
  when read, a kernel basis, or the failing row of an inconsistent system.
  Both are integer vectors over one integer each, so a caller can stay in
  integers; their ``Fraction`` forms are built only when read.  The kernel
  is d x over d, or made primitive in integers; the determinant is the
  signed last pivot over the row scales.
* ``exact_quotient`` -- a / b as an ``int`` when b divides a, else a
  ``Fraction``: the one division at the end of an integral computation.

``format_terms`` renders every signed sum of terms the package prints.
The only floating point is ``complex_to_str_pair``, which serializes the
monodromy entries.  Everything here is immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ArrgmError, InconsistentSystemError

Rat = Fraction

QQ0 = Fraction(0)
QQ1 = Fraction(1)


# ---------------------------------------------------------------------------
# rational and complex literals
# ---------------------------------------------------------------------------

def rat_to_str(q: Rat) -> str:
    """Serialize a rational as ``"p/q"``, omitting the denominator when 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_from_str(s: str) -> Rat:
    """Parse a ``"p/q"`` or ``"p"`` literal."""
    return Fraction(s.strip())


def complex_to_str_pair(z: complex) -> list[str]:
    """Serialize a complex number as a decimal-string pair with 17 significant digits."""
    return [f"{z.real:.17g}", f"{z.imag:.17g}"]


def format_terms(terms: Iterable[tuple[Rat | int, str | None]]) -> str:
    """A signed sum such as ``1/2-a1+3*ah`` from (coefficient, name) pairs.

    The name None marks the constant term, written as its value.  Zero
    terms are skipped, coefficients 1 and -1 are written as the sign alone,
    and the empty sum is ``"0"``.
    """
    parts: list[str] = []
    for c, name in terms:
        if c == 0:
            continue
        if name is None:
            term = rat_to_str(c)
        elif c == 1:
            term = name
        elif c == -1:
            term = f"-{name}"
        else:
            term = f"{rat_to_str(c)}*{name}"
        parts.append(f"+{term}" if parts and not term.startswith("-") else term)
    return "".join(parts) or "0"


# ---------------------------------------------------------------------------
# affine-linear weight expressions
# ---------------------------------------------------------------------------

def weight_symbols(nweights: int, moving: bool = True) -> list[str]:
    """Symbol names ``a1..am`` plus ``ah`` when a moving hyperplane is present."""
    syms = [f"a{i}" for i in range(1, nweights + 1)]
    if moving:
        syms.append("ah")
    return syms


@dataclass(frozen=True)
class WeightExpr:
    """Affine-linear expression ``const + sum coeffs[s] * s`` in weight symbols.

    Invariants: no zero coefficients are stored and the symbol ``a0`` never
    appears (use :meth:`build` to eliminate it).
    """

    const: Rat
    coeffs: tuple[tuple[str, Rat], ...]  # sorted by symbol, no zero entries

    def __post_init__(self) -> None:
        for sym, c in self.coeffs:
            if sym == "a0":
                raise ValueError("a0 must be eliminated before constructing a WeightExpr")
            if c == 0:
                raise ValueError("zero coefficient stored in WeightExpr")

    @staticmethod
    def make(const: Rat | int = 0, coeffs: Mapping[str, Rat | int] | None = None) -> "WeightExpr":
        items = tuple(
            sorted((s, Fraction(c)) for s, c in (coeffs or {}).items() if Fraction(c) != 0)
        )
        return WeightExpr(Fraction(const), items)

    @staticmethod
    def build(
        const: Rat | int,
        coeffs: Mapping[str, Rat | int],
        nweights: int,
    ) -> "WeightExpr":
        """Construct with ``a0`` allowed, eliminating it via ``a0 = -sum(a_i) - ah``."""
        work: dict[str, Fraction] = {}
        for sym, c in coeffs.items():
            work[sym] = work.get(sym, QQ0) + Fraction(c)
        c0 = work.pop("a0", QQ0)
        if c0 != 0:
            for sym in weight_symbols(nweights):
                work[sym] = work.get(sym, QQ0) - c0
        return WeightExpr.make(Fraction(const), work)

    @staticmethod
    def constant(value: Rat | int) -> "WeightExpr":
        return WeightExpr.make(value, {})

    @staticmethod
    def symbol(sym: str) -> "WeightExpr":
        return WeightExpr.make(0, {sym: 1})

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "WeightExpr") -> "WeightExpr":
        acc = dict(self.coeffs)
        for s, c in other.coeffs:
            acc[s] = acc.get(s, QQ0) + c
        return WeightExpr.make(self.const + other.const, acc)

    def __sub__(self, other: "WeightExpr") -> "WeightExpr":
        return self + other.scale(-1)

    def __neg__(self) -> "WeightExpr":
        return self.scale(-1)

    def scale(self, factor: Rat | int) -> "WeightExpr":
        f = Fraction(factor)
        return WeightExpr.make(self.const * f, {s: c * f for s, c in self.coeffs})

    def evaluate(self, assignment: Mapping[str, Rat]) -> Rat:
        """The value at ``assignment``; :class:`ArrgmError` naming the first
        symbol of the expression that it leaves unassigned."""
        total = self.const
        for s, c in self.coeffs:
            if s not in assignment:
                raise ArrgmError(f"no value assigned to weight symbol {s}")
            total += c * assignment[s]
        return total

    def to_json(self) -> dict:
        return {
            "const": rat_to_str(self.const),
            "coeffs": {s: rat_to_str(c) for s, c in self.coeffs},
        }

    @staticmethod
    def from_json(data: dict) -> "WeightExpr":
        return WeightExpr.make(
            rat_from_str(data.get("const", "0")),
            {s: rat_from_str(c) for s, c in data.get("coeffs", {}).items()},
        )

    def __str__(self) -> str:
        return format_terms([(self.const, None), *((c, s) for s, c in self.coeffs)])


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

Vector = list[Fraction]


@dataclass
class LinearSolution:
    """Result of an exact solve: one solution per right-hand side plus a kernel basis.

    The fraction-free elimination yields both in integers.
    ``scaled_solutions`` holds one pair (q, y) per right-hand side, q a
    nonzero integer and y an integer vector with x = y / q: q is d times
    the right-hand side's scale, d the last Bareiss pivot.
    ``scaled_kernel`` is (d, [d v for each kernel vector v]).
    ``solutions`` and ``kernel`` are the same vectors with ``Fraction``
    entries, built when first read; the kernel is back-substituted only
    when it, scaled or not, is first read, so a caller that keeps only the
    particular solutions does not pay for it.
    """

    scaled_solutions: list[tuple[int, list[int]]]
    rank: int
    pivot_cols: list[int]
    _kernel: Callable[[], tuple[int, list[list[int]]]] = field(repr=False, compare=False)

    @functools.cached_property
    def solutions(self) -> list[Vector]:
        return [[Fraction(v, q) for v in y] for q, y in self.scaled_solutions]

    @functools.cached_property
    def scaled_kernel(self) -> tuple[int, list[list[int]]]:
        return self._kernel()

    @functools.cached_property
    def kernel(self) -> list[Vector]:
        d, vectors = self.scaled_kernel
        return [[Fraction(v, d) for v in y] for y in vectors]


def exact_quotient(a: Rat | int, b: int) -> Rat | int:
    """a / b exactly: an ``int`` when a is one and b divides it, else a ``Fraction``."""
    if type(a) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return Fraction(a, b)


def _integer_rows(rows: Iterable[Sequence[Rat | int]], width: int) -> tuple[list[dict], list[int]]:
    """Clear denominators row by row: (rows {column: int}, scale of each row).

    Entries are ``int`` or ``Fraction``; each row is multiplied by the least
    common denominator of its entries, its scale.  A row of other than
    ``width`` entries raises ``ValueError``.
    """
    out, scales = [], []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} entries, not {width}")
        scale = math.lcm(*[x.denominator for x in row])
        out.append({c: x.numerator * (scale // x.denominator) for c, x in enumerate(row) if x})
        scales.append(scale)
    return out, scales


def bareiss_step(row: list[int], top: list[int], c: int, prev_pivot: int) -> list[int]:
    """``row`` after one fraction-free (Bareiss) step against the pivot row
    ``top`` at column c, ``prev_pivot`` the pivot of the step before (1 at
    the first): top[c] * row - row[c] * top, divided exactly by it."""
    piv, factor = top[c], row[c]
    return [(piv * x - factor * y) // prev_pivot for x, y in zip(row, top)]


def _bareiss_echelon(rows: list[dict[int, int]], ncols_a: int) -> tuple[list[int], list[int], int]:
    """Fraction-free (Bareiss) row echelon form of rows {column: nonzero int}, in place.

    ``ncols_a`` counts the coefficient columns; pivots are only chosen there.
    Every entry stays integral, and the last pivot is the determinant of the
    pivot rows and columns in echelon order.  Returns (pivot column list,
    original row index per row, parity of the row swaps).
    """
    origin, pivots = list(range(len(rows))), []
    swaps, prev, r = 0, 1, 0
    for c in range(ncols_a):
        for pivot_row in range(r, len(rows)):
            if c in rows[pivot_row]:
                break
        else:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            origin[r], origin[pivot_row] = origin[pivot_row], origin[r]
            swaps ^= 1
        top, piv = rows[r], rows[r][c]
        for i in range(r + 1, len(rows)):
            # a zero in column c under a pivot equal to the last comes back unchanged
            row = rows[i]
            if factor := row.get(c):
                entries = ((j, piv * row.get(j, 0) - factor * top.get(j, 0)) for j in row | top)
                rows[i] = {j: v // prev for j, v in entries if v}
            elif row and piv != prev:
                rows[i] = {j: piv * x // prev for j, x in row.items()}
        prev = piv
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, origin, swaps


def _back_substitution(
    ech: Sequence[Mapping[int, int]], pivots: Sequence[int], ncols: int
) -> tuple[int, Callable[[list[int], int | None], list[int]]]:
    """(d, substitute) for the rows {column: value} of a Bareiss echelon
    form with ``ncols`` coefficient columns.

    d is the last pivot, so d x is integral by Cramer's rule.
    ``substitute(y, column)`` fills in y = d x on the pivot columns, in
    place, given y on the free columns and the right-hand side in
    ``column`` (None for the homogeneous system); every step divides
    exactly.
    """
    rank = len(pivots)
    d = ech[rank - 1][pivots[rank - 1]] if rank else 1
    tails = [[(j, a) for j, a in row.items() if c < j < ncols] for row, c in zip(ech, pivots)]

    def substitute(y: list[int], column: int | None) -> list[int]:
        for r in range(rank - 1, -1, -1):
            s = d * ech[r].get(column, 0) if column is not None else 0
            for j, a in tails[r]:
                s -= a * y[j]
            y[pivots[r]] = s // ech[r][pivots[r]]
        return y

    return d, substitute


def _kernel_columns(ncols: int, pivots: list[int], d: int, substitute) -> list[list[int]]:
    """d times the kernel basis: one vector per free column, d there and 0 on
    the other free columns."""
    out = []
    pivot_set = set(pivots)
    for fc in range(ncols):
        if fc not in pivot_set:
            y = [0] * ncols
            y[fc] = d
            out.append(substitute(y, None))
    return out


def solve_linear(
    matrix: Sequence[Sequence[Rat | int]],
    rhs: Sequence[Sequence[Rat | int]] | None = None,
) -> LinearSolution:
    """Solve ``M x = b`` exactly for each right-hand side ``b`` in ``rhs``.

    Entries are ``int`` or ``Fraction``.  Elimination is fraction-free
    (Bareiss) on the integer-cleared augmented matrix, in sparse rows, and
    so is the back substitution: with d the last pivot, d x is integral by
    Cramer's rule, so every step divides exactly, and each solution is an
    integer vector over one integer (``LinearSolution.scaled_solutions``).
    The coefficient rows are cleared row by row and each right-hand side by
    its own common denominator, so right-hand sides with unrelated
    denominators do not inflate the coefficient rows.  When the system is
    underdetermined, one particular solution (zero on the free columns) is
    returned together with a kernel basis, one vector per free column with
    entry 1 there and 0 on the other free columns.  An unsatisfiable equation
    raises :class:`InconsistentSystemError` carrying the original row index;
    rows of unequal length raise ``ValueError``.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    rhs_list = list(rhs or [])
    if any(len(b) != nrows for b in rhs_list):
        raise ValueError("right-hand side length does not match row count")
    ech, row_scales = _integer_rows(matrix, ncols)
    rhs_ints, rhs_scales = _integer_rows(rhs_list, nrows)
    for k, b in enumerate(rhs_ints, start=ncols):
        for i, v in b.items():
            ech[i][k] = row_scales[i] * v
    pivots, origin, _ = _bareiss_echelon(ech, ncols)
    rank = len(pivots)
    for i in range(rank, nrows):
        if any(j < ncols for j in ech[i]):
            raise AssertionError("echelon rows below rank must vanish on coefficients")
        if ech[i]:
            raise InconsistentSystemError(origin[i])

    d, substitute = _back_substitution(ech, pivots, ncols)
    solutions = [
        (d * scale, substitute([0] * ncols, ncols + k)) for k, scale in enumerate(rhs_scales)
    ]
    return LinearSolution(
        solutions, rank, pivots, lambda: (d, _kernel_columns(ncols, pivots, d, substitute))
    )


def determinant(matrix: Sequence[Sequence[Rat | int]]) -> Rat:
    """Exact determinant of a square matrix of ``int`` or ``Fraction`` entries.

    Plus or minus (by the parity of the row swaps) the last Bareiss pivot
    over the product of the row scales; 0 when the matrix is singular and 1
    for the empty matrix.  A matrix that is not square raises ``ValueError``.
    """
    n = len(matrix)
    if n == 0:
        return QQ1
    rows, scales = _integer_rows(matrix, n)
    pivots, _, swaps = _bareiss_echelon(rows, n)
    if len(pivots) < n:
        return QQ0
    last = rows[-1][n - 1]
    return Fraction(-last if swaps else last, math.prod(scales))


def matrix_rank(matrix: Sequence[Sequence[Rat | int]]) -> int:
    ncols = len(matrix[0]) if matrix else 0
    return len(_bareiss_echelon(_integer_rows(matrix, ncols)[0], ncols)[0])


def _scaled_kernel(matrix: Sequence[Sequence[Rat | int]]) -> tuple[int, list[list[int]]]:
    """(d, d times the kernel basis of :func:`solve_linear`), in integers."""
    ncols = len(matrix[0])
    rows, _ = _integer_rows(matrix, ncols)
    pivots, _, _ = _bareiss_echelon(rows, ncols)
    return echelon_kernel(rows, pivots, ncols)


def echelon_kernel(
    ech: Sequence[Mapping[int, int]], pivots: Sequence[int], ncols: int
) -> tuple[int, list[list[int]]]:
    """(d, d times the kernel basis) of the first ``ncols`` columns of a
    Bareiss echelon form, rows {column: value}, with the given pivot column
    of each row; rows past ``len(pivots)`` are not read.

    The pivot columns need not increase, as long as each row is zero on the
    pivot columns of the rows above it and before its own: the echelon form
    of the columns taken in pivot order.
    """
    d, substitute = _back_substitution(ech, pivots, ncols)
    return d, _kernel_columns(ncols, pivots, d, substitute)


def integer_kernel(matrix: Sequence[Sequence[Rat | int]]) -> list[list[int]]:
    """Kernel basis of a rational matrix as primitive integer vectors with
    the first nonzero entry positive: the basis of :func:`nullspace`, each
    vector scaled."""
    if not matrix:
        return []
    return [primitive(y) for y in _scaled_kernel(matrix)[1]]


def nullspace(matrix: Sequence[Sequence[Rat | int]]) -> list[Vector]:
    """Basis of the exact kernel of a rational matrix (see :func:`solve_linear`)."""
    if not matrix:
        return []
    d, kernel = _scaled_kernel(matrix)
    return [[Fraction(v, d) for v in y] for y in kernel]


def primitive(vector: Sequence[int]) -> list[int]:
    """A nonzero integer vector divided by the gcd of its entries, signed so
    that its first nonzero entry is positive."""
    g = math.gcd(*vector)
    if next(x for x in vector if x) < 0:
        g = -g
    return [x // g for x in vector]


# ---------------------------------------------------------------------------
# matrices of weight expressions as per-symbol coefficient matrices
# ---------------------------------------------------------------------------

# symbol -> sparse rows {column: value}; the pseudo-symbol "1" is the constant part
CoeffMatrix = dict[str, list[dict[int, Rat]]]


def integer_coefficients(matrices: Sequence[Sequence[Sequence[WeightExpr]]]) -> list[CoeffMatrix]:
    """Each matrix M = sum_k a_k M^(k) as {k: M^(k)}, every entry times one integer.

    The common factor is the least common denominator of all coefficients,
    so the entries are ``int``; one positive factor for all the matrices
    keeps every homogeneous identity among them.
    """
    # (matrix, i, j, terms) of the nonzero entries
    entries = [
        (m, i, j, (("1", e.const), *e.coeffs))
        for m, matrix in enumerate(matrices)
        for i, row in enumerate(matrix)
        for j, e in enumerate(row)
        if e.coeffs or e.const
    ]
    scale = math.lcm(*{c.denominator for *_, terms in entries for _, c in terms})
    out: list[CoeffMatrix] = [{} for _ in matrices]
    for m, i, j, terms in entries:
        for s, c in terms:
            if c:
                rows = out[m].get(s) or out[m].setdefault(s, [{} for _ in matrices[m]])
                rows[i][j] = c.numerator * (scale // c.denominator)
    return out


def first_nonzero_quadratic(
    products: Sequence[tuple[int, CoeffMatrix, CoeffMatrix]], size: int
) -> tuple[int, int] | None:
    """First entry (r, c), in row-major order, of sum sign X Y that is not identically zero.

    For X = sum_k a_k X^(k) and Y = sum_l a_l Y^(l), the coefficient of
    a_k a_l in X Y is X^(k) Y^(l) + X^(l) Y^(k) (X^(k) Y^(k) when k = l),
    so each product adds X^(k) Y^(l) into the coefficient of the unordered
    pair {k, l}.  Exact, one row at a time over sparse rows; None when the
    sum is the zero polynomial matrix.
    """
    for r in range(size):
        acc: dict[tuple[str, str], dict[int, Rat]] = {}
        for sign, x, y in products:
            for k, xk in x.items():
                row = xk[r]
                if not row:
                    continue
                for l, yl in y.items():
                    target = acc.setdefault((k, l) if k <= l else (l, k), {})
                    for t, v in row.items():
                        v *= sign
                        for c, w in yl[t].items():
                            target[c] = target.get(c, 0) + v * w
        cols = [c for target in acc.values() for c, v in target.items() if v]
        if cols:
            return r, min(cols)
    return None

