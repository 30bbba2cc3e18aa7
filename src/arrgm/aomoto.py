"""Twisted logarithmic forms at numeric weights and their class reduction.

The complex in play is the span of wedge monomials of dlog forms of the
finite hyperplanes (plus, in family mode, the moving hyperplane ``x_s``),
with differential "wedge with omega", omega = sum a_i dlog f_i + a_h dlog x_s.
For weights satisfying the genericity conditions its cohomology sits in top
degree with the nbc monomials of the fixed arrangement as a basis.

* ``FiberContext`` -- one fiber: the extended arrangement, its matroid and
  Orlik-Solomon context, nbc lists, monomial coordinates and wedge maps.
* ``ClassReducer`` solves g = sum c_J e_J + omega ^ xi exactly, J running
  over the nbc bases of the fixed arrangement, at numeric weights or with
  the weights as indeterminates, and returns the coordinates (c_J) of a
  batch of top-degree elements per weight symbol.
* ``cohomology_dims`` -- the twisted cohomology dimensions from exact ranks.

All computation is exact, in integers wherever the data are integral
(the symbolic class solve is integral throughout) and over rationals
otherwise; the moving hyperplane is always specialized at a rational
parameter point off the discriminant.  There the
combinatorics of the fiber (matroid, Orlik-Solomon normal forms, nbc lists)
does not depend on the point, so a class reduction computed in one such
fiber holds in all of them.  ``gaussmanin.gm_matrix`` builds one such fiber
(``gaussmanin.generic_fiber``) and reduces its closed-form residue images
there.  The paper's partial-fraction reduction of rational forms is kept
only as a test oracle, ``tests/reference_partialfrac.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .arrangement import AffineChart, AffineForm, Arrangement, bad_loci, validate
from .errors import (
    InconsistentSystemError, NonlinearFitError, ResonantWeightsError, SampleRejectedError,
)
from .exactnum import Rat, exact_quotient, matrix_rank, solve_linear, weight_symbols
from .matroid import MatroidContext
from .osalg import OSContext, wedge_monomials

QQ0 = Fraction(0)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Weights:
    """Numeric residue data: a[i] per finite fixed hyperplane, ah for the moving one.

    The infinity residue is derived: a0 = -(sum of a_i) - ah.
    """

    a: tuple[tuple[int, Rat], ...]  # (hyperplane index, value), sorted
    ah: Rat | None = None

    @staticmethod
    def make(a: Mapping[int, Rat | int | str], ah: Rat | int | str | None = None) -> "Weights":
        return Weights(
            tuple(sorted((i, Fraction(v)) for i, v in a.items())),
            None if ah is None else Fraction(ah),
        )

    @property
    def a_dict(self) -> dict[int, Fraction]:
        return dict(self.a)

    @property
    def a0(self) -> Fraction:
        total = -sum((v for _, v in self.a), QQ0)
        if self.ah is not None:
            total -= self.ah
        return total

    def symbol_assignment(self, finite_order: Sequence[int]) -> dict[str, Fraction]:
        """Map a1..am (in the given finite-index order) and ah to values; a
        symbol without a value is left out, for ``WeightExpr.evaluate`` to name."""
        values = self.a_dict
        out = {f"a{k}": values[idx] for k, idx in enumerate(finite_order, start=1) if idx in values}
        if self.ah is not None:
            out["ah"] = self.ah
        return out


@dataclass(frozen=True)
class WeightReport:
    ok: bool
    violations: tuple[str, ...]


def validate_weights(arr: Arrangement, weights: Weights, bad_flats=None) -> WeightReport:
    """Genericity check: no residue and no bad-flat residue sum is an integer.

    Residues are a_i for every hyperplane (with a0 derived for the infinity
    one and ah for a moving hyperplane when present), and sum_{i in I_L} a_i
    for every non-normal-crossing flat L.
    """
    values = weights.a_dict
    violations: list[str] = []

    def residue(i: int) -> Fraction:
        return weights.a0 if i == arr.infinity_index else values[i]

    for i in range(arr.size):
        if i != arr.infinity_index and i not in values:
            raise ValueError(f"no weight assigned to hyperplane {i}")
    checks = [(f"a{i}" if i != arr.infinity_index else "a0", residue(i)) for i in range(arr.size)]
    if weights.ah is not None:
        checks.append(("ah", weights.ah))
    for name, value in checks:
        if value.denominator == 1:
            violations.append(f"{name} = {value} is an integer")
    flats = bad_loci(arr) if bad_flats is None else bad_flats
    for flat in flats:
        total = sum((residue(i) for i in flat.support), QQ0)
        if total.denominator == 1:
            violations.append(
                f"weight sum {total} over flat {set(flat.support)} is an integer"
            )
    return WeightReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# fibers: fixed arrangement, optionally extended by the moving hyperplane
# ---------------------------------------------------------------------------

class FiberContext:
    """One fiber of the family: fixed arrangement plus (optionally) the moving
    hyperplane specialized at a rational parameter point.

    Carries the extended projective arrangement, its matroid and
    Orlik-Solomon context, the nbc lists, the table ``coordinates`` and
    omega.  The moving hyperplane, when present, has the last index; the
    base must have an affine chart (:meth:`AffineChart.of`) either way.  The
    fiber's matroid is that of the base (``matroid``, or a new one) extended
    in place by the moving hyperplane (``MatroidContext.extend``).
    """

    def __init__(
        self, base: Arrangement, params: Sequence[Rat] | None = None,
        matroid: MatroidContext | None = None,
    ):
        self.base = base
        chart = AffineChart.of(base)
        self.params: tuple[Fraction, ...] | None = None
        self.moving_index: int | None = None
        forms = list(base.hyperplanes)
        if params is not None:
            self.params = tuple(Fraction(v) for v in params)
            if len(self.params) != self.n:
                raise ValueError("parameter point must have one value per dimension")
            self.moving_index = base.size
            forms.append(chart.projective(AffineForm.make(1, self.params)))
        try:
            self.arr = validate(forms, base.infinity_index, n=base.n)
        except Exception as exc:  # duplicate moving hyperplane etc.
            raise SampleRejectedError(f"degenerate parameter point: {exc}") from exc
        self.matroid = matroid if matroid is not None else MatroidContext(base)
        self.matroid.extend(self.arr)
        self.os = OSContext(self.arr, self.matroid)
        self._nbc_cache: dict[int, list[tuple[int, ...]]] = {}
        self._rows: dict[tuple[int, ...], int] = {}  # each nbc monomial's index in its degree
        self._coordinates: dict[tuple[int, ...], list[tuple[int, int]]] = {}

    # -- basics -------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def finite_indices(self) -> list[int]:
        return self.arr.finite_indices

    def nbc(self, p: int) -> list[tuple[int, ...]]:
        if p not in self._nbc_cache:
            self._nbc_cache[p] = self.matroid.nbc_sets(p)
            self._rows.update((t, r) for r, t in enumerate(self._nbc_cache[p]))
        return self._nbc_cache[p]

    def fixed_nbc(self) -> list[tuple[int, ...]]:
        """The nbc n-sets of the fixed arrangement, in lexicographic order.

        They are the fiber's nbc n-sets that avoid the moving index: that
        index sorts last, so every broken circuit through it contains it, and
        the rest are the nbc sets of the deletion.
        """
        return [t for t in self.nbc(self.n) if self.moving_index not in t]

    def coordinates(self, t: tuple[int, ...]) -> list[tuple[int, int]]:
        """The sparse coordinates (r, c) of the normal form of e_t
        (``OSContext.normal_form_monomial``) on ``nbc(len(t))``, kept per t."""
        if t not in self._coordinates:
            self.nbc(len(t))  # fills the rows of the degree
            terms = self.os.normal_form_monomial(t).terms
            self._coordinates[t] = [(self._rows[m], c) for m, c in terms]
        return self._coordinates[t]

    # -- omega and wedge maps -------------------------------------------------

    def weight_symbol_order(self) -> list[int]:
        """Finite fixed indices in order, backing the symbols a1..am."""
        return [i for i in self.finite_indices if i != self.moving_index]

    def omega_terms(self, weights: Weights) -> list[tuple[int, Fraction]]:
        """Pairs (index, weight) of omega at numeric weights."""
        values = weights.a_dict
        out = [(idx, values[idx]) for idx in self.weight_symbol_order()]
        if self.moving_index is not None:
            if weights.ah is None:
                raise ValueError("family mode needs the moving weight ah")
            out.append((self.moving_index, weights.ah))
        return out

    def wedge_terms(self, p: int) -> list[tuple[int, int, int, int]]:
        """The terms (r, col, i, c) of wedge-with-omega from nbc (p-1)-monomials
        to nbc p-monomials, c the nbc coordinates of e_i ^ e_T, read from
        ``coordinates``; they do not depend on the weights."""
        indices = [i for i in (*self.weight_symbol_order(), self.moving_index) if i is not None]
        terms = []
        for col, tup in enumerate(self.nbc(p - 1) if p >= 1 else []):
            for i in indices:
                if (merged := wedge_monomials((i,), tup)) is not None:
                    terms += [(r, col, i, merged[0] * c) for r, c in self.coordinates(merged[1])]
        return terms

    def wedge_omega_matrix(self, weights: Weights, p: int) -> list[list[Fraction]]:
        """Matrix of wedge-with-omega from nbc (p-1)-monomials to nbc p-monomials."""
        a = dict(self.omega_terms(weights))
        matrix = [[QQ0] * (len(self.nbc(p - 1)) if p >= 1 else 0) for _ in self.nbc(p)]
        for r, col, i, c in self.wedge_terms(p):
            matrix[r][col] += c * a[i]
        return matrix


# ---------------------------------------------------------------------------
# reduction of top classes to the fixed nbc basis
# ---------------------------------------------------------------------------

class ClassReducer:
    """Solves g = sum c_J e_J + omega ^ xi in the top degree of a fiber.

    J runs over ``fiber.fixed_nbc()``, the top nbc sets without the moving
    index s.  Each c_J sits in its own row alone, so xi solves the rows
    through s and c = g_fix - (omega ^ xi)_fix.  ``blocks`` lists pairs
    (symbol, a), a an integer weight of each hyperplane index, infinity
    included.  With ``weights`` None there is one block per symbol a1..am,
    ah, weighing its hyperplane 1 and infinity -1 (a0 is minus the
    others).  At numeric weights there is one block "1", weighing each
    hyperplane by D a_i, D (``denominator``) the common denominator of the
    weights; D is 1 when symbolic.  All blocks read ``fiber.wedge_terms(n)``
    once, by hyperplane.  The numeric system is D times the one at the
    weights and its xi 1/D times theirs, so the class of a given element
    does not change; an image built from the block's weights is D times the
    image at the weights, and so is its class.  With the weights as
    indeterminates, as in the Aomoto complex over the weight ring
    (Cohen-Orlik), sum_k a_k g_k has the class sum_k a_k c_k when one xi
    free of the weights solves g_k = c_k + omega_k ^ xi for every k, so the
    rows of all blocks make one exact solve.  An inconsistent system raises
    :class:`NonlinearFitError` when symbolic (the classes are not linear in
    the weights) and :class:`SampleRejectedError` at numeric weights
    (resonance, or a discriminant parameter point).
    """

    def __init__(self, fiber: FiberContext, weights: Weights | None):
        if fiber.moving_index is None:
            raise ValueError("class reduction needs the moving hyperplane")
        self.fiber = fiber
        self.symbolic = weights is None
        inf, s, n = fiber.arr.infinity_index, fiber.moving_index, fiber.n
        if weights is None:
            indices = [*fiber.weight_symbol_order(), s]
            symbols = weight_symbols(len(indices) - 1)
            self.denominator = 1
            self.blocks = [(symbol, {i: 1, inf: -1}) for symbol, i in zip(symbols, indices)]
        else:
            a = {**dict(fiber.omega_terms(weights)), inf: weights.a0}
            self.denominator = math.lcm(*(v.denominator for v in a.values()))
            self.blocks = [
                ("1", {i: v.numerator * (self.denominator // v.denominator) for i, v in a.items()})
            ]
        top, ncols = fiber.nbc(n), len(fiber.nbc(n - 1))
        moving = self._moving_rows = [r for r, t in enumerate(top) if s in t]
        fixed = self._fixed_rows = [r for r, t in enumerate(top) if s not in t]
        # each top row's index among the rows through s, or among the others
        position = {r: k for rows in (moving, fixed) for k, r in enumerate(rows)}
        # the weight-free terms (r, col, c) of omega by hyperplane index
        by_index: dict[int, list[tuple[int, int, int]]] = {}
        for r, col, i, c in fiber.wedge_terms(n):
            by_index.setdefault(i, []).append((r, col, c))
        self.rows: list[list[int]] = []
        # per block, omega on the fixed rows by column {col: {k: value}}
        self._fixed_omega: list[dict[int, dict[int, int]]] = []
        for _, a in self.blocks:
            rows, columns = [[0] * ncols for _ in moving], {}
            for i, w in a.items():
                for r, col, c in by_index.get(i, ()):
                    if s in top[r]:
                        rows[position[r]][col] += c * w
                    else:
                        column = columns.setdefault(col, {})
                        column[position[r]] = column.get(position[r], 0) + c * w
            self.rows += rows
            self._fixed_omega.append(columns)

    def reduce_batch(
        self, elems: Sequence[Mapping[str, list[Rat | int]]]
    ) -> list[dict[int, dict[str, Rat | int]]]:
        """The classes of top-degree elements as sparse entries {i: {symbol: c}}
        on ``fiber.fixed_nbc()[i]``.  Each element maps block symbols to its
        part g_k, its coordinates over ``fiber.nbc(n)``; a missing symbol is
        a zero part.  With xi = y / q from the solve, c = (q g - omega y) / q
        is formed over the nonzero entries of g and y, in integers when g is,
        and divided once: an ``int`` when q divides it, else a ``Fraction``."""
        zero = [0] * len(self.fiber.nbc(self.fiber.n))
        parts = [[elem.get(symbol) or zero for symbol, _ in self.blocks] for elem in elems]
        rhs = [[g[r] for g in elem for r in self._moving_rows] for elem in parts]
        try:
            solution = solve_linear(self.rows, rhs)
        except InconsistentSystemError as exc:
            if self.symbolic:
                raise NonlinearFitError() from exc
            raise SampleRejectedError(
                "resonance or discriminant sample: class reduction inconsistent"
            ) from exc
        out = []
        for elem, (q, y) in zip(parts, solution.scaled_solutions):
            xi = [(col, v) for col, v in enumerate(y) if v]
            column: dict[int, dict[str, Rat | int]] = {}
            for (symbol, _), g, columns in zip(self.blocks, elem, self._fixed_omega):
                acc = {k: q * g[r] for k, r in enumerate(self._fixed_rows) if g[r]}
                for col, v in xi:
                    for k, w in columns.get(col, {}).items():
                        acc[k] = acc.get(k, 0) - w * v
                for k in filter(acc.get, acc):
                    column.setdefault(k, {})[symbol] = exact_quotient(acc[k], q)
            out.append(column)
        return out


def cohomology_dims(fiber: FiberContext, weights: Weights) -> list[int]:
    """Dimensions of the twisted cohomology by degree, computed from exact ranks.

    Requires generic numeric weights; resonance (detected either by the
    genericity report or by nonvanishing cohomology below the top degree)
    raises :class:`ResonantWeightsError`.
    """
    extended = weights_for_extended(fiber, weights)
    report = validate_weights(fiber.arr, extended, bad_loci(fiber.arr, fiber.matroid))
    if not report.ok:
        raise ResonantWeightsError(
            "weights fail the genericity conditions: " + "; ".join(report.violations)
        )
    n = fiber.n
    dims_a = [len(fiber.nbc(p)) for p in range(n + 1)]
    ranks = [0] * (n + 2)  # ranks[p] = rank of wedge: A^{p-1} -> A^p
    for p in range(1, n + 1):
        matrix = fiber.wedge_omega_matrix(weights, p)
        ranks[p] = matrix_rank(matrix) if matrix and matrix[0] else 0
    out = []
    for p in range(n + 1):
        out.append(dims_a[p] - ranks[p] - ranks[p + 1])
    return out


def weights_for_extended(fiber: FiberContext, weights: Weights) -> Weights:
    """Weights keyed by the extended arrangement's finite indices.

    The moving weight moves into the per-hyperplane table (the moving
    hyperplane is an ordinary finite hyperplane of the fiber), so the derived
    a0 still counts it exactly once.
    """
    if fiber.moving_index is None:
        return weights
    if weights.ah is None:
        raise ValueError("family mode needs the moving weight ah")
    values = dict(weights.a)
    values[fiber.moving_index] = weights.ah
    return Weights.make(values, None)
