"""Twisted logarithmic forms with symbolic weights and their reduction.

The complex in play is the span of wedge monomials of dlog forms of the
finite hyperplanes (plus, in family mode, the moving hyperplane ``x_s``),
with differential "wedge with omega", omega = sum a_i dlog f_i + a_h dlog x_s.
For weights satisfying the genericity conditions its cohomology sits in top
degree with the nbc monomials of the fixed arrangement as a basis.

Two reductions are implemented:

* ``reduce_rational_form`` writes a rational n-form with simple arrangement
  poles as an exact combination of dlog wedge monomials.  The loop rewrites
  numerators in an affine frame of denominator forms (splitting off constant
  terms), shortens denominators through circuits sum mu_i f_i = c with
  c != 0, and converts independent n-factor denominators by the exact
  Jacobian factor.  Each step strictly decreases (pole count, numerator
  degree), so it terminates; pieces that cannot be logarithmic on their own
  are parked and must cancel exactly, otherwise the input was not
  logarithmic and a typed error is raised.

* ``ClassReducer`` solves g = sum c_J e_J + omega ^ xi exactly at numeric
  weights, J running over the nbc bases of the fixed arrangement, and
  returns the coordinate vectors (c_J) of a batch of top-degree elements.

All computation is over exact rationals; the moving hyperplane is always
specialized at a rational parameter point off the discriminant.  There the
combinatorics of the fiber (matroid, Orlik-Solomon normal forms, nbc lists)
does not depend on the point, so a class reduction computed in one such
fiber holds in all of them.  ``gaussmanin.gm_matrix`` builds one such fiber
(``gaussmanin.generic_fiber``) and reduces its closed-form residue images
there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .arrangement import AffineChart, AffineForm, Arrangement, decone, validate
from .errors import (
    InconsistentSystemError,
    NotLogarithmicError,
    ResonantWeightsError,
    SampleRejectedError,
)
from .exactnum import (
    Rat,
    WeightPoly,
    determinant,
    matrix_rank,
    nullspace,
    solve_linear,
)
from .matroid import MatroidContext
from .osalg import ExtElem, OSContext, wedge_monomials

QQ0 = Fraction(0)
QQ1 = Fraction(1)


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
        """Map a1..am (in the given finite-index order) and ah to values."""
        values = self.a_dict
        out = {f"a{k}": values[idx] for k, idx in enumerate(finite_order, start=1)}
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
    from .arrangement import bad_loci

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

def _xsym(i: int) -> str:
    return f"x{i}"


def _poly_affine(form: AffineForm) -> WeightPoly:
    terms: dict = {(): form.constant}
    for i, c in enumerate(form.lin, start=1):
        terms[((_xsym(i), 1),)] = c
    return WeightPoly.make(terms)


@dataclass(frozen=True)
class AffineCircuit:
    """Minimal set of affine forms with dependent linear parts: sum mu_i f_i = c."""

    support: tuple[int, ...]
    mu: tuple[Fraction, ...]
    c: Fraction


class FiberContext:
    """One fiber of the family: fixed arrangement plus (optionally) the moving
    hyperplane specialized at a rational parameter point.

    Carries the extended projective arrangement, exact affine forms in the
    chart of the infinity hyperplane, the rewriting context, and the affine
    circuit table used by partial fractions.  The moving hyperplane, when
    present, has the last index.
    """

    def __init__(self, base: Arrangement, params: Sequence[Rat] | None = None):
        self.base = base
        self.affine: dict[int, AffineForm] = dict(zip(base.finite_indices, decone(base)))
        self.params: tuple[Fraction, ...] | None = None
        self.moving_index: int | None = None
        forms = list(base.hyperplanes)
        if params is not None:
            self.params = tuple(Fraction(v) for v in params)
            if len(self.params) != self.n:
                raise ValueError("parameter point must have one value per dimension")
            self.moving_index = base.size
            moving = AffineForm.make(1, self.params)
            self.affine[self.moving_index] = moving
            forms.append(AffineChart.of(base).projective(moving))
        try:
            self.arr = validate(forms, base.infinity_index, n=base.n)
        except Exception as exc:  # duplicate moving hyperplane etc.
            raise SampleRejectedError(f"degenerate parameter point: {exc}") from exc
        self.matroid = MatroidContext(self.arr)
        self.os = OSContext(self.arr, self.matroid)
        self._nbc_cache: dict[int, list[tuple[int, ...]]] = {}
        self._top_coordinates: dict[ExtElem, list[Fraction]] = {}
        self._affine_circuits: list[AffineCircuit] | None = None
        self._frame_inverse: dict[tuple[int, ...], dict[str, WeightPoly]] = {}

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
        return self._nbc_cache[p]

    def fixed_nbc(self) -> list[tuple[int, ...]]:
        """The nbc n-sets of the fixed arrangement, in lexicographic order.

        They are the fiber's nbc n-sets that avoid the moving index: that
        index sorts last, so every broken circuit through it contains it, and
        the rest are the nbc sets of the deletion.
        """
        return [t for t in self.nbc(self.n) if self.moving_index not in t]

    def top_coordinates(self, g: ExtElem) -> list[Fraction]:
        """Coordinates of the normal form of a top-degree g over ``nbc(n)``.

        They do not depend on the weights, so they are kept for every
        reducer of this fiber.
        """
        coords = self._top_coordinates.get(g)
        if coords is None:
            coords = self.os.nbc_coordinates(g, self.nbc(self.n))
            self._top_coordinates[g] = coords
        return coords

    def lin_rows(self, indices: Sequence[int]) -> list[list[Fraction]]:
        return [list(self.affine[i].lin) for i in indices]

    def jacobian_det(self, indices: Sequence[int]) -> Fraction:
        return determinant(self.lin_rows(indices))

    def frame_inverse(self, frame: tuple[int, ...]) -> dict[str, WeightPoly]:
        """x1..xn as affine polynomials in the forms g0..g_{n-1} of a frame.

        x_j = sum_k t_k (g_k - c_k), with t solving lin^T t = e_j for the
        frame's linear parts lin; kept per frame, as frames recur.
        """
        inverse = self._frame_inverse.get(frame)
        if inverse is None:
            unit = [[QQ1 if k == j else QQ0 for k in range(self.n)] for j in range(self.n)]
            solution = solve_linear(list(zip(*self.lin_rows(frame))), unit)
            inverse = self._frame_inverse[frame] = {
                _xsym(j): WeightPoly.make({
                    (): -sum((t * self.affine[i].constant for t, i in zip(ts, frame)), QQ0),
                    **{((f"g{k}", 1),): t for k, t in enumerate(ts)},
                })
                for j, ts in enumerate(solution.solutions, start=1)
            }
        return inverse

    # -- affine circuits ------------------------------------------------------

    def affine_circuits(self) -> list[AffineCircuit]:
        """Minimal subsets of finite forms whose linear parts are dependent.

        A set S of finite forms has dependent linear parts exactly when S plus
        infinity is dependent in the cone, so these are the minimal sets among
        the cone circuits with infinity removed: every circuit through
        infinity, minus infinity, and every circuit avoiding infinity that
        contains none of those.  The relation mu (leading entry 1) is the
        kernel of the linear parts; the cone dependency differs from it by a
        scalar, because the moving form is normalized projectively.
        """
        if self._affine_circuits is None:
            inf = self.arr.infinity_index
            circuits = self.matroid.circuits()
            through = [
                tuple(i for i in circ.support if i != inf)
                for circ in circuits
                if circ.contains_infinity
            ]
            supports = sorted(through + [
                circ.support
                for circ in circuits
                if not circ.contains_infinity
                and not any(set(t).issubset(circ.support) for t in through)
            ])
            out: list[AffineCircuit] = []
            for support in supports:
                kernel = nullspace(list(zip(*self.lin_rows(support))))
                assert len(kernel) == 1, "minimal dependent set has a unique relation"
                lead = next(x for x in kernel[0] if x != 0)
                mu = tuple(x / lead for x in kernel[0])
                c = sum((m * self.affine[i].constant for m, i in zip(mu, support)), QQ0)
                out.append(AffineCircuit(support, mu, c))
            self._affine_circuits = out
        return self._affine_circuits

    def circuit_in(self, pole_set: frozenset[int], nonzero_c: bool) -> AffineCircuit | None:
        """Lexicographically smallest contained circuit, filtered by c != 0."""
        for circ in self.affine_circuits():
            if (circ.c != 0) == nonzero_c and set(circ.support) <= pole_set:
                return circ
        return None

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

    def wedge_omega_matrix(self, weights: Weights, p: int) -> list[list[Fraction]]:
        """Matrix of wedge-with-omega from nbc (p-1)-monomials to nbc p-monomials."""
        domain = self.nbc(p - 1) if p >= 1 else []
        codomain = self.nbc(p)
        if p == 0:
            return [[ ] for _ in codomain]
        row_index = {t: r for r, t in enumerate(codomain)}
        matrix = [[QQ0 for _ in domain] for _ in codomain]
        for col, base_tuple in enumerate(domain):
            for idx, coeff in self.omega_terms(weights):
                merged = wedge_monomials((idx,), base_tuple)
                if merged is None:
                    continue
                sign, tup = merged
                nf = self.os.normal_form_monomial(tup)
                for out_tup, c in nf.terms:
                    r = row_index.get(out_tup)
                    if r is None:
                        raise AssertionError("normal form left the nbc span")
                    matrix[r][col] = matrix[r][col] + coeff * sign * c
        return matrix


# ---------------------------------------------------------------------------
# rational forms and partial-fraction reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatForm:
    """Rational n-form  numerator / prod_{i in poles} f_i  dx_1 ^ ... ^ dx_n.

    ``numerator`` is a polynomial in the affine coordinates (symbols x1..xn);
    ``poles`` is a squarefree set of arrangement indices (simple poles only --
    higher-order poles are unrepresentable by construction).  An optional
    ``weight_factor`` tags an overall symbolic residue factor such as ``ah``.
    """

    numerator: WeightPoly
    poles: frozenset[int]
    wedge: tuple[int, ...]
    weight_factor: str | None = None

    @staticmethod
    def make(
        numerator: WeightPoly,
        poles: Sequence[int],
        n: int,
        weight_factor: str | None = None,
    ) -> "RatForm":
        return RatForm(numerator, frozenset(poles), tuple(range(1, n + 1)), weight_factor)

    def evaluate(self, fiber: FiberContext, point: Sequence[Rat]) -> Fraction:
        """Value of the dx1..dxn coefficient at an off-pole rational point."""
        assignment = {_xsym(i): Fraction(v) for i, v in enumerate(point, start=1)}
        value = self.numerator.evaluate(assignment)
        for i in self.poles:
            fv = fiber.affine[i].evaluate(point)
            if fv == 0:
                raise ZeroDivisionError("evaluation point lies on a pole")
            value /= fv
        return value


def log_comb_evaluate(fiber: FiberContext, comb: ExtElem, point: Sequence[Rat]) -> Fraction:
    """dx1..dxn coefficient of a top-degree dlog combination at a point."""
    total = QQ0
    for tup, c in comb.terms:
        det = fiber.jacobian_det(tup)
        if det == 0:
            continue
        denom = QQ1
        for i in tup:
            fv = fiber.affine[i].evaluate(point)
            if fv == 0:
                raise ZeroDivisionError("evaluation point lies on a pole")
            denom *= fv
        total += c * det / denom
    return total


def reduce_rational_form(form: RatForm, fiber: FiberContext) -> ExtElem:
    """Exact rewriting of a rational n-form into dlog wedge monomials.

    Raises :class:`NotLogarithmicError` when the form is not a global
    logarithmic form of the (extended) arrangement, e.g. a pole of order two
    at infinity; the exact residual witnesses the failure.
    """
    if form.weight_factor is not None:
        raise ValueError("strip the symbolic weight factor before reducing")
    n = fiber.n
    unknown = [i for i in form.poles if i not in fiber.affine]
    if unknown:
        raise NotLogarithmicError(f"poles {unknown} are not arrangement hyperplanes")

    pending: dict[frozenset[int], WeightPoly] = {}
    residual: dict[frozenset[int], WeightPoly] = {}
    converted: dict[tuple[int, ...], Fraction] = {}

    def push(target: dict, poles: frozenset[int], poly: WeightPoly) -> None:
        if poly.is_zero:
            return
        existing = target.get(poles)
        total = poly if existing is None else existing + poly
        if total.is_zero:
            target.pop(poles, None)
        else:
            target[poles] = total

    push(pending, form.poles, form.numerator)

    while pending:
        poles = next(iter(pending))
        poly = pending.pop(poles)
        if poly.is_zero:
            continue
        degree = max((sum(e for _, e in mono) for mono, _ in poly.terms), default=0)
        if degree >= 1:
            frame = _frame_in(fiber, poles)
            if frame is not None:
                for new_poles, new_poly in _rewrite_in_frame(fiber, poly, poles, frame):
                    push(pending, new_poles, new_poly)
                continue
            circ = fiber.circuit_in(poles, nonzero_c=True)
            if circ is not None:
                for new_poles, new_poly in _split_by_circuit(poly, poles, circ):
                    push(pending, new_poles, new_poly)
                continue
            push(residual, poles, poly)
            continue
        # constant numerator
        if len(poles) == n:
            ordered = tuple(sorted(poles))
            det = fiber.jacobian_det(ordered)
            if det != 0:
                constant = poly.evaluate({})
                converted[ordered] = converted.get(ordered, QQ0) + constant / det
                continue
        circ = fiber.circuit_in(poles, nonzero_c=True)
        if circ is not None:
            for new_poles, new_poly in _split_by_circuit(poly, poles, circ):
                push(pending, new_poles, new_poly)
            continue
        push(residual, poles, poly)

    residual = {p: q for p, q in residual.items() if not q.is_zero}
    if residual:
        detail = "; ".join(
            f"poles {sorted(p)}" for p in sorted(residual, key=lambda s: sorted(s))
        )
        raise NotLogarithmicError(f"non-logarithmic residual remains ({detail})")
    return ExtElem.make({t: c for t, c in converted.items() if c != 0})


def _frame_in(fiber: FiberContext, poles: frozenset[int]) -> tuple[int, ...] | None:
    """Lexicographically smallest n-subset of poles with independent linear parts."""
    n = fiber.n
    if len(poles) < n:
        return None
    for subset in itertools.combinations(sorted(poles), n):
        if matrix_rank(fiber.lin_rows(subset)) == n:
            return subset
    return None


def _rewrite_in_frame(
    fiber: FiberContext,
    poly: WeightPoly,
    poles: frozenset[int],
    frame: tuple[int, ...],
) -> list[tuple[frozenset[int], WeightPoly]]:
    """Express the numerator in the affine frame and cancel pole factors.

    Returns replacement terms: the frame-constant part stays over the full
    pole set; every frame monomial with a factor g_k cancels that factor
    against the matching denominator form.
    """
    n = fiber.n
    substituted = _substitute(poly, fiber.frame_inverse(frame))

    out: list[tuple[frozenset[int], WeightPoly]] = []
    for mono, coeff in substituted.terms:
        exponents = dict(mono)
        active = next((k for k in range(n) if exponents.get(f"g{k}", 0) > 0), None)
        if active is None:
            out.append((poles, WeightPoly.constant(coeff)))
            continue
        remaining = WeightPoly.constant(coeff)
        for sym, e in mono:
            k = int(sym[1:])
            times = e - 1 if k == active else e
            for _ in range(times):
                remaining = remaining * _poly_affine(fiber.affine[frame[k]])
        out.append((poles - {frame[active]}, remaining))
    return out


def _substitute(poly: WeightPoly, table: Mapping[str, WeightPoly]) -> WeightPoly:
    total = WeightPoly.zero()
    for mono, coeff in poly.terms:
        term = WeightPoly.constant(coeff)
        for sym, e in mono:
            base = table[sym]
            for _ in range(e):
                term = term * base
        total = total + term
    return total


def _split_by_circuit(
    poly: WeightPoly, poles: frozenset[int], circ: AffineCircuit
) -> list[tuple[frozenset[int], WeightPoly]]:
    """Apply 1/prod = (1/c) sum_j mu_j / prod_{i != j} for a circuit with c != 0."""
    assert circ.c != 0
    out = []
    for j, mu in zip(circ.support, circ.mu):
        if mu == 0:
            continue
        out.append((poles - {j}, poly.scale(mu / circ.c)))
    return out


# ---------------------------------------------------------------------------
# reduction of top classes to the fixed nbc basis
# ---------------------------------------------------------------------------

class ClassReducer:
    """Solves g = sum c_J e_J + omega ^ xi in the top degree of a fiber.

    J runs over ``fiber.fixed_nbc()``, the nbc bases of the fixed
    arrangement; the solve is exact at numeric weights.  The system depends
    only on the fiber's combinatorics and the weights, so the reducer also
    takes the dlog forms of any other fiber off the discriminant.
    Inconsistency (a resonant weight or a discriminant parameter point)
    raises :class:`SampleRejectedError`.
    """

    def __init__(self, fiber: FiberContext, weights: Weights):
        self.fiber = fiber
        n = fiber.n
        self.fixed_basis = fiber.fixed_nbc()
        wedge_rows = fiber.wedge_omega_matrix(weights, n)
        self.rows = [
            [QQ1 if t == tup else QQ0 for t in self.fixed_basis] + wedge_row
            for tup, wedge_row in zip(fiber.nbc(n), wedge_rows)
        ]

    def reduce_batch(self, elems: Sequence[ExtElem]) -> list[list[Fraction]]:
        rhs = [self.fiber.top_coordinates(g) for g in elems]
        try:
            solution = solve_linear(self.rows, rhs)
        except InconsistentSystemError as exc:
            raise SampleRejectedError(
                "resonance or discriminant sample: class reduction inconsistent"
            ) from exc
        nfixed = len(self.fixed_basis)
        return [sol[:nfixed] for sol in solution.solutions]

    def reduce(self, g: ExtElem) -> list[Fraction]:
        return self.reduce_batch([g])[0]


def cohomology_dims(fiber: FiberContext, weights: Weights) -> list[int]:
    """Dimensions of the twisted cohomology by degree, computed from exact ranks.

    Requires generic numeric weights; resonance (detected either by the
    genericity report or by nonvanishing cohomology below the top degree)
    raises :class:`ResonantWeightsError`.
    """
    report = validate_weights(fiber.arr, weights_for_extended(fiber, weights))
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
