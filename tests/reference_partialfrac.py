"""The paper's partial-fraction route from rational forms to dlog forms
(test-only oracle).

Aomoto-Kita obtain the Gauss-Manin connection by differentiating twisted
forms against the parameters and reducing the derivatives, rational
n-forms with simple poles along the fiber's hyperplanes, to dlog wedge
monomials by partial fractions.  The library computes the residues in
closed form in the Orlik-Solomon algebra instead (``gaussmanin``), so this
module is the route kept as an independent check of it
(``reference_sampled.py``, acceptance criterion 8).

* ``WeightPoly`` -- sparse multivariate polynomials over ``Rat`` with
  string symbols, the numerators of rational forms in x1..xn.
* ``FiberChart`` -- one fiber's finite forms in the affine chart of its
  infinity hyperplane, with the frames, Jacobians and affine circuits the
  reduction reads.
* ``reduce_rational_form`` -- writes a rational n-form with simple
  arrangement poles as an exact combination of dlog wedge monomials.  The
  loop rewrites numerators in an affine frame of denominator forms
  (splitting off constant terms), shortens denominators through circuits
  sum mu_i f_i = c with c != 0, and converts independent n-factor
  denominators by the exact Jacobian factor.  Each step strictly decreases
  (pole count, numerator degree), so it terminates; pieces that cannot be
  logarithmic on their own are parked and must cancel exactly, otherwise
  the input was not logarithmic and :class:`NotLogarithmicError` is raised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from arrgm.aomoto import FiberContext
from arrgm.arrangement import AffineChart, AffineForm
from arrgm.errors import ArrgmError
from arrgm.exactnum import Rat, determinant, nullspace, solve_linear
from arrgm.osalg import ExtElem

QQ0 = Fraction(0)
QQ1 = Fraction(1)


class NotLogarithmicError(ArrgmError):
    """A rational form cannot be written as a logarithmic combination."""


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

Monomial = tuple[tuple[str, int], ...]  # sorted ((symbol, exponent), ...), exponents > 0


@dataclass(frozen=True)
class WeightPoly:
    """Sparse polynomial over ``Rat`` in named symbols, canonical form.

    Keys are sorted ``(symbol, exponent)`` tuples; no zero coefficients are
    stored; the zero polynomial has no terms.  Symbols are arbitrary strings,
    so the same type carries the numerators of rational forms in the
    coordinate symbols x1..xn and polynomials in the weight symbols.
    """

    terms: tuple[tuple[Monomial, Rat], ...]

    @staticmethod
    def make(terms: Mapping[Monomial, Rat | int]) -> "WeightPoly":
        clean: dict[Monomial, Fraction] = {}
        for mono, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            mono = tuple(sorted((s, e) for s, e in mono if e != 0))
            clean[mono] = clean.get(mono, QQ0) + c
        return WeightPoly(tuple(sorted((m, c) for m, c in clean.items() if c != 0)))

    @staticmethod
    def zero() -> "WeightPoly":
        return WeightPoly(())

    @staticmethod
    def constant(value: Rat | int) -> "WeightPoly":
        return WeightPoly.make({(): Fraction(value)})

    @staticmethod
    def symbol(sym: str) -> "WeightPoly":
        return WeightPoly.make({((sym, 1),): QQ1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "WeightPoly") -> "WeightPoly":
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, QQ0) + c
        return WeightPoly.make(acc)

    def __sub__(self, other: "WeightPoly") -> "WeightPoly":
        return self + other.scale(-1)

    def scale(self, factor: Rat | int) -> "WeightPoly":
        f = Fraction(factor)
        if f == 0:
            return WeightPoly.zero()
        return WeightPoly(tuple((m, c * f) for m, c in self.terms))

    def __mul__(self, other: "WeightPoly") -> "WeightPoly":
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            d1 = dict(m1)
            for m2, c2 in other.terms:
                merged = dict(d1)
                for s, e in m2:
                    merged[s] = merged.get(s, 0) + e
                key = tuple(sorted(merged.items()))
                acc[key] = acc.get(key, QQ0) + c1 * c2
        return WeightPoly.make(acc)

    def evaluate(self, assignment: Mapping[str, Rat]) -> Rat:
        total = QQ0
        for mono, c in self.terms:
            value = c
            for s, e in mono:
                value *= assignment[s] ** e
            total += value
        return total


# ---------------------------------------------------------------------------
# the fiber in the affine chart
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


class FiberChart:
    """A fiber's finite forms in the affine chart of its infinity hyperplane.

    ``affine`` maps every finite index of the fiber to its affine form: the
    fixed forms in the chart of ``AffineChart.of`` and, in a family fiber,
    the moving form 1 + sum l_i x_i at the fiber's parameter point.  Frame inverses and the
    affine circuit table are kept per chart.
    """

    def __init__(self, fiber: FiberContext):
        self.fiber = fiber
        chart = AffineChart.of(fiber.base)
        self.affine: dict[int, AffineForm] = {
            i: chart.affine(fiber.base.hyperplanes[i]) for i in fiber.base.finite_indices
        }
        if fiber.moving_index is not None:
            self.affine[fiber.moving_index] = AffineForm.make(1, fiber.params)
        self._affine_circuits: list[AffineCircuit] | None = None
        self._frame_inverse: dict[tuple[int, ...], dict[str, WeightPoly]] = {}

    @property
    def n(self) -> int:
        return self.fiber.n

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
            inf = self.fiber.arr.infinity_index
            circuits = self.fiber.matroid.circuits()
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


# ---------------------------------------------------------------------------
# rational forms and partial-fraction reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatForm:
    """Rational n-form  numerator / prod_{i in poles} f_i  dx_1 ^ ... ^ dx_n.

    ``numerator`` is a polynomial in the affine coordinates (symbols x1..xn);
    ``poles`` is a squarefree set of arrangement indices (simple poles only --
    higher-order poles are unrepresentable by construction).
    """

    numerator: WeightPoly
    poles: frozenset[int]

    @staticmethod
    def make(numerator: WeightPoly, poles: Sequence[int]) -> "RatForm":
        return RatForm(numerator, frozenset(poles))

    def evaluate(self, chart: FiberChart, point: Sequence[Rat]) -> Fraction:
        """Value of the dx1..dxn coefficient at an off-pole rational point."""
        assignment = {_xsym(i): Fraction(v) for i, v in enumerate(point, start=1)}
        value = self.numerator.evaluate(assignment)
        for i in self.poles:
            fv = chart.affine[i].evaluate(point)
            if fv == 0:
                raise ZeroDivisionError("evaluation point lies on a pole")
            value /= fv
        return value


def log_comb_evaluate(chart: FiberChart, comb: ExtElem, point: Sequence[Rat]) -> Fraction:
    """dx1..dxn coefficient of a top-degree dlog combination at a point."""
    total = QQ0
    for tup, c in comb.terms:
        det = chart.jacobian_det(tup)
        if det == 0:
            continue
        denom = QQ1
        for i in tup:
            fv = chart.affine[i].evaluate(point)
            if fv == 0:
                raise ZeroDivisionError("evaluation point lies on a pole")
            denom *= fv
        total += c * det / denom
    return total


def reduce_rational_form(form: RatForm, chart: FiberChart) -> ExtElem:
    """Exact rewriting of a rational n-form into dlog wedge monomials.

    Raises :class:`NotLogarithmicError` when the form is not a global
    logarithmic form of the (extended) arrangement, e.g. a pole of order two
    at infinity; the exact residual witnesses the failure.
    """
    n = chart.n
    unknown = [i for i in form.poles if i not in chart.affine]
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
            frame = _frame_in(chart, poles)
            if frame is not None:
                for new_poles, new_poly in _rewrite_in_frame(chart, poly, poles, frame):
                    push(pending, new_poles, new_poly)
                continue
            circ = chart.circuit_in(poles, nonzero_c=True)
            if circ is not None:
                for new_poles, new_poly in _split_by_circuit(poly, poles, circ):
                    push(pending, new_poles, new_poly)
                continue
            push(residual, poles, poly)
            continue
        # constant numerator
        if len(poles) == n:
            ordered = tuple(sorted(poles))
            det = chart.jacobian_det(ordered)
            if det != 0:
                constant = poly.evaluate({})
                converted[ordered] = converted.get(ordered, QQ0) + constant / det
                continue
        circ = chart.circuit_in(poles, nonzero_c=True)
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


def _frame_in(chart: FiberChart, poles: frozenset[int]) -> tuple[int, ...] | None:
    """Lexicographically smallest n-subset of poles with independent linear parts.

    The linear parts of S are independent exactly when S plus infinity is
    independent in the cone, which the fiber's matroid answers from its cache.
    """
    n = chart.n
    if len(poles) < n:
        return None
    for subset in itertools.combinations(sorted(poles), n):
        if not chart.fiber.matroid.dependent_with_infinity(subset):
            return subset
    return None


def _rewrite_in_frame(
    chart: FiberChart,
    poly: WeightPoly,
    poles: frozenset[int],
    frame: tuple[int, ...],
) -> list[tuple[frozenset[int], WeightPoly]]:
    """Express the numerator in the affine frame and cancel pole factors.

    Returns replacement terms: the frame-constant part stays over the full
    pole set; every frame monomial with a factor g_k cancels that factor
    against the matching denominator form.
    """
    n = chart.n
    substituted = _substitute(poly, chart.frame_inverse(frame))

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
                remaining = remaining * _poly_affine(chart.affine[frame[k]])
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
