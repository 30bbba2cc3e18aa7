"""Assembly of the connection matrix of the moving-hyperplane family.

The bundle is trivialized by the nbc bases of the fixed arrangement (top
twisted cohomology of every fiber).  The connection is sum_p A_p dlog f_p
over the discriminant components, and each residue has a closed form in the
Orlik-Solomon algebra, the Aomoto-complex form of the connection
(Cohen-Orlik, "Gauss-Manin connections for arrangements" I-III; Aomoto-Kita,
*Theory of Hypergeometric Functions*).  A component is h . P = 0 for a
point P; with S_X the hyperplanes through P plus the moving one,

    A_X e_J = [lambda_X eta_{J,P} - omega_X ^ d eta_{J,P}],

where eta_{J,P} is the part at P of the projective lift d(e_inf ^ e_J) of
e_J, lambda_X and omega_X are the weight sum and the weighted sum of the
e_i over S_X, and [.] is the class over the nbc basis in any fiber off the
discriminant.  The component along h0 = 0 is derived: homogenizing each
degree-one affine component contributes -dlog h0, so its residue is minus
the sum of all the others.

Every residue is homogeneous linear in the weights, A_X = sum_k a_k A_X^(k)
with a0 eliminated, and is carried as these per-symbol coefficient
matrices.  ``gm_matrix`` builds one fiber and the integer stencils of the
images once per call, reduces the images in one solve per weight setting,
and takes the A_X^(k) as difference quotients between the settings.

``flatness_check`` verifies integrability exactly and completely by Kohno's
codimension-2 criterion: for every rank-2 flat X of the components and every
p in X, [A_p, sum_{q in X} A_q] = 0 as a polynomial identity in the weights,
checked one pair of coefficient matrices at a time.  No point is sampled
and no size is exempt.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arrangement import (
    AffineChart,
    AffineForm,
    Arrangement,
    ProjForm,
    discriminant,
    format_linear,
)
from .errors import ArrgmError, NonlinearFitError, ResonantWeightsError
from .exactnum import (
    CoeffMatrix, WeightExpr, first_nonzero_quadratic, integer_coefficients, nullspace,
)
from .aomoto import ClassReducer, FiberContext, Weights, validate_weights
from .osalg import ExtElem, boundary, wedge, wedge_monomials

QQ0 = Fraction(0)


# ---------------------------------------------------------------------------
# family and connection containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MovingFamily:
    """Fixed arrangement plus the moving hyperplane x_s = 1 + sum l_i x_i.

    ``weights`` carries numeric residues when the caller wants a numeric
    connection; None selects the symbolic pipeline (residues computed at
    fixed generic weight settings and lifted to linear expressions).
    """

    base: Arrangement
    weights: Weights | None = None

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def moving_index(self) -> int:
        return self.base.size


@dataclass(frozen=True)
class GMComponent:
    form: ProjForm  # linear form in the dual coordinates h0..hn
    residue: tuple[tuple[WeightExpr, ...], ...]


@dataclass(frozen=True)
class GMConnection:
    """Connection matrix sum_p residue_p dlog(form_p) on the nbc trivialization.

    Column j of each residue matrix holds the coordinates of the image of
    the j-th basis element.  Components are in canonical form order with the
    h0 component last; residue matrices sum to zero.
    """

    basis: tuple[tuple[int, ...], ...]
    components: tuple[GMComponent, ...]
    weight_symbol_order: tuple[int, ...]  # finite fixed indices backing a1..am

    @property
    def size(self) -> int:
        return len(self.basis)

    def residue(self, form: ProjForm) -> tuple[tuple[WeightExpr, ...], ...] | None:
        for comp in self.components:
            if comp.form == form:
                return comp.residue
        return None

    def assignment_for(self, weights: Weights) -> dict[str, Fraction]:
        return weights.symbol_assignment(self.weight_symbol_order)

    def evaluate(self, weights: Weights) -> list[tuple[ProjForm, list[list[Fraction]]]]:
        assignment = self.assignment_for(weights)
        return [
            (c.form, [[e.evaluate(assignment) for e in row] for row in c.residue])
            for c in self.components
        ]

    def to_json(self) -> dict:
        return {
            "basis": [list(b) for b in self.basis],
            "components": [
                {
                    "form": comp.form.to_json(),
                    "residue": [[e.to_json() for e in row] for row in comp.residue],
                }
                for comp in self.components
            ],
        }


# ---------------------------------------------------------------------------
# generic fiber and weight settings, by construction
# ---------------------------------------------------------------------------

def generic_fiber(base: Arrangement) -> tuple[FiberContext, list[ProjForm]]:
    """The discriminant components and the fiber at the first point
    (t, t^2, ..., t^n), t = 1, 2, ..., off all of them.

    A component with a nonzero linear part is, along this curve, a nonzero
    polynomial of degree at most n in t, and one without (h0) is a nonzero
    constant in the chart; so the first t <= n * len(components) + 1 that
    is a root of none of them is found without any retry.  The chart is
    checked before the discriminant is computed.
    """
    chart = AffineChart.of(base)
    components = discriminant(base)
    affine = [chart.affine(form) for form in components]
    for t in itertools.count(1):
        point = tuple(Fraction(t**k) for k in range(1, base.n + 1))
        if all(f.evaluate(point) != 0 for f in affine):
            return FiberContext(base, point), components


def _weight_settings(base: Arrangement) -> list[Weights]:
    """m + 3 affinely independent weight settings, generic by construction.

    With m finite weights and q = (m + 1)(m + 4), the base setting w0 has
    a = k/q on the k-th finite index and ah = (m + 1)/q; then come w0 + e_s/q
    for every symbol s (finite indices, then ah) and the diagonal
    w0 + (1, ..., 1)/q.  Every numerator is positive and their total is at
    most (m + 1)(m + 4)/2 < q, so every nonempty proper sum of
    {a_i, ah, a0} lies in (-1, 0) or (0, 1): no residue, ah included, and
    no flat sum of the base or of the extended fiber is an integer.
    """
    finite = base.finite_indices
    m = len(finite)
    q = (m + 1) * (m + 4)
    a = {idx: Fraction(k, q) for k, idx in enumerate(finite, start=1)}
    ah = Fraction(m + 1, q)
    step = Fraction(1, q)
    settings = [Weights.make(a, ah)]
    settings += [Weights.make({**a, idx: a[idx] + step}, ah) for idx in finite]
    settings.append(Weights.make(a, ah + step))
    settings.append(Weights.make({idx: v + step for idx, v in a.items()}, ah + step))
    return settings


# ---------------------------------------------------------------------------
# the connection matrix
# ---------------------------------------------------------------------------

def gm_matrix(family: MovingFamily) -> GMConnection:
    """Compute the full connection matrix with exact residues.

    Pipeline: build one fiber off the discriminant (``generic_fiber``),
    evaluate the closed-form residue of every affine discriminant component
    at each weight setting (one class reduction per setting, images from
    ``_residue_stencils``), lift the residues to the weights, and append the
    derived h0 component.
    """
    base = family.base
    n = base.n
    chart = AffineChart.of(base)
    if family.weights is not None:
        if family.weights.ah is None:
            raise ArrgmError("numeric weights of a moving family need the moving weight ah")
        report = validate_weights(base, family.weights)
        if not report.ok:
            raise ResonantWeightsError(
                "weights fail the genericity conditions: " + "; ".join(report.violations)
            )
        weight_settings = [family.weights]
    else:
        weight_settings = _weight_settings(base)

    # The class reduction holds in every fiber off the discriminant.
    fiber, components = generic_fiber(base)
    basis = fiber.fixed_nbc()
    if not basis:
        raise ArrgmError("fixed arrangement has no nbc bases in top degree")
    h0 = chart.projective(AffineForm.make(1, [0] * n))
    affine_all = [(form, chart.affine(form)) for form in components]
    forms = [form for form, aff in affine_all if any(c != 0 for c in aff.lin)]
    stencils = _residue_stencils(base, forms, basis, fiber.moving_index)
    columns_by_setting = []
    for weights in weight_settings:
        a = {**weights.a_dict, fiber.moving_index: weights.ah, base.infinity_index: weights.a0}
        images = []
        for pieces in stencils:
            acc: dict[tuple[int, ...], Fraction] = {}
            for i, piece in pieces:
                for t, c in piece:
                    acc[t] = acc.get(t, QQ0) + c * a[i]
            images.append(ExtElem(tuple(sorted((t, v) for t, v in acc.items() if v))))
        columns_by_setting.append(ClassReducer(fiber, weights).reduce_batch(images))

    # A component invisible in the affine chart has no linear part, which
    # forces it to be proportional to h0 itself; nothing else to add here.
    assert all(form == h0 for form, aff in affine_all if not any(c != 0 for c in aff.lin))
    return _assemble(family, basis, forms, h0, columns_by_setting, weight_settings)


def _assemble(
    family: MovingFamily,
    basis: Sequence[tuple[int, ...]],
    forms: Sequence[ProjForm],
    h0: ProjForm,
    columns_by_setting: list[list[list[Fraction]]],
    weight_settings: list[Weights],
) -> GMConnection:
    """The connection from the residues of the affine components ``forms``.

    ``columns_by_setting[w][p * len(basis) + j]`` is column j of the residue
    along ``forms[p]`` at ``weight_settings[w]``.  Residues are lifted to
    coefficient matrices, components are put in canonical form order, and
    the h0 residue, minus the sum of the others, goes last.
    """
    nbasis = len(basis)
    symbol_order = tuple(family.base.finite_indices)
    lifted = _lift(columns_by_setting, weight_settings, symbol_order, nbasis)
    h0_form: CoeffMatrix = {}
    for form in lifted:
        for s, rows in form.items():
            _add_rows(h0_form.setdefault(s, [{} for _ in rows]), rows, -1)
    comps = [GMComponent(f, _weight_matrix(c, nbasis)) for f, c in zip(forms, lifted)]
    comps.sort(key=lambda c: c.form.coeffs)
    comps.append(GMComponent(h0, _weight_matrix(h0_form, nbasis)))
    return GMConnection(tuple(basis), tuple(comps), symbol_order)


def _residue_stencils(
    base: Arrangement,
    forms: Sequence[ProjForm],
    basis: Sequence[tuple[int, ...]],
    moving_index: int,
) -> list[list[tuple[int, list[tuple[tuple[int, ...], int]]]]]:
    """Weight-independent pieces of the residue images, in (form, J) order.

    For the component of the point P, S_X holds the hyperplanes through P,
    infinity included, and the moving one; with a_inf = a0,

        A_X e_J = [lambda_X eta_{J,P} - omega_X ^ d eta_{J,P}]
                = sum_{i in S_X} a_i [eta_{J,P} - e_i ^ d eta_{J,P}],

    and B = A_X satisfies B^2 = lambda_X B, as d omega_X = lambda_X and
    d^2 = 0.  Returns the pairs (i, piece) of each (form, J), a piece as
    (monomial, integer) pairs without the monomials through infinity,
    which vanish in the fiber's chart; the caller takes the class [.].
    """
    inf = base.infinity_index
    e_inf = ExtElem.monomial((inf,))
    lifts = [boundary(wedge(e_inf, ExtElem.monomial(J))) for J in basis]
    stencils = []
    for form in forms:
        support = {moving_index} | {
            i for i, plane in enumerate(base.hyperplanes) if plane.evaluate(form.coeffs) == 0
        }
        for eta in lifts:
            local = ExtElem(tuple((t, c) for t, c in eta.terms if support.issuperset(t)))
            d_local = boundary(local).terms
            pieces = []
            for i in sorted(support):
                acc = {t: int(c) for t, c in local.terms if inf not in t}
                for t, c in d_local:
                    merged = wedge_monomials((i,), t)
                    if merged is not None and inf not in merged[1]:
                        acc[merged[1]] = acc.get(merged[1], 0) - merged[0] * int(c)
                pieces.append((i, [(t, c) for t, c in acc.items() if c]))
            stencils.append(pieces)
    return stencils


def _lift(
    columns_by_setting: list[list[list[Fraction]]],
    weight_settings: list[Weights],
    symbol_order: tuple[int, ...],
    nbasis: int,
) -> list[CoeffMatrix]:
    """The coefficient matrices {symbol: sparse rows} of every residue.

    At numeric weights a residue is its constant part, symbol "1".  The
    symbolic settings are w0, w0 + delta e_k per symbol k, and a diagonal
    step (``_weight_settings``).  With R(w) the residues at w,
    A^(k) = (R(w0 + delta e_k) - R(w0)) / delta, and R(w0) and R(diag) must
    equal sum_k w_k A^(k) exactly, or the residues are not homogeneous
    linear in the weights: :class:`NonlinearFitError`.
    """
    base = columns_by_setting[0]
    if len(weight_settings) == 1:
        steps, checks = [("1", base, [[QQ0] * nbasis] * len(base), 1)], []
    else:
        w0, *shifted, diag = [w.symbol_assignment(symbol_order) for w in weight_settings]
        steps = [
            (s, columns, base, w[s] - w0[s])
            for s, w, columns in zip(w0, shifted, columns_by_setting[1:-1])
        ]
        checks = [(w0, base), (diag, columns_by_setting[-1])]
    lifted: list[CoeffMatrix] = [{} for _ in range(len(base) // nbasis)]
    for s, columns, reference, delta in steps:
        for p, form in enumerate(lifted):
            rows = [{} for _ in range(nbasis)]
            for j in range(nbasis):
                for i, (x, y) in enumerate(zip(columns[p * nbasis + j], reference[p * nbasis + j])):
                    if x != y:
                        rows[i][j] = (x - y) / delta
            if any(rows):
                form[s] = rows
    for w, columns in checks:
        for p, form in enumerate(lifted):
            value = [{} for _ in range(nbasis)]
            for s, rows in form.items():
                _add_rows(value, rows, w[s])
            cols = columns[p * nbasis : (p + 1) * nbasis]
            if any(value[i].get(j, QQ0) != x for j, col in enumerate(cols) for i, x in enumerate(col)):
                raise NonlinearFitError()
    return lifted


def _add_rows(target: list[dict[int, Fraction]], rows: list[dict[int, Fraction]], factor=1):
    """target += factor * rows, for sparse rows."""
    for acc, row in zip(target, rows):
        for j, v in row.items():
            acc[j] = acc.get(j, 0) + factor * v


def _weight_matrix(form: CoeffMatrix, size: int) -> tuple[tuple[WeightExpr, ...], ...]:
    """The ``WeightExpr`` matrix of a coefficient matrix ("1" is the constant part)."""
    const = form.get("1", [{}] * size)
    symbols = sorted(s for s in form if s != "1")

    def entry(i: int, j: int) -> WeightExpr:
        coeffs = tuple((s, c) for s in symbols if (c := form[s][i].get(j)))
        return WeightExpr(Fraction(const[i].get(j, 0)), coeffs)

    return tuple(tuple(entry(i, j) for j in range(size)) for i in range(size))


# ---------------------------------------------------------------------------
# flatness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatnessReport:
    ok: bool
    witness: str | None = None


def flatness_check(connection: GMConnection, base: Arrangement) -> FlatnessReport:
    """Verify zero curvature of M = sum_p A_p dlog f_p exactly, for all weights.

    The residues are constant in the parameters, so M is flat iff M ^ M = 0.
    By the Brieskorn decomposition of the degree-2 Orlik-Solomon algebra this
    splits over the codimension-2 flats X of the central arrangement of all
    components in h0..hn, h0 included (Kohno's criterion): [A_p, S_X] = 0 for
    every p in X, with S_X the sum of the A_q over q in X.  Since the
    residues sum to zero, this is flatness on the projective complement.
    The h0 residue is read as stored: residues whose sum S does not commute
    with every A_p make the central connection curved, and fail.
    Each commutator is checked as a polynomial identity in the weights on
    the residues' coefficient matrices; the witness is its first nonzero
    entry, and ``base`` supplies n for its h-names.
    """
    comps = connection.components
    residues = integer_coefficients([c.residue for c in comps])
    size = connection.size
    names = [f"h{i}" for i in range(base.n + 1)]
    for flat in _codim2_flats([c.form for c in comps]):
        total: CoeffMatrix = {}
        for q in flat:
            for s, rows in residues[q].items():
                _add_rows(total.setdefault(s, [{} for _ in rows]), rows)
        # the commutators with S_X sum to [S_X, S_X] = 0, so the last is implied
        for p in flat[:-1]:
            entry = first_nonzero_quadratic(
                [(1, residues[p], total), (-1, total, residues[p])], size
            )
            if entry is not None:
                forms = ", ".join(format_linear(comps[q].form.coeffs, names) for q in flat)
                return FlatnessReport(
                    False,
                    witness=f"flat {{{forms}}}: [A_p, S_X][{entry[0]}][{entry[1]}] != 0 "
                    f"for p = {format_linear(comps[p].form.coeffs, names)}",
                )
    return FlatnessReport(True)


def _codim2_flats(forms: Sequence[ProjForm]) -> list[tuple[int, ...]]:
    """Rank-2 flats of the central arrangement of ``forms``, as index tuples.

    Each flat is the closure of a pair of (pairwise independent) forms: the
    indices of every form in their span, which are the forms orthogonal to
    the pair's kernel.  One kernel per flat, scaled to integers, and an
    integer dot product per form decide it.
    """
    flats: list[tuple[int, ...]] = []
    covered: set[tuple[int, int]] = set()
    for pair in itertools.combinations(range(len(forms)), 2):
        if pair in covered:
            continue
        kernel = []
        for v in nullspace([forms[i].coeffs for i in pair]):
            scale = math.lcm(*(x.denominator for x in v))
            kernel.append([x.numerator * (scale // x.denominator) for x in v])
        flat = tuple(
            r
            for r, form in enumerate(forms)
            if not any(sum(c * x for c, x in zip(form.coeffs, v)) for v in kernel)
        )
        flats.append(flat)
        covered.update(itertools.combinations(flat, 2))
    return flats
