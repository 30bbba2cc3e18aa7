"""Assembly of the connection matrix of the moving-hyperplane family.

The bundle is trivialized by the nbc bases of the fixed arrangement (top
twisted cohomology of every fiber).  Differentiating a basis class e_J
against the parameter l_k produces the coefficient a_h (x_k / x_s) e_J; its
class is computed exactly at rational parameter samples, the sampled
coordinate functions are fitted as sum_p r_p dlog f_p over the affine
discriminant components, and the residues r_p are lifted to affine-linear
weight expressions by sampling weights and exact affine fitting.  The
component along h0 = 0 is not fitted: homogenizing each degree-one affine
component contributes -dlog h0, so its residue is minus the sum of all the
others.

``gm_matrix`` does each piece of work at the level it depends on:

* once per family: the discriminant components in the affine chart, the
  weight settings, the raw derivatives (their Jacobians in the affine
  chart), and one fiber context, built at the first parameter sample: its
  matroid, Orlik-Solomon normal forms, nbc bases and circuit supports are
  the same at every sample off the discriminant (``FiberContext.at``);
* once per parameter point: the fiber derived there (its moving form and
  circuit relations), the partial-fraction reduction of every raw
  derivative, and the nbc coordinates of the reduced forms;
* once per weight setting: one class-reduction solve taking the reduced
  forms of every point;
* once per sampling round: the dlog rows of the samples, shared by the
  rank check and the residue fit;
* once per call: one exact solve fitting every residue entry of every
  setting, and one exact solve lifting every entry to the weights.  Both
  fits stay overdetermined and verified exactly (the residues on held-out
  samples, the lift at every weight setting), and the fitted systems have
  full column rank, so batching leaves every solution unchanged.

``flatness_check`` verifies integrability exactly and completely by Kohno's
codimension-2 criterion: for every rank-2 flat X of the components and every
p in X, [A_p, sum_{q in X} A_q] = 0 as a polynomial identity in the weights.
No point is sampled and no size is exempt.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from ._sampling import RatSampler
from .arrangement import (
    AffineChart,
    AffineForm,
    Arrangement,
    ProjForm,
    bad_loci,
    discriminant,
    format_linear,
)
from .errors import (
    ArrgmError,
    ConnectionFitError,
    InconsistentSystemError,
    SampleRejectedError,
)
from .exactnum import (
    WeightExpr,
    WeightPoly,
    affine_fit_batch,
    determinant,
    matrix_rank,
    solve_linear,
)
from .aomoto import (
    ClassReducer,
    FiberContext,
    RatForm,
    Weights,
    reduce_rational_form,
    validate_weights,
)
from .osalg import ExtElem

QQ0 = Fraction(0)
QQ1 = Fraction(1)

DEFAULT_SEED = 987654321


# ---------------------------------------------------------------------------
# family and connection containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MovingFamily:
    """Fixed arrangement plus the moving hyperplane x_s = 1 + sum l_i x_i.

    ``weights`` carries numeric residues when the caller wants a numeric
    connection; None selects the symbolic pipeline (weights are sampled and
    entries lifted to affine-linear expressions).
    """

    base: Arrangement
    weights: Weights | None = None
    seed: int = DEFAULT_SEED

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

    def component_forms(self) -> list[ProjForm]:
        return [c.form for c in self.components]

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
# raw parameter derivatives
# ---------------------------------------------------------------------------

def raw_derivative(family: MovingFamily, basis: Sequence[int], k: int) -> RatForm:
    """dl_k coefficient of the connection image of e_J: a_h (x_k / x_s) e_J.

    Expanded over the coordinate volume form, e_J contributes the constant
    Jacobian factor of its forms in the family's affine chart, so the result
    is the rational form (x_k * det_J) / (prod_{j in J} f_j * x_s)
    dx_1..dx_n tagged with the symbolic factor ``ah``.
    """
    n = family.n
    if not 1 <= k <= n:
        raise ValueError(f"parameter index {k} out of range 1..{n}")
    J = tuple(sorted(basis))
    chart = AffineChart.of(family.base)
    det = determinant([list(chart.affine(family.base.hyperplanes[j]).lin) for j in J])
    if det == 0:
        raise ArrgmError(f"basis tuple {J} has dependent affine forms")
    numerator = WeightPoly.make({((f"x{k}", 1),): det})
    return RatForm.make(numerator, list(J) + [family.moving_index], n, weight_factor="ah")


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

def sample_parameter_points(
    n: int,
    affine_components: Sequence[AffineForm],
    count: int,
    sampler: RatSampler,
) -> list[tuple[Fraction, ...]]:
    """``count`` distinct rational points of C^n off every given affine component."""
    points: list[tuple[Fraction, ...]] = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 200 * count:
            raise SampleRejectedError("could not sample enough off-discriminant points")
        candidate = tuple(sampler.rational(24, 7) for _ in range(n))
        if candidate in points:
            continue
        if any(f.evaluate(candidate) == 0 for f in affine_components):
            continue
        points.append(candidate)
    return points


def _sample_weight_settings(family: MovingFamily, flats) -> list[Weights]:
    """m+3 affinely independent generic weight settings (deterministic).

    Base point plus one perturbation per symbol plus a diagonal perturbation;
    every setting must pass the genericity checks.
    """
    finite = family.base.finite_indices
    m = len(finite)

    def candidate_base(shift: int) -> Weights:
        values = {}
        for pos, idx in enumerate(finite):
            values[idx] = Fraction(2 * pos + 3, 2 * m + 5) + Fraction(shift, 97)
        ah = Fraction(1, 2) + Fraction(shift, 101)
        return Weights.make(values, ah)

    def is_generic(w: Weights) -> bool:
        report = validate_weights(family.base, w, bad_flats=flats)
        return report.ok and w.ah != 0

    base = None
    for shift in range(60):
        cand = candidate_base(shift)
        if is_generic(cand):
            base = cand
            break
    if base is None:
        raise SampleRejectedError("no generic base weight setting found")

    settings = [base]
    symbols: list = finite + ["ah"]
    for delta_scale in range(1, 40):
        delta = Fraction(1, 89 + 2 * delta_scale)
        trial: list[Weights] = []
        ok = True
        for sym in symbols:
            values = base.a_dict
            ah = base.ah
            if sym == "ah":
                ah = ah + delta
            else:
                values = dict(values)
                values[sym] = values[sym] + delta
            w = Weights.make(values, ah)
            if not is_generic(w):
                ok = False
                break
            trial.append(w)
        if ok:
            diag = Weights.make(
                {i: v + delta for i, v in base.a_dict.items()}, base.ah + delta
            )
            if is_generic(diag):
                settings.extend(trial)
                settings.append(diag)
                break
    if len(settings) != m + 3:
        raise SampleRejectedError("could not build affinely independent weight settings")
    return settings


# ---------------------------------------------------------------------------
# the connection matrix
# ---------------------------------------------------------------------------

def gm_matrix(family: MovingFamily) -> GMConnection:
    """Compute the full connection matrix with exact residues.

    Pipeline: reduce every raw derivative at enough parameter samples, fit
    each matrix entry as sum_p r_p dlog f_p over the affine discriminant
    components (verifying the fit exactly at two held-out samples), lift the
    residues to affine-linear weight expressions, and append the derived h0
    component.
    """
    base = family.base
    n = base.n
    chart = AffineChart.of(base)
    components = discriminant(base)
    h0 = chart.projective(AffineForm.make(1, [0] * n))
    affine_all = [(form, chart.affine(form)) for form in components]
    visible = [(form, aff) for form, aff in affine_all if any(c != 0 for c in aff.lin)]
    flats = bad_loci(base)

    if family.weights is not None:
        if family.weights.ah is None:
            raise ArrgmError("numeric weights of a moving family need the moving weight ah")
        report = validate_weights(base, family.weights, bad_flats=flats)
        if not report.ok:
            raise ArrgmError(
                "weights fail genericity: " + "; ".join(report.violations)
            )
        weight_settings = [family.weights]
    else:
        weight_settings = _sample_weight_settings(family, flats)

    nfit = len(visible) + 2
    nheld = 2
    sampler = RatSampler(family.seed)

    # Evaluate the coordinate functions of every raw derivative at parameter
    # samples; retry with fresh points when a sample hits a degenerate locus
    # or the fit matrix of dlog values is rank deficient.
    fiber = None
    max_rounds = 8
    for attempt in range(max_rounds):
        try:
            points = sample_parameter_points(
                n, [aff for _, aff in visible], nfit + nheld, sampler
            )
            if fiber is None:
                # Every sample is off the discriminant, so one fiber serves
                # the samples of every round (FiberContext.at).
                fiber = FiberContext(base, points[0])
                basis = fiber.fixed_nbc()
                if not basis:
                    raise ArrgmError("fixed arrangement has no nbc bases in top degree")
                # ah is applied after the class reduction
                raw_forms = [
                    replace(raw_derivative(family, J, k), weight_factor=None)
                    for J in basis
                    for k in range(1, n + 1)
                ]
            dlog_rows = _dlog_rows(visible, points)
            if matrix_rank(dlog_rows[: nfit * n]) < len(visible):
                raise SampleRejectedError("dlog sample matrix is rank deficient")
            coords = _evaluate_samples(fiber, raw_forms, points, weight_settings)
            break
        except SampleRejectedError:
            if attempt == max_rounds - 1:
                raise

    nbasis = len(basis)
    residues_by_setting = _fit_residues(dlog_rows, nfit * n, coords, nbasis, n)

    symbol_order = tuple(base.finite_indices)
    if family.weights is not None:
        lifted = _constant_lift(residues_by_setting[0])
    else:
        lifted = _affine_lift(
            residues_by_setting, weight_settings, symbol_order, len(visible), nbasis
        )

    comp_list: list[GMComponent] = []
    for pidx, (form, _aff) in enumerate(visible):
        matrix = tuple(
            tuple(lifted[(i, j)][pidx] for j in range(nbasis)) for i in range(nbasis)
        )
        comp_list.append(GMComponent(form, matrix))
    # A component invisible in the affine chart has no linear part, which
    # forces it to be proportional to h0 itself; nothing else to add here.
    assert all(form == h0 for form, aff in affine_all if not any(c != 0 for c in aff.lin))
    comp_list.sort(key=lambda c: c.form.coeffs)
    h0_matrix = []
    for i in range(nbasis):
        row = []
        for j in range(nbasis):
            total = WeightExpr.constant(0)
            for comp in comp_list:
                total = total - comp.residue[i][j]
            row.append(total)
        h0_matrix.append(tuple(row))
    comp_list.append(GMComponent(h0, tuple(h0_matrix)))
    return GMConnection(tuple(basis), tuple(comp_list), symbol_order)


def _evaluate_samples(
    fiber: FiberContext,
    raw_forms: list[RatForm],
    points: list[tuple[Fraction, ...]],
    weight_settings: list[Weights],
) -> list[list[list[list[Fraction]]]]:
    """coords[w][sample][flat(J,k)] = coordinate vector over the fixed basis.

    ``raw_forms`` lists the raw derivatives without their factor ah, in
    flat (J, k) order.  Their partial-fraction reduction is weight
    independent and done once per point, in the fiber derived there from
    ``fiber``; one class reduction per weight setting then takes the reduced
    forms of every point at once.
    """
    reduced: list[ExtElem] = []
    for point in points:
        at_point = fiber.at(point)
        reduced.extend(reduce_rational_form(form, at_point) for form in raw_forms)
    per_point = len(raw_forms)
    coords = []
    for weights in weight_settings:
        vectors = ClassReducer(fiber, weights).reduce_batch(reduced)
        scaled = [[weights.ah * c for c in vec] for vec in vectors]
        coords.append(
            [scaled[s * per_point : (s + 1) * per_point] for s in range(len(points))]
        )
    return coords


def _dlog_rows(
    visible: list[tuple[ProjForm, AffineForm]],
    points: list[tuple[Fraction, ...]],
) -> list[list[Fraction]]:
    """Row s*n + k holds the dl_{k+1} coefficients of dlog f_p at sample s."""
    rows = []
    for point in points:
        values = [aff.evaluate(point) for _, aff in visible]
        for k in range(len(point)):
            rows.append([aff.lin[k] / v for (_, aff), v in zip(visible, values)])
    return rows


def _fit_residues(
    dlog_rows: list[list[Fraction]],
    nfit_rows: int,
    coords: list[list[list[list[Fraction]]]],
    nbasis: int,
    n: int,
) -> list[dict[tuple[int, int], list[Fraction]]]:
    """Fit entry (i, j) of every weight setting as sum_p r_p dlog f_p.

    ``coords[w][sample][j * n + (k-1)][i]`` is the dl_k coordinate of the
    image of basis element j on basis element i at weight setting w.  Every
    entry shares the dlog rows, so the first ``nfit_rows`` rows fit all of
    them in one exact solve; each fitted entry is then verified exactly on
    the remaining (held-out) rows.
    """
    keys = [
        (w, i, j) for w in range(len(coords)) for j in range(nbasis) for i in range(nbasis)
    ]
    columns = [
        [coords[w][r // n][j * n + r % n][i] for r in range(len(dlog_rows))]
        for w, i, j in keys
    ]
    try:
        solution = solve_linear(
            dlog_rows[:nfit_rows], [column[:nfit_rows] for column in columns]
        )
    except InconsistentSystemError as exc:
        raise ConnectionFitError() from exc
    assert solution.rank == len(dlog_rows[0])  # guaranteed by the presample rank check
    held_out = dlog_rows[nfit_rows:]
    out: list[dict[tuple[int, int], list[Fraction]]] = [{} for _ in coords]
    for (w, i, j), r, column in zip(keys, solution.solutions, columns):
        for row, value in zip(held_out, column[nfit_rows:]):
            if sum((rp * dp for rp, dp in zip(r, row)), QQ0) != value:
                raise ConnectionFitError()
        out[w][(i, j)] = r
    return out


def _affine_lift(
    residues_by_setting: list[dict[tuple[int, int], list[Fraction]]],
    weight_settings: list[Weights],
    symbol_order: tuple[int, ...],
    nvis: int,
    nbasis: int,
) -> dict[tuple[int, int], list[WeightExpr]]:
    """Lift every residue entry (i, j, p) to an affine-linear weight expression.

    All entries are sampled at the same weight settings, so one exact solve
    fits them all (``affine_fit_batch``).
    """
    assignments = [w.symbol_assignment(symbol_order) for w in weight_settings]
    keys = [(i, j) for i in range(nbasis) for j in range(nbasis)]
    columns = [
        [residues[key][p] for residues in residues_by_setting]
        for key in keys
        for p in range(nvis)
    ]
    fitted = affine_fit_batch(assignments, columns)
    return {key: fitted[idx * nvis : (idx + 1) * nvis] for idx, key in enumerate(keys)}


def _constant_lift(
    residues: dict[tuple[int, int], list[Fraction]],
) -> dict[tuple[int, int], list[WeightExpr]]:
    return {
        key: [WeightExpr.constant(v) for v in vec] for key, vec in residues.items()
    }


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
    Each commutator entry is checked as a polynomial identity in the weight
    symbols.  ``base`` supplies n for the h-names in the witness.
    """
    comps = connection.components
    residues = [[[e.to_poly() for e in row] for row in c.residue] for c in comps]
    size = connection.size
    names = [f"h{i}" for i in range(base.n + 1)]
    for flat in _codim2_flats([c.form for c in comps]):
        total = [
            [sum((residues[q][r][c] for q in flat), WeightPoly.zero()) for c in range(size)]
            for r in range(size)
        ]
        # the commutators with S_X sum to [S_X, S_X] = 0, so the last is implied
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


def _codim2_flats(forms: Sequence[ProjForm]) -> list[tuple[int, ...]]:
    """Rank-2 flats of the central arrangement of ``forms``, as index tuples.

    Each flat is the closure of a pair of (pairwise independent) forms: the
    indices of every form in their span.
    """
    flats: list[tuple[int, ...]] = []
    covered: set[tuple[int, int]] = set()
    for pair in itertools.combinations(range(len(forms)), 2):
        if pair in covered:
            continue
        rows = [forms[i].coeffs for i in pair]
        flat = tuple(
            r
            for r in range(len(forms))
            if r in pair or matrix_rank(rows + [forms[r].coeffs]) == 2
        )
        flats.append(flat)
        covered.update(itertools.combinations(flat, 2))
    return flats


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
