"""Reference derivation of the connection by parameter sampling (test-only oracle).

This is the paper's derive-and-reduce route to the residues, kept to check
the closed form of ``gaussmanin.gm_matrix`` against an independent
computation.  Differentiating a basis class e_J against the parameter l_k
produces the coefficient a_h (x_k / x_s) e_J; ``raw_derivative`` returns the
form without a_h.  At each rational parameter sample the raw derivatives are
reduced to dlog forms by partial fractions in the fiber there
(``reference_partialfrac.reduce_rational_form``), and their
classes over the nbc basis are taken at every weight setting of
``reference_full``.  The sampled coordinate functions are fitted as
sum_p r_p dlog f_p over the affine discriminant components by one exact
solve, and each fitted entry is verified exactly on held-out samples.  The
lift to the weights is ``reference_full``'s difference quotients, and the
h0 component is the library's.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from arrgm.arrangement import AffineChart, AffineForm, ProjForm, discriminant
from arrgm.aomoto import FiberContext, Weights
from arrgm.errors import ArrgmError, InconsistentSystemError, SampleRejectedError
from arrgm.exactnum import determinant, matrix_rank, solve_linear
from arrgm.gaussmanin import GMConnection, MovingFamily, _assemble

from _sampling import RatSampler
from reference_full import _lift, _weight_settings, identity_expansions, reduce_at
from reference_partialfrac import FiberChart, RatForm, WeightPoly, reduce_rational_form

QQ0 = Fraction(0)
SEED = 987654321  # any seed gives the same connection


class ConnectionFitError(ArrgmError):
    """Sampled connection entries are not logarithmic along the declared components."""

    def __init__(self) -> None:
        super().__init__("connection not logarithmic along declared discriminant")


def raw_derivative(family: MovingFamily, basis: Sequence[int], k: int) -> RatForm:
    """dl_k coefficient of the connection image of e_J over a_h: (x_k / x_s) e_J.

    Expanded over the coordinate volume form, e_J contributes the constant
    Jacobian factor of its forms in the family's affine chart, so the result
    is the rational form (x_k * det_J) / (prod_{j in J} f_j * x_s)
    dx_1..dx_n.  The symbolic factor a_h is left out: it is applied after
    the class reduction.
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
    return RatForm.make(numerator, list(J) + [family.moving_index])


def sampled_gm_matrix(family: MovingFamily) -> GMConnection:
    """The connection of ``family`` derived from parameter samples.

    Fits with ceil(len(visible) / n) + 1 samples, n dlog rows each, and
    holds out 2; a round whose fitting rows do not have full rank is
    redrawn.  Weights, when given, are taken as generic.
    """
    base = family.base
    n = base.n
    chart = AffineChart.of(base)
    h0 = chart.projective(AffineForm.make(1, [0] * n))
    affine_all = [(form, chart.affine(form)) for form in discriminant(base)]
    visible = [(form, aff) for form, aff in affine_all if any(aff.lin)]
    if family.weights is not None:
        weight_settings = [family.weights]
    else:
        weight_settings = _weight_settings(base)
    nfit = -(-len(visible) // n) + 1
    sampler = RatSampler(SEED)
    for _ in range(8):
        points = sample_parameter_points(n, [aff for _, aff in visible], nfit + 2, sampler)
        dlog_rows = _dlog_rows(visible, points)
        if matrix_rank(dlog_rows[: nfit * n]) == len(visible):
            break
    else:
        raise SampleRejectedError("dlog sample matrix is rank deficient")
    fibers = [FiberContext(base, point) for point in points]
    basis = fibers[0].fixed_nbc()
    raw_forms = [raw_derivative(family, J, k) for J in basis for k in range(1, n + 1)]
    coords = _evaluate_samples(fibers, raw_forms, weight_settings)
    residues = _fit_residues(dlog_rows, nfit * n, coords, len(basis), n)
    forms = [form for form, _ in visible]
    # column j of the residue along forms[p], as the library's class reduction returns it
    columns = [
        [[r[(i, j)][p] for i in range(len(basis))] for p in range(len(forms)) for j in range(len(basis))]
        for r in residues
    ]
    expansions = identity_expansions(len(forms), len(basis))
    lifted = _lift(columns, weight_settings, tuple(base.finite_indices))
    return _assemble(family, basis, forms, h0, lifted, expansions)


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


def _evaluate_samples(
    fibers: list[FiberContext],
    raw_forms: list[RatForm],
    weight_settings: list[Weights],
) -> list[list[list[list[Fraction]]]]:
    """coords[w][sample][flat(J,k)] = coordinate vector over the fixed basis.

    ``raw_forms`` lists the raw derivatives without their factor ah, in
    flat (J, k) order.  Each is reduced by partial fractions in the fiber of
    every sample; the classes of the reduced forms depend only on the
    fiber's combinatorics, the same at every sample, so one class reduction
    per weight setting, built in the first fiber, takes them all.
    """
    charts = [FiberChart(fiber) for fiber in fibers]
    reduced = [reduce_rational_form(form, chart) for chart in charts for form in raw_forms]
    per_point = len(raw_forms)
    coords = []
    for weights in weight_settings:
        vectors = reduce_at(fibers[0], weights, reduced)
        scaled = [[weights.ah * c for c in vec] for vec in vectors]
        coords.append(
            [scaled[s * per_point : (s + 1) * per_point] for s in range(len(fibers))]
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
    assert solution.rank == len(dlog_rows[0])
    held_out = dlog_rows[nfit_rows:]
    out: list[dict[tuple[int, int], list[Fraction]]] = [{} for _ in coords]
    for (w, i, j), r, column in zip(keys, solution.solutions, columns):
        for row, value in zip(held_out, column[nfit_rows:]):
            if sum((rp * dp for rp, dp in zip(r, row)), QQ0) != value:
                raise ConnectionFitError()
        out[w][(i, j)] = r
    return out
