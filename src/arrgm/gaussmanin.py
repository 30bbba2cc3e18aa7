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

``gm_matrix`` does each piece of work at the level it depends on:

* once per call: the discriminant components in the affine chart, the
  weight settings, one fiber context at one parameter point off the
  discriminant, the Brieskorn parts eta_{J,P} and d eta_{J,P} of every
  (component, basis tuple) pair, and one exact solve lifting every residue
  entry to an affine-linear weight expression (verified exactly at every
  weight setting);
* once per weight setting: the residue images and one class-reduction
  solve taking all of them.

``flatness_check`` verifies integrability exactly and completely by Kohno's
codimension-2 criterion: for every rank-2 flat X of the components and every
p in X, [A_p, sum_{q in X} A_q] = 0 as a polynomial identity in the weights.
No point is sampled and no size is exempt.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
from .errors import ArrgmError, SampleRejectedError
from .exactnum import WeightExpr, WeightPoly, affine_fit_batch, matrix_rank
from .aomoto import ClassReducer, FiberContext, Weights, validate_weights
from .osalg import ExtElem, boundary, wedge

QQ0 = Fraction(0)

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

    Pipeline: draw one generic fiber, evaluate the closed-form residue of
    every affine discriminant component at each weight setting (one class
    reduction per setting, see ``_residue_images``), lift the residues to
    affine-linear weight expressions, and append the derived h0 component.
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

    # The class reduction holds in every fiber off the discriminant.
    (point,) = sample_parameter_points(
        n, [aff for _, aff in visible], 1, RatSampler(family.seed)
    )
    fiber = FiberContext(base, point)
    basis = fiber.fixed_nbc()
    if not basis:
        raise ArrgmError("fixed arrangement has no nbc bases in top degree")
    nbasis = len(basis)
    forms = [form for form, _ in visible]
    parts = _brieskorn_parts(base, forms, basis)
    residues_by_setting = []
    for weights in weight_settings:
        images = _residue_images(parts, base, fiber.moving_index, weights)
        vectors = ClassReducer(fiber, weights).reduce_batch(images)
        residues_by_setting.append({
            (i, j): [vectors[p * nbasis + j][i] for p in range(len(forms))]
            for i in range(nbasis)
            for j in range(nbasis)
        })

    # A component invisible in the affine chart has no linear part, which
    # forces it to be proportional to h0 itself; nothing else to add here.
    assert all(form == h0 for form, aff in affine_all if not any(c != 0 for c in aff.lin))
    return _assemble(family, basis, forms, h0, residues_by_setting, weight_settings)


def _assemble(
    family: MovingFamily,
    basis: Sequence[tuple[int, ...]],
    forms: Sequence[ProjForm],
    h0: ProjForm,
    residues_by_setting: list[dict[tuple[int, int], list[Fraction]]],
    weight_settings: list[Weights],
) -> GMConnection:
    """The connection from the residues of the affine components ``forms``.

    ``residues_by_setting[w][(i, j)][p]`` is entry (i, j) of the residue
    along ``forms[p]`` at ``weight_settings[w]``.  Entries are lifted to the
    weights (constants at numeric weights), components are put in canonical
    form order, and the h0 residue, minus the sum of the others, goes last.
    """
    nbasis = len(basis)
    symbol_order = tuple(family.base.finite_indices)
    if family.weights is not None:
        lifted = _constant_lift(residues_by_setting[0])
    else:
        lifted = _affine_lift(
            residues_by_setting, weight_settings, symbol_order, len(forms), nbasis
        )
    comp_list: list[GMComponent] = []
    for pidx, form in enumerate(forms):
        matrix = tuple(
            tuple(lifted[(i, j)][pidx] for j in range(nbasis)) for i in range(nbasis)
        )
        comp_list.append(GMComponent(form, matrix))
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


def _brieskorn_parts(
    base: Arrangement,
    forms: Sequence[ProjForm],
    basis: Sequence[tuple[int, ...]],
) -> list[tuple[frozenset[int], ExtElem, ExtElem]]:
    """Weight-independent data of every (component, basis tuple) pair.

    A component h . P = 0 is named by the point P of its coefficient
    vector; S holds the fixed hyperplanes through P, infinity included.
    For the basis tuple J, eta_J = d(e_inf ^ e_J) is the projective lift of
    e_J and eta_{J,P} its Brieskorn component at P, the terms whose indices
    all lie in S.  Returns (S, eta_{J,P}, d eta_{J,P}) in (form, J) order.
    """
    e_inf = ExtElem.monomial((base.infinity_index,))
    lifts = [boundary(wedge(e_inf, ExtElem.monomial(J))) for J in basis]
    parts = []
    for form in forms:
        through = frozenset(
            i for i, plane in enumerate(base.hyperplanes) if plane.evaluate(form.coeffs) == 0
        )
        for eta in lifts:
            local = ExtElem(tuple((t, c) for t, c in eta.terms if through.issuperset(t)))
            parts.append((through, local, boundary(local)))
    return parts


def _residue_images(
    parts: list[tuple[frozenset[int], ExtElem, ExtElem]],
    base: Arrangement,
    moving_index: int,
    weights: Weights,
) -> list[ExtElem]:
    """A_X e_J = [lambda_X eta_{J,P} - omega_X ^ d eta_{J,P}] for every part.

    With S_X = S u {h} (h the moving index), lambda_X = sum_{S_X} a_i and
    omega_X = sum_{S_X} a_i e_i, a_inf = a0 on infinity.  Monomials through
    infinity vanish in the fiber's chart and are dropped; the caller takes
    the class [.] over the fixed nbc basis.  Since d omega_X = lambda_X and
    d^2 = 0, B = A_X satisfies B^2 = lambda_X B: the Aomoto-complex form of
    the residue (Cohen-Orlik, "Gauss-Manin connections for arrangements").
    At the point P of h0 itself the same image, minus ah e_J, is the h0
    residue, which equals minus the sum of the others.
    """
    inf = base.infinity_index
    a = {**weights.a_dict, moving_index: weights.ah, inf: weights.a0}
    images = []
    for through, local, d_local in parts:
        support = through | {moving_index}
        lam = sum((a[i] for i in support), QQ0)
        omega = ExtElem.make({(i,): a[i] for i in support})
        image = local.scale(lam) - wedge(omega, d_local)
        images.append(ExtElem(tuple((t, c) for t, c in image.terms if inf not in t)))
    return images


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
