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
with a0 eliminated.  The image of e_J is linear in eta_{J,P}, so with
{J_r} a basis of the span of the local lifts of a component, found by one
exact elimination, A_X e_J = sum_r c_{J,r} A_X e_{J_r} with c free of the
weights: sum_X rank A_X basis columns carry every residue.  ``gm_matrix``
builds once per call the fiber, the c and the basis columns' pieces
d(e_i ^ eta_{J,P}), skipped where every monomial of eta_{J,P} contains i;
their nbc coordinates and the class solve's wedge-with-omega terms are read
from one table of normal forms per monomial.  With the weights as
indeterminates the image of a basis column is sum_k a_k g_k, and one class
solve with a weight-free xi (``aomoto.ClassReducer``) gives every A_X^(k)
of the basis columns at once; its consistency certifies that they are
linear in the weights.  At numeric weights the same solve has one block,
weighed by the weights times their common denominator D.  Every column is
expanded from the basis columns.  Stencils, images, classes and expansions
stay integers wherever their values are (on every symbolic input tried);
equal output entries are one ``WeightExpr``, its ``Fraction``s divided by D.

``flatness_check`` verifies integrability exactly and completely by Kohno's
codimension-2 criterion: for every rank-2 flat X of the components and every
p in X, [A_p, sum_{q in X} A_q] = 0 as a polynomial identity in the weights,
checked on exact factors delta A_p = B E of every residue but h0's, E
constant with rank A_p rows; only a commutator they leave uncertified is
expanded, one pair of coefficient matrices at a time.  No point is sampled
and no size is exempt.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arrangement import (
    AffineChart,
    AffineForm,
    Arrangement,
    ProjForm,
    bad_loci,
    discriminant,
    format_linear,
)
from .errors import ArrgmError, ResonantWeightsError
from .exactnum import (
    CoeffMatrix, Rat, WeightExpr, exact_quotient, first_nonzero_quadratic, integer_coefficients,
    primitive, solve_linear,
)
from .aomoto import ClassReducer, FiberContext, Weights, validate_weights
from .matroid import MatroidContext
from .osalg import wedge_monomials


# ---------------------------------------------------------------------------
# family and connection containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MovingFamily:
    """Fixed arrangement plus the moving hyperplane x_s = 1 + sum l_i x_i.

    ``weights`` carries numeric residues when the caller wants a numeric
    connection; None selects the symbolic pipeline (the weights are
    indeterminates, and residues are linear expressions in them).
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
        """The basis and every component's form and residue entries.

        Each ``WeightExpr`` object is rendered once per call, memoized by
        identity; equal entries of a ``gm_matrix`` connection are one object
        and share one dict, so editing one edits every equal entry with it.
        """
        exprs = {id(e): e for comp in self.components for row in comp.residue for e in row}
        rendered = {key: e.to_json() for key, e in exprs.items()}
        return {
            "basis": [list(b) for b in self.basis],
            "components": [
                {
                    "form": comp.form.to_json(),
                    "residue": [[rendered[id(e)] for e in row] for row in comp.residue],
                }
                for comp in self.components
            ],
        }


# ---------------------------------------------------------------------------
# generic fiber, by construction
# ---------------------------------------------------------------------------

def generic_fiber(base: Arrangement) -> tuple[FiberContext, list[ProjForm]]:
    """The discriminant components and the fiber at the first point
    (t, t^2, ..., t^n), t = 1, 2, ..., off all of them.

    A component with a nonzero linear part is, along this curve, a nonzero
    polynomial of degree at most n in t, and one without (h0) is a nonzero
    constant in the chart; so the first t <= n * len(components) + 1 that
    is a root of none of them is found without any retry.  Each test is in
    integers: the moving hyperplane's coefficients h, 1 at the chart's
    coordinate, against the component's form.  The chart is checked before
    the discriminant is computed.  One ``MatroidContext`` of the base gives
    the discriminant and is then extended to the fiber's.
    """
    chart = AffineChart.of(base)
    matroid = MatroidContext(base)
    components = discriminant(base, matroid)
    for t in itertools.count(1):
        point = [t**k for k in range(1, base.n + 1)]
        h = [*point[: chart.drop], 1, *point[chart.drop :]]
        if all(form.evaluate(h) for form in components):
            return FiberContext(base, point, matroid), components


# ---------------------------------------------------------------------------
# the connection matrix
# ---------------------------------------------------------------------------

def gm_matrix(family: MovingFamily) -> GMConnection:
    """Compute the full connection matrix with exact residues.

    One fiber off the discriminant (``generic_fiber``) and the stencils of
    ``_residue_stencils`` are built once; each stencil is evaluated once per
    weight block of the class solve (one per symbol, or one at numeric
    weights), one ``reduce_batch`` call reduces them all, and ``_assemble``
    expands the lifted columns, divides by the reducer's denominator and
    appends the derived h0 component.
    """
    base = family.base
    chart = AffineChart.of(base)
    if family.weights is not None and family.weights.ah is None:
        raise ArrgmError("numeric weights of a moving family need the moving weight ah")
    # The class reduction holds in every fiber off the discriminant.
    fiber, components = generic_fiber(base)
    if family.weights is not None:
        report = validate_weights(base, family.weights, bad_loci(base, fiber.matroid))
        if not report.ok:
            raise ResonantWeightsError(
                "weights fail the genericity conditions: " + "; ".join(report.violations)
            )
    basis = fiber.fixed_nbc()
    if not basis:
        raise ArrgmError("fixed arrangement has no nbc bases in top degree")
    h0 = chart.projective(AffineForm.make(1, [0] * base.n))
    forms = [form for form in components if any(chart.affine(form).lin)]
    # A component without a linear part is proportional to h0 itself.
    assert all(form in forms or form == h0 for form in components)
    expansions, stencils = _residue_stencils(fiber, forms)
    reducer = ClassReducer(fiber, family.weights)
    images = []
    for stencil in stencils:
        blocks = {}
        for symbol, a in reducer.blocks:
            image = blocks[symbol] = [0] * len(fiber.nbc(base.n))
            for t, i, c in stencil:
                if i in a:
                    image[t] += c * a[i]
        images.append(blocks)
    lifted = reducer.reduce_batch(images)
    return _assemble(family, basis, forms, h0, lifted, expansions, reducer.denominator)


def _assemble(
    family: MovingFamily,
    basis: Sequence[tuple[int, ...]],
    forms: Sequence[ProjForm],
    h0: ProjForm,
    lifted: list[dict[int, dict[str, Rat | int]]],
    expansions: list[list[list[tuple[int, Rat | int]]]],
    denominator: int = 1,
) -> GMConnection:
    """The connection from lifted columns and the expansions of ``forms``.

    ``lifted[k]`` holds ``denominator`` times column k as sparse entries
    {row: {symbol: coefficient}}, symbol "1" at numeric weights, and
    ``expansions[p]`` gives the residue along ``forms[p]`` from them
    (``_weight_matrices``).  Components are put in canonical form order,
    and the h0 residue, minus the sum of the others, goes last.
    """
    nbasis = len(basis)
    h0_expansion = [[(k, -c) for e in expansions for k, c in e[j]] for j in range(nbasis)]
    *matrices, last = _weight_matrices(lifted, [*expansions, h0_expansion], nbasis, denominator)
    comps = sorted(map(GMComponent, forms, matrices), key=lambda c: c.form.coeffs)
    comps.append(GMComponent(h0, last))
    return GMConnection(tuple(basis), tuple(comps), tuple(family.base.finite_indices))


def _residue_stencils(
    fiber: FiberContext, forms: Sequence[ProjForm]
) -> tuple[list[list[list[tuple[int, Rat | int]]]], list[list[tuple[int, int, Rat | int]]]]:
    """Per form, the expansion of its residue columns; per basis column, its stencil.

    S_X holds the base hyperplanes through the component's point P, each
    found by an integer dot product, infinity included, and the moving one;
    with a_inf = a0 and d(e_i ^ x) = x - e_i ^ d x,

        A_X e_J = [lambda_X eta_{J,P} - omega_X ^ d eta_{J,P}]
                = sum_{i in S_X} a_i [d(e_i ^ eta_{J,P})],

    and B = A_X satisfies B^2 = lambda_X B, as d omega_X = lambda_X and
    d^2 = 0.  One exact elimination over the nonzero local lifts gives
    eta_{J,P} = sum_r c_{J,r} eta_{J_r,P}, J_r its pivot columns and
    c_{J,r} = -y_r / d from its integral kernel (d, y = d v).  The expansion
    of (form, J) lists the pairs (k, c_{J,r}), k the index of J_r among the
    basis columns of all forms, and the stencil of a basis column the
    triples (t, i, c), c the coordinate on ``fiber.nbc(n)[t]``
    (``fiber.coordinates``) of its piece at i, without the monomials
    through infinity, which vanish in the fiber's chart.  A monomial that
    contains i adds nothing to the piece at i, which is zero at each of the
    n hyperplanes of a normal-crossing point.
    """
    base, inf = fiber.base, fiber.base.infinity_index
    lifts = [dict(_boundary_of_wedge(inf, J)) for J in fiber.fixed_nbc()]
    expansions, stencils = [], []
    for form in forms:
        through = [i for i, plane in enumerate(base.hyperplanes) if not plane.evaluate(form.coeffs)]
        support = {fiber.moving_index, *through}
        local = [{t: c for t, c in eta.items() if support.issuperset(t)} for eta in lifts]
        live = [j for j, eta in enumerate(local) if eta]
        monomials = sorted(set().union(*local))
        solution = solve_linear([[local[j].get(t, 0) for j in live] for t in monomials])
        pivots, (d, kernel) = solution.pivot_cols, solution.scaled_kernel
        free, k = iter(kernel), len(stencils)
        expansion: list[list[tuple[int, Rat | int]]] = [[] for _ in lifts]
        for col, j in enumerate(live):
            # local_j = -sum_r (y[J_r] / d) local_{J_r}, y = d v (v in the kernel) or -d e_col
            y = [-d * (c == col) for c in range(len(live))] if col in pivots else next(free)
            expansion[j] = [(k + r, exact_quotient(-y[c], d)) for r, c in enumerate(pivots) if y[c]]
        expansions.append(expansion)
        for j in [live[col] for col in pivots]:
            stencil = []
            for i in sorted(support):
                coords: dict[int, int] = {}
                for t, c in local[j].items():
                    for m, sign in _boundary_of_wedge(i, t):
                        if inf not in m:
                            for r, v in fiber.coordinates(m):
                                coords[r] = coords.get(r, 0) + sign * c * v
                stencil += [(t, i, c) for t, c in sorted(coords.items()) if c]
            stencils.append(stencil)
    return expansions, stencils


def _boundary_of_wedge(i: int, t: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The terms (monomial, sign) of d(e_i ^ e_t); none when i is in t."""
    sign, m = wedge_monomials((i,), t) or (0, ())
    return [(m[:j] + m[j + 1 :], sign * (-1) ** j) for j in range(len(m))]


def _weight_matrices(
    lifted: Sequence[dict], expansions: Sequence[list], size: int, denominator: int = 1
) -> list[tuple[tuple[WeightExpr, ...], ...]]:
    """Per expansion, the ``WeightExpr`` matrix whose column j is the sum of
    c times lifted column k over the pairs (k, c) of ``expansion[j]``, each
    coefficient divided by ``denominator`` ("1" is the constant part).
    Equal entries of all the matrices are one object, interned by their
    nonzero (symbol, coefficient) pairs: each makes its ``Fraction``s once."""
    interned: dict[tuple, WeightExpr] = {}

    def intern(coeffs: dict[str, Rat | int]) -> WeightExpr:
        key = tuple(sorted((s, c) for s, c in coeffs.items() if c))
        if key not in interned:
            terms = tuple((s, Fraction(c, denominator)) for s, c in key if s != "1")
            interned[key] = WeightExpr(Fraction(coeffs.get("1", 0), denominator), terms)
        return interned[key]

    out = []
    for expansion in expansions:
        rows = [[intern({})] * size for _ in range(size)]
        for j, terms in enumerate(expansion):
            column: dict[int, dict[str, Rat | int]] = {}
            for k, c in terms:
                for i, coeffs in lifted[k].items():
                    target = column.setdefault(i, {})
                    for s, v in coeffs.items():
                        target[s] = target.get(s, 0) + c * v
            for i, coeffs in column.items():
                rows[i][j] = intern(coeffs)
        out.append(tuple(tuple(row) for row in rows))
    return out


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

    Every residue but the last, h0, is factored as delta A = B E with E
    constant (``_factors``).  A flat of two of them commutes when E_p B_q
    and E_q B_p vanish identically.  On any other flat the commutators with
    S_X sum to [S_X, S_X] = 0, so the last member's (h0's, if in X) is
    implied, and every other one is tested on its factors
    (``_commutes_with``); a member left uncertified takes the full check.
    """
    comps = connection.components
    residues = integer_coefficients([c.residue for c in comps])
    factors = [_factors(r) for r in residues[:-1]]
    size = connection.size
    names = [f"h{i}" for i in range(base.n + 1)]
    for flat in _codim2_flats([c.form for c in comps]):
        p, q = flat[0], flat[-1]
        if len(flat) == 2 and q < len(factors) and _pair_commutes(factors[p], factors[q]):
            continue
        total: CoeffMatrix = {}
        for q in flat:
            for s, rows in residues[q].items():
                for acc, row in zip(total.setdefault(s, [{} for _ in rows]), rows):
                    for j, v in row.items():
                        acc[j] = acc.get(j, 0) + v
        for p in flat[:-1]:
            if _commutes_with(factors[p], total):
                continue
            products = [(1, residues[p], total), (-1, total, residues[p])]
            if (entry := first_nonzero_quadratic(products, size)) is not None:
                forms = ", ".join(format_linear(comps[q].form.coeffs, names) for q in flat)
                return FlatnessReport(
                    False,
                    witness=f"flat {{{forms}}}: [A_p, S_X][{entry[0]}][{entry[1]}] != 0 "
                    f"for p = {format_linear(comps[p].form.coeffs, names)}",
                )
    return FlatnessReport(True)


# (delta, pivots P, rows of E {column: value}, {symbol k: columns of B^(k), {row: value}})
_Factors = tuple[int, list[int], list[dict[int, int]], dict[str, list[dict[int, int]]]]


def _factors(residue: CoeffMatrix) -> _Factors:
    """delta A^(k) = B^(k) E for every k, A = sum_k a_k A^(k), with E constant.

    Each nonzero row of each A^(k) is reduced against the rows of E kept so
    far (``_reduce``); one that survives is kept, its first column its
    pivot, cleared from the others.  Row l of E is delta at its pivot P_l
    and 0 at the other pivots, so delta v = sum_l v[P_l] E_l for every row
    v, and B^(k) is the columns P of A^(k).  delta is the determinant of the
    kept rows at P and E delta times their reduced echelon form (Bareiss),
    so every division is exact.  At rank one this is the proportionality
    test: E = c^T is the first nonzero row and delta = c_j its first entry.
    """
    delta, pivots, rows = 1, [], []
    for row in itertools.chain(*residue.values()):
        # with no row kept yet, delta = 1 and the row is kept as it is
        if row and (w := _reduce(row, delta, pivots, rows) if rows else row):
            j = min(w)
            # E_l becomes (w_j E_l - E_l[j] w) / delta
            rows = [{t: v // delta for t, v in _reduce(e, w[j], [j], [w]).items()} for e in rows]
            rows.append(w)
            delta = w[j]
            pivots.append(j)
    b = {s: [{r: v for r, row in enumerate(a) if (v := row.get(j))} for j in pivots]
         for s, a in residue.items()}
    return delta, pivots, rows, b


def _reduce(row: dict[int, int], delta: int, pivots: list[int], rows: list) -> dict[int, int]:
    """delta row - sum_l row[P_l] E_l without zeros: empty iff ``row`` is in the span of E."""
    out = {t: delta * v for t, v in row.items()}
    for p, e in zip(pivots, rows):
        if x := row.get(p):
            for t, v in e.items():
                out[t] = out.get(t, 0) - x * v
    return {t: v for t, v in out.items() if v} if any(out.values()) else {}


def _pair_commutes(p: _Factors, q: _Factors) -> bool:
    """True when E_p B_q and E_q B_p vanish identically, so that
    delta_p delta_q A_p A_q = B_p (E_p B_q) E_q and its mirror are 0 and
    [A_p, A_q] = 0; False means undecided."""
    return not any(
        sum(v * column.get(t, 0) for t, v in e.items())
        for (_, _, rows, _), (*_, b) in ((p, q), (q, p))
        for e in rows for columns in b.values() for column in columns
    )


def _commutes_with(factors: _Factors, total: CoeffMatrix) -> bool:
    """Whether A = B E / delta commutes with S, as a polynomial identity.

    If E S = Lambda E and S B = B Lambda for one r x r Lambda linear in the
    weights, delta [A, S] = B (E S) - (S B) E = 0; when B has full column
    rank the converse holds with Lambda = (E S)_P / delta, the columns P of
    E S.  Both are checked per symbol and symbol pair on L = delta Lambda in
    integers: each row of E S^(k) reduces to zero against E (``_reduce``),
    and delta S^(k) B^(l) - B^(l) L^(k) plus its mirror vanishes.
    """
    delta, pivots, rows, b = factors
    lam = {k: [] for k in total}  # symbol k -> L^(k) by rows, L^(k)[l][m] = (E_l S^(k))[P_m]
    for k, s_rows in total.items():
        for e in rows:
            u: dict[int, int] = {}
            for t, et in e.items():
                for col, v in s_rows[t].items():
                    u[col] = u.get(col, 0) + et * v
            if _reduce(u, delta, pivots, rows):
                return False
            lam[k].append([u.get(p, 0) for p in pivots])
    # column m of the coefficient of a_k a_l in delta S B - B L, from S^(k) B^(l) and S^(l) B^(k)
    acc: dict[tuple[str, str, int], dict[int, int]] = {}
    support = set().union(*(column for columns in b.values() for column in columns))
    for k, s_rows in total.items():
        columns: dict[int, list[tuple[int, int]]] = {t: [] for t in support}
        for r, row in enumerate(s_rows):
            for t, v in row.items():
                if t in support:
                    columns[t].append((r, delta * v))
        for l, bl in b.items():
            for m, bm in enumerate(bl):
                target = acc.setdefault((k, l, m) if k <= l else (l, k, m), {})
                for column, lam_row in zip(bl, lam[k]):
                    if x := lam_row[m]:
                        for r, v in column.items():
                            target[r] = target.get(r, 0) - x * v
                for t, bt in bm.items():
                    for r, v in columns[t]:
                        target[r] = target.get(r, 0) + v * bt
    return not any(v for target in acc.values() for v in target.values())


def _codim2_flats(forms: Sequence[ProjForm]) -> list[tuple[int, ...]]:
    """Rank-2 flats of the central arrangement of ``forms``, as sorted index
    tuples in lexicographic order.

    The forms are pairwise independent, so the flats through form p are
    the classes of the other forms modulo p: with k the first nonzero
    coordinate of f_p, the integer map v -> f_p[k] v - v[k] f_p has kernel
    the line of f_p, and two forms lie in one flat with p exactly when
    their images are proportional, that is when the images agree once
    made primitive.  Each flat is kept from its least member.
    """
    flats = []
    for p, fp in enumerate(forms):
        coeffs = fp.coeffs
        k = next(i for i, x in enumerate(coeffs) if x)
        classes: dict[tuple[int, ...], list[int]] = {}
        for q, fq in enumerate(forms):
            if q != p:
                image = [coeffs[k] * x - fq.coeffs[k] * y for x, y in zip(fq.coeffs, coeffs)]
                classes.setdefault(tuple(primitive(image)), []).append(q)
        flats += [(p, *members) for members in classes.values() if members[0] > p]
    return sorted(flats)
