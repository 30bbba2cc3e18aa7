"""Weight validation, wedge maps, partial-fraction reduction, class reduction,
and the library as the pipeline."""

from __future__ import annotations

import ast
import itertools
from fractions import Fraction as F
from pathlib import Path

import pytest

import arrgm
from arrgm.arrangement import AffineChart, ProjForm, discriminant, validate
from arrgm.aomoto import ClassReducer, FiberContext, Weights, cohomology_dims, validate_weights
from arrgm.errors import NonlinearFitError, ResonantWeightsError
from arrgm.exactnum import matrix_rank, solve_linear
from arrgm.fixtures import ceva, example1
from arrgm.osalg import ExtElem, wedge

from _ladder import rung
from _sampling import RatSampler
from reference_full import reduce_at
from reference_partialfrac import (
    AffineCircuit,
    FiberChart,
    NotLogarithmicError,
    RatForm,
    WeightPoly,
    _poly_affine,
    log_comb_evaluate,
    reduce_rational_form,
)
from reference_sampled import sample_parameter_points
from reference_stencils import nbc_coordinates


def P(*coeffs):
    return ProjForm.make(list(coeffs))


def E(*indices, c=1):
    return ExtElem.monomial(indices, c)


def xpoly(**monomials):
    """Build a polynomial in x1..xn from {'x1': coeff} style keyword pairs."""
    return WeightPoly.make({((sym, 1),): c for sym, c in monomials.items()})


def top_coordinates(fiber: FiberContext, e: ExtElem) -> list:
    """The coordinates of ``e`` over the fiber's top nbc sets."""
    return nbc_coordinates(fiber.os, e, fiber.nbc(fiber.n))


def point_line() -> FiberContext:
    """n = 1 family: one fixed point x = 0 plus the moving point 1 + l x."""
    arr = validate([P(1, 0), P(0, 1)], 0)
    return FiberContext(arr, [F(3)])


class TestValidateWeights:
    def test_ceva_generic(self):
        w = Weights.make({i: F(1, 7) for i in range(1, 6)}, F(1, 7))
        report = validate_weights(ceva().arrangement, w)
        assert report.ok, report.violations

    def test_integer_weight_fails(self):
        w = Weights.make({1: 2, 2: F(1, 7), 3: F(1, 7), 4: F(1, 7), 5: F(1, 7)}, F(1, 7))
        report = validate_weights(ceva().arrangement, w)
        assert not report.ok
        assert any("a1" in v for v in report.violations)

    def test_bad_flat_sum_fails(self):
        w = Weights.make(
            {1: F(1, 3), 2: F(1, 3), 3: F(1, 7), 4: F(1, 7), 5: F(1, 3)}, F(1, 7)
        )
        report = validate_weights(ceva().arrangement, w)
        assert not report.ok
        assert any("{1, 2, 5}" in v for v in report.violations)

    def test_derived_a0(self):
        w = Weights.make({1: F(1, 7)}, None)
        assert w.a0 == F(-1, 7)
        w = Weights.make({1: F(1, 7), 2: F(2, 7)}, F(3, 7))
        assert w.a0 == F(-6, 7)


class TestWedgeOmegaMatrix:
    def test_single_point_degree_one(self):
        arr = validate([P(1, 0), P(0, 1)], 0)
        fiber = FiberContext(arr, None)
        matrix = fiber.wedge_omega_matrix(Weights.make({1: F(1, 3)}), 1)
        assert matrix == [[F(1, 3)]]

    def test_ceva_degree_one(self):
        fiber = FiberContext(ceva().arrangement, None)
        values = {i: F(i, 2 * i + 11) for i in range(1, 6)}
        matrix = fiber.wedge_omega_matrix(Weights.make(values), 1)
        assert len(matrix) == 5 and len(matrix[0]) == 1
        assert [row[0] for row in matrix] == [values[i] for i in range(1, 6)]

    def test_example1_fixed_rank(self):
        fiber = FiberContext(example1().arrangement, None)
        w = Weights.make({1: F(1, 3), 2: F(1, 7), 3: F(1, 5)})
        matrix = fiber.wedge_omega_matrix(w, 2)
        assert len(matrix) == 3 and len(matrix[0]) == 3
        assert matrix_rank(matrix) == 2

    def test_composite_vanishes_for_all_weights(self):
        """wedge-with-omega twice is zero for all weights.  The maps are
        linear in the weights, so with M_k the map at the k-th unit weight,
        that is M2_k M1_l + M2_l M1_k = 0 for every pair k <= l."""
        fiber = FiberContext(ceva().arrangement, [F(2), F(3)])
        fixed = fiber.weight_symbol_order()
        units = [Weights.make({i: int(i == s) for i in fixed}, int(s == "ah")) for s in fixed + ["ah"]]
        m1 = [fiber.wedge_omega_matrix(w, 1) for w in units]
        m2 = [fiber.wedge_omega_matrix(w, 2) for w in units]

        def product(a, b):
            return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

        assert any(any(row) for m in m2 for row in m)
        for k, l in itertools.combinations_with_replacement(range(len(units)), 2):
            ab, ba = product(m2[k], m1[l]), product(m2[l], m1[k])
            assert all(x + y == 0 for r, s in zip(ab, ba) for x, y in zip(r, s))


class TestCohomologyDims:
    def test_example1_fiber(self):
        fiber = FiberContext(example1().arrangement, [F(2), F(3)])
        w = Weights.make({1: F(1, 3), 2: F(1, 7), 3: F(1, 5)}, F(-1, 2))
        assert cohomology_dims(fiber, w) == [0, 0, 3]

    def test_ceva_fiber(self):
        fiber = FiberContext(ceva().arrangement, [F(2), F(3)])
        w = Weights.make({i: F(1, 7) for i in range(1, 6)}, F(1, 7))
        assert cohomology_dims(fiber, w) == [0, 0, 6]

    def test_two_points_fixed_mode(self):
        arr = validate([P(1, 0), P(0, 1)], 0)
        fiber = FiberContext(arr, None)
        assert cohomology_dims(fiber, Weights.make({1: F(1, 3)})) == [0, 0]

    def test_resonant_rejected(self):
        fiber = FiberContext(example1().arrangement, [F(2), F(3)])
        w = Weights.make({1: F(2), 2: F(1, 7), 3: F(1, 5)}, F(-1, 2))
        with pytest.raises(ResonantWeightsError):
            cohomology_dims(fiber, w)


class TestReduceRationalForm:
    def chart(self):
        return FiberChart(FiberContext(example1().arrangement, [F(2), F(3)]))

    def test_triple_pole(self):
        form = RatForm.make(WeightPoly.constant(1), [1, 2, 3])
        assert reduce_rational_form(form, self.chart()) == E(1, 2) - E(1, 3) + E(2, 3)

    def test_plain_monomial(self):
        form = RatForm.make(WeightPoly.constant(1), [1, 2])
        assert reduce_rational_form(form, self.chart()) == E(1, 2)

    def test_moving_point_line(self):
        # x/x_s dx/x = dx/x_s = (1/l) dlog x_s
        fiber = point_line()
        form = RatForm.make(WeightPoly.constant(1), [fiber.moving_index])
        got = reduce_rational_form(form, FiberChart(fiber))
        assert got == ExtElem.monomial((fiber.moving_index,), F(1, 3))

    def test_pointwise_oracle(self):
        chart = self.chart()
        points = [(F(5), F(7)), (F(-2, 3), F(9, 4)), (F(13, 6), F(-8, 5))]
        numerator = xpoly(x1=F(2), x2=F(-1, 3)) + WeightPoly.constant(F(1, 2))
        form = RatForm.make(numerator, [1, 2, 3, chart.fiber.moving_index])
        reduced = reduce_rational_form(form, chart)
        for point in points:
            assert form.evaluate(chart, point) == log_comb_evaluate(chart, reduced, point)

    def test_non_logarithmic_rejected(self):
        # dx1 dx2 alone has a higher-order pole at infinity
        form = RatForm.make(WeightPoly.constant(1), [])
        with pytest.raises(NotLogarithmicError):
            reduce_rational_form(form, self.chart())

    def test_unknown_pole_rejected(self):
        form = RatForm.make(WeightPoly.constant(1), [1, 99])
        with pytest.raises(NotLogarithmicError):
            reduce_rational_form(form, self.chart())

    def test_central_triple_requires_cancellation(self):
        """A lone central-circuit denominator is not logarithmic over Ceva."""
        chart = FiberChart(FiberContext(ceva().arrangement, [F(2), F(3)]))
        form = RatForm.make(WeightPoly.constant(1), [1, 2, 5])
        with pytest.raises(NotLogarithmicError):
            reduce_rational_form(form, chart)

    def test_ceva_common_denominator_round_trip(self):
        """Expand dlog combinations over a common denominator and reduce back.

        Over the Ceva fiber this drives the splitting through the central
        circuit {1, 2, 5}: the intermediate non-logarithmic pieces have to
        cancel exactly.
        """
        chart = FiberChart(FiberContext(ceva().arrangement, [F(2), F(5)]))
        points = [(F(7), F(11, 3)), (F(-5, 2), F(17, 4))]
        s = chart.fiber.moving_index
        combos = [
            E(1, 2) + E(2, 5, c=F(3, 2)) - E(1, 5, c=F(2, 7)),
            E(1, 2) - E(3, 4, c=2) + E(2, s, c=F(1, 3)),
            E(1, 5) + E(2, 5) + E(5, s),
        ]
        for combo in combos:
            poles = sorted(set(i for tup, _ in combo.terms for i in tup))
            numerator = WeightPoly.zero()
            for tup, c in combo.terms:
                piece = WeightPoly.constant(c * chart.jacobian_det(tup))
                for i in poles:
                    if i not in tup:
                        piece = piece * _poly_affine(chart.affine[i])
                numerator = numerator + piece
            form = RatForm.make(numerator, poles)
            reduced = reduce_rational_form(form, chart)
            for point in points:
                assert form.evaluate(chart, point) == log_comb_evaluate(
                    chart, reduced, point
                )
            # the reduced combination agrees with the original one as a form
            for point in points:
                assert log_comb_evaluate(chart, combo, point) == log_comb_evaluate(
                    chart, reduced, point
                )


class TestFiberDecomposition:
    def test_basis_splits_by_moving_factor(self):
        """Off the discriminant, the fiber basis at every degree is the
        disjoint union of the fixed nbc p-sets and {K u {s}} for fixed nbc
        (p-1)-sets K: the two halves of the direct-sum decomposition."""
        from arrgm.matroid import MatroidContext

        for fixture_arr in (example1().arrangement, ceva().arrangement):
            fiber = FiberContext(fixture_arr, [F(2), F(3)])
            base_ctx = MatroidContext(fixture_arr)
            s = fiber.moving_index
            for p in range(1, fiber.n + 1):
                with_s = sorted(t for t in fiber.nbc(p) if s in t)
                without_s = sorted(t for t in fiber.nbc(p) if s not in t)
                assert without_s == sorted(base_ctx.nbc_sets(p))
                expected = sorted(
                    tuple(sorted(k + (s,))) for k in base_ctx.nbc_sets(p - 1)
                )
                assert with_s == expected


class TestClassReduction:
    def test_unit_vectors(self):
        fiber = FiberContext(example1().arrangement, [F(2), F(3)])
        w = Weights.make({1: F(1, 3), 2: F(1, 7), 3: F(1, 5)}, F(-1, 2))
        for idx, basis in enumerate(fiber.fixed_nbc()):
            [coords] = reduce_at(fiber, w, [E(*basis)])
            assert coords == [F(1) if i == idx else F(0) for i in range(3)]

    def test_moving_point_class(self):
        # e_s reduces to (-a1/ah) e_1 on the punctured line family
        fiber = point_line()
        w = Weights.make({1: F(1, 3)}, F(-1, 5))
        [coords] = reduce_at(fiber, w, [ExtElem.monomial((fiber.moving_index,))])
        assert coords == [F(1, 3) / F(1, 5)]  # -a1/ah = (1/3)/(1/5)

    def test_exact_classes_vanish(self):
        fiber = FiberContext(ceva().arrangement, [F(2), F(3)])
        w = Weights.make({i: F(1, 7) for i in range(1, 6)}, F(2, 7))
        omega_terms = fiber.omega_terms(w)
        for k in fiber.nbc(1):
            omega_wedge = ExtElem.zero()
            for idx, coeff in omega_terms:
                omega_wedge = omega_wedge + wedge(E(idx, c=coeff), E(*k))
            nf = fiber.os.normal_form(omega_wedge)
            assert reduce_at(fiber, w, [nf]) == [[F(0)] * 6]

    def test_reduction_linear_in_input(self):
        fiber = FiberContext(example1().arrangement, [F(5), F(-3)])
        w = Weights.make({1: F(2, 3), 2: F(1, 7), 3: F(1, 5)}, F(-1, 2))
        g1, g2 = E(1, fiber.moving_index), E(2, fiber.moving_index)
        [lhs] = reduce_at(fiber, w, [g1.scale(F(3, 2)) + g2.scale(-2)])
        c1, c2 = reduce_at(fiber, w, [g1, g2])
        assert lhs == [F(3, 2) * a - 2 * b for a, b in zip(c1, c2)]

    def test_numeric_block_weighs_by_the_common_denominator(self):
        """a1 = 1/3 and ah = -1/5 give a0 = -2/15 and D = 15: the block is
        integral, the class of e_s is still -a1/ah = 5/3, exact although
        q does not divide it, and the class of D e_s is the int 25."""
        fiber = point_line()
        reducer = ClassReducer(fiber, Weights.make({1: F(1, 3)}, F(-1, 5)))
        s, inf = fiber.moving_index, fiber.arr.infinity_index
        assert reducer.denominator == 15
        assert reducer.blocks == [("1", {1: 5, s: -3, inf: -2})]
        e_s = top_coordinates(fiber, ExtElem.monomial((s,)))
        [column] = reducer.reduce_batch([{"1": e_s}])
        assert column == {0: {"1": F(5, 3)}} and type(column[0]["1"]) is F
        [scaled] = reducer.reduce_batch([{"1": [15 * c for c in e_s]}])
        assert scaled == {0: {"1": 25}} and type(scaled[0]["1"]) is int

    def test_symbolic_class_of_the_moving_point(self):
        # ah e_s = -a1 e_1 + omega ^ 1 for all weights
        fiber = point_line()
        reducer = ClassReducer(fiber, None)
        assert [symbol for symbol, _ in reducer.blocks] == ["a1", "ah"]
        e_s = top_coordinates(fiber, ExtElem.monomial((fiber.moving_index,)))
        [column] = reducer.reduce_batch([{"ah": e_s}])
        assert column == {0: {"a1": F(-1)}}

    def test_symbolic_class_not_linear_in_the_weights(self):
        # a1 e_s = -(a1^2 / ah) e_1: no xi free of the weights
        fiber = point_line()
        e_s = top_coordinates(fiber, ExtElem.monomial((fiber.moving_index,)))
        with pytest.raises(NonlinearFitError):
            ClassReducer(fiber, None).reduce_batch([{"a1": e_s}])


def enumerated_affine_circuits(chart: FiberChart) -> list[AffineCircuit]:
    """Reference: enumerate subsets of the finite forms by size, one solve each."""
    out: list[AffineCircuit] = []
    supports: list[set[int]] = []
    for size in range(2, chart.n + 2):
        for subset in itertools.combinations(chart.fiber.finite_indices, size):
            sset = set(subset)
            if any(known <= sset for known in supports):
                continue
            lin_cols = [[chart.affine[i].lin[j] for i in subset] for j in range(chart.n)]
            kernel = solve_linear(lin_cols, []).kernel
            if not kernel:
                continue
            assert len(kernel) == 1
            lead = next(x for x in kernel[0] if x != 0)
            mu = [x / lead for x in kernel[0]]
            c = sum((m * chart.affine[i].constant for m, i in zip(mu, subset)), F(0))
            out.append(AffineCircuit(subset, tuple(mu), c))
            supports.append(sset)
    out.sort(key=lambda circ: circ.support)
    return out


# rungs of the ladder of arrangements (tools/ladder.py); p3-7 is not normal crossing
LADDER_RUNGS = ["example1", "ceva", "p2-6", "p3-6", "p3-7"]


def affine_discriminant_and_samples(arr):
    """The discriminant components in the affine chart and 4 points off them."""
    chart = AffineChart.of(arr)
    components = [chart.affine(form) for form in discriminant(arr)]
    return components, sample_parameter_points(arr.n, components, 4, RatSampler(5))


@pytest.mark.parametrize("name", ["example1", "ceva", "p2-6", "p3-7"])
def test_affine_circuits_match_enumeration(name):
    """The circuits derived from the cone matroid equal a direct enumeration,
    at the fixed fiber and at fresh fibers sampled off the discriminant."""
    arr = rung(name)
    _, points = affine_discriminant_and_samples(arr)
    for params in [None] + points:
        chart = FiberChart(FiberContext(arr, params))
        assert chart.affine_circuits() == enumerated_affine_circuits(chart)


@pytest.mark.parametrize("name", LADDER_RUNGS)
def test_fiber_combinatorics_constant_off_discriminant(name):
    """The premise of reducing classes in one fiber: every fiber off the
    discriminant has the circuit supports and nbc lists of the shared one,
    and a fiber moved onto a visible discriminant component does not."""
    arr = rung(name)
    components, points = affine_discriminant_and_samples(arr)

    def combinatorics(fiber):
        supports = [c.support for c in fiber.matroid.circuits()]
        return supports, [fiber.nbc(p) for p in range(fiber.n + 1)]

    shared = combinatorics(FiberContext(arr, points[0]))
    for params in points[1:]:
        assert combinatorics(FiberContext(arr, params)) == shared
    point = points[1]
    for aff in components:
        if not any(aff.lin):
            continue
        # the orthogonal projection of ``point`` onto the component
        step = aff.evaluate(point) / sum(c * c for c in aff.lin)
        on = [x - step * c for x, c in zip(point, aff.lin)]
        assert aff.evaluate(on) == 0
        assert combinatorics(FiberContext(arr, on)) != shared


def imported_names(path: Path) -> set[str]:
    """The dotted names a source file imports, relative imports resolved
    in ``arrgm``: each module, and each module plus an imported name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("arrgm." * bool(node.level) + (node.module or "")).rstrip(".")
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_the_library_is_the_pipeline():
    """Every module under ``src/arrgm`` is one the CLI loads: the imports of
    ``arrgm.cli``, followed module by module without the package's
    ``__init__``, reach all of them.  No library module imports a test
    module, so the oracles in ``tests`` stay out of the pipeline."""
    package = Path(arrgm.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    reached, frontier = set(), ["cli"]
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            imported = imported_names(package / f"{name}.py")
            frontier += [m for m in modules if f"arrgm.{m}" in imported]
    assert reached == modules

    tests = {path.stem for path in Path(__file__).parent.glob("*.py")} | {"tests"}
    for path in package.glob("*.py"):
        assert not {name.split(".")[0] for name in imported_names(path)} & tests, path.name


@pytest.mark.parametrize("module", ["aomoto", "gaussmanin", "monodromy", "cli"])
def test_partial_fractions_stay_out_of_the_pipeline(module):
    """The closed-form pipeline never reaches the paper's partial-fraction
    route: none of its modules imports a ``partialfrac`` module (the route
    lives in ``tests/reference_partialfrac.py``), and ``FiberContext`` holds
    only the fiber's combinatorics and omega."""
    imported = imported_names(Path(arrgm.__file__).parent / f"{module}.py")
    assert not any("partialfrac" in part for name in imported for part in name.split("."))

    moved = {
        "affine", "lin_rows", "jacobian_det", "frame_inverse", "affine_circuits",
        "circuit_in", "_affine_circuits", "_frame_inverse",
    }
    members = set(dir(FiberContext)) | set(vars(FiberContext(example1().arrangement, [F(2), F(3)])))
    assert not members & moved
