"""Connection assembly: closed-form residues, the sampled oracle, flatness,
the rank and trace of each residue from the lattice."""

from __future__ import annotations

import cmath
import functools
import hashlib
import itertools
import json
import warnings
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arrgm import exactnum, gaussmanin, matroid
from arrgm.arrangement import (
    AffineChart, AffineForm, ProjForm, bad_loci, discriminant, lattice, validate,
)
from arrgm.aomoto import ClassReducer, FiberContext, Weights, validate_weights, weights_for_extended
from arrgm.errors import ArrgmError, NonlinearFitError
from arrgm.exactnum import WeightExpr, matrix_rank
from arrgm.fixtures import ceva, example1
from arrgm.gaussmanin import (
    GMComponent,
    GMConnection,
    MovingFamily,
    _residue_stencils,
    _weight_matrices,
    flatness_check,
    generic_fiber,
    gm_matrix,
)
from arrgm.matroid import MatroidContext
from arrgm.monodromy import monodromy
from arrgm.osalg import ExtElem, boundary, wedge

from _ladder import RUNGS, rung
from _sampling import RatSampler
from reference_full import _lift, _weight_settings, full_closed_form, identity_expansions, reduce_at
from reference_partialfrac import RatForm, WeightPoly
from reference_poly import poly_flatness_check
from reference_sampled import (
    ConnectionFitError,
    _fit_residues,
    raw_derivative,
    sample_parameter_points,
    sampled_gm_matrix,
)
from test_arrangement import brute_force_flats


def P(*coeffs):
    return ProjForm.make(list(coeffs))


def W(const=0, **coeffs):
    return WeightExpr.make(F(const), {k: F(v) for k, v in coeffs.items()})


def point_line_family() -> MovingFamily:
    return MovingFamily(validate([P(1, 0), P(0, 1)], 0))


def two_point_family() -> MovingFamily:
    """Fixed points x = 0 and x = 1 plus the moving point 1 + l x."""
    return MovingFamily(validate([P(1, 0), P(0, 1), P(1, -1)], 0))


class TestRawDerivative:
    """The raw parameter derivatives of the sampled reference derivation."""

    def test_point_line(self):
        """x1 / (x1 x_s) dx1 exactly: the factor ah is not part of the form."""
        form = raw_derivative(point_line_family(), (1,), 1)
        assert form == RatForm.make(WeightPoly.make({(("x1", 1),): F(1)}), [1, 2])

    def test_example1(self):
        family = MovingFamily(example1().arrangement)
        form = raw_derivative(family, (1, 2), 1)
        assert form.poles == frozenset({1, 2, family.moving_index})
        assert form.numerator == WeightPoly.make({(("x1", 1),): F(1)})

    def test_parameter_index_checked(self):
        with pytest.raises(ValueError):
            raw_derivative(point_line_family(), (1,), 2)


class TestPointLineConnection:
    def test_components_and_residues(self):
        conn = gm_matrix(point_line_family())
        forms = [c.form for c in conn.components]
        assert forms == [P(0, 1), P(1, 0)]  # h1 first, h0 last
        assert conn.components[0].residue == ((W(a1=-1),),)
        assert conn.components[1].residue == ((W(a1=1),),)

    def test_numeric_weights_variant(self):
        family = MovingFamily(
            point_line_family().base, Weights.make({1: F(1, 3)}, F(-1, 5))
        )
        conn = gm_matrix(family)
        assert conn.components[0].residue[0][0] == WeightExpr.constant(F(-1, 3))


class TestTwoPointConnection:
    """Three singular points on the line; the reduction passes through the
    circuit of the moving point against a fixed one, which is where the
    moving residue enters the diagonal."""

    def expected(self, conn: GMConnection):
        by_form = {c.form: c.residue for c in conn.components}
        assert set(by_form) == {P(0, 1), P(1, 1), P(1, 0)}
        assert by_form[P(0, 1)] == (
            (W(a1=-1), W(a1=-1)),
            (W(a2=-1), W(a2=-1)),
        )
        assert by_form[P(1, 1)] == (
            (W(), W(a1=1)),
            (W(), W(a2=1, ah=1)),
        )
        assert by_form[P(1, 0)] == (
            (W(a1=1), W()),
            (W(a2=1), W(ah=-1)),
        )

    def test_symbolic_connection(self):
        conn = gm_matrix(two_point_family())
        assert conn.basis == ((1,), (2,))
        self.expected(conn)

    def test_hypergeometric_period_oracle(self):
        """Independent check of the whole pipeline against numeric twisted
        periods P_j(l) = int_0^1 x^(a1) (1-x)^(a2) (1+lx)^(ah) dlog f_j.

        dP_j/dl must match the computed connection column; in particular the
        moving-weight term on the diagonal is decided here, not assumed.
        """
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        old_dps = mp.dps
        mp.dps = 25
        try:
            a1, a2, ah = map(mpmath.mpf, ("0.31", "0.23", "0.17"))

            def density(x, l):
                return x**a1 * (1 - x) ** a2 * (1 + l * x) ** ah

            def period(j, l):
                if j == 1:
                    return mpmath.quad(lambda x: density(x, l) / x, [0, 1])
                return -mpmath.quad(lambda x: density(x, l) / (1 - x), [0, 1])

            conn = gm_matrix(two_point_family())
            assignment = {"a1": a1, "a2": a2, "ah": ah}
            l0 = mpmath.mpf(2)

            def m_entry(i, j):
                total = mpmath.mpf(0)
                affine = {P(0, 1): (0, 1), P(1, 1): (1, 1), P(1, 0): None}
                for comp in conn.components:
                    aff = affine[comp.form]
                    if aff is None:
                        continue
                    c0, c1 = aff
                    expr = comp.residue[i][j]
                    value = mpmath.mpf(str(expr.const)) + sum(
                        mpmath.mpf(str(c)) * assignment[s] for s, c in expr.coeffs
                    )
                    total += value * c1 / (c0 + c1 * l0)
                return total

            periods = [period(1, l0), period(2, l0)]
            h = mpmath.mpf("1e-6")
            # Tolerance is limited by quadrature noise amplified through the
            # central difference; the hypotheses being discriminated (with or
            # without the moving residue on the diagonal) differ at order one.
            for j in range(2):
                derivative = (period(j + 1, l0 + h) - period(j + 1, l0 - h)) / (2 * h)
                predicted = m_entry(0, j) * periods[0] + m_entry(1, j) * periods[1]
                assert abs(derivative - predicted) <= 1e-5 * abs(derivative)
                without_ah = predicted - ah / (1 + l0) * periods[j] * (j == 1)
                if j == 1:
                    assert abs(derivative - without_ah) > 0.1 * abs(derivative)
        finally:
            mp.dps = old_dps


@pytest.fixture(scope="module")
def example1_connection():
    return gm_matrix(MovingFamily(example1().arrangement))


class TestExample1Connection:
    @pytest.fixture()
    def conn(self, example1_connection):
        return example1_connection

    def test_basis_order(self, conn):
        assert conn.basis == ((1, 2), (1, 3), (2, 3))

    def test_first_column_entry(self, conn):
        # image of e12 on e12: -a1 dlog h1 - a2 dlog h2 (+ balancing h0 part)
        by_form = {c.form: c.residue for c in conn.components}
        assert by_form[P(0, 1, 0)][0][0] == W(a1=-1)
        assert by_form[P(0, 0, 1)][0][0] == W(a2=-1)
        assert by_form[P(1, 0, 0)][0][0] == W(a1=1, a2=1)

    def test_trace_of_first_component(self, conn):
        h1 = {c.form: c.residue for c in conn.components}[P(0, 1, 0)]
        trace = h1[0][0] + h1[1][1] + h1[2][2]
        assert trace == W(a1=-1, a3=-1)

    def test_residue_sum_zero(self, conn):
        size = conn.size
        for i in range(size):
            for j in range(size):
                total = WeightExpr.constant(0)
                for comp in conn.components:
                    total = total + comp.residue[i][j]
                assert total == WeightExpr.constant(0)

    def test_components_within_discriminant(self, conn):
        allowed = set(discriminant(example1().arrangement)) | {P(1, 0, 0)}
        assert {c.form for c in conn.components} <= allowed

    def test_scaling_fixed_forms_leaves_connection_unchanged(self, conn):
        base = example1().arrangement
        scaled = validate(
            [
                ProjForm.make([F(5, 3) * c for c in h.coeffs])
                for h in base.hyperplanes
            ],
            base.infinity_index,
        )
        conn2 = gm_matrix(MovingFamily(scaled))
        assert conn2.basis == conn.basis
        assert [(c.form, c.residue) for c in conn2.components] == [
            (c.form, c.residue) for c in conn.components
        ]


def curvature_vanishes(conn, base, points, weight_points) -> bool:
    """Reference curvature check at fixed rational points and weights.

    Evaluates the curvature 2-form sum_{p<q} [A_p, A_q] (dlog f_p ^ dlog f_q)_{uv}
    of M = sum_p A_p dlog f_p exactly, for every coordinate pair u < v, on the
    affine chart (the h0 component has no affine part).  Being a finite
    sample, only a nonzero value is conclusive.
    """
    chart = AffineChart.of(base)
    affine = [(chart.affine(c.form), c.residue) for c in conn.components]
    affine = [(f, residue) for f, residue in affine if any(f.lin)]
    size = conn.size

    def product(a, b):
        return [
            [sum((a[i][t] * b[t][j] for t in range(size)), F(0)) for j in range(size)]
            for i in range(size)
        ]

    for point in points:
        for assignment in weight_points:
            terms = []
            for f, residue in affine:
                value = f.evaluate(point)
                assert value != 0, f"reference point {point} lies on a component"
                matrix = [[e.evaluate(assignment) for e in row] for row in residue]
                terms.append(([c / value for c in f.lin], matrix))
            for u, v in combinations(range(base.n), 2):
                total = [[F(0)] * size for _ in range(size)]
                for (wp, ap), (wq, aq) in combinations(terms, 2):
                    cross = wp[u] * wq[v] - wp[v] * wq[u]
                    if cross == 0:
                        continue
                    ab, ba = product(ap, aq), product(aq, ap)
                    for i in range(size):
                        for j in range(size):
                            total[i][j] += cross * (ab[i][j] - ba[i][j])
                if any(x != 0 for row in total for x in row):
                    return False
    return True


def with_entries_added(conn, changes) -> GMConnection:
    """``conn`` with ``changes[component][(i, j)]`` added to the entries."""
    comps = []
    for idx, comp in enumerate(conn.components):
        rows = [list(row) for row in comp.residue]
        for (i, j), delta in changes.get(idx, {}).items():
            rows[i][j] = rows[i][j] + delta
        comps.append(GMComponent(comp.form, tuple(tuple(r) for r in rows)))
    return GMConnection(conn.basis, tuple(comps), conn.weight_symbol_order)


def with_entry_added(conn, delta, components) -> GMConnection:
    """``conn`` with ``delta`` added to entry [0][0] of the given components."""
    return with_entries_added(conn, {idx: {(0, 0): delta} for idx in components})


@pytest.fixture(scope="module")
def ceva_connection():
    return gm_matrix(MovingFamily(ceva().arrangement))


class TestFlatness:
    def test_example1_flat_symbolically(self):
        conn = gm_matrix(MovingFamily(example1().arrangement))
        report = flatness_check(conn, example1().arrangement)
        assert report.ok
        # a defect in a weight coefficient, invisible at a1 = 0, is rejected:
        # the identities are checked for all weights
        defect = with_entry_added(conn, W(a1=1), range(len(conn.components) - 1))
        assert not flatness_check(defect, example1().arrangement).ok

    def test_perturbed_connection_fails(self):
        conn = gm_matrix(MovingFamily(example1().arrangement))
        tampered = []
        for idx, comp in enumerate(conn.components):
            if idx == 0:
                rows = [list(row) for row in comp.residue]
                rows[0][0] = rows[0][0] + WeightExpr.constant(1)
                tampered.append(GMComponent(comp.form, tuple(tuple(r) for r in rows)))
            else:
                tampered.append(comp)
        bad = GMConnection(conn.basis, tuple(tampered), conn.weight_symbol_order)
        report = flatness_check(bad, example1().arrangement)
        assert not report.ok and report.witness is not None

    def test_one_by_one_always_flat(self):
        conn = gm_matrix(point_line_family())
        report = flatness_check(conn, point_line_family().base)
        assert report.ok

    @pytest.mark.parametrize("name", ["example1", "ceva"])
    @pytest.mark.parametrize(
        "delta, flat",
        [(None, True), (W(1), False), (W(a1=1), False)],
        ids=["computed", "plus-one", "plus-a1"],
    )
    def test_agrees_with_curvature_reference(
        self, name, delta, flat, example1_connection, ceva_connection
    ):
        conn = example1_connection if name == "example1" else ceva_connection
        base = (example1() if name == "example1" else ceva()).arrangement
        if delta is not None:
            # every component but h0, which is last
            conn = with_entry_added(conn, delta, range(len(conn.components) - 1))
        symbols = sorted(
            {s for c in conn.components for row in c.residue for e in row for s, _ in e.coeffs}
        )
        weight_points = [
            {s: F(2 * k + 3, 7 + t) for k, s in enumerate(symbols)} for t in (0, 5)
        ]
        points = [(F(2, 7), F(-5, 3)), (F(7, 4), F(1, 9))]
        assert curvature_vanishes(conn, base, points, weight_points) is flat
        assert flatness_check(conn, base).ok is flat

    def test_witness_names_flat_component_and_entry(self, example1_connection):
        base = example1().arrangement
        bad = with_entry_added(example1_connection, W(1), (0,))
        report = flatness_check(bad, base)
        assert not report.ok
        assert report.witness == "flat {h2, h1-h2, h1}: [A_p, S_X][0][2] != 0 for p = h2"

    def test_stored_h0_residue_is_checked(self, example1_connection):
        """The h0 residue has no affine part, but it enters its flats."""
        last = len(example1_connection.components) - 1
        bad = with_entry_added(example1_connection, W(1), (last,))
        assert not flatness_check(bad, example1().arrangement).ok

    def test_exact_above_size_eight(self):
        """Generic P^2 with 6 lines: 10 nbc elements, certified exactly."""
        arr = rung("p2-6")
        conn = oracle_family_connection("p2-6-numeric")
        assert conn.size == 10
        assert flatness_check(conn, arr).ok
        assert not flatness_check(with_entry_added(conn, W(1), (0,)), arr).ok

    @pytest.mark.parametrize("name", ["example1", "ceva", "p2-6", "p3-6"])
    def test_agrees_with_polynomial_oracle(self, name):
        """Coefficient-matrix flatness = the ``WeightPoly`` expansion, witness included."""
        base = rung(name)
        conn = symbolic_connection(name)
        assert flatness_check(conn, base) == poly_flatness_check(conn, base)

    @pytest.mark.parametrize("compensate", [False, True], ids=["plain", "compensated"])
    def test_perturbed_agree_with_polynomial_oracle(self, compensate):
        """30 perturbed connections each way: one entry moved by a constant,
        a weight or both, or a scalar matrix added, which commutes with
        everything and so stays flat; with ``compensate`` the h0 residue
        takes every change back, so the residues still sum to zero."""
        sampler = RatSampler(61 + compensate)
        outcomes = Counter()
        for trial in range(30):
            name = ("example1", "ceva")[trial % 2]
            conn = symbolic_connection(name)
            base = rung(name)
            size, last = conn.size, len(conn.components) - 1
            comp = sampler.integer(0, last - 1)
            delta = W(
                sampler.rational(5, 3) * sampler.integer(0, 1),
                **{f"a{sampler.integer(1, 3)}": sampler.rational(5, 3), "ah": sampler.integer(0, 1)},
            )
            if trial % 3 == 0:
                entries = {(i, i): delta for i in range(size)}
            else:
                entries = {(sampler.integer(0, size - 1), sampler.integer(0, size - 1)): delta}
            changes = {comp: entries}
            if compensate:
                changes[last] = {key: -value for key, value in entries.items()}
            bad = with_entries_added(conn, changes)
            report = flatness_check(bad, base)
            assert report == poly_flatness_check(bad, base)
            outcomes[report.ok] += 1
        assert outcomes == Counter({False: 20, True: 10})


class TestCevaConnection:
    def test_first_column(self):
        conn = gm_matrix(MovingFamily(ceva().arrangement))
        assert conn.basis == ((1, 2), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5))
        by_form = {c.form: c.residue for c in conn.components}
        # first column: (-a1-a5) dlog h1 - a2 dlog h2 on e12, a5[dlog h1 - dlog h2]
        # on e15, a3 dlog h1 on e23, -a4 dlog h2 on e14, zeros below
        assert by_form[P(0, 1, 0)][0][0] == W(a1=-1, a5=-1)
        assert by_form[P(0, 0, 1)][0][0] == W(a2=-1)
        assert by_form[P(0, 0, 1)][1][0] == W(a4=-1)
        assert by_form[P(0, 1, 0)][2][0] == W(a5=1)
        assert by_form[P(0, 0, 1)][2][0] == W(a5=-1)
        assert by_form[P(0, 1, 0)][3][0] == W(a3=1)
        for i in (4, 5):
            for comp in conn.components:
                assert comp.residue[i][0] == W()


def connection_digest(conn: GMConnection) -> str:
    return hashlib.sha256(json.dumps(conn.to_json(), sort_keys=True).encode()).hexdigest()


def generic_p3_family() -> MovingFamily:
    """Coordinate frame of P^3 (z0 at infinity) plus one plane in general position."""
    frame = [[1 if j == i else 0 for j in range(4)] for i in range(4)]
    arr = validate([P(*row) for row in frame + [[2, -1, 3, -2]]], 0)
    weights = Weights.make({1: F(2, 7), 2: F(-3, 11), 3: F(5, 13), 4: F(-1, 9)}, F(4, 15))
    return MovingFamily(arr, weights)


def generic(n, extra):
    """The coordinate frame of P^n (z0 at infinity) plus the given forms."""
    frame = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    return validate([P(*row) for row in frame + extra], 0)


# numeric weights off every resonance of their arrangement
P2_6_WEIGHTS = Weights.make(
    {1: F(2, 7), 2: F(-3, 11), 3: F(5, 13), 4: F(-1, 9), 5: F(3, 17)}, F(4, 15)
)
P3_7_WEIGHTS = Weights.make(
    {1: F(2, 7), 2: F(-3, 11), 3: F(5, 13), 4: F(-1, 9), 5: F(3, 17), 6: F(1, 19)}, F(4, 15)
)

ORACLE_FAMILIES = {
    "example1": lambda: MovingFamily(example1().arrangement),
    "ceva": lambda: MovingFamily(ceva().arrangement),
    "p2-6-numeric": lambda: MovingFamily(rung("p2-6"), P2_6_WEIGHTS),
    "p3-7-numeric": lambda: MovingFamily(rung("p3-7"), P3_7_WEIGHTS),
}


@functools.cache
def oracle_family_connection(name: str) -> GMConnection:
    return gm_matrix(ORACLE_FAMILIES[name]())


@functools.cache
def symbolic_connection(name: str) -> GMConnection:
    """The symbolic connection of the ladder rung ``name``, built once per run."""
    return gm_matrix(MovingFamily(rung(name)))


def test_to_json_renders_each_distinct_entry_once():
    """Equal residue entries of a ``gm_matrix`` connection, symbolic or
    numeric, are one object, and share one rendered dict, equal to the
    entry's own."""
    weights = Weights.make({i: F(i, 11) for i in range(1, 6)}, F(3, 7))
    for conn in [symbolic_connection("ceva"), gm_matrix(MovingFamily(ceva().arrangement, weights))]:
        exprs = [e for comp in conn.components for row in comp.residue for e in row]
        assert len({id(e) for e in exprs}) == len(set(exprs)) < len(exprs)
        rendered = [
            e for comp in conn.to_json()["components"] for row in comp["residue"] for e in row
        ]
        assert rendered == [e.to_json() for e in exprs]
        assert len({id(e) for e in rendered}) == len(set(exprs))


@pytest.mark.parametrize("name", ["example1", "ceva", "p2-6"])
def test_symbolic_residues_have_no_constant_term(name):
    """The residues are homogeneous linear in the weights."""
    conn = symbolic_connection(name)
    assert all(e.const == 0 for c in conn.components for row in c.residue for e in row)


class TestByteIdentity:
    """The exact output is fixed: a change may only alter the time to compute it.

    Digests of ``json.dumps(conn.to_json(), sort_keys=True)``, recorded from
    the residues fitted to parameter samples, before the closed form.
    """

    @pytest.mark.parametrize(
        "family, expected",
        [
            (
                lambda: MovingFamily(example1().arrangement),
                "643458a73a41d3d96040a60b25c389bcb82a3c900af7981f2de27b80d6fd6713",
            ),
            (
                lambda: MovingFamily(ceva().arrangement),
                "61b12a6bbedf46b9a5b0c171571c587fd522b1c6b30af5ad35de51a96ca2a94b",
            ),
            (
                generic_p3_family,
                "b83f85e434f3b5028b4a878ccf810f2af41939baa2e880b7f869cb380a18b9a4",
            ),
            (
                lambda: MovingFamily(rung("p2-6")),
                "ca60a3cf44e3db7f1a7a6bd2ab505aa1ad928b86e81758e727678727acfeb045",
            ),
            (
                lambda: MovingFamily(rung("p3-7")),
                "215110e2b753f1af9430a973590adc4a7640cfb5d1a4a2e70837c661b532f429",
            ),
        ],
        ids=["example1", "ceva", "generic-p3-numeric", "p2-6", "p3-7"],
    )
    def test_connection_digest(self, family, expected):
        assert connection_digest(gm_matrix(family())) == expected


@pytest.mark.parametrize("name", list(ORACLE_FAMILIES))
def test_closed_form_equals_sampled_oracle(name):
    """The closed form and the paper's sampled derivation give one connection."""
    family = ORACLE_FAMILIES[name]()
    assert oracle_family_connection(name) == sampled_gm_matrix(family)


@pytest.mark.parametrize("name", ["ceva", "p2-6-numeric", "p3-7-numeric"])
def test_closed_form_on_h0_is_minus_the_others(name):
    """Residue theorem: the closed form at h0 itself, minus ah e_J, equals the
    stored h0 residue, which is minus the sum of the affine residues."""
    family = ORACLE_FAMILIES[name]()
    base = family.base
    weights = family.weights or Weights.make(
        {i: F(2 * i + 1, 13) for i in base.finite_indices}, F(3, 11)
    )
    conn = oracle_family_connection(name)
    *affine, (h0, stored) = conn.evaluate(weights)
    assert h0 == AffineChart.of(base).projective(AffineForm.make(1, [0] * base.n))
    chart = AffineChart.of(base)
    (point,) = sample_parameter_points(
        base.n, [chart.affine(form) for form in discriminant(base)], 1, RatSampler(3)
    )
    fiber = FiberContext(base, point)
    a = {**weights.a_dict, fiber.moving_index: weights.ah, base.infinity_index: weights.a0}
    [expansion], stencils = _residue_stencils(fiber, [h0])
    images = []
    for stencil in stencils:
        image = [F(0)] * len(fiber.nbc(base.n))
        for t, i, c in stencil:
            image[t] += c * a[i]
        images.append(image)
    reduced = reduce_at(fiber, weights, images)
    columns = [
        [sum((c * reduced[k][i] for k, c in terms), F(0)) for i in range(conn.size)]
        for terms in expansion
    ]
    size = conn.size
    closed = [
        [columns[j][i] - (weights.ah if i == j else 0) for j in range(size)]
        for i in range(size)
    ]
    assert closed == stored
    assert closed == [
        [-sum((m[i][j] for _, m in affine), F(0)) for j in range(size)] for i in range(size)
    ]


def synthetic_fit_data(n=2, nvis=3, nbasis=2, nsettings=2, nsamples=7):
    """dlog rows and the coordinates of exact residues r[w][(i, j)] on them."""
    sampler = RatSampler(41)
    dlog_rows = [sampler.rational_vector(nvis, 9, 7) for _ in range(nsamples * n)]
    residues = [
        {(i, j): sampler.rational_vector(nvis, 9, 5) for i in range(nbasis) for j in range(nbasis)}
        for _ in range(nsettings)
    ]
    coords = [
        [
            [
                [
                    sum((rp * dp for rp, dp in zip(residues[w][(i, j)], dlog_rows[s * n + k])), F(0))
                    for i in range(nbasis)
                ]
                for j in range(nbasis)
                for k in range(n)
            ]
            for s in range(nsamples)
        ]
        for w in range(nsettings)
    ]
    return dlog_rows, coords, residues


class TestBatchedChecks:
    def test_fit_recovers_residues(self):
        dlog_rows, coords, residues = synthetic_fit_data()
        assert _fit_residues(dlog_rows, 5 * 2, coords, 2, 2) == residues

    @pytest.mark.parametrize("setting", [0, 1])
    def test_perturbed_held_out_coordinate_fails_fit(self, setting):
        dlog_rows, coords, _ = synthetic_fit_data()
        # sample 6 is held out: the first 5 samples (10 rows) fit
        coords[setting][6][1 * 2 + 1][0] += 1
        with pytest.raises(ConnectionFitError):
            _fit_residues(dlog_rows, 5 * 2, coords, 2, 2)

    def test_perturbed_fit_coordinate_fails_fit(self):
        dlog_rows, coords, _ = synthetic_fit_data()
        coords[1][0][0][1] += F(1, 3)
        with pytest.raises(ConnectionFitError):
            _fit_residues(dlog_rows, 5 * 2, coords, 2, 2)

    def lift_data(self, const=False):
        """Residues of linear expressions (plus a constant term when ``const``)
        at m + 3 settings of (a1, a2, ah), as the columns of two components."""
        settings = [
            Weights.make({1: F(1, 3) + d1, 2: F(1, 5) + d2}, F(1, 2) + dh)
            for d1, d2, dh in [
                (0, 0, 0), (F(1, 7), 0, 0), (0, F(1, 7), 0), (0, 0, F(1, 7)),
                (F(1, 7), F(1, 7), F(1, 7)),
            ]
        ]
        matrices = [
            tuple(
                tuple(
                    WeightExpr.make((i - j) * const, {"a1": p + 1, "a2": i * j, "ah": j - p})
                    for j in range(2)
                )
                for i in range(2)
            )
            for p in range(2)
        ]
        symbol_order = (1, 2)
        columns = [
            [
                [matrix[i][j].evaluate(w.symbol_assignment(symbol_order)) for i in range(2)]
                for matrix in matrices
                for j in range(2)
            ]
            for w in settings
        ]
        return columns, settings, symbol_order, matrices

    def test_lift_recovers_expressions(self):
        columns, settings, order, matrices = self.lift_data()
        lifted = _lift(columns, settings, order)
        assert _weight_matrices(lifted, identity_expansions(2, 2), 2) == matrices
        assert all("1" not in coeffs for column in lifted for coeffs in column.values())

    def test_numeric_lift_is_the_constant_part(self):
        columns, settings, order, _ = self.lift_data()
        lifted = _lift(columns[:1], settings[:1], order)
        assert _weight_matrices(lifted, identity_expansions(2, 2), 2) == [
            tuple(tuple(WeightExpr.constant(columns[0][p * 2 + j][i]) for j in range(2)) for i in range(2))
            for p in range(2)
        ]

    def test_constant_term_fails_lift(self):
        columns, settings, order, _ = self.lift_data(const=True)
        with pytest.raises(NonlinearFitError):
            _lift(columns, settings, order)

    def test_quadratic_fails_lift(self):
        """a1 a2 from a1 = a2 = delta: the difference quotients give a2 and a1,
        which the diagonal step a1 a2 + delta^2 cannot tell apart from it;
        the base setting does (a1 a2 against 2 a1 a2)."""
        delta = F(1, 7)
        settings = [
            Weights.make({1: delta + d1, 2: delta + d2}, F(1, 2) + dh)
            for d1, d2, dh in [
                (0, 0, 0), (delta, 0, 0), (0, delta, 0), (0, 0, delta), (delta, delta, delta),
            ]
        ]
        columns = [[[w.a_dict[1] * w.a_dict[2]]] for w in settings]
        with pytest.raises(NonlinearFitError):
            _lift(columns, settings, (1, 2))

    @pytest.mark.parametrize("setting", [0, 2, 4])
    def test_perturbed_setting_fails_lift(self, setting):
        columns, settings, order, _ = self.lift_data()
        columns[setting][1 * 2 + 0][1] += F(1, 11)
        with pytest.raises(NonlinearFitError):
            _lift(columns, settings, order)


def test_closed_form_call_structure(monkeypatch):
    """Structural guard on the closed form: one generic fiber, one set of
    stencils and one class reduction per call, symbolic and numeric."""
    calls = Counter()

    def counting(module, name, count=lambda result: 1):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            calls[name] += count(result)
            return result

        monkeypatch.setattr(module, name, wrapper)

    counting(gaussmanin, "generic_fiber")
    counting(FiberContext, "__init__")
    counting(ClassReducer, "reduce_batch")
    counting(gaussmanin, "_residue_stencils")
    numeric = Weights.make({i: F(i, 11) for i in range(1, 6)}, F(3, 7))
    for weights in [None, numeric]:
        calls.clear()
        gm_matrix(MovingFamily(ceva().arrangement, weights))
        assert calls == Counter({
            "generic_fiber": 1,
            "__init__": 1,
            "_residue_stencils": 1,
            "reduce_batch": 1,
        })


@pytest.mark.parametrize(
    "weights",
    [None, Weights.make({i: F(i, 11) for i in range(1, 6)}, F(3, 7))],
    ids=["symbolic", "numeric"],
)
def test_fiber_built_once(monkeypatch, weights):
    """Structural guard on the shared fiber: one matroid, one fiber context,
    one class reduction and one read of its wedge table per call."""
    calls = Counter()

    def count(cls, name):
        real = getattr(cls, name)

        def counting(*args, **kwargs):
            calls[f"{cls.__name__}.{name}"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, counting)

    count(MatroidContext, "__init__")
    count(FiberContext, "__init__")
    count(ClassReducer, "__init__")
    count(ClassReducer, "reduce_batch")
    count(FiberContext, "wedge_terms")
    gm_matrix(MovingFamily(ceva().arrangement, weights))
    assert calls == Counter({
        "MatroidContext.__init__": 1,
        "FiberContext.__init__": 1,
        "ClassReducer.__init__": 1,
        "ClassReducer.reduce_batch": 1,
        "FiberContext.wedge_terms": 1,
    })


@pytest.mark.parametrize("numeric", [False, True], ids=["symbolic", "numeric"])
@pytest.mark.parametrize("name", ["ceva", "p3-7"])
def test_call_reads_no_fiber_points_and_no_extelem_coordinates(monkeypatch, name, numeric):
    """Structural guard on the stencils: one call makes one
    ``echelon_kernel`` call per independent n-set of the base (its point),
    none for a set through the moving hyperplane.  The ``ExtElem``
    coordinate route it replaced lives only in the tests
    (``reference_stencils.nbc_coordinates``)."""
    arr = rung(name)
    family = MovingFamily(arr, _weight_settings(arr)[0] if numeric else None)
    fiber, _ = generic_fiber(arr)
    independent = [
        members for members in combinations(range(fiber.arr.size), arr.n)
        if matrix_rank(fiber.arr.form_rows(members)) == arr.n
    ]
    base_sets = [members for members in independent if fiber.moving_index not in members]
    calls = Counter()
    real_kernel = exactnum.echelon_kernel

    def echelon_kernel(*args):
        calls["echelon_kernel"] += 1
        return real_kernel(*args)

    for module in (exactnum, matroid):
        monkeypatch.setattr(module, "echelon_kernel", echelon_kernel)
    gm_matrix(family)
    assert calls == Counter({"echelon_kernel": len(base_sets)})
    assert len(base_sets) < len(independent)


def test_rerank_warning_once_per_call():
    arr = validate([P(0, 1, 0), P(1, 0, 0), P(0, 0, 1), P(1, 1, 1), P(1, -2, 3)], 1)
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gm_matrix(MovingFamily(arr))
        reranked = [w for w in caught if "re-ranked" in str(w.message)]
        assert len(reranked) == 1


def curve_point(n: int, t: int) -> tuple[F, ...]:
    return tuple(F(t) ** k for k in range(1, n + 1))


@st.composite
def small_arrangements(draw):
    """The coordinate frame of P^n, n = 1..3, plus 1 to 3 forms with entries
    in -2..2; concurrent extra forms make many of them not normal crossing."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1).filter(any)
    extra = draw(st.lists(row, min_size=1, max_size=3))
    try:
        return generic(n, extra)
    except ArrgmError:  # a form repeats
        assume(False)


@settings(max_examples=30, deadline=None)
@given(arr=small_arrangements(), data=st.data())
@example(arr=ceva().arrangement, data=None)
@example(arr=rung("p3-7"), data=None)
def test_fiber_and_weight_settings_generic_by_construction(arr, data):
    """Every weight setting passes the genericity checks on the base and on
    the extended fiber, and the fiber point lies off every component and has
    the combinatorics of any other point off the discriminant."""
    fiber, components = generic_fiber(arr)
    assert components == discriminant(arr)
    affine = [AffineChart.of(arr).affine(form) for form in components]
    t = fiber.params[0]
    assert fiber.params == curve_point(arr.n, t)
    assert t <= arr.n * len(components) + 1
    assert all(f.evaluate(fiber.params) != 0 for f in affine)

    settings_ = _weight_settings(arr)
    assert len(settings_) == len(arr.finite_indices) + 3
    flats, fiber_flats = bad_loci(arr), bad_loci(fiber.arr)
    for weights in settings_:
        assert weights.ah != 0
        assert validate_weights(arr, weights, bad_flats=flats).ok
        extended = weights_for_extended(fiber, weights)
        assert validate_weights(fiber.arr, extended, bad_flats=fiber_flats).ok

    if data is None:
        other = next(
            p for p in (curve_point(arr.n, s) for s in itertools.count(t + 1))
            if all(f.evaluate(p) != 0 for f in affine)
        )
    else:
        coordinate = st.fractions(-5, 5, max_denominator=4)
        other = data.draw(st.tuples(*[coordinate] * arr.n))
        assume(all(f.evaluate(other) != 0 for f in affine))
    second = FiberContext(arr, other)
    assert second.fixed_nbc() == fiber.fixed_nbc()
    assert [second.nbc(p) for p in range(arr.n + 1)] == [fiber.nbc(p) for p in range(arr.n + 1)]


# weights of mixed denominators on ceva's finite hyperplanes 1..5, and ah
CEVA_MIXED = Weights.make(
    {1: F(1, 3), 2: F(-2, 5), 3: F(3, 7), 4: F(1, 4), 5: F(-5, 9)}, F(2, 11)
)


@settings(max_examples=25, deadline=None)
@given(arr=small_arrangements(), data=st.data())
@example(arr=ceva().arrangement, data=None)
def test_numeric_connection_is_the_symbolic_one_evaluated(arr, data):
    """At weights of mixed denominators the numeric class solve weighs by
    their common denominator D and every output entry is divided by D once;
    the numeric connection is then the symbolic one evaluated."""
    if data is None:
        weights = CEVA_MIXED
    else:
        # one prime denominator per weight, not dividing its numerator: no sum
        # over a nonempty set of weights is an integer, so no assume rejects
        def value(p):
            return F(data.draw(st.integers(-20, 20).filter(lambda k: k % p)), p)

        primes = iter([3, 5, 7, 11, 13, 17, 19])
        a = {i: value(next(primes)) for i in arr.finite_indices}
        weights = Weights.make(a, value(next(primes)))
    assume(len({v.denominator for _, v in weights.a} | {weights.ah.denominator}) > 1)
    fiber, _ = generic_fiber(arr)
    assume(validate_weights(arr, weights).ok)
    assume(validate_weights(fiber.arr, weights_for_extended(fiber, weights)).ok)
    numeric = gm_matrix(MovingFamily(arr, weights))
    assert all(e.is_constant for c in numeric.components for row in c.residue for e in row)
    assert numeric.evaluate(weights) == gm_matrix(MovingFamily(arr)).evaluate(weights)


@settings(max_examples=20, deadline=None)
@given(arr=small_arrangements())
@example(arr=ceva().arrangement)
def test_monodromy_of_every_component(arr):
    """At the base weight setting every residue takes the closed-form
    monodromy, and det T = exp(-2 pi i tr A)."""
    weights = _weight_settings(arr)[0]
    conn = gm_matrix(MovingFamily(arr, weights))
    assignment = conn.assignment_for(weights)
    for comp in conn.components:
        result = monodromy(comp.residue, assignment)
        trace = sum(comp.residue[i][i].evaluate(assignment) for i in range(conn.size))
        det = complex(mpmath.det(mpmath.matrix(result.matrix)))
        assert abs(det - cmath.exp(-2j * cmath.pi * float(trace))) < 1e-10


@pytest.mark.parametrize("name", ["example1", "ceva", "p2-6"])
def test_connection_independent_of_fiber(monkeypatch, name):
    """The connection is the same in the next fiber of the curve
    (t, t^2, ..., t^n) off the discriminant."""
    real_fiber = generic_fiber
    used = Counter()

    def next_fiber(base):
        fiber, components = real_fiber(base)
        affine = [AffineChart.of(base).affine(form) for form in components]
        t = fiber.params[0] + 1
        while not all(f.evaluate(curve_point(base.n, t)) != 0 for f in affine):
            t += 1
        used["fiber"] += 1
        return FiberContext(base, curve_point(base.n, t)), components

    monkeypatch.setattr(gaussmanin, "generic_fiber", next_fiber)
    assert gm_matrix(MovingFamily(rung(name))) == symbolic_connection(name)
    assert used == Counter({"fiber": 1})


@pytest.mark.parametrize("symbol", ["a1", "a3", "a5"])
@pytest.mark.parametrize("row", [0, -1, "vanishing"])
def test_perturbed_symbol_block_fails_the_class_solve(monkeypatch, symbol, row):
    """A +1 on one coordinate of one symbol block, in a row through the
    moving index, leaves no weight-free xi: the symbolic class solve is
    inconsistent and says the residues are not linear in the weights.
    "vanishing" takes the first stacked row whose coefficients vanish in
    the block (20 of the 30 on ceva), which only the consistency check
    sees.  The ah block is left out: ah e_K ^ e_s = +-(omega ^ e_K -
    sum_i a_i e_i ^ e_K) has a class linear in the weights, so a +1 there
    is not detectable."""
    real = ClassReducer.reduce_batch

    def perturbed(self, elems):
        moving, block = self._moving_rows, [s for s, _ in self.blocks].index(symbol)
        stacked = self.rows[block * len(moving) : (block + 1) * len(moving)]
        target = moving[row] if row != "vanishing" else next(
            r for r, coefficients in zip(moving, stacked) if not any(coefficients)
        )
        elems[0] = {**elems[0], symbol: list(elems[0][symbol])}
        elems[0][symbol][target] += 1
        return real(self, elems)

    monkeypatch.setattr(ClassReducer, "reduce_batch", perturbed)
    with pytest.raises(NonlinearFitError):
        gm_matrix(MovingFamily(ceva().arrangement))


@settings(max_examples=20, deadline=None)
@given(arr=small_arrangements())
@example(arr=ceva().arrangement)
@example(arr=rung("b3"))
@example(arr=rung("a4-braid"))
def test_basis_columns_equal_the_full_closed_form(arr):
    """Reducing, lifting and expanding a basis of each component's local
    lifts gives the connection of the closed form on all N x comps columns,
    symbolic and at numeric weights."""
    for weights in (None, _weight_settings(arr)[0]):
        family = MovingFamily(arr, weights)
        assert gm_matrix(family) == full_closed_form(family)


@pytest.mark.parametrize(
    "family, rhs",
    [
        (lambda: MovingFamily(example1().arrangement), 5),
        (lambda: MovingFamily(ceva().arrangement), 9),
        (generic_p3_family, 9),
    ],
    ids=["example1", "ceva", "generic-p3-numeric"],
)
def test_right_hand_sides_are_the_residue_ranks(monkeypatch, family, rhs):
    """The one class solve takes sum_X rank A_X right-hand sides, one per
    basis column of a component's local lifts, not N x comps."""
    sizes = []
    real = ClassReducer.reduce_batch

    def counting(self, elems):
        sizes.append(len(elems))
        return real(self, elems)

    monkeypatch.setattr(ClassReducer, "reduce_batch", counting)
    family = family()
    conn = gm_matrix(family)
    assert sizes == [rhs]
    *affine, _ = conn.evaluate(family.weights or _weight_settings(family.base)[0])
    assert sum(matrix_rank(residue) for _, residue in affine) == rhs
    assert rhs < conn.size * len(affine)


def test_expansion_rebuilds_every_local_lift():
    """eta_{J,P} = sum_r c_{J,r} eta_{J_r,P} on every component, with the
    basis columns J_r independent."""
    arr = rung("p3-7")
    fiber, components = generic_fiber(arr)
    chart = AffineChart.of(arr)
    forms = [form for form in components if any(chart.affine(form).lin)]
    basis = fiber.fixed_nbc()
    e_inf = ExtElem.monomial((arr.infinity_index,))
    lifts = [boundary(wedge(e_inf, ExtElem.monomial(J))) for J in basis]
    expansions, stencils = _residue_stencils(fiber, forms)
    used = {k for expansion in expansions for terms in expansion for k, _ in terms}
    assert sorted(used) == list(range(len(stencils)))
    for form, expansion in zip(forms, expansions):
        support = {fiber.moving_index} | {
            i for i, plane in enumerate(arr.hyperplanes) if plane.evaluate(form.coeffs) == 0
        }
        local = [
            ExtElem(tuple((t, c) for t, c in eta.terms if support.issuperset(t))) for eta in lifts
        ]
        columns = sorted({k for terms in expansion for k, _ in terms})
        pivots = {k: expansion.index([(k, 1)]) for k in columns}
        for j, terms in enumerate(expansion):
            rebuilt = sum((local[pivots[k]].scale(c) for k, c in terms), ExtElem.zero())
            assert rebuilt == local[j]
        monomials = sorted({t for e in local for t, _ in e.terms})
        rows = [[local[j].coefficient(t) for j in pivots.values()] for t in monomials]
        assert matrix_rank(rows) == len(columns) > 0


def dependent_flats(arr):
    return [f for f in lattice(arr).flats if len(f.support) > f.rank]


@pytest.mark.parametrize("name", RUNGS)
def test_bad_loci_are_the_dependent_flats(name):
    """The flats grown from closed circuits are the lattice's dependent
    flats, also from the fiber's matroid."""
    arr = rung(name)
    assert bad_loci(arr) == dependent_flats(arr)
    assert bad_loci(arr, generic_fiber(arr)[0].matroid) == dependent_flats(arr)


@settings(max_examples=30, deadline=None)
@given(arr=small_arrangements())
def test_lattice_and_bad_loci_of_small_arrangements(arr):
    """The flats grown by integer ranks are those of closing every subset."""
    assert {f.support: f.rank for f in lattice(arr).flats} == brute_force_flats(arr)
    assert bad_loci(arr) == dependent_flats(arr)


# ---------------------------------------------------------------------------
# the rank and trace of each residue from the lattice
# ---------------------------------------------------------------------------

def local_betti(arr) -> dict[tuple[int, ...], int]:
    """|mu(0, X)| for every flat X of ``lattice(arr)``, by support, infinity
    included: mu(0, 0) = 1 and mu(0, X) = -sum of mu(0, Y) over Y < X.  At a
    point P it is b_P, the top Betti number of the central arrangement of
    the hyperplanes through P (Orlik-Terao, *Arrangements of Hyperplanes*)."""
    mu: dict[tuple[int, ...], int] = {}
    for flat in lattice(arr).flats:  # by rank: every Y < X comes first
        support = set(flat.support)
        mu[flat.support] = -sum(m for s, m in mu.items() if set(s) < support) if support else 1
    return {s: abs(m) for s, m in mu.items()}


def point_support(arr, form) -> tuple[int, ...]:
    """The base hyperplanes through the point P of the component ``form``."""
    return tuple(i for i, plane in enumerate(arr.hyperplanes) if plane.evaluate(form.coeffs) == 0)


def lattice_trace_violations(arr, residues, order) -> set[ProjForm]:
    """The components other than h0 whose residue breaks tr A_X = b_P lambda_X.

    lambda_X is the weight sum over the base hyperplanes through P and the
    moving one, with a0 eliminated; ``order`` lists the finite indices
    behind a1..am.  Exact, as an identity in the weights.
    """
    chart = AffineChart.of(arr)
    betti = local_betti(arr)
    symbol = {i: f"a{k}" for k, i in enumerate(order, start=1)}
    symbol[arr.infinity_index] = "a0"
    out = set()
    for form, residue in residues.items():
        if not any(chart.affine(form).lin):
            continue
        through = point_support(arr, form)
        lam = WeightExpr.build(0, {**{symbol[i]: 1 for i in through}, "ah": 1}, len(order))
        trace = sum((residue[i][i] for i in range(len(residue))), WeightExpr.constant(0))
        if trace != lam.scale(betti[through]):
            out.add(form)
    return out


def assert_lattice_oracle(arr):
    """Per component X other than h0, ``_residue_stencils`` reduces b_P
    basis columns, and the residue's trace is b_P lambda_X."""
    fiber, components = generic_fiber(arr)
    chart = AffineChart.of(arr)
    forms = [form for form in components if any(chart.affine(form).lin)]
    expansions, _ = _residue_stencils(fiber, forms)
    betti = local_betti(arr)
    for form, expansion in zip(forms, expansions):
        columns = {k for terms in expansion for k, _ in terms}
        assert len(columns) == betti[point_support(arr, form)]
    conn = gm_matrix(MovingFamily(arr))
    residues = {comp.form: comp.residue for comp in conn.components}
    assert lattice_trace_violations(arr, residues, conn.weight_symbol_order) == set()


@pytest.mark.parametrize("name", RUNGS)
def test_residue_rank_and_trace_from_the_lattice(name):
    assert_lattice_oracle(rung(name))


@settings(max_examples=30, deadline=None)
@given(arr=small_arrangements())
def test_residue_rank_and_trace_from_the_lattice_of_small_arrangements(arr):
    assert_lattice_oracle(arr)


def test_lattice_trace_identity_fails_on_a_perturbed_diagonal(ceva_connection):
    """+1 on one diagonal entry of one component breaks the trace identity
    there and nowhere else."""
    conn = ceva_connection
    bad = with_entries_added(conn, {2: {(1, 1): W(1)}})
    residues = {comp.form: comp.residue for comp in bad.components}
    violations = lattice_trace_violations(ceva().arrangement, residues, conn.weight_symbol_order)
    assert violations == {conn.components[2].form}


@pytest.mark.parametrize("name, count", [("example1", 2), ("ceva", 3)])
def test_lattice_trace_identity_on_the_published_tables(name, count):
    """The published residues break the trace identity on exactly the
    components other than h0 that their erratum names."""
    fixture = {"example1": example1, "ceva": ceva}[name]()
    arr = fixture.arrangement
    chart = AffineChart.of(arr)
    named = {form for form, _, _ in fixture.known_deviations if any(chart.affine(form).lin)}
    assert len(named) == count
    violations = lattice_trace_violations(arr, fixture.residues, arr.finite_indices)
    assert violations == named
