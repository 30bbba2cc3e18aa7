"""Acceptance criteria, one test per criterion (run with -v for the per-criterion lines).

Criteria 3 and 4 compare every entry of the computed connection matrices
exactly against the published tables embedded in ``arrgm.fixtures``, read
through their recorded erratum ``FixtureSet.known_deviations``: each entry
must equal the published value plus its erratum term, and the entries where
computed and published differ must be exactly the erratum's keys.  The
published tables drop the moving weight ``ah`` on those diagonal entries.
The erratum is adjudicated by in-suite oracles: the exact eigenvalue rule
A^2 = lambda_X A of ``test_eigenvalue_rule_oracle``, which every computed
residue satisfies and the published residues break on exactly the erratum's
components, and the n = 1 period oracles (criterion 5 here,
``test_hypergeometric_period_oracle`` in ``tests/test_gaussmanin.py``).

Criterion 8 checks the paper's partial-fraction reduction, which is kept as
a test oracle of the closed form (``reference_partialfrac.py``), not as
library code: 200 random rational forms, each at 3 exact points.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest

from arrgm.arrangement import ProjForm, discriminant, format_linear, validate
from arrgm.aomoto import FiberContext, Weights, cohomology_dims, validate_weights
from arrgm.exactnum import WeightExpr
from arrgm.fixtures import ceva, example1
from arrgm.gaussmanin import MovingFamily, flatness_check, gm_matrix
from arrgm.matroid import MatroidContext
from arrgm.monodromy import monodromy, projector_structure
from arrgm.osalg import ExtElem, OSContext, boundary

from _sampling import RatSampler
from reference_expm import expm_reference, max_gap
from reference_partialfrac import (
    FiberChart, RatForm, WeightPoly, log_comb_evaluate, reduce_rational_form,
)
from reference_poly import to_poly


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} [{label}]: FAIL", file=sys.stderr)
                raise
            elapsed = time.monotonic() - started
            print(
                f"criterion {number} [{label}]: PASS ({elapsed:.2f}s)", file=sys.stderr
            )

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def conn_example1():
    return gm_matrix(MovingFamily(example1().arrangement))


@pytest.fixture(scope="module")
def conn_ceva():
    return gm_matrix(MovingFamily(ceva().arrangement))


@criterion(1, "combinatorics goldens")
def test_criterion_1_combinatorics():
    started = time.monotonic()
    fx = ceva()
    ctx = MatroidContext(fx.arrangement)
    short_circuits = [c.support for c in ctx.circuits() if len(c.support) <= 3]
    assert short_circuits == [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)]
    assert tuple(ctx.nbc_sets(2)) == fx.nbc
    broken = {(b.support, b.princ) for b in ctx.broken_circuits()}
    assert ((2, 5), 1) in broken and ((4, 5), 3) in broken
    os_ctx = OSContext(fx.arrangement, ctx)
    generators = os_ctx.relation_basis()
    elements = {g.subset: g.element for g in generators}
    assert set(elements) == {(1, 3), (2, 4), (2, 5), (4, 5)}
    assert elements[(1, 3)] == ExtElem.monomial((1, 3))
    assert elements[(2, 4)] == ExtElem.monomial((2, 4))
    assert elements[(2, 5)] == boundary(ExtElem.monomial((1, 2, 5)))
    assert elements[(4, 5)] == boundary(ExtElem.monomial((3, 4, 5)))
    assert tuple(MatroidContext(example1().arrangement).nbc_sets(2)) == example1().nbc
    assert time.monotonic() - started < 1.0


@criterion(2, "discriminants")
def test_criterion_2_discriminants():
    started = time.monotonic()
    got1 = discriminant(example1().arrangement)
    assert len(got1) == 6 and set(got1) == set(example1().discriminant)
    got2 = discriminant(ceva().arrangement)
    assert len(got2) == 7 and set(got2) == set(ceva().discriminant)
    assert time.monotonic() - started < 1.0


def _connection_mismatches(fixture, conn) -> list[str]:
    """Entries where the computed connection differs from the published
    tables read through their erratum ``fixture.known_deviations``.

    Every entry is compared exactly against ``published + erratum``, and the
    entries where computed and published differ must be exactly the
    erratum's keys, so a new deviation and an erratum entry that no longer
    deviates are both reported.
    """
    names = [f"h{i}" for i in range(fixture.arrangement.n + 1)]
    zero = WeightExpr.constant(0)
    lines = []
    deviating, reported = set(), set()
    for comp in conn.components:
        label = format_linear(comp.form.coeffs, names)
        published = fixture.residues.get(comp.form)
        if published is None:
            lines.append(f"component {label} missing")
            continue
        for i in range(conn.size):
            for j in range(conn.size):
                computed = comp.residue[i][j]
                erratum = fixture.known_deviations.get((comp.form, i, j), zero)
                if computed != published[i][j]:
                    deviating.add((comp.form, i, j))
                if computed != published[i][j] + erratum:
                    reported.add((comp.form, i, j))
                    lines.append(
                        f"{label}[{i + 1}][{j + 1}]: computed {computed} vs "
                        f"published {published[i][j]} + erratum {erratum}"
                    )
    # a deviation without an erratum entry is reported above; what is left
    # is an erratum entry that is zero or names no entry of the connection
    for form, i, j in sorted(
        set(fixture.known_deviations) - deviating - reported,
        key=lambda key: (key[0].coeffs, key[1], key[2]),
    ):
        lines.append(
            f"{format_linear(form.coeffs, names)}[{i + 1}][{j + 1}]: "
            "has an erratum entry but does not deviate"
        )
    return lines


def _erratum_message(fixture, mismatches: list[str]) -> str:
    return (
        f"computed connection of {fixture.name} disagrees with the published "
        f"tables read through FixtureSet.known_deviations on {len(mismatches)} "
        "entries (the erratum is adjudicated by test_eigenvalue_rule_oracle):\n  "
        + "\n  ".join(mismatches)
    )


@criterion(3, "connection matrix, example1 vs published tables")
def test_criterion_3_gauss_manin_example1():
    started = time.monotonic()
    conn = gm_matrix(MovingFamily(example1().arrangement))
    assert time.monotonic() - started < 30.0
    assert conn.basis == example1().nbc
    mismatches = _connection_mismatches(example1(), conn)
    assert not mismatches, _erratum_message(example1(), mismatches)


@criterion(4, "connection matrix, ceva vs published columns")
def test_criterion_4_gauss_manin_ceva():
    started = time.monotonic()
    conn = gm_matrix(MovingFamily(ceva().arrangement))
    assert time.monotonic() - started < 300.0
    assert conn.basis == ceva().nbc
    mismatches = _connection_mismatches(ceva(), conn)
    assert not mismatches, _erratum_message(ceva(), mismatches)


def _eigenvalue_rule_violations(arrangement, residues, h0, drop_ah: bool = False):
    """Components whose residue breaks the eigenvalue rule A^2 = lambda_X A.

    The component with form c is the locus where the moving hyperplane
    passes through the point X = [c]; lambda_X is ``ah`` plus the weights of
    the fixed hyperplanes through X, the infinity weight counting as
    a0 = -(ah + sum a_i) (Cohen-Orlik, Gauss-Manin connections for
    arrangements I: Eigenvalues).  The h0 residue is first shifted by
    ``ah`` * I: the residue-sum rule normalizes sum_p A_p = 0, while the
    periods are homogeneous of degree ``ah`` in h.  ``drop_ah`` sets
    ``ah`` = 0 in lambda_X and in the shift.  Checked exactly, as
    polynomial identities in the weights; a zero residue, which would pass
    vacuously, is an error.
    """
    nweights = len(arrangement.finite_indices)
    zero = WeightExpr.constant(0)
    violations = set()
    for form, matrix in residues.items():
        through = {
            "a0" if i == arrangement.infinity_index else f"a{i}": 1
            for i, hyperplane in enumerate(arrangement.hyperplanes)
            if hyperplane.evaluate(form.coeffs) == 0
        }
        lam = WeightExpr.build(0, {**through, "ah": 1}, nweights)
        shift = WeightExpr.symbol("ah") if form == h0 else zero
        if drop_ah:
            lam = WeightExpr.make(lam.const, {s: c for s, c in lam.coeffs if s != "ah"})
            shift = zero
        size = len(matrix)
        a = [
            [to_poly(matrix[i][j] + shift if i == j else matrix[i][j]) for j in range(size)]
            for i in range(size)
        ]
        assert any(not entry.is_zero for row in a for entry in row)
        lam_a = [[to_poly(lam) * entry for entry in row] for row in a]
        square = [
            [sum((a[i][k] * a[k][j] for k in range(size)), WeightPoly.zero()) for j in range(size)]
            for i in range(size)
        ]
        if square != lam_a:
            violations.add(form)
    return violations


@pytest.mark.parametrize("name", ["example1", "ceva"])
def test_eigenvalue_rule_oracle(name, request):
    """Exact adjudication of the erratum behind criteria 3 and 4: every
    computed residue obeys the eigenvalue rule, and the published residues
    break it on exactly the components that carry a recorded deviation (and
    obey it once the moving weight ``ah`` is dropped from the rule)."""
    fixture = {"example1": example1, "ceva": ceva}[name]()
    conn = request.getfixturevalue(f"conn_{name}")
    arr = fixture.arrangement
    h0 = conn.components[-1].form
    computed = {comp.form: comp.residue for comp in conn.components}
    assert set(computed) == set(fixture.residues) == set(fixture.discriminant)
    assert _eigenvalue_rule_violations(arr, computed, h0) == set()
    erratum_components = {form for form, _, _ in fixture.known_deviations}
    assert len(erratum_components) == {"example1": 3, "ceva": 4}[name]
    assert _eigenvalue_rule_violations(arr, fixture.residues, h0) == erratum_components
    assert _eigenvalue_rule_violations(arr, fixture.residues, h0, drop_ah=True) == set()


@criterion(5, "independent period oracle, n = 1")
def test_criterion_5_period_oracle():
    mpmath = pytest.importorskip("mpmath")
    started = time.monotonic()
    arr = validate([ProjForm.make([1, 0]), ProjForm.make([0, 1])], 0)
    conn = gm_matrix(MovingFamily(arr))
    # symbolic connection: -a1 dlog l + a1 dlog h0
    assert [c.form for c in conn.components] == [ProjForm.make([0, 1]), ProjForm.make([1, 0])]
    assert conn.components[0].residue == ((WeightExpr.make(0, {"a1": -1}),),)
    assert conn.components[1].residue == ((WeightExpr.make(0, {"a1": 1}),),)

    a1, ah = F(1, 3), F(-1, 5)
    entry = conn.components[0].residue[0][0].evaluate({"a1": a1, "ah": ah})

    mp = mpmath.mp
    old = mp.dps
    mp.dps = 25
    try:
        fa1, fah = mpmath.mpf(1) / 3, mpmath.mpf(-1) / 5

        def period(l):
            # cycle from x = 0 to x = -1/l, parametrized x = -t/l
            return mpmath.quad(
                lambda t: (t / l) ** fa1 * (1 - t) ** fah / t, [0, 1]
            )

        l0 = mpmath.mpf(2)
        h = mpmath.mpf("1e-5")
        dlog = (mpmath.log(period(l0 + h)) - mpmath.log(period(l0 - h))) / (2 * h)
        predicted = mpmath.mpf(entry.numerator) / entry.denominator / l0
        assert abs(dlog - predicted) <= 1e-6 * abs(dlog)
    finally:
        mp.dps = old
    assert time.monotonic() - started < 10.0


def _random_generic_weights(fixture, sampler: RatSampler) -> Weights:
    finite = fixture.arrangement.finite_indices
    from arrgm.arrangement import bad_loci

    flats = bad_loci(fixture.arrangement)
    while True:
        values = {i: sampler.rational(9, 11) for i in finite}
        ah = sampler.rational(9, 11)
        w = Weights.make(values, ah)
        if ah == 0:
            continue
        if validate_weights(fixture.arrangement, w, bad_flats=flats).ok:
            return w


@criterion(6, "structural invariants")
def test_criterion_6_structural_invariants(conn_example1, conn_ceva):
    for fixture, conn in ((example1(), conn_example1), (ceva(), conn_ceva)):
        started = time.monotonic()
        # residue matrices sum to zero
        zero = WeightExpr.constant(0)
        for i in range(conn.size):
            for j in range(conn.size):
                total = zero
                for comp in conn.components:
                    total = total + comp.residue[i][j]
                assert total == zero
        # flatness: exact for both connections
        report = flatness_check(conn, fixture.arrangement)
        assert report.ok, report.witness
        # boundary squares to zero on random elements
        sampler = RatSampler(101 + conn.size)
        for _ in range(5):
            terms = {}
            for _ in range(4):
                size = sampler.integer(1, 4)
                tup = tuple(sorted(set(sampler.integer(1, 9) for _ in range(size))))
                terms[tup] = sampler.rational(9, 4)
            assert boundary(boundary(ExtElem.make(terms))).is_zero
        # normal form idempotence
        ctx = OSContext(fixture.arrangement)
        pairs = list(itertools.combinations(fixture.arrangement.finite_indices, 2))
        for _ in range(5):
            elem = ExtElem.make(
                {p: sampler.rational(9, 4) for p in pairs if sampler.integer(0, 1)}
            )
            once = ctx.normal_form(elem)
            assert ctx.normal_form(once) == once
        # relation-count identity
        import math

        m = len(fixture.arrangement.finite_indices)
        n = fixture.arrangement.n
        assert len(ctx.relation_basis()) == math.comb(m, n) - len(fixture.nbc)
        # twisted cohomology dimensions at 10 random generic weight settings
        fiber = FiberContext(fixture.arrangement, [F(9, 2), F(13, 3)])
        for _ in range(10):
            w = _random_generic_weights(fixture, sampler)
            dims = cohomology_dims(fiber, w)
            assert dims == [0] * n + [len(fixture.nbc)]
        assert time.monotonic() - started < 60.0


@criterion(7, "monodromy closed forms on the published residues")
def test_criterion_7_monodromy():
    started = time.monotonic()
    fx = example1()
    assignment = {
        "a1": F(1, 3), "a2": F(1, 7), "a3": F(1, 5), "ah": F(-1, 2),
    }
    for form, matrix in fx.residues.items():
        trace = projector_structure(matrix)
        assert trace is not None
        assert trace == fx.traces[form]
        closed = monodromy(matrix, assignment)
        numeric = expm_reference(matrix, assignment)
        assert max_gap(closed.matrix, numeric) <= 1e-12
        det = np.linalg.det(np.array(closed.matrix))
        expected = np.exp(-2j * np.pi * float(trace.evaluate(assignment)))
        assert abs(det - expected) <= 1e-9
    assert time.monotonic() - started < 5.0


@criterion(8, "randomized reduction oracle")
def test_criterion_8_reduction_oracle():
    started = time.monotonic()
    chart = FiberChart(FiberContext(example1().arrangement, [F(2), F(3)]))
    sampler = RatSampler(0xBEEF)
    finite = chart.fiber.finite_indices
    n = chart.n
    checked = 0
    while checked < 200:
        size = sampler.integer(n, len(finite))
        poles = set()
        while len(poles) < size:
            poles.add(finite[sampler.integer(0, len(finite) - 1)])
        poles = tuple(sorted(poles))
        max_degree = size - n
        terms = {}
        for e1 in range(max_degree + 1):
            for e2 in range(max_degree + 1 - e1):
                if sampler.integer(0, 2) == 0:
                    continue
                mono = tuple(
                    (sym, e) for sym, e in (("x1", e1), ("x2", e2)) if e > 0
                )
                terms[mono] = sampler.rational(9, 5)
        numerator = WeightPoly.make(terms)
        if numerator.is_zero:
            continue
        form = RatForm.make(numerator, poles)
        reduced = reduce_rational_form(form, chart)
        points = 0
        while points < 3:
            point = (sampler.rational(30, 7), sampler.rational(30, 7))
            if any(chart.affine[i].evaluate(point) == 0 for i in finite):
                continue
            assert form.evaluate(chart, point) == log_comb_evaluate(
                chart, reduced, point
            )
            points += 1
        checked += 1
    assert time.monotonic() - started < 30.0
