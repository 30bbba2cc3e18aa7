"""The integral layers against brute force: circuits, the pruned matroid
walk, its discriminant and its extension to the fiber, codimension-2 flats,
Orlik-Solomon normal forms, the symbolic connection in integers, the
residue stencils against the ``ExtElem`` route, and flatness on the
residues' rank-r factors."""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings

from arrgm import gaussmanin
from arrgm.aomoto import ClassReducer
from arrgm.arrangement import AffineChart, AffineForm, ProjForm, discriminant
from arrgm.exactnum import (
    WeightExpr, first_nonzero_quadratic, integer_coefficients, matrix_rank, nullspace,
)
from arrgm.fixtures import ceva
from arrgm.gaussmanin import (
    GMComponent, GMConnection, MovingFamily, _codim2_flats, _commutes_with, _factors,
    _pair_commutes, _residue_stencils, flatness_check, generic_fiber, gm_matrix,
)
from arrgm.matroid import MatroidContext
from arrgm.osalg import ExtElem, OSContext

from _ladder import RUNGS, rung
from reference_poly import poly_flatness_check
from reference_stencils import residue_stencils
from test_arrangement import signed_minor_discriminant
from test_gaussmanin import (
    generic, local_betti, point_support, small_arrangements, symbolic_connection,
    with_entries_added,
)


def brute_force_circuits(arr):
    """Minimal dependent subsets by Bareiss ranks, with the normalized kernel
    of their forms as columns."""
    out = []
    for size in range(1, min(arr.size, arr.n + 2) + 1):
        for subset in itertools.combinations(range(arr.size), size):
            if matrix_rank(arr.form_rows(subset)) == size:
                continue
            if any(
                matrix_rank(arr.form_rows(smaller)) < size - 1
                for smaller in itertools.combinations(subset, size - 1)
            ):
                continue
            (kernel,) = nullspace([list(col) for col in zip(*arr.form_rows(subset))])
            out.append((subset, tuple(x / kernel[0] for x in kernel), arr.infinity_index in subset))
    return out


@settings(max_examples=40, deadline=None)
@given(arr=small_arrangements())
@example(arr=rung("b3"))
@example(arr=rung("a4-braid"))
@example(arr=ceva().arrangement)
def test_circuits_are_the_minimal_dependent_subsets(arr):
    """The fundamental circuits are every circuit once, with the kernel of
    its forms as the dependency, and every rank the walk cached is exact."""
    ctx = MatroidContext(arr)
    found = [(c.support, c.dependency, c.contains_infinity) for c in ctx.circuits()]
    assert found == brute_force_circuits(arr)
    assert all(type(x) is F for c in ctx.circuits() for x in c.dependency)
    for subset, rank in ctx._rank_cache.items():
        assert rank == (matrix_rank(arr.form_rows(subset)) if subset else 0)


def contained_broken(broken_circuits, subset, order_key):
    """The broken circuit in ``subset`` with the least princ, the first of the
    listing among equals."""
    found = None
    for broken in broken_circuits:
        if set(broken.support) <= set(subset):
            if found is None or order_key(broken.princ) < order_key(found.princ):
                found = broken
    return found


@settings(max_examples=40, deadline=None)
@given(arr=small_arrangements())
@example(arr=rung("b3"))
@example(arr=rung("a4-braid"))
@example(arr=ceva().arrangement)
def test_pruned_walk_answers_before_the_full_listing(arr):
    """The walk stops at independent sets of n forms, yet before the circuits
    of n + 2 forms are first listed it has every circuit of at most n + 1
    forms, exact ranks, and the broken circuits of every set that is
    independent with infinity; the full listing is unchanged."""
    ctx = MatroidContext(arr)
    brute = brute_force_circuits(arr)
    small = [(c.support, c.dependency, c.contains_infinity) for c in ctx.small_circuits()]
    assert small == [c for c in brute if len(c[0]) <= arr.n + 1]
    for subset, rank in ctx._rank_cache.items():
        assert rank == (matrix_rank(arr.form_rows(subset)) if subset else 0)
    inf, finite = arr.infinity_index, arr.finite_indices
    independent = [
        subset
        for p in range(arr.n + 1)
        for subset in itertools.combinations(finite, p)
        if matrix_rank(arr.form_rows((inf, *subset))) == p + 1
    ]
    found = {subset: ctx.broken_in(subset) for subset in independent}
    assert ctx._circuits is None
    full = ctx.broken_circuits()
    for subset, broken in found.items():
        assert broken == contained_broken(full, subset, ctx.order_key)
    assert [(c.support, c.dependency, c.contains_infinity) for c in ctx.circuits()] == brute


@settings(max_examples=40, deadline=None)
@given(arr=small_arrangements())
@example(arr=rung("b3"))
@example(arr=rung("a4-braid"))
def test_discriminant_matches_signed_minors(arr):
    """The walk's points are the components of the signed-minor reference,
    each listed with exactly the hyperplanes that vanish on it."""
    ctx = MatroidContext(arr)
    assert discriminant(arr, ctx) == signed_minor_discriminant(arr)
    assert discriminant(arr) == signed_minor_discriminant(arr)
    for point, support in ctx.points().items():
        assert support == tuple(
            i for i, plane in enumerate(arr.hyperplanes) if plane.evaluate(point) == 0
        )


@settings(max_examples=40, deadline=None)
@given(arr=small_arrangements())
@example(arr=rung("b3"))
@example(arr=rung("a4-braid"))
@example(arr=ceva().arrangement)
def test_fiber_matroid_extends_the_base_walk(arr):
    """The base context that ``generic_fiber`` extends by the moving
    hyperplane agrees with a fresh context of the fiber on every rank, point,
    circuit, broken circuit and nbc set."""
    fiber, _ = generic_fiber(arr)
    extended, fresh = fiber.matroid, MatroidContext(fiber.arr)
    assert extended.arr is fiber.arr
    for size in range(fiber.arr.size + 1):
        for subset in itertools.combinations(range(fiber.arr.size), size):
            assert extended.rank_of(subset) == fresh.rank_of(subset)
    for subset, rank in extended._rank_cache.items():
        assert rank == (matrix_rank(fiber.arr.form_rows(subset)) if subset else 0)
    assert extended.points() == fresh.points()
    assert extended.circuits() == fresh.circuits()
    assert extended.broken_circuits() == fresh.broken_circuits()
    for p in range(arr.n + 2):
        assert extended.nbc_sets(p) == fresh.nbc_sets(p)


@settings(max_examples=40, deadline=None)
@given(arr=small_arrangements())
@example(arr=rung("b3"))
@example(arr=rung("a4-braid"))
def test_codim2_flats_are_the_rank_two_closures(arr):
    """The flats bucketed in integers are the closures of every pair, in
    lexicographic order."""
    forms = discriminant(arr)
    closures = {
        tuple(r for r, form in enumerate(forms)
              if matrix_rank([forms[i].coeffs, forms[j].coeffs, form.coeffs]) == 2)
        for i, j in itertools.combinations(range(len(forms)), 2)
    }
    assert _codim2_flats(forms) == sorted(closures)


@settings(max_examples=30, deadline=None)
@given(arr=small_arrangements())
@example(arr=rung("b3"))
@example(arr=rung("a4-braid"))
def test_normal_forms_of_integer_elements_are_integral(arr):
    """The nbc monomials are a Z-basis: every integer element has an
    integer normal form, supported on the nbc sets."""
    os_ctx = OSContext(arr)
    finite = arr.finite_indices
    for p in range(1, arr.n + 1):
        monomials = list(itertools.combinations(finite, p))
        element = ExtElem.make({t: 2 * k - 3 for k, t in enumerate(monomials)})
        nbc = set(os_ctx.matroid.nbc_sets(p))
        for e in (element, *(ExtElem.monomial(t) for t in monomials)):
            form = os_ctx.normal_form(e)
            assert all(type(c) is int for _, c in form.terms)
            assert {t for t, _ in form.terms} <= nbc


# ---------------------------------------------------------------------------
# the symbolic connection in integers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["example1", "ceva", "p2-6", "p3-6", "b3", "a4-braid"])
def test_symbolic_pipeline_stays_in_integers(monkeypatch, name):
    """Every stencil and expansion coefficient, every image entry and every
    lifted class coefficient of symbolic ``gm_matrix`` is an ``int``; the
    one ``Fraction`` per output term appears only in the residues."""
    seen = {}

    def recording(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            seen[name] = (args, result := real(*args))
            return result

        monkeypatch.setattr(module, name, wrapper)

    recording(gaussmanin, "_residue_stencils")
    recording(ClassReducer, "reduce_batch")
    conn = gm_matrix(MovingFamily(rung(name)))
    _, (expansions, stencils) = seen["_residue_stencils"]
    (_, images), lifted = seen["reduce_batch"]
    numbers = [
        *(c for expansion in expansions for terms in expansion for _, c in terms),
        *(c for stencil in stencils for *_, c in stencil),
        *(x for blocks in images for image in blocks.values() for x in image),
        *(c for column in lifted for coeffs in column.values() for c in coeffs.values()),
    ]
    assert numbers and all(type(x) is int for x in numbers)
    entries = [e for comp in conn.components for row in comp.residue for e in row]
    assert all(type(c) is F for e in entries for _, c in e.coeffs)


def assert_stencils_match_the_oracle(arr):
    """Every expansion and stencil of the affine components, and of h0 on
    its own, equals that of the ``ExtElem`` route."""
    fiber, components = generic_fiber(arr)
    chart = AffineChart.of(arr)
    forms = [form for form in components if any(chart.affine(form).lin)]
    h0 = chart.projective(AffineForm.make(1, [0] * arr.n))
    for chosen in (forms, [h0]):
        expansions, stencils = _residue_stencils(fiber, chosen)
        assert stencils and all(stencils)
        assert (expansions, stencils) == residue_stencils(fiber, chosen)


@pytest.mark.parametrize("name", ["example1", "ceva", "b3", "a4-braid", "p3-7"])
def test_stencils_equal_the_extelem_oracle(name):
    assert_stencils_match_the_oracle(rung(name))


@settings(max_examples=30, deadline=None)
@given(arr=small_arrangements())
def test_stencils_of_small_arrangements_equal_the_extelem_oracle(arr):
    assert_stencils_match_the_oracle(arr)


# ---------------------------------------------------------------------------
# flatness on rank-r factors
# ---------------------------------------------------------------------------

def W(const=0, **coeffs):
    return WeightExpr.make(F(const), {k: F(v) for k, v in coeffs.items()})


def factors_of(conn):
    """The factors of each residue of ``conn`` but the last, as ``flatness_check`` takes them."""
    return [_factors(r) for r in integer_coefficients([c.residue for c in conn.components])[:-1]]


@pytest.mark.parametrize("name", RUNGS)
def test_factors_rebuild_each_residue_at_its_local_betti_rank(name):
    """For every residue but h0 and every symbol k, delta A^(k) = B^(k) E
    exactly, row l of E is delta at its pivot P_l and 0 at the other
    pivots, and E has b_P = |mu(0, P)| rows, P the component's point."""
    conn, arr = symbolic_connection(name), rung(name)
    betti = local_betti(arr)
    residues = integer_coefficients([c.residue for c in conn.components])
    for comp, residue in zip(conn.components[:-1], residues):
        delta, pivots, rows, b = _factors(residue)
        assert len(pivots) == len(rows) == betti[point_support(arr, comp.form)]
        assert [[e.get(p, 0) for p in pivots] for e in rows] == [
            [delta * (l == m) for m in range(len(pivots))] for l in range(len(pivots))
        ]
        for k, a in residue.items():
            rebuilt = [{} for _ in a]
            for column, e in zip(b[k], rows):
                for r, x in column.items():
                    for t, v in e.items():
                        rebuilt[r][t] = rebuilt[r].get(t, 0) + x * v
            assert [{t: v for t, v in row.items() if v} for row in rebuilt] == [
                {t: delta * v for t, v in row.items()} for row in a
            ]


def commuting_rank_one_pair(conn):
    """A pair flat {p, q} of two rank-one residues of ``conn``, h0 not in it."""
    factors = factors_of(conn)
    ranks = [len(pivots) for _, pivots, _, _ in factors]
    flats = _codim2_flats([c.form for c in conn.components])
    return next(
        f for f in flats if len(f) == 2 and f[1] < len(ranks) and ranks[f[0]] == ranks[f[1]] == 1
    )


@pytest.mark.parametrize("name", ["example1", "p2-6"])
def test_rank_one_pair_made_non_commuting_fails_as_the_oracle(name):
    """A_p + a1 e_r c_p^T keeps rank one, and with c_q[r] != 0 the pair
    {p, q} no longer commutes: the pair test that certified it rejects it,
    and the witness is that of the polynomial oracle."""
    conn, base = symbolic_connection(name), rung(name)
    p, q = commuting_rank_one_pair(conn)
    factors = factors_of(conn)
    (c_p,), (c_q,) = factors[p][2], factors[q][2]
    r = min(c_q)
    bad = with_entries_added(conn, {p: {(r, j): W(a1=v) for j, v in c_p.items()}})
    bad_p = _factors(integer_coefficients([bad.components[p].residue])[0])
    assert len(bad_p[1]) == 1
    assert _pair_commutes(factors[p], factors[q]) and not _pair_commutes(bad_p, factors[q])
    report = flatness_check(bad, base)
    assert not report.ok
    assert report == poly_flatness_check(bad, base)


@pytest.mark.parametrize("name", ["ceva", "b3"])
def test_rank_two_residue_made_non_commuting_fails_as_the_oracle(name):
    """A_p + a1 e_r E_0, r the second pivot of a rank-2 residue A_p, keeps
    its rows' span and so its two rows of factors, and makes the connection
    curved; the report, witness included, is that of the polynomial oracle."""
    conn, base = symbolic_connection(name), rung(name)
    factors = factors_of(conn)
    p = next(p for p, (_, pivots, _, _) in enumerate(factors) if len(pivots) == 2)
    _, (_, r), (e, _), _ = factors[p]
    bad = with_entries_added(conn, {p: {(r, j): W(a1=v) for j, v in e.items()}})
    assert len(_factors(integer_coefficients([bad.components[p].residue])[0])[1]) == 2
    report = flatness_check(bad, base)
    assert not report.ok
    assert report == poly_flatness_check(bad, base)


def test_commuting_rank_one_pair_makes_no_quadratic_check(monkeypatch):
    """Two rank-one residues b c^T with c_p . b_q = c_q . b_p = 0 form the
    one flat of P^1; the second is last, so the member test on the first
    certifies the flat without expanding."""
    calls = []
    monkeypatch.setattr(gaussmanin, "first_nonzero_quadratic", lambda *a: calls.append(a))
    zero = W()
    conn = GMConnection(
        ((1,), (2,)),
        (
            GMComponent(ProjForm.make([0, 1]), ((W(a1=1), W(a1=2)), (zero, zero))),
            GMComponent(ProjForm.make([1, 0]), ((zero, W(ah=-2)), (zero, W(ah=1)))),
        ),
        (1, 2),
    )
    base = generic(1, [[1, 1]])
    assert flatness_check(conn, base).ok
    assert poly_flatness_check(conn, base).ok
    assert calls == []


@pytest.mark.parametrize("name", RUNGS)
def test_generic_connections_need_no_quadratic_check(monkeypatch, name):
    """On every rung of the ladder every flat is certified on the factors."""
    calls = []
    monkeypatch.setattr(gaussmanin, "first_nonzero_quadratic", lambda *a: calls.append(a))
    assert flatness_check(symbolic_connection(name), rung(name)).ok
    assert calls == []


@pytest.mark.parametrize("name", ["example1", "ceva", "p2-6", "b3", "a4-braid"])
@pytest.mark.parametrize("delta", [W(1), W(a1=1, ah=-2)], ids=["one", "a1-2ah"])
@pytest.mark.parametrize("moved", ["none", "entry", "scalar"])
def test_rank_one_commutator_test_is_exact(name, delta, moved):
    """For every flat X and every A_p in it, h0 included, ``_commutes_with``
    on the factors of A_p agrees with the expanded [A_p, S_X]: as computed,
    with delta added to the last row's first entry of S_X (which commutes
    with some A_p on p2-6 and with none elsewhere), or with delta I added
    (which commutes with all).  The residues have rank one on example1 and
    p2-6 but for h0, and up to 3 (b3) and 6 (a4-braid) elsewhere."""
    conn = symbolic_connection(name)
    size = conn.size
    for flat in _codim2_flats([c.form for c in conn.components]):
        s_x = [
            [sum((conn.components[q].residue[i][j] for q in flat), W()) for j in range(size)]
            for i in range(size)
        ]
        entries = {"none": [], "entry": [(size - 1, 0)], "scalar": [(i, i) for i in range(size)]}
        for i, j in entries[moved]:
            s_x[i][j] = s_x[i][j] + delta
        for p in flat:
            a_p, total = integer_coefficients([conn.components[p].residue, s_x])
            expected = first_nonzero_quadratic([(1, a_p, total), (-1, total, a_p)], size) is None
            assert _commutes_with(_factors(a_p), total) is expected
