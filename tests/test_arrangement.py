"""Arrangements: validation, coning, lattice, bad loci, discriminant."""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import pytest

from arrgm.arrangement import (
    AffineChart,
    AffineForm,
    ProjForm,
    bad_loci,
    cone,
    discriminant,
    lattice,
    validate,
)
from arrgm.errors import DuplicateHyperplaneError, LeadingFrameError
from arrgm.exactnum import determinant, matrix_rank, nullspace
from arrgm.fixtures import ceva, example1

from _ladder import RUNGS, rung


def P(*coeffs):
    return ProjForm.make(list(coeffs))


class TestProjForm:
    def test_normalization(self):
        assert ProjForm.make([F(1, 2), F(-1, 2)]).coeffs == (1, -1)
        assert ProjForm.make([-2, 2, 0]).coeffs == (1, -1, 0)
        assert ProjForm.make([0, F(2, 3), F(4, 3)]).coeffs == (0, 1, 2)

    def test_proportional_forms_coincide(self):
        assert ProjForm.make([3, -6]) == ProjForm.make([F(-1, 2), 1])


class TestValidate:
    def test_ceva_is_valid(self):
        arr = ceva().arrangement
        assert arr.n == 2 and arr.size == 6 and arr.infinity_index == 0

    def test_duplicate_detected(self):
        with pytest.raises(DuplicateHyperplaneError) as info:
            validate([P(0, 1, 0), P(0, 2, 0), P(1, 0, 0)], 0)
        assert (info.value.first, info.value.second) == (0, 1)

    def test_leading_frame_dependent(self):
        with pytest.raises(LeadingFrameError):
            validate([P(1, 0, 0), P(0, 1, 0), P(1, 1, 0)], 0)

    def test_json_round_trip(self):
        arr = example1().arrangement
        from arrgm.arrangement import Arrangement

        assert Arrangement.from_json(arr.to_json()) == arr


class TestConeDecone:
    def test_affine_ceva_cones_to_projective_ceva(self):
        affine = [
            AffineForm.make(0, [1, 0]),   # x1
            AffineForm.make(0, [0, 1]),   # x2
            AffineForm.make(-1, [1, 0]),  # x1 - 1
            AffineForm.make(-1, [0, 1]),  # x2 - 1
            AffineForm.make(0, [1, -1]),  # x1 - x2
        ]
        coned = cone(2, affine)
        assert coned.hyperplanes == ceva().arrangement.hyperplanes
        assert coned.infinity_index == 0

    def test_single_line(self):
        coned = cone(1, [AffineForm.make(0, [1])])
        assert [h.coeffs for h in coned.hyperplanes] == [(1, 0), (0, 1)]

    def test_round_trip_example1(self):
        affine = [
            AffineForm.make(0, [1, 0]),
            AffineForm.make(0, [0, 1]),
            AffineForm.make(1, [1, 1]),
        ]
        coned = cone(2, affine)
        chart = AffineChart.of(coned)
        again = [chart.affine(coned.hyperplanes[i]) for i in coned.finite_indices]
        assert [(f.constant, f.lin) for f in again] == [
            (F(0), (F(1), F(0))),
            (F(0), (F(0), F(1))),
            (F(1), (F(1), F(1))),
        ]

    def test_chart_round_trip_with_infinity_elsewhere(self):
        # infinity is z2 = 0, so the chart sets z2 = 1 and keeps (z0, z1)
        arr = validate([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(1, 2, -3)], 2)
        chart = AffineChart.of(arr)
        assert chart.drop == 2
        assert chart.affine(P(1, 2, -3)) == AffineForm.make(-3, [1, 2])
        for h in arr.hyperplanes:
            assert chart.projective(chart.affine(h)) == h


def brute_force_flats(arr):
    """Independent oracle: close every subset of hyperplanes directly."""
    from arrgm.exactnum import nullspace

    seen = {}
    for r in range(arr.size + 1):
        for subset in itertools.combinations(range(arr.size), r):
            rows = arr.form_rows(subset)
            kernel = nullspace(rows) if subset else None
            if subset and not kernel:
                continue
            if subset:
                closed = tuple(
                    i
                    for i in range(arr.size)
                    if all(arr.hyperplanes[i].evaluate(v) == 0 for v in kernel)
                )
                rank = arr.n + 1 - len(kernel)
            else:
                closed, rank = (), 0
            seen[closed] = rank
    return seen


class TestLattice:
    def test_ceva_levels(self):
        arr = ceva().arrangement
        lat = lattice(arr)
        rank2 = lat.level(2)
        triples = sorted(f.support for f in rank2 if len(f.support) == 3)
        doubles = sorted(f.support for f in rank2 if len(f.support) == 2)
        assert triples == [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)]
        assert len(doubles) == 3
        assert len(lat.level(1)) == 6 and len(lat.level(0)) == 1

    def test_matches_brute_force_on_fixtures(self):
        for arr in (ceva().arrangement, example1().arrangement):
            expected = brute_force_flats(arr)
            lat = lattice(arr)
            got = {f.support: f.rank for f in lat.flats}
            assert got == expected

    def test_boolean_simplex(self):
        arr = validate([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)], 0)
        lat = lattice(arr)
        assert sorted(f.support for f in lat.level(2)) == [(0, 1), (0, 2), (1, 2)]
        assert len(lat.flats) == 1 + 3 + 3

    def test_single_hyperplane(self):
        arr = validate([P(1, 0)], 0)
        assert [f.support for f in lattice(arr).flats] == [(), (0,)]

    def test_supports_are_closed(self):
        """Each support is every hyperplane through the flat: the forms
        that vanish on the kernel of the support's forms."""
        for arr in (ceva().arrangement, example1().arrangement):
            for flat in lattice(arr).flats:
                if not flat.support:
                    continue
                kernel = nullspace(arr.form_rows(flat.support))
                recomputed = [
                    i
                    for i in range(arr.size)
                    if all(arr.hyperplanes[i].evaluate(v) == 0 for v in kernel)
                ]
                assert tuple(recomputed) == flat.support

    def test_jordan_dedekind(self):
        """All maximal chains between comparable flats have length = rank difference."""
        arr = ceva().arrangement
        lat = lattice(arr)
        children = {}
        for lower, upper in lat.covers:
            children.setdefault(lower, []).append(upper)

        def chain_lengths(i, j):
            if i == j:
                return {0}
            out = set()
            for mid in children.get(i, []):
                sup_mid = set(lat.flats[mid].support)
                if sup_mid <= set(lat.flats[j].support):
                    out |= {1 + length for length in chain_lengths(mid, j)}
            return out

        for i, low in enumerate(lat.flats):
            for j, high in enumerate(lat.flats):
                if i == j or not set(low.support) < set(high.support):
                    continue
                lengths = chain_lengths(i, j)
                assert lengths == {high.rank - low.rank}


class TestBadLoci:
    def test_ceva_triple_points(self):
        flats = bad_loci(ceva().arrangement)
        assert sorted(f.support for f in flats) == [
            (0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5),
        ]

    def test_example1_normal_crossings(self):
        assert bad_loci(example1().arrangement) == []

    def test_boolean_empty(self):
        arr = validate([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)], 0)
        assert bad_loci(arr) == []

    def test_characterization(self):
        for arr in (ceva().arrangement, example1().arrangement):
            bad = {f.support for f in bad_loci(arr)}
            for flat in lattice(arr).flats:
                assert (flat.support in bad) == (len(flat.support) > flat.rank)


class TestDiscriminant:
    def test_example1(self):
        comps = discriminant(example1().arrangement)
        assert set(comps) == set(example1().discriminant)
        assert len(comps) == 6

    def test_ceva(self):
        comps = discriminant(ceva().arrangement)
        assert set(comps) == set(ceva().discriminant)
        assert len(comps) == 7

    def test_moving_point_on_line(self):
        arr = validate([P(1, 0), P(0, 1)], 0)
        comps = discriminant(arr)
        assert set(comps) == {P(1, 0), P(0, 1)}

    def test_components_vanish_exactly_at_degenerations(self):
        """Sampling check: component f vanishes at h iff the moving hyperplane
        through h contains the corresponding intersection point."""
        arr = example1().arrangement
        comps = discriminant(arr)
        points = []
        for subset in itertools.combinations(range(arr.size), arr.n):
            rows = arr.form_rows(subset)
            if matrix_rank(rows) < arr.n:
                continue
            from arrgm.exactnum import nullspace

            points.append(nullspace(rows)[0])
        for h in [(F(1), F(2), F(3)), (F(1), F(1), F(5)), (F(2), F(-3), F(7))]:
            vanishing = {c for c in comps if c.evaluate(h) == 0}
            hits = {
                ProjFormKey(point)
                for point in points
                if sum((F(a) * b for a, b in zip(h, point)), F(0)) == 0
            }
            assert bool(vanishing) == bool(hits)

    def test_sorted_canonically(self):
        comps = discriminant(ceva().arrangement)
        assert [c.coeffs for c in comps] == sorted(c.coeffs for c in comps)

    def test_scaling_invariance(self):
        base = example1().arrangement
        scaled = validate(
            [ProjForm.make([F(3, 7) * c for c in h.coeffs]) for h in base.hyperplanes],
            base.infinity_index,
        )
        assert discriminant(scaled) == discriminant(base)
        assert [f.support for f in lattice(scaled).flats] == [
            f.support for f in lattice(base).flats
        ]
        assert [f.support for f in bad_loci(scaled)] == [
            f.support for f in bad_loci(base)
        ]


def signed_minor_discriminant(arr):
    """Reference: the (n+1) x (n+1) determinant of each independent n-subset's
    rows stacked with the symbolic dual row, expanded along that row."""
    n = arr.n
    out = set()
    for subset in itertools.combinations(range(arr.size), n):
        rows = arr.form_rows(subset)
        if matrix_rank(rows) < n:
            continue
        coeffs = [
            (-1) ** (n + k) * determinant([[row[j] for j in range(n + 1) if j != k] for row in rows])
            for k in range(n + 1)
        ]
        out.add(ProjForm.make(coeffs))
    return sorted(out, key=lambda f: f.coeffs)


@pytest.mark.parametrize("name", RUNGS)
def test_discriminant_matches_signed_minors(name):
    arr = rung(name)
    assert discriminant(arr) == signed_minor_discriminant(arr)


def ProjFormKey(point):
    return ProjForm.make(list(point)).coeffs
