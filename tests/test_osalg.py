"""Exterior algebra, boundary operator, relation basis and normal forms."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as F

from _sampling import RatSampler
from arrgm.exactnum import matrix_rank
from arrgm.fixtures import ceva, example1
from arrgm.osalg import ExtElem, OSContext, boundary


def E(*indices, c=1):
    return ExtElem.monomial(indices, c)


class TestBoundary:
    def test_three_factor_signs(self):
        assert boundary(E(1, 2, 5)) == E(2, 5) - E(1, 5) + E(1, 2)

    def test_single_factor(self):
        assert boundary(E(1)) == ExtElem.monomial(())

    def test_square_zero_fixed(self):
        assert boundary(boundary(E(1, 2, 3, 4))).is_zero

    def test_square_zero_random(self):
        sampler = RatSampler(3)
        for _ in range(10):
            terms = {}
            for _ in range(4):
                size = sampler.integer(1, 4)
                tup = tuple(sorted(set(sampler.integer(1, 8) for _ in range(size))))
                terms[tup] = sampler.rational(9, 4)
            elem = ExtElem.make(terms)
            assert boundary(boundary(elem)).is_zero

    def test_linear(self):
        a, b = E(1, 3), E(2, 4)
        combined = boundary(a.scale(F(2, 3)) + b.scale(-5))
        assert combined == boundary(a).scale(F(2, 3)) + boundary(b).scale(-5)


class TestRelationBasis:
    def test_ceva_level2(self):
        generators = OSContext(ceva().arrangement).relation_basis()
        by_kind = {}
        for g in generators:
            by_kind.setdefault(g.kind, []).append(g)
        assert sorted(g.subset for g in by_kind["dependent"]) == [(1, 3), (2, 4)]
        boundary_elems = {g.subset: g.element for g in by_kind["boundary"]}
        assert set(boundary_elems) == {(2, 5), (4, 5)}
        assert boundary_elems[(2, 5)] == boundary(E(1, 2, 5))
        assert boundary_elems[(4, 5)] == boundary(E(3, 4, 5))

    def test_example1_empty(self):
        assert OSContext(example1().arrangement).relation_basis() == []

    def test_boolean_empty(self):
        from arrgm.arrangement import ProjForm, validate

        arr = validate(
            [ProjForm.make([1, 0, 0]), ProjForm.make([0, 1, 0]), ProjForm.make([0, 0, 1])],
            0,
        )
        assert OSContext(arr).relation_basis() == []

    def test_count_identity(self):
        # #relations = C(m, n) - #nbc, and the relations span independently
        for arr in (ceva().arrangement, example1().arrangement):
            ctx = OSContext(arr)
            generators = ctx.relation_basis()
            m = len(arr.finite_indices)
            nbc = ctx.matroid.nbc_sets(arr.n)
            assert len(generators) == math.comb(m, arr.n) - len(nbc)
            monomials = sorted(
                itertools.combinations(arr.finite_indices, arr.n)
            )
            index = {t: i for i, t in enumerate(monomials)}
            rows = []
            for g in generators:
                row = [F(0)] * len(monomials)
                for tup, c in g.element.terms:
                    row[index[tup]] = c
                rows.append(row)
            assert matrix_rank(rows) == len(generators)

    def test_level_dimension_identity(self):
        # #nbc_p = C(m, p) - rank(level-p relation span) at every level
        for arr in (ceva().arrangement, example1().arrangement):
            ctx = OSContext(arr)
            m = len(arr.finite_indices)
            for p in range(1, arr.n + 1):
                generators = ctx.relation_basis(p)
                monomials = sorted(itertools.combinations(arr.finite_indices, p))
                index = {t: i for i, t in enumerate(monomials)}
                rows = []
                for g in generators:
                    row = [F(0)] * len(monomials)
                    for tup, c in g.element.terms:
                        row[index[tup]] = c
                    rows.append(row)
                rank = matrix_rank(rows) if rows else 0
                assert math.comb(m, p) - rank == len(ctx.matroid.nbc_sets(p))


class TestNormalForm:
    def test_broken_circuit_rewrite(self):
        got = OSContext(ceva().arrangement).normal_form(E(2, 5))
        assert got == E(1, 5) - E(1, 2)

    def test_dependent_pair_vanishes(self):
        assert OSContext(ceva().arrangement).normal_form(E(1, 3)).is_zero

    def test_nbc_monomials_fixed(self):
        ctx = OSContext(ceva().arrangement)
        for tup in ctx.matroid.nbc_sets(2):
            assert ctx.normal_form(E(*tup)) == E(*tup)

    def test_idempotent_and_linear(self):
        ctx = OSContext(ceva().arrangement)
        sampler = RatSampler(17)
        pairs = list(itertools.combinations(range(1, 6), 2))
        for _ in range(10):
            elem = ExtElem.make(
                {pair: sampler.rational(7, 3) for pair in pairs if sampler.integer(0, 1)}
            )
            once = ctx.normal_form(elem)
            assert ctx.normal_form(once) == once

    def test_annihilates_relation_basis(self):
        for arr in (ceva().arrangement, example1().arrangement):
            ctx = OSContext(arr)
            for g in ctx.relation_basis():
                assert ctx.normal_form(g.element).is_zero

    def test_output_supported_on_nbc(self):
        ctx = OSContext(ceva().arrangement)
        nbc = set(ctx.matroid.nbc_sets(2))
        for pair in itertools.combinations(range(1, 6), 2):
            nf = ctx.normal_form(E(*pair))
            assert all(tup in nbc for tup, _ in nf.terms)

    def test_rewrite_is_exact_as_forms(self):
        """Pointwise check of the rewriting through the dlog realization."""
        from arrgm.aomoto import FiberContext
        from reference_partialfrac import FiberChart, log_comb_evaluate

        chart = FiberChart(FiberContext(ceva().arrangement, None))
        ctx = chart.fiber.os
        points = [(F(5), F(7)), (F(2, 3), F(9, 4)), (F(-3), F(11, 5))]
        for pair in itertools.combinations(range(1, 6), 2):
            elem = E(*pair)
            nf = ctx.normal_form(elem)
            for point in points:
                assert log_comb_evaluate(chart, elem, point) == log_comb_evaluate(
                    chart, nf, point
                )
