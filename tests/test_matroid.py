"""Circuits, broken circuits and nbc sets on the cone."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as F

import pytest

from arrgm.arrangement import ProjForm, validate
from arrgm.fixtures import ceva, example1
from arrgm.matroid import MatroidContext, circuits, nbc_sets


def P(*coeffs):
    return ProjForm.make(list(coeffs))


def boolean3():
    return validate([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)], 0)


def circuit_on(ctx, support):
    """The circuit of the context's arrangement with this support."""
    return next(c for c in ctx.circuits() if c.support == support)


class TestDependence:
    def test_ceva_parallel_pair_with_infinity(self):
        ctx = MatroidContext(ceva().arrangement)
        assert not ctx.is_independent((0, 1, 3))
        assert circuit_on(ctx, (0, 1, 3)).dependency == (F(1), F(-1), F(-1))  # z0 - z1 - z3

    def test_ceva_central_triple(self):
        ctx = MatroidContext(ceva().arrangement)
        assert not ctx.is_independent((1, 2, 5))
        assert circuit_on(ctx, (1, 2, 5)).dependency == (F(1), F(-1), F(-1))  # z1 - z2 - z5

    def test_boolean_pair_independent(self):
        assert MatroidContext(boolean3()).is_independent((0, 1))


class TestCircuits:
    def test_ceva_circuits(self):
        supports = [c.support for c in circuits(ceva().arrangement)]
        assert supports[:4] == [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)]
        assert all(len(s) == 4 for s in supports[4:])

    def test_ceva_affine_view(self):
        """Restricted to the affine reading, the three-element circuits of the
        cone present as the parallel pairs and concurrent triples."""
        affine = []
        for c in circuits(ceva().arrangement):
            if len(c.support) > 3:
                continue
            if 0 in c.support:
                affine.append(tuple(i for i in c.support if i != 0))
            else:
                affine.append(c.support)
        assert sorted(affine, key=lambda s: (len(s), s)) == [
            (1, 3), (2, 4), (1, 2, 5), (3, 4, 5),
        ]

    def test_example1_single_circuit(self):
        got = circuits(example1().arrangement)
        assert len(got) == 1
        c = got[0]
        assert c.support == (0, 1, 2, 3)
        assert c.dependency == (F(1), F(1), F(1), F(-1))  # z0 + z1 + z2 - z3 = 0
        assert c.contains_infinity

    def test_boolean_none(self):
        assert circuits(boolean3()) == []

    def test_minimality(self):
        for arr in (ceva().arrangement, example1().arrangement):
            ctx = MatroidContext(arr)
            for c in ctx.circuits():
                for drop in c.support:
                    reduced = tuple(i for i in c.support if i != drop)
                    assert ctx.is_independent(reduced)

    def test_dependency_is_exact(self):
        for c in circuits(ceva().arrangement):
            arr = ceva().arrangement
            rows = arr.form_rows(c.support)
            for col in range(arr.n + 1):
                total = sum(
                    (mu * row[col] for mu, row in zip(c.dependency, rows)), F(0)
                )
                assert total == 0


class TestBrokenCircuits:
    def test_ceva(self):
        got = {(b.support, b.princ) for b in MatroidContext(ceva().arrangement).broken_circuits()}
        assert ((2, 5), 1) in got
        assert ((4, 5), 3) in got
        assert ((1, 3), 0) in got and ((2, 4), 0) in got

    def test_example1(self):
        broken = MatroidContext(example1().arrangement).broken_circuits()
        got = [(b.support, b.princ) for b in broken]
        assert ((1, 2, 3), 0) in got

    def test_boolean_none(self):
        assert MatroidContext(boolean3()).broken_circuits() == []


class TestNbc:
    def test_ceva_bases(self):
        assert nbc_sets(ceva().arrangement, 2) == [
            (1, 2), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5),
        ]

    def test_example1_bases(self):
        assert nbc_sets(example1().arrangement, 2) == [(1, 2), (1, 3), (2, 3)]

    def test_boolean_single_basis(self):
        assert nbc_sets(boolean3(), 2) == [(1, 2)]

    def test_cone_with_infinity_independent(self):
        for arr in (ceva().arrangement, example1().arrangement):
            ctx = MatroidContext(arr)
            for basis in ctx.nbc_sets(arr.n):
                cone_set = tuple(sorted(basis + (arr.infinity_index,)))
                assert ctx.is_independent(cone_set)
                assert len(cone_set) == arr.n + 1

    def test_count_partition_at_top_level(self):
        """n-subsets split exactly into nbc bases, dependent-with-infinity sets
        and broken-circuit-containing sets."""
        for arr in (ceva().arrangement, example1().arrangement):
            ctx = MatroidContext(arr)
            nbc = set(ctx.nbc_sets(arr.n))
            others = 0
            for subset in itertools.combinations(arr.finite_indices, arr.n):
                dep = ctx.dependent_with_infinity(subset)
                has_broken = ctx.broken_in(subset) is not None
                if subset in nbc:
                    assert not dep and not has_broken
                else:
                    assert dep or has_broken
                    others += 1
            m = len(arr.finite_indices)
            assert math.comb(m, arr.n) == len(nbc) + others

    def test_normal_crossings_count(self):
        # free of rank C(m, n) when there are no bad flats
        arr = example1().arrangement
        m = len(arr.finite_indices)
        assert len(nbc_sets(arr, arr.n)) == math.comb(m, arr.n)

    def test_infinity_rerank_warns(self):
        arr = validate([P(0, 1, 0), P(1, 0, 0), P(0, 0, 1), P(1, 1, 1)], 1)
        with pytest.warns(UserWarning):
            MatroidContext(arr)
