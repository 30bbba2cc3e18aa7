"""Exact kernel: rationals, weight expressions, linear algebra."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from _sampling import RatSampler
from arrgm.errors import InconsistentSystemError
from arrgm.exactnum import (
    WeightExpr,
    determinant,
    exact_quotient,
    first_nonzero_quadratic,
    integer_coefficients,
    integer_kernel,
    matrix_rank,
    nullspace,
    rat_from_str,
    rat_to_str,
    solve_linear,
)
from reference_dense import dense_determinant, dense_rank, dense_solve
from reference_partialfrac import WeightPoly


def test_rat_literals_round_trip():
    assert rat_to_str(F(1, 2)) == "1/2"
    assert rat_to_str(F(-3)) == "-3"
    assert rat_from_str("7/3") == F(7, 3)
    assert rat_from_str("-4") == F(-4)


class TestWeightExpr:
    def test_a0_elimination(self):
        # a0 = -(a1 + a2 + ah) for two finite hyperplanes
        e = WeightExpr.build(0, {"a0": 1}, nweights=2)
        assert e == WeightExpr.make(0, {"a1": -1, "a2": -1, "ah": -1})

    def test_a0_cancellation_gives_constant(self):
        e = WeightExpr.build(F(1, 2), {"a0": 1, "a1": 1, "a2": 1, "ah": 1}, nweights=2)
        assert e.is_constant and e.const == F(1, 2)

    def test_zero_coefficients_dropped(self):
        e = WeightExpr.make(1, {"a1": 0, "a2": F(1, 3)})
        assert dict(e.coeffs) == {"a2": F(1, 3)}

    def test_arithmetic_and_eval(self):
        e = WeightExpr.make(1, {"a1": 2}) + WeightExpr.make(0, {"a1": -2, "a2": 1})
        assert e == WeightExpr.make(1, {"a2": 1})
        assert e.evaluate({"a2": F(1, 4)}) == F(5, 4)

    def test_json_round_trip(self):
        e = WeightExpr.make(F(-7, 2), {"a1": F(1, 3), "ah": -1})
        assert WeightExpr.from_json(e.to_json()) == e


class TestWeightPoly:
    def test_product_of_exprs(self):
        a1 = WeightPoly.symbol("a1")
        a2 = WeightPoly.symbol("a2")
        p = (a1 + a2) * (a1 - a2)
        expected = a1 * a1 - a2 * a2
        assert (p - expected).is_zero

    def test_evaluate(self):
        p = WeightPoly.make({(("a1", 2),): F(1), (("a1", 1), ("a2", 1)): F(-3)})
        assert p.evaluate({"a1": F(2), "a2": F(1, 3)}) == F(4) - F(2)


class TestSolveLinear:
    def test_identity(self):
        result = solve_linear([[1, 0], [0, 1]], [[F(1, 2), F(-3)]])
        assert result.solutions[0] == [F(1, 2), F(-3)]

    def test_rank_deficient_contradiction(self):
        with pytest.raises(InconsistentSystemError) as info:
            solve_linear([[1, 1], [1, 1]], [[1, 2]])
        assert info.value.row in (0, 1)

    def test_back_substitution(self):
        result = solve_linear([[1, 1], [0, 1]], [[F(5, 3), F(2, 3)]])
        assert result.solutions[0] == [F(1), F(2, 3)]

    def test_multiple_rhs_and_kernel(self):
        result = solve_linear([[1, 2, 3]], [[6], [0]])
        assert len(result.kernel) == 2
        for sol in result.solutions:
            assert sol[0] + 2 * sol[1] + 3 * sol[2] in (F(6), F(0))
        for vec in result.kernel:
            assert vec[0] + 2 * vec[1] + 3 * vec[2] == 0

    def test_round_trip_random(self):
        sampler = RatSampler(7)
        for _ in range(20):
            size = sampler.integer(1, 5)
            m = [[sampler.rational(9, 5) for _ in range(size)] for _ in range(size)]
            if matrix_rank(m) < size:
                continue
            x = [sampler.rational(9, 5) for _ in range(size)]
            b = [sum((m[i][j] * x[j] for j in range(size)), F(0)) for i in range(size)]
            assert solve_linear(m, [b]).solutions[0] == x
            # a second right-hand side with unrelated denominators, in one call
            y = [sampler.rational(9, 7) for _ in range(size)]
            assert solve_linear(m, [b, mat_vec(m, y)]).solutions == [x, y]

    def test_matrix_rank(self):
        assert matrix_rank([[1, 2], [2, 4]]) == 1
        assert matrix_rank([[1, 0], [0, 1]]) == 2


def leibniz(m):
    """Determinant as the signed sum over permutations (reference)."""
    total = F(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(m)), 2))
        term = F((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def sparse_rational_matrix(sampler, rows, cols):
    """Seeded rationals with about a third of the entries zero."""
    return [
        [sampler.rational(9, 5) if sampler.integer(0, 2) else F(0) for _ in range(cols)]
        for _ in range(rows)
    ]


def mat_vec(m, x):
    return [sum((a * b for a, b in zip(row, x)), F(0)) for row in m]


class TestDeterminant:
    def test_random_against_leibniz(self):
        sampler = RatSampler(11)
        for size in range(1, 6):
            for _ in range(8):
                m = sparse_rational_matrix(sampler, size, size)
                assert determinant(m) == leibniz(m)

    def test_singular_against_leibniz(self):
        sampler = RatSampler(12)
        for size in range(2, 6):
            for _ in range(4):
                m = sparse_rational_matrix(sampler, size - 1, size)
                t = sampler.rational_vector(size - 1, 9, 5)
                m.insert(sampler.integer(0, size - 1), [
                    sum((c * row[j] for c, row in zip(t, m)), F(0)) for j in range(size)
                ])
                assert leibniz(m) == 0
                assert determinant(m) == 0

    def test_row_swaps_set_the_sign(self):
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert determinant([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
        m = [[0, F(2, 3), 5], [F(-1, 2), 0, 1], [3, F(1, 7), 0]]
        assert determinant(m) == leibniz(m)

    def test_integer_and_fraction_entries(self):
        assert determinant([[2, F(1, 2)], [3, 1]]) == F(1, 2)
        assert type(determinant([[2, 1], [3, 1]])) is F

    def test_empty_and_non_square(self):
        assert determinant([]) == 1
        with pytest.raises(ValueError):
            determinant([[1, 2]])


class TestSolveRectangular:
    @pytest.mark.parametrize("rows, cols, rank", [
        (3, 5, 2), (5, 3, 2), (4, 4, 3), (6, 4, 1), (2, 6, 2), (4, 2, 0),
    ])
    def test_rank_deficient_systems(self, rows, cols, rank):
        sampler = RatSampler(100 * rows + 10 * cols + rank)
        # m = left * right has exactly the given rank
        left = [sampler.rational_vector(rank, 9, 5) for _ in range(rows)]
        right = sparse_rational_matrix(sampler, rank, cols)
        m = [
            [sum((lrow[k] * right[k][j] for k in range(rank)), F(0)) for j in range(cols)]
            for lrow in left
        ]
        rhs = [mat_vec(m, sampler.rational_vector(cols, 9, 5)) for _ in range(3)]
        result = solve_linear(m, rhs)
        assert result.rank == matrix_rank(m) == rank
        for b, x in zip(rhs, result.solutions):
            assert mat_vec(m, x) == b
        assert len(result.kernel) == cols - result.rank
        free = [c for c in range(cols) if c not in result.pivot_cols]
        for k, vec in enumerate(result.kernel):
            assert mat_vec(m, vec) == [0] * rows
            assert [vec[c] for c in free] == [int(c == free[k]) for c in free]

    @pytest.mark.parametrize("rows, cols, rank", [(3, 5, 2), (4, 4, 3), (2, 6, 2), (4, 2, 0)])
    def test_integer_kernel_is_the_scaled_nullspace(self, rows, cols, rank):
        """``nullspace`` and the lazily read kernel of a solve are one basis;
        ``integer_kernel`` is each vector scaled to a primitive integer
        vector with its first nonzero entry positive."""
        sampler = RatSampler(1000 + 100 * rows + 10 * cols + rank)
        left = [sampler.rational_vector(rank, 9, 5) for _ in range(rows)]
        right = sparse_rational_matrix(sampler, rank, cols)
        m = [
            [sum((lrow[k] * right[k][j] for k in range(rank)), F(0)) for j in range(cols)]
            for lrow in left
        ]
        basis = nullspace(m)
        assert basis == solve_linear(m, []).kernel
        integral = integer_kernel(m)
        assert len(integral) == len(basis) == cols - rank
        for vec, ints in zip(basis, integral):
            assert all(type(x) is int for x in ints) and math.gcd(*ints) == 1
            assert next(x for x in ints if x) > 0
            lead = next(x for x in vec if x)
            assert [x / lead for x in vec] == [F(x, next(y for y in ints if y)) for x in ints]

    def test_inconsistent_rectangular(self):
        m = [[1, 2, 3], [2, 4, 6]]
        with pytest.raises(InconsistentSystemError) as info:
            solve_linear(m, [[1, 2], [1, 3]])
        assert info.value.row == 1

    @pytest.mark.parametrize("call", [
        # the extra entry of row 1 was once read as its right-hand side
        lambda: solve_linear([[1, 0], [0, 1, 5]], [[1, 2]]),
        lambda: matrix_rank([[1, 0], [0, 0, 1]]),
        lambda: solve_linear([[1, 0, 0], [0, 1]], [[1, 2]]),
        lambda: nullspace([[1, 0], [0, 0, 1]]),
        lambda: integer_kernel([[1, 0, 0], [0, 1]]),
    ])
    def test_ragged_rows_are_rejected(self, call):
        with pytest.raises(ValueError, match="row 1 has"):
            call()


ENTRY = st.one_of(st.just(0), st.integers(-4, 4), st.fractions(-3, 3, max_denominator=6))


@st.composite
def systems(draw):
    """A small matrix of ``int`` and ``Fraction`` entries with right-hand
    sides: zero, single-entry, repeated and combined rows make it rank
    deficient, and a right-hand side is either M x or drawn freely, so it
    may be inconsistent."""
    ncols = draw(st.integers(1, 5))
    rows: list[list] = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["zero", "single", "repeat", "combine", "dense"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "single":
            row = [0] * ncols
            row[draw(st.integers(0, ncols - 1))] = draw(ENTRY.filter(bool))
            rows.append(row)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combine" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(ENTRY), draw(ENTRY)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(ENTRY, min_size=ncols, max_size=ncols)))
    rhs = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            x = draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
            rhs.append([sum((a * b for a, b in zip(row, x)), 0) for row in rows])
        else:
            rhs.append(draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows))))
    return rows, rhs


@settings(max_examples=400, deadline=None)
@given(system=systems())
def test_sparse_echelon_matches_the_dense_oracle(system):
    """Every result of the sparse elimination is the dense one's, exactly:
    solutions, rank, pivots, kernel, the failing row, rank and determinant."""
    matrix, rhs = system
    try:
        expected = dense_solve(matrix, rhs)
    except InconsistentSystemError as exc:
        with pytest.raises(InconsistentSystemError) as info:
            solve_linear(matrix, rhs)
        assert info.value.row == exc.row
    else:
        result = solve_linear(matrix, rhs)
        got = (result.scaled_solutions, result.rank, result.pivot_cols, result.scaled_kernel)
        assert got == expected
        assert all(type(v) is int for _, y in got[0] for v in y)
    assert matrix_rank(matrix) == dense_rank(matrix)
    k = min(len(matrix), len(matrix[0]) if matrix else 0)
    square = [row[:k] for row in matrix[:k]]
    assert determinant(square) == dense_determinant(square)


class TestIntegralResults:
    """The solve's integral results and the ``Fraction`` vectors built from them."""

    def test_fraction_entries_from_integer_input(self):
        result = solve_linear([[1, 1, 0], [0, 1, 1]], [[2, 3]])
        assert result.solutions == [[F(-1), F(3), F(0)]]
        assert result.kernel == [[F(1), F(-1), F(1)]]
        assert all(type(x) is F for vec in result.solutions + result.kernel for x in vec)

    def test_scaled_results_are_the_vectors_times_one_integer(self):
        sampler = RatSampler(57)
        m = [[sampler.rational(9, 5) for _ in range(5)] for _ in range(3)]
        rhs = [mat_vec(m, sampler.rational_vector(5, 9, 7)) for _ in range(2)]
        result = solve_linear(m, rhs)
        for (q, y), x in zip(result.scaled_solutions, result.solutions):
            assert all(type(v) is int for v in y) and [F(v, q) for v in y] == x
        d, vectors = result.scaled_kernel
        assert all(type(v) is int for y in vectors for v in y)
        assert [[F(v, d) for v in y] for y in vectors] == result.kernel

    def test_non_divisible_denominator_stays_exact(self):
        """With d = 2 dividing neither y nor d v, the results are halves."""
        result = solve_linear([[2, 1]], [[1], [4]])
        assert result.scaled_solutions == [(2, [1, 0]), (2, [4, 0])]
        assert result.solutions == [[F(1, 2), F(0)], [F(2), F(0)]]
        assert result.scaled_kernel == (2, [[-1, 2]])
        assert result.kernel == [[F(-1, 2), F(1)]]
        quotients = [exact_quotient(v, d) for d, y in [result.scaled_kernel] for v in y[0]]
        assert quotients == [F(-1, 2), 1] and [type(x) for x in quotients] == [F, int]

    def test_exact_quotient(self):
        assert exact_quotient(-6, 3) == -2 and type(exact_quotient(-6, 3)) is int
        assert exact_quotient(6, -4) == F(-3, 2)
        assert exact_quotient(F(3, 2), 3) == F(1, 2)


def W(const=0, **coeffs):
    return WeightExpr.make(F(const), {k: F(v) for k, v in coeffs.items()})


class TestCoefficientMatrices:
    def test_integer_coefficients_share_one_scale(self):
        a = [[W(F(1, 2), a1=F(1, 3)), W()], [W(ah=2), W(-1)]]
        b = [[W(a1=F(1, 4))]]
        assert integer_coefficients([a, b]) == [
            {"1": [{0: 6}, {1: -12}], "a1": [{0: 4}, {}], "ah": [{}, {0: 24}]},
            {"a1": [{0: 3}]},
        ]

    def test_products_cancel_across_symbol_pairs(self):
        """[X, X] = 0 for X = a1 M + a2 N although M N != N M: the a1 a2
        coefficient collects [M, N] + [N, M]."""
        (x,) = integer_coefficients([[[W(a1=1), W(a2=1)], [W(a2=2), W(a1=3)]]])
        assert first_nonzero_quadratic([(1, x, x), (-1, x, x)], 2) is None
        (m, n) = ({"a1": x["a1"]}, {"a2": x["a2"]})
        assert first_nonzero_quadratic([(1, m, n), (-1, n, m)], 2) == (0, 1)

    def test_first_nonzero_is_row_major_across_pairs(self):
        # X Y and Y X vanish in row 0; at [1][0] they are a2 and a1
        (x, y) = integer_coefficients([
            [[W(), W()], [W(1), W()]],
            [[W(a2=1), W()], [W(), W(a1=1)]],
        ])
        assert first_nonzero_quadratic([(1, x, y)], 2) == (1, 0)
        assert first_nonzero_quadratic([(1, y, x)], 2) == (1, 0)
        assert first_nonzero_quadratic([(1, x, y), (-1, x, y)], 2) is None
