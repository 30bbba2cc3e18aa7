"""Residue lookup, rank structure, and monodromy representatives."""

from __future__ import annotations

import cmath
from fractions import Fraction as F

import numpy as np
import pytest

from arrgm.aomoto import Weights
from arrgm.arrangement import ProjForm, validate
from arrgm.errors import ArrgmError, ResonantResidueError, UnknownComponentError
from arrgm.exactnum import WeightExpr
from arrgm.fixtures import ceva, example1
from arrgm.gaussmanin import MovingFamily, gm_matrix
from arrgm.monodromy import _quadratic_identity, monodromy, projector_structure, residue_of
from _sampling import RatSampler
from reference_expm import expm_reference, max_gap
from reference_full import _weight_settings
from reference_poly import poly_projector_structure


def P(*coeffs):
    return ProjForm.make(list(coeffs))


def W(const=0, **coeffs):
    return WeightExpr.make(F(const), {k: F(v) for k, v in coeffs.items()})


def generic(n, extra):
    """The coordinate frame of P^n (z0 at infinity) plus the given forms."""
    frame = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    return validate([P(*row) for row in frame + extra], 0)


ARRANGEMENTS = {
    "example1": lambda: example1().arrangement,
    "ceva": lambda: ceva().arrangement,
    "p2-6": lambda: generic(2, [[1, 1, 1], [1, 2, -3], [2, -1, 3]]),
}

ASSIGN = {"a1": F(1, 3), "a2": F(1, 7), "a3": F(1, 5), "ah": F(-1, 2)}


@pytest.fixture(scope="module")
def connection():
    return gm_matrix(MovingFamily(example1().arrangement))


class TestResidueOf:
    def test_lookup_published_h1(self, connection):
        # the h1 residue is unaffected by the published-table deviations
        assert residue_of(connection, P(0, 1, 0)) == example1().residue([0, 1, 0])

    def test_lookup_accepts_scaled_form(self, connection):
        scaled = [F(0), F(-2), F(0)]  # -2*h1 normalizes to h1
        assert residue_of(connection, scaled) == residue_of(connection, P(0, 1, 0))

    def test_unknown_component(self, connection):
        with pytest.raises(UnknownComponentError) as info:
            residue_of(connection, [1, 5, 0])
        assert "h0+5*h1" in str(info.value)


def test_missing_weight_is_a_typed_error(connection):
    """A weight left out is an ``ArrgmError`` that names its symbol, from
    ``monodromy`` and from ``GMConnection.evaluate``, not a ``KeyError``."""
    with pytest.raises(ArrgmError, match=r"no value assigned to weight symbol (a\d|ah)$"):
        monodromy(residue_of(connection, P(0, 1, 0)), {})
    with pytest.raises(ArrgmError, match="weight symbol ah$"):
        connection.evaluate(Weights.make({1: F(1, 3), 2: F(1, 7), 3: F(1, 5)}))
    with pytest.raises(ArrgmError, match="weight symbol a3$"):
        connection.evaluate(Weights.make({1: F(1, 3), 2: F(1, 7)}, F(-1, 2)))


class TestProjectorStructure:
    def test_published_h1(self):
        t = projector_structure(example1().residue([0, 1, 0]))
        assert t == W(a1=-1, a3=-1)

    def test_published_h0_minus_h2(self):
        t = projector_structure(example1().residue([1, 0, -1]))
        assert t == W(a1=1, a3=1)

    def test_all_published_traces(self):
        fx = example1()
        for form, expected in fx.traces.items():
            assert projector_structure(fx.residues[form]) == expected

    def test_computed_connection_structure(self, connection):
        # Every visible component of the computed connection is a rank-one
        # type matrix with A^2 = tr(A) A; the derived h0 component sums two
        # of them and legitimately lacks the structure.
        for comp in connection.components[:-1]:
            assert projector_structure(comp.residue) is not None
        assert projector_structure(connection.components[-1].residue) is None

    def test_identity_fails(self):
        ident = [[W(1), W()], [W(), W(1)]]
        assert projector_structure(ident) is None

    def test_constant_rank_one(self):
        assert projector_structure([[W(1), W(2)], [W(), W()]]) == W(1)

    @pytest.mark.parametrize("fixture", [example1, ceva], ids=["example1", "ceva"])
    def test_agrees_with_polynomial_oracle(self, fixture):
        """Coefficient-matrix certificate = the ``WeightPoly`` expansion, on
        every computed and every published residue; the rank-2 residues of
        the four ceva triple points are rejected both ways."""
        fx = fixture()
        conn = gm_matrix(MovingFamily(fx.arrangement))
        rejected = set()
        for residues in ({c.form: c.residue for c in conn.components}, fx.residues):
            for form, matrix in residues.items():
                trace = projector_structure(matrix)
                assert trace == poly_projector_structure(matrix)
                if trace is None:
                    rejected.add((residues is fx.residues, form))
        if fixture is ceva:
            triple_points = {P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(1, 1, 1)}
            assert rejected == {(published, f) for published in (False, True) for f in triple_points}


class TestMonodromy:
    def test_zero_matrix(self):
        zero = [[W(), W()], [W(), W()]]
        result = monodromy(zero, ASSIGN)
        assert np.allclose(result.matrix, np.eye(2), atol=1e-14)

    def test_scalar_quarter(self):
        result = monodromy([[W(a1=1)]], {"a1": F(1, 4)})
        assert abs(result.matrix[0][0] - (-1j)) < 1e-12

    def test_closed_form_vs_numeric_on_h1(self):
        a = example1().residue([0, 1, 0])
        assign = {"a1": F(1, 3), "a2": F(0), "a3": F(1, 5), "ah": F(0)}
        result = monodromy(a, assign)
        assert max_gap(result.matrix, expm_reference(a, assign)) < 1e-12
        # T = I + (e^{-2 pi i t} - 1)/t * A with t = -a1 - a3 = -8/15
        t = float(F(-8, 15))
        a_eval = np.array([[float(e.evaluate(assign)) for e in row] for row in a])
        expected = np.eye(3) + (cmath.exp(-2j * cmath.pi * t) - 1) / t * a_eval
        assert np.max(np.abs(np.array(result.matrix) - expected)) < 1e-13

    def test_determinant_identity(self):
        fx = example1()
        for form, matrix in fx.residues.items():
            result = monodromy(matrix, ASSIGN)
            trace = float(fx.traces[form].evaluate(ASSIGN))
            det = np.linalg.det(np.array(result.matrix))
            assert abs(det - cmath.exp(-2j * cmath.pi * trace)) < 1e-9

    def test_eigenvalue_exponentials(self):
        a = example1().residue([0, 0, 1])
        result = monodromy(a, ASSIGN)
        a_eval = np.array(
            [[float(e.evaluate(ASSIGN)) for e in row] for row in a], dtype=complex
        )
        expected = list(np.exp(-2j * np.pi * np.linalg.eigvals(a_eval)))
        got = list(np.linalg.eigvals(np.array(result.matrix)))
        for value in expected:
            best = min(got, key=lambda z: abs(z - value))
            assert abs(best - value) < 1e-8
            got.remove(best)

    def test_resonance_detected(self):
        # eigenvalues 0 and tr = a1 + a3; a1 + a3 = 1 is a nonzero integer
        a = example1().residue([1, 0, -1])
        assign = {"a1": F(1, 2), "a2": F(1, 7), "a3": F(1, 2), "ah": F(-1, 5)}
        with pytest.raises(ResonantResidueError):
            monodromy(a, assign)

    def test_condition_report_present(self):
        """One exact line: the quadratic identity and its discriminant."""
        result = monodromy(example1().residue([0, 1, 0]), ASSIGN)
        # A^2 = tr(A) A with tr A = -a1 - a3 = -8/15, so D = 64/225
        assert result.condition_report == (
            "A^2 = alpha A + beta I with alpha = -8/15, beta = 0; "
            "D = alpha^2 + 4 beta = 64/225 is not the square of a nonzero integer",
        )

    def test_json_shape(self):
        result = monodromy([[W(a1=1)]], {"a1": F(1, 4)})
        payload = result.to_json()
        assert set(payload) == {"matrix", "conditions"}
        assert isinstance(payload["matrix"][0][0], list)
        assert len(payload["matrix"][0][0]) == 2

    @pytest.mark.parametrize("triple_point", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    def test_rank_two_residue_takes_closed_form(self, triple_point):
        """The rank-2 triple-point residues of ceva lack the projector
        structure A^2 = tr(A) A but satisfy A^2 = alpha A + beta I: the
        closed form, equal to the matrix exponential."""
        conn = gm_matrix(MovingFamily(ceva().arrangement))
        matrix = residue_of(conn, P(*triple_point))
        assert projector_structure(matrix) is None
        assign = {**{f"a{i}": F(i, 13) for i in range(1, 6)}, "ah": F(3, 11)}
        result = monodromy(matrix, assign)
        assert max_gap(result.matrix, expm_reference(matrix, assign)) < 1e-12

    @pytest.mark.parametrize("name", list(ARRANGEMENTS))
    def test_every_computed_residue(self, name):
        """Every component of the connection, at three weight settings,
        agrees with the 30-digit matrix exponential."""
        arr = ARRANGEMENTS[name]()
        conn = gm_matrix(MovingFamily(arr))
        for weights in _weight_settings(arr)[:3]:
            assign = conn.assignment_for(weights)
            for comp in conn.components:
                result = monodromy(comp.residue, assign)
                assert max_gap(result.matrix, expm_reference(comp.residue, assign)) < 1e-12


class TestClosedFormEdgeCases:
    def test_integer_scalar_is_not_resonant(self):
        """A single eigenvalue has no nonzero differences, integer or not."""
        assert abs(monodromy([[W(a1=1)]], {"a1": F(2)}).matrix[0][0] - 1) < 1e-14
        result = monodromy([[W(-3), W()], [W(), W(-3)]], {})
        assert np.allclose(result.matrix, np.eye(2), atol=1e-14)

    def test_nilpotent_rank_one(self):
        """A^2 = 0: T = I - 2 pi i A."""
        a = [[W(), W(a1=1)], [W(), W()]]
        result = monodromy(a, {"a1": F(1, 3)})
        expected = [[1, -2j * cmath.pi / 3], [0, 1]]
        assert max_gap(result.matrix, expected) < 1e-15

    @pytest.mark.parametrize("value", [F(2), F(-1)])
    def test_integer_lambda_is_resonant(self, value):
        """A^2 = lambda A with lambda in Z minus {0}: eigenvalues 0 and lambda."""
        a = [[W(a1=1), W(a1=1)], [W(), W()]]
        with pytest.raises(ResonantResidueError):
            monodromy(a, {"a1": value})

    def test_no_quadratic_identity(self):
        """Three distinct eigenvalues: no identity A^2 = alpha A + beta I."""
        a = [[W(), W(), W()], [W(), W(F(1, 3)), W()], [W(), W(), W(F(1, 5))]]
        with pytest.raises(ArrgmError) as info:
            monodromy(a, {})
        assert not isinstance(info.value, ResonantResidueError)

    @pytest.mark.parametrize("seed", range(6))
    def test_quadratic_identity_of_rank_one_plus_scalar(self, seed):
        """A = u v^T + c I has A^2 = alpha A + beta I with alpha = v.u + 2c
        and beta = -c (v.u) - c^2, found in integers on any rational A."""
        sampler = RatSampler(seed)
        size = 2 + seed % 3
        u, v = (sampler.rational_vector(size, 7, 5) for _ in range(2))
        c = sampler.rational(7, 5) * (seed % 2)
        a = [[u[i] * v[j] + (c if i == j else 0) for j in range(size)] for i in range(size)]
        dot = sum(x * y for x, y in zip(u, v))
        assert _quadratic_identity(a) == (dot + 2 * c, -c * dot - c * c)
