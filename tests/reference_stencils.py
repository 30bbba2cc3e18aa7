"""Test-only oracle for ``gaussmanin._residue_stencils``: the ``ExtElem`` route.

Each piece is eta - e_i ^ d eta, built from ``ExtElem`` operations with the
monomials through infinity dropped, and its coordinates are those of its
Orlik-Solomon normal form (``nbc_coordinates``).  The local elimination
runs over every basis column, zero local lifts included, and its kernel is
read as ``Fraction``s.  The support of a component is the set of
hyperplanes that vanish at its point.
"""

from __future__ import annotations

from typing import Sequence

from arrgm.aomoto import FiberContext
from arrgm.arrangement import ProjForm
from arrgm.exactnum import solve_linear
from arrgm.osalg import ExtElem, OSContext, boundary, wedge


def nbc_coordinates(os_ctx: OSContext, e: ExtElem, basis: Sequence[tuple[int, ...]]) -> list:
    """The coordinates of the normal form of ``e`` over ``basis``, a list of
    nbc monomials; ``ValueError`` when the normal form leaves it."""
    index = {t: i for i, t in enumerate(basis)}
    coords = [0] * len(basis)
    for tup, c in os_ctx.normal_form(e).terms:
        if tup not in index:
            raise ValueError(f"normal form contains non-basis monomial {tup}")
        coords[index[tup]] = c
    return coords


def _without(e: ExtElem, index: int) -> ExtElem:
    return ExtElem(tuple((t, c) for t, c in e.terms if index not in t))


def residue_stencils(fiber: FiberContext, forms: Sequence[ProjForm]):
    """(expansions, stencils) as ``_residue_stencils`` documents them."""
    base, basis, inf = fiber.base, fiber.fixed_nbc(), fiber.base.infinity_index
    top = fiber.nbc(base.n)
    e_inf = ExtElem.monomial((inf,))
    lifts = [boundary(wedge(e_inf, ExtElem.monomial(J))) for J in basis]
    expansions, stencils = [], []
    for form in forms:
        support = {fiber.moving_index} | {
            i for i, plane in enumerate(base.hyperplanes) if plane.evaluate(form.coeffs) == 0
        }
        local = [
            ExtElem(tuple((t, c) for t, c in eta.terms if support.issuperset(t))) for eta in lifts
        ]
        monomials = sorted({t for eta in local for t, _ in eta.terms})
        solution = solve_linear([[eta.coefficient(t) for eta in local] for t in monomials])
        pivots = solution.pivot_cols
        free = dict(zip([j for j in range(len(basis)) if j not in pivots], solution.kernel))
        expansions.append([
            [(len(stencils) + pivots.index(j), 1)] if j in pivots else
            [(len(stencils) + r, -free[j][col]) for r, col in enumerate(pivots) if free[j][col]]
            for j in range(len(basis))
        ])
        for col in pivots:
            eta, stencil = local[col], []
            for i in sorted(support):
                piece = _without(eta - wedge(ExtElem.monomial((i,)), boundary(eta)), inf)
                coords = nbc_coordinates(fiber.os, piece, top)
                stencil += [(t, i, c) for t, c in enumerate(coords) if c]
            stencils.append(stencil)
    return expansions, stencils
