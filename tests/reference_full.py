"""The closed form of every residue column, none expanded (test-only oracle).

``gaussmanin.gm_matrix`` reduces and lifts only a basis of each
component's local lifts eta_{J,P} and expands every other column from it.
This oracle evaluates the closed form of the ``gaussmanin`` docstring on
all N x comps pairs (component, nbc element) instead: each image is built
as an ``ExtElem``, reduced by the class solve of its weight setting, and
lifted to the weights on its own, through the library's ``_assemble`` with
identity expansions.
"""

from __future__ import annotations

from typing import Sequence

from arrgm.arrangement import AffineChart, AffineForm, Arrangement, ProjForm
from arrgm.aomoto import ClassReducer
from arrgm.gaussmanin import GMConnection, MovingFamily, _assemble, _weight_settings, generic_fiber
from arrgm.osalg import ExtElem, boundary, wedge, wedge_monomials


def identity_expansions(nforms: int, nbasis: int) -> list[list[list[tuple[int, int]]]]:
    """Column j of the residue along form p is column p * nbasis + j."""
    return [[[(p * nbasis + j, 1)] for j in range(nbasis)] for p in range(nforms)]


def full_stencils(
    base: Arrangement, forms: Sequence[ProjForm], basis: Sequence[tuple[int, ...]], moving_index: int
) -> list[list[tuple[int, ExtElem]]]:
    """The pairs (i, eta_{J,P} - e_i ^ d eta_{J,P}) of every (form, J), in
    that order, without the monomials through infinity."""
    inf = base.infinity_index
    lifts = [boundary(wedge(ExtElem.monomial((inf,)), ExtElem.monomial(J))) for J in basis]
    stencils = []
    for form in forms:
        support = {moving_index} | {
            i for i, plane in enumerate(base.hyperplanes) if plane.evaluate(form.coeffs) == 0
        }
        for eta in lifts:
            local = ExtElem(tuple((t, c) for t, c in eta.terms if support.issuperset(t)))
            pieces = []
            for i in sorted(support):
                acc = {t: c for t, c in local.terms if inf not in t}
                for t, c in boundary(local).terms:
                    merged = wedge_monomials((i,), t)
                    if merged is not None and inf not in merged[1]:
                        acc[merged[1]] = acc.get(merged[1], 0) - merged[0] * c
                pieces.append((i, ExtElem.make(acc)))
            stencils.append(pieces)
    return stencils


def full_closed_form(family: MovingFamily) -> GMConnection:
    """The connection of ``family`` with every column reduced and lifted;
    numeric weights, when given, are taken as generic."""
    base = family.base
    chart = AffineChart.of(base)
    fiber, components = generic_fiber(base)
    settings = [family.weights] if family.weights is not None else _weight_settings(base)
    basis = fiber.fixed_nbc()
    forms = [form for form in components if any(chart.affine(form).lin)]
    stencils = full_stencils(base, forms, basis, fiber.moving_index)
    columns_by_setting = []
    for weights in settings:
        a = {**weights.a_dict, fiber.moving_index: weights.ah, base.infinity_index: weights.a0}
        images = [
            sum((piece.scale(a[i]) for i, piece in pieces), ExtElem.zero()) for pieces in stencils
        ]
        columns_by_setting.append(ClassReducer(fiber, weights).reduce_batch(images))
    h0 = chart.projective(AffineForm.make(1, [0] * base.n))
    expansions = identity_expansions(len(forms), len(basis))
    return _assemble(family, basis, forms, h0, columns_by_setting, settings, expansions)
