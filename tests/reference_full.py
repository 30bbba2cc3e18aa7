"""The closed form of every residue column, none expanded, by the sampled
weight route (test-only oracle).

``gaussmanin.gm_matrix`` reduces and lifts only a basis of each
component's local lifts eta_{J,P}, expands every other column from it, and
gets the coefficient of every weight symbol from one class solve with the
weights as indeterminates.  This oracle evaluates the closed form of the
``gaussmanin`` docstring on all N x comps pairs (component, nbc element)
instead, at m + 3 numeric weight settings: each image is built as an
``ExtElem`` and reduced by a one-block class solve at each setting, the
coefficients are difference quotients between the settings, and two more
settings check that they are linear (``_lift``).  The library's
``_assemble`` with identity expansions builds the connection.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from arrgm.arrangement import AffineChart, AffineForm, Arrangement, ProjForm
from arrgm.aomoto import ClassReducer, FiberContext, Weights
from arrgm.errors import NonlinearFitError
from arrgm.gaussmanin import GMConnection, MovingFamily, _assemble, generic_fiber
from arrgm.osalg import ExtElem, boundary, wedge, wedge_monomials

from reference_stencils import nbc_coordinates

QQ0 = Fraction(0)


def _weight_settings(base: Arrangement) -> list[Weights]:
    """m + 3 affinely independent weight settings, generic by construction.

    With m finite weights and q = (m + 1)(m + 4), the base setting w0 has
    a = k/q on the k-th finite index and ah = (m + 1)/q; then come w0 + e_s/q
    for every symbol s (finite indices, then ah) and the diagonal
    w0 + (1, ..., 1)/q.  Every numerator is positive and their total is at
    most (m + 1)(m + 4)/2 < q, so every nonempty proper sum of
    {a_i, ah, a0} lies in (-1, 0) or (0, 1): no residue, ah included, and
    no flat sum of the base or of the extended fiber is an integer.
    """
    finite = base.finite_indices
    m = len(finite)
    q = (m + 1) * (m + 4)
    a = {idx: Fraction(k, q) for k, idx in enumerate(finite, start=1)}
    ah = Fraction(m + 1, q)
    step = Fraction(1, q)
    settings = [Weights.make(a, ah)]
    settings += [Weights.make({**a, idx: a[idx] + step}, ah) for idx in finite]
    settings.append(Weights.make(a, ah + step))
    settings.append(Weights.make({idx: v + step for idx, v in a.items()}, ah + step))
    return settings


def reduce_at(fiber: FiberContext, weights: Weights, elems) -> list[list[Fraction]]:
    """The fixed nbc coordinates of the classes of ``elems`` (``ExtElem`` or
    coordinates over the top nbc sets) by a one-block class solve at
    numeric ``weights``."""
    size, top = len(fiber.fixed_nbc()), fiber.nbc(fiber.n)
    parts = [nbc_coordinates(fiber.os, g, top) if isinstance(g, ExtElem) else g for g in elems]
    columns = ClassReducer(fiber, weights).reduce_batch([{"1": g} for g in parts])
    return [[column.get(i, {}).get("1", QQ0) for i in range(size)] for column in columns]


def _lift(
    columns_by_setting: list[list[list[Fraction]]],
    settings: list[Weights],
    symbol_order: tuple[int, ...],
) -> list[dict[int, dict[str, Fraction]]]:
    """Every column as sparse entries {row: {symbol: coefficient}}.

    At numeric weights a column is its constant part, symbol "1".  The
    symbolic settings are w0, w0 + delta e_k per symbol k, and a diagonal
    step (``_weight_settings``).  With R(w) a column at w,
    R^(k) = (R(w0 + delta e_k) - R(w0)) / delta, and R(w0) and R(diag) must
    equal sum_k w_k R^(k) exactly, or the columns are not homogeneous
    linear in the weights: :class:`NonlinearFitError`.
    """
    base = columns_by_setting[0]
    if len(settings) == 1:
        return [{i: {"1": x} for i, x in enumerate(column) if x} for column in base]
    w0, *shifted, diag = [w.symbol_assignment(symbol_order) for w in settings]
    lifted: list[dict[int, dict[str, Fraction]]] = [{} for _ in base]
    for s, w, columns in zip(w0, shifted, columns_by_setting[1:-1]):
        for entries, column, reference in zip(lifted, columns, base):
            for i, (x, y) in enumerate(zip(column, reference)):
                if x != y:
                    entries.setdefault(i, {})[s] = (x - y) / (w[s] - w0[s])
    for w, columns in ((w0, base), (diag, columns_by_setting[-1])):
        for entries, column in zip(lifted, columns):
            for i, x in enumerate(column):
                if sum((w[s] * v for s, v in entries.get(i, {}).items()), QQ0) != x:
                    raise NonlinearFitError()
    return lifted


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
        columns_by_setting.append(reduce_at(fiber, weights, images))
    h0 = chart.projective(AffineForm.make(1, [0] * base.n))
    expansions = identity_expansions(len(forms), len(basis))
    lifted = _lift(columns_by_setting, settings, tuple(base.finite_indices))
    return _assemble(family, basis, forms, h0, lifted, expansions)
