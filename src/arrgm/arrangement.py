"""Projective hyperplane arrangements and their intersection data.

An arrangement is an ordered list of hyperplanes in P^n, one of which is
designated as the hyperplane at infinity.  Forms are stored in a canonical
normalization (coprime integer coefficients, first nonzero positive) so that
equality, deduplication and golden outputs are deterministic.

The module computes the intersection semi-lattice (all nonempty projective
intersections, ordered by reverse inclusion), the non-normal-crossing flats
(``bad_loci``), the affine chart of the infinity hyperplane and coning,
and the discriminant of a moving extra hyperplane in the dual coordinates
``h0..hn``: one linear component for every independent n-subset of the fixed
hyperplanes, whose coefficients span the kernel of their n coefficient rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ArrgmError, DuplicateHyperplaneError, LeadingFrameError
from .exactnum import Rat, format_terms, matrix_rank, primitive, rat_from_str, rat_to_str


@dataclass(frozen=True)
class ProjForm:
    """Homogeneous linear form, canonically normalized.

    Coefficients are coprime integers with the first nonzero one positive;
    two proportional input forms therefore normalize to the same object.
    """

    coeffs: tuple[int, ...]

    @staticmethod
    def make(coeffs: Sequence[Rat | int | str]) -> "ProjForm":
        values = [rat_from_str(c) if isinstance(c, str) else Fraction(c) for c in coeffs]
        if all(v == 0 for v in values):
            raise ArrgmError("zero form is not a hyperplane")
        denom = math.lcm(*(v.denominator for v in values))
        return ProjForm(tuple(primitive([int(v * denom) for v in values])))

    def evaluate(self, point: Sequence[Rat | int]) -> Rat | int:
        """The value at ``point``, an ``int`` when every coordinate is one."""
        return sum(c * p for c, p in zip(self.coeffs, point))

    def to_json(self) -> list[str]:
        return [rat_to_str(Fraction(c)) for c in self.coeffs]

    def __str__(self) -> str:
        names = [f"z{i}" for i in range(len(self.coeffs))]
        return format_linear(self.coeffs, names)


def format_linear(coeffs: Sequence[int], names: Sequence[str]) -> str:
    return format_terms(zip(coeffs, names))


@dataclass(frozen=True)
class Arrangement:
    """Ordered projective arrangement with a designated hyperplane at infinity."""

    n: int
    hyperplanes: tuple[ProjForm, ...]
    infinity_index: int

    @property
    def size(self) -> int:
        return len(self.hyperplanes)

    @property
    def finite_indices(self) -> list[int]:
        return [i for i in range(self.size) if i != self.infinity_index]

    def form_rows(self, indices: Iterable[int]) -> list[list[int]]:
        return [list(self.hyperplanes[i].coeffs) for i in indices]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "hyperplanes": [h.to_json() for h in self.hyperplanes],
            "infinity": self.infinity_index,
        }

    @staticmethod
    def from_json(data: dict) -> "Arrangement":
        """Parse the ``to_json`` layout; malformed data raises :class:`ArrgmError`."""
        if not isinstance(data, dict) or not isinstance(data.get("hyperplanes"), list):
            raise ArrgmError("arrangement data needs a 'hyperplanes' list")
        infinity, n = data.get("infinity", 0), data.get("n")
        if not isinstance(infinity, int) or not (n is None or isinstance(n, int)):
            raise ArrgmError("arrangement 'infinity' and 'n' must be integers")
        try:
            forms = [ProjForm.make(row) for row in data["hyperplanes"]]
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ArrgmError(f"bad hyperplane literal: {exc}") from exc
        return validate(forms, infinity, n=n)


def validate(forms: Sequence[ProjForm], infinity_index: int, n: int | None = None) -> Arrangement:
    """Check and normalize raw input into an :class:`Arrangement`.

    Preserves the user's hyperplane order.  Raises
    :class:`DuplicateHyperplaneError` for proportional pairs and
    :class:`LeadingFrameError` when the leading min(size, n+1) forms are
    linearly dependent.
    """
    if not forms:
        raise ArrgmError("an arrangement needs at least one hyperplane")
    width = len(forms[0].coeffs)
    if any(len(f.coeffs) != width for f in forms):
        raise ArrgmError("all forms must have the same number of coordinates")
    dim = width - 1 if n is None else n
    if dim != width - 1:
        raise ArrgmError(f"forms have {width} coordinates but n={dim} was declared")
    seen: dict[tuple[int, ...], int] = {}
    for i, f in enumerate(forms):
        if f.coeffs in seen:
            raise DuplicateHyperplaneError(seen[f.coeffs], i)
        seen[f.coeffs] = i
    leading = min(len(forms), dim + 1)
    if matrix_rank([forms[i].coeffs for i in range(leading)]) < leading:
        raise LeadingFrameError(f"leading {leading} forms are linearly dependent")
    if not 0 <= infinity_index < len(forms):
        raise ArrgmError(f"infinity index {infinity_index} out of range")
    return Arrangement(dim, tuple(forms), infinity_index)


# ---------------------------------------------------------------------------
# the affine chart and coning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineForm:
    """Affine-linear function ``constant + sum lin[i] * x_{i+1}`` on C^n."""

    constant: Fraction
    lin: tuple[Fraction, ...]

    @staticmethod
    def make(constant: Rat | int, lin: Sequence[Rat | int]) -> "AffineForm":
        return AffineForm(Fraction(constant), tuple(Fraction(c) for c in lin))

    def evaluate(self, point: Sequence[Rat]) -> Fraction:
        return self.constant + sum(
            (c * Fraction(p) for c, p in zip(self.lin, point)), Fraction(0)
        )


@dataclass(frozen=True)
class AffineChart:
    """The affine chart z_drop = 1 that removes the infinity hyperplane.

    The infinity hyperplane must be the coordinate hyperplane z_drop = 0.
    The same chart serves the dual coordinates h0..hn of the discriminant,
    where h_drop = 0 is the component along the infinity hyperplane.
    """

    drop: int

    @staticmethod
    def of(arr: Arrangement) -> "AffineChart":
        """The chart of ``arr``; :class:`ArrgmError` unless infinity is some z_j = 0."""
        inf_form = arr.hyperplanes[arr.infinity_index]
        nonzero = [i for i, c in enumerate(inf_form.coeffs) if c != 0]
        if len(nonzero) != 1:
            raise ArrgmError(
                f"the infinity hyperplane {inf_form} is not a coordinate hyperplane"
            )
        return AffineChart(nonzero[0])

    def affine(self, form: ProjForm) -> AffineForm:
        """Dehomogenize: the coefficient of z_drop becomes the constant term."""
        coeffs = form.coeffs
        lin = [Fraction(c) for j, c in enumerate(coeffs) if j != self.drop]
        return AffineForm(Fraction(coeffs[self.drop]), tuple(lin))

    def projective(self, form: AffineForm) -> ProjForm:
        """Homogenize: the inverse of :meth:`affine` up to normalization."""
        coeffs = list(form.lin)
        coeffs.insert(self.drop, form.constant)
        return ProjForm.make(coeffs)


def cone(n: int, affine_forms: Sequence[AffineForm]) -> Arrangement:
    """Homogenize an affine arrangement, prepending the infinity hyperplane z0."""
    forms = [ProjForm.make([1] + [0] * n)]
    for f in affine_forms:
        forms.append(ProjForm.make([f.constant, *f.lin]))
    return validate(forms, 0, n=n)


# ---------------------------------------------------------------------------
# intersection semi-lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Flat:
    """Nonempty projective intersection with closed support and rank."""

    support: tuple[int, ...]
    rank: int


@dataclass(frozen=True)
class Lattice:
    """Flats grouped by rank with cover relations of the reverse-inclusion order."""

    flats: tuple[Flat, ...]
    covers: tuple[tuple[int, int], ...]  # (lower, upper) indices into ``flats``

    def level(self, rank: int) -> list[Flat]:
        return [f for f in self.flats if f.rank == rank]

    def to_json(self) -> dict:
        return {
            "flats": [
                {"support": list(f.support), "rank": f.rank} for f in self.flats
            ],
            "covers": [list(c) for c in self.covers],
        }


def _context(arr: Arrangement, matroid):
    """``matroid``, or else the ``MatroidContext`` of ``arr`` built without its
    re-rank warning: flats and points do not depend on the order."""
    if matroid is not None:
        return matroid
    from .matroid import MatroidContext

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return MatroidContext(arr)


def _closed_flats(arr: Arrangement, matroid, seeds) -> list[Flat]:
    """The closures of the supports ``seeds(matroid)`` and the flats grown
    from them one hyperplane at a time while the rank stays <= n, listed by
    rank, then lexicographically by support.

    closure(S) = {i : rank(B u i) = rank(B)} for the basis B of S that
    ``matroid.basis_of`` reads from its walk, where ``matroid`` is the
    ``MatroidContext`` of ``arr`` or of an arrangement that appends
    hyperplanes to it (None builds one, see ``_context``).
    """
    matroid = _context(arr, matroid)
    rank = matroid.rank_of

    def closure(support: tuple[int, ...]) -> tuple[int, ...]:
        basis = matroid.basis_of(support)
        return tuple(
            i for i in range(arr.size)
            if i in support or rank(tuple(sorted((*basis, i)))) == len(basis)
        )

    found: set[tuple[int, ...]] = set()
    frontier = [closure(support) for support in seeds(matroid)]
    while frontier:
        support = frontier.pop()
        if support not in found:
            found.add(support)
            if rank(support) < arr.n:
                frontier += [closure((*support, i)) for i in range(arr.size) if i not in support]
    return sorted((Flat(s, rank(s)) for s in found), key=lambda f: (f.rank, f.support))


def lattice(arr: Arrangement) -> Lattice:
    """All nonempty intersections: the flats grown from the ambient space,
    listed by rank, then lexicographically by support, with their covers."""
    flats = tuple(_closed_flats(arr, None, lambda matroid: [()]))
    index = {f.support: k for k, f in enumerate(flats)}
    covers = []
    for f in flats:
        for g in flats:
            if g.rank == f.rank + 1 and set(f.support) <= set(g.support):
                covers.append((index[f.support], index[g.support]))
    return Lattice(flats, tuple(covers))


def bad_loci(arr: Arrangement, matroid=None) -> list[Flat]:
    """Flats with more hyperplanes through them than their codimension.

    These are exactly the non-normal-crossing strata: the flats whose
    support contains a circuit, grown from the circuits of rank <= n, which
    the walk of the matroid meets (``_closed_flats``; ``matroid`` as there).
    """
    return _closed_flats(arr, matroid, lambda matroid: [
        c.support for c in matroid.small_circuits() if c.support[-1] < arr.size
    ])


# ---------------------------------------------------------------------------
# discriminant of the moving hyperplane
# ---------------------------------------------------------------------------

def discriminant(arr: Arrangement, matroid=None) -> list[ProjForm]:
    """Components of the locus in dual space where the moving hyperplane degenerates.

    For every n-subset of hyperplanes with independent forms, the kernel of
    their n coefficient rows is one line, spanned by the subset's
    intersection point p (equivalently by the vector of signed n x n minors).
    The component is h . p = 0: the linear form in h that vanishes exactly
    when the moving hyperplane passes through p.  The points come from the
    walk of ``matroid``, the ``MatroidContext`` of ``arr`` (None builds one,
    see ``_context``), one back substitution per independent n-set
    (``MatroidContext.points``), as primitive integer vectors with the
    first nonzero entry positive, the canonical normalization, deduplicated
    and sorted.
    """
    return [ProjForm(p) for p in _context(arr, matroid).points()]
