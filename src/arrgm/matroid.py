"""Linear dependence combinatorics of an arrangement: circuits, broken circuits, nbc sets.

All notions are computed on the central cone, i.e. on the projective forms
viewed as linear forms in n+1 coordinates, with the hyperplane at infinity
re-ranked as the least element of the linear order regardless of its list
position.  Broken circuits drop the least element of each circuit; an
nbc p-set is a p-subset J of the finite indices such that {infinity} u J is
independent and J contains no broken circuit.  With this convention the
nbc n-sets index a basis of the top logarithmic forms (Bjorner's theorem)
and of the relative cohomology bundle of the moving family.

Everything is computed in integers, by one walk over the independent sets
in index order that carries the fraction-free (Bareiss) elimination of
their rows, each row tracking its combination over the set positions.  The
walk stops at independent sets of n forms: extending those and the smaller
ones by one form meets every circuit of at most n + 1 forms, which is all
that bad loci and broken circuits inside nbc candidates read, and caches
the rank of every set it meets, from which any rank follows by a greedy
basis.  Only the independent sets of at most n forms are kept; the
circuits of n + 2 forms are found when the full listing is first read, by
growing the kept n-sets to bases of n + 1 forms again.  The echelon of each
independent n-set gives its intersection point, a discriminant component,
by one back substitution.  A context extends in place to an arrangement
that appends hyperplanes, such as a fiber's moving hyperplane, by reducing
each new row once per stored set.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement
from .exactnum import Rat, bareiss_step, echelon_kernel, primitive, rat_to_str


@dataclass(frozen=True)
class Circuit:
    """Minimal dependent index set with its (normalized) linear dependency."""

    support: tuple[int, ...]
    dependency: tuple[Rat, ...]  # aligned with ``support``; first nonzero entry is 1
    contains_infinity: bool

    def to_json(self) -> dict:
        return {
            "support": list(self.support),
            "dependency": [rat_to_str(c) for c in self.dependency],
        }


@dataclass(frozen=True)
class BrokenCircuit:
    """A circuit minus its least element, together with that element (princ)."""

    support: tuple[int, ...]
    princ: int


class MatroidContext:
    """Cached dependence data for one arrangement.

    The linear order used for least elements is the user order with the
    infinity hyperplane moved to the front; a warning is emitted when that
    changes the relative order of the input.  ``extend`` turns the context,
    in place, into that of an arrangement that appends hyperplanes.
    """

    def __init__(self, arr: Arrangement):
        self.arr = arr
        if arr.infinity_index != 0:
            warnings.warn(
                "infinity hyperplane re-ranked least; broken circuits use the adjusted order",
                stacklevel=3,
            )
        order = [arr.infinity_index] + arr.finite_indices
        self._position = {idx: pos for pos, idx in enumerate(order)}
        self._rank_cache: dict[tuple[int, ...], int] = {}
        # the independent sets of at most n forms with the Bareiss steps
        # (reduced row, pivot column) of their rows; None until the walk
        self._sets: list[tuple[tuple[int, ...], list[tuple[list[int], int]]]] | None = None
        self._small: list[Circuit] = []  # the circuits of at most n + 1 forms
        self._points: dict[tuple[int, ...], tuple[int, ...]] | None = None
        self._circuits: list[Circuit] | None = None
        self._broken: list[BrokenCircuit] | None = None
        self._small_broken: list[BrokenCircuit] | None = None

    def order_key(self, index: int) -> int:
        return self._position[index]

    def rank_of(self, indices: tuple[int, ...]) -> int:
        cached = self._rank_cache.get(indices)
        if cached is None:
            cached = self._rank_cache[indices] = len(self.basis_of(indices))
        return cached

    def basis_of(self, indices: tuple[int, ...]) -> tuple[int, ...]:
        """The first basis of ``indices`` in index order, by the greedy rule.

        Each test asks the rank of B u i for an independent B of at most n
        forms and i > max B, which the walk cached, so no rank is computed.
        """
        self._walk()
        basis: tuple[int, ...] = ()
        for i in sorted(indices):
            if len(basis) > self.arr.n:
                break
            if self._rank_cache[(*basis, i)] > len(basis):
                basis = (*basis, i)
        return basis

    def is_independent(self, indices: tuple[int, ...]) -> bool:
        return self.rank_of(indices) == len(indices)

    def dependent_with_infinity(self, indices: tuple[int, ...]) -> bool:
        """True when {infinity} u indices is dependent in the cone."""
        if self.arr.infinity_index in indices:
            return not self.is_independent(indices)
        full = tuple(sorted(indices + (self.arr.infinity_index,)))
        return not self.is_independent(full)

    # -- the walk ------------------------------------------------------------

    def _walk(self) -> None:
        """Grow the independent sets in index order, stopping at n forms.

        Each independent set I of at most n forms, with the Bareiss steps of
        its rows, is extended by every e > max I: the walk meets every
        circuit C of at most n + 1 forms once, from C - max C, and caches
        the rank of every set it meets.
        """
        if self._sets is not None:
            return
        self._sets = [((), [])]
        # the list grows while it is read, so every stored set is reached
        for members, steps in self._sets:
            for e in range(members[-1] + 1 if members else 0, self.arr.size):
                self._visit(members, steps, e, self._small)

    def _visit(
        self, members: tuple[int, ...], steps: list, e: int, circuits: list
    ) -> list | None:
        """Extend the independent set ``members``, with its ``steps``, by e.

        The row of e is its form followed by its combination over the set
        positions, the unit vector at its position len(members): 2n + 3
        entries.  One ``bareiss_step`` per step makes it zero on the pivot
        columns; a step is skipped where it would return the row unchanged,
        a zero in the pivot column under a pivot equal to the one before.
        A nonzero form part makes members + e independent: its steps are
        returned, and stored when it has at most n forms.  A zero one leaves
        the unique relation of members + e in the combination part, a
        circuit, appended to ``circuits``, when it uses every member.  The
        rank is cached either way.
        """
        arr = self.arr
        width, position = arr.n + 1, len(members)
        row = [*arr.hyperplanes[e].coeffs, *[0] * (width + 1)]
        row[width + position] = 1
        prev = 1
        for top, c in steps:
            if row[c] or top[c] != prev:
                row = bareiss_step(row, top, c, prev)
            prev = top[c]
        subset = (*members, e)
        pivot = next((c for c in range(width) if row[c]), None)
        if pivot is not None:
            self._rank_cache[subset] = position + 1
            steps = [*steps, (row, pivot)]
            if position < arr.n:
                self._sets.append((subset, steps))
            return steps
        self._rank_cache[subset] = position
        relation = row[width : width + position + 1]
        if all(relation):
            dependency = _normalize_dependency(relation)
            circuits.append(Circuit(subset, dependency, arr.infinity_index in subset))
        return None

    def extend(self, arr: Arrangement) -> None:
        """Make this, in place, the context of ``arr``, which appends
        hyperplanes to the context's: what a new walk would add is each new
        row reduced once per stored independent set of at most n forms."""
        old = self.arr
        appended = arr.hyperplanes[: old.size] == old.hyperplanes
        if not appended or arr.infinity_index != old.infinity_index:
            raise ValueError("the arrangement does not append hyperplanes to the context's")
        self._walk()
        self.arr = arr
        for e in range(old.size, arr.size):
            self._position[e] = e
            for members, steps in self._sets[:]:
                self._visit(members, steps, e, self._small)
        self._circuits = self._broken = self._small_broken = self._points = None

    def points(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """The points cut out by n independent forms, sorted, each with the
        hyperplanes through it.

        One back substitution on the echelon of an independent n-set, its
        dense rows cut to the form columns and made sparse once, gives the
        kernel of its rows, the point, as a primitive integer vector
        with the first nonzero entry positive.  Every hyperplane through a
        point lies in an independent n-set through it, so the hyperplanes
        through it are the union of those sets; kept until ``extend``.
        """
        if self._points is None:
            self._walk()
            n, found = self.arr.n, {}
            for members, steps in self._sets:
                if len(members) == n:
                    rows, pivots = zip(*steps)
                    sparse = [{j: x for j, x in enumerate(row[: n + 1]) if x} for row in rows]
                    _, (kernel,) = echelon_kernel(sparse, pivots, n + 1)
                    found.setdefault(tuple(primitive(kernel)), set()).update(members)
            self._points = {p: tuple(sorted(s)) for p, s in sorted(found.items())}
        return self._points

    # -- circuits ----------------------------------------------------------

    def small_circuits(self) -> list[Circuit]:
        """The circuits of at most n + 1 forms, by size, then support."""
        self._walk()
        return sorted(self._small, key=_circuit_key)

    def circuits(self) -> list[Circuit]:
        """Every circuit, by size, then support.

        The circuits of n + 2 forms are found when the listing is first
        read: each stored independent n-set is grown again to the bases of
        n + 1 forms (its circuits of n + 1 forms are known), and each basis
        is extended by every later form.
        """
        if self._circuits is None:
            found, size = self.small_circuits(), self.arr.size
            for members, steps in self._sets:
                if len(members) == self.arr.n:
                    for e in range(members[-1] + 1, size):
                        basis = self._visit(members, steps, e, [])
                        if basis is not None:
                            for f in range(e + 1, size):
                                self._visit((*members, e), basis, f, found)
            self._circuits = sorted(found, key=_circuit_key)
        return self._circuits

    # -- broken circuits and nbc sets --------------------------------------

    def broken_circuits(self) -> list[BrokenCircuit]:
        if self._broken is None:
            self._broken = self._broken_of(self.circuits())
        return self._broken

    def _broken_of(self, circuits: list[Circuit]) -> list[BrokenCircuit]:
        best: dict[tuple[int, ...], int] = {}
        for circuit in circuits:
            least = min(circuit.support, key=self.order_key)
            broken = tuple(i for i in circuit.support if i != least)
            prev = best.get(broken)
            if prev is None or self.order_key(least) < self.order_key(prev):
                best[broken] = least
        return sorted(
            (BrokenCircuit(s, p) for s, p in best.items()),
            key=lambda b: (len(b.support), b.support),
        )

    def broken_in(self, indices: tuple[int, ...]) -> BrokenCircuit | None:
        """The contained broken circuit with the least princ, if any.

        A set of at most n forms can only contain the broken circuits of
        the circuits of at most n + 1 forms, so it reads no other.
        """
        if len(indices) > self.arr.n:
            candidates = self.broken_circuits()
        else:
            if self._small_broken is None:
                self._small_broken = self._broken_of(self.small_circuits())
            candidates = self._small_broken
        iset = set(indices)
        found: BrokenCircuit | None = None
        for broken in candidates:
            if set(broken.support) <= iset:
                if found is None or self.order_key(broken.princ) < self.order_key(found.princ):
                    found = broken
        return found

    def is_nbc(self, indices: tuple[int, ...]) -> bool:
        if self.arr.infinity_index in indices:
            return False
        if self.dependent_with_infinity(indices):
            return False
        return self.broken_in(indices) is None

    def nbc_sets(self, p: int) -> list[tuple[int, ...]]:
        return [
            subset
            for subset in itertools.combinations(self.arr.finite_indices, p)
            if self.is_nbc(subset)
        ]


def _circuit_key(circuit: Circuit) -> tuple[int, tuple[int, ...]]:
    return len(circuit.support), circuit.support


def _normalize_dependency(vec: list[int]) -> tuple[Fraction, ...]:
    lead = next(x for x in vec if x != 0)
    return tuple(Fraction(x, lead) for x in vec)


def circuits(arr: Arrangement) -> list[Circuit]:
    return MatroidContext(arr).circuits()


def nbc_sets(arr: Arrangement, p: int) -> list[tuple[int, ...]]:
    return MatroidContext(arr).nbc_sets(p)
