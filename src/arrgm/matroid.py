"""Linear dependence combinatorics of an arrangement: circuits, broken circuits, nbc sets.

All notions are computed on the central cone, i.e. on the projective forms
viewed as linear forms in n+1 coordinates, with the hyperplane at infinity
re-ranked as the least element of the linear order regardless of its list
position.  Broken circuits drop the least element of each circuit; an
nbc p-set is a p-subset J of the finite indices such that {infinity} u J is
independent and J contains no broken circuit.  With this convention the
nbc n-sets index a basis of the top logarithmic forms (Bjorner's theorem)
and of the relative cohomology bundle of the moving family.

Everything is computed in integers.  The circuits are the fundamental
circuits of the independent sets of at most n + 1 forms, found by one walk
that carries the fraction-free (Bareiss) elimination of their rows and
caches the rank of every set it meets, which is most of the ranks the nbc
sets ask for.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement
from .exactnum import Rat, bareiss_step, integer_kernel, matrix_rank, rat_to_str


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


@dataclass(frozen=True)
class NbcBasis:
    """Sorted n-subset of finite indices whose cone with infinity is independent
    and which contains no broken circuit."""

    support: tuple[int, ...]


class MatroidContext:
    """Cached dependence data for one arrangement.

    The linear order used for least elements is the user order with the
    infinity hyperplane moved to the front; a warning is emitted when that
    changes the relative order of the input.
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
        self._circuits: list[Circuit] | None = None
        self._broken: list[BrokenCircuit] | None = None

    def order_key(self, index: int) -> int:
        return self._position[index]

    def rank_of(self, indices: tuple[int, ...]) -> int:
        if self._circuits is None:
            self._circuits = self._enumerate_circuits()
        cached = self._rank_cache.get(indices)
        if cached is None:
            cached = matrix_rank(self.arr.form_rows(indices)) if indices else 0
            self._rank_cache[indices] = cached
        return cached

    def is_independent(self, indices: tuple[int, ...]) -> bool:
        return self.rank_of(indices) == len(indices)

    def dependent_with_infinity(self, indices: tuple[int, ...]) -> bool:
        """True when {infinity} u indices is dependent in the cone."""
        if self.arr.infinity_index in indices:
            return not self.is_independent(indices)
        full = tuple(sorted(indices + (self.arr.infinity_index,)))
        return not self.is_independent(full)

    # -- circuits ----------------------------------------------------------

    def circuits(self) -> list[Circuit]:
        if self._circuits is None:
            self._circuits = self._enumerate_circuits()
        return self._circuits

    def _enumerate_circuits(self) -> list[Circuit]:
        """Fundamental circuits of the independent sets, grown in index order.

        Each independent set I of at most n + 1 forms carries the Bareiss
        steps of its rows, each row augmented by a unit vector that tracks
        it as a combination of the forms.  Extending I by e > max I reduces
        the row of e through those steps: a nonzero form part makes I u e
        independent, and a zero one leaves the unique relation of I u e,
        which is a circuit when the relation uses every member.  A circuit
        C is found once, from C - max C.  Every rank met on the way is
        cached for ``rank_of``.
        """
        arr = self.arr
        width, size = arr.n + 1, arr.size
        circuits: list[Circuit] = []
        # (independent set, Bareiss steps (row, pivot column) of its rows)
        stack: list[tuple[tuple[int, ...], list[tuple[list[int], int]]]] = [((), [])]
        while stack:
            members, steps = stack.pop()
            for e in range(members[-1] + 1 if members else 0, size):
                row = [*arr.hyperplanes[e].coeffs, *(int(i == e) for i in range(size))]
                prev = 1
                for top, c in steps:
                    row = bareiss_step(row, top, c, prev)
                    prev = top[c]
                subset = (*members, e)
                pivot = next((c for c in range(width) if row[c]), None)
                if pivot is not None:
                    self._rank_cache[subset] = len(subset)
                    stack.append((subset, [*steps, (row, pivot)]))
                    continue
                self._rank_cache[subset] = len(members)
                relation = [row[width + i] for i in subset]
                if all(relation):
                    dependency = _normalize_dependency(relation)
                    circuits.append(Circuit(subset, dependency, arr.infinity_index in subset))
        circuits.sort(key=lambda c: (len(c.support), c.support))
        return circuits

    # -- broken circuits and nbc sets --------------------------------------

    def broken_circuits(self) -> list[BrokenCircuit]:
        if self._broken is None:
            best: dict[tuple[int, ...], int] = {}
            for circuit in self.circuits():
                least = min(circuit.support, key=self.order_key)
                broken = tuple(i for i in circuit.support if i != least)
                prev = best.get(broken)
                if prev is None or self.order_key(least) < self.order_key(prev):
                    best[broken] = least
            self._broken = sorted(
                (BrokenCircuit(s, p) for s, p in best.items()),
                key=lambda b: (len(b.support), b.support),
            )
        return self._broken

    def broken_in(self, indices: tuple[int, ...]) -> BrokenCircuit | None:
        """The contained broken circuit with the least princ, if any."""
        iset = set(indices)
        found: BrokenCircuit | None = None
        for broken in self.broken_circuits():
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


def _normalize_dependency(vec: list[int]) -> tuple[Fraction, ...]:
    lead = next(x for x in vec if x != 0)
    return tuple(Fraction(x, lead) for x in vec)


def is_dependent(arr: Arrangement, indices: tuple[int, ...]) -> tuple[bool, tuple[Rat, ...] | None]:
    """Linear dependence of the cone forms of ``indices``, with certificate.

    Returns ``(dependent, dependency)`` where the dependency vector (aligned
    with the sorted index tuple, normalized to leading coefficient 1) spans
    the relation space when the set is a circuit, and is any nonzero relation
    otherwise.
    """
    kernel = integer_kernel(list(zip(*arr.form_rows(sorted(indices)))))
    if not kernel:
        return False, None
    return True, _normalize_dependency(kernel[0])


def circuits(arr: Arrangement) -> list[Circuit]:
    return MatroidContext(arr).circuits()


def broken_circuits(arr: Arrangement) -> list[BrokenCircuit]:
    return MatroidContext(arr).broken_circuits()


def nbc_sets(arr: Arrangement, p: int) -> list[tuple[int, ...]]:
    return MatroidContext(arr).nbc_sets(p)


def nbc_bases(arr: Arrangement) -> list[NbcBasis]:
    return [NbcBasis(s) for s in MatroidContext(arr).nbc_sets(arr.n)]
