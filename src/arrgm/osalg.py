"""Exterior algebra on the finite hyperplane symbols and Orlik-Solomon reduction.

``ExtElem`` is an exact linear combination of wedge monomials e_T, T a
strictly increasing tuple of finite hyperplane indices.  Under the
identification e_i -> dlog f_i these monomials span the space of global
logarithmic p-forms, and two elements are equal as forms exactly when they
agree modulo the relations implemented here:

* e_T = 0 when the cone of T with the infinity hyperplane is dependent
  (the differentials dlog f_t are then linearly dependent);
* d(e_C) = 0 for every central circuit C, where d is the boundary operator
  with sign (-1)^(i-1) on deletion of the i-th factor.

``OSContext.normal_form`` rewrites any element onto the nbc monomials by
eliminating, for each contained broken circuit, the lexicographically
largest monomial of the corresponding circuit boundary; the substitutes are
lexicographically smaller, so the rewriting terminates.
``OSContext.relation_basis`` returns the standard basis of the degree-p
relation space: dependent monomials e_B plus boundaries d(e_{B u princ})
for independent non-nbc subsets B.

The algebra is defined over Z, and the nbc monomials are a Z-basis of it
(Bjorner, "On the homology of geometric lattices", 1982; Orlik-Terao,
*Arrangements of Hyperplanes*, 1992): the eliminated monomial has
coefficient +-1 in its circuit boundary, so every substitute is integral.
Coefficients are kept as ``int`` and the normal form of an integer element
is integral; ``Fraction`` coefficients are accepted as well and stay
rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .arrangement import Arrangement
from .exactnum import Rat, format_terms, rat_to_str
from .matroid import MatroidContext

IndexTuple = tuple[int, ...]


@dataclass(frozen=True)
class ExtElem:
    """Exact linear combination of strictly increasing wedge monomials, with
    ``int`` or ``Fraction`` coefficients."""

    terms: tuple[tuple[IndexTuple, Rat], ...]

    @staticmethod
    def make(terms: Mapping[IndexTuple, Rat | int]) -> "ExtElem":
        clean: dict[IndexTuple, Rat | int] = {}
        for tup, c in terms.items():
            if c == 0:
                continue
            if list(tup) != sorted(set(tup)):
                raise ValueError(f"monomial index tuple {tup} is not strictly increasing")
            clean[tuple(tup)] = clean.get(tuple(tup), 0) + c
        return ExtElem(tuple(sorted((t, c) for t, c in clean.items() if c != 0)))

    @staticmethod
    def zero() -> "ExtElem":
        return ExtElem(())

    @staticmethod
    def monomial(indices: Iterable[int], coeff: Rat | int = 1) -> "ExtElem":
        return ExtElem.make({tuple(sorted(indices)): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: IndexTuple) -> Rat | int:
        for t, c in self.terms:
            if t == indices:
                return c
        return 0

    def __add__(self, other: "ExtElem") -> "ExtElem":
        acc = dict(self.terms)
        for t, c in other.terms:
            acc[t] = acc.get(t, 0) + c
        return ExtElem.make(acc)

    def __sub__(self, other: "ExtElem") -> "ExtElem":
        return self + other.scale(-1)

    def scale(self, factor: Rat | int) -> "ExtElem":
        if factor == 0:
            return ExtElem.zero()
        return ExtElem(tuple((t, c * factor) for t, c in self.terms))

    def to_json(self) -> dict:
        return {"terms": [{"idx": list(t), "c": rat_to_str(c)} for t, c in self.terms]}

    def __str__(self) -> str:
        return format_terms(
            (c, "e" + "".join(f"({i})" if i > 9 else str(i) for i in t) if t else "1")
            for t, c in self.terms
        )


def wedge_monomials(left: IndexTuple, right: IndexTuple) -> tuple[int, IndexTuple] | None:
    """Sign and sorted tuple of e_left ^ e_right, or None when indices repeat."""
    if set(left) & set(right):
        return None
    merged = list(left)
    sign = 1
    for idx in right:
        pos = 0
        while pos < len(merged) and merged[pos] < idx:
            pos += 1
        sign *= (-1) ** (len(merged) - pos)
        merged.insert(pos, idx)
    return sign, tuple(merged)


def wedge(a: ExtElem, b: ExtElem) -> ExtElem:
    acc: dict[IndexTuple, Rat | int] = {}
    for t1, c1 in a.terms:
        for t2, c2 in b.terms:
            merged = wedge_monomials(t1, t2)
            if merged is None:
                continue
            sign, tup = merged
            acc[tup] = acc.get(tup, 0) + sign * c1 * c2
    return ExtElem.make(acc)


def boundary(e: ExtElem) -> ExtElem:
    """Alternating deletion sum: d(e_{t1..tp}) = sum_i (-1)^(i-1) e_{..ti hat..}.

    Linear, satisfies d o d = 0, and kills the central-circuit relations:
    d(e_C) = 0 holds as logarithmic forms for every circuit C.
    """
    acc: dict[IndexTuple, Rat | int] = {}
    for tup, c in e.terms:
        for i in range(len(tup)):
            reduced = tup[:i] + tup[i + 1:]
            acc[reduced] = acc.get(reduced, 0) + c * (-1) ** i
    return ExtElem.make(acc)


@dataclass(frozen=True)
class RelationGenerator:
    """One basis element of the degree-p relation space with its provenance."""

    element: ExtElem
    kind: str  # "dependent" or "boundary"
    subset: IndexTuple  # the p-subset it came from


class OSContext:
    """Rewriting context for one arrangement: memoized normal forms."""

    def __init__(self, arr: Arrangement, matroid_ctx: MatroidContext | None = None):
        self.arr = arr
        self.matroid = matroid_ctx or MatroidContext(arr)
        self._normal_cache: dict[IndexTuple, ExtElem] = {}

    def normal_form_monomial(self, tup: IndexTuple) -> ExtElem:
        cached = self._normal_cache.get(tup)
        if cached is not None:
            return cached
        result = self._reduce_monomial(tup)
        self._normal_cache[tup] = result
        return result

    def _reduce_monomial(self, tup: IndexTuple) -> ExtElem:
        if self.arr.infinity_index in tup:
            raise ValueError("monomials are indexed by finite hyperplanes only")
        if self.matroid.dependent_with_infinity(tup):
            return ExtElem.zero()
        broken = self.matroid.broken_in(tup)
        if broken is None:
            return ExtElem.monomial(tup)
        # Solve d(e_C) = 0, C = broken u {princ}, for its lexicographically
        # largest monomial e_broken, then wedge with the remaining factors;
        # its coefficient in d(e_C) is +-1, so the substitute is integral.
        circuit = tuple(sorted(broken.support + (broken.princ,)))
        rest = tuple(i for i in tup if i not in broken.support)
        relation = boundary(ExtElem.monomial(circuit))
        lead = relation.coefficient(broken.support)
        assert lead in (1, -1), "broken circuit must appear in its circuit boundary"
        substitute = (relation - ExtElem.monomial(broken.support, lead)).scale(-lead)
        sign_fix = wedge(ExtElem.monomial(broken.support), ExtElem.monomial(rest))
        # e_tup equals sign * e_broken ^ e_rest; carry that sign through.
        sign = sign_fix.coefficient(tup)
        assert sign != 0
        return self.normal_form(wedge(substitute, ExtElem.monomial(rest)).scale(sign))

    def normal_form(self, e: ExtElem) -> ExtElem:
        """Rewrite onto nbc monomials; exact, linear, idempotent."""
        acc: dict[IndexTuple, Rat | int] = {}
        for tup, c in e.terms:
            for t, v in self.normal_form_monomial(tup).terms:
                acc[t] = acc.get(t, 0) + c * v
        return ExtElem.make(acc)

    def relation_basis(self, p: int | None = None) -> list[RelationGenerator]:
        """Basis of the degree-p relation space (default p = n).

        Dependent p-subsets contribute e_B; independent p-subsets that are
        not nbc contribute d(e_{B u H}), H the least index that is the princ
        of a broken circuit contained in B.
        """
        import itertools

        p = self.arr.n if p is None else p
        out: list[RelationGenerator] = []
        for subset in itertools.combinations(self.arr.finite_indices, p):
            if self.matroid.dependent_with_infinity(subset):
                out.append(RelationGenerator(ExtElem.monomial(subset), "dependent", subset))
                continue
            broken = self.matroid.broken_in(subset)
            if broken is None:
                continue
            extended = tuple(sorted(subset + (broken.princ,)))
            out.append(
                RelationGenerator(boundary(ExtElem.monomial(extended)), "boundary", subset)
            )
        return out
