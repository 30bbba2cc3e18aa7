"""Seeded benchmark inputs: generic arrangements and non-resonant numeric weights.

Every draw comes from ``random.Random`` seeded by the workload seed, so the
same seed gives the same inputs.  The library receives only the drawn
arrangements and weights; its own sampling seed stays at its default.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import arrgm
from arrgm.errors import ArrgmError

# Coefficients of the non-frame forms.
SMALL_INTS = (-3, -2, -1, 1, 2, 3)


def generic_arrangement(rng: random.Random, n: int, size: int) -> arrgm.Arrangement:
    """Coordinate frame x0..xn (x0 at infinity) plus small-integer forms.

    Redrawn until ``validate`` accepts the forms and ``bad_loci`` is empty,
    so the arrangement is in general position.
    """
    frame = [[1 if j == i else 0 for j in range(n + 1)] for i in range(n + 1)]
    while True:
        extra = [[rng.choice(SMALL_INTS) for _ in range(n + 1)] for _ in range(size - n - 1)]
        try:
            arr = arrgm.validate([arrgm.ProjForm.make(row) for row in frame + extra], 0)
        except ArrgmError:  # two forms define the same hyperplane
            continue
        if not arrgm.bad_loci(arr):
            return arr


def nonresonant_weights(rng: random.Random, arr: arrgm.Arrangement) -> arrgm.Weights:
    """Weights a_i, ah in (-1, 1) with no integer sum over a proper subset of {a_i, ah, a0}.

    Every residue trace of the family is such a sum, so no component is
    resonant; ``validate_weights`` must accept them as well.
    """
    finite = arr.finite_indices
    while True:
        values = []
        for _ in range(len(finite) + 1):
            den = rng.randint(3, 17)
            values.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, den - 1), den))
        weights = arrgm.Weights.make(dict(zip(finite, values)), values[-1])
        residues = values + [weights.a0]
        if any(
            sum(subset).denominator == 1
            for r in range(1, len(residues))
            for subset in itertools.combinations(residues, r)
        ):
            continue
        if arrgm.validate_weights(arr, weights).ok:
            return weights


def weights_to_json(weights: arrgm.Weights) -> dict:
    """The CLI's weights file format."""
    return {
        "a": {str(i): arrgm.rat_to_str(v) for i, v in weights.a},
        "ah": arrgm.rat_to_str(weights.ah),
    }
