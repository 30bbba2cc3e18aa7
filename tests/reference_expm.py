"""Test oracle for the monodromy closed form: mpmath's matrix exponential.

``expm_reference`` evaluates exp(-2 pi i A) at 30 significant digits with
``mpmath.expm``, independently of the quadratic identity the library uses.
"""

from __future__ import annotations

import mpmath


def expm_reference(matrix, assignment) -> list[list[complex]]:
    """exp(-2 pi i A) for a matrix A of weight expressions at ``assignment``."""
    with mpmath.workdps(30):
        values = [[e.evaluate(assignment) for e in row] for row in matrix]
        a = mpmath.matrix([[mpmath.mpf(v.numerator) / v.denominator for v in row] for row in values])
        t = mpmath.expm(-2j * mpmath.pi * a)
        return [[complex(t[i, j]) for j in range(len(values))] for i in range(len(values))]


def max_gap(matrix, reference) -> float:
    """Largest entrywise distance between two complex matrices."""
    return max(abs(x - y) for row, ref in zip(matrix, reference) for x, y in zip(row, ref))
