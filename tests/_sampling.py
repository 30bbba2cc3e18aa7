"""Deterministic rational sample streams for the tests and the sampled oracle.

:class:`RatSampler` is a small multiplicative congruential generator over
integers, so a fixed seed yields bit-identical draws on every platform.
The library itself samples nothing.
"""

from __future__ import annotations

from fractions import Fraction

_MOD = 2**61 - 1
_MULT = 437799614237992725  # primitive root modulo 2^61 - 1


class RatSampler:
    """Stream of small-height nonzero rationals derived from an integer seed."""

    def __init__(self, seed: int):
        self.state = (seed % _MOD) or 1

    def _next_int(self) -> int:
        self.state = (self.state * _MULT) % _MOD
        return self.state

    def integer(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]."""
        return lo + self._next_int() % (hi - lo + 1)

    def rational(self, max_num: int = 40, max_den: int = 12) -> Fraction:
        """Nonzero rational p/q with |p| <= max_num, 1 <= q <= max_den."""
        num = 0
        while num == 0:
            num = self.integer(-max_num, max_num)
        den = self.integer(1, max_den)
        return Fraction(num, den)

    def rational_vector(self, length: int, max_num: int = 40, max_den: int = 12) -> list[Fraction]:
        return [self.rational(max_num, max_den) for _ in range(length)]
