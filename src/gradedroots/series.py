"""Exact truncated Laurent series over the rationals.

Supports the pole analysis at t = 1 used for torsion limits: substituting
t = 1 + u turns the generating functions involved into Laurent series in u
with poles of order two, and the sought limit is the coefficient of u^0.
Every series tracks its own precision (the first unknown exponent), so a
read past the known window fails loudly instead of silently truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .plumbing import InvariantViolated


@dataclass(frozen=True)
class Series:
    """sum of coeffs[i] * u^(val + i), exact below exponent ``prec``."""

    val: int
    coeffs: tuple
    prec: int

    @staticmethod
    def make(val, coeffs, prec):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            val += 1
        coeffs = coeffs[:max(0, prec - val)]
        if not coeffs:
            val = prec
        return Series(val=val, coeffs=tuple(coeffs), prec=prec)

    @staticmethod
    def zero(prec):
        return Series(val=prec, coeffs=(), prec=prec)

    @staticmethod
    def const(c, prec):
        return Series.make(0, [Fraction(c)], prec)

    def coeff(self, n):
        if n >= self.prec:
            raise ValueError(f"coefficient of u^{n} beyond precision {self.prec}")
        if n < self.val or n - self.val >= len(self.coeffs):
            return Fraction(0)
        return self.coeffs[n - self.val]

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series.const(other, self.prec)
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val, prec)
        out = [Fraction(0)] * (prec - lo)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                n = src.val + i
                if n < prec:
                    out[n - lo] += c
        return Series.make(lo, out, prec)

    def __neg__(self):
        return Series(self.val, tuple(-c for c in self.coeffs), self.prec)

    def __sub__(self, other):
        if not isinstance(other, Series):
            other = Series.const(other, self.prec)
        return self + (-other)

    def scaled(self, c):
        c = Fraction(c)
        if c == 0:
            return Series.zero(self.prec)
        return Series(self.val, tuple(c * a for a in self.coeffs), self.prec)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scaled(other)
        # precision of a product: each factor's noise enters at
        # val_other + prec_self, and vice versa
        prec = min(self.val + other.prec, other.val + self.prec)
        val = self.val + other.val
        out = [Fraction(0)] * max(0, prec - val)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                n = i + j
                if val + n < prec:
                    out[n] += a * b
                else:
                    break
        return Series.make(val, out, prec)

    __rmul__ = __mul__

    def inverse(self):
        """1/self; requires a nonzero leading coefficient.  The relative
        precision (number of known coefficients) is preserved."""
        if not self.coeffs:
            raise ZeroDivisionError("inverting a series that is zero to precision")
        rel = self.prec - self.val
        lead = self.coeffs[0]
        # normalized tail g with self = lead * u^val * (1 + g)
        g = [c / lead for c in self.coeffs[1:]]
        inv = [Fraction(0)] * rel
        inv[0] = 1 / lead
        for n in range(1, rel):
            acc = Fraction(0)
            for j, gj in enumerate(g[:n]):
                acc += gj * inv[n - 1 - j]
            inv[n] = -acc
        return Series.make(-self.val, inv, -self.val + rel)

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return self.scaled(1 / Fraction(other))
        return self * other.inverse()

    def power(self, m):
        """self^m for m >= 1 (relative precision is preserved)."""
        if m < 1:
            raise InvariantViolated(f"power of a series needs m >= 1, got {m}")
        out = self
        for _ in range(m - 1):
            out = out * self
        return out


def one_plus_u_pow(m, rel_prec):
    """(1 + u)^m as a series with ``rel_prec`` known coefficients; m >= 0."""
    if m < 0:
        raise InvariantViolated(f"(1 + u)^m needs m >= 0, got {m}")
    coeffs = [Fraction(math.comb(m, i)) for i in range(min(rel_prec, m + 1))]
    return Series.make(0, coeffs, rel_prec)
