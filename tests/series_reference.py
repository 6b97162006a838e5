"""Slow reference for the exact Seifert torsion limit.

Exact truncated Laurent series over the rationals, and the torsion limit
computed with them: substituting t = 1 + u turns the generating functions
of P_[k](t) and P1(t)/|H| into Laurent series in u with poles of order
two, and the sought limit is the coefficient of u^0.  Every series tracks
its own precision (the first unknown exponent), so a read past the known
window fails loudly instead of silently truncating.

`seifert.seifert_torsion_limit` replaces this with a closed form; the
agreement test in `test_seifert.py` compares the two orbit by orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from gradedroots.plumbing import InvariantViolated
from gradedroots.seifert import IdentityViolated


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


def seifert_torsion_limit_series(data, sp):
    """L = lim_{t->1} (P_[k](t) - P1(t)/|H|), exactly.

    P_[k](t) = sum_i c(i) t^{o i + alpha atilde} with c(i) the tau
    increment; with rho(i) = sum_l {(-i omega_l + a_l)/alpha_l} (period
    alpha) this telescopes to

        t^{alpha atilde} [ (1+atilde) S0 - e z S0^2 - Q(z) / (1 - z^alpha) ],

    z = t^o, S0 = 1/(1-z), Q(z) = sum_{r<alpha} rho(r) z^r, while
    P1(t) = (t^alpha - 1)^{nu-2} / prod_l (t^{alpha/alpha_l} - 1).
    Both sides have a pole of order two at t = 1 which cancels in the
    difference; expanding at t = 1 + u returns the constant coefficient.
    """
    alpha = data.alpha_lcm
    o = data.o
    at = sp.atilde
    alpha_at = alpha * at
    if alpha_at.denominator != 1:
        raise IdentityViolated(f"{data.describe()}: alpha * atilde = {alpha_at} is not integral")
    alpha_at = int(alpha_at)

    R = 8  # guard digits of relative series precision
    z = one_plus_u_pow(o, R + 1)
    one_minus_z = Series.const(1, R + 1) - z          # valuation 1
    s0 = one_minus_z.inverse()                        # valuation -1
    qpoly = Series.zero(R + 1)
    for r in range(alpha):
        rho = Fraction(0)
        for (al, om), a in zip(data.legs, sp.a):
            rho += Fraction((-r * om + a) % al, al)
        if rho:
            qpoly = qpoly + one_plus_u_pow(o * r, R + 1).scaled(rho)
    one_minus_zalpha = Series.const(1, R + 1) - one_plus_u_pow(o * alpha, R + 1)
    p_bracket = (s0.scaled(1 + at)
                 - (z * (s0 * s0)).scaled(data.e)
                 - qpoly * one_minus_zalpha.inverse())
    p_series = one_plus_u_pow(alpha_at, R + 1) * p_bracket

    num = one_plus_u_pow(alpha, R + 1) - Series.const(1, R + 1)
    p1 = num.power(data.nu - 2)
    for al, _ in data.legs:
        den = one_plus_u_pow(alpha // al, R + 1) - Series.const(1, R + 1)
        p1 = p1 * den.inverse()

    diff = p_series - p1.scaled(Fraction(1, data.h_order))
    if diff.coeff(-2) != 0 or diff.coeff(-1) != 0:
        raise IdentityViolated(f"{data.describe()} orbit {sp.a0};{sp.a}: "
                               "pole of P - P1/|H| failed to cancel")
    return diff.coeff(0)
