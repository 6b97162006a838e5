"""Seifert fibered rational homology spheres with e < 0.

Normalized data: a central Euler number e0 and nu >= 3 legs (alpha_l,
omega_l) with alpha_l >= 2, 1 <= omega_l < alpha_l coprime.  The orbifold
Euler number e = e0 + sum omega_l / alpha_l must be negative; the plumbing
graph is the star whose l-th leg carries the continued fraction of
alpha_l / omega_l.  Derived quantities:

    eps   = (2 - nu + sum 1/alpha_l) / e      ("exponent"),
    alpha = lcm(alpha_l),   o = -e alpha      (order of the central class),
    |H|   = -e alpha_1 ... alpha_nu.

Spin^c structures are the integer solutions (a_0; a_1..a_nu), 0 <= a_l <
alpha_l, a_0 >= 0, of the reduced staircase system

    1 + a_0 + i e0 + sum_l floor((i omega_l + a_l)/alpha_l) <= 0  (i > 0),

and everything downstream -- chi(l'), tau, the Dolgachev-Pinkham count,
and the Reidemeister-Turaev torsion limit -- is a closed form in this
data.  The torsion limit L is exact: the tau-increment
c(i) = 1 + atilde - i e - rho(i) splits into a linear part plus the
alpha-periodic defect rho, and the pole of order two at t = 1 cancels
against the equivariant part P1(t)/|H|; in x = log t the constant term is
a closed form in atilde, the integer moment M1 of rho and per-datum
constants, the moment M0 among them.  A float partial-sum evaluation with Richardson extrapolation
serves as an independent numeric check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import lens as lens_mod
from .plumbing import InvariantViolated, build_graph
from .roots import TauFunction, tau_invariants
from .spinc import _ascend_rows


class PositiveOrbifoldEuler(ValueError):
    """Seifert data with e >= 0 does not bound a negative-definite plumbing."""


class CountMismatch(InvariantViolated):
    """Spin^c enumeration disagrees with |H|; enumeration window bug."""


class IdentityViolated(InvariantViolated):
    """An exact identity failed; the message carries the counterexample."""


@dataclass(frozen=True)
class SeifertData:
    e0: int
    legs: tuple  # ((alpha_l, omega_l), ...)

    def __post_init__(self):
        legs = tuple((int(a), int(w)) for a, w in self.legs)
        object.__setattr__(self, "legs", legs)
        if len(legs) < 3:
            raise ValueError("need nu >= 3 legs; use the lens module for nu < 3")
        for a, w in legs:
            if a < 2 or not 1 <= w < a:
                raise ValueError(f"leg ({a},{w}) must satisfy alpha >= 2, 1 <= omega < alpha")
            if math.gcd(a, w) != 1:
                raise ValueError(f"leg ({a},{w}) not coprime")
        if self.e >= 0:
            raise PositiveOrbifoldEuler(f"orbifold Euler number {self.e} >= 0")

    @property
    def nu(self):
        return len(self.legs)

    @cached_property
    def e(self):
        return Fraction(self.e0) + sum(Fraction(w, a) for a, w in self.legs)

    @cached_property
    def eps(self):
        return (2 - self.nu + sum(Fraction(1, a) for a, _ in self.legs)) / self.e

    @cached_property
    def omega_prime(self):
        return tuple(pow(w, -1, a) for a, w in self.legs)

    @cached_property
    def alpha_lcm(self):
        return math.lcm(*(a for a, _ in self.legs))

    @cached_property
    def o(self):
        v = -self.e * self.alpha_lcm
        if v.denominator != 1 or v <= 0:
            raise IdentityViolated(f"{self.describe()}: o = -e alpha = {v}")
        return int(v)

    @cached_property
    def h_order(self):
        v = -self.e
        for a, _ in self.legs:
            v *= a
        if v.denominator != 1 or v <= 0:
            raise IdentityViolated(f"{self.describe()}: |H| = -e alpha_1...alpha_nu = {v}")
        return int(v)

    @cached_property
    def numeric_weights(self):
        """The per-datum part of torsion_limit_numeric: the block length L
        and, for each node h = c/(o alpha), c in NUMERIC_STEPS, (1 - t, n,
        log t, w, S1, T, P1(t)/|H|) at the binary t = 1.0 - h, in the float
        type of _float_dtype apart from the exact node 1 - t.  n < 60 alpha/c
        + 9 is the number of terms summed, w_j = t^(o j) for j < min(L, n),
        S1 = sum_j w_j and T_k = t^(o L k) for k <= n // L, the factor of
        block k; P1/|H| is the exact integer ratio of _p1_ratio, rounded.
        Whatever alpha, L >= 2 alpha, so a node has n // L + 1 < 30/c + 1 +
        9/L blocks, and w holds at most max(2 alpha, NUMERIC_BLOCK) entries.
        The int64 exponents o j < o L and o L k <= o n <= 60 000 o alpha +
        8 o are below 2^62 when o alpha < 2^45, as when |H| alpha < 2^45:
        o <= |H| = o prod_l alpha_l / alpha."""
        alpha, o, f = self.alpha_lcm, self.o, _float_dtype()
        L = alpha * max(2, NUMERIC_BLOCK // alpha)
        rows = []
        for c in NUMERIC_STEPS if f is np.longdouble else NUMERIC_STEPS[:3]:
            h = c / (o * alpha)
            t = 1.0 - h
            n = int(60.0 / (o * h)) + 8
            logt = np.log(f(t))
            w = np.exp(o * np.arange(min(L, n), dtype=np.int64) * logt)
            num, den = _p1_ratio(self, t)
            hi = num / den  # int / int rounds correctly; add the rounded remainder
            hn, hd = hi.as_integer_ratio()
            p1 = f(hi) + f((num * hd - hn * den) / (den * hd))
            blocks = np.exp(o * L * np.arange(n // L + 1, dtype=np.int64) * logt)
            rows.append((1.0 - t, n, logt, w, w.sum(), blocks, p1))
        return L, tuple(rows)

    @cached_property
    def limit_constants(self):
        """(beta_l = alpha/alpha_l, D, f1, e/12 - D (f2 + f1^2/2), S0_l,
        alpha M0) for seifert_torsion_limit: P1(e^x)/|H| = D x^-2 exp(f1 x +
        f2 x^2 + O(x^3)) by log((e^{mx} - 1)/(mx)) = mx/2 + m^2 x^2/24 +
        O(x^4).  On each leg g(j) = (a_l - j omega_l) mod alpha_l runs once
        through 0..alpha_l - 1 per period, since omega_l is prime to
        alpha_l, so S0_l = sum_j g(j) = alpha_l (alpha_l - 1)/2 and alpha M0
        = sum_l beta_l^2 S0_l do not depend on the orbit.  The poles of P,
        -e/o^2 x^-2 + (M0/alpha - 1)/o x^-1, must be D x^-2 + f1 D x^-1."""
        alpha, o = self.alpha_lcm, self.o
        betas = tuple(alpha // a for a, _ in self.legs)
        f1 = Fraction((self.nu - 2) * alpha - sum(betas), 2)
        f2 = Fraction((self.nu - 2) * alpha * alpha - sum(b * b for b in betas), 24)
        D = Fraction(1, o * alpha)
        s0 = tuple(a * (a - 1) // 2 for a, _ in self.legs)
        m0 = sum(b * b * v for b, v in zip(betas, s0))
        if -self.e / (o * o) != D or Fraction(m0 - alpha * alpha, alpha * alpha * o) != f1 * D:
            raise IdentityViolated(f"{self.describe()}: pole of P - P1/|H| failed to cancel")
        return betas, D, f1, self.e / 12 - D * (f2 + f1 * f1 / 2), s0, m0

    @cached_property
    def leg_lens(self):
        """Per-leg continued-fraction machinery, reusing the lens tables."""
        return tuple(lens_mod.LensSpace(a, w) for a, w in self.legs)

    @cached_property
    def graph(self):
        """Star-shaped plumbing graph; vertex 0 is the centre, legs follow
        in order with decorations from the alpha/omega expansions."""
        verts = [(0, self.e0)]
        edges = []
        nxt = 1
        for leg in self.leg_lens:
            prev = 0
            for k in leg.cf:
                verts.append((nxt, -k))
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        return build_graph(verts, edges)

    @cached_property
    def leg_spans(self):
        """Internal vertex index ranges (start, stop) of each leg."""
        spans = []
        nxt = 1
        for leg in self.leg_lens:
            spans.append((nxt, nxt + leg.s))
            nxt += leg.s
        return tuple(spans)

    def describe(self):
        legs = " ".join(f"{a}/{w}" for a, w in self.legs)
        return f"Seifert(e0={self.e0}; {legs})"


def brieskorn(*alphas):
    """The Brieskorn sphere Sigma(a_1, ..., a_nu) as normalized Seifert
    data: the unique solution with e = -1/(a_1 ... a_nu), i.e. |H| = 1
    (an integral homology sphere); requires pairwise coprime alphas."""
    alphas = sorted(int(a) for a in alphas)
    if any(math.gcd(a, b) != 1 for a, b in itertools.combinations(alphas, 2)):
        raise ValueError(f"Sigma{tuple(alphas)} needs pairwise coprime alphas")
    A = math.prod(alphas)
    # solve e0 + sum w_l/alpha_l = -1/A with 1 <= w_l < alpha_l
    # sum over l of w_l * (A/alpha_l) = -1 - e0*A  for some integer e0 < 0
    for e0 in range(-1, -len(alphas) - 2, -1):
        target = -1 - e0 * A
        ws = [(target * pow(A // a, -1, a)) % a for a in alphas]
        if sum(w * (A // a) for w, a in zip(ws, alphas)) == target:
            if all(1 <= w < a for w, a in zip(ws, alphas)):
                return SeifertData(e0=e0, legs=tuple(zip(alphas, ws)))
    raise ValueError(f"no normalized data found for Sigma{tuple(alphas)}")


# ---------------------------------------------------------------------------
# spin^c enumeration


@dataclass(frozen=True)
class SeifertSpinc:
    """One solution (a_0; a_1..a_nu) of (SI_red) with its leg expansions."""

    a0: int
    a: tuple
    atilde: Fraction
    E: tuple          # per leg, the coefficient tuples E(a_l)
    pairings: tuple   # pairing vector of l'_[k] on the star graph


def _si_red_ok(data, a0, avec):
    """1 + a0 + i e0 + sum floor((i w + a)/alpha) <= 0 for all i > 0;
    violations beyond ceil((1 + a0 + nu)/(-e)) are impossible since the
    left side is < 1 + a0 + nu + i e."""
    i_max = math.ceil(Fraction(1 + a0 + data.nu) / (-data.e))
    for i in range(1, i_max + 1):
        lhs = 1 + a0 + i * data.e0
        for (alpha, omega), a in zip(data.legs, avec):
            lhs += (i * omega + a) // alpha
        if lhs > 0:
            return False
    return True


def _spinc_from_solution(data, a0, avec):
    E = []
    pair = [0] * data.graph.s
    pair[0] = -a0
    for leg, span, al in zip(data.leg_lens, data.leg_spans, avec):
        coeffs = lens_mod.spinc_coeffs(leg, al).E
        E.append(coeffs)
        for off, c in enumerate(coeffs):
            pair[span[0] + off] = -c
    atilde = Fraction(a0) + sum(Fraction(a, alpha)
                                for (alpha, _), a in zip(data.legs, avec))
    return SeifertSpinc(a0=a0, a=tuple(avec), atilde=atilde,
                        E=tuple(E), pairings=tuple(pair))


def enumerate_seifert_spinc(data):
    """All solutions of (SI_red), in lexicographic (a0, a_1..a_nu) order.

    The count must equal |H| = -e alpha_1...alpha_nu, and each solution's
    l' must be the distinguished representative of its orbit on the star
    graph (CountMismatch otherwise)."""
    out = []
    a0_cap = -1 - data.e0
    for a0 in range(a0_cap + 1):
        for avec in itertools.product(*(range(a) for a, _ in data.legs)):
            if _si_red_ok(data, a0, avec):
                out.append(_spinc_from_solution(data, a0, avec))
    if len(out) != data.h_order:
        raise CountMismatch(
            f"{data.describe()}: found {len(out)} solutions, |H| = {data.h_order}")
    for sp, pair in zip(out, _ascend_rows(data.graph, [sp.pairings for sp in out])[0].tolist()):
        if tuple(pair) != sp.pairings:
            raise CountMismatch(
                f"{data.describe()}: {sp.a0};{sp.a} is not a minimal representative")
    return out


# ---------------------------------------------------------------------------
# closed forms


def seifert_chi_lprime(data, sp):
    """chi(l'_[k]) from

        -chi = sum_{l=0}^nu a_l/2 + eps*atilde/2 + atilde^2/(2e)
               - sum_l sum_{i=1}^{a_l} {i omega'_l / alpha_l}."""
    at = sp.atilde
    neg = Fraction(sp.a0, 2) + sum(Fraction(a, 2) for a in sp.a)
    neg += data.eps * at / 2 + at * at / (2 * data.e)
    for (alpha, _), wp, a in zip(data.legs, data.omega_prime, sp.a):
        neg -= Fraction(sum((i * wp) % alpha for i in range(1, a + 1)), alpha)
    return -neg


def seifert_k2s(data):
    """K^2 + s = eps^2 e + e + 5 - 12 sum_l s(omega_l, alpha_l)."""
    val = data.eps ** 2 * data.e + data.e + 5
    for alpha, omega in data.legs:
        val -= Fraction(lens_mod.dedekind_numerator(omega, alpha), alpha)
    return val


def tau_stop_index(data, sp):
    """i* = max(0, ceil((nu - 1 - a0) / (-e))): beyond it every increment
    is positive, since the increment c(i) = tau(i+1) - tau(i) (see
    _increments) exceeds 1 + a0 - nu - i e."""
    return max(0, math.ceil(Fraction(data.nu - 1 - sp.a0) / (-data.e)))


def seifert_tau(data, sp):
    """Certified tau function of the orbit, from the closed-form increments."""
    c = _increments(data, sp, tau_stop_index(data, sp))
    return TauFunction(values=(0, *np.cumsum(c).tolist()), certified=True)


def dp_invariant(data):
    """DP = sum_{i>=0} max(0, -1 + i e0 - sum_l floor(-i omega/alpha)),
    the canonical-orbit drop count; equals chi(HF+(-M, can)) - min chi."""
    can = _spinc_from_solution(data, 0, (0,) * data.nu)
    stop = tau_stop_index(data, can)
    return int(np.maximum(-_increments(data, can, stop + 1), 0).sum())


# ---------------------------------------------------------------------------
# exact torsion limit


def seifert_torsion_limit(data, sp):
    """L = lim_{t->1} (P_[k](t) - P1(t)/|H|), exactly.

    P_[k](t) = sum_i c(i) t^{o i + alpha atilde} with c(i) the tau
    increment; with rho(i) = sum_l {(-i omega_l + a_l)/alpha_l} (period
    alpha) this telescopes to

        t^{alpha atilde} [ (1+atilde) S0 - e z S0^2 - Q(z) / (1 - z^alpha) ],

    z = t^o, S0 = 1/(1-z), Q(z) = sum_{r<alpha} rho(r) z^r, while
    P1(t) = (t^alpha - 1)^{nu-2} / prod_l (t^{alpha/alpha_l} - 1).  The
    poles cancel, so L is the constant term in x = log t.  Up to O(x),
    1/(1-z) = -1/(o x) + 1/2, z/(1-z)^2 = 1/(o x)^2 - 1/12 and
    Q(z)/(1-z^alpha) = -M0/(alpha o x) + M0/2 - M1/alpha, with the moments
    M0 = sum rho(r) and M1 = sum r rho(r); hence

        L = (1+atilde)/2 + e/12 - M0/2 + M1/alpha + (alpha atilde)^2 D/2
            + alpha atilde (M0/alpha - 1 - atilde)/o - D (f2 + f1^2/2),

    D, f1, f2 and M0, which are the same for every orbit, as in
    SeifertData.limit_constants; that property also checks the poles.
    """
    alpha, o = data.alpha_lcm, data.o
    betas, D, f1, const, s0, m0 = data.limit_constants
    A = alpha * sp.atilde
    if A.denominator != 1:
        raise IdentityViolated(f"{data.describe()}: alpha * atilde = {A} is not integral")
    A = int(A)
    # alpha M1 from S0 and S1 = sum j g(j) over one period of
    # g(j) = (a_l - j omega_l) mod alpha_l on each leg
    m1 = 0
    for (al, om), a, b, s0_l in zip(data.legs, sp.a, betas, s0):
        s1 = sum(j * ((a - j * om) % al) for j in range(al))
        m1 += b * (b * s1 + al * b * (b - 1) // 2 * s0_l)
    num = ((alpha + A - m0) * alpha * o + 2 * m1 * o
           + 2 * A * (m0 - alpha * alpha) - A * A * alpha)
    return const + Fraction(num, 2 * alpha * alpha * o)


def _float_dtype():
    """np.longdouble where it is extended (eps below 1e-18), on all four
    NUMERIC_STEPS; np.float64 on the first three otherwise."""
    ld = np.longdouble
    return ld if np.finfo(ld).eps < 1e-18 else np.float64


def _p1_ratio(data, t):
    """P1(t)/|H| as an exact integer ratio (num, den) at the binary t = m/q,
    with P1(t) = (t^alpha - 1)^(nu-2) / prod_l (t^(alpha/alpha_l) - 1)."""
    alpha, nu = data.alpha_lcm, data.nu
    betas = [alpha // a for a, _ in data.legs]
    m, q = t.as_integer_ratio()
    num = (m ** alpha - q ** alpha) ** (nu - 2) * q ** sum(betas)
    den = (data.h_order * math.prod(m ** b - q ** b for b in betas)
           * q ** (alpha * (nu - 2)))
    return num, den


def _increments(data, sp, stop):
    """The tau increments c(i) = tau(i+1) - tau(i) = 1 + a0 - i e0 +
    sum_l floor((a_l - i omega_l)/alpha_l) for 0 <= i < stop, by the floor
    divisions.  In int64, |i omega_l| < stop alpha_l:

    - for the block of torsion_limit_numeric (stop = L <=
      max(NUMERIC_BLOCK, 2 alpha)) that is below max(NUMERIC_BLOCK,
      2 alpha) alpha;
    - for seifert_tau and dp_invariant (stop at most tau_stop_index + 1 <=
      nu alpha, as -e = o/alpha >= 1/alpha and 0 <= a0 < |e0|) it is below
      nu alpha^2 and |i e0| below nu alpha |e0|; each floor is at most
      i + 1 in size, so every c(i) is below nu alpha (|e0| + nu + 1) and
      every partial sum of at most nu alpha of them below (nu alpha)^2
      (|e0| + nu + 1).

    Both are below 2^62, far inside int64, for any datum whose spin^c
    structures can be enumerated: the first while alpha < 2^30, the
    second while nu alpha < 2^20 and |e0| + nu < 2^21."""
    i = np.arange(stop, dtype=np.int64)
    c = 1 + sp.a0 - i * data.e0
    for (al, om), a in zip(data.legs, sp.a):
        c += (a - i * om) // al
    return c


# The block of the numeric partial sums.  torsion_limit_numeric computes
# c(i) directly for i < L = alpha * floor(NUMERIC_BLOCK / alpha) (at least
# 2 alpha) once per orbit; every later block of L terms is the first one
# shifted by a multiple of o, and costs one exponential.  The numeric
# checks of the closed-forms benchmark's three Seifert data took 14, 15, 60
# and 220 ms at 2^10, 2^12, 2^14 and 2^16 (best of 5, 2-core x86-64, numpy
# 2.4); on test_numeric_limit_scan_at_large_alpha 2^10 and 2^12 tie.
NUMERIC_BLOCK = 1 << 12


# The coefficients c of the nodes h = c/(o alpha) of torsion_limit_numeric.
# The poles of P at t^(o alpha_l) = 1 come within 2 pi/(o alpha_l) of t = 1,
# so the Taylor coefficients of P - P1/|H| in h grow like (o alpha)^k, and
# nodes scaled by 1/(o alpha) keep the Neville error alike on every datum:
# 1.8e-8 at worst on (-1; 5/1, 7/1, 11/1) and on 59 orbits with alpha up to
# 7 752.  In double a fourth node raised the error sevenfold (3.0e-6 to
# 2.1e-5 on that datum), so double reads three.
NUMERIC_STEPS = (0.03, 0.01, 0.003, 0.001)


def torsion_limit_numeric(data, sp):
    """Partial-sum evaluation of P_[k](t) - P1(t)/|H| at t = 1 - h for the
    nodes h of SeifertData.numeric_weights, extrapolated to h = 0 (Neville
    through the actual sample nodes).

    P is a partial sum of the terms c(i) t^(o i + alpha atilde), i < n, in
    the float type of _float_dtype; P1/|H| is the exact integer ratio at the
    same binary t rounded to that type, and so is their difference.  Near
    t = 1 each is of size 1/h^2, so even a one-ulp disagreement in t would
    not cancel.

    The increments are periodic, c(i + alpha) = c(i) + o, since o = -e
    alpha; the block c(i), i < L, is computed once and this identity is
    checked on it (IdentityViolated otherwise).  The block of terms that
    starts at i = s, a multiple of L, is then

        (S_c + (o s / alpha) S1) t^(o s + alpha atilde),

    with S_c = sum_{j<L} c(j) t^(o j) and S1 = sum_{j<L} t^(o j); the last,
    partial block is summed term by term.  This only regroups the float
    partial sum; no geometric series is summed in closed form, so the
    check stays independent of seifert_torsion_limit.  Per orbit it costs
    one block of L terms and one exponential per node: the block factors
    t^(o s) and the weights are computed once per datum.  The int64 block
    shifts (o L / alpha) k <= o n / alpha <= 60 008 o are below 2^62
    under the bound of SeifertData.numeric_weights."""
    alpha, o = data.alpha_lcm, data.o
    alpha_at = int(alpha * sp.atilde)
    L, rows = data.numeric_weights
    c = _increments(data, sp, L)
    if not np.array_equal(c[alpha:], c[:-alpha] + o):
        raise IdentityViolated(
            f"{data.describe()} orbit {sp.a0};{sp.a}: c(i + alpha) != c(i) + o for o = {o}")
    shift = o * L // alpha  # c(i + L) - c(i)
    xs, ys = [], []
    for node, n, logt, w, s1, blocks, p1 in rows:
        nb, r = divmod(n, L)
        # int64 promotes to w's type; .sum() adds pairwise, np.dot one by one
        sums = (c[:w.size] * w).sum() + shift * np.arange(nb + 1, dtype=np.int64) * s1
        sums[nb] = ((c[:r] + shift * nb) * w[:r]).sum()
        p_val = (sums * blocks).sum() * np.exp(alpha_at * logt)
        xs.append(node)
        ys.append(float(p_val - p1))
    for level in range(1, len(xs)):  # Neville: the value at h = 0
        for j in range(len(xs) - level):
            ys[j] = (xs[j + level] * ys[j] - xs[j] * ys[j + 1]) / (xs[j + level] - xs[j])
    return ys[0]


# ---------------------------------------------------------------------------
# per-orbit invariants and the sw identity suite


@dataclass(frozen=True)
class SeifertOrbit:
    """The closed-form invariants of one spin^c orbit."""

    chi_lprime: Fraction
    kr2s: Fraction        # k_r^2 + s = K^2 + s - 8 chi(l')
    tau: TauFunction
    min_tau: int
    rank_red: int
    d: Fraction
    limit: Fraction       # the exact torsion limit L
    torsion: Fraction     # L + rank_red - min_tau


def seifert_orbit(data, sp, k2s):
    """Per-orbit record of ``sp`` on the Seifert manifold with K^2 + s =
    ``k2s``: tau, min tau, the reduced rank, d and the torsion."""
    chi_l = seifert_chi_lprime(data, sp)
    kr2s = k2s - 8 * chi_l
    tau_f = seifert_tau(data, sp)
    min_tau, rank_red, d = tau_invariants(tau_f.values, kr2s)
    limit = seifert_torsion_limit(data, sp)
    return SeifertOrbit(chi_lprime=chi_l, kr2s=kr2s, tau=tau_f, min_tau=min_tau,
                        rank_red=rank_red, d=d, limit=limit,
                        torsion=limit + rank_red - min_tau)


# Tolerance of the extrapolated numeric torsion limit against the exact one.
NUMERIC_TOL = 1e-6


def verify_sw_identity(data):
    """Exact verification of the torsion / Casson-Walker / Heegaard Floer
    identity on every spin^c orbit of the Seifert manifold:

        L(orbit) = lambda(M)/|H| + (k_r^2 + s)/8,

    where L is the exact torsion limit; equivalently T(1) - lambda/|H| =
    chi(HF+(-M)) - min tau + (k_r^2+s)/8.  Also checks the global sum
    lambda(M) = sum_orbits (chi(HF+(M,[k])) - d(M,[k])/2) and the
    Richardson-extrapolated numeric limit within NUMERIC_TOL.
    Returns a per-orbit report; raises IdentityViolated on any mismatch."""
    from .plumbing import casson_walker, k_squared_plus_s
    g = data.graph
    lam = casson_walker(g)
    k2s = k_squared_plus_s(g)
    k2s_closed = seifert_k2s(data)
    if k2s != k2s_closed:
        raise IdentityViolated(
            f"{data.describe()}: K^2+s closed form {k2s_closed} != plumbing {k2s}")
    rows = []
    global_sum = Fraction(0)
    for sp in enumerate_seifert_spinc(data):
        orb = seifert_orbit(data, sp, k2s)
        L, kr2s = orb.limit, orb.kr2s
        expect = lam / data.h_order + kr2s / 8
        if L != expect:
            raise IdentityViolated(
                f"{data.describe()} orbit {sp.a0};{sp.a}: torsion limit {L} != "
                f"lambda/|H| + (k_r^2+s)/8 = {expect}")
        if orb.torsion - lam / data.h_order != orb.rank_red - orb.min_tau + kr2s / 8:
            raise IdentityViolated(f"{data.describe()} orbit {sp.a0};{sp.a}: sw identity")
        approx = torsion_limit_numeric(data, sp)
        if abs(approx - float(L)) > NUMERIC_TOL:
            raise IdentityViolated(
                f"{data.describe()} orbit {sp.a0};{sp.a}: numeric limit "
                f"{approx} vs exact {float(L)}")
        global_sum += -orb.rank_red - orb.d / 2
        rows.append({"a0": sp.a0, "a": sp.a, "chi_lprime": orb.chi_lprime, "kr2s": kr2s,
                     "min_tau": orb.min_tau, "rank_red": orb.rank_red, "d": orb.d,
                     "torsion": orb.torsion, "limit": L})
    if global_sum != lam:
        raise IdentityViolated(
            f"{data.describe()}: sum over orbits {global_sum} != lambda {lam}")
    return {"data": data.describe(), "lambda": lam, "k2s": k2s,
            "h_order": data.h_order, "orbits": rows, "ok": True}
