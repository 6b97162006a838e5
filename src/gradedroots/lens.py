"""Lens spaces L(p, q) in closed form.

The negative continued fraction p/q = [k_1, ..., k_s] (all k_j >= 2) gives
the chain plumbing graph with decorations -k_j.  All invariants below are
evaluated exactly from the numerator table

    n_{ij} = numerator of [k_i, ..., k_j],   n_{i,i-1} = 1,  n_{ij} = 0
    for j < i - 1,     n_{ij} = k_i n_{i+1,j} - n_{i+2,j},

with n_{1s} = p, n_{2s} = q and q' = n_{1,s-1} the inverse of q mod p.

Spin^c structures correspond to a in {0..p-1} through [k] = K + 2(-a g_s + L);
the minimal representative is l' = -(a_1 g_1 + ... + a_s g_s) where the
nonnegative coefficient vector E(a) solves the staircase inequalities (SI).
Closed forms: chi(l'), d, the Casson-Walker invariant p s(q,p)/2, and the
Reidemeister-Turaev torsion (p-1)/(4p) - s(q,p) - chi(l'), where s(q,p) is
the Dedekind sum.  These are evaluated for every a at once, as integer
numerators over the common denominator 12p (LensTable), and E(a) is
generated for every a at once and checked as one table (LensSpace.e_table).
The per-a definitions they are tested against live in
tests/slow_reference.py.  An FFT of the Fourier sum over p-th roots of
unity provides an independent numeric check of the torsion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .plumbing import InvariantViolated, build_graph


class NotCoprime(ValueError):
    """gcd(p, q) must be 1."""


class RangeError(ValueError):
    """Argument outside its required range."""


class LensIdentityError(InvariantViolated):
    """A lens identity failed; the message carries the counterexample."""


# ---------------------------------------------------------------------------
# negative continued fractions


def neg_cf(p, q):
    """Hirzebruch-Jung expansion p/q = k_1 - 1/(k_2 - 1/(... - 1/k_s)).

    Unique with all k_j >= 2; requires 0 < q < p coprime."""
    p, q = int(p), int(q)
    if not 0 < q < p:
        raise RangeError(f"need 0 < q < p, got q={q}, p={p}")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p},{q}) != 1")
    ks = []
    while q:
        k = -((-p) // q)  # ceil(p / q)
        ks.append(k)
        p, q = q, k * q - p
    if any(k < 2 for k in ks):
        raise LensIdentityError(f"Hirzebruch-Jung expansion {ks} has an entry < 2")
    return ks


# ---------------------------------------------------------------------------
# the lens space and its tables


@dataclass(frozen=True)
class LensSpace:
    p: int
    q: int

    def __post_init__(self):
        if not 0 < self.q < self.p:
            raise RangeError(f"need 0 < q < p, got q={self.q}, p={self.p}")
        if math.gcd(self.p, self.q) != 1:
            raise NotCoprime(f"gcd({self.p},{self.q}) != 1")

    @cached_property
    def cf(self):
        return tuple(neg_cf(self.p, self.q))

    @property
    def s(self):
        return len(self.cf)

    @cached_property
    def _ntab(self):
        """n[i][j] for 1 <= i <= s+2 and 0 <= j <= s as a list of rows:
        1 for j = i-1, 0 for j < i-1, else k_i n[i+1][j] - n[i+2][j]."""
        s = self.s
        k = (0,) + self.cf  # 1-based
        n = [[0] * (s + 1) for _ in range(s + 3)]  # n[i][j], 0-padded
        for i in range(s + 1, 0, -1):
            n[i][i - 1] = 1
            for j in range(i, s + 1):
                n[i][j] = k[i] * n[i + 1][j] - n[i + 2][j]
        return n

    def n(self, i, j):
        """Numerator of [k_i, ..., k_j]; 1 for j = i-1, 0 for j < i-1."""
        if j < i - 1:
            return 0
        if j == i - 1:
            return 1
        return self._ntab[i][j]

    @cached_property
    def q_prime(self):
        qp = self.n(1, self.s - 1)
        if not (0 < qp < self.p and (self.q * qp) % self.p == 1):
            raise LensIdentityError(f"{self}: q' = n(1,s-1) = {qp} is not 1/q mod p")
        return qp

    def __str__(self):
        return f"L({self.p},{self.q})"

    @cached_property
    def graph(self):
        return build_graph([(i, -k) for i, k in enumerate(self.cf)],
                           [(i, i + 1) for i in range(self.s - 1)])

    @cached_property
    def _e_table(self):
        """E(a) for every a, generated downward from E(p-1); at each step
        the last nonzero entry drops by one and the block after it, if any,
        refills with (k_i - 1, k_{i+1} - 2, ..., k_s - 2)."""
        s, k = self.s, self.cf
        top = [k[0] - 1] + [kj - 2 for kj in k[1:]]
        cur = list(top)
        out = [None] * self.p
        out[self.p - 1] = tuple(cur)
        # after a refill the last nonzero entry is the last t with k_t > 2,
        # or the first entry refilled if that comes later
        big = max((t for t in range(1, s) if k[t] > 2), default=0)
        i = big  # index of the last nonzero entry of cur
        for a in range(self.p - 1, 0, -1):
            cur[i] -= 1
            if i + 1 < s:
                cur[i + 1:] = top[i + 1:]
                cur[i + 1] += 1
                i = max(i + 1, big)
            else:
                while i > 0 and cur[i] == 0:
                    i -= 1
            out[a - 1] = tuple(cur)
        if any(out[0]):
            raise LensIdentityError(f"{self}: descending generation ends at {out[0]}")
        return tuple(out)

    @cached_property
    def e_table(self):
        """E(a) for every a, once _check_e_table has checked the whole table."""
        _check_e_table(self)
        return self._e_table

    @cached_property
    def table(self):
        """Every closed form of the space, once (see LensTable)."""
        return lens_table(self)

    @cached_property
    def fourier_torsion(self):
        """The FFT torsion of every a, once (see torsion_fourier_all)."""
        return torsion_fourier_all(self)


@dataclass(frozen=True)
class SpincCoeffs:
    """The coefficient system E(a) = (a_1..a_s) of l'_[-a g_s]."""

    a: int
    E: tuple


def spinc_coeffs(lens, a):
    """E(a), a row of the checked table LensSpace.e_table."""
    if not 0 <= a < lens.p:
        raise RangeError(f"need 0 <= a < p, got a={a}")
    return SpincCoeffs(a=a, E=lens.e_table[a])


# ---------------------------------------------------------------------------
# Dedekind sums


def dedekind_sum(q, p):
    """s(q, p) via reciprocity:

        s(q,p) + s(p,q) = -1/4 + (p/q + q/p + 1/(pq)) / 12,

    with s(q + p, p) = s(q, p) and s(1, 1) = 0."""
    p = int(p)
    q = int(q) % p if p > 1 else 0
    if p < 1 or (p > 1 and math.gcd(p, q) != 1):
        raise NotCoprime(f"need gcd(q,p) = 1, got q={q}, p={p}")
    if p == 1:
        return Fraction(0)
    sign = Fraction(1)
    total = Fraction(0)
    while True:
        if q == 1:
            # s(1, p) = (p-1)(p-2) / (12p)
            total += sign * Fraction((p - 1) * (p - 2), 12 * p)
            return total
        total += sign * (Fraction(-1, 4)
                         + (Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)) / 12)
        sign = -sign
        p, q = q, p % q


# ---------------------------------------------------------------------------
# closed-form invariants


def casson_walker_chain_formula(lens):
    """The plumbing formula -(24/|H|) lambda = sum e_j + 3s + sum (2-d_j) B^{-1}_{jj}
    evaluated through the chain closed form B^{-1}_{ij} = -n_{1,i-1} n_{j+1,s} / p."""
    p, s = lens.p, lens.s
    rhs = Fraction(sum(-k for k in lens.cf) + 3 * s)
    for j in range(1, s + 1):
        deg = 1 if j in (1, s) else 2
        if s == 1:
            deg = 0
        binv_jj = Fraction(-lens.n(1, j - 1) * lens.n(j + 1, s), p)
        rhs += (2 - deg) * binv_jj
    return -Fraction(p, 24) * rhs


def torsion_fourier_all(lens):
    """The torsion as a Fourier sum, (1/p) sum over p-th roots of unity
    xi != 1 of xi^{-a} / ((xi - 1)(xi^q - 1)), for every a at once (double
    precision FFT)."""
    p, q = lens.p, lens.q
    j = np.arange(1, p)
    xi = np.exp(2j * np.pi * j / p)
    f = np.zeros(p, dtype=complex)
    f[1:] = 1.0 / ((xi - 1.0) * (xi ** q - 1.0))
    vals = np.fft.fft(f) / p
    return vals.real


# Tolerance of the FFT torsion against the exact closed form.
FOURIER_TOL = 1e-9


def _int_dtype(p):
    """int64 where every integer of the lens table and of the sweep's array
    checks provably fits, else exact object integers.  Since |s(q,p)| <
    p/12, the table entries are below 30 p^2 (< 2^53, so exact as floats)
    and their column sums below 30 p^3; E(a) . n sums and a q' are below
    p^3.  30 p^3 < 2^63 for p < 2^19."""
    return np.int64 if p < 1 << 19 else object


def _require(ok, lens, what):
    """Raise LensIdentityError naming the first a at which the per-a array
    check ``ok`` fails."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise LensIdentityError(f"{lens}: {what} at a={bad[0]}")


@dataclass(frozen=True)
class LensTable:
    """The closed forms of L(p, q) for every a at once, as integer
    numerators over the common denominator ``den`` = 12p (6p s(q,p) is an
    integer, so 12p clears every denominator):

        s_num = 12p s(q,p),   chi[a] = 12p chi(l'_[-a g_s]),
        d[a] = 12p d = 6(p-1) - 3 s_num - 2 chi[a],
        torsion[a] = 12p T(1) = 3(p-1) - s_num - chi[a].
    """

    den: int
    s_num: int
    chi: np.ndarray
    d: np.ndarray
    torsion: np.ndarray


def lens_table(lens):
    """Build the LensTable: s(q,p) once by reciprocity, 12p chi from the
    cumulative sums of (a q') mod p, and the sw identity T - lambda/p = d/2
    checked on every row as the integer equation 2 torsion - s_num = d."""
    p = lens.p
    s6 = 6 * p * dedekind_sum(lens.q, p)
    if s6.denominator != 1:
        raise LensIdentityError(f"{lens}: 6p s(q,p) = {s6} is not an integer")
    s_num = 2 * s6.numerator
    a = np.arange(p, dtype=_int_dtype(p))
    chi = 6 * (1 - p) * a + 12 * np.cumsum(a * lens.q_prime % p)
    d = 6 * (p - 1) - 3 * s_num - 2 * chi
    tors = 3 * (p - 1) - s_num - chi
    _require(2 * tors - s_num == d, lens, "sw identity")
    return LensTable(den=12 * p, s_num=s_num, chi=chi, d=d, torsion=tors)


@dataclass(frozen=True)
class LensInvariants:
    a: int
    chi: Fraction
    d: Fraction
    torsion: Fraction
    lam: Fraction          # Casson-Walker of the lens space
    sw_osz: Fraction       # chi(HF+) - d/2 with vanishing reduced part
    sw_tcw: Fraction       # -torsion + lambda / |H|


def lens_invariants(lens, a, check_numeric=True):
    """All closed-form invariants of (L(p,q), [-a g_s]), read off the lens
    table, which checks the sw identity T - lambda/|H| = d/2 exactly; with
    ``check_numeric`` the FFT torsion must agree within FOURIER_TOL."""
    if not 0 <= a < lens.p:
        raise RangeError(f"need 0 <= a < p, got a={a}")
    tab = lens.table
    den = tab.den
    d_num, t_num = int(tab.d[a]), int(tab.torsion[a])
    T = Fraction(t_num, den)
    if check_numeric:
        approx = lens.fourier_torsion[a]
        if not abs(approx - float(T)) < FOURIER_TOL:
            raise LensIdentityError(f"{lens}: Fourier torsion {approx} vs exact {float(T)}")
    # lambda = p s(q,p)/2 = s_num/24 and lambda/p = s_num/(2 den)
    return LensInvariants(a=a, chi=Fraction(int(tab.chi[a]), den), d=Fraction(d_num, den),
                          torsion=T, lam=Fraction(tab.s_num, 24),
                          sw_osz=Fraction(-d_num, 2 * den),
                          sw_tcw=Fraction(tab.s_num - 2 * t_num, 2 * den))


# ---------------------------------------------------------------------------
# exhaustive verification (used by tests and the CLI `verify` command)


def _check_e_table(lens):
    """Check the descending generation of E(a) = (a_1..a_s) for every a at
    once: the floor recursion, the staircase inequalities (SI), and the
    identities that tie E(a) to a and to a q'/p,

        a_i = floor((a - sum_{t<i} n_{t+1,s} a_t) / n_{i+1,s}),
        sum_{t>=i} n_{t+1,s} a_t < n_{is} for every i,
        a = sum_t n_{t+1,s} a_t,
        [a q'/p] = sum_t a_t n_{t+1,s-1},   (a q') mod p = sum_t a_t n_{1,t-1}.
    """
    p, s = lens.p, lens.s
    a = np.arange(p, dtype=_int_dtype(p))
    E = np.array(lens._e_table, dtype=a.dtype)

    def col(f):
        return np.array([f(t) for t in range(1, s + 1)], dtype=a.dtype)

    w = col(lambda t: lens.n(t + 1, s))
    rem = a
    for i in range(s):
        digit = rem // w[i]
        _require(digit == E[:, i], lens, "floor and descending generations of E(a) disagree")
        rem = rem - digit * w[i]
    tails = np.cumsum((E * w)[:, ::-1], axis=1)[:, ::-1]  # sum_{t>=i} n_{t+1,s} a_t
    _require((tails < col(lambda i: lens.n(i, s))).all(axis=1), lens, "(SI)")
    _require(tails[:, 0] == a, lens, "a = sum_t n_(t+1,s) a_t")
    aq = a * lens.q_prime
    _require(E @ col(lambda t: lens.n(t + 1, s - 1)) == aq // p, lens, "floor identity")
    _require(E @ col(lambda t: lens.n(1, t - 1)) == aq % p, lens, "fractional identity")


def verify_lens_sweep(p_max, fourier_tol=FOURIER_TOL):
    """Exact identity sweep over all 2 <= p <= p_max, all q, all a.

    Checks, per (p, q): the n-table symmetry, q q' = 1 mod p, both E(a)
    generation schemes with (SI), Lemma-style floor identities
    [a q'/p] = sum_t a_t n_{t+1,s-1}, the sw identity T - lambda/p = d/2,
    sum_a T = 0 and sum_a chi = (p-1)/4 - p s(q,p), the chain-formula
    Casson-Walker against p s(q,p)/2, and the FFT torsion against the
    closed form within ``fourier_tol``.  The per-a identities are array
    checks on the lens table's integer numerators.  Returns counters."""
    pairs = 0
    orbits = 0
    for p in range(2, p_max + 1):
        dtype = _int_dtype(p)
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            lens = LensSpace(p, q)
            s = lens.s
            ctx = f"L({p},{q})"
            if lens.n(1, s) != p or lens.n(2, s) != q:
                raise LensIdentityError(f"{ctx}: n-table endpoints")
            # n(i, j) = k_j n(i, j-1) - n(i, j-2) for 1 <= i <= j <= s; column
            # j + 1 of N holds n(., j), with n(i, j) = 0 for j < i - 1
            N = np.zeros((s + 1, s + 2), dtype=dtype)
            N[:, 1:] = lens._ntab[:s + 1]
            k = np.array(lens.cf, dtype=dtype)
            bad = np.argwhere(np.triu(N[1:, 2:] != k * N[1:, 1:-1] - N[1:, :-2]))
            if len(bad):
                i, jj = bad[0] + 1
                raise LensIdentityError(f"{ctx}: n symmetry at ({i},{jj})")
            tab = lens.table
            if casson_walker_chain_formula(lens) != Fraction(tab.s_num, 24):
                raise LensIdentityError(f"{ctx}: Casson-Walker chain formula")
            lens.e_table  # checks E(a) for every a
            if tab.torsion.sum() != 0:
                raise LensIdentityError(f"{ctx}: sum of torsions != 0")
            # 12p ((p-1)/4 - p s(q,p))
            if tab.chi.sum() != 3 * p * (p - 1) - p * tab.s_num:
                raise LensIdentityError(f"{ctx}: sum of chi")
            err = np.abs(lens.fourier_torsion - tab.torsion / tab.den).max()
            if err > fourier_tol:
                raise LensIdentityError(f"{ctx}: Fourier torsion off by {err}")
            orbits += p
            pairs += 1
    return {"pairs": pairs, "orbits": orbits}
