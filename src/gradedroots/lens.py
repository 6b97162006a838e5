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
numerators over the common denominator 12p (LensTable); chi_lprime,
torsion, k2s_quarter and casson_walker keep the per-a definitions they are
tested against.  A Fourier sum over p-th roots of unity provides an
independent numeric check of the torsion.
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


def cf_value(ks):
    """Evaluate [k_1, ..., k_s] as an exact fraction."""
    v = None
    for k in reversed(list(ks)):
        v = Fraction(k) if v is None else k - 1 / v
    return v


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
        """n[i][j] for 1 <= i <= s+2, i-2 <= j <= s, flattened as a dict-free
        list of rows indexed from i-2."""
        s = self.s
        k = (0,) + self.cf  # 1-based
        n = [[0] * (s + 1) for _ in range(s + 3)]  # n[i][j], 0-padded

        def setn(i, j, v):
            n[i][j] = v

        for i in range(s + 2, 0, -1):
            for j in range(max(i - 1, 0), s + 1):
                if j == i - 1:
                    setn(i, j, 1)
                elif j < i - 1:
                    setn(i, j, 0)
                else:
                    setn(i, j, k[i] * n[i + 1][j] - n[i + 2][j])
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
    def table(self):
        """Every closed form of the space, once (see LensTable)."""
        return lens_table(self)


@dataclass(frozen=True)
class SpincCoeffs:
    """The coefficient system E(a) = (a_1..a_s) of l'_[-a g_s]."""

    a: int
    E: tuple


def generalized_cf_string(lens, a):
    """Display-only rendering of a/p as the staircase fraction

        a/p = (a_1 + (a_2 + ... (a_s / r_s) ...) / r_2) / r_1,

    with r_i = n_{is} / n_{i+1,s}; every partial fraction is < 1, which is
    what makes the digits E(a) unique.  Not used for computation."""
    E = spinc_coeffs(lens, a).E
    s = lens.s
    expr = None
    for i in range(s, 0, -1):
        r = f"{lens.n(i, s)}/{lens.n(i + 1, s)}"
        inner = str(E[i - 1]) if expr is None else f"({E[i - 1]} + {expr})"
        expr = f"{inner}/({r})"
    return f"{a}/{lens.p} = {expr}"


def spinc_coeffs(lens, a):
    """E(a) by the floor recursion, cross-checked against the descending
    generation, with the staircase inequalities (SI) verified:

        a_i = floor((a - sum_{t<i} n_{t+1,s} a_t) / n_{i+1,s});
        sum_{t>=i} n_{t+1,s} a_t < n_{is} for every i;
        a = sum_t n_{t+1,s} a_t.
    """
    if not 0 <= a < lens.p:
        raise RangeError(f"need 0 <= a < p, got a={a}")
    s = lens.s
    rem = a
    E = []
    for i in range(1, s + 1):
        ai = rem // lens.n(i + 1, s)
        E.append(ai)
        rem -= ai * lens.n(i + 1, s)
    E = tuple(E)
    if E != lens._e_table[a]:
        raise LensIdentityError(f"{lens}: floor and descending generations of E({a}) disagree")
    tail = 0  # sum_{t>=i} n_{t+1,s} a_t, one suffix pass for i = s..1
    for i in range(s, 0, -1):
        tail += lens.n(i + 1, s) * E[i - 1]
        if tail >= lens.n(i, s):
            raise LensIdentityError(f"{lens}: (SI) fails at i={i} for a={a}")
    if tail != a:
        raise LensIdentityError(f"{lens}: sum_t n_(t+1,s) a_t = {tail} != a = {a}")
    return SpincCoeffs(a=a, E=E)


def lprime_of(lens, a):
    """The distinguished representative l'_[-a g_s] = -sum a_j g_j as a
    DualVector in b-coordinates."""
    E = spinc_coeffs(lens, a).E
    return lens.graph.dual_from_pairings([-aj for aj in E])


# ---------------------------------------------------------------------------
# Dedekind sums


def dedekind_sum_direct(q, p):
    """s(q, p) = sum_l ((l/p))((ql/p)) by direct summation (integer core)."""
    p, q = int(p), int(q)
    if p < 1 or math.gcd(p, q) != 1:
        raise NotCoprime(f"need p >= 1 and gcd(q,p) = 1, got q={q}, p={p}")
    total = 0  # accumulates 4 p^2 * s(q, p)
    for l in range(1, p):
        r = (q * l) % p
        if r:
            total += (2 * l - p) * (2 * r - p)
    return Fraction(total, 4 * p * p)


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


def k2s_quarter(lens):
    """(K^2 + s)/4 = (p-1)/(2p) - 3 s(q,p)."""
    return Fraction(lens.p - 1, 2 * lens.p) - 3 * dedekind_sum(lens.q, lens.p)


def chi_lprime(lens, a):
    """chi(l'_[-a g_s]) = a(1-p)/(2p) + sum_{j=1}^a {j q'/p}."""
    if not 0 <= a < lens.p:
        raise RangeError(f"need 0 <= a < p, got a={a}")
    p, qp = lens.p, lens.q_prime
    frac_sum = sum((j * qp) % p for j in range(1, a + 1))
    return Fraction(a * (1 - p), 2 * p) + Fraction(frac_sum, p)


def chi_lprime_table(lens):
    """chi(l') for every a at once, read off the lens table."""
    tab = lens.table
    return [Fraction(c, tab.den) for c in tab.chi.tolist()]


def casson_walker(lens):
    """lambda(L(p,q)) = p s(q,p) / 2."""
    return Fraction(lens.p) * dedekind_sum(lens.q, lens.p) / 2


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


def torsion(lens, a):
    """T_{M,[-a g_s]}(1) = (p-1)/(4p) - s(q,p) - chi(l')."""
    return (Fraction(lens.p - 1, 4 * lens.p) - dedekind_sum(lens.q, lens.p)
            - chi_lprime(lens, a))


def torsion_fourier(lens, a, dps=50):
    """Numeric oracle: (1/p) sum over p-th roots of unity xi != 1 of
    xi^{-a} / ((xi - 1)(xi^q - 1)), at ``dps`` decimal digits."""
    import mpmath as mp
    p, q = lens.p, lens.q
    with mp.workdps(dps):
        total = mp.mpc(0)
        for j in range(1, p):
            xi = mp.e ** (2j * mp.pi * j / p)
            total += xi ** (-a) / ((xi - 1) * (xi ** q - 1))
        val = total / p
        if abs(mp.im(val)) >= mp.mpf(10) ** (-dps + 10):
            raise LensIdentityError(f"{lens}: Fourier torsion at a={a} is not real: {val}")
        return float(mp.re(val))


def torsion_fourier_all(lens):
    """The same Fourier sums for every a at once (double precision FFT)."""
    p, q = lens.p, lens.q
    j = np.arange(1, p)
    xi = np.exp(2j * np.pi * j / p)
    f = np.zeros(p, dtype=complex)
    f[1:] = 1.0 / ((xi - 1.0) * (xi ** q - 1.0))
    vals = np.fft.fft(f) / p
    return vals.real


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


def lens_invariants(lens, a, check_numeric=True, numeric_tol=1e-9):
    """All closed-form invariants of (L(p,q), [-a g_s]), read off the lens
    table, which checks the sw identity T - lambda/|H| = d/2 exactly; with
    ``check_numeric`` the Fourier-sum torsion must agree within
    ``numeric_tol``."""
    if not 0 <= a < lens.p:
        raise RangeError(f"need 0 <= a < p, got a={a}")
    tab = lens.table
    den = tab.den
    d_num, t_num = int(tab.d[a]), int(tab.torsion[a])
    T = Fraction(t_num, den)
    if check_numeric:
        approx = torsion_fourier(lens, a)
        if not abs(approx - float(T)) < numeric_tol:
            raise LensIdentityError(f"{lens}: Fourier torsion {approx} vs exact {float(T)}")
    # lambda = p s(q,p)/2 = s_num/24 and lambda/p = s_num/(2 den)
    return LensInvariants(a=a, chi=Fraction(int(tab.chi[a]), den), d=Fraction(d_num, den),
                          torsion=T, lam=Fraction(tab.s_num, 24),
                          sw_osz=Fraction(-d_num, 2 * den),
                          sw_tcw=Fraction(tab.s_num - 2 * t_num, 2 * den))


# ---------------------------------------------------------------------------
# exhaustive verification (used by tests and the CLI `verify` command)


def _check_e_table(lens, a):
    """The checks of spinc_coeffs for every a at once, plus the floor and
    fractional identities

        [a q'/p] = sum_t a_t n_{t+1,s-1},   (a q') mod p = sum_t a_t n_{1,t-1}.

    ``a`` is arange(p) in the dtype of ``_int_dtype(p)``."""
    p, s = lens.p, lens.s
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


def verify_lens_sweep(p_max, fourier_tol=1e-9, progress=None):
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
        a = np.arange(p, dtype=_int_dtype(p))
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
            N = np.zeros((s + 1, s + 2), dtype=a.dtype)
            N[:, 1:] = lens._ntab[:s + 1]
            k = np.array(lens.cf, dtype=a.dtype)
            bad = np.argwhere(np.triu(N[1:, 2:] != k * N[1:, 1:-1] - N[1:, :-2]))
            if len(bad):
                i, jj = bad[0] + 1
                raise LensIdentityError(f"{ctx}: n symmetry at ({i},{jj})")
            tab = lens.table
            if casson_walker_chain_formula(lens) != Fraction(tab.s_num, 24):
                raise LensIdentityError(f"{ctx}: Casson-Walker chain formula")
            _check_e_table(lens, a)
            if tab.torsion.sum() != 0:
                raise LensIdentityError(f"{ctx}: sum of torsions != 0")
            # 12p ((p-1)/4 - p s(q,p))
            if tab.chi.sum() != 3 * p * (p - 1) - p * tab.s_num:
                raise LensIdentityError(f"{ctx}: sum of chi")
            err = np.abs(torsion_fourier_all(lens) - tab.torsion / tab.den).max()
            if err > fourier_tol:
                raise LensIdentityError(f"{ctx}: Fourier torsion off by {err}")
            orbits += p
            pairs += 1
        if progress is not None:
            progress(p)
    return {"pairs": pairs, "orbits": orbits}
