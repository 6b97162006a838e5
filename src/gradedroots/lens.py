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
the Dedekind sum.

Everything is an integer array program.  12p s(q,p) is an integer, read
off an integer reciprocity chain (dedekind_numerator), and the closed
forms of every a are integer numerators over the common denominator 12p
(LensTable).  E(a) is the table of floor digits of every a at once, checked
as one array against the descending generation, (SI) and the floor
identities (_e_failures).  The exhaustive sweep runs the same programs on
every coprime q of one p together, on arrays padded to the longest
continued fraction of a bucket of similar lengths, so its work stays
proportional to the sum of p s over the spaces; a single space is a batch
of one.  The per-a and Fraction definitions they are tested against live
in tests/slow_reference.py.  An FFT of the Fourier sum over p-th roots of
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
    def q_prime(self):
        """n(1, s-1), by the row recurrence n(1,j) = k_j n(1,j-1) - n(1,j-2)
        from n(1,-1) = 0 and n(1,0) = 1."""
        prev, qp = 0, 1
        for k in self.cf[:-1]:
            prev, qp = qp, k * qp - prev
        if not _inverts(self.p, self.q, qp):
            raise LensIdentityError(f"{self}: q' = n(1,s-1) = {qp} is not 1/q mod p")
        return qp

    def __str__(self):
        return f"L({self.p},{self.q})"

    @cached_property
    def graph(self):
        return build_graph([(i, -k) for i, k in enumerate(self.cf)],
                           [(i, i + 1) for i in range(self.s - 1)])

    @cached_property
    def e_table(self):
        """E(a) for every a, as tuples: the floor digits, checked with every
        identity of the chain by _chain_failures on a batch of one."""
        s_num = np.array([dedekind_numerator(self.q, self.p)], dtype=_int_dtype(self.p))
        _, E, found = _chain_failures(self.p, [self.q], [self.cf], s_num)
        _raise_first(found)
        return tuple(map(tuple, E[:, 0, :].T.tolist()))

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


def check_spinc(lens, a):
    """Raise RangeError unless a names a spin^c structure of ``lens``."""
    if not 0 <= a < lens.p:
        raise RangeError(f"need 0 <= a < p, got a={a}")


def spinc_coeffs(lens, a):
    """E(a), a row of the checked table LensSpace.e_table."""
    check_spinc(lens, a)
    return SpincCoeffs(a=a, E=lens.e_table[a])


# ---------------------------------------------------------------------------
# Dedekind sums


def dedekind_numerator(q, p):
    """12p s(q, p), an integer (6p s(q,p) is one, by Rademacher-Grosswald),
    by the integer reciprocity chain: with S(q, p) = 12p s(q, p),

        q S(q, p) + p S(p mod q, q) = p^2 + q^2 + 1 - 3pq,

    from S(1, p) = (p-1)(p-2) and S(0, 1) = 0.  Needs gcd(q, p) = 1."""
    p, q = int(p), int(q)
    q = q % p
    if p == 1:
        return 0
    chain = []
    while q > 1:
        chain.append((p, q))
        p, q = q, p % q
    S = (p - 1) * (p - 2)
    for p, q in reversed(chain):
        S, rem = divmod(p * p + q * q + 1 - 3 * p * q - p * S, q)
        if rem:
            raise LensIdentityError(f"12p s({q},{p}) by reciprocity is not an integer")
    return S


def dedekind_sum(q, p):
    """s(q, p) = dedekind_numerator(q, p) / (12p), with s(q + p, p) = s(q, p)
    and s(0, 1) = 0."""
    p = int(p)
    q = int(q) % p if p > 1 else 0
    if p < 1 or (p > 1 and math.gcd(p, q) != 1):
        raise NotCoprime(f"need gcd(q,p) = 1, got q={q}, p={p}")
    return Fraction(dedekind_numerator(q, p), 12 * p)


# ---------------------------------------------------------------------------
# integer array programs on batches of spaces of one p


def _int_dtype(p):
    """int64 where every integer of the lens arrays of one p provably fits,
    else exact object integers.  The bounds, for 0 < q < p:

    - n-table entries: 0 <= n(i,j) <= p on a chain, and |n| <= p on its
      padding (k = 0 there only flips signs), so E(a) digits, bounds,
      k_j, q' and every tail sum_{t>=i} n_{t+1,s} a_t of a checked table
      are below p; a floor digit of any table is at most p;
    - E . n sums (tails, a-sum, floor and fractional identities) have at
      most p terms below p^2, so they are below p^3, and a q' < p^2;
    - |s(q,p)| < p/12, so |12p s(q,p)| < p^2, and the Casson-Walker
      numerator p(sum k - 3s) + sum_j (2 - deg_j) n_{1,j-1} n_{j+1,s} is
      below 5p^2 (sum k < 3p and s < p);
    - the lens table entries are below 30 p^2 (< 2^53, so exact as
      floats) and their row sums below 30 p^3.

    30 p^3 < 2^63 for p < 2^19."""
    return np.int64 if p < 1 << 19 else object


def _inverts(p, q, qp):
    """Whether q' is the inverse of q mod p in 0 < q' < p; on arrays, row by row."""
    return (0 < qp) & (qp < p) & (q * qp % p == 1)


# The identity families in the order in which one space is checked.  A
# failing batch names its first failing L(p, q) in q order and, in it, the
# first failing family.
_FAMILIES = ("endpoints", "symmetry", "q'", "6p s", "sw", "Casson-Walker", "generations",
             "(SI)", "a-sum", "floor", "fractional", "sum T", "sum chi", "Fourier")


def _failure(family, p, qs, bad, message):
    """(q, rank, text) for the first space of the batch ``qs`` whose row of
    ``bad`` holds a True, or None: ``message(b, at)`` words it, with ``at``
    the index of the first True in row b."""
    if not bad.any():
        return None
    rows = np.flatnonzero(bad.reshape(len(qs), -1).any(axis=1))
    b = min(rows, key=lambda r: qs[r])
    at = np.unravel_index(np.flatnonzero(bad[b])[0], bad.shape[1:]) if bad.ndim > 1 else ()
    return qs[b], _FAMILIES.index(family), f"L({p},{qs[b]}): {message(b, at)}"


def _raise_first(found):
    """Raise the LensIdentityError of the first failure, if any."""
    found = [f for f in found if f is not None]
    if found:
        raise LensIdentityError(min(found)[2])


def _n_tables(k):
    """n(i, j) of every row of ``k``, the continued fractions of a batch
    padded with 0 to a common length S: N[b, i, j + 1] = n(i, j) for
    1 <= i <= S + 2 and -1 <= j <= S, by the row recurrence in i from
    n(i, i-1) = 1.  Entries with j <= s_b are those of row b's chain."""
    B, S = k.shape
    N = np.zeros((B, S + 3, S + 2), dtype=k.dtype)
    N[:, S + 1, S + 1] = 1
    for i in range(S, 0, -1):
        N[:, i, i] = 1
        N[:, i, i + 1:] = k[:, i - 1, None] * N[:, i + 1, i + 1:] - N[:, i + 2, i + 1:]
    return N


def _chain_columns(N, s):
    """The slices of the n-tables N (see _n_tables) that the E(a) checks
    read, for chains of lengths ``s``, each of shape (S+1, B) or (S, B):

        ns[i-1] = n(i, s) for i <= s + 1, else 1,
        v[t-1] = n(t+1, s-1),   r[t-1] = n(1, t-1),

    and q' = n(1, s-1) per row."""
    B, S = N.shape[0], N.shape[2] - 2
    rows = np.arange(B)[:, None]
    i = np.arange(1, S + 2)
    ns = N[rows, i, s[:, None] + 1].T
    ns[i[:, None] > s + 1] = 1
    v = N[rows, i[1:], s[:, None]].T
    return ns, v, N[:, 1, 1:S + 1].T, N[np.arange(B), 1, s]


def _e_digits(w, p):
    """E(a) for every 0 <= a < p and every column of ``w``, the weights
    w[t-1] = n(t+1, s) (padded with 1) of a batch: the floor digits

        a_t = floor(rem_t / w_t),   rem_1 = a,   rem_{t+1} = rem_t - a_t w_t,

    as one array E[t-1, b, a]."""
    S, B = w.shape
    E = np.empty((S, B, p), dtype=w.dtype)
    rem = np.repeat(np.arange(p, dtype=w.dtype)[None], B, axis=0)
    for t in range(S):
        np.floor_divide(rem, w[t, :, None], out=E[t])
        np.remainder(rem, w[t, :, None], out=rem)
    return E


def _e_failures(p, qs, E, k, s, ns, v, r, qp):
    """Check E = E[t-1, b, a] against the descending generation and its
    identities, for the batch of spaces L(p, qs[b]) with continued
    fractions k (padded with 0 to S), lengths s and the columns of
    _chain_columns:

    - generations: E(p-1) = (k_1 - 1, k_2 - 2, ..., k_s - 2), E(0) = 0, and
      E(a-1) follows from E(a), a >= 1, by the step rule: its last nonzero
      entry a_i, which must be positive, drops by one and the entries
      after it refill with (k_{i+1} - 1, k_{i+2} - 2, ..., k_s - 2).  By
      induction on a this holds exactly when E is the table generated
      downward from E(p-1);
    - (SI): sum_{t>=i} n_{t+1,s} a_t < n_{is} for every i;
    - a-sum: a = sum_t n_{t+1,s} a_t;
    - floor: [a q'/p] = sum_t a_t n_{t+1,s-1};
    - fractional: (a q') mod p = sum_t a_t n_{1,t-1}.

    Returns the first failure of each family (see _failure)."""
    S, B, _ = E.shape
    a = np.arange(p, dtype=E.dtype)
    pos = np.arange(S)[:, None]
    rest = np.where(pos < s, k.T - 2, 0)            # (S, B), 0 on the padding
    first = np.where(pos < s, k.T - 1, 0)
    last = S - 1 - np.argmax(E[::-1] != 0, axis=0)  # (B, p)
    b, i = np.indices((B, p), sparse=True)
    at_last = E[last, b, i]
    step = np.where(pos[:, :, None] < last, E, rest[:, :, None])
    after = np.minimum(last + 1, S - 1)
    step[after, b, i] = first[after, b]
    step[last, b, i] = at_last - 1
    top = rest.copy()
    top[0] += 1
    gen = np.zeros((B, p), dtype=bool)
    gen[:, :-1] = (step[:, :, 1:] != E[:, :, :-1]).any(axis=0)
    gen[:, 1:] |= at_last[:, 1:] < 1
    gen[:, -1] |= (E[:, :, -1] != top).any(axis=0)
    gen[:, 0] |= (E[:, :, 0] != 0).any(axis=0)
    tails = np.cumsum((E * ns[1:, :, None])[::-1], axis=0)[::-1]
    aq = a * qp[:, None]

    def at(what):
        return lambda b, i: f"{what} at a={i[0]}"
    return [
        _failure("generations", p, qs, gen, at("floor and descending generations of E(a) disagree")),
        _failure("(SI)", p, qs, (tails >= ns[:-1, :, None]).any(axis=0), at("(SI)")),
        _failure("a-sum", p, qs, tails[0] != a, at("a = sum_t n_(t+1,s) a_t")),
        _failure("floor", p, qs, (E * v[:, :, None]).sum(axis=0) != aq // p, at("floor identity")),
        _failure("fractional", p, qs, (E * r[:, :, None]).sum(axis=0) != aq % p,
                 at("fractional identity")),
    ]


def _tables(p, qs, qp, s_num):
    """The closed forms of the batch L(p, qs[b]) for every a, as integer
    numerators over 12p (see LensTable), from q' and s_num = 12p s(q,p) per
    space; checks that 6p s(q,p) is an integer and the sw identity
    T - lambda/p = d/2 on every row as 2 torsion - s_num = d.  Returns
    chi, d, torsion (one row per space) and the failures."""
    a = np.arange(p, dtype=qp.dtype)
    S = s_num[:, None]
    chi = 6 * (1 - p) * a + 12 * np.cumsum(a * qp[:, None] % p, axis=1)
    d = 6 * (p - 1) - 3 * S - 2 * chi
    tors = 3 * (p - 1) - S - chi
    found = [_failure("6p s", p, qs, s_num % 2 != 0,
                      lambda b, _: f"6p s(q,p) = {s_num[b]}/2 is not an integer"),
             _failure("sw", p, qs, 2 * tors - S != d, lambda b, i: f"sw identity at a={i[0]}")]
    return chi, d, tors, found


def _fourier(p, qs):
    """The torsion as a Fourier sum, (1/p) sum over p-th roots of unity
    xi != 1 of xi^{-a} / ((xi - 1)(xi^q - 1)), for every a and every q of
    ``qs`` at once: one double precision FFT over the rows."""
    j = np.arange(1, p)
    xi = np.exp(2j * np.pi * j / p)
    f = np.zeros((len(qs), p), dtype=complex)
    # xi ** q for each Python int q, as one space at a time takes it: numpy
    # squares for q = 2, which differs from its general power in the last bit
    f[:, 1:] = 1.0 / ((xi - 1.0) * (np.array([xi ** q for q in qs]) - 1.0))
    return (np.fft.fft(f, axis=1) / p).real


def torsion_fourier_all(lens):
    """The FFT torsion of every a of one space (see _fourier)."""
    return _fourier(lens.p, [lens.q])[0]


# Tolerance of the FFT torsion against the exact closed form.
FOURIER_TOL = 1e-9


# ---------------------------------------------------------------------------
# closed-form invariants


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
    """Build the LensTable: s_num by the reciprocity chain, 12p chi from the
    cumulative sums of (a q') mod p, as a batch of one (see _tables)."""
    p = lens.p
    s_num = dedekind_numerator(lens.q, p)
    dtype = _int_dtype(p)
    chi, d, tors, found = _tables(p, [lens.q], np.array([lens.q_prime], dtype=dtype),
                                  np.array([s_num], dtype=dtype))
    _raise_first(found)
    return LensTable(den=12 * p, s_num=s_num, chi=chi[0], d=d[0], torsion=tors[0])


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
    check_spinc(lens, a)
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


def _chain_failures(p, qs, cfs, s_num):
    """Check one bucket of spaces L(p, qs[b]), continued fractions ``cfs``,
    on arrays padded to its longest chain: the n-table endpoints and the
    symmetry n(i,j) = k_j n(i,j-1) - n(i,j-2) for 1 <= i <= j <= s, q',
    the chain Casson-Walker formula

        -(24/p) lambda = sum_j (3 - k_j) + sum_j (2 - deg_j) B^{-1}_{jj},
        B^{-1}_{jj} = -n_{1,j-1} n_{j+1,s} / p,

    as the integer numerator 24 lambda = p(sum k - 3s) + sum_j (2 - deg_j)
    n_{1,j-1} n_{j+1,s} = s_num, and every E(a) identity.  Returns q' per
    space, the floor digits E[t-1, b, a] (see _e_digits) and the
    failures."""
    dtype = s_num.dtype
    s = np.array([len(cf) for cf in cfs])
    S = int(s.max())
    k = np.zeros((len(qs), S), dtype=dtype)
    for b, cf in enumerate(cfs):
        k[b, :len(cf)] = cf
    N = _n_tables(k)
    ns, v, r, qp = _chain_columns(N, s)
    sym = N[:, 1:S + 1, 2:] != k[:, None, :] * N[:, 1:S + 1, 1:-1] - N[:, 1:S + 1, :-2]
    sym &= np.triu(np.ones((S, S), dtype=bool)) & (np.arange(1, S + 1) <= s[:, None, None])
    # 2 - deg_j: 1 at both ends of a chain, 2 on a single vertex
    ends = np.zeros((len(qs), S), dtype=dtype)
    ends[:, 0] = 1
    ends[np.arange(len(qs)), s - 1] += 1
    cw = p * (k.sum(axis=1) - 3 * s) + (ends * r.T * ns[1:].T).sum(axis=1)
    found = [
        _failure("endpoints", p, qs, (ns[0] != p) | (ns[1] != np.array(qs)),
                 lambda b, _: "n-table endpoints"),
        _failure("symmetry", p, qs, sym,
                 lambda b, at: f"n symmetry at ({at[0] + 1},{at[1] + 1})"),
        _failure("q'", p, qs, ~_inverts(p, np.array(qs), qp),
                 lambda b, _: f"q' = n(1,s-1) = {qp[b]} is not 1/q mod p"),
        _failure("Casson-Walker", p, qs, cw != s_num, lambda b, _: "Casson-Walker chain formula"),
    ]
    E = _e_digits(ns[1:], p)
    return qp, E, found + _e_failures(p, qs, E, k, s, ns, v, r, qp)


def _sweep_failures(p):
    """Every identity of the sweep on every coprime q of one p; returns the
    qs and the failures.  The chains are checked in buckets of lengths with
    equal bit length, so padding at most doubles their work; the tables,
    their sums and the FFT cover every q at once."""
    dtype = _int_dtype(p)
    qs = [q for q in range(1, p) if math.gcd(p, q) == 1]
    cfs = [neg_cf(p, q) for q in qs]
    s_num = np.array([dedekind_numerator(q, p) for q in qs], dtype=dtype)
    buckets = {}
    for b, cf in enumerate(cfs):
        buckets.setdefault(len(cf).bit_length(), []).append(b)
    qp = np.empty(len(qs), dtype=dtype)
    found = []
    for rows in buckets.values():
        qp[rows], _, more = _chain_failures(p, [qs[b] for b in rows], [cfs[b] for b in rows],
                                            s_num[rows])
        found += more
    chi, d, tors, more = _tables(p, qs, qp, s_num)
    err = np.abs(_fourier(p, qs) - tors / (12 * p)).max(axis=1)
    found += more + [
        _failure("sum T", p, qs, tors.sum(axis=1) != 0, lambda b, _: "sum of torsions != 0"),
        # 12p ((p-1)/4 - p s(q,p))
        _failure("sum chi", p, qs, chi.sum(axis=1) != 3 * p * (p - 1) - p * s_num,
                 lambda b, _: "sum of chi"),
        _failure("Fourier", p, qs, err > FOURIER_TOL,
                 lambda b, _: f"Fourier torsion off by {err[b]}"),
    ]
    return qs, found


def verify_lens_sweep(p_max):
    """Exact identity sweep over all 2 <= p <= p_max, all q, all a.

    Checks, per (p, q): the n-table symmetry, q q' = 1 mod p, both E(a)
    generation schemes with (SI), Lemma-style floor identities
    [a q'/p] = sum_t a_t n_{t+1,s-1}, the sw identity T - lambda/p = d/2,
    sum_a T = 0 and sum_a chi = (p-1)/4 - p s(q,p), the chain-formula
    Casson-Walker against p s(q,p)/2, and the FFT torsion against the
    closed form within FOURIER_TOL.  Every coprime q of one p is
    checked together, on integer arrays; a failure names the first failing
    L(p, q).  Returns counters; p_max < 2 raises :class:`RangeError`."""
    if p_max < 2:
        raise RangeError(f"need p_max >= 2, got p_max={p_max}")
    pairs = 0
    orbits = 0
    for p in range(2, p_max + 1):
        qs, found = _sweep_failures(p)
        _raise_first(found)
        orbits += p * len(qs)
        pairs += len(qs)
    return {"pairs": pairs, "orbits": orbits}
