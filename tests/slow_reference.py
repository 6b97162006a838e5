"""Slow reference definitions that the tests compare the package against.

The package evaluates the lens, Seifert and plumbing invariants through
closed forms on whole tables (``lens.LensTable``, the checked E(a) table,
``seifert.seifert_orbit``) and through the integer adjugate of the
intersection form, and the oracle reads its lattice edges off its
enumeration tree.  The per-a definitions, the per-term numeric Seifert
torsion limit, the Fraction inverse, the mpmath Fourier sum and the
sorting lattice edges below are the independent slow paths those are
checked against; nothing in the package calls them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from gradedroots.lens import (LensIdentityError, NotCoprime, RangeError, dedekind_sum,
                              spinc_coeffs)
from gradedroots.plumbing import LatticeVector, _coeffs, adjugate, canonical_class
from gradedroots.spinc import _integral_pairings, smith_decompose


# ---------------------------------------------------------------------------
# lens spaces


def cf_value(ks):
    """Evaluate [k_1, ..., k_s] as an exact fraction."""
    v = None
    for k in reversed(list(ks)):
        v = Fraction(k) if v is None else k - 1 / v
    return v


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


def lprime_of(lens, a):
    """The distinguished representative l'_[-a g_s] = -sum a_j g_j as a
    DualVector in b-coordinates."""
    E = spinc_coeffs(lens, a).E
    return lens.graph.dual_from_pairings([-aj for aj in E])


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


# ---------------------------------------------------------------------------
# Seifert manifolds


def lprime_vector(data, sp):
    """l'_[k] as a DualVector on the star graph."""
    return data.graph.dual_from_pairings(sp.pairings)


def x_closed_form(data, sp, i):
    """The cycle x(i) by the per-leg ceiling recursion

        v_1 = ceil((i omega - a)/alpha),
        v_j = ceil((v_{j-1} n_{j+1,s} - atilde_j) / n_{j,s}),

    where atilde_j = sum_{t>=j} n_{t+1,s} a_t on each leg."""
    coeffs = [0] * data.graph.s
    coeffs[0] = i
    for leg, span, E in zip(data.leg_lens, data.leg_spans, sp.E):
        s = leg.s
        atil = [sum(leg.n(t + 2, s) * E[t] for t in range(j, s)) for j in range(s)]
        prev = i
        for j in range(1, s + 1):
            num = prev * leg.n(j + 1, s) - atil[j - 1]
            v = -((-num) // leg.n(j, s))  # ceil for positive denominator
            coeffs[span[0] + j - 1] = v
            prev = v
    return LatticeVector(coeffs)


def torsion_limit_numeric_per_term(data, sp, steps, block=1 << 16):
    """The numeric torsion limit that seifert.torsion_limit_numeric
    regroups by periodicity: at each t = 1.0 - h, h in ``steps``, every
    increment c(i), i < 60/(o h) + 8, comes from the floor divisions, the
    terms c(i) t^(o i + alpha atilde) are added in long double, block by
    block, and P1(t)/|H| is an exact Fraction rounded to long double; the
    differences are extrapolated to h = 0 by Neville."""
    ld = np.longdouble
    alpha, o = data.alpha_lcm, data.o
    alpha_at = int(alpha * sp.atilde)
    omegas = np.array([w for _, w in data.legs], dtype=np.int64)
    alphas = np.array([a for a, _ in data.legs], dtype=np.int64)
    avec = np.array(sp.a, dtype=np.int64)
    j = np.arange(block, dtype=np.int64)
    pts = []
    for h in steps:
        t = float(1.0 - h)
        n_terms = int(60.0 / (o * h)) + 8
        logt = np.log(ld(t))
        step = np.exp(o * j[:n_terms].astype(ld) * logt)
        p_val = ld(0)
        for start in range(0, n_terms, block):
            i = start + j[:n_terms - start]
            c = 1 + sp.a0 - i * data.e0
            for l in range(data.nu):
                c = c + (-i * omegas[l] + avec[l]) // alphas[l]
            p_val += ((c.astype(ld) * step[:c.size]).sum()
                      * np.exp((o * start + alpha_at) * logt))
        tf = Fraction(t)
        p1 = (tf ** alpha - 1) ** (data.nu - 2) / data.h_order
        for a, _ in data.legs:
            p1 /= tf ** (alpha // a) - 1
        hi = float(p1)
        pts.append((1.0 - t, float(p_val - (ld(hi) + ld(float(p1 - Fraction(hi)))))))
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    for level in range(1, len(pts)):
        for k in range(len(pts) - level):
            ys[k] = (xs[k + level] * ys[k] - xs[k] * ys[k + 1]) / (xs[k + level] - xs[k])
    return ys[0]


# ---------------------------------------------------------------------------
# plumbing graphs and spin^c orbits


def invert_form(B):
    """Exact inverse of a nonsingular integer matrix as a tuple-of-tuples of
    Fractions, read off the integer adjugate."""
    adj, det = adjugate(B)
    return tuple(tuple(Fraction(a, det) for a in row) for row in adj)


def B_inv(form):
    """B^{-1} of an IntersectionForm as Fractions, B * B_inv = identity
    exactly."""
    return tuple(tuple(Fraction(-a, form.order) for a in row)
                 for row in form.adjugate_neg)


def chi_rational(graph, y, K=None):
    """The rational extension chi(y) = -((K, y) + (y, y)) / 2 on L (x) Q."""
    if K is None:
        K = canonical_class(graph)
    ys = _coeffs(y)
    Ky = sum(Fraction(cj) * yj for cj, yj in zip(K.pairings, ys))
    return -(Ky + graph.pairing(ys, ys)) / 2


def orbit_of(graph, orbits, l_prime):
    """Find the enumerated orbit containing l' + L (matching by Smith coords)."""
    H = smith_decompose(graph.form.B)
    key = H.coords(_integral_pairings(graph, l_prime))
    for orb in orbits:
        if H.coords(orb.pairings) == key:
            return orb
    raise LookupError("orbit not found; inconsistent enumeration")


# ---------------------------------------------------------------------------
# the oracle's lattice edges by sorting


def _tuple_ids(coords, order, cols):
    """For k = 0 .. len(cols), ids of the tuples coords[p, cols[:k]]:
    equal tuples get equal ids, each below the number of rows n < 2^31.
    ``order`` must sort the rows by those columns, cols[0] first."""
    n = len(coords)
    changed = np.zeros(n - 1, dtype=bool)
    ids = np.zeros(n, dtype=np.int32)
    yield ids
    for d in cols:
        col = coords[order, d]
        changed |= col[1:] != col[:-1]
        ids = np.empty(n, dtype=np.int32)
        ids[order] = np.concatenate(([0], np.cumsum(changed)))
        yield ids


def lattice_edges(coords):
    """Pairs (u, v) of row indices with coords[v] = coords[u] + e_j, the
    reference for the edges that ``oracle`` reads off its enumeration tree.

    Rows must be distinct.  For each j the rows are grouped by all their
    coordinates but the j-th, and sorted by the j-th inside a group, so
    u + e_j, when present, follows u.  A group is named by the ids of its
    prefix (columns before j) and suffix (columns after j), both below
    the number of rows n, so the group key stays below n^2 < 2^62; no key
    depends on the width of the box."""
    n, s = coords.shape
    if n >= 1 << 31:
        raise ValueError(f"{n} points exceed the 2^31 rows lattice_edges supports")
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lex = np.lexsort(coords.T[::-1])
    suffix = list(_tuple_ids(coords, np.lexsort(coords.T), range(s - 1, 0, -1)))
    prefix = _tuple_ids(coords, lex, range(s - 1))
    us, vs = [], []
    for j in range(s):
        group = next(prefix).astype(np.int64) * n + suffix[s - 1 - j]
        # stable sort of the lexicographic order keeps each group sorted by x_j
        rows = lex[np.argsort(group[lex], kind="stable")]
        g, x = group[rows], coords[rows, j]
        hit = np.nonzero((g[1:] == g[:-1]) & (x[1:] == x[:-1] + 1))[0]
        us.append(rows[hit])
        vs.append(rows[hit + 1])
    return np.concatenate(us), np.concatenate(vs)
