"""Slow reference definitions that the tests compare the package against.

The package evaluates the lens, Seifert and plumbing invariants through
closed forms on whole tables (``lens.LensTable``, the checked E(a) table,
``seifert.seifert_orbit``) and through the integer adjugate of the
intersection form from one bordering pass, checks the lens identities as
integer array programs on every q of one p at once, and the oracle reads
its lattice edges off its enumeration tree.  The per-a definitions, the
Fraction Dedekind sum and Casson-Walker chain formula, the per-space lens
sweep, the per-term numeric Seifert torsion limit, the Bareiss
elimination and the Fraction inverse read off it, the mpmath Fourier sum,
the sorting lattice edges, the union-find merge tree, the per-orbit
spin^c records, the greedy module and depth-first key of a graded root
and the row-by-row ``analyze`` report below are the independent slow
paths those are checked against; nothing in the package calls them.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from gradedroots import engine, plumbing
from gradedroots import lens as lens_mod
from gradedroots.lens import (FOURIER_TOL, LensIdentityError, LensSpace, NotCoprime,
                              RangeError, spinc_coeffs, torsion_fourier_all)
from gradedroots.plumbing import (LatticeVector, NotNegativeDefinite, _coeffs, canonical_class,
                                  characteristic_from_pairings, laufer_ascent)
from gradedroots.roots import ZUModule, _fmt_q, level_sweep, merge_tree, root_from_tau
from gradedroots.spinc import (_integral_pairings, enumerate_spinc, smith_decompose,
                               smith_normal_form)


# ---------------------------------------------------------------------------
# lens spaces


def cf_value(ks):
    """Evaluate [k_1, ..., k_s] as an exact fraction."""
    v = None
    for k in reversed(list(ks)):
        v = Fraction(k) if v is None else k - 1 / v
    return v


@functools.cache
def _package_n_rows(lens):
    return lens_mod._n_tables(np.array([lens.cf], dtype=lens_mod._int_dtype(lens.p)))[0].tolist()


def lens_n(lens, i, j):
    """n(i, j), the numerator of [k_i, ..., k_j], for 1 <= i <= s + 2 and
    -1 <= j <= s (1 for j = i-1, 0 for j < i-1): read off the package's
    n-table lens._n_tables, on a batch of one."""
    return _package_n_rows(lens)[i][j + 1]


def generalized_cf_string(lens, a):
    """Display-only rendering of a/p as the staircase fraction

        a/p = (a_1 + (a_2 + ... (a_s / r_s) ...) / r_2) / r_1,

    with r_i = n_{is} / n_{i+1,s}; every partial fraction is < 1, which is
    what makes the digits E(a) unique.  Not used for computation."""
    E = spinc_coeffs(lens, a).E
    s = lens.s
    expr = None
    for i in range(s, 0, -1):
        r = f"{lens_n(lens, i, s)}/{lens_n(lens, i + 1, s)}"
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


def dedekind_sum_reciprocity(q, p):
    """s(q, p) via the Fraction reciprocity

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


def casson_walker_chain_formula(lens):
    """The plumbing formula -(24/|H|) lambda = sum e_j + 3s + sum (2-d_j) B^{-1}_{jj}
    evaluated through the chain closed form B^{-1}_{ij} = -n_{1,i-1} n_{j+1,s} / p."""
    p, s = lens.p, lens.s
    rhs = Fraction(sum(-k for k in lens.cf) + 3 * s)
    for j in range(1, s + 1):
        deg = 1 if j in (1, s) else 2
        if s == 1:
            deg = 0
        binv_jj = Fraction(-lens_n(lens, 1, j - 1) * lens_n(lens, j + 1, s), p)
        rhs += (2 - deg) * binv_jj
    return -Fraction(p, 24) * rhs


def n_table(lens):
    """n[i][j] for 1 <= i <= s+2 and 0 <= j <= s as a list of rows:
    1 for j = i-1, 0 for j < i-1, else k_i n[i+1][j] - n[i+2][j]."""
    s = lens.s
    k = (0,) + lens.cf  # 1-based
    n = [[0] * (s + 1) for _ in range(s + 3)]  # n[i][j], 0-padded
    for i in range(s + 1, 0, -1):
        n[i][i - 1] = 1
        for j in range(i, s + 1):
            n[i][j] = k[i] * n[i + 1][j] - n[i + 2][j]
    return n


def descending_e_table(lens):
    """E(a) for every a, generated downward from E(p-1); at each step
    the last nonzero entry drops by one and the block after it, if any,
    refills with (k_i - 1, k_{i+1} - 2, ..., k_s - 2)."""
    s, k = lens.s, lens.cf
    top = [k[0] - 1] + [kj - 2 for kj in k[1:]]
    cur = list(top)
    out = [None] * lens.p
    out[lens.p - 1] = tuple(cur)
    # after a refill the last nonzero entry is the last t with k_t > 2,
    # or the first entry refilled if that comes later
    big = max((t for t in range(1, s) if k[t] > 2), default=0)
    i = big  # index of the last nonzero entry of cur
    for a in range(lens.p - 1, 0, -1):
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
        raise LensIdentityError(f"{lens}: descending generation ends at {out[0]}")
    return tuple(out)


def _require(ok, lens, what):
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise LensIdentityError(f"{lens}: {what} at a={bad[0]}")


def check_e_table_per_space(lens, n):
    """The E(a) identities of one space, with the n-table ``n`` of
    n_table: the descending generation against the floor recursion, (SI),
    the a-sum and the floor and fractional identities."""
    p, s = lens.p, lens.s
    a = np.arange(p, dtype=object)
    E = np.array(descending_e_table(lens), dtype=object)

    def col(f):
        return np.array([f(t) for t in range(1, s + 1)], dtype=object)

    w = col(lambda t: n[t + 1][s])
    rem = a
    for i in range(s):
        digit = rem // w[i]
        _require(digit == E[:, i], lens, "floor and descending generations of E(a) disagree")
        rem = rem - digit * w[i]
    tails = np.cumsum((E * w)[:, ::-1], axis=1)[:, ::-1]  # sum_{t>=i} n_{t+1,s} a_t
    _require((tails < col(lambda i: n[i][s])).all(axis=1), lens, "(SI)")
    _require(tails[:, 0] == a, lens, "a = sum_t n_(t+1,s) a_t")
    aq = a * n[1][s - 1]
    _require(E.dot(col(lambda t: n[t + 1][s - 1])) == aq // p, lens, "floor identity")
    _require(E.dot(col(lambda t: n[1][t - 1])) == aq % p, lens, "fractional identity")


def verify_lens_sweep_per_space(p_max):
    """The lens sweep one space at a time, on Python integers and Fractions:
    the reference for lens.verify_lens_sweep, with its identities, failure
    message stems and counters."""
    pairs = orbits = 0
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            lens = LensSpace(p, q)
            s, n, k = lens.s, n_table(lens), lens.cf
            if n[1][s] != p or n[2][s] != q:
                raise LensIdentityError(f"{lens}: n-table endpoints")
            for i in range(1, s + 1):
                for j in range(i, s + 1):
                    prev2 = n[i][j - 2] if j >= 2 else 0
                    if n[i][j] != k[j - 1] * n[i][j - 1] - prev2:
                        raise LensIdentityError(f"{lens}: n symmetry at ({i},{j})")
            qp = n[1][s - 1]
            if not (0 < qp < p and (q * qp) % p == 1):
                raise LensIdentityError(f"{lens}: q' = n(1,s-1) = {qp} is not 1/q mod p")
            s12 = 12 * p * dedekind_sum_reciprocity(q, p)
            if s12.denominator != 1 or s12.numerator % 2:
                raise LensIdentityError(f"{lens}: 6p s(q,p) = {s12 / 2} is not an integer")
            s_num = s12.numerator
            a = np.arange(p, dtype=object)
            chi = 6 * (1 - p) * a + 12 * np.cumsum(a * qp % p)
            d = 6 * (p - 1) - 3 * s_num - 2 * chi
            tors = 3 * (p - 1) - s_num - chi
            _require(2 * tors - s_num == d, lens, "sw identity")
            if casson_walker_chain_formula(lens) != Fraction(s_num, 24):
                raise LensIdentityError(f"{lens}: Casson-Walker chain formula")
            check_e_table_per_space(lens, n)
            if tors.sum() != 0:
                raise LensIdentityError(f"{lens}: sum of torsions != 0")
            if chi.sum() != 3 * p * (p - 1) - p * s_num:
                raise LensIdentityError(f"{lens}: sum of chi")
            err = max(abs(x - t / (12 * p)) for x, t in zip(torsion_fourier_all(lens), tors))
            if err > FOURIER_TOL:
                raise LensIdentityError(f"{lens}: Fourier torsion off by {err}")
            orbits += p
            pairs += 1
    return {"pairs": pairs, "orbits": orbits}


def os_d_numerators(p, q, memo):
    """4p d(p, q, i) for i = 0..p-1 by the Ozsvath-Szabo recursion

        d(p, q, i) = -1/4 + (2i + 1 - p - q)^2 / (4pq) - d(q, r, j),

    r = p mod q, j = i mod q, d(1, 0, 0) = 0, on integers: with
    D(p, q, i) = 4p d(p, q, i),

        q D(p, q, i) = (2i + 1 - p - q)^2 - pq - p D(q, r, j).

    ``memo`` holds the arrays of (q, r) pairs already computed."""
    if (p, q) not in memo:
        if q == 0:
            memo[p, q] = np.zeros(1, dtype=np.int64)
        else:
            i = np.arange(p, dtype=np.int64)
            below = os_d_numerators(q, p % q, memo)[i % q]
            D, rem = np.divmod((2 * i + 1 - p - q) ** 2 - p * q - p * below, q)
            if rem.any():
                raise LensIdentityError(f"4p d({p},{q},i) is not an integer")
            memo[p, q] = D
    return memo[p, q]


def k2s_quarter(lens):
    """(K^2 + s)/4 = (p-1)/(2p) - 3 s(q,p)."""
    return Fraction(lens.p - 1, 2 * lens.p) - 3 * dedekind_sum_reciprocity(lens.q, lens.p)


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
    return Fraction(lens.p) * dedekind_sum_reciprocity(lens.q, lens.p) / 2


def torsion(lens, a):
    """T_{M,[-a g_s]}(1) = (p-1)/(4p) - s(q,p) - chi(l')."""
    return (Fraction(lens.p - 1, 4 * lens.p) - dedekind_sum_reciprocity(lens.q, lens.p)
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
        atil = [sum(lens_n(leg, t + 2, s) * E[t] for t in range(j, s)) for j in range(s)]
        prev = i
        for j in range(1, s + 1):
            num = prev * lens_n(leg, j + 1, s) - atil[j - 1]
            v = -((-num) // lens_n(leg, j, s))  # ceil for positive denominator
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


def _eliminate(M):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of [M | I].

    Every step k divides exactly by the previous pivot, so all entries stay
    integers: minors of [M | I].  Rows are swapped only when a pivot
    vanishes.  Returns (adj, det, minors): the adjugate and determinant of
    M (adj = None and det = 0 for a singular M), and its leading principal
    minors, which are the pivots up to the first vanishing one and zeros
    from there on."""
    s = len(M)
    rows = [[int(v) for v in row] + [int(i == j) for j in range(s)]
            for i, row in enumerate(M)]
    minors = []
    prev, sign = 1, 1
    for k in range(s):
        if rows[k][k] == 0:
            minors.extend([0] * (s - len(minors)))
            r = next((r for r in range(k + 1, s) if rows[r][k]), None)
            if r is None:
                return None, 0, minors
            rows[k], rows[r] = rows[r], rows[k]
            sign = -sign
        elif len(minors) == k:
            minors.append(rows[k][k])
        pk = rows[k]
        p = pk[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                # columns j < k are settled (0 off the diagonal); not read again
                row[k + 1:] = [(p * a - f * b) // prev
                               for a, b in zip(row[k + 1:], pk[k + 1:])]
                row[k] = 0
        prev = p
    return [[sign * v for v in row[s:]] for row in rows], sign * prev, minors


def adjugate(M):
    """(adj, det) of a nonsingular integer matrix, so M adj = det I, by one
    fraction-free elimination."""
    adj, det, _ = _eliminate(M)
    if not det:
        raise ZeroDivisionError("singular matrix has no inverse")
    return adj, det


def build_form_by_elimination(B):
    """(adjugate_neg, det) of the form B as the package once built it: one
    Bareiss elimination of B, Sylvester's criterion on its leading minors
    (NotNegativeDefinite at the first that vanishes or has the wrong sign)
    and adj(-B) = (-1)^(s-1) adj(B)."""
    adj, det, minors = _eliminate(B)
    for i, d in enumerate(minors):
        if d == 0 or (d > 0) != (i % 2 == 1):
            raise NotNegativeDefinite(f"leading principal minor of size {i + 1} "
                                      "has the wrong sign (or vanishes)")
    neg = 1 if det < 0 else -1
    return tuple(tuple(neg * v for v in row) for row in adj), det


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


def smith_coords(graph):
    """The Smith coordinates of H = L'/L as a function of the pairing vector
    c of an element of L': (U c) mod diag, with U of the Smith form
    U B V = D, so c is in L exactly when every coordinate is 0."""
    diag, U, _ = smith_normal_form(graph.form.B)

    def coords(c):
        return tuple(sum(u * ci for u, ci in zip(row, c)) % d if d else
                     sum(u * ci for u, ci in zip(row, c))
                     for row, d in zip(U, diag))
    return coords


def scalar_ascend(graph, c):
    """The pairing vector of l'_[k] for the l' in L' with integer pairings
    c, by one scalar Laufer ascent from x0 = ceil(A c / |det B|)."""
    order = graph.form.order
    x = [-(-v // order) for v in graph.form.numerators(c)]
    pair = [ci + p for ci, p in zip(c, graph.pairings(x))]
    laufer_ascent(graph.e, graph.adjacency, x, pair)
    return tuple(pair)


def spinc_records(graph):
    """Per orbit, in Smith-coordinate order, (pairings, l'_[k], k_r,
    k_r^2): the pairing vector U^{-1} t of each Smith tuple t through
    :func:`scalar_ascend`, l'_[k] from ``dual_from_pairings``, k_r from
    ``characteristic_from_pairings`` and k_r^2 from ``form.square``."""
    H = smith_decompose(graph.form.B)
    K = canonical_class(graph)
    records = []
    for t in itertools.product(*(range(d) for d in H.smith_diag)):
        c = [sum(tj * row[j] for j, tj in enumerate(t)) for row in H.U_inv]
        pair = scalar_ascend(graph, c)
        k_r = characteristic_from_pairings(graph, [k + 2 * p for k, p in zip(K.pairings, pair)])
        records.append((pair, graph.dual_from_pairings(pair), k_r,
                        graph.form.square(k_r.pairings)))
    return records


def orbit_of(graph, orbits, l_prime):
    """Find the enumerated orbit containing l' + L (matching by Smith coords)."""
    coords = smith_coords(graph)
    key = coords(_integral_pairings(graph, l_prime))
    for orb in orbits:
        if coords(orb.pairings) == key:
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


def union_find_root(levels, eu, ev, top=None, truncated=False):
    """The merge tree of a filtered graph given as arrays, swept by the
    Python union-find ``roots.level_sweep`` up to ``top``: the reference
    for the array sweeps of the oracle."""
    levels = [int(v) for v in levels]
    links = sorted((max(levels[u], levels[v]), u, v)
                   for u, v in zip(np.asarray(eu).tolist(), np.asarray(ev).tolist()))
    steps = level_sweep(len(levels), sorted(zip(levels, range(len(levels)))), links, top)
    return merge_tree(steps, top=top, truncated=truncated)


# ---------------------------------------------------------------------------
# graded roots, from child lists


def _children(root):
    kids = [[] for _ in root.chi]
    for v, p in enumerate(root.parents):
        if p is not None:
            kids[p].append(v)
    return kids


def module_of_root_greedy(root):
    """H(R, chi) via the greedy minima ordering: v_1 is a global minimum;
    each later v_k is a remaining minimum of least chi (ties by vertex id),
    and w_k is the lowest vertex dominating both v_k and some earlier v.
    The reference for the elder rule of ``roots.module_of_root``."""
    if root.truncated:
        raise ValueError("module of a truncated root is not determined")
    kids, parents = _children(root), root.parents
    minima = sorted((v for v in range(len(root.chi)) if not kids[v]),
                    key=lambda v: (root.chi[v], v))
    v1 = minima[0]
    covered = set()
    w = v1
    while w is not None:
        covered.add(w)
        w = parents[w]
    finite = []
    for v in minima[1:]:
        w = v
        path = []
        while w not in covered:
            path.append(w)
            w = parents[w]
        covered.update(path)
        finite.append((Fraction(2 * root.chi[v]), root.chi[w] - root.chi[v]))
    return ZUModule(Fraction(2 * root.chi[v1]), tuple(finite))


def canonical_key_dfs(root):
    """The label-independent key of a graded root by an iterative
    post-order from each top vertex: the reference for the one pass up the
    levels of ``GradedRoot.canonical_key``.  Each vertex gets the nested
    encoding (chi, sorted encodings of its children); the flat key follows
    by ranking each level's distinct encodings, a vertex's signature being
    the sorted ranks of its children's encodings."""
    kids = _children(root)
    tops = [v for v, p in enumerate(root.parents) if p is None]
    enc = [None] * len(root.chi)
    for top in tops:
        stack = [(top, False)]
        while stack:
            v, done = stack.pop()
            if done:
                enc[v] = (root.chi[v], tuple(sorted(enc[c] for c in kids[v])))
            else:
                stack.append((v, True))
                stack.extend((c, False) for c in kids[v])
    levels, rank = [], {}  # rank: the previous level's encodings, ranked
    for c in range(min(root.chi), root.top_level + 1):
        on = [v for v, cv in enumerate(root.chi) if cv == c]
        levels.append(tuple(sorted(tuple(sorted(rank[enc[k]] for k in kids[v])) for v in on)))
        rank = {e: n for n, e in enumerate(sorted({enc[v] for v in on}))}
    return (root.truncated, root.top_level, tuple(levels))


# ---------------------------------------------------------------------------
# the analyze report, row by row


def analyze_payload(graph):
    """The ``analyze --format json`` payload of an AR graph, rendered orbit
    by orbit in Fraction arithmetic: the engine's tau, the whole of it,
    gives the root R_tau, whose greedy module shifted by -(k_r^2 + s)/4 is
    HF+(-M, [k]); d = (k_r^2 + s)/4 - 2 min tau, rank_red is the module's
    length, and every rational goes through ``_fmt_q``.  The reference for
    ``cli.cmd_analyze``, which prints each column from integer numerators."""
    cls = engine.classify(graph)
    orbits = []
    for orb in enumerate_spinc(graph):
        tau = engine.tau(graph, cls.j0, orb)
        kr2s = Fraction(orb.kr2_num, orb.order) + graph.s
        module = module_of_root_greedy(root_from_tau(tau)).shifted(-kr2s / 4)
        d = kr2s / 4 - 2 * tau.min()
        rank = module.rank_reduced()
        orbits.append({"orbit": orb.orbit_index,
                       "l_prime": [_fmt_q(c) for c in orb.l_prime_min],
                       "d": _fmt_q(d), "rank_red": rank, "chi_hf": rank,
                       "sw_osz": _fmt_q(rank - d / 2), "tau": list(tau.values),
                       "certified": tau.certified, "l_prime_pairings": list(orb.pairings),
                       "module": {"tower": _fmt_q(module.tower_degree),
                                  "finite": [[_fmt_q(a), n] for a, n in module.finite]}})
    return {"classification": cls.describe(),
            "k2_plus_s": _fmt_q(plumbing.k_squared_plus_s(graph)),
            "casson_walker": _fmt_q(plumbing.casson_walker(graph)), "orbits": orbits}
