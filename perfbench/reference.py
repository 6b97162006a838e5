"""Reference values computed apart from the program.

Nothing here imports ``gradedroots``: every value the benchmark checks the
program against comes from an independent formula or an independent exact
computation, so a wrong answer cannot be confirmed by the code that made it.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# integer linear algebra on plumbing forms


def form_matrix(vertices, edges):
    """Intersection matrix of a plumbing tree given as (id, e) pairs and
    id edges, indexed in the order of ``vertices``."""
    index = {v: i for i, (v, _) in enumerate(vertices)}
    s = len(vertices)
    B = [[0] * s for _ in range(s)]
    for i, (_, e) in enumerate(vertices):
        B[i][i] = e
    for a, b in edges:
        B[index[a]][index[b]] = B[index[b]][index[a]] = 1
    return B


def det(B):
    """Exact determinant by fraction-free (Bareiss) elimination with pivoting."""
    m = [list(row) for row in B]
    s = len(m)
    sign, prev = 1, 1
    for k in range(s):
        piv = next((r for r in range(k, s) if m[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, s):
            for j in range(k + 1, s):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[s - 1][s - 1]


def is_negative_definite(B):
    """Sylvester: the k x k leading minor of B has sign (-1)^k."""
    for k in range(1, len(B) + 1):
        minor = det([row[:k] for row in B[:k]])
        if minor == 0 or (minor > 0) != (k % 2 == 0):
            return False
    return True


def adjugate(B):
    """det(B) * B^{-1} as an integer matrix, by Gauss-Jordan over Q."""
    s = len(B)
    d = det(B)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(s)]
           for i, row in enumerate(B)]
    for col in range(s):
        piv = next(r for r in range(col, s) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [a / pv for a in aug[col]]
        for r in range(s):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    out = []
    for row in aug:
        vals = [v * d for v in row[s:]]
        if any(v.denominator != 1 for v in vals):
            raise ArithmeticError("det(B) * B^{-1} is not integral")
        out.append([int(v) for v in vals])
    return out


def h_order(B):
    """|H_1| = |det B|."""
    return abs(det(B))


def class_key(adj, order, c):
    """Key of the class of a pairing vector c in L'/L: two pairing vectors
    lie in one class exactly when adj(B) (c1 - c2) vanishes mod |det B|."""
    return tuple(sum(a * x for a, x in zip(row, c)) % order for row in adj)


def canonical_pairings(B):
    """(K, E_v) = -e_v - 2 for the canonical class K."""
    return [-B[i][i] - 2 for i in range(len(B))]


# ---------------------------------------------------------------------------
# lens spaces


def os_lens_d(p, q, i):
    """d(L(p, q), i) by the Ozsvath-Szabo recursion (Adv. Math. 173, 2003):

        d(L(p,q), i) = -1/4 + (2i+1-p-q)^2 / (4pq) - d(L(q, p mod q), i mod q),

    with d(L(1, 0), 0) = 0."""
    total = Fraction(0)
    sign = 1
    while p != 1:
        total += sign * (Fraction(-1, 4) + Fraction((2 * i + 1 - p - q) ** 2, 4 * p * q))
        p, q, i = q, p % q, i % q
        sign = -sign
    return total


def dedekind_sum(q, p):
    """s(q, p) = sum_{i=1}^{p-1} ((i/p)) ((qi/p)) by direct summation."""
    def saw_num(x):
        # 2p * ((x/p)) as an integer
        r = x % p
        return 0 if r == 0 else 2 * r - p
    return Fraction(sum(saw_num(i) * saw_num(q * i) for i in range(1, p)), 4 * p * p)


def lens_casson_walker(p, q):
    """lambda(L(p, q)) = p s(q, p) / 2."""
    return p * dedekind_sum(q, p) / 2


def lens_sweep_counts(p_max):
    """(spaces, orbits) of the exact sweep over 2 <= p <= p_max, 1 <= q < p,
    gcd(p, q) = 1: phi(p) spaces of p orbits each."""
    pairs = orbits = 0
    for p in range(2, p_max + 1):
        n = sum(1 for q in range(1, p) if math.gcd(p, q) == 1)
        pairs += n
        orbits += n * p
    return pairs, orbits


# ---------------------------------------------------------------------------
# lattice point counts


def sigma3(m):
    return sum(d ** 3 for d in range(1, m + 1) if m % d == 0)


def e8_sublevel_count(level):
    """#{x in E8 : x.x <= 2 level} = 1 + 240 sum_{m <= level} sigma_3(m),
    the coefficients of the theta series E_4.  For the all -2 E8 tree K = 0,
    so chi(x) = -x^2/2 and this is the canonical sublevel set at ``level``."""
    return 1 + 240 * sum(sigma3(m) for m in range(1, level + 1))


def an_level1_count(n):
    """#{x in A_n : x.x <= 2} = 1 + n(n+1): zero and the roots."""
    return 1 + n * (n + 1)


# ---------------------------------------------------------------------------
# Seifert data and Brieskorn spheres


def seifert_h_order(e0, legs):
    """|H_1| = |e| alpha_1 ... alpha_nu with e = e0 + sum omega/alpha."""
    e = Fraction(e0) + sum(Fraction(w, a) for a, w in legs)
    return abs(e * math.prod(a for a, _ in legs))


def brieskorn_235_family(n):
    """(k, d, rank_red, lambda) for Sigma(2, 3, n) with n = 6k -+ 1:
    d = 2 and rank_red = k - 1 for 6k - 1; d = 0 and rank_red = k for 6k + 1;
    lambda = -k either way.  Returns None outside the family."""
    if n % 6 == 5:
        k = (n + 1) // 6
        return k, Fraction(2), k - 1, Fraction(-k)
    if n % 6 == 1:
        k = (n - 1) // 6
        return k, Fraction(0), k, Fraction(-k)
    return None


def brieskorn_data(*alphas):
    """Normalized Seifert data (e0, legs) of Sigma(alphas): the solution of
    e0 + sum omega_l / alpha_l = -1 / prod(alpha) with 1 <= omega_l < alpha_l."""
    alphas = sorted(alphas)
    A = math.prod(alphas)
    for e0 in range(-1, -len(alphas) - 2, -1):
        target = -1 - e0 * A
        ws = [(target * pow(A // a, -1, a)) % a for a in alphas]
        if (sum(w * (A // a) for w, a in zip(ws, alphas)) == target
                and all(1 <= w < a for w, a in zip(ws, alphas))):
            return e0, tuple(zip(alphas, ws))
    raise ValueError(f"no normalized data for Sigma{tuple(alphas)}")


def negative_cf(a, w):
    """Hirzebruch-Jung continued fraction a/w = [k_1, ..., k_r], k_i >= 2."""
    out = []
    while w:
        k = -(-a // w)
        out.append(k)
        a, w = w, k * w - a
    return out


def seifert_star(e0, legs):
    """The star-shaped plumbing of Seifert data as (vertices, edges):
    centre e0 and one chain -k_1, ..., -k_r per leg alpha/omega."""
    vertices = [(0, e0)]
    edges = []
    nxt = 1
    for a, w in legs:
        prev = 0
        for k in negative_cf(a, w):
            vertices.append((nxt, -k))
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return vertices, edges


def parse_q(text):
    """A rational printed by the program as "p/q" or "n"."""
    return Fraction(text)
