"""Spin^c structures of a plumbed manifold as orbits of Char modulo 2L.

L' is identified with Z^s through pairing vectors c_j = (l', b_j); the
sublattice L sits inside as the image of B.  The quotient H = L'/L is
presented by the Smith normal form of B, which both enumerates the orbits
and decides membership questions exactly.

Each orbit [k] = K + 2(l' + L) carries a distinguished representative:
the unique componentwise-minimal element l'_[k] of (l' + L) intersected
with the cone S_Q = {x : (x, b_j) <= 0 for all j}.  It is computed by a
generalized Laufer ascent (the argument of :func:`plumbing.laufer_ascent`),
starting from the componentwise ceiling of -l' and pushing up any basis
direction with positive pairing until none is left; the result is
independent of the order of pushes.  All orbits of a graph go through one
integer pass: the Smith tuples as an index grid, their pairing vectors,
one simultaneous ascent, and then k_r, the numerators |H| l'_[k] and
|H| k_r^2, as int64 arrays where a per-graph bound proves they fit and as
exact object integers otherwise.  An orbit holds integers only; a
Fraction l'_[k] is built when a caller asks for ``l_prime_min``, and the
CLI prints l' from the numerators (:func:`l_prime_strings`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .plumbing import (CharElement, DualVector, InvariantViolated, ParityViolation,
                       canonical_class, chi_k)
from .roots import _fmt_ratios


class NotIntegral(ValueError):
    """The given vector does not lie in L' (non-integer pairings)."""


# ---------------------------------------------------------------------------
# Smith normal form


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(A):
    """U A V = D with U, V unimodular and D = diag(d_1 | d_2 | ... ), d_i >= 0.

    Returns (diag, U, V) as plain nested lists of ints."""
    A = [list(map(int, row)) for row in A]
    n = len(A)
    m = len(A[0]) if n else 0
    U, V = _identity(n), _identity(m)

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(n):
            A[r][i] -= q * A[r][j]
        for r in range(m):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(m):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def diagonalize():
        t = 0
        while t < min(n, m):
            best = None
            for i in range(t, n):
                for j in range(t, m):
                    if A[i][j] and (best is None
                                    or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            swap_rows(t, best[0])
            swap_cols(t, best[1])
            dirty = False
            for i in range(t + 1, n):
                if A[i][t]:
                    row_op(i, t, A[i][t] // A[t][t])
                    dirty = dirty or A[i][t] != 0
            for j in range(t + 1, m):
                if A[t][j]:
                    col_op(j, t, A[t][j] // A[t][t])
                    dirty = dirty or A[t][j] != 0
            if not dirty:
                t += 1

    diagonalize()
    # enforce the divisibility chain: mixing col_t with col_{t+1} plants the
    # pair back in one block, and rediagonalizing replaces it by gcd | lcm
    while True:
        fixed = True
        for t in range(min(n, m) - 1):
            a, b = A[t][t], A[t + 1][t + 1]
            if a and b and b % a != 0:
                col_op(t, t + 1, -1)
                fixed = False
        if fixed:
            break
        diagonalize()
    for i in range(min(n, m)):
        if A[i][i] < 0:
            A[i] = [-a for a in A[i]]
            U[i] = [-a for a in U[i]]
    return [A[i][i] for i in range(min(n, m))], U, V


@dataclass(frozen=True)
class HGroup:
    """H = L'/L = coker(B) in Smith coordinates.

    ``smith_diag`` lists all elementary divisors (including any 1s); their
    product equals |det B|.  With U of the Smith form U B V = D, ``U_inv``
    maps Smith coordinates t back to the pairing vector U^{-1} t."""

    order: int
    smith_diag: tuple
    U_inv: tuple


def smith_decompose(B):
    """Smith presentation of coker(B) for a nondegenerate integer matrix.

    U B V = D gives U^{-1} = B V D^{-1}: column j of B V divided exactly by
    d_j, so no matrix is inverted."""
    diag, _, V = smith_normal_form(B)
    if 0 in diag:
        raise InvariantViolated("B must be nondegenerate")
    BV = [[sum(int(b) * v for b, v in zip(row, col)) for col in zip(*V)] for row in B]
    if any(x % d for row in BV for x, d in zip(row, diag)):
        raise InvariantViolated("B V is not divisible by the Smith diagonal")
    return HGroup(order=math.prod(diag), smith_diag=tuple(diag),
                  U_inv=tuple(tuple(x // d for x, d in zip(row, diag)) for row in BV))


# ---------------------------------------------------------------------------
# distinguished representatives


def _int_dtype(bound):
    """int64 when ``bound`` is below 2^62, so that a sum of two values
    within it stays below 2^63, else exact object integers."""
    return np.int64 if bound < 1 << 62 else object


def _pass_dtype(graph, c):
    """The dtype of :func:`_ascend` and :func:`_orbits` on starting
    pairing rows whose entries lie within c in absolute value: int64
    when every array and intermediate provably stays within a bound below
    2^62, else object.

    With A = ``adjugate_neg`` (entries in [0, a]), s vertices, |e_j| <= m,
    w = m - 1 and |H| = ``order``, the bound is the largest of:
    - n = s a c: |N| = |A C| for a starting row C, and every partial sum
      of it;
    - x = (n + s a w) // |H| + 1: every x of the ascent lies between
      x0 = ceil(N/|H|) and the endpoint l'_[k] + N/|H|, where
      0 <= |H| l'_[k] = -A P <= s a w since the final pairings P lie in
      [e_j + 1, 0];
    - p = c + b x, with b = max_j (|e_j| + deg j) the largest row sum of
      |B|: every pairing row P = C + B x, and every push (<= P);
    - b p: the pushes times B;
    - k = 4m: k_r = K + 2P (|K_j| = |e_j + 2| <= m) and k_r + e;
    - s a k: k_r A and the l' numerators -A P (<= s a w);
    - s k (s a k): |H| k_r^2 = -k_r A k_r and its partial sums;
    - |H|, and the Smith tuples below it."""
    s, order = graph.s, graph.form.order
    a = max(map(max, graph.form.adjugate_neg))
    m = max(-ej for ej in graph.e)
    b = max(-ej + d for ej, d in zip(graph.e, graph.degrees))
    n = s * a * c
    x = (n + s * a * (m - 1)) // order + 1
    p = c + b * x
    k = 4 * m
    return _int_dtype(max(n, x, p, b * p, s * a * k, s * k * (s * a * k), order))


def _ascend(graph, C, dtype):
    """The pairing rows of the minimal elements l'_[k] of (l' + L) n S_Q,
    one per row of C, the integer pairings of an l' in L'; by one
    simultaneous Laufer ascent in ``dtype`` (see :func:`_pass_dtype`).

    Each row starts at x0 = ceil(-l') = ceil(A c / |det B|) componentwise
    (a lower bound, since every element of S_Q is effective) with pairings
    c + B x0.  Each round pushes every j with a positive pairing, in every
    row at once, by ceil(pair_j / -e_j): each push is forced against the
    same x (the :func:`plumbing.laufer_ascent` docstring), so they all are
    together, and the endpoint is the one of any order of pushes.
    Termination is forced by negative definiteness."""
    order = graph.form.order
    A = np.array(graph.form.adjugate_neg, dtype=dtype)
    B = np.array(graph.form.B, dtype=dtype)
    e = np.array(graph.e, dtype=dtype)
    P = C + (-(-(C @ A) // order)) @ B
    live = np.flatnonzero((P > 0).any(axis=1))
    while len(live):
        rows = P[live]
        rows += np.where(rows > 0, -(rows // e), 0) @ B
        P[live] = rows
        live = live[(rows > 0).any(axis=1)]
    return P


def _integral_pairings(graph, y):
    """The pairings (y, b_j) of y in L (x) Q as integers; raises
    :class:`NotIntegral` unless y lies in L'."""
    c = graph.pairings(y)
    if any(v.denominator != 1 for v in c):
        raise NotIntegral("vector is not in L': pairing with some b_j is not integral")
    return [int(v) for v in c]


def _ascend_rows(graph, rows):
    """(P, dtype): :func:`_ascend` on a list of integer pairing vectors, in
    the dtype that :func:`_pass_dtype` proves for them."""
    dtype = _pass_dtype(graph, max(abs(v) for r in rows for v in r))
    C = np.array(rows, dtype=dtype).reshape(len(rows), graph.s)
    return _ascend(graph, C, dtype), dtype


def distinguished_rep(graph, l_prime):
    """The minimal element l'_[k] of (l' + L) n S_Q, for l' in L' given by
    its coefficients in the basis {b_j}."""
    return _orbit_from(graph, _integral_pairings(graph, l_prime)).l_prime_min


@dataclass(frozen=True)
class SpincOrbit:
    """One spin^c structure, held by its distinguished data in integers.

    * ``pairings``: the integer pairing vector ((l'_[k], b_j))_j of the
      minimal representative l'_[k] in S_Q,
    * ``k_r`` = K + 2 l'_[k], the distinguished characteristic element,
    * ``orbit_index``: position in the canonical Smith-coordinate order,
    * ``l_prime_num``: |H| l'_[k] in the basis {b_j}, integers >= 0,
    * ``kr2_num``: |H| k_r^2, an integer,
    * ``order``: |H| = |det B|, the denominator of both.
    """

    pairings: tuple
    k_r: CharElement
    orbit_index: int
    l_prime_num: tuple
    kr2_num: int
    order: int

    @property
    def l_prime_min(self):
        """l'_[k] as a Fraction vector, built on each call."""
        return DualVector(Fraction(v, self.order) for v in self.l_prime_num)

    @property
    def kr2s(self):
        """k_r^2 + s."""
        return Fraction(self.kr2_num, self.order) + len(self.pairings)


def _orbits(graph, P, dtype, indices):
    """The orbits whose minimal representatives have the pairing rows P,
    with the given orbit indices: k_r = K + 2P, the l' numerators -A P and
    |H| k_r^2 = -k_r A k_r, all in ``dtype`` (see :func:`_pass_dtype`)."""
    A = np.array(graph.form.adjugate_neg, dtype=dtype)
    e = np.array(graph.e, dtype=dtype)
    kr = np.array(canonical_class(graph).pairings, dtype=dtype) + 2 * P
    if ((kr + e) % 2).any():
        raise ParityViolation("k_r(b_j) + e_j is odd for some orbit and j")
    order = graph.form.order
    return [SpincOrbit(pairings=tuple(p), k_r=CharElement(pairings=tuple(k)),
                       orbit_index=i, l_prime_num=tuple(n), kr2_num=q, order=order)
            for p, k, n, q, i in zip(P.tolist(), kr.tolist(), (-(P @ A)).tolist(),
                                     (-((kr @ A) * kr).sum(axis=1)).tolist(), indices)]


def _orbit_from(graph, c):
    """The orbit, with index -1, of the l' in L' with integer pairings c."""
    P, dtype = _ascend_rows(graph, [c])
    return _orbits(graph, P, dtype, [-1])[0]


def enumerate_spinc(graph):
    """All |det B| spin^c orbits, in canonical Smith-coordinate order.

    The Smith tuples t (0 <= t_i < d_i, in itertools.product order) form
    an index grid T; the rows of C = T U^{-1} (on the columns with
    d_i > 1) are pairing vectors, one per class, which one simultaneous
    Laufer ascent (:func:`_ascend`) normalizes.  Every array is int64 when
    :func:`_pass_dtype` proves it fits, else object."""
    order = graph.form.order
    ds, U = [], []
    if order > 1:  # H = 0 has one class, that of l' = 0, and needs no Smith form
        H = smith_decompose(graph.form.B)
        ds = [d for d in H.smith_diag if d > 1]
        # t_j = 0 on the columns with d_j = 1, so only the others enter U^{-1} t
        U = [[row[j] for row in H.U_inv] for j, d in enumerate(H.smith_diag) if d > 1]
    # |C| <= sum_j (d_j - 1) |U_j|, and so is every partial sum of T U^{-1}
    dtype = _pass_dtype(graph, max(sum((d - 1) * abs(u[i]) for d, u in zip(ds, U))
                                   for i in range(graph.s)))
    T = np.indices(ds, dtype=dtype).reshape(len(ds), -1).T if ds else np.zeros((1, 0), dtype)
    C = T @ np.array(U, dtype=dtype).reshape(len(ds), graph.s)
    orbits = _orbits(graph, _ascend(graph, C, dtype), dtype, range(len(C)))
    if len(orbits) != order:
        raise InvariantViolated(f"{len(orbits)} orbits enumerated for |H| = {order}")
    return orbits


def l_prime_strings(graph, orbits):
    """The coordinates of l'_[k] of each orbit as reduced ratio strings,
    as ``roots._fmt_q`` prints them, from one np.gcd over all numerators.
    They lie in [0, s a w] (see :func:`_pass_dtype`); with |H| that
    bound picks the dtype."""
    bound = graph.s * max(map(max, graph.form.adjugate_neg)) * max(-ej - 1 for ej in graph.e)
    nums = np.array([o.l_prime_num for o in orbits],
                    dtype=_int_dtype(max(bound, graph.form.order)))
    flat = _fmt_ratios(nums.ravel(), graph.form.order)
    return [flat[i:i + graph.s] for i in range(0, len(flat), graph.s)]


# ---------------------------------------------------------------------------
# m_k = min chi_k


def m_k(graph, k, method="auto"):
    """m_k = (k^2 - max_{k' in [k]} (k')^2) / 8 = min over L of chi_k.

    Reduce k to the distinguished representative k_r of its orbit and use
    min chi_k = min chi_{k_r} - chi_{k_r}(l) for k = k_r + 2l.  The minimum
    of chi_{k_r} comes from the computation-sequence engine when the graph
    certifies almost-rational, else from exact sublevel enumeration.
    ``method`` is one of 'auto', 'engine', 'oracle'.
    """
    c = [(a - b) // 2 for a, b in zip(k.pairings, canonical_class(graph).pairings)]
    orb = _orbit_from(graph, c)
    min_kr = None
    if method in ("auto", "engine"):
        from . import engine
        cls = engine.classify(graph)
        if cls.is_ar():
            min_kr = engine.tau(graph, cls.j0, orb).min()
        elif method == "engine":
            raise engine.NotAR("graph did not certify almost-rational")
    if min_kr is None:
        from . import oracle
        min_kr = oracle.min_chi(graph, orb.k_r)
    # k = k_r + 2l with l = l' - l'_[k], and |H| l' = -A c
    l = [-(n + a) // orb.order for n, a in zip(orb.l_prime_num, graph.form.numerators(c))]
    return min_kr - chi_k(graph, orb.k_r, l)
