"""Spin^c structures of a plumbed manifold as orbits of Char modulo 2L.

L' is identified with Z^s through pairing vectors c_j = (l', b_j); the
sublattice L sits inside as the image of B.  The quotient H = L'/L is
presented by the Smith normal form of B, which both enumerates the orbits
and decides membership questions exactly.

Each orbit [k] = K + 2(l' + L) carries a distinguished representative:
the unique componentwise-minimal element l'_[k] of (l' + L) intersected
with the cone S_Q = {x : (x, b_j) <= 0 for all j}.  It is computed by a
generalized Laufer ascent (:func:`plumbing.laufer_ascent`), starting from
the componentwise ceiling of -l' and pushing up any basis direction with
positive pairing until none is left; the result is independent of the
order of pushes.  Every element of L' is carried as its integer pairing
vector, from the Smith tuple to the finished orbit; the one Fraction
coefficient vector, l'_[k], is built once per orbit, for the value handed
out, and k_r is held by its pairings alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .plumbing import (CharElement, DualVector, InvariantViolated, adjugate,
                       canonical_class, characteristic_from_pairings, chi_k,
                       laufer_ascent)


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
    """Smith presentation of coker(B) for a nondegenerate integer matrix."""
    diag, U, _ = smith_normal_form(B)
    order = 1
    for d in diag:
        order *= d
    if order == 0:
        raise InvariantViolated("B must be nondegenerate")
    adj, det = adjugate(U)  # U is unimodular: det = +-1
    return HGroup(order=abs(order), smith_diag=tuple(diag),
                  U_inv=tuple(tuple(v // det for v in r) for r in adj))


# ---------------------------------------------------------------------------
# distinguished representatives


def _ascend(graph, c):
    """The minimal element l'_[k] of (l' + L) n S_Q for the l' in L' with
    integer pairings c, by Laufer ascent: (x, pairings) with l'_[k] =
    l' + x, x in L, and pairings its pairing vector c + B x.

    Start at x0 = ceil(-l') = ceil(A c / |det B|) componentwise (a lower
    bound, since every element of S_Q is effective) and add b_j while some
    (x + l', b_j) > 0.  Termination is forced by negative definiteness;
    the endpoint does not depend on the order of the pushes."""
    order = graph.form.order
    x = [-(-v // order) for v in graph.form.numerators(c)]
    pair = [ci + p for ci, p in zip(c, graph.pairings(x))]
    laufer_ascent(graph.e, graph.adjacency, x, pair)
    return x, pair


def _integral_pairings(graph, y):
    """The pairings (y, b_j) of y in L (x) Q as integers; raises
    :class:`NotIntegral` unless y lies in L'."""
    c = graph.pairings(y)
    if any(v.denominator != 1 for v in c):
        raise NotIntegral("vector is not in L': pairing with some b_j is not integral")
    return [int(v) for v in c]


def distinguished_rep(graph, l_prime):
    """The minimal element l'_[k] of (l' + L) n S_Q, for l' in L' given by
    its coefficients in the basis {b_j}."""
    return graph.dual_from_pairings(_ascend(graph, _integral_pairings(graph, l_prime))[1])


@dataclass(frozen=True)
class SpincOrbit:
    """One spin^c structure, held by its distinguished data.

    * ``l_prime_min``: the minimal representative l'_[k] in S_Q,
    * ``pairings``: its integer pairing vector ((l'_[k], b_j))_j,
    * ``k_r`` = K + 2 l'_[k], the distinguished characteristic element,
    * ``orbit_index``: position in the canonical Smith-coordinate order.
    """

    l_prime_min: DualVector
    pairings: tuple
    k_r: CharElement
    orbit_index: int


def _orbit(graph, K, pairings, index):
    """The orbit whose minimal representative has the given pairings."""
    k_r = characteristic_from_pairings(graph, [k + 2 * p for k, p in zip(K.pairings, pairings)])
    return SpincOrbit(l_prime_min=graph.dual_from_pairings(pairings), pairings=tuple(pairings),
                      k_r=k_r, orbit_index=index)


def enumerate_spinc(graph):
    """All |det B| spin^c orbits, in canonical Smith-coordinate order.

    Each Smith tuple t (0 <= t_i < d_i) is mapped back to a pairing vector
    U^{-1} t, whose class is then normalized by the Laufer ascent."""
    H = smith_decompose(graph.form.B)
    K = canonical_class(graph)
    orbits = []
    # t_j = 0 on the columns with d_j = 1, so only the others enter U^{-1} t
    cols = [j for j, d in enumerate(H.smith_diag) if d > 1]
    U_cols = [[row[j] for row in H.U_inv] for j in cols]
    for index, t in enumerate(itertools.product(*(range(H.smith_diag[j]) for j in cols))):
        c = [0] * graph.s
        for tj, col in zip(t, U_cols):
            if tj:
                c = [ci + tj * u for ci, u in zip(c, col)]
        orbits.append(_orbit(graph, K, _ascend(graph, c)[1], index))
    if len(orbits) != H.order:
        raise InvariantViolated(f"{len(orbits)} orbits enumerated for |H| = {H.order}")
    return orbits


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
    K = canonical_class(graph)
    x, pair = _ascend(graph, [(a - b) // 2 for a, b in zip(k.pairings, K.pairings)])
    orb = _orbit(graph, K, pair, -1)
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
    # k = k_r + 2l with l = l' - l'_[k] = -x
    return min_kr - chi_k(graph, orb.k_r, [-v for v in x])
