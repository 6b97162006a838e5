"""Shared graphs and random generators for the test suite."""

import math
import random
from fractions import Fraction

import pytest

from gradedroots.plumbing import NotNegativeDefinite, build_graph
from gradedroots.seifert import SeifertData


def e8_graph():
    """All -2 tree: chain of seven with a leg at the third vertex."""
    verts = [(i, -2) for i in range(8)]
    edges = [(i, i + 1) for i in range(6)] + [(2, 7)]
    return build_graph(verts, edges)


def remark56_graph():
    """Weakly elliptic, l = 1, not numerically Gorenstein: a (-1) centre
    with legs [-3], [-4] and the chain [-4, -2]."""
    return build_graph([(0, -1), (1, -3), (2, -4), (3, -4), (4, -2)],
                       [(0, 1), (0, 2), (0, 3), (3, 4)])


def non_ar_graph_a():
    """Two (-1) vertices of degree 3 on a chain; not almost-rational."""
    return build_graph(
        [(0, -2), (1, -1), (2, -13), (3, -1), (4, -2), (5, -3), (6, -3)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6)])


def non_ar_graph_b():
    """Two (-2) vertices of degree 4; deleting either leaves rational
    pieces, but the graph itself is not almost-rational."""
    verts = [(0, -4), (1, -2), (2, -2), (3, -4),
             (4, -4), (5, -4), (6, -4), (7, -4)]
    edges = [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (2, 6), (2, 7)]
    return build_graph(verts, edges)


def chain_graph(s):
    """The all -2 chain A_s."""
    return build_graph([(i, -2) for i in range(s)], [(i, i + 1) for i in range(s - 1)])


def chain_level_one_rows(s):
    """The level-1 set of A_s for the canonical class, by hand: 0 and the
    s(s+1) roots +-(e_i + ... + e_j)."""
    rows = [[0] * s]
    for i in range(s):
        for j in range(i, s):
            for sign in (1, -1):
                rows.append([sign if i <= d <= j else 0 for d in range(s)])
    return rows


def fraction_inverse(M):
    """Exact inverse of a nonsingular integer matrix by Gauss-Jordan over Q:
    the definition the integer adjugate replaces."""
    s = len(M)
    aug = [[Fraction(M[i][j]) for j in range(s)] + [Fraction(int(i == j)) for j in range(s)]
           for i in range(s)]
    for col in range(s):
        piv = next(r for r in range(col, s) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [a / pv for a in aug[col]]
        for r in range(s):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[s:] for row in aug]


def pad_chain(graph, at, n, e=-4):
    """The graph with a chain of n vertices decorated e attached at the
    internal vertex ``at``."""
    s = graph.s
    verts = list(enumerate(graph.e)) + [(s + i, e) for i in range(n)]
    edges = list(graph.edges) + [(at if i == 0 else s + i - 1, s + i) for i in range(n)]
    return build_graph(verts, edges)


def random_tree_edges(rng, s):
    return [(i, rng.randrange(i)) for i in range(1, s)]


def degrees_of(s, edges):
    deg = [0] * s
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def random_rational_tree(rng, s_max=8, s_min=2):
    """Random tree with -e_j >= delta_j everywhere (hence rational), with
    at least one strict inequality so the form is definite."""
    s = rng.randint(s_min, s_max)
    edges = random_tree_edges(rng, s)
    deg = degrees_of(s, edges)
    e = [-(deg[j] + rng.choice((0, 0, 0, 1, 2))) for j in range(s)]
    if all(-e[j] == deg[j] for j in range(s)):
        j = rng.randrange(s)
        e[j] -= 1
    return build_graph(list(enumerate(e)), edges)


def random_star(rng, max_leg_len=2):
    """Random negative-definite star with three legs (always AR)."""
    while True:
        verts = [(0, -rng.randint(1, 3))]
        edges = []
        nxt = 1
        for _ in range(3):
            prev = 0
            for _ in range(rng.randint(1, max_leg_len)):
                verts.append((nxt, -rng.randint(2, 5)))
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        try:
            return build_graph(verts, edges)
        except NotNegativeDefinite:
            continue


def random_small_tree(rng, s_max=6, allow_minus_one=True):
    """Random negative-definite tree; decorations may dip to -1 at one
    vertex, which tends to produce elliptic and other non-rational cases."""
    while True:
        s = rng.randint(2, s_max)
        edges = random_tree_edges(rng, s)
        deg = degrees_of(s, edges)
        e = [-(deg[j] + rng.choice((0, 0, 1, 2))) for j in range(s)]
        if all(-e[j] == deg[j] for j in range(s)):
            e[rng.randrange(s)] -= 1
        if allow_minus_one and rng.random() < 0.5:
            j = rng.randrange(s)
            e[j] = min(-1, e[j] + rng.randint(1, 2))
        try:
            return build_graph(list(enumerate(e)), edges)
        except NotNegativeDefinite:
            continue


def random_seifert(rng, nu_min, nu_max, alpha_max, h_max):
    """Random normalized Seifert data with nu_min <= nu <= nu_max legs,
    alpha_l <= alpha_max and |H| <= h_max; e0 is the largest value with
    e < 0, or one less."""
    while True:
        legs = []
        for _ in range(rng.randint(nu_min, nu_max)):
            alpha = rng.randint(2, alpha_max)
            omega = rng.choice([w for w in range(1, alpha) if math.gcd(w, alpha) == 1])
            legs.append((alpha, omega))
        top = -math.floor(sum(Fraction(w, a) for a, w in legs)) - 1
        data = SeifertData(e0=top - rng.choice((0, 0, 1)), legs=tuple(legs))
        if data.h_order <= h_max:
            return data


@pytest.fixture
def rng():
    return random.Random(20250809)
