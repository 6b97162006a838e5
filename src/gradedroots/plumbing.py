"""Negative-definite plumbing graphs and their exact intersection forms.

A plumbing graph here is a decorated tree: every vertex j carries an Euler
number e_j, and the associated symmetric bilinear form B has B[j][j] = e_j
and B[i][j] = 1 exactly when {i,j} is an edge.  All arithmetic is exact:
integer matrices, big-integer minors, and Fraction inverses.  No floating
point enters any computation in this module.

Conventions used throughout the package:

* L is the lattice Z^s spanned by the vertex basis {b_j}; lattice vectors
  are integer coefficient tuples in this basis.
* L' = Hom(L, Z) is embedded in L (x) Q; dual vectors are rational
  coefficient tuples in the same basis, so the pairing (y, x) is y^T B x.
* A characteristic element k satisfies k(x) + (x,x) in 2Z for all x; the
  canonical one K is cut out by K(b_j) = -e_j - 2.
* chi_k(x) = -(k(x) + (x,x)) / 2 is the Riemann-Roch weight function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


class NotATree(ValueError):
    """The edge set is not a tree on the vertex set."""


class NotNegativeDefinite(ValueError):
    """The intersection form fails Sylvester's criterion."""


class InvalidSite(ValueError):
    """Blow-up site does not name an existing vertex or edge."""


class NotBlowDownable(ValueError):
    """Vertex is not a (-1)-vertex of degree <= 2."""


class ParityViolation(ValueError):
    """A claimed characteristic element fails the parity condition."""


class InvariantViolated(AssertionError):
    """An internal invariant of a computation failed.  Raised explicitly,
    so the check survives ``python -O``; an ``AssertionError``, so the CLI
    still exits 1."""


# ---------------------------------------------------------------------------
# coefficient vectors


class LatticeVector:
    """Integer vector in the basis {b_j}; supports the componentwise order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(int(c) for c in coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, LatticeVector) and self.coeffs == other.coeffs

    def __add__(self, other):
        return LatticeVector(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return LatticeVector(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self):
        return LatticeVector(-a for a in self.coeffs)

    def __rmul__(self, n):
        return LatticeVector(n * a for a in self.coeffs)

    def __le__(self, other):
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))

    def __ge__(self, other):
        return all(a >= b for a, b in zip(self.coeffs, other.coeffs))

    def is_effective(self):
        return all(a >= 0 for a in self.coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def support(self):
        return frozenset(j for j, a in enumerate(self.coeffs) if a)

    def min_with(self, other):
        return LatticeVector(min(a, b) for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"LatticeVector({list(self.coeffs)})"


class DualVector:
    """Rational vector in b-coordinates, representing an element of L (x) Q.

    An element lies in L' exactly when its pairing with every b_j is an
    integer; use :func:`PlumbingGraph.pairings` to read those off.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, DualVector) and self.coeffs == other.coeffs

    def __add__(self, other):
        return DualVector(a + b for a, b in zip(self.coeffs, _coeffs(other)))

    def __sub__(self, other):
        return DualVector(a - b for a, b in zip(self.coeffs, _coeffs(other)))

    def __neg__(self):
        return DualVector(-a for a in self.coeffs)

    def __rmul__(self, r):
        return DualVector(r * a for a in self.coeffs)

    def is_integral(self):
        return all(a.denominator == 1 for a in self.coeffs)

    def as_lattice(self):
        if not self.is_integral():
            raise ValueError("vector has non-integer coefficients")
        return LatticeVector(int(a) for a in self.coeffs)

    def __repr__(self):
        return f"DualVector({[str(c) for c in self.coeffs]})"


def _coeffs(v):
    return v.coeffs if isinstance(v, (LatticeVector, DualVector)) else tuple(v)


@dataclass(frozen=True)
class CharElement:
    """A characteristic element, stored as a dual vector plus its pairings.

    ``pairings[j] = k(b_j)`` is an integer with k(b_j) + e_j even; the parity
    condition on the basis extends to all of L.
    """

    vector: DualVector
    pairings: tuple


# ---------------------------------------------------------------------------
# exact linear algebra


def leading_principal_minors(B):
    """Determinants of the leading principal submatrices, by fraction-free
    (Bareiss) elimination.  Returns a list d[0..s-1] with d[i] = det of the
    (i+1) x (i+1) corner; stops early (padding with zeros) if a minor
    vanishes, which in our usage already decides indefiniteness."""
    s = len(B)
    m = [list(map(int, row)) for row in B]
    minors = []
    prev = 1
    for k in range(s):
        piv = m[k][k]
        minors.append(piv)
        if piv == 0:
            minors.extend([0] * (s - k - 1))
            break
        for i in range(k + 1, s):
            for j in range(k + 1, s):
                m[i][j] = (piv * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = piv
    return minors


def is_negative_definite(B):
    """Sylvester test: the k-th leading principal minor has sign (-1)^k.

    Returns (ok, failing_index) where failing_index is the 1-based size of
    the first offending minor (None when ok)."""
    for i, d in enumerate(leading_principal_minors(B)):
        if d == 0 or (d > 0) != (i % 2 == 1):
            return False, i + 1
    return True, None


def invert_form(B):
    """Exact inverse of an integer matrix as a tuple-of-tuples of Fractions.

    Gauss-Jordan over Q; the input is nonsingular by construction here."""
    s = len(B)
    aug = [[Fraction(B[i][j]) for j in range(s)] + [Fraction(int(i == j)) for j in range(s)]
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
    return tuple(tuple(row[s:]) for row in aug)


@dataclass(frozen=True)
class IntersectionForm:
    """The bilinear form B of a plumbing graph with its exact inverse."""

    B: tuple            # s x s, integers
    B_inv: tuple        # s x s, Fractions, B * B_inv = identity exactly
    det: int            # det(B); |det| is the order of H_1

    @property
    def order(self):
        return abs(self.det)

    @cached_property
    def adjugate_neg(self):
        """Integer adjugate of Q = -B, so Q^{-1} = adjugate_neg / |det B|.

        det(-B) = |det B| for a negative-definite B, and the entries are
        |det B| * (-B^{-1}) >= 0 entrywise."""
        dq = abs(self.det)
        out = []
        for row in self.B_inv:
            r = []
            for v in row:
                a = -v * dq
                assert a.denominator == 1
                r.append(int(a))
            out.append(tuple(r))
        return tuple(out)


def _build_form(B):
    ok, idx = is_negative_definite(B)
    if not ok:
        raise NotNegativeDefinite(
            f"leading principal minor of size {idx} has the wrong sign (or vanishes)")
    minors = leading_principal_minors(B)
    det = minors[-1]
    B_inv = invert_form(B)
    for row in B_inv:
        for v in row:
            assert v <= 0, "entries of -B^{-1} must be >= 0"
    return IntersectionForm(B=tuple(tuple(map(int, r)) for r in B), B_inv=B_inv, det=det)


# ---------------------------------------------------------------------------
# the graph


@dataclass(frozen=True)
class PlumbingGraph:
    """A connected negative-definite plumbing tree.

    ``labels`` keeps the user-facing vertex ids in construction order; all
    other fields are indexed by the normalized positions 0..s-1.  Instances
    are immutable and safe to share.
    """

    labels: tuple        # original vertex ids
    e: tuple             # Euler numbers
    edges: tuple         # internal index pairs (i, j), i < j

    @property
    def s(self):
        return len(self.e)

    @cached_property
    def form(self):
        s = self.s
        B = [[0] * s for _ in range(s)]
        for i in range(s):
            B[i][i] = self.e[i]
        for i, j in self.edges:
            B[i][j] = B[j][i] = 1
        return _build_form(B)

    @cached_property
    def adjacency(self):
        adj = [[] for _ in range(self.s)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def degrees(self):
        return tuple(len(a) for a in self.adjacency)

    @cached_property
    def label_index(self):
        return {lab: i for i, lab in enumerate(self.labels)}

    # -- pairings ----------------------------------------------------------

    def pairing(self, y, x):
        """(y, x) = y^T B x, exact (int when both arguments are integral)."""
        B = self.form.B
        ys, xs = _coeffs(y), _coeffs(x)
        acc = 0
        for i, yi in enumerate(ys):
            if yi:
                row = B[i]
                acc += yi * sum(row[j] * xj for j, xj in enumerate(xs) if xj)
        return acc

    def pairings(self, y):
        """The vector ((y, b_j))_j = B y."""
        B = self.form.B
        ys = _coeffs(y)
        return tuple(sum(B[i][j] * yj for j, yj in enumerate(ys) if yj)
                     for i in range(self.s))

    def dual_from_pairings(self, c):
        """The element of L (x) Q pairing to c_j with each b_j, i.e. B^{-1} c."""
        Binv = self.form.B_inv
        return DualVector(sum(Binv[i][j] * Fraction(cj) for j, cj in enumerate(c))
                          for i in range(self.s))

    def basis_vector(self, j):
        return LatticeVector(int(i == j) for i in range(self.s))

    def to_json(self):
        return {"vertices": [{"id": lab, "e": ej} for lab, ej in zip(self.labels, self.e)],
                "edges": [[self.labels[i], self.labels[j]] for i, j in self.edges]}


def build_graph(vertices, edges):
    """Validate and build a plumbing graph.

    ``vertices`` is a sequence of (id, euler_number) pairs, ``edges`` a
    sequence of unordered id pairs.  Raises :class:`NotATree` (naming the
    cycle or the disconnection certificate) or :class:`NotNegativeDefinite`
    (naming the offending principal minor index).
    """
    vertices = list(vertices)
    ids = [v[0] for v in vertices]
    if len(set(ids)) != len(ids):
        raise NotATree(f"duplicate vertex ids: {sorted(ids)}")
    if not ids:
        raise NotATree("empty vertex set")
    index = {v: i for i, v in enumerate(ids)}
    s = len(ids)
    norm_edges = []
    parent = list(range(s))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    adj = [[] for _ in range(s)]
    for a, b in edges:
        if a not in index or b not in index:
            raise NotATree(f"edge ({a}, {b}) references unknown vertex id")
        ia, ib = index[a], index[b]
        if ia == ib:
            raise NotATree(f"self-loop at vertex {a}")
        pair = (min(ia, ib), max(ia, ib))
        if pair in norm_edges:
            raise NotATree(f"duplicate edge ({a}, {b})")
        ra, rb = find(ia), find(ib)
        if ra == rb:
            cycle = _find_cycle(adj, ia, ib, ids)
            raise NotATree(f"cycle through edges {cycle}")
        parent[ra] = rb
        adj[ia].append(ib)
        adj[ib].append(ia)
        norm_edges.append(pair)
    roots = {find(i) for i in range(s)}
    if len(roots) > 1:
        comps = {}
        for i in range(s):
            comps.setdefault(find(i), []).append(ids[i])
        raise NotATree(f"graph is disconnected; components {sorted(comps.values())}")
    g = PlumbingGraph(labels=tuple(ids),
                      e=tuple(int(v[1]) for v in vertices),
                      edges=tuple(sorted(norm_edges)))
    g.form  # force the definiteness check now
    return g


def _find_cycle(adj, a, b, ids):
    """Path from a to b in the partial tree, reported as labelled edges."""
    prev = {a: None}
    stack = [a]
    while stack:
        u = stack.pop()
        if u == b:
            break
        for w in adj[u]:
            if w not in prev:
                prev[w] = u
                stack.append(w)
    path = [b]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    edges = [(ids[u], ids[v]) for u, v in zip(path, path[1:])]
    edges.append((ids[a], ids[b]))
    return edges


def graph_from_json(data):
    """Parse the on-disk schema; unknown keys are rejected."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    extra = set(data) - {"vertices", "edges"}
    if extra:
        raise ValueError(f"unknown keys in graph object: {sorted(extra)}")
    verts = []
    for v in data.get("vertices", []):
        bad = set(v) - {"id", "e"}
        if bad:
            raise ValueError(f"unknown keys in vertex object: {sorted(bad)}")
        verts.append((v["id"], v["e"]))
    return build_graph(verts, [tuple(e) for e in data.get("edges", [])])


# ---------------------------------------------------------------------------
# characteristic elements and numerical invariants


def characteristic_from_pairings(graph, c):
    """Characteristic element with prescribed integer pairings c_j = k(b_j)."""
    c = tuple(int(x) for x in c)
    for j, (cj, ej) in enumerate(zip(c, graph.e)):
        if (cj + ej) % 2:
            raise ParityViolation(f"k(b_{j}) + e_{j} = {cj + ej} is odd")
    return CharElement(vector=graph.dual_from_pairings(c), pairings=c)


def canonical_class(graph):
    """The canonical characteristic element K, with K(b_j) = -e_j - 2."""
    return characteristic_from_pairings(graph, tuple(-ej - 2 for ej in graph.e))


def chi_k(graph, k, x):
    """chi_k(x) = -(k(x) + (x,x)) / 2, an exact integer."""
    xs = _coeffs(x)
    kx = sum(cj * xj for cj, xj in zip(k.pairings, xs))
    xx = graph.pairing(xs, xs)
    num = kx + xx
    if num % 2:
        raise ParityViolation("k(x) + (x,x) is odd; k is not characteristic")
    return -num // 2


def chi_rational(graph, y, K=None):
    """The rational extension chi(y) = -((K, y) + (y, y)) / 2 on L (x) Q."""
    if K is None:
        K = canonical_class(graph)
    ys = _coeffs(y)
    Ky = sum(Fraction(cj) * yj for cj, yj in zip(K.pairings, ys))
    return -(Ky + graph.pairing(ys, ys)) / 2


def k_squared_plus_s(graph):
    """The invariant K^2 + s from the combinatorial formula

        sum e_j + 3s + 2 + sum_{i,j} (2 - d_i)(2 - d_j) (B^{-1})_{ij},

    cross-checked against the direct evaluation (K, K) + s."""
    s = graph.s
    Binv = graph.form.B_inv
    deg = graph.degrees
    val = Fraction(sum(graph.e) + 3 * s + 2)
    for i in range(s):
        for j in range(s):
            val += (2 - deg[i]) * (2 - deg[j]) * Binv[i][j]
    K = canonical_class(graph)
    direct = graph.pairing(K.vector, K.vector) + s
    assert val == direct, "K^2+s formula disagrees with direct pairing"
    return val


def casson_walker(graph):
    """Casson-Walker invariant of the plumbed manifold, from

        -(24/|H|) lambda(M) = sum e_j + 3s + sum_j (2 - d_j) (B^{-1})_{jj}."""
    s = graph.s
    Binv = graph.form.B_inv
    rhs = Fraction(sum(graph.e) + 3 * s)
    for j in range(s):
        rhs += (2 - graph.degrees[j]) * Binv[j][j]
    return -Fraction(graph.form.order, 24) * rhs


# ---------------------------------------------------------------------------
# blow-up / blow-down calculus


def blow_up(graph, site):
    """Blow up a vertex (attach a new (-1)-vertex, e_j -> e_j - 1) or an edge
    (subdivide through a new (-1)-vertex, both endpoint Euler numbers dropped
    by one).  ``site`` is a vertex label or a pair of labels."""
    if isinstance(site, (tuple, list)) and len(site) == 2:
        a, b = site
        if a not in graph.label_index or b not in graph.label_index:
            raise InvalidSite(f"edge site {site} references unknown vertex")
        ia, ib = graph.label_index[a], graph.label_index[b]
        pair = (min(ia, ib), max(ia, ib))
        if pair not in graph.edges:
            raise InvalidSite(f"no edge between {a} and {b}")
        new_label = max(graph.labels) + 1
        verts = [(lab, ej - 1 if i in pair else ej)
                 for i, (lab, ej) in enumerate(zip(graph.labels, graph.e))]
        verts.append((new_label, -1))
        edges = [(graph.labels[i], graph.labels[j])
                 for i, j in graph.edges if (i, j) != pair]
        edges += [(a, new_label), (b, new_label)]
        return build_graph(verts, edges)
    if site in graph.label_index:
        i0 = graph.label_index[site]
        new_label = max(graph.labels) + 1
        verts = [(lab, ej - 1 if i == i0 else ej)
                 for i, (lab, ej) in enumerate(zip(graph.labels, graph.e))]
        verts.append((new_label, -1))
        edges = [(graph.labels[i], graph.labels[j]) for i, j in graph.edges]
        edges.append((site, new_label))
        return build_graph(verts, edges)
    raise InvalidSite(f"site {site!r} is neither a vertex label nor an edge")


def blow_down(graph, label):
    """Inverse of :func:`blow_up` at a (-1)-vertex of degree <= 2."""
    if label not in graph.label_index:
        raise InvalidSite(f"unknown vertex {label!r}")
    j = graph.label_index[label]
    if graph.e[j] != -1:
        raise NotBlowDownable(f"vertex {label} has e = {graph.e[j]}, not -1")
    nbrs = graph.adjacency[j]
    if len(nbrs) > 2:
        raise NotBlowDownable(f"vertex {label} has degree {len(nbrs)} > 2")
    if graph.s == 1:
        raise NotBlowDownable("cannot blow down the last vertex")
    verts = [(lab, ej + 1 if i in nbrs else ej)
             for i, (lab, ej) in enumerate(zip(graph.labels, graph.e)) if i != j]
    edges = [(graph.labels[a], graph.labels[b])
             for a, b in graph.edges if j not in (a, b)]
    if len(nbrs) == 2:
        edges.append((graph.labels[nbrs[0]], graph.labels[nbrs[1]]))
    return build_graph(verts, edges)
