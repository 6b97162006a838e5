"""Negative-definite plumbing graphs and their exact intersection forms.

A plumbing graph here is a decorated tree: every vertex j carries an Euler
number e_j, and the associated symmetric bilinear form B has B[j][j] = e_j
and B[i][j] = 1 exactly when {i,j} is an edge.  All arithmetic is exact:
integer matrices, and the big-integer adjugate and Sylvester minors of -B
from one bordering pass (:func:`_leading_adjugates`); Fractions appear
only in the dual vectors handed out.  No floating point enters any
computation in this module.

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


class GraphSchemaError(ValueError):
    """A graph description breaks the schema of graph files; the message
    names the field by its position (``vertices[2]``, ``edges[0]``)."""


class InvalidSite(ValueError):
    """Blow-up site does not name an existing vertex or edge."""


class NotBlowDownable(ValueError):
    """Vertex is not a (-1)-vertex of degree <= 2."""


class ParityViolation(ValueError):
    """A claimed characteristic element fails the parity condition."""


class InvariantViolated(AssertionError):
    """An internal invariant of a computation failed: a bug, not bad input.
    Raised explicitly, so the check survives ``python -O``; the CLI exits 3
    on it."""


# ---------------------------------------------------------------------------
# coefficient vectors


class _Coefficients:
    """Coefficients in the basis {b_j}, the body of both vector types: equal
    only within one type, and each operator returns its left operand's type,
    reading the other operand through :func:`_coeffs`."""

    __slots__ = ("coeffs",)

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __add__(self, other):
        return type(self)(a + b for a, b in zip(self.coeffs, _coeffs(other)))

    def __sub__(self, other):
        return type(self)(a - b for a, b in zip(self.coeffs, _coeffs(other)))

    def __neg__(self):
        return type(self)(-a for a in self.coeffs)

    def __rmul__(self, r):
        return type(self)(r * a for a in self.coeffs)


class LatticeVector(_Coefficients):
    """Integer vector in the basis {b_j}; supports the componentwise order.

    A coefficient that is not an integer (1/2, 2.5) raises ValueError; an
    integral one of any type (2, numpy's 2, Fraction(4, 2)) converts."""

    __slots__ = ()

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        self.coeffs = tuple(map(int, coeffs))
        if self.coeffs != coeffs:
            j, c = next((j, c) for j, (n, c) in enumerate(zip(self.coeffs, coeffs)) if n != c)
            raise ValueError(f"coefficient {j} of a lattice vector is {c!r}, not an integer")

    def __le__(self, other):
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))

    def __ge__(self, other):
        return all(a >= b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"LatticeVector({list(self.coeffs)})"


class DualVector(_Coefficients):
    """Rational vector in b-coordinates, representing an element of L (x) Q.

    An element lies in L' exactly when its pairing with every b_j is an
    integer; use :func:`PlumbingGraph.pairings` to read those off.
    """

    __slots__ = ()

    def __init__(self, coeffs):
        self.coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)

    def __repr__(self):
        return f"DualVector({[str(c) for c in self.coeffs]})"


def _coeffs(v):
    return v.coeffs if isinstance(v, _Coefficients) else tuple(v)


@dataclass(frozen=True)
class CharElement:
    """A characteristic element, held by its pairings alone.

    ``pairings[j] = k(b_j)`` is an integer with k(b_j) + e_j even; the parity
    condition on the basis extends to all of L.  The pairings determine k
    and everything computed from it; its coefficient vector B^{-1} c, if
    wanted, is ``graph.dual_from_pairings(pairings)``.
    """

    pairings: tuple


# ---------------------------------------------------------------------------
# exact linear algebra


def _leading_adjugates(Q):
    """(adj Q_j, det Q_j) of every leading block Q_j of Q = -B, in O(s^3) by
    bordering, the package's one exact elimination: with A = adj Q_{j-1},
    D = det Q_{j-1}, new column b and diagonal entry q, det Q_j = qD - b.Ab,
    and adj Q_j has upper-left block (det Q_j A + (Ab)(Ab)^T) / D, an exact
    division, last column -Ab and corner D.  Sylvester's criterion: the
    first det Q_j <= 0 raises :class:`NotNegativeDefinite`, before it
    would divide."""
    A, D, blocks = [], 1, []
    for j, row in enumerate(Q):
        b = row[:j]
        Ab = [sum(a * v for a, v in zip(r, b)) for r in A]
        Dj = row[j] * D - sum(x * v for x, v in zip(Ab, b))
        if Dj <= 0:
            raise NotNegativeDefinite(f"leading principal minor of size {j + 1} "
                                      "has the wrong sign (or vanishes)")
        A = [[(Dj * a + x * y) // D for a, y in zip(r, Ab)] + [-x] for r, x in zip(A, Ab)]
        A.append([-x for x in Ab] + [D])
        D = Dj
        blocks.append((A, D))
    return blocks


@dataclass(frozen=True)
class IntersectionForm:
    """The bilinear form B of a plumbing graph with its integer adjugate.

    Writing A = ``adjugate_neg`` = |det B| (-B)^{-1}, an integer matrix with
    entries >= 0, the element of L (x) Q with pairing vector c is
    B^{-1} c = -A c / |det B|; everything here is computed from A c."""

    B: tuple            # s x s, integers
    adjugate_neg: tuple  # s x s, integers >= 0
    det: int            # det(B); |det| is the order of H_1

    @property
    def order(self):
        return abs(self.det)

    def numerators(self, c):
        """A c: the coordinates of B^{-1} c are -(A c)_i / |det B|."""
        return [sum(a * cj for a, cj in zip(row, c) if cj) for row in self.adjugate_neg]

    def square(self, c):
        """(y, y) = c^T B^{-1} c for the y in L (x) Q with pairings c."""
        return Fraction(-sum(ci * v for ci, v in zip(c, self.numerators(c))), self.order)


def _build_form(B):
    B = tuple(tuple(map(int, r)) for r in B)
    # adjugate_neg = |det B| (-B)^{-1} = adj(-B), and det B = (-1)^s det(-B)
    adj_neg, det_neg = _leading_adjugates([[-v for v in row] for row in B])[-1]
    if any(v < 0 for row in adj_neg for v in row):
        raise InvariantViolated("entries of -B^{-1} must be >= 0")
    return IntersectionForm(B=B, adjugate_neg=tuple(map(tuple, adj_neg)),
                            det=-det_neg if len(B) % 2 else det_neg)


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
        """(y, x) = sum_j y_j (x, b_j), exact (int when both arguments are
        integral); a vector that does not have s coefficients raises
        ValueError."""
        return sum(yj * p for yj, p in zip(_coeffs(y), self.pairings(x), strict=True) if yj)

    def pairings(self, y):
        """The vector ((y, b_j))_j = B y, along the tree adjacency; a y that
        does not have s coefficients raises ValueError."""
        ys = _coeffs(y)
        if len(ys) != self.s:
            raise ValueError(f"{len(ys)} coefficients for a graph of {self.s} vertices")
        return tuple(ej * yj + sum(ys[n] for n in nbrs)
                     for ej, yj, nbrs in zip(self.e, ys, self.adjacency))

    def dual_from_pairings(self, c):
        """The element of L (x) Q pairing to c_j with each b_j, i.e. B^{-1} c."""
        order = self.form.order
        return DualVector(Fraction(-v, order) for v in self.form.numerators(c))

    def to_json(self):
        return {"vertices": [{"id": lab, "e": ej} for lab, ej in zip(self.labels, self.e)],
                "edges": [[self.labels[i], self.labels[j]] for i, j in self.edges]}


def build_graph(vertices, edges):
    """Validate and build a plumbing graph.

    ``vertices`` is a sequence of (id, euler_number) pairs, ``edges`` a
    sequence of unordered id pairs.  Raises :class:`NotATree` (naming the
    cycle or the disconnection certificate), :class:`GraphSchemaError` on
    an Euler number that is not an integer (-2.5 or -2.0, never truncated)
    or :class:`NotNegativeDefinite` (naming the offending principal minor
    index).
    """
    vertices = list(vertices)
    ids = [v[0] for v in vertices]
    if len(set(ids)) != len(ids):
        raise NotATree(f"duplicate vertex ids: {sorted(ids)}")
    if not ids:
        raise NotATree("empty vertex set")
    index = {v: i for i, v in enumerate(ids)}
    s = len(ids)
    edges = list(edges)
    pairs = [(index.get(a), index.get(b)) for a, b in edges]
    norm_edges = {(min(ia, ib), max(ia, ib)) for ia, ib in pairs
                  if ia is not None and ib is not None and ia != ib}
    # a tree: s - 1 distinct proper edges, and every vertex reached from 0
    adj = [[] for _ in range(s)]
    for ia, ib in norm_edges:
        adj[ia].append(ib)
        adj[ib].append(ia)
    if len(norm_edges) != len(edges) or len(edges) != s - 1 or len(_search(adj, 0)) != s:
        raise NotATree(_tree_failure(edges, index, ids))
    bad = [v for v in vertices if isinstance(v[1], bool) or not hasattr(v[1], "__index__")]
    if bad:
        raise GraphSchemaError(f"vertex {bad[0][0]!r}: Euler number {bad[0][1]!r} "
                               "is not an integer")
    g = PlumbingGraph(labels=tuple(ids),
                      e=tuple(int(v[1]) for v in vertices),
                      edges=tuple(sorted(norm_edges)))
    g.form  # force the definiteness check now
    return g


def _tree_failure(edges, index, ids):
    """The certificate of the first failure of the tree check: the edges are
    replayed in input order up to the first unknown id, self-loop, duplicate
    or edge closing a cycle; if there is none the graph is a forest with
    fewer than s - 1 edges, and its components are reported."""
    adj = [[] for _ in ids]
    seen = set()
    for a, b in edges:
        if a not in index or b not in index:
            return f"edge ({a}, {b}) references unknown vertex id"
        ia, ib = index[a], index[b]
        if ia == ib:
            return f"self-loop at vertex {a}"
        pair = (min(ia, ib), max(ia, ib))
        if pair in seen:
            return f"duplicate edge ({a}, {b})"
        prev = _search(adj, ia, ib)
        if ib in prev:
            path = [ib]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            cycle = [(ids[u], ids[v]) for u, v in zip(path, path[1:])] + [(ids[ia], ids[ib])]
            return f"cycle through edges {cycle}"
        seen.add(pair)
        adj[ia].append(ib)
        adj[ib].append(ia)
    comps, done = [], set()
    for i in range(len(ids)):
        if i not in done:
            comp = sorted(_search(adj, i))
            done.update(comp)
            comps.append([ids[j] for j in comp])
    return f"graph is disconnected; components {sorted(comps)}"


def _search(adj, a, target=None):
    """Depth-first search from a: the predecessor of every vertex reached,
    stopping once ``target`` is reached."""
    prev = {a: None}
    stack = [a]
    while stack:
        u = stack.pop()
        if u == target:
            break
        for w in adj[u]:
            if w not in prev:
                prev[w] = u
                stack.append(w)
    return prev


_KINDS = {type(None): "null", bool: "a boolean", int: "an integer", float: "a float",
          str: "a string", dict: "an object"}
_ID = "an integer or a string"


def _expect(ok, field, what, value):
    if not ok:
        kind = (f"an array of {len(value)}" if type(value) is list
                else _KINDS.get(type(value), type(value).__name__))
        raise GraphSchemaError(f"{field} must be {what}, not {kind}")


def _expect_keys(obj, where, keys):
    extra, missing = sorted(set(obj) - set(keys)), [k for k in keys if k not in obj]
    if extra:
        raise GraphSchemaError(f"unknown keys in {where}: {extra}")
    if missing:
        raise GraphSchemaError(f"{where} has no {missing[0]!r}")


def graph_from_json(data):
    """Parse the on-disk schema (see the README), checked field by field
    before the graph is built; a failure raises :class:`GraphSchemaError`,
    which names the field by its position in the file."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    _expect(type(data) is dict, "a graph file", "an object", data)
    _expect_keys(data, "graph object", ("vertices", "edges"))
    for key in ("vertices", "edges"):
        _expect(type(data[key]) is list, repr(key), "an array", data[key])
    for i, v in enumerate(data["vertices"]):
        _expect(type(v) is dict, f"vertices[{i}]", "an object", v)
        _expect_keys(v, f"vertices[{i}]", ("id", "e"))
        _expect(type(v["id"]) in (int, str), f"vertices[{i}]: 'id'", _ID, v["id"])
        _expect(type(v["e"]) is int, f"vertices[{i}]: 'e'", "an integer", v["e"])
    for i, edge in enumerate(data["edges"]):
        _expect(type(edge) is list and len(edge) == 2, f"edges[{i}]", "an array of two ids", edge)
        for t, end in enumerate(edge):
            _expect(type(end) in (int, str), f"edges[{i}][{t}]", _ID, end)
    return build_graph([(v["id"], v["e"]) for v in data["vertices"]],
                       [tuple(e) for e in data["edges"]])


# ---------------------------------------------------------------------------
# characteristic elements and numerical invariants


def characteristic_from_pairings(graph, c):
    """Characteristic element with prescribed integer pairings c_j = k(b_j),
    after the parity check on the basis; no dual vector is built."""
    c = tuple(int(x) for x in c)
    for j, (cj, ej) in enumerate(zip(c, graph.e)):
        if (cj + ej) % 2:
            raise ParityViolation(f"k(b_{j}) + e_{j} = {cj + ej} is odd")
    return CharElement(pairings=c)


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


def k_squared_plus_s(graph):
    """The invariant K^2 + s from the combinatorial formula

        sum e_j + 3s + 2 + sum_{i,j} (2 - d_i)(2 - d_j) (B^{-1})_{ij},

    cross-checked against the direct evaluation (K, K) + s."""
    s = graph.s
    w = [2 - d for d in graph.degrees]
    val = Fraction(sum(graph.e) + 3 * s + 2) + graph.form.square(w)
    direct = graph.form.square(canonical_class(graph).pairings) + s
    if val != direct:
        raise InvariantViolated(f"K^2+s formula {val} disagrees with direct pairing {direct}")
    return val


def casson_walker(graph):
    """Casson-Walker invariant of the plumbed manifold, from

        -(24/|H|) lambda(M) = sum e_j + 3s + sum_j (2 - d_j) (B^{-1})_{jj}."""
    A = graph.form.adjugate_neg
    order = graph.form.order
    diag = sum((2 - d) * A[j][j] for j, d in enumerate(graph.degrees))
    return Fraction(diag - order * (sum(graph.e) + 3 * graph.s), 24)


# ---------------------------------------------------------------------------
# Laufer ascent


def laufer_ascent(e, adjacency, x, pair, skip=None):
    """Laufer's ascent on the tree with Euler numbers ``e``: add b_j to x
    while some pair[j] = (x + l', b_j) is positive, j != skip.

    x and ``pair`` are updated in place.  Every push is forced: the least
    element above x of the target set {pair_j <= 0 for j != skip} lies above
    x + b_j whenever pair[j] > 0.  So the endpoint, that least element, does
    not depend on the order of the pushes, and b_j enters ceil(pair[j] /
    -e_j) times at once.  Since every push at x is forced, so are all of
    them together: ``spinc._ascend`` makes every such push of a round at
    once, in every row of a batch."""
    todo = [j for j, p in enumerate(pair) if p > 0 and j != skip]
    while todo:
        j = todo.pop()
        p = pair[j]
        if p <= 0:
            continue
        k = -(p // e[j])  # ceil(p / -e_j), as e_j <= -1
        x[j] += k
        pair[j] = p + k * e[j]
        for nb in adjacency[j]:
            pair[nb] += k
            if pair[nb] > 0 and nb != skip:
                todo.append(nb)


# ---------------------------------------------------------------------------
# blow-up / blow-down calculus


def blow_up(graph, site):
    """Blow up a vertex (attach a new (-1)-vertex, e_j -> e_j - 1) or an edge
    (subdivide through a new (-1)-vertex, both endpoint Euler numbers dropped
    by one).  ``site`` is a vertex label or a pair of labels: it names the
    vertices whose Euler numbers drop, each joined to the new vertex, and
    the edge that goes (none for a vertex)."""
    index, labels = graph.label_index, graph.labels
    if isinstance(site, (tuple, list)) and len(site) == 2:
        a, b = site
        if a not in index or b not in index:
            raise InvalidSite(f"edge site {site} references unknown vertex")
        drop = gone = (min(index[a], index[b]), max(index[a], index[b]))
        if gone not in graph.edges:
            raise InvalidSite(f"no edge between {a} and {b}")
    elif site in index:
        drop, gone = (index[site],), None
    else:
        raise InvalidSite(f"site {site!r} is neither a vertex label nor an edge")
    new_label = max(labels) + 1
    verts = [(lab, ej - 1 if i in drop else ej)
             for i, (lab, ej) in enumerate(zip(labels, graph.e))]
    edges = [(labels[i], labels[j]) for i, j in graph.edges if (i, j) != gone]
    edges += [(labels[i], new_label) for i in drop]
    return build_graph(verts + [(new_label, -1)], edges)


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
