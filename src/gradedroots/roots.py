"""Abstract graded roots and their Z[U]-modules.

A graded root is an infinite tree R with an integer grading chi such that
every edge changes chi by exactly one, no vertex has two neighbours above
it, chi is bounded below with finite level sets, and all sufficiently high
levels contain a single vertex (the root ends in one infinite ray).

We store the finite interesting part: all vertices with chi <= top_level.
When ``truncated`` is False the object above top_level is certified to be
the single ray, so the data determines the infinite root exactly; when
True only the displayed part is known.

Every root is built by :func:`merge_tree`, the merge tree of a filtered
graph: elements enter at their level, edges at theirs (by default the higher
level of their ends), and the vertices at level n are the components of
what has entered by level n, each joined to the component containing it
one level up (Nemethi, Graded roots and singularities, 2005, section 2).
Each component is named by its smallest element, and vertices are numbered
level by level and, within a level, by that smallest element.  Two sweeps
feed the builder the same per-level data: the oracle's sublevel sets go
through numpy hook-and-jump (:func:`array_sweep`), tau functions (path
graphs, :func:`root_from_tau`) and (n_i, n_ij) data (complete graphs on the
rays, :func:`root_from_minima`) through a Python union-find
(:func:`level_sweep`).  Those are a few dozen elements, where array calls
cost more than they save: on the 1 803 tau paths of one ``analyze`` batch
the array sweep took 0.40 s against 0.066 s.

The module H(R, chi) of a graded root decomposes as one infinite tower
T+[2*chi(v1)] plus finite towers T[2*chi(v_k)](chi(w_k) - chi(v_k)) read
off a greedy ordering of the local minima; see :func:`module_of_root`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np

_END = (float("inf"), ())  # sentinel group after the last level


class EmptyTau(ValueError):
    """A tau function needs at least one value."""


class SweepIndexError(ValueError):
    """An array sweep was given elements or edge ends that int32 labels
    cannot hold: 2^31 elements or more, or an edge end outside them."""


class ConditionViolated(ValueError):
    """The (n_i, n_ij) data violates a merge-consistency condition."""


@dataclass(frozen=True)
class TauFunction:
    """Finite list of tau values tau(0..m).

    ``certified`` asserts that the (infinite) continuation satisfies
    tau(i+1) >= tau(i) for every i >= m, so the finite values determine the
    graded root completely.
    """

    values: tuple
    certified: bool = True

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if not self.values:
            raise EmptyTau("tau has no values")

    def min(self):
        return min(self.values)


def _fmt_q(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True, eq=False)
class GradedRoot:
    """Finite presentation of a graded root.

    ``chi[v]`` is the grading of vertex v, ``edges`` joins vertices on
    adjacent levels, ``top_level`` is the highest stored level.  Vertex ids
    are construction order; structural equality goes through
    :meth:`canonical_key`, which is invariant under relabelling.
    """

    chi: tuple
    edges: tuple
    top_level: int
    truncated: bool = False

    def __post_init__(self):
        chi = self.chi
        if not chi:
            raise ValueError("a graded root needs at least one vertex")
        if max(chi) > self.top_level:
            raise ValueError("vertex above top_level")
        up = [0] * len(chi)
        for u, v in self.edges:
            if abs(chi[u] - chi[v]) != 1:
                raise ValueError(f"edge ({u},{v}) joins non-adjacent levels")
            hi = u if chi[u] > chi[v] else v
            lo = v if hi == u else u
            up[lo] += 1
        for v, n in enumerate(up):
            if chi[v] < self.top_level and n != 1:
                raise ValueError(f"vertex {v} has {n} upward edges, expected 1")
            if chi[v] == self.top_level and n != 0:
                raise ValueError(f"top-level vertex {v} has an upward edge")
        if not self.truncated and sum(1 for c in chi if c == self.top_level) != 1:
            raise ValueError("a non-truncated root must end in a single ray vertex")

    # -- structure ----------------------------------------------------------

    @property
    def parents(self):
        """parent[v] = unique neighbour one level up (None for top vertices)."""
        par = [None] * len(self.chi)
        for u, v in self.edges:
            lo, hi = (u, v) if self.chi[u] < self.chi[v] else (v, u)
            par[lo] = hi
        return par

    @property
    def children(self):
        kids = [[] for _ in self.chi]
        for v, p in enumerate(self.parents):
            if p is not None:
                kids[p].append(v)
        return kids

    def local_minima(self):
        """Vertices with no neighbour below; these are the leaves V_1."""
        kids = self.children
        return [v for v in range(len(self.chi)) if not kids[v]]

    def min_chi(self):
        return min(self.chi)

    def canonical_key(self):
        """Label-independent encoding: each component is encoded bottom-up
        as nested sorted tuples of (chi, child encodings)."""
        kids, parents = self.children, self.parents
        tops = sorted((v for v in range(len(self.chi)) if parents[v] is None),
                      key=lambda v: self.chi[v])
        enc = [None] * len(self.chi)
        for top in tops:
            # iterative post-order to keep deep rays off the call stack
            stack = [(top, False)]
            while stack:
                v, done = stack.pop()
                if done:
                    enc[v] = (self.chi[v], tuple(sorted(enc[c] for c in kids[v])))
                else:
                    stack.append((v, True))
                    stack.extend((c, False) for c in kids[v])
        return (self.truncated, self.top_level, tuple(sorted(enc[t] for t in tops)))

    def __eq__(self, other):
        return isinstance(other, GradedRoot) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def truncate(self, level):
        """The root seen up to ``level`` only, marked truncated.

        Cuts structure above ``level``; if ``level`` exceeds the stored top
        of a non-truncated root, the certified single ray is padded up to
        ``level`` so that truncations of equal roots compare equal.
        """
        if level >= self.top_level:
            if level == self.top_level:
                return GradedRoot(chi=self.chi, edges=self.edges,
                                  top_level=level, truncated=True)
            if self.truncated:
                raise ValueError("cannot extend a truncated root upward")
            chi = list(self.chi)
            edges = list(self.edges)
            v = next(i for i, c in enumerate(chi) if c == self.top_level)
            for n in range(self.top_level + 1, level + 1):
                chi.append(n)
                edges.append((v, len(chi) - 1))
                v = len(chi) - 1
            return GradedRoot(chi=tuple(chi), edges=tuple(edges),
                              top_level=level, truncated=True)
        keep = [v for v, c in enumerate(self.chi) if c <= level]
        if not keep:
            raise ValueError("truncation level below the whole root")
        remap = {v: i for i, v in enumerate(keep)}
        edges = tuple((remap[u], remap[v]) for u, v in self.edges
                      if u in remap and v in remap)
        return GradedRoot(chi=tuple(self.chi[v] for v in keep), edges=edges,
                          top_level=level, truncated=True)

    def __repr__(self):
        kind = "truncated" if self.truncated else "stabilized"
        return (f"GradedRoot({len(self.chi)} vertices, min={self.min_chi()}, "
                f"top={self.top_level}, {kind})")


def level_sweep(size, elements, links, top=None):
    """One union-find over a filtered graph on the elements 0 .. size-1,
    run in level order.

    ``elements`` yields (level, p) for every element and ``links`` yields
    (level, u, v) for every edge, both sorted by level; no edge may enter
    below either of its ends.  For every level n (up to ``top``) at which
    something enters, the elements of level n are added and the edges of
    level n joined; then the sweep yields (n, cur, up): ``cur`` lists the
    components at n by their smallest elements, in increasing order, and
    ``up`` the component at n of each entry of the previous ``cur``.
    """
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    elements = groupby(elements, itemgetter(0))
    links = groupby(links, itemgetter(0))
    el, ed = next(elements, _END), next(links, _END)
    cur = []
    while True:
        n = min(el[0], ed[0])
        if n == _END[0] or (top is not None and n > top):
            return
        entered = []
        if el[0] == n:
            entered = [p for _, p in el[1]]
            el = next(elements, _END)
        if ed[0] == n:
            for _, a, b in ed[1]:
                # find, inlined: this loop is the hot path of root_from_tau
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
            ed = next(links, _END)
        up = [find(r) for r in cur]
        cur = sorted(set(up).union(map(find, entered)))
        yield n, cur, up


def label_sweep(levels, eu, ev, top=None):
    """Hook-and-jump connectivity (Shiloach-Vishkin) of a filtered graph
    given as arrays: element p enters at levels[p], edge (eu[i], ev[i])
    with its higher end.  For every level n (up to ``top``) at which an
    element enters, yields (n, lab): lab[p] is the smallest element of the
    component of p for every p entered by n, valid until the sweep resumes.
    The edges of level n hook the larger label of their ends onto the
    smaller (``np.minimum.at``) until no edge joins two labels, with pointer
    jumping to ``lab[lab] == lab`` after each round.  A label only points
    down, so a component's fixed point is its smallest element.  Labels and
    edge ends are int32; :class:`SweepIndexError` rejects what they cannot
    hold before the cast."""
    levels = np.asarray(levels, dtype=np.int64)
    n = len(levels)
    if n >= 1 << 31:
        raise SweepIndexError(f"{n} elements exceed the 2^31 that int32 labels hold")
    eu, ev = np.asarray(eu), np.asarray(ev)
    for ends in (eu, ev):
        if len(ends) and not 0 <= ends.min() <= ends.max() < n:
            raise SweepIndexError(f"an edge end in [{ends.min()}, {ends.max()}] lies "
                                  f"outside the {n} elements")
    eu, ev = eu.astype(np.int32, copy=False), ev.astype(np.int32, copy=False)
    edge_levels = np.maximum(levels[eu], levels[ev])
    by_level = np.argsort(edge_levels)
    eu, ev, edge_levels = eu[by_level], ev[by_level], edge_levels[by_level]
    stops = np.unique(levels if top is None else levels[levels <= top])
    lab = np.arange(len(levels), dtype=np.int32)
    ends = np.searchsorted(edge_levels, stops, "right").tolist()
    for n, e0, e1 in zip(stops.tolist(), [0] + ends, ends):
        a, b = eu[e0:e1], ev[e0:e1]
        la, lb = lab[a], lab[b]
        while (la != lb).any():
            np.minimum.at(lab, np.maximum(la, lb), np.minimum(la, lb))
            while (lab != (jump := lab[lab])).any():
                lab = jump
            la, lb = lab[a], lab[b]
        yield n, lab


def array_sweep(levels, eu, ev, top=None):
    """:func:`label_sweep` read as :func:`level_sweep`, yielding (n, cur, up):
    the components at n are the elements entered by n that are their own
    label."""
    levels = np.asarray(levels, dtype=np.int64)
    own = np.arange(len(levels))
    cur = own[:0]
    for n, lab in label_sweep(levels, eu, ev, top):
        up = lab[cur]
        cur = np.flatnonzero((lab == own) & (levels <= n))
        yield n, cur.tolist(), up.tolist()


def merge_tree(sweep, *graph, top=None, truncated=False):
    """The graded root of a filtered graph, read off ``sweep(*graph, top)``
    (:func:`level_sweep` or :func:`array_sweep`): its vertices at level n
    are the components of the subgraph of everything entered by level n,
    each joined to the component that contains it one level up.

    Levels run from the lowest element level to ``top`` (default: the last
    level at which something enters).  Vertices are numbered level by
    level and, within a level, by the smallest element of their component.
    A non-truncated root is stored up to the last level at which the number
    of components changes; above it the root is the single infinite ray.
    """
    chi, edges = [], []
    ids, last, end = [], None, None  # vertices of the last stored level

    def copy_up_to(n):
        # levels last+1 .. n hold the same components as level last
        nonlocal ids, last
        for m in range(last + 1, n + 1):
            base = len(chi)
            chi.extend([m] * len(ids))
            new = range(base, base + len(ids))
            edges.extend(zip(ids, new))
            ids = list(new)
        last = n

    for n, cur, up in sweep(*graph, top):
        end = n
        if len(cur) == len(ids) == 1:
            continue  # the single component only grew
        if last is not None:
            copy_up_to(n - 1)
        base = len(chi)
        chi.extend([n] * len(cur))
        vid = dict(zip(cur, range(base, base + len(cur))))
        edges.extend(zip(ids, map(vid.__getitem__, up)))
        ids, last = list(range(base, base + len(cur))), n
    if chi and (truncated or len(ids) != 1):
        copy_up_to(end if top is None else top)
    return GradedRoot(chi=tuple(chi), edges=tuple(edges), top_level=last,
                      truncated=truncated)


def ray_root(n):
    """R_n: the single infinite ray starting at level n."""
    return GradedRoot(chi=(n,), edges=(), top_level=n, truncated=False)


# ---------------------------------------------------------------------------
# constructions


def root_from_tau(tau, truncate_at=None):
    """The graded root R_tau of a tau function.

    Vertices at level n are the maximal runs of consecutive indices i with
    tau(i) <= n; a run at level n sits inside a unique run at level n+1.
    With a certified tau the result is the exact infinite root; otherwise
    (or when ``truncate_at`` is given) the result is marked truncated.
    """
    if not isinstance(tau, TauFunction):
        tau = TauFunction(tuple(tau), certified=True)
    vals = tau.values
    if truncate_at is not None and truncate_at < min(vals):
        raise ValueError("truncation level below min tau")
    m = len(vals)
    return merge_tree(level_sweep, m, sorted(zip(vals, range(m))),
                      sorted((max(vals[i], vals[i + 1]), i, i + 1) for i in range(m - 1)),
                      top=truncate_at, truncated=truncate_at is not None or not tau.certified)


def root_from_minima(n_i, n_ij):
    """The graded root R({n_i}, {n_ij}) glued from rays.

    ``n_i`` lists the starting levels, ``n_ij`` is the full symmetric merge
    matrix; rays i and j are identified at all levels >= n_ij.  Conditions
    checked: n_ii = n_i, n_ij >= max(n_i, n_j), and
    n_jk <= max(n_ij, n_ik) for all triples.
    """
    m = len(n_i)
    if m == 0:
        raise ConditionViolated("empty index set")
    n_i = [int(v) for v in n_i]
    N = [[int(n_ij[i][j]) for j in range(m)] for i in range(m)]
    for i in range(m):
        if N[i][i] != n_i[i]:
            raise ConditionViolated(f"n_ii != n_i at i={i}")
        for j in range(m):
            if N[i][j] != N[j][i]:
                raise ConditionViolated(f"n_ij not symmetric at ({i},{j})")
            if N[i][j] < max(n_i[i], n_i[j]):
                raise ConditionViolated(f"n_ij < max(n_i, n_j) at ({i},{j})")
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if N[j][k] > max(N[i][j], N[i][k]):
                    raise ConditionViolated(
                        f"n_jk > max(n_ij, n_ik) at (i,j,k)=({i},{j},{k})")
    return merge_tree(level_sweep, m, sorted(zip(n_i, range(m))),
                      sorted((N[i][j], i, j) for i in range(m) for j in range(i + 1, m)))


# ---------------------------------------------------------------------------
# Z[U]-modules


@dataclass(frozen=True)
class ZUModule:
    """T+[r] plus finitely many T[a](n); degrees rational, deg U = -2."""

    tower_degree: Fraction
    finite: tuple = field(default_factory=tuple)  # ((degree, length), ...)

    def __post_init__(self):
        object.__setattr__(self, "tower_degree", Fraction(self.tower_degree))
        object.__setattr__(
            self, "finite",
            tuple(sorted((Fraction(a), int(n)) for a, n in self.finite)))

    def rank_reduced(self):
        return sum(n for _, n in self.finite)

    def shifted(self, r):
        r = Fraction(r)
        return ZUModule(self.tower_degree + r,
                        tuple((a + r, n) for a, n in self.finite))

    def pretty(self):
        parts = [f"T+[{_fmt_q(self.tower_degree)}]"]
        parts += [f"T[{_fmt_q(a)}]({n})" for a, n in self.finite]
        return " (+) ".join(parts)

    def to_json(self):
        return {"tower": _fmt_q(self.tower_degree),
                "finite": [[_fmt_q(a), n] for a, n in self.finite]}


def module_of_root(root):
    """H(R, chi) via the greedy minima ordering.

    v_1 is a global minimum; each later v_k is a remaining minimum of least
    chi, and w_k is the lowest vertex dominating both v_k and some earlier
    v.  The decomposition type does not depend on tie-breaks; ties are
    resolved by vertex id (creation order).
    """
    if root.truncated:
        raise ValueError("module of a truncated root is not determined")
    parents = root.parents
    minima = sorted(root.local_minima(), key=lambda v: (root.chi[v], v))
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


def tau_invariants(values, kr2s):
    """(min tau, rank_red, d) of the tau function ``values`` (Cor. 2.10):

        rank_red = -tau(0) + min tau + sum_i max(tau(i) - tau(i+1), 0),
        d = (k_r^2 + s)/4 - 2 min tau,  with ``kr2s`` = k_r^2 + s.

    rank_red is an int and d a Fraction."""
    m = min(values)
    drops = sum(max(a - b, 0) for a, b in zip(values, values[1:]))
    return m, -values[0] + m + drops, Fraction(kr2s) / 4 - 2 * m


def rank_red_from_tau(tau):
    """Finite rank of H_red(R_tau) together with min tau.

    Under the hypothesis tau(1) > tau(0) this is the closed form of
    :func:`tau_invariants`; otherwise the rank is read from the module of
    the constructed root.
    """
    if not isinstance(tau, TauFunction):
        tau = TauFunction(tuple(tau), certified=True)
    vals = tau.values
    m, rank, _ = tau_invariants(vals, 0)
    if len(vals) < 2 or vals[1] <= vals[0]:
        rank = module_of_root(root_from_tau(tau)).rank_reduced()
    return (rank, m)


def shift_root(root, r):
    """(R, chi)[r]: same tree with grading chi + r (r an integer)."""
    r = int(r)
    return GradedRoot(chi=tuple(c + r for c in root.chi), edges=root.edges,
                      top_level=root.top_level + r, truncated=root.truncated)


# ---------------------------------------------------------------------------
# DOT export


def dot_export(root, degree_shift=0):
    """Graphviz text for a graded root.

    Vertices are ranked by chi; each label shows chi and the absolute
    degree -2*chi + degree_shift.  Vertex names follow the (chi, id) order,
    so the output is deterministic for a given root.
    """
    shift = Fraction(degree_shift)
    order = sorted(range(len(root.chi)), key=lambda v: (root.chi[v], v))
    name = {v: f"v{i}" for i, v in enumerate(order)}
    lines = ["digraph gradedroot {", "  rankdir=BT;", "  node [shape=circle];"]
    for v in order:
        deg = -2 * root.chi[v] + shift
        lines.append(f'  {name[v]} [label="chi={root.chi[v]}\\ndeg={_fmt_q(deg)}"];')
    levels = {}
    for v in order:
        levels.setdefault(root.chi[v], []).append(name[v])
    for n in sorted(levels):
        lines.append("  { rank=same; " + "; ".join(levels[n]) + "; }")
    for u, v in sorted(root.edges, key=lambda e: (min(e), max(e))):
        lo, hi = (u, v) if root.chi[u] < root.chi[v] else (v, u)
        lines.append(f"  {name[lo]} -> {name[hi]};")
    if not root.truncated:
        top = next(v for v in order if root.chi[v] == root.top_level)
        lines.append('  ray [label="...", shape=none];')
        lines.append(f"  {name[top]} -> ray [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
