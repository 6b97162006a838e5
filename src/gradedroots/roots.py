"""Abstract graded roots and their Z[U]-modules.

A graded root is an infinite tree R with an integer grading chi such that
every edge changes chi by exactly one, no vertex has two neighbours above
it, chi is bounded below with finite level sets, and all sufficiently high
levels contain a single vertex (the root ends in one infinite ray).

We store the finite interesting part, all vertices with chi <= top_level,
as a parent array: every vertex below top_level has exactly one neighbour
above it, its parent, one level up, and no vertex on top_level has one.
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
feed the builder the same per-level steps.  The oracle's sublevel sets go
through numpy hook-and-jump (:func:`label_sweep`), one sweep per
enumeration walk for every spin^c orbit in it (:func:`segment_sweeps`):
each orbit's points enter at their levels relative to the orbit's lowest,
so one level of the sweep serves every orbit.  Tau functions (path graphs,
:func:`root_from_tau`) and (n_i, n_ij) data (complete graphs on the rays,
:func:`root_from_minima`) go through a Python union-find
(:func:`level_sweep`).  Those are a few dozen elements, where array calls
cost more than they save: on the 1 803 tau paths of one ``analyze`` batch
the array sweep took 0.40 s against 0.066 s.

The module H(R, chi) is one tower T+[2 min chi] plus a finite tower
T[2*chi(v)](chi(w) - chi(v)) for each other local minimum v, where w is the
vertex at which the component of v meets an older one (the elder rule).
:func:`module_of_root` and :meth:`GradedRoot.canonical_key` each read the
parent array in one pass up the levels.
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


def _fmt_ratios(nums, den):
    """Each nums[i] / den of a 1-D integer array in lowest terms, as
    :func:`_fmt_q` prints it, from one np.gcd over the array; den > 0."""
    g = np.gcd(nums, den)
    return [str(n) if d == 1 else f"{n}/{d}"
            for n, d in zip((nums // g).tolist(), (den // g).tolist())]


@dataclass(frozen=True, eq=False)
class GradedRoot:
    """Finite presentation of a graded root: its parent array.

    ``chi[v]`` is the grading of vertex v and ``parents[v]`` its one
    neighbour above, on level chi[v] + 1; it is None exactly on
    ``top_level``, the highest stored level.  Vertex ids are construction
    order; structural equality goes through :meth:`canonical_key`, which is
    invariant under relabelling.
    """

    chi: tuple
    parents: tuple
    top_level: int
    truncated: bool = False

    def __post_init__(self):
        chi, top = self.chi, self.top_level
        if not chi:
            raise ValueError("a graded root needs at least one vertex")
        if len(self.parents) != len(chi):
            raise ValueError(f"{len(self.parents)} parents for {len(chi)} vertices")
        for v, (c, p) in enumerate(zip(chi, self.parents)):
            if c > top:
                raise ValueError(f"vertex {v} above top_level")
            if p is None:
                if c != top:
                    raise ValueError(f"vertex {v} below top_level has no parent")
            elif c == top:
                raise ValueError(f"top-level vertex {v} has a parent")
            elif not (0 <= p < len(chi) and chi[p] == c + 1):
                raise ValueError(f"parent {p} of vertex {v} is not a vertex one level up")
        if not self.truncated and self.parents.count(None) != 1:
            raise ValueError("a non-truncated root must end in a single ray vertex")

    # -- structure ----------------------------------------------------------

    @property
    def edges(self):
        """(v, parents[v]) for every vertex below top_level, in vertex order."""
        return tuple((v, p) for v, p in enumerate(self.parents) if p is not None)

    def min_chi(self):
        return min(self.chi)

    def canonical_key(self):
        """Label-independent encoding, flat, in one pass up the levels: a
        vertex's signature is the sorted tuple of its children's names, its
        name the rank of its signature among its level's distinct ones, and
        the key holds each level's sorted signatures, lowest first.  A lone
        vertex on its level, as on most levels of most roots, is named 0."""
        chi, parents, top = self.chi, self.parents, self.top_level
        lo = min(chi)
        on = [[] for _ in range(top - lo + 1)]  # the vertices of each level
        for v, c in enumerate(chi):
            on[c - lo].append(v)
        below = [[] for _ in chi]  # the names of each vertex's children
        levels = []
        for group in on:
            if len(group) == 1:
                v = group[0]
                levels.append((tuple(sorted(below[v])),))
                if parents[v] is not None:
                    below[parents[v]].append(0)
                continue
            sigs = [tuple(sorted(below[v])) for v in group]
            levels.append(tuple(sorted(sigs)))
            names = {sig: n for n, sig in enumerate(dict.fromkeys(levels[-1]))}
            for v, sig in zip(group, sigs):
                if parents[v] is not None:
                    below[parents[v]].append(names[sig])
        return (self.truncated, top, tuple(levels))

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
                return GradedRoot(chi=self.chi, parents=self.parents,
                                  top_level=level, truncated=True)
            if self.truncated:
                raise ValueError("cannot extend a truncated root upward")
            # the single top vertex climbs the ray to level
            n = len(self.chi)
            pad = level - self.top_level
            parents = list(self.parents)
            parents[parents.index(None)] = n
            parents += [*range(n + 1, n + pad), None]
            return GradedRoot(chi=self.chi + tuple(range(self.top_level + 1, level + 1)),
                              parents=tuple(parents), top_level=level, truncated=True)
        keep = [v for v, c in enumerate(self.chi) if c <= level]
        if not keep:
            raise ValueError("truncation level below the whole root")
        remap = {v: i for i, v in enumerate(keep)}
        return GradedRoot(chi=tuple(self.chi[v] for v in keep),
                          parents=tuple(remap.get(self.parents[v]) for v in keep),
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


def _narrow(a):
    """a - min(a) in the narrowest unsigned dtype that holds it: the same
    order, and numpy sorts keys of 16 bits or less by radix.  For int64 a
    the difference lies in [0, 2^64): the int64 subtraction wraps only
    where it exceeds 2^63 - 1, and the uint64 cast then undoes the wrap."""
    if not len(a):
        return a
    low = a.min()
    return (a - low).astype(np.min_scalar_type(int(a.max()) - int(low)))


def label_sweep(levels, eu, ev, top=None):
    """Hook-and-jump connectivity (Shiloach-Vishkin) of a filtered graph
    given as arrays: element p enters at levels[p], edge (eu[i], ev[i])
    with its higher end.  For every level n (up to ``top``) at which an
    element enters, yields (n, lab): lab[p] is the smallest element of the
    component of p for every p entered by n, valid until the sweep resumes.
    The edges of level n hook the larger label of their ends onto the
    smaller (``np.minimum.at``) until no edge joins two labels, with pointer
    jumping to ``lab[lab] == lab`` after each round.  A label only points
    down, so a component's fixed point is its smallest element.

    Bounds: labels and edge ends are int32, and :class:`SweepIndexError`
    rejects what they cannot hold before the cast: 2^31 or more elements,
    or an edge end outside them.  The levels and the edge
    levels are swept as levels - min(levels) (:func:`_narrow`), unsigned and
    below max - min + 1 <= 2^64, so the edges sort by a stable radix sort
    when the levels span fewer than 2^16; ``n`` is yielded in the caller's
    units, as a Python integer.  The sort keys are freed before the first
    level."""
    levels = np.asarray(levels)
    n = len(levels)
    if n >= 1 << 31:
        raise SweepIndexError(f"{n} elements exceed the 2^31 that int32 labels hold")
    eu, ev = np.asarray(eu), np.asarray(ev)
    for ends in (eu, ev):
        if len(ends) and not 0 <= ends.min() <= ends.max() < n:
            raise SweepIndexError(f"an edge end in [{ends.min()}, {ends.max()}] lies "
                                  f"outside the {n} elements")
    if not n:
        return
    eu, ev = eu.astype(np.int32, copy=False), ev.astype(np.int32, copy=False)
    low = int(levels.min())
    rel = _narrow(levels)
    stops = np.unique(rel)
    if top is not None:
        stops = stops[stops <= top - low]
    edge_levels = np.maximum(rel[eu], rel[ev])
    del rel
    by_level = np.argsort(edge_levels, kind="stable")
    eu, ev = eu[by_level], ev[by_level]
    ends = np.searchsorted(edge_levels[by_level], stops, "right").tolist()
    del by_level, edge_levels
    lab = np.arange(n, dtype=np.int32)
    for r, e0, e1 in zip(stops.tolist(), [0] + ends, ends):
        a, b = eu[e0:e1], ev[e0:e1]
        la, lb = lab[a], lab[b]
        while (la != lb).any():
            np.minimum.at(lab, np.maximum(la, lb), np.minimum(la, lb))
            while (lab != (jump := lab[lab])).any():
                lab = jump
            la, lb = lab[a], lab[b]
        yield low + r, lab


def segment_sweeps(levels, eu, ev, ends):
    """The steps (n, cur, up) of :func:`level_sweep` for every segment of a
    filtered graph given as arrays, from one :func:`label_sweep`.  Segment
    i holds the elements ends[i-1] .. ends[i] - 1 (from 0), is not empty,
    has nondecreasing levels and shares no edge with another segment.
    Each segment is swept on its levels minus its lowest, so one
    hook-and-jump per relative level serves every segment; segment i gets
    a step at each of its own levels only, in its own units, with ``cur``
    and ``up`` naming components by their smallest element as
    :func:`level_sweep` does.  Between two of its own levels nothing of a
    segment enters, so its components stand still and ``up`` reads them
    off the last step of any segment.  Returns one list of steps per
    segment, for :func:`merge_tree`.

    Bounds: the levels are int64, and the relative levels are unsigned
    (:func:`_narrow`), each below its segment's span + 1.  A segment that
    spans 2^63 or more wraps in the int64 subtraction, shows as a decrease
    and is refused with the unsorted ones.  The element ids ``own`` are
    int32 and read only inside the loop, which :func:`label_sweep` enters
    only after refusing 2^31 or more elements; the int64 segment starts are
    element ids, below 2^31 for the same reason."""
    if not ends:
        return []
    levels = np.asarray(levels, dtype=np.int64)
    begins = [0] + ends[:-1]
    low = levels[begins]
    rel = _narrow(levels - low.repeat(np.diff([0] + ends)))
    # the segments that own each relative level: the first element of
    # each run of equal levels inside a segment
    first = np.ones(len(rel), dtype=bool)
    first[1:] = rel[1:] != rel[:-1]
    first[begins] = True
    down = rel[1:] < rel[:-1]
    down[np.array(begins[1:], dtype=np.int64) - 1] = False
    if down.any():
        raise ValueError("the levels of a segment must not decrease")
    del down
    owners = {}
    runs = np.flatnonzero(first)
    for i, r in zip(np.searchsorted(ends, runs, "right").tolist(), rel[runs].tolist()):
        owners.setdefault(r, []).append(i)
    del first, runs
    low = low.tolist()
    steps = [[] for _ in ends]
    own = np.arange(len(rel), dtype=np.int32)
    heads, cut = own[:0], [0] * (len(ends) + 1)
    for r, lab in label_sweep(rel, eu, ev):
        up = lab[heads].tolist()
        heads = np.flatnonzero((lab == own) & (rel <= r))
        prev, cut = cut, [0] + np.searchsorted(heads, ends).tolist()
        cur = heads.tolist()
        for i in owners[r]:
            steps[i].append((low[i] + r, cur[cut[i]:cut[i + 1]], up[prev[i]:prev[i + 1]]))
    return steps


def merge_tree(steps, top=None, truncated=False):
    """The graded root of a filtered graph, read off its sweep ``steps``,
    the (n, cur, up) of :func:`level_sweep` or :func:`segment_sweeps`: its
    vertices at level n are the components of the subgraph of everything
    entered by level n, each joined to the component that contains it one
    level up.

    Levels run from the lowest element level to ``top`` (default: the last
    level at which something enters); no step lies above ``top``.  Vertices
    are numbered level by level and, within a level, by the smallest
    element of their component.  A non-truncated root is stored up to the
    last level at which the number of components changes; above it the
    root is the single infinite ray.
    """
    chi, parents = [], []
    # the vertices of the last stored level: always the last ids, so their
    # parents are the slice parents[ids.start:]
    ids, last, end = range(0), None, None

    def copy_up_to(n):
        # levels last+1 .. n hold the same components as level last
        nonlocal ids, last
        for m in range(last + 1, n + 1):
            new = range(len(chi), len(chi) + len(ids))
            parents[ids.start:] = new
            parents.extend([None] * len(new))
            chi.extend([m] * len(new))
            ids = new
        last = n

    for n, cur, up in steps:
        end = n
        if len(cur) == len(ids) == 1:
            continue  # the single component only grew
        if last is not None:
            copy_up_to(n - 1)
        new = range(len(chi), len(chi) + len(cur))
        parents[ids.start:] = map(dict(zip(cur, new)).__getitem__, up)
        parents.extend([None] * len(new))
        chi.extend([n] * len(new))
        ids, last = new, n
    if chi and (truncated or len(ids) != 1):
        copy_up_to(end if top is None else top)
    return GradedRoot(chi=tuple(chi), parents=tuple(parents), top_level=last,
                      truncated=truncated)


def ray_root(n):
    """R_n: the single infinite ray starting at level n."""
    return GradedRoot(chi=(n,), parents=(None,), top_level=n, truncated=False)


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
    links = sorted((max(vals[i], vals[i + 1]), i, i + 1) for i in range(m - 1))
    return merge_tree(level_sweep(m, sorted(zip(vals, range(m))), links, truncate_at),
                      top=truncate_at, truncated=truncate_at is not None or not tau.certified)


def descent_prefix(values):
    """tau up to one past its last strict descent: tau(0 .. i+1) for the
    last i with tau(i) > tau(i+1), or tau(0) alone.  Past it a certified
    tau only rises, so each later index joins the run of its predecessor
    as it enters and the certified root is unchanged."""
    last = len(values) - 1
    while last and values[last - 1] <= values[last]:
        last -= 1
    return values[:last + 1]


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
    links = sorted((N[i][j], i, j) for i in range(m) for j in range(i + 1, m))
    return merge_tree(level_sweep(m, sorted(zip(n_i, range(m))), links))


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
    """H(R, chi) by the elder rule, in one pass up the levels: each vertex
    inherits the lowest birth level among its children, and a leaf is born
    at its own chi.  Where a second child's component reaches a vertex w,
    the younger of the two, born at b, ends as T[2b](chi(w) - b); which of
    two equal births ends does not change the towers.  The one survivor is
    the tower T+[2 min chi].
    """
    if root.truncated:
        raise ValueError("module of a truncated root is not determined")
    chi, parents = root.chi, root.parents
    born = [None] * len(chi)
    finite = []
    for v in sorted(range(len(chi)), key=chi.__getitem__):
        b, p = chi[v] if born[v] is None else born[v], parents[v]
        if p is not None:
            if born[p] is not None:
                b, young = sorted((b, born[p]))
                finite.append((2 * young, chi[p] - young))
            born[p] = b
    return ZUModule(2 * root.min_chi(), tuple(finite))


def tau_invariants(values, kr2s):
    """(min tau, rank_red, d) of the tau function ``values`` (Cor. 2.10):

        rank_red = -tau(0) + min tau + sum_i max(tau(i) - tau(i+1), 0),
        d = (k_r^2 + s)/4 - 2 min tau,  with ``kr2s`` = k_r^2 + s.

    rank_red is an int and d a Fraction."""
    m = min(values)
    drops = sum(max(a - b, 0) for a, b in zip(values, values[1:]))
    return m, -values[0] + m + drops, Fraction(kr2s) / 4 - 2 * m


def rank_red_from_tau(tau):
    """Finite rank of H_red(R_tau) together with min tau, by the closed
    form of :func:`tau_invariants`.  It holds for every tau: each finite
    tower pairs a local minimum with the level at which its run merges
    into a lower one.
    """
    if not isinstance(tau, TauFunction):
        tau = TauFunction(tuple(tau), certified=True)
    m, rank, _ = tau_invariants(tau.values, 0)
    return (rank, m)


def shift_root(root, r):
    """(R, chi)[r]: same tree with grading chi + r (r an integer)."""
    r = int(r)
    return GradedRoot(chi=tuple(c + r for c in root.chi), parents=root.parents,
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
    for v, p in sorted(root.edges, key=lambda e: (min(e), max(e))):
        lines.append(f"  {name[v]} -> {name[p]};")
    if not root.truncated:
        top = next(v for v in order if root.chi[v] == root.top_level)
        lines.append('  ray [label="...", shape=none];')
        lines.append(f"  {name[top]} -> ray [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
