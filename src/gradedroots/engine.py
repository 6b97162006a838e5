"""Computation-sequence engine for almost-rational plumbing graphs.

A graph is almost-rational (AR) when decreasing the Euler number of one
vertex makes it rational in the sense of Artin (chi of the fundamental
cycle equals 1).  For such graphs the graded root of every spin^c orbit is
read off a single increasing sequence of cycles x(0) <= x(1) <= ... where
x(i) is the least effective cycle with coefficient i at the distinguished
vertex and (x(i) + l'_[k], b_j) <= 0 away from it.  tau(i) = chi_k(x(i))
then generates the root, and

    d(M, [k])      = (k_r^2 + s)/4 - 2 min tau,
    rank H_red     = min tau + sum_i max(0, tau(i) - tau(i+1)),
    chi(HF+(-M))   = rank H_red          (odd part vanishes for AR graphs).

Stabilization bound.  Every local-minimum component of chi_k consists of
points x with chi_k(x) <= chi_k(x +- b_j) for all j, i.e. points of the
box Y = {x : -chi_k(-b_j) <= (x, b_j) <= chi_k(b_j)}.  Any strict descent
tau(i) > tau(i+1) produces such a component whose maximal element has
b_0-coefficient > i, so no descent can occur at or beyond

    I* = max(0, floor(max of the b_0-coordinate over the box Y)),

a quantity computable exactly from B^{-1} since all its entries are <= 0.
Past I* the sequence tau is nondecreasing, so tau(0..I*) determines the
root completely; every report is therefore certified, for star-shaped and
general AR graphs alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .plumbing import (InvariantViolated, LatticeVector, PlumbingGraph,
                       canonical_class, chi_k)
from .roots import TauFunction, module_of_root, root_from_tau, shift_module
from .spinc import SpincOrbit, enumerate_spinc, _orbit_from_rep

DEFAULT_AR_DECREMENT_CAP = 64


class NotAR(ValueError):
    """The graph did not certify as almost-rational."""


@dataclass(frozen=True)
class Classification:
    """Outcome of the rational / weakly-elliptic / AR search.

    kind is one of 'rational', 'weakly-elliptic', 'almost-rational',
    'not-ar-certified'.  For the first three, j0 is the distinguished
    vertex (internal index) and e_prime the certified replacement Euler
    number there; for weakly elliptic graphs ``l`` is the elliptic length
    (the number of T_0(1) summands of the canonical module).
    """

    kind: str
    j0: int = None
    e_prime: int = None
    l: int = None
    bound: int = None
    chi_xmin: int = None

    def is_ar(self):
        return self.kind in ("rational", "weakly-elliptic", "almost-rational")

    def describe(self):
        if self.kind == "rational":
            return "Rational"
        if self.kind == "weakly-elliptic":
            return f"WeaklyElliptic l={self.l}"
        if self.kind == "almost-rational":
            return f"AR at vertex {self.j0} (e' = {self.e_prime})"
        return f"NotARCertifiedUpTo({self.bound})"


# ---------------------------------------------------------------------------
# Laufer ascents


def _ascend(graph, x, pair, skip=None):
    """Push x up by basis vectors while some (x + l', b_j) > 0, j != skip.

    ``pair`` holds the current pairing values and is updated in place;
    smallest violated index first (the endpoint is order-independent)."""
    B = graph.form.B
    adj = graph.adjacency
    while True:
        j = next((i for i, p in enumerate(pair) if p > 0 and i != skip), None)
        if j is None:
            return
        x[j] += 1
        pair[j] += B[j][j]
        for nb in adj[j]:
            pair[nb] += 1


def fundamental_cycle(graph):
    """Artin's fundamental cycle: the least x > 0 with (x, b_j) <= 0 for
    all j, by Laufer's algorithm from x = b_0 (the endpoint is the same
    from any starting basis vector)."""
    B = graph.form.B
    x = [0] * graph.s
    x[0] = 1
    pair = list(B[0])
    _ascend(graph, x, pair)
    return LatticeVector(x)


# ---------------------------------------------------------------------------
# classification


def _with_euler(graph, j0, e_new):
    e = list(graph.e)
    e[j0] = e_new
    return PlumbingGraph(labels=graph.labels, e=tuple(e), edges=graph.edges)


def _is_rational(graph):
    K = canonical_class(graph)
    return chi_k(graph, K, fundamental_cycle(graph)) == 1


def find_ar_vertex(graph, max_decrements=DEFAULT_AR_DECREMENT_CAP):
    """Search for a vertex whose decoration can be decreased to a rational
    graph.  For each candidate j0 the decoration drops until the
    fundamental cycle has coefficient 1 at j0; a single rationality test
    there decides (pushing lower cannot change the answer, since the
    rational class is closed under decreasing Euler numbers).  Returns a
    :class:`Classification`; 'not-ar-certified' carries the cap."""
    K = canonical_class(graph)
    cxm = chi_k(graph, K, fundamental_cycle(graph))
    if cxm == 1:
        return Classification(kind="rational", j0=0, e_prime=graph.e[0], chi_xmin=1)
    for j0 in range(graph.s):
        e_mod = graph.e[j0]
        for _ in range(max_decrements + 1):
            mod = _with_euler(graph, j0, e_mod)
            xm = fundamental_cycle(mod)
            if xm[j0] == 1:
                if _is_rational(mod):
                    kind = "weakly-elliptic" if cxm == 0 else "almost-rational"
                    cls = Classification(kind=kind, j0=j0, e_prime=e_mod, chi_xmin=cxm)
                    if kind == "weakly-elliptic":
                        cls = _attach_elliptic_length(graph, cls)
                    return cls
                break
            e_mod -= 1
    return Classification(kind="not-ar-certified", bound=max_decrements, chi_xmin=cxm)


def _attach_elliptic_length(graph, cls):
    orb = canonical_orbit_data(graph)
    t = tau(graph, cls.j0, orb)
    mod = module_of_root(root_from_tau(t))
    return Classification(kind=cls.kind, j0=cls.j0, e_prime=cls.e_prime,
                          l=mod.rank_reduced(), chi_xmin=cls.chi_xmin)


def classify(graph, max_decrements=DEFAULT_AR_DECREMENT_CAP):
    """Rational / weakly elliptic / AR / not certified, tested in that
    order: rational iff chi(x_min) = 1, weakly elliptic iff chi(x_min) = 0
    (with the elliptic length read off the canonical root), else the AR
    vertex search decides."""
    return find_ar_vertex(graph, max_decrements=max_decrements)


def canonical_orbit_data(graph):
    """The canonical orbit [K] as a SpincOrbit (l'_[K] = 0)."""
    K = canonical_class(graph)
    zero = graph.dual_from_pairings([0] * graph.s)
    return _orbit_from_rep(graph, K, zero, -1)


# ---------------------------------------------------------------------------
# the computation sequence and tau


def certified_stop_index(graph, j0, orbit):
    """Smallest certified I such that tau is nondecreasing from I on.

    Maximizes the b_{j0}-coordinate over the pairing box of Y (see module
    docstring): all rows of B^{-1} are <= 0, so the maximum sits at the
    lower pairing corner (e_j - k_r(b_j)) / 2."""
    Binv = graph.form.B_inv
    c = orbit.k_r.pairings
    val = Fraction(0)
    for j in range(graph.s):
        lo_j = Fraction(graph.e[j] - c[j], 2)
        val += Binv[j0][j] * lo_j
    return max(0, math.floor(val))


def x_sequence(graph, j0, orbit, i_max):
    """The cycles x(0), ..., x(i_max) for the distinguished vertex j0.

    x(0) is the Laufer ascent from 0 over J* = J - {j0}; each successor is
    the ascent from x(i) + b_0.  Every x(i) is effective with coefficient
    exactly i at j0."""
    return [LatticeVector(x) for x, _ in _sequence_iter(graph, j0, orbit, i_max)]


def _sequence_iter(graph, j0, orbit, i_max):
    B = graph.form.B
    adj = graph.adjacency
    x = [0] * graph.s
    pair = list(orbit.pairings)
    _ascend(graph, x, pair, skip=j0)
    out = [(list(x), pair[j0])]
    for _ in range(i_max):
        x[j0] += 1
        pair[j0] += B[j0][j0]
        for nb in adj[j0]:
            pair[nb] += 1
        _ascend(graph, x, pair, skip=j0)
        out.append((list(x), pair[j0]))
    return out


def tau(graph, j0, orbit, i_max=None):
    """tau(i) = chi_{k_r}(x(i)), computed up to the certified
    stabilization index (or i_max if given, in which case certification
    holds only when i_max reaches that index).

    Increments follow tau(i+1) - tau(i) = 1 - (x(i) + l'_[k], b_0)."""
    stop = certified_stop_index(graph, j0, orbit)
    upto = stop if i_max is None else i_max
    seq = _sequence_iter(graph, j0, orbit, upto)
    vals = [0]
    for _, p0 in seq[:-1]:
        vals.append(vals[-1] + 1 - p0)
    return TauFunction(values=tuple(vals), certified=upto >= stop)


# ---------------------------------------------------------------------------
# per-orbit reports


@dataclass(frozen=True)
class ARReport:
    """Everything the engine knows about one spin^c orbit."""

    orbit: SpincOrbit
    tau: TauFunction
    root: object            # GradedRoot, relative grading chi_{k_r}
    module: object          # ZUModule, absolutely graded (for -M)
    kr2s: Fraction          # k_r^2 + s
    d: Fraction             # d(M, [k]) = (k_r^2+s)/4 - 2 min tau
    min_tau: int
    rank_red: int
    chi_hf: int             # chi(HF+(-M, [k])) = rank_red (odd part = 0)
    sw_osz: Fraction        # chi_hf - d/2

    @property
    def certified(self):
        return self.tau.certified

    def to_json(self):
        from .roots import _fmt_q
        return {"orbit": self.orbit.orbit_index,
                "l_prime": [_fmt_q(c) for c in self.orbit.l_prime_min.coeffs],
                "d": _fmt_q(self.d),
                "rank_red": self.rank_red,
                "chi_hf": self.chi_hf,
                "sw_osz": _fmt_q(self.sw_osz),
                "tau": list(self.tau.values),
                "certified": self.certified}


def analyze_orbit(graph, orbit, classification=None):
    """Full invariant package for one orbit of an AR graph.

    The module carries the absolute grading of HF+(-M, [k]), i.e. the
    relative one shifted by -(k_r^2 + s)/4; its tower then starts in
    degree -d(M, [k])."""
    cls = classification or classify(graph)
    if not cls.is_ar():
        raise NotAR(cls.describe())
    t = tau(graph, cls.j0, orbit)
    root = root_from_tau(t)
    vals = t.values
    min_tau = min(vals)
    kr = orbit.k_r
    kr2s = graph.pairing(kr.vector, kr.vector) + graph.s
    d = Fraction(kr2s, 4) - 2 * min_tau
    drops = sum(max(0, vals[i] - vals[i + 1]) for i in range(len(vals) - 1))
    rank_red = min_tau + drops
    module = shift_module(module_of_root(root), -Fraction(kr2s, 4))
    if module.rank_reduced() != rank_red:
        raise InvariantViolated(f"Cor-2.10 rank {rank_red} != module rank "
                                f"{module.rank_reduced()}")
    chi_hf = rank_red
    return ARReport(orbit=orbit, tau=t, root=root, module=module,
                    kr2s=Fraction(kr2s), d=d, min_tau=min_tau,
                    rank_red=rank_red, chi_hf=chi_hf,
                    sw_osz=chi_hf - d / 2)


def analyze_all(graph, classification=None):
    """Classification plus one report per spin^c orbit, in orbit order."""
    cls = classification or classify(graph)
    if not cls.is_ar():
        raise NotAR(cls.describe())
    return cls, [analyze_orbit(graph, orb, cls) for orb in enumerate_spinc(graph)]
