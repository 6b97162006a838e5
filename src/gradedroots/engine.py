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

a quantity computable exactly from the integer adjugate, since all entries
of B^{-1} are <= 0.
Past I* the sequence tau is nondecreasing, so tau(0..I*) determines the
root completely; every report is therefore certified, for star-shaped and
general AR graphs alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .plumbing import InvariantViolated, LatticeVector, laufer_ascent
from .roots import (TauFunction, descent_prefix, module_of_root, root_from_tau,
                    tau_invariants)
from .spinc import SpincOrbit, _orbit_from, enumerate_spinc

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
# fundamental cycle and classification


def _fundamental_cycle(e, adjacency):
    """Laufer's algorithm from x = b_0 on the tree with Euler numbers e:
    the fundamental cycle x and its pairing vector B x."""
    x = [0] * len(e)
    x[0] = 1
    pair = [0] * len(e)
    pair[0] = e[0]
    for nb in adjacency[0]:
        pair[nb] = 1
    laufer_ascent(e, adjacency, x, pair)
    return x, pair


def _chi_canonical(e, x, pair):
    """chi_K(x) = -(K(x) + (x, x)) / 2 with K(b_j) = -e_j - 2, from the
    pairing vector B x."""
    return -sum(xj * (pj - ej - 2) for xj, pj, ej in zip(x, pair, e)) // 2


def fundamental_cycle(graph):
    """Artin's fundamental cycle: the least x > 0 with (x, b_j) <= 0 for
    all j, by Laufer's algorithm from x = b_0 (the endpoint is the same
    from any starting basis vector)."""
    return LatticeVector(_fundamental_cycle(graph.e, graph.adjacency)[0])


def classify(graph, max_decrements=DEFAULT_AR_DECREMENT_CAP):
    """Rational / weakly elliptic / AR / not certified, tested in that
    order: rational iff chi(x_min) = 1, weakly elliptic iff chi(x_min) = 0
    (with the elliptic length, the rank_red of the canonical orbit's tau,
    from the closed form of :func:`roots.tau_invariants`), else AR when
    some vertex's decoration can be decreased to a rational graph.  For
    each candidate j0 the decoration drops until the fundamental cycle has
    coefficient 1 at j0; a single rationality test there decides (pushing
    lower cannot change the answer, since the rational class is closed
    under decreasing Euler numbers).  'not-ar-certified' carries the cap."""
    adj = graph.adjacency
    e = list(graph.e)
    cxm = _chi_canonical(e, *_fundamental_cycle(e, adj))
    if cxm == 1:
        return Classification(kind="rational", j0=0, e_prime=graph.e[0])
    for j0 in range(graph.s):
        for e_mod in range(graph.e[j0], graph.e[j0] - max_decrements - 1, -1):
            e[j0] = e_mod
            xm, pair = _fundamental_cycle(e, adj)
            if xm[j0] == 1:
                if _chi_canonical(e, xm, pair) == 1:
                    if cxm != 0:
                        return Classification(kind="almost-rational", j0=j0, e_prime=e_mod)
                    t = tau(graph, j0, canonical_orbit_data(graph))
                    return Classification(kind="weakly-elliptic", j0=j0, e_prime=e_mod,
                                          l=tau_invariants(t.values, 0)[1])
                break
        e[j0] = graph.e[j0]
    return Classification(kind="not-ar-certified", bound=max_decrements)


def canonical_orbit_data(graph):
    """The canonical orbit [K] as a SpincOrbit (l'_[K] = 0)."""
    return _orbit_from(graph, [0] * graph.s)


# ---------------------------------------------------------------------------
# the computation sequence and tau


def certified_stop_index(graph, j0, orbit):
    """Smallest certified I such that tau is nondecreasing from I on.

    Maximizes the b_{j0}-coordinate over the pairing box of Y (see module
    docstring): all rows of B^{-1} = -A / |det B| are <= 0, so the maximum
    sits at the lower pairing corner (e_j - k_r(b_j)) / 2."""
    row = graph.form.adjugate_neg[j0]
    num = -sum(a * (ej - cj) for a, ej, cj in zip(row, graph.e, orbit.k_r.pairings))
    return max(0, num // (2 * graph.form.order))


def x_sequence(graph, j0, orbit, i_max):
    """The cycles x(0), ..., x(i_max) for the distinguished vertex j0.

    x(0) is the Laufer ascent from 0 over J* = J - {j0}; each successor is
    the ascent from x(i) + b_0.  Every x(i) is effective with coefficient
    exactly i at j0."""
    return [LatticeVector(x)
            for x, _ in itertools.islice(_sequence_iter(graph, j0, orbit), i_max + 1)]


def _sequence_iter(graph, j0, orbit):
    """Yield (x(i), (x(i) + l'_[k], b_j0)) for i = 0, 1, ...; x(i) is one
    list, advanced in place after each yield."""
    e, adj = graph.e, graph.adjacency
    x = [0] * graph.s
    pair = list(orbit.pairings)
    while True:
        laufer_ascent(e, adj, x, pair, skip=j0)
        yield x, pair[j0]
        x[j0] += 1
        pair[j0] += e[j0]
        for nb in adj[j0]:
            pair[nb] += 1


def tau(graph, j0, orbit):
    """tau(i) = chi_{k_r}(x(i)), computed up to the certified
    stabilization index.

    Increments follow tau(i+1) - tau(i) = 1 - (x(i) + l'_[k], b_0)."""
    stop = certified_stop_index(graph, j0, orbit)
    vals = [0]
    for _, p0 in itertools.islice(_sequence_iter(graph, j0, orbit), stop):
        vals.append(vals[-1] + 1 - p0)
    return TauFunction(values=tuple(vals), certified=True)


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

    def to_json(self, l_prime):
        """The JSON record, with l'_[k] given as its ratio strings
        (:func:`spinc.l_prime_strings` formats a whole graph at once)."""
        from .roots import _fmt_q
        return {"orbit": self.orbit.orbit_index,
                "l_prime": l_prime,
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
    degree -d(M, [k]).  The root is built from tau up to one past its last
    strict descent (:func:`roots.descent_prefix`), the same certified
    root; the report keeps the whole tau."""
    cls = classification or classify(graph)
    if not cls.is_ar():
        raise NotAR(cls.describe())
    t = tau(graph, cls.j0, orbit)
    root = root_from_tau(descent_prefix(t.values))
    kr2s = orbit.kr2s
    min_tau, rank_red, d = tau_invariants(t.values, kr2s)
    module = module_of_root(root).shifted(-Fraction(kr2s, 4))
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
