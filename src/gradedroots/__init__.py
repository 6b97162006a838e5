"""Exact invariants of negative-definite plumbed 3-manifolds.

From a plumbing tree this package computes, in exact arithmetic: graded
roots and their Z[U]-modules per spin^c structure, correction terms d,
Casson-Walker invariants, Dedekind sums, and Reidemeister-Turaev torsion
in the lens and Seifert closed forms, together with a brute-force
sublevel-set oracle that re-derives every graded root from its definition.
"""

from .plumbing import (PlumbingGraph, IntersectionForm, LatticeVector, DualVector,
                       CharElement, build_graph, graph_from_json,
                       canonical_class, chi_k, k_squared_plus_s,
                       casson_walker, blow_up, blow_down,
                       NotATree, NotNegativeDefinite, InvalidSite,
                       NotBlowDownable, ParityViolation, InvariantViolated)
from .roots import (GradedRoot, TauFunction, ZUModule, root_from_tau,
                    root_from_minima, module_of_root, rank_red_from_tau,
                    shift_root, dot_export, ray_root,
                    EmptyTau, ConditionViolated)
from .spinc import (HGroup, SpincOrbit, smith_normal_form, smith_decompose,
                    enumerate_spinc, distinguished_rep, m_k, NotIntegral)
from .engine import (Classification, ARReport, classify, fundamental_cycle,
                     x_sequence, tau, analyze_orbit, analyze_all, NotAR)
from .oracle import (SublevelComplex, enumerate_sublevel, root_oracle,
                     component_zero_structure, min_chi, LevelTooLarge)
from .lens import (LensSpace, SpincCoeffs, neg_cf, spinc_coeffs, dedekind_sum,
                   lens_invariants, verify_lens_sweep,
                   LensTable, NotCoprime, RangeError, LensIdentityError)
from .seifert import (SeifertData, SeifertSpinc, brieskorn,
                      enumerate_seifert_spinc, seifert_chi_lprime, seifert_k2s,
                      seifert_tau, dp_invariant, seifert_torsion_limit,
                      SeifertOrbit, seifert_orbit, verify_sw_identity, PositiveOrbifoldEuler, CountMismatch,
                      IdentityViolated)

__version__ = "0.1.0"
