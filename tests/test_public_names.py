"""The package's public names, pinned: adding or removing an export is an
edit of this list, made on purpose, not a side effect of another change."""
from __future__ import annotations

import __future__
from types import ModuleType

import proxigraph

PUBLIC = [
    "BetaNotContractive", "ConditionIvViolated", "CyclicMapTable", "EmptySide",
    "EvaluationFailure", "FiniteMetricGraph", "GaugeClassViolation", "GaugeSpec",
    "GridFunction", "HypothesisViolated", "InstanceFormatError", "InvalidPsi",
    "MonotonicityBroken", "NoConvergence", "NotLowerSolution", "OutOfDomain", "PairMaps",
    "ParamOutOfRange", "ProxigraphError", "PsiGauge", "RhsFunction", "SeedNotEligible",
    "SideMismatch", "TimeGrid", "UnknownPoint", "apriori_bound", "build",
    "check_cardinality", "check_equivalence_theorem", "check_property_star",
    "check_uniqueness_regime", "component_of", "components", "enumerate_bpps",
    "eval_gauge", "has_property_uc", "is_g_chebyshev", "is_lower_solution",
    "is_sharp_proximal", "is_weakly_connected", "iterate_orbit", "kappa", "kappa_total",
    "kernel_matrix", "pair_distance", "psi_from_phi", "solve_bpp",
    "solve_common_fixed_point", "solve_common_pbvp", "solve_pbvp", "verify_condition_iv",
    "verify_g_cyclic_contraction", "verify_g_psi_contraction", "verify_gauge_classes",
    "verify_t2_preserves_edges", "x_t2_a_set",
]


def test_the_public_names_are_pinned():
    # submodules join the namespace when anything imports them, and the
    # __future__ import is no export
    names = sorted(n for n, v in vars(proxigraph).items()
                   if not n.startswith("_") and not isinstance(v, ModuleType)
                   and v is not __future__.annotations)
    assert names == PUBLIC
