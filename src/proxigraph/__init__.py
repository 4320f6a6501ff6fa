"""Proximity structure on finite metric graphs.

Verification and solvers for cyclic maps between two tagged sides of a
finite metric space with a directed edge relation: gauge-controlled
contraction checks, best-proximity-point iteration, common fixed points of
alternating map pairs, and a periodic boundary-value solver driven by the
same contraction machinery.
"""
from __future__ import annotations

from .bpp_solver import (
    check_cardinality,
    check_equivalence_theorem,
    enumerate_bpps,
    iterate_orbit,
    solve_bpp,
    x_t2_a_set,
)
from .corpus import build
from .cyclic_contraction import (
    CyclicMapTable,
    GaugeSpec,
    eval_gauge,
    kappa,
    kappa_total,
    verify_g_cyclic_contraction,
    verify_gauge_classes,
    verify_t2_preserves_edges,
)
from .errors import (
    BetaNotContractive,
    ConditionIvViolated,
    EmptySide,
    EvaluationFailure,
    GaugeClassViolation,
    HypothesisViolated,
    InstanceFormatError,
    InvalidPsi,
    MonotonicityBroken,
    NoConvergence,
    NotLowerSolution,
    OutOfDomain,
    ParamOutOfRange,
    ProxigraphError,
    SeedNotEligible,
    SideMismatch,
    UnknownPoint,
)
from .fixed_point import (
    PairMaps,
    PsiGauge,
    apriori_bound,
    check_uniqueness_regime,
    psi_from_phi,
    solve_common_fixed_point,
    verify_g_psi_contraction,
)
from .metric_graph import (
    FiniteMetricGraph,
    check_property_star,
    component_of,
    components,
    has_property_uc,
    is_g_chebyshev,
    is_sharp_proximal,
    is_weakly_connected,
    pair_distance,
)
from .pbvp import (
    GridFunction,
    RhsFunction,
    TimeGrid,
    is_lower_solution,
    kernel_matrix,
    solve_common_pbvp,
    solve_pbvp,
    verify_condition_iv,
)

__version__ = "0.1.0"
