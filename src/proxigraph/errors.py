"""Exception hierarchy shared across the package, and the solvers' shared
defaults with the checks on their tol and max_iter."""
from __future__ import annotations

import math
import numbers

# the default slack of the contraction sweep (TOL_INEQ) and of the graph
# solvers (TOL_BPP, TOL_FIX), and the floor of the pbvp pair's fixed-point test
TOL_SLACK = 1e-9
MAX_ITER = 10_000  # every solver's default iteration budget


class ProxigraphError(ValueError):
    """Base class for all package-specific failures.  slug names the failure in
    the CLI's violation document (exit 1); an InputError has none (exit 2)."""
    slug: str | None = "violation"


class InputError(ProxigraphError):
    """The input could not be loaded, parsed or accepted."""
    slug = None


class InstanceFormatError(InputError):
    """Instance, gauge, or map data is malformed or breaks a structural invariant."""


class UnknownField(InstanceFormatError, UserWarning):
    """A field or parameter name that nothing reads, issued as a warning."""


class UnknownPoint(InputError):
    """A referenced point id does not exist in the instance."""


class EmptySide(InputError):
    """An operation needs both sides of the pair to be nonempty."""


class SideMismatch(InputError):
    """A point is on the wrong side for the requested operation."""


class OutOfDomain(InputError):
    """Argument lies outside the mathematical domain of the function."""


class ParamOutOfRange(InputError):
    """A builder or solver parameter is outside its supported range."""


class GaugeClassViolation(ProxigraphError):
    """A gauge failed its declared monotonicity class on the sampled grid."""
    slug = "gauge_class_violation"


class HypothesisViolated(ProxigraphError):
    """A solver precondition failed.

    Carries the name of the failed predicate and a witness, so callers can
    report exactly which hypothesis broke.
    """
    slug = "hypothesis_violated"

    def __init__(self, predicate: str, witness=None):
        self.predicate = predicate
        self.witness = witness
        detail = f" (witness: {witness!r})" if witness is not None else ""
        super().__init__(f"hypothesis failed: {predicate}{detail}")


def require(predicate: str, verdict) -> None:
    """Raise HypothesisViolated(predicate, verdict.witness) unless verdict holds.
    A verdict is a CheckResult or a sweep report: true when it holds."""
    if not verdict:
        raise HypothesisViolated(predicate, verdict.witness)


def require_tol(tol: float) -> None:
    """Refuse a tolerance that is no real number, or is a bool, and a NaN
    one: every comparison against NaN is false, so a solver would accept or
    refuse every candidate without a word.  -inf stays allowed; a sweep run
    with it reports every pair it checks."""
    # a float needs no check against the abstract class, which costs 0.5 us
    if type(tol) is not float and (isinstance(tol, bool) or not isinstance(tol, numbers.Real)):
        raise ParamOutOfRange(f"tol must be a real number, got {tol!r}")
    if math.isnan(tol):
        raise ParamOutOfRange(f"tol must not be NaN, got {tol}")


def require_max_iter(max_iter) -> None:
    """Refuse a max_iter that is not an integer (has no __index__), or is a
    bool: it counts whole steps, and a float one reached range() only on
    some inputs.  An integer <= 0 stays allowed and allows no step."""
    if isinstance(max_iter, bool) or not hasattr(type(max_iter), "__index__"):
        raise ParamOutOfRange(f"max_iter must be an integer, got {max_iter!r}")


class SeedNotEligible(HypothesisViolated):
    """The starting point does not satisfy the seed condition of the solver."""


class NoConvergence(ProxigraphError):
    """Iteration stopped without reaching the requested tolerance."""
    slug = "no_convergence"


class EvaluationFailure(ProxigraphError):
    """A right-hand side produced a non-finite value at a grid node."""
    slug = "evaluation_failure"


class InvalidPsi(InputError):
    """A rate gauge left the half-open unit interval or lost monotonicity."""


class BetaNotContractive(ProxigraphError):
    """sup h / alpha reached 1, so the integral operator is not a contraction."""
    slug = "beta_not_contractive"


class NotLowerSolution(ProxigraphError):
    """The supplied starting profile is not a lower solution."""
    slug = "not_lower_solution"


class ConditionIvViolated(ProxigraphError):
    """The bound on the absolute shifted difference of two right-hand sides failed."""
    slug = "condition_iv_violated"

    def __init__(self, witness):
        self.witness = witness
        super().__init__("coupling condition (iv), |f1(t, s2) + alpha s2 - f2(t, s1) - alpha s1|"
                         f" <= h(t) (s2 - s1), failed at {witness!r}")


class MonotonicityBroken(ProxigraphError):
    """A Picard step lost the pointwise monotone ordering."""
    slug = "monotonicity_broken"
