"""Exception hierarchy shared across the package."""
from __future__ import annotations

import math


class ProxigraphError(ValueError):
    """Base class for all package-specific failures."""


class InstanceFormatError(ProxigraphError):
    """Instance, gauge, or map data is malformed or breaks a structural invariant."""


class UnknownPoint(ProxigraphError):
    """A referenced point id does not exist in the instance."""


class EmptySide(ProxigraphError):
    """An operation needs both sides of the pair to be nonempty."""


class SideMismatch(ProxigraphError):
    """A point is on the wrong side for the requested operation."""


class OutOfDomain(ProxigraphError):
    """Argument lies outside the mathematical domain of the function."""


class ParamOutOfRange(ProxigraphError):
    """A builder or solver parameter is outside its supported range."""


class GaugeClassViolation(ProxigraphError):
    """A gauge failed its declared monotonicity class on the sampled grid."""


class HypothesisViolated(ProxigraphError):
    """A solver precondition failed.

    Carries the name of the failed predicate and a witness, so callers can
    report exactly which hypothesis broke.
    """

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
    """Refuse a NaN tolerance: every comparison against NaN is false, so a
    solver would accept or refuse every candidate without a word.  -inf stays
    allowed; a sweep run with it reports every pair it checks."""
    if math.isnan(tol):
        raise ParamOutOfRange(f"tol must not be NaN, got {tol}")


class SeedNotEligible(HypothesisViolated):
    """The starting point does not satisfy the seed condition of the solver."""


class NoConvergence(ProxigraphError):
    """Iteration stopped without reaching the requested tolerance."""


class EvaluationFailure(ProxigraphError):
    """A right-hand side produced a non-finite value at a grid node."""


class InvalidPsi(ProxigraphError):
    """A rate gauge left the half-open unit interval or lost monotonicity."""


class BetaNotContractive(ProxigraphError):
    """sup h / alpha reached 1, so the integral operator is not a contraction."""


class NotLowerSolution(ProxigraphError):
    """The supplied starting profile is not a lower solution."""


class ConditionIvViolated(ProxigraphError):
    """The one-sided coupling inequality between the two right-hand sides failed."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"one-sided coupling condition failed at {witness!r}")


class MonotonicityBroken(ProxigraphError):
    """A Picard step lost the pointwise monotone ordering."""
