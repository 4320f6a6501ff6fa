"""Orbit iteration and best proximity point solvers for cyclic map tables.

A best proximity point of T on side A is an x in A with d(x, Tx) = d(A, B).
On finite instances the even orbit x, TTx, TTTTx, ... either becomes
stationary or cycles; the solvers detect both.

Hypothesis pre-checks (edge transitivity on A, the uniqueness surrogate, seed
eligibility) are opt-out via check_hypotheses so falsification experiments can
run on non-conforming instances.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cyclic_contraction import CyclicMapTable, GaugeSpec, verify_g_cyclic_contraction
from .errors import NoConvergence, SeedNotEligible, SideMismatch, require
from .metric_graph import (
    FiniteMetricGraph,
    check_property_star,
    component_of,
    has_property_uc,
    is_sharp_proximal,
    is_weakly_connected,
    pair_distance,
)

TOL_BPP = 1e-9
MAX_ITER = 10_000


@dataclass(frozen=True)
class OrbitTrace:
    """Recorded forward orbit x0, Tx0, TTx0, ... with consecutive gaps."""

    x0: str
    points: tuple[str, ...]
    gaps: tuple[float, ...]
    stop_reason: str  # converged | max_iter | cycle_detected
    cycle_is_t2_fixed: bool | None = None


@dataclass(frozen=True)
class BppResult:
    bpp: str
    achieved_gap: float
    iterations: int
    component: frozenset[str]


def x_t2_a_set(space: FiniteMetricGraph, tmap: CyclicMapTable) -> frozenset[str]:
    """Points of A carrying an edge to their image under the squared map."""
    return frozenset(x for x in space.side_a()
                     if space.has_edge(x, tmap.twice(x)))


def iterate_orbit(space: FiniteMetricGraph, tmap: CyclicMapTable, x0: str,
                  max_iter: int = MAX_ITER, tol: float = TOL_BPP) -> OrbitTrace:
    """Follow the orbit until the gap reaches d(A, B), an even-orbit point
    repeats, or max_iter steps have been taken."""
    if "A" not in space.side.get(x0, ""):
        raise SideMismatch(f"orbit must start on side A, got {x0!r}")
    d_ab = pair_distance(space).d_ab
    points = [x0]
    gaps: list[float] = []
    seen_even = {x0}
    reason = "max_iter"
    cycle_fixed = None
    for n in range(max_iter):
        nxt = tmap(points[-1])
        gaps.append(space.d(points[-1], nxt))
        points.append(nxt)
        if abs(gaps[-1] - d_ab) <= tol:
            reason = "converged"
            break
        if len(points) % 2 == 1:  # even index n+1: points[2k]
            if nxt in seen_even:
                reason = "cycle_detected"
                cycle_fixed = tmap.twice(nxt) == nxt
                break
            seen_even.add(nxt)
    return OrbitTrace(x0=x0, points=tuple(points), gaps=tuple(gaps),
                      stop_reason=reason, cycle_is_t2_fixed=cycle_fixed)


def _check_theorem_hypotheses(space, tmap, x0=None):
    require("property (*) on side A", check_property_star(space, within=space.side_a()))
    require("property UC", has_property_uc(space))
    # x0 sits on side A (the callers check), so it lies in X_T2_A exactly
    # when it carries an edge to its image under the squared map
    if x0 is not None:
        if not space.has_edge(x0, tmap.twice(x0)):
            raise SeedNotEligible("seed in X_T2_A", x0)


def _t2_walk(tmap: CyclicMapTable, x0: str, max_iter: int) -> tuple[str, int, str]:
    """Walk x0, T^2 x0, T^4 x0, ... until it stops; returns (point, steps, stop).

    stop is "settled" when point is a fixed point of T^2, reached in steps
    steps; "cycle" when point is the first repeat of a nontrivial cycle; and
    "max_iter" when max_iter steps ran out.
    """
    y, seen = x0, {x0}
    for steps in range(max_iter):
        z = tmap.twice(y)
        if z == y:
            return y, steps, "settled"
        if z in seen:
            return z, steps + 1, "cycle"
        seen.add(z)
        y = z
    return y, max_iter, "max_iter"


def solve_bpp(space: FiniteMetricGraph, tmap: CyclicMapTable, x0: str,
              tol: float = TOL_BPP, max_iter: int = MAX_ITER,
              check_hypotheses: bool = True) -> BppResult:
    """Drive the even orbit of x0 to a stationary point realizing d(A, B)."""
    if "A" not in space.side.get(x0, ""):
        raise SideMismatch(f"solve_bpp needs a seed on side A, got {x0!r}")
    tmap.validate(space)
    if check_hypotheses:
        _check_theorem_hypotheses(space, tmap, x0)
    d_ab = pair_distance(space).d_ab
    y, iterations, stop = _t2_walk(tmap, x0, max_iter)
    if stop == "cycle":
        raise NoConvergence(f"even orbit from {x0!r} entered a nontrivial cycle at {y!r}")
    if stop == "max_iter":
        raise NoConvergence(f"even orbit from {x0!r} did not settle in {max_iter} steps")
    gap = space.d(y, tmap(y))
    if abs(gap - d_ab) > tol:
        raise NoConvergence(
            f"even orbit settled at {y!r} with gap {gap}, but d(A,B) = {d_ab}")
    return BppResult(bpp=y, achieved_gap=gap, iterations=iterations,
                     component=component_of(space, x0))


def enumerate_bpps(space: FiniteMetricGraph, tmap: CyclicMapTable,
                   tol: float = TOL_BPP) -> frozenset[str]:
    """All best proximity points on side A, by exhaustive scan."""
    d_ab = pair_distance(space).d_ab
    return frozenset(x for x in space.side_a()
                     if abs(space.d(x, tmap(x)) - d_ab) <= tol)


def check_cardinality(space: FiniteMetricGraph, tmap: CyclicMapTable,
                      tol: float = TOL_BPP,
                      check_hypotheses: bool = True) -> tuple[int, int, bool]:
    """Compare |BPP set| with the number of weak components meeting side A."""
    if check_hypotheses:
        _check_theorem_hypotheses(space, tmap)
    bpps = enumerate_bpps(space, tmap, tol)
    classes = {component_of(space, x) for x in space.side_a()}
    return len(bpps), len(classes), len(bpps) == len(classes)


@dataclass(frozen=True)
class EquivalenceReport:
    weakly_connected_a: bool
    orbits_merge: bool
    at_most_one_bpp: bool

    @property
    def consistent(self) -> bool:
        return self.weakly_connected_a == self.orbits_merge == self.at_most_one_bpp


def check_equivalence_theorem(space: FiniteMetricGraph, tmap: CyclicMapTable,
                              phi1: GaugeSpec, phi2: GaugeSpec,
                              tol: float = TOL_BPP,
                              max_iter: int = MAX_ITER,
                              check_hypotheses: bool = True) -> EquivalenceReport:
    """Evaluate the three equivalent clauses on one instance.

    (a) side A is weakly connected in the induced graph;
    (b) every even orbit settles, and all terminals coincide;
    (c) there is at most one best proximity point on A.

    A report with disagreeing clauses on a hypothesis-passing instance is a
    falsification event for the equivalence.
    """
    if check_hypotheses:
        require("sharp proximal pair", is_sharp_proximal(space))
        _check_theorem_hypotheses(space, tmap, x0=None)
        require("cyclic contraction bound",
                verify_g_cyclic_contraction(space, tmap, phi1, phi2, tol=tol))

    a_nodes = space.side_a()
    clause_a = is_weakly_connected(space, within=a_nodes)

    terminals = set()
    merged = True
    for x in a_nodes:
        t, _, stop = _t2_walk(tmap, x, max_iter)
        if stop != "settled":
            merged = False
            break
        terminals.add(t)
    clause_b = merged and len(terminals) == 1

    clause_c = len(enumerate_bpps(space, tmap, tol)) <= 1
    return EquivalenceReport(clause_a, clause_b, clause_c)
