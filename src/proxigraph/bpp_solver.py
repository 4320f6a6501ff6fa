"""Orbit iteration and best proximity point solvers for cyclic map tables.

A best proximity point of T on side A is an x in A with d(x, Tx) = d(A, B).
On finite instances the even orbit x, TTx, TTTTx, ... either becomes
stationary or cycles.  One walk follows every orbit here and in the
fixed-point solver: it alternates two side tables, (T, T) for a cyclic map,
and stops at the first even-index point that repeats an earlier one.  Each
solver reads its answer off that walk, and only the ones that report gaps
compute distances, each gap only until their stop test passes.

The cyclic theorems' gates are listed once, in order, in
`_check_theorem_hypotheses`; every solver, checker and the CLI runs them from
there, opt-out via check_hypotheses for falsification experiments.  Every
function that takes a map checks it against the space before any gate; after
the first call that check is a memo lookup, which also returns the map's
image array.  `enumerate_bpps` reads d(x, Tx) off the distance array at that
array, and the seed gate reads the X_T2_A set that `x_t2_a_set` keeps.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .cyclic_contraction import TOL_INEQ, CyclicMapTable, GaugeSpec, verify_g_cyclic_contraction
from .errors import NoConvergence, SeedNotEligible, SideMismatch, require, require_tol
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
    """Points of A carrying an edge to their image under the squared map,
    each (x, T^2 x) looked up by the space's `_is_edge` at the map's image
    array; kept on the space."""
    def points():
        image = tmap.validate(space)
        a, ia = space._sides["A"]
        return frozenset(compress(a, space._is_edge(ia, image[image[ia]]).tolist()))
    return space._cached(("x_t2_a", tmap), points)


def _walk(sides, x0: str, steps: int) -> tuple[list[str], bool]:
    """The orbit x0, t1 x0, t2 t1 x0, ... of sides = (t1, t2), t1 read at the
    even indices and t2 at the odd ones, for at most steps steps.  It stops
    early at the first even-index point that repeats an earlier one; returns
    the points and whether it stopped there."""
    t1, t2 = sides
    points, seen, y = [x0], {x0}, x0
    for _ in range(steps // 2):
        x = t1[y]
        y = t2[x]
        points += (x, y)
        if y in seen:
            return points, True
        seen.add(y)
    if steps > 0 and steps % 2:
        points.append(t1[y])
    return points, False


def _seed_on_a(space: FiniteMetricGraph, x0: str) -> None:
    """The one seed rule of every solver: x0 is a point of side A."""
    if "A" not in space.side.get(x0, ""):
        raise SideMismatch(f"the seed must lie on side A, got {x0!r}")


def iterate_orbit(space: FiniteMetricGraph, tmap: CyclicMapTable, x0: str,
                  max_iter: int = MAX_ITER, tol: float = TOL_BPP) -> OrbitTrace:
    """Follow the orbit until the gap reaches d(A, B), an even-orbit point
    repeats, or max_iter steps have been taken."""
    require_tol(tol)
    _seed_on_a(space, x0)
    tmap.validate(space)
    d_ab = pair_distance(space).d_ab
    points, repeat = _walk((tmap.mapping, tmap.mapping), x0, max_iter)
    gaps: list[float] = []
    for x, y in zip(points, points[1:]):
        gaps.append(space.d(x, y))
        if abs(gaps[-1] - d_ab) <= tol:
            return OrbitTrace(x0, tuple(points[:len(gaps) + 1]), tuple(gaps), "converged")
    if repeat:
        return OrbitTrace(x0, tuple(points), tuple(gaps), "cycle_detected",
                          tmap.twice(points[-1]) == points[-1])
    return OrbitTrace(x0, tuple(points), tuple(gaps), "max_iter")


def _check_theorem_hypotheses(space, tmap, x0=None, gauges=None, tol=TOL_INEQ):
    """In order: the seed's side if x0 is given, (*) on A, UC, the sweep of
    gauges = (phi1, phi2) at tol if given, and the seed in X_T2_A if x0 is."""
    if x0 is not None:
        _seed_on_a(space, x0)
    require("property (*) on side A", check_property_star(space, within=space.side_a()))
    require("property UC", has_property_uc(space))
    if gauges is not None:
        require("cyclic contraction bound",
                verify_g_cyclic_contraction(space, tmap, *gauges, tol=tol))
    if x0 is not None and x0 not in x_t2_a_set(space, tmap):
        raise SeedNotEligible("seed in X_T2_A", x0)


def solve_bpp(space: FiniteMetricGraph, tmap: CyclicMapTable, x0: str,
              tol: float = TOL_BPP, max_iter: int = MAX_ITER,
              check_hypotheses: bool = True) -> BppResult:
    """Drive the even orbit of x0 to a stationary point realizing d(A, B)."""
    require_tol(tol)
    tmap.validate(space)
    if check_hypotheses:
        _check_theorem_hypotheses(space, tmap, x0)
    else:
        _seed_on_a(space, x0)
    d_ab = pair_distance(space).d_ab
    # max_iter squared-map steps; the orbit settles at y when its repeat is T^2 y = y
    points, repeat = _walk((tmap.mapping, tmap.mapping), x0, 2 * max_iter)
    if not repeat:
        raise NoConvergence(f"even orbit from {x0!r} did not settle in {max_iter} steps")
    y, ty = points[-3:-1]
    if y != points[-1]:
        raise NoConvergence(
            f"even orbit from {x0!r} entered a nontrivial cycle at {points[-1]!r}")
    gap = space.d(y, ty)
    if abs(gap - d_ab) > tol:
        raise NoConvergence(
            f"even orbit settled at {y!r} with gap {gap}, but d(A,B) = {d_ab}")
    return BppResult(bpp=y, achieved_gap=gap, iterations=(len(points) - 3) // 2,
                     component=component_of(space, x0))


def enumerate_bpps(space: FiniteMetricGraph, tmap: CyclicMapTable,
                   tol: float = TOL_BPP) -> frozenset[str]:
    """All best proximity points on side A, by exhaustive scan."""
    require_tol(tol)
    image = tmap.validate(space)
    a, ia = space._sides["A"]
    excess = space.dist[ia, image[ia]] - pair_distance(space).d_ab  # d(x, Tx) - d(A,B)
    return frozenset(compress(a, (abs(excess) <= tol).tolist()))


def check_cardinality(space: FiniteMetricGraph, tmap: CyclicMapTable,
                      tol: float = TOL_BPP,
                      check_hypotheses: bool = True) -> tuple[int, int, bool]:
    """Compare |BPP set| with the number of weak components meeting side A."""
    require_tol(tol)
    tmap.validate(space)
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
    falsification event for the equivalence.  The sharp proximal gate runs
    first and implies UC, so the shared gate list's UC check never fails here.
    """
    require_tol(tol)
    tmap.validate(space)
    if check_hypotheses:
        require("sharp proximal pair", is_sharp_proximal(space))
        _check_theorem_hypotheses(space, tmap, gauges=(phi1, phi2), tol=tol)

    a_nodes = space.side_a()
    clause_a = is_weakly_connected(space, within=a_nodes)

    terminals = set()
    merged = True
    for x in a_nodes:
        points, repeat = _walk((tmap.mapping, tmap.mapping), x, 2 * max_iter)
        if not repeat or points[-3] != points[-1]:  # unsettled, as in solve_bpp
            merged = False
            break
        terminals.add(points[-1])
    clause_b = merged and len(terminals) == 1

    clause_c = len(enumerate_bpps(space, tmap, tol)) <= 1
    return EquivalenceReport(clause_a, clause_b, clause_c)
