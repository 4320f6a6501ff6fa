"""Orbit iteration and best proximity point solvers for cyclic map tables.

A best proximity point of T on side A is an x in A with d(x, Tx) = d(A, B).
On finite instances the even orbit x, TTx, TTTTx, ... either becomes
stationary or cycles.  One orbit table per (space, map), built after the map
check and kept on the space, answers every seed of A at once: the image
array of T^2 is squared ceil(log2 |A|) times, which puts every seed on its
cycle, and a seed settles when that point is fixed by T^2; binary lifting
over the same powers gives its depth.  `solve_bpp` reads a seed that settles
within max_iter off the table, and `check_equivalence_theorem` reads clause
(b).  A trace must list its points, so `iterate_orbit` and the fixed-point
solver walk: one walk alternates two side tables, (T, T) for a cyclic map,
and stops at the first even-index point that repeats an earlier one.
`solve_bpp` walks only a seed the table does not settle, to name where it
stopped.

The cyclic theorems' gates are listed once, in order, in
`_check_theorem_hypotheses`; every solver, checker and the CLI runs them from
there, opt-out via check_hypotheses for falsification experiments.  They
read the table, which also keeps X_T2_A and, once they hold, that (*) on A
and UC do.  Every function that takes a map checks it against the space
before any gate; after the first call that check is a memo lookup, which
also returns the map's image array.
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


@dataclass(slots=True)
class _OrbitTable:
    """settle[i] is (depth, terminal id, d(terminal, T terminal)) if the point
    at position i is on A and its even orbit settles, else None.  deepest is
    the largest depth over A, inf if a seed does not settle; ends counts the
    points the seeds of A reach.  d_ab is None on a space without points."""

    d_ab: float | None
    x_t2_a: frozenset[str]
    settle: list
    deepest: float
    ends: int
    gates_hold: bool = False  # (*) on A and UC hold


def _orbits(space: FiniteMetricGraph, tmap: CyclicMapTable) -> _OrbitTable:
    """The orbit table of tmap on space, built once; a failed map check is
    not kept, as by `_cached`.  A warm table is one dict lookup."""
    key = ("orbits", tmap)
    try:
        return space._memo[key]
    except KeyError:
        pass
    image = tmap.validate(space)
    a, ia = space._sides["A"]
    # jumps[k] is T^2 taken 2^k times; T^2 keeps A, so after 2^k >= |A|
    # steps every seed is on its cycle
    jumps = [image[image]]
    while 1 << (len(jumps) - 1) < len(a):
        jumps.append(jumps[-1][jumps[-1]])
    end = jumps[-1][ia]
    settled = jumps[0][end] == end
    # take each jump that stays short of the terminal, then the last step
    at, depth = ia.copy(), ia * 0
    for k in range(len(jumps) - 1, -1, -1):
        to = jumps[k][at]
        short = to != end
        at[short] = to[short]
        depth += short << k
    depth += at != end
    settle = [None] * len(space.ids)
    gaps = space.dist[end, image[end]]
    for i, d, y, g in zip(*(v[settled].tolist() for v in (ia, depth, end, gaps))):
        settle[i] = (d, space.ids[y], g)
    table = space._memo[key] = _OrbitTable(
        pair_distance(space).d_ab if a else None,
        frozenset(compress(a, space._is_edge(ia, jumps[0][ia]).tolist())), settle,
        int(depth.max(initial=-1)) if settled.all() else float("inf"), len(set(end.tolist())))
    return table


def x_t2_a_set(space: FiniteMetricGraph, tmap: CyclicMapTable) -> frozenset[str]:
    """Points of A carrying an edge to their image under the squared map,
    each (x, T^2 x) looked up by the space's `_is_edge` at the map's image
    array; read from the orbit table."""
    return _orbits(space, tmap).x_t2_a


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
    d_ab = _orbits(space, tmap).d_ab
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
    orbits = _orbits(space, tmap)
    if not orbits.gates_hold:
        require("property (*) on side A", check_property_star(space, within=space.side_a()))
        require("property UC", has_property_uc(space))
        orbits.gates_hold = True
    if gauges is not None:
        require("cyclic contraction bound",
                verify_g_cyclic_contraction(space, tmap, *gauges, tol=tol))
    if x0 is not None and x0 not in orbits.x_t2_a:
        raise SeedNotEligible("seed in X_T2_A", x0)


def solve_bpp(space: FiniteMetricGraph, tmap: CyclicMapTable, x0: str,
              tol: float = TOL_BPP, max_iter: int = MAX_ITER,
              check_hypotheses: bool = True) -> BppResult:
    """Drive the even orbit of x0 to a stationary point realizing d(A, B).

    A seed that settles within max_iter squared-map steps is read off the
    orbit table; any other is walked, to name where its orbit stopped."""
    require_tol(tol)
    orbits = _orbits(space, tmap)
    if check_hypotheses:
        _check_theorem_hypotheses(space, tmap, x0)
    else:
        _seed_on_a(space, x0)
    settle = orbits.settle[space.index[x0]]
    if settle is None or settle[0] >= max_iter:
        # its repeat within max_iter steps, if any, is not a fixed point of T^2
        points, repeat = _walk((tmap.mapping, tmap.mapping), x0, 2 * max_iter)
        if repeat:
            raise NoConvergence(
                f"even orbit from {x0!r} entered a nontrivial cycle at {points[-1]!r}")
        raise NoConvergence(f"even orbit from {x0!r} did not settle in {max_iter} steps")
    iterations, y, gap = settle
    if abs(gap - orbits.d_ab) > tol:
        raise NoConvergence(
            f"even orbit settled at {y!r} with gap {gap}, but d(A,B) = {orbits.d_ab}")
    return BppResult(bpp=y, achieved_gap=gap, iterations=iterations,
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
    orbits = _orbits(space, tmap)
    if check_hypotheses:
        require("sharp proximal pair", is_sharp_proximal(space))
        _check_theorem_hypotheses(space, tmap, gauges=(phi1, phi2), tol=tol)

    clause_a = is_weakly_connected(space, within=space.side_a())
    # every seed settles within max_iter, all at one point; an empty A has none
    clause_b = orbits.ends == 1 and orbits.deepest < max_iter
    clause_c = len(enumerate_bpps(space, tmap, tol)) <= 1
    return EquivalenceReport(clause_a, clause_b, clause_c)
