"""The one orbit walk, against the three loops it replaced.

`iterate_orbit`, `solve_bpp`, `check_equivalence_theorem` and
`solve_common_fixed_point` read their answers off one walk.  Each of the
loops they used to run, each with its own repeat detection, is kept here as a
reference oracle, and the solvers are compared with them on random small
spaces: every A seed, max_iter 1 to 8 and three tolerances.
"""
from __future__ import annotations

import re

import numpy as np
import pytest

from proxigraph import (
    CyclicMapTable,
    FiniteMetricGraph,
    GaugeSpec,
    NoConvergence,
    PairMaps,
    PsiGauge,
    check_cardinality,
    check_equivalence_theorem,
    component_of,
    enumerate_bpps,
    is_weakly_connected,
    iterate_orbit,
    pair_distance,
    solve_bpp,
    solve_common_fixed_point,
    verify_t2_preserves_edges,
    x_t2_a_set,
)
from proxigraph.bpp_solver import BppResult, EquivalenceReport, OrbitTrace
from proxigraph.errors import InstanceFormatError

# ----- the loops the walk replaced ----------------------------------------


def oracle_iterate_orbit(space, tmap, x0, max_iter, tol) -> OrbitTrace:
    d_ab = pair_distance(space).d_ab
    points = [x0]
    gaps: list[float] = []
    seen_even = {x0}
    reason = "max_iter"
    cycle_fixed = None
    for _ in range(max_iter):
        nxt = tmap(points[-1])
        gaps.append(space.d(points[-1], nxt))
        points.append(nxt)
        if abs(gaps[-1] - d_ab) <= tol:
            reason = "converged"
            break
        if len(points) % 2 == 1:
            if nxt in seen_even:
                reason = "cycle_detected"
                cycle_fixed = tmap.twice(nxt) == nxt
                break
            seen_even.add(nxt)
    return OrbitTrace(x0=x0, points=tuple(points), gaps=tuple(gaps),
                      stop_reason=reason, cycle_is_t2_fixed=cycle_fixed)


def oracle_t2_walk(tmap, x0, max_iter) -> tuple[str, int, str]:
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


def oracle_solve_bpp(space, tmap, x0, tol, max_iter) -> BppResult:
    d_ab = pair_distance(space).d_ab
    y, iterations, stop = oracle_t2_walk(tmap, x0, max_iter)
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


def oracle_equivalence(space, tmap, tol, max_iter) -> EquivalenceReport:
    a_nodes = space.side_a()
    terminals = set()
    merged = True
    for x in a_nodes:
        t, _, stop = oracle_t2_walk(tmap, x, max_iter)
        if stop != "settled":
            merged = False
            break
        terminals.add(t)
    return EquivalenceReport(is_weakly_connected(space, within=a_nodes),
                             merged and len(terminals) == 1,
                             len(enumerate_bpps(space, tmap, tol)) <= 1)


def oracle_fixed_point(space, pair, x0, tol, max_iter) -> tuple[str, OrbitTrace]:
    points = [x0]
    gaps: list[float] = []
    seen_even = {x0}
    reason = "max_iter"
    for _ in range(max_iter):
        cur = points[-1]
        on_a = len(points) % 2 == 1
        nxt = (pair.t1 if on_a else pair.t2)[cur]
        gap = space.d(cur, nxt)
        if on_a and max(gap, space.d(cur, pair.t2[nxt])) <= tol:
            reason = "converged"
            break
        gaps.append(gap)
        points.append(nxt)
        if len(points) % 2 == 1:
            if points[-1] in seen_even:
                reason = "cycle_detected"
                break
            seen_even.add(points[-1])
    trace = OrbitTrace(x0=x0, points=tuple(points), gaps=tuple(gaps),
                       stop_reason=reason,
                       cycle_is_t2_fixed=(reason == "converged") or None)
    if reason != "converged":
        raise NoConvergence(f"alternating orbit from {x0!r} stopped with {reason}")
    return points[-1], trace


# ----- random small instances ---------------------------------------------


def random_instance(rng):
    """A 2 to 8 point l1 space on a grid of quarters, so that gaps tie with
    d(A, B) and differ from it by less than 0.5; random edges and loops; a
    random cyclic map and a random pair of maps on it."""
    n = int(rng.integers(2, 9))
    sides = ["A", "B"] + list(rng.choice(["A", "B", "AB"], size=n - 2, p=[0.4, 0.4, 0.2]))
    rng.shuffle(sides)
    ids = [f"p{i}" for i in range(n)]
    pts = [(p, tuple(rng.integers(0, 9, size=2) / 4), s) for p, s in zip(ids, sides)]
    edges = [(x, y) for x in ids for y in ids if rng.random() < 0.4]
    space = FiniteMetricGraph.from_coords(pts, metric="l1", edges=edges)
    on = {s: [p for p, q in zip(ids, sides) if s in q] for s in "AB"}
    both = [p for p, q in zip(ids, sides) if q == "AB"]

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    # an AB point is a source on both sides, so T sends it to an AB point
    tmap = CyclicMapTable.for_space(space, {
        p: pick(both if s == "AB" else on["B" if s == "A" else "A"])
        for p, s in zip(ids, sides)})
    pair = PairMaps.for_space(space, {p: pick(on["B"]) for p in on["A"]},
                              {p: pick(on["A"]) for p in on["B"]})
    return space, tmap, pair


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except NoConvergence as exc:
        return type(exc), str(exc)


PHI = GaugeSpec("linear", {"c": 0.5})
PSI = PsiGauge.constant(0.5)
TOLS = (0.0, 1e-9, 0.5)


def test_one_walk_answers_as_the_three_loops_did():
    rng = np.random.default_rng(2024)
    cases = 0
    seen = set()
    while cases < 100_000:
        space, tmap, pair = random_instance(rng)
        for max_iter in range(1, 9):
            for tol in TOLS:
                rep = check_equivalence_theorem(space, tmap, PHI, PHI, tol=tol,
                                                max_iter=max_iter, check_hypotheses=False)
                assert rep == oracle_equivalence(space, tmap, tol, max_iter)
                cases += 1
                for x0 in space.side_a():
                    got = iterate_orbit(space, tmap, x0, max_iter=max_iter, tol=tol)
                    assert got == oracle_iterate_orbit(space, tmap, x0, max_iter, tol)
                    seen.add(("orbit", got.stop_reason, got.cycle_is_t2_fixed))
                    got = outcome(lambda: solve_bpp(space, tmap, x0, tol=tol, max_iter=max_iter,
                                                    check_hypotheses=False))
                    assert got == outcome(lambda: oracle_solve_bpp(space, tmap, x0, tol, max_iter))
                    seen.add(("bpp", re.search("did not settle|nontrivial cycle|settled at",
                                               got[1]).group()
                              if isinstance(got, tuple) else "solved"))
                    got = outcome(lambda: solve_common_fixed_point(
                        space, pair, PSI, x0, tol=tol, max_iter=max_iter, check_hypotheses=False))
                    assert got == outcome(lambda: oracle_fixed_point(space, pair, x0, tol, max_iter))
                    seen.add(("fixed", got[1].split()[-1] if got[0] is NoConvergence else "solved"))
                    cases += 3
    # every way each walk can end was met
    assert seen >= {("orbit", "converged", None), ("orbit", "max_iter", None),
                    ("orbit", "cycle_detected", True), ("orbit", "cycle_detected", False),
                    ("bpp", "solved"), ("bpp", "did not settle"), ("bpp", "nontrivial cycle"),
                    ("bpp", "settled at"),
                    ("fixed", "solved"), ("fixed", "max_iter"), ("fixed", "cycle_detected")}


# ----- every function that takes a map checks it first --------------------

MAP_TAKERS = {
    "iterate_orbit": lambda sp, tm: iterate_orbit(sp, tm, "a"),
    "solve_bpp": lambda sp, tm: solve_bpp(sp, tm, "a", check_hypotheses=False),
    "enumerate_bpps": enumerate_bpps,
    "x_t2_a_set": x_t2_a_set,
    "check_cardinality": lambda sp, tm: check_cardinality(sp, tm, check_hypotheses=False),
    "verify_t2_preserves_edges": verify_t2_preserves_edges,
    "check_equivalence_theorem": lambda sp, tm: check_equivalence_theorem(
        sp, tm, PHI, PHI, check_hypotheses=False),
}


@pytest.mark.parametrize("call", MAP_TAKERS.values(), ids=MAP_TAKERS.keys())
def test_a_partial_map_is_refused_by_every_function_that_takes_one(call):
    space = FiniteMetricGraph.from_coords(
        [("a", (0.0,), "A"), ("b", (1.0,), "B"), ("c", (2.0,), "A")],
        metric="l1", auto_loops=True)
    with pytest.raises(InstanceFormatError, match="T is not total on A: missing 'c'"):
        call(space, CyclicMapTable({"a": "b", "b": "c"}))
