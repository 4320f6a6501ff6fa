"""The one orbit walk and the orbit table, against the loops they replaced.

`iterate_orbit` and `solve_common_fixed_point` read their answers off one
walk; `solve_bpp` and `check_equivalence_theorem` read theirs off the orbit
table of each map, and `solve_bpp` walks only a seed the table does not
settle.  Each of the loops they used to run, each with its own repeat
detection, is kept here as a reference oracle, and the solvers are compared
with them on random small spaces (every A seed, max_iter 1 to 8 and three
tolerances), on drawn squared maps with tails of hundreds of steps, and on a
2000-step chain.  The last tests count the walks each solver takes.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxigraph import (
    CyclicMapTable,
    FiniteMetricGraph,
    GaugeSpec,
    NoConvergence,
    PairMaps,
    PsiGauge,
    bpp_solver,
    build,
    check_cardinality,
    check_equivalence_theorem,
    cli,
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
from proxigraph.bpp_solver import MAX_ITER, BppResult, EquivalenceReport, OrbitTrace
from proxigraph.errors import InstanceFormatError

# ----- the loops the walk replaced ----------------------------------------


def oracle_iterate_orbit(space, tmap, x0, max_iter, tol) -> OrbitTrace:
    d_ab = pair_distance(space)
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
    d_ab = pair_distance(space)
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


# ----- the orbit table at scale ---------------------------------------------


def squared_map_space(target, heights, extra_b, edge_rate, off_rate, rng):
    """A two-line l1 space whose map squares to target on A.

    a_i sits at (0, heights[i]) and T a_i = b_{target[i]}, one B point per
    distinct target, at the height of its target or, with probability
    off_rate, one above; T b_v = a_v, so T^2 a_i = a_{target[i]}.  extra_b
    more B points map to random A points, and each edge a_i -> a_{target[i]}
    is kept with probability edge_rate."""
    n = len(target)
    pts = [(f"a{i}", (0.0, float(heights[i])), "A") for i in range(n)]
    mapping = {f"a{i}": f"b{t}" for i, t in enumerate(target)}
    for v in sorted(set(target)):
        pts.append((f"b{v}", (1.0, heights[v] + float(rng.random() < off_rate)), "B"))
        mapping[f"b{v}"] = f"a{v}"
    for k in range(extra_b):
        pts.append((f"b{n + k}", (1.0, float(rng.integers(0, 8))), "B"))
        mapping[f"b{n + k}"] = f"a{int(rng.integers(n))}"
    edges = [(f"a{i}", f"a{t}") for i, t in enumerate(target) if rng.random() < edge_rate]
    space = FiniteMetricGraph.from_coords(pts, metric="l1", edges=edges)
    return space, CyclicMapTable.for_space(space, mapping)


@st.composite
def functional_graphs(draw):
    """A cyclic map whose squared map on A is a drawn functional graph: one to
    three cycles of length 1 to 5, one tail of up to 300 steps into them, and
    up to 60 more points hung on earlier ones; A in shuffled order.  Returns
    the space, the map and each A id's depth, its T^2 steps to its cycle."""
    cycles = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    tail, extra = draw(st.integers(0, 300)), draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    target, depth = [], []
    for c in cycles:
        k = len(target)
        target += [k + (i + 1) % c for i in range(c)]
        depth += [0] * c
    for j in range(tail + extra):
        # the tail hangs on the last point; every later point on any earlier one
        on = len(target) - 1 if 0 < j < tail else int(rng.integers(len(target)))
        target.append(on)
        depth.append(depth[on] + 1)
    order = rng.permutation(len(target))  # order[i] is the name of point i
    named = [0] * len(target)
    for i, t in enumerate(target):
        named[order[i]] = int(order[t])
    heights = rng.integers(0, draw(st.integers(1, 8)), size=len(target))
    space, tmap = squared_map_space(named, heights, draw(st.integers(0, 20)),
                                    draw(st.sampled_from((0.0, 0.5, 1.0))),
                                    draw(st.sampled_from((0.0, 0.3))), rng)
    return space, tmap, {f"a{int(order[i])}": d for i, d in enumerate(depth)}


def answers_as_the_loops_do(space, tmap, depth, seeds, tol, below):
    """solve_bpp from each seed, and check_equivalence_theorem, against the
    walk oracles at max_iter below (<= 0), 1, the depth, one more and the
    default; the equivalence at the deepest depth."""
    deepest = max(depth.values())
    for max_iter in (below, 1, deepest, deepest + 1, MAX_ITER):
        got = check_equivalence_theorem(space, tmap, PHI, PHI, tol=tol, max_iter=max_iter,
                                        check_hypotheses=False)
        assert got == oracle_equivalence(space, tmap, tol, max_iter)
    for x0 in seeds:
        for max_iter in (below, 1, depth[x0], depth[x0] + 1, MAX_ITER):
            got = outcome(lambda: solve_bpp(space, tmap, x0, tol=tol, max_iter=max_iter,
                                            check_hypotheses=False))
            assert got == outcome(lambda: oracle_solve_bpp(space, tmap, x0, tol, max_iter))


@given(functional_graphs(), st.sampled_from(TOLS), st.integers(-2, 0), st.data())
@settings(max_examples=25, deadline=None)
def test_the_orbit_table_answers_as_the_loops_do(graph, tol, below, data):
    space, tmap, depth = graph
    deepest = max(depth, key=lambda x: (depth[x], x))
    drawn = data.draw(st.lists(st.sampled_from(space.side_a()), max_size=3))
    answers_as_the_loops_do(space, tmap, depth, [deepest, *drawn], tol, below)
    assert x_t2_a_set(space, tmap) == {x for x in space.side_a()
                                       if (x, tmap.twice(x)) in space.edges}


def test_the_long_chain_answers_as_the_loops_do():
    # T^2 a_i = a_{i+1} up to a1999, which T^2 fixes: the seed a0, first on A,
    # is 1999 steps deep
    n = 2000
    rng = np.random.default_rng(5)
    space, tmap = squared_map_space([min(i + 1, n - 1) for i in range(n)], np.arange(n), 0,
                                    1.0, 0.0, rng)
    depth = {f"a{i}": n - 1 - i for i in range(n)}
    answers_as_the_loops_do(space, tmap, depth, ["a0", "a1000", "a1999"], 0.0, 0)
    assert solve_bpp(space, tmap, "a0", check_hypotheses=False) == BppResult(
        "a1999", 1.0, n - 1, component_of(space, "a0"))


# ----- how many walks each solver takes -------------------------------------


@pytest.fixture
def walks(monkeypatch):
    """The number of orbit walks taken so far, counted in a one-item list."""
    count, walk = [0], bpp_solver._walk

    def counted(*args):
        count[0] += 1
        return walk(*args)

    monkeypatch.setattr(bpp_solver, "_walk", counted)
    return count


def test_a_settling_seed_is_read_off_the_table_without_a_walk(walks):
    inst = build("ex33_dyadic_l1")
    for x0 in inst.space.side_a():
        assert solve_bpp(inst.space, inst.tmap, x0).bpp == "a_0"
    assert walks == [0]
    # an orbit that does not settle in max_iter steps is walked for its message
    with pytest.raises(NoConvergence, match="did not settle in 1 steps"):
        solve_bpp(inst.space, inst.tmap, "a_1/4", max_iter=1)
    assert walks == [1]


def test_the_equivalence_reads_every_orbit_off_the_table(walks):
    inst = build("ex33_dyadic_l1")
    assert check_equivalence_theorem(inst.space, inst.tmap, inst.phi1, inst.phi2,
                                     check_hypotheses=False).orbits_merge
    assert walks == [0]


def test_cli_solve_bpp_walks_its_orbit_once(walks, tmp_path, capsys):
    inst = build("ex33_dyadic_l1", depth=6)
    instance, tmap = tmp_path / "instance.json", tmp_path / "map.json"
    instance.write_text(json.dumps(inst.space.to_dict()))
    tmap.write_text(json.dumps(inst.tmap.to_dict()))
    assert cli.main(["solve-bpp", "--instance", str(instance), "--map", str(tmap),
                     "--x0", "a_1", "--skip-hypothesis-checks"]) == 0
    golden = Path(__file__).parent / "golden" / "solve_bpp_ex33_depth6_a_1.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()
    assert walks == [1]
