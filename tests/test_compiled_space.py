"""The immutable space and the structure it keeps.

The vectorised predicates and the cached components are checked against the
scalar loops they replaced, kept here as reference oracles, and against
scipy's connected components.  The read-only cyclic maps, whose check against
a space is kept on that space, are tested at the end.
"""
from __future__ import annotations

import ast
import copy
import dataclasses
import gc
import json
import pickle
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from proxigraph import (
    CyclicMapTable,
    EmptySide,
    FiniteMetricGraph,
    InstanceFormatError,
    NoConvergence,
    PairMaps,
    SeedNotEligible,
    SideMismatch,
    UnknownPoint,
    build,
    check_cardinality,
    check_equivalence_theorem,
    check_property_star,
    component_of,
    components,
    enumerate_bpps,
    has_property_uc,
    is_g_chebyshev,
    is_sharp_proximal,
    is_weakly_connected,
    iterate_orbit,
    pair_distance,
    solve_bpp,
    solve_common_fixed_point,
    verify_g_cyclic_contraction,
    verify_g_psi_contraction,
    verify_t2_preserves_edges,
    x_t2_a_set,
)
from proxigraph import cyclic_contraction, fixed_point, metric_graph
from proxigraph.bpp_solver import _check_theorem_hypotheses
from proxigraph.fixed_point import check_uniqueness_regime
from proxigraph.corpus import build_random_chain
from proxigraph.metric_graph import TOL_METRIC, TOL_PARALLEL, CheckResult

# ----- scalar reference oracles -------------------------------------------


def sides(space):
    a = tuple(p for p in space.ids if "A" in space.side[p])
    b = tuple(p for p in space.ids if "B" in space.side[p])
    return a, b


def oracle_closeness(space) -> tuple[float, list[tuple[str, str]]]:
    """d(A,B) and the close pairs, x then y in input order."""
    a, b = sides(space)
    best = min(space.d(x, y) for x in a for y in b)
    # the one closeness rule: d(x, y) exceeds d(A,B) by at most TOL_PARALLEL
    return best, [(x, y) for x in a for y in b if space.d(x, y) - best <= TOL_PARALLEL]


def oracle_sharp_proximal(space, d_ab) -> CheckResult:
    a, b = sides(space)
    for x in a:
        partners = tuple(y for y in b if abs(space.d(x, y) - d_ab) <= TOL_PARALLEL)
        if len(partners) != 1:
            return CheckResult(False, (x, partners))
    for y in b:
        partners = tuple(x for x in a if abs(space.d(x, y) - d_ab) <= TOL_PARALLEL)
        if len(partners) != 1:
            return CheckResult(False, (y, partners))
    return CheckResult(True)


def oracle_g_chebyshev(space, d_ab) -> CheckResult:
    for pair in sorted(oracle_closeness(space)[1]):
        if pair not in space.edges:
            return CheckResult(False, pair)
    return CheckResult(True)


def oracle_property_uc(space, d_ab) -> CheckResult:
    a, b = sides(space)
    for y in b:
        close = [x for x in a if abs(space.d(x, y) - d_ab) <= TOL_PARALLEL]
        if len(close) > 1:
            return CheckResult(False, (close[0], close[1], y))
    return CheckResult(True)


def oracle_a0_witness(space, tmap):
    """The sorted walk over A0 for the first point whose image is off B0."""
    pairs = oracle_closeness(space)[1]
    a0, b0 = {x for x, _ in pairs}, {y for _, y in pairs}
    return next(((p, tmap(p)) for p in sorted(a0) if tmap(p) not in b0), None)


def oracle_property_star(space, within=None) -> CheckResult:
    node_set = set(space.ids) if within is None else set(within)
    edges = [(x, y) for x, y in space.edges if x in node_set and y in node_set]
    succ: dict[str, list[str]] = {}
    for x, y in edges:
        succ.setdefault(x, []).append(y)
    for x, y in sorted(edges):
        for z in sorted(succ.get(y, ())):
            if (x, z) not in space.edges:
                return CheckResult(False, (x, y, z))
    return CheckResult(True)


def oracle_triangle(d: np.ndarray):
    """The construction-time triangle loop: the first failing (i, k, j), or None."""
    scale = max(1.0, float(d.max())) if len(d) else 1.0
    tol = TOL_METRIC * scale
    for k in range(len(d)):
        slack = d - (d[:, k][:, None] + d[k, :][None, :])
        if np.any(slack > tol):
            i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
            return int(i), k, int(j)
    return None


def oracle_coord_dist(arr: np.ndarray, metric: str) -> np.ndarray:
    """Construction's coordinate distances from one n x n x dim difference array."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = arr[:, None, :] - arr[None, :, :]
        if metric == "l1":
            return np.abs(diff).sum(axis=2)
        if metric == "l2":
            return np.sqrt((diff ** 2).sum(axis=2))
        return np.abs(diff).max(axis=2, initial=0.0)


def scipy_components(space, nodes=None) -> set[frozenset[str]]:
    nodes = list(space.ids if nodes is None else nodes)
    pos = {p: i for i, p in enumerate(nodes)}
    adj = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for x, y in space.edges:
        if x in pos and y in pos:
            adj[pos[x], pos[y]] = True
    _, labels = connected_components(csr_matrix(adj), directed=True, connection="weak")
    return {frozenset(p for p, c in zip(nodes, labels) if c == k) for k in set(labels)}


# ----- random spaces ----------------------------------------------------

# offsets around the tie tolerance, so ties fall on both sides of it
JITTER = (0.0, 0.0, 0.0, 5e-13, -5e-13, 2e-12)


@st.composite
def tied_table_spaces(draw):
    """Table spaces on a small integer grid under l1: many exact distance
    ties, some pushed just inside or just outside TOL_PARALLEL.  The ids sort
    apart from their order."""
    n = draw(st.integers(2, 9))
    dim = draw(st.integers(1, 2))
    pts = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                                 min_size=n, max_size=n)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jitter = np.triu(rng.choice(JITTER, size=(n, n)), 1)
    table = np.abs(np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2) + jitter + jitter.T)
    side = draw(st.lists(st.sampled_from(("A", "B", "AB")), min_size=n, max_size=n))
    if not any("A" in s for s in side):
        side[0] = "AB"
    if not any("B" in s for s in side):
        side[-1] = "AB"
    ids = [f"p{i}" for i in draw(st.permutations(range(n)))]
    pairs = [(x, y) for x in ids for y in ids if x != y]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    return FiniteMetricGraph.from_table(ids, dict(zip(ids, side)), table, edges)


def assert_matches_oracles(space, tmap):
    d_ab, pairs = oracle_closeness(space)
    a, b = sides(space)
    _, rows, cols = metric_graph._closeness(space)
    assert pair_distance(space) == d_ab
    assert [(a[i], b[j]) for i, j in zip(rows.tolist(), cols.tolist())] == pairs
    checks = ((is_sharp_proximal, oracle_sharp_proximal),
              (has_property_uc, oracle_property_uc),
              (is_g_chebyshev, oracle_g_chebyshev))
    for check, oracle in checks:
        expected = oracle(space, d_ab)
        assert check(space) == expected
        assert check(space) is check(space)
    # the identity gauges pass both gauge classes on every grid
    phi = cyclic_contraction.GaugeSpec("identity")
    report = verify_g_cyclic_contraction(space, tmap, phi, phi)
    assert report.a0_witness == oracle_a0_witness(space, tmap)
    for within in (None, a, b, list(a), space.ids[::2]):
        assert check_property_star(space, within) == oracle_property_star(space, within)


@given(tied_table_spaces(), st.data())
@settings(max_examples=150, deadline=None)
def test_predicates_match_scalar_oracles_on_tied_tables(space, data):
    # T sends A into B and B into A, so a point on both sides goes to one on
    # both; half the maps send every point off B0 where they can, so that
    # several points of A0 miss B0 and the witness must be the least
    side, b0 = space.side, {y for _, y in oracle_closeness(space)[1]}
    off = data.draw(st.booleans())
    mapping = {}
    for x in space.ids:
        to = [p for p in space.ids if ("A" not in side[x] or "B" in side[p])
              and ("B" not in side[x] or "A" in side[p])]
        mapping[x] = data.draw(st.sampled_from([p for p in to if p not in b0] if off and
                                               not b0.issuperset(to) else to))
    assert_matches_oracles(space, CyclicMapTable.for_space(space, mapping))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_predicates_match_scalar_oracles_on_random_chains(seed):
    inst = build_random_chain(seed)
    assert_matches_oracles(inst.space, inst.tmap)


def test_predicates_match_scalar_oracles_on_a_tie_heavy_space():
    # two lines under l1 at heights i % 3: a third of A x B is close.  The
    # edges join the close pairs of the first ten points on each side, so
    # the least missing pair in sorted id order is not the first in input order
    n = 600
    pts = [(f"a{i}", (0.0, float(i % 3)), "A") for i in range(n)]
    pts += [(f"b{j}", (1.0, float(j % 3)), "B") for j in range(n - 1)]
    edges = [(f"a{i}", f"b{j}") for i in range(10) for j in range(10) if i % 3 == j % 3]
    space = FiniteMetricGraph.from_coords(pts, metric="l1", edges=edges)
    mapping = {f"a{i}": f"b{7 * i % (n - 1)}" for i in range(n)}
    mapping.update({f"b{j}": f"a{j}" for j in range(n - 1)})
    assert_matches_oracles(space, CyclicMapTable.for_space(space, mapping))
    assert is_g_chebyshev(space).witness == ("a0", "b102")


@given(tied_table_spaces(), st.data())
@settings(max_examples=100, deadline=None)
def test_components_match_scipy(space, data):
    expected = scipy_components(space)
    comps = components(space)
    assert set(comps) == expected and len(comps) == len(expected)
    assert [min(c) for c in comps] == sorted(min(c) for c in expected)
    for p in space.ids:
        assert p in component_of(space, p) in expected
    assert is_weakly_connected(space) == (len(expected) == 1)
    subset = data.draw(st.lists(st.sampled_from(space.ids), min_size=1, unique=True))
    assert is_weakly_connected(space, within=subset) == (
        len(scipy_components(space, subset)) == 1)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_chain_components_match_scipy(seed):
    space = build_random_chain(seed).space
    assert set(components(space)) == scipy_components(space)


# ----- graph questions against the loops they replaced -----------------------


def undirected(nodes, edges) -> dict[str, set[str]]:
    """Adjacency of the graph induced on nodes, edge directions forgotten."""
    adj: dict[str, set[str]] = {p: set() for p in nodes}
    for x, y in edges:
        if x in adj and y in adj:
            adj[x].add(y)
            adj[y].add(x)
    return adj


def reach(adj, start) -> set[str]:
    seen, stack = {start}, [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def oracle_components(space):
    """The dict-of-sets DFS: components by smallest member id, each point's label."""
    adj = undirected(space.ids, space.edges)
    label: dict[str, int] = {}
    comps = []
    for p in sorted(space.ids):
        if p not in label:
            comp = frozenset(reach(adj, p))
            label.update(dict.fromkeys(comp, len(comps)))
            comps.append(comp)
    return comps, tuple(label[p] for p in space.ids)


def oracle_weakly_connected(space, within) -> bool:
    nodes = tuple(within)
    if not nodes:
        return True
    adj = undirected(nodes, space.edges)
    return len(reach(adj, nodes[0])) == len(adj)


def oracle_t2_preserves_edges(space, tmap) -> CheckResult:
    """The sorted walk over the edges within A."""
    a = set(space.side_a())
    for x, y in sorted(space.edges):
        if x in a and y in a:
            img = (tmap.twice(x), tmap.twice(y))
            if img not in space.edges:
                return CheckResult(False, (x, y, img[0], img[1]))
    return CheckResult(True)


def oracle_x_t2_a(space, tmap) -> frozenset[str]:
    return frozenset(x for x in space.side_a() if (x, tmap.twice(x)) in space.edges)


def oracle_bpps(space, tmap, tol) -> frozenset[str]:
    """The per-point scan: each x of A whose gap d(x, Tx) is within tol of d(A,B)."""
    d_ab = pair_distance(space)
    return frozenset(x for x in space.side_a() if abs(space.d(x, tmap(x)) - d_ab) <= tol)


def oracle_friendship(space) -> bool:
    """The triple loop: a common in-neighbour in A for every pair of A."""
    a = space.side_a()
    return all(any((u, x) in space.edges and (u, y) in space.edges for u in a)
               for i, x in enumerate(a) for y in a[i:])


@st.composite
def mapped_digraphs(draw):
    """A space on the discrete metric, its ids sorting apart from their order,
    with random sides and edges, a cyclic map, and a subset of its ids.  With
    `closed` drawn, one point of A gets an edge to every point of A and the
    edges within A are closed under T^2, so the friendship test and T^2 edge
    preservation hold; otherwise they mostly fail."""
    n = draw(st.integers(1, 12))
    ids = [f"p{i}" for i in draw(st.permutations(range(n)))]
    sides = draw(st.lists(st.sampled_from(("A", "B", "AB")), min_size=n, max_size=n))
    if not any("A" in s for s in sides) or not any("B" in s for s in sides):
        sides[0] = "AB"
    side = dict(zip(ids, sides))
    # T sends A into B and B into A, so a point on both sides goes to one on both
    mapping = {x: draw(st.sampled_from([p for p in ids
                                        if ("A" not in side[x] or "B" in side[p])
                                        and ("B" not in side[x] or "A" in side[p])]))
               for x in ids}
    edges = set(draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                              max_size=3 * n)))
    a = [p for p in ids if "A" in side[p]]
    if draw(st.booleans()):
        edges |= {(a[0], x) for x in a}
        while True:
            twice = {(mapping[mapping[x]], mapping[mapping[y]])
                     for x, y in edges if x in a and y in a}
            if twice <= edges:
                break
            edges |= twice
    space = FiniteMetricGraph.from_table(ids, side, 1.0 - np.eye(n), sorted(edges),
                                         auto_loops=True)
    subset = draw(st.lists(st.sampled_from(ids), max_size=n))
    return space, CyclicMapTable.for_space(space, mapping), subset


@given(mapped_digraphs())
@settings(max_examples=300, deadline=None)
def test_graph_questions_match_the_loops_they_replaced(case):
    space, tmap, subset = case
    comps, labels = oracle_components(space)
    assert components(space) == comps
    assert metric_graph._components(space)[1] == labels
    for p in space.ids:
        assert component_of(space, p) == comps[labels[space.ids.index(p)]]
    assert is_weakly_connected(space) == (len(comps) == 1)
    for within in (subset, space.side_a(), space.side_b(), ()):
        assert is_weakly_connected(space, within) == oracle_weakly_connected(space, within)
    assert verify_t2_preserves_edges(space, tmap) == oracle_t2_preserves_edges(space, tmap)
    assert x_t2_a_set(space, tmap) == oracle_x_t2_a(space, tmap)
    assert check_uniqueness_regime(space) == {"weakly_connected": len(comps) == 1,
                                             "weak_friendship": oracle_friendship(space)}


def test_the_reference_loops_see_both_verdicts():
    # one space where T^2 edge preservation and the friendship test fail, and
    # one where they hold, so the comparison above covers both answers
    ids = ["a0", "a1", "a2", "b0", "b1"]
    side = {"a0": "A", "a1": "A", "a2": "A", "b0": "B", "b1": "B"}
    # T^2 swaps a0 and a1 and sends a2 to a0
    mapping = {"a0": "b0", "a1": "b1", "a2": "b1", "b0": "a1", "b1": "a0"}
    for edges, holds in (([("a0", "a2")], False),
                         ([("a1", "a0"), ("a1", "a2"), ("a0", "a1")], True)):
        space = FiniteMetricGraph.from_table(ids, side, 1.0 - np.eye(5), edges)
        tmap = CyclicMapTable.for_space(space, mapping)
        assert bool(verify_t2_preserves_edges(space, tmap)) is holds
        assert check_uniqueness_regime(space)["weak_friendship"] is holds
        assert oracle_t2_preserves_edges(space, tmap) == verify_t2_preserves_edges(space, tmap)
        assert oracle_friendship(space) is holds


def scan_instances():
    yield from (build_random_chain(seed) for seed in range(200))
    yield from (build(name) for name in ("ex22_kappa", "ex33_dyadic_l1", "ex35_not_bpo"))


def test_scans_and_the_seed_gate_match_the_per_point_loops():
    met = set()
    for inst in scan_instances():
        sp, tm = inst.space, inst.tmap
        eligible = x_t2_a_set(sp, tm)
        assert eligible == oracle_x_t2_a(sp, tm)
        assert eligible is x_t2_a_set(sp, tm)
        for tol in (1e-9, 0.0, 1.0, -np.inf):
            assert enumerate_bpps(sp, tm, tol) == oracle_bpps(sp, tm, tol)
        refused = set()
        for x in sp.side_a():
            try:
                solve_bpp(sp, tm, x)
            except SeedNotEligible:
                refused.add(x)
        assert refused == set(sp.side_a()) - eligible
        met.add((bool(refused), bool(eligible)))
    # instances with and without refused seeds
    assert met == {(False, True), (True, True)}


# ----- coordinate metrics need no triangle loop ---------------------------


def magnitudes():
    """Signed values from 1e-150 to 1e150, and zero."""
    return st.one_of(
        st.just(0.0),
        st.builds(lambda sign, mant, exp: sign * mant * 10.0 ** exp,
                  st.sampled_from((-1.0, 1.0)), st.floats(1.0, 10.0),
                  st.integers(-150, 150)))


@given(st.sampled_from(("l1", "l2", "sup")), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_coordinate_metrics_never_fail_the_triangle_loop(metric, dim, data):
    pts = data.draw(st.lists(st.tuples(*[magnitudes()] * dim), min_size=2, max_size=7))
    space = FiniteMetricGraph.from_coords(
        [(f"p{i}", xy, "AB") for i, xy in enumerate(pts)], metric=metric)
    assert oracle_triangle(space.dist) is None


def test_triangle_oracle_fires_on_a_broken_table():
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    assert oracle_triangle(d) == (0, 1, 2)


def test_coordinate_overflow_is_rejected():
    with pytest.raises(InstanceFormatError, match="non-finite"):
        FiniteMetricGraph.from_coords([("p", (-1e308,), "A"), ("q", (1e308,), "B")],
                                      metric="l1")


def test_coordinate_metrics_take_no_table():
    with pytest.raises(InstanceFormatError, match="coords"):
        FiniteMetricGraph(("p",), {"p": "A"}, np.zeros((1, 1)), frozenset({("p", "p")}),
                          {"p": (0.0,)}, "l1")


# ----- validation in array passes ------------------------------------------


def coord_points(rng, n, dim):
    """n points of dimension dim whose entries span six orders of magnitude."""
    arr = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, (n, dim))
    arr[rng.random((n, dim)) < 0.05] = -0.0
    return arr


def coord_space(arr, metric):
    """The space on the rows of arr, the i-th named p<i>."""
    return FiniteMetricGraph.from_coords(
        [(f"p{i}", xy, "AB") for i, xy in enumerate(arr.tolist())], metric=metric)


@pytest.mark.parametrize("dim", [0, 1, 2, 3, 7, 8, 9, 17, 1024])
@pytest.mark.parametrize("metric", ["l1", "l2", "sup"])
def test_coordinate_distances_are_bit_identical_to_the_broadcast(metric, dim):
    rng = np.random.default_rng(dim)
    # 1 point, one block, and row blocks whose last one is partial
    for n in (1, 2, 40, 130, 300):
        if n * n * dim > 1 << 22:
            continue
        arr = coord_points(rng, n, dim)
        got = coord_space(arr, metric).dist
        assert got.shape == (n, n)
        assert np.array_equal(got.view(np.int64), oracle_coord_dist(arr, metric).view(np.int64))


@pytest.mark.parametrize("metric", ["l1", "l2", "sup"])
def test_coordinate_overflow_is_rejected_in_a_late_block(metric):
    # 500 points of dimension 64 make 250 blocks of 2 rows
    pts = [(f"p{i:03}", (0.0,) * 64, "AB") for i in range(500)]
    pts[-2:] = [("q", (-1e308,) * 64, "A"), ("r", (1e308,) * 64, "B")]
    with pytest.raises(InstanceFormatError, match="non-finite"):
        FiniteMetricGraph.from_coords(pts, metric=metric)


@pytest.mark.parametrize("dim", [4, 5, 6])
@pytest.mark.parametrize("metric", ["l1", "l2", "sup"])
def test_per_coordinate_passes_keep_the_bits_at_dims_4_to_6(metric, dim):
    rng = np.random.default_rng(100 + dim)
    # 300 and 600 points: two and three row blocks, the last one partial
    for n in (1, 3, 37, 300, 600):
        arr = coord_points(rng, n, dim)
        arr[0, :] = -0.0
        got = coord_space(arr, metric).dist
        assert np.array_equal(got.view(np.int64), oracle_coord_dist(arr, metric).view(np.int64))


# (name, the coords of the second and third points, the error), the first
# point at (0, 0): each is the message of the per-point read, which names
# the first bad point
BAD_COORDS = [
    ("ragged", [[[1.0], [2.0, 3.0]], [1.0, 2.0]], "coords of point 'p1' must be a list of numbers, got [[1.0], [2.0, 3.0]]"),
    ("mixed_dimension", [[1.0], [1.0, 2.0, 3.0]], "points have mixed coordinate dimensions"),
    ("string", ["12", [1.0, 2.0]], "coords of point 'p1' must be a list of numbers, got '12'"),
    ("strings", [["1", "2"], ["3", "4"]], "coords of point 'p1' must be a list of numbers, got ['1', '2']"),
    ("bool", [[True, 0.0], True], "coords of point 'p1' must be a list of numbers, got [True, 0.0]"),
    ("none_entry", [[None, 0.0], [1.0, 2.0]], "coords of point 'p1' must be a list of numbers, got [None, 0.0]"),
    ("numpy_bool", [np.array([True, False]), np.array([False, True])], "coords of point 'p1' must be a list of numbers, got array([ True, False])"),
    ("scalar", [5.0, 6.0], "coords of point 'p1' must be a list of numbers, got 5.0"),
    ("huge_int", [[10**400, 0], [1.0, 2.0]], f"coords of point 'p1' must be a list of numbers, got {[10**400, 0]!r}"),
]


@pytest.mark.parametrize("bad, message", [c[1:] for c in BAD_COORDS],
                         ids=[c[0] for c in BAD_COORDS])
def test_malformed_coordinates_name_the_first_bad_point(bad, message):
    coords = [[0.0, 0.0]] + bad
    points = [(f"p{i}", xy, "AB") for i, xy in enumerate(coords)]
    for pts in (points, iter(points)):
        with pytest.raises(InstanceFormatError) as exc:
            FiniteMetricGraph.from_coords(pts, metric="l1")
        assert str(exc.value) == message
    doc = {"metric": "l1", "auto_loops": True,
           "points": [{"id": f"p{i}", "coords": xy, "side": "AB"}
                      for i, xy in enumerate(coords)]}
    with pytest.raises(InstanceFormatError) as exc:
        FiniteMetricGraph.from_dict(doc)
    assert str(exc.value) == message


def test_none_for_coordinates_in_code_and_in_a_document():
    points = [("p0", [0.0, 0.0], "AB"), ("p1", None, "AB")]
    with pytest.raises(InstanceFormatError) as exc:
        FiniteMetricGraph.from_coords(points, metric="l1")
    assert str(exc.value) == "coords of point 'p1' must be a list of numbers, got None"
    doc = {"metric": "l1", "auto_loops": True,
           "points": [{"id": p, "coords": xy, "side": s} for p, xy, s in points]}
    with pytest.raises(InstanceFormatError) as exc:
        FiniteMetricGraph.from_dict(doc)
    assert str(exc.value) == "metric 'l1' requires coords on every point"


@pytest.mark.parametrize("bad", ["ab", b"ab", ["a"], ("a", "b", "c"), 5, {"a": 1, "b": 2}],
                         ids=["str", "bytes", "one", "three", "int", "object"])
def test_malformed_edges_name_the_first_bad_edge(bad):
    message = f"an edge must be a pair of point ids, got {bad!r}"
    points = [("a", (0.0,), "A"), ("b", (1.0,), "B")]
    for edges in ([("a", "b"), bad, ["b"]], [["a", "b"], bad, "ba"]):
        with pytest.raises(InstanceFormatError) as exc:
            FiniteMetricGraph.from_coords(points, metric="l1", edges=edges)
        assert str(exc.value) == message
        doc = {"metric": "l1", "auto_loops": True, "edges": edges,
               "points": [{"id": p, "coords": list(xy), "side": s} for p, xy, s in points]}
        with pytest.raises(InstanceFormatError) as exc:
            FiniteMetricGraph.from_dict(doc)
        assert str(exc.value) == message


def test_edges_mix_lists_and_tuples_and_come_from_any_iterable():
    points = [(0, (0.0,), "A"), (1, (1.0,), "B")]
    want = frozenset({("0", "0"), ("1", "1"), ("0", "1"), ("1", "0")})
    for edges in ([(0, 1), ["1", 0]], iter([(0, 1), ["1", 0]]), {(0, 1): 1, (1, 0): 2}):
        assert FiniteMetricGraph.from_coords(points, metric="l1", edges=edges).edges == want


def test_one_id_rule_reads_points_edge_ends_and_keys():
    # numpy's strings and integers are ids too, read as plain str
    points = [(np.str_("a"), (0.0,), "A"), (np.int64(7), (1.0,), "B")]
    sp = FiniteMetricGraph.from_coords(points, metric="l1",
                                       edges=[np.array(["a", "7"]), np.array([7, 7])])
    assert sp.ids == ("a", "7") and all(type(p) is str for p in sp.ids)
    assert sp.edges == {("a", "a"), ("7", "7"), ("a", "7")}
    assert all(type(p) is str for e in sp.edges for p in e)
    # side and coords keys are read by the same rule as the ids they name
    sp = FiniteMetricGraph.from_table([0, "1"], {"0": "A", 1: "B"}, 1.0 - np.eye(2),
                                      coords={0: [2.0], "1": None})
    assert dict(sp.side) == {"0": "A", "1": "B"} and dict(sp.coords) == {"0": (2.0,), "1": None}
    with pytest.raises(InstanceFormatError, match="duplicate point ids"):
        FiniteMetricGraph.from_table([1, "1"], {"1": "AB"}, 1.0 - np.eye(2))
    for bad in (None, True, np.bool_(False), 1.5, np.float64(2.0), b"a", [1], ("a",), {"a": 1}):
        message = f"a point id must be a string or an integer, got {bad!r}"
        # as a point id, as an edge end and as a side key
        with pytest.raises(InstanceFormatError) as exc:
            FiniteMetricGraph.from_coords([(bad, (0.0,), "A"), ("b", (1.0,), "B")], "l1")
        assert str(exc.value) == message
        with pytest.raises(InstanceFormatError) as exc:
            FiniteMetricGraph.from_coords([("a", (0.0,), "A"), ("b", (1.0,), "B")], "l1",
                                          edges=[("a", "b"), ("b", bad)])
        assert str(exc.value) == message
        if not isinstance(bad, (list, dict)):  # a key must hash
            with pytest.raises(InstanceFormatError) as exc:
                FiniteMetricGraph.from_table(["a"], {"a": "AB", bad: "A"}, [[0.0]])
            assert str(exc.value) == message


def test_edge_errors_name_the_least_unknown_edge_and_the_first_loopless_point():
    table = 1.0 - np.eye(3)
    ids, side = ["c", "b", "a"], dict.fromkeys("abc", "AB")
    with pytest.raises(InstanceFormatError) as exc:
        FiniteMetricGraph.from_table(ids, side, table, [("z", "a"), ("c", "y"), ("c", "x")])
    assert str(exc.value) == "edge ('c', 'x') references unknown point"
    # b comes before a in id order, though not in sorted order
    for edges in ([("c", "c")], [("c", "c"), ("a", "a"), ("c", "c")], [("a", "b"), ("c", "c")]):
        with pytest.raises(InstanceFormatError) as exc:
            FiniteMetricGraph.from_table(ids, side, table, edges, auto_loops=False)
        assert str(exc.value) == "missing trivial loop edge on point 'b'"
    # repeated edges are one edge, and every graph question reads them once
    once = FiniteMetricGraph.from_table(ids, side, table, [("c", "b"), ("b", "a")])
    twice = FiniteMetricGraph.from_table(ids, side, table, [("c", "b"), ("b", "a")] * 2
                                         + [(p, p) for p in ids])
    assert once.edges == twice.edges and np.array_equal(once._edge_keys, twice._edge_keys)
    keys = twice._edge_keys  # the space's one edge array: one key per distinct edge
    assert not keys.flags.writeable and (np.diff(keys) > 0).all()
    assert len(keys) == len(twice.edges) == 5 and keys.nbytes == 8 * len(twice.edges)
    maps = [CyclicMapTable({"a": "b", "b": "c", "c": "a"}), CyclicMapTable(dict(zip(ids, ids)))]
    for sp in (once, twice):
        assert check_property_star(sp).witness == ("c", "b", "a")
        assert components(sp) == [frozenset(ids)]
        for tm in maps:
            assert verify_t2_preserves_edges(sp, tm) == oracle_t2_preserves_edges(sp, tm)
        for within in (ids, ("a", "c"), ("c", "b"), ("b",), ()):
            assert is_weakly_connected(sp, within) == oracle_weakly_connected(sp, within)
    assert not verify_t2_preserves_edges(twice, maps[0])


def oracle_validate_error(d: np.ndarray):
    """The message of construction's first failing array check on a table,
    from the expressions it was first written with, or None."""
    if np.any(~np.isfinite(d)):
        bad = d[~np.isfinite(d)][0]
        return f"distance table must be a square array of numbers; {bad} is not finite"
    if np.any(d < 0):
        return "negative distance in table"
    if np.any(np.abs(np.diag(d)) > 0):
        return "nonzero self-distance in table"
    if np.any(np.abs(d - d.T) > TOL_METRIC * np.maximum(1.0, np.abs(d))):
        return "distance table is not symmetric"
    return None


def crafted_tables():
    base = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    for name, entries in [
            ("nan", {(0, 1): np.nan}), ("inf", {(2, 1): np.inf}),
            ("negative", {(1, 2): -1e-300}), ("negative_zero_diagonal", {(1, 1): -0.0}),
            # points a and b coincide, at -0.0 one way and 0.0 the other
            ("negative_zero_entry", {(0, 1): -0.0, (1, 0): 0.0, (1, 2): 2.0, (2, 1): 2.0}),
            ("subnormal_diagonal", {(2, 2): 5e-324}),
            ("asymmetric_above", {(2, 0): 2.0 + 2.0 * TOL_METRIC * 1.001}),
            ("asymmetric_below", {(2, 0): 2.0 + 2.0 * TOL_METRIC * 0.999}),
            ("asymmetric_small_above", {(1, 0): 1.0 + TOL_METRIC * 1.001}),
            ("asymmetric_small_below", {(1, 0): 1.0 + TOL_METRIC * 0.999}),
            # past the tolerance of the smaller entry only, where d - d.T is negative
            ("asymmetric_past_the_smaller", {(0, 2): 2.001455, (2, 0): 2.001455002001455})]:
        d = base.copy()
        for ij, value in entries.items():
            d[ij] = value
        yield name, d


@pytest.mark.parametrize("name, d", list(crafted_tables()),
                         ids=[name for name, _ in crafted_tables()])
def test_table_checks_give_the_verdicts_of_the_first_expressions(name, d):
    expected = oracle_validate_error(d)
    assert (expected is None) == name.endswith(("_below", "zero_diagonal", "zero_entry"))
    ids = ["a", "b", "c"]
    try:
        FiniteMetricGraph.from_table(ids, dict.fromkeys(ids, "AB"), d, auto_loops=True)
        got = None
    except InstanceFormatError as exc:
        got = str(exc)
    assert got == expected


def triangle_error(d: np.ndarray):
    """The InstanceFormatError message of a table space built on d, or None."""
    ids = [f"p{i}" for i in range(len(d))]
    try:
        FiniteMetricGraph.from_table(ids, dict.fromkeys(ids, "AB"), d, auto_loops=True)
    except InstanceFormatError as exc:
        return str(exc)
    return None


def oracle_triangle_error(d: np.ndarray):
    witness = oracle_triangle(d)
    if witness is None:
        return None
    i, k, j = witness
    return (f"triangle inequality fails for (p{i}, p{k}, p{j}): "
            f"{d[i, j]} > {d[i, k]} + {d[k, j]}")


def random_metric_table(rng, n):
    pts = rng.uniform(0.0, 10.0, (n, 2))
    return np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_triangle_witness_is_the_per_k_loops(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    d = random_metric_table(rng, n)
    i, k, j = rng.choice(n, 3, replace=False)
    # planted just past, at or well past the tolerance, on both halves of the pair
    scale = max(1.0, float(d.max()))
    excess = TOL_METRIC * scale * rng.choice([0.5, 1.0, 1.0 + 1e-6, 2.0, 1e6])
    d[i, j] = d[j, i] = d[i, k] + d[k, j] + excess
    assert triangle_error(d) == oracle_triangle_error(d)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_triangle_witness_on_tables_asymmetric_within_tolerance(seed):
    # collinear points in [0, 1] make every triangle tight, so the noise on
    # each half of a pair, inside the symmetry tolerance, fails about 4 in 5
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    x = np.sort(rng.uniform(0.0, 1.0, n))
    d = np.abs(x[:, None] - x[None, :]) + rng.uniform(-0.45, 0.45, (n, n)) * TOL_METRIC
    np.fill_diagonal(d, 0.0)
    d = np.abs(d)
    assert triangle_error(d) == oracle_triangle_error(d)


def triangle_table(rng, n, kind):
    """An n-point table of one of three kinds: exactly symmetric with one
    planted excess, at or near the tolerance or far past it; or tight
    (collinear points in [0, 1]) with symmetric noise; or tight with noise on
    each half of a pair, inside the symmetry tolerance.  An amplitude of 0.3
    tolerances keeps every triangle inside the tolerance; 0.45 can break one."""
    if kind == "planted":
        d = random_metric_table(rng, n)
        if n >= 3:
            # past the shortest 2-path from i to j, so the planted excess is the largest
            i, j = rng.choice(n, 2, replace=False)
            via = d[i] + d[:, j]
            via[[i, j]] = np.inf
            scale = max(1.0, float(d.max()))
            excess = TOL_METRIC * scale * rng.choice([0.5, 1.0, 1.0 + 1e-6, 2.0, 1e6])
            d[i, j] = d[j, i] = via.min() + excess
        return d
    x = np.sort(rng.uniform(0.0, 1.0, n))
    noise = rng.uniform(-1.0, 1.0, (n, n)) * TOL_METRIC * rng.choice([0.3, 0.45])
    if kind == "symmetric noise":
        noise = np.triu(noise, 1) + np.triu(noise, 1).T
    d = np.abs(np.abs(x[:, None] - x[None, :]) + noise)
    np.fill_diagonal(d, 0.0)
    return d


# 37 points: many rows in one block; 256 and 257: a whole block for one row
@pytest.mark.parametrize("n", [1, 2, 37, 256, 257])
@given(st.sampled_from(["planted", "symmetric noise", "asymmetric noise"]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_min_plus_verdict_is_the_per_k_loops(n, kind, seed):
    d = triangle_table(np.random.default_rng(seed), n, kind)
    assert triangle_error(d) == oracle_triangle_error(d)


@pytest.mark.parametrize("n", [3, 37, 256, 257])
def test_a_violation_only_below_the_diagonal_is_found(n):
    # tight collinear points with noise of 0.1 tolerances on each half of a
    # pair, and one triangle (n - 1, k, 0) pushed 1.35 tolerances past it
    # below the diagonal, inside the symmetry tolerance; its mirror
    # (0, k, n - 1) holds by as much, and every other triangle by at least 0.35
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    d = np.abs(np.abs(x[:, None] - x[None, :]) + rng.uniform(-0.1, 0.1, (n, n)) * TOL_METRIC)
    k = n // 2
    for a, b, sign in ((n - 1, 0, 1.0), (n - 1, k, -1.0), (k, 0, -1.0)):
        d[a, b] = x[a] - x[b] + sign * 0.45 * TOL_METRIC
        d[b, a] = x[a] - x[b] - sign * 0.45 * TOL_METRIC
    np.fill_diagonal(d, 0.0)
    assert oracle_triangle(d) == (n - 1, k, 0)
    assert triangle_error(d) == oracle_triangle_error(d)


@pytest.mark.parametrize("N", [8, 36, 64])
def test_ex22_tables_pass_the_triangle_loop(N):
    d = np.array(build("ex22_kappa", N=N).space.dist)
    assert oracle_triangle(d) is None and triangle_error(d) is None


def digraph_space(rng, n, density):
    """A space on the discrete metric whose ids sort apart from their order,
    with random sides and each non-loop edge present with probability density."""
    ids = [f"p{i}" for i in rng.permutation(n)]
    side = dict(zip(ids, rng.choice(["A", "B", "AB"], n)))
    edges = [(x, y) for x in ids for y in ids if x != y and rng.random() < density]
    table = 1.0 - np.eye(n)
    return FiniteMetricGraph.from_table(ids, side, table, edges, auto_loops=True)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.02, 0.1, 0.5, 0.9, 1.0]))
@settings(max_examples=150, deadline=None)
def test_property_star_matches_the_scalar_loop(seed, density):
    rng = np.random.default_rng(seed)
    space = digraph_space(rng, int(rng.integers(1, 30)), density)
    a, b = sides(space)
    subsets = [None, space.ids, a, b, ()]
    for _ in range(3):
        subsets.append(tuple(rng.choice(space.ids, int(rng.integers(1, len(space.ids) + 1)))))
    for within in subsets:
        nodes = space.ids if within is None else within
        assert metric_graph._property_star(space, nodes) == oracle_property_star(space, within)
    with pytest.raises(UnknownPoint, match="unknown point id 'ghost'"):
        check_property_star(space, subsets[-1] + ("ghost",))


@pytest.mark.parametrize("seed", range(4))
def test_property_star_finds_the_least_miss_past_the_first_block(seed):
    # a complete digraph on 70 points has 343000 2-paths, 4900 from each x
    # and so about 13 x per block; the shortcut goes missing from the 41st x on
    rng = np.random.default_rng(seed)
    space = digraph_space(rng, 70, 1.0)
    ranked = sorted(space.ids)
    x, z = ranked[40 + 7 * seed], ranked[int(rng.integers(0, 40))]
    space = FiniteMetricGraph.from_table(space.ids, space.side, space.dist,
                                         space.edges - {(x, z)})
    for within in (None, space.side_a()):
        nodes = space.ids if within is None else within
        assert metric_graph._property_star(space, nodes) == oracle_property_star(space, within)


def test_property_star_joins_in_bounded_memory():
    n = 200
    ids = [f"p{i}" for i in range(n)]
    space = FiniteMetricGraph.from_table(ids, dict.fromkeys(ids, "AB"), 1.0 - np.eye(n),
                                         [(x, y) for x in ids for y in ids])
    tracemalloc.start()
    try:
        result = metric_graph._property_star(space, space.ids)  # 8 M 2-paths
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == CheckResult(True)
    assert peak < 64 * 2**20


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.5, 1.0]))
@settings(max_examples=100, deadline=None)
def test_edge_lookup_is_the_edge_set(seed, density):
    # density 0 leaves the loops only, density 1 the complete digraph; either
    # way the loop on the last id in sorted order is the largest key, n * n - 1
    rng = np.random.default_rng(seed)
    space = digraph_space(rng, int(rng.integers(1, 25)), density)
    n = len(space.ids)
    assert space._edge_keys[-1] == n * n - 1
    pos = np.arange(n)
    want = [[(p, q) in space.edges for q in space.ids] for p in space.ids]
    assert space._is_edge(pos[:, None], pos).tolist() == want
    for off in ((n, 0), (0, n), ([0, n], 0)):
        with pytest.raises(IndexError):
            space._is_edge(*off)


def chain_union(target):
    """Random chains, shifted apart along y until the union holds at least
    target points, with the union of their maps."""
    points, edges, mapping, y, k = [], [], {}, 0.0, 0
    while len(points) < target:
        inst = build_random_chain(k)
        sp, tag = inst.space, f"c{k}_"
        points += [(tag + p, (sp.coords[p][0], y + sp.coords[p][1]), sp.side[p]) for p in sp.ids]
        edges += [(tag + p, tag + q) for p, q in sp.edges]
        mapping.update({tag + p: tag + q for p, q in inst.tmap.mapping.items()})
        y += max(c[1] for c in sp.coords.values()) + 4.0
        k += 1
    space = FiniteMetricGraph.from_coords(points, metric="l1", edges=edges)
    return space, CyclicMapTable.for_space(space, mapping)


def test_edge_questions_need_no_n_by_n_array():
    space, tm = chain_union(2000)
    n, a = len(space.ids), space.side_a()
    pair = PairMaps.for_space(space, {p: tm(p) for p in a},
                              {p: tm(p) for p in space.side_b()})
    # the hypothesis verdicts, which the solvers only read
    assert check_property_star(space) and check_property_star(space, a)
    assert has_property_uc(space)
    tracemalloc.start()
    try:
        eligible = x_t2_a_set(space, tm)
        preserved = verify_t2_preserves_edges(space, tm)
        result = solve_bpp(space, tm, a[0])
        with pytest.raises(NoConvergence):  # d(A, B) = 1: no common fixed point
            solve_common_fixed_point(space, pair, fixed_point.PsiGauge.constant(0.5), a[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eligible == frozenset(a) and preserved and result.achieved_gap == 1.0
    assert peak < n * n / 2, peak


@pytest.mark.parametrize("entry", [True, False, "1.5", b"1.5", np.str_("1.5")],
                         ids=["true", "false", "str", "bytes", "numpy_str"])
def test_coordinates_refuse_what_is_no_number(entry):
    with pytest.raises(InstanceFormatError, match="list of numbers"):
        metric_graph._coord_tuple("p", [0.0, entry])


@pytest.mark.parametrize("array", [
    np.array([["0", "1.5"], ["1.5", "0"]]),
    np.array([[b"0", b"1.5"], [b"1.5", b"0"]]),
    np.array([[False, True], [True, False]]),
    np.array([[0.0, "1.5"], ["1.5", 0.0]], dtype=object),
], ids=["str", "bytes", "bool", "object"])
def test_a_table_array_refuses_what_its_nested_lists_refuse(array):
    for table in (array.tolist(), array):
        with pytest.raises(InstanceFormatError, match="square array of numbers"):
            FiniteMetricGraph.from_table(["a", "b"], {"a": "A", "b": "B"}, table)


def test_a_table_array_of_floats_or_ints_is_taken_as_is():
    for table in (np.array([[0.0, 1.5], [1.5, 0.0]]), np.array([[0, 2], [2, 0]]),
                  np.array([[0.0, 1.5], [1.5, 0.0]], dtype=object)):
        sp = FiniteMetricGraph.from_table(["a", "b"], {"a": "A", "b": "B"}, table)
        assert sp.d("a", "b") == float(table[0, 1]) and sp.dist.dtype == float


@pytest.mark.parametrize("read, match", [
    (lambda v: metric_graph._number(v, "x"), "x must be a number"),
    (lambda v: metric_graph._float_array([v, 1.0], "no numbers"), "no numbers"),
    (lambda v: cyclic_contraction.GaugeSpec("linear", {"c": v}), "c must be a number"),
    (lambda v: cyclic_contraction.parse_knots([[0.0, v], [1.0, 1.0]], "t"), "knots must be"),
], ids=["_number", "_float_array", "gauge_c", "parse_knots"])
@pytest.mark.parametrize("entry", [np.True_, np.False_], ids=["true", "false"])
def test_numpy_booleans_are_no_number(read, match, entry):
    with pytest.raises(InstanceFormatError, match=match):
        read(entry)


def test_table_space_coords_are_read_by_the_number_rule():
    args = (["a", "b"], {"a": "A", "b": "B"}, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InstanceFormatError, match="coords of point 'a'"):
        FiniteMetricGraph.from_table(*args, coords={"a": ("x", True)})
    sp = FiniteMetricGraph.from_table(*args, coords={"a": [1, np.float64(0.5)], "b": None})
    assert sp.coords == {"a": (1.0, 0.5), "b": None}
    assert [p["coords"] for p in sp.to_dict()["points"]] == [[1.0, 0.5], None]


def test_coordinates_take_ints_and_numpy_floats():
    got = metric_graph._coord_tuple("p", [1, np.float64(0.25), 2.5])
    assert got == (1.0, 0.25, 2.5) and all(type(v) is float for v in got)


# ----- immutability -------------------------------------------------------


def chain_space():
    return build_random_chain(7).space


def test_attributes_cannot_be_assigned():
    sp = chain_space()
    for name, value in (("ids", ()), ("edges", frozenset()), ("metric", "l2"),
                        ("coords", {}), ("geometry", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sp, name, value)


def test_distance_array_is_read_only():
    sp = chain_space()
    with pytest.raises(ValueError):
        sp.dist[0, 0] = 1
    assert sp.dist[0, 0] == 0.0


def test_side_and_coords_are_read_only():
    sp = chain_space()
    with pytest.raises(TypeError):
        sp.side[sp.ids[0]] = "B"
    with pytest.raises(TypeError):
        sp.coords[sp.ids[0]] = (9.0, 9.0)
    with pytest.raises(TypeError):
        sp.index["ghost"] = 0


def test_inputs_are_copied_not_shared():
    table = np.array([[0.0, 1.0], [1.0, 0.0]])
    side = {"a": "A", "b": "B"}
    sp = FiniteMetricGraph.from_table(["a", "b"], side, table)
    table[0, 1] = table[1, 0] = 7.0
    side["a"] = "B"
    assert sp.d("a", "b") == 1.0 and sp.side["a"] == "A"
    assert table.flags.writeable


def test_table_coords_pass_through_construction():
    doc = {"schema": "1", "metric": "table", "auto_loops": True,
           "points": [{"id": "a", "coords": [0.0, 1.0], "side": "A"},
                      {"id": "b", "side": "B"}],
           "dist_table": [[0.0, 1.0], [1.0, 0.0]]}
    sp = FiniteMetricGraph.from_dict(doc)
    assert dict(sp.coords) == {"a": (0.0, 1.0), "b": None}


def test_pickle_round_trip():
    for sp in (chain_space(), FiniteMetricGraph.from_dict(chain_space().to_dict())):
        back = pickle.loads(pickle.dumps(sp))
        assert back.ids == sp.ids and back.edges == sp.edges and back.metric == sp.metric
        assert dict(back.side) == dict(sp.side) and dict(back.coords) == dict(sp.coords)
        assert np.array_equal(back.dist, sp.dist) and not back.dist.flags.writeable


# ----- what is kept, and what still raises --------------------------------


def test_derived_structure_is_computed_once():
    sp = chain_space()
    assert metric_graph._closeness(sp) is metric_graph._closeness(sp)
    assert sp.side_a() is sp.side_a()
    assert component_of(sp, sp.ids[0]) is component_of(sp, sp.ids[0])
    assert check_property_star(sp, sp.side_a()) is check_property_star(sp, sp.side_a())


def test_checks_still_raise_on_every_call():
    inst = build_random_chain(7)
    sp, tm = inst.space, inst.tmap
    b = sp.side_b()[0]
    for _ in range(2):
        with pytest.raises(SideMismatch):
            solve_bpp(sp, tm, b)
        with pytest.raises(UnknownPoint):
            component_of(sp, "ghost")
    one_sided = FiniteMetricGraph.from_coords([("p", (0.0,), "A"), ("q", (1.0,), "A")])
    for _ in range(2):
        with pytest.raises(EmptySide):
            pair_distance(one_sided)


# ----- cyclic maps: read-only, checked once per space ----------------------


def test_map_tables_are_read_only():
    inst, ex41 = build_random_chain(7), build("ex41_fixed_point")
    x, p = inst.space.side_a()[0], ex41.space.side_a()[0]
    for table, key in ((inst.tmap.mapping, x), (ex41.pair.t1, p), (ex41.pair.t2, p)):
        with pytest.raises(TypeError):
            table[key] = key
    raw = dict(inst.tmap.mapping)
    tm = CyclicMapTable.for_space(inst.space, raw)
    raw[x] = "ghost"
    assert tm(x) == inst.tmap(x)


def count_map_checks(monkeypatch) -> list[str]:
    calls = []
    real = cyclic_contraction.check_side_map

    def counted(space, name, table, sources):
        calls.append(name)
        return real(space, name, table, sources)

    for module in (cyclic_contraction, fixed_point):
        monkeypatch.setattr(module, "check_side_map", counted)
    return calls


def test_a_map_is_checked_once_per_space(monkeypatch):
    inst = build_random_chain(7)
    sp = inst.space
    calls = count_map_checks(monkeypatch)
    tm = CyclicMapTable.for_space(sp, inst.tmap.mapping)
    seeds = sorted(x_t2_a_set(sp, tm))
    assert seeds
    for x in seeds:
        solve_bpp(sp, tm, x)
    assert verify_g_cyclic_contraction(sp, tm, inst.phi1, inst.phi2)
    assert calls == ["T"]


def test_a_pair_is_checked_once_per_space(monkeypatch):
    inst = build("ex41_fixed_point")
    calls = count_map_checks(monkeypatch)
    pair = PairMaps.for_space(inst.space, inst.pair.t1, inst.pair.t2)
    for strengthened in (False, True):
        verify_g_psi_contraction(inst.space, pair, inst.psi, strengthened=strengthened)
    solve_common_fixed_point(inst.space, pair, inst.psi, "f_1/2")
    assert calls == ["t1", "t2"]
    # another space checks the same pair on its first use there, and only then
    pts = [(p, inst.space.coords[p], inst.space.side[p]) for p in inst.space.ids]
    other = FiniteMetricGraph.from_coords(
        pts, metric=inst.space.metric,
        edges=[e for e in inst.space.edges if e != ("g_1/4", "f_1/16")])
    for strengthened in (False, True):
        verify_g_psi_contraction(other, pair, inst.psi, strengthened=strengthened)
    assert calls == ["t1", "t2"] * 2


def test_a_map_on_a_space_it_does_not_fit_is_refused():
    inst = build_random_chain(7)
    sp, tm = inst.space, inst.tmap
    moved = sp.side_b()[0]
    pts = [(p, sp.coords[p], "A" if p == moved else sp.side[p]) for p in sp.ids]
    other = FiniteMetricGraph.from_coords(pts, metric=sp.metric, edges=sp.edges)
    assert other.ids == sp.ids
    seed = sp.side_a()[0]
    solve_bpp(sp, tm, min(x_t2_a_set(sp, tm)))
    for _ in range(2):
        with pytest.raises(SideMismatch):
            solve_bpp(other, tm, seed)


def test_only_the_space_module_reads_how_edges_are_stored():
    package = Path(metric_graph.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if "_edge_keys" in p.read_text()] == [
        "metric_graph.py"]


def test_only_the_space_module_reads_how_closeness_is_stored():
    package = Path(metric_graph.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if "_closeness" in p.read_text()] == [
        "metric_graph.py"]


def test_closeness_keeps_no_array_of_every_pair():
    # a sharp proximal chain: 400 close pairs among 400 x 400
    n = 400
    sp = FiniteMetricGraph.from_coords([(f"{s}{i}", (float(s == "b"), float(i)), s.upper())
                                        for s in "ab" for i in range(n)], metric="l1")
    assert pair_distance(sp) == 1.0 and is_sharp_proximal(sp) and has_property_uc(sp)
    assert not is_g_chebyshev(sp)
    kept = [v.size for entry in sp._memo.values()
            for v in (entry if isinstance(entry, tuple) else (entry,)) if isinstance(v, np.ndarray)]
    assert kept and n * n not in kept


def test_frozen_objects_are_written_only_in_their_post_init():
    # a frozen object sets what it derives once, while it is built; no method
    # keeps a cache on it afterwards
    package = Path(metric_graph.__file__).parent
    outside = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                  for node in ast.walk(fn)}
        outside += [(path.name, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"
                    and id(node) not in inside]
    assert outside == []


def test_the_space_keeps_read_only_edge_keys_and_image_arrays():
    inst = build_random_chain(7)
    sp, tm = inst.space, inst.tmap
    keys, image = sp._edge_keys, tm.validate(sp)
    assert image is tm.validate(sp)
    assert not keys.flags.writeable and not image.flags.writeable
    ranked, n = sorted(sp.ids), len(sp.ids)
    assert (np.diff(keys) > 0).all() and len(keys) == len(sp.edges)
    assert {(ranked[k // n], ranked[k % n]) for k in keys.tolist()} == sp.edges
    assert [sp.ids[i] for i in image] == [tm(p) for p in sp.ids]
    closeness = metric_graph._closeness(sp)
    assert closeness is metric_graph._closeness(sp) and closeness[0] == pair_distance(sp)
    assert not closeness[1].flags.writeable and not closeness[2].flags.writeable
    # a pair's two image arrays, each len(ids) off its table's side
    ex41 = build("ex41_fixed_point")
    sp, pair = ex41.space, ex41.pair
    images = pair.validate(sp)
    assert images is pair.validate(sp)
    n = len(sp.ids)
    for image, table in zip(images, (pair.t1, pair.t2)):
        assert not image.flags.writeable
        assert [sp.ids[i] if i < n else None for i in image.tolist()] == [
            table.get(p) for p in sp.ids]
        off = np.flatnonzero(image == n)
        assert off.size
        for read in (sp.dist.__getitem__, image.__getitem__,
                     lambda p: sp._is_edge(p, 0), lambda p: sp._is_edge(0, p)):
            with pytest.raises(IndexError):
                read(image[off])


def test_maps_pickle_round_trip():
    inst, ex41 = build_random_chain(7), build("ex41_fixed_point")
    tm = pickle.loads(pickle.dumps(inst.tmap))
    assert tm is not inst.tmap and tm.mapping == inst.tmap.mapping
    assert tm.to_dict() == inst.tmap.to_dict()
    pair = pickle.loads(pickle.dumps(ex41.pair))
    assert (pair.t1, pair.t2) == (ex41.pair.t1, ex41.pair.t2)
    with pytest.raises(TypeError):
        pair.t1["f_1/2"] = "zero"
    x0 = min(x_t2_a_set(inst.space, tm))
    assert solve_bpp(inst.space, tm, x0) == solve_bpp(inst.space, inst.tmap, x0)
    assert solve_common_fixed_point(ex41.space, pair, ex41.psi, "f_1/2")[0] == "zero"


# ----- coordinate spaces keep their coordinates ----------------------------


def reference_coord_dist(arr, metric):
    """The coordinate table as construction built it when every space held
    one: row blocks of about 2^16 differences, one n-wide pass per coordinate
    below 8 coordinates, the reduction over the coordinate axis from 8 on."""
    n, dim = arr.shape
    dist = np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        if 0 < dim < 8:
            cols = arr.T.copy()
            rows = max(1, (1 << 16) // n)
            work = np.empty((min(rows, n), n))
            for r in range(0, n, rows):
                out = dist[r:r + rows]
                for k, col in enumerate(cols):
                    diff = work[:len(out)] if k else out
                    np.subtract(col[r:r + rows, None], col[None, :], out=diff)
                    if metric == "l2":
                        np.multiply(diff, diff, out=diff)
                    else:
                        np.abs(diff, out=diff)
                    if k and metric == "sup":
                        np.maximum(out, diff, out=out)
                    elif k:
                        out += diff
            if metric == "l2":
                np.sqrt(dist, out=dist)
            return dist
        rows = max(1, (1 << 16) // max(1, n * dim))
        for r in range(0, n, rows):
            diff = arr[r:r + rows, None, :] - arr[None, :, :]
            if metric == "l1":
                dist[r:r + rows] = np.abs(diff).sum(axis=2)
            elif metric == "l2":
                dist[r:r + rows] = np.sqrt((diff ** 2).sum(axis=2))
            else:
                dist[r:r + rows] = np.abs(diff).max(axis=2, initial=0.0)
    return dist


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 640])
@pytest.mark.parametrize("metric", ["l1", "l2", "sup"])
def test_the_pair_rule_keeps_the_bits_of_the_table_formula(metric, dim):
    rng = np.random.default_rng(dim)
    # 300 points fill two row blocks, the last one partial
    n = 300 if dim < 640 else 60
    arr = coord_points(rng, n, dim)
    space, fresh = coord_space(arr, metric), coord_space(arr, metric)
    want = reference_coord_dist(arr, metric)
    assert "dist" not in space._memo
    assert same_bits(space.dist, want) and "dist" in space._memo
    x, y = rng.integers(0, n, (2, 500))
    assert same_bits(fresh._pair_dist(x, y), want[x, y])
    assert same_bits(fresh._pair_dist(x[:7, None], y), want[x[:7, None], y])
    for i, j in zip(x[:20].tolist(), y[:20].tolist()):
        assert same_bits(np.float64(fresh.d(f"p{i}", f"p{j}")), want[i, j])
    assert "dist" not in fresh._memo


def test_a_range_bound_that_overflows_falls_back_to_the_scan():
    # each coordinate spans 9e307, so the bound 1.8e308 overflows, yet every
    # distance between two of the four points is 9e307
    sp = FiniteMetricGraph.from_coords(
        [("p", (0.0, 4.5e307), "A"), ("q", (9e307, 4.5e307), "B"),
         ("r", (4.5e307, 0.0), "A"), ("s", (4.5e307, 9e307), "B")], metric="l1")
    assert (sp.dist == 9e307 * (1.0 - np.eye(4))).all()


def test_closeness_over_row_blocks_is_the_dense_rule():
    # the least distance lies in the last row block, and a tie just above
    # it in the first; every pair within TOL_PARALLEL of the least is kept
    rng = np.random.default_rng(5)
    n = 400
    a = [(f"a{i:03}", (0.0, float(rng.integers(0, 50))), "A") for i in range(n)]
    b = [(f"b{i:03}", (3.0, float(rng.integers(0, 50))), "B") for i in range(n)]
    a[0] = ("a000", (1.0, 7.0), "A")
    a[-1] = ("a399", (1.0 + TOL_PARALLEL / 4, 7.0), "A")
    a[-2] = ("a398", (1.0 - TOL_PARALLEL / 4, 7.0), "A")
    space = FiniteMetricGraph.from_coords(a + b, metric="l1")
    ia, ib = space._sides["A"][1], space._sides["B"][1]
    assert len(ib) > (1 << 16) // len(ia) * 2 or len(ia) > (1 << 16) // len(ib)
    block = reference_coord_dist(space._coord_array, "l1")[np.ix_(ia, ib)]
    d_ab, rows, cols = metric_graph._closeness(space)
    assert d_ab == block.min()
    want = np.nonzero(block - d_ab <= TOL_PARALLEL)
    assert rows.tolist() == want[0].tolist() and cols.tolist() == want[1].tolist()
    assert {space.side_a()[i] for i in rows.tolist()} == {"a000", "a398", "a399"}


def assert_copies_keep_the_space(sp):
    """Copies, deep copies and pickles of sp keep its distances, edges,
    coordinates and document, and neither sp nor a copy builds a table or
    an edge set on the way."""
    backs = [copy.copy(sp), copy.deepcopy(sp), pickle.loads(pickle.dumps(sp))]
    assert not sp._memo.keys() & {"dist", "edges"}
    for back in backs:
        assert back is not sp and back.ids == sp.ids and back.metric == sp.metric
        assert [back.d(p, q) for p in sp.ids for q in sp.ids] == [
            sp.d(p, q) for p in sp.ids for q in sp.ids]
        assert not back._memo.keys() & {"dist", "edges"}
        assert back.edges == sp.edges and dict(back.coords) == dict(sp.coords)
        assert json.dumps(back.to_dict()) == json.dumps(sp.to_dict())


def test_copies_and_pickles_of_a_coordinate_space_build_no_table():
    assert_copies_keep_the_space(chain_space())


def test_copies_and_pickles_of_a_table_space_keep_its_partial_coordinates():
    sp = FiniteMetricGraph.from_table(
        ["b", "a", "c"], {"a": "A", "b": "B", "c": "AB"},
        [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]], [("a", "c"), ("c", "b")],
        coords={"a": (0.5, 1.0), "c": (2.0,)})
    assert dict(sp.coords) == {"b": None, "a": (0.5, 1.0), "c": (2.0,)}
    assert_copies_keep_the_space(sp)


def test_to_dict_writes_the_table_but_keeps_none():
    space, _ = chain_union(300)  # two row blocks of the pair rule
    doc = space.to_dict()
    assert "dist" not in space._memo
    assert doc["dist_table"] == space.dist.tolist()


def test_the_solvers_and_gates_build_no_table_on_a_chain_union():
    space, tm = chain_union(600)
    inst = build_random_chain(0)
    gauges = (inst.phi1, inst.phi2)
    a = space.side_a()
    for x0 in a[:40]:
        _check_theorem_hypotheses(space, tm, x0, gauges)
        assert solve_bpp(space, tm, x0).bpp in iterate_orbit(space, tm, x0).points
    nb, nc, ok = check_cardinality(space, tm)
    assert ok and nb == nc
    assert check_equivalence_theorem(space, tm, *gauges).consistent
    assert enumerate_bpps(space, tm) and verify_g_cyclic_contraction(space, tm, *gauges)
    assert "dist" not in space._memo
    # the orbit gaps are the pair rule's, bit for bit
    tr = iterate_orbit(space, tm, a[0])
    assert list(tr.gaps) == [space.d(x, tm(x)) for x in tr.points[:-1]]


def test_a_union_past_half_a_gigabyte_of_table_runs_in_bounded_memory():
    space, tm = chain_union(8192)
    n, a = len(space.ids), space.side_a()
    assert 8 * n * n >= 512 * 2**20
    seeds = np.random.default_rng(0).choice(len(a), 100, replace=False).tolist()
    tracemalloc.start()
    try:
        found = {solve_bpp(space, tm, a[i]).bpp for i in seeds}
        nb, nc, ok = check_cardinality(space, tm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and nb == nc and found <= enumerate_bpps(space, tm)
    assert peak < 64 * 2**20, peak
    assert "dist" not in space._memo


# ----- a space keeps its edges and coordinates as arrays -------------------


def test_a_space_keeps_its_edges_and_coordinates_as_arrays_only():
    template, tm = chain_union(2000)
    points = [(p, template.coords[p], template.side[p]) for p in template.ids]
    edges = sorted(template.edges)
    a = [p for p, _, s in points if s == "A"]
    tm = CyclicMapTable(dict(tm.mapping))
    pair = PairMaps({p: tm(p) for p in a}, {p: tm(p) for p, _, s in points if s == "B"})
    inst = build_random_chain(0)
    gauges, psi = (inst.phi1, inst.phi2), fixed_point.PsiGauge.constant(0.5)
    del template
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        space = FiniteMetricGraph.from_coords(points, metric="l1", edges=edges,
                                              auto_loops=False)
        for x0 in a[:20]:
            _check_theorem_hypotheses(space, tm, x0, gauges)
            assert solve_bpp(space, tm, x0).bpp in iterate_orbit(space, tm, x0).points
        with pytest.raises(NoConvergence):  # d(A, B) = 1: no common fixed point
            solve_common_fixed_point(space, pair, psi, a[0])
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # the keys take 8 B an edge; a boxed edge set and a tuple per point, kept
    # beside them, took about 200 B an edge on this union
    assert kept < 100 * len(edges), kept / len(edges)
    assert not space._memo.keys() & {"edges", "coords"}
    p, xy, _ = points[0]
    assert space.coords[p] == xy and space.coords[p] is not space.coords[p]
    assert space.edges == set(edges) and "edges" in space._memo


def test_only_the_space_module_reads_a_space_s_edge_set():
    package = Path(metric_graph.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py"))
            if re.search(r"\.edges\b", p.read_text())] == ["metric_graph.py"]


def test_repr_builds_nothing():
    sp = chain_space()
    kept = list(sp._memo)
    text = repr(sp)
    assert list(sp._memo) == kept and not set(kept) & {"dist", "edges"}
    assert "edges=" not in text and "dist=" not in text
    assert f"coords={dict(sp.coords)!r}" in text and repr(sp.coords) == repr(dict(sp.coords))
