"""The immutable space and the structure it keeps.

The vectorised predicates and the cached components are checked against the
scalar loops they replaced, kept here as reference oracles, and against
scipy's connected components.  The read-only cyclic maps, whose check against
a space is kept on that space, are tested at the end.
"""
from __future__ import annotations

import dataclasses
import pickle
import tracemalloc

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
    PairMaps,
    SideMismatch,
    UnknownPoint,
    build,
    check_property_star,
    component_of,
    components,
    has_property_uc,
    is_g_chebyshev,
    is_sharp_proximal,
    is_weakly_connected,
    pair_distance,
    solve_bpp,
    solve_common_fixed_point,
    verify_g_cyclic_contraction,
    verify_g_psi_contraction,
    x_t2_a_set,
)
from proxigraph import cyclic_contraction, fixed_point, metric_graph
from proxigraph.corpus import build_random_chain
from proxigraph.metric_graph import TOL_METRIC, TOL_PARALLEL, CheckResult, PairGeometry

# ----- scalar reference oracles -------------------------------------------


def sides(space):
    a = tuple(p for p in space.ids if "A" in space.side[p])
    b = tuple(p for p in space.ids if "B" in space.side[p])
    return a, b


def oracle_pair_distance(space) -> PairGeometry:
    a, b = sides(space)
    best = min(space.d(x, y) for x in a for y in b)
    pairs = frozenset((x, y) for x in a for y in b
                      if space.d(x, y) <= best + TOL_PARALLEL)
    return PairGeometry(d_ab=best, a0=frozenset(x for x, _ in pairs),
                        b0=frozenset(y for _, y in pairs), parallel_pairs=pairs)


def oracle_sharp_proximal(space, geom) -> CheckResult:
    a, b = sides(space)
    for x in a:
        partners = tuple(y for y in b if abs(space.d(x, y) - geom.d_ab) <= TOL_PARALLEL)
        if len(partners) != 1:
            return CheckResult(False, (x, partners))
    for y in b:
        partners = tuple(x for x in a if abs(space.d(x, y) - geom.d_ab) <= TOL_PARALLEL)
        if len(partners) != 1:
            return CheckResult(False, (y, partners))
    return CheckResult(True)


def oracle_g_chebyshev(space, geom) -> CheckResult:
    for pair in sorted(geom.parallel_pairs):
        if pair not in space.edges:
            return CheckResult(False, pair)
    return CheckResult(True)


def oracle_property_uc(space, geom) -> CheckResult:
    a, b = sides(space)
    for y in b:
        close = [x for x in a if abs(space.d(x, y) - geom.d_ab) <= TOL_PARALLEL]
        if len(close) > 1:
            return CheckResult(False, (close[0], close[1], y))
    return CheckResult(True)


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
    ties, some pushed just inside or just outside TOL_PARALLEL."""
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
    ids = [f"p{i}" for i in range(n)]
    pairs = [(x, y) for x in ids for y in ids if x != y]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    return FiniteMetricGraph.from_table(ids, dict(zip(ids, side)), table, edges)


def assert_matches_oracles(space):
    geom = pair_distance(space)
    assert geom == oracle_pair_distance(space)
    checks = ((is_sharp_proximal, oracle_sharp_proximal),
              (has_property_uc, oracle_property_uc),
              (is_g_chebyshev, oracle_g_chebyshev))
    for check, oracle in checks:
        expected = oracle(space, geom)
        assert check(space) == expected
        assert check(space) is check(space)
    a, b = sides(space)
    for within in (None, a, b, list(a), space.ids[::2]):
        assert check_property_star(space, within) == oracle_property_star(space, within)


@given(tied_table_spaces())
@settings(max_examples=150, deadline=None)
def test_predicates_match_scalar_oracles_on_tied_tables(space):
    assert_matches_oracles(space)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_predicates_match_scalar_oracles_on_random_chains(seed):
    assert_matches_oracles(build_random_chain(seed).space)


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


@pytest.mark.parametrize("dim", [0, 1, 2, 3, 7, 8, 9, 17, 1024])
@pytest.mark.parametrize("metric", ["l1", "l2", "sup"])
def test_coordinate_distances_are_bit_identical_to_the_broadcast(metric, dim):
    rng = np.random.default_rng(dim)
    # 1 point, one block, and row blocks whose last one is partial
    for n in (1, 2, 40, 130, 300):
        if n * n * dim > 1 << 22:
            continue
        arr = coord_points(rng, n, dim)
        ids = tuple(f"p{i}" for i in range(n))
        coords = dict(zip(ids, map(tuple, arr.tolist())))
        got = metric_graph._coord_dist(ids, coords, metric)
        assert got.shape == (n, n)
        assert np.array_equal(got.view(np.int64), oracle_coord_dist(arr, metric).view(np.int64))


@pytest.mark.parametrize("metric", ["l1", "l2", "sup"])
def test_coordinate_overflow_is_rejected_in_a_late_block(metric):
    # 500 points of dimension 64 make 250 blocks of 2 rows
    pts = [(f"p{i:03}", (0.0,) * 64, "AB") for i in range(500)]
    pts[-2:] = [("q", (-1e308,) * 64, "A"), ("r", (1e308,) * 64, "B")]
    with pytest.raises(InstanceFormatError, match="non-finite"):
        FiniteMetricGraph.from_coords(pts, metric=metric)


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
    subsets.append(subsets[-1] + ("ghost",))
    for within in subsets:
        nodes = space.ids if within is None else within
        assert metric_graph._property_star(space, nodes) == oracle_property_star(space, within)


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
    space._adjacency()
    tracemalloc.start()
    try:
        result = metric_graph._property_star(space, space.ids)  # 8 M 2-paths
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == CheckResult(True)
    assert peak < 64 * 2**20


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
    assert pair_distance(sp) is pair_distance(sp)
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


def test_the_memo_keeps_read_only_adjacency_and_image_arrays():
    inst = build_random_chain(7)
    sp, tm = inst.space, inst.tmap
    edge, image = sp._adjacency(), tm.validate(sp)
    assert edge is sp._adjacency() and image is tm.validate(sp)
    assert not edge.flags.writeable and not image.flags.writeable
    assert {(sp.ids[i], sp.ids[j]) for i, j in zip(*np.nonzero(edge))} == sp.edges
    assert [sp.ids[i] for i in image] == [tm(p) for p in sp.ids]


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
