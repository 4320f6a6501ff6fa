"""The immutable space and the structure it keeps.

The vectorised predicates and the cached components are checked against the
scalar loops they replaced, kept here as reference oracles, and against
scipy's connected components.
"""
from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from proxigraph import (
    EmptySide,
    FiniteMetricGraph,
    InstanceFormatError,
    SideMismatch,
    UnknownPoint,
    check_property_star,
    component_of,
    components,
    has_property_uc,
    is_g_chebyshev,
    is_sharp_proximal,
    is_weakly_connected,
    pair_distance,
    solve_bpp,
)
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
        assert check(space, geom) == expected  # the space's own geometry: kept
        assert check(space) is check(space)
        # a geometry that is not the space's own is used as given, not cached
        foreign = dataclasses.replace(geom, d_ab=geom.d_ab + 1.0)
        assert check(space, foreign) == oracle(space, foreign)
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
