"""Property-based invariants over random inputs and random instances."""
from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxigraph import (
    FiniteMetricGraph,
    GaugeSpec,
    apriori_bound,
    build,
    enumerate_bpps,
    iterate_orbit,
    pair_distance,
    solve_bpp,
)
from proxigraph.corpus import build_random_chain
from proxigraph.cyclic_contraction import (
    CyclicMapTable,
    check_pair,
    eval_gauge,
    kappa,
    parse_knots,
)
from proxigraph.errors import InstanceFormatError
from proxigraph.metric_graph import _coord_tuple, _float_array, _number, components

FLOOR = GaugeSpec("floor_fraction", {})


@given(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True))
@settings(max_examples=200)
def test_kappa_bracket(z):
    k = kappa(z)
    # reciprocal bracket, slack for the snap at bracket edges; k = 1 only
    # when z is 1 up to the snap width
    assert 1.0 / k <= z + 1e-9
    if k == 1:
        assert z >= 1.0 - 1e-9
    else:
        assert z <= 1.0 / (k - 1) + 1e-9


@given(st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=1e-4, max_value=5.0))
@settings(max_examples=200)
def test_floor_fraction_gauge_increases(s, gap):
    assert eval_gauge(FLOOR, s) < eval_gauge(FLOOR, s + gap)


@given(st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=200)
def test_floor_fraction_stays_below_identity(s):
    v = eval_gauge(FLOOR, s)
    assert math.floor(s) <= v <= s + 1e-12


def gauge_specs():
    return st.one_of(
        st.just(GaugeSpec("identity", {})),
        st.just(FLOOR),
        st.floats(min_value=0.1, max_value=1.0).map(
            lambda c: GaugeSpec("linear", {"c": c})),
        st.floats(min_value=0.0, max_value=2.0).map(
            lambda c: GaugeSpec("affine_shift", {"c": c})),
    )


@given(gauge_specs(), gauge_specs(),
       st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=150)
def test_rhs_collapses_at_the_floor(phi1, phi2, d_ab):
    # both residual terms vanish and the shift term returns the floor, for
    # every admissible gauge pair, not just the ones in the corpus
    sp = FiniteMetricGraph.from_coords(
        [("a", (0.0, 0.0), "A"), ("b", (d_ab, 0.0), "B")],
        metric="l1",
        edges=[("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])
    tmap = CyclicMapTable.for_space(sp, {"a": "b", "b": "a"})
    _, _, rhs = check_pair(sp, tmap, phi1, phi2, "a", "b")
    assert rhs == pytest.approx(d_ab, abs=1e-9)


@given(st.floats(min_value=0.0, max_value=0.95),
       st.floats(min_value=0.0, max_value=10.0),
       st.integers(min_value=0, max_value=30),
       st.integers(min_value=0, max_value=40))
@settings(max_examples=150)
def test_tail_bound_dominates_partial_sums(psi, d0, n, m):
    bound = apriori_bound(d0, psi, n)
    partial = sum(psi ** k * d0 for k in range(n, n + m + 1))
    assert partial <= bound + 1e-9


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_instance_is_invariant_under_point_reordering(seed):
    inst = build_random_chain(seed)
    doc = inst.space.to_dict()
    doc["points"] = list(reversed(doc["points"]))
    doc["edges"] = list(reversed(doc["edges"]))
    redo = FiniteMetricGraph.from_dict(doc)

    assert pair_distance(redo) == pair_distance(inst.space)
    remap = CyclicMapTable.for_space(redo, dict(inst.tmap.mapping))
    assert enumerate_bpps(redo, remap) == enumerate_bpps(inst.space, inst.tmap)
    assert len(components(redo)) == len(components(inst.space))


def brute_components(space: FiniteMetricGraph) -> set[frozenset[str]]:
    ids = list(space.ids)
    n = len(ids)
    pos = {p: i for i, p in enumerate(ids)}
    adj = np.eye(n, dtype=bool)
    for x, y in space.edges:
        adj[pos[x], pos[y]] = True
        adj[pos[y], pos[x]] = True
    # transitive closure by repeated squaring of the boolean relation
    while True:
        nxt = adj | (adj @ adj)
        if np.array_equal(nxt, adj):
            break
        adj = nxt
    return {frozenset(ids[j] for j in np.nonzero(row)[0]) for row in adj}


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_components_match_boolean_closure(seed):
    sp = build_random_chain(seed).space
    assert set(components(sp)) == brute_components(sp)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_orbits_descend_and_land_on_proximity_points(seed):
    inst = build_random_chain(seed)
    sp, tmap = inst.space, inst.tmap
    bpps = enumerate_bpps(sp, tmap)
    d_ab = pair_distance(sp)
    for seed_pt in sp.side_a():
        trace = iterate_orbit(sp, tmap, seed_pt)
        assert all(b <= a + 1e-12 for a, b in zip(trace.gaps, trace.gaps[1:]))
        res = solve_bpp(sp, tmap, seed_pt)
        assert res.bpp in bpps
        assert abs(res.achieved_gap - d_ab) <= 1e-9
        assert res.bpp in res.component and seed_pt in res.component


# what json.loads can give where a number is due: ints past the float range,
# floats with inf and nan, and the scalars that are no number
JSON_SCALARS = st.one_of(
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.floats(),
    st.booleans(),
    st.none(),
    st.floats().map(repr),
    st.integers().map(str),
)


@given(JSON_SCALARS)
@example(2 ** 1024 - 2 ** 971)  # the largest double
@example(2 ** 1024 - 2 ** 970)  # rounds to 2 ** 1024: too large for a float
@example(-(2 ** 1024 - 2 ** 970))
@example(2 ** 53 + 1)  # rounds to even
@settings(max_examples=400)
def test_every_reader_takes_the_same_numbers(x):
    readers = {
        "_number": lambda: [_number(x, "x")],
        "_float_array": lambda: _float_array(x, "x").ravel().tolist(),
        "_float_array_list": lambda: _float_array([[x]], "x").ravel().tolist(),
        "_coord_tuple": lambda: list(_coord_tuple("p", [x])),
        "parse_knots": lambda: [v for column in parse_knots([[x, x]], "x") for v in column],
    }
    outcomes = {}
    for name, read in readers.items():
        try:
            got = read()
        except InstanceFormatError:
            outcomes[name] = None
        else:
            assert got and all(type(v) is float for v in got), name
            outcomes[name] = {struct.pack("<d", v) for v in got}
    assert all(v == outcomes["_number"] for v in outcomes.values()), outcomes
    is_number = type(x) is float or type(x) is int and abs(x) < 2 ** 1024 - 2 ** 970
    assert (outcomes["_number"] is not None) == is_number
