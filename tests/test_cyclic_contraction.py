"""Gauges, the reciprocal-bracket index, and the contraction verifier."""
from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from proxigraph import (
    CyclicMapTable,
    FiniteMetricGraph,
    GaugeClassViolation,
    GaugeSpec,
    InstanceFormatError,
    OutOfDomain,
    PairMaps,
    SideMismatch,
    build,
    eval_gauge,
    kappa,
    kappa_total,
    pair_distance,
    verify_g_cyclic_contraction,
    verify_gauge_classes,
    verify_t2_preserves_edges,
)
from proxigraph.corpus import build_random_chain
from proxigraph.cyclic_contraction import (
    KAPPA_SNAP,
    check_pair,
    gauge_values,
    load_gauge_pair,
    load_map,
)
from proxigraph.errors import ParamOutOfRange


# ----- kappa ------------------------------------------------------------


def test_kappa_frozen_values():
    # hand arithmetic: kappa(z) = n with 1/n <= z < 1/(n-1)
    assert kappa(0.49) == 3      # 1/3 <= 0.49 < 1/2
    assert kappa(0.51) == 2      # 1/2 <= 0.51 < 1
    assert kappa(0.5) == 2       # left bracket endpoint belongs to its index
    assert kappa(0.02) == 50
    assert kappa(1.0 / 3.0) == 3
    assert kappa(0.4) == 3       # 1/3 <= 0.4 < 1/2
    assert kappa(0.75) == 2
    assert kappa(0.999) == 2


def test_kappa_snap_against_float_noise():
    # the float just below 0.02 has reciprocal 50.0000...07; without the snap
    # it would land in bracket 51
    below = np.nextafter(0.02, 0.0)
    assert 1.0 / below > 50.0
    assert kappa(float(below)) == 50
    # the difference 0.51 - 0.49 lands just above 0.02 and must still index 50
    assert kappa(0.51 - 0.49) == 50


def test_kappa_domain():
    for bad in (0.0, -0.5, 1.0, 1.5):
        with pytest.raises(OutOfDomain):
            kappa(bad)


def test_kappa_total_conventions():
    assert kappa_total(0.0) == 0
    assert kappa_total(1.0) == 1
    assert kappa_total(0.5) == 2
    assert kappa_total(1e-15) == 0   # inside the snap width of 0


# ----- gauges -----------------------------------------------------------


def test_floor_fraction_frozen_values():
    g = GaugeSpec("floor_fraction")
    assert eval_gauge(g, 1.02) == pytest.approx(1.0004, abs=1e-15)
    assert eval_gauge(g, 0.49) == pytest.approx(0.49 / 3.0, abs=1e-15)
    assert eval_gauge(g, 0.75) == pytest.approx(0.375, abs=1e-15)
    assert eval_gauge(g, 2.0) == 2.0
    assert eval_gauge(g, 0.0) == 0.0


def test_floor_fraction_jumps_up_at_bracket_edges():
    g = GaugeSpec("floor_fraction")
    # just below 1/3 the index is 4, at 1/3 it is 3; the value jumps upward
    below = 1.0 / 3.0 - 1e-9
    assert eval_gauge(g, below) < eval_gauge(g, 1.0 / 3.0)


def test_gauge_kinds_and_validation():
    assert eval_gauge(GaugeSpec("linear", {"c": 0.5}), 3.0) == 1.5
    assert eval_gauge(GaugeSpec("affine_shift", {"c": 0.25}), 3.0) == 3.25
    assert eval_gauge(GaugeSpec("identity"), 3.0) == 3.0
    table = GaugeSpec("table", {"knots": [(0.0, 0.0), (1.0, 0.5), (2.0, 1.5)]})
    assert eval_gauge(table, 0.5) == 0.25
    assert eval_gauge(table, 1.5) == 1.0
    assert eval_gauge(table, 3.0) == 2.5    # linear extension past the last knot
    with pytest.raises(OutOfDomain):
        eval_gauge(table, -0.1)
    with pytest.raises(InstanceFormatError):
        GaugeSpec("linear", {"c": 0.0})
    with pytest.raises(InstanceFormatError):
        GaugeSpec("linear", {"c": 1.2})
    with pytest.raises(InstanceFormatError):
        GaugeSpec("affine_shift", {"c": -1.0})
    with pytest.raises(InstanceFormatError):
        GaugeSpec("table", {"knots": [(1.0, 0.0), (0.0, 1.0)]})
    with pytest.raises(InstanceFormatError):
        GaugeSpec("cubic")


def test_gauge_class_check():
    phi1 = GaugeSpec("linear", {"c": 0.5})
    phi2 = GaugeSpec("affine_shift", {"c": 0.25})
    assert bool(verify_gauge_classes(phi1, phi2, [0.0, 0.5, 1.0, 2.0]))
    flat = GaugeSpec("table", {"knots": [(0.0, 1.0), (1.0, 1.0)]})
    res = verify_gauge_classes(flat, phi2, [0.0, 0.5, 1.0])
    assert not res and res.witness[0] == "phi1 not increasing"
    shrinking = GaugeSpec("table", {"knots": [(0.0, 1.0), (10.0, 2.0)]})
    res = verify_gauge_classes(phi1, shrinking, [0.0, 5.0, 10.0])
    assert not res and res.witness[0] == "phi2 - I decreasing"


def test_gauge_class_check_clusters_float_twins():
    # two grid values one ulp apart are one distance, not a monotonicity probe
    phi1 = GaugeSpec("floor_fraction")
    base = 1.0 + 1.0 / 24.0
    twin = np.nextafter(base, 0.0)
    grid = [1.0, twin, base, 2.0]
    assert bool(verify_gauge_classes(phi1, GaugeSpec("identity"), grid))


# ----- map tables -------------------------------------------------------


def two_pair_space():
    pts = [("a0", (0.0, 0.0), "A"), ("a1", (0.0, 1.0), "A"),
           ("b0", (1.0, 0.0), "B"), ("b1", (1.0, 1.0), "B")]
    edges = [("a0", "b0"), ("b0", "a0"), ("a1", "b1"), ("b1", "a1")]
    return FiniteMetricGraph.from_coords(pts, metric="l1", edges=edges)


def test_map_table_validation():
    sp = two_pair_space()
    good = CyclicMapTable.for_space(sp, {"a0": "b0", "a1": "b0",
                                         "b0": "a0", "b1": "a0"})
    assert good("a1") == "b0" and good.twice("a1") == "a0"
    with pytest.raises(InstanceFormatError):   # not total
        CyclicMapTable.for_space(sp, {"a0": "b0"})
    with pytest.raises(SideMismatch):          # A -> A is not cyclic
        CyclicMapTable.for_space(sp, {"a0": "a1", "a1": "b1",
                                      "b0": "a0", "b1": "a1"})
    with pytest.raises(SideMismatch):          # nor is B -> B
        CyclicMapTable.for_space(sp, {"a0": "b0", "a1": "b1",
                                      "b0": "b1", "b1": "a1"})
    with pytest.raises(InstanceFormatError, match="unknown point"):  # image is no point
        CyclicMapTable.for_space(sp, {"a0": "b9", "a1": "b0",
                                      "b0": "a0", "b1": "a0"})
    with pytest.raises(InstanceFormatError, match="entry for 'a9', which is no point"):
        CyclicMapTable.for_space(sp, {"a0": "b0", "a1": "b0", "a9": "b0",
                                      "b0": "a0", "b1": "a0"})


@pytest.mark.parametrize("given", [dict, list], ids=["mapping", "pairs"])
def test_map_tables_refuse_a_point_named_twice(given):
    # the id rule reads the keys 0 and "0" as one point, as it does 2 and "2";
    # the least such id is named
    sp = FiniteMetricGraph.from_coords([(0, (0.0,), "A"), (1, (1.0,), "B"), (2, (2.0,), "A")],
                                       metric="l1")
    table = given({2: 1, "2": 1, 0: 1, "0": 1, 1: 0}.items())
    with pytest.raises(InstanceFormatError, match="^T has two entries for '0'$"):
        CyclicMapTable.for_space(sp, table)
    with pytest.raises(InstanceFormatError, match="^t1 has two entries for '0'$"):
        PairMaps.for_space(sp, given({2: 1, "0": 1, 0: 1}.items()), {1: 0})
    with pytest.raises(InstanceFormatError, match="^t2 has two entries for '1'$"):
        PairMaps.for_space(sp, {0: 1, 2: 1}, given({"1": 0, 1: 2}.items()))


def test_maps_read_their_ids_by_the_space_rule():
    # the integer ids 0 and 1 are the points "0" and "1", in a map as in the space
    sp = FiniteMetricGraph.from_coords([(0, (0.0,), "A"), (1, (1.0,), "B")], metric="l1")
    tmap = CyclicMapTable.for_space(sp, {0: 1, 1: np.int64(0)})
    assert dict(tmap.mapping) == {"0": "1", "1": "0"}
    pair = PairMaps.for_space(sp, {0: 1}, {"1": 0})
    assert dict(pair.t1) == {"0": "1"} and dict(pair.t2) == {"1": "0"}
    for value in (None, True, 1.0, ["1"]):
        message = re.escape(f"a point id must be a string or an integer, got {value!r}")
        with pytest.raises(InstanceFormatError, match=message):
            CyclicMapTable.for_space(sp, {0: value, 1: 0})
        with pytest.raises(InstanceFormatError, match=message):
            PairMaps.for_space(sp, {0: 1}, {1: value})
    with pytest.raises(InstanceFormatError, match="got None"):
        CyclicMapTable.for_space(sp, {None: 1, 1: 0})


def m_through_check_pair(sp, tmap, x, y):
    """m(x, y) read off check_pair's rhs: with phi1 = I the d(x, y) term is 0,
    and with phi2 = s / 2 the rhs is m / 2 + d(A, B) / 2."""
    _, _, rhs = check_pair(sp, tmap, GaugeSpec("identity"),
                           GaugeSpec("linear", {"c": 0.5}), x, y)
    return 2.0 * rhs - pair_distance(sp)


def test_m_value_and_sides():
    sp = two_pair_space()
    tmap = CyclicMapTable.for_space(sp, {"a0": "b0", "a1": "b1",
                                         "b0": "a0", "b1": "a1"})
    # m = max(d(a1, T a1), d(b0, T b0)) = max(1, 1) = 1
    assert m_through_check_pair(sp, tmap, "a1", "b0") == 1.0
    with pytest.raises(SideMismatch):
        m_through_check_pair(sp, tmap, "b0", "a1")
    with pytest.raises(SideMismatch):
        m_through_check_pair(sp, tmap, "a0", "a1")


def test_t2_edge_preservation():
    pts = [("a0", (0.0, 0.0), "A"), ("a1", (0.0, 1.0), "A"),
           ("b0", (1.0, 0.0), "B"), ("b1", (1.0, 1.0), "B")]
    # one directed A-edge; the squared map must keep it an edge
    sp = FiniteMetricGraph.from_coords(pts, metric="l1", edges=[("a0", "a1")])
    keeps = CyclicMapTable.for_space(sp, {"a0": "b0", "a1": "b1",
                                          "b0": "a0", "b1": "a1"})
    assert bool(verify_t2_preserves_edges(sp, keeps))
    # cross the orbits: squared map swaps a0 and a1, reversing the edge
    swaps = CyclicMapTable.for_space(sp, {"a0": "b1", "a1": "b0",
                                          "b0": "a0", "b1": "a1"})
    res = verify_t2_preserves_edges(sp, swaps)
    assert not res and res.witness == ("a0", "a1", "a1", "a0")


# ----- contraction bound ------------------------------------------------


def test_rhs_collapses_to_d_ab_at_the_floor():
    # (a0, b0) sits at d = m = d(A, B), where the bound must reduce to d(A, B)
    # itself for every admissible gauge pair
    sp = two_pair_space()
    tmap = CyclicMapTable.for_space(sp, {"a0": "b0", "a1": "b1",
                                         "b0": "a0", "b1": "a1"})
    d_ab = pair_distance(sp)
    assert sp.d("a0", "b0") == d_ab
    assert m_through_check_pair(sp, tmap, "a0", "b0") == d_ab
    pairs = [(GaugeSpec("linear", {"c": 0.5}), GaugeSpec("identity")),
             (GaugeSpec("floor_fraction"), GaugeSpec("identity")),
             (GaugeSpec("linear", {"c": 0.9}),
              GaugeSpec("affine_shift", {"c": 0.3})),
             (GaugeSpec("identity"), GaugeSpec("identity"))]
    for phi1, phi2 in pairs:
        _, _, rhs = check_pair(sp, tmap, phi1, phi2, "a0", "b0")
        assert rhs == pytest.approx(d_ab, abs=1e-12)


def eligible_pairs(space, tmap):
    """The pairs the sweep checks: with tol = -inf every checked pair is
    reported as a violation, so the violations list them all."""
    rep = verify_g_cyclic_contraction(space, tmap, GaugeSpec("linear", {"c": 0.5}),
                                      GaugeSpec("identity"), tol=-math.inf)
    assert rep.checked_pairs == len(rep.violations)
    return {(x, y) for x, y, _, _ in rep.violations}


def test_eligibility_routes():
    pts = [("a0", (0.0, 0.0), "A"), ("a1", (0.0, 1.0), "A"),
           ("b0", (1.0, 0.0), "B"), ("b1", (1.0, 1.0), "B")]
    tm = {"a0": "b0", "a1": "b1", "b0": "a0", "b1": "a1"}

    direct = FiniteMetricGraph.from_coords(pts, metric="l1", edges=[("a0", "b1")])
    tmap = CyclicMapTable.for_space(direct, tm)
    assert ("a0", "b1") in eligible_pairs(direct, tmap)

    # (x, Ty): T b1 = a1, so the edge (a0, a1) makes (a0, b1) eligible
    via_image = FiniteMetricGraph.from_coords(pts, metric="l1", edges=[("a0", "a1")])
    tmap = CyclicMapTable.for_space(via_image, tm)
    assert ("a0", "b1") in eligible_pairs(via_image, tmap)

    # (Ty, x) reversed
    via_rev = FiniteMetricGraph.from_coords(pts, metric="l1", edges=[("a1", "a0")])
    tmap = CyclicMapTable.for_space(via_rev, tm)
    assert ("a0", "b1") in eligible_pairs(via_rev, tmap)

    bare = FiniteMetricGraph.from_coords(pts, metric="l1")
    tmap = CyclicMapTable.for_space(bare, tm)
    assert ("a0", "b1") not in eligible_pairs(bare, tmap)


def test_probe_pair_frozen_arithmetic():
    inst = build("ex22_kappa", N=8)
    sp, tm = inst.space, inst.tmap
    lhs = sp.d(tm("f_49/100"), tm("g_51/100"))
    assert abs(lhs - (1.0 + 1.0 / 6.0)) <= 1e-12
    assert abs(sp.d("f_49/100", "g_51/100") - 1.02) <= 1e-12
    # the bound the probe pair would need: 1.02 - phi1(1.02) + 1 = 1.0196
    _, _, rhs = check_pair(sp, tm, inst.phi1, inst.phi2, "f_49/100", "g_51/100")
    assert rhs == pytest.approx(1.0196, abs=1e-12)
    assert lhs > rhs


def test_verifier_edge_restricted_vs_all_pairs():
    inst = build("ex22_kappa", N=8)
    rep = verify_g_cyclic_contraction(inst.space, inst.tmap, inst.phi1, inst.phi2)
    assert rep.holds and not rep.violations
    assert rep.maps_a0_into_b0
    assert rep and rep.witness is None
    rep_all = verify_g_cyclic_contraction(inst.space, inst.tmap,
                                          inst.phi1, inst.phi2, all_pairs=True)
    assert not rep_all.holds
    probe = [(x, y) for x, y, _, _ in rep_all.violations]
    assert ("f_49/100", "g_51/100") in probe
    assert not rep_all and rep_all.witness == rep_all.violations[0]


def test_sweep_refuses_a_nan_tol():
    # lhs > rhs + nan is never true, so the sweep would report no violation
    inst = build("ex22_kappa", N=8)
    with pytest.raises(ParamOutOfRange, match="NaN"):
        verify_g_cyclic_contraction(inst.space, inst.tmap, inst.phi1, inst.phi2,
                                    tol=float("nan"), all_pairs=True)


def test_a0_pair_is_the_witness_when_no_pair_violates():
    # d(A, B) = 2 at (a0, b2) and (a1, b1); T sends a1 to b0, outside B0, while
    # the three eligible pairs (loops only) meet the bound 0.95 d(x, y) + 0.1
    sp = FiniteMetricGraph.from_coords(
        [("a0", (1, 0), "A"), ("a1", (2, 0), "A"), ("a2", (0, 0), "A"),
         ("b0", (3, 2), "B"), ("b1", (3, 1), "B"), ("b2", (1, 2), "B")], metric="l1")
    tmap = CyclicMapTable.for_space(sp, {"a0": "b2", "a1": "b0", "a2": "b2",
                                         "b0": "a2", "b1": "a0", "b2": "a0"})
    rep = verify_g_cyclic_contraction(sp, tmap, GaugeSpec("linear", {"c": 0.05}),
                                      GaugeSpec("identity"))
    assert (rep.checked_pairs, rep.violations, rep.maps_a0_into_b0) == (3, (), False)
    assert not rep and rep.witness == rep.a0_witness == ("a1", "b0")


def replay_case(name):
    if name != "asymmetric_gaps":
        inst = build(name)
        return inst.space, inst.tmap, inst.phi1, inst.phi2
    # orbit gaps 1 on A and 2 on B, and phi2(s) = 2s, so m(x, y) = d(y, Ty)
    # and the m-term of the bound does not cancel
    sp = two_pair_space()
    tmap = CyclicMapTable.for_space(sp, {"a0": "b0", "a1": "b1", "b0": "a1", "b1": "a0"})
    phi2 = GaugeSpec("table", {"knots": [[0, 0], [1, 2]]})
    return sp, tmap, GaugeSpec("linear", {"c": 0.5}), phi2


@pytest.mark.parametrize("name", ["ex22_kappa", "ex33_dyadic_l1", "ex35_not_bpo",
                                  "asymmetric_gaps"])
def test_every_checked_pair_replays_bit_for_bit(name):
    # with tol = -inf the sweep reports every pair it checks, with its terms
    sp, tmap, phi1, phi2 = replay_case(name)
    rep = verify_g_cyclic_contraction(sp, tmap, phi1, phi2, tol=-math.inf, all_pairs=True)
    assert len(rep.violations) == len(sp.side_a()) * len(sp.side_b())
    for x, y, lhs, rhs in rep.violations:
        assert check_pair(sp, tmap, phi1, phi2, x, y)[1:] == (lhs, rhs)


def test_violations_replay_through_check_pair():
    inst = build("ex22_kappa", N=8)
    rep = verify_g_cyclic_contraction(inst.space, inst.tmap,
                                      inst.phi1, inst.phi2, all_pairs=True)
    for x, y, lhs, rhs in rep.violations[:10]:
        ok, lhs2, rhs2 = check_pair(inst.space, inst.tmap,
                                    inst.phi1, inst.phi2, x, y)
        assert not ok
        assert lhs2 == lhs and rhs2 == rhs


def test_bad_gauge_class_refused():
    inst = build("ex22_kappa", N=8)
    flat = GaugeSpec("table", {"knots": [(0.0, 1.0), (5.0, 1.0)]})
    with pytest.raises(GaugeClassViolation):
        verify_g_cyclic_contraction(inst.space, inst.tmap, flat, inst.phi2)


def test_strict_inequality_mode():
    # the dyadic instance achieves exact equality on interior pairs, so with
    # zero slack those pairs flip to violations
    inst = build("ex33_dyadic_l1", depth=4)
    rep = verify_g_cyclic_contraction(inst.space, inst.tmap,
                                      inst.phi1, inst.phi2, tol=0.0)
    loose = verify_g_cyclic_contraction(inst.space, inst.tmap,
                                        inst.phi1, inst.phi2)
    assert len(rep.violations) >= len(loose.violations)


# ----- file loaders -----------------------------------------------------


def test_load_gauge_pair_and_map(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({
        "schema": "1",
        "phi1": {"kind": "linear", "params": {"c": 0.5}},
        "phi2": {"kind": "identity"},
    }))
    phi1, phi2 = load_gauge_pair(gpath)
    assert phi1.kind == "linear" and phi2.kind == "identity"

    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({
        "schema": "1",
        "map": {"a0": "b0", "b0": "a0"},
    }))
    assert load_map(mpath)["a0"] == "b0"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "1", "phi1": {"kind": "linear",
                                                       "params": {"c": 0.5}}}))
    with pytest.raises(InstanceFormatError):
        load_gauge_pair(bad)


# ----- table lookup and parameter parsing ---------------------------------


def scan_lookup(knots, s):
    """The table-gauge lookup as a linear scan over freshly converted knots."""
    ss = [float(a) for a, _ in knots]
    vv = [float(b) for _, b in knots]
    if s <= ss[0]:
        lo, hi = 0, 1
    elif s >= ss[-1]:
        lo, hi = len(ss) - 2, len(ss) - 1
    else:
        hi = next(i for i, a in enumerate(ss) if a >= s)
        lo = hi - 1
    t = (s - ss[lo]) / (ss[hi] - ss[lo])
    return vv[lo] + t * (vv[hi] - vv[lo])


def probe_points(ss):
    """The knots, the midpoints between them, and points beyond both ends."""
    ss = np.asarray(ss)
    mids = (ss[:-1] + ss[1:]) / 2
    return np.concatenate([ss, mids, [0.0, ss[0] / 2, ss[-1] + 1.0, ss[-1] * 4.0]]).tolist()


@pytest.mark.parametrize("seed", range(5))
def test_table_gauge_matches_interp_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    ss = np.sort(rng.choice(np.arange(1, 60), size=n, replace=False)) / 7.0
    vs = np.cumsum(rng.uniform(0.05, 1.0, size=n))
    knots = [[float(a), float(b)] for a, b in zip(ss, vs)]
    g = GaugeSpec("table", {"knots": knots})
    for s in probe_points(ss):
        got = eval_gauge(g, s)
        if ss[0] <= s <= ss[-1]:
            want = float(np.interp(s, ss, vs))
        else:  # beyond either end the end segment is extended
            lo = 0 if s < ss[0] else n - 2
            want = vs[lo] + (s - ss[lo]) * (vs[lo + 1] - vs[lo]) / (ss[lo + 1] - ss[lo])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert got == scan_lookup(knots, s)  # bit for bit


@pytest.mark.parametrize("params, match", [
    ({"c": "x"}, "number"),
    ({"c": [0.5]}, "number"),
])
def test_linear_gauge_rejects_non_numbers(params, match):
    with pytest.raises(InstanceFormatError, match=match):
        GaugeSpec("linear", params)
    with pytest.raises(InstanceFormatError, match=match):
        GaugeSpec("affine_shift", params)


@pytest.mark.parametrize("knots", [
    [[0.0, 0.0], [1.0]],
    [[0.0, 0.0], [1.0, 1.0, 2.0]],
    [[0.0, 0.0], ["one", 1.0]],
    [[0.0, 0.0], 1.0],
    5,
    [[0.0, 0.0], [1.0, True]],
    [[False, 0.0], [1.0, 1.0]],
])
def test_table_gauge_rejects_malformed_knots(knots):
    with pytest.raises(InstanceFormatError, match="knots"):
        GaugeSpec("table", {"knots": knots})


@pytest.mark.parametrize("knots", [
    [[0.0, 0.0], [1.0, math.nan], [5.0, 5.0]],
    [[0.0, 0.0], [math.nan, 1.0], [5.0, 5.0]],
    [[0.0, 0.0], [1.0, math.inf]],
    [[0.0, 0.0], [math.inf, 1.0]],
    [[-math.inf, 0.0], [1.0, 1.0]],
], ids=["nan_value", "nan_s", "inf_value", "inf_s", "minus_inf_s"])
def test_table_gauge_refuses_knots_that_are_not_finite(knots):
    with pytest.raises(InstanceFormatError, match="table gauge knots must be finite numbers"):
        GaugeSpec("table", {"knots": knots})


def test_gauge_params_must_be_an_object():
    with pytest.raises(InstanceFormatError, match="params"):
        GaugeSpec.from_dict({"kind": "linear", "params": [0.5]})


# ----- the array sweep against its scalar references --------------------


def near_bracket_edges():
    """The bracket edges 1/n, and values within and just beyond KAPPA_SNAP of them."""
    out = []
    for n in (2, 3, 7, 49, 50, 1000):
        for d in (0.0, 0.5 * KAPPA_SNAP, KAPPA_SNAP, 2.0 * KAPPA_SNAP):
            out += [1.0 / n - d, 1.0 / n + d]
    return out


TABLE_KNOTS = [[0.5, 0.2], [1.0, 0.7], [1.75, 1.0], [3.0, 2.5]]
GAUGE_PROBES = {
    "linear": GaugeSpec("linear", {"c": 0.3}),
    "affine_shift": GaugeSpec("affine_shift", {"c": 0.25}),
    "identity": GaugeSpec("identity"),
    "floor_fraction": GaugeSpec("floor_fraction"),
    "table": GaugeSpec("table", {"knots": TABLE_KNOTS}),
}


def probe_values(kind):
    rng = np.random.default_rng(7)
    common = [0.0, 1.0, 2.0, 7.0, 0.02, 1.02, 2.02, 0.1 + 0.2, 5e-324, 1e300]
    common += near_bracket_edges() + [k + v for k in (1.0, 3.0) for v in near_bracket_edges()]
    common += rng.uniform(0.0, 4.0, 200).tolist()
    if kind == "floor_fraction":
        z = 1.0 / 49.0
        common += [z, float(np.nextafter(z, 0.0)), float(np.nextafter(z, 1.0)),
                   float(np.nextafter(0.02, 0.0)), 0.51 - 0.49]
    if kind == "table":
        ss = [s for s, _ in TABLE_KNOTS]
        common += ss + [float(np.nextafter(s, d)) for s in ss for d in (0.0, 9.0)]
        common += [0.25, 0.49, 3.5, 10.0]  # below the first knot and past the last
    return common


@pytest.mark.parametrize("kind", sorted(GAUGE_PROBES))
def test_gauge_values_match_eval_gauge_bit_for_bit(kind):
    g = GAUGE_PROBES[kind]
    probes = probe_values(kind)
    got = gauge_values(g, np.array(probes))
    assert [v.hex() for v in got.tolist()] == [eval_gauge(g, s).hex() for s in probes]
    with pytest.raises(OutOfDomain):
        gauge_values(g, np.array([0.0, -0.1]))


def scalar_kappa(z):
    """kappa by Python's round and math.ceil, one number at a time."""
    recip = 1.0 / z
    near = round(recip)
    if near >= 1 and abs(z - 1.0 / near) <= KAPPA_SNAP:
        return int(near)
    return int(math.ceil(recip))


def scalar_gauge(gauge, s):
    """A gauge at one number by the scalar formulas: math.floor, scalar_kappa,
    and scan_lookup for a table, each reading the spec's own params."""
    if gauge.kind == "linear":
        return float(gauge.params["c"]) * s
    if gauge.kind == "affine_shift":
        return float(gauge.params["c"]) + s
    if gauge.kind == "identity":
        return s
    if gauge.kind == "floor_fraction":
        fl = math.floor(s)
        frac = s - fl
        if frac <= KAPPA_SNAP:
            return float(fl)
        return float(fl) + frac / scalar_kappa(frac)
    return scan_lookup(gauge.params["knots"], s)


@pytest.mark.parametrize("kind", sorted(GAUGE_PROBES))
def test_gauge_values_match_the_scalar_formulas_hex_for_hex(kind):
    g = GAUGE_PROBES[kind]
    probes = probe_values(kind)
    want = [scalar_gauge(g, s).hex() for s in probes]
    assert [v.hex() for v in gauge_values(g, np.array(probes)).tolist()] == want
    assert [eval_gauge(g, s).hex() for s in probes] == want


def test_kappa_matches_the_scalar_rule():
    rng = np.random.default_rng(3)
    zs = [z for z in near_bracket_edges() if 0.0 < z < 1.0] + rng.uniform(0.0, 1.0, 500).tolist()
    assert [kappa(z) for z in zs] == [scalar_kappa(z) for z in zs]


@pytest.mark.parametrize("bad", [math.inf, math.nan, -0.1])
@pytest.mark.parametrize("kind", sorted(GAUGE_PROBES))
def test_gauges_are_defined_on_finite_non_negative_numbers(kind, bad):
    g = GAUGE_PROBES[kind]
    message = re.escape(f"gauges are defined on [0, inf), got {bad}")
    with pytest.raises(OutOfDomain, match=message):
        eval_gauge(g, bad)
    with pytest.raises(OutOfDomain, match=message):
        gauge_values(g, np.array([0.5, bad, 2.0]))


def test_gauge_values_take_a_number_or_any_array():
    g = GAUGE_PROBES["table"]
    assert gauge_values(g, 0.75).shape == (1,)
    assert gauge_values(g, np.array(0.75)).tolist() == [eval_gauge(g, 0.75)]
    assert gauge_values(g, [[1, 3]]).tolist() == [[0.7, 2.5]]
    assert gauge_values(g, np.array([], dtype=float)).shape == (0,)
    s = np.array([0.25, 1.5])
    s.flags.writeable = False
    assert gauge_values(GaugeSpec("identity"), s).flags.writeable  # a fresh output


def test_table_knots_are_stored_once_read_only():
    ss, vs = GAUGE_PROBES["table"]._knots
    assert ss.tolist() == [s for s, _ in TABLE_KNOTS] and vs.tolist() == [v for _, v in TABLE_KNOTS]
    with pytest.raises(ValueError):
        ss[0] = 0.0


def scalar_gauge_classes(phi1, phi2, grid):
    """verify_gauge_classes one neighbouring pair at a time through eval_gauge."""
    values = []
    for s in sorted(set(float(s) for s in grid)):
        if not values or s - values[-1] > KAPPA_SNAP:
            values.append(s)
    for lo, hi in zip(values, values[1:]):
        if not eval_gauge(phi1, hi) > eval_gauge(phi1, lo):
            return False, ("phi1 not increasing", lo, hi)
        if eval_gauge(phi2, hi) - hi < eval_gauge(phi2, lo) - lo - KAPPA_SNAP:
            return False, ("phi2 - I decreasing", lo, hi)
    return True, None


@pytest.mark.parametrize("seed", range(6))
def test_gauge_classes_match_the_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    grid = rng.uniform(0.0, 3.0, 300)
    # float twins and near twins of grid values, and the bracket edges
    grid = np.concatenate([grid, grid[:40] + rng.choice([0.3, 2.0], 40) * KAPPA_SNAP,
                           near_bracket_edges()])
    gauges = list(GAUGE_PROBES.values()) + [
        GaugeSpec("table", {"knots": [[0.0, 1.0], [1.5, 1.0], [3.0, 2.0]]}),  # flat
        GaugeSpec("table", {"knots": [[0.0, 0.0], [1.0, 1.5], [3.0, 1.6]]}),  # phi - I falls
    ]
    for phi1 in gauges:
        for phi2 in gauges:
            want = scalar_gauge_classes(phi1, phi2, grid.tolist())
            for form in (grid, set(grid.tolist()), grid.tolist()):
                got = verify_gauge_classes(phi1, phi2, form)
                assert (got.ok, got.witness) == want


def scalar_sweep(space, tmap, phi1, phi2, tol, all_pairs):
    """The sweep one pair at a time: eligibility from the edge set, and each
    pair's verdict and terms from check_pair."""
    checked, violations = 0, []
    for x in sorted(space.side_a()):
        for y in sorted(space.side_b()):
            ty = tmap(y)
            if (all_pairs or space.has_edge(x, y) or space.has_edge(x, ty)
                    or space.has_edge(ty, x)):
                checked += 1
                ok, lhs, rhs = check_pair(space, tmap, phi1, phi2, x, y, tol)
                if not ok:
                    violations.append((x, y, lhs.hex(), rhs.hex()))
    return checked, violations


SWEEP_CASES = [f"chain_{seed}" for seed in range(6)] + [
    "ex22_kappa", "ex33_dyadic_l1", "ex35_not_bpo"]


@pytest.mark.parametrize("tol", [0.0, 1e-9, -math.inf])
@pytest.mark.parametrize("all_pairs", [False, True])
@pytest.mark.parametrize("case", SWEEP_CASES)
def test_array_sweep_matches_a_scalar_check_pair_pass(case, all_pairs, tol):
    if case.startswith("chain_"):
        inst = build_random_chain(int(case[len("chain_"):]))
    else:
        inst = build(case)
    args = (inst.space, inst.tmap, inst.phi1, inst.phi2)
    rep = verify_g_cyclic_contraction(*args, tol=tol, all_pairs=all_pairs)
    got = [(x, y, lhs.hex(), rhs.hex()) for x, y, lhs, rhs in rep.violations]
    assert (rep.checked_pairs, got) == scalar_sweep(*args, tol, all_pairs)
