"""Rate gauges, the common-fixed-point solver, and the uniqueness regime."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from proxigraph import (
    FiniteMetricGraph,
    HypothesisViolated,
    GaugeSpec,
    PairMaps,
    PsiGauge,
    apriori_bound,
    build,
    check_property_star,
    check_uniqueness_regime,
    eval_gauge,
    psi_from_phi,
    solve_common_fixed_point,
    verify_g_cyclic_contraction,
    verify_g_psi_contraction,
)
from proxigraph.cyclic_contraction import CyclicMapTable
from proxigraph.fixed_point import residual
from proxigraph.errors import (
    InstanceFormatError,
    InvalidPsi,
    NoConvergence,
    OutOfDomain,
    ParamOutOfRange,
    SeedNotEligible,
    SideMismatch,
    UnknownField,
)


def test_psi_validation():
    with pytest.raises(InvalidPsi):
        PsiGauge.constant(1.0)
    with pytest.raises(InvalidPsi):
        PsiGauge.constant(-0.1)
    with pytest.raises(InvalidPsi):
        PsiGauge("table", {"knots": [(0.0, 0.5), (1.0, 0.3)]})
    with pytest.raises(InvalidPsi):
        PsiGauge("table", {"knots": [(1.0, 0.2), (0.5, 0.4)]})
    with pytest.raises(InvalidPsi):
        PsiGauge("table", {"knots": [(0.0, 0.5), (1.0, 1.0)]})
    with pytest.raises(InvalidPsi):
        PsiGauge.constant(0.5)(-1.0)


def test_psi_spec_fields_warn_and_strict_rejects_them():
    spec = {"kind": "constant", "params": {"value": 0.5}, "colour": 1}
    with pytest.warns(UnknownField,
                      match=r"unknown constant psi parameter field\(s\): \['colour'\]"):
        assert PsiGauge.from_dict(spec)(1.0) == 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnknownField)
        with pytest.raises(UnknownField):
            PsiGauge.from_dict(spec)


def test_psi_table_interpolation_and_clamps():
    psi = PsiGauge("table", {"knots": [(1.0, 0.2), (3.0, 0.6)]})
    assert psi(2.0) == pytest.approx(0.4)
    assert psi(0.5) == 0.2
    assert psi(10.0) == 0.6
    assert psi(1.0) == 0.2


def test_rate_conversion_of_a_linear_gauge():
    phi = GaugeSpec("linear", {"c": 0.5})
    psi = psi_from_phi(phi, 0.0, [0.1, 1.0, 7.0])
    for s in (0.05, 0.1, 1.0, 7.0, 50.0):
        assert psi(s) == pytest.approx(0.5, abs=1e-12)


def test_rate_conversion_rejects_decreasing_rates():
    # bracket-jump gauge: rate 2/3 at 0.4 but only 1/2 at 0.75
    phi = GaugeSpec("floor_fraction", {})
    with pytest.raises(InvalidPsi, match="non-decreasing"):
        psi_from_phi(phi, 0.0, [0.4, 0.75])
    # away from a zero floor the linear gauge converts to a decreasing rate
    with pytest.raises(InvalidPsi, match="non-decreasing"):
        psi_from_phi(GaugeSpec("linear", {"c": 0.5}), 1.0, [2.0, 4.0])


def test_rate_conversion_rejects_rates_leaving_unit_interval():
    steep = GaugeSpec("table", {"knots": [(0.0, 0.0), (1.0, 2.0)]})
    with pytest.raises(InvalidPsi, match="leaves"):
        psi_from_phi(steep, 0.0, [0.5, 1.0])


def scalar_psi(knots, s):
    """A table psi at one number: clamped at both ends, and between them on
    the segment that ends at the first knot >= s, found by a linear scan."""
    ss = [float(a) for a, _ in knots]
    vs = [float(b) for _, b in knots]
    if s <= ss[0]:
        return vs[0]
    if s >= ss[-1]:
        return vs[-1]
    hi = next(i for i, a in enumerate(ss) if a >= s)
    t = (s - ss[hi - 1]) / (ss[hi] - ss[hi - 1])
    return vs[hi - 1] + t * (vs[hi] - vs[hi - 1])


PSI_TABLES = {
    "one_knot": [[1.0, 0.3]],
    "last_knot_lerp_is_off": [[1.0, 0.1], [2.0, 0.45]],
    "repeated_first_s": [[1.0, 0.2], [1.0, 0.4], [2.0, 0.6]],
    "repeated_inner_s": [[0.0, 0.1], [1.0, 0.2], [1.0, 0.4], [2.0, 0.6]],
    "repeated_last_s": [[0.0, 0.1], [2.0, 0.4], [2.0, 0.6]],
}


@pytest.mark.parametrize("name", sorted(PSI_TABLES))
def test_psi_table_matches_the_scalar_clamped_lookup(name):
    knots = PSI_TABLES[name]
    psi = PsiGauge("table", {"knots": knots})
    ss = sorted({s for s, _ in knots})
    probes = ss + [(a + b) / 2 for a, b in zip(ss, ss[1:])] + [0.0, 0.5 * ss[0], ss[-1] + 1.0]
    probes += [float(np.nextafter(s, d)) for s in ss for d in (0.0, 9.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by a segment of zero length
        got = [psi(s) for s in probes]
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [scalar_psi(knots, s).hex() for s in probes]


def test_psi_gives_the_last_knot_value_exactly():
    psi = PsiGauge("table", {"knots": PSI_TABLES["last_knot_lerp_is_off"]})
    # the end segment's own formula at its end knot is one ulp off
    assert 0.1 + 1.0 * (0.45 - 0.1) != 0.45
    assert (psi(1.0), psi(2.0), psi(9.0)) == (0.1, 0.45, 0.45)
    ss, vs = psi._knots
    assert (ss.tolist(), vs.tolist()) == ([1.0, 2.0], [0.1, 0.45])
    with pytest.raises(ValueError):  # stored once, read-only
        vs[0] = 0.0


def per_t_psi_from_phi(phi, d_ab, grid):
    """psi_from_phi's knots, or its error, by a loop over t through eval_gauge."""
    values = sorted(set(float(t) for t in grid if t > d_ab))
    if not values:
        return "conversion grid needs at least one value above d_ab"
    base = eval_gauge(phi, d_ab)
    knots = []
    for t in values:
        rate = 1.0 - (eval_gauge(phi, t) - base) / t
        if not 0.0 <= rate < 1.0:
            return f"converted rate {rate} at t={t} leaves [0, 1)"
        knots.append((t, rate))
    if any(b < a - 1e-12 for (_, a), (_, b) in zip(knots, knots[1:])):
        return "converted rate is not non-decreasing on the grid"
    fixed, prev = [], 0.0
    for t, rate in knots:
        prev = max(prev, rate)
        fixed.append((t, prev))
    return [(t.hex(), rate.hex()) for t, rate in fixed]


def converted(phi, d_ab, grid):
    """psi_from_phi's knots as hex pairs, or its error message."""
    try:
        psi = psi_from_phi(phi, d_ab, grid)
    except InvalidPsi as exc:
        return str(exc)
    if psi.kind == "constant":
        return [(min(t for t in grid if t > d_ab).hex(), psi.params["value"].hex())]
    knots = psi.params["knots"]
    assert type(knots) is list and all(type(k) is tuple for k in knots)
    return [(t.hex(), rate.hex()) for t, rate in knots]


PHI_PROBES = [GaugeSpec("linear", {"c": 0.3}), GaugeSpec("floor_fraction"),
              GaugeSpec("identity"), GaugeSpec("affine_shift", {"c": 0.25}),
              GaugeSpec("table", {"knots": [[0.0, 0.0], [1.0, 0.2], [2.0, 0.5], [4.0, 1.5]]})]


@pytest.mark.parametrize("seed", range(4))
def test_psi_from_phi_matches_the_per_t_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for phi in PHI_PROBES:
        for d_ab in (0.0, 0.25, 1.0):
            for n in (1, 2, 5, 40):
                grid = [d_ab] + rng.uniform(0.0, 4.0, n).tolist()
                if rng.random() < 0.5:
                    grid += [1.0 / k for k in range(1, 9)]  # the bracket edges
                assert converted(phi, d_ab, grid) == per_t_psi_from_phi(phi, d_ab, grid)


def test_psi_from_phi_refuses_an_infinite_grid_value():
    with pytest.raises(OutOfDomain, match=r"got inf"):
        psi_from_phi(GaugeSpec("linear", {"c": 0.5}), 0.0, [1.0, math.inf])


def quarter_chain():
    """Self-paired scalar chain x -> x/4 with touching sides."""
    vals = [1.0, 0.25, 0.0625, 0.0]
    pts = [(f"p{k}", (v, 0.0), "AB") for k, v in enumerate(vals)]
    ids = [p for p, _, _ in pts]
    sp = FiniteMetricGraph.from_coords(
        pts, metric="l1", edges=[(p, q) for p in ids for q in ids])
    tmap = CyclicMapTable.for_space(sp, {
        "p0": "p1", "p1": "p2", "p2": "p3", "p3": "p3"})
    return sp, tmap


def test_gauge_to_rate_bridge_on_a_touching_chain():
    sp, tmap = quarter_chain()
    phi1 = GaugeSpec("linear", {"c": 0.5})
    phi2 = GaugeSpec("affine_shift", {"c": 0.25})
    rep = verify_g_cyclic_contraction(sp, tmap, phi1, phi2)
    assert rep.holds

    psi = psi_from_phi(phi1, 0.0, [0.0625, 0.25, 1.0])
    assert psi(0.3) == pytest.approx(0.5, abs=1e-12)
    pair = PairMaps.for_space(sp, dict(tmap.mapping), dict(tmap.mapping))
    for strengthened in (False, True):
        rep = verify_g_psi_contraction(sp, pair, psi,
                                       strengthened=strengthened)
        assert rep.holds, rep.violations


def test_pair_map_validation():
    inst = build("ex41_fixed_point")
    t1 = dict(inst.pair.t1)
    t1.pop("f_1/2")
    with pytest.raises(InstanceFormatError, match="total"):
        PairMaps.for_space(inst.space, t1, dict(inst.pair.t2))
    bad = dict(inst.pair.t1)
    bad["f_1/2"] = "f_1/4"  # image must land on the other side
    with pytest.raises(SideMismatch):
        PairMaps.for_space(inst.space, bad, dict(inst.pair.t2))
    bad["f_1/2"] = "nowhere"  # an image that is no point is an input error
    with pytest.raises(InstanceFormatError, match="t1 entry 'f_1/2' -> 'nowhere'"):
        PairMaps.for_space(inst.space, bad, dict(inst.pair.t2))
    # every key must be a point of the source side
    for key, where in (("nowhere", ""), ("g_1/2", " of A")):
        with pytest.raises(InstanceFormatError,
                           match=f"t1 has an entry for '{key}', which is no point{where}$"):
            PairMaps.for_space(inst.space, dict(inst.pair.t1, **{key: "g_1/4"}),
                               dict(inst.pair.t2))
    with pytest.raises(InstanceFormatError, match="t2 has an entry for 'f_1/2'"):
        PairMaps.for_space(inst.space, dict(inst.pair.t1),
                           dict(inst.pair.t2, **{"f_1/2": "zero"}))


def test_residual_measures_the_distance_to_a_common_fixed_point():
    # on a line: d(p, T1 p) = 1 but d(p, T2 T1 p) = 3; for r the first term wins
    sp = FiniteMetricGraph.from_coords(
        [("p", (0.0,), "A"), ("r", (3.0,), "A"), ("q", (1.0,), "B")], metric="l1")
    pair = PairMaps.for_space(sp, {"p": "q", "r": "q"}, {"q": "r"})
    assert residual(sp, pair, "p") == 3.0
    assert residual(sp, pair, "r") == 2.0
    inst = build("ex41_fixed_point")
    point, _ = solve_common_fixed_point(inst.space, inst.pair, inst.psi, "f_1/2")
    assert residual(inst.space, inst.pair, point) == 0.0


def test_nan_tol_is_refused():
    inst = build("ex41_fixed_point")
    nan = float("nan")
    with pytest.raises(ParamOutOfRange, match="NaN"):
        verify_g_psi_contraction(inst.space, inst.pair, inst.psi, tol=nan)
    with pytest.raises(ParamOutOfRange, match="NaN"):
        solve_common_fixed_point(inst.space, inst.pair, inst.psi, "f_1/2", tol=nan)


@pytest.mark.parametrize("t2", [{"b0": "a1", "b1": "a0"}, {"b0": "a0", "b1": "a1"}],
                         ids=["a0_b0_a1_b1", "a0_b0"])
def test_alternating_orbit_back_at_its_seed_is_a_cycle(t2):
    # on the unit square no point is fixed; in the second case T2 T1 fixes
    # a0 although T1 moves it, so d(a0, T2 T1 a0) = 0 alone is no stop
    sp = FiniteMetricGraph.from_coords(
        [("a0", (0.0, 0.0), "A"), ("a1", (1.0, 0.0), "A"),
         ("b0", (0.0, 1.0), "B"), ("b1", (1.0, 1.0), "B")], metric="l1")
    pair = PairMaps.for_space(sp, {"a0": "b0", "a1": "b1"}, t2)
    with pytest.raises(NoConvergence, match="stopped with cycle_detected$"):
        solve_common_fixed_point(sp, pair, PsiGauge.constant(0.5), "a0",
                                 check_hypotheses=False)


def test_step_budget_runs_out_before_the_fixed_point():
    inst = build("ex41_fixed_point")
    with pytest.raises(NoConvergence, match="stopped with max_iter$"):
        solve_common_fixed_point(inst.space, inst.pair, inst.psi, "f_1/2", max_iter=1)


def test_oscillation_instance_frozen_counts():
    inst = build("ex41_fixed_point")
    rep = verify_g_psi_contraction(inst.space, inst.pair, inst.psi)
    assert (rep.holds, rep.checked) == (True, 14)
    rep = verify_g_psi_contraction(inst.space, inst.pair, inst.psi,
                                   strengthened=True)
    assert (rep.holds, rep.checked) == (True, 98)


def drop_edge(space: FiniteMetricGraph, edge: tuple[str, str]):
    pts = [(i, space.coords[i], space.side[i]) for i in space.ids]
    return FiniteMetricGraph.from_coords(
        pts, metric=space.metric,
        edges=[e for e in space.edges if e != edge])


def test_strengthened_mode_sees_cross_pair_edges():
    # (g_1/4, f_1/16) is reached only through the ordered pair
    # x = f_1/2, y = f_1/4, so the per-point sweep cannot notice its absence
    inst = build("ex41_fixed_point")
    sp = drop_edge(inst.space, ("g_1/4", "f_1/16"))
    rep = verify_g_psi_contraction(sp, inst.pair, inst.psi)
    assert (rep.holds, rep.checked) == (True, 14)
    assert rep and rep.witness is None
    rep = verify_g_psi_contraction(sp, inst.pair, inst.psi, strengthened=True)
    assert not rep.holds
    assert ("g_1/4", "f_1/16") in {(a, b) for a, b, _ in rep.edge_violations}
    # no rate violation, so the report's witness is its first missing image edge
    assert not rep and rep.violations == ()
    assert rep.witness == rep.edge_violations[0]
    assert rep.witness[:2] == ("g_1/4", "f_1/16")


def test_rate_violation_is_the_witness_before_a_missing_edge():
    inst = build("ex41_fixed_point")
    sp = drop_edge(inst.space, ("g_1/4", "f_1/8"))
    rep = verify_g_psi_contraction(sp, inst.pair, PsiGauge.constant(0.25))
    assert rep.violations and rep.edge_violations
    assert not rep and rep.witness == rep.violations[0]


def test_apriori_bound_values_and_validation():
    assert apriori_bound(1.0, 0.5, 0) == 2.0
    assert apriori_bound(1.0, 0.5, 3) == 0.25
    with pytest.raises(InvalidPsi):
        apriori_bound(1.0, 1.0, 2)
    with pytest.raises(InvalidPsi):
        apriori_bound(-1.0, 0.5, 2)


def test_solver_reaches_zero_from_every_seed():
    inst = build("ex41_fixed_point")
    for seed in inst.space.side_a():
        fp, trace = solve_common_fixed_point(inst.space, inst.pair, inst.psi,
                                             seed)
        assert fp == "zero"
        assert trace.stop_reason == "converged"
        assert inst.space.d(fp, inst.pair.t1[fp]) == 0.0


def test_solver_trace_gaps_halve_under_tail_bound():
    inst = build("ex41_fixed_point")
    _, trace = solve_common_fixed_point(inst.space, inst.pair, inst.psi,
                                        "f_1/2")
    d0 = trace.gaps[0]
    rate = inst.psi(d0)
    for n, g in enumerate(trace.gaps):
        assert g <= apriori_bound(d0, rate, n) + 1e-12


def test_seed_gates():
    inst = build("ex41_fixed_point")
    with pytest.raises(SideMismatch):
        solve_common_fixed_point(inst.space, inst.pair, inst.psi, "g_1/2")
    sp = drop_edge(inst.space, ("f_1/2", "g_1/4"))
    with pytest.raises(SeedNotEligible, match="seed edge"):
        solve_common_fixed_point(sp, inst.pair, inst.psi, "f_1/2")
    fp, _ = solve_common_fixed_point(sp, inst.pair, inst.psi, "f_1/2",
                                     check_hypotheses=False)
    assert fp == "zero"


def test_union_star_gate_is_a_hypothesis_not_a_seed_gate():
    # f_1/4 -> zero -> g_1/8 stays, f_1/4 -> g_1/8 goes: property (*) fails,
    # while the seed edge (f_1/2, g_1/4) is kept
    inst = build("ex41_fixed_point")
    sp = drop_edge(inst.space, ("f_1/4", "g_1/8"))
    with pytest.raises(HypothesisViolated, match="union graph") as exc:
        solve_common_fixed_point(sp, inst.pair, inst.psi, "f_1/2")
    assert not isinstance(exc.value, SeedNotEligible)
    assert exc.value.witness == check_property_star(sp).witness


def test_uniqueness_regime():
    inst = build("ex41_fixed_point")
    assert check_uniqueness_regime(inst.space) == {
        "weakly_connected": True, "weak_friendship": True}

    pts = [("p0", (0.0, 0.0), "AB"), ("p1", (1.0, 0.0), "AB"),
           ("q0", (0.0, 9.0), "AB"), ("q1", (1.0, 9.0), "AB")]
    sp = FiniteMetricGraph.from_coords(
        pts, metric="l1",
        edges=[("p0", "p0"), ("p1", "p1"), ("q0", "q0"), ("q1", "q1"),
               ("p0", "p1"), ("p1", "p0"), ("q0", "q1"), ("q1", "q0")])
    assert check_uniqueness_regime(sp) == {
        "weakly_connected": False, "weak_friendship": False}


def test_converted_rate_matches_geometric_decay():
    # quarter chain decays faster than the converted half rate predicts
    sp, tmap = quarter_chain()
    psi = psi_from_phi(GaugeSpec("linear", {"c": 0.5}), 0.0, [1.0])
    pair = PairMaps.for_space(sp, dict(tmap.mapping), dict(tmap.mapping))
    fp, trace = solve_common_fixed_point(sp, pair, psi, "p0")
    assert fp == "p3"
    d0 = trace.gaps[0]
    for n, g in enumerate(trace.gaps):
        assert g <= (0.5 ** n) * d0 + 1e-12
    assert math.isclose(trace.gaps[0] / trace.gaps[1], 4.0)


@pytest.mark.parametrize("seed", range(5))
def test_psi_table_matches_interp_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    ss = np.sort(rng.choice(np.arange(1, 60), size=n, replace=False)) / 7.0
    vs = np.sort(rng.uniform(0.0, 0.99, size=n))
    psi = PsiGauge("table", {"knots": [(float(a), float(b)) for a, b in zip(ss, vs)]})
    # the knots, the midpoints between them, and points beyond both ends
    probes = np.concatenate([ss, (ss[:-1] + ss[1:]) / 2, [0.0, ss[0] / 2, ss[-1] + 1.0,
                                                          ss[-1] * 4.0]])
    for s in probes.tolist():
        # np.interp clamps at both ends, as psi does
        assert psi(s) == pytest.approx(float(np.interp(s, ss, vs)), rel=1e-12, abs=1e-12)
        if ss[0] < s < ss[-1]:
            hi = next(i for i, a in enumerate(ss) if a >= s)
            t = (s - ss[hi - 1]) / (ss[hi] - ss[hi - 1])
            assert psi(s) == vs[hi - 1] + t * (vs[hi] - vs[hi - 1])  # bit for bit


@pytest.mark.parametrize("kind, params", [
    ("table", {"knots": [[1]]}),
    ("table", {"knots": [[0.0, 0.1], ["x", 0.2]]}),
    ("constant", {"value": "x"}),
])
def test_psi_rejects_malformed_parameters(kind, params):
    with pytest.raises(InstanceFormatError):
        PsiGauge(kind, params)


def test_psi_params_must_be_an_object():
    with pytest.raises(InstanceFormatError, match="params"):
        PsiGauge.from_dict({"kind": "constant", "params": [0.5]})


@pytest.mark.parametrize("knots", [
    [[0.0, 0.1], [math.nan, 0.2], [2.0, 0.5]],
    [[0.0, 0.1], [math.inf, 0.2]],
    [[-math.inf, 0.1], [1.0, 0.2]],
], ids=["nan_s", "inf_s", "minus_inf_s"])
def test_table_psi_refuses_knots_that_are_not_finite(knots):
    with pytest.raises(InstanceFormatError,
                       match=r"^table psi knots must be \(s, value\) pairs of numbers; "
                             r"-?(nan|inf) is not finite$"):
        PsiGauge("table", {"knots": knots})
    # the number rule refuses a NaN value too, before the check of [0, 1)
    with pytest.raises(InstanceFormatError, match="nan is not finite"):
        PsiGauge("table", {"knots": [[0.0, 0.1], [1.0, math.nan]]})


def per_pair_psi_sweep(space, pair, psi, tol, strengthened):
    """The rate sweep with one psi call per checked pair: the checked count
    and the sorted rate and edge violations."""
    checked, viols, edge_viols = 0, [], []
    for side, ti, tj in ((sorted(space.side_a()), pair.t1, pair.t2),
                         (sorted(space.side_b()), pair.t2, pair.t1)):
        for x in side:
            for y in side if strengthened else (x,):
                img = ti[y]
                if (x, img) not in space.edges:
                    continue
                lead, nxt = ti[x], tj[img]
                checked += 1
                d0 = space.d(x, img)
                if (lead, nxt) not in space.edges:
                    edge_viols.append((lead, nxt, f"image pair of ({x}, {y}) is not an edge"))
                lhs = space.d(lead, nxt)
                rhs = psi(d0) * d0
                if lhs > rhs + tol:
                    viols.append((x, y, lhs, rhs))
    return checked, sorted(viols), sorted(edge_viols)


def sweep_psis(space):
    """Constant and table rates; the tables have knots at distances of the
    space, a single knot, and repeated abscissae inside and at an end."""
    near, mid, far = (space.d("f_1/8", "g_1/16"), space.d("f_1/4", "g_1/8"),
                      space.d("f_1/2", "g_1/4"))
    return [
        PsiGauge.constant(0.5), PsiGauge.constant(0.25),
        PsiGauge("table", {"knots": [[near, 0.05], [mid, 0.3], [far, 0.45]]}),
        PsiGauge("table", {"knots": [[mid, 0.2]]}),
        PsiGauge("table", {"knots": [[0.0, 0.1], [mid, 0.2], [mid, 0.4], [far, 0.6]]}),
        PsiGauge("table", {"knots": [[near, 0.1], [near, 0.3], [far, 0.35], [far, 0.5]]}),
    ]


def hexed(violations):
    return [tuple(v.hex() if isinstance(v, float) else v for v in viol) for viol in violations]


@pytest.mark.parametrize("strengthened", [False, True], ids=["default", "strengthened"])
def test_psi_sweep_matches_the_per_pair_loop_hex_for_hex(strengthened):
    inst = build("ex41_fixed_point", depth=8, n_time=64)
    found = set()
    for space in (inst.space, drop_edge(inst.space, ("g_1/4", "f_1/8"))):
        for psi in sweep_psis(space):
            for tol in (1e-9, 0.0, -math.inf):
                rep = verify_g_psi_contraction(space, inst.pair, psi, tol=tol,
                                               strengthened=strengthened)
                checked, viols, edge_viols = per_pair_psi_sweep(
                    space, inst.pair, psi, tol, strengthened)
                assert rep.checked == checked
                assert hexed(rep.violations) == hexed(viols)
                assert list(rep.edge_violations) == edge_viols
                assert rep.witness == (viols or edge_viols or [None])[0]
                found.add((bool(viols), bool(edge_viols)))
    # sweeps that hold, and sweeps with rate violations, edge violations or both
    assert len(found) == 4


def test_psi_rates_are_the_scalar_clamps_and_knot_rule():
    space = build("ex41_fixed_point", depth=8, n_time=64).space
    s = np.unique(space.dist)
    s = np.concatenate([s, (s[:-1] + s[1:]) / 2, [0.0, 10.0]])
    for psi in sweep_psis(space):
        want = [psi._value if psi.kind == "constant" else scalar_psi(psi.params["knots"], v)
                for v in s.tolist()]
        assert [r.hex() for r in psi.rates(s).tolist()] == [w.hex() for w in want]
        assert [psi(v) for v in s.tolist()] == want
    with pytest.raises(InvalidPsi, match=r"defined on \[0, inf\), got -0.5"):
        sweep_psis(space)[2].rates(np.array([0.0, -0.5, -1.0]))
    # psi at one number is rates at that number, with the same refusal
    for psi in (PsiGauge.constant(0.5), sweep_psis(space)[2]):
        with pytest.raises(InvalidPsi, match=r"defined on \[0, inf\), got -1.0$"):
            psi(-1)
