"""Rate gauges, the common-fixed-point solver, and the uniqueness regime."""
from __future__ import annotations

import math

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
    ParamOutOfRange,
    SeedNotEligible,
    SideMismatch,
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
