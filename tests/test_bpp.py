"""Best-proximity orbits, enumeration, cardinality, and the equivalence report."""
from __future__ import annotations

import numpy as np
import pytest

from proxigraph import (
    CyclicMapTable,
    FiniteMetricGraph,
    GaugeSpec,
    GridFunction,
    HypothesisViolated,
    NoConvergence,
    RhsFunction,
    SideMismatch,
    TimeGrid,
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
    iterate_orbit,
    solve_bpp,
    solve_common_fixed_point,
    solve_common_pbvp,
    solve_pbvp,
    verify_g_cyclic_contraction,
    verify_t2_preserves_edges,
    x_t2_a_set,
)
from proxigraph.errors import ParamOutOfRange, SeedNotEligible


def test_x_set_contents():
    ex35 = build("ex35_not_bpo", depth=6)
    assert x_t2_a_set(ex35.space, ex35.tmap) == {"a_0", "a_1"}
    ex33 = build("ex33_dyadic_l1", depth=6)
    assert x_t2_a_set(ex33.space, ex33.tmap) == frozenset(ex33.space.side_a())


def test_orbit_frozen_trace():
    inst = build("ex33_dyadic_l1", depth=6)
    tr = iterate_orbit(inst.space, inst.tmap, "a_1")
    assert tr.points == ("a_1", "b_1/2", "a_1/4", "b_1/8", "a_1/16",
                         "b_1/32", "a_1/64", "b_0", "a_0")
    # dyadic gaps are exact in binary floating point
    assert tr.gaps == (1.5, 1.25, 1.125, 1.0625, 1.03125,
                       1.015625, 1.015625, 1.0)
    assert tr.stop_reason == "converged"
    g = np.array(tr.gaps)
    assert np.all(np.diff(g) <= 0.0)


def test_solve_from_every_seed():
    inst = build("ex33_dyadic_l1", depth=8)
    for seed in inst.space.side_a():
        res = solve_bpp(inst.space, inst.tmap, seed)
        assert res.bpp == "a_0"
        assert res.achieved_gap == 1.0
        assert res.component == component_of(inst.space, seed)


def test_seed_must_sit_on_side_a():
    inst = build("ex33_dyadic_l1", depth=4)
    with pytest.raises(SideMismatch):
        solve_bpp(inst.space, inst.tmap, "b_0")
    with pytest.raises(SideMismatch):
        iterate_orbit(inst.space, inst.tmap, "b_1/2")


def test_chain_seed_gate_and_escape():
    inst = build("ex35_not_bpo", depth=6)
    with pytest.raises(SeedNotEligible):
        solve_bpp(inst.space, inst.tmap, "a_1/2")
    res = solve_bpp(inst.space, inst.tmap, "a_1/2", check_hypotheses=False)
    assert res.bpp == "a_0"
    assert res.bpp not in component_of(inst.space, "a_1/2")


def test_enumerate_and_cardinality():
    ex22 = build("ex22_kappa", N=8)
    assert sorted(enumerate_bpps(ex22.space, ex22.tmap)) == [
        "f_0", "f_1", "f_1/2", "f_1/3", "f_1/4", "f_1/5", "f_1/6",
        "f_1/7", "f_1/8"]
    assert check_cardinality(ex22.space, ex22.tmap) == (9, 9, True)

    ex35 = build("ex35_not_bpo", depth=6)
    assert check_cardinality(ex35.space, ex35.tmap,
                             check_hypotheses=False) == (2, 3, False)


def nontrivial_cycle_instance():
    # a0/b0 realize d(A, B) = 1; the a1/a2 orbit is a squared-map 2-cycle that
    # never reaches the floor
    pts = [("a0", (0.0, 0.0), "A"), ("b0", (1.0, 0.0), "B"),
           ("a1", (0.0, 10.0), "A"), ("b1", (2.0, 10.0), "B"),
           ("a2", (0.0, 14.0), "A"), ("b2", (2.0, 14.0), "B")]
    ids = [p for p, _, _ in pts]
    sp = FiniteMetricGraph.from_coords(
        pts, metric="l1", edges=[(p, q) for p in ids for q in ids])
    tmap = CyclicMapTable.for_space(sp, {
        "a0": "b0", "b0": "a0",
        "a1": "b2", "b2": "a1",
        "a2": "b1", "b1": "a2",
    })
    return sp, tmap


def test_cycle_detection_raises():
    sp, tmap = nontrivial_cycle_instance()
    # squared orbit: a1 -> T(b2) = a1 is fixed, so pick the crossing pair
    tmap2 = CyclicMapTable.for_space(sp, {
        "a0": "b0", "b0": "a0",
        "a1": "b2", "b2": "a2",
        "a2": "b1", "b1": "a1",
    })
    with pytest.raises(NoConvergence, match="cycle"):
        solve_bpp(sp, tmap2, "a1", check_hypotheses=False)
    tr = iterate_orbit(sp, tmap2, "a1")
    assert tr.stop_reason == "cycle_detected"
    assert tr.cycle_is_t2_fixed is False


def test_settled_orbit_off_the_floor_raises():
    sp, tmap = nontrivial_cycle_instance()
    # a1 is squared-map fixed but its gap d(a1, b2) = 2 > 1 = d(A, B)
    with pytest.raises(NoConvergence, match="gap"):
        solve_bpp(sp, tmap, "a1", check_hypotheses=False)


def test_nan_tol_is_refused():
    # every comparison against NaN is false: solve_bpp used to return a1 with
    # gap 6.0, although d(A, B) = 1
    sp, tmap = nontrivial_cycle_instance()
    nan = float("nan")
    with pytest.raises(ParamOutOfRange, match="NaN"):
        solve_bpp(sp, tmap, "a1", tol=nan, check_hypotheses=False)
    with pytest.raises(ParamOutOfRange, match="NaN"):
        enumerate_bpps(sp, tmap, tol=nan)
    with pytest.raises(ParamOutOfRange, match="NaN"):
        iterate_orbit(sp, tmap, "a1", tol=nan)
    assert enumerate_bpps(sp, tmap, tol=float("-inf")) == frozenset()


@pytest.mark.parametrize("tol", ["1e-9", None, True], ids=["str", "none", "bool"])
def test_a_tol_that_is_no_real_number_is_an_input_error(tol):
    sp, tmap = nontrivial_cycle_instance()
    with pytest.raises(ParamOutOfRange, match="tol must be a real number"):
        enumerate_bpps(sp, tmap, tol=tol)
    with pytest.raises(ParamOutOfRange, match="tol must be a real number"):
        iterate_orbit(sp, tmap, "a1", tol=tol)


def test_nan_tol_is_refused_before_any_gate():
    # a0 -> a1 -> a2 without a0 -> a2, so property (*) on A fails; a NaN tol
    # is still the error both checkers name
    pts = [(f"a{i}", (0.0, float(i)), "A") for i in range(3)]
    pts += [(f"b{i}", (1.0, float(i)), "B") for i in range(3)]
    sp = FiniteMetricGraph.from_coords(pts, metric="l1", edges=[("a0", "a1"), ("a1", "a2")])
    tmap = CyclicMapTable.for_space(sp, {p: "b0" if p[0] == "a" else "a0" for p in sp.ids})
    phi = GaugeSpec("identity")
    with pytest.raises(HypothesisViolated, match=r"property \(\*\) on side A"):
        check_cardinality(sp, tmap)
    nan = float("nan")
    with pytest.raises(ParamOutOfRange, match="NaN"):
        check_cardinality(sp, tmap, tol=nan)
    with pytest.raises(ParamOutOfRange, match="NaN"):
        check_equivalence_theorem(sp, tmap, phi, phi, tol=nan)


PHI = GaugeSpec("identity")
RHS = RhsFunction("linear", {"a": -1.0, "b": 1.0})
W0 = GridFunction.constant(TimeGrid(1.0, 11), 0.0)
STEP_COUNTERS = {
    "solve_bpp": lambda k: solve_bpp(*nontrivial_cycle_instance(), "a1", max_iter=k,
                                     check_hypotheses=False),
    "iterate_orbit": lambda k: iterate_orbit(*nontrivial_cycle_instance(), "a1", max_iter=k),
    "check_equivalence_theorem": lambda k: check_equivalence_theorem(
        *nontrivial_cycle_instance(), PHI, PHI, max_iter=k, check_hypotheses=False),
    "solve_common_fixed_point": lambda k: solve_common_fixed_point(
        *(lambda i: (i.space, i.pair, i.psi))(build("ex41_fixed_point")), "f_1/2", max_iter=k),
    "solve_pbvp": lambda k: solve_pbvp(RHS, 2.0, 1.0, W0, max_iter=k),
    "solve_common_pbvp": lambda k: solve_common_pbvp(RHS, RHS, 2.0, 1.0, W0, max_iter=k),
}


@pytest.mark.parametrize("max_iter", [5.0, True, "5"])
@pytest.mark.parametrize("entry", STEP_COUNTERS)
def test_a_non_integer_max_iter_is_an_input_error(entry, max_iter):
    with pytest.raises(ParamOutOfRange, match="max_iter must be an integer"):
        STEP_COUNTERS[entry](max_iter)


def test_equivalence_all_true_and_all_false():
    inst = build("ex33_dyadic_l1", depth=6)
    rep = check_equivalence_theorem(inst.space, inst.tmap, inst.phi1,
                                    inst.phi2, check_hypotheses=False)
    assert (rep.weakly_connected_a, rep.orbits_merge, rep.at_most_one_bpp) \
        == (True, True, True)
    assert rep.consistent

    ex35 = build("ex35_not_bpo", depth=6)
    rep = check_equivalence_theorem(ex35.space, ex35.tmap, ex35.phi1,
                                    ex35.phi2, check_hypotheses=False)
    assert (rep.weakly_connected_a, rep.orbits_merge, rep.at_most_one_bpp) \
        == (False, False, False)
    assert rep.consistent


def test_equivalence_gate_trips_on_broken_bound():
    inst = build("ex33_dyadic_l1", depth=6)
    with pytest.raises(HypothesisViolated, match="contraction") as exc:
        check_equivalence_theorem(inst.space, inst.tmap, inst.phi1, inst.phi2)
    # the witness is the sweep's first violation itself
    rep = verify_g_cyclic_contraction(inst.space, inst.tmap, inst.phi1, inst.phi2)
    assert exc.value.witness == rep.violations[0]


def test_cardinality_needs_every_class_to_carry_an_eligible_point():
    # two complete components; the x/b component's only A-point has its
    # squared-map image in the other component, so it carries no eligible
    # seed and no proximity point.  Counting classes that merely meet A then
    # overshoots: equality needs every class meeting A to contain a point
    # with its squared-map edge.
    table = [
        # x    z    b    w
        [0.0, 2.0, 1.0, 2.0],  # x
        [2.0, 0.0, 2.0, 1.0],  # z
        [1.0, 2.0, 0.0, 2.0],  # b
        [2.0, 1.0, 2.0, 0.0],  # w
    ]
    sp = FiniteMetricGraph.from_table(
        ["x", "z", "b", "w"],
        {"x": "A", "z": "A", "b": "B", "w": "B"},
        table,
        edges=[("x", "b"), ("b", "x"), ("z", "w"), ("w", "z")])
    tmap = CyclicMapTable.for_space(sp, {"x": "w", "z": "w",
                                         "b": "z", "w": "z"})
    assert enumerate_bpps(sp, tmap) == {"z"}
    assert x_t2_a_set(sp, tmap) == {"z"}
    n_bpp, n_classes, equal = check_cardinality(sp, tmap)
    assert (n_bpp, n_classes, equal) == (1, 2, False)


def test_squared_walk_step_budget():
    inst = build("ex33_dyadic_l1", depth=6)
    steps = solve_bpp(inst.space, inst.tmap, "a_1").iterations
    assert steps == 4
    # settling needs one more look than it has moves
    assert solve_bpp(inst.space, inst.tmap, "a_1", max_iter=steps + 1).bpp == "a_0"
    with pytest.raises(NoConvergence, match=f"did not settle in {steps} steps"):
        solve_bpp(inst.space, inst.tmap, "a_1", max_iter=steps)
    rep = check_equivalence_theorem(inst.space, inst.tmap, inst.phi1, inst.phi2,
                                    max_iter=steps, check_hypotheses=False)
    assert (rep.weakly_connected_a, rep.orbits_merge) == (True, False)


def test_equivalence_sees_a_cycle_as_unsettled():
    sp, _ = nontrivial_cycle_instance()
    tmap = CyclicMapTable.for_space(sp, {
        "a0": "b0", "b0": "a0",
        "a1": "b2", "b2": "a2",
        "a2": "b1", "b1": "a1",
    })
    with pytest.raises(NoConvergence, match="entered a nontrivial cycle at 'a1'"):
        solve_bpp(sp, tmap, "a1", check_hypotheses=False)
    phi = build("ex33_dyadic_l1", depth=2).phi1
    rep = check_equivalence_theorem(sp, tmap, phi, phi, check_hypotheses=False)
    assert rep.orbits_merge is False


def test_smallest_count_mismatch_keeps_its_answers():
    # the smallest mismatch between |BPP| and the component count found by
    # the random search of ROADMAP item 2: two best proximity points in one
    # weak component, with only G-Chebyshev failing among the checks below.
    # Frozen as the graph code computes it; it decides nothing about the theorem.
    pts = [("a0", (0.0, 0.0), "A"), ("a1", (0.0, 1.25), "A"),
           ("b0", (1.0, 1.0), "B"), ("b1", (1.0, 0.25), "B")]
    sp = FiniteMetricGraph.from_coords(pts, metric="l1", auto_loops=True,
                                       edges=[("b0", "b1"), ("b1", "a0"), ("b1", "a1")])
    tmap = CyclicMapTable.for_space(sp, {"a0": "b1", "a1": "b0", "b0": "a0", "b1": "a0"})
    assert components(sp) == [frozenset(sp.ids)]
    assert enumerate_bpps(sp, tmap) == {"a0", "a1"}
    assert check_cardinality(sp, tmap) == (2, 1, False)
    cheb = is_g_chebyshev(sp)
    assert (cheb.ok, cheb.witness) == (False, ("a0", "b1"))
    for holds in (is_sharp_proximal(sp), has_property_uc(sp),
                  check_property_star(sp, within=sp.side_a()),
                  verify_t2_preserves_edges(sp, tmap)):
        assert holds
    assert x_t2_a_set(sp, tmap) == {"a0"}
