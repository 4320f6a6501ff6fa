"""End-to-end acceptance battery.

Each criterion prints one PASS/FAIL line with its runtime and enforces a
wall-clock budget.  Everything here recomputes its target through an
independent route (closed forms, exhaustive scans, boolean matrix closure)
rather than trusting the library's own bookkeeping.
"""
from __future__ import annotations

import math
import time

import numpy as np

from proxigraph import (
    FiniteMetricGraph,
    GridFunction,
    RhsFunction,
    TimeGrid,
    apriori_bound,
    build,
    check_cardinality,
    check_equivalence_theorem,
    component_of,
    enumerate_bpps,
    iterate_orbit,
    kernel_matrix,
    pair_distance,
    solve_bpp,
    solve_common_fixed_point,
    solve_pbvp,
    verify_g_cyclic_contraction,
)
from proxigraph.bpp_solver import x_t2_a_set
from proxigraph.corpus import E_SQUARED, build_random_chain
from proxigraph.cyclic_contraction import check_pair


def run_criterion(capsys, n, label, budget, fn):
    t0 = time.monotonic()
    ok = False
    try:
        fn()
        ok = True
    finally:
        elapsed = time.monotonic() - t0
        verdict = "PASS" if ok and elapsed <= budget else "FAIL"
        with capsys.disabled():
            print(f"{verdict} criterion {n:2d} "
                  f"({elapsed:.2f}s / {budget:.0f}s budget): {label}")
    assert elapsed <= budget, f"criterion {n} overran its {budget}s budget"


def test_criterion_01_probe_pair_arithmetic(capsys):
    def body():
        inst = build("ex22_kappa", N=8)
        x, y = inst.expected["probe_pair"]
        ok, lhs, rhs = check_pair(inst.space, inst.tmap, inst.phi1,
                                  inst.phi2, x, y)
        d = inst.space.d(x, y)
        assert abs(d - 1.02) <= 1e-12
        # closed forms: images sit at 1/2 and 1/3, so lhs = 1 + 1/6;
        # the gauge moves 1.02 to 1.0004 and the bound is 1.02 - 1.0004 + 1
        assert abs(lhs - (1.0 + 1.0 / 6.0)) <= 1e-12
        assert abs(rhs - 1.0196) <= 1e-12
        assert not ok

    run_criterion(capsys, 1, "probe pair arithmetic to 1e-12", 1.0, body)


def test_criterion_02_edge_restriction_separates(capsys):
    def body():
        inst = build("ex22_kappa", N=16)
        rep = verify_g_cyclic_contraction(inst.space, inst.tmap, inst.phi1,
                                          inst.phi2)
        assert rep.holds and not rep.violations
        rep_all = verify_g_cyclic_contraction(inst.space, inst.tmap,
                                              inst.phi1, inst.phi2,
                                              all_pairs=True)
        assert not rep_all.holds and len(rep_all.violations) >= 1

    run_criterion(capsys, 2,
                  "bound holds on edges, fails over all pairs (N=16)",
                  1.0, body)


def test_criterion_03_orbits_descend_to_origin(capsys):
    def body():
        inst = build("ex33_dyadic_l1", depth=12)
        for seed in inst.space.side_a():
            res = solve_bpp(inst.space, inst.tmap, seed,
                            check_hypotheses=False)
            assert res.bpp == "a_0"
            assert inst.space.coords["a_0"] == (0.0, 0.0)
            tr = iterate_orbit(inst.space, inst.tmap, seed)
            assert all(b <= a + 1e-12
                       for a, b in zip(tr.gaps, tr.gaps[1:]))
            assert abs(tr.gaps[-1] - 1.0) <= 1e-12

    run_criterion(capsys, 3,
                  "every orbit descends to the origin pair (depth=12)",
                  1.0, body)


def test_criterion_04_proximity_without_reachability(capsys):
    def body():
        inst = build("ex35_not_bpo", depth=6)
        bpps = enumerate_bpps(inst.space, inst.tmap)
        assert {inst.space.coords[p] for p in bpps} == {(0.0, 0.0),
                                                        (0.0, 1.0)}
        comp = component_of(inst.space, "a_1/2")
        assert comp.isdisjoint(bpps)

    run_criterion(capsys, 4,
                  "proximity points exist outside the chain component",
                  1.0, body)


def brute_force_cardinality(space, tmap, tol=1e-12):
    """Count proximity points and weak components from raw data only."""
    a_side = [p for p in space.ids if "A" in space.side[p]]
    b_side = [p for p in space.ids if "B" in space.side[p]]
    d_ab = min(space.d(x, y) for x in a_side for y in b_side)
    n_bpp = sum(1 for x in a_side
                if abs(space.d(x, tmap(x)) - d_ab) <= tol)

    ids = list(space.ids)
    pos = {p: i for i, p in enumerate(ids)}
    adj = np.eye(len(ids), dtype=bool)
    for x, y in space.edges:
        adj[pos[x], pos[y]] = True
        adj[pos[y], pos[x]] = True
    while True:
        nxt = adj | (adj @ adj)
        if np.array_equal(nxt, adj):
            break
        adj = nxt
    n_classes = len({tuple(row) for row in adj})
    return n_bpp, n_classes


def test_criterion_05_proximity_count_equals_class_count(capsys):
    def body():
        inst = build("ex22_kappa", N=16)
        n_bpp, n_classes = brute_force_cardinality(inst.space, inst.tmap)
        assert n_bpp == n_classes == 17
        assert check_cardinality(inst.space, inst.tmap) == (17, 17, True)

        for seed in range(100):
            ch = build_random_chain(seed)
            nb, nc = brute_force_cardinality(ch.space, ch.tmap)
            assert nb == nc
            lib = check_cardinality(ch.space, ch.tmap)
            assert lib == (nb, nc, True)

    run_criterion(capsys, 5,
                  "|proximity set| = |classes| on ex22 and 100 random chains",
                  10.0, body)


def test_criterion_06_alternating_orbit_reaches_zero(capsys):
    def body():
        inst = build("ex41_fixed_point")
        for seed in inst.space.side_a():
            fp, trace = solve_common_fixed_point(inst.space, inst.pair,
                                                 inst.psi, seed)
            assert fp == "zero"
            res = max(inst.space.d(fp, inst.pair.t1[fp]),
                      inst.space.d(fp, inst.pair.t2[inst.pair.t1[fp]]))
            assert res <= 1e-8
            if trace.gaps:
                d0 = trace.gaps[0]
                rate = inst.psi(d0)
                for n, g in enumerate(trace.gaps):
                    assert g <= apriori_bound(d0, rate, n) + 1e-12

    run_criterion(capsys, 6,
                  "common fixed point at zero with tail-bounded gaps",
                  2.0, body)


def test_criterion_07_periodic_solution_is_flat_zero(capsys):
    def body():
        inst = build("ex53_pbvp", n_nodes=201)
        u, rep = solve_pbvp(inst.f, inst.alpha, inst.h_spec, inst.w0,
                            tol=inst.tol)
        assert u.sup_norm() <= 1e-6
        assert u.periodicity_residual() <= 1e-9
        assert rep.max_ratio <= rep.beta + 1e-6

    run_criterion(capsys, 7,
                  "periodic problem converges to zero under the rate cap",
                  5.0, body)


def test_criterion_08_kernel_mass_identity(capsys):
    def body():
        errs = []
        for n in (201, 401):
            grid = TimeGrid(1.0, n)
            W = kernel_matrix(E_SQUARED, grid)
            errs.append(float(np.max(np.abs(W.sum(axis=1)
                                            - 1.0 / E_SQUARED))))
        assert errs[0] <= 1e-4
        assert errs[0] / errs[1] >= 3.5

    run_criterion(capsys, 8,
                  "kernel rows integrate to 1/alpha, error shrinks 3.5x",
                  2.0, body)


def test_criterion_09_forced_problem_matches_closed_form(capsys):
    def body():
        f = RhsFunction("cosine_forced", {"a": -1.0, "amp": 1.0,
                                          "freq": 1.0})
        w = 2.0 * math.pi
        caps = {201: 1e-4, 401: 1e-5}
        for n, cap in caps.items():
            grid = TimeGrid(1.0, n)
            u, _ = solve_pbvp(f, 2.0, 1.0, GridFunction.constant(grid, -1.0))
            t = grid.nodes
            exact = (np.cos(w * t) + w * np.sin(w * t)) / (1.0 + w * w)
            assert float(np.max(np.abs(u.values - exact))) <= cap

    run_criterion(capsys, 9,
                  "forced problem matches its closed form at two grids",
                  5.0, body)


def test_criterion_10_random_battery_finds_no_falsification(capsys):
    def body():
        for seed in range(500):
            inst = build_random_chain(seed)
            sp, tmap = inst.space, inst.tmap
            bpps = enumerate_bpps(sp, tmap)
            eligible = x_t2_a_set(sp, tmap)
            for x in bpps:
                # direct edge test, then squared-map periodicity
                assert sp.has_edge(x, tmap.twice(x))
                assert x in eligible
                assert tmap.twice(x) == x
            for seed_pt in sp.side_a():
                tr = iterate_orbit(sp, tmap, seed_pt)
                assert all(b <= a + 1e-12
                           for a, b in zip(tr.gaps, tr.gaps[1:]))
            rep = check_equivalence_theorem(sp, tmap, inst.phi1, inst.phi2)
            assert rep.consistent
            single = len(component_of(sp, sp.ids[0])) == len(sp.ids)
            clauses = (rep.weakly_connected_a, rep.orbits_merge,
                       rep.at_most_one_bpp)
            assert clauses == (single, single, single)

    run_criterion(capsys, 10,
                  "500 random instances: descent, membership, clause accord",
                  30.0, body)
