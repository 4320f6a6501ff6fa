"""Bundled worked examples, one record each.

An example is a builder and its reproduce checks, listed once in `EXAMPLES`.
The builder returns a bundle holding the space, the maps and gauges it was
designed for, and an `expected` table; builders are deterministic and
self-check their structural claims before returning.  The checks measure the
built bundle by an independent route and compare each measurement with its
entry in the `expected` table; `reproduce` runs both and returns the report
that `proxigraph reproduce` prints.

The five stable ids:

  ex22_kappa        two-sided family of constant-slope functions indexed by a
                    value in [0, 1]; the map projects every value onto its
                    reciprocal-bracket representative.  The contraction bound
                    holds along edges but fails when checked edge-free.
  ex33_dyadic_l1    dyadic halving chain in the l1 plane; one best proximity
                    point at the origin.  The finite truncation provably breaks
                    the contraction bound at the deepest level, by exactly
                    2^-(depth+1) per pair; this is reported, not hidden.
  ex35_not_bpo      halving chain on the unit square whose edge relation
                    excludes the endpoints; the chain component contains no
                    best proximity point and orbits escape it.
  ex41_fixed_point  amplitude grid of sampled cosine/sine profiles; two maps
                    halve the amplitude and trade sides; the shared zero
                    profile is the common fixed point.
  ex53_pbvp         periodic problem u' = -e^t u on [0, 1] with alpha = e^2;
                    the zero function is the unique periodic solution.

build(example_id, **params) dispatches on id; the random chain generator used
by the property suites lives here too.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .bpp_solver import (
    check_cardinality,
    check_equivalence_theorem,
    enumerate_bpps,
    iterate_orbit,
    solve_bpp,
    x_t2_a_set,
)
from .cyclic_contraction import (
    CyclicMapTable,
    GaugeSpec,
    kappa_total,
    verify_g_cyclic_contraction,
)
from .errors import ParamOutOfRange
from .fixed_point import (
    PairMaps,
    PsiGauge,
    apriori_bound,
    check_uniqueness_regime,
    residual,
    solve_common_fixed_point,
    verify_g_psi_contraction,
)
from .metric_graph import (
    SCHEMA_VERSION,
    FiniteMetricGraph,
    check_property_star,
    component_of,
    components,
    has_property_uc,
    is_g_chebyshev,
    is_sharp_proximal,
    pair_distance,
)
from .pbvp import (
    GridFunction,
    RhsFunction,
    TimeGrid,
    is_lower_solution,
    solve_pbvp,
)


@dataclass
class CyclicInstance:
    example_id: str
    space: FiniteMetricGraph
    tmap: CyclicMapTable
    phi1: GaugeSpec
    phi2: GaugeSpec
    expected: dict = field(default_factory=dict)


@dataclass
class FixedPointInstance:
    example_id: str
    space: FiniteMetricGraph
    pair: PairMaps
    psi: PsiGauge
    seed: str
    expected: dict = field(default_factory=dict)


@dataclass
class PbvpInstance:
    example_id: str
    f: RhsFunction
    alpha: float
    h_spec: dict
    grid: TimeGrid
    w0: GridFunction
    tol: float
    expected: dict = field(default_factory=dict)


def _require(cond: bool, what: str):
    if not cond:
        raise AssertionError(f"corpus construction invariant broke: {what}")


# A check's pass rule: EQUAL (measured == expected), AT_MOST (measured <=
# expected, a cap), or a number tol (|measured - expected| <= tol).
EQUAL, AT_MOST = "==", "<="


class Check(NamedTuple):
    """One reproduce check.  Its expected value is the `expected` table's
    entry under `key`, the list of the entries for a tuple key, or the entry
    under `name` when no key is given."""

    name: str
    measured: object
    rule: str | float
    source: str
    key: str | tuple[str, ...] | None = None


def _passes(measured, rule, expected) -> bool:
    if rule == EQUAL:
        return measured == expected
    if rule == AT_MOST:
        return measured <= expected
    return abs(measured - expected) <= rule


# ----- ex22_kappa -------------------------------------------------------


def build_ex22_kappa(N: int = 8) -> CyclicInstance:
    """Two-sided value family with reciprocal-bracket structure.

    Side A holds points f_v, side B points g_v, for v in {0, 1}, the bracket
    representatives 1/k (k = 2..N), the bracket midpoints, and the probe pair
    49/100, 51/100.  Distances: cross pairs 1 + |a - b|, within A |a - b|,
    within B 1.5 |a - b|.  Edges: (f_a, g_b) whenever a >= b and both values
    share a bracket index, plus loops; no other same-side edges.  The map
    sends every value to its bracket representative on the other side.
    """
    if not 3 <= N <= 64:
        raise ParamOutOfRange(f"ex22_kappa needs 3 <= N <= 64, got {N}")
    values: list[Fraction] = [Fraction(0), Fraction(1),
                              Fraction(49, 100), Fraction(51, 100)]
    for k in range(2, N + 1):
        rep = Fraction(1, k)
        values.append(rep)
        values.append((rep + Fraction(1, k - 1)) / 2)
    values = sorted(set(values))
    kap = {v: kappa_total(float(v)) for v in values}

    def rep_of(v: Fraction) -> Fraction:
        return Fraction(0) if kap[v] == 0 else Fraction(1, kap[v])

    ids, side = [], {}
    for v in values:
        ids.append(f"f_{v}")
        side[f"f_{v}"] = "A"
    for v in values:
        ids.append(f"g_{v}")
        side[f"g_{v}"] = "B"

    n = len(values)
    table = np.zeros((2 * n, 2 * n))
    fv = np.array([float(v) for v in values])
    gap = np.abs(fv[:, None] - fv[None, :])
    table[:n, :n] = gap
    table[n:, n:] = 1.5 * gap
    table[:n, n:] = 1.0 + gap
    table[n:, :n] = 1.0 + gap

    edges = [(f"f_{a}", f"g_{b}")
             for a in values for b in values
             if a >= b and kap[a] == kap[b]]
    space = FiniteMetricGraph.from_table(ids, side, table, edges, auto_loops=True)

    mapping = {}
    for v in values:
        mapping[f"f_{v}"] = f"g_{rep_of(v)}"
        mapping[f"g_{v}"] = f"f_{rep_of(v)}"
    tmap = CyclicMapTable.for_space(space, mapping)

    phi1 = GaugeSpec("floor_fraction")
    phi2 = GaugeSpec("identity")

    _require(abs(pair_distance(space).d_ab - 1.0) < 1e-15, "d(A,B) = 1")
    _require(bool(is_sharp_proximal(space)), "sharp proximal pair")
    _require(bool(has_property_uc(space)), "property UC")
    _require(bool(is_g_chebyshev(space)), "parallel pairs are edges")
    _require(bool(check_property_star(space, within=space.side_a())),
             "edge transitivity within A")
    bpps = enumerate_bpps(space, tmap)
    reps = sorted({rep_of(v) for v in values})
    _require(bpps == frozenset(f"f_{r}" for r in reps),
             "best proximity set is the representative family")
    _require(x_t2_a_set(space, tmap) == bpps, "X set equals the BPP set")

    return CyclicInstance(
        example_id="ex22_kappa",
        space=space,
        tmap=tmap,
        phi1=phi1,
        phi2=phi2,
        expected={
            "probe_pair": ("f_49/100", "g_51/100"),
            "probe_image_distance": 1.0 + 1.0 / 6.0,
            "probe_distance": 1.02,
            "probe_expands": True,
            "edge_restricted_holds": True,
            "all_pairs_fails": True,
            "bpp_count": len(reps),
            "component_count": len(reps),
        },
    )


def _checks_ex22(inst: CyclicInstance) -> list[Check]:
    sp, tm = inst.space, inst.tmap
    fx, gy = inst.expected["probe_pair"]
    lhs = sp.d(tm(fx), tm(gy))
    dxy = sp.d(fx, gy)
    con = verify_g_cyclic_contraction(sp, tm, inst.phi1, inst.phi2)
    con_all = verify_g_cyclic_contraction(sp, tm, inst.phi1, inst.phi2,
                                          all_pairs=True)
    nb, nc, _ = check_cardinality(sp, tm)
    arith = "closed-form distance arithmetic"
    return [
        Check("probe_image_distance", lhs, 1e-12, arith),
        Check("probe_distance", dxy, 1e-12, arith),
        Check("probe_expands", lhs > dxy, EQUAL, arith),
        Check("edge_restricted_holds", con.holds, EQUAL,
              "sweep over edge-eligible pairs"),
        Check("all_pairs_fails", not con_all.holds, EQUAL,
              "sweep over every cross pair"),
        # the table holds equal counts, so a match also means |BPP| = components
        Check("cardinality", [nb, nc], EQUAL, "exhaustive scan and component count",
              ("bpp_count", "component_count")),
    ]


# ----- ex33_dyadic_l1 ---------------------------------------------------


def build_ex33_dyadic_l1(depth: int = 6) -> CyclicInstance:
    """Dyadic halving chain in the l1 plane.

    A sits on the line y = 0, B on y = 1, both at x in {0} and the dyadic
    values 2^-n, n = 0..depth.  The map halves x and crosses sides; the value
    below the truncation floor redirects to 0.  Same-side edges are complete,
    cross edges join equal values only.

    The redirect necessarily breaks the half-rate contraction bound on pairs
    touching the deepest value: each such pair overshoots by exactly
    2^-(depth+1).  The expected table freezes that excess so the verifier's
    honest failure is itself a tested behavior.

    Depth stops at 29: from 30 on, the deepest point's gap 2^-depth to the
    other side is within TOL_BPP and makes it a second best proximity point.
    """
    if not 2 <= depth <= 29:
        raise ParamOutOfRange(f"ex33_dyadic_l1 needs 2 <= depth <= 29, got {depth}")
    values = [Fraction(0)] + [Fraction(1, 2 ** n) for n in range(depth + 1)]
    values = sorted(set(values))
    deepest = Fraction(1, 2 ** depth)

    points = []
    for v in values:
        points.append((f"a_{v}", (float(v), 0.0), "A"))
    for v in values:
        points.append((f"b_{v}", (float(v), 1.0), "B"))

    a_ids = [p for p, _, s in points if s == "A"]
    b_ids = [p for p, _, s in points if s == "B"]
    edges = [(x, y) for x in a_ids for y in a_ids]
    edges += [(x, y) for x in b_ids for y in b_ids]
    for v in values:
        edges.append((f"a_{v}", f"b_{v}"))
        edges.append((f"b_{v}", f"a_{v}"))
    space = FiniteMetricGraph.from_coords(points, metric="l1", edges=edges,
                                          auto_loops=True)

    def down(v: Fraction) -> Fraction:
        if v == 0 or v == deepest:
            return Fraction(0)
        return v / 2

    mapping = {}
    for v in values:
        mapping[f"a_{v}"] = f"b_{down(v)}"
        mapping[f"b_{v}"] = f"a_{down(v)}"
    tmap = CyclicMapTable.for_space(space, mapping)

    _require(abs(pair_distance(space).d_ab - 1.0) < 1e-15, "d(A,B) = 1")
    _require(bool(has_property_uc(space)), "property UC")
    _require(bool(is_sharp_proximal(space)), "sharp proximal pair")
    _require(bool(is_g_chebyshev(space)), "parallel pairs are edges")
    _require(bool(check_property_star(space, within=space.side_a())),
             "edge transitivity within A")
    _require(enumerate_bpps(space, tmap) == frozenset({"a_0"}),
             "single best proximity point at the origin")

    return CyclicInstance(
        example_id="ex33_dyadic_l1",
        space=space,
        tmap=tmap,
        phi1=GaugeSpec("linear", {"c": 0.5}),
        phi2=GaugeSpec("identity"),
        expected={
            "bpp_ids": ["a_0"],
            "bpp_coords": (0.0, 0.0),
            "orbits_reach_bpp": True,
            "gaps_monotone_to_floor": True,
            "violation_count": 2 * (len(values) - 2),
            "violation_excess": [float(deepest) / 2.0],
            "equivalence_clauses": (True, True, True),
        },
    )


def _checks_ex33(inst: CyclicInstance) -> list[Check]:
    sp, tm = inst.space, inst.tmap
    bp = sorted(enumerate_bpps(sp, tm))
    con = verify_g_cyclic_contraction(sp, tm, inst.phi1, inst.phi2)
    excesses = sorted({l - r for _, _, l, r in con.violations})
    reached = [solve_bpp(sp, tm, s).bpp for s in sp.side_a()]
    gaps = [np.array(iterate_orbit(sp, tm, s).gaps) for s in sp.side_a()]
    eq = check_equivalence_theorem(sp, tm, inst.phi1, inst.phi2,
                                   check_hypotheses=False)
    return [
        Check("bpp_ids", bp, EQUAL, "exhaustive proximity scan"),
        Check("bpp_coords", sp.coords[bp[0]], EQUAL, "construction coordinates"),
        Check("orbits_reach_bpp", all(b == inst.expected["bpp_ids"][0] for b in reached),
              EQUAL, "orbit iteration from every seed"),
        Check("gaps_monotone_to_floor",
              all(bool(np.all(np.diff(g) <= 1e-15)) and abs(g[-1] - 1.0) <= 1e-12
                  for g in gaps),
              EQUAL, "orbit gap sequences"),
        Check("violation_count", len(con.violations), EQUAL,
              "sweep over edge-eligible pairs"),
        Check("violation_excess", excesses, EQUAL, "deepest-level redirect arithmetic"),
        Check("equivalence_clauses",
              (eq.weakly_connected_a, eq.orbits_merge, eq.at_most_one_bpp), EQUAL,
              "clause evaluation with the truncation-broken bound gate disabled"),
    ]


# ----- ex35_not_bpo -----------------------------------------------------


def build_ex35_not_bpo(depth: int = 6) -> CyclicInstance:
    """Halving chain on the unit square whose middle component holds no
    best proximity point.

    Values {0, 1} and the dyadic chain 2^-n sit at (0, v) on side A and
    (1, v) on side B under l2.  Cross edges join equal values, and halving
    pairs whose two values both lie strictly inside (0, 1); so the chain
    component reaches neither endpoint.  The map halves interior values
    (deepest redirects to 0) and fixes the endpoints, giving exactly two
    best proximity points, both outside the chain component.  Orbits started
    on the chain converge, but to a point of a different component.

    Depth stops at 14: from 15 on, the excess of the deepest steps over
    d(A, B), about 2^-(2 depth + 1), is within TOL_BPP and makes more best
    proximity points.
    """
    if not 2 <= depth <= 14:
        raise ParamOutOfRange(f"ex35_not_bpo needs 2 <= depth <= 14, got {depth}")
    values = sorted({Fraction(0), Fraction(1)}
                    | {Fraction(1, 2 ** n) for n in range(1, depth + 1)})
    deepest = Fraction(1, 2 ** depth)

    points = []
    for v in values:
        points.append((f"a_{v}", (0.0, float(v)), "A"))
    for v in values:
        points.append((f"b_{v}", (1.0, float(v)), "B"))

    def interior(v: Fraction) -> bool:
        return 0 < v < 1

    edges = []
    for v in values:
        edges.append((f"a_{v}", f"b_{v}"))
        edges.append((f"b_{v}", f"a_{v}"))
    for v in values:
        w = v / 2
        if interior(v) and interior(w) and w in values:
            for p, q in ((f"a_{v}", f"b_{w}"),
                         (f"b_{w}", f"a_{v}"),
                         (f"a_{w}", f"b_{v}"),
                         (f"b_{v}", f"a_{w}")):
                edges.append((p, q))
    space = FiniteMetricGraph.from_coords(points, metric="l2", edges=edges,
                                          auto_loops=True)

    def step(v: Fraction) -> Fraction:
        if v == 0 or v == 1:
            return v
        if v == deepest:
            return Fraction(0)
        return v / 2

    mapping = {}
    for v in values:
        mapping[f"a_{v}"] = f"b_{step(v)}"
        mapping[f"b_{v}"] = f"a_{step(v)}"
    tmap = CyclicMapTable.for_space(space, mapping)

    _require(abs(pair_distance(space).d_ab - 1.0) < 1e-15, "d(A,B) = 1")
    _require(bool(has_property_uc(space)), "property UC")
    _require(bool(is_g_chebyshev(space)), "parallel pairs are edges")
    _require(enumerate_bpps(space, tmap) == frozenset({"a_0", "a_1"}),
             "best proximity points at both endpoints")
    _require(x_t2_a_set(space, tmap) == frozenset({"a_0", "a_1"}),
             "X set is the endpoint pair")
    _require(not check_property_star(space),
             "edge transitivity fails on the union graph")
    _require(len(components(space)) == 3, "three weak components")

    return CyclicInstance(
        example_id="ex35_not_bpo",
        space=space,
        tmap=tmap,
        phi1=GaugeSpec("linear", {"c": 0.5}),
        phi2=GaugeSpec("identity"),
        expected={
            "bpp_ids": ["a_0", "a_1"],
            "chain_seed": "a_1/2",
            "chain_component_misses_bpps": [],
            "component_count": 3,
            "bpp_count": 2,
            "cardinality_equal": False,
            "escape_target": "a_0",
            "union_star_fails": False,
        },
    )


def _checks_ex35(inst: CyclicInstance) -> list[Check]:
    sp, tm = inst.space, inst.tmap
    seed = inst.expected["chain_seed"]
    bp = enumerate_bpps(sp, tm)
    nb, nc, card_eq = check_cardinality(sp, tm, check_hypotheses=False)
    esc = solve_bpp(sp, tm, seed, check_hypotheses=False)
    return [
        Check("bpp_ids", sorted(bp), EQUAL, "exhaustive proximity scan"),
        Check("chain_component_misses_bpps", sorted(bp & component_of(sp, seed)),
              EQUAL, "weak component walk"),
        Check("cardinality_mismatch", [nb, nc, card_eq], EQUAL,
              "exhaustive scan and component count",
              ("bpp_count", "component_count", "cardinality_equal")),
        Check("x_set_is_bpp_set", sorted(x_t2_a_set(sp, tm)), EQUAL,
              "squared-map edge scan", "bpp_ids"),
        Check("escape_target", esc.bpp, EQUAL,
              "orbit iteration with the seed gate disabled"),
        Check("union_star_fails", bool(check_property_star(sp)), EQUAL,
              "edge transitivity sweep"),
    ]


# ----- ex41_fixed_point -------------------------------------------------


def build_ex41_fixed_point(depth: int = 6, n_time: int = 64) -> FixedPointInstance:
    """Amplitude family of sampled cosine (side A) and sine (side B) profiles.

    Points are c * cos(2 pi t) and c * sin(2 pi t) sampled on n_time uniform
    nodes, c in {2^-1, ..., 2^-depth}, under the sampled sup norm, plus the
    zero profile carried by both sides.  Amplitudes stop at 1/2 so every
    distance stays below 1 and the edge rule d < 1 yields the complete graph.
    Both maps halve the amplitude and swap the profile shape; the deepest
    amplitude maps to zero.  psi is the constant 1/2.
    """
    if not 2 <= depth <= 20:
        raise ParamOutOfRange(f"ex41_fixed_point needs 2 <= depth <= 20, got {depth}")
    if not 8 <= n_time <= 1024:
        raise ParamOutOfRange(f"ex41_fixed_point needs 8 <= n_time <= 1024, got {n_time}")
    amps = [Fraction(1, 2 ** n) for n in range(1, depth + 1)]
    t = np.arange(n_time) / n_time
    cos_v = np.cos(2 * np.pi * t)
    sin_v = np.sin(2 * np.pi * t)

    points = [("zero", tuple(0.0 for _ in range(n_time)), "AB")]
    for c in amps:
        points.append((f"f_{c}", tuple(float(c) * cos_v), "A"))
    for c in amps:
        points.append((f"g_{c}", tuple(float(c) * sin_v), "B"))

    ids = [p for p, _, _ in points]
    coords = {p: np.array(xy) for p, xy, _ in points}
    edges = [(p, q) for p in ids for q in ids
             if float(np.max(np.abs(coords[p] - coords[q]))) < 1.0]
    space = FiniteMetricGraph.from_coords(points, metric="sup", edges=edges,
                                          auto_loops=True)

    deepest = amps[-1]
    t1 = {"zero": "zero"}
    t2 = {"zero": "zero"}
    for c in amps:
        t1[f"f_{c}"] = "zero" if c == deepest else f"g_{c / 2}"
        t2[f"g_{c}"] = "zero" if c == deepest else f"f_{c / 2}"
    pair = PairMaps.for_space(space, t1, t2)
    psi = PsiGauge.constant(0.5)

    _require(len(space.edges) == len(ids) * len(ids),
             "amplitude cap keeps the graph complete")
    _require(bool(check_property_star(space)), "edge transitivity on the union")
    _require(abs(pair_distance(space).d_ab) < 1e-15, "sides meet at the zero profile")

    return FixedPointInstance(
        example_id="ex41_fixed_point",
        space=space,
        pair=pair,
        psi=psi,
        seed="f_1/2",
        expected={
            "psi_contraction_holds": True,
            "psi_contraction_strengthened": True,
            "fixed_point": "zero",
            "residual": 1e-8,
            "gaps_under_apriori": True,
            "uniqueness_regime": {"weakly_connected": True, "weak_friendship": True},
        },
    )


def _checks_ex41(inst: FixedPointInstance) -> list[Check]:
    sp, pair, psi = inst.space, inst.pair, inst.psi
    ver = verify_g_psi_contraction(sp, pair, psi)
    ver_s = verify_g_psi_contraction(sp, pair, psi, strengthened=True)
    point, trace = solve_common_fixed_point(sp, pair, psi, inst.seed)
    gaps = list(trace.gaps)
    d0 = gaps[0] if gaps else 0.0
    under = all(g <= apriori_bound(d0, psi(d0), n) + 1e-12
                for n, g in enumerate(gaps))
    return [
        Check("psi_contraction_holds", ver.holds, EQUAL, "pointwise rate sweep"),
        Check("psi_contraction_strengthened", ver_s.holds, EQUAL,
              "ordered-pair rate sweep"),
        Check("fixed_point", point, EQUAL, "alternating orbit"),
        Check("residual", residual(sp, pair, point), AT_MOST, "direct distance evaluation"),
        Check("gaps_under_apriori", under, EQUAL, "geometric tail bound"),
        Check("uniqueness_regime", check_uniqueness_regime(sp), EQUAL,
              "connectivity scan"),
    ]


# ----- ex53_pbvp --------------------------------------------------------


E_SQUARED = float(np.exp(2.0))


def build_ex53_pbvp(n_nodes: int = 201) -> PbvpInstance:
    """Periodic problem u' = -e^t u on [0, 1] with weight alpha = e^2.

    The comparison function is h(t) = e^2 - e^t, so the contraction factor is
    beta = (e^2 - 1)/e^2.  The constant -1 is a lower solution and the unique
    periodic solution is the zero function, which the discrete operator fixes
    exactly.
    """
    if not 11 <= n_nodes <= 20001:
        raise ParamOutOfRange(f"ex53_pbvp needs 11 <= n_nodes <= 20001, got {n_nodes}")
    grid = TimeGrid(period=1.0, n=n_nodes)
    f = RhsFunction("exp_linear", {"c": -1.0})
    w0 = GridFunction.constant(grid, -1.0)
    beta = (E_SQUARED - 1.0) / E_SQUARED
    return PbvpInstance(
        example_id="ex53_pbvp",
        f=f,
        alpha=E_SQUARED,
        h_spec={"kind": "exp_gap"},
        grid=grid,
        w0=w0,
        tol=1e-10,
        expected={
            "beta": beta,
            "sup_norm": 1e-6,
            "periodicity_residual": 1e-9,
            "max_ratio": beta + 1e-6,
            "monotone_from_lower_solution": True,
            "lower_solution_minus_one": True,
            "lower_solution_plus_one": False,
        },
    )


def _checks_ex53(inst: PbvpInstance) -> list[Check]:
    u, rep = solve_pbvp(inst.f, inst.alpha, inst.h_spec, inst.w0, tol=inst.tol)
    wplus = GridFunction.constant(inst.grid, 1.0)
    quad = "product-integration quadrature"
    return [
        Check("beta", rep.beta, 1e-12, "sup-ratio arithmetic"),
        Check("sup_norm", u.sup_norm(), AT_MOST, quad),
        Check("periodicity_residual", u.periodicity_residual(), AT_MOST, quad),
        Check("max_ratio", rep.max_ratio, AT_MOST, "successive increment norms"),
        Check("monotone_from_lower_solution", all(rep.monotone_steps), EQUAL,
              "pointwise orbit comparison"),
        Check("lower_solution_minus_one", bool(is_lower_solution(inst.f, inst.w0)),
              EQUAL, "difference-quotient check"),
        Check("lower_solution_plus_one", bool(is_lower_solution(inst.f, wplus)),
              EQUAL, "difference-quotient check"),
    ]


# ----- random hypothesis-passing instances ------------------------------


def build_random_chain(seed: int) -> CyclicInstance:
    """Random instance guaranteed to pass every solver hypothesis.

    One to three components, each a geometric chain of levels above a ground
    level: the value below each level is at most a quarter of it, so the
    level map contracts gaps by at least a factor 3 and the half-rate bound
    holds with room.  Components are complete subgraphs placed far enough
    apart (l1 offsets) that no cross-component pair is ever proximal.  Each
    component ends in a ground two-cycle: exactly one best proximity point
    per component, and every point of A carries its squared-map edge.
    """
    rng = np.random.default_rng(seed)
    n_comp = int(rng.integers(1, 4))
    sizes = [1] * n_comp
    for _ in range(6 - n_comp):
        if rng.random() < 0.75:
            sizes[int(rng.integers(0, n_comp))] += 1
    modes = ["shift" if rng.random() < 0.5 else "collapse" for _ in range(n_comp)]

    points = []
    edges = []
    mapping = {}
    bpp_ids = []
    y = 0.0
    for c, (size, mode) in enumerate(zip(sizes, modes)):
        levels = [0.0]
        if size > 1:
            top = float(rng.uniform(0.5, 1.0))
            vals = [top]
            for _ in range(size - 2):
                vals.append(vals[-1] * float(rng.uniform(0.1, 0.25)))
            levels += sorted(vals)
        comp_ids = []
        for ell, v in enumerate(levels):
            a, b = f"a{c}_{ell}", f"b{c}_{ell}"
            points.append((a, (0.0, y + v), "A"))
            points.append((b, (1.0, y + v), "B"))
            comp_ids += [a, b]
            down = 0 if mode == "collapse" else max(ell - 1, 0)
            mapping[a] = f"b{c}_{down}"
            mapping[b] = f"a{c}_{down}"
        edges += [(p, q) for p in comp_ids for q in comp_ids]
        bpp_ids.append(f"a{c}_0")
        y += 3.0 + float(rng.uniform(0.0, 2.0))

    space = FiniteMetricGraph.from_coords(points, metric="l1", edges=edges,
                                          auto_loops=True)
    tmap = CyclicMapTable.for_space(space, mapping)
    return CyclicInstance(
        example_id=f"random_chain_{seed}",
        space=space,
        tmap=tmap,
        phi1=GaugeSpec("linear", {"c": 0.5}),
        phi2=GaugeSpec("identity"),
        expected={
            "bpp_ids": sorted(bpp_ids),
            "component_count": n_comp,
        },
    )


# ----- registry ---------------------------------------------------------


@dataclass(frozen=True)
class Example:
    build: Callable
    checks: Callable  # the built bundle -> list[Check]


EXAMPLES = {
    "ex22_kappa": Example(build_ex22_kappa, _checks_ex22),
    "ex33_dyadic_l1": Example(build_ex33_dyadic_l1, _checks_ex33),
    "ex35_not_bpo": Example(build_ex35_not_bpo, _checks_ex35),
    "ex41_fixed_point": Example(build_ex41_fixed_point, _checks_ex41),
    "ex53_pbvp": Example(build_ex53_pbvp, _checks_ex53),
}
EXAMPLE_IDS = tuple(EXAMPLES)


def build(example_id: str, **params):
    """Build a corpus instance by id; unknown ids and bad params raise
    ParamOutOfRange."""
    if example_id not in EXAMPLES:
        raise ParamOutOfRange(
            f"unknown example id {example_id!r}; known: {', '.join(EXAMPLE_IDS)}")
    try:
        return EXAMPLES[example_id].build(**params)
    except TypeError as exc:
        raise ParamOutOfRange(f"bad parameters for {example_id}: {exc}") from None


def reproduce(example_id: str, params: dict) -> dict:
    """Build an example, run its checks against its `expected` table and
    return the report: each check's measured and expected values, its pass
    verdict and its source, and whether all passed."""
    inst = build(example_id, **params)
    checks = []
    for c in EXAMPLES[example_id].checks(inst):
        key = c.key or c.name
        expected = ([inst.expected[k] for k in key] if isinstance(key, tuple)
                    else inst.expected[key])
        checks.append({"name": c.name, "measured": c.measured, "expected": expected,
                       "pass": bool(_passes(c.measured, c.rule, expected)),
                       "source": c.source})
    return {"schema": SCHEMA_VERSION, "example_id": example_id, "params": params,
            "checks": checks, "all_pass": all(c["pass"] for c in checks)}
