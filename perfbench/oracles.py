"""Correctness oracles that do not call proxigraph.

Each oracle recomputes a workload's answer from the raw input (coordinates,
distance tables, edge lists, map tables, closed-form solutions) with numpy,
scipy or exact rational arithmetic, and returns a list of error strings; an
empty list means the program's output agreed.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

TOL_GAP = 1e-9      # tolerance on d(x, Tx) against d(A, B), as in the solvers
TOL_VALUE = 1e-12   # tolerance when comparing recomputed distances
KAPPA_SNAP = 1e-12  # floor-fraction gauge: floats this close to 1/n count as 1/n


# ----- finite metric graphs ------------------------------------------------


class RawSpace:
    """Brute-force view of one instance document: l1 or sup distances from
    coordinates, sides, edges and a map table, as numpy arrays (few Python
    objects, so the checks add little to the collector's work in the
    operations that follow)."""

    def __init__(self, ids, coords, sides, edges, mapping, metric):
        self.ids = list(ids)
        self.pos = {p: i for i, p in enumerate(self.ids)}
        pts = np.array([coords[p] for p in self.ids], dtype=float)
        # row by row: an n x n x dim temporary would set the process's peak RSS
        norm = np.sum if metric == "l1" else np.max
        self.dist = np.array([norm(np.abs(pts - row), axis=1) for row in pts])
        self.in_a = np.array(["A" in sides[p] for p in self.ids])
        self.in_b = np.array(["B" in sides[p] for p in self.ids])
        self.adj = np.zeros((len(self.ids), len(self.ids)), dtype=bool)
        for x, y in edges:
            self.adj[self.pos[x], self.pos[y]] = True
        self.mapping = dict(mapping)

    def has_edge(self, x, y) -> bool:
        return bool(self.adj[self.pos[x], self.pos[y]])

    def d(self, x, y) -> float:
        return float(self.dist[self.pos[x], self.pos[y]])

    @cached_property
    def d_ab(self) -> float:
        return float(self.dist[np.ix_(self.in_a, self.in_b)].min())

    @cached_property
    def bpp_set(self) -> set:
        return {p for p, a in zip(self.ids, self.in_a)
                if a and abs(self.d(p, self.mapping[p]) - self.d_ab) <= TOL_GAP}

    @cached_property
    def x_t2_set(self) -> set:
        m = self.mapping
        return {p for p, a in zip(self.ids, self.in_a)
                if a and self.has_edge(p, m[m[p]])}

    @cached_property
    def labels(self) -> np.ndarray:
        """Weak-component label of every point, from scipy."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components
        return connected_components(csr_matrix(self.adj), directed=True,
                                    connection="weak")[1]

    def component(self, x) -> set:
        lab = self.labels
        return {p for p, c in zip(self.ids, lab) if c == lab[self.pos[x]]}

    def n_components_meeting_a(self) -> int:
        return len(set(self.labels[self.in_a].tolist()))


def ground_of(point_id: str) -> str:
    """The ground point of a chain point: random chains name side-A points
    `a<chain>_<level>` and ground every chain at level 0."""
    head, _, _ = point_id.rpartition("_")
    return f"{head}_0"


def check_gaps(raw: RawSpace, points, gaps, what: str) -> list[str]:
    """Recomputed consecutive distances along an orbit equal its gaps."""
    want = [raw.d(p, q) for p, q in zip(points, points[1:])]
    if len(want) != len(gaps) or any(abs(a - b) > TOL_VALUE
                                     for a, b in zip(want, gaps)):
        return [f"{what}: gaps {list(gaps)[:4]}... differ from the distances "
                f"along the orbit {want[:4]}..."]
    return []


def check_battery(raw: RawSpace, out: dict) -> list[str]:
    """One random-chain instance: the criterion-10 checks, solve_bpp from
    every eligible seed and check_cardinality, against brute force."""
    err = []
    dab = raw.d_ab
    bpps = raw.bpp_set
    eligible = raw.x_t2_set
    m = raw.mapping
    n_comp = raw.n_components_meeting_a()
    if set(out["bpps"]) != bpps:
        err.append(f"enumerate_bpps {sorted(out['bpps'])} != brute force {sorted(bpps)}")
    if set(out["eligible"]) != eligible:
        err.append(f"x_t2_a_set {sorted(out['eligible'])} != brute force {sorted(eligible)}")
    for x in bpps:
        if m[m[x]] != x or not raw.has_edge(x, m[m[x]]) or x not in eligible:
            err.append(f"proximity point {x} is not an eligible fixed point of T^2")
    for tr in out["orbits"]:
        err += check_gaps(raw, tr.points, tr.gaps, f"orbit from {tr.x0}")
        if any(b > a + TOL_VALUE for a, b in zip(tr.gaps, tr.gaps[1:])):
            err.append(f"orbit from {tr.x0} does not descend: {tr.gaps}")
        if tr.stop_reason != "converged" or abs(tr.gaps[-1] - dab) > TOL_GAP:
            err.append(f"orbit from {tr.x0} stopped with {tr.stop_reason} "
                       f"at gap {tr.gaps[-1]}, d(A,B) = {dab}")
    single = n_comp == 1
    eq = out["equivalence"]
    clauses = (eq.weakly_connected_a, eq.orbits_merge, eq.at_most_one_bpp)
    if clauses != (single, single, single):
        err.append(f"equivalence clauses {clauses}, but scipy finds {n_comp} components")
    first = raw.ids[0]
    if set(out["component0"]) != raw.component(first):
        err.append(f"component_of({first}) has {len(out['component0'])} points, "
                   f"scipy {len(raw.component(first))}")
    for seed, res in out["solves"].items():
        err += check_bpp_result(raw, seed, res)
    if set(out["solves"]) != eligible:
        err.append("solve_bpp did not run from every eligible seed")
    card = tuple(out["cardinality"])
    if card != (len(bpps), n_comp, True):
        err.append(f"check_cardinality {card} != ({len(bpps)}, {n_comp}, True)")
    return err


def check_bpp_result(raw: RawSpace, seed: str, res) -> list[str]:
    err = []
    want = ground_of(seed)
    if res.bpp != want or res.bpp not in raw.bpp_set:
        err.append(f"solve_bpp from {seed} reached {res.bpp}, chain ground is {want}")
    if abs(res.achieved_gap - raw.d_ab) > TOL_VALUE:
        err.append(f"solve_bpp from {seed}: gap {res.achieved_gap} != d(A,B) {raw.d_ab}")
    if set(res.component) != raw.component(seed):
        err.append(f"solve_bpp from {seed}: component of {len(res.component)} points, "
                   f"scipy {len(raw.component(seed))}")
    return err


def check_orbit_op(raw: RawSpace, seed: str, res, trace) -> list[str]:
    """The body of `solve-bpp`: solve_bpp plus iterate_orbit from one seed."""
    err = check_bpp_result(raw, seed, res)
    err += check_gaps(raw, trace.points, trace.gaps, f"orbit from {seed}")
    if trace.stop_reason != "converged" or abs(trace.gaps[-1] - raw.d_ab) > TOL_GAP:
        err.append(f"orbit from {seed} stopped with {trace.stop_reason}")
    return err


def check_fixed_point(raw: RawSpace, t1, t2, psi_value: float, seed: str,
                      point: str, trace) -> list[str]:
    """Alternating orbit reaches `zero`, residual <= 1e-8, gaps under the
    a priori tail bound psi^n d0 / (1 - psi)."""
    err = []
    if point != "zero":
        err.append(f"fixed point from {seed} is {point}, expected zero")
    residual = (max(raw.d(point, t1[point]), raw.d(point, t2[t1[point]]))
                if point in t1 else math.inf)
    if residual > 1e-8:
        err.append(f"fixed point {point} has residual {residual}")
    err += check_gaps(raw, trace.points, trace.gaps, f"alternating orbit from {seed}")
    if trace.gaps:
        d0 = trace.gaps[0]
        for n, g in enumerate(trace.gaps):
            if g > psi_value ** n * d0 / (1.0 - psi_value) + TOL_VALUE:
                err.append(f"gap {n} from {seed} ({g}) exceeds the a priori bound")
                break
    return err


# ----- ex22_kappa documents and the contraction sweep -----------------------


def kappa_exact(v: Fraction) -> int:
    """Reciprocal-bracket index on [0, 1]: 0 -> 0, 1 -> 1, else ceil(1/v)."""
    if v == 0:
        return 0
    if v == 1:
        return 1
    return math.ceil(1 / v)


def ex22_document(N: int) -> tuple[dict, dict, dict]:
    """Instance, map and gauge documents of the ex22_kappa family, written
    from its definition: values {0, 1, 49/100, 51/100} and, for k = 2..N,
    1/k and the midpoint of [1/k, 1/(k-1)]; f_v on A, g_v on B; cross
    distance 1 + |a - b|, |a - b| within A, 1.5 |a - b| within B; edges
    f_a -> g_b for a >= b in one bracket; the map sends each value to its
    bracket representative on the other side."""
    values = {Fraction(0), Fraction(1), Fraction(49, 100), Fraction(51, 100)}
    for k in range(2, N + 1):
        values.add(Fraction(1, k))
        values.add((Fraction(1, k) + Fraction(1, k - 1)) / 2)
    values = sorted(values)
    n = len(values)
    kap = {v: kappa_exact(v) for v in values}
    rep = {v: Fraction(0) if kap[v] == 0 else Fraction(1, kap[v]) for v in values}
    fv = np.array([float(v) for v in values])
    gap = np.abs(fv[:, None] - fv[None, :])
    table = np.zeros((2 * n, 2 * n))
    table[:n, :n] = gap
    table[n:, n:] = 1.5 * gap
    table[:n, n:] = 1.0 + gap
    table[n:, :n] = 1.0 + gap
    ids = [f"f_{v}" for v in values] + [f"g_{v}" for v in values]
    k = [kap[v] for v in values]  # values are sorted: a >= b is i >= j
    edges = {(ids[i], ids[n + j]) for i in range(n) for j in range(i + 1) if k[i] == k[j]}
    edges |= {(p, p) for p in ids}
    mapping = {}
    for v in values:
        mapping[f"f_{v}"] = f"g_{rep[v]}"
        mapping[f"g_{v}"] = f"f_{rep[v]}"
    instance = {
        "schema": "1",
        "points": [{"id": p, "coords": None, "side": "A" if p[0] == "f" else "B"}
                   for p in ids],
        "metric": "table",
        "dist_table": table.tolist(),
        "edges": sorted([a, b] for a, b in edges),
        "auto_loops": False,
    }
    gauges = {"schema": "1",
              "phi1": {"kind": "floor_fraction", "params": {}},
              "phi2": {"kind": "identity", "params": {}}}
    return instance, {"map": {k: mapping[k] for k in sorted(mapping)}}, gauges


def floor_fraction(s: np.ndarray) -> np.ndarray:
    """phi(s) = floor(s) + frac(s) / kappa(frac(s)), frac = 0 -> floor(s)."""
    fl = np.floor(s)
    frac = s - fl
    inner = frac > KAPPA_SNAP
    safe = np.where(inner, frac, 0.5)
    recip = 1.0 / safe
    near = np.maximum(np.rint(recip), 1.0)
    kap = np.where(np.abs(safe - 1.0 / near) <= KAPPA_SNAP, near, np.ceil(recip))
    return np.where(inner, fl + frac / kap, fl)


PROBE = ("f_49/100", "g_51/100")  # d = 1.02, image distance 1 + 1/6


def ex22_sweep(instance: dict, mapping: dict, tol: float = 1e-9) -> dict:
    """Violations of the contraction bound with phi1 = floor_fraction and
    phi2 = identity, over all A x B pairs, as index and value arrays; plus
    the violation count over edge-eligible pairs only."""
    ids = [p["id"] for p in instance["points"]]
    pos = {p: i for i, p in enumerate(ids)}
    D = np.array(instance["dist_table"], dtype=float)
    a = np.array([pos[p["id"]] for p in instance["points"] if p["side"] == "A"])
    b = np.array([pos[p["id"]] for p in instance["points"] if p["side"] == "B"])
    T = np.array([pos[mapping[p]] for p in ids])
    dab = float(D[np.ix_(a, b)].min())
    dxy = D[np.ix_(a, b)]
    lhs = D[np.ix_(T[a], T[b])]
    # phi2 = identity drops the (m - phi2(m)) term and phi2(dab) - dab
    rhs = (dxy - floor_fraction(dxy)) + float(floor_fraction(np.array(dab)))
    bad = lhs > rhs + tol
    edge = np.zeros((len(ids), len(ids)), dtype=bool)
    for x, y in instance["edges"]:
        edge[pos[x], pos[y]] = True
    eligible = (edge[np.ix_(a, b)] | edge[a[:, None], T[b][None, :]]
                | edge[T[b][None, :], a[:, None]])
    i, j = np.nonzero(bad)
    return {"ids": ids, "x": a[i], "y": b[j], "lhs": lhs[i, j], "rhs": rhs[i, j],
            "checked": len(a) * len(b), "d_ab": dab,
            "edge_violations": int(np.count_nonzero(bad & eligible)),
            "probe_d": float(D[pos[PROBE[0]], pos[PROBE[1]]])}


def check_verify_report(sweep: dict, report: dict, code: int) -> list[str]:
    """`verify --all-pairs` report against the recomputed sweep."""
    err = []
    if abs(sweep["probe_d"] - 1.02) > TOL_VALUE:
        err.append("probe pair distance in the document is not 1.02")
    if sweep["edge_violations"]:
        err.append(f"edge-restricted sweep fails on {sweep['edge_violations']} pairs")
    con = report.get("contraction", {})
    if code != 1 or report.get("verified") is not False or con.get("holds") is not False:
        err.append(f"all-pairs sweep should fail with exit 1, got {code} / {con.get('holds')}")
    if con.get("checked_pairs") != sweep["checked"]:
        err.append(f"checked_pairs {con.get('checked_pairs')} != {sweep['checked']}")
    if abs(report.get("d_ab", -1.0) - sweep["d_ab"]) > TOL_VALUE:
        err.append(f"d_ab {report.get('d_ab')} != {sweep['d_ab']}")
    viols = con.get("violations", [])
    if len(viols) != len(sweep["x"]):
        return err + [f"{len(viols)} violations reported, {len(sweep['x'])} recomputed"]
    pos = {p: i for i, p in enumerate(sweep["ids"])}
    gx = np.array([pos.get(v["x"], -1) for v in viols], dtype=int)
    gy = np.array([pos.get(v["y"], -1) for v in viols], dtype=int)
    gl = np.array([v["lhs"] for v in viols], dtype=float)
    gr = np.array([v["rhs"] for v in viols], dtype=float)
    got, want = np.lexsort((gy, gx)), np.lexsort((sweep["y"], sweep["x"]))
    if not (np.array_equal(gx[got], sweep["x"][want])
            and np.array_equal(gy[got], sweep["y"][want])):
        return err + ["reported violation pairs differ from the recomputed ones"]
    if (np.max(np.abs(gl[got] - sweep["lhs"][want]), initial=0.0) > TOL_VALUE
            or np.max(np.abs(gr[got] - sweep["rhs"][want]), initial=0.0) > TOL_VALUE):
        err.append("reported lhs/rhs values differ from the recomputed ones")
    probe = [v["lhs"] for v in viols if (v["x"], v["y"]) == PROBE]
    if not probe or abs(probe[0] - (1.0 + 1.0 / 6.0)) > TOL_VALUE:
        err.append(f"probe pair image distance {probe} is not 1 + 1/6")
    return err


# ----- periodic BVP closed forms ----------------------------------------------


def pbvp_exact(kind: str, t: np.ndarray) -> np.ndarray:
    """Closed-form periodic solutions of the workload's problems."""
    if kind == "cosine_forced":  # u' = -u + cos(w t), w = 2 pi
        w = 2.0 * math.pi
        return (np.cos(w * t) + w * np.sin(w * t)) / (1.0 + w * w)
    if kind == "linear":         # u' = 1 - u
        return np.ones_like(t)
    if kind == "ex53":           # u' = -e^t u
        return np.zeros_like(t)
    raise ValueError(kind)


def check_pbvp(kind: str, t: np.ndarray, values: np.ndarray) -> list[str]:
    """Grid solution within 1.0 h^2 (plus the iteration tolerance) of the
    closed form; the trapezoid scheme's error constant is about 2/3."""
    h = float(t[1] - t[0])
    cap = h * h + 1e-8
    err = float(np.max(np.abs(values - pbvp_exact(kind, t))))
    if not err <= cap:
        return [f"{kind} at N={len(t)}: error {err:.3e} exceeds {cap:.3e}"]
    return []
