"""Common fixed points of a pair of maps running opposite ways between A and B.

The pair (T1: A -> B, T2: B -> A) contracts along orbits: whenever x carries an
edge to its image, the next step shrinks by a state-dependent rate psi < 1,
    d(T_i x, T_j T_i x) <= psi(d(x, T_i x)) * d(x, T_i x),
and the stepped pair is again an edge.  The strengthened variant quantifies
over cross pairs (x, T_i y), which is what uniqueness arguments use.

Common fixed points live in the overlap of the two sides, so instances here
typically have d(A, B) = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bpp_solver import OrbitTrace
from .cyclic_contraction import (
    GaugeSpec,
    check_side_map,
    eval_gauge,
    interpolate,
    parse_knots,
)
from .errors import (
    InstanceFormatError,
    InvalidPsi,
    NoConvergence,
    SeedNotEligible,
    SideMismatch,
    require,
    require_tol,
)
from .metric_graph import (
    FiniteMetricGraph,
    _number,
    _params,
    check_property_star,
    is_weakly_connected,
)

TOL_FIX = 1e-9
MAX_ITER = 10_000

PSI_KINDS = ("constant", "table")


@dataclass(frozen=True)
class PsiGauge:
    """Non-decreasing rate function [0, inf) -> [0, 1).

    kinds: constant (params: value) and table (piecewise linear through sorted
    knots, clamped at the ends).
    """

    kind: str
    params: dict

    def __post_init__(self):
        # the parameters are parsed here once; __call__ reads _value and _knots
        if self.kind not in PSI_KINDS:
            raise InvalidPsi(f"unknown psi kind {self.kind!r}")
        if self.kind == "constant":
            v = _number(self.params.get("value", -1.0), "constant psi value")
            if not 0.0 <= v < 1.0:
                raise InvalidPsi(f"constant psi needs 0 <= value < 1, got {v}")
            object.__setattr__(self, "_value", v)
        else:
            knots = self.params.get("knots")
            if not knots:
                raise InvalidPsi("table psi needs knots")
            ss, vs = parse_knots(knots, "table psi")
            if sorted(ss) != list(ss):
                raise InvalidPsi("table psi knots must be sorted in s")
            if any(not 0.0 <= v < 1.0 for v in vs):
                raise InvalidPsi("table psi values must lie in [0, 1)")
            if any(b < a for a, b in zip(vs, vs[1:])):
                raise InvalidPsi("table psi must be non-decreasing")
            object.__setattr__(self, "_knots", (ss, vs))

    @classmethod
    def constant(cls, value: float) -> "PsiGauge":
        return cls("constant", {"value": float(value)})

    @classmethod
    def from_dict(cls, data) -> "PsiGauge":
        if not isinstance(data, dict) or "kind" not in data:
            raise InstanceFormatError("psi spec must be an object with a 'kind'")
        return cls(kind=str(data["kind"]), params=_params(data, "psi"))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    def __call__(self, s: float) -> float:
        if s < 0:
            raise InvalidPsi(f"psi is defined on [0, inf), got {s}")
        if self.kind == "constant":
            return self._value
        ss, vs = self._knots
        # clamped at both ends, where the gauge tables extend their end segments
        if s <= ss[0]:
            return vs[0]
        if s >= ss[-1]:
            return vs[-1]
        return interpolate(ss, vs, s)


def psi_from_phi(phi: GaugeSpec, d_ab: float, grid) -> PsiGauge:
    """Convert a contraction gauge into a rate function via
    t * (1 - psi(t)) = phi(t) - phi(d_ab) on t >= d_ab, extended constantly
    below d_ab.  Sampled on the supplied grid and returned as a table."""
    values = sorted(set(float(t) for t in grid if t > d_ab))
    if not values:
        raise InvalidPsi("conversion grid needs at least one value above d_ab")
    knots = []
    base = eval_gauge(phi, d_ab)
    for t in values:
        rate = 1.0 - (eval_gauge(phi, t) - base) / t
        if not 0.0 <= rate < 1.0:
            raise InvalidPsi(f"converted rate {rate} at t={t} leaves [0, 1)")
        knots.append((t, rate))
    # clamp-extension below the first knot realizes the constant extension
    if any(b < a - 1e-12 for (_, a), (_, b) in zip(knots, knots[1:])):
        raise InvalidPsi("converted rate is not non-decreasing on the grid")
    # repair tiny float dips so the table constructor's monotonicity gate passes
    fixed = []
    prev = 0.0
    for s, v in knots:
        prev = max(prev, v)
        fixed.append((s, prev))
    if len(fixed) == 1:
        return PsiGauge.constant(fixed[0][1])
    return PsiGauge("table", {"knots": fixed})


@dataclass(frozen=True)
class PairMaps:
    """Tables for the two directions: t1 on side A, t2 on side B."""

    t1: dict[str, str]
    t2: dict[str, str]

    @classmethod
    def for_space(cls, space: FiniteMetricGraph, t1, t2) -> "PairMaps":
        pm = cls(dict(t1), dict(t2))
        pm.validate(space)
        return pm

    def validate(self, space: FiniteMetricGraph):
        check_side_map(space, "t1", self.t1, "A")
        check_side_map(space, "t2", self.t2, "B")


def residual(space: FiniteMetricGraph, pair: PairMaps, p: str) -> float:
    """How far p is from a common fixed point: max(d(p, T1 p), d(p, T2 T1 p))."""
    q = pair.t1[p]
    return max(space.d(p, q), space.d(p, pair.t2[q]))


@dataclass(frozen=True)
class PsiContractionReport:
    """Result of a rate sweep, and a verdict like CheckResult."""

    holds: bool
    checked: int
    violations: tuple[tuple[str, str, float, float], ...]
    edge_violations: tuple[tuple[str, str, str], ...]

    def __bool__(self) -> bool:
        return self.holds

    @property
    def witness(self) -> tuple | None:
        """The first rate violation, or else the first image pair that is no edge."""
        return (self.violations or self.edge_violations or (None,))[0]


def verify_g_psi_contraction(space: FiniteMetricGraph, pair: PairMaps,
                             psi: PsiGauge, tol: float = TOL_FIX,
                             strengthened: bool = False) -> PsiContractionReport:
    """Check the orbit-step contraction for both directions.

    Default mode checks each x against its own image: whenever (x, T_i x) is
    an edge, d(T_i x, T_j T_i x) <= psi(d(x, T_i x)) * d(x, T_i x) and the
    image pair is again an edge.  Strengthened mode quantifies over ordered
    pairs (x, y) on the same side with (x, T_i y) an edge, comparing
    d(T_i x, T_j T_i y) against psi(d(x, T_i y)) * d(x, T_i y); that is the
    uniqueness-grade condition.
    """
    require_tol(tol)
    pair.validate(space)
    checked = 0
    viols: list[tuple[str, str, float, float]] = []
    edge_viols: list[tuple[str, str, str]] = []
    for side, ti, tj in ((space.side_a(), pair.t1, pair.t2),
                         (space.side_b(), pair.t2, pair.t1)):
        for x in sorted(side):
            for y in sorted(side) if strengthened else (x,):
                img = ti[y]
                if not space.has_edge(x, img):
                    continue
                lead = ti[x]
                nxt = tj[img]
                checked += 1
                d0 = space.d(x, img)
                if not space.has_edge(lead, nxt):
                    edge_viols.append((lead, nxt,
                                       f"image pair of ({x}, {y}) is not an edge"))
                lhs = space.d(lead, nxt)
                rhs = psi(d0) * d0
                if lhs > rhs + tol:
                    viols.append((x, y, lhs, rhs))

    return PsiContractionReport(
        holds=not viols and not edge_viols,
        checked=checked,
        violations=tuple(sorted(viols)),
        edge_violations=tuple(sorted(edge_viols)),
    )


def apriori_bound(d0: float, psi_at_d0: float, n: int) -> float:
    """Tail bound psi^n * d0 / (1 - psi) for the distance from step n to the limit."""
    if not 0.0 <= psi_at_d0 < 1.0:
        raise InvalidPsi(f"rate must lie in [0, 1), got {psi_at_d0}")
    if d0 < 0 or n < 0:
        raise InvalidPsi("d0 and n must be nonnegative")
    return (psi_at_d0 ** n) * d0 / (1.0 - psi_at_d0)


def solve_common_fixed_point(space: FiniteMetricGraph, pair: PairMaps,
                             psi: PsiGauge, x0: str,
                             tol: float = TOL_FIX, max_iter: int = MAX_ITER,
                             check_hypotheses: bool = True) -> tuple[str, OrbitTrace]:
    """Alternate T1 and T2 from x0 in A until both residuals vanish."""
    require_tol(tol)
    pair.validate(space)
    if "A" not in space.side.get(x0, ""):
        raise SideMismatch(f"seed must lie on side A, got {x0!r}")
    if check_hypotheses:
        if not space.has_edge(x0, pair.t1[x0]):
            raise SeedNotEligible("seed edge (x0, T1 x0)", x0)
        require("property (*) on the union graph", check_property_star(space))

    points = [x0]
    gaps: list[float] = []
    seen_even = {x0}
    reason = "max_iter"
    for _ in range(max_iter):
        cur = points[-1]
        if len(points) % 2 == 1:  # even index: a point of A
            if residual(space, pair, cur) <= tol:
                reason = "converged"
                break
            nxt = pair.t1[cur]
        else:
            nxt = pair.t2[cur]
        gaps.append(space.d(cur, nxt))
        points.append(nxt)
        if len(points) % 2 == 1:
            if points[-1] in seen_even:
                reason = "cycle_detected"
                break
            seen_even.add(points[-1])
    trace = OrbitTrace(x0=x0, points=tuple(points), gaps=tuple(gaps),
                       stop_reason=reason,
                       cycle_is_t2_fixed=(reason == "converged") or None)
    if reason != "converged":
        raise NoConvergence(f"alternating orbit from {x0!r} stopped with {reason}")
    return points[-1], trace


def check_uniqueness_regime(space: FiniteMetricGraph) -> dict[str, bool]:
    """Graph-side conditions under which the common fixed point is unique:
    overall weak connectivity, or a common in-neighbour for every pair in A."""
    weakly = is_weakly_connected(space)
    a = space.side_a()
    friendship = True
    for i, x in enumerate(a):
        for y in a[i:]:
            if not any(space.has_edge(u, x) and space.has_edge(u, y) for u in a):
                friendship = False
                break
        if not friendship:
            break
    return {"weakly_connected": weakly, "weak_friendship": friendship}
