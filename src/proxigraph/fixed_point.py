"""Common fixed points of a pair of maps running opposite ways between A and B.

The pair (T1: A -> B, T2: B -> A) contracts along orbits: whenever x carries an
edge to its image, the next step shrinks by a state-dependent rate psi < 1,
    d(T_i x, T_j T_i x) <= psi(d(x, T_i x)) * d(x, T_i x),
and the stepped pair is again an edge.  The strengthened variant quantifies
over cross pairs (x, T_i y), which is what uniqueness arguments use.

Common fixed points live in the overlap of the two sides, so instances here
typically have d(A, B) = 0.  The rate sweep looks its edges up with the
space's `_is_edge`, and reads its distance array, at the image arrays that
`PairMaps.validate` returns.  The theorem's gates are listed once, in order,
in `_check_fixed_point_hypotheses`; only the CLI passes it a psi to sweep.
A psi spec, or a whole psi file, is read by `metric_graph.read_spec`.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .bpp_solver import OrbitTrace, _seed_on_a, _walk
from .cyclic_contraction import (
    GaugeSpec,
    _image_array,
    _knot_values,
    _read_map,
    check_side_map,
    gauge_values,
    parse_knots,
)
from .errors import (
    MAX_ITER,
    TOL_SLACK,
    InvalidPsi,
    NoConvergence,
    SeedNotEligible,
    require,
    require_max_iter,
    require_tol,
)
from .metric_graph import (
    FiniteMetricGraph,
    _check_kind,
    _number,
    check_property_star,
    is_weakly_connected,
    read_spec,
)

TOL_FIX = TOL_SLACK

# kind -> the parameter names that kind reads
PSI_PARAMS = {"constant": {"value"}, "table": {"knots"}}


@dataclass(frozen=True)
class PsiGauge:
    """Non-decreasing rate function [0, inf) -> [0, 1).

    kinds: constant (params: value) and table (piecewise linear through sorted
    knots by the table gauges' `_knot_values`, but clamped at the ends).
    """

    kind: str
    params: dict

    def __post_init__(self):
        # the parameters are parsed here once; rates reads _value and _knots
        _check_kind(self.kind, self.params, PSI_PARAMS, "psi", InvalidPsi)
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
            knots = np.array((ss, vs))
            knots.flags.writeable = False
            object.__setattr__(self, "_knots", knots)

    @classmethod
    def constant(cls, value: float) -> "PsiGauge":
        return cls("constant", {"value": float(value)})

    @classmethod
    def from_dict(cls, data) -> "PsiGauge":
        """data in read_spec's layout: a psi file's object passes whole."""
        return cls(*read_spec(data, "psi"))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    def __call__(self, s: float) -> float:
        """psi at the one number s."""
        return float(self.rates(np.array([s], dtype=float))[0])

    def rates(self, s: np.ndarray) -> np.ndarray:
        """psi at every entry of the float array s, as an array."""
        if (s < 0).any():
            raise InvalidPsi(f"psi is defined on [0, inf), got {s[s < 0][0].item()}")
        if self.kind == "constant":
            return np.full(s.shape, self._value)
        ss, vs = self._knots
        # clamped at both ends, where the gauge tables extend their end segments;
        # only the strictly inner s reach the knot rule, so equal knots divide by nothing
        low, high = s <= ss[0], s >= ss[-1]
        out = np.where(low, vs[0], vs[-1])
        inner = ~(low | high)
        out[inner] = _knot_values(ss, vs, s[inner])
        return out


def psi_from_phi(phi: GaugeSpec, d_ab: float, grid) -> PsiGauge:
    """Convert a contraction gauge into a rate function via
    t * (1 - psi(t)) = phi(t) - phi(d_ab) on t >= d_ab, extended constantly
    below d_ab.  Sampled on the supplied grid and returned as a table."""
    values = sorted(set(float(t) for t in grid if t > d_ab))
    if not values:
        raise InvalidPsi("conversion grid needs at least one value above d_ab")
    phi_t = gauge_values(phi, [d_ab] + values)
    rates = 1.0 - (phi_t[1:] - phi_t[0]) / values
    leaves = ~((rates >= 0.0) & (rates < 1.0))
    if leaves.any():
        i = int(np.argmax(leaves))
        raise InvalidPsi(f"converted rate {rates[i].item()} at t={values[i]} leaves [0, 1)")
    # clamp-extension below the first knot realizes the constant extension
    if np.any(rates[1:] < rates[:-1] - 1e-12):
        raise InvalidPsi("converted rate is not non-decreasing on the grid")
    # repair tiny float dips so the table constructor's monotonicity gate passes
    fixed = list(zip(values, np.maximum.accumulate(rates).tolist()))
    if len(fixed) == 1:
        return PsiGauge.constant(fixed[0][1])
    return PsiGauge("table", {"knots": fixed})


@dataclass(frozen=True, eq=False)
class PairMaps:
    """Tables for the two directions: t1 on side A, t2 on side B.

    Like `CyclicMapTable`, each table is a read-only view of a private copy, a
    pair is compared by identity, and its check against a space is kept on
    that space.
    """

    t1: Mapping[str, str]
    t2: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "t1", _read_map(self.t1, "t1"))
        object.__setattr__(self, "t2", _read_map(self.t2, "t2"))

    def __reduce__(self):
        # read-only mappings do not pickle; rebuild from plain copies instead
        return (type(self), (dict(self.t1), dict(self.t2)))

    @classmethod
    def for_space(cls, space: FiniteMetricGraph, t1, t2) -> "PairMaps":
        pm = cls(t1, t2)
        pm.validate(space)
        return pm

    def validate(self, space: FiniteMetricGraph) -> tuple[np.ndarray, np.ndarray]:
        """Check the pair against space, once per space, and return the image
        arrays of t1 and t2 there, len(space.ids) off each table's side."""
        def check():
            check_side_map(space, "t1", self.t1, "A")
            check_side_map(space, "t2", self.t2, "B")
            return _image_array(space, self.t1), _image_array(space, self.t2)
        return space._cached(("map", self), check)

    def _steps(self, space: FiniteMetricGraph) -> list[list[float]]:
        """d(p, t1 p), d(q, t2 q) and d(p, t2 t1 p) at the position of each p
        on A and q on B, nan elsewhere, as lists: computed once per space by
        the space's pair rule and kept there, for the alternating walk."""
        def steps():
            im1, im2 = self.validate(space)
            ia, ib = space._sides["A"][1], space._sides["B"][1]
            out = np.full((3, len(space.ids)), np.nan)
            out[0, ia] = space._pair_dist(ia, im1[ia])
            out[1, ib] = space._pair_dist(ib, im2[ib])
            out[2, ia] = space._pair_dist(ia, im2[im1[ia]])
            return out.tolist()
        return space._cached(("steps", self), steps)

    def _seed_edges(self, space: FiniteMetricGraph) -> list[bool]:
        """Whether (p, t1 p) is an edge, at the position of each p on A, False
        elsewhere: the seed-edge gate, computed once per space and kept there."""
        def seed_edges():
            im1 = self.validate(space)[0]
            ia = space._sides["A"][1]
            out = np.zeros(len(space.ids), dtype=bool)
            out[ia] = space._is_edge(ia, im1[ia])
            return out.tolist()
        return space._cached(("seed_edges", self), seed_edges)


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
    uniqueness-grade condition.  Each side is swept in sorted id order.
    """
    require_tol(tol)
    images = pair.validate(space)
    edge, dist, names = space._is_edge, space._pair_dist, np.array(space.ids, dtype=object)
    cols = []  # per side, for each checked pair: x, y, T_i y, T_i x and T_j T_i y
    for s, ti, tj in (("A", *images), ("B", *images[::-1])):
        p = space._sides[s][1]
        p = p[np.argsort(space._rank[p])]
        x, y = (np.repeat(p, len(p)), np.tile(p, len(p))) if strengthened else (p, p)
        on = edge(x, ti[y])  # (x, T_i y) is an edge
        x, y = x[on], y[on]
        cols.append((x, y, ti[y], ti[x], tj[ti[y]]))
    x, y, img, lead, nxt = map(np.concatenate, zip(*cols))
    d0, lhs = dist(x, img), dist(lead, nxt)
    rhs = psi.rates(d0) * d0
    bad, off = lhs > rhs + tol, ~edge(lead, nxt)
    viols = tuple(sorted(zip(names[x[bad]].tolist(), names[y[bad]].tolist(),
                             lhs[bad].tolist(), rhs[bad].tolist())))
    edge_viols = tuple(sorted((u, v, f"image pair of ({i}, {j}) is not an edge") for i, j, u, v
                              in zip(*(names[c[off]].tolist() for c in (x, y, lead, nxt)))))
    return PsiContractionReport(not viols and not edge_viols, len(x), viols, edge_viols)


def apriori_bound(d0: float, psi_at_d0: float, n: int) -> float:
    """Tail bound psi^n * d0 / (1 - psi) for the distance from step n to the limit."""
    if not 0.0 <= psi_at_d0 < 1.0:
        raise InvalidPsi(f"rate must lie in [0, 1), got {psi_at_d0}")
    if d0 < 0 or n < 0:
        raise InvalidPsi("d0 and n must be nonnegative")
    return (psi_at_d0 ** n) * d0 / (1.0 - psi_at_d0)


def _check_fixed_point_hypotheses(space, pair, x0, psi=None, strengthened=False, tol=TOL_FIX):
    """In order: the seed's side, psi's sweep at tol if given, the seed edge, (*) on the union."""
    _seed_on_a(space, x0)
    if psi is not None:
        require("psi contraction bound",
                verify_g_psi_contraction(space, pair, psi, tol, strengthened))
    if not pair._seed_edges(space)[space.index[x0]]:
        raise SeedNotEligible("seed edge (x0, T1 x0)", x0)
    require("property (*) on the union graph", check_property_star(space))


def solve_common_fixed_point(space: FiniteMetricGraph, pair: PairMaps,
                             psi: PsiGauge, x0: str,
                             tol: float = TOL_FIX, max_iter: int = MAX_ITER,
                             check_hypotheses: bool = True) -> tuple[str, OrbitTrace]:
    """Alternate T1 and T2 from x0 in A until both residuals vanish."""
    require_tol(tol)
    require_max_iter(max_iter)
    pair.validate(space)
    if check_hypotheses:
        _check_fixed_point_hypotheses(space, pair, x0)
    else:
        _seed_on_a(space, x0)

    # a stop test at step max_iter - 1 looks one point ahead
    points, repeat = _walk((pair.t1, pair.t2), x0, max_iter + 1)
    to_t1, to_t2, to_t2_t1 = pair._steps(space)
    gaps: list[float] = []
    for i in range(min(len(points) - 1, max_iter)):
        p = points[i]
        at = space.index[p]
        gap = to_t2[at] if i % 2 else to_t1[at]
        # at an even index, gap is d(p, T1 p), the first term of residual(space, pair, p)
        if i % 2 == 0 and gap <= tol and to_t2_t1[at] <= tol:
            return p, OrbitTrace(x0=x0, points=tuple(points[:i + 1]), gaps=tuple(gaps),
                                 stop_reason="converged", cycle_is_t2_fixed=True)
        gaps.append(gap)
    # a repeat counts only within the max_iter steps the test looked at
    reason = "cycle_detected" if repeat and len(points) <= max_iter + 1 else "max_iter"
    raise NoConvergence(f"alternating orbit from {x0!r} stopped with {reason}")


def check_uniqueness_regime(space: FiniteMetricGraph) -> dict[str, bool]:
    """Graph-side conditions under which the common fixed point is unique:
    overall weak connectivity, or a common in-neighbour for every pair in A."""
    ia = space._sides["A"][1]
    # [u, x]: whether u -> x is an edge, as 0 or 1
    into = space._is_edge(ia[:, None], ia).astype(float)
    # (into^T into)[x, y] counts the common in-neighbours in A of x and y; in
    # float64 the product goes through BLAS, and counts up to |A| < 2^53 are exact
    return {"weakly_connected": is_weakly_connected(space),
            "weak_friendship": bool((into.T @ into).all())}
