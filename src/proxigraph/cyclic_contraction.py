"""Gauge functions and the edge-restricted cyclic contraction verifier.

A gauge is a map on [0, inf) used in the contraction bound
    d(Tx, Ty) <= (I - phi1)(d(x, y)) + (I - phi2)(m(x, y))
                 + (phi1 + phi2 - I)(d(A, B)),
checked only for pairs (x, y) in A x B that are edge-eligible: at least one of
(x, y), (x, Ty), (Ty, x) is an edge.  m(x, y) = max(d(x, Tx), d(y, Ty)).

The floor-fraction gauge needs the reciprocal-bracket index kappa: for
0 < z < 1, kappa(z) is the unique n + 1 with 1/(n+1) <= z < 1/n.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import (
    GaugeClassViolation,
    InstanceFormatError,
    OutOfDomain,
    SideMismatch,
    require_tol,
)
from .metric_graph import (
    CheckResult,
    FiniteMetricGraph,
    _number,
    _params,
    pair_distance,
    read_document,
)

TOL_INEQ = 1e-9       # slack allowed when checking the contraction inequality
KAPPA_SNAP = 1e-12    # snap width for z that is a float neighbour of some 1/n

GAUGE_KINDS = ("linear", "affine_shift", "floor_fraction", "identity", "table")


def kappa(z: float) -> int:
    """Index of the reciprocal bracket containing z, for z strictly inside (0, 1).

    Floats within KAPPA_SNAP of some exact 1/n are treated as 1/n, which keeps
    values like 0.02 (whose reciprocal is 49.999...) on the intended bracket.
    """
    if not 0.0 < z < 1.0:
        raise OutOfDomain(f"kappa needs 0 < z < 1, got {z}")
    recip = 1.0 / z
    near = round(recip)
    if near >= 1 and abs(z - 1.0 / near) <= KAPPA_SNAP:
        return int(near)
    return int(math.ceil(recip))


def kappa_total(z: float) -> int:
    """kappa extended to the closed interval with the conventions 0 -> 0, 1 -> 1."""
    if abs(z) <= KAPPA_SNAP:
        return 0
    if abs(z - 1.0) <= KAPPA_SNAP:
        return 1
    return kappa(z)


@dataclass(frozen=True)
class GaugeSpec:
    """Named gauge with parameters.

    kinds:
      linear         phi(s) = c * s, 0 < c <= 1
      affine_shift   phi(s) = c + s, c >= 0
      floor_fraction phi(s) = floor(s) + frac(s) / kappa(frac(s)), with
                     frac(s) = 0 mapping to floor(s)
      identity       phi(s) = s
      table          piecewise-linear through sorted (s, phi) knots, linearly
                     extended beyond the last knot
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # the parameters are parsed here once; eval_gauge reads _c and _knots
        if self.kind not in GAUGE_KINDS:
            raise InstanceFormatError(f"unknown gauge kind {self.kind!r}")
        if self.kind == "linear":
            c = _number(self.params.get("c", -1.0), "linear gauge c")
            if not 0.0 < c <= 1.0:
                raise InstanceFormatError("linear gauge needs 0 < c <= 1")
            object.__setattr__(self, "_c", c)
        elif self.kind == "affine_shift":
            c = _number(self.params.get("c", -1.0), "affine_shift gauge c")
            if c < 0.0:
                raise InstanceFormatError("affine_shift gauge needs c >= 0")
            object.__setattr__(self, "_c", c)
        elif self.kind == "table":
            ss, vs = parse_knots(self.params.get("knots") or (), "table gauge")
            if len(ss) < 2:
                raise InstanceFormatError("table gauge needs at least two knots")
            if sorted(ss) != list(ss) or len(set(ss)) != len(ss):
                raise InstanceFormatError("table gauge knots must be strictly sorted in s")
            object.__setattr__(self, "_knots", (ss, vs))

    @classmethod
    def from_dict(cls, data) -> "GaugeSpec":
        if not isinstance(data, dict) or "kind" not in data:
            raise InstanceFormatError("gauge spec must be an object with a 'kind'")
        return cls(kind=str(data["kind"]), params=_params(data, "gauge"))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}


def parse_knots(knots, what) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The abscissae and the values of (s, value) knots, as floats."""
    try:
        pairs = [(float(s), float(v)) for s, v in knots]
    except (TypeError, ValueError):
        raise InstanceFormatError(
            f"{what} knots must be (s, value) pairs of numbers, got {knots!r}") from None
    return tuple(s for s, _ in pairs), tuple(v for _, v in pairs)


def interpolate(ss, vs, s: float) -> float:
    """Piecewise-linear value at s through the knots (ss, vs), ss sorted: on the
    segment ending at the first knot >= s, or on an end segment extended."""
    if s <= ss[0]:
        lo, hi = 0, 1
    elif s >= ss[-1]:
        lo, hi = len(ss) - 2, len(ss) - 1
    else:
        hi = bisect_left(ss, s)
        lo = hi - 1
    t = (s - ss[lo]) / (ss[hi] - ss[lo])
    return vs[lo] + t * (vs[hi] - vs[lo])


def eval_gauge(gauge: GaugeSpec, s: float) -> float:
    if s < 0:
        raise OutOfDomain(f"gauges are defined on [0, inf), got {s}")
    if gauge.kind == "linear":
        return gauge._c * s
    if gauge.kind == "affine_shift":
        return gauge._c + s
    if gauge.kind == "identity":
        return s
    if gauge.kind == "floor_fraction":
        fl = math.floor(s)
        frac = s - fl
        if frac <= KAPPA_SNAP:
            return float(fl)
        return float(fl) + frac / kappa(frac)
    return interpolate(*gauge._knots, s)


def verify_gauge_classes(phi1: GaugeSpec, phi2: GaugeSpec, grid) -> CheckResult:
    """phi1 strictly increasing and phi2 - I non-decreasing over the sorted grid.

    Grid values closer than the snap width collapse to one representative:
    they are the same distance up to float noise, and comparing gauge output
    across them would only measure rounding.
    """
    raw = sorted(set(float(s) for s in grid))
    values: list[float] = []
    for s in raw:
        if not values or s - values[-1] > KAPPA_SNAP:
            values.append(s)
    for lo, hi in zip(values, values[1:]):
        if not eval_gauge(phi1, hi) > eval_gauge(phi1, lo):
            return CheckResult(False, ("phi1 not increasing", lo, hi))
        shift_lo = eval_gauge(phi2, lo) - lo
        shift_hi = eval_gauge(phi2, hi) - hi
        if shift_hi < shift_lo - KAPPA_SNAP:
            return CheckResult(False, ("phi2 - I decreasing", lo, hi))
    return CheckResult(True)


# ----- cyclic map tables ------------------------------------------------


def check_side_map(space: FiniteMetricGraph, name: str, table: dict[str, str],
                   sources: str) -> None:
    """The map rule for the source sides ("A", "B" or "AB"): every point of a
    source side has an entry in table, the entry is a known point, and that
    point lies on the other side; and every key of table is a point of a
    source side."""
    side = space.side
    covered = 0
    for src in sources:
        dst = "B" if src == "A" else "A"
        points = space.side_a() if src == "A" else space.side_b()
        covered += len(points)
        for x in points:
            y = table.get(x)
            if y is None:
                raise InstanceFormatError(f"{name} is not total on {src}: missing {x!r}")
            on = side.get(y)
            if on is None:
                raise InstanceFormatError(
                    f"{name} entry {x!r} -> {y!r} references unknown point")
            if dst not in on:
                raise SideMismatch(f"{name} must send {src} into {dst}, but {x!r} -> {y!r}")
    # every point of a source side has an entry, so a longer table has a key
    # that is not one; a point on both sides was counted once per side
    if len(table) > min(covered, len(space.ids)):
        key = next(k for k in table if not any(s in side.get(k, "") for s in sources))
        where = "" if key not in side else f" of {sources}"
        raise InstanceFormatError(f"{name} has an entry for {key!r}, which is no point{where}")


@dataclass(frozen=True)
class CyclicMapTable:
    """Total self-map table that swaps the two sides: T(A) in B and T(B) in A."""

    mapping: dict[str, str]

    @classmethod
    def for_space(cls, space: FiniteMetricGraph, mapping: dict[str, str]) -> "CyclicMapTable":
        t = cls(dict(mapping))
        t.validate(space)
        return t

    def to_dict(self) -> dict:
        return {"map": {k: self.mapping[k] for k in sorted(self.mapping)}}

    def validate(self, space: FiniteMetricGraph):
        check_side_map(space, "T", self.mapping, "AB")

    def __call__(self, x: str) -> str:
        return self.mapping[x]

    def twice(self, x: str) -> str:
        return self.mapping[self.mapping[x]]


def verify_t2_preserves_edges(space: FiniteMetricGraph, tmap: CyclicMapTable) -> CheckResult:
    """Edges within A must map to edges under the squared map."""
    a = set(space.side_a())
    for x, y in sorted(space.edges):
        if x in a and y in a:
            img = (tmap.twice(x), tmap.twice(y))
            if img not in space.edges:
                return CheckResult(False, (x, y, img[0], img[1]))
    return CheckResult(True)


# ----- contraction verification ----------------------------------------


@dataclass(frozen=True)
class ContractionReport:
    """Aggregated result of a contraction sweep, and a verdict like CheckResult.

    violations hold (x, y, lhs, rhs) sorted by id pair.  holds is True exactly
    when no inequality violation was found and the proximal set A0 mapped into
    B0 (the latter is tracked separately in maps_a0_into_b0).
    """

    holds: bool
    checked_pairs: int
    violations: tuple[tuple[str, str, float, float], ...]
    maps_a0_into_b0: bool = True
    a0_witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.holds

    @property
    def witness(self) -> tuple | None:
        """The first violation, or else the A0 pair whose image misses B0."""
        return self.violations[0] if self.violations else self.a0_witness


def _shift_term(phi1: GaugeSpec, phi2: GaugeSpec, d_ab: float) -> float:
    """(phi1 + phi2 - I)(d(A, B)), the term of the bound that no pair changes."""
    return eval_gauge(phi1, d_ab) + eval_gauge(phi2, d_ab) - d_ab


def _bound(phi1: GaugeSpec, phi2: GaugeSpec, dxy: float, m: float, shift: float) -> float:
    """The right-hand side (I - phi1)(d(x, y)) + (I - phi2)(m(x, y)) + shift."""
    return (dxy - eval_gauge(phi1, dxy)) + (m - eval_gauge(phi2, m)) + shift


def check_pair(space: FiniteMetricGraph, tmap: CyclicMapTable,
               phi1: GaugeSpec, phi2: GaugeSpec, x: str, y: str,
               tol: float = TOL_INEQ):
    """Re-check a single pair, x on A and y on B; returns (ok, lhs, rhs).

    Used for witness replay: the terms are the sweep's own float operations,
    so a replayed violation matches the sweep's lhs and rhs bit for bit.
    """
    if "A" not in space.side.get(x, ""):
        raise SideMismatch(f"{x!r} is not on side A")
    if "B" not in space.side.get(y, ""):
        raise SideMismatch(f"{y!r} is not on side B")
    m = max(space.d(x, tmap(x)), space.d(y, tmap(y)))
    lhs = space.d(tmap(x), tmap(y))
    d_ab = pair_distance(space).d_ab
    rhs = _bound(phi1, phi2, space.d(x, y), m, _shift_term(phi1, phi2, d_ab))
    return lhs <= rhs + tol, lhs, rhs


def verify_g_cyclic_contraction(space: FiniteMetricGraph, tmap: CyclicMapTable,
                                phi1: GaugeSpec, phi2: GaugeSpec,
                                tol: float = TOL_INEQ,
                                all_pairs: bool = False) -> ContractionReport:
    """Sweep A x B and check the contraction bound on edge-eligible pairs.

    all_pairs=True drops the eligibility restriction, which is how an edge-free
    (classical) contraction claim is refuted on instances that only contract
    along edges.  Gauge monotonicity classes are validated first on the grid of
    distance values the sweep will touch.
    """
    require_tol(tol)
    tmap.validate(space)
    geom = pair_distance(space)
    a, b = sorted(space.side_a()), sorted(space.side_b())
    has_edge = space.has_edge

    # each orbit gap d(p, Tp), and each checked pair's d(x, y) and m(x, y),
    # is computed once; the same floats go to the grid and to the bound
    gap = {p: space.d(p, tmap(p)) for p in {*a, *b}}
    b_images = [(y, tmap(y)) for y in b]
    pairs = [(x, y, space.d(x, y), max(gap[x], gap[y]))
             for x in a for y, ty in b_images
             if all_pairs or has_edge(x, y) or has_edge(x, ty) or has_edge(ty, x)]

    grid = {geom.d_ab}
    for _, _, dxy, m in pairs:
        grid.add(dxy)
        grid.add(m)
    ok = verify_gauge_classes(phi1, phi2, grid)
    if not ok:
        raise GaugeClassViolation(f"gauge class check failed: {ok.witness}")

    shift = _shift_term(phi1, phi2, geom.d_ab)
    violations = []
    for x, y, dxy, m in pairs:
        lhs = space.d(tmap(x), tmap(y))
        rhs = _bound(phi1, phi2, dxy, m, shift)
        if lhs > rhs + tol:
            violations.append((x, y, lhs, rhs))

    a0_ok, a0_witness = True, None
    for x in sorted(geom.a0):
        if tmap(x) not in geom.b0:
            a0_ok, a0_witness = False, (x, tmap(x))
            break

    return ContractionReport(
        holds=not violations and a0_ok,
        checked_pairs=len(pairs),
        violations=tuple(violations),
        maps_a0_into_b0=a0_ok,
        a0_witness=a0_witness,
    )


# ----- JSON helpers for CLI ---------------------------------------------


def load_gauge_pair(path, strict=False) -> tuple[GaugeSpec, GaugeSpec]:
    """Read {"schema": "1", "phi1": {...}, "phi2": {...}} from a file."""
    data = read_document(path, {"schema", "phi1", "phi2"}, "gauge file", strict)
    if "phi1" not in data or "phi2" not in data:
        raise InstanceFormatError("gauge file needs 'phi1' and 'phi2' entries")
    return GaugeSpec.from_dict(data["phi1"]), GaugeSpec.from_dict(data["phi2"])


def load_map(path, strict=False) -> dict[str, str]:
    """The {id: id} table of {"schema": "1", "map": {...}} in a file.  A map is
    made from it, and checked against its space, by a for_space constructor."""
    data = read_document(path, {"schema", "map"}, "map file", strict)
    if not isinstance(data.get("map"), dict):
        raise InstanceFormatError("map spec must be an object with a 'map' table")
    return {str(k): str(v) for k, v in data["map"].items()}
