"""Gauge functions and the edge-restricted cyclic contraction verifier.

A gauge is a map on [0, inf) used in the contraction bound
    d(Tx, Ty) <= (I - phi1)(d(x, y)) + (I - phi2)(m(x, y))
                 + (phi1 + phi2 - I)(d(A, B)),
checked only for pairs (x, y) in A x B that are edge-eligible: at least one of
(x, y), (x, Ty), (Ty, x) is an edge.  m(x, y) = max(d(x, Tx), d(y, Ty)).

The floor-fraction gauge needs the reciprocal-bracket index kappa: for
0 < z < 1, kappa(z) is the unique n + 1 with 1/(n+1) <= z < 1/n.  All gauge
arithmetic is `gauge_values`, on an array or one number: `_kappa` is its
bracket rule, and `_knot_values` its knot rule, which psi tables share.  A
gauge spec is read by `metric_graph.read_spec`, and a gauge file's fields,
like a map file's, by its loader.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    TOL_SLACK,
    GaugeClassViolation,
    InstanceFormatError,
    OutOfDomain,
    SideMismatch,
    require_tol,
)
from .metric_graph import (
    CheckResult,
    FiniteMetricGraph,
    _a0_witness,
    _by_id,
    _check_fields,
    _check_kind,
    _check_schema,
    _float_array,
    _number,
    _point_id,
    pair_distance,
    read_document,
    read_spec,
)

TOL_INEQ = TOL_SLACK  # slack allowed when checking the contraction inequality
KAPPA_SNAP = 1e-12    # snap width for z that is a float neighbour of some 1/n

# kind -> the parameter names that kind reads
GAUGE_PARAMS = {"linear": {"c"}, "affine_shift": {"c"}, "floor_fraction": set(),
                "identity": set(), "table": {"knots"}}


def _kappa(z):
    """kappa at every entry of z, 0 < z < 1, as floats: the snapped rule of kappa."""
    recip = 1.0 / z
    near = np.rint(recip)  # z < 1, so near >= 1
    return np.where(np.abs(z - 1.0 / near) <= KAPPA_SNAP, near, np.ceil(recip))


def kappa(z: float) -> int:
    """Index of the reciprocal bracket containing z, for z strictly inside (0, 1).

    Floats within KAPPA_SNAP of some exact 1/n are treated as 1/n, which keeps
    values like 0.02 (whose reciprocal is 49.999...) on the intended bracket.
    """
    if not 0.0 < z < 1.0:
        raise OutOfDomain(f"kappa needs 0 < z < 1, got {z}")
    return int(_kappa(z))


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
        # the parameters are parsed here once; gauge_values reads _c and _knots
        _check_kind(self.kind, self.params, GAUGE_PARAMS, "gauge", InstanceFormatError)
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
            knots = np.array((ss, vs))
            knots.flags.writeable = False
            object.__setattr__(self, "_knots", knots)

    @classmethod
    def from_dict(cls, data) -> "GaugeSpec":
        return cls(*read_spec(data, "gauge"))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}


def parse_knots(knots, what) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The abscissae and the values of (s, value) knots, as floats, each read
    by metric_graph._float_array's number rule; no knots give two empty tuples."""
    message = f"{what} knots must be (s, value) pairs of numbers"  # no repr: built every call
    arr = _float_array(knots, message)
    if arr.shape != (0,) and (arr.ndim != 2 or arr.shape[1] != 2):
        raise InstanceFormatError(message)
    ss, vs = arr.reshape(-1, 2).T.tolist()
    return tuple(ss), tuple(vs)


def _knot_values(ss: np.ndarray, vs: np.ndarray, s):
    """Piecewise-linear values at s through the knots (ss, vs), ss sorted: on
    the segment that ends at the first knot >= s, the end segments extended.
    That segment starts at knot lo, the number of inner knots below s."""
    lo = np.searchsorted(ss[1:-1], s)
    t = (s - ss[lo]) / (ss[lo + 1] - ss[lo])
    return vs[lo] + t * (vs[lo + 1] - vs[lo])


def eval_gauge(gauge: GaugeSpec, s: float) -> float:
    """The gauge at the one number s."""
    return float(gauge_values(gauge, s)[0])


def gauge_values(gauge: GaugeSpec, s) -> np.ndarray:
    """The gauge at every entry of s, a number or an array of numbers, as an
    array of at least one dimension.  A float array s is read, not copied."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    inside = (s >= 0.0) & (s < np.inf)
    if not inside.all():
        raise OutOfDomain(f"gauges are defined on [0, inf), got {float(s[~inside][0])}")
    if gauge.kind == "linear":
        return gauge._c * s
    if gauge.kind == "affine_shift":
        return gauge._c + s
    if gauge.kind == "identity":
        return s.copy()
    if gauge.kind == "floor_fraction":
        out = np.floor(s)
        frac = s - out
        inner = frac > KAPPA_SNAP
        z = frac[inner]
        out[inner] += z / _kappa(z)
        return out
    return _knot_values(*gauge._knots, s)


def verify_gauge_classes(phi1: GaugeSpec, phi2: GaugeSpec, grid) -> CheckResult:
    """phi1 strictly increasing and phi2 - I non-decreasing over the sorted grid.

    Grid values closer than the snap width collapse to one representative:
    they are the same distance up to float noise, and comparing gauge output
    across them would only measure rounding.  The witness is the first pair
    of neighbouring representatives that breaks either class, phi1 first.
    """
    raw = np.unique(np.asarray(grid if isinstance(grid, np.ndarray) else list(grid),
                               dtype=float))
    kept: list[float] = []
    for s in raw.tolist():
        if not kept or s - kept[-1] > KAPPA_SNAP:
            kept.append(s)
    values = np.array(kept)
    p1 = gauge_values(phi1, values)
    shift = gauge_values(phi2, values) - values
    not_increasing = ~(p1[1:] > p1[:-1])
    bad = not_increasing | (shift[1:] < shift[:-1] - KAPPA_SNAP)
    if bad.any():
        i = int(np.argmax(bad))
        what = "phi1 not increasing" if not_increasing[i] else "phi2 - I decreasing"
        return CheckResult(False, (what, kept[i], kept[i + 1]))
    return CheckResult(True)


# ----- cyclic map tables ------------------------------------------------


def check_side_map(space: FiniteMetricGraph, name: str, table: Mapping[str, str],
                   sources: str) -> None:
    """The map rule for the source sides ("A", "B" or "AB"): every point of a
    source side has an entry in table, the entry is a known point, and that
    point lies on the other side; and every key of table is a point of a
    source side."""
    side = space.side
    for src in sources:
        dst = "B" if src == "A" else "A"
        for x in space.side_a() if src == "A" else space.side_b():
            y = table.get(x)
            if y is None:
                raise InstanceFormatError(f"{name} is not total on {src}: missing {x!r}")
            on = side.get(y)
            if on is None:
                raise InstanceFormatError(
                    f"{name} entry {x!r} -> {y!r} references unknown point")
            if dst not in on:
                raise SideMismatch(f"{name} must send {src} into {dst}, but {x!r} -> {y!r}")
    for key in table:
        if not any(s in side.get(key, "") for s in sources):
            where = "" if key not in side else f" of {sources}"
            raise InstanceFormatError(f"{name} has an entry for {key!r}, which is no point{where}")


def _read_map(table, name: str) -> Mapping[str, str]:
    """A read-only copy of the map table named name, a mapping or (id, id)
    pairs, its keys read by _by_id and its values by _point_id."""
    return MappingProxyType({x: _point_id(y) for x, y in _by_id(table, name).items()})


def _image_array(space: FiniteMetricGraph, table: Mapping[str, str]) -> np.ndarray:
    """The read-only position of table[p] at the position of each point p of
    space that table maps, for a table check_side_map has passed; elsewhere
    len(space.ids), which indexes no array of the space, so a stray read raises."""
    n = len(space.ids)
    image = np.fromiter((space.index.get(table.get(p), n) for p in space.ids), np.intp, n)
    image.flags.writeable = False
    return image


@dataclass(frozen=True, eq=False)
class CyclicMapTable:
    """Total self-map table that swaps the two sides: T(A) in B and T(B) in A.

    `mapping` is a read-only view of a private copy, so the table cannot
    change once made.  A map is compared by identity, and its check against a
    space runs once and is kept on that space.
    """

    mapping: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "mapping", _read_map(self.mapping, "T"))

    def __reduce__(self):
        # read-only mappings do not pickle; rebuild from a plain copy instead
        return (type(self), (dict(self.mapping),))

    @classmethod
    def for_space(cls, space: FiniteMetricGraph, mapping: Mapping[str, str]) -> "CyclicMapTable":
        t = cls(mapping)
        t.validate(space)
        return t

    def to_dict(self) -> dict:
        return {"map": {k: self.mapping[k] for k in sorted(self.mapping)}}

    def validate(self, space: FiniteMetricGraph) -> np.ndarray:
        """Check the map against space, once per space, and return its image
        array there: the read-only position of T(ids[i]) at each position i."""
        def check():
            check_side_map(space, "T", self.mapping, "AB")
            return _image_array(space, self.mapping)
        return space._cached(("map", self), check)

    def __call__(self, x: str) -> str:
        return self.mapping[x]

    def twice(self, x: str) -> str:
        return self.mapping[self.mapping[x]]


def verify_t2_preserves_edges(space: FiniteMetricGraph, tmap: CyclicMapTable) -> CheckResult:
    """Edges within A must map to edges under the squared map; the witness
    is the least failing edge (x, y) in sorted id order, with its image."""
    image = tmap.validate(space)
    twice = image[image]
    x, y = space._order[space._edges_within(space.side_a())[1]]  # in sorted id order
    bad = ~space._is_edge(twice[x], twice[y])
    if not bad.any():
        return CheckResult(True)
    i = int(np.argmax(bad))
    return CheckResult(False, tuple(space.ids[p] for p in (x[i], y[i], twice[x[i]], twice[y[i]])))


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


def _bound(dxy, phi1_dxy, m, phi2_m, shift):
    """The right-hand side (I - phi1)(d(x, y)) + (I - phi2)(m(x, y)) + shift,
    from the gauge values phi1(d(x, y)) and phi2(m(x, y)); floats or arrays."""
    return (dxy - phi1_dxy) + (m - phi2_m) + shift


def check_pair(space: FiniteMetricGraph, tmap: CyclicMapTable,
               phi1: GaugeSpec, phi2: GaugeSpec, x: str, y: str,
               tol: float = TOL_INEQ):
    """Re-check a single pair, x on A and y on B; returns (ok, lhs, rhs).

    Used for witness replay: the terms are the sweep's own float operations,
    one pair at a time, so a replayed violation matches the sweep's lhs and
    rhs bit for bit.
    """
    if "A" not in space.side.get(x, ""):
        raise SideMismatch(f"{x!r} is not on side A")
    if "B" not in space.side.get(y, ""):
        raise SideMismatch(f"{y!r} is not on side B")
    m = max(space.d(x, tmap(x)), space.d(y, tmap(y)))
    lhs = space.d(tmap(x), tmap(y))
    d_ab = pair_distance(space)
    dxy = space.d(x, y)
    rhs = _bound(dxy, eval_gauge(phi1, dxy), m, eval_gauge(phi2, m),
                 _shift_term(phi1, phi2, d_ab))
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

    The sweep runs as array expressions over the A x B block, rows and columns
    in id order, so the pairs come out in (x, y) order.
    """
    require_tol(tol)
    image = tmap.validate(space)
    d_ab = pair_distance(space)
    dist = space._pair_dist
    # each side's positions in sorted id order
    ia, ib = (p[np.argsort(space._rank[p])] for p in (space._sides["A"][1], space._sides["B"][1]))

    if all_pairs:
        eligible = np.ones((len(ia), len(ib)), dtype=bool)
    else:
        # an edge (x, y), (x, Ty) or (Ty, x)
        edge, col, tb = space._is_edge, ia[:, None], image[ib]
        eligible = edge(col, ib) | edge(col, tb) | edge(tb, col)
    rows, cols = np.nonzero(eligible)
    x, y = ia[rows], ib[cols]
    dxy = dist(x, y)
    gap = dist(np.arange(len(image)), image)  # d(p, Tp)
    gap_x, gap_y = gap[x], gap[y]
    m = np.where(gap_y > gap_x, gap_y, gap_x)  # max(gap_x, gap_y), as Python's max picks

    ok = verify_gauge_classes(phi1, phi2, np.concatenate(([d_ab], dxy, m)))
    if not ok:
        raise GaugeClassViolation(f"gauge class check failed: {ok.witness}")

    lhs = dist(image[x], image[y])
    rhs = _bound(dxy, gauge_values(phi1, dxy), m, gauge_values(phi2, m),
                 _shift_term(phi1, phi2, d_ab))
    bad = lhs > rhs + tol
    ids = space.ids
    violations = tuple(zip([ids[i] for i in x[bad].tolist()], [ids[j] for j in y[bad].tolist()],
                           lhs[bad].tolist(), rhs[bad].tolist()))

    a0_witness = _a0_witness(space, image)
    a0_ok = a0_witness is None

    return ContractionReport(
        holds=not violations and a0_ok,
        checked_pairs=len(rows),
        violations=violations,
        maps_a0_into_b0=a0_ok,
        a0_witness=a0_witness,
    )


# ----- JSON helpers for CLI ---------------------------------------------


def load_gauge_pair(path) -> tuple[GaugeSpec, GaugeSpec]:
    """Read {"schema": "1", "phi1": {...}, "phi2": {...}} from a file."""
    data = read_document(path, "gauge file")
    _check_fields(data, {"schema", "phi1", "phi2"}, "gauge file")
    _check_schema(data, "gauge file")
    if "phi1" not in data or "phi2" not in data:
        raise InstanceFormatError("gauge file needs 'phi1' and 'phi2' entries")
    return GaugeSpec.from_dict(data["phi1"]), GaugeSpec.from_dict(data["phi2"])


def load_map(path) -> dict[str, str]:
    """The {id: id} table of {"schema": "1", "map": {...}} in a file, as written.  A
    for_space constructor reads its ids and checks it against its space."""
    data = read_document(path, "map file")
    _check_fields(data, {"schema", "map"}, "map file")
    _check_schema(data, "map file")
    if not isinstance(data.get("map"), dict):
        raise InstanceFormatError("map spec must be an object with a 'map' table")
    return data["map"]
