"""Finite metric spaces carrying a directed edge relation over two sides A and B.

Points live on side "A", side "B", or both ("AB").  Distances come either from
coordinates under a named metric (l1, l2, sup) or from an explicit table.  The
edge set is a set of ordered id pairs; every point must carry its trivial loop.

A space is immutable: its distance array is read-only and its side and
coordinate maps are read-only views.  What follows from the space alone --
the side index arrays, the pair geometry, the weak-component labels and the
verdicts of the hypothesis predicates -- is computed on first use and kept on
the space, so solvers that start from many seeds pay for it once.  None of it
copies the distance array or its A x B block.

All predicates return a CheckResult holding a boolean and, on failure, a small
witness tuple that pinpoints the violation.
"""
from __future__ import annotations

import json
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import EmptySide, InstanceFormatError, UnknownPoint

TOL_METRIC = 1e-9       # relative tolerance for triangle-inequality validation
TOL_PARALLEL = 1e-12    # absolute tolerance for distance ties against d(A,B)

_COORD_METRICS = ("l1", "l2", "sup")
_METRICS = _COORD_METRICS + ("table",)
_SIDES = ("A", "B", "AB")

SCHEMA_VERSION = "1"

_INSTANCE_FIELDS = {"schema", "points", "metric", "dist_table", "edges", "auto_loops"}
_POINT_FIELDS = {"id", "coords", "side"}


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus an optional witness for the failing case."""

    ok: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PairGeometry:
    """Distance between the sides and the points/pairs that realize it."""

    d_ab: float
    a0: frozenset[str]
    b0: frozenset[str]
    parallel_pairs: frozenset[tuple[str, str]]


@dataclass(frozen=True, eq=False)
class FiniteMetricGraph:
    """Immutable two-sided finite metric space with a digraph.

    For the metric "table", `dist` is the distance table.  For l1, l2 and sup
    the distances are derived from `coords` and `dist` is passed as None, so
    they satisfy the triangle inequality by construction.
    """

    ids: tuple[str, ...]
    side: Mapping[str, str]
    dist: np.ndarray | None
    edges: frozenset[tuple[str, str]]
    coords: Mapping[str, tuple[float, ...] | None] = field(default_factory=dict)
    metric: str = "table"

    def __post_init__(self):
        ids = tuple(self.ids)
        index = {p: i for i, p in enumerate(ids)}
        if len(index) != len(ids):
            raise InstanceFormatError("duplicate point ids")
        if self.metric not in _METRICS:
            raise InstanceFormatError(f"unknown metric {self.metric!r}")
        side = {p: _check_side(self.side.get(p)) for p in ids}
        coords = {p: self.coords.get(p) for p in ids}
        if self.metric == "table":
            dist = _table_array(self.dist, len(ids))
        elif self.dist is not None:
            raise InstanceFormatError(
                f"metric {self.metric!r} derives distances from coords; pass dist=None")
        else:
            dist = _coord_dist(ids, coords, self.metric)
        dist.flags.writeable = False
        for name, value in (("ids", ids), ("side", MappingProxyType(side)),
                            ("dist", dist), ("edges", frozenset(self.edges)),
                            ("coords", MappingProxyType(coords)),
                            ("index", MappingProxyType(index)), ("_memo", {})):
            object.__setattr__(self, name, value)
        self._validate()

    def __reduce__(self):
        # read-only mappings do not pickle; rebuild from plain copies instead
        dist = self.dist if self.metric == "table" else None
        return (type(self), (self.ids, dict(self.side), dist, self.edges,
                             dict(self.coords), self.metric))

    # ----- construction -------------------------------------------------

    @classmethod
    def from_coords(cls, points, metric="l2", edges=(), auto_loops=True):
        """points: iterable of (id, coords, side) triples."""
        if metric not in _COORD_METRICS:
            raise InstanceFormatError(f"metric {metric!r} needs coordinates from l1/l2/sup")
        ids, side, coords = [], {}, {}
        for pid, xy, s in points:
            pid = str(pid)
            ids.append(pid)
            side[pid] = s
            coords[pid] = _coord_tuple(pid, xy)
        return cls(tuple(ids), side, None, _edge_set(ids, edges, auto_loops),
                   coords, metric)

    @classmethod
    def from_table(cls, ids, side, table, edges=(), auto_loops=True, coords=None):
        ids = tuple(str(p) for p in ids)
        side = {str(p): s for p, s in side.items()}
        return cls(ids, side, table, _edge_set(ids, edges, auto_loops),
                   coords or {}, "table")

    @classmethod
    def from_dict(cls, data, strict=False):
        """Build from the JSON instance format (schema "1")."""
        if not isinstance(data, dict):
            raise InstanceFormatError("instance document must be a JSON object")
        _check_fields(data, _INSTANCE_FIELDS, "instance", strict)
        schema = data.get("schema", SCHEMA_VERSION)
        if str(schema) != SCHEMA_VERSION:
            raise InstanceFormatError(f"unsupported schema version {schema!r}")
        pts = data.get("points")
        if not isinstance(pts, list) or not pts:
            raise InstanceFormatError("instance needs a nonempty 'points' list")
        metric = data.get("metric", "l2")
        if metric not in _METRICS:
            raise InstanceFormatError(f"unknown metric {metric!r}")
        ids, side, coords = [], {}, {}
        for rec in pts:
            _check_fields(rec, _POINT_FIELDS, "point", strict)
            try:
                pid = str(rec["id"])
            except (KeyError, TypeError):
                raise InstanceFormatError("point record missing 'id'") from None
            ids.append(pid)
            side[pid] = rec.get("side")
            c = rec.get("coords")
            coords[pid] = None if c is None else _coord_tuple(pid, c)
        edges = data.get("edges", [])
        if not isinstance(edges, list):
            raise InstanceFormatError("'edges' must be a list of id pairs")
        auto_loops = bool(data.get("auto_loops", False))
        if metric == "table":
            table = data.get("dist_table")
            if table is None:
                raise InstanceFormatError("metric 'table' requires 'dist_table'")
            return cls.from_table(ids, side, table, edges, auto_loops, coords)
        if any(coords[p] is None for p in ids):
            raise InstanceFormatError(f"metric {metric!r} requires coords on every point")
        return cls.from_coords([(p, coords[p], side[p]) for p in ids],
                               metric, edges, auto_loops)

    @classmethod
    def from_json(cls, path, strict=False):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(data, strict=strict)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "points": [
                {"id": p, "coords": list(self.coords.get(p)) if self.coords.get(p) else None,
                 "side": self.side[p]}
                for p in self.ids
            ],
            "metric": "table",
            "dist_table": [[float(v) for v in row] for row in self.dist],
            "edges": sorted([a, b] for a, b in self.edges),
            "auto_loops": False,
        }

    # ----- basic access -------------------------------------------------

    def d(self, x: str, y: str) -> float:
        return float(self.dist[self._i(x), self._i(y)])

    def side_a(self) -> tuple[str, ...]:
        return self._side("A")[0]

    def side_b(self) -> tuple[str, ...]:
        return self._side("B")[0]

    def has_edge(self, x: str, y: str) -> bool:
        return (x, y) in self.edges

    def _i(self, pid: str) -> int:
        try:
            return self.index[pid]
        except KeyError:
            raise UnknownPoint(f"unknown point id {pid!r}") from None

    # ----- derived structure --------------------------------------------

    def _cached(self, key, compute):
        """compute(), evaluated once per space and key; a raised error is not kept."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    def _side(self, s: str) -> tuple[tuple[str, ...], np.ndarray]:
        """Ids and positions of the points on side s, in id order."""
        def members():
            pos = [i for i, p in enumerate(self.ids) if s in self.side[p]]
            return tuple(self.ids[i] for i in pos), np.array(pos, dtype=np.intp)
        return self._cached(("side", s), members)

    # ----- validation ---------------------------------------------------

    def _validate(self):
        n = len(self.ids)
        d = self.dist
        if np.any(~np.isfinite(d)):
            raise InstanceFormatError("distance table contains non-finite entries")
        if np.any(d < 0):
            raise InstanceFormatError("negative distance in table")
        if np.any(np.abs(np.diag(d)) > 0):
            raise InstanceFormatError("nonzero self-distance in table")
        if np.any(np.abs(d - d.T) > TOL_METRIC * np.maximum(1.0, np.abs(d))):
            raise InstanceFormatError("distance table is not symmetric")
        # a norm-induced distance satisfies the inequality by construction
        if self.metric == "table":
            scale = max(1.0, float(d.max())) if n else 1.0
            tol = TOL_METRIC * scale
            for k in range(n):
                slack = d[:, :] - (d[:, k][:, None] + d[k, :][None, :])
                if np.any(slack > tol):
                    i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
                    raise InstanceFormatError(
                        f"triangle inequality fails for ({self.ids[i]}, {self.ids[k]}, "
                        f"{self.ids[j]}): {d[i, j]} > {d[i, k]} + {d[k, j]}")
        for x, y in self.edges:
            if x not in self.index or y not in self.index:
                raise InstanceFormatError(f"edge ({x!r}, {y!r}) references unknown point")
        for p in self.ids:
            if (p, p) not in self.edges:
                raise InstanceFormatError(f"missing trivial loop edge on point {p!r}")


def _check_side(s):
    if s not in _SIDES:
        raise InstanceFormatError(f"side must be one of {_SIDES}, got {s!r}")
    return s


def _check_fields(rec, allowed, what, strict):
    if not isinstance(rec, dict):
        raise InstanceFormatError(f"{what} record must be an object")
    unknown = set(rec) - allowed
    if unknown:
        msg = f"unknown {what} field(s): {sorted(unknown)}"
        if strict:
            raise InstanceFormatError(msg)
        warnings.warn(msg, stacklevel=3)


def _coord_tuple(pid, xy) -> tuple[float, ...]:
    """Coordinates as floats.  A string is malformed, not a sequence of
    digits, and so are scalars and non-number entries."""
    if not isinstance(xy, (str, bytes)):
        try:
            vals = tuple(xy)
            if not any(isinstance(v, (str, bytes)) for v in vals):
                return tuple(float(v) for v in vals)
        except (TypeError, ValueError):
            pass
    raise InstanceFormatError(f"coords of point {pid!r} must be a list of numbers, got {xy!r}")


def _coord_dist(ids, coords, metric) -> np.ndarray:
    """Pairwise l1, l2 or sup distances between the points' coordinates."""
    if any(coords[p] is None for p in ids):
        raise InstanceFormatError(f"metric {metric!r} requires coords on every point")
    if len({len(coords[p]) for p in ids}) > 1:
        raise InstanceFormatError("points have mixed coordinate dimensions")
    if not ids:
        return np.zeros((0, 0))
    arr = np.array([coords[p] for p in ids], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # _validate rejects non-finite
        diff = arr[:, None, :] - arr[None, :, :]
        if metric == "l1":
            return np.abs(diff).sum(axis=2)
        if metric == "l2":
            return np.sqrt((diff ** 2).sum(axis=2))
        return np.abs(diff).max(axis=2)


def _table_array(table, n: int) -> np.ndarray:
    """The distance table as a fresh n x n float array."""
    try:
        dist = np.array(table, dtype=float)
    except (TypeError, ValueError):
        raise InstanceFormatError("distance table must be a square array of numbers") from None
    if dist.shape != (n, n):
        raise InstanceFormatError("distance table shape does not match point count")
    return dist


def _edge_pair(e) -> tuple[str, str]:
    if not isinstance(e, (str, bytes)):
        try:
            x, y = e
            return str(x), str(y)
        except (TypeError, ValueError):
            pass
    raise InstanceFormatError(f"an edge must be a pair of point ids, got {e!r}")


def _edge_set(ids, edges, auto_loops):
    out = {_edge_pair(e) for e in edges}
    if auto_loops:
        out |= {(p, p) for p in ids}
    return frozenset(out)


# ----- pair geometry ----------------------------------------------------


def pair_distance(space: FiniteMetricGraph) -> PairGeometry:
    """d(A,B) together with the proximal subsets A0, B0 and the realizing pairs."""
    return space._cached("geometry", lambda: _pair_geometry(space))


def _pair_geometry(space: FiniteMetricGraph) -> PairGeometry:
    (a, ia), (b, ib) = space._side("A"), space._side("B")
    if not a or not b:
        raise EmptySide("pair_distance needs nonempty A and B")
    block = space.dist[np.ix_(ia, ib)]
    best = float(block.min())
    rows, cols = np.nonzero(block <= best + TOL_PARALLEL)
    pairs = frozenset((a[i], b[j]) for i, j in zip(rows.tolist(), cols.tolist()))
    return PairGeometry(
        d_ab=best,
        a0=frozenset(x for x, _ in pairs),
        b0=frozenset(y for _, y in pairs),
        parallel_pairs=pairs,
    )


def _close_block(space: FiniteMetricGraph, geom: PairGeometry) -> np.ndarray:
    """A x B mask of the pairs at distance d(A,B), up to TOL_PARALLEL."""
    ia, ib = space._side("A")[1], space._side("B")[1]
    return np.abs(space.dist[np.ix_(ia, ib)] - geom.d_ab) <= TOL_PARALLEL


def _geometry_verdict(space, name, check, geom) -> CheckResult:
    """check(space, geom), kept on the space when geom is the space's own."""
    if geom is None or geom is space._memo.get("geometry"):
        return space._cached(name, lambda: check(space, pair_distance(space)))
    return check(space, geom)


def is_sharp_proximal(space: FiniteMetricGraph, geom: PairGeometry | None = None) -> CheckResult:
    """Every point of A has exactly one partner in B at distance d(A,B), and vice versa."""
    return _geometry_verdict(space, "sharp_proximal", _sharp_proximal, geom)


def _sharp_proximal(space, geom):
    close = _close_block(space, geom)
    a, b = space.side_a(), space.side_b()
    for points, others, mask in ((a, b, close), (b, a, close.T)):
        bad = np.flatnonzero(mask.sum(axis=1) != 1)
        if bad.size:
            i = int(bad[0])
            partners = tuple(others[j] for j in np.flatnonzero(mask[i]).tolist())
            return CheckResult(False, (points[i], partners))
    return CheckResult(True)


def is_g_chebyshev(space: FiniteMetricGraph, geom: PairGeometry | None = None) -> CheckResult:
    """Every parallel pair (x, y) in A x B at distance d(A,B) is an edge."""
    return _geometry_verdict(space, "g_chebyshev", _g_chebyshev, geom)


def _g_chebyshev(space, geom):
    for pair in sorted(geom.parallel_pairs):
        if pair not in space.edges:
            return CheckResult(False, pair)
    return CheckResult(True)


def has_property_uc(space: FiniteMetricGraph, geom: PairGeometry | None = None) -> CheckResult:
    """No point of B sits at distance d(A,B) from two distinct points of A.

    Finite surrogate of the uniform-closeness property: two A-points equally
    proximal to the same B-point must coincide.
    """
    return _geometry_verdict(space, "property_uc", _property_uc, geom)


def _property_uc(space, geom):
    close = _close_block(space, geom)
    bad = np.flatnonzero(close.sum(axis=0) > 1)
    if bad.size:
        j = int(bad[0])
        i0, i1 = np.flatnonzero(close[:, j])[:2].tolist()
        a = space.side_a()
        return CheckResult(False, (a[i0], a[i1], space.side_b()[j]))
    return CheckResult(True)


# ----- graph structure --------------------------------------------------


def _undirected_adj(nodes, edges) -> dict[str, set[str]]:
    """Adjacency of the graph induced on nodes, edge directions forgotten."""
    adj: dict[str, set[str]] = {p: set() for p in nodes}
    for x, y in edges:
        if x in adj and y in adj:
            adj[x].add(y)
            adj[y].add(x)
    return adj


def _reach(adj: dict[str, set[str]], start: str) -> set[str]:
    """Every node reachable from start in adj."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _components(space: FiniteMetricGraph) -> tuple[tuple[frozenset[str], ...], tuple[int, ...]]:
    """Weak components ordered by smallest member id, and the component label
    of each point in id order, from one pass over the points."""
    def labels():
        adj = _undirected_adj(space.ids, space.edges)
        label: dict[str, int] = {}
        comps = []
        for p in sorted(space.ids):
            if p not in label:
                comp = frozenset(_reach(adj, p))
                label.update(dict.fromkeys(comp, len(comps)))
                comps.append(comp)
        return tuple(comps), tuple(label[p] for p in space.ids)
    return space._cached("components", labels)


def component_of(space: FiniteMetricGraph, x: str) -> frozenset[str]:
    """Weakly connected component of x: reachability after forgetting direction."""
    comps, label = _components(space)
    return comps[label[space._i(x)]]


def components(space: FiniteMetricGraph) -> list[frozenset[str]]:
    """All weakly connected components, ordered by their smallest member id."""
    return list(_components(space)[0])


def is_weakly_connected(space: FiniteMetricGraph, within=None) -> bool:
    """Connectivity after symmetrizing edges, optionally on an induced subset."""
    if within is None:
        return len(_components(space)[0]) <= 1
    nodes = tuple(within)
    if not nodes:
        return True
    adj = _undirected_adj(nodes, space.edges)
    return len(_reach(adj, nodes[0])) == len(adj)


def check_property_star(space: FiniteMetricGraph, within=None) -> CheckResult:
    """Edge transitivity on the (optionally induced) graph.

    Finite surrogate of the limit-edge property: whenever a chain of edges
    x -> y -> z exists, the shortcut edge x -> z must exist too.  `within`
    restricts both endpoints to a subset (e.g. side A).  The verdicts on the
    whole space and on each side are kept on the space.
    """
    nodes = space.ids if within is None else tuple(within)
    for key, canonical in (("star", space.ids), ("star_A", space.side_a()),
                           ("star_B", space.side_b())):
        if nodes == canonical:
            return space._cached(key, lambda: _property_star(space, nodes))
    return _property_star(space, nodes)


def _property_star(space, nodes):
    node_set = set(nodes)
    edges = [(x, y) for x, y in space.edges if x in node_set and y in node_set]
    succ: dict[str, list[str]] = {}
    for x, y in edges:
        succ.setdefault(x, []).append(y)
    for x, y in sorted(edges):
        for z in sorted(succ.get(y, ())):
            if (x, z) not in space.edges:
                return CheckResult(False, (x, y, z))
    return CheckResult(True)
