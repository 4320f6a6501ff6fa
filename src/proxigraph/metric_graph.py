"""Finite metric spaces carrying a directed edge relation over two sides A and B.

Points live on side "A", side "B", or both ("AB").  Distances come either from
coordinates under a named metric (l1, l2, sup) or from an explicit table.  The
edge set is a set of ordered id pairs; every point must carry its trivial loop.

A space is immutable: its distance array is read-only and its side and
coordinate maps are read-only views.  What follows from the space alone --
the boolean edge-adjacency array, the pair geometry, the weak-component
labels and the verdicts of the hypothesis predicates -- is computed on first
use and kept on the space, so solvers that start from many seeds pay for it
once.  The ids and index arrays of each side are built with the space.  None
of it copies the distance array or its A x B block.  The same memo holds, for
each cyclic map checked against the space (maps are read-only too), the map's
verdict and its read-only integer image array, so a map is checked and indexed
once per space; the memo keeps that map alive as long as the space.

All predicates return a CheckResult holding a boolean and, on failure, a small
witness tuple that pinpoints the violation.
"""
from __future__ import annotations

import json
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType

import numpy as np

from .errors import EmptySide, InstanceFormatError, UnknownField, UnknownPoint

TOL_METRIC = 1e-9       # relative tolerance for triangle-inequality validation
TOL_PARALLEL = 1e-12    # absolute tolerance for distance ties against d(A,B)

# elements of a work array built at a time: coordinate differences in
# _coord_dist, 2-path sums in _triangle_fails, 2-paths in _property_star
_BLOCK = 1 << 16

# what Python or numpy converts to a float but an input document means as no number
_NOT_NUMBERS = (str, bytes, bool)

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
        sides = {}  # s -> the ids and the read-only positions of side s, in id order
        for s in "AB":
            pos = np.array([i for i, p in enumerate(ids) if s in side[p]], dtype=np.intp)
            pos.flags.writeable = False
            sides[s] = tuple(ids[i] for i in pos.tolist()), pos
        for name, value in (("ids", ids), ("side", MappingProxyType(side)),
                            ("dist", dist), ("edges", frozenset(self.edges)),
                            ("coords", MappingProxyType(coords)),
                            ("index", MappingProxyType(index)), ("_sides", sides),
                            ("_memo", {})):
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
    def from_dict(cls, data):
        """Build from the JSON instance format (schema "1")."""
        _check_fields(data, _INSTANCE_FIELDS, "instance")
        return cls._from_document(data)

    @classmethod
    def from_json(cls, path):
        return cls._from_document(read_document(path, _INSTANCE_FIELDS, "instance"))

    @classmethod
    def _from_document(cls, data):
        """from_dict once the top-level fields have passed the field policy."""
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
            _check_fields(rec, _POINT_FIELDS, "point")
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
        return self._sides["A"][0]

    def side_b(self) -> tuple[str, ...]:
        return self._sides["B"][0]

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

    def _adjacency(self) -> np.ndarray:
        """Read-only boolean n x n array: [i, j] is whether (ids[i], ids[j]) is an edge."""
        def adjacency():
            adj = np.zeros((len(self.ids), len(self.ids)), dtype=bool)
            rows = [self.index[x] for x, _ in self.edges]
            cols = [self.index[y] for _, y in self.edges]
            adj[rows, cols] = True
            adj.flags.writeable = False
            return adj
        return self._cached("adjacency", adjacency)

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
        asym = d - d.T
        if np.any(np.abs(asym) > TOL_METRIC * np.maximum(1.0, np.abs(d))):
            raise InstanceFormatError("distance table is not symmetric")
        # a norm-induced distance satisfies the inequality by construction; a
        # table's verdict comes from the min-plus square, and only a failure
        # pays for the per-k scan that names the first (i, k, j)
        if self.metric == "table":
            symmetric = not asym.any()
            del asym  # not held while the triangle check runs
            tol = TOL_METRIC * (max(1.0, float(d.max())) if n else 1.0)
            if _triangle_fails(d, tol, symmetric):
                i, k, j = _triangle_witness(d, tol)
                raise InstanceFormatError(
                    f"triangle inequality fails for ({self.ids[i]}, {self.ids[k]}, "
                    f"{self.ids[j]}): {d[i, j]} > {d[i, k]} + {d[k, j]}")
        for x, y in self.edges:
            if x not in self.index or y not in self.index:
                raise InstanceFormatError(f"edge ({x!r}, {y!r}) references unknown point")
        for p in self.ids:
            if (p, p) not in self.edges:
                raise InstanceFormatError(f"missing trivial loop edge on point {p!r}")


def _triangle_fails(d, tol, symmetric) -> bool:
    """Whether some fl(d[i, j] - fl(d[i, k] + d[k, j])) exceeds tol, for a
    finite table d, decided from rows of the min-plus square M[i, j] =
    min_k fl(d[i, k] + d[k, j]).  x -> fl(a - x) never increases, so
    max_k fl(a - s_k) = fl(a - min_k s_k): the verdict is the per-k scan's.
    When d equals its transpose, M does too, and row i needs only j >= i.
    Rows go in blocks of about _BLOCK sums, at least one row at a time."""
    n = len(d)
    dt = d if symmetric else np.ascontiguousarray(d.T)  # dt[j, k] = d[k, j]
    i0 = 0
    while i0 < n:
        lo = i0 if symmetric else 0
        i1 = min(n, i0 + max(1, _BLOCK // ((n - lo) * n)))
        m = (dt[None, lo:, :] + d[i0:i1, None, :]).min(axis=2)
        if (d[i0:i1, lo:] - m).max() > tol:
            return True
        i0 = i1
    return False


def _triangle_witness(d, tol):
    """The first intermediate point k, in index order, at which some
    d[i, j] - (d[i, k] + d[k, j]) exceeds tol, as (i, k, j) with the (i, j)
    of the largest excess; None when there is none."""
    slack = np.empty_like(d)  # one work buffer, reused for every k
    for k in range(len(d)):
        np.add(d[:, k, None], d[k], out=slack)
        np.subtract(d, slack, out=slack)
        if slack.max() > tol:
            i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
            return int(i), k, int(j)
    return None


def _check_side(s):
    if s not in _SIDES:
        raise InstanceFormatError(f"side must be one of {_SIDES}, got {s!r}")
    return s


def _check_fields(rec, allowed, what):
    """The one unknown-field policy: each name of rec outside allowed is an
    UnknownField warning, an error under simplefilter("error", UnknownField)."""
    if not isinstance(rec, dict):
        raise InstanceFormatError(f"{what} record must be an object")
    unknown = rec.keys() - allowed
    if unknown:
        warnings.warn(f"unknown {what} field(s): {sorted(unknown)}", UnknownField, stacklevel=2)


def read_document(path, allowed, what) -> dict:
    """The JSON object in the file at path, its fields checked by _check_fields.
    An unreadable file, invalid JSON or a non-object raises InstanceFormatError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise InstanceFormatError(f"invalid JSON in {path}: {exc}") from None
    _check_fields(data, allowed, what)
    return data


def _number(value, what) -> float:
    """A spec parameter as a float; what names it in the error.  A JSON
    boolean or numeric string is no number, though float() takes both."""
    if not isinstance(value, _NOT_NUMBERS):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise InstanceFormatError(f"{what} must be a number, got {value!r}")


def _params(data: dict, what: str) -> dict:
    """A spec's optional 'params' object, copied."""
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise InstanceFormatError(f"{what} 'params' must be an object, got {params!r}")
    return dict(params)


def _coord_tuple(pid, xy) -> tuple[float, ...]:
    """Coordinates as floats.  A string is malformed, not a sequence of
    digits, and so are scalars and non-number entries (a JSON boolean too)."""
    if not isinstance(xy, (str, bytes)):
        try:
            vals = tuple(xy)
            if not _any_not_number(vals):
                return tuple(map(float, vals))
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
    n, dim = arr.shape
    dist = np.empty((n, n))
    # rows of about _BLOCK differences at a time; each distance is the same
    # reduction over its own dim differences as over the whole n x n x dim array
    rows = max(1, _BLOCK // max(1, n * dim))
    with np.errstate(over="ignore", invalid="ignore"):  # _validate rejects non-finite
        for r in range(0, n, rows):
            diff = arr[r:r + rows, None, :] - arr[None, :, :]
            if metric == "l1":
                dist[r:r + rows] = np.abs(diff).sum(axis=2)
            elif metric == "l2":
                dist[r:r + rows] = np.sqrt((diff ** 2).sum(axis=2))
            else:
                # initial: with no coordinates every point coincides, as under l1 and l2
                dist[r:r + rows] = np.abs(diff).max(axis=2, initial=0.0)
    return dist


def _float_array(values, message: str) -> np.ndarray:
    """values, a number or nested lists of numbers, as a fresh float array;
    message is the error when they are not.  A JSON boolean is no number,
    though numpy converts it to one."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise InstanceFormatError(message) from None
    if isinstance(values, np.ndarray) and values.dtype.kind != "O":
        # a typed array holds one kind of element: a bool or a string kind is no number
        if values.dtype.kind in "bUS":
            raise InstanceFormatError(message)
    else:
        # np.array took every nesting level of values, so each one iterates
        flat = [values]
        for _ in range(arr.ndim):
            flat = chain.from_iterable(flat)
        if _any_not_number(flat):
            raise InstanceFormatError(message)
    return arr


def _any_not_number(values) -> bool:
    """Whether values holds a bool, str or bytes, which Python and numpy
    convert to floats but a JSON document means as no number; one pass over
    values, then one test per distinct type."""
    return any(issubclass(t, _NOT_NUMBERS) for t in set(map(type, values)))


def _table_array(table, n: int) -> np.ndarray:
    """The distance table as a fresh n x n float array."""
    dist = _float_array(table, "distance table must be a square array of numbers")
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
    (a, ia), (b, ib) = space._sides["A"], space._sides["B"]
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


def _close_block(space: FiniteMetricGraph) -> np.ndarray:
    """A x B mask of the pairs at distance d(A,B), up to TOL_PARALLEL."""
    ia, ib = space._sides["A"][1], space._sides["B"][1]
    return np.abs(space.dist[np.ix_(ia, ib)] - pair_distance(space).d_ab) <= TOL_PARALLEL


def is_sharp_proximal(space: FiniteMetricGraph) -> CheckResult:
    """Every point of A has exactly one partner in B at distance d(A,B), and vice versa."""
    return space._cached("sharp_proximal", lambda: _sharp_proximal(space))


def _sharp_proximal(space):
    close = _close_block(space)
    a, b = space.side_a(), space.side_b()
    for points, others, mask in ((a, b, close), (b, a, close.T)):
        bad = np.flatnonzero(mask.sum(axis=1) != 1)
        if bad.size:
            i = int(bad[0])
            partners = tuple(others[j] for j in np.flatnonzero(mask[i]).tolist())
            return CheckResult(False, (points[i], partners))
    return CheckResult(True)


def is_g_chebyshev(space: FiniteMetricGraph) -> CheckResult:
    """Every parallel pair (x, y) in A x B at distance d(A,B) is an edge."""
    return space._cached("g_chebyshev", lambda: _g_chebyshev(space))


def _g_chebyshev(space):
    for pair in sorted(pair_distance(space).parallel_pairs):
        if pair not in space.edges:
            return CheckResult(False, pair)
    return CheckResult(True)


def has_property_uc(space: FiniteMetricGraph) -> CheckResult:
    """No point of B sits at distance d(A,B) from two distinct points of A.

    Finite surrogate of the uniform-closeness property: two A-points equally
    proximal to the same B-point must coincide.
    """
    return space._cached("property_uc", lambda: _property_uc(space))


def _property_uc(space):
    close = _close_block(space)
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
        # a side's own tuple is found by identity, not by comparing its ids
        if nodes is canonical or nodes == canonical:
            return space._cached(key, lambda: _property_star(space, nodes))
    return _property_star(space, nodes)


def _property_star(space, nodes):
    """The lexicographically least (x, y, z) with edges x -> y -> z but no
    edge x -> z, all three in nodes.  Each edge is an integer key x * n + y
    over the ranks of the n nodes in sorted id order.  The 2-paths are joined
    in blocks of about _BLOCK, in the sorted order of (x, y) and then z, and
    each shortcut x * n + z is looked up among the sorted edge keys; the first
    block with a miss holds the least."""
    ranked = sorted(space.index.keys() & set(nodes))
    rank = dict(zip(ranked, range(len(ranked))))
    n = len(ranked)
    keys = np.sort(np.array([rank[x] * n + rank[y] for x, y in space.edges
                             if x in rank and y in rank], dtype=np.int64))
    src, dst = np.divmod(keys, n)
    out_deg = np.bincount(src, minlength=n)
    paths = out_deg[dst]  # 2-paths x -> y -> z through each edge x -> y
    ends = np.cumsum(paths)
    # 2-path number g, through edge e, ends at the z of the key at g + shift[e]
    shift = (np.cumsum(out_deg) - out_deg)[dst] - (ends - paths)
    bounded = np.append(keys, n * n)  # a search past the last key finds no key
    a = done = 0
    while a < len(keys):
        b = max(a + 1, int(np.searchsorted(ends, done + _BLOCK, side="right")))
        count = paths[a:b]
        z_pos = np.repeat(shift[a:b], count) + np.arange(done, ends[b - 1])
        want = np.repeat(src[a:b] * n, count) + dst[z_pos]
        miss = bounded[np.searchsorted(keys, want)] != want
        if miss.any():
            i = int(np.argmax(miss))
            e = a + int(np.searchsorted(ends[a:b], done + i, side="right"))
            return CheckResult(False, (ranked[src[e]], ranked[dst[e]], ranked[dst[z_pos[i]]]))
        a, done = b, int(ends[b - 1])
    return CheckResult(True)
