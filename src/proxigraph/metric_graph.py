"""Finite metric spaces carrying a directed edge relation over two sides A and B.

Points live on side "A", side "B", or both ("AB").  Distances come either from
coordinates under a named metric (l1, l2, sup) or from an explicit table.  The
edge set is a set of ordered id pairs; every point must carry its trivial loop.

One rule, `FiniteMetricGraph._pair_dist`, answers every distance, for position
arrays.  A table space gathers it from its table.  A coordinate space keeps
its read-only (n, dim) coordinate array and no n x n table: each distance is
computed when asked for, and `dist` is built, in row blocks by the same rule,
only when it is read.  `_row_blocks` is the one loop over a block of pairs.

`FiniteMetricGraph.__post_init__` reads every space; the constructors only lay
their input out as its fields.  One rule, `_point_id`, reads point ids and edge
ends alike, and all coordinates are read in one call.  A space is immutable,
its arrays and maps read-only, and holds each side's ids and positions, the
sorted id order and each point's rank in it.  One walk over the edges gives
the only form in which the space holds them: the read-only sorted keys
rank[x] * n + rank[y], one per edge.  They answer the edge lookup over
position arrays (`_is_edge`), and through it `has_edge` for a pair of ids,
and `_edges_within` is the one rule for the edges within a subset; no other
module reads how edges are stored.  The boxed forms are built on read: the
frozenset `edges` from the keys, on first read, and then kept; a coordinate
space's `coords`, a view over its array that builds a point's tuple when it
is read.  Closeness to d(A,B) is one float test, kept as the list
of close pairs by position; no other module reads it.  What else follows
from the space alone -- d(A,B) and that list, the component labels and the
hypothesis verdicts -- is computed on first use and kept on the space, as
are, for each map checked against it, its verdict, its read-only image
arrays, a cyclic map's orbit table with d(p, Tp) for every p, and a pair's
step distances.

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

# elements of a work array built at a time: distances in _row_blocks,
# coordinate differences in _coord_pair, 2-path sums in _triangle_fails,
# 2-paths in _property_star
_BLOCK = 1 << 16

# numpy adds fewer terms than this one after another; from this many on, its
# pairwise summation changes the order
_IN_ORDER = 8

# what float() or numpy converts (None to nan) but a document means as no number
_NOT_NUMBERS = (str, bytes, bool, np.bool_, type(None))

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


@dataclass(frozen=True, eq=False)
class FiniteMetricGraph:
    """Immutable two-sided finite metric space with a digraph.

    For the metric "table", `dist` is the distance table.  For l1, l2 and sup
    the distances are derived from `coords` and `dist` is passed as None, so
    they satisfy the triangle inequality by construction.  A coordinate space
    keeps its coordinates, not a table: it computes each distance when asked,
    and builds `dist` only when that is read, then keeps it.  `side` and
    `coords` are mappings, or (id, value) pairs, from point ids.  The space
    keeps its edges as sorted keys, and builds `edges` from them when first
    read; a coordinate space's `coords` is a view over its coordinate array.
    """

    ids: tuple[str, ...]
    side: Mapping[str, str]
    dist: np.ndarray | None = field(repr=False)  # repr builds no table
    edges: frozenset[tuple[str, str]] = field(repr=False)  # nor an edge set
    coords: Mapping[str, tuple[float, ...] | None] = field(default_factory=dict)
    metric: str = "table"

    def __post_init__(self):
        ids = tuple(map(_point_id, self.ids))
        index = dict(zip(ids, range(len(ids))))
        if len(index) != len(ids):
            raise InstanceFormatError("duplicate point ids")
        if self.metric not in _METRICS:
            raise InstanceFormatError(f"unknown metric {self.metric!r}")
        # order[r] is the position of the r-th id in sorted order, rank its inverse
        order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
        rank = order.argsort()
        edge_keys = _read_edges(self.edges, ids, index, rank)
        side, given = _by_id(self.side, "side", index), _by_id(self.coords, "coords", index)
        side = {p: _check_side(side.get(p)) for p in ids}
        # a table space may carry coordinates on some points, of any dimension
        table = self.metric == "table"
        have = [p for p in ids if given.get(p) is not None] if table else ids
        rows, arr = _read_coords(have, [given.get(p) for p in have])
        index = MappingProxyType(index)
        if table:
            dist = _float_array(self.dist, "distance table must be a square array of numbers")
            if dist.shape != (len(ids), len(ids)):
                raise InstanceFormatError("distance table shape does not match point count")
            if not np.isfinite(dist).all():
                raise InstanceFormatError("distance table contains non-finite entries")
            _check_table(dist, ids)
            dist.flags.writeable = False
            rows = map(tuple, arr.tolist()) if rows is None else rows
            coords, arr = MappingProxyType({**dict.fromkeys(ids), **dict(zip(have, rows))}), None
        elif self.dist is not None:
            raise InstanceFormatError(
                f"metric {self.metric!r} derives distances from coords; pass dist=None")
        elif arr is None:
            raise InstanceFormatError("points have mixed coordinate dimensions")
        else:
            arr.flags.writeable = False
            coords = _CoordView(arr, index)
        sides = {}  # s -> the ids and the read-only positions of side s, in id order
        for s in "AB":
            pos = np.array([i for i, v in enumerate(side.values()) if s in v], dtype=np.intp)
            pos.flags.writeable = False
            sides[s] = tuple(ids[i] for i in pos.tolist()), pos
        order.flags.writeable = rank.flags.writeable = edge_keys.flags.writeable = False
        for name, value in (("ids", ids), ("side", MappingProxyType(side)), ("coords", coords),
                            ("index", index), ("_sides", sides), ("_memo", {}),
                            ("_order", order), ("_rank", rank), ("_edge_keys", edge_keys),
                            ("_coord_array", arr)):
            object.__setattr__(self, name, value)
        object.__delattr__(self, "edges")  # built when first read, by _OnRead
        if table:
            object.__setattr__(self, "dist", dist)
        else:
            object.__delattr__(self, "dist")  # built when first read, by _OnRead
            # finite sums or maxima of |a - b| pass the rest by construction
            self._check_finite()

    def _check_finite(self) -> None:
        """Raise unless every distance of a coordinate space is finite.
        Rounding is monotone, so no distance exceeds the one, by the same
        rule, between the least and the greatest value of each coordinate;
        only when that bound is not finite does a scan of every row block
        decide."""
        arr = self._coord_array
        with np.errstate(over="ignore", invalid="ignore"):
            # with no points the bound is inf - -inf, and the scan finds nothing
            span = np.stack((arr.min(axis=0, initial=np.inf), arr.max(axis=0, initial=-np.inf)))
            if np.isfinite(_coord_pair(span, self.metric, 0, 1)):
                return
            pos = np.arange(len(arr))
            for _, block in self._row_blocks(pos, pos):
                if not np.isfinite(block).all():
                    raise InstanceFormatError("distance table contains non-finite entries")

    def _table(self) -> np.ndarray:
        """The read-only n x n table by the pair rule: a coordinate space's
        `dist`, and the table `to_dict` writes without keeping it."""
        pos = np.arange(len(self.ids))
        dist = np.empty((len(pos), len(pos)))
        for r, block in self._row_blocks(pos, pos):
            dist[r:r + len(block)] = block
        dist.flags.writeable = False
        return dist

    def _edge_pairs(self) -> list[tuple[str, str]]:
        """Each edge (x, y) once, in sorted id order, from the edge keys."""
        ids = self.ids
        x, y = self._order[np.stack(np.divmod(self._edge_keys, len(ids)))].tolist()
        return list(zip(map(ids.__getitem__, x), map(ids.__getitem__, y)))

    def __reduce__(self):
        # read-only mappings do not pickle; rebuild from plain copies instead
        dist = self.dist if self.metric == "table" else None
        return (type(self), (self.ids, dict(self.side), dist, self._edge_pairs(),
                             dict(self.coords), self.metric))

    # ----- construction -------------------------------------------------

    @classmethod
    def from_coords(cls, points, metric="l2", edges=(), auto_loops=True):
        """points: iterable of (id, coords, side) triples."""
        if metric not in _COORD_METRICS:
            raise InstanceFormatError(f"metric {metric!r} needs coordinates from l1/l2/sup")
        points = list(points)
        ids = [p for p, _, _ in points]
        edges = chain(edges, zip(ids, ids)) if auto_loops else edges
        return cls(ids, [(p, s) for p, _, s in points], None, edges,
                   [(p, xy) for p, xy, _ in points], metric)

    @classmethod
    def from_table(cls, ids, side, table, edges=(), auto_loops=True, coords=None):
        ids = list(ids)
        edges = chain(edges, zip(ids, ids)) if auto_loops else edges
        return cls(ids, side, table, edges, coords or {}, "table")

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
        for rec in pts:
            _check_fields(rec, _POINT_FIELDS, "point")
            if "id" not in rec:
                raise InstanceFormatError("point record missing 'id'")
        ids = [rec["id"] for rec in pts]
        edges = data.get("edges", [])
        if not isinstance(edges, list):
            raise InstanceFormatError("'edges' must be a list of id pairs")
        auto_loops = data.get("auto_loops", False)
        if not isinstance(auto_loops, bool):  # a JSON true or false, not any truthy value
            raise InstanceFormatError(f"'auto_loops' must be true or false, got {auto_loops!r}")
        table = data.get("dist_table") if metric == "table" else None
        if metric == "table" and table is None:
            raise InstanceFormatError("metric 'table' requires 'dist_table'")
        if metric != "table" and any(rec.get("coords") is None for rec in pts):
            raise InstanceFormatError(f"metric {metric!r} requires coords on every point")
        edges = chain(edges, zip(ids, ids)) if auto_loops else edges
        return cls(ids, [(rec["id"], rec.get("side")) for rec in pts], table, edges,
                   [(rec["id"], rec.get("coords")) for rec in pts], metric)

    def to_dict(self) -> dict:
        """The instance as a table document; a coordinate space keeps no table."""
        return {
            "schema": SCHEMA_VERSION,
            "points": [
                {"id": p, "coords": list(self.coords.get(p)) if self.coords.get(p) else None,
                 "side": self.side[p]}
                for p in self.ids
            ],
            "metric": "table",
            "dist_table": self._table().tolist(),
            "edges": list(map(list, self._edge_pairs())),
            "auto_loops": False,
        }

    # ----- basic access -------------------------------------------------

    def d(self, x: str, y: str) -> float:
        return float(self._pair_dist(self._i(x), self._i(y)))

    def side_a(self) -> tuple[str, ...]:
        return self._sides["A"][0]

    def side_b(self) -> tuple[str, ...]:
        return self._sides["B"][0]

    def has_edge(self, x: str, y: str) -> bool:
        """Whether (x, y) is an edge, by _is_edge; False when x or y is no point."""
        i, j = self.index.get(x), self.index.get(y)
        return i is not None and j is not None and bool(self._is_edge(i, j))

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

    def _pair_dist(self, x, y) -> np.ndarray:
        """d(ids[x], ids[y]) for position arrays x and y broadcast against
        each other: the one distance rule.  A table space gathers from dist;
        a coordinate space computes from its coordinates by _coord_pair, with
        the bits of the table that dist builds.  A position off the space
        raises IndexError."""
        if self._coord_array is None:
            return self.dist[x, y]
        return _coord_pair(self._coord_array, self.metric, x, y)

    def _row_blocks(self, rows, cols):
        """For the position arrays rows and cols, each (r, the distances from
        rows[r:r + k] to cols) over row blocks of about _BLOCK distances, in
        order: the one loop over a block of pairs."""
        step = max(1, _BLOCK // max(1, len(cols)))
        for r in range(0, len(rows), step):
            yield r, self._pair_dist(rows[r:r + step, None], cols)

    def _is_edge(self, x, y) -> np.ndarray:
        """Whether (ids[x], ids[y]) is an edge, for position arrays x and y
        broadcast against each other: each key searched among the sorted
        edge keys.  A position off the space raises IndexError."""
        keys, rank = self._edge_keys, self._rank
        want = rank[x] * len(rank) + rank[y]
        # the loop on the last id in sorted order is the largest key, n * n - 1:
        # no search goes past it
        return keys[np.searchsorted(keys, want)] == want

    def _edges_within(self, nodes) -> tuple[np.ndarray, np.ndarray]:
        """The one rule for the edges within a subset: the sorted-id ranks of
        the ids in nodes, each resolved by _i, and the (2, k) ranks of the ends
        of the k edges within them, in key order, which is sorted id order."""
        rank = self._rank[np.fromiter(map(self._i, nodes), dtype=np.intp)]
        inside = np.zeros(len(self.ids), dtype=bool)
        inside[rank] = True
        ends = np.stack(np.divmod(self._edge_keys, len(self.ids)))
        return rank, ends[:, inside[ends].all(axis=0)]  # a mask keeps the key order


class _OnRead:
    """A FiniteMetricGraph field that the space does not hold, built by
    build(space) on first read and kept in the memo under its name: `dist`
    of a coordinate space, and every space's `edges`.  What the instance
    holds, as a table space's own dist, comes first.  (A __getattr__ would
    slow every other attribute read of a space.)"""

    def __init__(self, name, build):
        self.name, self.build = name, build

    def __get__(self, space, owner=None):
        return self if space is None else space._cached(self.name, lambda: self.build(space))


# set after the dataclass is made, which would take a class attribute for a default
FiniteMetricGraph.dist = _OnRead("dist", FiniteMetricGraph._table)
FiniteMetricGraph.edges = _OnRead("edges", lambda space: frozenset(space._edge_pairs()))


class _CoordView(Mapping):
    """The coordinates of a coordinate space: a read-only mapping from each
    point id to its float tuple, built on read from the (n, dim) array.  It
    holds the array and the index, not the space, so no reference cycle
    keeps a space alive."""

    __slots__ = ("_arr", "_index")

    def __init__(self, arr, index):
        self._arr, self._index = arr, index

    def __getitem__(self, pid):
        return tuple(self._arr[self._index[pid]].tolist())

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return len(self._index)

    def __repr__(self):
        return repr(dict(self))


def _check_table(d, ids):
    """Raise unless the finite table d over ids is >= 0, zero on the diagonal,
    symmetric to TOL_METRIC and metric: the min-plus square decides, and only
    a failure pays for the per-k scan that names the first (i, k, j)."""
    if (d < 0).any():
        raise InstanceFormatError("negative distance in table")
    if np.diag(d).any():  # d is finite: |x| > 0 exactly when x != 0
        raise InstanceFormatError("nonzero self-distance in table")
    # d >= 0, so |d| is d; an exactly symmetric d passes the tolerance test
    asym = d - d.T
    symmetric = not asym.any()
    if not symmetric and (np.abs(asym) > TOL_METRIC * np.maximum(d, 1.0)).any():
        raise InstanceFormatError("distance table is not symmetric")
    del asym  # not held while the triangle check runs
    tol = TOL_METRIC * (max(1.0, float(d.max())) if len(d) else 1.0)
    if _triangle_fails(d, tol, symmetric):
        i, k, j = _triangle_witness(d, tol)
        raise InstanceFormatError(f"triangle inequality fails for ({ids[i]}, {ids[k]}, "
                                  f"{ids[j]}): {d[i, j]} > {d[i, k]} + {d[k, j]}")


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
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits or levels
        raise InstanceFormatError(f"invalid JSON in {path}: {exc}") from None
    _check_fields(data, allowed, what)
    return data


def _number(value, what) -> float:
    """One number of a document as a float; what names it in the error.  This
    and _float_array hold the one rule for a document's numbers: a JSON
    boolean, numeric string or null is no number, though float() or numpy
    converts each, and neither is an integer too large for a float."""
    if not isinstance(value, _NOT_NUMBERS):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InstanceFormatError(f"{what} must be a number, got {value!r}")


def _params(data: dict, what: str) -> dict:
    """A spec's optional 'params' object, copied."""
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise InstanceFormatError(f"{what} 'params' must be an object, got {params!r}")
    return dict(params)


def _coord_tuple(pid, xy) -> tuple[float, ...]:
    """Coordinates as floats: a list of numbers, read by _float_array."""
    try:
        arr = _float_array(xy, "")
        if arr.ndim == 1:
            return tuple(arr.tolist())
    except InstanceFormatError:
        pass
    raise InstanceFormatError(f"coords of point {pid!r} must be a list of numbers, got {xy!r}")


def _coord_pair(arr, metric, x, y) -> np.ndarray:
    """The l1, l2 or sup distances between rows x and y of the (n, dim)
    coordinate array arr, for position arrays x and y broadcast against each
    other; each has the bits of the reduction over one n x n x dim array.

    With 1 to _IN_ORDER - 1 coordinates, one pass per coordinate: the absolute
    (l1, sup) or squared (l2) differences, added or maxed in coordinate
    order.  numpy's sum adds fewer than _IN_ORDER terms in that same order.
    With none, or with _IN_ORDER or more (ex41 has 640 to 1024), each pair
    reduces over the coordinate axis, about _BLOCK differences at a time: so
    long an axis keeps numpy's reduction fast, and passes would sum in
    another order."""
    dim = arr.shape[1]
    if 0 < dim < _IN_ORDER:
        for k in range(dim):
            diff = arr[x, k] - arr[y, k]
            diff = diff * diff if metric == "l2" else np.abs(diff)
            if not k:
                out = diff
            elif metric == "sup":
                out = np.maximum(out, diff)
            else:
                out = out + diff
        return np.sqrt(out) if metric == "l2" else out
    x, y = np.broadcast_arrays(x, y)
    out = np.empty(x.shape)
    flat, x, y = out.reshape(-1), x.ravel(), y.ravel()
    step = max(1, _BLOCK // max(1, dim))
    for s in range(0, len(flat), step):
        diff = arr[x[s:s + step]] - arr[y[s:s + step]]
        if metric == "l1":
            flat[s:s + step] = np.abs(diff).sum(axis=1)
        elif metric == "l2":
            flat[s:s + step] = np.sqrt((diff ** 2).sum(axis=1))
        else:
            # initial: with no coordinates every point coincides, as under l1 and l2
            flat[s:s + step] = np.abs(diff).max(axis=1, initial=0.0)
    return out


def _float_array(values, message: str) -> np.ndarray:
    """values, a number or nested lists of numbers, as a fresh float array;
    message is the error when they are not.  Each number is read by
    _number's rule, to the same double as float() gives."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InstanceFormatError(message) from None
    if isinstance(values, np.ndarray) and values.dtype.kind != "O":
        # a typed array holds one kind of element: a bool or a string kind is no number
        if values.dtype.kind in "bUS":
            raise InstanceFormatError(message)
    else:
        # np.array took every nesting level of values, so each one iterates
        flat = values if arr.ndim else [values]
        for _ in range(arr.ndim - 1):
            flat = chain.from_iterable(flat)
        for t in set(map(type, flat)):  # one test per distinct type
            if issubclass(t, _NOT_NUMBERS):
                raise InstanceFormatError(message)
    return arr


def _point_id(value) -> str:
    """The one id rule, for point ids, edge ends and map entries: a string
    (numpy's str_ too) is kept, an integer but a bool is written in decimal."""
    if isinstance(value, str):
        return str(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    raise InstanceFormatError(f"a point id must be a string or an integer, got {value!r}")


def _by_id(m, what, index=None) -> dict:
    """The mapping m, or its (id, value) pairs, keyed by _point_id.  Two keys
    that it reads as one id are an error naming the least such id, and so,
    when index is given, is a key off index."""
    pairs = list(m.items() if isinstance(m, Mapping) else m)
    by_id = {_point_id(p): v for p, v in pairs}
    if len(by_id) < len(pairs):
        keys = sorted(_point_id(p) for p, _ in pairs)
        twice = next(a for a, b in zip(keys, keys[1:]) if a == b)
        raise InstanceFormatError(f"{what} has two entries for {twice!r}")
    if index is not None and not by_id.keys() <= index.keys():
        stray = min(by_id.keys() - index.keys())
        raise InstanceFormatError(f"{what} has an entry for {stray!r}, which is no point")
    return by_id


def _read_coords(ids, values) -> tuple[list | None, np.ndarray | None]:
    """The coordinates values[i] of ids[i] as None and one (n, dim) array, or,
    for mixed dimensions, as float tuples and None: one _float_array call, or
    if it fails one per point."""
    try:
        arr = _float_array(values, "") if values else np.zeros((0, 0))
        if arr.ndim == 2:
            return None, arr
    except InstanceFormatError:
        pass
    return [_coord_tuple(p, xy) for p, xy in zip(ids, values)], None


def _read_edges(edges, ids, index, rank) -> np.ndarray:
    """The sorted edge keys rank[x] * n + rank[y], one per edge (x, y) however
    often it is listed, over the sorted-id ranks of the n points, from one
    walk over edges: each a list, tuple or 1-d array of exactly two point
    ids, each read by _point_id."""
    ends = []
    for e in edges:
        if type(e) not in (list, tuple) or len(e) != 2:  # the usual edge needs no more
            pair = isinstance(e, (list, tuple)) or isinstance(e, np.ndarray) and e.ndim == 1
            if not pair or len(e) != 2:
                raise InstanceFormatError(f"an edge must be a pair of point ids, got {e!r}")
        ends.extend(e)
    if not set(map(type, ends)) <= {str}:  # _point_id keeps a str as it is
        ends = list(map(_point_id, ends))
    try:
        ranked = rank[np.fromiter(map(index.__getitem__, ends), np.intp, len(ends))]
    except KeyError:  # the least listed pair with an unknown end, not the first listed
        x, y = min(e for e in zip(ends[::2], ends[1::2])
                   if not (e[0] in index and e[1] in index))
        raise InstanceFormatError(f"edge ({x!r}, {y!r}) references unknown point") from None
    keys = np.sort(ranked[::2] * len(ids) + ranked[1::2])
    # each edge once: np.unique hashes, several times slower at every size
    keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
    if np.count_nonzero(keys % (len(ids) + 1) == 0) < len(ids):  # a loop's key is r * (n + 1)
        first = ids[np.isin(rank * (len(ids) + 1), keys).argmin()]  # the first in id order
        raise InstanceFormatError(f"missing trivial loop edge on point {first!r}")
    return keys


# ----- closeness ---------------------------------------------------------


def pair_distance(space: FiniteMetricGraph) -> float:
    """d(A,B), the least distance from a point of A to one of B."""
    return _closeness(space)[0]


def _closeness(space: FiniteMetricGraph) -> tuple[float, np.ndarray, np.ndarray]:
    """d(A,B) and the close pairs, those of A x B whose distance exceeds it by
    at most TOL_PARALLEL, as read-only positions rows into side A and cols
    into side B in row-major order: the one closeness rule, kept on the
    space, from one scan of A x B in row blocks.  Near d(A,B) the difference
    is exact (Sterbenz), so the rule compares the true excess."""
    def closeness():
        ia, ib = space._sides["A"][1], space._sides["B"][1]
        if not ia.size or not ib.size:
            raise EmptySide("pair_distance needs nonempty A and B")
        # a running least distance, and the pairs within TOL_PARALLEL of it: a
        # pair dropped stays out, as a lower d(A,B) only raises its excess
        d_ab, rows, cols, near = np.inf, *np.empty((3, 0), np.intp)
        for r, block in space._row_blocks(ia, ib):
            d_ab = min(d_ab, float(block.min()))
            i, j = np.nonzero(block - d_ab <= TOL_PARALLEL)
            rows, cols, near = (np.concatenate(v) for v in
                                ((rows, i + r), (cols, j), (near, block[i, j])))
            keep = near - d_ab <= TOL_PARALLEL
            rows, cols, near = rows[keep], cols[keep], near[keep]
        rows.flags.writeable = cols.flags.writeable = False
        return d_ab, rows, cols
    return space._cached("closeness", closeness)


def is_sharp_proximal(space: FiniteMetricGraph) -> CheckResult:
    """Every point of A has exactly one partner in B at distance d(A,B), and
    vice versa.  The witness is the first point in input order, A before B,
    without exactly one partner, and its partners in input order."""
    return space._cached("sharp_proximal", lambda: _sharp_proximal(space))


def _sharp_proximal(space):
    _, rows, cols = _closeness(space)
    a, b = space.side_a(), space.side_b()
    # row-major pairs list each point's partners in ascending position
    for points, others, mine, theirs in ((a, b, rows, cols), (b, a, cols, rows)):
        bad = np.flatnonzero(np.bincount(mine, minlength=len(points)) != 1)
        if bad.size:
            i = int(bad[0])
            partners = tuple(others[j] for j in theirs[mine == i].tolist())
            return CheckResult(False, (points[i], partners))
    return CheckResult(True)


def is_g_chebyshev(space: FiniteMetricGraph) -> CheckResult:
    """Every parallel pair (x, y) in A x B at distance d(A,B) is an edge; the
    witness is the least missing pair in sorted id order."""
    return space._cached("g_chebyshev", lambda: _g_chebyshev(space))


def _g_chebyshev(space):
    _, rows, cols = _closeness(space)
    x, y = space._sides["A"][1][rows], space._sides["B"][1][cols]
    miss = np.flatnonzero(~space._is_edge(x, y))
    if not miss.size:
        return CheckResult(True)
    rank = space._rank
    k = miss[np.argmin(rank[x[miss]] * len(rank) + rank[y[miss]])]
    return CheckResult(False, (space.ids[x[k]], space.ids[y[k]]))


def has_property_uc(space: FiniteMetricGraph) -> CheckResult:
    """No point of B sits at distance d(A,B) from two distinct points of A.

    Finite surrogate of the uniform-closeness property: two A-points equally
    proximal to the same B-point must coincide.  The witness is the first
    two partners and the first such point of B, each in input order.
    """
    return space._cached("property_uc", lambda: _property_uc(space))


def _property_uc(space):
    _, rows, cols = _closeness(space)
    a, b = space.side_a(), space.side_b()
    bad = np.flatnonzero(np.bincount(cols, minlength=len(b)) > 1)
    if bad.size:
        j = int(bad[0])
        i0, i1 = rows[cols == j][:2].tolist()
        return CheckResult(False, (a[i0], a[i1], b[j]))
    return CheckResult(True)


def _a0_witness(space: FiniteMetricGraph, image) -> tuple[str, str] | None:
    """(p, Tp) for the least p of A0 in sorted id order whose image misses B0,
    or None, for the map with the image array image.  A0 and B0 are the ends
    of the close pairs."""
    _, rows, cols = _closeness(space)
    a0 = space._sides["A"][1][rows]
    bad = a0[~np.isin(image[a0], space._sides["B"][1][cols])]
    if not bad.size:
        return None
    p = bad[np.argmin(space._rank[bad])]
    return space.ids[p], space.ids[image[p]]


# ----- graph structure --------------------------------------------------


def _roots(n, ends) -> np.ndarray:
    """The least point of each of n points' weak component, under the edges
    in the (2, m) array ends: each round hooks the larger root of every edge
    whose ends have two roots under the smaller one, then shortcuts every
    point to its root (Shiloach and Vishkin's hook and shortcut).  A point
    never points above itself, so a root is the least point under it."""
    root = np.arange(n)
    while True:
        rx, ry = root[ends]  # each edge's two roots
        lo, hi = np.minimum(rx, ry), np.maximum(rx, ry)
        split = lo != hi
        if not split.any():
            return root
        np.minimum.at(root, hi[split], lo[split])
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]


def _components(space: FiniteMetricGraph) -> tuple[tuple[frozenset[str], ...], tuple[int, ...]]:
    """Weak components ordered by smallest member id, and the component label
    of each point in id order.  The labelling runs on the sorted-id ranks
    that the edge keys hold, so each component's root is its smallest member."""
    def labels():
        n, rank = len(space.ids), space._rank
        roots, label = np.unique(_roots(n, np.stack(np.divmod(space._edge_keys, n)))[rank],
                                 return_inverse=True)
        label = label.tolist()
        members = [[] for _ in roots]
        for p, k in zip(space.ids, label):
            members[k].append(p)
        return tuple(map(frozenset, members)), tuple(label)
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
    rank, ends = space._edges_within(within)
    return len(np.unique(_roots(len(space.ids), ends)[rank])) <= 1


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
    """The lexicographically least (x, y, z) in sorted id order with edges
    x -> y -> z but no edge x -> z, all three in nodes.  The edges within
    nodes, from _edges_within, are in that order.  The 2-paths are joined in
    blocks of about _BLOCK, in the sorted order of (x, y) and then z, and
    each shortcut x * n + z, over sorted-id ranks, is looked up among the
    space's edge keys (x and z are in nodes); the first block with a miss
    holds the least."""
    n, keys = len(space.ids), space._edge_keys
    src, dst = space._edges_within(nodes)[1]
    out_deg = np.bincount(src, minlength=n)
    paths = out_deg[dst]  # 2-paths x -> y -> z through each edge x -> y
    ends = np.cumsum(paths)
    # 2-path number g, through edge e, ends at the z of the key at g + shift[e]
    shift = (np.cumsum(out_deg) - out_deg)[dst] - (ends - paths)
    a = done = 0
    while a < len(src):
        b = max(a + 1, int(np.searchsorted(ends, done + _BLOCK, side="right")))
        count = paths[a:b]
        z_pos = np.repeat(shift[a:b], count) + np.arange(done, ends[b - 1])
        want = np.repeat(src[a:b] * n, count) + dst[z_pos]
        miss = keys.take(np.searchsorted(keys, want), mode="clip") != want
        if miss.any():
            i = int(np.argmax(miss))
            e = a + int(np.searchsorted(ends[a:b], done + i, side="right"))
            witness = space._order[[src[e], dst[e], dst[z_pos[i]]]].tolist()
            return CheckResult(False, tuple(space.ids[p] for p in witness))
        a, done = b, int(ends[b - 1])
    return CheckResult(True)
