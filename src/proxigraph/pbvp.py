"""Periodic boundary value problems u' = f(t, u), u(0) = u(T) via Picard
iteration on an equivalent integral equation.

The kernel, written in its decaying form,
    G(t, s) = e^{-alpha (t - s)}     / (1 - e^{-alpha T})   for s <= t
    G(t, s) = e^{-alpha (t + T - s)} / (1 - e^{-alpha T})   for s > t
satisfies int_0^T G(t, s) ds = 1 / alpha for every t.  The fixed-point
operator is
    (F u)(t) = int_0^T G(t, s) [f(s, u(s)) + alpha u(s)] ds,
discretized by product integration: G is integrated exactly against the
piecewise-linear interpolant of g = f(., u) + alpha u on the grid.  Each
segment contributes two positive weights, so the discrete operator has
exactly the kernel's mass 1/alpha, stays monotone, and contracts by the same
factor as the continuous one.  The integral over [0, t_i] is a first-order
recurrence and the one over [t_i, T] a reversed cumulative sum, so one
application costs O(n) time and memory.  The scheme is second order in the
grid spacing.  One object describes the discretisation: `ProductWeights`,
built by `product_weights(alpha, grid)` from alpha and the grid alone.
`kernel_matrix(alpha, grid)` keeps the older dense trapezoid rule as a test
oracle.

Iteration starts from a lower solution w (w' <= f(t, w), w(0) <= w(T)) and is
a contraction with factor beta = sup h / alpha when the state dependence of
f + alpha * id is Lipschitz with weight h(t) < alpha.  A solve binds each
right-hand side to the grid once (`RhsFunction.on`), before its first step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MAX_ITER,
    TOL_SLACK,
    BetaNotContractive,
    ConditionIvViolated,
    EvaluationFailure,
    InstanceFormatError,
    MonotonicityBroken,
    NoConvergence,
    NotLowerSolution,
    ParamOutOfRange,
    require_max_iter,
    require_tol,
)
from .metric_graph import CheckResult, _check_fields, _float_array, _number, _params

TOL_PBVP = 1e-10
TOL_LOWER = 1e-6  # slack of the finite-difference lower-solution check
_PAIR_BLOCK = 1 << 13  # pairs x samples entries verify_condition_iv takes at a time

# kind -> the parameter names that kind reads, with a formula kind's defaults
RHS_PARAMS = {"linear": {"a": 0.0, "b": 0.0}, "exp_linear": {"c": 1.0},
              "cosine_forced": {"a": 0.0, "amp": 1.0, "freq": 1.0},
              "table": dict.fromkeys(("t_nodes", "s_nodes", "values"))}
H_PARAMS = {"const": {"value"}, "exp_gap": {"alpha"}}


def _require_positive(value, what: str) -> None:
    """Reject a nan, infinite, zero or negative problem size before any
    arithmetic uses it."""
    if not (math.isfinite(value) and value > 0):
        raise ParamOutOfRange(f"{what} must be finite and positive, got {value}")


@dataclass(frozen=True)
class TimeGrid:
    period: float
    n: int

    def __post_init__(self):
        _require_positive(self.period, "grid period")
        if self.n < 3:
            raise ParamOutOfRange(f"grid needs at least 3 nodes, got {self.n}")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.period, self.n)

    @property
    def spacing(self) -> float:
        return self.period / (self.n - 1)


@dataclass
class GridFunction:
    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise InstanceFormatError(
                f"grid function needs {self.grid.n} values, got shape {self.values.shape}")

    @classmethod
    def constant(cls, grid: TimeGrid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.n, float(value)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def periodicity_residual(self) -> float:
        return float(abs(self.values[0] - self.values[-1]))


def kernel_matrix(alpha: float, grid: TimeGrid) -> np.ndarray:
    """Dense trapezoid oracle, not on any solver path: the matrix W with
    (F u)_i ~ sum_j W[i, j] g_j.

    Row i integrates with trapezoid over [0, t_i] using the left branch and
    over [t_i, T] using the right branch, so the diagonal node carries half of
    each branch value.  Its row mass is 1/alpha only up to O((alpha h)^2), it
    overflows to NaN once e^{alpha T} does, and it takes O(n^2) memory.
    """
    _require_positive(alpha, "alpha")
    t = grid.nodes
    h = grid.spacing
    n = grid.n
    denom = np.expm1(alpha * grid.period)
    S, Tt = t[None, :], t[:, None]
    # (period - t) + s, not period + (s - t): makes the t = T row of the left
    # branch bitwise equal to the t = 0 row of the right branch, so operator
    # outputs are periodic to the last bit
    left = np.exp(alpha * ((grid.period - Tt) + S)) / denom
    right = np.exp(alpha * (S - Tt)) / denom
    W = np.zeros((n, n))
    for i in range(n):
        if i >= 1:
            w = np.full(i + 1, h)
            w[0] = w[-1] = h / 2
            W[i, : i + 1] += w * left[i, : i + 1]
        if i <= n - 2:
            w = np.full(n - i, h)
            w[0] = w[-1] = h / 2
            W[i, i:] += w * right[i, i:]
    return W


# the largest exponent a block of the left recurrence scales by: e^600 ~ 4e260
# leaves room for segment integrals up to ~1e47 before the product overflows
_BLOCK_EXPONENT = 600.0
_SERIES_TERMS = 20  # x^20 / 22! < 1e-21 for x < 1


def segment_weights(alpha: float, h: float) -> tuple[float, float]:
    """The weights (w0, w1) of one grid segment [t_{i-1}, t_i]:
        int_{t_{i-1}}^{t_i} e^{-alpha (t_i - s)} g(s) ds = w0 g_{i-1} + w1 g_i
    for g linear on the segment.  With x = alpha h,
        w0 = h (1 - (1 + x) e^{-x}) / x^2,   w1 = h (x - 1 + e^{-x}) / x^2,
    both positive, with w0 + w1 = (1 - e^{-x}) / alpha.  Below x = 1 both
    closed forms cancel, so they are summed from their alternating series
        w0 = h sum_k (k + 1) (-x)^k / (k + 2)!,   w1 = h sum_k (-x)^k / (k + 2)!
    whose terms decrease from the first.
    """
    x = alpha * h
    if x < 1.0:
        w0 = w1 = 0.0
        for k in reversed(range(_SERIES_TERMS)):
            term = (-x) ** k / math.factorial(k + 2)
            w0 += (k + 1) * term
            w1 += term
    else:
        mean = -math.expm1(-x) / x  # (1 - e^{-x}) / x
        w0 = (mean - math.exp(-x)) / x
        w1 = (1.0 - mean) / x
    return h * w0, h * w1


@dataclass(frozen=True, eq=False)
class ProductWeights:
    """The discretisation of the kernel of one alpha on one grid: the only
    object that describes it, built once per solve by `product_weights` and
    read by every `integral_operator` call.

    c_j = w0 g_j + w1 g_{j+1} is the exactly weighted integral of segment j,
    [t_j, t_{j+1}], against e^{-alpha (t_{j+1} - s)}.  Then
        L_i = sum_{j < i} e^{-alpha (t_i - t_{j+1})} c_j
    runs blockwise: from the carried L_b, L_{b+1+k} = down_k (decay L_b +
    sum_{j <= k} up_j c_{b+j}), a scaled cumulative sum.  And
        R_i = head_i sum_{j >= i} tail_j c_j
    with head_i = e^{-alpha t_i} and tail_j = e^{-alpha (T - t_{j+1})} <= 1.
    (F u)_i = scale (L_i + R_i), scale = 1 / (1 - e^{-alpha T}).
    """

    alpha: float
    grid: TimeGrid
    nodes: np.ndarray
    w0: float
    w1: float
    decay: float      # e^{-alpha h}
    up: np.ndarray    # e^{alpha h k}, k = 0 .. block - 1
    down: np.ndarray  # e^{-alpha h k}, k = 0 .. block - 1
    head: np.ndarray  # e^{-alpha t_i}, i = 0 .. n - 2
    tail: np.ndarray  # e^{-alpha (T - t_{j+1})}, j = 0 .. n - 2
    scale: float


def product_weights(alpha: float, grid: TimeGrid) -> ProductWeights:
    """Build the O(n) weights of the product-integration operator, once alpha
    is finite and positive."""
    _require_positive(alpha, "alpha")
    h, n = grid.spacing, grid.n
    t = grid.nodes
    w0, w1 = segment_weights(alpha, h)
    x = alpha * h
    # an x that underflows to 0 grows nothing: one block spans the grid
    block = int(min(n - 1, 1 + _BLOCK_EXPONENT // x)) if x else n - 1
    k = np.arange(block) * x
    return ProductWeights(
        alpha=alpha, grid=grid, nodes=t, w0=w0, w1=w1, decay=math.exp(-alpha * h),
        up=np.exp(k), down=np.exp(-k),
        head=np.exp(-alpha * t[:-1]), tail=np.exp(-alpha * (grid.period - t[1:])),
        scale=-1.0 / math.expm1(-alpha * grid.period))


# ----- right-hand sides -------------------------------------------------


@dataclass(frozen=True)
class RhsFunction:
    """Named right-hand side f(t, s).

    kinds:
      linear         f = a * s + b
      exp_linear     f = c * e^t * s
      cosine_forced  f = a * s + amp * cos(2 pi freq t)
      table          bilinear interpolation of values over t_nodes x s_nodes
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # the parameters are parsed here once; `on` reads _numbers or _table
        if self.kind not in RHS_PARAMS:
            raise InstanceFormatError(f"unknown rhs kind {self.kind!r}")
        p = self.params
        _check_fields(p, RHS_PARAMS[self.kind], f"{self.kind} rhs parameter")
        if self.kind != "table":
            numbers = {key: _number(p.get(key, default), f"{self.kind} rhs {key}")
                       for key, default in RHS_PARAMS[self.kind].items()}
            object.__setattr__(self, "_numbers", numbers)
            return
        if not all(k in p for k in ("t_nodes", "s_nodes", "values")):
            raise InstanceFormatError("table rhs needs t_nodes, s_nodes, values")
        tn, sn, vals = (_float_array(p[k], "table rhs nodes and values must be numbers")
                        for k in ("t_nodes", "s_nodes", "values"))
        if tn.ndim != 1 or sn.ndim != 1 or not (tn.size and sn.size):
            raise InstanceFormatError("table rhs nodes must be non-empty lists")
        if not (np.all(tn[1:] >= tn[:-1]) and np.all(sn[1:] >= sn[:-1])):
            raise InstanceFormatError("table rhs nodes must be sorted")
        if vals.shape != (tn.size, sn.size):
            raise InstanceFormatError("table rhs values shape mismatch")
        object.__setattr__(self, "_table", (tn, sn, vals))

    @classmethod
    def from_dict(cls, data) -> "RhsFunction":
        if not isinstance(data, dict) or "kind" not in data:
            raise InstanceFormatError("rhs spec must be an object with a 'kind'")
        return cls(kind=str(data["kind"]), params=_spec_params(data, "rhs"))

    def __call__(self, t, s):
        out = self.on(t)(np.asarray(s, dtype=float))
        return out if out.shape else float(out)

    def on(self, t):
        """f(t, .) as a function of a float array of states that broadcasts
        against t.  The terms of t alone (c e^t, the cosine forcing, the
        table's t-segments and weights) are computed here, once."""
        t = np.asarray(t, dtype=float)
        if self.kind == "table":
            tn, sn, vals = self._table
            it, wt = _segment(tn, t)
            wt1 = 1 - wt

            def bilinear(s):
                js, ws = _segment(sn, s)
                return (vals[it, js] * wt1 * (1 - ws) + vals[it, js + 1] * wt1 * ws
                        + vals[it + 1, js] * wt * (1 - ws) + vals[it + 1, js + 1] * wt * ws)
            return bilinear
        n = self._numbers
        if self.kind == "linear":
            return lambda s: n["a"] * s + n["b"]
        if self.kind == "exp_linear":
            growth = n["c"] * np.exp(t)
            return lambda s: growth * s
        forcing = n["amp"] * np.cos(2.0 * np.pi * n["freq"] * t)
        return lambda s: n["a"] * s + forcing


def _segment(nodes: np.ndarray, x):
    """Clip x to [nodes[0], nodes[-1]]; the index of the segment holding it
    and its weight within the segment (0 on a segment of zero length).  This
    is not the gauges' knot rule, `cyclic_contraction._knot_values`: nodes
    may repeat, a node starts the segment on its right, and the table rhs
    output is the (1 - w) weighting of these segments."""
    x = np.clip(x, nodes[0], nodes[-1])
    i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    w = np.divide(x - nodes[i], nodes[i + 1] - nodes[i], out=np.zeros(np.shape(x)),
                  where=nodes[i + 1] > nodes[i])
    return i, w


def _spec_params(data: dict, what: str) -> dict:
    """An inline spec's 'params' object and its fields beside 'kind' (but a
    'schema'), as one dict; a name given both ways is an input error."""
    params = _params(data, what)
    inline = {k: v for k, v in data.items() if k not in ("kind", "params", "schema")}
    if params.keys() & inline.keys():
        raise InstanceFormatError(f"{what} parameter(s) {sorted(params.keys() & inline)} "
                                  "given both beside 'kind' and in 'params'")
    return {**params, **inline}


def make_h(spec, alpha: float | None = None):
    """Comparison weight h(t) from a config dict or a plain number.

    kinds: const (a finite positive value) and exp_gap (alpha - e^t, with a
    finite alpha taken from the dict itself or from the surrounding solver
    context).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        try:
            v = _number(spec, "h")
        except InstanceFormatError:
            raise InstanceFormatError(
                "h spec must be a number or an object with a 'kind'") from None
        _require_positive(v, "h")
        return lambda t: np.full_like(np.asarray(t, dtype=float), v)
    kind = str(spec["kind"])
    if kind not in H_PARAMS:
        raise InstanceFormatError(f"unknown h kind {kind!r}")
    params = _spec_params(spec, "h")
    _check_fields(params, H_PARAMS[kind], f"{kind} h parameter")
    if kind == "const":
        v = _number(params.get("value"), "const h value")
        _require_positive(v, "const h value")
        return lambda t: np.full_like(np.asarray(t, dtype=float), v)
    a = params.get("alpha", alpha)
    if a is None:
        raise InstanceFormatError("exp_gap h needs an alpha")
    a = _number(a, "exp_gap h alpha")
    if not math.isfinite(a):
        raise ParamOutOfRange(f"exp_gap h alpha must be finite, got {a}")
    return lambda t: a - np.exp(np.asarray(t, dtype=float))


# ----- operator and checks ----------------------------------------------


def _on_grid(evaluate):
    """evaluate(), with a failing right-hand side raised as EvaluationFailure."""
    try:
        return evaluate()
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise EvaluationFailure(f"right-hand side failed on the grid: {exc}") from exc


def integral_operator(f, u: GridFunction, W: ProductWeights) -> GridFunction:
    """(F u)(t_i) on the grid of u for the kernel of W, with
    W = product_weights(alpha, u.grid).  f is the right-hand side bound to
    W's nodes, `rhs.on(W.nodes)`: a function of the values of u.

    Output node n - 1 is written as node 0: (F u)(T) = (F u)(0) holds
    exactly for this kernel.
    """
    if W.grid != u.grid:
        raise ParamOutOfRange("weights were built for another grid")
    t = W.nodes
    fv = _on_grid(lambda: np.asarray(f(u.values), dtype=float))
    # a non-finite f value or an overflow reaches the output, which is checked
    # once at the end
    g = fv + W.alpha * u.values
    c = W.w0 * g[:-1] + W.w1 * g[1:]
    out = np.empty_like(g)
    out[0] = 0.0
    block = len(W.up)
    for b in range(0, len(c), block):
        seg = c[b:b + block]
        m = len(seg)
        out[b + 1:b + 1 + m] = W.down[:m] * (W.decay * out[b] + (W.up[:m] * seg).cumsum())
    out[:-1] += W.head * (W.tail * c)[::-1].cumsum()[::-1]
    out *= W.scale
    out[-1] = out[0]
    if not np.isfinite(out).all():
        raise _non_finite(t, u.values, np.broadcast_to(fv, g.shape), out)
    return GridFunction(u.grid, out)


def _non_finite(t, values, fv, out) -> EvaluationFailure:
    """Name the first node where f is not finite, or else the first node
    where the operator's output is not."""
    bad = ~np.isfinite(fv)
    if bad.any():
        i = int(np.argmax(bad))
        return EvaluationFailure(f"right-hand side is not finite at t = {t[i]}, s = {values[i]}")
    i = int(np.argmax(~np.isfinite(out)))
    return EvaluationFailure(f"integral operator output is not finite at t = {t[i]}")


def _derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order finite differences: central inside, one-sided at the ends."""
    n = len(values)
    d = np.empty(n)
    d[1:-1] = (values[2:] - values[:-2]) / (2 * h)
    d[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * h)
    d[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * h)
    return d


def is_lower_solution(f: RhsFunction, w: GridFunction) -> CheckResult:
    """w' <= f(t, w) at every node (finite differences) and w(0) <= w(T)."""
    t = w.grid.nodes
    dw = _derivative(w.values, w.grid.spacing)
    fw = np.asarray(f(t, w.values), dtype=float)
    bad = np.nonzero(dw > fw + TOL_LOWER)[0]
    if bad.size:
        i = int(bad[0])
        return CheckResult(False, (float(t[i]), float(dw[i]), float(fw[i])))
    if w.values[0] > w.values[-1] + TOL_LOWER:
        return CheckResult(False, ("endpoint order", float(w.values[0]), float(w.values[-1])))
    return CheckResult(True)


def verify_condition_iv(f1: RhsFunction, f2: RhsFunction, alpha: float, h,
                        t_samples, s_pairs, tol: float = 1e-12) -> CheckResult:
    """|f1(t, s2) + alpha s2 - (f2(t, s1) + alpha s1)| <= h(t) (s2 - s1), an
    absolute value, so f1 = f2 where s1 = s2: for sampled t, bound to f1 and f2
    once, and ordered pairs s1 <= s2, in one broadcast per block of pairs x
    samples.  The slack is tol plus the rounding of the left side, 4 eps times
    the sum of its four terms' sizes, so a bound that holds exactly is not
    refused at large states.  The witness is the first violation in pair
    order, then in t, with no error for an unordered pair after it.  Also
    requires sup h < alpha."""
    hfun = make_h(h, alpha)
    ts = np.asarray(t_samples, dtype=float)
    hv = np.asarray(hfun(ts), dtype=float)
    sup_h = float(np.max(hv))
    if not sup_h < alpha:
        return CheckResult(False, ("sup h", sup_h, alpha))
    pairs = list(s_pairs)
    ends = np.array(pairs, dtype=float).reshape(-1, 2).T[:, :, None]
    # the first pair out of order, or one past the last pair
    stop = int(np.argmax(np.append(ends[0, :, 0] > ends[1, :, 0], True)))
    rows = max(1, _PAIR_BLOCK // ts.size)
    on1, on2 = f1.on(ts), f2.on(ts)
    for k0 in range(0, stop, rows):
        s1, s2 = np.repeat(ends[:, k0:min(k0 + rows, stop)], ts.size, 2)
        lhs = np.abs(on1(s2) + alpha * s2 - on2(s1) - alpha * s1)
        rhs = hv * (s2 - s1)
        bad = lhs > rhs + tol
        if bad.any():  # the rounding slack only shrinks bad, so it is added where needed
            size = np.abs(on1(s2)) + np.abs(on2(s1)) + alpha * (np.abs(s1) + np.abs(s2))
            bad &= lhs > rhs + tol + 4 * np.finfo(float).eps * size
        if bad.any():
            k, i = divmod(int(np.argmax(bad)), ts.size)
            return CheckResult(False, (float(ts[i]), float(s1[k, i]), float(s2[k, i]),
                                       float(lhs[k, i]), float(rhs[k, i])))
    if stop < len(pairs):
        raise ParamOutOfRange(f"s_pairs must be ordered, got ({pairs[stop][0]}, {pairs[stop][1]})")
    return CheckResult(True)


# ----- solvers ----------------------------------------------------------


@dataclass(frozen=True)
class PbvpReport:
    iterations: int
    beta: float
    max_ratio: float
    final_increment: float
    periodicity_residual: float
    ode_residual: float
    ode_residual_periodic: float
    ratios: tuple[float, ...] = ()
    monotone_steps: tuple[bool, ...] = ()


def _ode_residuals(f, u: GridFunction) -> tuple[float, float]:
    h = u.grid.spacing
    fu = f(u.values)
    d_one_sided = _derivative(u.values, h)
    res_one = float(np.max(np.abs(d_one_sided - fu)))
    # periodic wrap: u(0) = u(T) identifies the endpoints, so the neighbours of
    # node 0 are node n-2 (behind) and node 1 (ahead)
    d_per = d_one_sided.copy()
    d_per[0] = (u.values[1] - u.values[-2]) / (2 * h)
    d_per[-1] = d_per[0]
    res_per = float(np.max(np.abs(d_per - fu)))
    return res_one, res_per


def _require_at_every_node(ok: np.ndarray, values: np.ndarray, grid: TimeGrid,
                           what: str) -> None:
    """Raise ParamOutOfRange naming the first node where ok is False."""
    if not ok.all():
        i = int(np.argmax(~ok))
        raise ParamOutOfRange(f"{what}, got {values[i]} at t = {grid.nodes[i]}")


def _beta_of(h, alpha: float, grid: TimeGrid) -> float:
    """sup h / alpha over the grid, once h is positive at every node."""
    hv = np.asarray(make_h(h, alpha)(grid.nodes), dtype=float)
    _require_at_every_node(hv > 0.0, hv, grid, "h must be positive on the grid")
    return float(np.max(hv)) / alpha


def solve_pbvp(f: RhsFunction, alpha: float, h, w0: GridFunction,
               tol: float = TOL_PBVP, max_iter: int = MAX_ITER,
               check_lower: bool = True) -> tuple[GridFunction, PbvpReport]:
    """Picard iteration u_{k+1} = F u_k starting one step above the lower
    solution w0.  Stops when the sup increment drops to tol.  Whether each
    step kept the monotone ordering is recorded, not enforced."""
    return _picard((f,), alpha, h, w0, tol, max_iter, check_lower)


def solve_common_pbvp(f1: RhsFunction, f2: RhsFunction, alpha: float, h,
                      w0: GridFunction, tol: float = TOL_PBVP, max_iter: int = MAX_ITER,
                      check_lower: bool = True) -> tuple[GridFunction, PbvpReport]:
    """Alternating iteration for a pair of periodic problems sharing a solution.

    F1 applies the kernel to f2 + alpha * id, F2 applies it to f1 + alpha * id;
    the orbit is x0 = F2 w0, then F1, F2 alternating.  `verify_condition_iv`'s
    bound on |f1(t, s2) + alpha s2 - f2(t, s1) - alpha s1| is sampled on the
    grid and a state lattice before iterating, and each step is checked for
    the pointwise monotone ordering.
    """
    return _picard((f1, f2), alpha, h, w0, tol, max_iter, check_lower)


def _picard(fs, alpha, h, w0, tol, max_iter, check_lower):
    """The Picard driver of both solvers: step k applies the kernel to
    fs[k % len(fs)] + alpha * id, starting from w0 with k = 0, each f bound
    to the grid nodes once.

    A pair (f1, f2) must also pass condition (iv), keep the monotone ordering
    at every step, and stop only where both operators fix the iterate.
    """
    require_tol(tol)
    require_max_iter(max_iter)
    grid = w0.grid
    _require_at_every_node(np.isfinite(w0.values), w0.values, grid, "w0 must be finite")
    pair = len(fs) > 1
    W = product_weights(alpha, grid)
    beta = _beta_of(h, alpha, grid)
    if not beta < 1.0:
        raise BetaNotContractive(f"sup h / alpha = {beta} is not < 1")
    if check_lower:
        low = is_lower_solution(fs[0], w0)
        if not low:
            of_f1 = " of f1" if pair else ""
            raise NotLowerSolution(f"w0 is not a lower solution{of_f1}: witness {low.witness}")
    if pair:
        lo = float(np.min(w0.values)) - 1.0
        hi = float(np.max(w0.values)) + 1.0
        svals = np.linspace(lo, hi, 9)
        pairs = [(float(a), float(b)) for a in svals for b in svals if a <= b]
        ok = verify_condition_iv(fs[0], fs[1], alpha, h, grid.nodes, pairs)
        if not ok:
            raise ConditionIvViolated(ok.witness)

    ops = _on_grid(lambda: [f.on(W.nodes) for f in fs])

    u = integral_operator(ops[0], w0, W)
    monotone = [bool((u.values >= w0.values - 1e-12).all())]
    if pair and not monotone[0]:
        raise MonotonicityBroken("first step fell below the lower solution")
    prev_inc = None
    ratios: list[float] = []
    floor = 100 * np.finfo(float).eps * max(1.0, u.sup_norm())
    for k in range(max_iter):
        nxt = integral_operator(ops[(k + 1) % len(ops)], u, W)
        inc = float(np.abs(nxt.values - u.values).max())
        monotone.append(bool((nxt.values >= u.values - 1e-12).all()))
        if pair and not monotone[-1]:
            raise MonotonicityBroken(f"step {k} lost the pointwise ordering")
        if prev_inc is not None and prev_inc > floor:
            ratios.append(inc / prev_inc)
        prev_inc = inc
        u = nxt
        if inc <= tol and (not pair or _fixed_by_all(ops, u, W, tol)):
            res_one, res_per = _ode_residuals(ops[0], u)
            report = PbvpReport(
                iterations=k + 2,
                beta=beta,
                max_ratio=max(ratios, default=0.0),
                final_increment=inc,
                periodicity_residual=u.periodicity_residual(),
                ode_residual=res_one,
                ode_residual_periodic=res_per,
                ratios=tuple(ratios),
                monotone_steps=tuple(monotone),
            )
            return u, report
    name = "alternating" if pair else "Picard"
    raise NoConvergence(f"{name} iteration did not reach {tol} in {max_iter} steps")


def _fixed_by_all(ops, u, W, tol) -> bool:
    """Every bound rhs of ops moves u by at most max(10 tol, TOL_SLACK)."""
    moves = [float(np.max(np.abs(integral_operator(f, u, W).values - u.values)))
             for f in reversed(ops)]
    return max(moves) <= max(10 * tol, TOL_SLACK)
