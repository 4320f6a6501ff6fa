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
grid spacing.  `kernel_matrix` keeps the older dense trapezoid rule as a test
oracle.

Iteration starts from a lower solution w (w' <= f(t, w), w(0) <= w(T)) and is
a contraction with factor beta = sup h / alpha when the state dependence of
f + alpha * id is Lipschitz with weight h(t) < alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BetaNotContractive,
    ConditionIvViolated,
    EvaluationFailure,
    InstanceFormatError,
    MonotonicityBroken,
    NoConvergence,
    NotLowerSolution,
    OutOfDomain,
    ParamOutOfRange,
    require_tol,
)
from .metric_graph import CheckResult, _number, _params

TOL_PBVP = 1e-10
TOL_LOWER = 1e-6  # slack of the finite-difference lower-solution check
MAX_ITER = 10_000

RHS_KINDS = ("linear", "exp_linear", "cosine_forced", "table")
# the numeric parameters of each formula kind, with their defaults
_RHS_NUMBERS = {"linear": {"a": 0.0, "b": 0.0}, "exp_linear": {"c": 1.0},
                "cosine_forced": {"a": 0.0, "amp": 1.0, "freq": 1.0}}
H_KINDS = ("const", "exp_gap")


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


@dataclass(frozen=True)
class GreensKernel:
    alpha: float
    period: float

    def __post_init__(self):
        _require_positive(self.alpha, "kernel alpha")
        _require_positive(self.period, "kernel period")


def greens_kernel_value(kernel: GreensKernel, t: float, s: float) -> float:
    """Pointwise kernel value; the diagonal uses the left branch."""
    T = kernel.period
    if not (0.0 <= t <= T and 0.0 <= s <= T):
        raise OutOfDomain(f"(t, s) = ({t}, {s}) outside [0, {T}]^2")
    denom = math.expm1(kernel.alpha * T)
    if s <= t:
        return math.exp(kernel.alpha * (T + s - t)) / denom
    return math.exp(kernel.alpha * (s - t)) / denom


def _require_same_period(kernel: GreensKernel, grid: TimeGrid) -> None:
    if abs(grid.period - kernel.period) > 1e-12 * max(1.0, kernel.period):
        raise ParamOutOfRange("grid period does not match kernel period")


def kernel_matrix(kernel: GreensKernel, grid: TimeGrid) -> np.ndarray:
    """Dense trapezoid oracle, not on any solver path: the matrix W with
    (F u)_i ~ sum_j W[i, j] g_j.

    Row i integrates with trapezoid over [0, t_i] using the left branch and
    over [t_i, T] using the right branch, so the diagonal node carries half of
    each branch value.  Its row mass is 1/alpha only up to O((alpha h)^2), it
    overflows to NaN once e^{alpha T} does, and it takes O(n^2) memory.
    """
    _require_same_period(kernel, grid)
    t = grid.nodes
    h = grid.spacing
    n = grid.n
    denom = np.expm1(kernel.alpha * grid.period)
    S, Tt = t[None, :], t[:, None]
    # (period - t) + s, not period + (s - t): makes the t = T row of the left
    # branch bitwise equal to the t = 0 row of the right branch, so operator
    # outputs are periodic to the last bit
    left = np.exp(kernel.alpha * ((grid.period - Tt) + S)) / denom
    right = np.exp(kernel.alpha * (S - Tt)) / denom
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
    """The product-integration weights of one (kernel, grid) pair, built once
    per solve by `product_weights` and read by every `integral_operator` call.

    c_j = w0 g_j + w1 g_{j+1} is the exactly weighted integral of segment j,
    [t_j, t_{j+1}], against e^{-alpha (t_{j+1} - s)}.  Then
        L_i = sum_{j < i} e^{-alpha (t_i - t_{j+1})} c_j
    runs blockwise: from the carried L_b, L_{b+1+k} = down_k (decay L_b +
    sum_{j <= k} up_j c_{b+j}), a scaled cumulative sum.  And
        R_i = head_i sum_{j >= i} tail_j c_j
    with head_i = e^{-alpha t_i} and tail_j = e^{-alpha (T - t_{j+1})} <= 1.
    (F u)_i = scale (L_i + R_i), scale = 1 / (1 - e^{-alpha T}).
    """

    kernel: GreensKernel
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


def product_weights(kernel: GreensKernel, grid: TimeGrid) -> ProductWeights:
    """Build the O(n) weights of the product-integration operator."""
    _require_same_period(kernel, grid)
    alpha, h, n = kernel.alpha, grid.spacing, grid.n
    t = grid.nodes
    w0, w1 = segment_weights(alpha, h)
    block = int(min(n - 1, 1 + _BLOCK_EXPONENT // (alpha * h)))
    k = np.arange(block) * (alpha * h)
    return ProductWeights(
        kernel=kernel, grid=grid, nodes=t, w0=w0, w1=w1, decay=math.exp(-alpha * h),
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
        # the parameters are parsed here once; __call__ reads _numbers or _table
        if self.kind not in RHS_KINDS:
            raise InstanceFormatError(f"unknown rhs kind {self.kind!r}")
        p = self.params
        if self.kind != "table":
            numbers = {key: _number(p.get(key, default), f"{self.kind} rhs {key}")
                       for key, default in _RHS_NUMBERS[self.kind].items()}
            object.__setattr__(self, "_numbers", numbers)
            return
        if not all(k in p for k in ("t_nodes", "s_nodes", "values")):
            raise InstanceFormatError("table rhs needs t_nodes, s_nodes, values")
        try:
            tn, sn, vals = (np.array(p[k], dtype=float)
                            for k in ("t_nodes", "s_nodes", "values"))
        except (TypeError, ValueError):
            raise InstanceFormatError("table rhs nodes and values must be numbers") from None
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
        params = {k: v for k, v in data.items() if k not in ("kind", "schema")}
        params.update(_params(data, "rhs"))
        params.pop("params", None)
        return cls(kind=str(data["kind"]), params=params)

    def __call__(self, t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        if self.kind == "table":
            out = self._bilinear(t, s)
        elif self.kind == "linear":
            out = self._numbers["a"] * s + self._numbers["b"]
        elif self.kind == "exp_linear":
            out = self._numbers["c"] * np.exp(t) * s
        else:
            n = self._numbers
            out = n["a"] * s + n["amp"] * np.cos(2.0 * np.pi * n["freq"] * t)
        return out if out.shape else float(out)

    def _bilinear(self, t, s):
        tn, sn, vals = self._table
        it, wt = _segment(tn, t)
        js, ws = _segment(sn, s)
        v00 = vals[it, js]
        v01 = vals[it, js + 1]
        v10 = vals[it + 1, js]
        v11 = vals[it + 1, js + 1]
        return (v00 * (1 - wt) * (1 - ws) + v01 * (1 - wt) * ws
                + v10 * wt * (1 - ws) + v11 * wt * ws)


def _segment(nodes: np.ndarray, x):
    """Clip x to [nodes[0], nodes[-1]]; the index of the segment holding it
    and its weight within the segment (0 on a segment of zero length)."""
    x = np.clip(x, nodes[0], nodes[-1])
    i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    w = np.divide(x - nodes[i], nodes[i + 1] - nodes[i], out=np.zeros(np.shape(x)),
                  where=nodes[i + 1] > nodes[i])
    return i, w


def make_h(spec, alpha: float | None = None):
    """Comparison weight h(t) from a config dict or a plain number.

    kinds: const (a finite positive value) and exp_gap (alpha - e^t, with a
    finite alpha taken from the dict itself or from the surrounding solver
    context).
    """
    if isinstance(spec, (int, float)):
        v = float(spec)
        _require_positive(v, "h")
        return lambda t: np.full_like(np.asarray(t, dtype=float), v)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InstanceFormatError("h spec must be a number or an object with a 'kind'")
    kind = spec["kind"]
    params = dict(spec.get("params", {}))
    params.update({k: v for k, v in spec.items() if k not in ("kind", "params", "schema")})
    if kind == "const":
        v = _number(params.get("value", params.get("c")), "const h value")
        _require_positive(v, "const h value")
        return lambda t: np.full_like(np.asarray(t, dtype=float), v)
    if kind == "exp_gap":
        a = params.get("alpha", alpha)
        if a is None:
            raise InstanceFormatError("exp_gap h needs an alpha")
        a = _number(a, "exp_gap h alpha")
        if not math.isfinite(a):
            raise ParamOutOfRange(f"exp_gap h alpha must be finite, got {a}")
        return lambda t: a - np.exp(np.asarray(t, dtype=float))
    raise InstanceFormatError(f"unknown h kind {kind!r}")


# ----- operator and checks ----------------------------------------------


def integral_operator(kernel: GreensKernel, f: RhsFunction, u: GridFunction,
                      W: ProductWeights) -> GridFunction:
    """(F u)(t_i) on the grid of u, with W = product_weights(kernel, u.grid).

    Output node n - 1 is written as node 0: (F u)(T) = (F u)(0) holds
    exactly for this kernel.
    """
    if W.kernel != kernel or W.grid != u.grid:
        raise ParamOutOfRange("weights were built for another kernel or grid")
    t = W.nodes
    try:
        fv = np.asarray(f(t, u.values), dtype=float)
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise EvaluationFailure(f"right-hand side failed on the grid: {exc}") from exc
    # a non-finite f value or an overflow reaches the output, which is checked
    # once at the end
    g = fv + kernel.alpha * u.values
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
    """One-sided coupling bound between the shifted right-hand sides:
    |f1(t, s2) + alpha s2 - (f2(t, s1) + alpha s1)| <= h(t) (s2 - s1)
    for sampled t and ordered pairs s1 <= s2.  Also requires sup h < alpha."""
    hfun = make_h(h, alpha)
    ts = np.asarray(t_samples, dtype=float)
    hv = np.asarray(hfun(ts), dtype=float)
    sup_h = float(np.max(hv))
    if not sup_h < alpha:
        return CheckResult(False, ("sup h", sup_h, alpha))
    for s1, s2 in s_pairs:
        if s1 > s2:
            raise ParamOutOfRange(f"s_pairs must be ordered, got ({s1}, {s2})")
        lhs = np.abs(np.asarray(f1(ts, np.full_like(ts, float(s2))), dtype=float)
                     + alpha * s2
                     - np.asarray(f2(ts, np.full_like(ts, float(s1))), dtype=float)
                     - alpha * s1)
        rhs = hv * (s2 - s1)
        bad = np.nonzero(lhs > rhs + tol)[0]
        if bad.size:
            i = int(bad[0])
            return CheckResult(False, (float(ts[i]), float(s1), float(s2),
                                       float(lhs[i]), float(rhs[i])))
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


def _ode_residuals(f: RhsFunction, u: GridFunction) -> tuple[float, float]:
    t = u.grid.nodes
    h = u.grid.spacing
    fu = np.asarray(f(t, u.values), dtype=float)
    d_one_sided = _derivative(u.values, h)
    res_one = float(np.max(np.abs(d_one_sided - fu)))
    # periodic wrap: u(0) = u(T) identifies the endpoints, so the neighbours of
    # node 0 are node n-2 (behind) and node 1 (ahead)
    d_per = d_one_sided.copy()
    d_per[0] = (u.values[1] - u.values[-2]) / (2 * h)
    d_per[-1] = d_per[0]
    res_per = float(np.max(np.abs(d_per - fu)))
    return res_one, res_per


def _beta_of(h, alpha: float, grid: TimeGrid) -> float:
    hfun = make_h(h, alpha)
    return float(np.max(np.asarray(hfun(grid.nodes), dtype=float))) / alpha


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
    the orbit is x0 = F2 w0, then F1, F2 alternating.  The one-sided coupling
    condition is sampled on the grid and a state lattice before iterating, and
    each step is checked for the pointwise monotone ordering.
    """
    return _picard((f1, f2), alpha, h, w0, tol, max_iter, check_lower)


def _picard(fs, alpha, h, w0, tol, max_iter, check_lower):
    """The Picard driver of both solvers: step k applies the kernel to
    fs[k % len(fs)] + alpha * id, starting from w0 with k = 0.

    A pair (f1, f2) must also pass condition (iv), keep the monotone ordering
    at every step, and stop only where both operators fix the iterate.
    """
    require_tol(tol)
    pair = len(fs) > 1
    grid = w0.grid
    kernel = GreensKernel(alpha=alpha, period=grid.period)
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

    W = product_weights(kernel, grid)

    u = integral_operator(kernel, fs[0], w0, W)
    monotone = [bool((u.values >= w0.values - 1e-12).all())]
    if pair and not monotone[0]:
        raise MonotonicityBroken("first step fell below the lower solution")
    prev_inc = None
    ratios: list[float] = []
    floor = 100 * np.finfo(float).eps * max(1.0, u.sup_norm())
    for k in range(max_iter):
        nxt = integral_operator(kernel, fs[(k + 1) % len(fs)], u, W)
        inc = float(np.abs(nxt.values - u.values).max())
        monotone.append(bool((nxt.values >= u.values - 1e-12).all()))
        if pair and not monotone[-1]:
            raise MonotonicityBroken(f"step {k} lost the pointwise ordering")
        if prev_inc is not None and prev_inc > floor:
            ratios.append(inc / prev_inc)
        prev_inc = inc
        u = nxt
        if inc <= tol and (not pair or _fixed_by_all(kernel, fs, u, W, tol)):
            res_one, res_per = _ode_residuals(fs[0], u)
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


def _fixed_by_all(kernel, fs, u, W, tol) -> bool:
    """Every operator of fs moves u by at most max(10 tol, 1e-9)."""
    moves = [float(np.max(np.abs(integral_operator(kernel, f, u, W).values - u.values)))
             for f in reversed(fs)]
    return max(moves) <= max(10 * tol, 1e-9)
