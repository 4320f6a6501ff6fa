"""Periodic boundary value solver: kernel, quadrature, and monotone iteration."""
from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from proxigraph import (
    GridFunction,
    RhsFunction,
    TimeGrid,
    build,
    is_lower_solution,
    kernel_matrix,
    solve_common_pbvp,
    solve_pbvp,
    verify_condition_iv,
)
from proxigraph.corpus import E_SQUARED
from proxigraph.metric_graph import CheckResult
from proxigraph.pbvp import integral_operator, make_h, product_weights, segment_weights
from proxigraph.errors import (
    BetaNotContractive,
    ConditionIvViolated,
    EvaluationFailure,
    InstanceFormatError,
    MonotonicityBroken,
    NoConvergence,
    NotLowerSolution,
    OutOfDomain,
    ParamOutOfRange,
)

E = math.e


def greens_kernel_value(alpha: float, T: float, t: float, s: float) -> float:
    """The kernel of alpha and period T at one (t, s) by its closed form; the
    diagonal uses the left branch."""
    if not (0.0 <= t <= T and 0.0 <= s <= T):
        raise OutOfDomain(f"(t, s) = ({t}, {s}) outside [0, {T}]^2")
    denom = math.expm1(alpha * T)
    if s <= t:
        return math.exp(alpha * (T + s - t)) / denom
    return math.exp(alpha * (s - t)) / denom


def test_kernel_spot_values():
    assert greens_kernel_value(1.0, 1.0, 0.5, 0.25) == pytest.approx(
        E ** 0.75 / (E - 1.0), rel=1e-15)
    assert greens_kernel_value(1.0, 1.0, 0.25, 0.5) == pytest.approx(
        E ** 0.25 / (E - 1.0), rel=1e-15)
    # the diagonal belongs to the s <= t branch
    assert greens_kernel_value(1.0, 1.0, 0.3, 0.3) == pytest.approx(
        E / (E - 1.0), rel=1e-15)


def test_kernel_domain_and_construction():
    with pytest.raises(OutOfDomain):
        greens_kernel_value(1.0, 1.0, 1.5, 0.5)
    with pytest.raises(OutOfDomain):
        greens_kernel_value(1.0, 1.0, 0.5, -0.1)
    grid = TimeGrid(1.0, 11)
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ParamOutOfRange, match="alpha"):
            product_weights(alpha, grid)
        with pytest.raises(ParamOutOfRange, match="alpha"):
            kernel_matrix(alpha, grid)
    with pytest.raises(ParamOutOfRange):
        TimeGrid(-2.0, 11)
    with pytest.raises(ParamOutOfRange):
        TimeGrid(1.0, 2)
    with pytest.raises(ParamOutOfRange):
        TimeGrid(0.0, 11)


@pytest.mark.parametrize("alpha", [0.5, 2.0, E_SQUARED])
def test_kernel_rows_integrate_to_reciprocal_alpha(alpha):
    # exact identity: the kernel integrates to 1/alpha in s for every t
    grid = TimeGrid(1.0, 201)
    W = kernel_matrix(alpha, grid)
    err = float(np.max(np.abs(W.sum(axis=1) - 1.0 / alpha)))
    assert err <= 1e-4


def test_kernel_mass_error_shrinks_under_refinement():
    errs = []
    for n in (201, 401):
        grid = TimeGrid(1.0, n)
        W = kernel_matrix(E_SQUARED, grid)
        errs.append(float(np.max(np.abs(W.sum(axis=1) - 1.0 / E_SQUARED))))
    assert errs[0] / errs[1] >= 3.5


def test_constant_fixed_point():
    # f + alpha s == alpha c identically, so the operator is constant and the
    # iteration lands in two applications
    grid = TimeGrid(1.0, 201)
    f = RhsFunction("linear", {"a": -2.0, "b": 1.5})
    w0 = GridFunction.constant(grid, 0.75)
    assert is_lower_solution(f, w0)
    u, rep = solve_pbvp(f, 2.0, 1.0, w0)
    assert rep.iterations == 2
    assert rep.final_increment == 0.0
    assert float(np.max(np.abs(u.values - 0.75))) <= 1e-3


def exact_cosine(t: np.ndarray) -> np.ndarray:
    w = 2.0 * np.pi
    return (np.cos(w * t) + w * np.sin(w * t)) / (1.0 + w * w)


def test_cosine_forced_solution_with_order():
    f = RhsFunction("cosine_forced", {"a": -1.0, "amp": 1.0, "freq": 1.0})
    errs = []
    for n in (201, 401):
        grid = TimeGrid(1.0, n)
        u, rep = solve_pbvp(f, 2.0, 1.0, GridFunction.constant(grid, -1.0))
        errs.append(float(np.max(np.abs(u.values - exact_cosine(grid.nodes)))))
        assert rep.beta == 0.5
        assert all(rep.monotone_steps)
    assert errs[0] <= 1e-4
    assert errs[1] <= 1e-5
    assert errs[0] / errs[1] >= 3.5


def test_exponential_pair_small_grid():
    inst = build("ex53_pbvp", n_nodes=51)
    u, rep = solve_pbvp(inst.f, inst.alpha, inst.h_spec, inst.w0,
                        tol=inst.tol)
    assert rep.beta == pytest.approx((E_SQUARED - 1.0) / E_SQUARED, abs=1e-15)
    assert u.sup_norm() <= 1e-4  # coarse grid, loose cap
    assert u.periodicity_residual() <= 1e-9
    assert rep.max_ratio <= rep.beta + 1e-6
    assert all(rep.monotone_steps)


@pytest.mark.parametrize("kind, params", [
    ("linear", {"a": -1.5, "b": 0.25}), ("exp_linear", {"c": -1.0}),
    ("cosine_forced", {"a": -1.0, "amp": 0.5, "freq": 3}),
    ("table", {"t_nodes": [0.0, 0.3, 1.0], "s_nodes": [-1.0, 0.0, 1.0],
               "values": [[0.0, 1.0, 2.0], [3.0, -1.0, 0.5], [2.0, 2.0, -4.0]]}),
])
def test_a_bound_rhs_keeps_the_terms_of_the_t_it_was_bound_to(kind, params):
    # on(t) reads t once: every later call of the bound function gives f(t, s)
    # to the bit, whatever is written to t afterwards
    f = RhsFunction(kind, params)
    t = np.linspace(0.0, 1.0, 11)
    s = np.linspace(-1.0, 1.0, 11)
    want = f(t, s)
    bound = f.on(t)
    t *= 2.0
    assert bound(s).tobytes() == want.tobytes()
    # states that broadcast against t, as the condition (iv) blocks pass them
    assert bound(np.stack([s, s[::-1]])).tobytes() == np.stack(
        [want, f(t / 2.0, s[::-1])]).tobytes()


def test_condition_iv():
    f = RhsFunction("exp_linear", {"c": -1.0})
    alpha = E_SQUARED
    ts = np.linspace(0.0, 1.0, 41)
    pairs = [(-2.0, -1.0), (-1.0, 0.5), (0.0, 3.0)]
    ok = verify_condition_iv(f, f, alpha, {"kind": "exp_gap"}, ts, pairs)
    assert ok
    # a weight too small to dominate the coupling
    bad = verify_condition_iv(f, f, alpha, 0.5, ts, pairs)
    assert not bad
    assert len(bad.witness) == 5
    # sup h >= alpha violates the strict gap condition
    cap = verify_condition_iv(f, f, alpha, 8.0, ts, pairs)
    assert not cap
    assert cap.witness == ("sup h", 8.0, alpha)
    with pytest.raises(ParamOutOfRange, match="ordered"):
        verify_condition_iv(f, f, alpha, 1.0, ts, [(1.0, 0.0)])


def condition_iv_by_pairs(f1, f2, alpha, h, t_samples, s_pairs, tol=1e-12):
    """verify_condition_iv as first written: one pair at a time, over the grid."""
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


def picard_pairs(w0):
    """The state pairs the coupled solver samples condition (iv) on."""
    svals = np.linspace(float(np.min(w0)) - 1.0, float(np.max(w0)) + 1.0, 9)
    return [(float(a), float(b)) for a in svals for b in svals if a <= b]


def hexed(witness):
    return None if witness is None else tuple(
        v.hex() if isinstance(v, float) else v for v in witness)


TABLE_RHS = RhsFunction("table", {"t_nodes": [0.0, 0.4, 1.0], "s_nodes": [-2.0, 0.0, 1.5],
                                  "values": [[1.0, -0.5, 2.0], [0.0, 0.3, -1.0],
                                             [2.5, 1.0, 0.0]]})


@pytest.mark.parametrize("n", [11, 201, 1001])
def test_condition_iv_in_blocks_is_the_pair_loop(n):
    ex53 = build("ex53_pbvp", n_nodes=n)
    ts, pairs53 = ex53.grid.nodes, picard_pairs(ex53.w0.values)
    neg = RhsFunction("linear", {"a": -1.0})
    cases = [
        # ex53 as its common solve checks it, and with weights too small to pass
        (ex53.f, ex53.f, ex53.alpha, ex53.h_spec, pairs53),
        (ex53.f, ex53.f, ex53.alpha, 0.5, pairs53),
        (ex53.f, ex53.f, ex53.alpha, 7.0, pairs53[15:]),
        # f1 = -s, f2 = -1.5 s: the first pair (-3, -3) already fails at t = 0
        (neg, RhsFunction("linear", {"a": -1.5}), 4.0, 3.0,
         picard_pairs(np.full(n, -2.0))),
        (RhsFunction("cosine_forced", {"a": -1.0, "amp": 0.7, "freq": 2.0}), neg, 3.0,
         {"kind": "const", "value": 1.2}, picard_pairs(np.full(n, 0.5))),
        (TABLE_RHS, ex53.f, 6.0, 2.0, picard_pairs(np.linspace(-1.0, 1.0, n))),
        (TABLE_RHS, TABLE_RHS, 6.0, 5.9, [(-3.0, -3.0), (-2.5, 0.0), (0, 1), (1.0, 2.5)]),
        (neg, neg, 2.0, 1.0, []),
    ]
    verdicts = []
    for f1, f2, alpha, h, pairs in cases:
        got = verify_condition_iv(f1, f2, alpha, h, ts, pairs)
        want = condition_iv_by_pairs(f1, f2, alpha, h, ts, pairs)
        assert (got.ok, hexed(got.witness)) == (want.ok, hexed(want.witness))
        verdicts.append(got.ok)
    assert verdicts[0] and verdicts[-1] and verdicts.count(False) >= 4
    item3 = verify_condition_iv(neg, RhsFunction("linear", {"a": -1.5}), 4.0, 3.0, ts,
                                picard_pairs(np.full(n, -2.0)))
    assert item3.witness[:3] == (0.0, -3.0, -3.0)


def outcome(check, *args):
    """A condition (iv) check's verdict and float.hex witness, or its error."""
    try:
        got = check(*args)
    except ParamOutOfRange as exc:
        return str(exc)
    return got.ok, hexed(got.witness)


@pytest.mark.parametrize("n", [21, 1001])
def test_condition_iv_stops_at_the_first_violation_before_an_unordered_pair(n):
    neg = RhsFunction("linear", {"a": -1.0})
    ts = np.linspace(0.0, 1.0, n)
    # equal ends pass for f1 = f2; (0, 1) fails the bound; at n = 1001 a
    # block holds 8 pairs, so the later cases meet both past the first block
    same = [(float(s), float(s)) for s in np.linspace(-1.0, 1.0, 20)]
    cases = [[(0.0, 1.0), (1.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)], [(0.0, 0.0), (2, 1)],
             same + [(0.0, 1.0)], same + [(1.0, 0.0), (0.0, 1.0)],
             same[:3] + [(1.0, 0.0), (0.0, 1.0)], same + [(0.5, 0.75), (3, 2), (0.0, 1.0)]]
    raised = []
    for pairs in cases:
        want = outcome(condition_iv_by_pairs, neg, neg, 4.0, 0.1, ts, pairs)
        assert outcome(verify_condition_iv, neg, neg, 4.0, 0.1, ts, pairs) == want
        raised.append(isinstance(want, str))
    assert raised == [False, True, True, False, True, True, False]


def test_lower_solution_checks():
    f = RhsFunction("exp_linear", {"c": -1.0})
    grid = TimeGrid(1.0, 101)
    assert is_lower_solution(f, GridFunction.constant(grid, -1.0))
    up = is_lower_solution(f, GridFunction.constant(grid, 1.0))
    assert not up
    t, dw, fw = up.witness
    assert dw == 0.0 and fw == pytest.approx(-math.exp(t))

    ramp = GridFunction(grid, -grid.nodes)
    down = is_lower_solution(RhsFunction("linear", {"a": 0.0, "b": 10.0}),
                             ramp)
    assert not down
    assert down.witness[0] == "endpoint order"

    with pytest.raises(NotLowerSolution):
        solve_pbvp(f, E_SQUARED, {"kind": "exp_gap"},
                   GridFunction.constant(grid, 1.0))


def test_rhs_table_and_validation():
    tab = RhsFunction("table", {"t_nodes": [0.0, 1.0], "s_nodes": [0.0, 1.0],
                                "values": [[0.0, 1.0], [2.0, 3.0]]})
    assert tab(0.5, 0.5) == pytest.approx(1.5)
    assert tab(0.0, 2.0) == 1.0  # clamped to the node box
    with pytest.raises(InstanceFormatError, match="sorted"):
        RhsFunction("table", {"t_nodes": [1.0, 0.0], "s_nodes": [0.0, 1.0],
                              "values": [[0.0, 1.0], [2.0, 3.0]]})
    with pytest.raises(InstanceFormatError, match="shape"):
        RhsFunction("table", {"t_nodes": [0.0, 1.0], "s_nodes": [0.0, 1.0],
                              "values": [[0.0, 1.0]]})
    with pytest.raises(InstanceFormatError, match="kind"):
        RhsFunction("cubic", {})


def old_rhs_formula(kind, params, t, s):
    """RhsFunction.__call__ as it was when it re-read params on every call."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if kind == "linear":
        out = float(params.get("a", 0.0)) * s + float(params.get("b", 0.0))
    elif kind == "exp_linear":
        out = float(params.get("c", 1.0)) * np.exp(t) * s
    elif kind == "cosine_forced":
        a = float(params.get("a", 0.0))
        amp = float(params.get("amp", 1.0))
        freq = float(params.get("freq", 1.0))
        out = a * s + amp * np.cos(2.0 * np.pi * freq * t)
    else:
        tn = np.asarray(params["t_nodes"], dtype=float)
        sn = np.asarray(params["s_nodes"], dtype=float)
        vals = np.asarray(params["values"], dtype=float)
        t = np.clip(t, tn[0], tn[-1])
        s = np.clip(s, sn[0], sn[-1])
        it = np.clip(np.searchsorted(tn, t, side="right") - 1, 0, len(tn) - 2)
        js = np.clip(np.searchsorted(sn, s, side="right") - 1, 0, len(sn) - 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            wt = np.where(tn[it + 1] > tn[it], (t - tn[it]) / (tn[it + 1] - tn[it]), 0.0)
            ws = np.where(sn[js + 1] > sn[js], (s - sn[js]) / (sn[js + 1] - sn[js]), 0.0)
        out = (vals[it, js] * (1 - wt) * (1 - ws) + vals[it, js + 1] * (1 - wt) * ws
               + vals[it + 1, js] * wt * (1 - ws) + vals[it + 1, js + 1] * wt * ws)
    return out if out.shape else float(out)


def random_table(rng, strict=True):
    def nodes(n):
        x = np.sort(rng.uniform(-2.0, 3.0, n))
        if not strict:
            x[1] = x[2] = x[3]  # a repeated node: segments of zero length
        return x
    tn, sn = nodes(int(rng.integers(4, 9))), nodes(int(rng.integers(4, 9)))
    return {"t_nodes": tn.tolist(), "s_nodes": sn.tolist(),
            "values": rng.normal(size=(tn.size, sn.size)).tolist()}


@pytest.mark.parametrize("seed", range(8))
def test_rhs_table_matches_scipy_and_the_old_formula(seed):
    from scipy.interpolate import RegularGridInterpolator
    rng = np.random.default_rng(seed)
    params = random_table(rng)
    f = RhsFunction("table", params)
    t, s = rng.uniform(-4.0, 5.0, 200), rng.uniform(-4.0, 5.0, 200)
    tn, sn = params["t_nodes"], params["s_nodes"]
    oracle = RegularGridInterpolator((tn, sn), np.array(params["values"]))
    ref = oracle(np.column_stack([np.clip(t, tn[0], tn[-1]), np.clip(s, sn[0], sn[-1])]))
    assert np.allclose(f(t, s), ref, rtol=1e-12, atol=1e-12)
    for p in (params, random_table(rng, strict=False)):
        g = RhsFunction("table", p)
        assert np.array_equal(g(t, s), old_rhs_formula("table", p, t, s))
        assert g(float(t[0]), float(s[0])) == old_rhs_formula("table", p, t[0], s[0])
        assert g(tn[1], sn[-1]) == old_rhs_formula("table", p, tn[1], sn[-1])


@pytest.mark.parametrize("kind, params", [
    ("linear", {"a": -1.5, "b": 0.25}), ("linear", {}),
    ("exp_linear", {"c": -1.0}), ("exp_linear", {}),
    ("cosine_forced", {"a": -1.0, "amp": 0.5, "freq": 3}), ("cosine_forced", {}),
])
def test_rhs_formulas_match_the_old_formula_bit_for_bit(kind, params):
    t = np.linspace(0.0, 1.0, 101)
    s = np.linspace(-2.0, 2.0, 101)
    f = RhsFunction(kind, params)
    assert np.array_equal(f(t, s), old_rhs_formula(kind, params, t, s))
    assert f(0.3, -0.7) == old_rhs_formula(kind, params, 0.3, -0.7)


def test_rhs_table_keeps_its_own_copy():
    values = np.array([[0.0, 1.0], [2.0, 3.0]])
    f = RhsFunction("table", {"t_nodes": [0.0, 1.0], "s_nodes": [0.0, 1.0],
                              "values": values})
    values[:] = 7.0
    assert f(0.5, 0.5) == 1.5


def test_non_finite_rhs_surfaces_as_evaluation_failure():
    nan_tab = RhsFunction("table", {
        "t_nodes": [0.0, 1.0], "s_nodes": [-2.0, 2.0],
        "values": [[float("nan"), float("nan")], [0.0, 0.0]]})
    grid = TimeGrid(1.0, 11)
    with pytest.raises(EvaluationFailure):
        solve_pbvp(nan_tab, 2.0, 1.0, GridFunction.constant(grid, 0.0),
                   check_lower=False)


def test_common_solver_agrees_with_single_solver():
    f = RhsFunction("cosine_forced", {"a": -1.0, "amp": 1.0, "freq": 1.0})
    grid = TimeGrid(1.0, 101)
    w0 = GridFunction.constant(grid, -1.0)
    u1, _ = solve_pbvp(f, 2.0, 1.0, w0)
    u2, rep = solve_common_pbvp(f, f, 2.0, 1.0, w0)
    assert float(np.max(np.abs(u1.values - u2.values))) <= 1e-9
    assert all(rep.monotone_steps)


def test_common_solver_rejects_uncoupled_pair():
    f1 = RhsFunction("cosine_forced", {"a": -1.0, "amp": 1.0, "freq": 1.0})
    f2 = RhsFunction("cosine_forced", {"a": -1.0, "amp": 11.0, "freq": 1.0})
    grid = TimeGrid(1.0, 51)
    w0 = GridFunction.constant(grid, -11.0)
    with pytest.raises(ConditionIvViolated):
        solve_common_pbvp(f1, f2, 2.0, 1.0, w0, check_lower=False)


def test_condition_iv_allows_rounding_at_large_states():
    # |a + alpha| = 0.7 = h exactly: the bound holds with equality, and at
    # states near -1e5 the left side rounds one part in 1e11 above the right
    f = RhsFunction("linear", {"a": -1.3, "b": 1.0})
    w0 = GridFunction.constant(TimeGrid(1.0, 21), -100000.37)
    u, _ = solve_common_pbvp(f, f, 2.0, 0.7, w0)
    assert u.values.tobytes() == solve_pbvp(f, 2.0, 0.7, w0)[0].values.tobytes()
    # a slope 1e-6 steeper than h allows is still refused, at the first
    # lattice pair apart: s1 = min w0 - 1 and the next state up
    g = RhsFunction("linear", {"a": -1.3 + 0.7e-6, "b": 1.0})
    with pytest.raises(ConditionIvViolated) as exc:
        solve_common_pbvp(g, g, 2.0, 0.7, w0)
    t, s1, s2, lhs, rhs = exc.value.witness
    assert (t, s1, s2) == (0.0, -100001.37, -100001.37 + 0.25)
    assert lhs / rhs == pytest.approx(1 + 1e-6, rel=1e-9)


def test_beta_gate():
    f = RhsFunction("linear", {"a": -2.0, "b": 0.0})
    grid = TimeGrid(1.0, 11)
    with pytest.raises(BetaNotContractive):
        solve_pbvp(f, 2.0, 3.0, GridFunction.constant(grid, 0.0))


def count_operator_calls(monkeypatch):
    """The rhs of every integral_operator call, in order: each bound function
    the operator is given is traced back to the RhsFunction bound into it."""
    from proxigraph import pbvp

    calls, bound_from = [], {}
    real_operator, real_on = pbvp.integral_operator, RhsFunction.on

    def on(self, t):
        bound = real_on(self, t)
        bound_from[bound] = self
        return bound

    def counted(*args, **kwargs):
        calls.append(bound_from[args[0]])
        return real_operator(*args, **kwargs)

    monkeypatch.setattr(RhsFunction, "on", on)
    monkeypatch.setattr(pbvp, "integral_operator", counted)
    return calls


def test_operator_calls_per_solve(monkeypatch):
    inst = build("ex53_pbvp")
    calls = count_operator_calls(monkeypatch)
    _, rep = solve_pbvp(inst.f, inst.alpha, inst.h_spec, inst.w0, tol=inst.tol)
    # one step off the lower solution, then one per iteration: no cross-check
    assert len(calls) == rep.iterations
    calls.clear()
    f2 = RhsFunction("exp_linear", {"c": -1.0})
    _, rep2 = solve_common_pbvp(inst.f, f2, inst.alpha, inst.h_spec, inst.w0, tol=inst.tol)
    assert rep2.iterations == rep.iterations
    # f1 first, then f2, f1, ... in turn, then the cross-check with f2 and
    # f1; f1 == f2 (same kind and parameters), so the order is read by identity
    n = rep2.iterations
    order = [inst.f if k % 2 == 0 else f2 for k in range(n)] + [f2, inst.f]
    assert len(calls) == len(order)
    assert all(c is want for c, want in zip(calls, order))


def test_single_solver_records_order_and_pair_enforces_it():
    # from w0 = 1, which is not a lower solution of u' = -u, the first step
    # falls below w0
    f = RhsFunction("linear", {"a": -1.0, "b": 0.0})
    w0 = GridFunction.constant(TimeGrid(1.0, 21), 1.0)
    u, rep = solve_pbvp(f, 2.0, 1.0, w0, check_lower=False)
    assert rep.monotone_steps[0] is False
    assert u.sup_norm() <= 1e-9
    with pytest.raises(MonotonicityBroken, match="first step"):
        solve_common_pbvp(f, f, 2.0, 1.0, w0, check_lower=False)


def test_no_convergence_names_the_iteration():
    f = RhsFunction("cosine_forced", {"a": -1.0, "amp": 1.0, "freq": 1.0})
    w0 = GridFunction.constant(TimeGrid(1.0, 21), -1.0)
    with pytest.raises(NoConvergence, match="^Picard iteration did not reach"):
        solve_pbvp(f, 2.0, 1.0, w0, max_iter=2)
    with pytest.raises(NoConvergence, match="^alternating iteration did not reach"):
        solve_common_pbvp(f, f, 2.0, 1.0, w0, max_iter=2)


@pytest.mark.parametrize("doc, match", [
    ({"kind": "exp_linear", "c": "x"}, "number"),
    ({"kind": "cosine_forced", "params": {"amp": None}}, "number"),
    ({"kind": "linear", "params": [1.0]}, "params"),
    ({"kind": "table", "t_nodes": [0, 1], "s_nodes": [0, "x"],
      "values": [[0, 1], [1, 1]]}, "numbers"),
])
def test_rhs_rejects_malformed_parameters(doc, match):
    with pytest.raises(InstanceFormatError, match=match):
        RhsFunction.from_dict(doc)


# ----- product-integration operator --------------------------------------


def apply_operator(alpha, n, f, values):
    grid = TimeGrid(1.0, n)
    u = GridFunction(grid, np.broadcast_to(values, (n,)))
    W = product_weights(alpha, grid)
    return integral_operator(f.on(W.nodes), u, W).values


def test_operator_agrees_with_the_dense_trapezoid_oracle():
    # both rules are second order, so they differ by O(h^2)
    grid = TimeGrid(1.0, 2001)
    f = RhsFunction("cosine_forced", {"a": -1.0, "amp": 1.0, "freq": 1.0})
    values = np.sin(2.0 * np.pi * grid.nodes) + grid.nodes ** 2
    g = f(grid.nodes, values) + 2.0 * values
    dense = kernel_matrix(2.0, grid) @ g
    ours = apply_operator(2.0, 2001, f, values)
    assert float(np.max(np.abs(ours - dense))) <= 1e-6


@pytest.mark.parametrize("alpha", [2.0, 50.0, 1000.0])
@pytest.mark.parametrize("n", [101, 2001])
def test_operator_mass_is_exactly_reciprocal_alpha(alpha, n):
    # g = 0 + alpha / alpha = 1, so F u = int G = 1 / alpha at every node; the
    # dense trapezoid's alpha x mass is 1.0207 at alpha = 50, N = 101 and NaN
    # at alpha = 1000
    out = apply_operator(alpha, n, RhsFunction("linear", {}), 1.0 / alpha)
    assert np.all(np.isfinite(out))
    assert float(np.max(np.abs(alpha * out - 1.0))) <= 1e-13
    assert out[-1] == out[0]


def test_operator_output_is_finite_at_large_alpha():
    f = RhsFunction("cosine_forced", {"a": -1.0, "amp": 1.0, "freq": 3.0})
    out = apply_operator(1000.0, 101, f, np.linspace(-1.0, 1.0, 101))
    assert np.all(np.isfinite(out))
    assert float(np.max(np.abs(out))) <= 1.0 + 2.0 / 1000.0


def test_a_step_that_underflows_to_zero_builds_one_block():
    # alpha h = 1e-322 * 5e-4 is 0 in floats: the weights span the grid in one
    # block and the solve reports the overflow of 1 / (1 - e^{-alpha T})
    W = product_weights(1e-322, TimeGrid(1.0, 2001))
    assert len(W.up) == 2000
    f = RhsFunction("linear", {"a": -1.0})
    with pytest.raises(EvaluationFailure, match="not finite"):
        solve_pbvp(f, 1e-322, 5e-324, GridFunction.constant(TimeGrid(1.0, 2001), -1.0))


def reference_weights(alpha: float, h: float) -> tuple[Decimal, Decimal]:
    """w0 = h (1 - (1 + x) e^{-x}) / x^2 and w1 = h (x - 1 + e^{-x}) / x^2 in
    80-digit decimal arithmetic, where the cancellation costs nothing."""
    with localcontext() as ctx:
        ctx.prec = 80
        hd = Decimal(h)
        x = Decimal(alpha) * hd
        e = (-x).exp()
        return hd * (1 - (1 + x) * e) / (x * x), hd * (x - 1 + e) / (x * x)


@pytest.mark.parametrize("x", [1e-12, 1e-6, 1e-3, 0.999, 1.0, 1.001, 50.0, 1e5])
def test_segment_weights_are_positive_and_accurate(x):
    h = 0.01
    alpha = x / h
    w0, w1 = segment_weights(alpha, h)
    assert w0 > 0.0 and w1 > 0.0
    for ours, ref in zip((w0, w1), reference_weights(alpha, h)):
        assert abs(Decimal(ours) / ref - 1) <= Decimal("1e-14")


def test_weights_must_match_the_kernel_and_grid():
    W = product_weights(2.0, TimeGrid(1.0, 11))
    f = RhsFunction("linear", {})
    with pytest.raises(ParamOutOfRange, match="another grid"):
        integral_operator(f.on(W.nodes), GridFunction.constant(TimeGrid(1.0, 12), 0.0), W)


def test_solve_converges_where_the_dense_kernel_stopped_contracting():
    # u' = 1 - u at alpha = 50: the dense trapezoid kernel's mass made this
    # raise NoConvergence after 10000 steps
    grid = TimeGrid(1.0, 101)
    f = RhsFunction("linear", {"a": -1.0, "b": 1.0})
    u, rep = solve_pbvp(f, 50.0, 49.0, GridFunction.constant(grid, 0.0))
    assert float(np.max(np.abs(u.values - 1.0))) <= 1e-8
    # the last increments are near 1e-10, where rounding moves a ratio by ~1e-6
    assert rep.max_ratio <= rep.beta + 1e-5
    assert rep.periodicity_residual == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_output_names_the_operator():
    grid = TimeGrid(1.0, 11)
    # f = 0 is finite, but g = 2 x 1e308 overflows
    with pytest.raises(EvaluationFailure, match="^integral operator output") as info:
        solve_pbvp(RhsFunction("linear", {}), 2.0, 1.0,
                   GridFunction.constant(grid, 1e308), check_lower=False)
    assert "right-hand side" not in str(info.value)
    nan_tab = RhsFunction("table", {"t_nodes": [0.0, 1.0], "s_nodes": [-2.0, 2.0],
                                    "values": [[0.0, 0.0], [0.0, float("nan")]]})
    with pytest.raises(EvaluationFailure, match="^right-hand side is not finite at t = 0.0"):
        solve_pbvp(nan_tab, 2.0, 1.0, GridFunction.constant(grid, 0.0), check_lower=False)


def test_solve_memory_is_linear_in_the_grid():
    # the dense kernel would need three 4001 x 4001 arrays, 384 MB
    inst = build("ex53_pbvp", n_nodes=4001)
    tracemalloc.start()
    try:
        u, _ = solve_pbvp(inst.f, inst.alpha, inst.h_spec, inst.w0, tol=inst.tol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert u.sup_norm() <= 1e-6
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("solver", [solve_pbvp, solve_common_pbvp])
def test_nan_tol_is_refused(solver):
    f = RhsFunction("linear", {"a": -1.0, "b": 1.0})
    fs = (f,) if solver is solve_pbvp else (f, f)
    with pytest.raises(ParamOutOfRange, match="NaN"):
        solver(*fs, 2.0, 1.0, GridFunction.constant(TimeGrid(1.0, 11), 0.0),
               tol=float("nan"))


def test_a_solve_loads_numpy_only():
    # numpy is the package's one runtime dependency; scipy is for tests only
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "import proxigraph as pg\n"
            "grid = pg.TimeGrid(1.0, 101)\n"
            "f = pg.RhsFunction('linear', {'a': -1.0, 'b': 1.0})\n"
            "pg.solve_pbvp(f, 2.0, 1.0, pg.GridFunction.constant(grid, 0.0))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
