"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in `setup`, which the
runner times.  A workload whose input files the benchmark writes with its own
generator writes them in `prepare`, which runs once and is not timed.  A
workload holds one round of operations in `ops`, runs one operation with
`run`, and checks the output of one operation with `check` against the
oracles in `oracles.py`.
`self_test` feeds the oracles deliberately wrong copies of a real output and
returns the names of the wrong outputs they failed to reject.

Operation sizes come from a seeded continuous range, one draw per equal
stratum, so every seed covers the whole range evenly and the median and the
90th percentile do not hinge on a few sizes.
"""
from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

import proxigraph as pg
from proxigraph import cli, corpus
from proxigraph.errors import EvaluationFailure, NoConvergence

import oracles as O


def stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n values over [lo, hi], one uniform draw in each of n equal strata,
    in stratum order."""
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


def _rejects(check, wrong: dict) -> list[str]:
    """Names of the wrong outputs that `check` accepted."""
    return [name for name, out in wrong.items() if not check(out)]


# ----- battery ------------------------------------------------------------


class Battery:
    """Random chain instances, one per operation: build, the criterion-10
    checks, solve_bpp from every eligible seed, check_cardinality."""

    name = "battery"
    round_size = 1000

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.ops = [int(s) for s in rng.integers(0, 2**31 - 1, size=self.round_size)]
        self.sample = None
        for op in self.ops[:20]:
            self.run(op)

    def run(self, op: int) -> dict:
        inst = corpus.build_random_chain(op)
        sp, tm = inst.space, inst.tmap
        eligible = pg.x_t2_a_set(sp, tm)
        return {
            "inst": inst,
            "bpps": pg.enumerate_bpps(sp, tm),
            "eligible": eligible,
            "orbits": [pg.iterate_orbit(sp, tm, x) for x in sp.side_a()],
            "equivalence": pg.check_equivalence_theorem(sp, tm, inst.phi1, inst.phi2),
            "component0": pg.component_of(sp, sp.ids[0]),
            "solves": {x: pg.solve_bpp(sp, tm, x) for x in sorted(eligible)},
            "cardinality": pg.check_cardinality(sp, tm),
        }

    @staticmethod
    def raw(inst) -> O.RawSpace:
        sp = inst.space
        return O.RawSpace(sp.ids, sp.coords, sp.side, sp.edges,
                          inst.tmap.mapping, "l1")

    def check(self, op, out) -> list[str]:
        if self.sample is None or len(out["inst"].space.ids) > len(self.sample["inst"].space.ids):
            self.sample = out
        return O.check_battery(self.raw(out["inst"]), out)

    def self_test(self) -> list[str]:
        out = self.sample
        raw = self.raw(out["inst"])
        b_point = next(p for p in raw.ids if p.startswith("b"))
        seed, res = next(iter(out["solves"].items()))
        other = next(p for p in raw.ids if p.startswith("a") and p != res.bpp)
        nb, nc, eq = out["cardinality"]
        tr = out["orbits"][-1]
        wrong = {
            "bpp set with a B point": {**out, "bpps": set(out["bpps"]) | {b_point}},
            "cardinality off by one": {**out, "cardinality": (nb, nc + 1, eq)},
            "solve_bpp lands off the chain ground": {
                **out, "solves": {**out["solves"], seed: dataclasses.replace(res, bpp=other)}},
            "orbit gap inflated": {
                **out, "orbits": out["orbits"][:-1] + [dataclasses.replace(
                    tr, gaps=(tr.gaps[0] + 0.5,) + tr.gaps[1:])]},
            "component missing a point": {
                **out, "component0": set(list(out["component0"])[1:])},
        }
        return _rejects(lambda o: O.check_battery(raw, o), wrong)


# ----- verify_table ---------------------------------------------------------


class VerifyTable:
    """In-process `proxigraph verify --all-pairs` on ex22_kappa table
    documents, N over 8..64 (36 to 260 points), reading JSON files and
    writing a JSON report file."""

    name = "verify_table"
    round_size = 50

    def prepare(self, seed: int, workdir: str) -> None:
        """Writes the round's documents with the oracle's own ex22 generator."""
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        sizes = np.rint(stratified(rng, 8, 64, self.round_size)).astype(int)
        self.ops = [int(n) for n in rng.permutation(sizes)]
        for n in sorted(set(self.ops)):
            instance, mapping, gauges = O.ex22_document(n)
            for kind, doc in (("instance", instance), ("map", mapping)):
                with open(self._path(kind, n), "w") as fh:
                    fh.write(json.dumps(doc))  # dumps uses the C encoder, dump does not
        with open(os.path.join(workdir, "gauges.json"), "w") as fh:
            fh.write(json.dumps(gauges))

    def setup(self, seed: int, workdir: str) -> None:
        self.report = os.path.join(workdir, "report.json")
        self.sweeps = {}
        self.sample = None
        self.run(min(self.ops))

    def _path(self, kind: str, n: int) -> str:
        return os.path.join(self.workdir, f"ex22_N{n}_{kind}.json")

    def run(self, op: int) -> int:
        return cli.main(["verify", "--instance", self._path("instance", op),
                         "--map", self._path("map", op),
                         "--gauges", os.path.join(self.workdir, "gauges.json"),
                         "--all-pairs", "--out", self.report])

    def _sweep(self, n: int) -> dict:
        if n not in self.sweeps:
            instance, mapping, _ = O.ex22_document(n)
            self.sweeps[n] = O.ex22_sweep(instance, mapping["map"])
        return self.sweeps[n]

    def check(self, op, code) -> list[str]:
        with open(self.report) as fh:
            report = json.load(fh)
        self.sample = (op, code, report)
        return O.check_verify_report(self._sweep(op), report, code)

    def self_test(self) -> list[str]:
        op, code, report = self.sample
        sweep = self._sweep(op)
        con = report["contraction"]
        probe = [dict(v, lhs=1.02) if (v["x"], v["y"]) == O.PROBE else v
                 for v in con["violations"]]
        shifted = [dict(v, rhs=v["rhs"] + 1e-6) for v in con["violations"]]
        wrong = {
            "one violation dropped": (code, {**report, "contraction": {
                **con, "violations": con["violations"][:-1]}}),
            "probe image distance 1.02": (code, {**report, "contraction": {
                **con, "violations": probe}}),
            "rhs shifted by 1e-6": (code, {**report, "contraction": {
                **con, "violations": shifted}}),
            "sweep reported as holding": (0, {**report, "verified": True}),
        }
        own, _, _ = O.ex22_document(8)
        built = json.loads(json.dumps(pg.build("ex22_kappa", N=8).space.to_dict()))
        failed = [] if own == built else ["oracle's ex22 document differs from the corpus"]
        return failed + _rejects(
            lambda w: O.check_verify_report(sweep, w[1], w[0]), wrong)


# ----- orbit_scale ------------------------------------------------------------


def chain_union(rng, target: int) -> dict:
    """Seeded random chains, shifted apart along y until the union holds at
    least `target` points; ids get the prefix c<k>_ of their chain."""
    points, edges, mapping = [], [], {}
    y, k, n_comp = 0.0, 0, 0
    while len(points) < target:
        inst = corpus.build_random_chain(int(rng.integers(0, 2**31 - 1)))
        sp = inst.space
        top = 0.0
        for p in sp.ids:
            cx, cy = sp.coords[p]
            points.append((f"c{k}_{p}", (cx, y + cy), sp.side[p]))
            top = max(top, cy)
        edges += [(f"c{k}_{a}", f"c{k}_{b}") for a, b in sp.edges]
        mapping.update({f"c{k}_{a}": f"c{k}_{b}" for a, b in inst.tmap.mapping.items()})
        n_comp += inst.expected["component_count"]
        y += top + 4.0
        k += 1
    return {"points": points, "edges": edges, "mapping": mapping, "n_comp": n_comp}


class OrbitScale:
    """Solves from one seed on spaces built once: unions of random chains
    under l1 (100..400 points; solve_bpp plus iterate_orbit, the body of
    `solve-bpp`) and ex41_fixed_point amplitude spaces (depth 16..20, n_time
    640..1024; solve_common_fixed_point).  Building the largest ex41 space
    sets the peak RSS, so depth and n_time strata are paired in order and
    the seed moves the peak by a few percent only.

    An operation's cost is set by its space's size, so the round spreads over
    many spaces: with 24 chain spaces of 4 seeds each, the median and the
    90th percentile fall between two neighbouring strata, and the sizes the
    seed draws move them by about 3% (16 spaces of 6 seeds: 8%)."""

    name = "orbit_scale"
    n_chain_spaces, chain_seeds = 24, 4
    n_fixed_spaces, fixed_seeds = 4, 4

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.spaces, self.raws = [], {}
        ops = []
        for target in stratified(rng, 100, 400, self.n_chain_spaces):
            doc = chain_union(rng, int(target))
            space = pg.FiniteMetricGraph.from_coords(
                doc["points"], metric="l1", edges=doc["edges"], auto_loops=True)
            tmap = pg.CyclicMapTable.for_space(space, doc["mapping"])
            k = len(self.spaces)
            self.spaces.append(("chain", space, tmap, doc))
            a_side = [p for p, _, s in doc["points"] if s == "A"]
            ops += [(k, str(x)) for x in rng.choice(a_side, self.chain_seeds, replace=False)]
        depths = stratified(rng, 16, 20, self.n_fixed_spaces)
        n_times = stratified(rng, 640, 1024, self.n_fixed_spaces)
        for depth, n_time in zip(depths, n_times):
            inst = pg.build("ex41_fixed_point", depth=int(round(depth)),
                            n_time=int(round(n_time)))
            k = len(self.spaces)
            self.spaces.append(("fixed", inst.space, inst, None))
            a_side = [p for p in inst.space.side_a() if p != "zero"]
            ops += [(k, str(x)) for x in rng.choice(a_side, self.fixed_seeds, replace=False)]
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self.sample = {}
        smallest = min(range(self.n_chain_spaces), key=lambda k: len(self.spaces[k][1].ids))
        self.run(next(op for op in self.ops if op[0] == smallest))

    def run(self, op):
        k, x0 = op
        kind, space, other, _ = self.spaces[k]
        if kind == "chain":
            return pg.solve_bpp(space, other, x0), pg.iterate_orbit(space, other, x0)
        return pg.solve_common_fixed_point(space, other.pair, other.psi, x0)

    def _raw(self, k: int) -> O.RawSpace:
        if k not in self.raws:
            kind, space, other, doc = self.spaces[k]
            if kind == "chain":
                ids = [p for p, _, _ in doc["points"]]
                coords = {p: c for p, c, _ in doc["points"]}
                sides = {p: s for p, _, s in doc["points"]}
                self.raws[k] = O.RawSpace(ids, coords, sides, doc["edges"],
                                          doc["mapping"], "l1")
            else:
                self.raws[k] = O.RawSpace(space.ids, space.coords, space.side,
                                          space.edges, {}, "sup")
        return self.raws[k]

    def _check(self, op, out) -> list[str]:
        k, x0 = op
        kind, _, other, doc = self.spaces[k]
        raw = self._raw(k)
        if kind == "chain":
            err = O.check_orbit_op(raw, x0, *out)
            if raw.n_components_meeting_a() != doc["n_comp"]:
                err.append(f"space {k}: scipy finds {raw.n_components_meeting_a()} "
                           f"components, the chains number {doc['n_comp']}")
            return err
        return O.check_fixed_point(raw, other.pair.t1, other.pair.t2,
                                   float(other.psi.params["value"]), x0, *out)

    def check(self, op, out) -> list[str]:
        self.sample[self.spaces[op[0]][0]] = (op, out)
        return self._check(op, out)

    def self_test(self) -> list[str]:
        (op, (res, tr)) = self.sample["chain"]
        raw = self._raw(op[0])
        other_ground = next(p for p in sorted(raw.bpp_set) if p != res.bpp)
        wrong = {
            "bpp of another chain": (op, (dataclasses.replace(res, bpp=other_ground), tr)),
            "component missing the seed": (op, (dataclasses.replace(
                res, component=frozenset(res.component - {op[1]})), tr)),
            "orbit gap off by 1e-6": (op, (res, dataclasses.replace(
                tr, gaps=tr.gaps[:-1] + (tr.gaps[-1] + 1e-6,)))),
        }
        fop, (point, ftr) = self.sample["fixed"]
        wrong["fixed point at the seed"] = (fop, (fop[1], ftr))
        wrong["fixed-point gaps doubled"] = (fop, (point, dataclasses.replace(
            ftr, gaps=tuple(2 * g for g in ftr.gaps))))
        return _rejects(lambda w: self._check(*w), wrong)


# ----- pbvp ---------------------------------------------------------------------


ALPHA_EX53 = float(np.exp(2.0))

# kind -> (rhs, alpha, h, w0 value, solver, closed form in oracles.pbvp_exact);
# solvers are looked up by name at call time, so the tracer's rebinding sees them
PROBLEMS = {
    "cosine_forced": (pg.RhsFunction("cosine_forced", {"a": -1.0, "amp": 1.0, "freq": 1.0}),
                      2.0, 1.0, -1.0, "solve_pbvp", "cosine_forced"),
    "linear": (pg.RhsFunction("linear", {"a": -1.0, "b": 1.0}), 2.0, 1.0, 0.0,
               "solve_pbvp", "linear"),
    "ex53": (pg.RhsFunction("exp_linear", {"c": -1.0}), ALPHA_EX53,
             {"kind": "exp_gap"}, -1.0, "solve_pbvp", "ex53"),
    "ex53_common": (pg.RhsFunction("exp_linear", {"c": -1.0}), ALPHA_EX53,
                    {"kind": "exp_gap"}, -1.0, "solve_common_pbvp", "ex53"),
}

# u' = 1 - u at N = 101, where the dense trapezoid kernel breaks: at alpha = 50,
# alpha x row mass is 1.0207 and the iteration stops contracting; at
# alpha = 1000, expm1 overflows and the kernel is all NaN.  Both fail in every
# round until the kernel is fixed, and must then reach u = 1.  The iteration
# budgets let a kernel that keeps the factor (alpha - 1) / alpha converge.
# name -> (alpha, h, tol, max_iter, error raised today)
FAULTS = {
    "fault_alpha50": (50.0, 49.0, 1e-10, 10_000, NoConvergence),
    "fault_alpha1000": (1000.0, 1.0, 1e-8, 30_000, EvaluationFailure),
}


class Pbvp:
    """solve_pbvp and solve_common_pbvp on problems with closed-form
    periodic solutions, N over 201..2001, plus the two kernel faults."""

    name = "pbvp"
    round_size = 100

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        sizes = np.rint(stratified(rng, 201, 2001, self.round_size)).astype(int)
        kinds = list(PROBLEMS)
        ops = [(kinds[i % len(kinds)], int(n)) for i, n in enumerate(sizes)]
        ops += [(name, 101) for name in FAULTS]
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self.w0 = {}
        for kind, n in self.ops:
            value = PROBLEMS[kind][3] if kind in PROBLEMS else PROBLEMS["linear"][3]
            self.w0[kind, n] = pg.GridFunction.constant(pg.TimeGrid(1.0, n), value)
        self.sample = None
        self.run(min((op for op in self.ops if op[0] in PROBLEMS), key=lambda op: op[1]))

    def run(self, op):
        kind, n = op
        w0 = self.w0[op]
        if kind in FAULTS:
            alpha, h, tol, max_iter, _ = FAULTS[kind]
            return pg.solve_pbvp(PROBLEMS["linear"][0], alpha, h, w0,
                                 tol=tol, max_iter=max_iter)[0]
        f, alpha, h, _, solver, _ = PROBLEMS[kind]
        if solver == "solve_common_pbvp":
            return pg.solve_common_pbvp(f, f, alpha, h, w0)[0]
        return pg.solve_pbvp(f, alpha, h, w0)[0]

    @staticmethod
    def is_known_fault(op, exc) -> bool:
        return op[0] in FAULTS and isinstance(exc, FAULTS[op[0]][-1])

    def check(self, op, u) -> list[str]:
        kind = PROBLEMS.get(op[0], PROBLEMS["linear"])[-1]
        self.sample = (kind, u)
        return O.check_pbvp(kind, u.grid.nodes, u.values)

    def self_test(self) -> list[str]:
        kind, u = self.sample
        t = u.grid.nodes
        h2 = (t[1] - t[0]) ** 2
        other = "ex53" if kind != "ex53" else "linear"
        wrong = {
            "solution shifted by 10 h^2": (kind, u.values + 10 * h2),
            "solution of another problem": (other, u.values),
            "last node perturbed": (kind, np.concatenate([u.values[:-1], [u.values[-1] + 1e-3]])),
        }
        return _rejects(lambda w: O.check_pbvp(w[0], t, w[1]), wrong)


WORKLOADS = {w.name: w for w in (Battery, VerifyTable, OrbitScale, Pbvp)}
