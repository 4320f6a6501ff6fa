"""Each theorem family's gates, in their one order, through every caller.

The cyclic theorems' gates are listed in `bpp_solver._check_theorem_hypotheses`
and the common fixed point theorem's in
`fixed_point._check_fixed_point_hypotheses`.  Each row below freezes a small
instance that passes every earlier gate of its family and fails its own, and
also a later one where there is one, so a caller that ran the gates in
another order would name another gate.
"""
from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from proxigraph import (
    CyclicMapTable,
    FiniteMetricGraph,
    GaugeSpec,
    PairMaps,
    PsiGauge,
    check_cardinality,
    check_equivalence_theorem,
    cli,
    solve_bpp,
    solve_common_fixed_point,
)
from proxigraph.cli import main
from proxigraph.errors import ProxigraphError

IDENTITY = {"kind": "identity"}
PSI = {"kind": "constant", "params": {"value": 0.5}}


def _space(points, edges):
    """An l1 space on (id, coordinate tuple, side) points, with every loop."""
    return FiniteMetricGraph.from_coords(points, metric="l1", edges=edges)


def _cyclic(points, edges, mapping):
    sp = _space(points, edges)
    return sp, CyclicMapTable.for_space(sp, mapping)


def _pair(points, edges, t1, t2):
    sp = _space([(p, (x,), s) for p, x, s in points], edges)
    return sp, PairMaps.for_space(sp, t1, t2)


# a0..a2 at (0, 0..2) on A and b0..b2 at (1, 0..2) on B: each a_i has the one
# partner b_i at d(A, B) = 1, so the pair is sharp proximal and has UC
SIX = [(f"a{i}", (0.0, float(i)), "A") for i in range(3)] + [
    (f"b{i}", (1.0, float(i)), "B") for i in range(3)]
# T sends A to b2 and B to a0.  With identity gauges the contraction bound is
# d(A, B) = 1, but a0 is eligible with every y through its loop (a0, T y), and
# d(T a0, T y) = d(b2, a0) = 3.  T^2 sends A to a0, and a1 has no edge to it.
TO_B2 = {**{f"a{i}": "b2" for i in range(3)}, **{f"b{i}": "a0" for i in range(3)}}
# a0 -> a1 -> a2 without a0 -> a2
STAR_A = _cyclic(SIX, [("a0", "a1"), ("a1", "a2")], TO_B2)
# b0 is at d(A, B) = 2 from both a0 and a1
NO_UC = _cyclic([("a0", (0.0, 0.0), "A"), ("a1", (0.0, 2.0), "A"), ("b0", (1.0, 1.0), "B")],
                [], {"a0": "b0", "a1": "b0", "b0": "a0"})
NO_BOUND = _cyclic(SIX, [("a1", "a2")], TO_B2)
# every gate holds but the seed's: T^2 a1 = a0, and a1 has no edge to it
NO_SEED = _cyclic([p for p in SIX if not p[0].endswith("2")], [],
                  {"a0": "b0", "a1": "b0", "b0": "a0", "b1": "a0"})

# q -> r -> p without q -> p on the union; d(T1 q, T2 T1 q) = d(r, p) = 2 is
# above psi * d(q, r) = 0.5; p has no edge to T1 p = r
NO_PSI = _pair([("p", 0.0, "A"), ("q", 1.0, "A"), ("r", 2.0, "B")], [("q", "r"), ("r", "p")],
               {"p": "r", "q": "r"}, {"r": "p"})
# no x carries an edge to its image, so the rate sweep checks nothing; p -> q
# -> s without p -> s
NO_EDGE = _pair([("p", 0.0, "A"), ("q", 1.0, "A"), ("s", 2.0, "A"), ("r", 5.0, "B")],
                [("p", "q"), ("q", "s")], {"p": "r", "q": "r", "s": "r"}, {"r": "p"})
# every gate holds but (*) on the union: q -> s -> w without q -> w
NO_STAR = _pair([("z", 0.0, "AB"), ("p", 1.0, "A"), ("q", 2.0, "A"), ("s", 3.0, "A"),
                 ("w", 4.0, "A")], [("p", "z"), ("q", "s"), ("s", "w")],
                dict.fromkeys("zpqsw", "z"), {"z": "z"})

SEED_SIDE = "the seed must lie on side A"
BPP_CALLERS = {"solve_bpp", "check_cardinality", "check_equivalence_theorem",
               "cli solve-bpp", "cli solve-bpp --gauges"}
FIXED_POINT_CALLERS = {"solve_common_fixed_point", "cli solve-fixed-point"}

# (gate, instance, seed, the callers that check the gate)
GATES = {
    "bpp_seed_side": (SEED_SIDE, STAR_A, "b1",
                      BPP_CALLERS - {"check_cardinality", "check_equivalence_theorem"}),
    "bpp_star_a": ("property (*) on side A", STAR_A, "a1", BPP_CALLERS),
    # check_equivalence_theorem checks UC too, but sharp proximality, its
    # gate before, implies UC, so no instance reaches UC failing there
    "bpp_uc": ("property UC", NO_UC, "a1", BPP_CALLERS - {"check_equivalence_theorem"}),
    "bpp_contraction": ("cyclic contraction bound", NO_BOUND, "a1",
                        {"check_equivalence_theorem", "cli solve-bpp --gauges"}),
    "bpp_seed_x_t2_a": ("seed in X_T2_A", NO_SEED, "a1",
                        BPP_CALLERS - {"check_cardinality", "check_equivalence_theorem"}),
    "fixed_point_seed_side": (SEED_SIDE, NO_PSI, "r", FIXED_POINT_CALLERS),
    "fixed_point_psi": ("psi contraction bound", NO_PSI, "p", {"cli solve-fixed-point"}),
    "fixed_point_seed_edge": ("seed edge (x0, T1 x0)", NO_EDGE, "p", FIXED_POINT_CALLERS),
    "fixed_point_star": ("property (*) on the union graph", NO_STAR, "p", FIXED_POINT_CALLERS),
}


def _refusal(call):
    """The exit code the CLI gives the error call raises, and its message."""
    with pytest.raises(ProxigraphError) as exc:
        call()
    return (2 if exc.value.slug is None else 1), str(exc.value)


def _cli_refusal(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    if code == 2:
        assert out.out == "" and out.err.startswith("input error: ")
        assert out.err.count("\n") == 1
        return code, out.err[len("input error: "):-1]
    assert (code, out.err) == (1, "")
    return code, json.loads(out.out)["message"]


def _write(tmp_path, **docs):
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    return paths


def _callers(capsys, tmp_path, inst, x0):
    """name -> a call that returns the refusal of that caller on inst from x0."""
    sp, maps = inst
    if isinstance(maps, CyclicMapTable):
        phi = GaugeSpec.from_dict(IDENTITY)
        p = _write(tmp_path, instance=sp.to_dict(), map=maps.to_dict(),
                   gauges={"schema": "1", "phi1": IDENTITY, "phi2": IDENTITY})
        argv = ["solve-bpp", "--instance", p["instance"], "--map", p["map"], "--x0", x0]
        return {
            "solve_bpp": lambda: _refusal(lambda: solve_bpp(sp, maps, x0)),
            "check_cardinality": lambda: _refusal(lambda: check_cardinality(sp, maps)),
            "check_equivalence_theorem":
                lambda: _refusal(lambda: check_equivalence_theorem(sp, maps, phi, phi)),
            "cli solve-bpp": lambda: _cli_refusal(capsys, argv),
            "cli solve-bpp --gauges":
                lambda: _cli_refusal(capsys, argv + ["--gauges", p["gauges"]]),
        }
    p = _write(tmp_path, instance=sp.to_dict(), t1={"schema": "1", "map": dict(maps.t1)},
               t2={"schema": "1", "map": dict(maps.t2)}, psi={"schema": "1", **PSI})
    argv = ["solve-fixed-point", "--instance", p["instance"], "--t1", p["t1"],
            "--t2", p["t2"], "--psi", p["psi"], "--x0", x0]
    psi = PsiGauge.from_dict(PSI)
    return {
        "solve_common_fixed_point":
            lambda: _refusal(lambda: solve_common_fixed_point(sp, maps, psi, x0)),
        "cli solve-fixed-point": lambda: _cli_refusal(capsys, argv),
    }


@pytest.mark.parametrize("row", sorted(GATES))
def test_every_caller_of_a_gate_names_it(capsys, tmp_path, row):
    gate, inst, x0, callers = GATES[row]
    expected = (2, SEED_SIDE) if gate == SEED_SIDE else (1, f"hypothesis failed: {gate} ")
    named = {}
    for name, refusal in _callers(capsys, tmp_path, inst, x0).items():
        if name in callers:
            code, message = refusal()
            named[name] = (code, message[:len(expected[1])])
    assert named == dict.fromkeys(callers, expected)


# every gate's name, and check_equivalence_theorem's own first gate
GATE_NAMES = {gate for gate, *_ in GATES.values()} | {"sharp proximal pair"}


def test_the_cli_runs_no_gate_of_its_own():
    source = Path(cli.__file__).read_text()
    assert "require(" not in source
    literals = [node.value for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert [(gate, s) for s in literals for gate in GATE_NAMES if gate in s] == []
