"""Command line driver: exit codes, JSON traces, and deterministic output."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proxigraph import FiniteMetricGraph, build, cli, errors
from proxigraph.cli import _emit, main
from proxigraph.cyclic_contraction import check_pair, verify_g_cyclic_contraction
from proxigraph.corpus import EXAMPLE_IDS, build_ex41_fixed_point

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def ex22_files(tmp_path):
    inst = build("ex22_kappa", N=8)
    paths = {}
    paths["instance"] = tmp_path / "instance.json"
    paths["instance"].write_text(json.dumps(inst.space.to_dict()))
    paths["map"] = tmp_path / "map.json"
    paths["map"].write_text(json.dumps(inst.tmap.to_dict()))
    paths["gauges"] = tmp_path / "gauges.json"
    paths["gauges"].write_text(json.dumps({
        "schema": "1", "phi1": inst.phi1.to_dict(),
        "phi2": inst.phi2.to_dict()}))
    return inst, {k: str(v) for k, v in paths.items()}


def write_instance(tmp_path, example_id, **params):
    inst = build(example_id, **params)
    ip = tmp_path / f"{example_id}.json"
    ip.write_text(json.dumps(inst.space.to_dict()))
    mp = tmp_path / f"{example_id}.map.json"
    mp.write_text(json.dumps(inst.tmap.to_dict()))
    gp = tmp_path / f"{example_id}.gauges.json"
    gp.write_text(json.dumps({"schema": "1", "phi1": inst.phi1.to_dict(),
                              "phi2": inst.phi2.to_dict()}))
    return inst, str(ip), str(mp), str(gp)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip() else None
    return code, doc, out.err


def test_verify_edge_restricted_passes(capsys, ex22_files):
    _, p = ex22_files
    code, doc, _ = run(capsys, [
        "verify", "--instance", p["instance"], "--map", p["map"],
        "--gauges", p["gauges"]])
    assert code == 0
    assert doc["verified"] is True
    assert doc["contraction"]["holds"] is True
    assert doc["contraction"]["violations"] == []


def test_verify_all_pairs_fails_with_witnesses(capsys, ex22_files):
    inst, p = ex22_files
    code, doc, _ = run(capsys, [
        "verify", "--instance", p["instance"], "--map", p["map"],
        "--gauges", p["gauges"], "--all-pairs"])
    assert code == 1
    assert doc["verified"] is False
    viols = doc["contraction"]["violations"]
    assert len(viols) == 194
    # every reported witness replays to the same numbers in the library
    for v in viols[:10]:
        ok, lhs, rhs = check_pair(inst.space, inst.tmap, inst.phi1,
                                  inst.phi2, v["x"], v["y"])
        assert not ok
        assert lhs == pytest.approx(v["lhs"], abs=1e-15)
        assert rhs == pytest.approx(v["rhs"], abs=1e-15)


def test_verify_predicate_gate(capsys, tmp_path, ex22_files):
    _, p = ex22_files
    code, doc, _ = run(capsys, [
        "verify", "--instance", p["instance"], "--map", p["map"],
        "--gauges", p["gauges"], "--require-predicates"])
    assert code == 0

    _, ip, mp, gp = write_instance(tmp_path, "ex33_dyadic_l1", depth=4)
    code, doc, _ = run(capsys, [
        "verify", "--instance", ip, "--map", mp, "--require-predicates"])
    assert code == 1
    assert doc["predicates"]["star_union"]["ok"] is False
    assert doc["predicates"]["star_a"]["ok"] is True


def test_verify_input_errors(capsys, tmp_path, ex22_files):
    _, p = ex22_files
    code, _, err = run(capsys, [
        "verify", "--instance", p["instance"], "--gauges", p["gauges"]])
    assert code == 2
    assert "input error" in err

    bad = tmp_path / "noloops.json"
    bad.write_text(json.dumps({
        "schema": "1", "metric": "l1", "auto_loops": False,
        "points": [{"id": "a", "coords": [0.0, 0.0], "side": "A"},
                   {"id": "b", "coords": [1.0, 0.0], "side": "B"}],
        "edges": [["a", "b"]]}))
    code, _, err = run(capsys, ["verify", "--instance", str(bad)])
    assert code == 2
    assert "loop" in err


def test_solve_bpp_trace(capsys, tmp_path):
    _, ip, mp, gp = write_instance(tmp_path, "ex33_dyadic_l1", depth=6)
    code, doc, _ = run(capsys, [
        "solve-bpp", "--instance", ip, "--map", mp, "--x0", "a_1",
        "--skip-hypothesis-checks"])
    assert code == 0
    assert doc["bpp"] == "a_0"
    assert doc["points"][:2] == ["a_1", "b_1/2"]
    assert doc["gaps"][0] == 1.5
    assert doc["gaps"][-1] == 1.0
    assert doc["achieved_gap"] == 1.0
    assert doc["stop_reason"] == "converged"
    assert "a_0" in doc["component"]


def test_solve_bpp_gauge_gate_blocks_broken_bound(capsys, tmp_path):
    _, ip, mp, gp = write_instance(tmp_path, "ex33_dyadic_l1", depth=6)
    code, doc, _ = run(capsys, [
        "solve-bpp", "--instance", ip, "--map", mp, "--gauges", gp,
        "--x0", "a_1"])
    assert code == 1
    assert doc["error"] == "hypothesis_violated"
    assert "contraction" in doc["message"]


def test_solve_bpp_sweeps_its_gauges_at_its_tol(capsys, tmp_path):
    # ex33's 58 excesses at depth 29, 2^-30 each, pass under the default
    # slack of 1e-9 and fail at --tol 0
    _, ip, mp, gp = write_instance(tmp_path, "ex33_dyadic_l1", depth=29)
    files = ["--instance", ip, "--map", mp, "--gauges", gp, "--tol", "0"]
    code, doc, _ = run(capsys, ["verify", *files])
    assert (code, len(doc["contraction"]["violations"])) == (1, 58)
    code, doc, _ = run(capsys, ["solve-bpp", *files, "--x0", "a_1"])
    assert code == 1
    assert doc["message"].startswith("hypothesis failed: cyclic contraction bound ")


def test_solve_bpp_seed_gate(capsys, tmp_path):
    _, ip, mp, _ = write_instance(tmp_path, "ex35_not_bpo", depth=6)
    code, doc, _ = run(capsys, [
        "solve-bpp", "--instance", ip, "--map", mp, "--x0", "a_1/2"])
    assert code == 1
    assert doc["error"] == "hypothesis_violated"
    assert doc["witness"] == "a_1/2"

    code, doc, _ = run(capsys, [
        "solve-bpp", "--instance", ip, "--map", mp, "--x0", "a_1/2",
        "--skip-hypothesis-checks"])
    assert code == 0
    assert doc["bpp"] == "a_0"


@pytest.mark.parametrize("x0", ["nope", "b_1"])
def test_solve_bpp_refuses_a_seed_off_side_a_before_the_contraction_gate(capsys, tmp_path, x0):
    # ex33's contraction bound fails, so a seed that reached that gate would exit 1
    _, ip, mp, gp = write_instance(tmp_path, "ex33_dyadic_l1", depth=6)
    assert_input_error(capsys, ["solve-bpp", "--instance", ip, "--map", mp, "--gauges", gp,
                                "--x0", x0])


def small_ex41_argv(tmp_path, x0, rate):
    """solve-fixed-point from x0 on ex41 at depth 4 and n_time 16, with the
    constant psi rate."""
    inst = build_ex41_fixed_point(depth=4, n_time=16)
    docs = {"instance": inst.space.to_dict(),
            "t1": {"schema": "1", "map": dict(inst.pair.t1)},
            "t2": {"schema": "1", "map": dict(inst.pair.t2)},
            "psi": {"schema": "1", "kind": "constant", "params": {"value": rate}}}
    argv = ["solve-fixed-point", "--x0", x0]
    for flag, doc in docs.items():
        path = tmp_path / f"{flag}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{flag}", str(path)]
    return argv


@pytest.mark.parametrize("x0", ["nope", "g_1/2"])
def test_solve_fixed_point_refuses_a_seed_off_side_a_before_the_psi_gate(capsys, tmp_path,
                                                                         x0):
    # a constant rate of 0.1 fails ex41's psi sweep, so a seed that reached
    # that gate would exit 1
    assert_input_error(capsys, small_ex41_argv(tmp_path, x0, 0.1))


def test_solve_fixed_point_sweeps_psi_at_its_tol(capsys, tmp_path):
    # with a constant rate of 0.5, two of ex41's pairs exceed the bound by
    # one ulp, which the default slack of 1e-9 allows and --tol 0 does not
    argv = small_ex41_argv(tmp_path, "f_1/2", 0.5)
    assert run(capsys, argv)[0] == 0
    code, doc, _ = run(capsys, argv + ["--tol", "0"])
    assert code == 1
    assert doc["message"].startswith("hypothesis failed: psi contraction bound ")
    assert doc["witness"] == ["g_1/2", "g_1/2", 0.27880531217345794, 0.2788053121734579]


def test_report_encoding_of_sets_and_numpy_values(capsys):
    _emit({"set": set("hcafbged"), "frozen": frozenset({2, 1}), "int": np.int64(3),
           "float32": np.float32(0.5), "float64": np.float64(0.1), "flag": np.bool_(True),
           "array": np.array([[1.5, 2.0]]), "pairs": ((1, 2),)}, None)
    assert json.loads(capsys.readouterr().out) == {
        "set": list("abcdefgh"), "frozen": [1, 2], "int": 3, "float32": 0.5,
        "float64": 0.1, "flag": True, "array": [[1.5, 2.0]], "pairs": [[1, 2]]}


WRITER_IDS = ['f_"q"', "b\\s", "c\x01\x1f\t\n", "f_\u00e9", "g_\u20ac\U0001f600", "x/y"]
WRITER_FLOATS = [5e-324, 1e-300, 1e16, 0.1 + 0.2, 2.0, -0.0, 0.0, 1.0857142857142856]


def verify_report(rows):
    """A verify report whose contraction.violations holds rows as the sweep
    gives them, and the same report with each row as its JSON object."""
    doc = {"schema": "1", "d_ab": 1.0, "n_points": 4, "verified": not rows,
           "predicates": {"star_a": {"ok": False, "witness": ("a", "b", "c")}},
           "contraction": {"holds": not rows, "all_pairs": True, "checked_pairs": 9,
                           "a0_witness": ("a", 'b"'), "violations": tuple(rows)}}
    objects = [{"x": x, "y": y, "lhs": lhs, "rhs": rhs} for x, y, lhs, rhs in rows]
    return doc, {**doc, "contraction": {**doc["contraction"], "violations": objects}}


WRITER_ROWS = {
    "none": [],
    "one": [("f_1/2", "g_1/3", 1.25, 1.0)],
    "many": [(x, y, lhs, rhs) for x in WRITER_IDS for y in WRITER_IDS[::-1]
             for lhs, rhs in zip(WRITER_FLOATS, WRITER_FLOATS[::-1])],
    "non_finite": [("a", "b", math.inf, 1.0), ("a", "c", 2.0, -math.inf),
                   ("a", "d", math.nan, 0.5), ("a", "e", 1.0, math.nan)],
}


@pytest.mark.parametrize("name", sorted(WRITER_ROWS))
def test_violation_writer_gives_the_bytes_of_json_dumps(capsys, tmp_path, name):
    doc, objects = verify_report(WRITER_ROWS[name])
    want = json.dumps(objects, indent=2, sort_keys=True) + "\n"
    _emit(doc, str(tmp_path / "report.json"))
    assert (tmp_path / "report.json").read_bytes() == want.encode()
    _emit(doc, None)
    assert capsys.readouterr().out == want


def test_violation_writer_encodes_each_distinct_id_once(monkeypatch):
    rows = WRITER_ROWS["many"]
    want = cli._violation_rows(rows)
    calls = []

    def encode(text):
        calls.append(text)
        return json.encoder.encode_basestring_ascii(text)

    monkeypatch.setattr(cli, "encode_basestring_ascii", encode)
    assert cli._violation_rows(rows) == want
    assert sorted(calls) == sorted(WRITER_IDS)


def test_ex22_all_pairs_report_is_the_json_dumps_of_its_sweep(tmp_path):
    inst = build("ex22_kappa", N=64)
    paths = {}
    for kind, doc in (("instance", inst.space.to_dict()), ("map", inst.tmap.to_dict()),
                      ("gauges", {"schema": "1", "phi1": inst.phi1.to_dict(),
                                  "phi2": inst.phi2.to_dict()})):
        paths[kind] = str(tmp_path / f"{kind}.json")
        Path(paths[kind]).write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(verify_argv(paths) + ["--all-pairs", "--out", str(out)]) == 1
    text = out.read_text()
    report = json.loads(text)
    assert len(text) > 1_000_000
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    con = verify_g_cyclic_contraction(inst.space, inst.tmap, inst.phi1, inst.phi2,
                                      all_pairs=True)
    rows = [(v["x"], v["y"], v["lhs"], v["rhs"]) for v in report["contraction"]["violations"]]
    assert len(rows) == 10866 and rows == list(con.violations)


def test_output_files_are_byte_identical(tmp_path):
    _, ip, mp, _ = write_instance(tmp_path, "ex33_dyadic_l1", depth=6)
    outs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = main(["solve-bpp", "--instance", ip, "--map", mp,
                     "--x0", "a_1", "--skip-hypothesis-checks",
                     "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_solve_fixed_point(capsys, tmp_path):
    inst = build_ex41_fixed_point()
    ip = tmp_path / "inst.json"
    ip.write_text(json.dumps(inst.space.to_dict()))
    t1 = tmp_path / "t1.json"
    t1.write_text(json.dumps({"schema": "1", "map": dict(inst.pair.t1)}))
    t2 = tmp_path / "t2.json"
    t2.write_text(json.dumps({"schema": "1", "map": dict(inst.pair.t2)}))
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"schema": "1", **inst.psi.to_dict()}))

    code, doc, _ = run(capsys, [
        "solve-fixed-point", "--instance", str(ip), "--t1", str(t1),
        "--t2", str(t2), "--psi", str(psi), "--x0", "f_1/2",
        "--strengthened"])
    assert code == 0
    assert doc["fixed_point"] == "zero"
    assert doc["residual"] == 0.0
    assert doc["stop_reason"] == "converged"
    assert len(doc["apriori"]) == len(doc["gaps"])
    for g, cap in zip(doc["gaps"], doc["apriori"]):
        assert g <= cap + 1e-12
    assert doc["uniqueness_regime"] == {"weakly_connected": True,
                                        "weak_friendship": True}


def test_solve_pbvp_contract_invocation(capsys, tmp_path):
    sol = tmp_path / "solution.csv"
    rep = tmp_path / "report.json"
    code = main([
        "solve-pbvp", "--rhs", '{"kind":"exp_linear","c":-1.0}',
        "--alpha", "7.389056098930650", "--h", '{"kind":"exp_gap"}',
        "--T", "1.0", "--N", "201", "--w0", "const:-1",
        "--out", str(sol), "--report", str(rep)])
    capsys.readouterr()
    assert code == 0
    lines = sol.read_text().strip().splitlines()
    assert lines[0] == "t,u"
    assert len(lines) == 202
    t0, u0 = lines[1].split(",")
    assert float(t0) == 0.0
    assert abs(float(u0)) <= 1e-6
    doc = json.loads(rep.read_text())
    assert doc["sup_norm"] <= 1e-6
    assert doc["periodicity_residual"] <= 1e-9
    assert doc["max_ratio"] <= doc["beta"] + 1e-6
    assert doc["n"] == 201


def test_solve_pbvp_bad_w0(capsys):
    code, _, err = run(capsys, [
        "solve-pbvp", "--rhs", '{"kind":"exp_linear","c":-1.0}',
        "--alpha", "2.0", "--h", "1.0", "--w0", "ramp:-1"])
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("example_id", [
    "ex22_kappa", "ex33_dyadic_l1", "ex35_not_bpo", "ex41_fixed_point",
    "ex53_pbvp"])
def test_reproduce_passes(capsys, example_id):
    code, doc, _ = run(capsys, ["reproduce", example_id])
    assert code == 0
    assert doc["all_pass"] is True
    assert doc["example_id"] == example_id
    assert all(c["pass"] for c in doc["checks"])
    assert all(c["source"] for c in doc["checks"])


def test_reproduce_rejects_bad_input(capsys):
    code, _, err = run(capsys, ["reproduce", "ex99_missing"])
    assert code == 2
    code, _, err = run(capsys, ["reproduce", "ex22_kappa", "--params",
                                "N=three"])
    assert code == 2
    # a key given twice, where the last one was run
    code, doc, err = run(capsys, ["reproduce", "ex22_kappa", "--params", "N=8", "N=9"])
    assert (code, doc, err) == (2, None, "input error: parameter 'N' is given twice\n")


def test_a_map_that_lists_a_point_twice_is_refused(capsys, tmp_path):
    # json keeps the last of two equal names: a_0 sent first to b_1/2, then to
    # its image, was read as the map alone, and the solve exited 0
    _, ip, mp, _ = write_instance(tmp_path, "ex33_dyadic_l1", depth=6)
    text = Path(mp).read_text()
    assert text.startswith('{"map": {"a_0": ')
    Path(mp).write_text(text.replace('{"a_0": ', '{"a_0": "b_1/2", "a_0": ', 1))
    for flags in ((), ("--strict",)):
        code, doc, err = run(capsys, ["solve-bpp", "--instance", ip, "--map", mp,
                                      "--x0", "a_1", *flags])
        assert (code, doc) == (2, None)
        assert err == (f"input error: invalid JSON in {mp}: "
                       "a JSON object has two entries for 'a_0'\n")


@pytest.mark.parametrize("example_id, param", [
    ("ex22_kappa", "N=2"), ("ex22_kappa", "N=65"),
    ("ex33_dyadic_l1", "depth=1"), ("ex33_dyadic_l1", "depth=30"),
    ("ex35_not_bpo", "depth=1"), ("ex35_not_bpo", "depth=15"),
    ("ex41_fixed_point", "depth=21"), ("ex41_fixed_point", "n_time=1025"),
    ("ex53_pbvp", "n_nodes=10"), ("ex53_pbvp", "n_nodes=20002"),
])
def test_reproduce_one_step_past_a_gate_is_an_input_error(example_id, param):
    proc = subprocess.run(
        [sys.executable, "-m", "proxigraph.cli", "reproduce", example_id,
         "--params", param], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_reproduce_all_script_passes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_all.py")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [[e, "ok"] for e in EXAMPLE_IDS]


def test_reproduce_all_script_passes_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_all.py")],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[:2] for line in proc.stdout.splitlines()] == [
        [e, "ok"] for e in EXAMPLE_IDS]


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "proxigraph.cli", "reproduce", "ex35_not_bpo"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["all_pass"] is True


def test_importing_the_package_loads_no_test_dependency():
    # pyproject.toml promises numpy only; scipy, hypothesis and pytest serve the tests
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, proxigraph, proxigraph.cli\n"
            "print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'scipy', 'hypothesis', 'pytest'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_parser_is_built_once_and_bad_arguments_exit_2(capsys):
    assert cli._build_parser() is cli._build_parser()
    for argv in (["verify"], ["no-such-command"], ["reproduce", "ex22_kappa", "--tol", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: proxigraph") and "error:" in err


def test_parser_defaults_are_the_library_defaults():
    from proxigraph import bpp_solver, cyclic_contraction, fixed_point, pbvp
    argv = {"verify": ["--instance", "i"],
            "solve-bpp": ["--instance", "i", "--map", "m", "--x0", "x"],
            "solve-fixed-point": ["--instance", "i", "--t1", "a", "--t2", "b",
                                  "--psi", "p", "--x0", "x"],
            "solve-pbvp": ["--rhs", "r", "--alpha", "1", "--h", "1"]}
    want = {"verify": (cyclic_contraction.TOL_INEQ, None),
            "solve-bpp": (bpp_solver.TOL_BPP, bpp_solver.MAX_ITER),
            "solve-fixed-point": (fixed_point.TOL_FIX, fixed_point.MAX_ITER),
            "solve-pbvp": (pbvp.TOL_PBVP, pbvp.MAX_ITER)}
    for sub, rest in argv.items():
        args = cli._build_parser().parse_args([sub, *rest])
        assert (args.tol, getattr(args, "max_iter", None)) == want[sub]


TWO_POINTS = [{"id": "a", "coords": [0.0, 0.0], "side": "A"},
              {"id": "b", "coords": [1.0, 0.0], "side": "B"}]

HUGE = 10 ** 400  # a JSON integer too large for a float


@pytest.mark.parametrize("doc", [
    {"metric": "l1", "points": TWO_POINTS, "edges": [["a"]]},
    {"metric": "table", "points": [{"id": "a", "side": "A"}, {"id": "b", "side": "B"}],
     "dist_table": [[0, 1], [1]]},
    {"metric": "l1", "points": [{"id": "a", "coords": "12", "side": "A"}, TWO_POINTS[1]]},
    {"metric": "l1", "points": TWO_POINTS[:1]},
    {"metric": "l1", "points": [{"id": "a", "coords": [True, 0], "side": "A"}, TWO_POINTS[1]]},
    {"metric": "table", "points": [{"id": "a", "side": "A"}, {"id": "b", "side": "B"}],
     "dist_table": [[0, 1], [True, 0]]},
    {"metric": "table", "points": [{"id": "a", "side": "A"}, {"id": "b", "side": "B"}],
     "dist_table": [["0", "1.5"], ["1.5", "0"]]},
    {"metric": "table", "points": [{"id": "a", "side": "A"}, {"id": "b", "side": "B"}],
     "dist_table": [[0, 1.5], ["1.5", 0]]},
    {"metric": "l1", "points": [{"id": "a", "coords": ["1", 0], "side": "A"}, TWO_POINTS[1]]},
    {"metric": "l1", "points": [{"id": "a", "coords": [HUGE, 0], "side": "A"}, TWO_POINTS[1]]},
    {"metric": "table", "points": [{"id": "a", "side": "A"}, {"id": "b", "side": "B"}],
     "dist_table": [[0, HUGE], [HUGE, 0]]},
    {"metric": "l1", "points": TWO_POINTS, "auto_loops": "false"},
    {"metric": "l1", "points": TWO_POINTS, "auto_loops": 1},
    {"metric": "l1", "points": [{**TWO_POINTS[0], "id": None}, TWO_POINTS[1]],
     "edges": [[None, "b"]]},
    {"metric": "l1", "points": [{**TWO_POINTS[0], "id": True}, TWO_POINTS[1]]},
    {"metric": "l1", "points": [{**TWO_POINTS[0], "id": 1.5}, TWO_POINTS[1]]},
    {"metric": "l1", "points": [{**TWO_POINTS[0], "id": {"a": 1}}, TWO_POINTS[1]]},
], ids=["one_element_edge", "ragged_table", "string_coords", "no_b_point", "bool_coords",
        "bool_table", "string_table", "one_string_in_table", "string_coord_entry",
        "huge_int_coord", "huge_int_table", "string_auto_loops", "int_auto_loops",
        "null_id", "bool_id", "float_id", "object_id"])
def test_verify_rejects_malformed_instances(tmp_path, doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"schema": "1", "auto_loops": True, **doc}))
    proc = subprocess.run(
        [sys.executable, "-m", "proxigraph.cli", "verify", "--instance", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("value", [None, True, 0.5, ["b"], {"b": "a"}],
                         ids=["null", "bool", "float", "array", "object"])
def test_verify_rejects_a_map_value_that_is_no_point_id(tmp_path, value):
    # a point named "None" is where a null value was once read as its name
    points = [TWO_POINTS[0], {**TWO_POINTS[1], "id": "None"}]
    paths = {"instance": {"schema": "1", "metric": "l1", "auto_loops": True, "points": points},
             "map": {"schema": "1", "map": {"a": value, "None": "a"}}}
    for name, doc in paths.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "proxigraph.cli", "verify", "--instance",
         str(tmp_path / "instance.json"), "--map", str(tmp_path / "map.json")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error:") and proc.stderr.count("\n") == 1
    assert "must be a string or an integer" in proc.stderr
    assert proc.stdout == ""


def test_verify_reads_integer_ids_in_points_edges_and_maps(tmp_path):
    points = [{"id": 0, "coords": [0.0], "side": "A"}, {"id": 1, "coords": [1.0], "side": "B"}]
    docs = {"instance": {"schema": "1", "metric": "l1", "auto_loops": True, "points": points,
                         "edges": [[0, "1"], ["1", 0]]},
            "map": {"schema": "1", "map": {"0": 1, "1": 0}}}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = ["verify", "--instance", str(tmp_path / "instance.json"),
            "--map", str(tmp_path / "map.json"), "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_points"] == 2 and report["t2_preserves_edges"]["ok"]
    space = FiniteMetricGraph.from_json(tmp_path / "instance.json")
    assert space.ids == ("0", "1") and ("0", "1") in space.edges


@pytest.mark.parametrize("metric", ["l1", "l2", "sup"])
def test_verify_takes_zero_dimension_coordinates_under_every_metric(tmp_path, metric):
    # no coordinates: every point coincides, as the l1 and l2 sums over none say
    doc = {"schema": "1", "auto_loops": True, "metric": metric,
           "points": [{"id": p, "coords": [], "side": s} for p, s in (("a", "A"), ("b", "B"))]}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "proxigraph.cli", "verify", "--instance", str(path)],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["d_ab"] == 0.0


@pytest.fixture
def ex41_files(tmp_path):
    inst = build_ex41_fixed_point()
    docs = {"instance": inst.space.to_dict(),
            "t1": {"schema": "1", "map": dict(inst.pair.t1)},
            "t2": {"schema": "1", "map": dict(inst.pair.t2)},
            "psi": {"schema": "1", **inst.psi.to_dict()}}
    paths = {}
    for kind, doc in docs.items():
        paths[kind] = tmp_path / f"ex41_{kind}.json"
        paths[kind].write_text(json.dumps(doc))
    return {k: str(v) for k, v in paths.items()}


def verify_argv(p):
    return ["verify", "--instance", p["instance"], "--map", p["map"],
            "--gauges", p["gauges"]]


def fixed_point_argv(p):
    return ["solve-fixed-point", "--instance", p["instance"], "--t1", p["t1"],
            "--t2", p["t2"], "--psi", p["psi"], "--x0", "f_1/2"]


def assert_input_error(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("input error:") and out.err.count("\n") == 1
    assert "Traceback" not in out.err
    assert out.out == ""


@pytest.mark.parametrize("command, flag", [
    ("verify", "instance"), ("verify", "map"), ("verify", "gauges"),
    ("solve-fixed-point", "instance"), ("solve-fixed-point", "t1"),
    ("solve-fixed-point", "t2"), ("solve-fixed-point", "psi"),
])
def test_missing_file_is_an_input_error(capsys, tmp_path, ex22_files, ex41_files,
                                        command, flag):
    _, p22 = ex22_files
    paths, argv_of = ((p22, verify_argv) if command == "verify"
                      else (ex41_files, fixed_point_argv))
    paths = dict(paths, **{flag: str(tmp_path / "no_such_file.json")})
    assert_input_error(capsys, argv_of(paths))


@pytest.mark.parametrize("content", [b"\xff\xfe{", b"{not json", None],
                         ids=["not_utf8", "not_json", "directory"])
def test_unreadable_document_is_an_input_error(capsys, tmp_path, content):
    path = tmp_path / "doc.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert_input_error(capsys, ["verify", "--instance", str(path)])


BAD_GAUGES = {
    "gauge_c_not_a_number": {"kind": "linear", "params": {"c": "x"}},
    "gauge_one_element_knot": {"kind": "table", "params": {"knots": [[0.0, 0.0], [1.0]]}},
    "gauge_params_list": {"kind": "linear", "params": [0.5]},
    "gauge_c_true": {"kind": "linear", "params": {"c": True}},
    "gauge_knot_true": {"kind": "table", "params": {"knots": [[0.0, 0.0], [1.0, True]]}},
    "gauge_c_numeric_string": {"kind": "linear", "params": {"c": "0.5"}},
    "gauge_shift_c_numeric_string": {"kind": "affine_shift", "params": {"c": "0.5"}},
    "gauge_shift_c_nan": {"kind": "affine_shift", "params": {"c": math.nan}},
    "gauge_shift_c_infinite": {"kind": "affine_shift", "params": {"c": math.inf}},
    "gauge_knot_numeric_string": {"kind": "table",
                                  "params": {"knots": [[0.0, 0.0], ["1.0", 0.5]]}},
    "gauge_c_huge_int": {"kind": "linear", "params": {"c": HUGE}},
    "gauge_knot_huge_int": {"kind": "table", "params": {"knots": [[0.0, 0.0], [HUGE, 0.5]]}},
}


@pytest.mark.parametrize("name", sorted(BAD_GAUGES))
def test_malformed_gauge_file_is_an_input_error(capsys, tmp_path, ex22_files, name):
    _, p = ex22_files
    gauges = tmp_path / "bad_gauges.json"
    gauges.write_text(json.dumps({"schema": "1", "phi1": BAD_GAUGES[name],
                                  "phi2": {"kind": "identity"}}))
    assert_input_error(capsys, verify_argv(dict(p, gauges=str(gauges))))


@pytest.mark.parametrize("doc", [
    {"schema": "1", "kind": "table", "params": {"knots": [[1]]}},
    [{"kind": "constant", "params": {"value": 0.5}}],
    {"schema": "1", "kind": "constant", "params": {"value": "x"}},
    {"schema": "1", "kind": "table", "params": {"knots": [[0.0, 0.25], [False, 0.5]]}},
    {"schema": "1", "kind": "constant", "params": {"value": "0.5"}},
    {"schema": "1", "kind": "table", "params": {"knots": [[0.0, 0.25], [1.0, "0.5"]]}},
    {"schema": "1", "kind": "constant", "params": {"value": HUGE}},
    {"schema": "1", "kind": "table", "params": {"knots": [[0.0, 0.25], [HUGE, 0.5]]}},
], ids=["one_element_knot", "top_level_list", "value_not_a_number", "knot_false",
        "value_numeric_string", "knot_numeric_string", "value_huge_int", "knot_huge_int"])
def test_malformed_psi_file_is_an_input_error(capsys, tmp_path, ex41_files, doc):
    psi = tmp_path / "bad_psi.json"
    psi.write_text(json.dumps(doc))
    assert_input_error(capsys, fixed_point_argv(dict(ex41_files, psi=str(psi))))


@pytest.mark.parametrize("flag, spec", [
    ("--rhs", '{"kind":"exp_linear","c":"x"}'),
    ("--rhs", '{"kind":"linear","params":[1.0]}'),
    ("--rhs", '{"kind":"table","t_nodes":[0,1],"s_nodes":[0,1],"values":[[0,"x"],[1,1]]}'),
    ("--h", '{"kind":"const","value":"x"}'),
    ("--h", '{"kind":"exp_gap","alpha":[2]}'),
    ("--h", '{"kind":"const","value":NaN}'),
    ("--h", '{"kind":"exp_gap","alpha":Infinity}'),
    ("--h", '{"kind":"const"}'),
    ("--h", '{"kind":"const","value":-1}'),
    ("--h", '{"kind":"exp_gap","alpha":0.5}'),
    ("--h", '{"kind":"exp_gap"}'),
    ("--h", '{"kind":"const","params":5}'),
    ("--h", '{"kind":"const","params":[1]}'),
    ("--h", '{"kind":"const","params":"ab"}'),
    ("--h", "true"),
    ("--rhs", '{"kind":"linear","a":-1,"b":true}'),
    ("--rhs", '{"kind":"linear","a":-1,"params":{"a":-2}}'),
    ("--h", '{"kind":"const","value":1,"params":{"value":1}}'),
    ("--rhs", '{"kind":"table","t_nodes":[0,true],"s_nodes":[0,1],"values":[[0,0],[1,1]]}'),
    ("--rhs", '{"kind":"table","t_nodes":[0,1],"s_nodes":[0,1],"values":[[0,0],[1,true]]}'),
    ("--rhs", '{"kind":"linear","a":"-1"}'),
    ("--rhs", '{"kind":"exp_linear","c":"0.5"}'),
    ("--rhs", '{"kind":"table","t_nodes":[0,"1"],"s_nodes":[0,1],"values":[[0,0],[1,1]]}'),
    ("--rhs", '{"kind":"table","t_nodes":[0,1],"s_nodes":["0",1],"values":[[0,0],[1,1]]}'),
    ("--rhs", '{"kind":"table","t_nodes":[0,1],"s_nodes":[0,1],"values":[[0,0],[1,"1"]]}'),
    ("--h", '{"kind":"const","value":"1"}'),
    ("--h", '{"kind":"exp_gap","alpha":"3"}'),
    ("--h", '"1.0"'),
    ("--rhs", f'{{"kind":"linear","a":-1,"b":{HUGE}}}'),
    ("--rhs", f'{{"kind":"table","t_nodes":[0,1],"s_nodes":[0,1],"values":[[0,0],[1,{HUGE}]]}}'),
    ("--h", str(HUGE)),
    ("--h", "1" * 5000),
    ("--rhs", '{"kind":"linear","a":NaN}'),
    ("--rhs", '{"kind":"exp_linear","params":{"c":Infinity}}'),
    ("--rhs", '{"kind":"cosine_forced","freq":-Infinity}'),
    ("--rhs", '{"kind":"table","t_nodes":[0,Infinity],"s_nodes":[0,1],"values":[[0,0],[1,1]]}'),
    ("--rhs", '{"kind":"table","t_nodes":[0,1],"s_nodes":[NaN,1],"values":[[0,0],[1,1]]}'),
    ("--rhs", '{"kind":"table","t_nodes":[0,1],"s_nodes":[0,1],"values":[[0,0],[1,NaN]]}'),
], ids=["c_not_a_number", "params_list", "table_value_not_a_number",
        "h_value_not_a_number", "h_alpha_not_a_number", "h_value_nan",
        "h_alpha_infinite", "h_value_missing", "h_value_negative",
        "h_exp_gap_negative", "h_exp_gap_negative_late", "h_params_number",
        "h_params_list", "h_params_string", "h_true", "b_true", "rhs_both_ways",
        "h_both_ways", "table_node_true", "table_value_true", "a_numeric_string",
        "c_numeric_string", "table_t_node_numeric_string", "table_s_node_numeric_string",
        "table_value_numeric_string", "h_value_numeric_string", "h_alpha_numeric_string",
        "h_numeric_string", "b_huge_int", "table_value_huge_int", "h_huge_int",
        "h_too_many_digits", "a_nan", "c_infinite", "freq_minus_infinite",
        "table_t_node_infinite", "table_s_node_nan", "table_value_nan"])
def test_malformed_pbvp_spec_is_an_input_error(capsys, flag, spec):
    argv = {"--rhs": '{"kind":"linear","a":-1.0}', "--alpha": "2.0", "--h": "1.0",
            "--w0": "const:-1", flag: spec}
    assert_input_error(capsys, ["solve-pbvp"] + [a for kv in argv.items() for a in kv])


@pytest.mark.parametrize("flag", ["--instance", "--h", "--rhs"])
def test_json_nested_too_deeply_is_an_input_error(capsys, tmp_path, flag):
    # written as raw text: json.dumps of so deep a list recurses too
    if flag == "--instance":
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert_input_error(capsys, ["verify", "--instance", str(path)])
    else:
        argv = {"--rhs": '{"kind":"linear","a":-1.0}', "--alpha": "2.0", "--h": "1.0",
                "--w0": "const:-1", flag: "[" * 5000 + "]" * 5000}
        assert_input_error(capsys, ["solve-pbvp"] + [a for kv in argv.items() for a in kv])


def test_output_does_not_depend_on_the_hash_seed(tmp_path, ex22_files):
    _, p = ex22_files
    bad_edges = tmp_path / "bad_edges.json"
    bad_edges.write_text(json.dumps({
        "schema": "1", "auto_loops": True, "metric": "l1", "points": TWO_POINTS,
        "edges": [["a", "x"], ["y", "b"], ["q", "r"], ["m", "a"]]}))
    path = os.pathsep.join(q for q in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if q)
    for argv in (["verify", "--instance", str(bad_edges)], verify_argv(p) + ["--all-pairs"]):
        seed0, seed1 = [
            (proc.returncode, proc.stdout, proc.stderr) for proc in (
                subprocess.run([sys.executable, "-m", "proxigraph.cli", *argv],
                               capture_output=True,
                               env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
                for seed in ("0", "1"))]
        assert seed0[0] in (1, 2) and seed0 == seed1


def test_graph_witnesses_do_not_depend_on_the_hash_seed(tmp_path):
    # four parallel pairs (ai, bi), none an edge; a chain within A without its
    # shortcuts; and T^2 = (a0 a2)(a1 a3), which takes two edges of A off the graph
    points = [{"id": f"{s}{i}", "coords": [float(s == "b"), float(i)], "side": s.upper()}
              for s in "ab" for i in range(4)]
    edges = [["a0", "a1"], ["a1", "a2"], ["a2", "a3"], ["a3", "a1"], ["b2", "b0"], ["b0", "b3"]]
    t1, t2 = {f"a{i}": f"b{i}" for i in range(4)}, {f"b{i}": f"a{(i + 2) % 4}" for i in range(4)}
    files = {"instance": {"schema": "1", "auto_loops": True, "metric": "l1",
                          "points": points, "edges": edges},
             "map": {"map": {**t1, **t2}}, "t1": {"map": t1}, "t2": {"map": t2},
             "gauges": {"phi1": {"kind": "linear", "params": {"c": 0.5}},
                        "phi2": {"kind": "identity"}},
             "psi": {"kind": "constant", "params": {"value": 0.5}}}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    paths = {f"--{name}": str(tmp_path / f"{name}.json") for name in files}
    # verify sweeps the edge-eligible pairs (no --all-pairs); the seed a0 has
    # no edge to its t1 image, so solve-fixed-point stops at its seed gate
    runs = [["verify", "--require-predicates"] + [a for f in ("--instance", "--map", "--gauges")
                                                  for a in (f, paths[f])],
            ["solve-fixed-point", "--x0", "a0"] + [a for f in ("--instance", "--t1", "--t2",
                                                              "--psi") for a in (f, paths[f])]]
    path = os.pathsep.join(q for q in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if q)
    seed0, seed1 = [
        [(proc.returncode, proc.stdout, proc.stderr) for proc in (
            subprocess.run([sys.executable, "-m", "proxigraph.cli", *argv], capture_output=True,
                           env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
            for argv in runs)]
        for seed in ("0", "1")]
    assert seed0 == seed1 and [code for code, _, _ in seed0] == [1, 1]
    gate = json.loads(seed0[1][1])
    assert (gate["error"], gate["witness"]) == ("hypothesis_violated", "a0")
    assert "seed edge (x0, T1 x0)" in gate["message"]
    report = json.loads(seed0[0][1])
    contraction = report["contraction"]
    # of the 16 pairs of A x B, the 12 with an edge (x, Ty) or (Ty, x) within A
    assert not contraction["all_pairs"] and contraction["checked_pairs"] == 12
    assert contraction["violations"]
    checks = {**report["predicates"], "t2_preserves_edges": report["t2_preserves_edges"]}
    assert {name: check.get("witness") for name, check in checks.items() if not check["ok"]} == {
        "g_chebyshev": ["a0", "b0"],
        "star_union": ["a0", "a1", "a2"],
        "star_a": ["a0", "a1", "a2"],
        "star_b": ["b2", "b0", "b3"],
        "t2_preserves_edges": ["a1", "a2", "a3", "a0"],
    }


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "0"), ("--alpha", "nan"), ("--alpha", "inf"), ("--alpha", "-1"),
    ("--T", "nan"), ("--T", "inf"), ("--T", "0"),
    ("--h", "nan"), ("--h", "inf"), ("--h", "0"), ("--h", "-1"),
    ("--w0", "const:nan"), ("--w0", "const:inf"), ("--w0", "const:-inf"),
])
def test_solve_pbvp_non_finite_or_non_positive_number_is_an_input_error(capsys, flag,
                                                                        value):
    argv = {"--rhs": '{"kind":"linear","a":-1.0}', "--alpha": "2.0", "--h": "1.0",
            "--N": "11", "--w0": "const:-1", flag: value}
    assert_input_error(capsys, ["solve-pbvp"] + [a for kv in argv.items() for a in kv])


@pytest.mark.parametrize("flag", ["map", "t1"])
def test_map_entry_naming_an_unknown_point_is_an_input_error(capsys, tmp_path, ex22_files,
                                                             ex41_files, flag):
    _, p22 = ex22_files
    paths, argv_of = (p22, verify_argv) if flag == "map" else (ex41_files, fixed_point_argv)
    doc = json.loads(open(paths[flag]).read())
    first = sorted(doc["map"])[0]
    doc["map"][first] = "nowhere"
    bad = tmp_path / f"unknown_{flag}.json"
    bad.write_text(json.dumps(doc))
    assert_input_error(capsys, argv_of(dict(paths, **{flag: str(bad)})))
    assert main(argv_of(dict(paths, **{flag: str(bad)}))) == 2
    err = capsys.readouterr().err
    assert err.count("input error:") == 1 and err.count("\n") == 1
    assert f"{first!r} -> 'nowhere' references unknown point" in err


@pytest.mark.parametrize("flag", ["t1", "t2", "psi"])
def test_strict_covers_every_fixed_point_document(capsys, tmp_path, ex41_files, flag):
    doc = json.loads(open(ex41_files[flag]).read())
    junk = tmp_path / f"junk_{flag}.json"
    junk.write_text(json.dumps(dict(doc, junk=1)))
    argv = fixed_point_argv(dict(ex41_files, **{flag: str(junk)}))
    assert_input_error(capsys, argv + ["--strict"])
    assert main(argv) == 0
    err = capsys.readouterr().err
    # a psi file is one psi spec: a stray name is a parameter that nothing reads
    what = "constant psi parameter" if flag == "psi" else "map file"
    assert err == f"warning: unknown {what} field(s): ['junk']\n"


def test_unknown_fields_warn_on_one_line_each(capsys, tmp_path, ex22_files):
    _, p = ex22_files
    instance = json.loads(open(p["instance"]).read())
    instance["flavor"] = "vanilla"
    instance["points"][0]["colour"] = "red"
    path = tmp_path / "instance_extra.json"
    path.write_text(json.dumps(instance))
    assert main(["verify", "--instance", str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().err == (
        "warning: unknown instance field(s): ['flavor']\n"
        "warning: unknown point field(s): ['colour']\n")
    assert_input_error(capsys, ["verify", "--instance", str(path), "--strict"])


def pbvp_argv(**specs):
    argv = {"--rhs": '{"kind":"linear","a":-1.0}', "--alpha": "2.0", "--h": "1.0",
            "--N": "11", "--w0": "const:-1", **{f"--{k}": v for k, v in specs.items()}}
    return ["solve-pbvp"] + [a for kv in argv.items() for a in kv]


# a misspelled name in each spec family: (where it goes, the spec, the message)
MISSPELLED = {
    "gauge_object": ("phi1", {"kind": "floor_fraction", "params": {}, "colour": "red"},
                     "unknown floor_fraction gauge parameter field(s): ['colour']"),
    "gauge_params": ("phi2", {"kind": "identity", "params": {"c": 1.0}},
                     "unknown identity gauge parameter field(s): ['c']"),
    "psi_params": ("psi", {"schema": "1", "kind": "constant",
                           "params": {"value": 0.5, "vaule": 0.25}},
                   "unknown constant psi parameter field(s): ['vaule']"),
    "rhs_inline": ("rhs", '{"kind":"cosine_forced","a":-1,"amp":1,"frequency":2}',
                   "unknown cosine_forced rhs parameter field(s): ['frequency']"),
    "rhs_params": ("rhs", '{"kind":"linear","params":{"a":-1,"bb":1}}',
                   "unknown linear rhs parameter field(s): ['bb']"),
    "h_inline": ("h", '{"kind":"const","value":1,"vlaue":2}',
                 "unknown const h parameter field(s): ['vlaue']"),
    "h_params": ("h", '{"kind":"exp_gap","params":{"alpha":3,"beta":1}}',
                 "unknown exp_gap h parameter field(s): ['beta']"),
}


@pytest.mark.parametrize("case", sorted(MISSPELLED))
def test_a_misspelled_spec_parameter_warns_and_strict_rejects_it(capsys, tmp_path, ex22_files,
                                                                 ex41_files, case):
    where, spec, message = MISSPELLED[case]
    if where in ("phi1", "phi2"):
        _, p22 = ex22_files
        gauges = dict(json.loads(open(p22["gauges"]).read()), **{where: spec})
        path = tmp_path / "gauges.json"
        path.write_text(json.dumps(gauges))
        argv = verify_argv(dict(p22, gauges=str(path)))
    elif where == "psi":
        path = tmp_path / "psi.json"
        path.write_text(json.dumps(spec))
        argv = fixed_point_argv(dict(ex41_files, psi=str(path)))
    else:
        argv = pbvp_argv(alpha="4.0", **{where: spec})
    code, doc, err = run(capsys, argv)
    assert (code, err) == (0, f"warning: {message}\n")
    if argv[0] != "solve-pbvp":  # the subcommands that read JSON files have --strict
        code, doc, err = run(capsys, argv + ["--strict"])
        assert (code, doc, err) == (2, None, f"input error: {message}\n")


def test_an_overflowing_rhs_fails_without_numpy_warnings(capsys):
    # f = 1e308 e^t s overflows from w0 = 2: the failure document names the
    # node, and numpy prints nothing
    code, doc, err = run(capsys, pbvp_argv(rhs='{"kind":"exp_linear","c":1e308}', w0="const:2"))
    assert (code, err) == (1, "")
    assert doc["error"] == "evaluation_failure"
    assert doc["message"] == "right-hand side is not finite at t = 0.0, s = 2.0"


@pytest.mark.parametrize("h, message", [
    ("Infinity", "const h value must be finite, got inf"),
    ("-Infinity", "const h value must be finite, got -inf"),
    ("NaN", "const h value must be finite, got nan"),
    ('{"kind": null, "value": 1}', "h kind must be a string, got null"),
    ('{"kind": ["const"], "value": 1}', 'h kind must be a string, got ["const"]'),
    ('"1"', "const h value must be a number, got '1'"),
])
def test_a_plain_h_is_the_const_kind(capsys, h, message):
    argv = pbvp_argv()
    at = argv.index("--h")
    argv[at:at + 2] = [f"--h={h}"]  # so that -Infinity is not read as a flag
    code, doc, err = run(capsys, argv)
    assert (code, doc, err) == (2, None, f"input error: {message}\n")


def test_a_plain_h_solves_as_the_const_object(capsys):
    want = run(capsys, pbvp_argv(h='{"kind":"const","value":1.5}'))
    assert want[0] == 0 and run(capsys, pbvp_argv(h="1.5")) == want


def test_const_h_has_no_second_name_for_its_value(capsys):
    code, doc, err = run(capsys, pbvp_argv(h='{"kind":"const","c":1}'))
    assert (code, doc) == (2, None)
    assert err == ("warning: unknown const h parameter field(s): ['c']\n"
                   "input error: const h value must be a number, got None\n")


# side A: a0 (1, 0), a1 (2, 0), a2 (0, 0); side B: b0 (3, 2), b1 (3, 1), b2 (1, 2);
# l1, loops only.  d(A, B) = 2 is realised by (a0, b2) and (a1, b1), so A0 is
# {a0, a1} and B0 is {b1, b2}.  Every eligible pair meets the bound with
# phi1 = 0.05 s and phi2 = s, but T sends a1 to b0, outside B0.
A0_MISS = {
    "instance": {"schema": "1", "metric": "l1", "auto_loops": True, "points": [
        {"id": p, "coords": xy, "side": p[0].upper()} for p, xy in (
            ("a0", [1, 0]), ("a1", [2, 0]), ("a2", [0, 0]),
            ("b0", [3, 2]), ("b1", [3, 1]), ("b2", [1, 2]))]},
    "map": {"schema": "1", "map": {"a0": "b2", "a1": "b0", "a2": "b2",
                                   "b0": "a2", "b1": "a0", "b2": "a0"}},
    "gauges": {"schema": "1", "phi1": {"kind": "linear", "params": {"c": 0.05}},
               "phi2": {"kind": "identity"}},
}


@pytest.fixture
def a0_miss_files(tmp_path):
    paths = {}
    for kind, doc in A0_MISS.items():
        paths[kind] = tmp_path / f"a0_miss_{kind}.json"
        paths[kind].write_text(json.dumps(doc))
    return {k: str(v) for k, v in paths.items()}


def test_solve_bpp_contraction_gate_names_the_a0_pair(capsys, a0_miss_files):
    p = a0_miss_files
    code, doc, err = run(capsys, ["solve-bpp", "--instance", p["instance"], "--map", p["map"],
                                  "--gauges", p["gauges"], "--x0", "a0"])
    assert (code, err) == (1, "")
    assert doc["error"] == "hypothesis_violated"
    assert doc["witness"] == ["a1", "b0"]


def test_verify_reports_the_a0_pair(capsys, a0_miss_files):
    code, doc, _ = run(capsys, verify_argv(a0_miss_files))
    assert code == 1 and doc["verified"] is False
    con = doc["contraction"]
    assert con["holds"] is False and con["violations"] == []
    assert con["a0_witness"] == ["a1", "b0"]


@pytest.mark.parametrize("flag, key", [
    ("t1", "nowhere"), ("t1", "g_1/2"), ("t2", "nowhere"), ("t2", "f_1/2"),
])
def test_map_key_off_its_source_side_is_an_input_error(capsys, tmp_path, ex41_files,
                                                       flag, key):
    doc = json.loads(open(ex41_files[flag]).read())
    doc["map"][key] = "zero"
    bad = tmp_path / f"stray_{flag}.json"
    bad.write_text(json.dumps(doc))
    assert_input_error(capsys, fixed_point_argv(dict(ex41_files, **{flag: str(bad)})))
    assert main(fixed_point_argv(dict(ex41_files, **{flag: str(bad)}))) == 2
    assert f"{flag} has an entry for {key!r}, which is no point" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
@pytest.mark.parametrize("command", ["verify", "solve-bpp", "solve-fixed-point",
                                     "solve-pbvp"])
def test_tol_must_be_finite_and_non_negative(capsys, tmp_path, ex22_files, ex41_files,
                                             command, value):
    _, p22 = ex22_files
    argv = {
        "verify": verify_argv(p22) + ["--all-pairs"],
        "solve-bpp": ["solve-bpp", "--instance", p22["instance"], "--map", p22["map"],
                      "--x0", "f_1/2"],
        "solve-fixed-point": fixed_point_argv(ex41_files),
        "solve-pbvp": ["solve-pbvp", "--rhs", '{"kind":"linear","a":-1.0}',
                       "--alpha", "2.0", "--h", "1.0", "--N", "11", "--w0", "const:-1"],
    }[command]
    assert_input_error(capsys, argv + [f"--tol={value}"])
    assert main(argv + [f"--tol={value}"]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: --tol must be finite and >= 0, got {float(value)}\n"


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["solve-bpp", "solve-fixed-point", "solve-pbvp"])
def test_max_iter_must_be_positive(capsys, ex22_files, ex41_files, command, value):
    # before the check, a budget of no steps exited 1 as no_convergence
    _, p22 = ex22_files
    argv = {
        "solve-bpp": ["solve-bpp", "--instance", p22["instance"], "--map", p22["map"],
                      "--x0", "f_1/2"],
        "solve-fixed-point": fixed_point_argv(ex41_files),
        "solve-pbvp": ["solve-pbvp", "--rhs", '{"kind":"linear","a":-1.0}',
                       "--alpha", "2.0", "--h", "1.0", "--N", "11", "--w0", "const:-1"],
    }[command]
    code, doc, err = run(capsys, argv + [f"--max-iter={value}"])
    assert (code, doc) == (2, None)
    assert err == f"input error: --max-iter must be >= 1, got {value}\n"


def test_solve_pbvp_failure_goes_to_the_report_and_never_to_the_csv(capsys, tmp_path):
    sol, rep = tmp_path / "solution.csv", tmp_path / "report.json"
    argv = ["solve-pbvp", "--rhs", '{"kind":"linear","a":-1.0}', "--alpha", "2.0",
            "--h", "3.0", "--N", "11", "--w0", "const:-1", "--out", str(sol)]
    code, doc, err = run(capsys, argv)
    assert (code, err) == (1, "")
    assert doc["error"] == "beta_not_contractive"
    assert main(argv + ["--report", str(rep)]) == 1
    assert capsys.readouterr().out == ""
    assert json.loads(rep.read_text()) == doc
    assert not sol.exists()


ERROR_CLASSES = sorted((k for k in vars(errors).values()
                        if isinstance(k, type) and issubclass(k, errors.ProxigraphError)
                        and k is not errors.ProxigraphError), key=lambda k: k.__name__)


def test_every_failure_slug_is_unchanged():
    assert {k.__name__: k.slug for k in ERROR_CLASSES if k.slug is not None} == {
        "BetaNotContractive": "beta_not_contractive",
        "ConditionIvViolated": "condition_iv_violated",
        "EvaluationFailure": "evaluation_failure",
        "GaugeClassViolation": "gauge_class_violation",
        "HypothesisViolated": "hypothesis_violated",
        "MonotonicityBroken": "monotonicity_broken",
        "NoConvergence": "no_convergence",
        "NotLowerSolution": "not_lower_solution",
        "SeedNotEligible": "hypothesis_violated",
    }


@pytest.mark.parametrize("klass", ERROR_CLASSES, ids=lambda k: k.__name__)
def test_every_error_class_has_an_exit_route(capsys, monkeypatch, klass):
    # each failure exits 2 as an input error or exits 1 under its own slug,
    # never under the catch-all "violation"
    def fail(args):
        raise klass("census")

    monkeypatch.setattr(cli, "_cmd_reproduce", fail)
    code, doc, err = run(capsys, ["reproduce", "ex22_kappa"])
    if code == 2:
        assert err.startswith("input error:") and doc is None
    else:
        assert code == 1 and err == ""
        assert doc["error"] != "violation"


@pytest.mark.parametrize("case", [
    "verify", "verify_violation", "solve-bpp", "solve-bpp_violation", "solve-fixed-point",
    "solve-pbvp_csv", "solve-pbvp_report", "solve-pbvp_violation", "reproduce",
    "reproduce_violation"])
def test_an_unwritable_output_path_is_an_input_error(capsys, tmp_path, ex22_files,
                                                     ex41_files, monkeypatch, case):
    # the run itself exits 0, or 1 with its report or violation document,
    # when the path can be written
    _, p22 = ex22_files
    path = str(tmp_path / "no_such_dir" / "out")
    _, ip, mp, gp = write_instance(tmp_path, "ex33_dyadic_l1", depth=6)
    pbvp = pbvp_argv()
    argv = {
        "verify": verify_argv(p22) + ["--out", path],
        "verify_violation": verify_argv(p22) + ["--all-pairs", "--out", path],
        "solve-bpp": ["solve-bpp", "--instance", ip, "--map", mp, "--x0", "a_1",
                      "--skip-hypothesis-checks", "--out", path],
        "solve-bpp_violation": ["solve-bpp", "--instance", ip, "--map", mp, "--gauges", gp,
                                "--x0", "a_1", "--out", path],
        "solve-fixed-point": fixed_point_argv(ex41_files) + ["--out", path],
        "solve-pbvp_csv": pbvp + ["--out", path],
        "solve-pbvp_report": pbvp + ["--report", path],
        "solve-pbvp_violation": pbvp_argv(h="3.0") + ["--report", path],
        "reproduce": ["reproduce", "ex22_kappa", "--out", path],
        "reproduce_violation": ["reproduce", "ex22_kappa", "--out", path],
    }[case]
    if case == "reproduce_violation":
        def fail(example_id, params):
            raise errors.NoConvergence("stopped")
        monkeypatch.setattr(cli.corpus, "reproduce", fail)
    assert_input_error(capsys, argv)
    assert not (tmp_path / "no_such_dir").exists()
    writable = argv[:-1] + [str(tmp_path / "out")]
    assert main(writable) == (1 if "violation" in case else 0)
    capsys.readouterr()
    assert (tmp_path / "out").stat().st_size > 0


def test_an_unwritable_output_path_is_named_with_its_reason(capsys, tmp_path):
    assert main(["reproduce", "ex22_kappa", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"input error: cannot write {tmp_path}: Is a directory\n"


def test_a_nan_table_knot_is_an_input_error(capsys, ex22_files, ex41_files, tmp_path):
    # a NaN phi2 value made every bound false, and verify --all-pairs passed
    _, p = ex22_files
    nan_phi2 = {"kind": "table", "params": {"knots": [[0, 0], [1, math.nan], [5, 5]]}}
    gauges = tmp_path / "nan_gauges.json"
    gauges.write_text(json.dumps({"schema": "1", "phi1": {"kind": "floor_fraction"},
                                  "phi2": nan_phi2}))
    assert_input_error(capsys, ["verify", "--instance", p["instance"], "--map", p["map"],
                                "--gauges", str(gauges), "--all-pairs"])
    psi = tmp_path / "nan_psi.json"
    psi.write_text(json.dumps({"schema": "1", "kind": "table",
                               "params": {"knots": [[0, 0.1], [math.nan, 0.2], [2, 0.5]]}}))
    assert_input_error(capsys, fixed_point_argv(dict(ex41_files, psi=str(psi))))
