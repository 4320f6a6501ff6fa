"""Command line driver: exit codes, JSON traces, and deterministic output."""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

from proxigraph import build
from proxigraph.cli import main
from proxigraph.cyclic_contraction import check_pair
from proxigraph.corpus import build_ex41_fixed_point


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


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "proxigraph.cli", "reproduce", "ex35_not_bpo"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["all_pass"] is True


TWO_POINTS = [{"id": "a", "coords": [0.0, 0.0], "side": "A"},
              {"id": "b", "coords": [1.0, 0.0], "side": "B"}]


@pytest.mark.parametrize("doc", [
    {"metric": "l1", "points": TWO_POINTS, "edges": [["a"]]},
    {"metric": "table", "points": [{"id": "a", "side": "A"}, {"id": "b", "side": "B"}],
     "dist_table": [[0, 1], [1]]},
    {"metric": "l1", "points": [{"id": "a", "coords": "12", "side": "A"}, TWO_POINTS[1]]},
], ids=["one_element_edge", "ragged_table", "string_coords"])
def test_verify_rejects_malformed_instances(tmp_path, doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"schema": "1", "auto_loops": True, **doc}))
    proc = subprocess.run(
        [sys.executable, "-m", "proxigraph.cli", "verify", "--instance", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
