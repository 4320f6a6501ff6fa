"""Command line driver: exit codes, JSON traces, and deterministic output."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proxigraph import build, cli, errors
from proxigraph.cli import _emit, main
from proxigraph.cyclic_contraction import check_pair
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


def test_report_encoding_of_sets_and_numpy_values(capsys):
    _emit({"set": set("hcafbged"), "frozen": frozenset({2, 1}), "int": np.int64(3),
           "float32": np.float32(0.5), "float64": np.float64(0.1), "flag": np.bool_(True),
           "array": np.array([[1.5, 2.0]]), "pairs": ((1, 2),)}, None)
    assert json.loads(capsys.readouterr().out) == {
        "set": list("abcdefgh"), "frozen": [1, 2], "int": 3, "float32": 0.5,
        "float64": 0.1, "flag": True, "array": [[1.5, 2.0]], "pairs": [[1, 2]]}


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
    {"metric": "l1", "points": TWO_POINTS[:1]},
], ids=["one_element_edge", "ragged_table", "string_coords", "no_b_point"])
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
    assert out.err.startswith("input error:")
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
], ids=["one_element_knot", "top_level_list", "value_not_a_number"])
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
], ids=["c_not_a_number", "params_list", "table_value_not_a_number",
        "h_value_not_a_number", "h_alpha_not_a_number", "h_value_nan",
        "h_alpha_infinite", "h_value_missing", "h_value_negative"])
def test_malformed_pbvp_spec_is_an_input_error(capsys, flag, spec):
    argv = {"--rhs": '{"kind":"linear","a":-1.0}', "--alpha": "2.0", "--h": "1.0",
            "--w0": "const:-1", flag: spec}
    assert_input_error(capsys, ["solve-pbvp"] + [a for kv in argv.items() for a in kv])


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "0"), ("--alpha", "nan"), ("--alpha", "inf"), ("--alpha", "-1"),
    ("--T", "nan"), ("--T", "inf"), ("--T", "0"),
    ("--h", "nan"), ("--h", "inf"), ("--h", "0"), ("--h", "-1"),
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
    assert err == f"warning: unknown {'psi' if flag == 'psi' else 'map'} file field(s): ['junk']\n"


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
