"""CLI output pinned byte for byte.

The files under golden/ were captured from the command line before the space
became immutable and started keeping its derived structure; the outputs must
not change by a single byte.  Instance, map and gauge files are written from
the corpus the same way they were written then.  The solve-pbvp and
solve-fixed-point files were captured later, before the JSON readers, the two
Picard loops and the two squared-map walks were each merged into one.  The
reproduce files with builder parameters were captured before the reproduce
checks moved from the command line into the corpus records.  The four ex53
files (both reproduce files and both solve-pbvp reports, with the solution
CSV) were captured again when the PBVP operator moved from the dense
trapezoid kernel to exact product integration; each new solution is closer
to the closed form u = 0 than the one it replaced.  The solve-pbvp files of
the other rhs kinds (cosine_forced, linear as a pair, table) were captured
before each solve bound its right-hand sides to the grid once.  The ex33
depth-29 file with zero slack was captured with the `--strict-inequality`
flag, which was then dropped as a second name for `--tol 0`.  No golden
invocation writes to stderr: a documented input draws no unknown-field
warning.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from proxigraph import build
from proxigraph.cli import main

GOLDEN = Path(__file__).parent / "golden"

EXAMPLES = ["ex22_kappa", "ex33_dyadic_l1", "ex35_not_bpo", "ex41_fixed_point", "ex53_pbvp"]


def write_inputs(tmp_path, example_id, **params) -> dict[str, str]:
    inst = build(example_id, **params)
    docs = {"instance": inst.space.to_dict()}
    if hasattr(inst, "tmap"):
        docs["map"] = inst.tmap.to_dict()
        docs["gauges"] = {"schema": "1", "phi1": inst.phi1.to_dict(),
                          "phi2": inst.phi2.to_dict()}
    paths = {}
    for kind, doc in docs.items():
        paths[kind] = str(tmp_path / f"{example_id}_{kind}.json")
        Path(paths[kind]).write_text(json.dumps(doc))
    return paths


@pytest.mark.parametrize("example_id", EXAMPLES)
def test_reproduce_stdout(capsys, example_id):
    assert main(["reproduce", example_id]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode() == (GOLDEN / f"reproduce_{example_id}.json").read_bytes()


# (example, builder parameters): every builder at a non-default size
PARAM_CASES = [
    ("ex22_kappa", ["N=16"]),
    ("ex33_dyadic_l1", ["depth=8"]),
    ("ex35_not_bpo", ["depth=4"]),
    ("ex41_fixed_point", ["depth=4", "n_time=16"]),
    ("ex53_pbvp", ["n_nodes=101"]),
]


@pytest.mark.parametrize("example_id, params", PARAM_CASES,
                         ids=[c[0] for c in PARAM_CASES])
def test_reproduce_stdout_with_params(capsys, example_id, params):
    assert main(["reproduce", example_id, "--params", *params]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    name = "_".join([example_id] + [p.replace("=", "") for p in params])
    assert out.encode() == (GOLDEN / f"reproduce_{name}.json").read_bytes()


# (golden file, example, builder params, arguments after the input files, exit code)
CASES = [
    ("verify_ex22_N8_all_pairs.json", "ex22_kappa", {"N": 8},
     ["verify", "--map", "--gauges", "--all-pairs"], 1),
    ("verify_ex33_dyadic_l1.json", "ex33_dyadic_l1", {"depth": 4},
     ["verify", "--map", "--gauges"], 1),
    ("verify_ex35_not_bpo.json", "ex35_not_bpo", {"depth": 6},
     ["verify", "--map", "--gauges"], 1),
    ("verify_ex41_fixed_point.json", "ex41_fixed_point", {}, ["verify"], 0),
    ("solve_bpp_ex33_depth6_a_1.json", "ex33_dyadic_l1", {"depth": 6},
     ["solve-bpp", "--map", "--x0", "a_1", "--skip-hypothesis-checks"], 0),
    ("solve_bpp_ex35_depth6_seed_gate.json", "ex35_not_bpo", {"depth": 6},
     ["solve-bpp", "--map", "--x0", "a_1/2"], 1),
    ("verify_ex33_depth29_tol0.json", "ex33_dyadic_l1", {"depth": 29},
     ["verify", "--map", "--gauges", "--tol", "0"], 1),
]


@pytest.mark.parametrize("golden, example_id, params, args, code", CASES,
                         ids=[c[0].removesuffix(".json") for c in CASES])
def test_report_file(capsys, tmp_path, golden, example_id, params, args, code):
    paths = write_inputs(tmp_path, example_id, **params)
    argv = [args[0], "--instance", paths["instance"]]
    for arg in args[1:]:
        argv.append(arg)
        if arg in ("--map", "--gauges"):
            argv.append(paths[arg[2:]])
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def write_fixed_point_inputs(tmp_path) -> dict[str, str]:
    inst = build("ex41_fixed_point")
    docs = {"instance": inst.space.to_dict(),
            "t1": {"schema": "1", "map": dict(inst.pair.t1)},
            "t2": {"schema": "1", "map": dict(inst.pair.t2)},
            "psi": {"schema": "1", **inst.psi.to_dict()}}
    paths = {}
    for kind, doc in docs.items():
        paths[kind] = str(tmp_path / f"ex41_{kind}.json")
        Path(paths[kind]).write_text(json.dumps(doc))
    return paths


def test_solve_fixed_point_report(capsys, tmp_path):
    p = write_fixed_point_inputs(tmp_path)
    out = tmp_path / "report.json"
    assert main(["solve-fixed-point", "--instance", p["instance"], "--t1", p["t1"],
                 "--t2", p["t2"], "--psi", p["psi"], "--x0", "f_1/2",
                 "--strengthened", "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == (GOLDEN / "solve_fixed_point_ex41.json").read_bytes()


EX53_RHS = '{"kind":"exp_linear","c":-1.0}'
EX53_ARGV = ["--rhs", EX53_RHS, "--alpha", "7.389056098930650", "--h", '{"kind":"exp_gap"}',
             "--w0", "const:-1"]
LINEAR_RHS = '{"kind":"linear","a":-1.0,"b":1.0}'
# unequal t-segments and s-slopes, and the same row at t = 0 and t = 1
TABLE_RHS = ('{"kind":"table","t_nodes":[0.0,0.25,1.0],"s_nodes":[-2.0,0.0,2.0],'
             '"values":[[3.0,1.0,-1.5],[1.5,-0.5,-2.5],[3.0,1.0,-1.5]]}')


# (report golden, solution golden, arguments) at T = 1, N = 201: ex53 as one
# problem and as a pair, whose solution is the same to the byte, and each
# other rhs kind
PBVP_CASES = [
    ("solve_pbvp_ex53_N201_report.json", "solve_pbvp_ex53_N201_solution.csv", EX53_ARGV),
    ("solve_pbvp_ex53_N201_common_report.json", "solve_pbvp_ex53_N201_solution.csv",
     EX53_ARGV + ["--f2", EX53_RHS]),
    ("solve_pbvp_cosine_forced_N201_report.json", "solve_pbvp_cosine_forced_N201_solution.csv",
     ["--rhs", '{"kind":"cosine_forced","a":-1.0,"amp":1.0,"freq":1.0}', "--alpha", "2.0",
      "--h", "1.0", "--w0", "const:-1"]),
    ("solve_pbvp_linear_common_N201_report.json", "solve_pbvp_linear_common_N201_solution.csv",
     ["--rhs", LINEAR_RHS, "--f2", LINEAR_RHS, "--alpha", "2.0", "--h", "1.0",
      "--w0", "const:0"]),
    ("solve_pbvp_table_N201_report.json", "solve_pbvp_table_N201_solution.csv",
     ["--rhs", TABLE_RHS, "--alpha", "2.0", "--h", "1.0", "--w0", "const:-1.5"]),
]


@pytest.mark.parametrize("golden, csv, args", PBVP_CASES,
                         ids=[c[0].removesuffix("_report.json") for c in PBVP_CASES])
def test_solve_pbvp_report_and_solution(capsys, tmp_path, golden, csv, args):
    report, solution = tmp_path / "report.json", tmp_path / "solution.csv"
    assert main(["solve-pbvp", *args, "--T", "1.0", "--N", "201", "--out", str(solution),
                 "--report", str(report)]) == 0
    assert capsys.readouterr() == ("", "")
    assert report.read_bytes() == (GOLDEN / golden).read_bytes()
    assert solution.read_bytes() == (GOLDEN / csv).read_bytes()
