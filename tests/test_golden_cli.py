"""CLI output pinned byte for byte.

The files under golden/ were captured from the command line before the space
became immutable and started keeping its derived structure; the outputs must
not change by a single byte.  Instance, map and gauge files are written from
the corpus the same way they were written then.
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
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"reproduce_{example_id}.json").read_bytes()


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
]


@pytest.mark.parametrize("golden, example_id, params, args, code", CASES,
                         ids=[c[0].removesuffix(".json") for c in CASES])
def test_report_file(tmp_path, golden, example_id, params, args, code):
    paths = write_inputs(tmp_path, example_id, **params)
    argv = [args[0], "--instance", paths["instance"]]
    for arg in args[1:]:
        argv.append(arg)
        if arg in ("--map", "--gauges"):
            argv.append(paths[arg[2:]])
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
