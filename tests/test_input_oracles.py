"""Fuzzed instance, map and spec documents, and metamorphic relations of `verify`.

A fuzzed pair of documents starts valid; one value at a random path is then
replaced by any JSON value, or deleted.  `verify` runs on it in process
through `cli.main`, and must keep the exit-code contract: 0, 1 or 2, no
traceback, and an exit 2 reported on exactly one `input error:` line.  A
fuzzed gauge, psi, rhs or h spec starts from a valid one of its kind, laid
out in either way, and keeps the same contract through the command that
reads it; a parameter that its kind reads and that holds NaN or an infinity
must be an input error.  The metamorphic relations rewrite valid documents
in ways that must not change what they mean, so `verify` must answer as
before.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from proxigraph import (
    CyclicMapTable,
    FiniteMetricGraph,
    check_cardinality,
    check_property_star,
    component_of,
    components,
    enumerate_bpps,
    has_property_uc,
    is_g_chebyshev,
    is_sharp_proximal,
    is_weakly_connected,
    iterate_orbit,
    pair_distance,
    solve_bpp,
    verify_g_cyclic_contraction,
    verify_t2_preserves_edges,
)
from proxigraph.cli import main
from proxigraph.corpus import (
    build_ex22_kappa,
    build_ex33_dyadic_l1,
    build_ex35_not_bpo,
    build_ex41_fixed_point,
    build_random_chain,
)

# point ids: strings, among them what str() once made of a null or a
# boolean, and integers
ID_POOL = ("a", "b", "None", "True", "False", 3, 4)

GAUGES = {"schema": "1", "phi1": {"kind": "linear", "params": {"c": 0.5}},
          "phi2": {"kind": "identity"}}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=2),
    max_leaves=4)
# any JSON value, and often one that str() once read as a point's name
REPLACEMENTS = st.sampled_from([None, True, False]) | JSON_VALUES


def run_main(argv):
    """cli.main on argv, in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_verify(folder, instance, mapping, *flags):
    """verify on the instance and map documents, with the gauges above, in
    process: its exit code, stdout and stderr."""
    argv = ["verify"]
    for name, doc in (("instance", instance), ("map", mapping), ("gauges", GAUGES)):
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{name}", str(path)]
    return run_main(argv + list(flags))


def assert_exit_contract(code, out, err, strict):
    """0, 1 or 2, no traceback, and an exit 2 with no report and one
    `input error:` line, after one `warning:` line per unknown name unless
    strict made the first of them the error."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    lines = err.splitlines(keepends=True)
    if code == 2:
        assert out == ""
        assert [line for line in lines if not line.startswith("warning: ")] == lines[-1:]
        assert lines[-1].startswith("input error:") and lines[-1].endswith("\n")
        assert len(lines) == 1 or not strict
    else:
        assert all(line.startswith("warning: ") for line in lines)


@st.composite
def valid_documents(draw):
    """A valid l1 or table instance document of 2 to 6 points on sides A and
    B, and a map document of a cyclic map on it."""
    n = draw(st.integers(2, 6))
    sides = ["A", "B"] + draw(st.lists(st.sampled_from("AB"), min_size=n - 2, max_size=n - 2))
    ids = draw(st.lists(st.sampled_from(ID_POOL), min_size=n, max_size=n, unique=True))
    xy = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       min_size=n, max_size=n))
    pairs = [[x, y] for x in ids for y in ids if x != y]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=8))
    doc = {"schema": "1", "metric": "l1", "auto_loops": True, "edges": edges,
           "points": [{"id": p, "coords": list(c), "side": s}
                      for p, c, s in zip(ids, xy, sides)]}
    if draw(st.booleans()):
        doc["metric"] = "table"
        doc["dist_table"] = [[float(abs(a - c) + abs(b - d)) for c, d in xy] for a, b in xy]
    onto = {s: [p for p, t in zip(ids, sides) if t != s] for s in "AB"}
    mapping = {str(p): draw(st.sampled_from(onto[s])) for p, s in zip(ids, sides)}
    return doc, {"schema": "1", "map": mapping}


def paths(value, prefix=()):
    """The path, as keys and indices, of every value nested in value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield prefix + (key,)
        yield from paths(inner, prefix + (key,))


@st.composite
def fuzzed_documents(draw):
    """valid_documents with one value in one of them replaced or deleted."""
    docs = draw(valid_documents())
    target = docs[draw(st.integers(0, 1))]
    path = draw(st.sampled_from(list(paths(target))))
    parent = target
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(REPLACEMENTS)
    return docs


def is_id(value) -> bool:
    return isinstance(value, str) or isinstance(value, int) and not isinstance(value, bool)


def names_a_non_id(instance, mapping) -> bool:
    """Whether a point record, an edge of two ends or a map entry holds a
    value that is no point id."""
    points, edges, table = instance.get("points"), instance.get("edges"), mapping.get("map")
    ids = []
    if isinstance(points, list):
        ids += [rec["id"] for rec in points if isinstance(rec, dict) and "id" in rec]
    if isinstance(edges, list):
        ids += [end for e in edges if isinstance(e, list) and len(e) == 2 for end in e]
    if isinstance(table, dict):
        ids += table.values()
    return not all(map(is_id, ids))


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(valid_documents())
@settings(max_examples=40, deadline=None)
def test_the_fuzz_starts_from_valid_documents(folder, docs):
    code, out, err = run_verify(folder, *docs)
    assert code in (0, 1) and err == "" and json.loads(out)["n_points"] >= 2


@given(fuzzed_documents())
@settings(max_examples=200, deadline=None)
def test_fuzzed_documents_keep_the_exit_code_contract(folder, docs):
    # under --strict an unknown field is the input error; otherwise each is
    # one warning line before the outcome
    for flags in (("--strict",), ()):
        code, out, err = run_verify(folder, *docs, *flags)
        assert_exit_contract(code, out, err, bool(flags))
        if names_a_non_id(*docs):
            assert code == 2, err


# ----- fuzzed specs ------------------------------------------------------

# a valid spec of each kind, by family, as its kind's parameters
SPECS = {
    "gauge": {"linear": {"c": 0.5}, "affine_shift": {"c": 0.0}, "floor_fraction": {},
              "identity": {}, "table": {"knots": [[0, 0], [1, 0.5]]}},
    "psi": {"constant": {"value": 0.5}, "table": {"knots": [[0, 0.25], [1, 0.5]]}},
    "rhs": {"linear": {"a": -1, "b": 1}, "exp_linear": {"c": -1},
            "cosine_forced": {"a": -1, "amp": 1, "freq": 1},
            "table": {"t_nodes": [0, 1], "s_nodes": [-2, 2], "values": [[2, -2], [2, -2]]}},
    "h": {"const": {"value": 1}, "exp_gap": {"alpha": 3}},
}

# values that the number rule refuses or that no bound should accept, and a few plain ones
ODD = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1.0, 0.0, 2, True, False,
                       None, "0.5", "x", [], [[1.0]], {"c": 1}])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# each a fresh copy, so that a later change in place leaves ODD as it is; a
# non-finite number in one draw of four, so that a bound that lets one pass shows
VALUES = (NON_FINITE | ODD | st.floats(-3, 3)
          | st.lists(NON_FINITE | ODD | st.floats(-3, 3), max_size=3)).map(
    lambda v: json.loads(json.dumps(v)))
# a name that no kind reads, names that some kind reads, and one that is no parameter
NAMES = ("colour", "c", "value", "knots", "alpha", "freq", "t_nodes", "schema")


@st.composite
def fuzzed_specs(draw):
    """A family and a spec of it: a known or an unknown kind, or a kind that
    is no string, with a valid kind's parameters, changed at up to two places
    (a name added, or at any depth a value dropped, replaced, or replaced by
    NaN or an infinity), then laid out in 'params', beside 'kind' or split
    between them, now and then with a name given both ways, and in one draw
    of four with a version beside 'kind'; once in ten draws no object at all."""
    family = draw(st.sampled_from(sorted(SPECS)))
    # a known kind four times as often as each unknown one or each that is no string
    kind = draw(st.sampled_from([*sorted(SPECS[family]) * 4, "cubic", None, True, 3,
                                 ["linear"]]))
    known = SPECS[family].get(kind, {"c": 1}) if isinstance(kind, str) else {"c": 1}
    params = json.loads(json.dumps(known))  # a deep copy
    for _ in range(draw(st.integers(0, 2))):
        where = list(paths(params))
        # a non-finite value three times as often as each other change
        how = draw(st.sampled_from(["add", "drop", "replace", *["non-finite"] * 3]))
        if how == "add" or not where:
            params[draw(st.sampled_from(NAMES))] = draw(VALUES)
            continue
        path = draw(st.sampled_from(where))
        parent = params
        for key in path[:-1]:
            parent = parent[key]
        if how == "drop":
            del parent[path[-1]]
        else:
            # a non-finite value where the kind reads one must be refused
            parent[path[-1]] = draw(NON_FINITE if how == "non-finite" else VALUES)
    beside = draw(st.lists(st.sampled_from(sorted(params)), unique=True)) if params else []
    twice = draw(st.lists(st.sampled_from(beside), max_size=1)) if beside else []
    spec = {"kind": kind, **{k: params[k] for k in beside}}
    if len(beside) < len(params) or twice or draw(st.booleans()):
        spec["params"] = {k: v for k, v in params.items() if k not in beside or k in twice}
    if draw(st.integers(0, 3)) == 0:
        spec["schema"] = draw(st.sampled_from(["1", "7", 1, None]))
    if draw(st.integers(0, 9)) == 9:
        spec = draw(VALUES)
    return family, spec, draw(st.booleans())


def holds_a_non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    return isinstance(value, list) and any(map(holds_a_non_finite, value))


def reads_a_non_finite(family, spec) -> bool:
    """Whether a parameter that the spec's known kind reads holds NaN or an
    infinity, at any depth, or an h given as a number is one."""
    if not isinstance(spec, dict):
        return family == "h" and holds_a_non_finite(spec)
    kinds, params = SPECS[family], spec.get("params", {})
    if not isinstance(spec.get("kind"), str) or spec["kind"] not in kinds \
            or not isinstance(params, dict):
        return False
    params = {**params, **spec}
    return any(holds_a_non_finite(params.get(k)) for k in kinds[spec["kind"]])


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    """The ex22 N = 8 instance, map and gauges and the ex41 instance, maps
    and psi, as files, and the folder they are in."""
    folder = tmp_path_factory.mktemp("specs")
    ex22, ex41 = build_ex22_kappa(8), build_ex41_fixed_point()
    docs = {"instance22": ex22.space.to_dict(),
            "map": {"schema": "1", "map": dict(ex22.tmap.mapping)},
            "instance41": ex41.space.to_dict(),
            "t1": {"schema": "1", "map": dict(ex41.pair.t1)},
            "t2": {"schema": "1", "map": dict(ex41.pair.t2)}}
    files = {"folder": folder}
    for name, doc in docs.items():
        files[name] = folder / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    files["gauges"] = {"schema": "1", "phi1": ex22.phi1.to_dict(), "phi2": ex22.phi2.to_dict()}
    return files


def spec_argv(files, family, spec, first):
    """The command that reads spec: verify with it as phi1 (first) or phi2,
    solve-fixed-point with it as the psi file, or solve-pbvp at N = 11 with
    it as --rhs (first) or --f2, or as --h."""
    if family in ("gauge", "psi"):
        path = files["folder"] / "spec.json"
        doc = ({**files["gauges"], "phi1" if first else "phi2": spec} if family == "gauge"
               else {"schema": "1", **spec} if isinstance(spec, dict) else spec)
        path.write_text(json.dumps(doc))
    if family == "gauge":
        return ["verify", "--instance", str(files["instance22"]), "--map", str(files["map"]),
                "--gauges", str(path)]
    if family == "psi":
        return ["solve-fixed-point", "--instance", str(files["instance41"]),
                "--t1", str(files["t1"]), "--t2", str(files["t2"]), "--psi", str(path),
                "--x0", "f_1/2"]
    flags = {"--rhs": '{"kind":"linear","a":-1,"b":1}', "--h": "1"}
    flags["--h" if family == "h" else "--rhs" if first else "--f2"] = json.dumps(spec)
    # flag=value, so that a value such as -1 is not read as a flag
    return ["solve-pbvp", "--alpha", "4", "--N", "11", "--w0", "const:-1", "--max-iter", "200",
            *[f"{flag}={value}" for flag, value in flags.items()]]


@given(fuzzed_specs())
@settings(max_examples=400, deadline=None)
def test_fuzzed_specs_keep_the_exit_code_contract(spec_files, drawn):
    family, spec, first = drawn
    argv = spec_argv(spec_files, family, spec, first)
    # solve-pbvp reads no file, so it has no --strict
    for flags in ((), ("--strict",)) if family in ("gauge", "psi") else ((),):
        code, out, err = run_main(argv + list(flags))
        assert_exit_contract(code, out, err, bool(flags))
        if reads_a_non_finite(family, spec) or breaks_kind_or_version(spec):
            assert code == 2, err
        if isinstance(spec, dict) and spec.get("kind", "") is None and lays_out(spec):
            assert "kind must be a string, got null" in err, err


def breaks_kind_or_version(spec) -> bool:
    """Whether spec is an object with a 'kind' that is no string, or with a
    'schema' that is not the string "1"."""
    return isinstance(spec, dict) and "kind" in spec and (
        not isinstance(spec["kind"], str) or spec.get("schema", "1") != "1")


def lays_out(spec) -> bool:
    """Whether the object spec is read as far as its kind: its 'params' is
    an object, its version "1" if given, and no name is given both ways."""
    params = spec.get("params", {})
    return (isinstance(params, dict) and spec.get("schema", "1") == "1"
            and not params.keys() & (spec.keys() - {"kind", "params", "schema"}))


# ----- versions, repeated names and non-finite numbers in each document ----

PSI = {"schema": "1", "kind": "constant", "value": 0.5}
# what each document's version error calls it
VERSION_NAMES = {"instance": "instance", "map": "map file", "gauges": "gauge file", "psi": "psi"}


def documents_argv(files, which, change):
    """verify on the ex22 documents, or for the psi file solve-fixed-point on
    ex41's, with the document which written as change(its JSON text), and
    that document's path."""
    texts = {"instance": files["instance22"].read_text(), "map": files["map"].read_text(),
             "gauges": json.dumps(files["gauges"]), "psi": json.dumps(PSI)}
    paths = {}
    for name, text in texts.items():
        paths[name] = files["folder"] / f"read_{name}.json"
        paths[name].write_text(change(text) if name == which else text)
    argv = (["verify", "--instance", paths["instance"], "--map", paths["map"],
             "--gauges", paths["gauges"]] if which != "psi" else
            ["solve-fixed-point", "--instance", files["instance41"], "--t1", files["t1"],
             "--t2", files["t2"], "--psi", paths["psi"], "--x0", "f_1/2"])
    return list(map(str, argv)), paths[which]


def with_a_non_finite_number(which, text):
    """The document with NaN where it holds a number: the first point's
    coords of the table space, phi1's c or the psi value."""
    doc = json.loads(text)
    if which == "instance":
        doc["points"][0]["coords"] = [math.nan, 0.0]
    elif which == "gauges":
        doc["phi1"] = {"kind": "linear", "c": math.nan}
    else:
        doc["value"] = math.nan
    return json.dumps(doc)


@pytest.mark.parametrize("which", sorted(VERSION_NAMES))
def test_each_document_refuses_another_version_a_repeated_name_and_nan(spec_files, which):
    for flags in ((), ("--strict",)):
        argv, path = documents_argv(spec_files, which, lambda t: t)
        assert run_main(argv + list(flags))[0] == 0
        argv, _ = documents_argv(spec_files, which,
                                 lambda t: json.dumps({**json.loads(t), "schema": "7"}))
        got = run_main(argv + list(flags))
        assert got == (2, "", f"input error: unsupported {VERSION_NAMES[which]} schema "
                              "version '7'\n")
        # the first name, "schema", given twice with the same value
        argv, _ = documents_argv(spec_files, which,
                                 lambda t: t.replace('{"schema": "1"', '{"schema": "1", '
                                                     '"schema": "1"', 1))
        got = run_main(argv + list(flags))
        assert got == (2, "", f"input error: invalid JSON in {path}: a JSON object has two "
                              "entries for 'schema'\n")
        if which != "map":  # a map file holds no number
            argv, _ = documents_argv(spec_files, which,
                                     lambda t: with_a_non_finite_number(which, t))
            code, out, err = run_main(argv + list(flags))
            assert (code, out) == (2, "") and err.count("\n") == 1
            assert err.startswith("input error: ") and "nan" in err and "finite" in err


def test_a_name_given_twice_in_rhs_is_an_input_error():
    rhs = '{"kind": "linear", "a": -1, "a": 2}'
    argv = ["solve-pbvp", "--alpha", "4", "--N", "11", "--h", "1", "--w0", "const:-1"]
    for flag in ("--rhs", "--f2"):
        specs = {"--rhs": '{"kind": "linear", "a": -1}', flag: rhs}
        got = run_main(argv + [f"{k}={v}" for k, v in specs.items()])
        assert got == (2, "", f"input error: {flag}: a JSON object has two entries for 'a'\n")


# ----- metamorphic relations ---------------------------------------------


def bases():
    chains = [build_random_chain(seed) for seed in (0, 3, 7, 11, 19)]
    return [build_ex22_kappa(8), build_ex33_dyadic_l1(4), build_ex35_not_bpo(4), *chains]


def instance_document(space) -> dict:
    """The space as an instance document, every edge listed, loops too."""
    if space.metric == "table":
        return space.to_dict()
    return {"schema": "1", "metric": space.metric, "auto_loops": False,
            "edges": sorted([x, y] for x, y in space.edges),
            "points": [{"id": p, "coords": list(space.coords[p]), "side": space.side[p]}
                       for p in space.ids]}


@pytest.mark.parametrize("inst", bases(), ids=lambda inst: inst.example_id)
def test_edge_list_rewrites_leave_the_report_byte_identical(tmp_path, inst):
    rng = random.Random(inst.example_id)
    doc, mapping = instance_document(inst.space), {"schema": "1", "map": dict(inst.tmap.mapping)}
    shuffled = rng.sample(doc["edges"], len(doc["edges"]))
    repeated = shuffled + rng.sample(shuffled, len(shuffled) // 2)
    loops = {"auto_loops": True, "edges": [[x, y] for x, y in shuffled if x != y]}
    for flags in ((), ("--all-pairs",)):
        want = run_verify(tmp_path, doc, mapping, *flags)
        assert want[0] in (0, 1) and want[2] == ""
        for edges in ({"edges": shuffled}, {"edges": repeated}, loops):
            assert run_verify(tmp_path, {**doc, **edges}, mapping, *flags) == want


def verdicts(folder, doc, mapping):
    """What a permutation of the points must keep: the verify report's d(A,B),
    predicate verdicts and contraction sweep, the components and the BPP set."""
    code, out, _ = run_verify(folder, doc, mapping, "--all-pairs")
    report = json.loads(out)
    con = report["contraction"]
    space = FiniteMetricGraph.from_dict(doc)
    tmap = CyclicMapTable.for_space(space, mapping["map"])
    return (code, report["d_ab"], {k: v["ok"] for k, v in report["predicates"].items()},
            con["holds"], con["checked_pairs"], sorted(map(tuple, con["violations"])),
            components(space), enumerate_bpps(space, tmap))


def moved_document(doc, order):
    """doc with its points, and the rows and columns of its table, in order."""
    moved = {**doc, "points": [doc["points"][i] for i in order]}
    if "dist_table" in doc:
        moved["dist_table"] = [[doc["dist_table"][i][j] for j in order] for i in order]
    return moved


@pytest.mark.parametrize("inst", bases(), ids=lambda inst: inst.example_id)
def test_permuting_the_points_keeps_every_verdict(tmp_path, inst):
    rng = random.Random(inst.example_id)
    doc, mapping = instance_document(inst.space), {"schema": "1", "map": dict(inst.tmap.mapping)}
    want = verdicts(tmp_path, doc, mapping)
    for _ in range(3):
        order = rng.sample(range(len(doc["points"])), len(doc["points"]))
        assert verdicts(tmp_path, moved_document(doc, order), mapping) == want


def space_verdicts(space):
    """The predicate verdicts of a space, with each witness that is named in
    sorted id order; the sharp-proximal and UC witnesses follow input order."""
    return (pair_distance(space), is_sharp_proximal(space).ok, has_property_uc(space).ok,
            is_g_chebyshev(space), check_property_star(space),
            check_property_star(space, space.side_a()), is_weakly_connected(space),
            components(space))


@pytest.mark.parametrize("inst", bases(), ids=lambda inst: inst.example_id)
def test_relabelling_the_input_keeps_the_space(inst):
    # the points and the edges listed in another order, one edge twice: the
    # same edges, coordinates, document up to the point order, and verdicts
    rng = random.Random(inst.example_id)
    doc = instance_document(inst.space)
    space = FiniteMetricGraph.from_dict(doc)
    edges = rng.sample(doc["edges"], len(doc["edges"]))
    edges.append(rng.choice(edges))
    want = json.dumps(space.to_dict())
    again = FiniteMetricGraph.from_dict({**doc, "edges": edges})
    assert json.dumps(again.to_dict()) == want
    for _ in range(3):
        order = rng.sample(range(len(doc["points"])), len(doc["points"]))
        moved = FiniteMetricGraph.from_dict({**moved_document(doc, order), "edges": edges})
        assert moved.ids != space.ids or len(order) < 2
        assert moved.edges == space.edges and moved.coords == space.coords
        assert json.dumps(moved.to_dict()) == json.dumps(moved_document(space.to_dict(), order))
        assert space_verdicts(moved) == space_verdicts(space)


FAR = 2.0 ** 20  # a height far above every chain, exact in floats


def with_a_far_pair(inst):
    """inst's space and map with a' = (0, 2^20) on A and b' = (1, 2^20) on B
    added: the edge a' -> b', their loops, and T swapping the two.  Under l1,
    d(a', b') = 1 = d(A, B) exactly, and no other pair is near them."""
    sp = inst.space
    points = [(p, sp.coords[p], sp.side[p]) for p in sp.ids]
    points += [("far_a", (0.0, FAR), "A"), ("far_b", (1.0, FAR), "B")]
    space = FiniteMetricGraph.from_coords(points, metric="l1",
                                          edges=[*sp.edges, ("far_a", "far_b")])
    mapping = {**inst.tmap.mapping, "far_a": "far_b", "far_b": "far_a"}
    return space, CyclicMapTable.for_space(space, mapping)


def predicate_answers(space, tmap):
    checks = (is_sharp_proximal(space), is_g_chebyshev(space), has_property_uc(space),
              check_property_star(space), check_property_star(space, space.side_a()),
              check_property_star(space, space.side_b()), verify_t2_preserves_edges(space, tmap))
    return [(c.ok, c.witness) for c in checks]


@pytest.mark.parametrize("seed", range(20))
def test_a_far_away_proximal_pair_adds_only_itself(seed):
    inst = build_random_chain(seed)
    base, bmap = inst.space, inst.tmap
    space, tmap = with_a_far_pair(inst)
    assert pair_distance(space) == pair_distance(base) == 1.0
    assert enumerate_bpps(space, tmap) == enumerate_bpps(base, bmap) | {"far_a"}
    nb, nc, ok = check_cardinality(base, bmap)
    assert check_cardinality(space, tmap) == (nb + 1, nc + 1, ok)
    # the sweep's bound at (a', b') is exactly 1, so the pair passes
    sweep, want = (verify_g_cyclic_contraction(sp, m, inst.phi1, inst.phi2)
                   for sp, m in ((space, tmap), (base, bmap)))
    assert sweep.checked_pairs == want.checked_pairs + 1
    assert (sweep.holds, sweep.violations, sweep.a0_witness) == (
        want.holds, want.violations, want.a0_witness)
    assert predicate_answers(space, tmap) == predicate_answers(base, bmap)
    for x0 in base.side_a():
        assert solve_bpp(space, tmap, x0) == solve_bpp(base, bmap, x0)
        assert iterate_orbit(space, tmap, x0) == iterate_orbit(base, bmap, x0)
        assert component_of(space, x0) == component_of(base, x0)
