"""Fuzzed instance and map documents, and metamorphic relations of `verify`.

A fuzzed pair of documents starts valid; one value at a random path is then
replaced by any JSON value, or deleted.  `verify` runs on it in process
through `cli.main`, and must keep the exit-code contract: 0, 1 or 2, no
traceback, and an exit 2 reported on exactly one `input error:` line.  The
metamorphic relations rewrite valid documents in ways that must not change
what they mean, so `verify` must answer as before.
"""
from __future__ import annotations

import contextlib
import io
import json
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


def run_verify(folder, instance, mapping, *flags):
    """verify on the instance and map documents, with the gauges above, in
    process: its exit code, stdout and stderr."""
    argv = ["verify"]
    for name, doc in (("instance", instance), ("map", mapping), ("gauges", GAUGES)):
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{name}", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + list(flags))
    return code, out.getvalue(), err.getvalue()


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
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        lines = err.splitlines(keepends=True)
        if code == 2:
            assert out == ""
            assert [line for line in lines if not line.startswith("warning: ")] == lines[-1:]
            assert lines[-1].startswith("input error:") and lines[-1].endswith("\n")
            assert len(lines) == 1 or not flags
        else:
            assert all(line.startswith("warning: ") for line in lines)
        if names_a_non_id(*docs):
            assert code == 2, err


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
