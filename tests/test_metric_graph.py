"""Finite metric graph construction, validation, and the graph predicates."""
from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from proxigraph import (
    EmptySide,
    FiniteMetricGraph,
    InstanceFormatError,
    UnknownPoint,
    check_property_star,
    component_of,
    components,
    has_property_uc,
    is_g_chebyshev,
    is_sharp_proximal,
    is_weakly_connected,
    pair_distance,
)
from proxigraph import metric_graph
from proxigraph.corpus import build_random_chain
from proxigraph.errors import UnknownField
from proxigraph.metric_graph import CheckResult


def square(metric="l2", edges=(), auto_loops=True):
    pts = [("a0", (0.0, 0.0), "A"), ("a1", (0.0, 1.0), "A"),
           ("b0", (1.0, 0.0), "B"), ("b1", (1.0, 1.0), "B")]
    return FiniteMetricGraph.from_coords(pts, metric=metric, edges=edges,
                                         auto_loops=auto_loops)


def test_metric_kinds_hand_values():
    pts = [("p", (0.0, 0.0), "A"), ("q", (3.0, 4.0), "B")]
    assert FiniteMetricGraph.from_coords(pts, metric="l1").d("p", "q") == 7.0
    assert FiniteMetricGraph.from_coords(pts, metric="l2").d("p", "q") == 5.0
    assert FiniteMetricGraph.from_coords(pts, metric="sup").d("p", "q") == 4.0


def test_unknown_metric_rejected():
    with pytest.raises(InstanceFormatError):
        square(metric="manhattan")


def test_loops_are_mandatory():
    with pytest.raises(InstanceFormatError, match="loop"):
        square(auto_loops=False)


def test_table_validation():
    ids = ["a", "b"]
    side = {"a": "A", "b": "B"}
    with pytest.raises(InstanceFormatError):  # asymmetric
        FiniteMetricGraph.from_table(ids, side, [[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InstanceFormatError):  # nonzero diagonal
        FiniteMetricGraph.from_table(ids, side, [[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(InstanceFormatError):  # negative entry
        FiniteMetricGraph.from_table(ids, side, [[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(InstanceFormatError):  # shape
        FiniteMetricGraph.from_table(ids, side, [[0.0]])


def test_triangle_inequality_enforced():
    ids = ["a", "b", "c"]
    side = {"a": "A", "b": "B", "c": "A"}
    # d(a, c) = 5 > d(a, b) + d(b, c) = 2
    table = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    with pytest.raises(InstanceFormatError, match="triangle"):
        FiniteMetricGraph.from_table(ids, side, table)


def test_edges_must_reference_known_points():
    with pytest.raises(InstanceFormatError):
        square(edges=[("a0", "ghost")])


def test_side_labels():
    with pytest.raises(InstanceFormatError):
        FiniteMetricGraph.from_coords([("p", (0.0,), "C")])
    sp = FiniteMetricGraph.from_coords(
        [("p", (0.0,), "AB"), ("q", (1.0,), "A"), ("r", (2.0,), "B")])
    assert "p" in sp.side_a() and "p" in sp.side_b()
    assert "q" in sp.side_a() and "q" not in sp.side_b()


def test_side_and_coords_entries_must_name_points():
    table = 1.0 - np.eye(2)
    for side, coords, what, stray in (({"a": "A", "b": "B", "zz": "A", "y": "B"}, None, "side", "y"),
                                      ({"a": "A", "b": "B"}, {"a": [0.0], 7: [1.0]}, "coords", "7")):
        with pytest.raises(InstanceFormatError,
                           match=f"^{what} has an entry for '{stray}', which is no point$"):
            FiniteMetricGraph.from_table(["a", "b"], side, table, coords=coords)


@pytest.mark.parametrize("side, coords, what", [
    ({1: "B", 0: "B", "0": "A", "1": "B"}, None, "side"),
    ({"0": "A", "1": "B"}, [("1", [1.0]), ("0", [0.0]), (0, [2.0])], "coords"),
], ids=["side_mapping", "coords_pairs"])
def test_side_and_coords_refuse_a_point_named_twice(side, coords, what):
    # the id rule reads the key 0 as the point "0" (and 1 as "1"), so each
    # names a point twice; the least such id is named
    with pytest.raises(InstanceFormatError, match=f"^{what} has two entries for '0'$"):
        FiniteMetricGraph.from_table(["0", "1"], side, 1.0 - np.eye(2), coords=coords)


def test_duplicate_ids_rejected():
    with pytest.raises(InstanceFormatError):
        FiniteMetricGraph.from_coords([("p", (0.0,), "A"), ("p", (1.0,), "B")])


def test_unknown_point_lookup():
    sp = square()
    with pytest.raises(UnknownPoint):
        sp.d("a0", "nope")


def test_pair_distance_geometry():
    sp = square()
    assert pair_distance(sp) == 1.0
    # the close pairs (a0, b0) and (a1, b1), by position on each side
    d_ab, rows, cols = metric_graph._closeness(sp)
    assert (d_ab, rows.tolist(), cols.tolist()) == (1.0, [0, 1], [0, 1])


def test_pair_distance_needs_both_sides():
    # and so does every predicate that reads the closeness of A x B pairs
    for side in "AB":
        sp = FiniteMetricGraph.from_coords([("p", (0.0,), side), ("q", (1.0,), side)])
        for check in (pair_distance, is_sharp_proximal, has_property_uc, is_g_chebyshev):
            with pytest.raises(EmptySide, match="needs nonempty A and B"):
                check(sp)


def test_closeness_verdicts_agree_at_the_last_ulp():
    # d(a1, b0) - d(A,B) is 1.0000889e-12, just above TOL_PARALLEL, while
    # 1.0 + TOL_PARALLEL rounds up to d: one rule decides it for every check
    d = 1.000000000001
    sp = FiniteMetricGraph.from_table(
        ["a0", "a1", "b0", "b1"], {"a0": "A", "a1": "A", "b0": "B", "b1": "B"},
        [[0, .5, 1, 2], [.5, 0, d, 2], [1, d, 0, 2.5], [2, 2, 2.5, 0]], [("a0", "b0")])
    d_ab, rows, cols = metric_graph._closeness(sp)
    assert (d_ab, rows.tolist(), cols.tolist()) == (1.0, [0], [0])
    assert is_g_chebyshev(sp) == CheckResult(True)
    # a1 has no partner at d(A,B), so it is outside A0 and UC has no pair to refuse
    assert is_sharp_proximal(sp) == CheckResult(False, ("a1", ()))
    assert has_property_uc(sp) == CheckResult(True)


def test_sharp_proximal_positive_and_negative():
    assert bool(is_sharp_proximal(square()))
    # collapse B onto one point equidistant from both A points
    pts = [("a0", (0.0, 0.0), "A"), ("a1", (0.0, 2.0), "A"),
           ("b", (1.0, 1.0), "B")]
    res = is_sharp_proximal(FiniteMetricGraph.from_coords(pts))
    assert not res
    point, partners = res.witness
    assert point == "b" and set(partners) == {"a0", "a1"}


def test_property_uc_witness():
    pts = [("a0", (0.0, 0.0), "A"), ("a1", (0.0, 2.0), "A"),
           ("b", (1.0, 1.0), "B")]
    res = has_property_uc(FiniteMetricGraph.from_coords(pts))
    assert not res
    x1, x2, y = res.witness
    assert {x1, x2} == {"a0", "a1"} and y == "b"
    assert bool(has_property_uc(square()))


@pytest.mark.parametrize("order, uc, partners", [
    (("a1", "a0", "b0"), ("a1", "a0", "b0"), ("a1", "a0")),
    (("a0", "a1", "b0"), ("a0", "a1", "b0"), ("a0", "a1")),
], ids=["a1_first", "a0_first"])
def test_uc_and_sharp_proximal_witnesses_follow_input_order(order, uc, partners):
    # both a's sit at d(A,B) = 1 from b0; these two witnesses name points in
    # input order, where every other witness is least in sorted id order
    d = {frozenset(("a0", "a1")): 0.5}
    table = [[0.0 if x == y else d.get(frozenset((x, y)), 1.0) for y in order] for x in order]
    sp = FiniteMetricGraph.from_table(order, {"a0": "A", "a1": "A", "b0": "B"}, table)
    assert has_property_uc(sp) == CheckResult(False, uc)
    assert is_sharp_proximal(sp) == CheckResult(False, ("b0", partners))


def test_g_chebyshev_needs_parallel_edges():
    sp = square()
    res = is_g_chebyshev(sp)
    assert not res and res.witness in {("a0", "b0"), ("a1", "b1")}
    sp2 = square(edges=[("a0", "b0"), ("a1", "b1")])
    assert bool(is_g_chebyshev(sp2))


def test_components_and_connectivity():
    sp = square(edges=[("a0", "b0")])
    comps = components(sp)
    assert [sorted(c) for c in comps] == [["a0", "b0"], ["a1"], ["b1"]]
    assert component_of(sp, "b0") == {"a0", "b0"}
    assert not is_weakly_connected(sp)
    assert is_weakly_connected(sp, within=("a0", "b0"))
    sp_full = square(edges=[("a0", "b0"), ("b0", "a1"), ("a1", "b1")])
    assert is_weakly_connected(sp_full)


def test_property_star_witness_replay():
    sp = square(edges=[("a0", "b0"), ("b0", "a1")])
    res = check_property_star(sp)
    assert not res
    x, y, z = res.witness
    # the witness is a genuine broken chain: both legs present, shortcut missing
    assert sp.has_edge(x, y) and sp.has_edge(y, z) and not sp.has_edge(x, z)
    sp2 = square(edges=[("a0", "b0"), ("b0", "a1"), ("a0", "a1")])
    assert bool(check_property_star(sp2))


def test_property_star_within_restriction():
    # chain crosses sides, so restricting to A hides the broken link
    sp = square(edges=[("a0", "b0"), ("b0", "a1")])
    assert bool(check_property_star(sp, within=sp.side_a()))


def test_json_round_trip(tmp_path):
    sp = square(edges=[("a0", "b0")])
    doc = sp.to_dict()
    back = FiniteMetricGraph.from_dict(doc)
    assert back.ids == sp.ids
    assert back.side == sp.side
    assert back.edges == sp.edges
    assert np.allclose(back.dist, sp.dist)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    again = FiniteMetricGraph.from_json(path)
    assert again.edges == sp.edges


def test_schema_version_checked():
    doc = square().to_dict()
    doc["schema"] = "99"
    with pytest.raises(InstanceFormatError, match="schema"):
        FiniteMetricGraph.from_dict(doc)


def test_unknown_fields_warn_or_reject():
    doc = square().to_dict()
    doc["flavor"] = "vanilla"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        FiniteMetricGraph.from_dict(doc)
    assert any("flavor" in str(w.message) for w in caught)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnknownField)
        with pytest.raises(InstanceFormatError, match="flavor"):
            FiniteMetricGraph.from_dict(doc)


def test_is_weakly_connected_refuses_an_unknown_id_in_within():
    sp = build_random_chain(3).space
    with pytest.raises(UnknownPoint, match="^unknown point id 'ghost'$"):
        is_weakly_connected(sp, within=["a0_0", "ghost"])


def test_check_property_star_refuses_an_unknown_id_in_within():
    sp = build_random_chain(3).space
    assert check_property_star(sp, within=sp.side_a())
    with pytest.raises(UnknownPoint, match="^unknown point id 'ghost'$"):
        check_property_star(sp, within=list(sp.side_a()) + ["ghost"])
