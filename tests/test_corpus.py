"""Instance builders: determinism, parameter gates, and hypothesis coverage."""
from __future__ import annotations

import numpy as np
import pytest

from proxigraph import (
    build,
    check_cardinality,
    enumerate_bpps,
    has_property_uc,
    is_g_chebyshev,
    is_sharp_proximal,
    verify_g_cyclic_contraction,
)
from proxigraph import corpus
from proxigraph.corpus import EXAMPLE_IDS, build_random_chain
from proxigraph.errors import ParamOutOfRange
from proxigraph.metric_graph import check_property_star


def test_known_ids():
    assert EXAMPLE_IDS == ("ex22_kappa", "ex33_dyadic_l1", "ex35_not_bpo",
                           "ex41_fixed_point", "ex53_pbvp")


def test_builds_are_deterministic():
    for ex in ("ex22_kappa", "ex33_dyadic_l1", "ex35_not_bpo"):
        a, b = build(ex), build(ex)
        assert a.space.ids == b.space.ids
        assert a.space.edges == b.space.edges
        assert np.array_equal(a.space.dist, b.space.dist)
        assert a.expected == b.expected
        assert a.tmap.mapping == b.tmap.mapping


def test_random_chain_is_deterministic():
    a, b = build_random_chain(123), build_random_chain(123)
    assert a.space.ids == b.space.ids
    assert a.space.coords == b.space.coords
    assert a.tmap.mapping == b.tmap.mapping
    c = build_random_chain(124)
    assert (a.space.ids, a.space.coords) != (c.space.ids, c.space.coords)


def test_parameter_gates():
    with pytest.raises(ParamOutOfRange):
        build("ex22_kappa", N=2)
    with pytest.raises(ParamOutOfRange):
        build("ex22_kappa", N=65)
    with pytest.raises(ParamOutOfRange):
        build("ex33_dyadic_l1", depth=1)
    with pytest.raises(ParamOutOfRange):
        build("ex35_not_bpo", depth=31)
    with pytest.raises(ParamOutOfRange):
        build("ex41_fixed_point", n_time=2)
    with pytest.raises(ParamOutOfRange):
        build("ex53_pbvp", n_nodes=5)
    with pytest.raises(ParamOutOfRange, match="unknown example"):
        build("ex99_missing")
    with pytest.raises(ParamOutOfRange):
        build("ex22_kappa", depth=6)  # wrong parameter name for this builder


# (example, parameter, smallest and largest value the gate lets through)
DEPTH_GATES = [("ex33_dyadic_l1", "depth", 2, 29), ("ex35_not_bpo", "depth", 2, 14)]


@pytest.mark.parametrize("example_id, name, lo, hi", DEPTH_GATES,
                         ids=[g[0] for g in DEPTH_GATES])
def test_every_depth_inside_the_gate_builds(example_id, name, lo, hi):
    for value in range(lo, hi + 1):
        assert len(build(example_id, **{name: value}).space.ids) > 0
    for value in (lo - 1, hi + 1):
        with pytest.raises(ParamOutOfRange):
            build(example_id, **{name: value})


@pytest.mark.parametrize("depth", range(2, 29))
def test_ex33_reproduces_at_every_depth_to_28(depth):
    # each excess is exactly 2^-(depth + 1); at depth 29 it falls below TOL_INEQ
    report = corpus.reproduce("ex33_dyadic_l1", {"depth": depth})
    assert report["all_pass"], [c for c in report["checks"] if not c["pass"]]


# (example, expected entry, wrong value, checks that must then fail): one per
# pass rule, a key shared by two checks, and a check reading two entries
WRONG_EXPECTATIONS = [
    ("ex22_kappa", "probe_image_distance", 1.0 + 1.0 / 6.0 + 1e-9,
     ["probe_image_distance"]),
    ("ex22_kappa", "bpp_count", 10, ["cardinality"]),
    ("ex53_pbvp", "sup_norm", -1.0, ["sup_norm"]),
    ("ex35_not_bpo", "bpp_ids", ["a_0"], ["bpp_ids", "x_set_is_bpp_set"]),
    ("ex41_fixed_point", "uniqueness_regime", {}, ["uniqueness_regime"]),
]


@pytest.mark.parametrize("example_id, key, value, failing", WRONG_EXPECTATIONS,
                         ids=[f"{w[0]}-{w[1]}" for w in WRONG_EXPECTATIONS])
def test_reproduce_compares_with_the_expected_table(monkeypatch, example_id, key,
                                                   value, failing):
    example = corpus.EXAMPLES[example_id]

    def build_wrong(**params):
        inst = example.build(**params)
        inst.expected[key] = value
        return inst

    monkeypatch.setitem(corpus.EXAMPLES, example_id,
                        corpus.Example(build_wrong, example.checks))
    report = corpus.reproduce(example_id, {})
    assert [c["name"] for c in report["checks"] if not c["pass"]] == failing
    assert report["all_pass"] is False


def test_frozen_structure_counts():
    ex22 = build("ex22_kappa", N=8)
    assert (len(ex22.space.ids), len(ex22.space.edges)) == (36, 65)
    assert ex22.expected["bpp_count"] == 9

    assert len(build("ex33_dyadic_l1", depth=6).space.ids) == 16
    assert len(build("ex35_not_bpo", depth=6).space.ids) == 16

    ex41 = build("ex41_fixed_point")
    assert (len(ex41.space.ids), len(ex41.space.edges)) == (13, 169)


@pytest.mark.parametrize("depth, n_time", [(2, 8), (6, 64), (20, 64), (20, 1024)])
def test_ex41_edges_are_the_pairs_under_sup_distance_one(depth, n_time):
    space = corpus.build_ex41_fixed_point(depth=depth, n_time=n_time).space
    coords = {p: np.array(space.coords[p]) for p in space.ids}
    assert space.edges == {(p, q) for p in space.ids for q in space.ids
                           if float(np.max(np.abs(coords[p] - coords[q]))) < 1.0}


def test_pbvp_instance_fields():
    inst = build("ex53_pbvp", n_nodes=101)
    assert inst.grid.n == 101
    assert inst.grid.period == 1.0
    assert inst.w0.values[0] == -1.0
    assert inst.f.kind == "exp_linear"
    assert inst.h_spec["kind"] == "exp_gap"
    assert 0.0 < inst.expected["beta"] < 1.0


@pytest.mark.parametrize("seed", range(60))
def test_random_chains_satisfy_every_hypothesis(seed):
    inst = build_random_chain(seed)
    sp, tmap = inst.space, inst.tmap

    rep = verify_g_cyclic_contraction(sp, tmap, inst.phi1, inst.phi2)
    assert rep.holds, rep.violations

    assert is_sharp_proximal(sp)
    assert has_property_uc(sp)
    assert is_g_chebyshev(sp)
    assert check_property_star(sp, within=sp.side_a())

    assert enumerate_bpps(sp, tmap) == set(inst.expected["bpp_ids"])
    n_bpp, n_classes, equal = check_cardinality(sp, tmap)
    assert equal
    assert n_classes == inst.expected["component_count"]
