"""The library against a brute-force oracle that uses nothing of proxigraph,
on one placement of the 2 + 2 l1 scope of `small_scope`.  Only agreement is
asserted: whether the theorems hold in this scope is not."""
from __future__ import annotations

from small_scope import cyclic_maps, disagreements, edge_sets, placements


def test_the_scope_has_the_size_it_describes():
    assert (len(placements()), len(edge_sets()), len(cyclic_maps())) == (144, 586, 16)
    assert len({tuple(sorted(p.items())) for p in placements()}) == 144
    assert len(set(edge_sets())) == 586 and len({tuple(m.items()) for m in cyclic_maps()}) == 16


def test_one_placement_agrees_with_brute_force():
    # a0 (0, 0), a1 (0, 0.25), b0 (1, 0), b1 (1, 0.25): the first placement,
    # 586 edge sets x 16 maps
    placement = placements()[0]
    assert placement == {"a0": (0.0, 0.0), "a1": (0.0, 0.25), "b0": (1.0, 0.0), "b1": (1.0, 0.25)}
    assert list(disagreements(placement)) == []
