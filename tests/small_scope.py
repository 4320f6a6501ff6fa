"""The smallest two-sided l1 scope, enumerated deterministically, and a
brute-force oracle for it that uses nothing of proxigraph.

The 2 + 2 scope puts A = {a0, a1} on the line x = 0 and B = {b0, b1} on
x = 1, the two points of a side at distinct heights from HEIGHTS: 12 ordered
placements per side, 144 in all.  The 12 off-diagonal pairs of the four
points give 4096 edge sets; every EDGE_STEP-th of them (586) is taken, with
the four loops added.  A cyclic map sends each point of A to a point of B
and each point of B to a point of A: 16 maps.  Each height is a multiple of
1/4, so every distance, and d(A, B), is exact in floats and the oracle can
compare them with ==.

Run as a script, `PYTHONPATH=src python tests/small_scope.py`, it compares
the library with the oracle on the whole scope (144 x 586 x 16 instances)
and prints each answer's count of disagreements.
"""
from __future__ import annotations

from dataclasses import astuple
from itertools import permutations, product

from proxigraph import (
    CyclicMapTable,
    FiniteMetricGraph,
    GaugeSpec,
    check_cardinality,
    check_equivalence_theorem,
    check_property_star,
    enumerate_bpps,
    has_property_uc,
    x_t2_a_set,
)

HEIGHTS = (0.0, 0.25, 1.0, 1.25)
A, B = ("a0", "a1"), ("b0", "b1")
IDS = A + B
OFF_DIAGONAL = tuple((p, q) for p in IDS for q in IDS if p != q)
EDGE_STEP = 7
PHI1, PHI2 = GaugeSpec("linear", {"c": 0.5}), GaugeSpec("identity")  # s / 2 and id


def placements() -> list[dict[str, tuple[float, float]]]:
    """The 144 ordered placements, each point's (x, y) by id."""
    return [{**{p: (0.0, y) for p, y in zip(A, ya)}, **{q: (1.0, y) for q, y in zip(B, yb)}}
            for ya in permutations(HEIGHTS, len(A)) for yb in permutations(HEIGHTS, len(B))]


def edge_sets() -> list[tuple[tuple[str, str], ...]]:
    """Every EDGE_STEP-th off-diagonal edge set, in the order of its bit mask
    over OFF_DIAGONAL; the loops are not listed."""
    return [tuple(pair for k, pair in enumerate(OFF_DIAGONAL) if mask >> k & 1)
            for mask in range(0, 1 << len(OFF_DIAGONAL), EDGE_STEP)]


def cyclic_maps() -> list[dict[str, str]]:
    """The 16 maps that send A into B and B into A."""
    return [dict(zip(IDS, images)) for images in product(*[B] * len(A), *[A] * len(B))]


def brute_force(coords: dict, edges, tmap: dict) -> dict:
    """The answers of one instance from its points, off-diagonal edges and
    map alone: the distances under l1, the loops added to the edges, and the
    weak components and even orbits by search."""
    def d(p, q):
        return sum(abs(u - v) for u, v in zip(coords[p], coords[q]))

    a = [p for p in coords if p in A]
    b = [q for q in coords if q in B]
    edge = set(edges) | {(p, p) for p in coords}
    d_ab = min(d(p, q) for p in a for q in b)
    bpps = frozenset(p for p in a if d(p, tmap[p]) == d_ab)

    def root(p, within):
        # the least point reachable from p over edges, either way, within a set
        seen, todo = {p}, [p]
        while todo:
            x = todo.pop()
            for y in within:
                if y not in seen and ((x, y) in edge or (y, x) in edge):
                    seen.add(y)
                    todo.append(y)
        return min(seen)

    def terminal(p):
        # where the even orbit of p settles, or None if it enters a longer cycle
        seen = []
        while p not in seen:
            seen.append(p)
            p = tmap[tmap[p]]
        return p if tmap[tmap[p]] == p else None

    ends = {terminal(p) for p in a}
    classes = len({root(p, coords) for p in a})
    return {
        "bpps": bpps,
        "x_t2_a": frozenset(p for p in a if (p, tmap[tmap[p]]) in edge),
        "cardinality": (len(bpps), classes, len(bpps) == classes),
        "clauses": (len({root(p, a) for p in a}) <= 1, None not in ends and len(ends) == 1,
                    len(bpps) <= 1),
        "uc": all(sum(d(p, q) == d_ab for p in a) <= 1 for q in b),
        "star_a": all((x, z) in edge for x, y, z in product(a, repeat=3)
                      if (x, y) in edge and (y, z) in edge),
    }


def library(space, tmap) -> dict:
    """The same answers from proxigraph, every gate off."""
    report = check_equivalence_theorem(space, tmap, PHI1, PHI2, check_hypotheses=False)
    return {
        "bpps": enumerate_bpps(space, tmap),
        "x_t2_a": x_t2_a_set(space, tmap),
        "cardinality": check_cardinality(space, tmap, check_hypotheses=False),
        "clauses": astuple(report),
        "uc": bool(has_property_uc(space)),
        "star_a": bool(check_property_star(space, space.side_a())),
    }


def disagreements(placement: dict):
    """Each (edges, map, answer name, library answer, brute-force answer) on
    which the two differ, over every edge set and map at one placement."""
    for edges in edge_sets():
        space = FiniteMetricGraph.from_coords(
            [(p, xy, "A" if p in A else "B") for p, xy in placement.items()],
            metric="l1", edges=edges)
        for mapping in cyclic_maps():
            ours = library(space, CyclicMapTable.for_space(space, mapping))
            want = brute_force(placement, edges, mapping)
            for name in want:
                if ours[name] != want[name]:
                    yield edges, mapping, name, ours[name], want[name]


if __name__ == "__main__":
    counts: dict[str, int] = {}
    for placement in placements():
        for *_, name, _, _ in disagreements(placement):
            counts[name] = counts.get(name, 0) + 1
    n = len(placements()) * len(edge_sets()) * len(cyclic_maps())
    print(f"{n} instances; disagreements by answer: {counts or 'none'}")
