"""Conflict graph H: construction, exact coloring, triangle counting."""

from __future__ import annotations

import math
import random

import pytest

from edgepack import (ConflictGraph, Graph, MatchingPair, build_conflict_graph,
                      color_exact, edge_distance, exact_max_union,
                      generate_named, greedy_init)
from oracles import brute_k_colorable, triangle_count


def _complete_conflict(n):
    adj = tuple(tuple(j for j in range(n) if j != i) for i in range(n))
    m = n * (n - 1) // 2
    return ConflictGraph(tuple(range(n)), adj, m)


def _cycle_conflict(n):
    adj = tuple(tuple(sorted(((i - 1) % n, (i + 1) % n))) for i in range(n))
    return ConflictGraph(tuple(range(n)), adj, n)


def test_build_c5_single_vertex():
    g = generate_named("c5")
    pair = MatchingPair(g, [g.edge_id(0, 1), g.edge_id(2, 3)],
                        [g.edge_id(1, 2), g.edge_id(3, 4)])
    h = build_conflict_graph(g, pair)
    assert h.n == 1 and h.edge_count == 0
    assert h.vertices == (g.edge_id(0, 4),)


def test_build_c6_alternating_empty():
    g = generate_named("c6")
    m1 = [g.edge_id(0, 1), g.edge_id(2, 3), g.edge_id(4, 5)]
    m2 = [g.edge_id(1, 2), g.edge_id(3, 4), g.edge_id(0, 5)]
    h = build_conflict_graph(g, MatchingPair(g, m1, m2))
    assert h.n == 0 and h.edge_count == 0


def test_build_subdivided_k33_optimum_is_k4():
    g = generate_named("subdivided_k33")
    pair, cert = exact_max_union(g)
    assert cert == 6
    h = build_conflict_graph(g, pair)
    assert h.n == 4 and h.edge_count == 6
    assert all(h.degree(i) == 3 for i in range(4))
    assert triangle_count(h.adj) == 4


def test_adjacency_matches_brute_force_distances():
    rng = random.Random(13)
    for trial in range(40):
        n = rng.randint(4, 10)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
        g = Graph(pairs, n=n)
        if g.m == 0 or g.m > 20 or not g.is_subcubic():
            continue
        pair = greedy_init(g, trial)
        h = build_conflict_graph(g, pair)
        pos = {e: i for i, e in enumerate(h.vertices)}
        for a in h.vertices:
            for b in h.vertices:
                if a == b:
                    continue
                expect = edge_distance(g, a, b) <= 2
                assert (pos[b] in h.adj[pos[a]]) == expect


def test_color_exact_k4():
    h = _complete_conflict(4)
    assert color_exact(h, 4).sat
    res = color_exact(h, 3)
    assert res.status == "unsat" and res.nodes > 0


def test_color_exact_odd_cycle():
    h = _cycle_conflict(5)
    assert color_exact(h, 3).sat
    assert color_exact(h, 2).status == "unsat"


def test_color_exact_proper_and_matches_brute_oracle():
    rng = random.Random(23)
    for trial in range(60):
        n = rng.randint(1, 8)
        adj = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    adj[i].add(j)
                    adj[j].add(i)
        h = ConflictGraph(tuple(range(n)), tuple(tuple(sorted(a)) for a in adj),
                          sum(len(a) for a in adj) // 2)
        for k in (2, 3, 4):
            res = color_exact(h, k)
            want = brute_k_colorable([sorted(a) for a in adj], k)
            assert res.sat == want
            if res.sat:
                for i in range(n):
                    assert 0 <= res.colors[i] < k
                    for j in adj[i]:
                        assert res.colors[i] != res.colors[j]


def test_coloring_classes_are_induced_matchings():
    # same-colored leftover edges are pairwise at distance >= 3 in G,
    # cross-checked through edge_distance rather than H adjacency
    g = generate_named("petersen")
    from edgepack import local_search
    pair = local_search(g, 5).pair
    h = build_conflict_graph(g, pair)
    res = color_exact(h, 4)
    assert res.sat
    for c in range(4):
        members = [h.vertices[i] for i in range(h.n) if res.colors[i] == c]
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                d = edge_distance(g, a, b)
                assert d == math.inf or d >= 3


def test_triangle_counts():
    assert triangle_count(_complete_conflict(4).adj) == 4
    assert triangle_count(_complete_conflict(5).adj) == 10
    assert triangle_count(_cycle_conflict(6).adj) == 0


def test_color_exact_rejects_bad_k():
    with pytest.raises(ValueError):
        color_exact(_complete_conflict(3), 0)
