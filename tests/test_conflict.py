"""Conflict graph H: construction, exact coloring, triangle counting."""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest

from edgepack import (ConflictGraph, Graph, MatchingPair, build_conflict_graph,
                      color_exact, edge_distance, exact_max_union,
                      generate_named, greedy_init, random_cubic)
from edgepack import conflict
from oracles import (brute_k_colorable, dsatur_reference, k_core_reference,
                     triangle_count)


def _complete_conflict(n):
    adj = tuple(tuple(j for j in range(n) if j != i) for i in range(n))
    m = n * (n - 1) // 2
    return ConflictGraph(tuple(range(n)), adj, m)


def _cycle_conflict(n):
    adj = tuple(tuple(sorted(((i - 1) % n, (i + 1) % n))) for i in range(n))
    return ConflictGraph(tuple(range(n)), adj, n)


def _path_conflict(n):
    adj = tuple(tuple(j for j in (i - 1, i + 1) if 0 <= j < n) for i in range(n))
    return ConflictGraph(tuple(range(n)), adj, n - 1)


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


def _same_as_reference(h, k):
    res = color_exact(h, k)
    status, colors, nodes = dsatur_reference(h.adj, k)
    assert (res.status, res.colors) == (status, colors)
    assert res.nodes <= nodes
    return status, res.nodes < nodes


def test_color_exact_matches_chronological_reference_on_greedy_pairs():
    statuses = set()
    for n in range(10, 81, 10):
        for seed in range(8):
            g = random_cubic(n, seed)
            h = build_conflict_graph(g, greedy_init(g, seed))
            for k in (1, 2, 3, 4):
                statuses.add(_same_as_reference(h, k)[0])
    assert statuses == {"sat", "unsat"}


def _random_conflict(rng, n, p):
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i].add(j)
                adj[j].add(i)
    return ConflictGraph(tuple(range(n)), tuple(tuple(sorted(a)) for a in adj),
                         sum(len(a) for a in adj) // 2)


def test_color_exact_matches_chronological_reference_on_small_graphs():
    rng = random.Random(41)
    unsat = 0
    for trial in range(400):
        p = rng.choice((0.2, 0.35, 0.5, 0.7))
        h = _random_conflict(rng, rng.randint(1, 14), p)
        for k in (1, 2, 3, 4):
            unsat += _same_as_reference(h, k)[0] == "unsat"
    assert unsat > 0


def test_color_exact_matches_chronological_reference_near_the_threshold():
    # 4-coloring at average degree ~7 backtracks over many levels, which is
    # where backjumps skip nodes and uncolored vertices must re-enter the heap
    rng = random.Random(7)
    skipped = 0
    for trial in range(200):
        n = rng.randint(50, 100)
        h = _random_conflict(rng, n, 7.0 / (n - 1))
        skipped += _same_as_reference(h, 4)[1]
    assert skipped > 0


def test_peel_color_agrees_with_k_core_and_color_exact(monkeypatch):
    rng = random.Random(53)
    hs = []
    for n in range(10, 201, 10):
        for seed in range(4):
            g = random_cubic(n, 300 + seed)
            hs.append(build_conflict_graph(g, greedy_init(g, seed)))
    hs += [_random_conflict(rng, rng.randint(1, 14), rng.choice((0.3, 0.5, 0.7)))
           for _ in range(300)]
    statuses = set()
    for h in hs:
        order, start = conflict._peel(h.adj)
        assert sorted(order) == list(range(h.n))
        core = set(order[start:])
        assert core == k_core_reference(h.adj, 4)
        res = conflict._peel_color(h)
        statuses.add((res.status, bool(core)))
        if res.status != "unknown":
            assert res.status == color_exact(h, 4).status
        if res.sat:
            assert all(0 <= c < 4 for c in res.colors)
            assert all(res.colors[i] != res.colors[j]
                       for i in range(h.n) for j in h.adj[i])
            assert res.nodes >= len(core)
    assert statuses >= {("sat", False), ("sat", True), ("unsat", True)}
    # with no node allowed, a non-empty core is "unknown", never "unsat"
    monkeypatch.setattr(conflict, "_CORE_BUDGET", -10**9)
    for h in hs:
        order, start = conflict._peel(h.adj)
        res = conflict._peel_color(h)
        assert res.status == ("unknown" if start < h.n else "sat")


def test_dsatur_heap_stays_bounded_on_a_long_search():
    # the 96-vertex 4-core of this greedy pair's H keeps a budgeted search
    # backtracking; stale heap entries must not pile up as the search runs
    g = random_cubic(150, 7011)
    h = build_conflict_graph(g, greedy_init(g, 11))
    order, start = conflict._peel(h.adj)
    core = order[start:]
    local = {v: i for i, v in enumerate(core)}
    core_adj = [[local[w] for w in h.adj[v] if w in local] for v in core]
    assert len(core) == 96
    peaks = []
    for budget in (10_000, 40_000):
        tracemalloc.start()
        try:
            res = conflict._dsatur(core_adj, list(range(96)), 4, [-1] * 96, budget)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res == (None, budget + 1)
    assert peaks[1] <= 1.5 * peaks[0]


def test_color_exact_long_path_and_odd_cycle_need_no_recursion():
    # one frame per colored vertex: 3000 of them at the default recursion limit
    h = _path_conflict(3000)
    res = color_exact(h, 2)
    assert res.sat
    assert all(res.colors[i] != res.colors[i + 1] for i in range(h.n - 1))
    assert color_exact(_cycle_conflict(3001), 2).status == "unsat"


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
