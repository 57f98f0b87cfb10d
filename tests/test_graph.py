"""Graph core: parsing, generation, edge distance."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from edgepack import (Graph, edge_distance, generate_named, parse_edge_list,
                      parse_graph6, random_cubic, to_edge_list_text, to_graph6)
from oracles import line_graph_distances


def test_parse_edge_list_basic():
    g = parse_edge_list("0 1\n1 2")
    assert (g.n, g.m) == (3, 2)


def test_parse_edge_list_duplicate_collapses():
    g = parse_edge_list("0 1\n0 1")
    assert (g.n, g.m) == (2, 1)


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# header\n\n0 1  # inline\n2 1\n")
    assert (g.n, g.m) == (3, 2)


def test_parse_edge_list_rejects_loop():
    with pytest.raises(ValueError, match="loop"):
        parse_edge_list("0 0")


def test_parse_edge_list_rejects_malformed_with_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("0 1\n1 two")


def test_edge_ids_are_sorted_endpoint_pairs():
    g = parse_edge_list("2 1\n0 2\n0 1")
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.edge_id(2, 0) == 1
    assert g.has_edge(1, 2) and not g.has_edge(1, 1)
    # a non-edge, an out-of-range or a negative id raises KeyError: no
    # IndexError, and no wrap-around to the last vertex
    g = Graph([(0, 1), (1, 2), (2, 3), (3, 4)])
    for u, v in ((0, 2), (0, 0), (0, 5), (7, 9), (-1, 0), (4, -1), (-2, -1)):
        assert not g.has_edge(u, v) and not g.has_edge(v, u)
        with pytest.raises(KeyError, match=f"^'no edge {u}-{v}'$"):
            g.edge_id(u, v)


def test_round_trip_serialization():
    g = generate_named("petersen")
    again = parse_edge_list(to_edge_list_text(g))
    assert again.n == g.n and again.edges == g.edges


# -- graph6 ------------------------------------------------------------------

def _random_graph(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
    return Graph(pairs, n=n)


def test_graph6_cross_check_against_networkx():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(0, 20)
        g = _random_graph(rng, n)
        enc = to_graph6(g)
        ref = nx.from_graph6_bytes(enc.encode())
        assert ref.number_of_nodes() == g.n
        assert {tuple(sorted(e)) for e in ref.edges()} == set(g.edges)
        assert parse_graph6(enc) == g


def test_graph6_decodes_networkx_encodings():
    rng = random.Random(12)
    for _ in range(50):
        g = _random_graph(rng, rng.randint(1, 15))
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges)
        line = nx.to_graph6_bytes(ref, header=False).decode().strip()
        got = parse_graph6(line)
        assert got.n == g.n and got.edges == g.edges


def test_graph6_header_and_empty_graph():
    g = parse_graph6(">>graph6<<A?")
    assert (g.n, g.m) == (2, 0)


def test_graph6_long_form():
    g = random_cubic(100, 5)
    assert parse_graph6(to_graph6(g)) == g


def test_graph6_rejects_truncated_and_bad_bytes():
    good = to_graph6(generate_named("petersen"))
    with pytest.raises(ValueError):
        parse_graph6(good[:-1])
    with pytest.raises(ValueError):
        parse_graph6("D" + chr(20))


# -- named families ----------------------------------------------------------

def test_subdivided_k33_shape():
    g = generate_named("subdivided_k33")
    assert (g.n, g.m) == (7, 10)
    # vertex diameter 2
    diam = 0
    for s in range(g.n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in g.adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        diam = max(diam, max(dist.values()))
    assert diam == 2


def test_named_families():
    pet = generate_named("petersen")
    assert (pet.n, pet.m) == (10, 15) and pet.is_cubic()
    assert generate_named("k4").m == 6
    assert generate_named("k33").m == 9
    prism = generate_named("prism")
    assert (prism.n, prism.m) == (6, 9) and prism.is_cubic()
    assert generate_named("c(5)").m == 5
    assert generate_named("C7").m == 7
    with pytest.raises(ValueError):
        generate_named("mystery")


# -- random cubic ------------------------------------------------------------

def test_random_cubic_n4_is_k4():
    for seed in (0, 1, 99):
        g = random_cubic(4, seed)
        assert g.edges == generate_named("k4").edges


def test_random_cubic_audit_loop():
    for seed in range(100):
        g = random_cubic(10, seed)
        assert g.n == 10
        assert g.is_cubic()
        assert g.is_connected()
        assert len(set(g.edges)) == g.m


def test_random_cubic_deterministic_and_validated():
    assert random_cubic(20, 7).edges == random_cubic(20, 7).edges
    assert all(d == 3 for d in map(random_cubic(20, 7).degree, range(20)))
    with pytest.raises(ValueError):
        random_cubic(7, 0)
    with pytest.raises(ValueError):
        random_cubic(2, 0)


# -- edge distance -----------------------------------------------------------

def test_edge_distance_examples():
    g = parse_edge_list("0 1\n1 2\n2 3")
    ab, bc, cd = g.edge_id(0, 1), g.edge_id(1, 2), g.edge_id(2, 3)
    assert edge_distance(g, ab, bc) == 1
    assert edge_distance(g, ab, cd) == 2
    assert edge_distance(g, ab, ab) == 0


def test_edge_distance_disconnected_is_infinite():
    g = parse_edge_list("0 1\n2 3")
    assert edge_distance(g, 0, 1) == math.inf


def test_edge_distance_matches_line_graph_bfs():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = _random_graph(rng, n)
        if g.m == 0 or g.m > 12:
            continue
        ref = line_graph_distances(g.n, g.edges)
        for i in range(g.m):
            for j in range(g.m):
                want = ref.get((i, j), math.inf)
                assert edge_distance(g, i, j) == want


def test_edge_distance_is_a_metric_per_component():
    rng = random.Random(4)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(3, 7))
        if g.m == 0 or g.m > 12:
            continue
        d = [[edge_distance(g, i, j) for j in range(g.m)] for i in range(g.m)]
        for i in range(g.m):
            assert d[i][i] == 0
            for j in range(g.m):
                assert d[i][j] == d[j][i]
                if i != j:
                    assert d[i][j] >= 1
                for k in range(g.m):
                    if d[i][k] < math.inf and d[k][j] < math.inf:
                        assert d[i][j] <= d[i][k] + d[k][j]


def test_neighborhoods_match_pairwise_distances_and_masks():
    rng = random.Random(6)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(3, 8))
        for radius in (1, 2, 3):
            near = g.neighborhoods(radius)
            assert len(near) == g.m
            for i in range(g.m):
                want = [j for j in range(g.m)
                        if j != i and edge_distance(g, i, j) <= radius]
                assert near[i] == tuple(want)
    with pytest.raises(ValueError):
        generate_named("c5").neighborhoods(0)

