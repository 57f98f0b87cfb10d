"""Matching engine: pairs, objective, moves, local search, exact union."""

from __future__ import annotations

import random

import pytest

from edgepack import (Graph, MatchingPair, apply_move, exact_max_union,
                      find_improving_move, generate_named, greedy_init,
                      local_search, parse_edge_list, random_cubic,
                      union_objective_key)
from edgepack.matching import Move
from oracles import (edge_components, evaluate, max_disjoint_matching_pair,
                     neighborhood, sample_subcubic_instances)


def _random_subcubic_graph(rng, nmax=9):
    n = rng.randint(3, nmax)
    edges = set()
    deg = [0] * n
    verts = list(range(n))
    rng.shuffle(verts)
    for i in range(1, n):
        u, v = verts[i], verts[rng.randint(0, i - 1)]
        if deg[u] < 3 and deg[v] < 3:
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
    for _ in range(rng.randint(0, 8)):
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if u != v and deg[u] < 3 and deg[v] < 3 and (min(u, v), max(u, v)) not in edges:
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
    return Graph(edges, n=n)


# -- MatchingPair invariants ---------------------------------------------------

def test_pair_rejects_shared_edge():
    g = generate_named("c6")
    with pytest.raises(ValueError):
        MatchingPair(g, [0], [0])


def test_pair_rejects_non_matching():
    g = generate_named("k4")
    e1, e2 = g.edge_id(0, 1), g.edge_id(0, 2)
    with pytest.raises(ValueError):
        MatchingPair(g, [e1, e2], [])


def test_subcubic_guard_everywhere():
    g = Graph([(0, i) for i in range(1, 5)], n=5)   # star with degree 4
    assert not g.is_subcubic()
    with pytest.raises(ValueError, match="subcubic"):
        greedy_init(g, 0)
    with pytest.raises(ValueError, match="subcubic"):
        local_search(g, 0)
    with pytest.raises(ValueError, match="subcubic"):
        exact_max_union(g)


# -- greedy_init ---------------------------------------------------------------

def test_greedy_single_edge():
    g = parse_edge_list("0 1")
    pair = greedy_init(g, 0)
    assert pair.m1 == {0} and pair.m2 == frozenset()


def test_greedy_c6_bounded():
    g = generate_named("c6")
    for seed in range(5):
        assert greedy_init(g, seed).union_size <= 6


def test_greedy_k4_invariant_audit():
    g = generate_named("k4")
    for seed in range(10):
        pair = greedy_init(g, seed)   # constructor validates invariants
        assert pair.union_size >= 1


# -- evaluate ------------------------------------------------------------------

def test_evaluate_c6_alternating():
    g = generate_named("c6")
    m1 = [g.edge_id(0, 1), g.edge_id(2, 3), g.edge_id(4, 5)]
    m2 = [g.edge_id(1, 2), g.edge_id(3, 4), g.edge_id(0, 5)]
    t = evaluate(MatchingPair(g, m1, m2))
    assert (t.union_size, t.h_edges, t.p4_count, t.h_triangles, t.paired_p3_count) \
        == (6, 0, 0, 0, 0)


def test_evaluate_c5_example():
    g = generate_named("c5")
    m1 = [g.edge_id(0, 1), g.edge_id(2, 3)]
    m2 = [g.edge_id(1, 2), g.edge_id(3, 4)]
    t = evaluate(MatchingPair(g, m1, m2))
    assert t.union_size == 4 and t.h_edges == 0


def test_evaluate_matches_fast_key_on_random_pairs():
    rng = random.Random(21)
    for trial in range(60):
        g = _random_subcubic_graph(rng)
        if g.m == 0:
            continue
        pair = greedy_init(g, trial)
        assert evaluate(pair).key() == union_objective_key(g, pair.union_mask())


# -- neighborhood --------------------------------------------------------------

def test_neighborhood_empty_pair_on_k4():
    g = generate_named("k4")
    pair = MatchingPair(g)
    moves = list(neighborhood(pair, 0, 0, 1))
    assert len(moves) == 12
    assert all(len(mv.additions) == 1 for mv in moves)
    assert {mv.additions[0] for mv in moves} == {(e, t) for e in range(6) for t in (1, 2)}


def test_neighborhood_full_cover_has_no_additions():
    g = generate_named("c6")
    m1 = [g.edge_id(0, 1), g.edge_id(2, 3), g.edge_id(4, 5)]
    m2 = [g.edge_id(1, 2), g.edge_id(3, 4), g.edge_id(0, 5)]
    pair = MatchingPair(g, m1, m2)
    assert list(neighborhood(pair, 0, 0, 1)) == []


def test_neighborhood_c5_two_swaps():
    g = generate_named("c5")
    pair = MatchingPair(g, [g.edge_id(0, 1)], [g.edge_id(2, 3)])
    moves = list(neighborhood(pair, 0, 1, 0))
    assert len(moves) == 2
    assert all(mv.swap is not None and not mv.additions for mv in moves)


def test_neighborhood_enumeration_is_deterministic():
    g = generate_named("c5")
    pair = greedy_init(g, 2)
    first = list(neighborhood(pair, 2, 1, 3))
    second = list(neighborhood(pair, 2, 1, 3))
    assert first == second


def test_move_application_preserves_invariants():
    rng = random.Random(31)
    for trial in range(30):
        g = _random_subcubic_graph(rng, nmax=7)
        if g.m == 0:
            continue
        pair = greedy_init(g, trial)
        for mv in neighborhood(pair, 2, 1, 3):
            apply_move(pair, mv)   # constructor re-validates invariants


def test_inadmissible_move_rejected():
    g = generate_named("c6")
    pair = MatchingPair(g, [0], [])
    with pytest.raises(ValueError):
        apply_move(pair, Move(removals=((0, 2),)))     # 0 is in m1, not m2
    with pytest.raises(ValueError):
        apply_move(pair, Move(additions=((0, 1),)))    # already matched
    with pytest.raises(ValueError):
        apply_move(pair, Move(swap=3))                  # 3 is not matched
    with pytest.raises(ValueError):
        apply_move(pair, Move(removals=((0, 1),), swap=0))   # 0 was just removed


def test_swap_flips_exactly_the_component_of_its_representative():
    rng = random.Random(71)
    for trial in range(40):
        g = _random_subcubic_graph(rng)
        pair = greedy_init(g, trial)
        for rep in sorted(pair.union()):
            comp = next(c for c in edge_components(g, pair.union()) if rep in c)
            flipped = apply_move(pair, Move(swap=rep))
            assert flipped.m1 == pair.m1.symmetric_difference(comp)
            assert flipped.m2 == pair.m2.symmetric_difference(comp)


# -- scanner vs literal neighborhood -------------------------------------------

def _literal_improving(pair, r, s, a):
    g = pair.graph
    cur = union_objective_key(g, pair.union_mask())
    for mv in neighborhood(pair, r, s, a):
        if union_objective_key(g, apply_move(pair, mv).union_mask()) < cur:
            return mv
    return None


def test_scanner_agrees_with_literal_neighborhood():
    rng = random.Random(41)
    cases = []
    for trial in range(120):
        g = _random_subcubic_graph(rng)
        if g.m == 0:
            continue
        pair = greedy_init(g, trial)
        cases.append(pair)
        if trial % 2 == 0:
            m1 = frozenset(sorted(pair.m1)[:len(pair.m1) // 2])
            cases.append(MatchingPair(g, m1, pair.m2))
    for n in (8, 10):
        base = [(i, i + 1) for i in range(n - 1)]
        for extra in ([(0, n - 1)], [(0, 4)], [(0, 4), (2, 7)]):
            g = Graph(base + extra, n=n)
            if not g.is_subcubic():
                continue
            for seed in range(3):
                cases.append(greedy_init(g, seed))
    for pair in cases:
        for params in ((2, 1, 3), (1, 1, 2), (2, 0, 2)):
            lit = _literal_improving(pair, *params)
            scan = find_improving_move(pair, *params)
            assert (lit is None) == (scan is None), (pair, params)
            if scan is not None:
                cur = union_objective_key(pair.graph, pair.union_mask())
                nxt = apply_move(pair, scan)
                assert union_objective_key(pair.graph, nxt.union_mask()) < cur


# -- local search ---------------------------------------------------------------

def test_local_search_c6_reaches_full_union():
    g = generate_named("c6")
    for seed in range(6):
        res = local_search(g, seed)
        assert res.stable
        assert res.pair.union_size == 6
        assert evaluate(res.pair).h_edges == 0


def test_local_search_matches_exact_on_subdivided_k33():
    g = generate_named("subdivided_k33")
    _, cert = exact_max_union(g)
    assert cert == 6
    res = local_search(g, 0)
    assert res.stable and res.pair.union_size == 6


def test_local_search_never_below_greedy():
    rng = random.Random(51)
    for trial in range(25):
        g = _random_subcubic_graph(rng)
        if g.m == 0:
            continue
        res = local_search(g, trial)
        assert res.pair.union_size >= greedy_init(g, trial).union_size


def test_local_search_petersen_components_are_small_trees():
    from edgepack import classify_components
    g = generate_named("petersen")
    res = local_search(g, 3)
    assert res.stable
    for comp in classify_components(g, res.pair):
        assert comp.kind != "VIOLATION"
        assert len(comp.edges) <= 3


def test_augmentation_completeness():
    # a leftover edge with both endpoints m1-free admits a (0,0,1) move
    rng = random.Random(61)
    for trial in range(40):
        g = _random_subcubic_graph(rng)
        if g.m == 0:
            continue
        pair = greedy_init(g, trial)
        dropped = sorted(pair.m1)
        if not dropped:
            continue
        weaker = MatchingPair(g, dropped[1:], pair.m2)
        assert find_improving_move(weaker, 0, 0, 1) is not None


# -- exact_max_union -------------------------------------------------------------

def test_exact_max_union_examples():
    assert exact_max_union(generate_named("c6"))[1] == 6
    assert exact_max_union(generate_named("c5"))[1] == 4
    assert exact_max_union(generate_named("subdivided_k33"))[1] == 6


def test_exact_max_union_guard():
    with pytest.raises(ValueError):
        exact_max_union(random_cubic(20, 0))


def test_exact_max_union_agrees_with_pair_enumeration():
    for n, edges in sample_subcubic_instances(25, m_max=10, seed=7):
        g = Graph(edges, n=n)
        pair, cert = exact_max_union(g)
        want_u, want_h = max_disjoint_matching_pair(n, edges)
        assert cert == want_u == pair.union_size
        assert evaluate(pair).h_edges == want_h


def test_exact_max_union_condition_a_tiebreak():
    for n, edges in sample_subcubic_instances(8, m_max=12, seed=17, m_min=9):
        g = Graph(edges, n=n)
        pair, cert = exact_max_union(g)
        want_u, want_h = max_disjoint_matching_pair(n, edges)
        assert (cert, evaluate(pair).h_edges) == (want_u, want_h)


def test_switch_stable_local_search_matches_exact_union_on_small_graphs():
    hits = total = 0
    for n, edges in sample_subcubic_instances(30, m_max=14, seed=27, m_min=4):
        g = Graph(edges, n=n)
        if g.m > 14:
            continue
        res = local_search(g, 1)
        if not res.stable:
            continue
        total += 1
        _, cert = exact_max_union(g)
        assert res.pair.union_size <= cert
        hits += res.pair.union_size == cert
    assert total > 20
    assert hits / total >= 0.9
