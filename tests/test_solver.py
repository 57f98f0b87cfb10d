"""Packing solver: sequences, verifier, exact decisions, pipeline, assembly."""

from __future__ import annotations

import random
import time
import tracemalloc

import pytest

from edgepack import (EdgeColoring, Graph, MatchingPair, PackingSequence,
                      SEQ_12_24, assemble, build_conflict_graph,
                      color_exact, exact_max_union, find_improving_move,
                      generate_named, greedy_init, local_search,
                      max_induced_matching, parse_edge_list, random_cubic,
                      solve_exact, solve_pipeline, verify)
from edgepack import conflict, matching
from edgepack.graph import _smallest_last
from oracles import (degeneracy_order_reference, enumerate_packing_colorable,
                     sample_subcubic_instances, solve_exact_reference)


# -- PackingSequence -------------------------------------------------------------

def test_sequence_parse_sugar():
    assert PackingSequence.parse("1^2,2^4").values == (1, 1, 2, 2, 2, 2)
    assert PackingSequence.parse("1,1,2").values == (1, 1, 2)
    assert PackingSequence.parse("1^3,3").values == (1, 1, 1, 3)
    assert str(SEQ_12_24) == "(1^2,2^4)"


def test_sequence_rejects_bad_input():
    with pytest.raises(ValueError):
        PackingSequence.parse("2,1")
    with pytest.raises(ValueError):
        PackingSequence.parse("")
    with pytest.raises(ValueError):
        PackingSequence((1, 0))


# -- verify -----------------------------------------------------------------------

def test_verify_c6_alternating_matchings():
    g = generate_named("c6")
    alt = [g.edge_id(0, 1), g.edge_id(2, 3), g.edge_id(4, 5)]
    coloring = EdgeColoring.from_classes(
        [alt, [e for e in range(6) if e not in alt]], g.m)
    assert verify(g, PackingSequence((1, 1)), coloring) == []


def test_verify_flags_adjacent_same_class_edges():
    g = parse_edge_list("0 1\n1 2")
    coloring = EdgeColoring.from_classes([[0, 1]], g.m)
    violations = verify(g, PackingSequence((1,)), coloring)
    assert len(violations) == 1
    v = violations[0]
    assert (v.class_index, v.e1, v.e2, v.distance, v.required) == (0, 0, 1, 1, 2)


def test_verify_rejects_partial_coloring():
    g = parse_edge_list("0 1\n1 2")
    with pytest.raises(ValueError, match="partial"):
        verify(g, PackingSequence((1, 1)), EdgeColoring((0, -1)))


def test_verify_rejects_out_of_range_class():
    g = parse_edge_list("0 1")
    with pytest.raises(ValueError):
        verify(g, PackingSequence((1,)), EdgeColoring((3,)))


def test_verify_distance_three_classes():
    g = generate_named("c7")
    one_class = EdgeColoring(tuple(0 for _ in range(g.m)))
    assert verify(g, PackingSequence((3,)), one_class)
    spaced = EdgeColoring.from_classes([[0], list(range(1, g.m))], g.m)
    # edges at distance >= 4 from edge 0 do exist on C7 for no pair; class s=3 of size 1 is fine
    assert not [v for v in verify(g, PackingSequence((3, 3)), spaced) if v.class_index == 0]


# -- solve_exact -------------------------------------------------------------------

def test_sharp_example_unsat_then_sat():
    g = generate_named("subdivided_k33")
    assert solve_exact(g, PackingSequence.parse("1^2,2^3")).status == "unsat"
    res = solve_exact(g, SEQ_12_24)
    assert res.status == "sat"
    assert verify(g, SEQ_12_24, res.coloring) == []


def test_petersen_checks():
    g = generate_named("petersen")
    assert solve_exact(g, PackingSequence.parse("1^3")).status == "unsat"
    assert solve_exact(g, PackingSequence.parse("1^4")).status == "sat"
    assert solve_exact(g, PackingSequence.parse("1^3,3")).status == "unsat"
    res = solve_exact(g, PackingSequence.parse("1^3,2"))
    assert res.status == "sat"
    assert verify(g, PackingSequence.parse("1^3,2"), res.coloring) == []


def test_unknown_on_tiny_budget():
    g = random_cubic(30, 2)
    res = solve_exact(g, SEQ_12_24, budget=5)
    assert res.status == "unknown"
    assert res.nodes > 5


def test_exact_agrees_with_plain_enumeration_small():
    seqs = [PackingSequence.parse(s) for s in ("1^2,2^3", "1^2,2^4", "1^3")]
    for n, edges in sample_subcubic_instances(40, m_max=7, seed=5):
        g = Graph(edges, n=n)
        for seq in seqs:
            got = solve_exact(g, seq)
            want = enumerate_packing_colorable(n, edges, seq.values)
            assert got.status == ("sat" if want else "unsat"), (edges, seq.values)
            if got.sat:
                assert verify(g, seq, got.coloring) == []


def test_exact_agrees_with_enumeration_on_tight_sequence():
    seq = PackingSequence.parse("1,2^2")
    unsat = 0
    for n, edges in sample_subcubic_instances(30, m_max=10, seed=6):
        g = Graph(edges, n=n)
        got = solve_exact(g, seq)
        want = enumerate_packing_colorable(n, edges, seq.values)
        assert got.status == ("sat" if want else "unsat"), edges
        unsat += not want
    assert unsat > 0


def test_solve_exact_matches_recursive_reference():
    graphs = [generate_named(name) for name in ("subdivided_k33", "petersen", "k4", "c7")]
    graphs += [Graph(edges, n=n) for n, edges in
               sample_subcubic_instances(60, m_max=12, seed=23)]
    # disconnected graphs, with isolated vertices on top
    pieces = sample_subcubic_instances(40, m_max=7, seed=29)
    for (n1, e1), (n2, e2) in zip(pieces[::2], pieces[1::2]):
        shifted = [(u + n1, v + n1) for u, v in e2]
        graphs.append(Graph(list(e1) + shifted, n=n1 + n2 + len(graphs) % 3))
    seqs = [PackingSequence.parse(s) for s in ("1^2,2^3", "1^2,2^4", "1^3", "1,2^2", "1^3,3")]
    statuses = set()
    for g in graphs:
        order = _smallest_last(g.neighborhoods(1))[::-1]
        assert order == degeneracy_order_reference(g.n, g.edges)
        for seq in seqs:
            for budget in (50_000_000, 4):
                got = solve_exact(g, seq, budget=budget)
                want = solve_exact_reference(g.n, g.edges, seq.values, budget)
                assignment = got.coloring.assignment if got.coloring else None
                assert (got.status, got.nodes, assignment) == want, (g.edges, seq, budget)
                statuses.add(got.status)
    assert statuses == {"sat", "unsat", "unknown"}
    assert any(not g.is_connected() and min(map(len, g.adj)) == 0 for g in graphs)


def test_solve_exact_long_path_and_odd_cycle_need_no_recursion():
    path = Graph([(i, i + 1) for i in range(3000)])
    res = solve_exact(path, PackingSequence.parse("1^2"))
    assert res.status == "sat"
    assert verify(path, PackingSequence.parse("1^2"), res.coloring) == []
    res = solve_exact(generate_named("c1501"), PackingSequence.parse("1^2"))
    assert (res.status, res.nodes) == ("unsat", 1500)


def test_solve_exact_memory_is_linear_in_m():
    # m-bit state per class or per edge would grow 64x from n = 1000 to 8000
    peaks = []
    for n in (1000, 8000):
        g = random_cubic(n, 1)
        g.neighborhoods(1)
        g.neighborhoods(2)
        tracemalloc.start()
        try:
            res = solve_exact(g, SEQ_12_24, budget=g.m // 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (res.status, res.nodes) == ("unknown", g.m // 2 + 1)
    assert peaks[1] <= 16 * peaks[0]


def test_solve_exact_empty_graph():
    g = Graph([], n=3)
    res = solve_exact(g, SEQ_12_24)
    assert res.status == "sat"
    assert verify(g, SEQ_12_24, res.coloring) == []


def test_monotonicity_on_sampled_instances():
    rng = random.Random(9)
    for n, edges in sample_subcubic_instances(12, m_max=8, seed=19):
        g = Graph(edges, n=n)
        seq = PackingSequence.parse("1^2,2^3")
        res = solve_exact(g, seq)
        if res.status != "sat":
            continue
        # appending classes keeps SAT
        assert solve_exact(g, PackingSequence.parse("1^2,2^4")).status == "sat"
        # decreasing an s value keeps SAT
        weaker = sorted(seq.values)
        idx = rng.randrange(len(weaker))
        weaker[idx] = 1
        assert solve_exact(g, PackingSequence(tuple(sorted(weaker)))).status == "sat"


# -- assemble and pipeline ----------------------------------------------------------

def test_assemble_empty_leftover_is_two_matchings():
    g = generate_named("c6")
    res = local_search(g, 0)
    coloring = assemble(res.pair, ())
    classes = coloring.classes(6)
    assert sorted(classes[0]) == sorted(res.pair.m1)
    assert sorted(classes[1]) == sorted(res.pair.m2)
    assert all(not classes[i] for i in range(2, 6))


def test_assemble_subdivided_k33_uses_all_classes():
    g = generate_named("subdivided_k33")
    pair, _ = exact_max_union(g)
    h = build_conflict_graph(g, pair)
    col = color_exact(h, 4)
    assert col.sat
    coloring = assemble(pair, col.colors)
    assert verify(g, SEQ_12_24, coloring) == []
    assert all(coloring.classes(6))


def test_assemble_rejects_improper_coloring():
    g = generate_named("subdivided_k33")
    pair, _ = exact_max_union(g)
    with pytest.raises(ValueError, match="improper on vertices 0, 1$"):
        assemble(pair, (0, 0, 0, 0))   # H is K4: two equal colors collide
    # assemble checks without H; it must name the first clash H shows
    rng = random.Random(17)
    for seed in range(20):
        g = random_cubic(10 + 2 * seed, seed)
        pair = greedy_init(g, seed)
        h = build_conflict_graph(g, pair)
        colors = [rng.randrange(4) for _ in range(h.n)]
        clash = next(((i, j) for i in range(h.n) for j in h.adj[i]
                      if j > i and colors[i] == colors[j]), None)
        if clash is None:
            assert verify(g, SEQ_12_24, assemble(pair, colors)) == []
        else:
            with pytest.raises(ValueError, match=f"vertices {clash[0]}, {clash[1]}$"):
                assemble(pair, colors)


def test_greedy_colouring_tier_at_scale():
    # greedy pair -> H -> color_exact -> assemble -> verify at the default
    # recursion limit; H has over a thousand vertices in one component
    g = random_cubic(2000, 0)
    pair = greedy_init(g, 0)
    h = build_conflict_graph(g, pair)
    col = color_exact(h, 4)
    assert col.sat
    assert verify(g, SEQ_12_24, assemble(pair, col.colors)) == []


def test_pipeline_c6_uses_only_matchings():
    g = generate_named("c6")
    res = solve_pipeline(g, 0)
    assert res.status == "sat" and res.method == "greedy"
    classes = res.coloring.classes(6)
    assert all(not classes[i] for i in range(2, 6))


def test_pipeline_petersen_verified():
    g = generate_named("petersen")
    res = solve_pipeline(g, 0)
    assert res.status == "sat"
    assert verify(g, SEQ_12_24, res.coloring) == []


def test_pipeline_random_cubics_verified():
    for seed in range(10):
        g = random_cubic(24, seed)
        res = solve_pipeline(g, seed)
        assert res.status == "sat"
        assert verify(g, SEQ_12_24, res.coloring) == []


def test_pipeline_escalates_past_a_failing_greedy_tier(monkeypatch):
    # with the empty pair, H is the square of the line graph, which holds a
    # K5 (an edge and its four neighbors), so no greedy attempt can answer
    monkeypatch.setattr("edgepack.solver.greedy_init",
                        lambda g, seed: MatchingPair(g, (), ()))
    for seed in range(3):
        g = random_cubic(16 + 4 * seed, seed)
        res = solve_pipeline(g, seed)
        assert (res.status, res.method) == ("sat", "pipeline")
        assert verify(g, SEQ_12_24, res.coloring) == []


def test_pipeline_switch_tier_cannot_hang_on_a_hard_h(monkeypatch):
    # the pair finder is patched to a pair whose H is not 4-colored, and the
    # switch walk to one that counts every start as stable: the pipeline must
    # give up through the budgeted core coloring and hand over to the exact
    # fallback.  The empty pair's H holds a K5; the greedy pair's H below has
    # a 96-vertex 4-core that the budget cannot settle and an unbudgeted
    # color_exact did not settle in minutes
    hard_g = random_cubic(150, 7011)
    hard = greedy_init(hard_g, 11)
    cases = ((random_cubic(10, 1), lambda g, seed: MatchingPair(g, (), ()), 8),
             (hard_g, lambda g, seed: hard, 1))
    for g, pair_of, retries in cases:
        monkeypatch.setattr("edgepack.solver.greedy_init", pair_of)
        monkeypatch.setattr("edgepack.solver._switch_walk",
                            lambda pair, counter, memo: (pair,))
        monkeypatch.setattr("edgepack.solver._RETRIES", retries)
        t0 = time.perf_counter()
        res = solve_pipeline(g, 0)
        elapsed = time.perf_counter() - t0
        assert (res.status, res.method) == ("sat", "fallback")
        assert verify(g, SEQ_12_24, res.coloring) == []
        if g.n == 10:
            assert elapsed < 1.0


def test_pipeline_switch_tier_stops_at_the_first_pair_that_colors(monkeypatch):
    # the greedy pair's 96-vertex 4-core defeats the budgeted coloring; a few
    # switch moves from that same pair reach an H that colors, and the switch
    # tier stops there instead of walking on to a switch-stable pair
    hard_g = random_cubic(150, 7011)
    hard = greedy_init(hard_g, 11)
    monkeypatch.setattr("edgepack.solver.greedy_init", lambda g, seed: hard)
    moves = []
    apply_move = matching.apply_move

    def counted(pair, move):
        moves.append(move)
        return apply_move(pair, move)

    monkeypatch.setattr("edgepack.matching.apply_move", counted)
    res = solve_pipeline(hard_g, 0)
    assert (res.status, res.method) == ("sat", "pipeline")
    assert verify(hard_g, SEQ_12_24, res.coloring) == []
    assert 1 <= len(moves) <= 5


def test_switch_stable_pair_below_the_threshold_with_a_k5_conflict_graph(monkeypatch):
    # n = 10 lies below the paper's 70-vertex threshold: this greedy pair is
    # switch-stable, yet its H is K5, while G itself is (1^2,2^4)-colorable.
    # The switch tier stops at the stable pair and the exact fallback answers
    g = random_cubic(10, 100420)
    pair = greedy_init(g, 420)
    assert find_improving_move(pair) is None
    h = build_conflict_graph(g, pair)
    assert (h.n, h.edge_count) == (5, 10)
    assert color_exact(h, 4).status == "unsat"
    assert solve_exact(g, SEQ_12_24).status == "sat"
    monkeypatch.setattr("edgepack.solver.greedy_init", lambda g, seed: pair)
    t0 = time.perf_counter()
    res = solve_pipeline(g, 0)
    elapsed = time.perf_counter() - t0
    assert (res.status, res.method) == ("sat", "fallback")
    assert verify(g, SEQ_12_24, res.coloring) == []
    assert elapsed < 1.0


def test_pipeline_greedy_tier_at_scale():
    for seed in range(2):
        g = random_cubic(3000, seed)
        res = solve_pipeline(g, seed)
        assert (res.status, res.method) == ("sat", "greedy")
        assert verify(g, SEQ_12_24, res.coloring) == []


def test_greedy_tier_colors_an_all_core_h():
    # every vertex of this H but one lies in its 4-core, so the peel leaves
    # the whole search to the budgeted coloring of the core
    g = random_cubic(10**4, 1)
    pair = greedy_init(g, 1)
    h = build_conflict_graph(g, pair)
    order, start = conflict._peel(h.adj)
    assert (h.n, len(order) - start) == (6338, 6337)
    col = conflict._peel_color(h)
    assert col.status == "sat"
    assert verify(g, SEQ_12_24, assemble(pair, col.colors)) == []


def test_pipeline_accepts_components_requires_subcubic():
    petersen = generate_named("petersen")
    k4_and_petersen = Graph(list(generate_named("k4").edges)
                            + [(u + 4, v + 4) for u, v in petersen.edges])
    isolated_vertex = Graph(petersen.edges, n=11)
    for g in (parse_edge_list("0 1\n2 3"), isolated_vertex, k4_and_petersen,
              Graph([], n=3)):
        res = solve_pipeline(g, 0)
        assert res.status == "sat", g
        assert verify(g, SEQ_12_24, res.coloring) == [], g
    with pytest.raises(ValueError, match="subcubic"):
        solve_pipeline(Graph([(0, i) for i in range(1, 5)]), 0)


def test_pipeline_exact_agreement():
    # whenever the pipeline says SAT, exact must not say UNSAT
    for seed in range(4):
        g = random_cubic(12, seed)
        pres = solve_pipeline(g, seed)
        if pres.status == "sat":
            assert solve_exact(g, SEQ_12_24).status == "sat"


def test_pipeline_fallback_path(monkeypatch):
    monkeypatch.setattr("edgepack.solver._RETRIES", 0)
    g = random_cubic(14, 1)
    res = solve_pipeline(g, 1)
    assert res.status == "sat" and res.method == "fallback"
    assert verify(g, SEQ_12_24, res.coloring) == []
    res = solve_pipeline(g, 1, exact_budget=3)
    assert res.status == "fail" and res.method == "fallback"
    assert res.coloring is None


# -- max_induced_matching -------------------------------------------------------------

def test_max_induced_matching_examples():
    assert max_induced_matching(generate_named("subdivided_k33")) == 1
    assert max_induced_matching(generate_named("c6")) == 2
    assert max_induced_matching(parse_edge_list("0 1")) == 1


def test_max_induced_matching_guard():
    with pytest.raises(ValueError):
        max_induced_matching(random_cubic(20, 0))


def test_max_induced_matching_matches_oracle():
    from oracles import brute_max_induced_matching
    for n, edges in sample_subcubic_instances(25, m_max=10, seed=3):
        g = Graph(edges, n=n)
        assert max_induced_matching(g) == brute_max_induced_matching(n, edges)
