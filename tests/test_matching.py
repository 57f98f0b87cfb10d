"""Matching engine: pairs, objective, moves, local search, exact union."""

from __future__ import annotations

import random
from math import comb

import pytest

from edgepack import (Graph, MatchingPair, apply_move, exact_max_union,
                      find_improving_move, generate_named, greedy_init,
                      local_search, parse_edge_list, random_cubic,
                      union_objective_key)
from edgepack import matching
from edgepack.matching import Move
from oracles import (ScanBudgetExhausted, ScanCounter, edge_components, evaluate,
                     find_improving_move_reference, max_disjoint_matching_pair,
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


def _random_partial_pair(rng, g):
    """Each edge, in random order, joins m1 or m2 where it fits, or neither."""
    order = list(range(g.m))
    rng.shuffle(order)
    chosen = {1: set(), 2: set()}
    covered = {1: set(), 2: set()}
    for e in order:
        t = rng.choice((0, 1, 2))
        u, v = g.endpoints(e)
        if t and u not in covered[t] and v not in covered[t]:
            chosen[t].add(e)
            covered[t] |= {u, v}
    return MatchingPair(g, chosen[1], chosen[2])


def _scanner_cases():
    rng = random.Random(43)
    graphs = [_random_subcubic_graph(rng, nmax=12) for _ in range(60)]
    graphs += [random_cubic(n, seed) for n, seeds in
               ((10, 2), (20, 2), (30, 2), (40, 2), (50, 1), (60, 1))
               for seed in range(seeds)]
    cases = []
    for i, g in enumerate(graphs):
        if g.m == 0:
            continue
        pair = greedy_init(g, i)
        cases.append(MatchingPair(g, sorted(pair.m1)[:len(pair.m1) // 2], pair.m2))
        cases.append(_random_partial_pair(rng, g))
        # the pairs a search walks through up to its stable end
        while pair is not None:
            cases.append(pair)
            move = find_improving_move(pair)
            pair = None if move is None else apply_move(pair, move)
    return cases


def _cycle_cuts(pair):
    """(adjacent, wrap-around) position pairs over the union cycles of pair,
    in the walk order both scanners use."""
    g = pair.graph
    label = [1 if e in pair.m1 else 2 if e in pair.m2 else 0 for e in range(g.m)]
    cycles = [c for c in matching._components_from_labels(g, label) if c.is_cycle]
    return sum(len(c.edges) - 1 for c in cycles), len(cycles)


def test_scanner_agrees_with_reference_scanner():
    # the table-driven scanner must return the reference's Move and charge
    # the same ticks, on greedy, half-emptied, random partial and stable pairs
    checked = adjacent = wrapped = 0
    for pair in _scanner_cases():
        for params in ((2, 1, 3), (1, 1, 2), (2, 0, 2), (2, 1, 2)):
            want_ticks = ScanCounter()
            want = find_improving_move_reference(pair, *params, counter=want_ticks)
            state = matching._State(pair, matching._Counter())
            got = matching._find_improving_move(state, *params, {})
            assert got == want, (pair, params)
            assert state.counter.used == want_ticks.used, (pair, params)
            checked += 1
            r, s, _ = params
            # a move-free (2,1,*) scan tries every two-removal pair of each
            # union cycle, among them the pieces cut at adjacent positions
            # and across the walk's wrap-around
            if want is None and r == 2 and s == 1:
                cuts = _cycle_cuts(pair)
                adjacent += cuts[0]
                wrapped += cuts[1]
    assert checked >= 1000
    assert adjacent > 0 and wrapped > 0


def _two_removal_swaps(state, x1, x2, s):
    """The (rep, ends) swaps the two-removal stage tries for the pair."""
    swaps = [(None, ())]
    if s >= 1:
        removals = ((x1, state.label[x1]), (x2, state.label[x2]))
        c1, c2 = state.comp_of[x1], state.comp_of[x2]
        if c1 != c2:
            pieces = (matching._single_pieces(state, x1)
                      + matching._single_pieces(state, x2))
        else:
            gone = tuple(sorted((state.comp_pos[x1], state.comp_pos[x2])))
            pieces = matching._pieces(state.comps[c1], gone)
        edges = state.g.edges
        swaps += matching._swap_candidates(state, removals, pieces,
                                           edges[x1] + edges[x2])
    return swaps


def test_trivial_pair_ticks_match_the_candidate_loops():
    # every removal pair the per-vertex rule settles, rebuilt from the scan's
    # own swap and candidate lists: only x1/x2 re-adds appear, and the charge
    # is what the loops tick for them
    settled = fallback = loose_ends = 0
    for pair in _scanner_cases():
        state = matching._State(pair, matching._Counter())
        tables = matching._pair_tables(state)
        edges = pair.graph.edges
        ends_of = {v for c in state.comps for v in c.ends}
        for i, x1 in enumerate(state.u_edges):
            for x2 in state.u_edges[i + 1:]:
                removals = ((x1, state.label[x1]), (x2, state.label[x2]))
                base_sites = edges[x1] + edges[x2]
                for _, s, a in ((2, 1, 3), (2, 1, 2), (2, 0, 2)):
                    ticks = matching._trivial_pair_ticks(state, tables, x1, x2, s, a)
                    if ticks is None:
                        fallback += 1
                        continue
                    settled += 1
                    want = 1
                    for _, ends in _two_removal_swaps(state, x1, x2, s):
                        cands = matching._addition_candidates(
                            state, base_sites + ends, removals, ends)
                        assert {e for e, _ in cands} <= {x1, x2}, (pair, x1, x2)
                        n = len(cands)
                        want += comb(n, 2) + (comb(n, 3) if a >= 3 else 0)
                        loose_ends += any(v in ends_of for v in ends)
                    assert ticks == want, (pair, x1, x2, s, a)
    assert settled > 10_000 and fallback > 10_000
    assert loose_ends > 1_000


def test_counter_bulk_tick_stops_where_single_ticks_do():
    bulk = matching._Counter(5)
    bulk.tick(3)
    with pytest.raises(matching.BudgetExhausted):
        bulk.tick(4)
    single = matching._Counter(5)
    with pytest.raises(matching.BudgetExhausted):
        for _ in range(7):
            single.tick()
    assert bulk.used == single.used == 6


# Two-removal _addition_candidates calls over the stable pairs below, made by
# the scanner before it settled trivial pairs from per-vertex tables.
_TWO_REMOVAL_LISTS_BEFORE = 11_644


def test_trivial_pair_rule_skips_most_two_removal_lists(monkeypatch):
    pairs = []
    for n in (20, 30, 40):
        for seed in range(3):
            res = local_search(random_cubic(n, seed), seed)
            assert res.stable
            pairs.append(res.pair)
    built = 0
    build = matching._addition_candidates

    def counted(state, sites, removals, ends):
        nonlocal built
        built += len(removals) == 2
        return build(state, sites, removals, ends)

    monkeypatch.setattr(matching, "_addition_candidates", counted)
    for pair in pairs:
        assert find_improving_move(pair) is None
    assert built <= 0.6 * _TWO_REMOVAL_LISTS_BEFORE


def _local_search_reference(g, seed, budget):
    """local_search's restart loop driven by the reference scanner."""
    memo = {}
    best = None
    total = 0
    for i in range(matching._RESTARTS):
        pair = greedy_init(g, seed + i)
        counter = ScanCounter(budget)
        tripped = False
        while True:
            try:
                move = find_improving_move_reference(pair, counter=counter, memo=memo)
            except ScanBudgetExhausted:
                tripped = True
                break
            if move is None:
                break
            pair = apply_move(pair, move)
        total += counter.used
        if not tripped:
            return pair, True, total, i + 1
        key = union_objective_key(g, pair.union_mask())
        if best is None or key < best[0]:
            best = (key, pair)
    return best[1], False, total, matching._RESTARTS


def test_local_search_agrees_with_reference_loop():
    rng = random.Random(53)
    runs = [(_random_subcubic_graph(rng, nmax=12), seed, 200_000) for seed in range(24)]
    runs += [(random_cubic(n, seed), seed, 200_000) for n, seed in
             ((10, 0), (14, 1), (18, 2), (22, 3), (26, 4), (30, 5))]
    runs.append((random_cubic(40, 6), 6, 60))
    tripped = 0
    for g, seed, budget in runs:
        if g.m == 0:
            continue
        res = local_search(g, seed, budget=budget)
        pair, stable, evaluations, restarts = _local_search_reference(g, seed, budget)
        assert (res.pair.m1, res.pair.m2, res.stable, res.evaluations, res.restarts) \
            == (pair.m1, pair.m2, stable, evaluations, restarts), (g, seed)
        tripped += not stable
    assert tripped >= 1


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
