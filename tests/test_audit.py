"""Structure audit: component classification, lemma predicates, discharging."""

from __future__ import annotations

from fractions import Fraction

import pytest

from edgepack import (Graph, MatchingPair, build_conflict_graph,
                      check_lemmas, classify_components, compute_charges,
                      generate_named, greedy_init, is_switch_stable, ky_bound,
                      local_search, random_cubic, union_objective_key)
from oracles import sample_subcubic_instances


def _pair(g, m1, m2):
    to_id = lambda pairs: [g.edge_id(u, v) for u, v in pairs]
    return MatchingPair(g, to_id(m1), to_id(m2))


# -- classify_components ---------------------------------------------------------

def test_classify_c5_single_p2():
    g = generate_named("c5")
    pair = _pair(g, [(0, 1), (2, 3)], [(1, 2), (3, 4)])
    comps = classify_components(g, pair)
    assert [c.kind for c in comps] == ["P2"]


def test_classify_k4_cycle_violation():
    g = generate_named("k4")
    pair = _pair(g, [(0, 1)], [])
    comps = classify_components(g, pair)
    assert any(c.kind == "VIOLATION" and c.reason == "cycle" for c in comps)


def test_classify_c1_shape():
    # spider: center edge 1-2, two leaves at 1, one tail at 2
    g = Graph([(0, 1), (1, 3), (1, 2), (2, 4)], n=5)
    comps = classify_components(g, MatchingPair(g))
    assert [c.kind for c in comps] == ["VIOLATION"]
    assert comps[0].reason == "C1-shape"


def test_classify_long_path_violation():
    g = Graph([(i, i + 1) for i in range(5)], n=6)
    comps = classify_components(g, MatchingPair(g))
    assert comps[0].reason == "too-many-edges"


def test_classify_stable_pairs_basic_only():
    for seed in range(6):
        g = random_cubic(16, seed)
        res = local_search(g, seed)
        assert res.stable
        for comp in classify_components(g, res.pair):
            assert comp.kind in ("P2", "P3", "P4", "K13")


# -- check_lemmas ------------------------------------------------------------------

def test_lemmas_vacuous_on_alternating_c6():
    g = generate_named("c6")
    pair = _pair(g, [(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4), (0, 5)])
    rep = check_lemmas(g, pair)
    assert rep.hard_violations() == []
    assert rep.no_k13_p4_link.holds and rep.no_p4_midp3_link.holds
    assert rep.no_p4_at_all.holds and rep.paired_p3_count == 0
    assert rep.leaf_double_mid_link.holds and rep.chain_p3_p3_p3.holds
    assert rep.two_leaves_two_mids.holds


def test_linked_claws_detected():
    # two claws whose leaves are joined through m2, leaf tails matched in m1
    g = Graph([(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7),
               (1, 5), (1, 8), (5, 9)], n=10)
    pair = _pair(g, [(1, 8), (5, 9)], [(1, 5)])
    rep = check_lemmas(g, pair)
    assert not rep.no_k13_k13_link.holds
    witness = rep.no_k13_k13_link.witness
    assert witness["edge"] == g.edge_id(1, 5)


def test_c1_subgraph_detected():
    g = Graph([(0, 1), (1, 3), (1, 2), (2, 4)], n=5)
    rep = check_lemmas(g, MatchingPair(g))
    assert not rep.no_c1.holds
    assert len(rep.no_c1.witness["vertices"]) == 5
    # a C1 is acyclic with diameter 3, so the other two claims still hold
    assert rep.no_cycle.holds
    assert rep.no_long_path.holds


def test_cycle_and_long_path_detected():
    g = generate_named("c5")
    rep = check_lemmas(g, MatchingPair(g))
    assert not rep.no_cycle.holds
    path = Graph([(i, i + 1) for i in range(5)], n=6)
    rep2 = check_lemmas(path, MatchingPair(path))
    assert not rep2.no_long_path.holds
    assert len(rep2.no_long_path.witness["vertices"]) == 5


def test_paired_p3_counted():
    # two P3s with middles 0 and 3 joined by a matched edge
    g = Graph([(0, 1), (0, 2), (3, 4), (3, 5), (0, 3)], n=6)
    pair = _pair(g, [(0, 3)], [])
    rep = check_lemmas(g, pair)
    assert rep.paired_p3_count == 1 and rep.paired_p3_at_most_one


def test_objective_and_audit_see_the_same_leftover():
    paired_seen = p4_seen = 0
    for i, (n, edges) in enumerate(sample_subcubic_instances(80, m_max=30, seed=11)):
        g = Graph(edges, n=n)
        for pair in (greedy_init(g, i), MatchingPair(g, greedy_init(g, i).m1)):
            key = union_objective_key(g, pair.union_mask())
            p4 = sum(1 for c in classify_components(g, pair) if c.kind == "P4")
            assert key[4] == check_lemmas(g, pair).paired_p3_count
            assert key[2] == p4
            paired_seen += key[4] > 0
            p4_seen += p4 > 0
    assert paired_seen and p4_seen


def test_p4_to_p3_middle_link_detected():
    # P4 on 0-1-2-3, P3 on 5-4-6, matched edge from P4 end 0 to middle 4
    g = Graph([(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (0, 4)], n=7)
    pair = _pair(g, [(0, 4)], [])
    rep = check_lemmas(g, pair)
    assert not rep.no_p4_midp3_link.holds
    assert not rep.no_p4_at_all.holds


def test_k13_p4_link_detected():
    g = Graph([(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7), (1, 4)], n=8)
    pair = _pair(g, [(1, 4)], [])
    rep = check_lemmas(g, pair)
    assert not rep.no_k13_p4_link.holds


def test_leaf_double_mid_link_detected():
    # P3 A = 1-0-2; leaf 2 joined to middle 3 of P3 B = 4-3-5 and to leaf 7 of
    # P3 C = 7-6-8
    g = Graph([(0, 1), (0, 2), (3, 4), (3, 5), (6, 7), (6, 8),
               (2, 3), (2, 7)], n=9)
    pair = _pair(g, [(2, 3)], [(2, 7)])
    rep = check_lemmas(g, pair)
    assert not rep.leaf_double_mid_link.holds


def test_chain_of_three_p3s_detected():
    # A middle 0 -> B leaf 4 (B = 4-3-5, middle 3); B middle 3 -> C leaf 7
    g = Graph([(0, 1), (0, 2), (3, 4), (3, 5), (6, 7), (6, 8),
               (0, 4), (3, 7)], n=9)
    pair = _pair(g, [(0, 4), (3, 7)], [])
    rep = check_lemmas(g, pair)
    assert not rep.chain_p3_p3_p3.holds


def test_two_leaves_two_mids_detected():
    # A = 1-0-2; leaf 1 -> middle 3 of B; leaf 2 -> middle 6 of C
    g = Graph([(0, 1), (0, 2), (3, 4), (3, 5), (6, 7), (6, 8),
               (1, 3), (2, 6)], n=9)
    pair = _pair(g, [(1, 3), (2, 6)], [])
    rep = check_lemmas(g, pair)
    assert not rep.two_leaves_two_mids.holds


def test_stable_batch_hard_predicates_hold():
    for seed in range(12):
        g = random_cubic(20, 100 + seed)
        res = local_search(g, seed)
        assert res.stable
        rep = check_lemmas(g, res.pair, stability=(2, 1, 3))
        assert rep.hard_violations() == []
        assert rep.stability == (2, 1, 3)


# -- compute_charges ---------------------------------------------------------------

def _p2_row_instance():
    # target P2 = 0-1; each endpoint has two matched edges toward pendant P2s
    g = Graph([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5),
               (2, 6), (3, 7), (4, 8), (5, 9)], n=10)
    pair = _pair(g, [(0, 2), (1, 4)], [(0, 3), (1, 5)])
    return g, pair


def test_charges_p2_row():
    g, pair = _p2_row_instance()
    report = compute_charges(g, pair)
    target = g.edge_id(0, 1)
    assert report.initial[target] == Fraction(-1, 2)
    idx = next(i for i, edges in enumerate(report.component_edges)
               if edges == (target,))
    assert report.component_kinds[idx] == "P2"
    assert report.component_net[idx] == Fraction(-1, 2)
    assert report.transfers == ()


def test_charges_unpaired_p3_row():
    # P3 = 1-0-2 with middle 0 matched toward a P2 at 3-4; leaves matched to
    # pendant P2 gadgets
    g = Graph([(0, 1), (0, 2), (0, 3), (3, 4),
               (1, 5), (1, 6), (2, 9), (2, 10),
               (5, 7), (6, 8), (9, 11), (10, 12)], n=13)
    pair = _pair(g, [(0, 3), (1, 5), (2, 9)], [(1, 6), (2, 10)])
    report = compute_charges(g, pair)
    p3 = tuple(sorted((g.edge_id(0, 1), g.edge_id(0, 2))))
    idx = report.component_edges.index(p3)
    assert report.component_kinds[idx] == "P3"
    assert report.component_initial[idx] == Fraction(-1)
    assert report.component_net[idx] == Fraction(0)
    # the incoming unit flows from the P2 behind vertex 3
    assert any(dst == idx for _, dst, _ in report.transfers)


def test_charges_paired_p3_row():
    g = Graph([(0, 1), (0, 2), (3, 4), (3, 5), (0, 3),
               (1, 6), (1, 7), (2, 8), (2, 9),
               (4, 10), (4, 11), (5, 12), (5, 13),
               (6, 14), (7, 15), (8, 16), (9, 17),
               (10, 18), (11, 19), (12, 20), (13, 21)], n=22)
    pair = _pair(g,
                 [(0, 3), (1, 6), (2, 8), (4, 10), (5, 12)],
                 [(1, 7), (2, 9), (4, 11), (5, 13)])
    report = compute_charges(g, pair)
    for middle in (0, 3):
        a = tuple(sorted(e for e in range(g.m)
                         if middle in g.endpoints(e)
                         and e not in pair.m1 and e not in pair.m2))
        idx = report.component_edges.index(a)
        assert report.component_kinds[idx] == "P3"
        assert report.component_net[idx] == Fraction(1)
    rep = check_lemmas(g, pair)
    assert rep.paired_p3_count == 1


def test_charges_k13_row():
    g = Graph([(0, 1), (0, 2), (0, 3),
               (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9),
               (4, 10), (5, 11), (6, 12), (7, 13), (8, 14), (9, 15)], n=16)
    pair = _pair(g, [(1, 4), (2, 6), (3, 8)], [(1, 5), (2, 7), (3, 9)])
    report = compute_charges(g, pair)
    star = tuple(sorted(g.edge_id(0, x) for x in (1, 2, 3)))
    idx = report.component_edges.index(star)
    assert report.component_kinds[idx] == "K13"
    assert report.component_net[idx] == Fraction(-3, 2)


def test_charge_conservation_and_h_degrees():
    for seed in range(6):
        g = random_cubic(18, seed)
        res = local_search(g, seed)
        report = compute_charges(g, res.pair)
        assert report.total_initial == report.total_net
        assert sum(report.component_net, Fraction(0)) == report.total_net
        h = build_conflict_graph(g, res.pair)
        for i, e in enumerate(h.vertices):
            assert report.initial[e] == Fraction(h.degree(i)) - Fraction(9, 2)


def test_charges_reject_violation_components():
    g = generate_named("k4")
    with pytest.raises(ValueError):
        compute_charges(g, _pair(g, [(0, 1)], []))


# -- ky_bound -----------------------------------------------------------------------

def test_ky_bound_values():
    assert ky_bound(5, 5) == 10
    assert ky_bound(5, 9) == 19
    assert ky_bound(4, 4) == 6


def test_ky_bound_k5_identity():
    for n in range(5, 41):
        assert ky_bound(5, n) == Fraction(9, 4) * n - Fraction(5, 4)


def test_ky_bound_rejects_bad_args():
    with pytest.raises(ValueError):
        ky_bound(2, 5)
    with pytest.raises(ValueError):
        ky_bound(5, 4)


# -- is_switch_stable ------------------------------------------------------------------

def test_switch_stable_examples():
    g = generate_named("c6")
    alt = _pair(g, [(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4), (0, 5)])
    assert is_switch_stable(g, alt)
    k4 = generate_named("k4")
    assert not is_switch_stable(k4, MatchingPair(k4))


def test_switch_stable_replay_of_search_output():
    for seed in range(5):
        g = random_cubic(14, seed)
        res = local_search(g, seed)
        if res.stable:
            assert is_switch_stable(g, res.pair)
