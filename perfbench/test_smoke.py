"""Smoke test for the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted on every workload,
that the traced run gives the same outputs as the untraced one, and that the
independent checkers reject wrong answers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import edgepack as ep  # noqa: E402
from check import colorable, coloring_problems, initial_charges  # noqa: E402
from report import run_once  # noqa: E402
from workloads import CERTIFICATES, SEQ_12_24, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# the per-layer metrics each layer is expected to report
LAYER_METRICS = {
    "graph.distance_masks_s", "graph.mask_builds", "graph.mask_bytes",
    "matching.local_search_s", "matching.scan_self_s", "matching.scan_ticks",
    "matching.objective_evals", "matching.objective_s", "matching.moves_applied",
    "matching.apply_move_s", "matching.greedy_init_s", "matching.greedy_union",
    "matching.restarts", "matching.stable_ratio", "matching.find_improving_move_s",
    "solver.pipeline_attempts", "solver.assemble_s", "solver.verify_s",
    "solver.fallbacks", "solver.exact_s", "solver.exact_nodes",
    "conflict.build_s", "conflict.h_vertices", "conflict.h_edges",
    "conflict.h_largest_component", "conflict.color_s", "conflict.color_nodes",
    "conflict.color_unsat", "leftover.build_s", "audit.check_lemmas_s",
    "audit.compute_charges_s", "trace.edges_per_s", "trace.overhead", "op.wall_s",
    "self.other_s",
}


def test_spec_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert LAYER_METRICS <= {m["name"] for m in SPEC["per_layer"]}
    assert {"setup_s", "edges_per_s"} <= {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_emitted_and_tracing_changes_no_output(workload):
    plain, plain_res = run_once(workload, 3, 0.1, 0)
    traced, traced_res = run_once(workload, 3, 0.1, 1)
    assert set(plain_res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced_res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec_key, res in (("end_to_end", plain_res), ("per_layer", traced_res)):
        units = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert plain_res["correct"] and traced_res["correct"]
    assert plain["first_round_digest"] == traced["first_round_digest"]
    assert plain["errors"] == traced["errors"]
    assert plain["latency_p50_s"] > 0 and "failed_ratio" in plain
    m = traced_res["metrics"]
    layers = sum(v["value"] for k, v in m.items() if k.startswith("self."))
    assert layers == pytest.approx(m["op.wall_s"]["value"], rel=1e-6)


def _pipeline_coloring(n, seed):
    g = ep.random_cubic(n, seed)
    res = ep.solve_pipeline(g, seed)
    return g, list(res.coloring.assignment)


def test_checker_accepts_valid_and_rejects_corrupted_colorings():
    g, colors = _pipeline_coloring(30, 4)
    assert coloring_problems(g.n, g.edges, SEQ_12_24, colors) == []
    for e, (u, v) in enumerate(g.edges):
        # move e into the class of an edge it touches (distance 1) ...
        f = next(f for f in g.incident(u) if f != e)
        bad = list(colors)
        bad[e] = colors[f]
        assert coloring_problems(g.n, g.edges, SEQ_12_24, bad)
        # ... or into an induced-matching class used two steps away
        far = {colors[h] for w in g.adj[u] for h in g.incident(w)} - {0, 1}
        for c in far - {colors[x] for x in (*g.incident(u), *g.incident(v))}:
            bad = list(colors)
            bad[e] = c
            assert coloring_problems(g.n, g.edges, SEQ_12_24, bad)
    assert coloring_problems(g.n, g.edges, SEQ_12_24, colors[:-1])
    assert coloring_problems(g.n, g.edges, SEQ_12_24, colors[:-1] + [6])


def test_oracle_gives_the_paper_answers():
    for family, seq, answer in CERTIFICATES:
        g = ep.generate_named(family)
        svalues = tuple(ep.PackingSequence.parse(seq))
        assert colorable(g.n, g.edges, svalues) == (answer == "sat")


def test_initial_charges_match_the_ledger():
    g = ep.random_cubic(40, 2)
    pair = ep.local_search(g, 2).pair
    assert initial_charges(g.n, g.edges, pair.union()) == ep.compute_charges(g, pair).initial
