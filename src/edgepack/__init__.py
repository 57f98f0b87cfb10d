"""S-packing edge-colorings of subcubic graphs.

Library layout:

- graph: Graph type, parsing (edge list, graph6), named families, random
  cubic graphs, and the edge-distance metric with per-edge distance
  neighborhoods.
- matching: disjoint matching pairs, the search objective over their union
  (union_objective_key), move application, the pruned improving-move scanner,
  the local search to switch-stability, and the certified exact union
  maximizer.
- conflict: the distance-<=2 conflict graph H over leftover edges and its
  exact k-coloring (iterative DSATUR with conflict-directed backjumping).
- solver: packing-sequence semantics, the verifier, the exact backtracking
  decision procedure, and the constructive (1^2,2^4) pipeline.
- leftover: components of G - M1 - M2 and their shape classes.
- audit: leftover-component classification, structural-lemma predicates,
  and the exact-rational discharging ledger.
- cli: the edgepack command-line front end.

Literal reference implementations that the tests check the library against
(the full objective tuple, the enumeration of every admissible move, triangle
counting, chronological DSATUR) live in the test suite, not here.
"""

from .graph import (Graph, edge_distance, generate_named, parse_edge_list,
                    parse_graph6, random_cubic, to_edge_list_text, to_graph6)
from .leftover import Component, LeftoverGraph, build_leftover
from .conflict import (ColoringResult, ConflictGraph, build_conflict_graph,
                       color_exact)
from .matching import (MatchingPair, Move, SearchResult, apply_move,
                       exact_max_union, find_improving_move, greedy_init,
                       local_search, union_objective_key)
from .audit import (ChargeReport, LemmaReport, PredicateResult,
                    check_lemmas, classify_components, compute_charges,
                    is_switch_stable, ky_bound)
from .solver import (EdgeColoring, PackingSequence, SEQ_12_24, SolveResult,
                     Violation, assemble, max_induced_matching, solve_exact,
                     solve_pipeline, verify)

__version__ = "0.1.0"

__all__ = [
    "Graph", "edge_distance", "generate_named", "parse_edge_list",
    "parse_graph6", "random_cubic", "to_edge_list_text", "to_graph6",
    "Component", "LeftoverGraph", "build_leftover",
    "ColoringResult", "ConflictGraph", "build_conflict_graph", "color_exact",
    "MatchingPair", "Move", "SearchResult", "apply_move", "exact_max_union",
    "find_improving_move", "greedy_init", "local_search", "union_objective_key",
    "ChargeReport", "LemmaReport", "PredicateResult", "check_lemmas",
    "classify_components", "compute_charges", "is_switch_stable", "ky_bound",
    "EdgeColoring", "PackingSequence", "SEQ_12_24", "SolveResult",
    "Violation", "assemble", "max_induced_matching", "solve_exact",
    "solve_pipeline", "verify",
]
