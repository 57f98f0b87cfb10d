"""Spans and counters for the traced run, recorded from outside the library.

Tracer.install replaces edgepack functions with wrappers by assigning module
(and class) attributes.  A function imported into several edgepack modules is
replaced in every one of them, so calls between layers are caught as well as
the benchmark's own calls.  Each wrapper records a span (id, name, start,
end, parent id, operation id) in memory; when the operation ends, outside
its timing, its spans are reduced to per-layer totals and dropped.

A layer's self time is the time its spans cover minus the time their child
spans cover.  The operation's own span belongs to no layer: its self time is
the remainder that no wrapped function accounts for, so the layer self times
plus that remainder add up to the operation's wall time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); the span name's prefix is its layer
TARGETS = (
    ("edgepack.graph", "Graph.__init__", "graph.init"),
    ("edgepack.graph", "Graph.distance_masks", "graph.distance_masks"),
    ("edgepack.matching", "greedy_init", "matching.greedy_init"),
    ("edgepack.matching", "local_search", "matching.local_search"),
    ("edgepack.matching", "find_improving_move", "matching.find_improving_move"),
    ("edgepack.matching", "union_objective_key", "matching.objective"),
    ("edgepack.matching", "apply_move", "matching.apply_move"),
    ("edgepack.conflict", "build_conflict_graph", "conflict.build"),
    ("edgepack.conflict", "color_exact", "conflict.color"),
    ("edgepack.leftover", "build_leftover", "leftover.build"),
    ("edgepack.solver", "solve_pipeline", "solver.pipeline"),
    ("edgepack.solver", "solve_exact", "solver.exact"),
    ("edgepack.solver", "assemble", "solver.assemble"),
    ("edgepack.solver", "verify", "solver.verify"),
    ("edgepack.audit", "is_switch_stable", "audit.is_switch_stable"),
    ("edgepack.audit", "check_lemmas", "audit.check_lemmas"),
    ("edgepack.audit", "compute_charges", "audit.compute_charges"),
)
LAYERS = ("graph", "matching", "conflict", "leftover", "solver", "audit")
OP = "op"

# spans whose arguments and result the counters read after the operation
_KEEP = {"graph.distance_masks", "matching.greedy_init", "matching.local_search",
         "conflict.color", "solver.exact"}

# per-layer time metric -> the span whose inclusive time it reports
_TIMES = (
    ("graph.init_s", "graph.init"),
    ("graph.distance_masks_s", "graph.distance_masks"),
    ("matching.local_search_s", "matching.local_search"),
    ("matching.objective_s", "matching.objective"),
    ("matching.apply_move_s", "matching.apply_move"),
    ("matching.greedy_init_s", "matching.greedy_init"),
    ("matching.find_improving_move_s", "matching.find_improving_move"),
    ("conflict.build_s", "conflict.build"),
    ("conflict.color_s", "conflict.color"),
    ("leftover.build_s", "leftover.build"),
    ("solver.assemble_s", "solver.assemble"),
    ("solver.verify_s", "solver.verify"),
    ("solver.exact_s", "solver.exact"),
    ("audit.check_lemmas_s", "audit.check_lemmas"),
    ("audit.compute_charges_s", "audit.compute_charges"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stash = []
        self.current = None
        self.next_id = 0
        self.missing = []
        self._undo = []
        self.ops = 0                            # operations ended; also the current op id
        self.span_count = 0
        self.incl = defaultdict(float)          # span name -> inclusive seconds
        self.calls = Counter()                  # span name -> calls
        self.self_time = defaultdict(float)     # layer (or OP) -> self seconds
        self.self_by_span = defaultdict(float)  # span name -> self seconds
        self.counts = Counter()

    # -- installation -------------------------------------------------------

    def install(self):
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "edgepack" or name.startswith("edgepack."))]
        for modname, attr, span in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(span, fn)
            homes = [owner] if owner_name else [m for m in mods if vars(m).get(leaf) is fn]
            for home in homes:
                self._undo.append((home, leaf, fn))
                setattr(home, leaf, wrapped)

    def uninstall(self):
        for home, leaf, fn in reversed(self._undo):
            setattr(home, leaf, fn)
        self._undo.clear()

    def _wrap(self, name, fn):
        spans, stash = self.spans, self.stash
        keep = name in _KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            sid = self.next_id
            self.next_id = sid + 1
            self.current = sid
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.current = parent
                spans.append((sid, name, start, end, parent, self.ops))
                if keep:
                    stash.append((name, args, result))
            return result

        return traced

    # -- one operation ------------------------------------------------------

    def begin_op(self):
        self.root = self.current = self.next_id
        self.next_id += 1

    def end_op(self, start, end):
        """Close the operation's span and fold its spans into the totals."""
        spans = self.spans
        spans.append((self.root, OP, start, end, None, self.ops))
        self.current = None
        covered = defaultdict(float)
        names = {}
        for sid, name, t0, t1, parent, _ in spans:
            covered[parent] += t1 - t0
            names[sid] = name
        for sid, name, t0, t1, parent, _ in spans:
            own = t1 - t0 - covered[sid]
            self.self_time[name.split(".")[0]] += own
            self.self_by_span[name] += own
            self.incl[name] += t1 - t0
            self.calls[name] += 1
            if names.get(parent) == "solver.pipeline":
                if name == "matching.local_search":
                    self.counts["pipeline_attempts"] += 1
                elif name == "solver.exact":
                    self.counts["fallbacks"] += 1
        built = set()
        for name, args, result in self.stash:
            self._count(name, args, result, built)
        self.ops += 1
        self.span_count += len(spans)
        spans.clear()
        self.stash.clear()

    def _count(self, span, args, result, built):
        """Counters from a kept call; result is None when the call raised."""
        c = self.counts
        if span == "conflict.color":
            h = args[0]
            c["h_vertices"] += h.n
            c["h_edges"] += h.edge_count
            c["h_largest"] += largest_component(h.adj)
        if result is None:
            return
        if span == "graph.distance_masks":
            key = (id(args[0]), args[1])
            if key not in built:
                built.add(key)
                c["mask_builds"] += 1
                c["mask_bytes"] += sys.getsizeof(result) + sum(map(sys.getsizeof, result))
        elif span == "matching.greedy_init":
            c["greedy_union"] += result.union_size / max(1, args[0].m)
        elif span == "matching.local_search":
            c["scan_ticks"] += getattr(result, "evaluations", 0)
            c["restarts"] += result.restarts
            c["stable"] += bool(result.stable)
        elif span == "conflict.color":
            c["color_nodes"] += result.nodes
            c["color_unsat"] += not result.sat
        elif span == "solver.exact":
            c["exact_nodes"] += result.nodes

    # -- results ------------------------------------------------------------

    def metrics(self, edges_per_s, overhead):
        """Per-layer metrics: times and counts per operation, H sizes per
        coloured H, ratios per call, and the traced run's throughput and
        extra wall time against the same operations untraced."""
        ops = max(1, self.ops)
        c = self.counts
        per_op = lambda x: x / ops
        per = lambda x, n: x / n if n else 0.0
        colored = self.calls["conflict.color"]
        searches = self.calls["matching.local_search"]
        out = {}
        for metric, span in _TIMES:
            out[metric] = (per_op(self.incl[span]), "s/op")
        out.update({
            "graph.mask_builds": (per_op(c["mask_builds"]), "count/op"),
            "graph.mask_bytes": (per_op(c["mask_bytes"]), "B/op"),
            "matching.scan_self_s": (per_op(self.self_by_span["matching.local_search"]), "s/op"),
            "matching.scan_ticks": (per_op(c["scan_ticks"]), "count/op"),
            "matching.objective_evals": (per_op(self.calls["matching.objective"]), "count/op"),
            "matching.moves_applied": (per_op(self.calls["matching.apply_move"]), "count/op"),
            "matching.greedy_union": (per(c["greedy_union"], self.calls["matching.greedy_init"]), "ratio"),
            "matching.restarts": (per_op(c["restarts"]), "count/op"),
            "matching.stable_ratio": (per(c["stable"], searches), "ratio"),
            "solver.pipeline_attempts": (per_op(c["pipeline_attempts"]), "count/op"),
            "solver.fallbacks": (per_op(c["fallbacks"]), "count/op"),
            "solver.exact_nodes": (per_op(c["exact_nodes"]), "count/op"),
            "conflict.h_vertices": (per(c["h_vertices"], colored), "count"),
            "conflict.h_edges": (per(c["h_edges"], colored), "count"),
            "conflict.h_largest_component": (per(c["h_largest"], colored), "count"),
            "conflict.color_nodes": (per_op(c["color_nodes"]), "count/op"),
            "conflict.color_unsat": (per_op(c["color_unsat"]), "count/op"),
        })
        for layer in LAYERS:
            out[f"self.{layer}_s"] = (per_op(self.self_time[layer]), "s/op")
        out["self.other_s"] = (per_op(self.self_time[OP]), "s/op")
        out["op.wall_s"] = (per_op(self.incl[OP]), "s/op")
        out["trace.spans"] = (per_op(self.span_count), "count/op")
        out["trace.edges_per_s"] = (edges_per_s, "edges/s")
        out["trace.overhead"] = (overhead, "ratio")
        return out


def largest_component(adj):
    """Vertex count of the largest connected component of an adjacency list."""
    seen = [False] * len(adj)
    best = 0
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        stack = [s]
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        best = max(best, size)
    return best
