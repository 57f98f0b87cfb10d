"""The conflict graph H on leftover edges, and its exact k-coloring.

H has one vertex per edge of G - M1 - M2, with two vertices adjacent when
the corresponding edges are at distance <= 2 in G.  A proper k-coloring of H
is exactly a partition of the leftover edges into k induced matchings of G.

H here is well-defined for any matching pair; the structural guarantees that
hold at optimal pairs do not transfer to arbitrary ones, so callers must not
assume them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConflictGraph:
    """Conflict graph over leftover edges.

    vertices[i] is the EdgeId behind vertex i, ascending; adj[i] lists the
    indices of vertices at edge distance <= 2.
    """

    vertices: tuple
    adj: tuple
    edge_count: int

    @property
    def n(self):
        return len(self.vertices)

    def index_of(self, edge_id):
        lo, hi = 0, len(self.vertices)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.vertices[mid] < edge_id:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(self.vertices) or self.vertices[lo] != edge_id:
            raise KeyError(f"edge {edge_id} is not a leftover edge")
        return lo

    def degree(self, i):
        return len(self.adj[i])


@dataclass(frozen=True)
class ColoringResult:
    """Outcome of color_exact: status "sat" or "unsat" plus search effort."""

    status: str
    colors: tuple | None
    nodes: int

    @property
    def sat(self):
        return self.status == "sat"


def build_conflict_graph(g, pair):
    """Build H for the given matching pair on g."""
    union = pair.m1 | pair.m2
    vertices = tuple(e for e in range(g.m) if e not in union)
    masks = g.distance_masks(2)
    left_mask = 0
    for e in vertices:
        left_mask |= 1 << e
    pos = {e: i for i, e in enumerate(vertices)}
    adj = []
    total = 0
    for e in vertices:
        hit = masks[e] & left_mask
        nbrs = []
        while hit:
            low = hit & -hit
            nbrs.append(pos[low.bit_length() - 1])
            hit ^= low
        total += len(nbrs)
        adj.append(tuple(nbrs))
    return ConflictGraph(vertices, tuple(adj), total // 2)


def _components(h):
    seen = [False] * h.n
    out = []
    for s in range(h.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            v = stack.pop()
            for w in h.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


def color_exact(h, k):
    """Proper k-coloring of H, or a certified UNSAT after full exhaustion.

    Backtracking with saturation-degree vertex selection.  Color symmetry is
    broken by allowing at most one previously unused color at each step, so
    color classes are opened in index order.  Components are colored
    independently; node counts accumulate across them.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    colors = [-1] * h.n
    nodes = 0
    for comp in _components(h):
        comp_set = set(comp)
        sat = {v: set() for v in comp}

        def pick():
            best = None
            key = None
            for v in comp:
                if colors[v] >= 0:
                    continue
                cand = (len(sat[v]), len(h.adj[v]), -v)
                if key is None or cand > key:
                    best, key = v, cand
            return best

        def backtrack(used):
            nonlocal nodes
            v = pick()
            if v is None:
                return True
            limit = min(k, used + 1)
            for c in range(limit):
                if c in sat[v]:
                    continue
                nodes += 1
                colors[v] = c
                touched = []
                for w in h.adj[v]:
                    if w in comp_set and colors[w] < 0 and c not in sat[w]:
                        sat[w].add(c)
                        touched.append(w)
                if backtrack(max(used, c + 1)):
                    return True
                colors[v] = -1
                for w in touched:
                    sat[w].discard(c)
            return False

        if not backtrack(0):
            return ColoringResult("unsat", None, nodes)
    return ColoringResult("sat", tuple(colors), nodes)
