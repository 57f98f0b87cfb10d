"""The conflict graph H on leftover edges, its exact k-coloring, and the
budgeted 4-coloring of its 4-core that solve_pipeline tries first.

H has one vertex per edge of G - M1 - M2, with two vertices adjacent when
the corresponding edges are at distance <= 2 in G.  A proper k-coloring of H
is exactly a partition of the leftover edges into k induced matchings of G.

H here is well-defined for any matching pair; the structural guarantees that
hold at optimal pairs do not transfer to arbitrary ones, so callers must not
assume them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .graph import _components, _smallest_last


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

    def degree(self, i):
        return len(self.adj[i])


@dataclass(frozen=True)
class ColoringResult:
    """Outcome of a coloring: status "sat" or "unsat" plus search effort.

    color_exact always decides; the peel-then-color tier of solve_pipeline
    may also answer "unknown" when its node budget runs out.
    """

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
    pos = [-1] * g.m
    for i, e in enumerate(vertices):
        pos[e] = i
    near = g.neighborhoods(2)
    adj = tuple(tuple(pos[f] for f in near[e] if pos[f] >= 0) for e in vertices)
    return ConflictGraph(vertices, adj, sum(map(len, adj)) // 2)


def color_exact(h, k):
    """Proper k-coloring of H, or a certified UNSAT after full exhaustion.

    Backtracking with saturation-degree (DSATUR) vertex selection from a lazy
    heap, and conflict-directed backjumping.  Color symmetry is broken by
    allowing at most one previously unused color at each step, so color
    classes are opened in index order.  Components are colored independently;
    node counts accumulate across them.

    The vertex chosen at each step depends only on the partial coloring, and
    a backjump skips only subtrees that hold no coloring, so the coloring
    found is the one chronological backtracking finds first; only the node
    count can be smaller.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    colors = [-1] * h.n
    nodes = 0
    for comp in _components(h.adj):
        colorable, spent = _dsatur(h.adj, comp, k, colors)
        nodes += spent
        if not colorable:
            return ColoringResult("unsat", None, nodes)
    return ColoringResult("sat", tuple(colors), nodes)


# Backtracking budget of _peel_color: a core component of c vertices may take
# c + _CORE_BUDGET DSATUR nodes (c suffice when nothing is undone).  On greedy
# pairs of ~2,000 random cubic graphs (n = 10..10^4, cores up to 6,364
# vertices) at most 3,910 extra nodes were needed, except on one 96-vertex
# core still unresolved after 200,000; past the budget the pipeline moves on
# to its next pair rather than search on.
_CORE_BUDGET = 20_000


def _peel(adj):
    """(order, start): the smallest-last order of a graph given by neighbor
    lists, and the index in it where the 4-core begins.

    The 4-core is what remains after repeatedly deleting vertices of degree
    < 4; in smallest-last order it is the suffix from the first vertex
    removed with at least 4 neighbors left (Matula & Beck 1983).
    """
    order = _smallest_last(adj)
    pos = [0] * len(adj)
    for i, v in enumerate(order):
        pos[v] = i
    start = next((i for i, v in enumerate(order)
                  if sum(pos[w] > i for w in adj[v]) >= 4), len(order))
    return order, start


def _peel_color(h):
    """4-coloring of H that searches only H's 4-core.

    A vertex with fewer than 4 neighbors can always be colored last, so H is
    4-colorable exactly when its 4-core is.  Each core component is colored
    by _dsatur within its budget; the other vertices are then colored
    greedily in reverse removal order, each seeing at most 3 colored
    neighbors.  Returns a ColoringResult whose status is "sat", "unsat" (a
    core component is not 4-colorable, found by exhaustion) or "unknown" (a
    core component ran out of budget).
    """
    order, start = _peel(h.adj)
    core = order[start:]
    local = {v: i for i, v in enumerate(core)}
    core_adj = [[local[w] for w in h.adj[v] if w in local] for v in core]
    core_colors = [-1] * len(core)
    nodes = 0
    for comp in _components(core_adj):
        colorable, spent = _dsatur(core_adj, comp, 4, core_colors,
                                   len(comp) + _CORE_BUDGET)
        nodes += spent
        if not colorable:
            return ColoringResult("unsat" if colorable is False else "unknown",
                                  None, nodes)
    colors = [-1] * h.n
    for v, c in zip(core, core_colors):
        colors[v] = c
    for v in reversed(order[:start]):
        taken = {colors[w] for w in h.adj[v]}
        colors[v] = next(c for c in range(4) if c not in taken)
    return ColoringResult("sat", tuple(colors), nodes)


def _dsatur(adj, comp, k, colors, budget=math.inf):
    """Color one component of H in place; returns (colorable, nodes), with
    colorable None when the search gives up after budget nodes.

    The search runs on an explicit stack of frames, one per colored vertex.
    A vertex is picked by the key (most distinct neighbor colors, highest
    degree, lowest index); heap entries go stale when a vertex is colored or
    its saturation changes, and are skipped when popped, so every change
    pushes a fresh entry.  Past 4 entries per vertex the heap is rebuilt from
    the uncolored vertices, whose entries are the live ones: no pick changes.

    When a vertex runs out of colors, its conflict set holds, for each color
    a neighbor blocks, the depth of the earliest such neighbor, plus the
    conflict sets returned by the subtrees of the colors it tried.  No
    coloring extends the assignment of the vertices in that set, so the
    search resumes at the deepest of them.  Colors skipped by symmetry
    breaking add nothing: each is a renaming of the new color that was
    tried, whose conflict set therefore covers it.
    """
    sat = {v: set() for v in comp}
    heap = [(0, -len(adj[v]), v) for v in comp]
    heapq.heapify(heap)
    depth = {}
    # frame: [vertex, colors in use before it, touched neighbors, conflict set]
    stack = []
    nodes = 0
    used = 0
    descend = True

    def release(frame):
        # undo the frame's current color, if any, and requeue its neighbors
        v, _, touched, _ = frame
        c = colors[v]
        if c < 0:
            return
        colors[v] = -1
        for w in touched:
            sat[w].discard(c)
            heapq.heappush(heap, (-len(sat[w]), -len(adj[w]), w))
        touched.clear()

    while True:
        if descend:
            if len(heap) > 4 * len(comp):
                heap[:] = [(-len(sat[u]), -len(adj[u]), u)
                           for u in comp if colors[u] < 0]
                heapq.heapify(heap)
            while heap:
                s, _, v = heapq.heappop(heap)
                if colors[v] < 0 and -s == len(sat[v]):
                    break
            else:
                return True, nodes
            depth[v] = len(stack)
            stack.append([v, used, [], set()])
        frame = stack[-1]
        v, before, touched, conf = frame
        c = colors[v] + 1
        release(frame)
        limit = min(k, before + 1)
        blocked = sat[v]
        while c < limit and c in blocked:
            c += 1
        if c < limit:
            nodes += 1
            if nodes > budget:
                return None, nodes
            colors[v] = c
            for w in adj[v]:
                if colors[w] < 0 and c not in sat[w]:
                    sat[w].add(c)
                    touched.append(w)
                    heapq.heappush(heap, (-len(sat[w]), -len(adj[w]), w))
            used = max(before, c + 1)
            descend = True
            continue
        # out of colors: jump back to the deepest vertex of the conflict set
        first = {}
        for w in adj[v]:
            cw = colors[w]
            if cw >= 0 and depth[w] < first.get(cw, len(stack)):
                first[cw] = depth[w]
        conf.update(first.values())
        if not conf:
            return False, nodes
        back = max(conf)
        while len(stack) > back + 1:
            frame = stack.pop()
            release(frame)
            u = frame[0]
            heapq.heappush(heap, (-len(sat[u]), -len(adj[u]), u))
        conf.discard(back)
        stack[back][3] |= conf
        descend = False
