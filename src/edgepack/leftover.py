"""Components of the leftover graph G - M1 - M2 and their shape classes.

After two disjoint matchings are removed from a subcubic graph, the edges
left over split into small connected components.  For switch-stable matching
pairs those components are one of four basic shapes: a single edge (P2), a
two-edge path (P3), a three-edge path (P4), or a claw (K13).  Anything else
is tagged VIOLATION with a reason.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

P2 = "P2"
P3 = "P3"
P4 = "P4"
K13 = "K13"
VIOLATION = "VIOLATION"

REASON_CYCLE = "cycle"
REASON_TOO_MANY = "too-many-edges"
REASON_C1 = "C1-shape"


@dataclass(frozen=True)
class Component:
    """One connected component of the leftover graph."""

    vertices: tuple
    edges: tuple
    kind: str
    reason: str | None = None

    def degree_in(self, g, v):
        """Degree of v counting only this component's edges."""
        mine = set(self.edges)
        return sum(1 for e in g.incident(v) if e in mine)

    def leaves(self, g):
        return tuple(v for v in self.vertices if self.degree_in(g, v) == 1)

    def middle(self, g):
        """The degree-2 vertex of a P3 component."""
        if self.kind != P3:
            raise ValueError("middle() is only defined for P3 components")
        return _middle(g, self.edges)

    def center(self, g):
        """The degree-3 vertex of a K13 component."""
        if self.kind != K13:
            raise ValueError("center() is only defined for K13 components")
        for v in self.vertices:
            if self.degree_in(g, v) == 3:
                return v
        raise AssertionError("K13 has no degree-3 vertex")


@dataclass(frozen=True)
class LeftoverGraph:
    """Leftover edge set together with its classified components."""

    edges: tuple
    components: tuple

    def component_of(self):
        """Map vertex -> index of the component containing it."""
        out = {}
        for i, comp in enumerate(self.components):
            for v in comp.vertices:
                out[v] = i
        return out


def _tree_diameter(adj, start):
    def far(v):
        dist = {v: 0}
        q = deque([v])
        last = v
        while q:
            x = q.popleft()
            last = x
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        return last, dist[last]

    a, _ = far(start)
    _, d = far(a)
    return d


def _classify(g, vertices, edges):
    ne, nv = len(edges), len(vertices)
    if ne >= nv:
        return VIOLATION, REASON_CYCLE
    if ne == 1:
        return P2, None
    if ne == 2:
        return P3, None
    adj = {v: [] for v in vertices}
    for e in edges:
        u, v = g.endpoints(e)
        adj[u].append(v)
        adj[v].append(u)
    if ne == 3:
        return (K13, None) if max(len(a) for a in adj.values()) == 3 else (P4, None)
    if ne == 4 and _tree_diameter(adj, next(iter(adj))) == 3:
        return VIOLATION, REASON_C1
    return VIOLATION, REASON_TOO_MANY


def _middle(g, edges):
    """The vertex shared by the two edges of a P3."""
    (a, b), (c, d) = g.endpoints(edges[0]), g.endpoints(edges[1])
    return a if a in (c, d) else b


def _walk(g, left):
    """Yield (edges, vertex set) for each connected component of the edge
    set left, in order of each component's smallest edge when left is
    ascending.  Edges come in discovery order."""
    left_at = {}
    for e in left:
        for v in g.endpoints(e):
            left_at.setdefault(v, []).append(e)
    seen = set()
    for e0 in left:
        if e0 in seen:
            continue
        seen.add(e0)
        edges = []
        verts = set()
        stack = [e0]
        while stack:
            e = stack.pop()
            edges.append(e)
            for v in g.endpoints(e):
                verts.add(v)
                for f in left_at[v]:
                    if f not in seen:
                        seen.add(f)
                        stack.append(f)
        yield edges, verts


def build_leftover(g, union_edges):
    """Split E(G) minus the given edge set into classified components."""
    union = set(union_edges)
    left = tuple(e for e in range(g.m) if e not in union)
    comps = []
    for edges, verts in _walk(g, left):
        vertices = tuple(sorted(verts))
        edges = tuple(sorted(edges))
        kind, reason = _classify(g, vertices, edges)
        comps.append(Component(vertices, edges, kind, reason))
    return LeftoverGraph(left, tuple(comps))
