"""Components of the leftover graph G - M1 - M2 and their shape classes.

After two disjoint matchings are removed from a subcubic graph, the edges
left over split into small connected components.  For switch-stable matching
pairs those components are one of four basic shapes: a single edge (P2), a
two-edge path (P3), a three-edge path (P4), or a claw (K13).  Anything else
is tagged VIOLATION with a reason.
"""

from __future__ import annotations

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

    def middle(self, g):
        """The degree-2 vertex of a P3 component."""
        if self.kind != P3:
            raise ValueError("middle() is only defined for P3 components")
        return _middle(g, self.edges)


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


def _classify(g, vertices, edges):
    """Shape of a connected component.  A tree with 3 or 4 edges is told
    apart by its maximum degree alone: P4 has 2 and K13 3; among the 4-edge
    trees P5 has 2, the C1 fork 3 and K1,4 4."""
    ne, nv = len(edges), len(vertices)
    if ne >= nv:
        return VIOLATION, REASON_CYCLE
    if ne == 1:
        return P2, None
    if ne == 2:
        return P3, None
    if ne > 4:
        return VIOLATION, REASON_TOO_MANY
    deg = {}
    for e in edges:
        for v in g.endpoints(e):
            deg[v] = deg.get(v, 0) + 1
    top = max(deg.values())
    if ne == 3:
        return (K13, None) if top == 3 else (P4, None)
    return (VIOLATION, REASON_C1) if top == 3 else (VIOLATION, REASON_TOO_MANY)


def _middle(g, edges):
    """The vertex shared by the two edges of a P3."""
    (a, b), (c, d) = g.endpoints(edges[0]), g.endpoints(edges[1])
    return a if a in (c, d) else b


def _middle_links(g, union_edges, middles):
    """Yield (comp, comp, edge) for each union edge, in the given order, that
    joins the middles of two different P3 components; middles maps each P3
    middle vertex to its component index."""
    for e in union_edges:
        x, y = g.endpoints(e)
        if x in middles and y in middles and middles[x] != middles[y]:
            yield middles[x], middles[y], e


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
