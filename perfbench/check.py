"""Correctness checks for benchmark outputs that share no code with edgepack.

Graphs arrive here as plain (n, edges) pairs, where edges is the sorted tuple
of (u, v) pairs with u < v, so edge id i is edges[i] exactly as in
edgepack.Graph.  Nothing in this module imports edgepack.
"""

from __future__ import annotations

from fractions import Fraction


def coloring_problems(n, edges, svalues, assignment):
    """Problems with an S-packing edge-colouring; an empty list means valid.

    Classes with s = 1 must be matchings and classes with s = 2 must also
    have no edge joining two of their edges; both checks are linear in the
    size of the graph.  Classes with s >= 3 (only ever met on tiny graphs)
    are checked by a bounded breadth-first search from each class edge.
    """
    m, k = len(edges), len(svalues)
    if len(assignment) != m:
        return [f"colouring covers {len(assignment)} edges, graph has {m}"]
    for e, c in enumerate(assignment):
        if not (isinstance(c, int) and 0 <= c < k):
            return [f"edge {e} has class {c!r}, sequence has {k} classes"]
    problems = []
    owner = [[-1] * n for _ in range(k)]
    for e, (u, v) in enumerate(edges):
        at = owner[assignment[e]]
        for w in (u, v):
            if at[w] >= 0:
                problems.append(f"class {assignment[e]}: edges {at[w]} and {e} meet at vertex {w}")
            at[w] = e
    for u, v in edges:
        for c in range(k):
            if svalues[c] >= 2:
                a, b = owner[c][u], owner[c][v]
                if a >= 0 and b >= 0 and a != b:
                    problems.append(f"class {c}: edges {a} and {b} are joined by edge {u}-{v}")
    if any(s >= 3 for s in svalues):
        problems += _far_class_problems(n, edges, svalues, assignment, owner)
    return problems


def _far_class_problems(n, edges, svalues, assignment, owner):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    problems = []
    for e, (u, v) in enumerate(edges):
        c = assignment[e]
        s = svalues[c]
        if s < 3:
            continue
        seen = {u, v}
        frontier = [u, v]
        for _ in range(s - 1):
            frontier = [y for x in frontier for y in adj[x] if y not in seen]
            seen.update(frontier)
        for w in seen:
            f = owner[c][w]
            if f > e:
                problems.append(f"class {c}: edges {e} and {f} are closer than {s + 1}")
    return problems


def _edge_distances(n, edges):
    """All-pairs edge distances: 0 on the diagonal, None between components."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    vdist = []
    for s in range(n):
        d = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in d:
                        d[y] = d[x] + 1
                        nxt.append(y)
            frontier = nxt
        vdist.append(d)
    out = []
    for i, (a, b) in enumerate(edges):
        row = []
        for j, (c, d) in enumerate(edges):
            near = [vdist[x][y] for x in (a, b) for y in (c, d) if y in vdist[x]]
            row.append(0 if i == j else (1 + min(near) if near else None))
        out.append(row)
    return out


def colorable(n, edges, svalues):
    """Decide S-packing edge-colourability by plain backtracking.

    Edges are placed in id order into any class whose members are all far
    enough away; of several still-empty classes with the same s only the
    first is tried, since such classes are interchangeable.  Meant for the
    small graphs (a dozen or so edges) whose UNSAT answers it confirms.
    """
    dist = _edge_distances(n, edges)
    members = [[] for _ in svalues]

    def place(e):
        if e == len(edges):
            return True
        opened = set()
        for c, s in enumerate(svalues):
            if not members[c]:
                if s in opened:
                    continue
                opened.add(s)
            if all(dist[e][f] is None or dist[e][f] > s for f in members[c]):
                members[c].append(e)
                if place(e + 1):
                    return True
                members[c].pop()
        return False

    return place(0)


def initial_charges(n, edges, union):
    """Initial discharging charge of each leftover edge: d_H(e) - 9/2.

    d_H(e) counts the other leftover edges at distance <= 2, i.e. those with
    an endpoint in the closed neighbourhood of an endpoint of e.
    """
    union = set(union)
    adj = [[] for _ in range(n)]
    incident = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        adj[u].append(v)
        adj[v].append(u)
        if e not in union:
            incident[u].append(e)
            incident[v].append(e)
    out = {}
    for e, (u, v) in enumerate(edges):
        if e in union:
            continue
        near = {u, v, *adj[u], *adj[v]}
        nbrs = {f for x in near for f in incident[x]}
        out[e] = Fraction(len(nbrs) - 1) - Fraction(9, 2)
    return out
