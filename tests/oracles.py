"""Independent oracles and instance samplers for the test suite.

Everything here recomputes from first principles: distances via an explicit
line graph, colorability via plain |S|^m enumeration, maximum unions via
enumeration of all disjoint matching pairs, the search objective and the
literal move neighborhood via plain BFS over edge sets.  None of it calls
back into the solver paths it is used to check; the only library name used
is the Move record that apply_move consumes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from edgepack.matching import Move


def line_graph_distances(n, edges):
    """All-pairs edge distances via BFS on an explicitly built line graph.

    Returns a dict {(i, j): distance} over edge-index pairs; missing pairs
    are in different components.
    """
    m = len(edges)
    ladj = [[] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if set(edges[i]) & set(edges[j]):
                ladj[i].append(j)
                ladj[j].append(i)
    dist = {}
    for s in range(m):
        seen = {s: 0}
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in ladj[v]:
                    if w not in seen:
                        seen[w] = d
                        nxt.append(w)
            frontier = nxt
        for t, dd in seen.items():
            dist[(s, t)] = dd
    return dist


def enumerate_packing_colorable(n, edges, svalues, chunk=1 << 18):
    """Plain |S|^m enumeration: is there any valid assignment at all?

    Checks every class vector against the pairwise distance constraints,
    vectorized over chunks of assignments.  Stops at the first valid one.
    """
    m = len(edges)
    k = len(svalues)
    if m == 0:
        return True
    dist = line_graph_distances(n, edges)
    svec = np.asarray(svalues, dtype=np.int64)
    pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            d = dist.get((i, j))
            if d is not None and d <= max(svalues):
                pairs.append((i, j, d))
    total = k ** m
    weights = np.array([k ** (m - 1 - i) for i in range(m)], dtype=np.int64)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        ids = np.arange(start, stop, dtype=np.int64)
        cols = (ids[:, None] // weights[None, :]) % k
        ok = np.ones(stop - start, dtype=bool)
        for i, j, d in pairs:
            same = cols[:, i] == cols[:, j]
            close = d < svec[cols[:, i]] + 1
            ok &= ~(same & close)
            if not ok.any():
                break
        if ok.any():
            return True
    return False


def _all_matchings(edges, allowed):
    """All matchings (as frozensets of edge indices) within the allowed ids."""
    allowed = sorted(allowed)
    out = []

    def rec(pos, used, chosen):
        if pos == len(allowed):
            out.append(frozenset(chosen))
            return
        e = allowed[pos]
        rec(pos + 1, used, chosen)
        u, v = edges[e]
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            chosen.append(e)
            rec(pos + 1, used, chosen)
            chosen.pop()
            used.discard(u)
            used.discard(v)

    rec(0, set(), [])
    return out


def max_disjoint_matching_pair(n, edges):
    """(max |M1 u M2|, min conflict edges among maxima) by full enumeration."""
    m = len(edges)
    dist = line_graph_distances(n, edges)
    best_u = -1
    best_h = None
    all_ids = list(range(m))
    for m1 in _all_matchings(edges, all_ids):
        rest = [e for e in all_ids if e not in m1]
        for m2 in _all_matchings(edges, rest):
            u = len(m1) + len(m2)
            if u < best_u:
                continue
            leftover = [e for e in all_ids if e not in m1 and e not in m2]
            h = sum(1 for a, b in combinations(leftover, 2)
                    if dist.get((a, b), 99) <= 2)
            if u > best_u or (u == best_u and h < best_h):
                best_u, best_h = u, h
    return best_u, best_h


def brute_max_matching(n, edges):
    """Maximum matching size by exhaustive recursion."""
    m = len(edges)

    def rec(pos, used, count):
        if pos == m:
            return count
        best = rec(pos + 1, used, count)
        u, v = edges[pos]
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            best = max(best, rec(pos + 1, used, count + 1))
            used.discard(u)
            used.discard(v)
        return best

    return rec(0, set(), 0)


def brute_k_colorable(adj, k):
    """Plain k^n enumeration for vertex coloring; adj is a list of neighbor lists."""
    n = len(adj)
    if n == 0:
        return True
    assert k ** n <= 20_000_000, "oracle guard"
    colors = [0] * n

    def rec(v):
        if v == n:
            return True
        for c in range(k):
            if all(colors[w] != c for w in adj[v] if w < v):
                colors[v] = c
                if rec(v + 1):
                    return True
        return False

    return rec(0)


def brute_max_induced_matching(n, edges):
    """Maximum induced matching size via subset search over edge distances."""
    dist = line_graph_distances(n, edges)
    m = len(edges)
    best = 0

    def rec(pos, chosen):
        nonlocal best
        best = max(best, len(chosen))
        if pos == m:
            return
        if len(chosen) + (m - pos) <= best:
            return
        if all(dist.get((pos, c), 99) >= 3 for c in chosen):
            chosen.append(pos)
            rec(pos + 1, chosen)
            chosen.pop()
        rec(pos + 1, chosen)

    rec(0, [])
    return best


# ---------------------------------------------------------------------------
# Literal references for the matching search
# ---------------------------------------------------------------------------

def triangle_count(adj):
    """Pairwise-adjacent vertex triples of a graph given by neighbor lists."""
    nbr = [set(a) for a in adj]
    return sum(1 for i, j, k in combinations(range(len(adj)), 3)
               if j in nbr[i] and k in nbr[i] and k in nbr[j])


def edge_components(g, edge_ids):
    """Edge sets of the connected components of the subgraph of g spanned by
    edge_ids, by BFS over shared endpoints, ordered by smallest edge."""
    ids = sorted(edge_ids)
    comps = []
    seen = set()
    for e0 in ids:
        if e0 in seen:
            continue
        comp = {e0}
        frontier = [e0]
        while frontier:
            nxt = []
            for e in frontier:
                for f in ids:
                    if f not in comp and set(g.endpoints(e)) & set(g.endpoints(f)):
                        comp.add(f)
                        nxt.append(f)
            frontier = nxt
        seen |= comp
        comps.append(sorted(comp))
    return comps


@dataclass(frozen=True)
class ObjectiveTuple:
    """Search objective: max union, then lexicographic minimization."""

    union_size: int
    h_edges: int
    p4_count: int
    h_triangles: int
    paired_p3_count: int

    def key(self):
        """Sort key; smaller is better."""
        return (-self.union_size, self.h_edges, self.p4_count,
                self.h_triangles, self.paired_p3_count)


def evaluate(pair):
    """Full objective tuple of a matching pair.

    H (leftover edges adjacent at edge distance <= 2) comes from
    line_graph_distances, the leftover components from edge_components.
    """
    g = pair.graph
    edges = [g.endpoints(e) for e in range(g.m)]
    union = pair.m1 | pair.m2
    left = [e for e in range(g.m) if e not in union]
    dist = line_graph_distances(g.n, edges)
    adj = [[j for j, f in enumerate(left) if f != e and dist.get((e, f), 99) <= 2]
           for e in left]
    p4 = 0
    middles = {}
    for i, comp in enumerate(edge_components(g, left)):
        deg = Counter(v for e in comp for v in edges[e])
        if len(comp) == 2:
            middles[next(v for v, d in deg.items() if d == 2)] = i
        elif len(comp) == 3 and len(deg) == 4 and max(deg.values()) == 2:
            p4 += 1
    paired = sum(1 for e in union
                 if edges[e][0] in middles and edges[e][1] in middles
                 and middles[edges[e][0]] != middles[edges[e][1]])
    return ObjectiveTuple(len(union), sum(map(len, adj)) // 2, p4,
                          triangle_count(adj), paired)


def _fits(g, adds):
    """Distinct edges, and the edges given each tag form a matching."""
    ids = [e for e, _ in adds]
    ends = [(v, t) for e, t in adds for v in g.endpoints(e)]
    return len(set(ids)) == len(ids) and len(set(ends)) == len(ends)


def neighborhood(pair, r=2, s=1, a=3):
    """Yield every admissible Move with <= r removals, <= s swaps, <= a additions.

    Literal enumeration in a fixed deterministic order: removal sets, then
    no swap or a swap of each post-removal union component (named by its
    smallest edge), then every compatible addition set up to size a.
    """
    if not (0 <= r <= 2 and 0 <= s <= 1 and 0 <= a <= 3):
        raise ValueError("neighborhood caps are r <= 2, s <= 1, a <= 3")
    g = pair.graph
    base_label = [0] * g.m
    for e in pair.m1:
        base_label[e] = 1
    for e in pair.m2:
        base_label[e] = 2
    u_edges = sorted(pair.m1 | pair.m2)
    for k in range(r + 1):
        for removed in combinations(u_edges, k):
            lab = list(base_label)
            for x in removed:
                lab[x] = 0
            comps = []
            if s >= 1:
                comps = edge_components(g, [e for e in range(g.m) if lab[e]])
            for sw in [None] + comps:
                lab2 = list(lab)
                for e in sw or ():
                    lab2[e] = 3 - lab2[e]
                covered = {(v, lab2[e]) for e in range(g.m) if lab2[e]
                           for v in g.endpoints(e)}
                cands = [(e, t) for e in range(g.m) if not lab2[e] for t in (1, 2)
                         if all((v, t) not in covered for v in g.endpoints(e))]
                removals = tuple((x, base_label[x]) for x in removed)
                rep = None if sw is None else sw[0]
                for size in range(a + 1):
                    if size == 0:
                        if k == 0 and sw is None:
                            continue
                        yield Move(removals, rep, ())
                        continue
                    for combo in combinations(cands, size):
                        if _fits(g, combo):
                            yield Move(removals, rep, combo)


# ---------------------------------------------------------------------------
# Instance samplers
# ---------------------------------------------------------------------------

def random_connected_subcubic(rng, m_target, n_max=None):
    """Random connected graph with max degree <= 3 and about m_target edges.

    Grows a random tree and then adds degree-respecting chords; returns
    (n, edges) where edges is a sorted tuple of pairs.
    """
    n = max(2, min(n_max or m_target + 1, m_target + 1))
    deg = [0] * n
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    placed = [order[0]]
    for v in order[1:]:
        anchors = [u for u in placed if deg[u] < 3]
        if not anchors:
            break
        u = rng.choice(anchors)
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1
        placed.append(v)
        if len(edges) >= m_target:
            break
    attempts = 0
    while len(edges) < m_target and attempts < 200:
        attempts += 1
        u, v = rng.sample(placed, 2)
        key = (min(u, v), max(u, v))
        if key not in edges and deg[u] < 3 and deg[v] < 3:
            edges.add(key)
            deg[u] += 1
            deg[v] += 1
    used = sorted({v for e in edges for v in e})
    relabel = {v: i for i, v in enumerate(used)}
    out = tuple(sorted((relabel[u], relabel[v]) for u, v in edges))
    return len(used), out


def sample_subcubic_instances(count, m_max, seed=0, m_min=1):
    """Deterministic list of distinct connected subcubic (n, edges) instances."""
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < count:
        m_target = rng.randint(m_min, m_max)
        n, edges = random_connected_subcubic(rng, m_target)
        if not edges or len(edges) > m_max:
            continue
        if edges in seen:
            continue
        seen.add(edges)
        out.append((n, edges))
    return out
