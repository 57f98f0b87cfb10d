"""Independent oracles and instance samplers for the test suite.

Everything here recomputes from first principles: distances via an explicit
line graph, colorability via plain |S|^m enumeration, maximum unions via
enumeration of all disjoint matching pairs, the search objective and the
literal move neighborhood via plain BFS over edge sets, the coloring
color_exact must find via chronological DSATUR recursion, and the answer
solve_exact must give via recursive backtracking over bitmasks built from
the line graph.  None of it calls back into the solver paths it is used to
check; the only library names used are the Move record that apply_move
consumes and, for the reference switch scanner (the closure-based scan the
library's table-driven one must match move for move and tick for tick), the
union-component walk and the objective key.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from edgepack.matching import Move, _components_from_labels, union_objective_key


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


def dsatur_reference(adj, k):
    """Chronological DSATUR backtracking, one recursion level per colored vertex.

    The literal reference for the library's color_exact: the same vertex
    order (most distinct neighbor colors, then highest degree, then lowest
    index, by a linear scan), the same color-symmetry breaking (at most one
    new color per step), components colored independently in order of their
    smallest vertex.  adj is a list of neighbor lists.  Returns
    (status, colors or None, nodes), one node per color tried.
    """
    n = len(adj)
    colors = [-1] * n
    nodes = 0
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for v in comp:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        sat = {v: set() for v in comp}

        def pick():
            best = None
            key = None
            for v in comp:
                if colors[v] >= 0:
                    continue
                cand = (len(sat[v]), len(adj[v]), -v)
                if key is None or cand > key:
                    best, key = v, cand
            return best

        def backtrack(used):
            nonlocal nodes
            v = pick()
            if v is None:
                return True
            for c in range(min(k, used + 1)):
                if c in sat[v]:
                    continue
                nodes += 1
                colors[v] = c
                touched = []
                for w in adj[v]:
                    if colors[w] < 0 and c not in sat[w]:
                        sat[w].add(c)
                        touched.append(w)
                if backtrack(max(used, c + 1)):
                    return True
                colors[v] = -1
                for w in touched:
                    sat[w].discard(c)
            return False

        if not backtrack(0):
            return "unsat", None, nodes
    return "sat", tuple(colors), nodes


def k_core_reference(adj, k):
    """The k-core by its definition: delete a vertex of degree < k while one
    exists.  adj is a list of neighbor lists; returns the set of vertices
    left."""
    alive = set(range(len(adj)))
    while True:
        low = [v for v in alive if sum(w in alive for w in adj[v]) < k]
        if not low:
            return alive
        alive.difference_update(low)


def _distance_masks(n, edges, radius):
    """Per edge, the bitmask of the other edges within distance radius."""
    dist = line_graph_distances(n, edges)
    return [sum(1 << f for f in range(len(edges))
                if f != e and dist.get((e, f), radius + 1) <= radius)
            for e in range(len(edges))]


def degeneracy_order_reference(n, edges):
    """Reverse peel order of the line graph: each step removes the edge of
    least remaining degree, lowest id among ties, found by a linear scan."""
    m = len(edges)
    masks1 = _distance_masks(n, edges, 1)
    alive = [True] * m
    deg = [masks1[e].bit_count() for e in range(m)]
    order = []
    for _ in range(m):
        best = min((e for e in range(m) if alive[e]), key=lambda e: (deg[e], e))
        order.append(best)
        alive[best] = False
        nb = masks1[best]
        while nb:
            low = nb & -nb
            f = low.bit_length() - 1
            nb ^= low
            if alive[f]:
                deg[f] -= 1
    order.reverse()
    return order


class _Budget(Exception):
    pass


def solve_exact_reference(n, edges, svalues, budget=50_000_000):
    """Recursive backtracking, one recursion level per assigned edge.

    The literal reference for the library's solve_exact: edges in
    degeneracy_order_reference order, classes tried in index order with at
    most one empty class per s value, a branch cut as soon as an unassigned
    edge is blocked in every class, one node per class tried.  edges must be
    in EdgeId order.  Returns (status, nodes, assignment or None).
    """
    k = len(svalues)
    m = len(edges)
    if m == 0:
        return "sat", 0, ()
    order = degeneracy_order_reference(n, edges)
    masks = {s: _distance_masks(n, edges, s) for s in set(svalues)}
    blocked = [0] * k
    size = [0] * k
    assignment = [-1] * m
    nodes = 0

    def rec(pos, assigned_mask):
        nonlocal nodes
        if pos == m:
            return True
        e = order[pos]
        seen_empty_s = set()
        for i in range(k):
            s = svalues[i]
            if size[i] == 0:
                if s in seen_empty_s:
                    continue
                seen_empty_s.add(s)
            if blocked[i] >> e & 1:
                continue
            nodes += 1
            if nodes > budget:
                raise _Budget
            old = blocked[i]
            blocked[i] = old | masks[s][e] | (1 << e)
            size[i] += 1
            assignment[e] = i
            newly = (blocked[i] ^ old) & ~(assigned_mask | (1 << e))
            dead = False
            nb = newly
            while nb:
                low = nb & -nb
                f = low.bit_length() - 1
                nb ^= low
                if all(blocked[j] >> f & 1 for j in range(k)):
                    dead = True
                    break
            if not dead and rec(pos + 1, assigned_mask | (1 << e)):
                return True
            assignment[e] = -1
            size[i] -= 1
            blocked[i] = old
        return False

    try:
        sat = rec(0, 0)
    except _Budget:
        return "unknown", nodes, None
    return ("sat", nodes, tuple(assignment)) if sat else ("unsat", nodes, None)


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
# Reference switch scanner
# ---------------------------------------------------------------------------
# The closure-based (2,1,3) scanner as it stood before the library's scan
# became table-driven, kept unchanged: the library must return the same Move
# and spend the same ticks.  Only Move, _components_from_labels and
# union_objective_key come from the library.

def _label(g, m1, m2):
    """Edge -> 1 or 2 for the matching holding it, 0 for leftover edges."""
    label = [0] * g.m
    for t, target in ((1, m1), (2, m2)):
        for e in target:
            label[e] = t
    return label


def _cover(g, edges):
    """Vertex -> the edge among the given matching edges that covers it, or -1."""
    cover = [-1] * g.n
    for e in edges:
        u, v = g.endpoints(e)
        cover[u] = cover[v] = e
    return cover


def _compatible(g, adds):
    used = {1: set(), 2: set()}
    eids = set()
    for e, t in adds:
        if e in eids:
            return False
        eids.add(e)
        u, v = g.endpoints(e)
        if u in used[t] or v in used[t]:
            return False
        used[t].add(u)
        used[t].add(v)
    return True


class ScanBudgetExhausted(Exception):
    """Raised when the reference scan runs out of its tick budget."""


class ScanCounter:
    __slots__ = ("used", "cap")

    def __init__(self, cap=None):
        self.used = 0
        self.cap = cap

    def tick(self, k=1):
        self.used += k
        if self.cap is not None and self.used > self.cap:
            raise ScanBudgetExhausted


class _State:
    """Scan-time view of a pair: labels, cover arrays, union components."""

    __slots__ = ("g", "pair", "label", "cover1", "cover2", "u_edges", "u_mask",
                 "comps", "comp_of", "comp_pos", "end_comp", "counter")

    def __init__(self, pair, counter):
        g = pair.graph
        self.g = g
        self.pair = pair
        self.counter = counter
        self.label = _label(g, pair.m1, pair.m2)
        self.cover1 = _cover(g, pair.m1)
        self.cover2 = _cover(g, pair.m2)
        self.u_edges = sorted(pair.union())
        self.u_mask = 0
        for e in self.u_edges:
            self.u_mask |= 1 << e
        self.comps = _components_from_labels(g, self.label)
        self.comp_of = {}
        self.comp_pos = {}
        self.end_comp = {}
        for i, c in enumerate(self.comps):
            for pos, e in enumerate(c.edges):
                self.comp_of[e] = i
                self.comp_pos[e] = pos
            for v in c.ends:
                self.end_comp[v] = i


def _pieces_after_removal(state, removed_ids):
    """Path pieces of the affected union components once removed_ids are gone.

    Each piece is (rep, ends).  Pieces of a path or cycle are always paths.
    """
    by_comp = {}
    for x in removed_ids:
        by_comp.setdefault(state.comp_of[x], []).append(x)
    pieces = []
    for ci, removed in by_comp.items():
        comp = state.comps[ci]
        k = len(comp.edges)
        gone = {state.comp_pos[x] for x in removed}
        if comp.is_cycle:
            # walk runs of kept edges cyclically, starting after a removed one
            start = min(gone)
            order = [(start + step) % k for step in range(1, k + 1)]
        else:
            order = range(k)
        run = []
        for idx in order:
            if idx in gone:
                if run:
                    pieces.append(_piece_from_run(comp, run))
                    run = []
            else:
                run.append(idx)
        if run:
            pieces.append(_piece_from_run(comp, run))
    return pieces


def _piece_from_run(comp, run):
    # verts[i], verts[i + 1] are the ends of edges[i], also across a cycle's
    # closing edge, so a run that wraps needs no index arithmetic
    ends = (comp.verts[run[0]], comp.verts[run[-1] + 1])
    return min(comp.edges[i] for i in run), ends


def _swap_candidates(state, removed_ids, base_sites):
    """Components worth swapping for this removal set: the split pieces plus
    unaffected path components whose endpoint can take an addition toward a
    newly freed site."""
    g = state.g
    out = {}
    for rep, ends in _pieces_after_removal(state, removed_ids):
        out[rep] = ends
    affected = {state.comp_of[x] for x in removed_ids}
    for s0 in base_sites:
        for e in g.incident(s0):
            if state.label[e] != 0 and e not in removed_ids:
                continue
            w = g.other_end(e, s0)
            ci = state.end_comp.get(w)
            if ci is None or ci in affected:
                continue
            comp = state.comps[ci]
            out[comp.rep] = comp.ends
    return sorted(out.items())


def _free_fn(state, removals, swap_ends):
    freed1 = set()
    freed2 = set()
    for x, t in removals:
        (freed1 if t == 1 else freed2).update(state.g.endpoints(x))
    ends = set(swap_ends)
    cover1, cover2 = state.cover1, state.cover2

    def free(v, t):
        f1 = cover1[v] < 0 or v in freed1
        f2 = cover2[v] < 0 or v in freed2
        if v in ends:
            f1, f2 = f2, f1
        return f1 if t == 1 else f2

    return free


def _addition_candidates(state, sites, removed_ids, free):
    g = state.g
    label = state.label
    out = set()
    for s0 in sites:
        for e in g.incident(s0):
            if label[e] != 0 and e not in removed_ids:
                continue
            u, v = g.endpoints(e)
            if free(u, 1) and free(v, 1):
                out.add((e, 1))
            if free(u, 2) and free(v, 2):
                out.add((e, 2))
    return sorted(out)


def _eval_mask(state, mask, memo):
    key = memo.get(mask)
    if key is None:
        state.counter.tick()
        key = union_objective_key(state.g, mask)
        memo[mask] = key
    return key


def _find_improving_move(state, r, s, a, memo):
    """First improving Move in scan order, or None if the pair is stable.

    Scan order: pure additions, swap-then-add, one removal (without, then
    with, a swap; larger addition sets first), two removals likewise.  Within
    a bucket, candidates are tried in ascending (edge, tag) order.

    Two-removal pairs are restricted to those that can carry an improving
    move once the earlier stages came up empty: pairs whose removals each
    admit some addition candidate on their own, and pairs linked by a
    potential cross addition between their freed endpoints.  Any other pair
    only reaches unions already examined by the one-removal stage.
    """
    g = state.g
    cur_key = _eval_mask(state, state.u_mask, memo)

    if a >= 1:
        cover1, cover2 = state.cover1, state.cover2
        for e in range(g.m):
            if state.label[e]:
                continue
            u, v = g.endpoints(e)
            state.counter.tick()
            if cover1[u] < 0 and cover1[v] < 0:
                return Move((), None, ((e, 1),))
            if cover2[u] < 0 and cover2[v] < 0:
                return Move((), None, ((e, 2),))

    if s >= 1 and a >= 1:
        for comp in state.comps:
            if comp.is_cycle:
                continue
            state.counter.tick()
            free = _free_fn(state, (), comp.ends)
            cands = _addition_candidates(state, sorted(set(comp.ends)), frozenset(), free)
            if cands:
                return Move((), comp.rep, (cands[0],))

    active = set()
    if r >= 1:
        for x in state.u_edges:
            removals = ((x, state.label[x]),)
            removed_ids = frozenset((x,))
            base_sites = sorted(set(g.endpoints(x)))
            swaps = [None]
            if s >= 1:
                swaps += _swap_candidates(state, removed_ids, base_sites)
            for sw in swaps:
                rep, ends = (None, ()) if sw is None else sw
                state.counter.tick()
                free = _free_fn(state, removals, ends)
                sites = sorted(set(base_sites) | set(ends))
                cands = _addition_candidates(state, sites, removed_ids, free)
                if any(c[0] != x for c in cands):
                    active.add(x)
                n = len(cands)
                if a >= 2:
                    for i in range(n):
                        for j in range(i + 1, n):
                            state.counter.tick()
                            duo = (cands[i], cands[j])
                            if _compatible(g, duo):
                                return Move(removals, rep, duo)
                if a >= 1:
                    for cand in cands:
                        nm = (state.u_mask & ~(1 << x)) | (1 << cand[0])
                        if nm == state.u_mask:
                            continue
                        if _eval_mask(state, nm, memo) < cur_key:
                            return Move(removals, rep, (cand,))

    if r >= 2 and a >= 2:
        pairs = set()
        # any pair with an active removal: the partner may contribute its own
        # additions, or merely cut a component so that a swapped piece flips
        # fewer vertices than any single-removal variant reaches
        for x1 in sorted(active):
            for x2 in state.u_edges:
                if x2 != x1:
                    pairs.add((min(x1, x2), max(x1, x2)))
        # cross pairs: an available edge from an endpoint of x1 to an
        # endpoint of x2 may become addable only when both are removed
        for x1 in state.u_edges:
            for w1 in g.endpoints(x1):
                for e in g.incident(w1):
                    if state.label[e] != 0 and e != x1:
                        continue
                    z = g.other_end(e, w1)
                    for x2 in (state.cover1[z], state.cover2[z]):
                        if x2 >= 0 and x2 != x1:
                            pairs.add((min(x1, x2), max(x1, x2)))
        # same-component pairs: the cut-refinement effect above can also pair
        # two inactive removals when they share a component
        for comp in state.comps:
            if len(comp.edges) >= 2:
                es = sorted(comp.edges)
                for i1 in range(len(es)):
                    for i2 in range(i1 + 1, len(es)):
                        pairs.add((es[i1], es[i2]))
        for x1, x2 in sorted(pairs):
            state.counter.tick()
            removals = ((x1, state.label[x1]), (x2, state.label[x2]))
            removed_ids = frozenset((x1, x2))
            base_sites = sorted({*g.endpoints(x1), *g.endpoints(x2)})
            swaps = [None]
            if s >= 1:
                swaps += _swap_candidates(state, removed_ids, base_sites)
            base_mask = state.u_mask & ~(1 << x1) & ~(1 << x2)
            for sw in swaps:
                rep, ends = (None, ()) if sw is None else sw
                free = _free_fn(state, removals, ends)
                sites = sorted(set(base_sites) | set(ends))
                cands = _addition_candidates(state, sites, removed_ids, free)
                n = len(cands)
                if a >= 3 and n >= 3:
                    for trio_idx in combinations(range(n), 3):
                        state.counter.tick()
                        trio = tuple(cands[i] for i in trio_idx)
                        if _compatible(g, trio):
                            return Move(removals, rep, trio)
                for i in range(n):
                    for j in range(i + 1, n):
                        state.counter.tick()
                        duo = (cands[i], cands[j])
                        if not _compatible(g, duo):
                            continue
                        nm = base_mask | (1 << duo[0][0]) | (1 << duo[1][0])
                        if nm == state.u_mask:
                            continue
                        if _eval_mask(state, nm, memo) < cur_key:
                            return Move(removals, rep, duo)
    return None

def find_improving_move_reference(pair, r=2, s=1, a=3, counter=None, memo=None):
    """First improving Move in the reference scan order, or None when stable.

    counter (a ScanCounter) receives one tick per step the scan charges and
    raises ScanBudgetExhausted past its cap; memo maps union masks to keys.
    """
    state = _State(pair, ScanCounter(None) if counter is None else counter)
    return _find_improving_move(state, r, s, a, {} if memo is None else memo)


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
