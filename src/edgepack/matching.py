"""Disjoint matching pairs and the switch-move local search.

A MatchingPair holds two edge-disjoint matchings M1, M2 of a subcubic graph.
The search objective maximizes |M1 u M2| and then lexicographically minimizes
(edges of the conflict graph H, three-edge-path components of the leftover
graph, triangles of H, middle-joined P3 pairs).  Every quantity in the tuple
depends only on the union M1 u M2, not on which matching an edge sits in.

Moves remove up to two matched edges, optionally exchange the M1/M2 labels on
one component of the post-removal union graph, and add up to three edges into
chosen matchings.  local_search() walks these moves through a pruned
scanner that skips only moves that provably cannot improve the objective
(pure label changes, removals that shrink the union without compensation,
and swap or addition combinations ruled out because an earlier enumeration
stage came up empty).  The test suite cross-checks it against a literal
enumeration of every admissible move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .leftover import P3, P4, _classify, _middle, _walk


class MatchingPair:
    """Two disjoint matchings on a host graph; validated on construction."""

    __slots__ = ("graph", "m1", "m2")

    def __init__(self, graph, m1=(), m2=()):
        self.graph = graph
        self.m1 = frozenset(m1)
        self.m2 = frozenset(m2)
        self._validate()

    def _validate(self):
        g = self.graph
        if self.m1 & self.m2:
            raise ValueError("m1 and m2 share an edge")
        for name, match in (("m1", self.m1), ("m2", self.m2)):
            used = set()
            for e in match:
                if not 0 <= e < g.m:
                    raise ValueError(f"{name} contains invalid edge id {e}")
                u, v = g.endpoints(e)
                if u in used or v in used:
                    raise ValueError(f"{name} is not a matching at edge {e}")
                used.add(u)
                used.add(v)
        # consequence of the matching invariants, kept as a cheap sanity check
        deg = [0] * g.n
        for e in self.m1 | self.m2:
            u, v = g.endpoints(e)
            deg[u] += 1
            deg[v] += 1
        assert max(deg, default=0) <= 2

    @property
    def union_size(self):
        return len(self.m1) + len(self.m2)

    def union(self):
        return self.m1 | self.m2

    def union_mask(self):
        mask = 0
        for e in self.m1 | self.m2:
            mask |= 1 << e
        return mask

    def __eq__(self, other):
        return (isinstance(other, MatchingPair) and self.graph == other.graph
                and self.m1 == other.m1 and self.m2 == other.m2)

    def __repr__(self):
        return f"MatchingPair(m1={sorted(self.m1)}, m2={sorted(self.m2)})"


@dataclass(frozen=True)
class Move:
    """One local-search move.

    removals: up to two (edge, matching-tag) pairs, tag 1 for M1 and 2 for M2;
    swap: the smallest EdgeId of the post-removal union component whose labels
    are exchanged, or None; additions: up to three (edge, target-tag) pairs.
    """

    removals: tuple = ()
    swap: int | None = None
    additions: tuple = ()


@dataclass
class SearchResult:
    """local_search outcome; stable is False when the budget ran out first."""

    pair: MatchingPair
    stable: bool
    evaluations: int
    restarts: int


def greedy_init(g, seed):
    """Randomized greedy pair: shuffle edges, insert into m1 if possible, else m2."""
    g.require_subcubic("greedy_init")
    order = list(range(g.m))
    random.Random(seed).shuffle(order)
    cover = {1: [-1] * g.n, 2: [-1] * g.n}
    m1, m2 = set(), set()
    for e in order:
        u, v = g.endpoints(e)
        for t, target in ((1, m1), (2, m2)):
            if cover[t][u] < 0 and cover[t][v] < 0:
                target.add(e)
                cover[t][u] = cover[t][v] = e
                break
    return MatchingPair(g, m1, m2)


def union_objective_key(g, u_mask):
    """Objective key computed directly from a union bitmask.

    The key is (-|M1 u M2|, edges of H, P4 components of the leftover graph,
    triangles of H, union edges joining the middles of two P3 components);
    smaller is better.
    """
    masks2 = g.distance_masks(2)
    m = g.m
    all_mask = (1 << m) - 1 if m else 0
    left_mask = all_mask & ~u_mask
    union_size = u_mask.bit_count()

    left = []
    mm = left_mask
    while mm:
        low = mm & -mm
        left.append(low.bit_length() - 1)
        mm ^= low

    h_edges = 0
    for e in left:
        h_edges += (masks2[e] & left_mask).bit_count()
    h_edges //= 2

    tri = 0
    for e in left:
        above = masks2[e] & left_mask & -(1 << (e + 1))
        nb = above
        while nb:
            low = nb & -nb
            f = low.bit_length() - 1
            nb ^= low
            tri += (masks2[f] & above & -(1 << (f + 1))).bit_count()

    p4 = 0
    middles = {}
    for cid, (edges, verts) in enumerate(_walk(g, left)):
        kind, _ = _classify(g, verts, edges)
        if kind == P3:
            middles[_middle(g, edges)] = cid
        elif kind == P4:
            p4 += 1

    paired = 0
    if middles:
        um = u_mask
        while um:
            low = um & -um
            x, y = g.endpoints(low.bit_length() - 1)
            um ^= low
            if x in middles and y in middles and middles[x] != middles[y]:
                paired += 1
    return (-union_size, h_edges, p4, tri, paired)


# ---------------------------------------------------------------------------
# Move application
# ---------------------------------------------------------------------------

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


def apply_move(pair, move):
    """Apply a Move, returning a new MatchingPair; raises ValueError if inadmissible."""
    g = pair.graph
    m1, m2 = set(pair.m1), set(pair.m2)
    for x, t in move.removals:
        target = m1 if t == 1 else m2
        if x not in target:
            raise ValueError(f"removal {x} is not in m{t}")
        target.discard(x)
    if move.swap is not None:
        comp = next((c for c in _components_from_labels(g, _label(g, m1, m2))
                     if move.swap in c.edges), None)
        if comp is None:
            raise ValueError("swap component representative not in the union")
        flip = set(comp.edges)
        m1, m2 = (m1 - flip) | (m2 & flip), (m2 - flip) | (m1 & flip)
    cover = {1: _cover(g, m1), 2: _cover(g, m2)}
    for e, t in move.additions:
        if e in m1 or e in m2:
            raise ValueError(f"addition {e} is already matched")
        u, v = g.endpoints(e)
        if cover[t][u] >= 0 or cover[t][v] >= 0:
            raise ValueError(f"addition {e} does not fit m{t}")
        (m1 if t == 1 else m2).add(e)
        cover[t][u] = cover[t][v] = e
    return MatchingPair(g, m1, m2)


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


def _components_from_labels(g, label):
    """Path/cycle components of the union graph described by a label array."""
    edges = [e for e in range(g.m) if label[e]]
    cover = {t: _cover(g, [e for e in edges if label[e] == t]) for t in (1, 2)}
    comps = []
    visited = set()

    def walk(v0, e0):
        order = [e0]
        verts = [v0]
        visited.add(e0)
        x, cur = v0, e0
        while True:
            y = g.other_end(cur, x)
            verts.append(y)
            nxt = None
            for cand in (cover[1][y], cover[2][y]):
                if cand >= 0 and cand != cur:
                    nxt = cand
            if nxt is None or nxt in visited:
                return order, verts
            visited.add(nxt)
            order.append(nxt)
            x, cur = y, nxt

    for v in range(g.n):
        here = [c for c in (cover[1][v], cover[2][v]) if c >= 0]
        if len(here) != 1 or here[0] in visited:
            continue
        order, verts = walk(v, here[0])
        comps.append(_UComp(min(order), tuple(order), tuple(verts), False,
                            (verts[0], verts[-1])))
    for e in edges:
        if e in visited:
            continue
        order, verts = walk(g.endpoints(e)[0], e)
        comps.append(_UComp(min(order), tuple(order), tuple(verts), True, ()))
    comps.sort(key=lambda c: c.rep)
    return comps


# ---------------------------------------------------------------------------
# Pruned improving-move scanner
# ---------------------------------------------------------------------------

class BudgetExhausted(Exception):
    """Raised internally when the move-evaluation budget runs out."""


class _Counter:
    __slots__ = ("used", "cap")

    def __init__(self, cap=None):
        self.used = 0
        self.cap = cap

    def tick(self, k=1):
        self.used += k
        if self.cap is not None and self.used > self.cap:
            raise BudgetExhausted


@dataclass(frozen=True)
class _UComp:
    rep: int
    edges: tuple       # in path/cycle walk order
    verts: tuple       # walk order, len(edges) + 1; a cycle repeats its first
    is_cycle: bool
    ends: tuple        # the two path endpoints, () for cycles


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


def find_improving_move(pair, r=2, s=1, a=3, memo=None):
    """Public scanner: first improving move for the pair, or None when stable."""
    if not (0 <= r <= 2 and 0 <= s <= 1 and 0 <= a <= 3):
        raise ValueError("scanner caps are r <= 2, s <= 1, a <= 3")
    state = _State(pair, _Counter(None))
    return _find_improving_move(state, r, s, a, {} if memo is None else memo)


def local_search(g, seed, budget=200_000, restarts=20, r=2, s=1, a=3):
    """First-improvement local search to switch-stability.

    Runs from greedy_init(seed), accepting the first improving move found in
    the deterministic scan order until none exists.  When a restart exhausts
    its move-evaluation budget before reaching stability, the search restarts
    from greedy_init(seed + i); after the last restart the best pair seen is
    returned flagged not-stable.  The result is never worse than the greedy
    pair it started from.
    """
    g.require_subcubic("local_search")
    memo = {}
    best_pair = None
    best_key = None
    total = 0
    for i in range(restarts):
        pair = greedy_init(g, seed + i)
        counter = _Counter(budget)
        tripped = False
        while True:
            state = _State(pair, counter)
            try:
                move = _find_improving_move(state, r, s, a, memo)
            except BudgetExhausted:
                tripped = True
                break
            if move is None:
                break
            pair = apply_move(pair, move)
        total += counter.used
        if not tripped:
            return SearchResult(pair, True, total, i + 1)
        key = union_objective_key(g, pair.union_mask())
        if best_key is None or key < best_key:
            best_pair, best_key = pair, key
    return SearchResult(best_pair, False, total, restarts)


def exact_max_union(g, max_edges=24):
    """Certified maximum |M1 u M2| by exhaustive branch and bound.

    Every edge is assigned to m1, m2, or neither, with matching-feasibility
    pruning, an optimistic union bound, and m1/m2 exchange symmetry broken by
    forcing the first matched edge into m1.  Among maximum unions the number
    of conflict-graph edges is minimized exactly.  Returns (pair, certified
    union size).  Guarded to m <= max_edges.
    """
    g.require_subcubic("exact_max_union")
    if g.m > max_edges:
        raise ValueError(f"exact_max_union guard: m={g.m} exceeds {max_edges}")
    masks2 = g.distance_masks(2)
    m = g.m
    cover = {1: [-1] * g.n, 2: [-1] * g.n}
    assign = [0] * m
    best = {"u": -1, "h": 0, "m1": (), "m2": ()}

    def rec(idx, cur_u, cur_h, left_mask, m1_used):
        rem = m - idx
        if cur_u + rem < best["u"]:
            return
        if cur_u + rem == best["u"] and cur_h >= best["h"]:
            return
        if idx == m:
            if cur_u > best["u"] or (cur_u == best["u"] and cur_h < best["h"]):
                best["u"] = cur_u
                best["h"] = cur_h
                best["m1"] = tuple(e for e in range(m) if assign[e] == 1)
                best["m2"] = tuple(e for e in range(m) if assign[e] == 2)
            return
        u, v = g.endpoints(idx)
        for t in (1, 2):
            if t == 2 and not m1_used:
                continue
            cov = cover[t]
            if cov[u] < 0 and cov[v] < 0:
                cov[u] = cov[v] = idx
                assign[idx] = t
                rec(idx + 1, cur_u + 1, cur_h, left_mask, m1_used or t == 1)
                assign[idx] = 0
                cov[u] = cov[v] = -1
        dh = (masks2[idx] & left_mask).bit_count()
        rec(idx + 1, cur_u, cur_h + dh, left_mask | (1 << idx), m1_used)

    rec(0, 0, 0, 0, False)
    return MatchingPair(g, best["m1"], best["m2"]), best["u"]
