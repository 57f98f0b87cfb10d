"""Disjoint matching pairs and the switch-move local search.

A MatchingPair holds two edge-disjoint matchings M1, M2 of a subcubic graph.
The search objective maximizes |M1 u M2| and then lexicographically minimizes
(edges of the conflict graph H, three-edge-path components of the leftover
graph, triangles of H, middle-joined P3 pairs).  Every quantity in the tuple
depends only on the union M1 u M2, not on which matching an edge sits in, so
union_objective_key takes the union as an m-bit mask, which the scan also
uses as its memo key.  The key reads H from Graph.neighborhoods(2) and the
P3 and P4 components from leftover degrees, in O(n + m) per call; no
per-graph m-bit table is built.

Moves remove up to two matched edges, optionally exchange the M1/M2 labels on
one component of the post-removal union graph, and add up to three edges into
chosen matchings.  local_search() walks these moves through a pruned
scanner that skips only moves that provably cannot improve the objective
(pure label changes, removals that shrink the union without compensation,
and swap or addition combinations ruled out because an earlier enumeration
stage came up empty).  The test suite cross-checks it against a literal
enumeration of every admissible move.

Each scan builds a fresh _State; nothing is updated in place between scans.
Candidates come from two per-vertex tables built in O(n + m): free0 (which
matchings leave the vertex uncovered) and spare (its leftover edges).  A
vertex's freedom under a move is read from free0 plus the bits its removals
free, exchanged at the ends of the swapped component, with no per-move
closure.  The pieces a removal cuts from a path or cycle are found by
position arithmetic on the component's walk order.

Most two-removal pairs of a long union cycle can only re-add what they
removed: under every swap, no leftover edge at a vertex the pair touches fits
a tag.  _trivial_pair_ticks settles such a pair from two more per-vertex
tables (the far ends of each vertex's leftover edges, and the OR of their
free0) without building its pieces, swaps or candidate lists, and charges in
one _Counter.tick(k) the ticks the candidate loops would spend on it.  A
charge that overruns the budget leaves the counter at cap + 1, where a run
of single ticks stops, so moves and ticks stay those of the loops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations


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
        return _mask(self.m1 | self.m2, self.graph.m)

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
    """local_search outcome; stable is False when the budget ran out first.

    evaluations is the number of scan ticks charged over all starts: one per
    candidate step the scanner tries and one per objective evaluation that
    misses the memo, so it counts more than objective evaluations.
    """

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


def _ids(mask):
    """The set bits of mask, ascending; one pass over its binary digits."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _mask(edges, m):
    """The m-bit mask with bit e set for each e in edges, built in O(m)."""
    if not m:
        return 0
    digits = bytearray(b"0" * m)
    for e in edges:
        digits[m - 1 - e] = 49   # ord("1"); digits run from bit m - 1 down
    return int(digits, 2)


def union_objective_key(g, u_mask):
    """Objective key computed directly from a union bitmask.

    The key is (-|M1 u M2|, edges of H, P4 components of the leftover graph,
    triangles of H, union edges joining the middles of two P3 components);
    smaller is better.

    It reads g.neighborhoods(2) and per-vertex degrees of the leftover
    graph, with no component walk.  ld[v] is v's leftover degree and s[v] the
    sum of ld over v's leftover neighbors.  H's edges are counted once, from
    the lower end; a triangle is a pair of a leftover edge's higher H
    neighbors within distance 2 of each other.  Leaves have ld 1, so:
    - v is the middle of a P3 component iff ld[v] == s[v] == 2 (its two
      neighbors are leaves), and a P3 has exactly one middle;
    - a leftover edge uv is the middle edge of a P4 component iff ld[u] ==
      ld[v] == 2 and s[u] == s[v] == 3 (each end has one leaf besides the
      other; the two leaves differ, or their common vertex would have ld 2),
      and a P4 has exactly one middle edge.
    Two distinct P3 middles lie in distinct components, so each union edge
    between two of them is a middle-joined pair.  O(n + m) time and memory.
    """
    near = g.neighborhoods(2)
    m = g.m
    ends = g.edges
    left = _ids(u_mask ^ ((1 << m) - 1))
    is_left = [False] * m
    ld = [0] * g.n
    for e in left:
        is_left[e] = True
        u, v = ends[e]
        ld[u] += 1
        ld[v] += 1
    s = [0] * g.n
    for e in left:
        u, v = ends[e]
        s[u] += ld[v]
        s[v] += ld[u]

    h_edges = tri = p4 = 0
    for e in left:
        up = [f for f in near[e] if f > e and is_left[f]]
        h_edges += len(up)
        for i in range(1, len(up)):
            near_f = near[up[i]]
            for f in up[:i]:
                if f in near_f:
                    tri += 1
        u, v = ends[e]
        if ld[u] == ld[v] == 2 and s[u] == s[v] == 3:
            p4 += 1

    paired = 0
    for v in range(g.n):
        if ld[v] == 2 and s[v] == 2:
            for f in g.incident(v):
                w = g.other_end(f, v)
                if not is_left[f] and w > v and ld[w] == 2 and s[w] == 2:
                    paired += 1
    return (-(m - len(left)), h_edges, p4, tri, paired)


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
    """Raised internally when the scan's tick budget runs out."""


class _Counter:
    __slots__ = ("used", "cap")

    def __init__(self, cap=None):
        self.used = 0
        self.cap = cap

    def tick(self, k=1):
        self.used += k
        if self.cap is not None and self.used > self.cap:
            # a bulk charge stops where a run of single ticks would have
            self.used = self.cap + 1
            raise BudgetExhausted


@dataclass(frozen=True)
class _UComp:
    rep: int
    edges: tuple       # in path/cycle walk order
    verts: tuple       # walk order, len(edges) + 1; a cycle repeats its first
    is_cycle: bool
    ends: tuple        # the two path endpoints, () for cycles


class _State:
    """Scan-time view of a pair, built fresh for every scan: labels, cover
    arrays, union components, and two per-vertex tables.

    free0[v] has bit 1 set when M1 leaves v uncovered and bit 2 when M2 does;
    spare[v] lists the leftover edges at v.  pieces caches the pieces each
    single removal leaves, for the duration of the scan.
    """

    __slots__ = ("g", "pair", "label", "cover1", "cover2", "u_edges", "u_mask",
                 "comps", "comp_of", "comp_pos", "end_comp", "counter",
                 "free0", "spare", "pieces")

    def __init__(self, pair, counter):
        g = pair.graph
        self.g = g
        self.pair = pair
        self.counter = counter
        self.label = label = _label(g, pair.m1, pair.m2)
        self.cover1 = _cover(g, pair.m1)
        self.cover2 = _cover(g, pair.m2)
        self.u_edges = sorted(pair.union())
        self.u_mask = _mask(self.u_edges, g.m)
        self.comps = _components_from_labels(g, label)
        self.comp_of = {}
        self.comp_pos = {}
        self.end_comp = {}
        for i, c in enumerate(self.comps):
            for pos, e in enumerate(c.edges):
                self.comp_of[e] = i
                self.comp_pos[e] = pos
            for v in c.ends:
                self.end_comp[v] = i
        self.free0 = [(1 if c1 < 0 else 0) | (2 if c2 < 0 else 0)
                      for c1, c2 in zip(self.cover1, self.cover2)]
        self.spare = spare = [[] for _ in range(g.n)]
        for e, (u, v) in enumerate(g.edges):
            if not label[e]:
                spare[u].append(e)
                spare[v].append(e)
        self.pieces = {}


def _piece_bounds(comp, gone):
    """(lo, hi, ends) of each piece a path or cycle component falls into once
    the edges at the ascending positions gone are removed: the piece keeps
    positions lo + 1 .. hi - 1, taken mod len(comp.edges), and ends are its
    two end vertices.

    The kept edges between consecutive removed positions form one piece; in a
    cycle the piece after the last removed position wraps through position 0.
    """
    verts = comp.verts
    k = len(comp.edges)
    if comp.is_cycle:
        bounds = zip(gone, gone[1:] + (gone[0] + k,))
    else:
        cuts = (-1, *gone, k)
        bounds = zip(cuts, cuts[1:])
    # a cycle's verts end with verts[k] == verts[0]
    return [(lo, hi, (verts[lo + 1], verts[hi - k if hi > k else hi]))
            for lo, hi in bounds if hi - lo >= 2]


def _pieces(comp, gone):
    """Path pieces (rep, ends) of a path or cycle component once the edges at
    the ascending positions gone are removed."""
    edges = comp.edges
    k = len(edges)
    pieces = []
    for lo, hi, ends in _piece_bounds(comp, gone):
        kept = edges[lo + 1:hi] if hi <= k else edges[lo + 1:] + edges[:hi - k]
        pieces.append((min(kept), ends))
    return pieces


def _single_pieces(state, x):
    pieces = state.pieces.get(x)
    if pieces is None:
        pieces = _pieces(state.comps[state.comp_of[x]], (state.comp_pos[x],))
        state.pieces[x] = pieces
    return pieces


def _swap_candidates(state, removals, pieces, base_sites):
    """Components worth swapping for this removal set, as ascending (rep,
    ends): the split pieces plus unaffected path components whose endpoint a
    leftover edge joins to a newly freed site.  (A removed edge cannot join
    one: its far end lies in its own, affected, component.)"""
    edges = state.g.edges
    end_comp = state.end_comp
    out = dict(pieces)
    affected = {state.comp_of[x] for x, _ in removals}
    for s0 in base_sites:
        for e in state.spare[s0]:
            u, v = edges[e]
            ci = end_comp.get(v if u == s0 else u)
            if ci is not None and ci not in affected:
                comp = state.comps[ci]
                out[comp.rep] = comp.ends
    return sorted(out.items())


_SWAP_BITS = (0, 2, 1, 3)


def _addition_candidates(state, sites, removals, ends):
    """Ascending (edge, tag) additions that fit once the removals are made and
    the component with the given ends has its labels exchanged.

    A vertex is free for tag t when bit t of its freedom is set: free0[v],
    plus the tag of each removal at v, with bits 1 and 2 exchanged at the
    swap ends.  The candidate edges are the removed ones and the leftover
    edges at the sites.
    """
    edges = state.g.edges
    free0 = state.free0
    spare = state.spare
    freedom = {}
    for x, t in removals:
        for v in edges[x]:
            freedom[v] = freedom.get(v, free0[v]) | t
    for v in ends:
        freedom[v] = _SWAP_BITS[freedom.get(v, free0[v])]
    # every site is a removal endpoint or a swap end, so it has an entry
    fits = {}
    for x, _ in removals:
        u, v = edges[x]
        fits[x] = freedom[u] & freedom[v]
    for s0 in sites:
        here = freedom[s0]
        for e in spare[s0]:
            u, v = edges[e]
            w = v if u == s0 else u
            fits[e] = here & freedom.get(w, free0[w])
    out = []
    for e in sorted(fits):
        both = fits[e]
        if both & 1:
            out.append((e, 1))
        if both & 2:
            out.append((e, 2))
    return out


def _pair_tables(state):
    """Per-vertex tables for _trivial_pair_ticks, built in O(n + m): snbr[v]
    holds the far ends of v's leftover edges and fitm[v] the OR of free0 over
    them."""
    edges = state.g.edges
    free0 = state.free0
    snbr, fitm = [], []
    for v, spare in enumerate(state.spare):
        far = tuple(sum(edges[e]) - v for e in spare)
        bits = 0
        for w in far:
            bits |= free0[w]
        snbr.append(far)
        fitm.append(bits)
    return snbr, fitm


_POPCOUNT = (0, 1, 1, 2)
# ticks the two-removal loops spend on n candidates that all re-add x1 or x2:
# every duo is tried and none changes the union; no trio is compatible
_DUO_TICKS = (0, 0, 1, 3, 6)
_TRIO_TICKS = (0, 0, 0, 1, 4)


def _trivial_pair_ticks(state, tables, x1, x2, s, a):
    """The ticks the two-removal loops spend on the pair (x1, x2), or None
    unless every configuration of the pair is provably move-free.

    A configuration is the two removals plus one swap: none, or a piece cut
    from their components.  Its touched vertices are the endpoints of x1 and
    x2 and the swap's ends, with their freedom as _addition_candidates reads
    it (both tags at an endpoint the removals share).  The pair is settled
    when no leftover edge joins two endpoints of the removals and, in every
    configuration, freedom[v] & fitm[v] == 0 at each touched v.  Then the
    only candidates are re-adds of x1 and x2, at most two each: two of any
    three share an edge, so no trio is compatible, and a compatible duo
    re-adds both and restores the union.  The loops so evaluate nothing and
    return nothing, after one tick for the pair plus C(n, 3) (with a >= 3)
    and C(n, 2) per configuration of n candidates.

    A leftover edge at a touched v fits nothing when its far end is
    untouched, as fitm[v] covers that end's free0.  Nor is a settled pair's
    removal endpoint v joined by a leftover edge to a path end w of the
    union, which is the only way to touch a path piece's loose end or to
    reach an adjacent-component swap: free0[w] is one bit, so v passes only
    with the other bit alone, and the piece that ends at v flips it onto
    free0[w] (v's freedom has both bits when no piece ends there).  Piece
    ends come from position arithmetic; the pieces' reps are never needed.
    """
    snbr, fitm = tables
    edges = state.g.edges
    free0 = state.free0
    label = state.label
    a1, b1 = edges[x1]
    a2, b2 = edges[x2]
    freedom = {}
    for x in (x1, x2):
        for v in edges[x]:
            freedom[v] = freedom.get(v, free0[v]) | label[x]
    for v, f in freedom.items():
        if f & fitm[v] or not freedom.keys().isdisjoint(snbr[v]):
            return None
    trio = a >= 3
    n = _POPCOUNT[freedom[a1] & freedom[b1]] + _POPCOUNT[freedom[a2] & freedom[b2]]
    ticks = 1 + _DUO_TICKS[n] + (_TRIO_TICKS[n] if trio else 0)
    if s < 1:
        return ticks
    comps, comp_of, comp_pos = state.comps, state.comp_of, state.comp_pos
    c1, c2 = comp_of[x1], comp_of[x2]
    p1, p2 = comp_pos[x1], comp_pos[x2]
    if c1 != c2:
        bounds = _piece_bounds(comps[c1], (p1,)) + _piece_bounds(comps[c2], (p2,))
    else:
        bounds = _piece_bounds(comps[c1], (p1, p2) if p1 < p2 else (p2, p1))
    for _, _, ends in bounds:
        swapped = dict(freedom)
        for v in ends:
            f = swapped[v] = _SWAP_BITS[freedom.get(v, free0[v])]
            if f & fitm[v]:
                return None
        n = _POPCOUNT[swapped[a1] & swapped[b1]] + _POPCOUNT[swapped[a2] & swapped[b2]]
        ticks += _DUO_TICKS[n] + (_TRIO_TICKS[n] if trio else 0)
    return ticks


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
    only reaches unions already examined by the one-removal stage.  A pair
    whose candidates can only re-add its own removals is settled by
    _trivial_pair_ticks, which charges the ticks its loops would spend.

    Two additions clash when they are the same edge, or share an endpoint
    and a tag; that check is made inline, _compatible serves the trios.
    """
    g = state.g
    edges = g.edges
    label = state.label
    u_mask = state.u_mask
    tick = state.counter.tick
    cur_key = _eval_mask(state, u_mask, memo)

    if a >= 1:
        cover1, cover2 = state.cover1, state.cover2
        for e in range(g.m):
            if label[e]:
                continue
            u, v = edges[e]
            tick()
            if cover1[u] < 0 and cover1[v] < 0:
                return Move((), None, ((e, 1),))
            if cover2[u] < 0 and cover2[v] < 0:
                return Move((), None, ((e, 2),))

    if s >= 1 and a >= 1:
        for comp in state.comps:
            if comp.is_cycle:
                continue
            tick()
            cands = _addition_candidates(state, comp.ends, (), comp.ends)
            if cands:
                return Move((), comp.rep, (cands[0],))

    active = set()
    if r >= 1:
        for x in state.u_edges:
            removals = ((x, label[x]),)
            base_sites = edges[x]
            swaps = [(None, ())]
            if s >= 1:
                swaps += _swap_candidates(state, removals, _single_pieces(state, x),
                                          base_sites)
            for rep, ends in swaps:
                tick()
                cands = _addition_candidates(state, base_sites + ends, removals, ends)
                if any(c[0] != x for c in cands):
                    active.add(x)
                n = len(cands)
                if a >= 2:
                    for i in range(n):
                        e1, t1 = cands[i]
                        u1, v1 = edges[e1]
                        for j in range(i + 1, n):
                            tick()
                            e2, t2 = cands[j]
                            if e1 == e2:
                                continue
                            if t1 == t2:
                                u2, v2 = edges[e2]
                                if u2 == u1 or u2 == v1 or v2 == u1 or v2 == v1:
                                    continue
                            return Move(removals, rep, (cands[i], cands[j]))
                if a >= 1:
                    base_mask = u_mask & ~(1 << x)
                    for cand in cands:
                        nm = base_mask | (1 << cand[0])
                        if nm == u_mask:
                            continue
                        key = memo.get(nm)
                        if key is None:
                            key = _eval_mask(state, nm, memo)
                        if key < cur_key:
                            return Move(removals, rep, (cand,))

    if r >= 2 and a >= 2:
        cover1, cover2 = state.cover1, state.cover2
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
            for w1 in edges[x1]:
                for e in (x1, *state.spare[w1]):
                    u, v = edges[e]
                    z = v if u == w1 else u
                    for x2 in (cover1[z], cover2[z]):
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
        comp_of, comp_pos = state.comp_of, state.comp_pos
        tables = _pair_tables(state)
        for x1, x2 in sorted(pairs):
            trivial = _trivial_pair_ticks(state, tables, x1, x2, s, a)
            if trivial is not None:
                tick(trivial)
                continue
            tick()
            removals = ((x1, label[x1]), (x2, label[x2]))
            base_sites = edges[x1] + edges[x2]
            swaps = [(None, ())]
            if s >= 1:
                c1 = comp_of[x1]
                if c1 != comp_of[x2]:
                    pieces = _single_pieces(state, x1) + _single_pieces(state, x2)
                else:
                    p1, p2 = comp_pos[x1], comp_pos[x2]
                    pieces = _pieces(state.comps[c1], (p1, p2) if p1 < p2 else (p2, p1))
                swaps += _swap_candidates(state, removals, pieces, base_sites)
            base_mask = u_mask & ~(1 << x1) & ~(1 << x2)
            for rep, ends in swaps:
                cands = _addition_candidates(state, base_sites + ends, removals, ends)
                n = len(cands)
                if a >= 3 and n >= 3:
                    for trio_idx in combinations(range(n), 3):
                        tick()
                        trio = tuple(cands[i] for i in trio_idx)
                        if _compatible(g, trio):
                            return Move(removals, rep, trio)
                for i in range(n):
                    e1, t1 = cands[i]
                    u1, v1 = edges[e1]
                    for j in range(i + 1, n):
                        tick()
                        e2, t2 = cands[j]
                        if e1 == e2:
                            continue
                        if t1 == t2:
                            u2, v2 = edges[e2]
                            if u2 == u1 or u2 == v1 or v2 == u1 or v2 == v1:
                                continue
                        nm = base_mask | (1 << e1) | (1 << e2)
                        if nm == u_mask:
                            continue
                        key = memo.get(nm)
                        if key is None:
                            key = _eval_mask(state, nm, memo)
                        if key < cur_key:
                            return Move(removals, rep, (cands[i], cands[j]))
    return None


def find_improving_move(pair, r=2, s=1, a=3):
    """Public scanner: first improving move for the pair, or None when stable."""
    if not (0 <= r <= 2 and 0 <= s <= 1 and 0 <= a <= 3):
        raise ValueError("scanner caps are r <= 2, s <= 1, a <= 3")
    state = _State(pair, _Counter(None))
    return _find_improving_move(state, r, s, a, {})


_RESTARTS = 20
_START_TICKS = 200_000


def _switch_walk(pair, counter, memo):
    """Yield pair, then the pair after each first-improving move of the full
    (2,1,3) scan, ending at a switch-stable pair.  Every scan builds a fresh
    _State on the shared counter and memo; BudgetExhausted propagates."""
    yield pair
    while (move := _find_improving_move(_State(pair, counter), 2, 1, 3, memo)) is not None:
        pair = apply_move(pair, move)
        yield pair


def local_search(g, seed, budget=_START_TICKS):
    """First-improvement local search to switch-stability.

    Runs from greedy_init(seed), accepting the first improving move found in
    the deterministic scan order of the full (2,1,3) neighborhood until none
    exists.  When a start exhausts its tick budget before reaching
    stability, the search restarts from greedy_init(seed + i), 20 starts in
    all; after the last one the best pair seen is returned flagged
    not-stable.  The result is never worse than the greedy pair it
    started from.
    """
    g.require_subcubic("local_search")
    memo = {}
    best_pair = None
    best_key = None
    total = 0
    for i in range(_RESTARTS):
        counter = _Counter(budget)
        try:
            for pair in _switch_walk(greedy_init(g, seed + i), counter, memo):
                pass
        except BudgetExhausted:
            key = union_objective_key(g, pair.union_mask())
            if best_key is None or key < best_key:
                best_pair, best_key = pair, key
        else:
            return SearchResult(pair, True, total + counter.used, i + 1)
        total += counter.used
    return SearchResult(best_pair, False, total, _RESTARTS)


_EXACT_MAX_EDGES = 24


def exact_max_union(g):
    """Certified maximum |M1 u M2| by exhaustive branch and bound.

    Every edge is assigned to m1, m2, or neither, with matching-feasibility
    pruning, an optimistic union bound, and m1/m2 exchange symmetry broken by
    forcing the first matched edge into m1.  Among maximum unions the number
    of conflict-graph edges is minimized exactly.  Returns (pair, certified
    union size).  Guarded to m <= 24.
    """
    g.require_subcubic("exact_max_union")
    if g.m > _EXACT_MAX_EDGES:
        raise ValueError(f"exact_max_union guard: m={g.m} exceeds {_EXACT_MAX_EDGES}")
    m = g.m
    masks2 = [_mask(near, m) for near in g.neighborhoods(2)]
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
