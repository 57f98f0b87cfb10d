"""Simple undirected graphs with canonical edge ids, plus the edge-distance metric.

Edges are kept sorted by (smaller endpoint, larger endpoint); the position of
an edge in that order is its EdgeId.  All solvers iterate edges in EdgeId
order, so results are reproducible across runs and platforms.

The distance between two edges is the vertex distance of the corresponding
vertices in the line graph: adjacent edges are at distance 1, and in general
d(e1, e2) = 1 + min vertex distance between an endpoint of e1 and an endpoint
of e2.
"""

from __future__ import annotations

import heapq
import math
import random
import re
from collections import deque


class Graph:
    """Immutable simple undirected graph.

    Vertices are 0..n-1.  Parallel edges and loops are rejected.  Instances
    are safe to share between concurrent computations; every method here is
    read-only after construction, apart from filling the per-radius cache
    of neighborhoods, whose tables take O(m) memory on subcubic graphs.
    """

    __slots__ = ("n", "m", "edges", "adj", "_incident", "_nbr_cache")

    def __init__(self, edge_pairs, n=None):
        norm = set()
        for u, v in edge_pairs:
            if u == v:
                raise ValueError(f"loop edge {u}-{v} not allowed")
            if u < 0 or v < 0:
                raise ValueError(f"negative vertex id in edge {u}-{v}")
            norm.add((u, v) if u < v else (v, u))
        edges = tuple(sorted(norm))
        top = max((v for _, v in edges), default=-1)
        if n is None:
            n = top + 1
        elif top >= n:
            raise ValueError(f"edge endpoint {top} out of range for n={n}")
        self.n = n
        self.m = len(edges)
        self.edges = edges
        adj = [[] for _ in range(n)]
        incident = [[] for _ in range(n)]
        for i, (u, v) in enumerate(edges):
            adj[u].append(v)
            adj[v].append(u)
            incident[u].append(i)
            incident[v].append(i)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self._incident = tuple(tuple(a) for a in incident)
        self._nbr_cache = {}

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def degree(self, v):
        return len(self.adj[v])

    def max_degree(self):
        return max((len(a) for a in self.adj), default=0)

    def incident(self, v):
        """EdgeIds of the edges incident to vertex v, ascending."""
        return self._incident[v]

    def edge_id(self, u, v):
        """EdgeId of edge u-v, found among the incident edges of its endpoint
        of lower degree; a non-edge raises KeyError."""
        if 0 <= u < self.n and 0 <= v < self.n:
            key = (u, v) if u < v else (v, u)
            inc = self._incident
            for e in inc[u] if len(inc[u]) <= len(inc[v]) else inc[v]:
                if self.edges[e] == key:
                    return e
        raise KeyError(f"no edge {u}-{v}")

    def has_edge(self, u, v):
        adj = self.adj
        return (0 <= u < self.n and 0 <= v < self.n
                and (v in adj[u] if len(adj[u]) <= len(adj[v]) else u in adj[v]))

    def endpoints(self, e):
        return self.edges[e]

    def other_end(self, e, v):
        u, w = self.edges[e]
        return w if v == u else u

    def is_subcubic(self):
        return self.max_degree() <= 3

    def is_cubic(self):
        return self.n > 0 and all(len(a) == 3 for a in self.adj)

    def require_subcubic(self, what="operation"):
        if not self.is_subcubic():
            raise ValueError(f"{what} requires a subcubic graph (max degree {self.max_degree()})")

    def is_connected(self):
        return len(_components(self.adj)) <= 1

    def neighborhoods(self, radius):
        """Per edge, the ascending EdgeIds of the other edges within edge
        distance <= radius.

        Computed once per radius and cached.  Entry e lists f iff f != e and
        d(e, f) <= radius; on subcubic graphs that is at most 4 edges at
        radius 1 and 12 at radius 2, so the table takes O(m) memory.
        """
        if radius < 1:
            raise ValueError("radius must be >= 1")
        cached = self._nbr_cache.get(radius)
        if cached is not None:
            return cached
        # reach[v]: edges incident to a vertex within distance radius - 1 of v
        reach = [set(inc) for inc in self._incident]
        for _ in range(radius - 1):
            reach = [r.union(*[reach[w] for w in self.adj[v]])
                     for v, r in enumerate(reach)]
        out = []
        for e, (a, b) in enumerate(self.edges):
            near = reach[a] | reach[b]
            near.discard(e)
            out.append(tuple(sorted(near)))
        out = tuple(out)
        self._nbr_cache[radius] = out
        return out


def _components(adj):
    """Vertex lists of the components of a graph given by neighbor lists,
    ordered by smallest vertex; each list starts with that vertex."""
    seen = [False] * len(adj)
    out = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(comp)
    return out


def _smallest_last(adj):
    """Smallest-last removal order of a graph given by neighbor lists
    (Matula & Beck 1983): repeatedly remove the vertex of least remaining
    degree, lowest index first.  Heap entries (degree, vertex) go stale when
    a neighbor is removed and are skipped when popped; O(m log m)."""
    deg = [len(a) for a in adj]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * len(adj)
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if d != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return order


def parse_edge_list(text):
    """Parse whitespace-separated "u v" lines into a Graph.

    Blank lines and text after '#' are ignored.  Duplicate edges collapse.
    Raises ValueError with the line number for malformed tokens or loops.
    """
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two vertex ids, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer token in {raw!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex id in {raw!r}")
        if u == v:
            raise ValueError(f"line {lineno}: loop edge {u}-{v} rejected")
        pairs.append((u, v))
    return Graph(pairs)


def to_edge_list_text(g):
    """Serialize a graph in the format accepted by parse_edge_list."""
    return "\n".join(f"{u} {v}" for u, v in g.edges) + ("\n" if g.m else "")


_G6_HEADER = ">>graph6<<"


def parse_graph6(line):
    """Decode one graph6 line (optional ">>graph6<<" header is skipped).

    Supports the short (n <= 62) and long (n <= 258047) size encodings.
    Rejects out-of-range bytes and length mismatches.
    """
    s = line.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ValueError("empty graph6 string")
    data = []
    for ch in s:
        b = ord(ch) - 63
        if b < 0 or b > 63:
            raise ValueError(f"graph6 byte {ch!r} out of range")
        data.append(b)
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    else:
        if len(data) >= 2 and data[1] == 63:
            if len(data) < 8:
                raise ValueError("truncated graph6 size field")
            n = 0
            for b in data[2:8]:
                n = (n << 6) | b
            body = data[8:]
        else:
            if len(data) < 4:
                raise ValueError("truncated graph6 size field")
            n = (data[1] << 12) | (data[2] << 6) | data[3]
            body = data[4:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need} for n={n}")
    pairs = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if body[k // 6] >> (5 - k % 6) & 1:
                pairs.append((i, j))
            k += 1
    return Graph(pairs, n=n)


def to_graph6(g):
    """Encode a graph in graph6 format (n <= 258047)."""
    n = g.n
    if n <= 62:
        out = [n + 63]
    elif n <= 258047:
        out = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        raise ValueError("graph too large for this encoder")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        b = 0
        for bit in bits[k:k + 6]:
            b = (b << 1) | bit
        out.append(b + 63)
    return "".join(chr(b) for b in out)


def _subdivided_k33():
    # K3,3 on parts {0,1,2} and {3,4,5}; the edge 0-3 is subdivided by 6.
    pairs = [(0, 6), (6, 3), (0, 4), (0, 5)]
    pairs += [(a, b) for a in (1, 2) for b in (3, 4, 5)]
    return Graph(pairs)


def _petersen():
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(i, i + 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(pairs)


def _cycle(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph([(i, (i + 1) % n) for i in range(n)])


_FAMILIES = {
    "subdivided_k33": _subdivided_k33,
    "petersen": _petersen,
    "k4": lambda: Graph([(i, j) for i in range(4) for j in range(i + 1, 4)]),
    "k33": lambda: Graph([(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]),
    "prism": lambda: Graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                            (0, 3), (1, 4), (2, 5)]),
}


def generate_named(name):
    """Build a named graph family member.

    Known names: subdivided_k33, petersen, k4, k33, prism, and cycles as
    "c<n>" or "c(<n>)".
    """
    key = name.strip().lower()
    if key in _FAMILIES:
        return _FAMILIES[key]()
    mcyc = re.fullmatch(r"c\(?(\d+)\)?", key)
    if mcyc:
        return _cycle(int(mcyc.group(1)))
    raise ValueError(f"unknown graph family {name!r}")


def random_cubic(n, seed):
    """Connected simple 3-regular graph on n vertices (n even, n >= 4).

    Configuration-model pairing; outcomes with loops, parallel edges, or a
    disconnected result are rejected and re-drawn, so the returned graph is
    deterministic for a fixed (n, seed).
    """
    if n < 4 or n % 2:
        raise ValueError("random_cubic needs an even n >= 4")
    rng = random.Random(seed)
    for _ in range(100000):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        seen = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in seen:
                ok = False
                break
            seen.add(key)
        if not ok:
            continue
        g = Graph(seen, n=n)
        if g.is_connected():
            return g
    raise RuntimeError(f"could not sample a connected cubic graph on {n} vertices")


def edge_distance(g, e1, e2):
    """Distance between two edges (vertex distance in the line graph).

    Returns 0 for e1 == e2, math.inf when the edges lie in different
    components, else 1 + the minimum vertex distance between endpoints.
    """
    if not (0 <= e1 < g.m and 0 <= e2 < g.m):
        raise IndexError("edge id out of range")
    if e1 == e2:
        return 0
    a, b = g.edges[e1]
    targets = g.edges[e2]
    dist = [-1] * g.n
    dist[a] = dist[b] = 0
    q = deque((a, b))
    while q:
        v = q.popleft()
        if v in targets:
            return 1 + dist[v]
        for w in g.adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                q.append(w)
    return math.inf

