"""S-packing edge-colorings: verification, exact decision, and the
constructive (1^2,2^4) pipeline.

An S-packing edge-coloring for a non-decreasing sequence (s_1, ..., s_k)
partitions E(G) into classes E_1, ..., E_k such that distinct edges of E_i
are at edge distance >= s_i + 1.  Classes with s_i = 1 are matchings, classes
with s_i = 2 are induced matchings; larger s values are supported by the same
distance rule.
"""

from __future__ import annotations

import re
from contextlib import suppress
from dataclasses import dataclass
from itertools import islice

from .conflict import _peel_color, build_conflict_graph
from .graph import _smallest_last, edge_distance
from .matching import BudgetExhausted, _Counter, _START_TICKS, _switch_walk, greedy_init


@dataclass(frozen=True)
class PackingSequence:
    """Non-decreasing sequence of positive integers, e.g. (1, 1, 2, 2, 2, 2)."""

    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("packing sequence must be non-empty")
        if any(not isinstance(v, int) or v < 1 for v in vals):
            raise ValueError("packing sequence entries must be positive integers")
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("packing sequence must be non-decreasing")

    @classmethod
    def parse(cls, text):
        """Parse "1^2,2^4" exponent sugar or a plain "1,1,2,2,2,2" list."""
        vals = []
        for part in text.split(","):
            part = part.strip()
            mexp = re.fullmatch(r"(\d+)\^(\d+)", part)
            if mexp:
                base, rep = int(mexp.group(1)), int(mexp.group(2))
                vals.extend([base] * rep)
            elif re.fullmatch(r"\d+", part):
                vals.append(int(part))
            else:
                raise ValueError(f"bad sequence component {part!r}")
        return cls(tuple(vals))

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __str__(self):
        out = []
        i = 0
        while i < len(self.values):
            j = i
            while j < len(self.values) and self.values[j] == self.values[i]:
                j += 1
            out.append(f"{self.values[i]}^{j - i}" if j - i > 1 else str(self.values[i]))
            i = j
        return "(" + ",".join(out) + ")"


SEQ_12_24 = PackingSequence((1, 1, 2, 2, 2, 2))


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment EdgeId -> class index into a PackingSequence."""

    assignment: tuple

    @classmethod
    def from_classes(cls, classes, m):
        assignment = [-1] * m
        for i, cl in enumerate(classes):
            for e in cl:
                if not 0 <= e < m:
                    raise ValueError(f"edge id {e} out of range")
                if assignment[e] != -1:
                    raise ValueError(f"edge {e} appears in two classes")
                assignment[e] = i
        return cls(tuple(assignment))

    def classes(self, k):
        out = [[] for _ in range(k)]
        for e, c in enumerate(self.assignment):
            if c >= 0:
                out[c].append(e)
        return out


@dataclass(frozen=True)
class Violation:
    """Same-class edge pair closer than the class allows."""

    class_index: int
    e1: int
    e2: int
    distance: object
    required: int


def verify(g, seq, coloring):
    """Check an S-packing edge-coloring; returns all violations (empty = ok).

    A partial coloring or an out-of-range class index is an error, not a
    violation, and raises ValueError.
    """
    assignment = coloring.assignment
    if len(assignment) != g.m:
        raise ValueError(f"coloring covers {len(assignment)} edges, graph has {g.m}")
    k = len(seq)
    for e, c in enumerate(assignment):
        if c < 0:
            raise ValueError(f"partial coloring: edge {e} is unassigned")
        if c >= k:
            raise ValueError(f"edge {e} has class {c}, sequence has {k} classes")
    near = {s: g.neighborhoods(s) for s in set(seq)}
    out = []
    for e, i in enumerate(assignment):
        s = seq[i]
        for f in near[s][e]:
            if f > e and assignment[f] == i:
                out.append(Violation(i, e, f, edge_distance(g, e, f), s + 1))
    out.sort(key=lambda v: (v.class_index, v.e1, v.e2))
    return out


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome: status sat/unsat/unknown/fail plus the witness coloring."""

    status: str
    coloring: EdgeColoring | None
    nodes: int
    method: str

    @property
    def sat(self):
        return self.status == "sat"

    def to_json_dict(self, seq):
        classes = self.coloring.classes(len(seq)) if self.coloring else []
        return {
            "status": self.status,
            "sequence": list(seq),
            "classes": classes,
            "nodes": self.nodes,
            "method": self.method,
        }


def solve_exact(g, seq, budget=50_000_000):
    """Decide S-packing edge-colorability by exhaustive backtracking.

    Edges are assigned in reverse smallest-last order of the line graph.
    Classes that share an s value are interchangeable, so a previously empty
    class may be opened only in index order.  SAT answers carry a witness
    coloring; UNSAT is only reported after full exhaustion; exceeding the
    node budget yields UNKNOWN with the node count.

    The search keeps an explicit stack and two block counters: cnt[i][f] is
    the number of class-i edges within distance s_i of edge f, so f is
    blocked in class i iff cnt[i][f] > 0, and nblk[f] is the number of
    classes that block f.  Placing e in class i walks neighborhoods(s_i)[e]
    (at most 12 edges for s_i <= 2 on a subcubic graph) and is a dead end
    when an unassigned edge it newly blocks is then blocked in every class;
    backtracking undoes the same walk.  Memory is O(k*m).
    """
    if isinstance(seq, (tuple, list)):
        seq = PackingSequence(tuple(seq))
    k = len(seq)
    m = g.m
    if m == 0:
        return SolveResult("sat", EdgeColoring(()), 0, "exact")
    order = _smallest_last(g.neighborhoods(1))[::-1]
    near = [g.neighborhoods(s) for s in seq]
    cnt = [[0] * m for _ in range(k)]
    nblk = [0] * m
    size = [0] * k
    assignment = [-1] * m

    def unplace(c, near_e):
        for f in near_e:
            c[f] -= 1
            if not c[f]:
                nblk[f] -= 1

    nodes = 0
    pos = 0
    start = 0
    while pos < m:
        e = order[pos]
        # of the empty classes that share an s value, only the first is tried
        seen_empty_s = {seq[j] for j in range(start) if size[j] == 0}
        for i in range(start, k):
            s = seq[i]
            if size[i] == 0:
                if s in seen_empty_s:
                    continue
                seen_empty_s.add(s)
            c = cnt[i]
            if c[e]:
                continue
            nodes += 1
            if nodes > budget:
                return SolveResult("unknown", None, nodes, "exact")
            # dead end: an unassigned edge this blocks is now blocked in every class
            dead = False
            for f in near[i][e]:
                if not c[f]:
                    nblk[f] += 1
                    if nblk[f] == k and assignment[f] < 0:
                        dead = True
                c[f] += 1
            if dead:
                unplace(c, near[i][e])
                continue
            size[i] += 1
            assignment[e] = i
            pos += 1
            start = 0
            break
        else:
            # every class tried: undo the previous position, resume after its class
            if pos == 0:
                return SolveResult("unsat", None, nodes, "exact")
            pos -= 1
            e = order[pos]
            i = assignment[e]
            assignment[e] = -1
            size[i] -= 1
            unplace(cnt[i], near[i][e])
            start = i + 1
    return SolveResult("sat", EdgeColoring(tuple(assignment)), nodes, "exact")


def assemble(pair, h_colors):
    """Total (1^2,2^4)-coloring from a pair and a proper 4-coloring of H.

    m1 is class 0, m2 is class 1, and the four H color classes become the
    induced-matching classes 2..5; h_colors[i] colors the i-th leftover edge
    in ascending EdgeId order, as H numbers its vertices.  Raises ValueError
    if h_colors is not a proper coloring of the conflict graph of the pair.
    """
    g = pair.graph
    union = pair.m1 | pair.m2
    left = [e for e in range(g.m) if e not in union]
    colors = tuple(h_colors)
    if len(colors) != len(left):
        raise ValueError(f"expected {len(left)} H colors, got {len(colors)}")
    if any(not 0 <= c < 4 for c in colors):
        raise ValueError("H colors must lie in 0..3")
    assignment = [-1] * g.m
    for e in pair.m1:
        assignment[e] = 0
    for e in pair.m2:
        assignment[e] = 1
    for e, c in zip(left, colors):
        assignment[e] = 2 + c
    # an edge sharing class 2 + c with a leftover edge is a leftover edge too,
    # so a same-class f within distance 2 of e is an edge of H
    near = g.neighborhoods(2)
    for i, e in enumerate(left):
        for f in near[e]:
            if f > e and assignment[f] == assignment[e]:
                raise ValueError(f"H coloring is improper on vertices {i}, {left.index(f)}")
    return EdgeColoring(tuple(assignment))


_RETRIES = 8


def solve_pipeline(g, seed, exact_budget=50_000_000):
    """Constructive (1^2,2^4) solver: a matching pair, a 4-coloring of its
    conflict graph H, then assemble and verify.

    Three tiers, each tried only when the one before it fails:

    1. "greedy": greedy_init(g, seed + a) for a in range(_RETRIES);
    2. "pipeline": the paper's switch moves repair the same pairs, with H
       colored after every move, up to the first H that colors, a
       switch-stable pair, or the end of one local_search start's tick budget;
    3. "fallback": solve_exact on g, within exact_budget nodes.

    In the first two tiers H is colored by searching only its 4-core
    (_peel_color, node-budgeted); an "unsat" or "unknown" answer moves on to
    the next pair, so neither tier can hang on a hard H.

    SolveResult.method names the tier that answered, and nodes sums the
    coloring and exact-search nodes of every tier tried.  Any coloring
    returned has passed verify.  Status "fail" means the exact fallback ran
    out of budget.  Any subcubic graph is accepted, connected or not.
    """
    g.require_subcubic("solve_pipeline")
    nodes = 0
    # each tier slices a walk per attempt; the start pair itself costs no scan
    for method, start, stop in (("greedy", 0, 1), ("pipeline", 1, None)):
        for attempt in range(_RETRIES):
            walk = _switch_walk(greedy_init(g, seed + attempt), _Counter(_START_TICKS), {})
            with suppress(BudgetExhausted):
                for pair in islice(walk, start, stop):
                    col = _peel_color(build_conflict_graph(g, pair))
                    nodes += col.nodes
                    if col.sat:
                        coloring = assemble(pair, col.colors)
                        if not verify(g, SEQ_12_24, coloring):
                            return SolveResult("sat", coloring, nodes, method)
    fb = solve_exact(g, SEQ_12_24, budget=exact_budget)
    if fb.status == "sat" and verify(g, SEQ_12_24, fb.coloring):
        raise AssertionError("exact fallback produced an invalid coloring")
    status = "fail" if fb.status == "unknown" else fb.status
    return SolveResult(status, fb.coloring, nodes + fb.nodes, "fallback")


_INDUCED_MAX_EDGES = 24


def max_induced_matching(g):
    """Maximum size of an induced matching, by exhaustive branch and bound;
    guarded to m <= 24."""
    if g.m > _INDUCED_MAX_EDGES:
        raise ValueError(f"max_induced_matching guard: m={g.m} exceeds {_INDUCED_MAX_EDGES}")
    if g.m == 0:
        return 0
    masks2 = g.distance_masks(2)
    m = g.m
    best = 0

    def rec(e, chosen_mask, count):
        nonlocal best
        if count + (m - e) <= best:
            return
        if e == m:
            best = max(best, count)
            return
        if not (masks2[e] & chosen_mask) :
            rec(e + 1, chosen_mask | (1 << e), count + 1)
        rec(e + 1, chosen_mask, count)

    rec(0, 0, 0)
    return best
