"""Structural audits of a matching pair: leftover shapes, exchange-lemma
predicates, and the discharging ledger.

The predicates are evaluated literally on the given pair with no optimality
assumption.  For pairs that are switch-stable under the (2,1,3) neighborhood,
the first four (no C1 subtree, no cycle, no long path, no linked claws) are
hard guarantees; the remaining ones hold only under stronger global optimality
conditions and are reported as diagnostics.

Charges are exact rationals: each conflict-graph vertex starts at its degree
minus 9/2, and rule R0 moves one unit along every matched edge from a
leftover-degree-1 endpoint's component to a leftover-degree-2 endpoint's
component.

check_lemmas and compute_charges read one view of the leftover graph
G - M1 - M2: its classified components (build_leftover), each vertex's
leftover neighbors, and the list of union links, the M1 u M2 edges whose
two ends both lie in leftover components.  The link predicates and the R0
transfers are filters over that list; the rule for union edges joining two
P3 middles is the one the search objective counts with
(leftover._middle_links).  Every audit raises ValueError when the pair
belongs to another graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .conflict import build_conflict_graph
from .leftover import K13, P3, P4, VIOLATION, _middle_links, build_leftover
from .matching import find_improving_move


@dataclass(frozen=True)
class PredicateResult:
    holds: bool
    witness: dict | None = None

    def __bool__(self):
        return self.holds


@dataclass
class LemmaReport:
    """Outcome of every structural-lemma predicate on one pair."""

    no_c1: PredicateResult
    no_cycle: PredicateResult
    no_long_path: PredicateResult
    no_k13_k13_link: PredicateResult
    no_k13_p4_link: PredicateResult
    no_p4_midp3_link: PredicateResult
    no_p4_at_all: PredicateResult
    paired_p3_count: int
    paired_p3_at_most_one: bool
    paired_p3_pairs: tuple
    leaf_double_mid_link: PredicateResult
    chain_p3_p3_p3: PredicateResult
    two_leaves_two_mids: PredicateResult
    stability: tuple | None = None

    HARD = ("no_c1", "no_cycle", "no_long_path", "no_k13_k13_link")

    def hard_violations(self):
        return [name for name in self.HARD if not getattr(self, name).holds]

    def to_json_dict(self):
        out = {}
        for name in ("no_c1", "no_cycle", "no_long_path", "no_k13_k13_link",
                     "no_k13_p4_link", "no_p4_midp3_link", "no_p4_at_all",
                     "leaf_double_mid_link", "chain_p3_p3_p3", "two_leaves_two_mids"):
            pr = getattr(self, name)
            out[name] = {"holds": pr.holds, "witness": pr.witness}
        out["paired_p3"] = {"count": self.paired_p3_count,
                            "at_most_one": self.paired_p3_at_most_one,
                            "pairs": [list(p) for p in self.paired_p3_pairs]}
        out["stability"] = list(self.stability) if self.stability else None
        return out


@dataclass
class ChargeReport:
    """Discharging ledger: initial charges, R0 transfers, per-component nets."""

    initial: dict                 # EdgeId -> Fraction(d_H - 9/2)
    component_kinds: tuple        # kind per component index
    component_edges: tuple        # leftover EdgeIds per component
    component_initial: tuple      # Fraction per component
    transfers: tuple              # (source comp, sink comp, via U edge) each worth 1
    component_net: tuple          # Fraction per component
    total_initial: Fraction = field(default=Fraction(0))
    total_net: Fraction = field(default=Fraction(0))

    def to_json_dict(self):
        return {
            "initial": {str(e): float(q) for e, q in sorted(self.initial.items())},
            "components": [
                {"kind": self.component_kinds[i],
                 "edges": list(self.component_edges[i]),
                 "initial": float(self.component_initial[i]),
                 "net": float(self.component_net[i])}
                for i in range(len(self.component_kinds))
            ],
            "transfers": [{"from": a, "to": b, "edge": e, "amount": 1}
                          for a, b, e in self.transfers],
            "total_initial": float(self.total_initial),
            "total_net": float(self.total_net),
        }


def _require_pair_of(g, pair):
    if pair.graph is not g and pair.graph != g:
        raise ValueError("pair does not belong to this graph")


def _leftover_view(g, pair):
    """The leftover graph as the audits read it: (lg, lnbr, links).

    lg is build_leftover's result.  lnbr[v] lists v's leftover neighbors in
    ascending edge order, so len(lnbr[v]) is v's leftover degree.  links
    holds (e, p, q, comp_p, comp_q) for every union edge e = pq, ascending,
    in both directions, whose two ends both lie in leftover components; the
    two components may be the same one.
    """
    lg = build_leftover(g, pair.union())
    lnbr = [[] for _ in range(g.n)]
    for e in lg.edges:
        u, v = g.endpoints(e)
        lnbr[u].append(v)
        lnbr[v].append(u)
    comp_of = lg.component_of()
    links = []
    for e in sorted(pair.union()):
        x, y = g.endpoints(e)
        for p, q in ((x, y), (y, x)):
            if p in comp_of and q in comp_of:
                links.append((e, p, q, comp_of[p], comp_of[q]))
    return lg, lnbr, links


def _first(witnesses):
    """The predicate result for the first violation witness, if any."""
    witness = next(witnesses, None)
    return PredicateResult(witness is None, witness)


def classify_components(g, pair):
    """Classified components of the leftover graph for this pair."""
    _require_pair_of(g, pair)
    return list(build_leftover(g, pair.union()).components)


def check_lemmas(g, pair, stability=None):
    """Evaluate every structural-lemma predicate on (g, pair).

    Violations carry a concrete witness of vertex and edge ids.  The optional
    stability tuple is attached to the report so downstream consumers know
    which predicates were guaranteed at that level.
    """
    _require_pair_of(g, pair)
    lg, lnbr, links = _leftover_view(g, pair)
    comps = lg.components

    no_c1 = PredicateResult(True)
    for e in lg.edges:
        for v, w in (g.endpoints(e), g.endpoints(e)[::-1]):
            mids = [x for x in lnbr[v] if x != w]
            tail = [x for x in lnbr[w] if x != v]
            if len(mids) >= 2:
                u1, u2 = mids[0], mids[1]
                for x in tail:
                    if x not in (u1, u2):
                        no_c1 = PredicateResult(False, {
                            "vertices": [u1, u2, v, w, x],
                            "edges": [g.edge_id(u1, v), g.edge_id(u2, v), e, g.edge_id(w, x)]})
                        break
            if not no_c1.holds:
                break
        if not no_c1.holds:
            break

    no_cycle = PredicateResult(True)
    for comp in comps:
        if comp.kind == VIOLATION and comp.reason == "cycle":
            no_cycle = PredicateResult(False, {"edges": list(comp.edges),
                                               "vertices": list(comp.vertices)})
            break

    no_long_path = PredicateResult(True)

    def dfs_path(v, path):
        if len(path) == 5:
            return list(path)
        for w in lnbr[v]:
            if w not in path:
                path.append(w)
                got = dfs_path(w, path)
                if got:
                    return got
                path.pop()
        return None

    for start in range(g.n):
        if not lnbr[start]:
            continue
        got = dfs_path(start, [start])
        if got:
            no_long_path = PredicateResult(False, {"vertices": got})
            break

    def kind_link(kind_a, kind_b):
        return _first(
            {"edge": e, "components": [list(comps[ca].edges), list(comps[cb].edges)]}
            for e, _, _, ca, cb in links
            if ca != cb and comps[ca].kind == kind_a and comps[cb].kind == kind_b)

    no_k13_k13_link = kind_link(K13, K13)
    no_k13_p4_link = kind_link(K13, P4)

    p3_comps = [i for i, c in enumerate(comps) if c.kind == P3]
    p3_middle = {comps[i].middle(g): i for i in p3_comps}

    no_p4_midp3_link = _first(
        {"edge": e, "p4": list(comps[ca].edges), "p3": list(comps[cb].edges)}
        for e, p, q, ca, cb in links
        if comps[ca].kind == P4 and len(lnbr[p]) == 1 and q in p3_middle)

    no_p4_at_all = _first({"edges": list(c.edges)} for c in comps if c.kind == P4)

    paired_pairs = list(_middle_links(g, sorted(pair.union()), p3_middle))

    links_at = {}
    for link in links:
        links_at.setdefault(link[1], []).append(link)

    def p3_links(v, ia):
        """(edge, far end, component) of the links from v into a P3 other than ia."""
        return [(e, q, cb) for e, _, q, _, cb in links_at.get(v, ())
                if cb != ia and comps[cb].kind == P3]

    def leaves(ia):
        return [v for v in comps[ia].vertices if len(lnbr[v]) == 1]

    # one leaf of a P3 linked to another P3's middle and to a third P3
    def leaf_double_witnesses():
        for ia in p3_comps:
            for leaf in leaves(ia):
                hits = p3_links(leaf, ia)
                if len(hits) >= 2 and any(q in p3_middle for _, q, _ in hits):
                    yield {"leaf": leaf, "p3": list(comps[ia].edges),
                           "links": [{"edge": e, "other_p3": list(comps[cb].edges)}
                                     for e, _, cb in hits]}

    # P3 middle -> P3 leaf link whose middle links onward to a third P3
    def chain_witnesses():
        for ia in p3_comps:
            for e, q, ib in p3_links(comps[ia].middle(g), ia):
                if q in p3_middle:
                    continue   # middle-middle links are the paired case
                for e2, _, ic in p3_links(comps[ib].middle(g), ib):
                    yield {"p3_chain": [list(comps[ia].edges), list(comps[ib].edges),
                                        list(comps[ic].edges)],
                           "edges": [e, e2]}

    # both leaves of one P3 linked to middles of two other P3s
    def two_leaves_witnesses():
        for ia in p3_comps:
            hits = [(leaf, e, cb) for leaf in leaves(ia)
                    for e, q, cb in p3_links(leaf, ia) if q in p3_middle]
            used = {cb for _, _, cb in hits}
            if len({leaf for leaf, _, _ in hits}) >= 2 and len(used) >= 2:
                yield {"p3": list(comps[ia].edges),
                       "links": [{"leaf": leaf, "edge": e, "other_p3": list(comps[cb].edges)}
                                 for leaf, e, cb in hits]}

    return LemmaReport(
        no_c1=no_c1,
        no_cycle=no_cycle,
        no_long_path=no_long_path,
        no_k13_k13_link=no_k13_k13_link,
        no_k13_p4_link=no_k13_p4_link,
        no_p4_midp3_link=no_p4_midp3_link,
        no_p4_at_all=no_p4_at_all,
        paired_p3_count=len(paired_pairs),
        paired_p3_at_most_one=len(paired_pairs) <= 1,
        paired_p3_pairs=tuple((a, b) for a, b, _ in paired_pairs),
        leaf_double_mid_link=_first(leaf_double_witnesses()),
        chain_p3_p3_p3=_first(chain_witnesses()),
        two_leaves_two_mids=_first(two_leaves_witnesses()),
        stability=stability,
    )


def compute_charges(g, pair):
    """Discharging ledger for a pair whose leftover components are all basic.

    Initial charge of each leftover edge is its conflict-graph degree minus
    9/2.  R0: every M1 u M2 edge from a leftover-degree-1 vertex to a
    leftover-degree-2 vertex moves one unit between their components.
    Transfers conserve charge, so the net total equals the initial total.
    """
    _require_pair_of(g, pair)
    lg, lnbr, links = _leftover_view(g, pair)
    comps = lg.components
    for comp in comps:
        if comp.kind == VIOLATION:
            raise ValueError(f"cannot compute charges: component {comp.edges} "
                             f"is a violation ({comp.reason})")
    h = build_conflict_graph(g, pair)
    half9 = Fraction(9, 2)
    initial = {}
    for i, e in enumerate(h.vertices):
        initial[e] = Fraction(h.degree(i)) - half9
    comp_initial = [sum((initial[e] for e in comp.edges), Fraction(0)) for comp in comps]
    transfers = [(cp, cq, e) for e, p, q, cp, cq in links
                 if len(lnbr[p]) == 1 and len(lnbr[q]) == 2]
    net = list(comp_initial)
    for src, dst, _ in transfers:
        net[src] -= 1
        net[dst] += 1
    total_initial = sum(comp_initial, Fraction(0))
    total_net = sum(net, Fraction(0))
    assert total_initial == total_net
    return ChargeReport(
        initial=initial,
        component_kinds=tuple(c.kind for c in comps),
        component_edges=tuple(c.edges for c in comps),
        component_initial=tuple(comp_initial),
        transfers=tuple(transfers),
        component_net=tuple(net),
        total_initial=total_initial,
        total_net=total_net,
    )


def ky_bound(k, n):
    """Kostochka-Yancey lower bound on the edge count of a k-critical graph."""
    if not (isinstance(k, int) and isinstance(n, int)):
        raise ValueError("ky_bound takes integers")
    if k < 3 or n < k:
        raise ValueError("ky_bound requires k >= 3 and n >= k")
    return (Fraction(k, 2) - Fraction(1, k - 1)) * n - Fraction(k * (k - 3), 2 * (k - 1))


def is_switch_stable(g, pair):
    """True iff no move in the (2,1,3) neighborhood improves the objective."""
    _require_pair_of(g, pair)
    return find_improving_move(pair) is None
