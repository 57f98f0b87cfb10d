"""The four benchmark workloads: how each builds its inputs from a seed, what
one operation calls in edgepack, and how its output is judged.

Every job holds plain inputs (vertex count, sorted edge tuple, seeds) built
during set-up.  Its ``run`` is the timed operation: it builds the Graph from
the edge list, so each operation starts with cold per-graph caches, and then
calls edgepack's public functions through their module attributes, so that a
traced run can wrap them.  Its ``judge`` runs after the timing and returns a
Verdict.

A workload is a list of rounds, each a list of jobs; the loop runs whole
rounds, cycling through the list, so every run sees the same size mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from check import colorable, coloring_problems, initial_charges

SEQ_12_24 = (1, 1, 2, 2, 2, 2)


@dataclass
class Verdict:
    """Outcome of one operation.

    ok: the operation answered and the answer was checked correct.
    wrong: why the answer is incorrect (a wrong answer, not a give-up), or None.
    digest: the output as a hashable value for the determinism check.
    """

    ok: bool
    wrong: str | None
    digest: object


def _failed(digest):
    return Verdict(False, None, digest)


def _graph_input(g):
    return g.n, tuple(g.edges)


# ---------------------------------------------------------------------------
# pipeline_mixed: solve_pipeline on the criterion-4 size mix
# ---------------------------------------------------------------------------

class PipelineJob:
    def __init__(self, n, edges, seed):
        self.n, self.edges, self.seed = n, edges, seed

    def run(self, ep):
        g = ep.graph.Graph(self.edges, n=self.n)
        return ep.solver.solve_pipeline(g, self.seed)

    def judge(self, res):
        if res.status != "sat":
            return _failed((res.status,))
        colors = res.coloring.assignment
        problems = coloring_problems(self.n, self.edges, SEQ_12_24, colors)
        return Verdict(not problems, problems[0] if problems else None, ("sat", colors))


PIPELINE_ROUNDS = 16


def pipeline_mixed(ep, seed):
    """Rounds of (72, e, 80, e, 100, e): the criterion-4 mix, in which the
    sizes 72/80/100 and the even n in 10..70 have equal shares.  The small
    sizes are dealt from shuffled decks of all 31 even n in 10..70, so every
    run sees nearly the same size mix and seeds differ only in the graphs."""
    rng = random.Random(f"pipeline_mixed:{seed}")
    small = []
    while len(small) < 3 * PIPELINE_ROUNDS:
        deck = list(range(10, 71, 2))
        rng.shuffle(deck)
        small += deck
    rounds = []
    for i in range(PIPELINE_ROUNDS):
        jobs = []
        for n in (72, small[3 * i], 80, small[3 * i + 1], 100, small[3 * i + 2]):
            g = ep.graph.random_cubic(n, rng.randrange(1 << 30))
            jobs.append(PipelineJob(*_graph_input(g), rng.randrange(1 << 30)))
        rounds.append(jobs)
    return rounds


# ---------------------------------------------------------------------------
# ladder_scale: the colouring tier, stage by stage, at n = 10^3 .. 10^4
# ---------------------------------------------------------------------------

class LadderJob:
    def __init__(self, n, edges, seed):
        self.n, self.edges, self.seed = n, edges, seed

    def run(self, ep):
        g = ep.graph.Graph(self.edges, n=self.n)
        pair = ep.matching.greedy_init(g, self.seed)
        h = ep.conflict.build_conflict_graph(g, pair)
        col = ep.conflict.color_exact(h, 4)
        if not col.sat:
            return col.status, None, None
        coloring = ep.solver.assemble(pair, col.colors)
        return "sat", coloring, ep.solver.verify(g, ep.solver.SEQ_12_24, coloring)

    def judge(self, out):
        status, coloring, violations = out
        if status != "sat":
            return _failed((status,))
        colors = coloring.assignment
        problems = coloring_problems(self.n, self.edges, SEQ_12_24, colors)
        if bool(problems) != bool(violations):
            problems = [f"verify found {len(violations)} violations, checker {len(problems)}"]
        elif violations:
            problems = [f"assembled colouring has {len(violations)} violations"]
        return Verdict(not problems, problems[0] if problems else None, ("sat", colors))


# A geometric ladder, 10^3 * 10^(i/4) made even.  At the default recursion
# limit color_exact raises RecursionError from about n = 1600 upward, where the
# largest component of H outgrows the limit; those operations count as failed.
LADDER_SIZES = (1000, 1778, 3162, 5624, 10000)


def ladder_scale(ep, seed):
    """Two rounds of one random cubic graph per size on a geometric ladder."""
    rng = random.Random(f"ladder_scale:{seed}")
    rounds = []
    for _ in range(2):
        jobs = []
        for n in LADDER_SIZES:
            g = ep.graph.random_cubic(n, rng.randrange(1 << 30))
            jobs.append(LadderJob(*_graph_input(g), rng.randrange(1 << 30)))
        rounds.append(jobs)
    return rounds


# ---------------------------------------------------------------------------
# exact_certify: solve_exact on the certificates and on tiny subcubic graphs
# ---------------------------------------------------------------------------

# (family, sequence, the paper's answer): acceptance criteria 1 and 3
CERTIFICATES = (
    ("subdivided_k33", "1^2,2^3", "unsat"),
    ("subdivided_k33", "1^2,2^4", "sat"),
    ("petersen", "1^3,3", "unsat"),
    ("petersen", "1^3,2", "sat"),
)
SMALL_SEQUENCES = ("1^2,2^3", "1^2,2^4", "1^3")


class ExactJob:
    def __init__(self, n, edges, seq, expected, oracle):
        self.n, self.edges, self.seq = n, edges, seq
        self.expected = expected
        self.oracle = oracle

    def run(self, ep):
        g = ep.graph.Graph(self.edges, n=self.n)
        res = ep.solver.solve_exact(g, self.seq)
        if res.sat:
            return res, ep.solver.verify(g, self.seq, res.coloring)
        return res, None

    def judge(self, out):
        res, violations = out
        svalues = tuple(self.seq)
        if res.status == "unsat":
            colourable = self.oracle(self.n, self.edges, svalues)
            wrong = "unsat but colourable" if colourable else None
        elif res.status == "sat":
            colors = res.coloring.assignment
            problems = coloring_problems(self.n, self.edges, svalues, colors)
            wrong = problems[0] if problems else (
                f"verify found {len(violations)} violations" if violations else None)
        else:
            return _failed((res.status,))
        if wrong is None and self.expected and res.status != self.expected:
            wrong = f"{res.status}, the paper's answer is {self.expected}"
        digest = (res.status, res.coloring.assignment if res.sat else None)
        return Verdict(wrong is None, wrong, digest)


def small_subcubic(rng, m):
    """Random connected graph of maximum degree <= 3 with about m edges:
    a random spanning tree plus chords, on between 2m/3 and m + 1 vertices."""
    n = rng.randint(max(3, -(-2 * m // 3)), m + 1)
    deg = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < 3])
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    for _ in range(50):
        if len(edges) >= m:
            break
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges and deg[u] < 3 and deg[v] < 3:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return n, tuple(sorted(edges))


def exact_certify(ep, seed):
    """Rounds of the four certificate instances plus 12 tiny graphs (4 to 9
    edges, so the oracle can confirm UNSAT) under each of three sequences."""
    rng = random.Random(f"exact_certify:{seed}")
    memo = {}

    def oracle(n, edges, svalues):
        key = (edges, svalues)
        if key not in memo:
            memo[key] = colorable(n, edges, svalues)
        return memo[key]

    parse = ep.solver.PackingSequence.parse
    certs = []
    for family, seq, answer in CERTIFICATES:
        g = ep.graph.generate_named(family)
        certs.append(ExactJob(*_graph_input(g), parse(seq), answer, oracle))
    rounds = []
    for _ in range(100):
        jobs = list(certs)
        for _ in range(12):
            n, edges = small_subcubic(rng, rng.randint(4, 9))
            jobs += [ExactJob(n, edges, parse(s), None, oracle) for s in SMALL_SEQUENCES]
        rounds.append(jobs)
    return rounds


# ---------------------------------------------------------------------------
# audit_stable: the read path of the switch search, plus leftover and audit
# ---------------------------------------------------------------------------

class AuditJob:
    def __init__(self, n, edges, m1, m2):
        self.n, self.edges, self.m1, self.m2 = n, edges, m1, m2

    def run(self, ep):
        g = ep.graph.Graph(self.edges, n=self.n)
        pair = ep.matching.MatchingPair(g, self.m1, self.m2)
        stable = ep.audit.is_switch_stable(g, pair)
        report = ep.audit.check_lemmas(g, pair, stability=(2, 1, 3))
        return stable, report.hard_violations(), ep.audit.compute_charges(g, pair)

    def judge(self, out):
        stable, hard, charges = out
        want = initial_charges(self.n, self.edges, self.m1 + self.m2)
        if not stable:
            wrong = "a pair local_search called stable is not switch-stable"
        elif hard:
            wrong = f"hard lemma violations at a stable pair: {hard}"
        elif charges.initial != want:
            wrong = "initial charges differ from d_H(e) - 9/2"
        elif not charges.total_initial == charges.total_net == sum(want.values()):
            wrong = "discharging does not conserve the total charge"
        else:
            wrong = None
        digest = (stable, tuple(hard), charges.component_kinds, charges.transfers,
                  str(charges.total_initial))
        return Verdict(wrong is None, wrong, digest)


# The sizes of acceptance criterion 5 and a little above.  They are small so
# that 39 distinct pairs fit the set-up: the run-to-run spread of this
# workload comes from which pairs it holds, so it needs many of them.
AUDIT_SIZES = tuple(range(20, 45, 2))


def audit_stable(ep, seed):
    """One round of 39 switch-stable pairs, three per size, each found by
    local_search on a random cubic graph."""
    rng = random.Random(f"audit_stable:{seed}")
    jobs = []
    for n in AUDIT_SIZES * 3:
        g = ep.graph.random_cubic(n, rng.randrange(1 << 30))
        found = ep.matching.local_search(g, rng.randrange(1 << 30))
        if not found.stable:
            raise RuntimeError(f"local_search found no stable pair on n={n}")
        jobs.append(AuditJob(*_graph_input(g), tuple(sorted(found.pair.m1)),
                             tuple(sorted(found.pair.m2))))
    return [jobs]


WORKLOADS = {
    "pipeline_mixed": pipeline_mixed,
    "ladder_scale": ladder_scale,
    "exact_certify": exact_certify,
    "audit_stable": audit_stable,
}
