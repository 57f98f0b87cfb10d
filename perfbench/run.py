"""edgepack benchmark: one workload, one process, a closed loop with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: edgepack is imported from ./src and
nowhere else, and the run fails (exit 2, no result) when it is not there.

Set-up (importing edgepack and generating the workload's inputs from the
seed) is repeated, at least SETUP_REPS times; setup_s is the median.  The
loop then runs whole rounds of operations until --seconds of wall time have
passed.  Each operation is timed alone; its output is checked after the
timing by check.py, which shares no code with edgepack.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}, where metrics maps a name to {"value", "unit"}.  With --trace 0
those are the end-to-end metrics; with --trace 1 the run wraps edgepack's
functions (tracing.py) and reports the per-layer metrics instead, among them
the tracing overhead, from running every round both traced and not.  The line
before it is the run record: failed_ratio and failures by type, wrong answers,
the digest of the first round's outputs (one seed, one digest),
latency_p50_s, and latency_p90_s where the run holds at least P90_MIN_OPS
operations.  These stay out of the metrics, which must be present, nonzero
and steady from seed to seed on every workload.

The end-to-end latency is latency_iqm_s, the interquartile mean: the mean of
the middle half of the per-operation latencies.  On pipeline_mixed the median
falls where the small and the large graphs of the size mix overlap; over ten
seeds of 25-s runs on a 2-vCPU VM it moved by about 20% (interquartile range
over median) and the interquartile mean by about 10%.

A failed operation (it raised, gave up, ran past OP_LIMIT_S, or answered
wrongly) adds no edges and its latency is +inf.  JSON has no infinity, so a
failure is charged FAIL_PENALTY_S plus its wall time: longer than any run may
last, so it ranks after every success, and a fix that turns a fast crash into
a slower success reads as a gain.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import signal
import statistics
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402

SETUP_REPS = 3           # set-up runs at least this often ...
SETUP_MIN_S = 2.0        # ... and until this much time is spent, at most
SETUP_MAX_REPS = 25      # this often, so that cheap set-ups get a steady median
FAIL_PENALTY_S = 1000.0  # stands in for the +inf latency of a failed operation
OP_LIMIT_S = 10          # an operation still running after this has failed
P90_MIN_OPS = 100        # fewer operations leave under ten beyond the p90


def import_edgepack():
    """Import edgepack afresh from ROOT/src (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "edgepack" or m.startswith("edgepack.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    ep = importlib.import_module("edgepack")
    if Path(ep.__file__).resolve().parent != ROOT / "src" / "edgepack":
        raise ImportError(f"edgepack was imported from {ep.__file__}, not {src}")
    return ep


def setup(workload, seed):
    """Import and generate at least SETUP_REPS times and for SETUP_MIN_S;
    the inputs must come out the same every time."""
    times, fingerprints = [], set()
    while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        t0 = perf_counter()
        ep = import_edgepack()
        rounds = WORKLOADS[workload](ep, seed)
        times.append(perf_counter() - t0)
        fingerprints.add(digest([[_inputs(job) for job in jobs] for jobs in rounds]))
    return ep, rounds, statistics.median(times), len(fingerprints) == 1


def _inputs(job):
    return sorted((k, v) for k, v in vars(job).items() if not callable(v))


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class OperationTimeout(Exception):
    """An operation ran past OP_LIMIT_S."""


def _timeout(signum, frame):
    raise OperationTimeout(f"no answer within {OP_LIMIT_S} s")


class Tally:
    """Per-operation outcomes, folded in as they arrive: 8 bytes per
    operation, so memory barely depends on how many operations a run holds."""

    def __init__(self):
        self.latencies = array("d")     # failures charged FAIL_PENALTY_S extra
        self.wall = 0.0
        self.good_edges = 0
        self.failed = 0
        self.errors = Counter()
        self.wrong = Counter()

    def add(self, seconds, ok, wrong, edges):
        self.wall += seconds
        self.latencies.append(seconds if ok else seconds + FAIL_PENALTY_S)
        if ok:
            self.good_edges += edges
        else:
            self.failed += 1
        if wrong:
            self.wrong[wrong] += 1


def measure(ep, rounds, seconds, tracer):
    """Closed loop over whole rounds until `seconds` of wall time have passed.

    With a tracer every round runs twice, traced and untraced in alternating
    order, so the tracing overhead is measured on the same operations moments
    apart.  Returns the tally of the traced (else the only) pass, the tally of
    the untraced pass or None, and the determinism figures.
    """
    tally, plain = Tally(), Tally() if tracer else None
    first_round = []
    seen = {}             # id(job) -> digest of its first output
    nondeterministic = 0
    signal.signal(signal.SIGALRM, _timeout)
    deadline = perf_counter() + seconds
    r = 0
    while True:
        passes = [tally] if not tracer else [tally, plain] if r % 2 == 0 else [plain, tally]
        for into in passes:
            traced = into is tally and tracer is not None
            if traced:
                tracer.install()
            try:
                for job in rounds[r % len(rounds)]:
                    verdict, error = run_op(ep, job, tracer if traced else None, into)
                    d = digest(verdict.digest)
                    # whether an operation beats the time limit depends on the
                    # machine, so a timeout says nothing about determinism
                    if error != "OperationTimeout" and seen.setdefault(id(job), d) != d:
                        nondeterministic += 1
                    if r == 0 and into is passes[0]:
                        first_round.append(d)
            finally:
                if traced:
                    tracer.uninstall()
        r += 1
        if perf_counter() >= deadline:
            break
    return tally, plain, digest(first_round), nondeterministic, r


def run_op(ep, job, tracer, tally):
    """Time one operation, judge its output and add it to the tally."""
    if tracer:
        tracer.begin_op()
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            out = job.run(ep)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        error = None
    except Exception as exc:        # every failure is counted, none stops the run
        error = type(exc).__name__
    t1 = perf_counter()
    if tracer:
        tracer.end_op(t0, t1)
    if error:
        tally.errors[error] += 1
        verdict = Verdict(False, None, ("raised", error))
    else:
        try:
            verdict = job.judge(out)
        except Exception as exc:    # output the checker cannot read
            verdict = Verdict(False, f"unreadable output: {exc!r}", ("unreadable",))
    tally.add(t1 - t0, verdict.ok, verdict.wrong, len(job.edges))
    return verdict, error


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        ep, rounds, setup_s, inputs_stable = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot import edgepack from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    tally, plain, first_digest, nondeterministic, nrounds = measure(
        ep, rounds, args.seconds, tracer)

    ops = len(tally.latencies)
    edges_per_s = tally.good_edges / tally.wall
    latencies = sorted(tally.latencies)
    middle = latencies[ops // 4: ops - ops // 4]
    correct = not tally.wrong and not (plain and plain.wrong) and not nondeterministic \
        and inputs_stable

    if tracer:
        metrics = tracer.metrics(edges_per_s, tally.wall / plain.wall - 1)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "edges_per_s": (edges_per_s, "edges/s"),
            "latency_iqm_s": (statistics.fmean(middle), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": nrounds, "operations": ops,
        "failed_ratio": tally.failed / ops, "errors": dict(tally.errors),
        "wrong": dict(tally.wrong), "nondeterministic": nondeterministic,
        "inputs_stable": inputs_stable, "first_round_digest": first_digest,
        "latency_p50_s": nearest_rank(latencies, 0.5),
        "latency_p90_s": nearest_rank(latencies, 0.9) if ops >= P90_MIN_OPS else None,
        "untraced": tracer.missing if tracer else [],
    }
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": correct, "attempted": ops, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
