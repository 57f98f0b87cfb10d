"""Print every benchmark metric by name with its unit, for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Runs perfbench/run.py once untraced and once traced per workload, one
process at a time, and prints the end-to-end metrics, the per-layer metrics,
the run records (failures by type, wrong answers, p50 and p90), the
tracing overhead, and whether the two runs of a seed produced the same
first-round outputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    """One run.py process; returns (run record, result line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)

    same = True
    for workload in args.workload or list(WORKLOADS):
        plain, plain_res = run_once(workload, args.seed, args.seconds, 0)
        traced, traced_res = run_once(workload, args.seed, args.seconds, 1)
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s)")
        for label, rec, res in (("end-to-end", plain, plain_res), ("per-layer", traced, traced_res)):
            print(f"  {label}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} failed_ratio={rec['failed_ratio']:.4f} "
                  f"errors={rec['errors']} wrong={rec['wrong']}")
            for name, m in res["metrics"].items():
                print(f"    {name:34s} {m['value']:>16.6g} {m['unit']}")
            if label == "end-to-end":
                p90 = rec["latency_p90_s"]
                print(f"    {'latency_p50_s (run record)':34s} {rec['latency_p50_s']:>16.6g} s")
                print(f"    {'latency_p90_s (run record)':34s} "
                      + (f"{p90:>16.6g} s" if p90 is not None else
                         f"{'n/a':>16s}   ({rec['operations']} operations < 100)"))
        print(f"  tracing overhead: {traced_res['metrics']['trace.overhead']['value']:.1%} "
              "extra wall time, the same operations run traced and untraced in turn")
        match = plain["first_round_digest"] == traced["first_round_digest"]
        same &= match
        print(f"  first-round outputs: {'identical' if match else 'DIFFER'} "
              f"({plain['first_round_digest']} / {traced['first_round_digest']})")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
