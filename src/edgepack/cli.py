"""Command-line interface: generate, solve, verify, audit, and batch-run.

Exit codes: 0 = SAT / valid / audit-clean, 1 = UNSAT / invalid / violations,
2 = usage or I/O error, 3 = budget exhausted (UNKNOWN / FAIL, or an audit
whose search stopped short of a switch-stable pair), 4 = internal error (a
defect in edgepack, never a verdict on the input).  All output is
JSON (or TSV with --format tsv) on stdout; given identical arguments the
output is byte-identical across runs.  solve and batch bind one solver
before reading any graph; batch solves one graph at a time, records a graph6
line that fails to parse or to solve as an error (exit 2), and otherwise
exits with its worst status.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

from . import audit as audit_mod
from . import graph as graph_mod
from .matching import _START_TICKS, local_search
from .solver import (EdgeColoring, PackingSequence, SEQ_12_24, solve_exact,
                     solve_pipeline, verify)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

_STATUS_EXIT = {"sat": EXIT_OK, "unsat": EXIT_NEGATIVE,
                "unknown": EXIT_BUDGET, "fail": EXIT_BUDGET}


class CliError(Exception):
    pass


def _read_input(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _family(args):
    """seed -> graph for --family, with the family's options checked once."""
    fam = args.family.strip().lower()
    if fam == "random_cubic":
        if args.n is None:
            raise CliError("--family random_cubic needs --n")
        return lambda seed: graph_mod.random_cubic(args.n, seed)
    g = graph_mod.generate_named(fam)
    return lambda seed: g


def _load_graph(args):
    if getattr(args, "input", None):
        text = _read_input(args.input)
        if args.input.endswith((".g6", ".graph6")):
            lines = [ln for ln in text.splitlines() if ln.strip()]
            if len(lines) != 1:
                raise CliError("expected exactly one graph6 line; use batch for files")
            return graph_mod.parse_graph6(lines[0])
        return graph_mod.parse_edge_list(text)
    if getattr(args, "family", None):
        return _family(args)(args.seed)
    raise CliError("provide --input or --family")


def _emit(payload, fmt):
    if fmt == "tsv":
        for key, value in _flatten(payload):
            print(f"{key}\t{value}")
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}{k}.")
        return
    if isinstance(obj, list):
        yield prefix.rstrip("."), json.dumps(obj, sort_keys=True)
        return
    yield prefix.rstrip("."), obj


def _cmd_gen(args):
    g = _load_graph(args)
    if args.format == "graph6":
        print(graph_mod.to_graph6(g))
    else:
        sys.stdout.write(graph_mod.to_edge_list_text(g))
    return EXIT_OK


def _cmd_distance(args):
    g = _load_graph(args)
    if not (0 <= args.e1 < g.m and 0 <= args.e2 < g.m):
        raise CliError(f"edge ids must be in [0, {g.m})")
    d = graph_mod.edge_distance(g, args.e1, args.e2)
    payload = {"e1": args.e1, "e2": args.e2,
               "distance": None if d == math.inf else d}
    _emit(payload, args.format)
    return EXIT_OK


def _solver(args):
    """(sequence, solve) from --sequence, --method and --budget, checked
    before any graph is read; solve(g, seed) returns a SolveResult."""
    seq = PackingSequence.parse(args.sequence)
    if args.method == "exact":
        return seq, lambda g, seed: solve_exact(g, seq, budget=args.budget)
    if seq.values != SEQ_12_24.values:
        raise CliError("the pipeline solves exactly the (1^2,2^4) sequence")
    return seq, lambda g, seed: solve_pipeline(g, seed, exact_budget=args.budget)


def _cmd_solve(args):
    seq, solve = _solver(args)
    result = solve(_load_graph(args), args.seed)
    _emit(result.to_json_dict(seq), args.format)
    return _STATUS_EXIT[result.status]


def _cmd_verify(args):
    g = _load_graph(args)
    seq = PackingSequence.parse(args.sequence)
    try:
        with open(args.coloring, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        coloring = EdgeColoring.from_classes(doc["classes"], g.m)
        violations = verify(g, seq, coloring)
    except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise CliError(f"bad coloring file: {exc}") from None
    payload = {
        "status": "valid" if not violations else "invalid",
        "sequence": list(seq),
        "violations": [
            {"class": v.class_index, "e1": v.e1, "e2": v.e2,
             "distance": None if v.distance == math.inf else v.distance,
             "required": v.required}
            for v in violations],
    }
    _emit(payload, args.format)
    return EXIT_OK if not violations else EXIT_NEGATIVE


def _cmd_audit(args):
    g = _load_graph(args)
    result = local_search(g, args.seed, budget=args.budget)
    pair = result.pair
    report = audit_mod.check_lemmas(g, pair, stability=(2, 1, 3) if result.stable else None)
    comps = audit_mod.classify_components(g, pair)
    kinds = {}
    for c in comps:
        kinds[c.kind] = kinds.get(c.kind, 0) + 1
    payload = {
        "stable": result.stable,
        "union_size": pair.union_size,
        "m1": sorted(pair.m1),
        "m2": sorted(pair.m2),
        "component_kinds": kinds,
        "lemmas": report.to_json_dict(),
    }
    clean = result.stable and not report.hard_violations()
    if all(c.kind != "VIOLATION" for c in comps):
        payload["charges"] = audit_mod.compute_charges(g, pair).to_json_dict()
    else:
        payload["charges"] = None
        clean = False
    _emit(payload, args.format)
    if not result.stable:
        return EXIT_BUDGET
    return EXIT_OK if clean else EXIT_NEGATIVE


def _cmd_batch(args):
    _, solve = _solver(args)
    if args.input:
        lines = _read_input(args.input).splitlines()
        inputs = enumerate(ln for ln in lines if ln.strip())
        read = graph_mod.parse_graph6
    elif args.family:
        if args.count < 0:
            raise CliError("--count must be >= 0")
        make = _family(args)
        # generated outside the try below: a generation error is a usage error
        inputs = ((idx, make(args.seed + idx)) for idx in range(args.count))
        read = lambda g: g
    else:
        raise CliError("batch needs --input or --family")

    records = []
    counts = dict.fromkeys(_STATUS_EXIT, 0)
    fallbacks = 0
    for idx, item in inputs:
        try:
            g = read(item)
            result = solve(g, args.seed + idx)
        except ValueError as exc:
            records.append({"index": idx, "status": "error", "error": str(exc)})
            continue
        counts[result.status] += 1
        if result.method == "fallback":
            fallbacks += 1
        records.append({"index": idx, "n": g.n, "m": g.m, "status": result.status,
                        "method": result.method, "nodes": result.nodes})
    graphs = sum(counts.values())
    errors = len(records) - graphs
    if args.format == "tsv":
        for rec in records:
            cols = [rec["index"], rec.get("n", ""), rec.get("m", ""),
                    rec["status"], rec.get("method", ""), rec.get("nodes", "")]
            print("\t".join(str(c) for c in cols))
        print(f"# graphs={graphs} errors={errors} "
              + " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
              + f" fallbacks={fallbacks}")
    else:
        _emit({"results": records, "graphs": graphs, "errors": errors,
               "counts": counts, "fallbacks": fallbacks}, "json")
    if errors:
        return EXIT_USAGE
    return max((_STATUS_EXIT[s] for s, c in counts.items() if c), default=EXIT_OK)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edgepack",
        description="S-packing edge-colorings of subcubic graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt_choices=("json", "tsv")):
        p.add_argument("--input", help="edge-list file (or .g6 for graph6)")
        p.add_argument("--family", help="named family, random_cubic, or c<n>")
        p.add_argument("--n", type=int, help="vertex count for random_cubic")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])

    def add_solver(p, method, **sequence):
        p.add_argument("--sequence", help='e.g. "1^2,2^4"', **sequence)
        p.add_argument("--method", choices=("exact", "pipeline"), default=method)
        p.add_argument("--budget", type=int, default=50_000_000,
                       help="search nodes of solve_exact, or of the exact "
                            "fallback of the pipeline (per graph in batch)")

    p = sub.add_parser("gen", help="generate or convert a graph")
    add_common(p, fmt_choices=("edgelist", "graph6"))
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("distance", help="edge distance between two edges")
    add_common(p)
    p.add_argument("e1", type=int)
    p.add_argument("e2", type=int)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("solve", help="decide S-packing colorability")
    add_common(p)
    add_solver(p, "exact", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="verify a coloring file")
    add_common(p)
    p.add_argument("--sequence", required=True)
    p.add_argument("--coloring", required=True, help='JSON {"classes": [[EdgeId,...],...]}')
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("audit", help="local search plus structural audit")
    add_common(p)
    p.add_argument("--budget", type=int, default=_START_TICKS,
                   help="scan ticks per start of the switch search")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("batch", help="run a solver over many graphs")
    add_common(p)
    p.add_argument("--count", type=int, default=1, help="number of generated graphs")
    add_solver(p, "pipeline", default="1^2,2^4")
    p.set_defaults(func=_cmd_batch)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if getattr(args, "budget", 0) < 0:
            raise CliError("--budget must be >= 0")
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a crash must not exit 1, which reads as UNSAT / invalid
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
