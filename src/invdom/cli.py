"""Command-line interface.

Subcommands: analyze one graph, verify a graph6 corpus, run a single
construction with re-verification, and selftest the whole stack.  Exit
codes: 0 ok, 1 failed check, 2 input error, 3 violated precondition,
4 internal contradiction.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

from . import harness
from .certificates import check_inverse_certificate
from .constructions import (
    biglemma_trichotomy,
    bipartite_inverse_construct,
    gamma5_construct,
    inddom_construct,
    theorem_main_construct,
)
from .errors import InputFormatError, InternalContradiction, PreconditionViolated, TooLarge
from . import solvers
from .graph import Graph
from .graph6 import parse_edge_list, parse_graph6, write_graph6
from .harness import (
    ALL_CHECKS,
    EXIT_CHECK_FAILED,
    EXIT_CONTRADICTION,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_PRECONDITION,
    RunConfig,
)

# selftest runs oracles that try every vertex subset on every graph up to
# --max-n vertices: 12,346 graphs on 8, and each order past that multiplies it
MAX_SELFTEST_N = 8


def _load_single_graph(arg: str | None, edges_path: str | None) -> Graph:
    # As in verify, undecodable bytes survive as surrogates for the parsers to reject.
    if edges_path is not None:
        if arg is not None:
            raise InputFormatError("give a graph or --edges, not both")
        with open(edges_path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            return parse_edge_list(handle.read())
    if arg is None:
        raise InputFormatError("no graph given: pass a graph6 string, file, or --edges")
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8", errors="surrogateescape") as handle:
            for line in handle:
                if line.strip():
                    return parse_graph6(line)
        raise InputFormatError(f"{arg}: no graph6 line found")
    return parse_graph6(arg)


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_single_graph(args.graph, args.edges)
    report = harness.analyze_graph(g, checks=args.checks)
    if report.skipped_for_isolates:
        print("warning: graph has isolated vertices; inverse domination undefined", file=sys.stderr)
    label = {True: "yes", False: "NO", None: "-", "n/a": "n/a"}
    print(f"graph6            {report.graph6}")
    print(f"vertices / edges  {report.n} / {report.m}")
    print(f"gamma             {report.gamma}")
    print(f"alpha             {report.alpha}")
    print(f"inverse gamma     {report.inv_gamma if report.inv_gamma is not None else '-'}")
    print(f"strong inverse    {report.strong_inv_gamma if report.strong_inv_gamma is not None else '-'}")
    print(f"induced bipartite {report.b if report.b is not None else '-'}")
    print(f"conjecture ok     {label.get(report.conjecture_ok, report.conjecture_ok)}")
    print(f"three-halves ok   {label.get(report.three_halves_ok, report.three_halves_ok)}")
    print(f"main theorem ok   {label.get(report.main_thm_ok, report.main_thm_ok)}")
    print(report.to_json())
    return EXIT_OK


def _parse_checks(raw: str) -> frozenset[str]:
    """argparse type of ``--checks``: an unknown name is a usage error (exit 2),
    and a value that names no check ("", " ", ",") means every check."""
    chosen = frozenset(part.strip().replace("-", "_") for part in raw.split(",") if part.strip())
    if not chosen:
        return ALL_CHECKS
    unknown = chosen - ALL_CHECKS
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown checks: {', '.join(sorted(unknown))}")
    return chosen


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _same_file(a: str, b: str) -> bool:
    """Whether paths a and b name one file, through links too; a path that
    does not exist yet is compared by its resolved name."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _cmd_verify(args: argparse.Namespace) -> int:
    # Pool starts every worker up front, so a count above the CPUs only costs processes.
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise InputFormatError(f"--jobs must be between 1 and {cpus}, the CPU count")
    # Opening an output truncates it, so no output may be the corpus or the other output.
    named = [("the corpus", "" if args.corpus == "-" else args.corpus),
             ("--out", args.out), ("--counterexamples", args.counterexamples)]
    for (name, path), (other, other_path) in itertools.combinations(named, 2):
        if path and other_path and _same_file(path, other_path):
            raise InputFormatError(f"{name} and {other} are the same file: {path}")
    config = RunConfig(checks=args.checks, jobs=args.jobs, strict=args.strict)
    with contextlib.ExitStack() as stack:
        # Open the corpus before --out, so a bad corpus leaves an old report intact.
        # Undecodable bytes survive as surrogates, which parse_graph6 rejects
        # as a bad line.
        if args.corpus == "-":
            corpus = sys.stdin
            corpus.reconfigure(encoding="utf-8", errors="surrogateescape")
        else:
            corpus = stack.enter_context(
                open(args.corpus, "r", encoding="utf-8", errors="surrogateescape")
            )
        out_handle = (
            stack.enter_context(open(args.out, "w", encoding="utf-8")) if args.out else sys.stdout
        )

        def sink(line: str) -> None:
            out_handle.write(line + "\n")

        summary = harness.verify_stream(corpus, config, sink, _log)

    if summary.failing_graph6 and args.counterexamples:
        with open(args.counterexamples, "w", encoding="utf-8") as handle:
            for g6 in summary.failing_graph6:
                handle.write(g6 + "\n")
        print(f"counterexamples written to {args.counterexamples}", file=sys.stderr)
    print(
        f"verified {summary.graphs} graphs: {summary.failures} failures, "
        f"{summary.skipped_isolates} skipped for isolates, "
        f"{summary.parse_errors} parse errors",
        file=sys.stderr,
    )
    if not summary.graphs or (summary.parse_errors and config.strict):
        return EXIT_INPUT_ERROR
    return summary.exit_code()


def _cmd_construct(args: argparse.Namespace) -> int:
    g = _load_single_graph(args.graph, None)
    try:
        if args.which == "gamma5":
            cert = gamma5_construct(g)
        else:
            d_set = solvers.optimal_dominating_set(g).d_set
            if args.which == "main":
                cert = theorem_main_construct(g, d_set)
            elif args.which == "bipartite":
                cert = bipartite_inverse_construct(g, d_set)
            else:  # inddom; D is a gamma-set, so a failed trichotomy is a counterexample
                s = biglemma_trichotomy(g, d_set)
                if s is None:
                    raise PreconditionViolated(
                        "no independent set S with S-D dominating D-S exists"
                    )
                cert = inddom_construct(g, d_set, s)
    except PreconditionViolated as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalContradiction as exc:
        print(json.dumps(exc.reproducer(write_graph6(g)), indent=2), file=sys.stderr)
        return EXIT_CONTRADICTION

    problems = check_inverse_certificate(g, cert, solvers.gamma(g)[0])
    if problems:
        print(json.dumps({"error": "certificate failed re-verification",
                          "problems": problems}), file=sys.stderr)
        return EXIT_CONTRADICTION
    payload = cert.to_dict()
    payload["which"] = args.which
    payload["d_size"] = cert.d_set.bit_count()
    print(json.dumps(payload, separators=(",", ":")))
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    if args.max_n < 2:
        raise InputFormatError("--max-n must be at least 2: smaller graphs have isolated vertices")
    if args.max_n > MAX_SELFTEST_N:
        raise InputFormatError(
            f"--max-n must be at most {MAX_SELFTEST_N}: the oracles try every vertex subset"
        )
    ok = harness.selftest(max_n=args.max_n)
    print("selftest:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invdom",
        description="Exact domination-theory invariants and certificate-producing constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one graph")
    p.add_argument("graph", nargs="?", help="graph6 string or path to a graph6 file")
    p.add_argument("--edges", help="read an edge-list file instead")
    p.add_argument("--checks", type=_parse_checks, default=ALL_CHECKS,
                   help="comma list from: " + ",".join(sorted(ALL_CHECKS)))
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("verify", help="check every bound over a graph6 corpus")
    p.add_argument("corpus", help="graph6 file, one graph per line, or - for stdin")
    p.add_argument("--strict", action="store_true", help="abort on parse errors")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes, at most the CPU count (default %(default)s)")
    p.add_argument("--out", help="write JSONL reports here instead of stdout")
    p.add_argument("--checks", type=_parse_checks, default=ALL_CHECKS,
                   help="comma list from: " + ",".join(sorted(ALL_CHECKS)))
    p.add_argument("--counterexamples",
                   help="write the graph6 of each failing graph here (default: not written)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("construct", help="run one construction, re-verify, print the certificate")
    p.add_argument("graph", help="graph6 string or path")
    p.add_argument("--which", required=True, choices=("main", "bipartite", "gamma5", "inddom"))
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.add_argument(
        "--max-n", type=int, default=7, help=f"largest graph order to sweep, 2 to {MAX_SELFTEST_N}"
    )
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputFormatError, TooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
