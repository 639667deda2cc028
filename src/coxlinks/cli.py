"""Command-line front end.

Exit codes: 0 success, 1 certified property violation, 2 parse error,
3 contract violation (bad flag values, wrong graph class, size mismatch),
4 internal error (any other failure, such as exhausted recursion).
Standard output is deterministic for fixed inputs and flags; wall-clock
timings go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .analysis import _interval_json, analyze, min_dilatation_search, verify_theorems
from .coxeter import CertificationError, coxeter_polynomial, require_alternating
from .fixtures import fixture_names, fixture_text
from .graphs import (
    GraphParseError,
    MixedSignCoxeterGraph,
    graph_to_text,
    is_alternating_sign,
    is_vertex_extension,
    parse_graph,
)
from .spectra import DEFAULT_EPSILON, interlace_check

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_CONTRACT = 3
EXIT_INTERNAL = 4

_GRAPH_ARG_HELP = "graph file path, built-in example name, or - for stdin"


def _load_graph(spec: str) -> MixedSignCoxeterGraph:
    try:
        if spec == "-":
            text = sys.stdin.read()
        elif os.path.exists(spec):
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = fixture_text(spec)
    except KeyError:
        raise GraphParseError(f"no such file or built-in example: {spec!r}") from None
    except UnicodeDecodeError:
        raise GraphParseError(f"{spec!r} is not UTF-8 text") from None
    except OSError as e:
        raise GraphParseError(f"cannot read {spec!r}: {e.strerror}") from None
    return parse_graph(text)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if not is_alternating_sign(g) and not args.classical:
        print("error: graph is not alternating-sign "
              "(pass --classical for the reduced report)", file=sys.stderr)
        return EXIT_CONTRACT
    report = analyze(g, args.epsilon)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(report.render_text())
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    small = _load_graph(args.small)
    large = _load_graph(args.large)
    if large.n != small.n + 1:
        raise ValueError(
            f"vertex counts must differ by one (got {small.n} and {large.n})")
    # Delta = +-c(-t) negates every root and reverses both root lists,
    # which maps the chain beta_1 <= alpha_1 <= ... <= beta_{s+1} onto
    # itself; c is real-rooted iff Delta is and the degrees match.  So
    # the Alexander verdict is the Coxeter one, and only Delta's contract
    # is left to check, before any polynomial work.
    for g in (small, large):
        require_alternating(g, "alexander_polynomial")
    extension = is_vertex_extension(small, large)
    c_small, c_large = coxeter_polynomial(small), coxeter_polynomial(large)
    cox = interlace_check(c_small, c_large)
    if args.json:
        print(json.dumps({
            "vertex_extension": extension,
            "coxeter_interlacing": cox,
            "alexander_interlacing": cox,
        }))
    else:
        print(f"vertex extension: {_yn(extension)}")
        print(f"coxeter interlacing: {_yn(cox)}")
        print(f"alexander interlacing: {_yn(cox)}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    summary = verify_theorems(args.nmax, extension_trials=args.trials,
                              seed=args.seed, dedup=args.dedup)
    if args.json:
        print(json.dumps({
            "n_max": summary.n_max,
            "extension_trials": summary.extension_trials,
            "seed": summary.seed,
            "dedup": summary.dedup,
            "graphs_examined": summary.graphs_examined,
            "counters": {name: {"pass": p, "fail": f}
                         for name, p, f in summary.counters},
            "counterexample": summary.counterexample,
            "ok": summary.ok,
        }))
    else:
        print(summary.render_text())
    print(f"wall time: {summary.wall_time_seconds:.2f}s", file=sys.stderr)
    return EXIT_OK if summary.ok else EXIT_VIOLATION


def cmd_min_search(args: argparse.Namespace) -> int:
    result = min_dilatation_search(args.nmax, eps=args.epsilon, dedup=args.dedup)
    if args.json:
        print(json.dumps({
            "n_max": result.n_max,
            "enclosure": _interval_json(result.enclosure),
            "trees_examined": result.trees_examined,
            "trees_pruned": result.trees_pruned,
            "graph": graph_to_text(result.graph),
        }))
    else:
        print(result.render_text())
    print(f"wall time: {result.wall_time_seconds:.2f}s", file=sys.stderr)
    return EXIT_OK


def cmd_example(args: argparse.Namespace) -> int:
    try:
        text = fixture_text(args.name)
    except KeyError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coxlinks",
        description="Exact spectral certification for mixed-sign Coxeter graphs.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    pa = sub.add_parser("analyze", help="certify one graph and print the report")
    pa.add_argument("graph", help=_GRAPH_ARG_HELP)
    pa.add_argument("--classical", action="store_true",
                    help="accept non-alternating signs and print the reduced report")
    pa.add_argument("--json", action="store_true", help="machine-readable output")
    pa.add_argument("--epsilon", type=_fraction_arg, default=DEFAULT_EPSILON,
                    metavar="Q", help="enclosure width, a positive rational")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("compare",
                        help="vertex-extension and interlacing report for two graphs")
    pc.add_argument("small", help=_GRAPH_ARG_HELP)
    pc.add_argument("large", help=_GRAPH_ARG_HELP)
    pc.add_argument("--json", action="store_true", help="machine-readable output")
    pc.set_defaults(func=cmd_compare)

    pv = sub.add_parser("verify", help="run the theorem sweep over alternating trees")
    pv.add_argument("--nmax", type=int, default=6, help="largest tree size (>= 2)")
    pv.add_argument("--seed", type=int, default=0, help="seed for the randomized pairs")
    pv.add_argument("--trials", type=int, default=50,
                    help="extension/inclusion trials per size")
    pv.add_argument("--dedup", action="store_true",
                    help="check one tree per isomorphism class")
    pv.add_argument("--json", action="store_true", help="machine-readable output")
    pv.set_defaults(func=cmd_verify)

    pm = sub.add_parser("min-search",
                        help="minimum spectral radius over alternating trees")
    pm.add_argument("--nmax", type=int, default=6, help="largest tree size (>= 2)")
    pm.add_argument("--dedup", action="store_true",
                    help="search one tree per isomorphism class")
    pm.add_argument("--json", action="store_true", help="machine-readable output")
    pm.add_argument("--epsilon", type=_fraction_arg, default=DEFAULT_EPSILON,
                    metavar="Q", help="enclosure width, a positive rational")
    pm.set_defaults(func=cmd_min_search)

    pe = sub.add_parser("example", help="print a built-in example graph")
    pe.add_argument("name", help="one of: " + ", ".join(fixture_names()))
    pe.set_defaults(func=cmd_example)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONTRACT
    except CertificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except RuntimeError as e:  # RecursionError included
        detail = str(e).partition("\n")[0] or type(e).__name__
        print(f"error: internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
