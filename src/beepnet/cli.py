"""Command-line front end.

Exit codes: 0 on success, 1 when a run or verification uncovered an
invariant violation, 2 for bad parameters or unreadable files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .graphs import ParameterError, generate_random_graph, save_graph
from .harness import (
    PROTOCOLS,
    ExperimentConfig,
    load_report,
    report_bounds,
    run_experiment,
)
from .multihop import build_lower_bound_graph, lower_bound_layers, save_layer_annotations
from .protocols.gathering import LayoutError
from .selectors import (
    DEFAULT_SEED,
    build_avoiding_selector,
    build_strong_selector,
    load_family,
    save_family,
    verify_family,
)


def _cmd_gen_graph(args) -> int:
    graph = generate_random_graph(args.n, args.delta, args.seed, args.c)
    save_graph(graph, args.out)
    print(f"wrote {args.out}: n={graph.n} edges={len(graph.edges)} delta={graph.delta}")
    return 0


def _cmd_gen_adversarial(args) -> int:
    graph = build_lower_bound_graph(args.delta, args.h)
    save_graph(graph, args.out)
    sidecar = args.out + ".layers"
    save_layer_annotations(lower_bound_layers(args.delta, args.h), sidecar)
    print(
        f"wrote {args.out} and {sidecar}: n={graph.n} edges={len(graph.edges)} "
        f"delta={graph.delta}"
    )
    return 0


def _cmd_build_selector(args) -> int:
    if args.l is None:
        fam = build_strong_selector(args.n, args.k, args.seed)
    else:
        fam = build_avoiding_selector(args.n, args.k, args.l, args.seed)
    save_family(fam, args.out)
    print(f"wrote {args.out}: {fam.kind} n={fam.n} k={fam.k}"
          + (f" l={fam.l}" if fam.l is not None else "")
          + f" length={len(fam)} verified={fam.verified}")
    return 0


def _cmd_verify_selector(args) -> int:
    fam = load_family(args.family)
    tier = verify_family(fam)
    tag = f"{fam.kind} n={fam.n} k={fam.k}" + (f" l={fam.l}" if fam.l is not None else "")
    print(f"{args.family}: {tag} length={len(fam)} -> {tier}")
    return 1 if tier == "failed" else 0


def _cmd_run(args) -> int:
    try:
        seeds = tuple(int(tok) for tok in args.seeds.split(","))
    except ValueError as exc:
        raise ParameterError(f"--seeds: {exc}") from exc
    config = ExperimentConfig(
        protocol=args.protocol,
        graph_file=args.graph,
        n=args.n if args.graph is None else None,
        delta=args.delta if args.graph is None else None,
        delta_hat=args.delta if args.graph is not None else None,
        seeds=seeds,
        B=args.B,
        h=args.h,
        c=args.c,
        max_rounds=args.max_rounds,
        out=args.out,
    )
    report = run_experiment(config)
    if args.out is None:
        sys.stdout.write(report.render())
    else:
        good = sum(m.ok for m in report.metrics)
        print(f"wrote {args.out}: {good}/{len(report.metrics)} seeds ok")
    if not report.ok:
        for m in report.metrics:
            for failure in m.failures:
                print(f"seed {m.seed}: {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    metrics = []
    for path in args.files:
        metrics.extend(load_report(path))
    if not metrics:
        raise ParameterError("no records found in the given files")
    _, text = report_bounds(metrics)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beepnet",
        description="Simulate beeping-network protocols and collect round metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="generate a seeded random connected graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True, help="maximum degree")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--c", type=int, default=1, help="ID space exponent")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser(
        "gen-adversarial",
        help="generate the layered worst-case topology plus a .layers sidecar",
    )
    p.add_argument("--delta", type=int, required=True, help="even degree bound >= 4")
    p.add_argument("--h", type=int, required=True, help="hop depth >= 2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_adversarial)

    p = sub.add_parser("build-selector", help="construct and save a selector family")
    p.add_argument("--n", type=int, required=True, help="universe size")
    p.add_argument("--k", type=int, required=True, help="subset size bound")
    p.add_argument("--l", type=int, default=None, help="avoidance threshold (omit for strong)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_selector)

    p = sub.add_parser(
        "verify-selector",
        help="re-verify a family file: every subset where the count permits, "
             "else a stratified sample; prints the tier",
    )
    p.add_argument("family", help="family file written by build-selector")
    p.set_defaults(func=_cmd_verify_selector)

    p = sub.add_parser("run", help="run a protocol over seeds and report metrics")
    p.add_argument("protocol", choices=PROTOCOLS)
    p.add_argument("--graph", default=None, help="graph file (omit to generate per seed)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument(
        "--delta", type=int, default=None,
        help="max degree for generated graphs, or the degree bound for a graph file",
    )
    p.add_argument("--seeds", default=str(DEFAULT_SEED), help="comma-separated seed list")
    p.add_argument("--B", type=int, default=1, help="message bits")
    p.add_argument("--h", type=int, default=1, help="hop radius")
    p.add_argument("--c", type=int, default=1, help="ID space exponent")
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--out", default=None, help="report file (default: stdout)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="bound-ratio table over saved metric records")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, LayoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
