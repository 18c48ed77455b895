"""Command-line interface.

Subcommands: dist, closest-fair, consensus, oracle, gen.  All commands are
deterministic: identical inputs and flags produce byte-identical outputs.
Exit codes: 0 success, 2 parse/usage error, 3 size mismatch, 4 infeasible
instance, 5 instance too large for exhaustive enumeration.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (
    FairmergeError,
    InfeasibleFairness,
    NotBalanced,
    ParseError,
    SizeMismatch,
    TooLarge,
    WrongRatio,
)
from .fileio import load_clustering, load_instance, save_clustering, save_instance, save_report
from .generators import gen_3partition_reduction, gen_random
from .oracle import oracle_closest_balanced, oracle_closest_fair, oracle_consensus
from .pipeline import closest_fair, fair_consensus

EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_INFEASIBLE = 4
EXIT_TOO_LARGE = 5


def _parse_ell(text: str) -> float:
    if text.strip().lower() == "inf":
        return math.inf
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"bad exponent {text!r}") from exc
    if math.isnan(value) or value < 1:
        raise ParseError(f"exponent must be >= 1 or 'inf', got {text!r}")
    return int(value) if value.is_integer() else value


def _ell_out(ell: float):
    return "inf" if ell == math.inf else ell


def _cmd_dist(args) -> int:
    instance = load_instance(args.instance)
    a = load_clustering(args.a, instance.n)
    b = load_clustering(args.b, instance.n)
    from .distance import dist_fast

    print(dist_fast(a, b))
    return 0


def _cmd_closest_fair(args) -> int:
    instance = load_instance(args.instance)
    clustering = load_clustering(args.input, instance.n)
    out, report, _ = closest_fair(instance, clustering)
    save_clustering(out, args.out)
    if args.report:
        save_report(
            {
                "regime": report.regime,
                "alpha": report.alpha,
                "beta": report.beta,
                "composed_factor": report.composed_factor,
                "achieved_distance": report.achieved_distance,
                "stage_distances": report.stage_distances,
            },
            args.report,
        )
    return 0


def _cmd_consensus(args) -> int:
    instance = load_instance(args.instance)
    inputs = [load_clustering(path, instance.n) for path in args.inputs]
    ell = _parse_ell(args.l)
    result = fair_consensus(instance, inputs, ell)
    save_clustering(result.clustering, args.out)
    report = {
        "regime": result.regime,
        "factor": result.factor,
        "l": _ell_out(ell),
        "objective": result.objective.value,
        "per_input_distances": list(result.per_input_distances),
        "chosen_index": result.chosen_index,
    }
    if args.verify_oracle:
        ref = oracle_consensus(instance, inputs, ell)
        report["oracle_objective"] = ref.optimum
        report["oracle_ratio"] = (
            result.objective.value / ref.optimum if ref.optimum else None
        )
    if args.report:
        save_report(report, args.report)
    return 0


def _cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    inputs = [load_clustering(path, instance.n) for path in args.inputs]
    if args.mode == "consensus":
        ell = _parse_ell(args.l)
        res = oracle_consensus(instance, inputs, ell)
    else:
        if len(inputs) != 1:
            raise ParseError(f"mode {args.mode} takes exactly one clustering file")
        solver = oracle_closest_fair if args.mode == "fair" else oracle_closest_balanced
        res = solver(instance, inputs[0])
    print(res.optimum)
    if args.out:
        save_clustering(res.argmin, args.out)
    if args.report:
        save_report(
            {
                "mode": args.mode,
                "optimum": res.optimum,
                "partitions_enumerated": res.partitions_enumerated,
            },
            args.report,
        )
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "random":
        if args.seed is None:
            raise ParseError("--seed is required for random generation")
        instance, clustering = gen_random(args.n, args.p, args.q, args.k, args.seed)
        save_instance(instance, args.out_instance)
        save_clustering(clustering, args.out_clustering)
        if args.report:
            save_report(
                {"kind": "random", "n": args.n, "p": args.p, "q": args.q,
                 "k": args.k, "seed": args.seed},
                args.report,
            )
        return 0
    if not args.s:
        raise ParseError("--s is required for reduction generation")
    try:
        elements = [int(tok) for tok in args.s.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"--s must be comma-separated integers, got {args.s!r}") from None
    red = gen_3partition_reduction(elements, args.p, args.q)
    save_instance(red.instance, args.out_instance)
    save_clustering(red.clustering, args.out_clustering)
    if args.report:
        save_report(
            {
                "kind": "reduction",
                "elements": list(red.elements),
                "p": red.p,
                "q": red.q,
                "T": red.t_sum,
                "tau": red.tau,
                "n_points": red.instance.n,
                "oracle_verifiable": red.oracle_verifiable,
                "experimental": red.experimental,
            },
            args.report,
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmerge",
        description="Closest fair clustering and fair consensus over red/blue point sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dist", help="distance between two clusterings")
    d.add_argument("instance")
    d.add_argument("a")
    d.add_argument("b")
    d.set_defaults(func=_cmd_dist)

    cf = sub.add_parser("closest-fair", help="fair clustering close to the input")
    cf.add_argument("instance")
    cf.add_argument("input")
    cf.add_argument("--out", required=True)
    cf.add_argument("--report")
    cf.set_defaults(func=_cmd_closest_fair)

    co = sub.add_parser("consensus", help="fair consensus of several clusterings")
    co.add_argument("instance")
    co.add_argument("inputs", nargs="+")
    co.add_argument("--l", default="1", help="objective exponent, a number >= 1 or 'inf'")
    co.add_argument("--out", required=True)
    co.add_argument("--report")
    co.add_argument("--verify-oracle", action="store_true")
    co.set_defaults(func=_cmd_consensus)

    orc = sub.add_parser("oracle", help="exhaustive optimum for small instances")
    orc.add_argument("instance")
    orc.add_argument("inputs", nargs="+")
    orc.add_argument("--mode", choices=["fair", "balanced", "consensus"], default="fair")
    orc.add_argument("--l", default="1")
    orc.add_argument("--out")
    orc.add_argument("--report")
    orc.set_defaults(func=_cmd_oracle)

    g = sub.add_parser("gen", help="generate instances")
    g.add_argument("--kind", choices=["random", "reduction"], required=True)
    g.add_argument("--n", type=int, default=0)
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--q", type=int, default=1)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--seed", type=int)
    g.add_argument("--s", help="comma-separated 3-partition elements")
    g.add_argument("--out-instance", required=True)
    g.add_argument("--out-clustering", required=True)
    g.add_argument("--report")
    g.set_defaults(func=_cmd_gen)
    return parser


# Exit code of a library error: its first matching row, in order.
_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (SizeMismatch, EXIT_SIZE),
    ((InfeasibleFairness, NotBalanced, WrongRatio), EXIT_INFEASIBLE),
    (TooLarge, EXIT_TOO_LARGE),
    (FairmergeError, EXIT_PARSE),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FairmergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


def run() -> None:
    sys.exit(main())
