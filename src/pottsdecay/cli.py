"""Command-line interface.

One executable, one subcommand per capability. Results go to stdout as a
single JSON document (except `gen`, which writes the instance format, and
`sample`, which writes one configuration per line before a JSON footer);
logs go to stderr. Exit codes: 0 ok, 2 usage or parse error, 3 infeasible,
4 budget exceeded, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import traceback

from .blocks import verify_locally_sparse
from .counting import estimate_partition
from .decay import RecursionLimits, default_depth, marginal_vector
from .errors import BudgetError, InfeasibleError, ParseError
from .exact import exact_marginal_vector, exact_partition
from .graph import generate, load_graph, serialize_graph
from .model import Instance, PottsParams
from .randstats import expected_contraction, verify_gnp_properties
from .sampling import sample_batch
from .saw import verify_contraction

log = logging.getLogger("pottsdecay")


def _fmt(value):
    """Round floats to 12 significant digits; integral floats become ints."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        rounded = float(f"{value:.12g}")
        if rounded.is_integer() and abs(rounded) < 2**53:
            return int(rounded)
        return rounded
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return _fmt(value.item())
    return value


def _emit(report):
    print(json.dumps(_fmt(report), indent=2))


def _params(args):
    return PottsParams(args.q, args.beta)


def _load_instance(args):
    try:
        with open(args.instance, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read instance file: {exc}") from None
    graph, pins = load_graph(text)
    return Instance(graph, _params(args), pins)


def _depth_for(args, n):
    if getattr(args, "eps", None) is not None:
        if not 0 < args.eps < 1:
            raise ParseError("--eps must be in (0, 1)")
        return max(1, math.ceil((math.log(max(n, 2)) + math.log(1 / args.eps)) * 3))
    if args.depth is not None:
        return args.depth
    coeff = args.depth_coeff if args.depth_coeff is not None else 3.0
    return default_depth(n, coeff)


def _limits(args):
    limits = RecursionLimits()
    for name in ("block_budget", "config_budget", "max_calls"):
        value = getattr(args, name, None)
        if value is not None:
            if value < 1:
                flag = "--" + name.replace("_", "-")
                raise ParseError(f"{flag} must be >= 1, got {value}")
            setattr(limits, name, value)
    return limits


def cmd_gen(args):
    kwargs = {}
    for name in ("n", "k", "d", "seed"):
        val = getattr(args, name)
        if val is not None:
            kwargs[name] = val
    graph = generate(args.family, **kwargs)
    sys.stdout.write(serialize_graph(graph))
    return 0


def cmd_exact(args):
    instance = _load_instance(args)
    z = exact_partition(instance, budget=args.budget)
    report = {
        "q": instance.params.q,
        "beta": float(instance.params.beta),
        "n": instance.graph.n,
        "edges": instance.graph.m,
        "z": z,
        "log_z": math.log(z) if z > 0 else None,
    }
    marginals = None
    if args.marginals:
        marginals = []
        for v in instance.unpinned():
            vec = exact_marginal_vector(instance, v, budget=args.budget)
            marginals.append({"vertex": v, "p": vec})
        report["marginals"] = marginals
    if args.tsv:
        out = [f"z\t{_fmt(z)}"]
        if marginals:
            for row in marginals:
                for x, p in enumerate(row["p"], start=1):
                    out.append(f"marginal\t{row['vertex']}\t{x}\t{_fmt(p)}")
        print("\n".join(out))
    else:
        _emit(report)
    return 0


def cmd_marginal(args):
    instance = _load_instance(args)
    depth = _depth_for(args, instance.graph.n)
    vec, diag = marginal_vector(instance, args.vertex, depth, limits=_limits(args))
    _emit(
        {
            "vertex": args.vertex,
            "depth": depth,
            "marginals": vec,
            "diagnostics": diag.as_dict(),
        }
    )
    return 0


def cmd_partition(args):
    instance = _load_instance(args)
    depth = _depth_for(args, instance.graph.n)
    est = estimate_partition(
        instance.graph,
        instance.params,
        depth,
        pinned=instance.pinned,
        order_seed=args.order_seed,
        limits=_limits(args),
    )
    _emit(
        {
            "log_z": est.log_z,
            "z": est.z,
            "depth": est.depth_used,
            "anchor_weight_log": est.anchor_log_weight,
            "exact": est.exact,
            "diagnostics": est.diagnostics.as_dict(),
        }
    )
    return 0


def cmd_sample(args):
    instance = _load_instance(args)
    depth = _depth_for(args, instance.graph.n)
    batch = sample_batch(
        instance,
        depth,
        args.samples,
        args.seed,
        threads=args.threads,
        limits=_limits(args),
    )
    n = instance.graph.n
    for cfg in batch.configurations:
        print(" ".join(str(cfg[v]) for v in range(n)))
    mean_logp = math.fsum(batch.log_proposals) / len(batch.log_proposals)
    _emit(
        {
            "samples": len(batch),
            "seed": batch.seed,
            "depth": batch.depth,
            "n": n,
            "mean_log_proposal": mean_logp,
            "conditionals_evaluated": batch.conditionals_evaluated,
            "termination_events": batch.termination_events,
        }
    )
    return 0


def cmd_verify_contraction(args):
    instance = _load_instance(args)
    report = verify_contraction(
        instance.graph, instance.params, args.lmax, extension_budget=args.budget
    )
    _emit(report)
    return 0


def cmd_verify_sparse(args):
    instance = _load_instance(args)
    report = verify_locally_sparse(
        instance.graph,
        instance.params,
        args.lmax,
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
    )
    _emit(report)
    return 0


def cmd_verify_gnp(args):
    report = verify_gnp_properties(
        args.n,
        args.d,
        args.q,
        beta=args.beta,
        seed=args.seed,
        l_max=args.lmax,
        trials=args.trials,
    )
    _emit(report)
    return 0


def cmd_expected_contraction(args):
    value = expected_contraction(args.n, args.d, args.q, beta=args.beta)
    _emit(
        {
            "n": args.n,
            "degree": args.d,
            "q": args.q,
            "beta": float(PottsParams(args.q, args.beta).beta),
            "value": value,
            "one_over_degree": 1.0 / args.d,
            "below": bool(value < 1.0 / args.d),
        }
    )
    return 0


def _add_model_flags(p):
    p.add_argument("--q", type=int, required=True, help="number of colors")
    p.add_argument(
        "--beta",
        default="0",
        help="activity in [0,1) as a decimal string (exactly parsed)",
    )


def _add_instance_flag(p):
    p.add_argument(
        "--instance",
        "--instance-file",
        dest="instance",
        required=True,
        help="instance file path",
    )


def _add_depth_flags(p, with_eps=False):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--depth", type=int, help="absolute recursion depth L")
    g.add_argument(
        "--depth-coeff",
        type=float,
        help="depth coefficient c for L = ceil(c ln n) (default 3)",
    )
    if with_eps:
        g.add_argument(
            "--eps",
            type=float,
            help="target accuracy; sets L = ceil((ln n + ln 1/eps) * 3) (heuristic)",
        )


def _add_limit_flags(p):
    p.add_argument("--block-budget", type=int, help="max block size (default 64)")
    p.add_argument(
        "--config-budget", type=int, help="max feasible configs per block (default 1e6)"
    )
    p.add_argument(
        "--max-calls",
        type=int,
        help="abort once recursive_calls exceeds this (a memo hit counts its whole subtree)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pottsdecay",
        description="Correlation-decay marginals, partition functions, and "
        "samplers for the anti-ferromagnetic Potts model on sparse graphs.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker cap for parallel batches (results are thread-count independent)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated graph as an instance file")
    p.add_argument("--family", required=True, help="path|cycle|complete|star|caterpillar|gnp")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("exact", help="brute-force partition function and marginals")
    _add_model_flags(p)
    _add_instance_flag(p)
    p.add_argument("--budget", type=int, default=10**7)
    p.add_argument("--marginals", action="store_true", help="include per-vertex table")
    p.add_argument("--tsv", action="store_true", help="emit TSV instead of JSON")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("marginal", help="estimated per-color marginals of one vertex")
    _add_model_flags(p)
    _add_instance_flag(p)
    p.add_argument("--vertex", type=int, required=True)
    _add_depth_flags(p)
    _add_limit_flags(p)
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("partition", help="estimated partition function")
    _add_model_flags(p)
    _add_instance_flag(p)
    _add_depth_flags(p, with_eps=True)
    _add_limit_flags(p)
    p.add_argument("--order-seed", type=int, help="randomize the telescoping order")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("sample", help="draw configurations from the estimated Gibbs law")
    _add_model_flags(p)
    _add_instance_flag(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_depth_flags(p)
    _add_limit_flags(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify-contraction", help="delta-weighted SAW decay scan")
    _add_model_flags(p)
    _add_instance_flag(p)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**8)
    p.set_defaults(func=cmd_verify_contraction)

    p = sub.add_parser("verify-sparse", help="block-closure inflation scan")
    _add_model_flags(p)
    _add_instance_flag(p)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_sparse)

    p = sub.add_parser("verify-gnp", help="contraction/sparsity/colorability on gnp")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    _add_model_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lmax", type=int, default=6)
    p.add_argument("--trials", type=int, default=500)
    p.set_defaults(func=cmd_verify_gnp)

    p = sub.add_parser("expected-contraction", help="exact E[delta(Bin(n, d/n))]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_expected_contraction)

    return parser


def run(argv=None):
    """Parse argv and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        return args.func(args) or 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 5


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
