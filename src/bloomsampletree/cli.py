"""Command line interface: plan, build, sample, reconstruct, chi2, bench.

Every command is deterministic under a fixed --seed (the default is a
fixed constant, not entropy), prints line-oriented plain text, and exits
nonzero with a one-line diagnostic on malformed input.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from .bloom import BloomFilter, build_filter, check_query_namespace
from .bst import (BloomSampleTree, OpCounters, plan_from_accuracy, plan_with_m,
                  DEFAULT_COST_RATIO, DEFAULT_THRESHOLD)
from .estimate import fp_probability, population_estimate
from .hashing import FAMILY_NAMES, make_family
from . import baselines
from .evalkit import (
    REJECT_AT,
    SweepConfig,
    calibrate_cost_ratio,
    chi_squared_uniformity,
    run_sweep,
    write_csv,
)

DEFAULT_SEED = 20260823


def _make_plan(args):
    if args.force_m is not None:
        plan = plan_with_m(args.force_m, args.namespace_size, args.k, args.cost_ratio)
    elif args.accuracy >= 1.0:
        raise SystemExit("error: accuracy 1.0 implies an unbounded filter; "
                         "use --force-m to pick m explicitly")
    else:
        plan = plan_from_accuracy(args.accuracy, args.n_ref, args.namespace_size,
                                  args.k, args.cost_ratio)
    if args.calibrate:
        # m does not depend on the cost ratio, so time the m just planned
        ratio = calibrate_cost_ratio(plan.m, plan.k, rng=np.random.default_rng(args.seed))
        plan = plan_with_m(plan.m, plan.namespace_size, plan.k, ratio, plan.accuracy_target)
    return plan


def _add_plan_args(p):
    p.add_argument("--accuracy", type=float, default=0.9)
    p.add_argument("--n-ref", type=int, default=1000, dest="n_ref")
    p.add_argument("-M", "--namespace-size", type=int, required=True,
                   dest="namespace_size")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--cost-ratio", type=float, default=DEFAULT_COST_RATIO, dest="cost_ratio")
    p.add_argument("--calibrate", action="store_true",
                   help="measure the intersection/membership cost ratio at the planned m")
    p.add_argument("--force-m", type=int, default=None, dest="force_m",
                   help="skip the accuracy formula and use this m")


def cmd_plan(args) -> int:
    plan = _make_plan(args)
    fp = fp_probability(plan.m, plan.k, args.n_ref)
    print(f"m {plan.m}")
    print(f"k {plan.k}")
    print(f"depth {plan.depth}")
    print(f"leaf_size {plan.leaf_size}")
    print(f"cost_ratio {plan.cost_ratio}")
    print(f"padded_namespace {plan.padded_size}")
    print(f"predicted_fp {fp:.6g}")
    print(f"nodes {plan.full_node_count}")
    print(f"memory_bits {plan.memory_bits}")
    print(f"memory_mb {plan.memory_bits / 8 / 1e6:.3f}")
    return 0


def _read_occupied(path) -> list:
    values = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                values.append(int(line))
    return values


def cmd_build(args) -> int:
    plan = _make_plan(args)
    family = make_family(FAMILY_NAMES[args.family], plan.k, plan.m, seed=args.seed)
    if args.pruned is not None:
        tree = BloomSampleTree.build_pruned(plan, family, _read_occupied(args.pruned))
    else:
        tree = BloomSampleTree.build_full(plan, family)
    payload = tree.to_bytes()
    with open(args.out, "wb") as fh:
        fh.write(payload)
    print(f"nodes {tree.node_count}")
    print(f"bytes {len(payload)}")
    return 0


def _load_tree(args) -> BloomSampleTree:
    tree = BloomSampleTree.load(args.tree)
    tree.verify()
    return tree


def _load_query(args, tree: BloomSampleTree) -> tuple[BloomFilter, Optional[list]]:
    """The query filter, and the elements of ``--set`` (None for ``--query``)."""
    if args.set is not None:
        elements = [int(v) for v in args.set.split(",") if v.strip()]
        # inline sets use the tree's own family so hash compatibility holds
        return build_filter(tree.family, tree.plan.namespace_size, elements), elements
    if args.query is None:
        raise SystemExit("error: provide --query FILE or --set ELEMENTS")
    query = BloomFilter.load(args.query)
    check_query_namespace(query, tree.plan.namespace_size)
    return query, None


def _add_query_args(p):
    p.add_argument("--tree", required=True)
    p.add_argument("--query", default=None, help="query Bloom filter file")
    p.add_argument("--set", default=None, help="inline query set, e.g. 4,6")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)


def _print_counters(counters):
    print(f"# intersections {counters.intersections} "
          f"membership {counters.membership_queries} "
          f"nodes {counters.nodes_visited} "
          f"leaves {counters.leaves_scanned}")


def cmd_sample(args) -> int:
    tree = _load_tree(args)
    query, _ = _load_query(args, tree)
    rng = np.random.default_rng(args.seed)
    outcomes = tree.sample_many(query, args.r, args.with_replacement,
                                args.threshold, rng)
    totals = OpCounters()
    for out in outcomes:
        print("NULL" if out.element is None else out.element)
        totals.merge(out.counters)
    _print_counters(totals)
    return 0


def cmd_reconstruct(args) -> int:
    tree = _load_tree(args)
    query, _ = _load_query(args, tree)
    _, reconstruct = baselines.ALGORITHMS[args.algo]
    elements, counters = reconstruct(tree, query, tree.plan.namespace_size, args.threshold)
    for x in elements:
        print(int(x))
    _print_counters(counters)
    return 0


def cmd_chi2(args) -> int:
    tree = _load_tree(args)
    query, elements = _load_query(args, tree)
    positives, _ = baselines.da_reconstruct(tree.plan.namespace_size, query)
    if positives.size < 2:
        raise SystemExit("error: need at least two positive elements for chi-squared")
    if args.T is not None:
        T = args.T
    else:
        if elements is not None:
            n = len(set(elements))
        elif query.popcount() == query.m:
            raise ValueError("the query filter is saturated, so its population "
                             "cannot be estimated; give the rounds with -T")
        else:
            n = max(2, round(population_estimate(query)))
        T = 130 * n
    rng = np.random.default_rng(args.seed)
    index = {int(x): i for i, x in enumerate(positives)}
    counts = np.zeros(positives.size, dtype=np.int64)
    # with replacement, one batch consumes the rng exactly as T sample calls
    for out in tree.sample_many(query, T, True, args.threshold, rng):
        if out.element is not None and out.element in index:
            counts[index[out.element]] += 1
    report = chi_squared_uniformity(counts)
    print(f"T {T}")
    print(f"q {report.q_statistic:.6g}")
    print(f"df {report.degrees_of_freedom}")
    print(f"p_value {report.p_value:.6g}")
    print(f"rejected_at_{REJECT_AT} {report.rejected}")
    return 0


def cmd_bench(args) -> int:
    with open(args.config) as fh:
        config = SweepConfig.parse(fh.read())
    records = run_sweep(config)
    write_csv(records, args.out)
    print(f"cells {len(records)}")
    print(f"csv {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bloomsampletree",
        description="Sample from and reconstruct integer sets stored in Bloom filters.")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="single source of randomness for reproducible runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="derive tree parameters from an accuracy target")
    _add_plan_args(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("build", help="build a tree and write it to a file")
    _add_plan_args(p)
    p.add_argument("--family", choices=sorted(FAMILY_NAMES), default="simple")
    p.add_argument("--pruned", default=None,
                   help="occupied-elements file (one integer per line) for a pruned build")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("sample", help="draw samples from a query filter via the tree")
    _add_query_args(p)
    p.add_argument("-r", type=int, default=1)
    p.add_argument("--without-replacement", dest="with_replacement",
                   action="store_false")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("reconstruct", help="recover the full positive set")
    _add_query_args(p)
    p.add_argument("--algo", choices=sorted(baselines.ALGORITHMS), default="bst")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("chi2", help="chi-squared uniformity report over tree samples")
    _add_query_args(p)
    p.add_argument("-T", type=int, default=None, help="sampling rounds (default 130 n)")
    p.set_defaults(func=cmd_chi2)

    p = sub.add_parser("bench", help="run a benchmark sweep config to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
