"""Run one workload of the BloomSampleTree benchmark and print its metrics.

From the root of a checkout of the repository::

    python3 bstbench/run.py --workload sample_uniform --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is a JSON report: run metadata, every metric with
its unit, direction and sample count, every timed operation under its
own name and, when traced, the per-operation layer breakdown.  A traced
run also writes its spans to ``.bench_out/spans-<workload>-seed<seed>.npz``.

The library is imported from ``src/`` of the checkout; without it the
command exits with an error and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if (SRC / "bloomsampletree" / "__init__.py").is_file():
    sys.path.insert(0, str(SRC))


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def settle_allocator() -> None:
    """Allocate and free one 16 MiB block before any work.

    glibc serves blocks of 128 KiB and more with a fresh mmap, whose pages
    fault in on first use, until a freed mmapped block raises that
    threshold to its own size.  Without this, a workload that never frees
    a large block (``sample_uniform``) pays about 9,700 minor faults per
    DA scan, which make it about 60% slower, and one that does
    (``to_bytes`` in ``ingest_blocks``) pays none.  Freeing one large block first gives
    every workload the same allocator state.
    """
    import numpy as np

    np.empty(16 << 20, dtype=np.uint8)


def run(workload: str, seed: int, seconds: float, trace: bool, config=None):
    """Run one workload; returns (report, result line, tracer or None)."""
    import numpy as np

    import metrics
    from tracer import Tracer
    from workloads import WORKLOADS, Config

    settle_allocator()
    cfg = config or Config()
    tracer = Tracer() if trace else None
    result = WORKLOADS[workload](cfg, seed, seconds, tracer)
    rec = result.rec
    e2e = metrics.end_to_end(workload, result)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "plan": {"M": result.plan.namespace_size, "m": result.plan.m,
                 "k": result.plan.k, "depth": result.plan.depth,
                 "leaf_size": result.plan.leaf_size,
                 "nodes": result.plan.full_node_count},
        "units": result.units,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "fail_frac": rec.failed / rec.attempted,
        "failures": rec.messages,
        "samples": rec.sampled,
        "sample_none": rec.sample_none,
        "host_ref_us": metrics.pct(rec.host_ref, 50) / 1e3,
        "host_small_ref_us": metrics.pct(rec.host_small_ref, 50) / 1e3,
        "end_to_end": e2e,
        "operations": metrics.named_timings(rec),
    }
    if tracer is not None:
        layers = metrics.layer_metrics(rec, tracer, result.plan)
        report["per_layer"] = layers
        report["trace_breakdown"] = metrics.trace_breakdown(tracer)
        chosen = layers
    else:
        chosen = e2e
    line = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in chosen.items()},
    }
    return report, line, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import bloomsampletree
    except ImportError as exc:
        print(f"run.py: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(bloomsampletree.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: bloomsampletree was imported from outside {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    report, line, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if tracer is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
