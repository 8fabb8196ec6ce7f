"""Metric definitions and their computation from a finished run.

Every workload reports the same end-to-end metrics.  The three timing
roles ``op``, ``op_tail`` and ``op2`` name each workload's own
operations (see ``ROLES``); the report line also prints every timed
operation under its own name.
"""
from __future__ import annotations

import numpy as np

from tracer import LAYER_OF, LAYERS

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_p50_us", "us", "lower"),
    ("op_tail_us", "us", "lower"),
    ("op2_p50_us", "us", "lower"),
    ("da_reconstruct_p50_ms", "ms", "lower"),
    ("sample_accuracy", "ratio", "higher"),
    ("sample_spread", "ratio", "higher"),
    ("recall_t05", "ratio", "higher"),
    ("tree_bytes", "bytes", "lower"),
]

# workload -> (main operation, second operation)
ROLES = {
    "sample_uniform": ("sample", "sample_many_per_sample"),
    "reconstruct_uniform": ("reconstruct_t0", "reconstruct_t05"),
    "ingest_blocks": ("insert", "from_bytes"),
}
# The tail is p95 on every workload: it keeps at least ten samples beyond
# it on the slowest loop (reconstruct_t0), and on a host with slow phases
# it repeats far better than p99.
TAIL = 95

# report-line names of single operations: name -> (operation, percentile, unit)
NAMED_TIMINGS = {
    "sample_p50_us": ("sample", 50, "us"),
    "sample_p95_us": ("sample", 95, "us"),
    "sample_p99_us": ("sample", 99, "us"),
    "sample_many_p50_us_per_sample": ("sample_many_per_sample", 50, "us"),
    "reconstruct_t0_p50_ms": ("reconstruct_t0", 50, "ms"),
    "reconstruct_t0_p95_ms": ("reconstruct_t0", 95, "ms"),
    "reconstruct_t05_p50_ms": ("reconstruct_t05", 50, "ms"),
    "da_reconstruct_p50_ms": ("da_reconstruct", 50, "ms"),
    "hi_reconstruct_p50_ms": ("hi_reconstruct", 50, "ms"),
    "insert_p50_us": ("insert", 50, "us"),
    "insert_p95_us": ("insert", 95, "us"),
    "insert_p99_us": ("insert", 99, "us"),
    "load_ms": ("from_bytes", 50, "ms"),
    "save_ms": ("to_bytes", 50, "ms"),
}
_SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}

COUNTED_OPS = ("sample", "sample_many", "reconstruct_t0", "reconstruct_t05")
_COUNTS = ("intersections", "membership", "nodes", "leaves")

PER_LAYER = [
    ("hashing.calls", "count", "lower"),
    ("hashing.elements", "count", "lower"),
    ("hashing.self_s", "s", "lower"),
    ("hashing.ns_per_element", "ns", "lower"),
    ("bloom.contains.probes", "count", "lower"),
    ("bloom.contains.self_ns_per_probe", "ns", "lower"),
    ("bloom.insert.elements", "count", "lower"),
    ("bloom.insert.self_s", "s", "lower"),
    ("bloom.union.calls", "count", "lower"),
    ("bloom.serialize.bytes", "bytes", "lower"),
    ("bloom.serialize.self_s", "s", "lower"),
    ("estimate.calls", "count", "lower"),
    ("estimate.self_us_per_call", "us", "lower"),
    ("estimate.self_s", "s", "lower"),
    ("bst.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("baselines.da.self_s", "s", "lower"),
    ("baselines.hi.self_s", "s", "lower"),
    ("baselines.hi.hashed_per_reported_probe", "ratio", "lower"),
    *[(f"bst.{op}.{c}_per_op", "count", "lower") for op in COUNTED_OPS for c in _COUNTS],
    ("bst.positives_per_probe", "ratio", "higher"),
    ("bst.backtrack_nodes_per_sample", "count", "lower"),
    ("bst.leaf_cache_hit_ratio", "ratio", "higher"),
    ("bst.none_per_sample", "ratio", "lower"),
    ("evalkit.gen_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("host.ref_us", "us", "lower"),
    ("host.small_ref_us", "us", "lower"),
    ("fail_frac", "ratio", "lower"),
]
UNITS = {name: (unit, better) for name, unit, better in END_TO_END + PER_LAYER}
UNITS.update({name: (unit, "lower") for name, (_, _, unit) in NAMED_TIMINGS.items()})
UNITS["sample_many_per_s"] = ("1/s", "higher")


def pct(values, q: float) -> float:
    """Percentile q of values; 0 when no operation of the kind succeeded."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _metric(name: str, value: float, count: int | None = None) -> dict:
    unit, better = UNITS[name]
    out = {"value": value, "unit": unit, "better": better}
    if count is not None:
        out["count"] = count
    return out


def end_to_end(workload: str, result) -> dict:
    """The gated metrics: name -> {value, unit, better, count}."""
    rec, q = result.rec, result.quality
    op, op2 = ROLES[workload]
    lat = rec.lat
    return {
        "setup_s": _metric("setup_s", pct(lat["setup"], 50) / 1e9, len(lat["setup"])),
        "op_p50_us": _metric("op_p50_us", pct(lat[op], 50) / 1e3, len(lat[op])),
        "op_tail_us": _metric("op_tail_us", pct(lat[op], TAIL) / 1e3, len(lat[op])),
        "op2_p50_us": _metric("op2_p50_us", pct(lat[op2], 50) / 1e3, len(lat[op2])),
        "da_reconstruct_p50_ms": _metric("da_reconstruct_p50_ms",
                                         pct(lat["da_reconstruct"], 50) / 1e6,
                                         len(lat["da_reconstruct"])),
        "sample_accuracy": _metric("sample_accuracy", q.sample_accuracy),
        "sample_spread": _metric("sample_spread", q.sample_spread),
        "recall_t05": _metric("recall_t05", q.recall_t05),
        "tree_bytes": _metric("tree_bytes", result.tree_bytes),
    }


def named_timings(rec) -> dict:
    """Every timed operation of the run under its own name (untraced units)."""
    out = {}
    for name, (op, q, unit) in NAMED_TIMINGS.items():
        if rec.lat.get(op):
            out[name] = _metric(name, pct(rec.lat[op], q) / _SCALE[unit], len(rec.lat[op]))
    if rec.lat.get("sample_many_per_sample"):
        per_s = 1e9 / pct(rec.lat["sample_many_per_sample"], 50)
        out["sample_many_per_s"] = _metric("sample_many_per_s", per_s,
                                           len(rec.lat["sample_many_per_sample"]))
    return out


def _counter_means(rec, op: str) -> np.ndarray:
    rows = rec.counters.get(op)
    return np.mean(np.asarray(rows, dtype=np.float64), axis=0) if rows else np.zeros(5)


def counter_metrics(rec, plan) -> dict:
    """OpCounters-derived counts and waste ratios of the loop's first units."""
    out = {}
    for op in COUNTED_OPS:
        means = _counter_means(rec, op)
        for c, v in zip(_COUNTS, means):
            out[f"bst.{op}.{c}_per_op"] = float(v)
    t05 = np.asarray(rec.counters.get("reconstruct_t05") or np.zeros((0, 5)))
    probes = t05[:, 1].sum()
    out["bst.positives_per_probe"] = float(t05[:, 4].sum() / probes) if probes else 0.0
    nodes = out["bst.sample.nodes_per_op"]
    out["bst.backtrack_nodes_per_sample"] = nodes - (plan.depth + 1) if nodes else 0.0
    out["bst.leaf_cache_hit_ratio"] = float(_counter_means(rec, "sample_many")[4])
    return out


def overhead_frac(rec) -> float:
    """Traced time of the traced units' operations over their untraced time, minus 1."""
    traced = untraced = 0.0
    for op, values in rec.traced_lat.items():
        if op.endswith("_per_sample") or not rec.lat.get(op):
            continue
        traced += float(np.sum(values))
        untraced += len(values) * float(np.mean(rec.lat[op]))
    return traced / untraced - 1.0 if untraced else 0.0


def trace_breakdown(tracer) -> dict:
    """Per operation: calls, traced total and the self time of each layer.

    The self times of one operation's spans add up to its traced total,
    so ``sum(self_s.values()) == total_s`` up to float rounding.
    """
    a = tracer.arrays()
    if a["name"].size == 0:
        return {}
    self_ns = tracer.self_times()
    layer_idx = np.array([LAYERS.index(layer) for layer in tracer.layer_of_names()])
    span_layer = layer_idx[a["name"]]
    roots = a["root"]
    is_root = roots == np.arange(roots.size)
    dur = a["end_ns"] - a["start_ns"]
    out = {}
    for rid in np.unique(a["name"][is_root]):
        op_roots = is_root & (a["name"] == rid)
        in_op = op_roots[roots]
        per_layer = np.bincount(span_layer[in_op], weights=self_ns[in_op],
                                minlength=len(LAYERS))
        out[tracer.names[rid]] = {
            "calls": int(op_roots.sum()),
            "total_s": int(dur[op_roots].sum()) / 1e9,
            "self_s": {LAYERS[i]: per_layer[i] / 1e9 for i in range(len(LAYERS))
                       if per_layer[i]},
        }
    return out


def layer_metrics(rec, tracer, plan) -> dict:
    """Every per-layer metric; layers idle in this workload read 0."""
    a = tracer.arrays()
    names, self_ns = tracer.names, tracer.self_times()
    k = len(names)
    calls = np.bincount(a["name"], minlength=k)
    selfs = np.bincount(a["name"], weights=self_ns, minlength=k)
    counts = np.bincount(a["name"], weights=a["count"], minlength=k)

    def total(arr, *span_names):
        return float(sum(arr[names.index(n)] for n in span_names if n in names))

    def ratio(x, y):
        return x / y if y else 0.0

    hash_elems = total(counts, "hashing.hash_many")
    probes = total(counts, "bloom.contains_many")
    est_calls = total(calls, "estimate.intersection_estimate_counts")
    est_self = total(selfs, "estimate.intersection_estimate_counts")
    bst_names = [n for n in names if LAYER_OF.get(n) == "bst"]
    bench_names = [n for n in names if n not in LAYER_OF]
    hi_hashed = 0.0
    if "hashing.hash_many" in names and "hi_reconstruct" in names:
        under_hi = a["name"][a["root"]] == names.index("hi_reconstruct")
        is_hash = a["name"] == names.index("hashing.hash_many")
        hi_hashed = float(a["count"][under_hi & is_hash].sum())
    out = {
        "hashing.calls": total(calls, "hashing.hash_many"),
        "hashing.elements": hash_elems,
        "hashing.self_s": total(selfs, "hashing.hash_many") / 1e9,
        "hashing.ns_per_element": ratio(total(selfs, "hashing.hash_many"), hash_elems),
        "bloom.contains.probes": probes,
        "bloom.contains.self_ns_per_probe": ratio(total(selfs, "bloom.contains_many"),
                                                  probes),
        "bloom.insert.elements": total(counts, "bloom.insert_many", "bloom.insert"),
        "bloom.insert.self_s": total(selfs, "bloom.insert_many", "bloom.insert") / 1e9,
        "bloom.union.calls": total(calls, "bloom.union"),
        "bloom.serialize.bytes": total(counts, "bloom.to_bytes", "bloom.from_bytes"),
        "bloom.serialize.self_s": total(selfs, "bloom.to_bytes", "bloom.from_bytes") / 1e9,
        "estimate.calls": est_calls,
        "estimate.self_us_per_call": ratio(est_self, est_calls) / 1e3,
        "estimate.self_s": est_self / 1e9,
        "bst.self_s": total(selfs, *bst_names) / 1e9,
        "bench.self_s": total(selfs, *bench_names) / 1e9,
        "baselines.da.self_s": total(selfs, "baselines.da_reconstruct") / 1e9,
        "baselines.hi.self_s": total(selfs, "baselines.hi_reconstruct") / 1e9,
        "baselines.hi.hashed_per_reported_probe": ratio(hi_hashed, rec.hi_reported_traced),
        **counter_metrics(rec, plan),
        "bst.none_per_sample": ratio(rec.sample_none, rec.sampled),
        "evalkit.gen_s": rec.gen_ns / 1e9,
        "trace.overhead_frac": overhead_frac(rec),
        "host.ref_us": pct(rec.host_ref, 50) / 1e3,
        "host.small_ref_us": pct(rec.host_small_ref, 50) / 1e3,
        "fail_frac": ratio(rec.failed, rec.attempted),
    }
    return {name: _metric(name, float(out[name])) for name, _, _ in PER_LAYER}
