"""The three closed-loop workloads, driven through the library's public API.

Each workload runs in one process with one client: it issues the next
operation only after the previous one returned.  Every run has the same
phases:

1. set-up: build the tree once;
2. quality pass: a fixed number of query sets, so the quality metrics are
   exact for a fixed seed whatever the speed of the machine;
3. timed loop: units of work (one query set, or one ingest round) until
   ``seconds`` have passed.  Between units the tree is rebuilt, and on
   the workloads whose units do not run ``da_reconstruct`` one DA scan is
   timed, each at even intervals, so that ``setup_s`` and
   ``da_reconstruct_p50_ms`` are medians over the whole run like every
   other time.

Inputs come from ``numpy.random.default_rng([seed, stream, index])``, so
the same seed gives the same inputs.  Every operation is checked against
an oracle outside its timed region; an operation that raises or fails
its check counts as failed.
"""
from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count
from time import perf_counter, perf_counter_ns

import numpy as np

from bloomsampletree import baselines, bloom, bst, evalkit, hashing

# independent random streams drawn from one seed
_MEMBERS, _QUALITY_RNG, _LOOP_RNG, _LAYOUT = range(4)

FAILED = object()  # returned by Recorder.call when the operation raised

# the plan's constants; with M = 10**6 and n = 1000 they give m = 60,870
ACCURACY = 0.9
K = 3
COST_RATIO = 240.0


@dataclass(frozen=True)
class Config:
    """Sizes of one run; the defaults are the benchmark's."""

    namespace_size: int = 10**6
    n: int = 1000                 # members per query set, and the planner's n
    setup_builds: int = 9         # one before the loop, the rest spread over it
    da_calls: int = 32            # DA scans spread over the loop, where units run none
    sample_calls: int = 200       # single `sample` calls per query set
    sample_many_r: int = 200
    quality_queries: int = 64
    quality_samples: int = 500    # T in the uniform expectation of sample_spread
    counter_prefix: int = 16      # units whose OpCounters feed the bst.* counts
    block: int = 2000             # ids per ingest block
    occupied_blocks: int = 50
    insert_blocks: int = 2        # new blocks inserted per ingest round
    loads_per_round: int = 20


_REF_INPUT = np.arange(1 << 15, dtype=np.uint64)
_REF_ONE = np.array([12345], dtype=np.int64)
_REF_SHIFT, _REF_MIX = np.uint64(29), np.uint64(0xBF58476D1CE4E5B9)
_MAX_MESSAGES = 5   # failure messages kept for the report


def host_ref_ns() -> tuple[int, int]:
    """Best of three timings of two fixed numpy loops that never call the library.

    The first works on one 32K-element array.  The second makes 32 rounds
    of calls on one-element arrays, the shape of the per-call work of
    ``insert`` and ``sample``; the host's slow phases slow it far more.
    """
    vector = small = None
    for _ in range(3):
        x = _REF_INPUT.copy()
        t0 = perf_counter_ns()
        for _ in range(8):
            x ^= x >> _REF_SHIFT
            x *= _REF_MIX
        t1 = perf_counter_ns()
        for _ in range(32):
            h = _REF_ONE.astype(np.uint64) ^ _REF_MIX
            h ^= h >> _REF_SHIFT
            h *= _REF_MIX
            int(h[0])
        t2 = perf_counter_ns()
        vector = t1 - t0 if vector is None else min(vector, t1 - t0)
        small = t2 - t1 if small is None else min(small, t2 - t1)
    return vector, small


class Recorder:
    """Timings, failures and counters of one run.

    Each unit of the loop first times the host reference loops, so a
    reader can tell a slow phase of the host from a regression.  With a
    tracer, units opened with ``trace=True`` run with the tracer installed
    and their timings go to ``traced_lat``; the loops trace every other
    unit, so one run gives both the per-layer spans and the tracing
    overhead.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.traced = False
        self.lat: dict[str, list] = defaultdict(list)
        self.traced_lat: dict[str, list] = defaultdict(list)
        self.counters: dict[str, list] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.host_ref: list[int] = []
        self.host_small_ref: list[int] = []
        self.gen_ns = 0
        self.last_ns = 0
        self.sampled = 0
        self.sample_none = 0
        self.hi_reported_traced = 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < _MAX_MESSAGES:
            self.messages.append(message)

    def record(self, op: str, ns: float) -> None:
        (self.traced_lat if self.traced else self.lat)[op].append(ns)

    def call(self, op, fn, *args, **kwargs):
        """Run one operation; time it under ``op`` unless ``op`` is None."""
        self.attempted += 1
        span = self.tracer.begin(op) if self.traced else None
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark counts it and goes on
            self._fail(f"{op or fn.__name__}: {type(exc).__name__}: {exc}")
            return FAILED
        finally:
            self.last_ns = perf_counter_ns() - t0
            if span is not None:
                self.tracer.finish(span)
        if op is not None:
            self.record(op, self.last_ns)
        return result

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self._fail(message)

    def check_samples(self, outcomes, query, namespace_size: int) -> np.ndarray:
        """Check that every sampled element is a DA positive; return them.

        A DA positive is an x in [0, M) that the query filter contains, so
        the check probes the filter directly instead of scanning all of M.
        An element of None is the documented dead end of a search at a
        threshold above 0 (every branch a false overlap): it is counted in
        ``sample_none`` and lowers sample_accuracy, but is not a wrong
        answer.
        """
        elements = [o.element for o in outcomes if o is not FAILED]
        found = np.array([x for x in elements if x is not None], dtype=np.int64)
        self.sampled += len(elements)
        self.sample_none += len(elements) - found.size
        in_range = bool(((found >= 0) & (found < namespace_size)).all())
        self.check(in_range and bool(query.contains_many(found).all()),
                   "sample not a DA positive")
        return found

    @contextmanager
    def unit(self, trace: bool = False):
        """One unit of the loop; traced when ``trace`` and the run has a tracer."""
        vector, small = host_ref_ns()
        self.host_ref.append(vector)
        self.host_small_ref.append(small)
        if self.tracer is None or not trace:
            yield
            return
        with self.tracer.installed():
            self.traced = True
            try:
                yield
            finally:
                self.traced = False


def build_timed(rec: Recorder, build):
    t0 = perf_counter_ns()
    tree = build()
    rec.lat["setup"].append(perf_counter_ns() - t0)
    return tree


def timed_loop(seconds: float, step, tasks) -> int:
    """Call ``step(i)`` for i = 0, 1, ... until ``seconds`` have passed.

    ``tasks`` holds (times, fn) pairs: between units each fn is called
    ``times`` times, at even intervals from the start of the loop, the
    first before the first unit.  Returns the number of units run.
    """
    start = perf_counter()
    done = [0] * len(tasks)
    i = 0
    while (now := perf_counter() - start) < seconds:
        for t, (times, fn) in enumerate(tasks):
            if done[t] < times and now >= done[t] * seconds / times:
                fn()
                done[t] += 1
        step(i)
        i += 1
    return i


def rebuilds(rec: Recorder, cfg: Config, build):
    """The loop's task of timed rebuilds, for ``setup_s``."""
    return cfg.setup_builds - 1, lambda: build_timed(rec, build)


def da_scans(rec: Recorder, cfg: Config, family, seed: int, universe=None):
    """The loop's task of timed DA scans, on the quality pass's query sets.

    A DA scan probes all of [0, M) whatever the query, so its cost does
    not depend on which query set it gets.
    """
    M, index = cfg.namespace_size, count()

    def scan():
        members = uniform_members(rec, cfg, seed, next(index) % cfg.quality_queries,
                                  universe)
        rec.call("da_reconstruct", baselines.da_reconstruct, M,
                 bloom.build_filter(family, M, members))

    return cfg.da_calls, scan


def make_tree_inputs(cfg: Config, kind: hashing.FamilyKind, seed: int):
    plan = bst.plan_from_accuracy(ACCURACY, cfg.n, cfg.namespace_size, K, COST_RATIO)
    return plan, hashing.make_family(kind, K, plan.m, seed=seed)


def uniform_members(rec: Recorder, cfg: Config, seed: int, index: int, universe=None):
    """Query set ``index``: n distinct ids of [0, M), or of ``universe``."""
    rng = np.random.default_rng([seed, _MEMBERS, index])
    t0 = perf_counter_ns()
    if universe is None:
        members = evalkit.gen_uniform(cfg.namespace_size, cfg.n, rng)
    else:
        members = universe[evalkit.gen_uniform(universe.size, cfg.n, rng)]
    rec.gen_ns += perf_counter_ns() - t0
    return members


def record_counters(rec: Recorder, op: str, unit: int, cfg: Config, counters,
                    extra: float = 0.0) -> None:
    if unit < cfg.counter_prefix:
        rec.counters[op].append((counters.intersections, counters.membership_queries,
                                 counters.nodes_visited, counters.leaves_scanned, extra))


@dataclass
class Quality:
    sample_accuracy: float
    sample_spread: float
    recall_t05: float


def quality_pass(rec: Recorder, cfg: Config, tree, family, seed: int,
                 universe=None) -> Quality:
    """Sample and reconstruct a fixed number of query sets, outside the loop.

    Each query set gets one ``sample_many(T)`` with replacement, whose
    elements have the distribution of T single ``sample`` calls at a
    fraction of the cost, and one ``reconstruct`` at threshold 0.5.
    ``sample_spread`` divides the distinct true members hit by the uniform
    expectation n(1-(1-1/n)^T).
    """
    M, T = cfg.namespace_size, cfg.quality_samples
    drawn = true_hits = distinct = recalled = truth = 0
    for qi in range(cfg.quality_queries):
        members = uniform_members(rec, cfg, seed, qi, universe)
        query = bloom.build_filter(family, M, members)
        truth += members.size
        rng = np.random.default_rng([seed, _QUALITY_RNG, qi])
        outcomes = rec.call(None, tree.sample_many, query, T, rng=rng)
        if outcomes is not FAILED:
            found = rec.check_samples(outcomes, query, M)
            member_hits = np.isin(found, members)
            drawn += len(outcomes)
            true_hits += int(member_hits.sum())
            distinct += np.unique(found[member_hits]).size
        rec5 = rec.call(None, tree.reconstruct, query)
        if rec5 is not FAILED:
            recalled += int(np.isin(members, rec5[0]).sum())
    n = cfg.n
    expected = cfg.quality_queries * n * (1.0 - (1.0 - 1.0 / n) ** T)
    return Quality(true_hits / max(drawn, 1), distinct / expected, recalled / truth)


@dataclass
class RunResult:
    rec: Recorder
    quality: Quality
    tree_bytes: int
    plan: bst.TreePlan
    units: int


def sample_uniform(cfg: Config, seed: int, seconds: float, tracer=None) -> RunResult:
    """Murmur3 full tree; per query set a stream of `sample`, then `sample_many`."""
    rec = Recorder(tracer)
    plan, family = make_tree_inputs(cfg, hashing.FamilyKind.MURMUR3, seed)
    M = cfg.namespace_size

    def build():
        return bst.BloomSampleTree.build_full(plan, family)

    tree = build_timed(rec, build)
    quality = quality_pass(rec, cfg, tree, family, seed)

    def step(qi):
        members = uniform_members(rec, cfg, seed, cfg.quality_queries + qi)
        query = bloom.build_filter(family, M, members)
        rng = np.random.default_rng([seed, _LOOP_RNG, qi])
        with rec.unit(trace=qi % 2 == 0):
            singles = [rec.call("sample", tree.sample, query, rng=rng)
                       for _ in range(cfg.sample_calls)]
            many = rec.call("sample_many", tree.sample_many, query, cfg.sample_many_r,
                            rng=rng)
            if many is not FAILED and many:
                rec.record("sample_many_per_sample", rec.last_ns / len(many))
        batch = [] if many is FAILED else many
        rec.check_samples(singles + batch, query, M)
        for o in singles:
            if o is not FAILED:
                record_counters(rec, "sample", qi, cfg, o.counters)
        if batch:
            total = bst.OpCounters()
            for o in batch:
                total.merge(o.counters)
            record_counters(rec, "sample_many", qi, cfg, total,
                            extra=1.0 - total.leaves_scanned / len(batch))

    units = timed_loop(seconds, step, [rebuilds(rec, cfg, build),
                                       da_scans(rec, cfg, family, seed)])
    return RunResult(rec, quality, len(tree.to_bytes()), plan, units)


def reconstruct_uniform(cfg: Config, seed: int, seconds: float, tracer=None) -> RunResult:
    """Linear full tree; per query set DA, reconstruct at 0 and 0.5, and HI."""
    rec = Recorder(tracer)
    plan, family = make_tree_inputs(cfg, hashing.FamilyKind.SIMPLE_LINEAR, seed)
    M = cfg.namespace_size

    def build():
        return bst.BloomSampleTree.build_full(plan, family)

    tree = build_timed(rec, build)
    quality = quality_pass(rec, cfg, tree, family, seed)

    def step(qi):
        members = uniform_members(rec, cfg, seed, cfg.quality_queries + qi)
        query = bloom.build_filter(family, M, members)
        with rec.unit(trace=qi % 2 == 0):
            traced = rec.traced
            da = rec.call("da_reconstruct", baselines.da_reconstruct, M, query)
            r0 = rec.call("reconstruct_t0", tree.reconstruct, query, 0.0)
            r5 = rec.call("reconstruct_t05", tree.reconstruct, query)
            hi = rec.call("hi_reconstruct", baselines.hi_reconstruct, query, M)
        if da is not FAILED:
            if r0 is not FAILED:
                rec.check(np.array_equal(np.sort(r0[0]), da[0]),
                          "reconstruct at threshold 0 differs from da_reconstruct")
            if hi is not FAILED:
                rec.check(np.array_equal(np.sort(hi[0]), da[0]),
                          "hi_reconstruct differs from da_reconstruct")
        for op, res in (("reconstruct_t0", r0), ("reconstruct_t05", r5)):
            if res is not FAILED:
                record_counters(rec, op, qi, cfg, res[1], extra=res[0].size)
        if hi is not FAILED and traced:
            rec.hi_reported_traced += hi[1].membership_queries

    units = timed_loop(seconds, step, [rebuilds(rec, cfg, build)])
    return RunResult(rec, quality, len(tree.to_bytes()), plan, units)


def ingest_blocks(cfg: Config, seed: int, seconds: float, tracer=None) -> RunResult:
    """Murmur3 pruned tree over blocks; rounds of inserts, to_bytes, from_bytes.

    Every round restarts from the set-up tree and inserts the same shuffled
    ids of new blocks, so each round does identical work and ``tree_bytes``
    is exact for a fixed seed.
    """
    rec = Recorder(tracer)
    plan, family = make_tree_inputs(cfg, hashing.FamilyKind.MURMUR3, seed)
    # One occupied block at a random slot of each of occupied_blocks equal
    # stretches of the namespace, so the tree's size varies little by seed;
    # the inserted blocks take random free slots.
    rng = np.random.default_rng([seed, _LAYOUT])
    per_stretch = cfg.namespace_size // cfg.block // cfg.occupied_blocks
    taken = (np.arange(cfg.occupied_blocks) * per_stretch
             + rng.integers(0, per_stretch, cfg.occupied_blocks))
    free = np.setdiff1d(np.arange(cfg.namespace_size // cfg.block), taken)
    fresh = rng.choice(free, cfg.insert_blocks, replace=False)

    def ids_of(slots):
        return np.concatenate([np.arange(s * cfg.block, (s + 1) * cfg.block)
                               for s in np.sort(slots)])

    occupied = ids_of(taken)
    new_ids = ids_of(fresh)
    rng.shuffle(new_ids)
    union = np.union1d(occupied, new_ids)
    new_ids = new_ids.tolist()

    def build():
        return bst.BloomSampleTree.build_pruned(plan, family, occupied)

    base_bytes = build_timed(rec, build).to_bytes()
    expected = bst.BloomSampleTree.build_pruned(plan, family, union)
    sizes = set()
    inserted = None

    def step(rnd):
        nonlocal inserted
        inserted = tree = bst.BloomSampleTree.from_bytes(base_bytes)
        with rec.unit(trace=rnd % 2 == 0):
            for x in new_ids:
                rec.call("insert", tree.insert, x)
            data = rec.call("to_bytes", tree.to_bytes)
            loads = [] if data is FAILED else [
                rec.call("from_bytes", bst.BloomSampleTree.from_bytes, data)
                for _ in range(cfg.loads_per_round)]
        rec.check(tree == expected,
                  "tree after inserts differs from build_pruned over the union")
        for loaded in loads:
            if loaded is not FAILED:
                rec.check(loaded == tree, "from_bytes(to_bytes(tree)) differs from tree")
        if data is not FAILED:
            sizes.add(len(data))

    units = timed_loop(seconds, step, [rebuilds(rec, cfg, build),
                                       da_scans(rec, cfg, family, seed, union)])
    quality = quality_pass(rec, cfg, inserted, family, seed, universe=union)
    return RunResult(rec, quality, max(sizes, default=0), plan, units)


WORKLOADS = {
    "sample_uniform": sample_uniform,
    "reconstruct_uniform": reconstruct_uniform,
    "ingest_blocks": ingest_blocks,
}
