"""Hierarchical Bloom filter index over an integer namespace.

A complete binary tree where the node at (level, j) holds a Bloom
filter of the j-th of 2^level equal slices of the namespace.  Sampling
descends the tree guided by intersection-cardinality estimates against
a query filter, scanning only one leaf range instead of the whole
namespace; reconstruction prunes empty-estimate subtrees and unions the
leaf scans.

The namespace is padded up to ``M_bot * 2^depth`` so every level
partitions it uniformly; the padding region is never inserted or
scanned.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bloom import BloomFilter, FamilyMismatchError
from .estimate import fp_probability, intersection_estimate_counts
from .hashing import HashFamily

__all__ = [
    "OpCounters",
    "SampleOutcome",
    "TreePlan",
    "PlanError",
    "plan_from_accuracy",
    "plan_with_m",
    "max_leaf_capacity",
    "BloomSampleTree",
    "DEFAULT_THRESHOLD",
]

_MAGIC = b"BSTR"
_VERSION = 2
# One node index entry of the v2 file, packed: level (u8), then j (u64 LE).
_INDEX_ENTRY = np.dtype([("level", "u1"), ("j", "<u8")])

# An estimated intersection below half an element is treated as empty;
# exposed as a tunable on every traversal entry point.
DEFAULT_THRESHOLD = 0.5


class PlanError(ValueError):
    """Raised for unachievable or degenerate planning inputs."""


@dataclass
class OpCounters:
    """Per-run operation tallies; the primary cost metric."""

    intersections: int = 0
    membership_queries: int = 0
    nodes_visited: int = 0
    leaves_scanned: int = 0

    def merge(self, other: "OpCounters") -> None:
        self.intersections += other.intersections
        self.membership_queries += other.membership_queries
        self.nodes_visited += other.nodes_visited
        self.leaves_scanned += other.leaves_scanned


@dataclass
class SampleOutcome:
    """One sampling result; ``element`` is None when the search dead-ends."""

    element: Optional[int]
    counters: OpCounters = field(default_factory=OpCounters)


@dataclass(frozen=True)
class TreePlan:
    """Derived tree parameters: filter size, depth, and leaf range width."""

    namespace_size: int          # M; elements live in [0, M)
    m: int                       # bits per filter
    k: int                       # hash functions per filter
    depth: int                   # levels below the root
    leaf_size: int               # M_bot, range width of a leaf
    accuracy_target: float
    cost_ratio: float            # intersection cost / membership cost

    @property
    def padded_size(self) -> int:
        """Covered namespace: M rounded up so leaf_size * 2^depth divides it."""
        return self.leaf_size << self.depth

    @property
    def full_node_count(self) -> int:
        return (1 << (self.depth + 1)) - 1

    @property
    def memory_bits(self) -> int:
        """Analytic memory of the full tree: m * node count."""
        return self.m * self.full_node_count

    def to_bytes(self) -> bytes:
        return struct.pack("<QQHHQdd", self.namespace_size, self.m, self.k,
                           self.depth, self.leaf_size, self.accuracy_target,
                           self.cost_ratio)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["TreePlan", int]:
        vals = struct.unpack_from("<QQHHQdd", data, offset)
        plan = cls(namespace_size=vals[0], m=vals[1], k=vals[2], depth=vals[3],
                   leaf_size=vals[4], accuracy_target=vals[5], cost_ratio=vals[6])
        return plan, offset + struct.calcsize("<QQHHQdd")


def _leaf_ratio(n: int) -> float:
    return n / math.log2(n)


def max_leaf_capacity(cost_ratio: float) -> int:
    """Largest leaf width N with N / log2(N) <= cost_ratio.

    Below that width, walking further down the tree costs more in
    intersections than a brute-force membership scan of the leaf.
    """
    if cost_ratio <= 0:
        raise PlanError("cost_ratio must be positive")
    best = 1
    if cost_ratio >= 2.0:
        best = 2
    if cost_ratio < _leaf_ratio(3):
        return best
    lo, hi = 3, max(16, int(cost_ratio) * 64 + 16)
    while _leaf_ratio(hi) <= cost_ratio:
        hi *= 2
    # N / log2(N) is increasing for N >= 3
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _leaf_ratio(mid) <= cost_ratio:
            lo = mid
        else:
            hi = mid - 1
    return max(best, lo)


def _depth_and_leaf(namespace_size: int, cost_ratio: float) -> tuple[int, int]:
    cap = max_leaf_capacity(cost_ratio)
    depth = 0
    while -(-namespace_size // (1 << depth)) > cap and (1 << depth) < namespace_size:
        depth += 1
    leaf = -(-namespace_size // (1 << depth))  # ceil; padding absorbs the slack
    return depth, leaf


def plan_from_accuracy(accuracy: float, n_ref: int, namespace_size: int, k: int,
                       cost_ratio: float) -> TreePlan:
    """Derive (m, depth, leaf width) from an accuracy target.

    Accuracy acc = n / (n + (M - n) * FP) is inverted to a false
    positive budget, m is the smallest filter size meeting it for a set
    of ``n_ref`` elements, and the leaf width is the largest one whose
    brute-force scan is no costlier than descending further.
    """
    if not 0.0 < accuracy < 1.0:
        raise PlanError("accuracy must be strictly between 0 and 1 "
                        "(for accuracy 1.0 supply m explicitly)")
    if n_ref < 1 or n_ref >= namespace_size:
        raise PlanError("need 1 <= n_ref < namespace size")
    fp_budget = n_ref * (1.0 - accuracy) / (accuracy * (namespace_size - n_ref))
    if fp_budget >= 1.0:
        raise PlanError("accuracy target too loose: any filter size satisfies it")
    # invert (1 - e^(-k n/m))^k <= fp analytically, then fix up rounding
    m = max(k, math.ceil(-k * n_ref / math.log1p(-fp_budget ** (1.0 / k))))
    while m > 1 and fp_probability(m - 1, k, n_ref) <= fp_budget:
        m -= 1
    while fp_probability(m, k, n_ref) > fp_budget:
        m += 1
    if m < 8 * k:
        raise PlanError(f"accuracy target too loose: planned m={m} is degenerate")
    depth, leaf = _depth_and_leaf(namespace_size, cost_ratio)
    return TreePlan(namespace_size, m, k, depth, leaf, accuracy, cost_ratio)


def plan_with_m(m: int, namespace_size: int, k: int, cost_ratio: float,
                accuracy_target: float = 1.0) -> TreePlan:
    """Plan with an explicitly chosen filter size (accuracy formula bypassed)."""
    if m < 8 * k:
        raise PlanError(f"m={m} is degenerate for k={k}")
    depth, leaf = _depth_and_leaf(namespace_size, cost_ratio)
    return TreePlan(namespace_size, m, k, depth, leaf, accuracy_target, cost_ratio)


class _TraversalCtx:
    """Per-call state shared across the recursive descent."""

    __slots__ = ("query", "t1", "threshold", "rng", "counters",
                 "leaf_cache", "used", "blocked", "est_cache")

    def __init__(self, query, t1, threshold, rng, counters, leaf_cache, used,
                 est_cache=None):
        self.query = query
        self.t1 = t1
        self.threshold = threshold
        self.rng = rng
        self.counters = counters
        self.leaf_cache = leaf_cache    # (level, idx) -> hit array
        self.used = used                # None, or (level, idx) -> set of taken hits
        self.blocked = False            # a leaf had hits but all were taken
        # (level, idx) -> (is_empty, estimate); valid because the query is
        # fixed for the lifetime of the context
        self.est_cache = {} if est_cache is None else est_cache


class BloomSampleTree:
    """The tree itself: a dict of (level, index) -> BloomFilter nodes.

    Built full (every node of the complete tree) or pruned (only nodes
    whose range intersects the occupied part of the namespace).  Once
    built it is immutable for queries; ``insert`` grows a pruned tree
    and requires exclusive access.
    """

    def __init__(self, plan: TreePlan, family, nodes: Optional[dict] = None):
        if family.m != plan.m or family.k != plan.k:
            raise ValueError("hash family does not match the plan's (m, k)")
        self.plan = plan
        self.family = family
        self.nodes = nodes if nodes is not None else {}

    # construction ------------------------------------------------------

    @classmethod
    def _build(cls, plan: TreePlan, family, leaves) -> "BloomSampleTree":
        """Fill each given leaf with one bulk insert, then OR children upward.

        ``leaves`` yields ``(leaf index, elements)`` pairs, so every element
        is hashed exactly once, into its leaf.  A parent exists where at
        least one of its children does.
        """
        tree = cls(plan, family)
        nodes = tree.nodes
        present = []  # indices of the present nodes on the level being filled
        for j, xs in leaves:
            leaf = nodes[(plan.depth, j)] = BloomFilter(family, plan.padded_size)
            leaf.insert_many(xs)
            present.append(j)
        for level in range(plan.depth - 1, -1, -1):
            present = list(dict.fromkeys(j >> 1 for j in present))
            for j in present:
                kids = [nodes[c] for c in ((level + 1, 2 * j), (level + 1, 2 * j + 1))
                        if c in nodes]
                nodes[(level, j)] = kids[0].union(kids[1]) if len(kids) == 2 else kids[0].copy()
        return tree

    @classmethod
    def build_full(cls, plan: TreePlan, family) -> "BloomSampleTree":
        """Complete tree; node (i, j) stores every namespace element of its range."""
        M, width = plan.namespace_size, plan.leaf_size
        return cls._build(plan, family, (
            (j, np.arange(j * width, min((j + 1) * width, M), dtype=np.int64))
            for j in range(1 << plan.depth)))

    @classmethod
    def build_pruned(cls, plan: TreePlan, family, occupied) -> "BloomSampleTree":
        """Materialize only nodes whose range holds occupied elements."""
        occ = np.sort(np.asarray(list(occupied) if not isinstance(occupied, np.ndarray)
                                 else occupied, dtype=np.int64))
        if occ.size and (occ[0] < 0 or occ[-1] >= plan.namespace_size):
            raise ValueError("occupied element outside the namespace")
        occ = occ[np.diff(occ, prepend=-1) > 0]  # drop repeats; cheaper than np.unique
        # leaf boundaries come from the data, so a sparse namespace costs O(n)
        leaf = occ // plan.leaf_size
        starts = np.flatnonzero(np.diff(leaf, prepend=-1))
        ends = np.append(starts[1:], occ.size)
        return cls._build(plan, family, ((int(leaf[s]), occ[s:e])
                                         for s, e in zip(starts, ends)))

    def insert(self, x: int) -> None:
        """Add one occupied element, creating missing path nodes.

        Hashes x once into a one-element filter, then ORs that filter into
        the leaf and each of its depth ancestors.
        """
        if not 0 <= x < self.plan.namespace_size:
            raise ValueError(f"element {x} outside namespace")
        one = BloomFilter(self.family, self.plan.padded_size)
        one.insert(x)
        for level in range(self.plan.depth + 1):
            key = (level, x // (self.plan.padded_size >> level))
            node = self.nodes.get(key)
            if node is None:
                node = self.nodes[key] = BloomFilter(self.family, self.plan.padded_size)
            node.update(one)

    # geometry ----------------------------------------------------------

    def node_range(self, level: int, j: int) -> tuple[int, int]:
        width = self.plan.padded_size >> level
        return j * width, (j + 1) * width

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def memory_bits(self) -> int:
        return self.plan.m * self.node_count

    def __eq__(self, other) -> bool:
        if not isinstance(other, BloomSampleTree):
            return NotImplemented
        return (self.plan == other.plan and self.family == other.family
                and self.nodes.keys() == other.nodes.keys()
                and all(self.nodes[k] == other.nodes[k] for k in self.nodes))

    # traversal helpers -------------------------------------------------

    def _check_query(self, query: BloomFilter):
        if query.family != self.family:
            raise FamilyMismatchError("query filter incompatible with tree filters")

    def _child_estimate(self, key, ctx) -> tuple[bool, float]:
        """(is_empty, estimate) for one node; a missing node is empty at zero cost."""
        cached = ctx.est_cache.get(key)
        if cached is not None:
            return cached
        node = self.nodes.get(key)
        if node is None:
            result = (True, 0.0)
        else:
            ctx.counters.intersections += 1
            t_and = int(np.bitwise_count(node.words & ctx.query.words).sum())
            if t_and == 0:
                result = (True, 0.0)
            else:
                est = intersection_estimate_counts(self.plan.m, self.plan.k,
                                                   node.popcount(), ctx.t1, t_and)
                result = (est < ctx.threshold, est)
        ctx.est_cache[key] = result
        return result

    def _scan_leaf(self, key, ctx) -> np.ndarray:
        """Membership-test every namespace element of the leaf range."""
        hits = ctx.leaf_cache.get(key)
        if hits is None:
            lo, hi = self.node_range(*key)
            hi = min(hi, self.plan.namespace_size)
            if hi <= lo:
                hits = np.empty(0, dtype=np.int64)
            else:
                xs = np.arange(lo, hi, dtype=np.int64)
                hits = xs[ctx.query.contains_many(xs)]
                ctx.counters.membership_queries += hi - lo
            ctx.counters.leaves_scanned += 1
            ctx.leaf_cache[key] = hits
        return hits

    @staticmethod
    def _left_probability(est_l: float, est_r: float) -> float:
        if math.isinf(est_l) and math.isinf(est_r):
            return 0.5
        if math.isinf(est_l):
            return 1.0
        if math.isinf(est_r):
            return 0.0
        return est_l / (est_l + est_r)

    def _sample_node(self, key, ctx) -> Optional[int]:
        ctx.counters.nodes_visited += 1
        level, j = key
        if level == self.plan.depth:
            hits = self._scan_leaf(key, ctx)
            if hits.size == 0:
                return None
            if ctx.used is not None:
                taken = ctx.used.setdefault(key, set())
                avail = hits[~np.isin(hits, list(taken))] if taken else hits
                if avail.size == 0:
                    ctx.blocked = True
                    return None
                el = int(avail[ctx.rng.integers(avail.size)])
                taken.add(el)
                return el
            return int(hits[ctx.rng.integers(hits.size)])
        lkey, rkey = (level + 1, 2 * j), (level + 1, 2 * j + 1)
        l_empty, est_l = self._child_estimate(lkey, ctx)
        r_empty, est_r = self._child_estimate(rkey, ctx)
        if l_empty and r_empty:
            return None
        if r_empty:
            return self._sample_node(lkey, ctx)
        if l_empty:
            return self._sample_node(rkey, ctx)
        if est_l == est_r == ctx.threshold:
            first, second = lkey, rkey  # deterministic tie-break aids replay
        elif ctx.rng.random() < self._left_probability(est_l, est_r):
            first, second = lkey, rkey
        else:
            first, second = rkey, lkey
        result = self._sample_node(first, ctx)
        if result is None:
            result = self._sample_node(second, ctx)
        return result

    # public query API --------------------------------------------------

    def sample(self, query: BloomFilter, threshold: float = DEFAULT_THRESHOLD,
               rng=None) -> SampleOutcome:
        """Draw one (near-uniform) element of the set behind ``query``.

        Descends from the root choosing children in proportion to their
        estimated overlap with the query, backtracking into the sibling
        when a branch dead-ends, and finally picks uniformly among the
        membership-positive elements of one leaf range.  Returns an
        outcome with ``element=None`` when every branch was a false
        overlap.
        """
        self._check_query(query)
        rng = np.random.default_rng() if rng is None else rng
        ctx = _TraversalCtx(query, query.popcount(), threshold, rng,
                            OpCounters(), {}, None)
        if (0, 0) not in self.nodes:
            return SampleOutcome(None, ctx.counters)
        element = self._sample_node((0, 0), ctx)
        return SampleOutcome(element, ctx.counters)

    def sample_many(self, query: BloomFilter, r: int, with_replacement: bool = True,
                    threshold: float = DEFAULT_THRESHOLD, rng=None) -> list[SampleOutcome]:
        """Draw r elements in one batch, sharing leaf scans between paths.

        Each path consumes the same biased coins as ``sample`` would, so
        the marginal distribution per returned element is unchanged; for
        r=1 and a shared seed the outcome is bitwise identical to
        ``sample``.  Without replacement, paths that find every reachable
        positive already taken are dropped, so the list may be short.
        """
        if r < 1:
            raise ValueError("r must be >= 1")
        self._check_query(query)
        rng = np.random.default_rng() if rng is None else rng
        t1 = query.popcount()
        leaf_cache: dict = {}
        est_cache: dict = {}
        used: Optional[dict] = None if with_replacement else {}
        outcomes = []
        for _ in range(r):
            ctx = _TraversalCtx(query, t1, threshold, rng, OpCounters(),
                                leaf_cache, used, est_cache)
            if (0, 0) not in self.nodes:
                outcomes.append(SampleOutcome(None, ctx.counters))
                continue
            element = self._sample_node((0, 0), ctx)
            if element is None and ctx.blocked and not with_replacement:
                continue  # pool exhausted: short list
            outcomes.append(SampleOutcome(element, ctx.counters))
        return outcomes

    def _reconstruct_node(self, key, ctx) -> list:
        ctx.counters.nodes_visited += 1
        if self._child_estimate(key, ctx)[0]:
            return []
        level, j = key
        if level == self.plan.depth:
            hits = self._scan_leaf(key, ctx)
            return [hits] if hits.size else []
        parts = []
        for ckey in ((level + 1, 2 * j), (level + 1, 2 * j + 1)):
            if ckey in self.nodes:
                parts.extend(self._reconstruct_node(ckey, ctx))
        return parts

    def reconstruct(self, query: BloomFilter,
                    threshold: float = DEFAULT_THRESHOLD) -> tuple[np.ndarray, OpCounters]:
        """All membership-positive elements reachable through the tree.

        With threshold 0 pruning fires only on bit-exact empty
        intersections, which never discard a positive, so the result
        equals a full dictionary scan of the covered namespace.
        """
        self._check_query(query)
        ctx = _TraversalCtx(query, query.popcount(), threshold, None,
                            OpCounters(), {}, None)
        if (0, 0) not in self.nodes:
            return np.empty(0, dtype=np.int64), ctx.counters
        parts = self._reconstruct_node((0, 0), ctx)
        if not parts:
            return np.empty(0, dtype=np.int64), ctx.counters
        return np.concatenate(parts), ctx.counters

    # serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """v2 layout: header, plan, family, node count, (level, j) index, words blob."""
        keys = sorted(self.nodes)
        return b"".join([_MAGIC, bytes([_VERSION]), self.plan.to_bytes(),
                         self.family.to_bytes(), struct.pack("<Q", len(keys)),
                         np.array(keys, dtype=_INDEX_ENTRY).tobytes(),
                         *(self.nodes[key].words.astype("<u8").tobytes() for key in keys)])

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomSampleTree":
        """Parse a v2 tree; any malformed or truncated input raises ValueError."""
        if data[:4] != _MAGIC:
            raise ValueError("bad magic: not a tree file")
        try:
            if data[4] != _VERSION:
                raise ValueError(f"unsupported tree version {data[4]}")
            plan, offset = TreePlan.from_bytes(data, 5)
            family, offset = HashFamily.from_bytes(data, offset)
            (count,) = struct.unpack_from("<Q", data, offset)
        except (IndexError, struct.error):
            raise ValueError("truncated tree file") from None
        tree = cls(plan, family)
        offset += 8
        n_words = (plan.m + 63) // 64
        if len(data) != offset + count * (_INDEX_ENTRY.itemsize + 8 * n_words):
            raise ValueError("tree file size does not match its node count")
        entries = np.frombuffer(data, _INDEX_ENTRY, count, offset)
        words = np.frombuffer(data, "<u8", count * n_words, offset + entries.nbytes)
        words = words.astype(np.uint64).reshape(count, n_words)
        keys = list(zip(entries["level"].tolist(), entries["j"].tolist()))
        for row, (level, j) in enumerate(keys):
            if level > plan.depth or j >> level:
                raise ValueError(f"node {(level, j)} outside a depth-{plan.depth} tree")
            if row and keys[row - 1] >= (level, j):
                raise ValueError("tree nodes not in ascending (level, j) order")
            if level and (level - 1, j >> 1) not in tree.nodes:
                raise ValueError(f"node {(level, j)} has no parent")
            tree.nodes[(level, j)] = BloomFilter(family, plan.padded_size, words=words[row],
                                                 inserted_count=None)
        return tree

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "BloomSampleTree":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
