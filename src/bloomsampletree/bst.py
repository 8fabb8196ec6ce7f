"""Hierarchical Bloom filter index over an integer namespace.

A complete binary tree where the node at (level, j) holds a Bloom
filter of the j-th of 2^level equal slices of the namespace.  Sampling
descends the tree guided by intersection-cardinality estimates against
a query filter, scanning only one leaf range instead of the whole
namespace; reconstruction prunes empty-estimate subtrees and unions the
leaf scans.

The namespace is padded up to ``M_bot * 2^depth`` so every level
partitions it uniformly; the padding region is never inserted or
scanned, and every node filter is bounded by M itself.
"""
from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Optional

import numpy as np

from .bloom import (BloomFilter, FamilyMismatchError, check_element, check_elements,
                    check_query_namespace, filter_rows, insert_masks, tail_mask,
                    word_masks)
from .estimate import fp_probability, intersection_estimate_counts
from .hashing import HashFamily, _exact_int

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
    "DEFAULT_COST_RATIO",
]

_MAGIC = b"BSTR"
_VERSION = 2
# One node index entry of the v2 file, packed: level (u8), then j (u64 LE).
_INDEX_ENTRY = np.dtype([("level", "u1"), ("j", "<u8")])
# A node's words as the file stores them.
_WORD = np.dtype("<u8")

# An estimated intersection below half an element is treated as empty;
# exposed as a tunable on every traversal entry point.
DEFAULT_THRESHOLD = 0.5
# Intersection cost over membership cost that the planner assumes when the
# caller measures none; it sets the leaf width and so the depth.
DEFAULT_COST_RATIO = 240.0
# Bound on the node words stacked at once by the level walks of
# ``reconstruct`` and ``verify``, so their memory does not grow with the
# width of the tree.
_STACK_BYTES = 1 << 22
# Leading words of each node that the threshold-0 walk ANDs with the query
# first; only a node whose prefix AND is empty has the rest of its words
# stacked.  Threshold-0 reconstruct on the bench plan (full tree, M = 10^6,
# m = 60,870, 1,023 nodes; 6 uniform queries x 20 alternated rounds, 2-core
# x86 VM): with n = 30 members 32 words took 9.1 ms (linear) and 12.6 ms
# (murmur3) against 11.1 and 16.4 ms with 16 words, lower in 60% and 85% of
# calls; with n = 1,000 the two were even (lower in 46-47%), and 8 words was
# 1-2 ms slower than 16.  The sparser the query, the more prefixes are empty.
_PREFIX_WORDS = 32
# Bound on the bool bitmap, one byte per bit, that a build fills for one
# batch of leaves (at least one leaf per batch).  The murmur3 build of the
# M = 10^6 bench plan (m = 60,870, 512 leaves) took 26.1 ms with 2^17,
# 23.0 ms with 2^18, 21.2 ms with 2^19 (8 leaves), 25.0 ms with 2^20 and
# 29.2 ms with 2^22 (medians of 15 builds, 2-core x86 VM, numpy 2.4): a
# bitmap that stays in L2 between its fill and its packbits.
_BUILD_BATCH_BYTES = 1 << 19


class PlanError(ValueError):
    """Raised for unachievable or degenerate planning inputs."""


@dataclass
class OpCounters:
    """Per-run operation tallies; the primary cost metric.

    ``intersections`` counts one per present node whose AND with the query
    a traversal needs, whether or not an AND runs: a saturated child, whose
    popcount is m, takes the query's popcount as its AND's without one.
    """

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

    # the fields above in order, as a tree file stores them
    _STRUCT = struct.Struct("<QQHHQdd")

    def __post_init__(self):
        # the sizes are read as elements are, so the plan holds Python ints
        for name in ("namespace_size", "m", "k", "depth", "leaf_size"):
            object.__setattr__(self, name, _exact_int(getattr(self, name), name))

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
        return self._STRUCT.pack(self.namespace_size, self.m, self.k, self.depth,
                                 self.leaf_size, self.accuracy_target, self.cost_ratio)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["TreePlan", int]:
        return cls(*cls._STRUCT.unpack_from(data, offset)), offset + cls._STRUCT.size


# Cap on the planned leaf width.  A plan stores M as a u64, so a leaf this
# wide holds any namespace, and N / log2(N) stays a float up to it, where
# a cost ratio near the largest float would ask for N past 2^1024.
_MAX_LEAF = 1 << 64


def _leaf_ratio(n: int) -> float:
    return n / math.log2(n)


def max_leaf_capacity(cost_ratio: float) -> int:
    """Largest leaf width N with N / log2(N) <= cost_ratio, at most
    ``_MAX_LEAF``.

    Below that width, walking further down the tree costs more in
    intersections than a brute-force membership scan of the leaf.
    """
    if not 0.0 < cost_ratio < math.inf:
        raise PlanError(f"cost_ratio must be finite and positive, got {cost_ratio}")
    if cost_ratio < _leaf_ratio(3):
        return 1
    # N / log2(N) is increasing for N >= 3
    lo, hi = 3, _MAX_LEAF
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _leaf_ratio(mid) <= cost_ratio:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _plan_int(value, what: str) -> int:
    """A size read by the rule of ``_exact_int``, raising PlanError."""
    try:
        return _exact_int(value, what)
    except ValueError as err:
        raise PlanError(str(err)) from None


def plan_from_accuracy(accuracy: float, n_ref: int, namespace_size: int, k: int,
                       cost_ratio: float) -> TreePlan:
    """Derive (m, depth, leaf width) from an accuracy target.

    Accuracy acc = n / (n + (M - n) * FP) is inverted to a false
    positive budget, m is the smallest filter size meeting it for a set
    of ``n_ref`` elements, and the leaf width is the largest one whose
    brute-force scan is no costlier than descending further.  M and k are
    read as elements are, so 10.0 is 10 and 3.5 raises PlanError.
    """
    namespace_size, k = _plan_int(namespace_size, "namespace size"), _plan_int(k, "k")
    if not 1 <= k < 1 << 16:  # TreePlan and the family descriptor store k as u16
        raise PlanError(f"k must be in [1, 2^16), got {k}")
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
    return plan_with_m(m, namespace_size, k, cost_ratio, accuracy)


def plan_with_m(m: int, namespace_size: int, k: int, cost_ratio: float,
                accuracy_target: float = 1.0) -> TreePlan:
    """Plan with an explicitly chosen filter size (accuracy formula bypassed).

    m, M and k are read as elements are, so the plan holds Python ints.
    """
    m, k = _plan_int(m, "m"), _plan_int(k, "k")
    namespace_size = _plan_int(namespace_size, "namespace size")
    if not 1 <= k < 1 << 16:  # TreePlan and the family descriptor store k as u16
        raise PlanError(f"k must be in [1, 2^16), got {k}")
    if m < 8 * k:
        raise PlanError(f"m={m} is degenerate for k={k}")
    if namespace_size < 1:
        raise PlanError(f"namespace size must be >= 1, got {namespace_size}")
    cap = max_leaf_capacity(cost_ratio)
    depth = 0
    while -(-namespace_size // (1 << depth)) > cap and (1 << depth) < namespace_size:
        depth += 1
    leaf = -(-namespace_size // (1 << depth))  # ceil; padding absorbs the slack
    return TreePlan(namespace_size, m, k, depth, leaf, accuracy_target, cost_ratio)


def _check_threshold(threshold: float) -> float:
    """The threshold the traversals prune with: NaN raises, and a negative
    threshold acts as 0, since no estimate is negative."""
    # every pruning test is `estimate < threshold`, which NaN never satisfies
    if math.isnan(threshold):
        raise ValueError("threshold must be a number, not NaN")
    return max(threshold, 0.0)


def _check_index(levels: np.ndarray, js: np.ndarray, depth: int) -> None:
    """Raise ValueError for the first entry of a tree file's (level, j)
    index that lies outside a depth-``depth`` tree, does not follow the
    entry before it in ascending (level, j) order, or whose parent no
    earlier entry lists; within an entry the checks run in that order.

    A fixed number of numpy calls over the whole index.  The parents are
    found by one sort of the entries together with the parent keys: a
    (level, j) pair packed into one integer, such as 2^level + j, would
    overflow uint64 past level 63.
    """
    levels, js = levels.copy(), js.copy()  # contiguous: the index packs 9-byte entries
    outside = (levels > depth) | (js >> levels != 0)
    unordered = np.zeros(levels.size, dtype=bool)
    unordered[1:] = (levels[1:] < levels[:-1]) | ((levels[1:] == levels[:-1])
                                                  & (js[1:] <= js[:-1]))
    bad = np.flatnonzero(outside | unordered)
    stop = bad[0] if bad.size else levels.size
    # The entries before ``stop`` are inside the tree and strictly ascending,
    # so a parent listed at all among them is listed before its child.  Sort
    # them, then the parent keys of their children, by (level, j); the sort
    # is stable, so a run of equal keys starts with the entry if one is
    # listed, else with the parent key of the run's first child.
    child = np.flatnonzero(levels[:stop])
    key_levels = np.concatenate([levels[:stop], levels[child] - 1])
    key_js = np.concatenate([js[:stop], js[child] >> 1])
    order = np.lexsort((key_js, key_levels))
    key_levels, key_js = key_levels[order], key_js[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (key_levels[1:] != key_levels[:-1]) | (key_js[1:] != key_js[:-1])
    orphans = order[starts & (order >= stop)] - stop
    if orphans.size:
        row = child[orphans.min()]
        raise ValueError(f"node {(int(levels[row]), int(js[row]))} has no parent")
    if stop < levels.size:
        if outside[stop]:
            raise ValueError(f"node {(int(levels[stop]), int(js[stop]))} "
                             f"outside a depth-{depth} tree")
        raise ValueError("tree nodes not in ascending (level, j) order")


def _gather(rows: list) -> np.ndarray:
    """The equal-length word ``rows`` as the rows of one new matrix.

    One ``concatenate`` into a flat array, where ``np.stack`` makes a view
    per row first: 512 rows of 952 words took 0.72-0.75 ms this way against
    1.29-1.35 ms stacked, and 512 rows of 32 words 0.11 ms against
    0.39-0.40 ms (medians of 60, 2-core x86 host, numpy 2.4).
    """
    return np.concatenate(rows).reshape(len(rows), -1)


def _ands_nonempty(rows: list, words: np.ndarray, w: int) -> list:
    """Per word row of ``rows``, each as long as ``words``, whether its AND
    with ``words`` sets any bit.

    The first ``w`` words of every row are ANDed in one stack; only the
    rows whose prefix AND is empty get the rest of their words stacked and
    tested, so with ``w = 0`` every full row is stacked once.  Nothing is
    popcounted.
    """
    if w:
        head = _gather([row[:w] for row in rows])
        hit = np.bitwise_and(head, words[:w], out=head).any(axis=1)
    else:
        hit = np.zeros(len(rows), dtype=bool)
    rest = np.flatnonzero(~hit)
    if rest.size and words.size > w:
        tail = _gather([rows[i][w:] for i in rest.tolist()])
        hit[rest] = np.bitwise_and(tail, words[w:], out=tail).any(axis=1)
    return hit.tolist()


class _Moves(dict):
    """The traversal rule for one query: a dict from parent ``(level, j)`` to
    its move, worked out the first time the parent is looked up.

    Building it checks the threshold, then the query against ``tree``.  A
    node is kept when its AND with the query is not empty and its estimate
    is not below the threshold.  A parent's move is its present, kept
    children in push order, the left one pushed last so popped first, and
    the probability that the left one goes first; None where no coin is
    drawn (one kept child, or an exact tie at the threshold).  The root's
    move is the move of ``(-1, 0)``: its children are the root ``(0, 0)``,
    if kept, and ``(0, 1)``, which no tree holds.

    Working out a move counts one intersection per present child in
    ``counters``, and takes one pass: each present child whose popcount is
    below m is ANDed with the query into a row of one scratch buffer, made
    once per table, and the rows are popcounted together.  A saturated
    child, whose popcount is m, takes the query's popcount ``t1`` with no
    AND, since its AND with the query is the query itself.
    """

    # Slots, not an instance dict: on CPython 3.11 an attribute read from a
    # dict subclass's instance dict is not specialised, and that made one
    # ``sample`` call on the bench tree about 6 us (4%) slower.
    __slots__ = ("threshold", "nodes", "words", "t1", "m", "k", "counters",
                 "count_dtype", "_buffers")

    def __init__(self, tree: "BloomSampleTree", query: BloomFilter, threshold: float):
        self.threshold = _check_threshold(threshold)
        if query.family != tree.family:
            raise FamilyMismatchError("query filter incompatible with tree filters")
        check_query_namespace(query, tree.plan.namespace_size)
        self.nodes, self.words, self.t1 = tree.nodes, query.words, query.popcount()
        self.m, self.k, self.counters = tree.plan.m, tree.plan.k, OpCounters()
        n_words = self.words.size
        # a row's popcount is at most 64 * n_words, so a uint32 sum is exact
        # where that fits; numpy's default uint64 sum of the uint8 counts
        # took 2.5x as long on 512 rows of 952 words
        self.count_dtype = np.uint32 if 64 * n_words < 1 << 32 else np.uint64
        ands = np.empty((2, n_words), dtype=np.uint64)
        counts = np.empty((2, n_words), dtype=np.uint8)
        # by the number of children to AND, less one: the rows to count, their
        # counts, and the rows of the left and the right child
        self._buffers = ((ands[:1], counts[:1], ands[0], ands[0]),
                         (ands, counts, ands[0], ands[1]))

    def popcounts(self, rows: np.ndarray, out: Optional[np.ndarray] = None) -> list:
        """The popcount of each row of the uint64 matrix ``rows``, counted
        into the uint8 matrix ``out`` of the same shape, or a new one."""
        return np.bitwise_count(rows, out=out).sum(axis=1, dtype=self.count_dtype).tolist()

    def kept(self, node: BloomFilter, t_and: int) -> Optional[float]:
        """The node's estimate from its AND's popcount ``t_and``, None if pruned."""
        if not t_and:
            return None
        est = intersection_estimate_counts(self.m, self.k, node.popcount(), self.t1, t_and)
        return None if est < self.threshold else est

    @staticmethod
    def _left_probability(est_l: float, est_r: float) -> float:
        if math.isinf(est_l) and math.isinf(est_r):
            return 0.5
        if math.isinf(est_l):
            return 1.0
        if math.isinf(est_r):
            return 0.0
        return est_l / (est_l + est_r)

    def __missing__(self, key) -> tuple:
        level, j = key
        left, right = (level + 1, 2 * j), (level + 1, 2 * j + 1)
        node_l, node_r = self.nodes.get(left), self.nodes.get(right)
        self.counters.intersections += (node_l is not None) + (node_r is not None)
        and_l = node_l is not None and node_l.popcount() < self.m
        and_r = node_r is not None and node_r.popcount() < self.m
        t_l = t_r = self.t1
        if and_l or and_r:
            rows, counts, row_l, row_r = self._buffers[and_l + and_r - 1]
            if and_l:
                np.bitwise_and(node_l.words, self.words, out=row_l)
            if and_r:
                np.bitwise_and(node_r.words, self.words, out=row_r)
            t_ands = self.popcounts(rows, counts)
            if and_l:
                t_l = t_ands[0]
            if and_r:
                t_r = t_ands[-1]
        est_l = None if node_l is None else self.kept(node_l, t_l)
        est_r = None if node_r is None else self.kept(node_r, t_r)
        if est_r is None:
            move = ((), None) if est_l is None else ((left,), None)
        elif est_l is None:
            move = (right,), None
        elif est_l == est_r == self.threshold:
            move = (right, left), None
        else:
            move = (right, left), self._left_probability(est_l, est_r)
        self[key] = move
        return move


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
        family.check_namespace(plan.namespace_size)
        if plan.leaf_size < 1:
            raise ValueError(f"plan's leaf width {plan.leaf_size} is below 1")
        if plan.padded_size < plan.namespace_size:
            raise ValueError(f"plan's leaves cover [0, {plan.padded_size}), "
                             f"not the namespace [0, {plan.namespace_size})")
        self.plan = plan
        self.family = family
        self.nodes = nodes if nodes is not None else {}

    # construction ------------------------------------------------------

    def _build(self, js: np.ndarray, arrays) -> "BloomSampleTree":
        """Fill this empty tree over the ascending leaf indices ``js``, whose
        elements ``arrays`` yields in the same order, and return it; a parent
        exists where at least one of its children does.

        Leaves are filled in batches of as many rows as fit a bitmap of
        ``_BUILD_BATCH_BYTES``: one ``filter_rows`` call per batch, so one
        ``hash_many`` call per hash function, written into the rows of one
        leaf matrix.  Every element is hashed exactly once, into its leaf.
        Each level above is one OR of two gathered rows per parent, its
        first and last present child (the same row for an only child).
        Nodes are row views of their level's matrix.
        """
        plan, family = self.plan, self.family
        if not js.size:
            return self
        n_words = (plan.m + 63) // 64
        step = max(1, _BUILD_BATCH_BYTES // (64 * n_words))
        bitmap = np.empty(min(step, js.size) * 64 * n_words, dtype=bool)
        words = np.empty((js.size, n_words), dtype=np.uint64)
        arrays = iter(arrays)
        for start in range(0, js.size, step):
            batch = list(islice(arrays, step))
            words[start:start + len(batch)] = filter_rows(family, batch, bitmap)
        for level in range(plan.depth, -1, -1):
            if level < plan.depth:
                parents = js >> 1
                first = np.flatnonzero(np.diff(parents, prepend=-1))
                last = np.append(first[1:], js.size) - 1
                up = words[first]
                words = np.bitwise_or(up, words[last], out=up)
                js = parents[first]
            nodes = BloomFilter._row_views(family, plan.namespace_size, words)
            self.nodes.update(zip(zip(repeat(level), js.tolist()), nodes))
        return self

    @classmethod
    def build_full(cls, plan: TreePlan, family) -> "BloomSampleTree":
        """Complete tree; node (i, j) stores every namespace element of its range."""
        tree = cls(plan, family)  # checks the plan before anything is allocated
        M, width = plan.namespace_size, plan.leaf_size
        return tree._build(np.arange(1 << plan.depth), (
            np.arange(j * width, min((j + 1) * width, M), dtype=np.int64)
            for j in range(1 << plan.depth)))

    @classmethod
    def build_pruned(cls, plan: TreePlan, family, occupied) -> "BloomSampleTree":
        """Materialize only nodes whose range holds occupied elements.

        ``occupied`` passes through ``check_elements``, so a value that is
        not an integer or lies outside [0, M) raises ValueError.
        """
        tree = cls(plan, family)
        occ = np.sort(check_elements(occupied, plan.namespace_size))
        occ = occ[np.diff(occ, prepend=-1) > 0]  # drop repeats; cheaper than np.unique
        # leaf boundaries come from the data, so a sparse namespace costs O(n)
        leaf = occ // plan.leaf_size
        starts = np.flatnonzero(np.diff(leaf, prepend=-1))
        return tree._build(leaf[starts], np.split(occ, starts[1:]))

    def insert(self, x: int) -> None:
        """Add one occupied element, creating missing path nodes.

        Hashes x once into its k word masks, then ORs those (at most k
        words) into the leaf and each of its depth ancestors, with one
        ``insert_masks`` call over the whole path.  ``x`` passes
        through ``check_element``, so 2.0 is 2 and 2.5 raises ValueError.
        """
        x = check_element(x, self.plan.namespace_size)
        depth, leaf = self.plan.depth, x // self.plan.leaf_size
        path = []
        for level in range(depth + 1):
            key = (level, leaf >> (depth - level))
            node = self.nodes.get(key)
            if node is None:
                node = self.nodes[key] = BloomFilter(self.family, self.plan.namespace_size)
            path.append(node)
        insert_masks(path, word_masks(self.family, x))

    # geometry ----------------------------------------------------------

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

    def verify(self) -> None:
        """Check that every non-leaf node equals the OR of its present children.

        Runs level by level over stacked words, in the batches that
        ``reconstruct`` uses, and raises ``ValueError`` naming the first bad
        ``(level, j)``.  ``from_bytes`` does not call it; the CLI does.
        """
        zero = np.zeros((self.plan.m + 63) // 64, dtype=np.uint64)
        words = {key: node.words for key, node in self.nodes.items()}
        levels: dict = {}
        for level, j in sorted(self.nodes):
            levels.setdefault(level, []).append(j)
        for level in range(self.plan.depth):
            for js in self._batches(levels.get(level, [])):
                # an absent child reads as the shared zero row
                ors = _gather([words.get((level + 1, 2 * j), zero) for j in js])
                ors |= _gather([words.get((level + 1, 2 * j + 1), zero) for j in js])
                parents = _gather([words[(level, j)] for j in js])
                bad = np.flatnonzero((ors != parents).any(axis=1))
                if bad.size:
                    raise ValueError(f"tree node {(level, js[bad[0]])} "
                                     "is not the OR of its children")

    def _batches(self, items: list):
        """Consecutive runs of ``items`` (one per node) short enough that the
        nodes' stacked words fit in ``_STACK_BYTES``."""
        step = max(1, _STACK_BYTES // (8 * ((self.plan.m + 63) // 64)))
        for start in range(0, len(items), step):
            yield items[start:start + step]

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
        return self.sample_many(query, 1, threshold=threshold, rng=rng)[0]

    def sample_many(self, query: BloomFilter, r: int, with_replacement: bool = True,
                    threshold: float = DEFAULT_THRESHOLD, rng=None) -> list[SampleOutcome]:
        """Draw r elements in one batch, sharing moves and leaf scans
        between paths.

        Each path is one depth-first descent over a stack of ``(level, j)``
        keys, which starts as the root's move, the move of ``(-1, 0)``.  A
        parent pushes the children of its move, read from one ``_Moves``
        table per call, flipped when its coin sends the right one first, so
        a dead end backtracks into the sibling.  A leaf yields a uniform
        pick among its positives.  ``reconstruct`` prunes by the same table,
        so a path reaches only leaves that it scans at the same threshold.
        Each move and each leaf scan is computed once per call, and counted
        in the counters of the path that computed it.  Without replacement,
        a drawn element leaves its leaf's positives, and the first path
        after a draw that finds nothing, having walked every reachable node,
        ends the call: the list may be short, and ``rng`` advances no
        further.
        """
        try:
            r = operator.index(r)
        except TypeError:
            raise ValueError(f"r must be an integer, got {r!r}") from None
        if r < 1:
            raise ValueError("r must be >= 1")
        moves = _Moves(self, query, threshold)
        rng = np.random.default_rng(rng)
        depth, width, M = self.plan.depth, self.plan.leaf_size, self.plan.namespace_size
        hits_of: dict = {}  # leaf j -> membership-positive elements of its range not yet drawn
        outcomes = []
        for _ in range(r):
            moves.counters = counters = OpCounters()
            element, visited = None, 0
            stack = list(moves[(-1, 0)][0])
            while stack:
                key = stack.pop()
                visited += 1
                level, j = key
                if level == depth:
                    hits = hits_of.get(j)
                    if hits is None:
                        lo, hi = j * width, min((j + 1) * width, M)
                        hits = hits_of[j] = query.scan([(lo, hi)])
                        counters.membership_queries += max(0, hi - lo)
                        counters.leaves_scanned += 1
                    if hits.size:
                        i = rng.integers(hits.size)
                        element = int(hits[i])
                        if not with_replacement:
                            hits_of[j] = np.delete(hits, i)
                        break
                    continue
                children, p = moves[key]
                if p is None or rng.random() < p:
                    stack += children
                else:
                    stack += children[::-1]
            if element is None and outcomes and outcomes[-1].element is not None:
                break  # only without replacement: every reachable positive is drawn
            counters.nodes_visited = visited
            outcomes.append(SampleOutcome(element, counters))
        return outcomes

    def reconstruct(self, query: BloomFilter,
                    threshold: float = DEFAULT_THRESHOLD) -> tuple[np.ndarray, OpCounters]:
        """All membership-positive elements reachable through the tree, ascending.

        Walks the tree one level at a time: the present nodes of the
        frontier get a stacked AND plus popcount against the query (in
        batches of at most ``_STACK_BYTES`` of words), a
        node whose AND is empty or whose estimate is below ``threshold`` is
        pruned (``_Moves.kept``), and the children of the rest form the
        next frontier.  The
        surviving leaves are then scanned as one list of ranges.

        With threshold 0 only an empty AND prunes a node, and:

        - every occupied positive (an element the tree holds that the query
          contains) is returned, since its bits are set in every node of
          its path and in the query;
        - the result is exactly the dictionary scan (DA) of the leaves
          scanned.  On a pruned tree that is a subset of DA over the tree's
          leaves: a leaf that shares no bit with the query is skipped even
          where its range holds positives the tree does not hold;
        - on a full tree, which holds every element, the result equals DA.

        A threshold <= 0 computes no estimate and no popcount: a node's AND
        is tested on its first ``_PREFIX_WORDS`` words, and on the rest only
        where those are empty; a query that sets no bit in those words has
        every full row tested at once, since each prefix AND would be empty.
        """
        moves, counters, plan = _Moves(self, query, threshold), OpCounters(), self.plan
        prefix = _PREFIX_WORDS if query.words[:_PREFIX_WORDS].any() else 0
        frontier = [0]
        for level in range(plan.depth + 1):
            if level:
                frontier = [c for j in frontier for c in (2 * j, 2 * j + 1)]
            present = [(j, self.nodes[(level, j)]) for j in frontier
                       if (level, j) in self.nodes]
            if not present:
                return np.empty(0, dtype=np.int64), counters
            counters.intersections += len(present)
            counters.nodes_visited += len(present)
            frontier = []
            for batch in self._batches(present):
                if moves.threshold <= 0:
                    # ``kept`` at 0: an estimate is >= 0, -0.0 or inf, so only
                    # an empty AND prunes
                    hit = _ands_nonempty([node.words for _, node in batch], query.words,
                                         prefix)
                    frontier += [j for (j, _), h in zip(batch, hit) if h]
                    continue
                stack = _gather([node.words for _, node in batch])
                np.bitwise_and(stack, query.words, out=stack)
                t_and = moves.popcounts(stack)
                frontier += [j for (j, node), t in zip(batch, t_and)
                             if moves.kept(node, t) is not None]
        M, width = plan.namespace_size, plan.leaf_size
        ranges = [(j * width, min((j + 1) * width, M)) for j in frontier]
        counters.leaves_scanned = len(ranges)
        counters.membership_queries = sum(max(0, hi - lo) for lo, hi in ranges)
        return query.scan(ranges), counters

    # serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """v2 layout: header, plan, family, node count, (level, j) index, words blob.

        Every node that a build, a load or ``insert`` makes shares the
        tree's family object and holds one contiguous little-endian row, so
        for it the family test is one identity check and the join copies
        its words straight into the output; other words are first copied
        into such a row.  A node whose filter has another hash family than
        the tree (another m included) raises ValueError naming its
        ``(level, j)``: its file would fail to load, or load it under the
        tree's family.
        """
        keys = sorted(self.nodes)
        family, rows = self.family, []
        for key in keys:
            node = self.nodes[key]
            if node.family is not family and node.family != family:
                what = (f"m = {node.m}, not the tree's m = {family.m}" if node.m != family.m
                        else "another hash family than the tree")
                raise ValueError(f"tree node {key} has {what}")
            rows.append(np.ascontiguousarray(node.words, _WORD))
        return b"".join([_MAGIC, bytes([_VERSION]), self.plan.to_bytes(),
                         family.to_bytes(), struct.pack("<Q", len(keys)),
                         np.array(keys, dtype=_INDEX_ENTRY).tobytes(), *rows])

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomSampleTree":
        """Parse a v2 tree; any malformed or truncated input raises ValueError,
        and input cut at any length raises it as a truncated tree file.

        No words are copied: each node's words are one row of a read-only
        view of ``data``, which the tree keeps alive, and a node copies its
        own row on its first write (``insert``).  Input that is not
        ``bytes`` is copied once, so later edits to it cannot reach the tree.
        """
        if not isinstance(data, bytes):
            data = bytes(data)
        if not _MAGIC.startswith(data[:4]):  # a cut magic is truncated
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
        size = offset + count * (_INDEX_ENTRY.itemsize + 8 * n_words)
        if len(data) < size:
            raise ValueError("truncated tree file")
        if len(data) > size:
            raise ValueError("tree file size does not match its node count")
        entries = np.frombuffer(data, _INDEX_ENTRY, count, offset)
        words = np.frombuffer(data, _WORD, count * n_words, offset + entries.nbytes)
        words = words.reshape(count, n_words)
        _check_index(entries["level"], entries["j"], plan.depth)
        keys = list(zip(entries["level"].tolist(), entries["j"].tolist()))
        bad = np.flatnonzero(words[:, -1] & tail_mask(plan.m))
        if bad.size:
            raise ValueError(f"tree node {keys[bad[0]]} sets a bit at or past m = {plan.m}")
        # the tree has checked the namespace, and the file size fixes the row width
        tree.nodes = dict(zip(keys, BloomFilter._row_views(family, plan.namespace_size,
                                                           words)))
        return tree

    def save(self, path) -> None:
        """Write ``to_bytes()`` to ``path``; the bytes are made before the file
        is opened, so a tree that the writer rejects leaves it untouched."""
        data = self.to_bytes()
        with open(path, "wb") as fh:
            fh.write(data)

    @classmethod
    def load(cls, path) -> "BloomSampleTree":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
