"""Query-set generators, uniformity testing, and benchmark sweeps.

The chi-squared p-value is computed from the regularized upper
incomplete gamma function implemented here directly (series plus
continued fraction), so the library carries no statistics dependency;
tests validate it against brute-force numerical integration.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import astuple, dataclass, field
from typing import Iterable, Optional

import numpy as np

from .bloom import BloomFilter, build_filter
from .bst import (BloomSampleTree, OpCounters, plan_from_accuracy, DEFAULT_COST_RATIO,
                  DEFAULT_THRESHOLD, _check_threshold)
from .hashing import FAMILY_NAMES, FamilyKind, make_family
from .baselines import ALGORITHMS

__all__ = [
    "gen_uniform",
    "gen_clustered",
    "ClusteredSampler",
    "ChiSquaredReport",
    "chi_squared_uniformity",
    "measured_accuracy",
    "calibrate_cost_ratio",
    "SweepConfig",
    "BenchRecord",
    "run_sweep",
    "write_csv",
    "CSV_HEADER",
]


# ---------------------------------------------------------------------------
# query set generation

def gen_uniform(namespace_size: int, n: int, rng=None) -> np.ndarray:
    """n distinct elements of [0, M), uniform without replacement."""
    if not 0 <= n <= namespace_size:
        raise ValueError(f"need 0 <= n <= M, got n = {n} and M = {namespace_size}")
    rng = np.random.default_rng(rng)
    if n == namespace_size:
        return np.arange(namespace_size, dtype=np.int64)
    if n * 20 >= namespace_size:
        return np.sort(rng.permutation(namespace_size)[:n]).astype(np.int64)
    chosen: set = set()
    while len(chosen) < n:
        batch = rng.integers(0, namespace_size, size=n - len(chosen))
        chosen.update(int(x) for x in batch)
    return np.sort(np.fromiter(chosen, dtype=np.int64, count=n))


class _Fenwick:
    """Binary indexed tree over float weights with prefix-search."""

    def __init__(self, values: np.ndarray):
        self.n = len(values)
        # node i covers (i - lowbit(i), i], read off the prefix sums; a list,
        # since the per-element walks below index numpy scalars slowly
        c = np.concatenate([[0.0], np.cumsum(values, dtype=np.float64)])
        i = np.arange(1, self.n + 1)
        self.tree = [0.0] + (c[i] - c[i - (i & -i)]).tolist()

    def update(self, i: int, delta: float) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & -i

    def prefix(self, i: int) -> float:
        """Sum of values[0..i]."""
        i += 1
        s = 0.0
        while i > 0:
            s += self.tree[i]
            i -= i & -i
        return s

    def total(self) -> float:
        return self.prefix(self.n - 1)

    def find(self, target: float) -> int:
        """Smallest index with prefix >= target."""
        pos = 0
        bit = 1 << (self.n.bit_length())
        while bit:
            nxt = pos + bit
            if nxt <= self.n and self.tree[nxt] < target:
                target -= self.tree[nxt]
                pos = nxt
            bit >>= 1
        return min(pos, self.n - 1)


class ClusteredSampler:
    """Iterative draws from an evolving pdf that piles mass onto neighbors.

    Starts uniform over [0, M).  After drawing s, its mass moves equally
    to the nearest still-alive neighbors x < s < y, and additionally
    p percent of every remaining element's mass is skimmed off and split
    between x and y, pulling later draws toward earlier ones.  The
    global skim is applied lazily through a scale factor, so each draw
    costs O(log M).

    When s has a single alive neighbor, that neighbor receives
    everything; when it has none (the final possible draw) the mass is
    dropped.  Elements whose mass already reached zero take no part in
    the skim.
    """

    def __init__(self, namespace_size: int, p: float = 10.0, rng=None):
        if namespace_size < 1:
            raise ValueError("namespace must be non-empty")
        if not 0.0 <= p < 100.0:
            raise ValueError("p is a percentage in [0, 100)")
        self.q = p / 100.0
        self.rng = np.random.default_rng(rng)
        self.scale = 1.0
        # raw[i] mirrors the Fenwick's value i; pdf(i) = raw[i] * scale
        self.raw = np.full(namespace_size, 1.0 / namespace_size)
        self.weights = _Fenwick(self.raw)
        self.alive = _Fenwick(np.ones(namespace_size))
        self.alive_count = namespace_size

    def pdf(self) -> np.ndarray:
        return self.raw * self.scale

    def _add(self, i: int, delta: float) -> None:
        self.raw[i] += delta
        self.weights.update(i, delta)

    def _neighbor_below(self, s: int) -> Optional[int]:
        rank = self.alive.prefix(s - 1) if s else 0.0
        if rank < 0.5:
            return None
        return self.alive.find(rank)

    def _neighbor_above(self, s: int) -> Optional[int]:
        before = self.alive.prefix(s)
        if self.alive.total() - before < 0.5:
            return None
        return self.alive.find(before + 0.5)

    def _renormalize(self) -> None:
        self.raw *= self.scale
        self.weights = _Fenwick(self.raw)
        self.scale = 1.0

    def draw(self) -> int:
        if self.alive_count == 0:
            raise RuntimeError("pdf exhausted")
        target = self.rng.random() * self.weights.total()
        s = self.weights.find(target)
        if self.raw[s] <= 0.0:
            # float boundary landed on a dead element; take an alive neighbor
            alt = self._neighbor_above(s)
            s = alt if alt is not None else self._neighbor_below(s)
        raw = float(self.raw[s])
        mass = raw * self.scale
        self._add(s, -raw)
        self.alive.update(s, -1.0)
        self.alive_count -= 1
        x = self._neighbor_below(s)
        y = self._neighbor_above(s)
        targets = [t for t in (x, y) if t is not None]
        if targets:
            for t in targets:
                self._add(t, mass / len(targets) / self.scale)
            if self.q > 0.0:
                pool = self.q * self.weights.total() * self.scale
                self.scale *= 1.0 - self.q
                for t in targets:
                    self._add(t, pool / len(targets) / self.scale)
        if self.scale < 1e-120:
            self._renormalize()
        return s


def gen_clustered(namespace_size: int, n: int, p: float = 10.0, rng=None) -> np.ndarray:
    """n distinct elements with locality: draws cluster around earlier ones."""
    if not 0 <= n <= namespace_size:
        raise ValueError(f"need 0 <= n <= M, got n = {n} and M = {namespace_size}")
    sampler = ClusteredSampler(namespace_size, p, rng)
    return np.fromiter((sampler.draw() for _ in range(n)), dtype=np.int64, count=n)


# ---------------------------------------------------------------------------
# chi-squared uniformity

REJECT_AT = 0.08


@dataclass
class ChiSquaredReport:
    q_statistic: float
    degrees_of_freedom: int
    p_value: float

    @property
    def rejected(self) -> bool:
        return self.p_value < REJECT_AT


def _gamma_p_series(a: float, x: float) -> float:
    """Lower regularized gamma by power series (x < a + 1)."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(10000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a: float, x: float) -> float:
    """Upper regularized gamma by Lentz continued fraction (x >= a + 1)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))

def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a)."""
    if a <= 0.0 or x < 0.0:
        raise ValueError("need a > 0 and x >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return max(0.0, 1.0 - _gamma_p_series(a, x))
    return _gamma_q_contfrac(a, x)


def chi_squared_uniformity(observed: Iterable[int]) -> ChiSquaredReport:
    """Pearson test of per-element counts against the uniform expectation."""
    o = np.asarray(list(observed) if not isinstance(observed, np.ndarray)
                   else observed, dtype=np.float64)
    n = o.size
    total = o.sum()
    if n < 2:
        raise ValueError("need at least two cells")
    if total <= 0:
        raise ValueError("need at least one observation")
    e = total / n
    q = float(((o - e) ** 2 / e).sum())
    df = n - 1
    p = regularized_gamma_q(df / 2.0, q / 2.0)
    return ChiSquaredReport(q, df, p)


def measured_accuracy(samples: Iterable[int], true_set) -> float:
    """Fraction of samples that are genuine members of the original set."""
    samples = list(samples)
    if not samples:
        raise ValueError("no samples")
    members = set(int(x) for x in np.asarray(true_set).ravel()) \
        if not isinstance(true_set, set) else true_set
    return sum(1 for s in samples if s in members) / len(samples)


# ---------------------------------------------------------------------------
# cost calibration

def calibrate_cost_ratio(m: int, k: int, trials: int = 50, rng=None) -> float:
    """Measured ratio: cost of one m-bit intersection over one membership probe.

    Times AND + popcount of random word arrays against a leaf scan, a
    ``scan`` of a contiguous 4,096-element range of a filter, both at
    realistic operand sizes, and returns the ratio of median per-operation
    times (per element scanned).  One untimed scan first unpacks the
    filter's bits, so each timed scan probes an unpacked filter, as a
    tree's leaf scans do after the first on a query.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng)
    n_words = (m + 63) // 64
    a = rng.integers(0, 1 << 63, size=n_words).astype(np.uint64)
    b = rng.integers(0, 1 << 63, size=n_words).astype(np.uint64)
    inter_times = []
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        int(np.bitwise_count(a & b).sum())
        inter_times.append(time.perf_counter_ns() - t0)
    family = make_family(FamilyKind.SIMPLE_LINEAR, k, m, seed=1)
    width = 4096
    namespace = max(m * 8, 2 * width)
    flt = BloomFilter(family, namespace)
    flt.insert_many(rng.integers(0, namespace, size=min(1000, m)))
    lo = int(rng.integers(0, namespace - width))
    flt.scan([(lo, lo + width)])
    member_times = []
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        flt.scan([(lo, lo + width)])
        member_times.append((time.perf_counter_ns() - t0) / width)
    ratio = float(np.median(inter_times) / max(np.median(member_times), 1e-9))
    return max(ratio, 1e-9)


# ---------------------------------------------------------------------------
# benchmark sweeps

CSV_HEADER = "algorithm,M,n,accuracy,family,shape,intersections,membership,nodes,time_ns,trials"

# query shape -> generator(M, n, p, rng) of an n-element query set
SHAPES = {
    "uniform": lambda namespace_size, n, p, rng: gen_uniform(namespace_size, n, rng),
    "clustered": gen_clustered,
}


@dataclass
class SweepConfig:
    """One benchmark grid; every list axis is swept as a cross product."""

    algorithms: list = field(default_factory=lambda: ["bst", "da"])
    namespace_sizes: list = field(default_factory=lambda: [100000])
    set_sizes: list = field(default_factory=lambda: [1000])
    accuracies: list = field(default_factory=lambda: [0.9])
    families: list = field(default_factory=lambda: ["simple"])
    shapes: list = field(default_factory=lambda: ["uniform"])
    k: int = 3
    cost_ratio: float = DEFAULT_COST_RATIO
    threshold: float = DEFAULT_THRESHOLD
    trials: int = 100
    master_seed: int = 20260823
    clustering_percent: float = 10.0

    # config key -> (field, value type); a list field takes a comma-separated list
    KEYS = {
        "algorithms": ("algorithms", str),
        "M": ("namespace_sizes", int),
        "n": ("set_sizes", int),
        "accuracy": ("accuracies", float),
        "families": ("families", str),
        "shapes": ("shapes", str),
        "k": ("k", int),
        "cost_ratio": ("cost_ratio", float),
        "threshold": ("threshold", float),
        "trials": ("trials", int),
        "seed": ("master_seed", int),
        "p": ("clustering_percent", float),
    }

    @classmethod
    def parse(cls, text: str) -> "SweepConfig":
        """Read the plain-text key/value format shown in README.md's CLI quick start."""
        cfg = cls()
        version = None
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, value = line.partition("=")
            else:
                key, _, value = line.partition(" ")
            key, value = key.strip(), value.strip()
            if key == "version":
                version = value
                continue
            if key not in cls.KEYS:
                raise ValueError(f"unknown sweep config key: {key!r}")
            name, kind = cls.KEYS[key]
            if isinstance(getattr(cfg, name), list):
                setattr(cfg, name, [kind(v.strip()) for v in value.split(",")])
            else:
                setattr(cfg, name, kind(value))
        if version is None:
            raise ValueError("sweep config must declare a version")
        if version != "1":
            raise ValueError(f"unsupported sweep config version {version!r}")
        return cfg


@dataclass
class BenchRecord:
    algorithm: str
    namespace_size: int
    n: int
    accuracy: float
    family: str
    shape: str
    intersections: float
    membership: float
    nodes: float
    time_ns: float
    trials: int

    def csv_row(self) -> str:
        return ",".join(map(str, astuple(self)))


def run_sweep(config: SweepConfig) -> list[BenchRecord]:
    """Run every cell of the grid and return averaged counters per cell.

    Deterministic for a fixed config: cell index i uses a generator
    seeded with master_seed xor i, and trees are cached per
    (M, n, accuracy, family), the inputs of their plan and family, so
    repeated cells share one build.
    """
    for axis, names, known in (("algorithm", config.algorithms, ALGORITHMS),
                               ("family", config.families, FAMILY_NAMES),
                               ("shape", config.shapes, SHAPES)):
        for name in names:
            if name not in known:
                raise ValueError(f"unknown {axis} {name!r}")
    if "hi" in config.algorithms:
        for name in config.families:
            if FAMILY_NAMES[name] != FamilyKind.SIMPLE_LINEAR:
                raise ValueError(f"algorithm 'hi' needs the simple family, not {name!r}")
    if config.trials < 1:
        raise ValueError(f"trials must be >= 1, got {config.trials}")
    # an empty draw of each shape checks its parameters, such as p, before any build
    for shape in config.shapes:
        SHAPES[shape](1, 0, config.clustering_percent, None)
    if "bst" in config.algorithms:
        _check_threshold(config.threshold)
    records = []
    tree_cache: dict = {}
    cells = list(itertools.product(config.algorithms, config.namespace_sizes,
                                   config.set_sizes, config.accuracies,
                                   config.families, config.shapes))
    # every cell is planned before any is run, so a cell the planner rejects
    # fails the sweep before it builds a tree
    plans = {(M, n, acc): plan_from_accuracy(acc, n, M, config.k, config.cost_ratio)
             for _, M, n, acc, _, _ in cells}
    for idx, (algo, M, n, acc, fam_name, shape) in enumerate(cells):
        rng = np.random.default_rng(config.master_seed ^ idx)
        kind = FAMILY_NAMES[fam_name]
        plan = plans[(M, n, acc)]
        cache_key = (M, n, acc, fam_name)
        family = make_family(kind, config.k, plan.m, seed=config.master_seed)
        if algo == "bst" and cache_key not in tree_cache:
            tree_cache[cache_key] = BloomSampleTree.build_full(plan, family)
        tree = tree_cache.get(cache_key)
        query_set = SHAPES[shape](M, n, config.clustering_percent, rng)
        query = build_filter(family, M, query_set)
        sample, _ = ALGORITHMS[algo]
        totals = OpCounters()
        t0 = time.perf_counter_ns()
        for _ in range(config.trials):
            out = sample(tree, query, M, config.threshold, rng)
            totals.merge(out.counters)
        elapsed = time.perf_counter_ns() - t0
        t = config.trials
        records.append(BenchRecord(algo, M, n, acc, fam_name, shape,
                                   totals.intersections / t,
                                   totals.membership_queries / t,
                                   totals.nodes_visited / t,
                                   elapsed / t, t))
    return records


def write_csv(records: list[BenchRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")
