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
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .bloom import BloomFilter, build_filter
from .bst import BloomSampleTree, OpCounters, plan_from_accuracy, DEFAULT_THRESHOLD
from .hashing import FAMILY_NAMES, FamilyKind, make_family
from . import baselines

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
    if n > namespace_size:
        raise ValueError("cannot draw more distinct elements than the namespace holds")
    rng = np.random.default_rng() if rng is None else rng
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
        self.tree = np.concatenate([[0.0], values.astype(np.float64)])
        for i in range(1, self.n + 1):
            j = i + (i & -i)
            if j <= self.n:
                self.tree[j] += self.tree[i]

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
        self.M = namespace_size
        self.q = p / 100.0
        self.rng = np.random.default_rng() if rng is None else rng
        self.scale = 1.0
        self.weights = _Fenwick(np.full(namespace_size, 1.0 / namespace_size))
        self.alive = _Fenwick(np.ones(namespace_size))
        self.alive_count = namespace_size

    # pdf(i) = weights[i] * scale
    def pdf(self) -> np.ndarray:
        w = np.array([self.weights.prefix(i) for i in range(self.M)])
        w = np.diff(np.concatenate([[0.0], w]))
        return w * self.scale

    def _raw(self, i: int) -> float:
        return self.weights.prefix(i) - (self.weights.prefix(i - 1) if i else 0.0)

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
        w = np.array([self.weights.prefix(i) for i in range(self.M)])
        w = np.diff(np.concatenate([[0.0], w])) * self.scale
        self.weights = _Fenwick(w)
        self.scale = 1.0

    def draw(self) -> int:
        if self.alive_count == 0:
            raise RuntimeError("pdf exhausted")
        target = self.rng.random() * self.weights.total()
        s = self.weights.find(target)
        if self._raw(s) <= 0.0:
            # float boundary landed on a dead element; take an alive neighbor
            alt = self._neighbor_above(s)
            s = alt if alt is not None else self._neighbor_below(s)
        mass = self._raw(s) * self.scale
        self.weights.update(s, -self._raw(s))
        self.alive.update(s, -1.0)
        self.alive_count -= 1
        x = self._neighbor_below(s)
        y = self._neighbor_above(s)
        targets = [t for t in (x, y) if t is not None]
        if targets:
            for t in targets:
                self.weights.update(t, mass / len(targets) / self.scale)
            if self.q > 0.0:
                pool = self.q * self.weights.total() * self.scale
                self.scale *= 1.0 - self.q
                for t in targets:
                    self.weights.update(t, pool / len(targets) / self.scale)
        if self.scale < 1e-120:
            self._renormalize()
        return s

    def total_mass(self) -> float:
        return self.weights.total() * self.scale


def gen_clustered(namespace_size: int, n: int, p: float = 10.0, rng=None) -> np.ndarray:
    """n distinct elements with locality: draws cluster around earlier ones."""
    if n > namespace_size:
        raise ValueError("cannot draw more distinct elements than the namespace holds")
    sampler = ClusteredSampler(namespace_size, p, rng)
    return np.fromiter((sampler.draw() for _ in range(n)), dtype=np.int64, count=n)


# ---------------------------------------------------------------------------
# chi-squared uniformity

@dataclass
class ChiSquaredReport:
    q_statistic: float
    degrees_of_freedom: int
    p_value: float
    reject_at: float = 0.08

    @property
    def rejected(self) -> bool:
        return self.p_value < self.reject_at


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


def chi_squared_uniformity(observed: Iterable[int],
                           reject_at: float = 0.08) -> ChiSquaredReport:
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
    return ChiSquaredReport(q, df, p, reject_at)


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

    Times AND + popcount of random word arrays against batched membership
    probes of a filter, both at realistic operand sizes, and returns the
    ratio of median per-operation times.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng() if rng is None else rng
    n_words = (m + 63) // 64
    a = rng.integers(0, 1 << 63, size=n_words).astype(np.uint64)
    b = rng.integers(0, 1 << 63, size=n_words).astype(np.uint64)
    inter_times = []
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        int(np.bitwise_count(a & b).sum())
        inter_times.append(time.perf_counter_ns() - t0)
    family = make_family(FamilyKind.SIMPLE_LINEAR, k, m, seed=1)
    flt = BloomFilter(family, m * 8)
    flt.insert_many(rng.integers(0, m * 8, size=min(1000, m)))
    batch = rng.integers(0, m * 8, size=4096).astype(np.int64)
    member_times = []
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        flt.contains_many(batch)
        member_times.append((time.perf_counter_ns() - t0) / batch.size)
    ratio = float(np.median(inter_times) / max(np.median(member_times), 1e-9))
    return max(ratio, 1e-9)


# ---------------------------------------------------------------------------
# benchmark sweeps

CSV_HEADER = "algorithm,M,n,accuracy,family,shape,intersections,membership,nodes,time_ns,trials"

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
    cost_ratio: float = 240.0
    threshold: float = DEFAULT_THRESHOLD
    trials: int = 100
    master_seed: int = 20260823
    clustering_percent: float = 10.0

    @classmethod
    def parse(cls, text: str) -> "SweepConfig":
        """Read the plain-text key/value format (see docs/README)."""
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
            elif key == "algorithms":
                cfg.algorithms = [v.strip() for v in value.split(",")]
            elif key == "M":
                cfg.namespace_sizes = [int(v) for v in value.split(",")]
            elif key == "n":
                cfg.set_sizes = [int(v) for v in value.split(",")]
            elif key == "accuracy":
                cfg.accuracies = [float(v) for v in value.split(",")]
            elif key == "families":
                cfg.families = [v.strip() for v in value.split(",")]
            elif key == "shapes":
                cfg.shapes = [v.strip() for v in value.split(",")]
            elif key == "k":
                cfg.k = int(value)
            elif key == "cost_ratio":
                cfg.cost_ratio = float(value)
            elif key == "threshold":
                cfg.threshold = float(value)
            elif key == "trials":
                cfg.trials = int(value)
            elif key == "seed":
                cfg.master_seed = int(value)
            elif key == "p":
                cfg.clustering_percent = float(value)
            else:
                raise ValueError(f"unknown sweep config key: {key!r}")
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
        return (f"{self.algorithm},{self.namespace_size},{self.n},{self.accuracy},"
                f"{self.family},{self.shape},{self.intersections},{self.membership},"
                f"{self.nodes},{self.time_ns},{self.trials}")


def _make_query_set(shape: str, namespace_size: int, n: int, p: float, rng):
    if shape == "uniform":
        return gen_uniform(namespace_size, n, rng)
    if shape == "clustered":
        return gen_clustered(namespace_size, n, p, rng)
    raise ValueError(f"unknown query-set shape {shape!r}")


def run_sweep(config: SweepConfig, progress=None) -> list[BenchRecord]:
    """Run every cell of the grid and return averaged counters per cell.

    Deterministic for a fixed config: cell index i uses a generator
    seeded with master_seed xor i, and trees are cached per
    (M, accuracy, family) so repeated cells share one build.
    """
    records = []
    tree_cache: dict = {}
    cells = list(itertools.product(config.algorithms, config.namespace_sizes,
                                   config.set_sizes, config.accuracies,
                                   config.families, config.shapes))
    for idx, (algo, M, n, acc, fam_name, shape) in enumerate(cells):
        rng = np.random.default_rng(config.master_seed ^ idx)
        kind = FAMILY_NAMES[fam_name]
        plan = plan_from_accuracy(acc, n, M, config.k, config.cost_ratio)
        cache_key = (M, n, acc, fam_name)
        if cache_key not in tree_cache:
            family = make_family(kind, config.k, plan.m, seed=config.master_seed)
            tree = (BloomSampleTree.build_full(plan, family)
                    if algo == "bst" else None)
            tree_cache[cache_key] = (family, tree)
        family, tree = tree_cache[cache_key]
        if algo == "bst" and tree is None:
            tree = BloomSampleTree.build_full(plan, family)
            tree_cache[cache_key] = (family, tree)
        query_set = _make_query_set(shape, M, n, config.clustering_percent, rng)
        query = build_filter(family, M, query_set)
        totals = OpCounters()
        t0 = time.perf_counter_ns()
        for _ in range(config.trials):
            if algo == "bst":
                out = tree.sample(query, config.threshold, rng)
            elif algo == "da":
                out = baselines.da_sample(M, query, rng)
            elif algo == "hi":
                out = baselines.hi_sample(query, M, rng)
            else:
                raise ValueError(f"unknown algorithm {algo!r}")
            totals.merge(out.counters)
        elapsed = time.perf_counter_ns() - t0
        t = config.trials
        records.append(BenchRecord(algo, M, n, acc, fam_name, shape,
                                   totals.intersections / t,
                                   totals.membership_queries / t,
                                   totals.nodes_visited / t,
                                   elapsed / t, t))
        if progress:
            progress(records[-1])
    return records


def write_csv(records: list[BenchRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")
