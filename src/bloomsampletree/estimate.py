"""Closed-form estimators and diagnostic bounds for Bloom filters.

Everything here is a pure function of bit counts and parameters.
Logarithms: the population / intersection estimators and the uniformity
epsilon use natural logs; tree-depth quantities use log base 2 (the tree
halves ranges per level).
"""
from __future__ import annotations

import math

from .bloom import BloomFilter

__all__ = [
    "fp_probability",
    "population_estimate",
    "intersection_estimate_counts",
    "fso_probability",
    "uniformity_epsilon",
    "uniformity_f",
    "sample_visit_bound",
    "reconstruct_visit_bound",
    "critical_depth",
]


def fp_probability(m: int, k: int, n: float) -> float:
    """False positive probability (1 - e^(-kn/m))^k of an (m, k) filter with n elements."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n <= 0:
        return 0.0
    return (1.0 - math.exp(-k * n / m)) ** k


def population_estimate(f: BloomFilter) -> float:
    """Estimated number of distinct elements from the zero-bit count.

    Returns 0 for an all-zero filter and +inf for a saturated one (a
    saturated filter intersects everything, so infinity is the safe
    sentinel for callers that rank intersections).
    """
    m = f.m
    z = m - f.popcount()
    if z == m:
        return 0.0
    if z == 0:
        return math.inf
    return math.log(z / m) / (f.family.k * math.log(1.0 - 1.0 / m))


def intersection_estimate_counts(m: int, k: int, t1: int, t2: int, t_and: int) -> float:
    """Estimated |A ∩ B| from set-bit counts of two filters and of their AND.

    Negative or non-finite raw values (possible near saturation, when
    t1 + t2 - t_and >= m) clamp to 0: such states only arise where
    treating the intersection as empty is the safe pruning answer.
    """
    if t_and == 0:
        return 0.0
    log_scale = k * math.log(1.0 - 1.0 / m)
    # A saturated filter intersects everything: the formula's limit as
    # t2 -> m (which forces t_and = t1) is the population estimate of
    # the other filter, and infinity when both are saturated.
    if t1 == m and t2 == m:
        return math.inf
    if t2 == m:
        return math.log((m - t1) / m) / log_scale
    if t1 == m:
        return math.log((m - t2) / m) / log_scale
    denom = m - t1 - t2 + t_and  # m - popcount(OR), never negative
    if denom == 0:
        return 0.0
    inner = m - (t_and * m - t1 * t2) / denom
    if inner <= 0.0:
        return math.inf
    raw = (math.log(inner) - math.log(m)) / log_scale
    if not math.isfinite(raw):
        return math.inf if raw > 0 else 0.0
    return max(raw, 0.0)


def fso_probability(m: int, k: int, s1: int, s2: int) -> float:
    """Probability that filters of two disjoint sets (sizes s1, s2) AND to non-empty."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if s1 <= 0 or s2 <= 0:
        return 0.0
    return 1.0 - (1.0 - 1.0 / m) ** (k * k * s1 * s2)


def uniformity_epsilon(m: int, n: int, k: int) -> float:
    """Relative deviation bound on leaf-selection probabilities.

    sqrt(2nk (ln m + ln ln m + ln n)) / m; decreasing in m, so bigger
    filters sample more uniformly.
    """
    if m < 2 or n < 2:
        raise ValueError("m and n must be >= 2")
    return math.sqrt(2.0 * n * k * (math.log(m) + math.log(math.log(m)) + math.log(n))) / m


def uniformity_f(m: int, n: int, k: int, namespace_size: int, leaf_size: int) -> float:
    """Diagnostic 2 * epsilon(m) * log2(M / M_bot); should be small for near-uniform sampling."""
    return 2.0 * uniformity_epsilon(m, n, k) * math.log2(namespace_size / leaf_size)


def sample_visit_bound(namespace_size: int, leaf_size: int, m: int, k: int, n: int) -> float:
    """Asymptotic bound on tree nodes visited per sampling call."""
    return math.log2(namespace_size / leaf_size) + namespace_size * k * k * n / m


def reconstruct_visit_bound(namespace_size: int, leaf_size: int, m: int, k: int, n: int) -> float:
    """Asymptotic bound on tree nodes visited by full reconstruction."""
    return n * (math.log2(namespace_size / leaf_size) + leaf_size * k * k / m)


def critical_depth(namespace_size: int, m: int, k: int, n: int) -> float:
    """Depth below which false-overlap branching is subcritical."""
    return math.log2(namespace_size * k * k * n / (m * math.log(2.0)))
