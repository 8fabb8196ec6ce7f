"""Tests for the closed-form estimators and diagnostic bounds."""
import math

import numpy as np
import pytest

from bloomsampletree.bloom import BloomFilter, build_filter
from bloomsampletree.estimate import (
    fp_probability,
    population_estimate,
    intersection_estimate_counts,
    fso_probability,
    uniformity_epsilon,
    uniformity_f,
    sample_visit_bound,
    reconstruct_visit_bound,
    critical_depth,
)
from bloomsampletree.hashing import FamilyKind, make_family


class TestFpProbability:
    def test_empty_set(self):
        assert fp_probability(10**4, 3, 0) == 0.0

    def test_frozen_value(self):
        assert fp_probability(10**4, 3, 10**3) == pytest.approx(0.0174105865, abs=1e-9)

    def test_decreasing_in_m(self):
        vals = [fp_probability(m, 3, 1000) for m in (10**3, 10**4, 10**5, 10**6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6

    def test_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = fp_probability(int(rng.integers(1, 10**6)), int(rng.integers(1, 8)),
                               int(rng.integers(0, 10**6)))
            assert 0.0 <= p <= 1.0

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            fp_probability(0, 3, 10)


class TestPopulationEstimate:
    def test_empty_filter(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 100, seed=0)
        assert population_estimate(BloomFilter(fam, 10)) == 0.0

    def test_one_zero_bit_closed_form(self):
        # m=10, k=1, 9 zero bits: ln(0.9)/ln(0.9) = 1
        fam = make_family(FamilyKind.MURMUR3, 1, 10, seed=0)
        f = BloomFilter(fam, 10)
        f.words[0] = 1
        f._popcount = None
        assert population_estimate(f) == pytest.approx(1.0)

    def test_saturated_is_infinite(self):
        fam = make_family(FamilyKind.MURMUR3, 1, 64, seed=0)
        f = BloomFilter(fam, 10)
        f.words[:] = ~np.uint64(0)
        assert population_estimate(f) == math.inf

    def test_concentration(self):
        # |estimate - n| <= eps(m) * n in at least 95 of 100 trials
        m, n, k = 60870, 1000, 3
        eps = uniformity_epsilon(m, n, k)
        rng = np.random.default_rng(1)
        hits = 0
        for trial in range(100):
            fam = make_family(FamilyKind.MURMUR3, k, m, seed=trial)
            f = build_filter(fam, 10**6, rng.choice(10**6, size=n, replace=False))
            if abs(population_estimate(f) - n) <= eps * n:
                hits += 1
        assert hits >= 95

    def test_monotone_under_insert(self):
        rng = np.random.default_rng(2)
        fam = make_family(FamilyKind.MURMUR3, 3, 512, seed=5)
        f = BloomFilter(fam, 10**5)
        prev = 0.0
        for x in rng.integers(0, 10**5, size=200):
            f.insert(int(x))
            cur = population_estimate(f)
            assert cur >= prev - 1e-12
            prev = cur


def _estimate(f1, f2) -> float:
    """Estimated |A ∩ B| of two filters, from their popcounts and their AND's."""
    t_and = int(np.bitwise_count(f1.words & f2.words).sum())
    return intersection_estimate_counts(f1.m, f1.family.k, f1.popcount(), f2.popcount(), t_and)


class TestIntersectionEstimate:
    def setup_method(self):
        self.fam = make_family(FamilyKind.MURMUR3, 3, 10**4, seed=3)

    def test_zero_filter_gives_zero(self):
        f1 = build_filter(self.fam, 10**5, range(100))
        f2 = BloomFilter(self.fam, 10**5)
        assert _estimate(f1, f2) == 0.0

    def test_self_intersection_near_population(self):
        rng = np.random.default_rng(4)
        f = build_filter(self.fam, 10**6, rng.choice(10**6, size=100, replace=False))
        est = _estimate(f, f)
        assert est == pytest.approx(100, rel=0.15)

    def test_disjoint_sets_below_half(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 10**5, seed=6)
        rng = np.random.default_rng(7)
        low = 0
        for _ in range(200):
            pool = rng.choice(10**6, size=20, replace=False)
            f1 = build_filter(fam, 10**6, pool[:10])
            f2 = build_filter(fam, 10**6, pool[10:])
            if _estimate(f1, f2) < 0.5:
                low += 1
        assert low >= 198

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            f1 = build_filter(self.fam, 10**6, rng.choice(10**6, size=50))
            f2 = build_filter(self.fam, 10**6, rng.choice(10**6, size=80))
            assert _estimate(f1, f2) == pytest.approx(_estimate(f2, f1), abs=1e-9)

    def test_zero_and_count_short_circuit(self):
        assert intersection_estimate_counts(100, 3, 40, 50, 0) == 0.0

    def test_negative_raw_clamps_to_zero(self):
        # t_and * m < t1 * t2 with positive denominator drives raw below 0
        assert intersection_estimate_counts(100, 3, 60, 30, 1) == 0.0

    def test_saturated_partner_gives_population_estimate(self):
        m, k, t1 = 1000, 3, 120
        expect = math.log((m - t1) / m) / (k * math.log(1 - 1 / m))
        assert intersection_estimate_counts(m, k, t1, m, t1) == pytest.approx(expect)
        assert intersection_estimate_counts(m, k, m, t1, t1) == pytest.approx(expect)

    def test_both_saturated_is_infinite(self):
        assert intersection_estimate_counts(100, 3, 100, 100, 100) == math.inf

    def test_never_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            m = int(rng.integers(10, 1000))
            t1 = int(rng.integers(0, m + 1))
            t2 = int(rng.integers(0, m + 1))
            t_and = int(rng.integers(0, min(t1, t2) + 1))
            est = intersection_estimate_counts(m, 3, t1, t2, t_and)
            assert est >= 0.0


class TestFsoProbability:
    def test_empty_side(self):
        assert fso_probability(1000, 3, 0, 10) == 0.0

    def test_frozen_value(self):
        assert fso_probability(1000, 3, 10, 10) == pytest.approx(0.59361338, abs=1e-7)

    def test_monotone_in_product(self):
        vals = [fso_probability(1000, 3, s, 10) for s in (1, 5, 10, 50)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_in_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            p = fso_probability(int(rng.integers(2, 10**6)), int(rng.integers(1, 8)),
                                int(rng.integers(0, 10**4)), int(rng.integers(0, 10**4)))
            assert 0.0 <= p <= 1.0


class TestUniformityEpsilon:
    def test_frozen_value(self):
        assert uniformity_epsilon(60870, 1000, 3) == pytest.approx(0.0057368, abs=1e-4)

    def test_strictly_decreasing_in_m(self):
        vals = [uniformity_epsilon(m, 1000, 3) for m in (10**4, 10**5, 10**6, 10**8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_sublinear_in_n(self):
        for n in (100, 400, 1600, 6400, 10**4):
            assert uniformity_epsilon(60870, 4 * n, 3) < 2.2 * uniformity_epsilon(60870, n, 3)

    def test_diagnostic_f(self):
        f = uniformity_f(60870, 1000, 3, 10**6, 1953)
        assert f == pytest.approx(2 * uniformity_epsilon(60870, 1000, 3)
                                  * math.log2(10**6 / 1953))


class TestVisitBounds:
    def test_zero_height_tree(self):
        assert sample_visit_bound(10**4, 10**4, 60870, 3, 1000) == pytest.approx(
            10**4 * 9 * 1000 / 60870)

    def test_frozen_value(self):
        assert sample_visit_bound(10**6, 1953, 60870, 3, 1000) == pytest.approx(
            147865.09, abs=0.5)

    def test_decreasing_in_m(self):
        for bound in (sample_visit_bound, reconstruct_visit_bound):
            vals = [bound(10**6, 1953, m, 3, 1000) for m in (10**4, 10**5, 10**6)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_critical_depth_value(self):
        d = critical_depth(10**6, 60870, 3, 1000)
        assert d == pytest.approx(math.log2(10**6 * 9 * 1000 / (60870 * math.log(2))))
