"""Tests for the dictionary-attack and hash-inversion reference algorithms."""
import numpy as np
import pytest
from scipy import stats

from bloomsampletree import bloom, hashing
from bloomsampletree.baselines import (
    _CHUNK,
    ReconstructionMode,
    da_sample,
    da_reconstruct,
    hi_sample,
    hi_reconstruct,
)
from bloomsampletree.bloom import BloomFilter, build_filter
from bloomsampletree.bst import OpCounters, SampleOutcome
from bloomsampletree.estimate import fp_probability
from bloomsampletree.hashing import FamilyKind, hash_many, make_family


class TestDaSample:
    def test_all_zero_filter(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 100, seed=0)
        out = da_sample(50, BloomFilter(fam, 50), rng=np.random.default_rng(0))
        assert out.element is None
        assert out.counters.membership_queries == 50

    def test_singleton(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 10**4, seed=1)
        q = build_filter(fam, 200, [5])
        out = da_sample(200, q, rng=np.random.default_rng(1))
        assert out.element == 5

    def test_integer_seed_as_rng(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 10**4, seed=1)
        q = build_filter(fam, 2000, np.arange(0, 2000, 7))
        for seed in range(5):
            assert da_sample(2000, q, rng=seed) == da_sample(2000, q, np.random.default_rng(seed))

    @pytest.mark.parametrize("n", [16, 100])
    def test_reservoir_uniformity(self, n):
        # chi-squared over the positives, T = 130n draws, significance 0.08
        fam = make_family(FamilyKind.MURMUR3, 3, 10**5, seed=2)
        rng = np.random.default_rng(n)
        members = np.sort(rng.choice(10**4, size=n, replace=False))
        q = build_filter(fam, 10**4, members)
        pos, _ = da_reconstruct(10**4, q)
        assert np.array_equal(pos, members)
        counts = dict.fromkeys(members.tolist(), 0)
        for _ in range(130 * n):
            counts[da_sample(10**4, q, rng=rng).element] += 1
        obs = np.array(list(counts.values()), dtype=float)
        qstat = float(np.sum((obs - 130.0) ** 2 / 130.0))
        assert stats.chi2.sf(qstat, n - 1) > 0.08


class TestDaReconstruct:
    def test_all_zero_filter(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 64, seed=3)
        pos, counters = da_reconstruct(1000, BloomFilter(fam, 1000))
        assert pos.size == 0
        assert counters.membership_queries == 1000

    def test_fp_free_regime_exact(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 10**6, seed=4)
        members = np.sort(np.random.default_rng(4).choice(10**4, size=50, replace=False))
        pos, _ = da_reconstruct(10**4, build_filter(fam, 10**4, members))
        assert np.array_equal(pos, members)

    def test_fp_rate_at_tight_m(self):
        # m = 10 |S|: extras per non-member within 3 sigma of the closed form
        n, M = 10**3, 10**5
        fam = make_family(FamilyKind.MURMUR3, 3, 10 * n, seed=5)
        members = np.sort(np.random.default_rng(5).choice(M, size=n, replace=False))
        pos, _ = da_reconstruct(M, build_filter(fam, M, members))
        assert np.isin(members, pos).all()
        extras = pos.size - n
        p = fp_probability(10 * n, 3, n)
        sigma = np.sqrt(p * (1 - p) * (M - n))
        assert abs(extras - p * (M - n)) < 3 * sigma


class TestHiSample:
    def test_all_zero_filter(self):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 101, seed=6)
        out = hi_sample(BloomFilter(fam, 1000), 1000, rng=np.random.default_rng(6))
        assert out.element is None

    def test_singleton_recovered(self):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 1, 10**4 + 7, seed=7)
        for x in (0, 123, 4567):
            q = build_filter(fam, 10**4, [x])
            out = hi_sample(q, 10**4, rng=np.random.default_rng(x))
            assert out.element == x

    def test_result_always_a_positive(self):
        rng = np.random.default_rng(8)
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 499, seed=8)
        members = rng.choice(10**4, size=60, replace=False)
        q = build_filter(fam, 10**4, members)
        positives = set(da_reconstruct(10**4, q)[0].tolist())
        for _ in range(200):
            out = hi_sample(q, 10**4, rng=rng)
            assert out.element in positives

    def test_non_invertible_family_rejected(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 100, seed=10)
        with pytest.raises(NotImplementedError):
            hi_sample(BloomFilter(fam, 100), 100)

    @pytest.mark.parametrize("n", [1, 30, 300])
    def test_draws_what_da_sample_draws(self, n):
        # both draw once from the same positives, so a seed picks the same element
        M = 10**4
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 499, seed=n)
        q = build_filter(fam, M, np.random.default_rng(n).choice(M, size=n, replace=False))
        for seed in range(25):
            hi = hi_sample(q, M, np.random.default_rng(seed))
            assert hi.element is not None
            assert hi.element == da_sample(M, q, np.random.default_rng(seed)).element

    @pytest.mark.parametrize("n", [0, 30, 300])
    def test_counters_are_those_of_hi_reconstruct(self, n):
        M = 10**4
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 499, seed=n)
        q = build_filter(fam, M, np.random.default_rng(n).choice(M, size=n, replace=False))
        assert (q.popcount() > q.m / 2) == (n == 300)  # AUTO runs both modes
        out = hi_sample(q, M, np.random.default_rng(n))
        assert out.counters == hi_reconstruct(q, M)[1]
        assert out.counters.membership_queries > 0 or n == 0


class TestHiReconstruct:
    def test_all_bits_set_unset_mode(self):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 2, 64, seed=11)
        q = BloomFilter(fam, 500)
        q.words[:] = ~np.uint64(0)
        q._popcount = None
        pos, _ = hi_reconstruct(q, 500, ReconstructionMode.UNSET_BITS)
        assert np.array_equal(pos, np.arange(500))

    def test_all_zero_set_mode(self):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 2, 64, seed=12)
        pos, _ = hi_reconstruct(BloomFilter(fam, 500), 500, ReconstructionMode.SET_BITS)
        assert pos.size == 0

    def test_both_modes_match_oracle(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            m = int(rng.choice([101, 257, 499]))
            fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, m, seed=trial)
            members = rng.choice(5000, size=int(rng.integers(1, 40)))
            q = build_filter(fam, 5000, members)
            oracle, _ = da_reconstruct(5000, q)
            for mode in (ReconstructionMode.SET_BITS, ReconstructionMode.UNSET_BITS,
                         ReconstructionMode.AUTO):
                got, _ = hi_reconstruct(q, 5000, mode)
                assert np.array_equal(np.sort(got), oracle)

    def test_auto_picks_by_density(self):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 100, seed=14)
        sparse = build_filter(fam, 10**4, [1])
        dense = build_filter(fam, 10**4, range(0, 10**4, 7))
        assert sparse.popcount() <= 50 < dense.popcount()
        # Auto must agree with the oracle either way
        for q in (sparse, dense):
            got, _ = hi_reconstruct(q, 10**4, ReconstructionMode.AUTO)
            assert np.array_equal(np.sort(got), da_reconstruct(10**4, q)[0])

    def test_non_invertible_family_rejected(self):
        fam = make_family(FamilyKind.MD5, 3, 100, seed=15)
        with pytest.raises(NotImplementedError):
            hi_reconstruct(BloomFilter(fam, 100), 100, ReconstructionMode.SET_BITS)

    def test_mode_by_value(self):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 101, seed=17)
        q = build_filter(fam, 5000, [3, 77, 4000])
        for mode in ReconstructionMode:
            got = hi_reconstruct(q, 5000, mode.value)
            want = hi_reconstruct(q, 5000, mode)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        # the modes count differently, so the counters show which one ran
        assert (hi_reconstruct(q, 5000, "set")[1]
                != hi_reconstruct(q, 5000, ReconstructionMode.UNSET_BITS)[1])

    @pytest.mark.parametrize("mode", [None, "SET_BITS", "sets", 0, ""])
    def test_unknown_mode_rejected(self, mode):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 101, seed=18)
        with pytest.raises(ValueError, match="ReconstructionMode"):
            hi_reconstruct(build_filter(fam, 5000, [3]), 5000, mode)


class TestHiReconstructWindows:
    @pytest.mark.parametrize("m", [1009, 70001])  # below and above _CHUNK
    def test_all_modes_match_oracle_across_windows(self, m):
        # M spans several windows and is a multiple of neither m nor the window
        width = -(-_CHUNK // m) * m
        M = 3 * width + m // 2
        assert M % m and M % width
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, m, seed=m)
        rng = np.random.default_rng(m)
        for n in (30, m // 3):
            q = build_filter(fam, M, rng.choice(M, size=n, replace=False))
            oracle, _ = da_reconstruct(M, q)
            for mode in ReconstructionMode:
                got, _ = hi_reconstruct(q, M, mode)
                assert np.array_equal(got, oracle)

    def test_counters_count_elements_examined(self):
        m, M = 997, 150001
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, m, seed=31)
        q = build_filter(fam, M, np.random.default_rng(31).choice(M, size=40))
        bits = np.unpackbits(q.words.view(np.uint8), bitorder="little")[:m].astype(bool)
        xs = np.arange(M, dtype=np.int64)
        _, set_counters = hi_reconstruct(q, M, ReconstructionMode.SET_BITS)
        n_set = int(bits[hash_many(fam, 0, xs)].sum())
        assert set_counters.membership_queries == n_set
        assert n_set <= q.popcount() * -(-M // m)
        _, unset_counters = hi_reconstruct(q, M, ReconstructionMode.UNSET_BITS)
        assert unset_counters.membership_queries == sum(
            int((~bits[hash_many(fam, i, xs)]).sum()) for i in range(3))

    def test_set_mode_hashes_k_per_candidate(self, monkeypatch):
        m, M = 997, 10**5
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, m, seed=32)
        q = build_filter(fam, M, np.random.default_rng(32).choice(M, size=20))
        hashed = []

        def counting(family, i, xs):
            hashed.append(np.size(xs))
            return hash_many(family, i, xs)

        monkeypatch.setattr(bloom, "hash_many", counting)
        monkeypatch.setattr(hashing, "hash_many", counting)
        _, counters = hi_reconstruct(q, M, ReconstructionMode.SET_BITS)
        assert sum(hashed) == 3 * counters.membership_queries < 3 * M


def reservoir_da_sample(namespace_size, query, rng):
    """The earlier DA sampler: a reservoir over the scan's positives."""
    counters = OpCounters(membership_queries=namespace_size)
    reservoir = None
    for i, x in enumerate(query.scan([(0, namespace_size)])):
        if rng.random() < 1.0 / (i + 1):
            reservoir = int(x)
    return SampleOutcome(reservoir, counters)


class TestSamplersAgainstReservoir:
    """Drawing from the positives in memory costs what the reservoir did."""

    @pytest.mark.parametrize("n", [1, 30, 300])
    def test_same_counters_and_positive_elements(self, n):
        M = 10**4
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 499, seed=n)
        q = build_filter(fam, M, np.random.default_rng(n).choice(M, size=n, replace=False))
        positives = set(da_reconstruct(M, q)[0].tolist())
        for seed in range(25):
            new = da_sample(M, q, np.random.default_rng(seed))
            old = reservoir_da_sample(M, q, np.random.default_rng(seed))
            assert new.counters == old.counters
            assert new.element in positives and old.element in positives


def test_hi_sample_uniform_over_preimage_positives():
    # k = 1: the one set bit's preimages x = 4242 (mod 997) are the 101 positives
    M, n_pos = 10**5, 101
    fam = make_family(FamilyKind.SIMPLE_LINEAR, 1, 997, seed=16)
    q = build_filter(fam, M, [4242])
    positives, _ = da_reconstruct(M, q)
    assert positives.size == n_pos and 4242 in positives
    rng = np.random.default_rng(16)
    counts = dict.fromkeys(positives.tolist(), 0)
    for _ in range(130 * n_pos):
        counts[hi_sample(q, M, rng=rng).element] += 1
    obs = np.array(list(counts.values()), dtype=float)
    qstat = float(np.sum((obs - 130.0) ** 2 / 130.0))
    assert stats.chi2.sf(qstat, n_pos - 1) > 0.08


class TestNamespaceMismatch:
    """DA and HI reject a query over another namespace, as the tree does."""

    CALLS = {
        "da_reconstruct": lambda q, M: da_reconstruct(M, q),
        "da_sample": lambda q, M: da_sample(M, q, np.random.default_rng(0)),
        "hi_sample": lambda q, M: hi_sample(q, M, np.random.default_rng(0)),
        "hi_reconstruct": lambda q, M: hi_reconstruct(q, M),
    }

    @staticmethod
    def query():
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 997, seed=1)
        return build_filter(fam, 1000, [5, 17, 400])

    @pytest.mark.parametrize("M", [100, 999, 1001, 5000])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_other_namespace_rejected(self, name, M):
        with pytest.raises(ValueError, match=r"query filter is over \[0, 1000\)"):
            self.CALLS[name](self.query(), M)
