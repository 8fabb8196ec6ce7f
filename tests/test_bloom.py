"""Tests for the Bloom filter value type."""
import math
import re
import struct

import numpy as np
import pytest

from bloomsampletree import bloom, hashing
from bloomsampletree.bloom import BloomFilter, FamilyMismatchError, build_filter
from bloomsampletree.bst import BloomSampleTree, plan_with_m
from bloomsampletree.estimate import fp_probability
from bloomsampletree.hashing import FamilyKind, HashFamily, make_family, hash_many


# A v1 block as earlier releases wrote it, with the element count 300 in
# the reserved field: murmur3, k = 3, m = 1,000, seed 2, M = 3,000, the
# elements 0, 10, ..., 2,990.
COUNTED_BLOCK = (
    "42464c5401010300e8030000000000000200000000000000177c4a7fb979379e"
    "28f894fe72f36e3ce803000000000000b80b0000000000002c01000000000000"
    "f2b71ad0bf3cc18fcc5bea36f7df09aa78d97ffddff475af6f5f3b204fd2e936"
    "ef73afc975e38cda8f567c2ddf9fce93e62bd99f76efabf16cc311fc8d19315c"
    "39e18b59167f3ffd15714daf5d6eadd3efef45de1f7b569a6d1121a278934ce8"
    "a7a8dcd6d9932bfe5578c7d8f06a7c15977fde65fbddecaea33abcd17a000000")


def identity_family(m=10, k=1):
    return HashFamily(FamilyKind.SIMPLE_LINEAR, k, m, tuple((1, 0) for _ in range(k)))


class TestInsertContains:
    def test_identity_hash_sets_bit(self):
        f = BloomFilter(identity_family(), 10)
        f.insert(4)
        assert f.popcount() == 1
        assert f.set_bit_indices().tolist() == [4]

    def test_insert_idempotent(self):
        f = BloomFilter(identity_family(), 10)
        f.insert(4)
        words = f.words.copy()
        f.insert(4)
        assert np.array_equal(f.words, words)

    def test_small_query_set(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 500, seed=1)
        f = build_filter(fam, 16, [4, 6])
        assert f.contains(4) and f.contains(6)

    def test_empty_contains_nothing(self):
        f = BloomFilter(make_family(FamilyKind.MURMUR3, 3, 100, seed=0), 50)
        assert not any(f.contains(x) for x in range(50))
        assert f.popcount() == 0

    def test_out_of_namespace_rejected(self):
        f = BloomFilter(identity_family(), 10)
        with pytest.raises(ValueError):
            f.insert(10)
        with pytest.raises(ValueError):
            f.insert_many([3, -1])

    def test_contains_rejects_out_of_namespace(self):
        f = build_filter(make_family(FamilyKind.MURMUR3, 3, 500, seed=1), 16, [4, 15])
        assert f.contains(15)
        for x in (-1, 16, 1 << 62):
            with pytest.raises(ValueError):
                f.contains(x)

    def test_contains_rejects_beyond_the_linear_limit(self):
        # at the limit a*x + b no longer fits int64, so hashing would wrap
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, (1 << 31) - 1, seed=3)
        top = fam.namespace_limit
        f = build_filter(fam, top, [0, top - 1])
        assert f.contains(0) and f.contains(top - 1)
        assert f.contains_many(np.array([0, top - 1])).tolist() == [True, True]
        with pytest.raises(ValueError):
            f.contains(top)

    def test_insert_many_equals_loop(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 2000, seed=2)
        xs = np.random.default_rng(0).integers(0, 10**4, size=300)
        bulk = build_filter(fam, 10**4, xs)
        loop = BloomFilter(fam, 10**4)
        for x in xs:
            loop.insert(int(x))
        assert bulk == loop

    def test_contains_many_matches_scalar(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 1000, seed=3)
        f = build_filter(fam, 5000, range(0, 5000, 37))
        xs = np.arange(0, 5000, 11)
        bulk = f.contains_many(xs)
        assert all(bulk[i] == f.contains(int(x)) for i, x in enumerate(xs))

    def test_no_false_negatives_randomized(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            fam = make_family(FamilyKind.MURMUR3, 3, 700, seed=trial)
            xs = rng.choice(10**4, size=50, replace=False)
            f = build_filter(fam, 10**4, xs)
            assert f.contains_many(xs).all()

    def test_single_insert_popcount(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 10**4, seed=9)
        f = BloomFilter(fam, 10**6)
        f.insert(12345)
        distinct = len({int(hash_many(fam, i, 12345)) for i in range(3)})
        assert f.popcount() == distinct

    def test_false_positive_rate(self):
        # 3 sigma Monte Carlo against (1 - e^(-kn/m))^k
        fam = make_family(FamilyKind.MURMUR3, 3, 10**4, seed=5)
        n, trials = 10**3, 10**5
        rng = np.random.default_rng(6)
        members = rng.choice(10**7, size=n, replace=False)
        f = build_filter(fam, 10**7, members)
        probes = np.setdiff1d(rng.choice(10**7, size=trials + n, replace=False), members)[:trials]
        rate = f.contains_many(probes).mean()
        p = fp_probability(10**4, 3, n)
        assert abs(p - 0.0174106) < 1e-5
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(rate - p) < 3 * sigma


def _masks_of(idxs):
    masks = {}
    for idx in idxs:
        masks[idx >> 6] = masks.get(idx >> 6, 0) | 1 << (idx & 63)
    return masks


class TestPerElementPath:
    """``word_masks`` hashes one element in Python integers; ``insert`` and
    ``contains`` read and write the words it names with Python integers."""

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_word_masks_match_hash_many(self, kind):
        M = 10**6
        fam = make_family(kind, 3, 60_870, seed=5)
        xs = [0, 1, M - 1, *np.random.default_rng(5).integers(0, M, 20).tolist()]
        if kind == FamilyKind.SIMPLE_LINEAR:
            xs.append(fam.namespace_limit - 1)
        # one call over all of xs takes hash_many's array path
        batch = [hashing.hash_many(fam, i, np.array(xs)).tolist() for i in range(fam.k)]
        for col, x in enumerate(xs):
            want = _masks_of([int(hashing.hash_many(fam, i, [x])[0]) for i in range(fam.k)])
            assert want == _masks_of([row[col] for row in batch])
            for value in (x, np.int64(x), np.uint64(x)):
                assert bloom.word_masks(fam, value) == want, (x, type(value))

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_contains_on_a_loaded_filter_matches_contains_many(self, kind):
        fam = make_family(kind, 3, 1000, seed=6)
        flt = build_filter(fam, 5000, np.random.default_rng(6).choice(5000, 200, replace=False))
        loaded, _ = BloomFilter.from_bytes(flt.to_bytes())
        frozen = flt.words.copy()
        frozen.flags.writeable = False  # as the nodes of a loaded tree hold their rows
        xs = np.arange(5000)
        want = flt.contains_many(xs).tolist()
        assert 0 < sum(want) < len(want)
        for f in (loaded, BloomFilter(fam, 5000, words=frozen)):
            assert [f.contains(x) for x in xs.tolist()] == want


class TestSetAlgebra:
    def setup_method(self):
        self.fam = make_family(FamilyKind.MURMUR3, 3, 3000, seed=7)

    def test_union_identity(self):
        f = build_filter(self.fam, 100, [1, 2])
        empty = BloomFilter(self.fam, 100)
        assert f.union(empty) == f

    def test_union_equals_direct_build(self):
        a = build_filter(self.fam, 100, [1, 2])
        b = build_filter(self.fam, 100, [3])
        assert a.union(b) == build_filter(self.fam, 100, [1, 2, 3])

    def test_union_law_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            s1 = rng.choice(10**5, size=40)
            s2 = rng.choice(10**5, size=40)
            a = build_filter(self.fam, 10**5, s1)
            b = build_filter(self.fam, 10**5, s2)
            u = a.union(b)
            assert u == build_filter(self.fam, 10**5, np.concatenate([s1, s2]))
            assert u == b.union(a)

    def test_intersect_idempotent(self):
        f = build_filter(self.fam, 100, [5, 9, 23])
        assert f.intersect(f) == BloomFilter(self.fam, 100, words=f.words.copy())

    def test_intersection_subset_of_bits(self):
        a = build_filter(self.fam, 100, [1, 2])
        b = build_filter(self.fam, 100, [2, 3])
        both = a.intersect(b)
        common = build_filter(self.fam, 100, [2])
        assert np.array_equal(common.words & both.words, common.words)

    def test_mismatched_families_rejected(self):
        other = make_family(FamilyKind.MURMUR3, 3, 3000, seed=99)
        a = BloomFilter(self.fam, 100)
        b = BloomFilter(other, 100)
        with pytest.raises(FamilyMismatchError):
            a.union(b)
        with pytest.raises(FamilyMismatchError):
            a.intersect(b)

    def test_monotone_bits(self):
        rng = np.random.default_rng(10)
        f = BloomFilter(self.fam, 10**4)
        prev = f.words.copy()
        for x in rng.integers(0, 10**4, size=100):
            f.insert(int(x))
            assert np.array_equal(f.words & prev, prev)
            prev = f.words.copy()


class TestSerialization:
    def test_round_trip_bytes(self):
        for kind in FamilyKind:
            fam = make_family(kind, 3, 777, seed=13)
            f = build_filter(fam, 4000, range(0, 4000, 101))
            back, consumed = BloomFilter.from_bytes(f.to_bytes())
            assert back == f
            assert back.family == fam
            assert consumed == len(f.to_bytes())

    def test_reserved_field_written_as_all_ones(self):
        for kind in FamilyKind:
            fam = make_family(kind, 2, 64, seed=0)
            data = build_filter(fam, 10, [1, 2, 3]).to_bytes()
            at = 5 + len(fam.to_bytes()) + 16  # magic, version, family, m, M
            assert struct.unpack_from("<Q", data, at) == ((1 << 64) - 1,)

    def test_block_with_an_element_count_loads(self):
        data = bytes.fromhex(COUNTED_BLOCK)
        fam = make_family(FamilyKind.MURMUR3, 3, 1000, seed=2)
        at = 5 + len(fam.to_bytes()) + 16
        assert struct.unpack_from("<Q", data, at) == (300,)
        back, end = BloomFilter.from_bytes(data)
        assert end == len(data)
        assert back == build_filter(fam, 3000, range(0, 3000, 10))
        assert back.to_bytes() == data[:at] + b"\xff" * 8 + data[at + 8:]

    def test_file_round_trip(self, tmp_path):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 101, seed=21)
        f = build_filter(fam, 1000, [3, 14, 159])
        path = tmp_path / "f.bflt"
        f.save(path)
        assert BloomFilter.load(path) == f

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"XXXX" + b"\0" * 64)

    def test_every_truncation_rejected(self):
        for kind in (FamilyKind.SIMPLE_LINEAR, FamilyKind.MURMUR3):
            blob = build_filter(make_family(kind, 3, 130, seed=2), 1000, [4, 6]).to_bytes()
            for cut in range(len(blob)):
                with pytest.raises(ValueError, match="^truncated Bloom filter block$"):
                    BloomFilter.from_bytes(blob[:cut])

    def test_trailing_byte_rejected_on_load(self, tmp_path):
        f = build_filter(make_family(FamilyKind.MURMUR3, 3, 130, seed=2), 1000, [4, 6])
        path = tmp_path / "f.bflt"
        path.write_bytes(f.to_bytes() + b"\0")
        with pytest.raises(ValueError):
            BloomFilter.load(path)


class TestNamespaceLimit:
    def test_linear_overflow_reproduction_rejected(self):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 10_000_019, seed=0)
        with pytest.raises(ValueError):
            BloomFilter(fam, 10**13 + 10**6)

    @pytest.mark.parametrize("M, match", [(-5, ">= 0"), (1.5, "is not an integer")])
    def test_namespace_that_is_no_size_rejected(self, M, match):
        with pytest.raises(ValueError, match=match):
            BloomFilter(make_family(FamilyKind.MURMUR3, 3, 600), M)

    def test_whole_float_namespace_is_an_int(self):
        flt = BloomFilter(make_family(FamilyKind.MURMUR3, 3, 600), 2.0)
        assert flt.namespace_size == 2 and type(flt.namespace_size) is int
        flt.insert(1)
        assert BloomFilter.from_bytes(flt.to_bytes())[0] == flt

    def test_limit_is_inclusive(self):
        for kind in FamilyKind:
            fam = make_family(kind, 2, 101, seed=1)
            BloomFilter(fam, fam.namespace_limit)
            with pytest.raises(ValueError):
                BloomFilter(fam, fam.namespace_limit + 1)


def _bitwise_contains(flt, x):
    """Per-bit reference: every h_i(x) bit set in the little-endian words."""
    return all((int(flt.words[h // 64]) >> (h % 64)) & 1
               for h in (int(hash_many(flt.family, i, x)) for i in range(flt.family.k)))


class TestByteGatherMembership:
    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_contains_many_matches_per_bit_reference(self, kind):
        fam = make_family(kind, 3, 1009, seed=6)  # m not a multiple of 64
        rng = np.random.default_rng(2)
        flt = build_filter(fam, 10**6, rng.choice(10**6, 150, replace=False))
        xs = np.concatenate([rng.choice(10**6, 400, replace=False), [0, 10**6 - 1]])
        got = flt.contains_many(xs)
        assert got.tolist() == [_bitwise_contains(flt, int(x)) for x in xs]
        assert 0 < got.sum() < xs.size
        one_by_one = [bool(flt.contains_many(xs[i:i + 1])[0]) for i in range(xs.size)]
        assert one_by_one == got.tolist()
        ones = np.full(len(flt.words), ~np.uint64(0))
        ones[-1] &= ~bloom.tail_mask(fam.m)
        full = BloomFilter(fam, 10**6, words=ones)
        assert full.contains_many(xs).all()
        assert all(full.contains(int(x)) for x in xs[:20])
        assert full.contains_many(np.empty(0, dtype=np.int64)).shape == (0,)

@pytest.fixture
def unpacks(monkeypatch):
    """One entry per ``np.unpackbits`` call."""
    calls = []
    unpackbits = np.unpackbits
    monkeypatch.setattr(np, "unpackbits",
                        lambda *a, **kw: calls.append(1) or unpackbits(*a, **kw))
    return calls


class TestUnpackedBits:
    """The bits are unpacked on the first probe and kept until a write."""

    def test_probes_share_one_unpack(self, unpacks):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 1_000_003, seed=1)
        flt = build_filter(fam, 10**7, range(0, 10**7, 997))
        assert flt.contains(997) and not flt.contains(998)
        assert not unpacks  # a single-element probe reads words
        per_call = [xs[flt.contains_many(xs)]
                    for xs in np.array_split(np.arange(10**6, dtype=np.int64), 400)]
        found = flt.scan([(0, 10**6)])  # 16 chunks
        bits = flt.set_bit_indices()
        assert len(unpacks) == 1
        assert np.array_equal(found, np.concatenate(per_call))
        assert set(range(0, 10**6, 997)) <= set(found.tolist())
        assert bits.size == flt.popcount()
        assert np.array_equal(np.union1d(bits, flt.unset_bit_indices()), np.arange(fam.m))

    WRITES = {
        "insert": lambda flt, x: flt.insert(x),
        "insert_many": lambda flt, x: flt.insert_many([x]),
        "insert_masks": lambda flt, x: bloom.insert_masks([flt], bloom.word_masks(flt.family, x)),
    }

    @pytest.mark.parametrize("write", list(WRITES))
    def test_each_write_clears_the_cache(self, unpacks, write):
        M, fam = 4096, make_family(FamilyKind.MURMUR3, 3, 1009, seed=3)
        if write == "insert_masks":  # on a read-only row, which the write copies
            tree = BloomSampleTree.build_full(plan_with_m(fam.m, M, 3, 240.0), fam)
            flt = BloomSampleTree.from_bytes(tree.to_bytes()).nodes[(tree.plan.depth, 0)]
            assert not flt.words.flags.writeable
        else:
            flt = build_filter(fam, M, range(0, M, 41))
        xs = np.arange(M, dtype=np.int64)
        absent = xs[~flt.contains_many(xs)]
        assert absent.size >= 3 and len(unpacks) == 1
        for n, x in enumerate(absent[:3].tolist(), start=1):
            self.WRITES[write](flt, x)
            assert flt.contains_many([x])[0]
            assert x in flt.scan([(x, x + 1)])
            assert len(unpacks) == 1 + n  # one unpack per write, shared by both probes


class TestConstructorWords:
    def test_strided_words_probe_as_their_contiguous_twin(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 6400, seed=5)
        M = 10**5
        twin = build_filter(fam, M, np.random.default_rng(3).choice(M, 500, replace=False))
        big = np.zeros(2 * twin.words.size, dtype=np.uint64)
        big[::2] = twin.words
        flt = BloomFilter(fam, M, words=big[::2])
        assert not flt.words.flags.c_contiguous
        xs = np.arange(M, dtype=np.int64)
        assert np.array_equal(flt.scan([(0, M)]), twin.scan([(0, M)]))
        assert np.array_equal(flt.contains_many(xs), twin.contains_many(xs))
        assert np.array_equal(flt.set_bit_indices(), twin.set_bit_indices())

    def test_rejects_non_integer_words(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 128, seed=0)
        with pytest.raises(ValueError, match="must be integers, not float64"):
            BloomFilter(fam, 1000, words=np.array([1.7, 2.2]))

    @pytest.mark.parametrize("shape", [(2, 1), (2, 2), ()])
    def test_rejects_words_that_are_not_one_row(self, shape):
        fam = make_family(FamilyKind.MURMUR3, 3, 128, seed=0)
        with pytest.raises(ValueError, match=re.escape(f"not shape {shape}")):
            BloomFilter(fam, 1000, words=np.ones(shape, dtype=np.uint64))

    @pytest.mark.parametrize("m", [100, 1009])
    def test_rejects_a_bit_at_or_past_m(self, m):
        fam = make_family(FamilyKind.MURMUR3, 3, m, seed=0)
        ones = np.full((m + 63) // 64, ~np.uint64(0))
        with pytest.raises(ValueError, match=f"set a bit at or past m = {m}"):
            BloomFilter(fam, 1000, words=ones)
        ones[-1] &= ~bloom.tail_mask(m)
        assert BloomFilter(fam, 1000, words=ones).popcount() == m

    def test_all_ones_round_trips_through_a_file(self, tmp_path):
        fam = make_family(FamilyKind.MURMUR3, 3, 100, seed=0)
        ones = np.full(2, ~np.uint64(0))
        ones[-1] &= ~bloom.tail_mask(100)
        flt = BloomFilter(fam, 1000, words=ones)
        flt.save(tmp_path / "f.bf")
        loaded = BloomFilter.load(tmp_path / "f.bf")
        assert loaded == flt and loaded.popcount() == 100
        assert np.array_equal(loaded.set_bit_indices(), np.arange(100))


class TestScanAboveReduceSize:
    @pytest.mark.parametrize("kind", list(FamilyKind))
    @pytest.mark.parametrize("m", [1009, 400_009])
    def test_multi_chunk_scan_matches_per_bit_reference(self, monkeypatch, kind, m):
        # chunks of at least _REDUCE_MIN_SIZE elements hash by multiply-shift
        chunk = 2 * hashing._REDUCE_MIN_SIZE
        monkeypatch.setattr(bloom, "SCAN_CHUNK", chunk)
        fam = make_family(kind, 3, m, seed=12)
        M = 10**12
        rng = np.random.default_rng(m)
        flt = build_filter(fam, M, np.concatenate([np.arange(0, 3 * chunk, 7),
                                                   rng.integers(0, M, 200)]))
        ranges = [(0, 3 * chunk + 5), (M - chunk - 3, M)]
        got = flt.scan(ranges)
        want = [x for lo, hi in ranges for x in range(lo, hi) if _bitwise_contains(flt, x)]
        assert got.tolist() == want
        assert 3 * chunk // 7 <= got.size < 4 * chunk + 8


class TestScan:
    """``scan`` merges abutting ranges and probes all of them in shared chunks."""

    @staticmethod
    def _dense_filter(M=3 * bloom.SCAN_CHUNK):
        fam = make_family(FamilyKind.MURMUR3, 3, 4001, seed=3)
        return build_filter(fam, M, np.random.default_rng(8).choice(M, 900, replace=False))

    @staticmethod
    def _reference(flt, ranges):
        xs = [x for lo, hi in ranges for x in range(lo, hi)]
        xs = np.array(xs, dtype=np.int64)
        return xs[flt.contains_many(xs)] if xs.size else xs

    @pytest.mark.parametrize("ranges, calls", [
        ([(0, 10), (10, 4000), (4000, 4001)], 1),           # abutting: one range
        ([(0, 10), (20, 4000), (5000, 5001)], 1),           # gapped: one shared chunk
        ([], 0),
        ([(7, 7), (9, 3)], 0),                               # empty ranges
        ([(100, 200), (300, 300), (300, 400)], 1),          # an empty range between
        ([(3 * bloom.SCAN_CHUNK - 50, 3 * bloom.SCAN_CHUNK),
          (3 * bloom.SCAN_CHUNK + 10, 3 * bloom.SCAN_CHUNK)], 1),  # clipped padding
        ([(bloom.SCAN_CHUNK - 100, bloom.SCAN_CHUNK + 100)], 1),   # straddles a boundary
        ([(5, bloom.SCAN_CHUNK), (bloom.SCAN_CHUNK, 2 * bloom.SCAN_CHUNK + 6)], 3),
    ])
    def test_matches_reference(self, monkeypatch, ranges, calls):
        flt = self._dense_filter()
        want = self._reference(flt, ranges)
        seen = []
        scan_chunk = BloomFilter._scan_chunk
        monkeypatch.setattr(BloomFilter, "_scan_chunk",
                            lambda self, pieces, **kw: seen.append(
                                sum(hi - lo for lo, hi in pieces))
                            or scan_chunk(self, pieces, **kw))
        got = flt.scan(ranges)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert len(seen) == calls and max(seen, default=0) <= bloom.SCAN_CHUNK
        assert sum(seen) == sum(max(0, hi - lo) for lo, hi in ranges)
        if sum(seen) > 1000:
            assert 0 < got.size < sum(seen)
