"""Tests for the hash families and weak inversion."""
import numpy as np
import pytest

from bloomsampletree import hashing
from bloomsampletree.hashing import (
    _MASK64,
    FamilyKind,
    HashFamily,
    make_family,
    hash_many,
    preimage,
)


def linear(k, m, pairs):
    return HashFamily(FamilyKind.SIMPLE_LINEAR, k, m, tuple(pairs))


class TestHashValues:
    def test_identity_coefficients(self):
        fam = linear(1, 10, [(1, 0)])
        assert hash_many(fam, 0, 7) == 7

    def test_direct_arithmetic(self):
        fam = linear(1, 10, [(3, 2)])
        assert hash_many(fam, 0, 6) == (3 * 6 + 2) % 10

    def test_murmur_deterministic(self):
        fam = make_family(FamilyKind.MURMUR3, 3, 997, seed=42)
        xs = np.arange(50, dtype=np.int64)
        for i in range(3):
            first = hash_many(fam, i, xs)
            assert np.array_equal(first, hash_many(fam, i, xs))

    def test_equal_descriptors_equal_outputs(self):
        a = make_family(FamilyKind.MURMUR3, 2, 512, seed=9)
        b = make_family(FamilyKind.MURMUR3, 2, 512, seed=9)
        assert a == b
        xs = np.arange(1000, dtype=np.int64)
        assert np.array_equal(hash_many(a, 1, xs), hash_many(b, 1, xs))

    def test_outputs_in_range_all_families(self):
        rng = np.random.default_rng(3)
        xs = rng.integers(0, 1 << 40, size=200)
        for kind in FamilyKind:
            fam = make_family(kind, 3, 613, seed=11)
            for i in range(3):
                out = hash_many(fam, i, xs)
                assert out.min() >= 0 and out.max() < 613

    def test_md5_matches_reference(self):
        import hashlib
        import struct

        fam = make_family(FamilyKind.MD5, 1, 1000, seed=5)
        seed = fam.params[0]
        digest = hashlib.md5(struct.pack("<QQ", seed, 1234)).digest()
        expect = int.from_bytes(digest[:8], "little") % 1000
        assert hash_many(fam, 0, 1234) == expect

    def test_index_out_of_range(self):
        fam = make_family(FamilyKind.MURMUR3, 2, 100, seed=0)
        with pytest.raises(IndexError):
            hash_many(fam, 2, 5)

    def test_murmur_bucket_occupancy(self):
        # every bucket count within 5 sigma of N/m for m <= 1024
        fam = make_family(FamilyKind.MURMUR3, 1, 1024, seed=77)
        out = hash_many(fam, 0, np.arange(10**5, dtype=np.int64))
        counts = np.bincount(out, minlength=1024)
        expect = 10**5 / 1024
        sigma = np.sqrt(10**5 * (1 / 1024) * (1 - 1 / 1024))
        assert np.abs(counts - expect).max() < 5 * sigma


class TestPreimage:
    def test_identity_progression(self):
        fam = linear(1, 10, [(1, 0)])
        assert preimage(fam, 0, 3, 100).tolist() == list(range(3, 100, 10))

    def test_affine_progression(self):
        fam = linear(1, 10, [(3, 2)])
        assert preimage(fam, 0, 0, 40).tolist() == [6, 16, 26, 36]

    def test_empty_namespace(self):
        fam = linear(1, 10, [(3, 2)])
        assert preimage(fam, 0, 0, 0).size == 0

    def test_round_trip_law(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = int(rng.integers(5, 500))
            fam = make_family(FamilyKind.SIMPLE_LINEAR, 2, m, seed=int(rng.integers(1 << 30)))
            for x in rng.integers(0, 10**4, size=20):
                x = int(x)
                for i in range(2):
                    assert x in preimage(fam, i, int(hash_many(fam, i, x)), 10**4)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = int(rng.integers(7, 200))
            fam = make_family(FamilyKind.SIMPLE_LINEAR, 1, m, seed=int(rng.integers(1 << 30)))
            s = int(rng.integers(0, m))
            xs = np.arange(3000, dtype=np.int64)
            brute = xs[hash_many(fam, 0, xs) == s]
            assert np.array_equal(preimage(fam, 0, s, 3000), brute)

    def test_size_formula(self):
        fam = linear(1, 10, [(3, 2)])
        for s in range(10):
            pre = preimage(fam, 0, s, 97)
            x0 = int(pre[0])
            assert pre.size == -((x0 - 97) // 10)

    def test_non_invertible_rejected(self):
        fam = make_family(FamilyKind.MURMUR3, 1, 100, seed=0)
        with pytest.raises(NotImplementedError):
            preimage(fam, 0, 5, 100)

    def test_bad_bit_index(self):
        fam = linear(1, 10, [(3, 2)])
        with pytest.raises(ValueError):
            preimage(fam, 0, 10, 100)


class TestDescriptor:
    def test_gcd_enforced(self):
        with pytest.raises(ValueError):
            linear(1, 10, [(4, 0)])

    def test_k_and_m_bounds(self):
        with pytest.raises(ValueError):
            HashFamily(FamilyKind.MURMUR3, 0, 10, ())
        with pytest.raises(ValueError):
            HashFamily(FamilyKind.MURMUR3, 1, 1, (0,))

    def test_serialization_round_trip(self):
        for kind in FamilyKind:
            fam = make_family(kind, 3, 1009, seed=123)
            blob = fam.to_bytes()
            back, offset = HashFamily.from_bytes(blob)
            assert back == fam
            assert offset == len(blob)

    def test_invertible_flag(self):
        assert make_family(FamilyKind.SIMPLE_LINEAR, 1, 11, seed=0).invertible
        assert not make_family(FamilyKind.MD5, 1, 11, seed=0).invertible


class TestPreimageOfBitArray:
    def test_equals_sorted_union_of_single_bits(self):
        rng = np.random.default_rng(21)
        for m in (7, 101, 997):
            fam = make_family(FamilyKind.SIMPLE_LINEAR, 2, m, seed=m)
            bits = rng.choice(m, size=min(m, 40), replace=False)
            for M in (0, 5, m, 3 * m + 2, 5000):
                for i in range(2):
                    got = preimage(fam, i, bits, M)
                    union = np.sort(np.concatenate(
                        [preimage(fam, i, int(s), M) for s in bits]))
                    assert np.array_equal(got, union)
                    xs = np.arange(M, dtype=np.int64)
                    assert np.array_equal(got, xs[np.isin(hash_many(fam, i, xs), bits)])

    def test_empty_bit_array(self):
        fam = linear(1, 10, [(3, 2)])
        assert preimage(fam, 0, np.array([], dtype=np.int64), 100).size == 0

    def test_out_of_range_bit_in_array_rejected(self):
        fam = linear(1, 10, [(3, 2)])
        for bad in ([1, 10], [-1, 4]):
            with pytest.raises(ValueError):
                preimage(fam, 0, np.array(bad), 100)


def _murmur_reference(seed, x):
    mask = (1 << 64) - 1
    h = (x ^ seed) & mask
    for mult in (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53):
        h ^= h >> 33
        h = (h * mult) & mask
    return h ^ (h >> 33)


def _md5_reference(seed, x):
    import hashlib
    import struct
    return int.from_bytes(hashlib.md5(struct.pack("<QQ", seed, x)).digest()[:8], "little")


class TestExactNamespace:
    def test_linear_overflow_namespace_rejected(self):
        # a*x overflows int64 here, so hashing would silently be wrong
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 10_000_019, seed=0)
        M = 10**13 + 10**6
        assert fam.namespace_limit < M
        with pytest.raises(ValueError):
            preimage(fam, 0, 5, M)

    def test_linear_m_below_two_to_the_31(self):
        with pytest.raises(ValueError):
            linear(1, 1 << 31, [(1, 0)])
        with pytest.raises(ValueError):
            make_family(FamilyKind.SIMPLE_LINEAR, 1, (1 << 31) + 11, seed=0)
        assert linear(1, (1 << 31) - 1, [(3, 5)]).m == (1 << 31) - 1

    def test_limits(self):
        fam = linear(2, 101, [(3, 5), (7, 1)])
        assert fam.namespace_limit == min(((1 << 63) - 1 - 5) // 3,
                                          ((1 << 63) - 1 - 1) // 7) + 1
        for kind in (FamilyKind.MURMUR3, FamilyKind.MD5):
            assert make_family(kind, 2, 101, seed=0).namespace_limit == 1 << 63

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_hash_many_matches_python_integers_near_limit(self, kind):
        fam = make_family(kind, 3, (1 << 31) - 1, seed=17)
        top = fam.namespace_limit
        rng = np.random.default_rng(int(kind))
        xs = np.concatenate([top - 1 - np.arange(20),
                             rng.integers(top // 2, top, size=20)]).astype(np.int64)
        for i in range(3):
            if kind == FamilyKind.SIMPLE_LINEAR:
                a, b = fam.params[i]
                ref = [(a * int(x) + b) % fam.m for x in xs]
            elif kind == FamilyKind.MURMUR3:
                ref = [_murmur_reference(fam.params[i], int(x)) % fam.m for x in xs]
            else:
                import hashlib
                import struct
                ref = [int.from_bytes(hashlib.md5(struct.pack("<QQ", fam.params[i], int(x)))
                                      .digest()[:8], "little") % fam.m for x in xs]
            assert hash_many(fam, i, xs).tolist() == ref

    def test_round_trip_at_large_accepted_namespace(self):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, (1 << 31) - 1, seed=3)
        M = fam.namespace_limit
        rng = np.random.default_rng(4)
        for x in [M - 1, M - 2, *rng.integers(M // 2, M, size=10).tolist()]:
            for i in range(3):
                a, b = fam.params[i]
                s = int(hash_many(fam, i, x))
                assert s == (a * x + b) % fam.m
                assert x in preimage(fam, i, s, M)


class TestMultiplyShiftReduction:
    """From ``_REDUCE_MIN_SIZE`` elements on, ``_reduce`` reduces mod m as
    h - (h // m) * m; below it, with ``%``.  Both must equal Python integers."""

    SIZES = (hashing._REDUCE_MIN_SIZE - 1, hashing._REDUCE_MIN_SIZE, 1 << 16)

    @pytest.mark.parametrize("n", SIZES)
    def test_linear_matches_python_integers_up_to_the_limit(self, n):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 2, (1 << 31) - 1, seed=23)
        top = fam.namespace_limit
        rng = np.random.default_rng(n)
        xs = np.concatenate([top - 1 - np.arange(n // 2), np.arange(64),
                             rng.integers(0, top, size=n - n // 2 - 64)]).astype(np.int64)
        assert xs.size == n and xs.max() == top - 1
        for i, (a, b) in enumerate(fam.params):
            got = hash_many(fam, i, xs)
            assert got.dtype == np.int64
            assert got.tolist() == [(a * x + b) % fam.m for x in xs.tolist()]

    @pytest.mark.parametrize("n", SIZES)
    def test_murmur_matches_python_integers(self, n):
        rng = np.random.default_rng(n + 1)
        xs = np.concatenate([np.arange(n // 2),
                             rng.integers(0, 1 << 63, size=n - n // 2, dtype=np.int64)])
        for i in range(2):
            mixed = None
            for m in (60_870, (1 << 31) - 1, (1 << 40) + 15):
                fam = make_family(FamilyKind.MURMUR3, 2, m, seed=29)
                if mixed is None:  # the seeds do not depend on m
                    mixed = [_murmur_reference(fam.params[i], x) for x in xs.tolist()]
                got = hash_many(fam, i, xs)
                assert got.dtype == np.int64
                assert got.tolist() == [h % m for h in mixed]

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_one_element_calls_return_int64(self, kind):
        fam = make_family(kind, 2, 1009, seed=4)
        for xs in (np.array([12_345], dtype=np.int64), [12_345]):
            got = hash_many(fam, 1, xs)
            assert got.dtype == np.int64 and got.shape == (1,)
            assert got.tolist() == [hash_many(fam, 1, np.arange(12_345, 13_345))[0]]


class TestScalarPath:
    """Below ``_SCALAR_MAX_SIZE`` elements hash_many hashes Python integers;
    its output must equal Python-integer references and the array path."""

    C = hashing._SCALAR_MAX_SIZE
    SIZES = (0, 1, C - 1, C, C + 1)

    @staticmethod
    def _array_path(monkeypatch, fam, i, xs):
        with monkeypatch.context() as patch:
            patch.setattr(hashing, "_SCALAR_MAX_SIZE", 0)
            return hash_many(fam, i, xs)

    @pytest.mark.parametrize("n", SIZES)
    def test_linear_at_both_ends_of_the_namespace(self, monkeypatch, n):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, (1 << 31) - 1, seed=31)
        top = fam.namespace_limit
        xs = np.array([0, top - 1, *range(1, n - 1)][:n], dtype=np.int64)
        for i, (a, b) in enumerate(fam.params):
            got = hash_many(fam, i, xs)
            assert got.dtype == np.int64 and got.shape == (n,)
            assert got.tolist() == [(a * x + b) % fam.m for x in xs.tolist()]
            assert got.tolist() == self._array_path(monkeypatch, fam, i, xs).tolist()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("m", [60_870, (1 << 31) - 1, (1 << 40) + 15])
    def test_murmur_with_top_bit_seeds(self, monkeypatch, n, m):
        seeds = ((1 << 63) | 0x1234_5678_9ABC, _MASK64, 1 << 63)
        fam = HashFamily(FamilyKind.MURMUR3, 3, m, seeds)
        xs = np.array([0, (1 << 63) - 1, *range(5, 5 * n, 5)][:n], dtype=np.int64)
        for i, seed in enumerate(seeds):
            got = hash_many(fam, i, xs)
            assert got.dtype == np.int64 and got.shape == (n,)
            assert got.tolist() == [_murmur_reference(seed, x) % m for x in xs.tolist()]
            assert got.tolist() == self._array_path(monkeypatch, fam, i, xs).tolist()

    @pytest.mark.parametrize("n", SIZES)
    def test_md5(self, n):
        fam = make_family(FamilyKind.MD5, 2, 1009, seed=8)
        xs = np.arange(100, 100 + n, dtype=np.int64)
        for i, seed in enumerate(fam.params):
            got = hash_many(fam, i, xs)
            assert got.dtype == np.int64 and got.shape == (n,)
            assert got.tolist() == [_md5_reference(seed, x) % 1009 for x in xs.tolist()]

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_zero_d_and_list_inputs_keep_their_shape(self, monkeypatch, kind):
        fam = make_family(kind, 2, 1009, seed=4)
        inputs = (np.int64(777), 777, [777, 778], [[1, 2], [3, 4]], np.zeros((0, 3)))
        for xs in inputs:
            got = hash_many(fam, 1, xs)
            assert got.dtype == np.int64 and np.shape(got) == np.shape(xs)
            flat = np.asarray(xs, dtype=np.int64).ravel()
            assert np.ravel(got).tolist() == hash_many(fam, 1, flat).tolist()
            if kind != FamilyKind.MD5 and np.ndim(xs):  # 0-d input is never long
                assert np.ravel(got).tolist() == np.ravel(
                    self._array_path(monkeypatch, fam, 1, xs)).tolist()

    @pytest.mark.parametrize("kind", [FamilyKind.SIMPLE_LINEAR, FamilyKind.MURMUR3])
    def test_wraps_like_int64_outside_the_namespace(self, monkeypatch, kind):
        # keys beyond namespace_limit or negative hash wrongly, but the same way
        # on both paths
        fam = make_family(kind, 2, 60_869, seed=6)
        lo = min(fam.namespace_limit, (1 << 63) - 1)
        xs = np.array([-1, -(1 << 63), lo, (1 << 63) - 1], dtype=np.int64)
        for i in range(2):
            assert (hash_many(fam, i, xs).tolist()
                    == self._array_path(monkeypatch, fam, i, xs).tolist())


class TestKFitsTheDescriptor:
    """``to_bytes`` packs k as u16, so a family never holds more functions."""

    def test_k_of_two_to_the_16_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            make_family(FamilyKind.MURMUR3, 2**16, 1000)

    @pytest.mark.parametrize("kind", [FamilyKind.MURMUR3, FamilyKind.SIMPLE_LINEAR])
    def test_largest_k_round_trips(self, kind):
        fam = make_family(kind, 2**16 - 1, 1009, seed=3)
        back, offset = HashFamily.from_bytes(fam.to_bytes())
        assert back == fam and offset == len(fam.to_bytes())


class TestSizesReadAsElements:
    """k, m and the namespace size are read by the rule elements use."""

    def test_whole_floats_are_ints(self):
        fam = HashFamily(FamilyKind.MURMUR3, 2.0, np.float64(600.0), (1, 2))
        assert (fam.k, fam.m) == (2, 600) and type(fam.k) is type(fam.m) is int
        assert fam == HashFamily(FamilyKind.MURMUR3, 2, 600, (1, 2))
        assert HashFamily.from_bytes(fam.to_bytes())[0] == fam
        M = fam.check_namespace(1e6)
        assert M == 10**6 and type(M) is int

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_make_family_reads_whole_floats(self, kind):
        assert make_family(kind, 2.0, 601.0, seed=3) == make_family(kind, 2, 601, seed=3)

    @pytest.mark.parametrize("k, m", [(2.5, 600), (2, 600.5), ("2", 600), (2, None)])
    def test_fractions_and_non_numbers_raise(self, k, m):
        with pytest.raises(ValueError, match="is not an integer"):
            HashFamily(FamilyKind.MURMUR3, k, m, (1, 2))
        for kind in FamilyKind:
            with pytest.raises(ValueError, match="is not an integer"):
                make_family(kind, k, m)

    @pytest.mark.parametrize("M, match", [(1.5, "is not an integer"), (-5, ">= 0"),
                                          (float("inf"), "is not an integer")])
    def test_namespace_that_is_no_size_raises(self, M, match):
        with pytest.raises(ValueError, match=match):
            make_family(FamilyKind.MURMUR3, 2, 600).check_namespace(M)


class TestHashRanges:
    """``_hash_ranges`` hashes the elements of [lo, hi) pieces from their
    bounds; it must equal ``hash_many`` over the concatenated ``arange``s."""

    @staticmethod
    def _check(fam, pieces):
        xs = np.concatenate([np.arange(lo, hi, dtype=np.int64) for lo, hi in pieces])
        for i in range(fam.k):
            got = hashing._hash_ranges(fam, i, pieces)
            assert got.dtype == np.int64
            assert np.array_equal(got, hash_many(fam, i, xs)), (i, pieces[:3])

    @pytest.mark.parametrize("kind", list(FamilyKind))
    @pytest.mark.parametrize("n", [1, hashing._REDUCE_MIN_SIZE - 1, hashing._REDUCE_MIN_SIZE,
                                   3000])
    def test_from_zero(self, kind, n):
        self._check(make_family(kind, 3, 60_870, seed=31), [(0, n)])

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_up_to_the_namespace_limit(self, kind):
        # for the linear family, a*x + b of the last element is the largest
        # below 2^63 that the family hashes
        fam = make_family(kind, 3, (1 << 31) - 1, seed=37)
        top = fam.namespace_limit
        if kind == FamilyKind.SIMPLE_LINEAR:
            assert max(a * (top - 1) + b for a, b in fam.params) > (1 << 63) - (1 << 31)
        self._check(fam, [(top - 2000, top)])
        self._check(fam, [(0, 700), (top // 2, top // 2 + 3), (top - 1, top)])

    @pytest.mark.parametrize("kind", list(FamilyKind))
    @pytest.mark.parametrize("count", [5, hashing._REDUCE_MIN_SIZE + 100])
    def test_single_element_pieces(self, kind, count):
        fam = make_family(kind, 3, 4001, seed=41)
        starts = np.sort(np.random.default_rng(count).choice(10**7, count, replace=False))
        self._check(fam, [(x, x + 1) for x in starts.tolist()])

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_chunks_that_straddle_the_scan_chunk(self, monkeypatch, kind):
        from bloomsampletree import bloom
        chunk = 2 * hashing._REDUCE_MIN_SIZE
        monkeypatch.setattr(bloom, "SCAN_CHUNK", chunk)
        fam = make_family(kind, 3, 60_870, seed=43)
        ranges = [(3, 40), (chunk - 300, chunk + 300), (2 * chunk + 1, 2 * chunk + 2),
                  (3 * chunk - 7, 5 * chunk + 11), (10**9, 10**9 + 500)]
        chunks = list(bloom._chunks(ranges))
        assert any(len(pieces) > 1 for pieces in chunks)
        assert sum(hi - lo for pieces in chunks for lo, hi in pieces) == sum(
            hi - lo for lo, hi in ranges)
        for pieces in chunks:
            self._check(fam, pieces)

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_pieces_that_cross_a_multiple_of_2_33(self, kind):
        # murmur3 folds its first xor-shift into one constant per 2^33 block,
        # so a piece that crosses a block boundary is hashed in two parts
        block = 1 << 33
        fam = make_family(kind, 3, 60_870, seed=47)
        top = fam.namespace_limit
        assert top > 3 * block
        self._check(fam, [(block - 700, block + 900)])
        self._check(fam, [(block - 3, block + 4)])  # below _REDUCE_MIN_SIZE
        self._check(fam, [(5, 40), (block + 3, block + 10), (2 * block - 600, 2 * block + 1),
                          (3 * block - 1, 3 * block + 300)])
        self._check(fam, [(2 * block - 2, 2 * block + 600), (top - 800, top)])
