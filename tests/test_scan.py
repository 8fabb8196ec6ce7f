"""``BloomFilter.scan`` probes with an early exit: h_i is hashed only for the
elements that passed h_0 ... h_{i-1}, while ``contains_many`` still hashes
every element k times.  Both must equal a per-bit reference."""
import numpy as np
import pytest

from bloomsampletree import bloom, hashing
from bloomsampletree.bloom import BloomFilter, build_filter
from bloomsampletree.evalkit import calibrate_cost_ratio
from bloomsampletree.hashing import FamilyKind, hash_many, make_family

FAMILIES = list(FamilyKind)


def _reference(flt, ranges) -> list:
    """Per-bit reference: every h_i(x) bit set in the little-endian words."""
    k = flt.family.k
    return [x for lo, hi in ranges for x in range(lo, hi)
            if all((int(flt.words[h >> 6]) >> (h & 63)) & 1
                   for h in (int(hash_many(flt.family, i, x)) for i in range(k)))]


@pytest.fixture
def hashed(monkeypatch):
    """Sizes of the ``hash_many`` and ``_hash_ranges`` calls made by ``bloom``;
    a ``_hash_ranges`` call hashes the elements of its [lo, hi) pieces."""
    sizes = []
    hash_many, hash_ranges = bloom.hash_many, bloom._hash_ranges
    monkeypatch.setattr(bloom, "hash_many",
                        lambda family, i, xs: sizes.append(np.size(xs))
                        or hash_many(family, i, xs))
    monkeypatch.setattr(bloom, "_hash_ranges",
                        lambda family, i, pieces: sizes.append(
                            sum(hi - lo for lo, hi in pieces))
                        or hash_ranges(family, i, pieces))
    return sizes


@pytest.mark.parametrize("kind", FAMILIES)
class TestScanMatchesReference:
    M = 20_000
    RANGES = [(0, 700), (700, 1500), (5000, 5003), (M - 900, M)]

    def test_empty_filter_stops_after_h0(self, kind, hashed):
        flt = BloomFilter(make_family(kind, 3, 1009, seed=4), self.M)
        n = sum(hi - lo for lo, hi in self.RANGES)
        assert flt.scan(self.RANGES).tolist() == _reference(flt, self.RANGES) == []
        assert sum(hashed) == n and len(hashed) == 1  # h_0 of one shared chunk only

    def test_all_ones_filter_never_exits(self, kind, hashed):
        fam = make_family(kind, 3, 1009, seed=4)
        ones = np.full(16, ~np.uint64(0))
        ones[-1] &= ~bloom.tail_mask(fam.m)
        flt = BloomFilter(fam, self.M, words=ones)
        n = sum(hi - lo for lo, hi in self.RANGES)
        got = flt.scan(self.RANGES)
        assert got.tolist() == _reference(flt, self.RANGES)
        assert got.size == n and sum(hashed) == 3 * n

    def test_survivors_below_the_scalar_size(self, kind, hashed):
        fam = make_family(kind, 3, 1009, seed=5)
        rng = np.random.default_rng(kind)
        flt = build_filter(fam, self.M, rng.choice(self.M, 60, replace=False))
        ranges = [(lo, lo + 40) for lo in range(0, self.M, 400)]
        hashed.clear()
        # one scan per range: all 2,000 elements would share one chunk
        got = [x for r in ranges for x in flt.scan([r]).tolist()]
        assert got == _reference(flt, ranges)
        # 40 elements at a density of about 0.16 leave a few after h_0
        assert any(0 < size < hashing._SCALAR_MAX_SIZE for size in hashed)


@pytest.mark.parametrize("ranges, message", [
    ([(100, 120), (0, 20)], "starts before"),     # descending
    ([(0, 20), (10, 30)], "starts before"),       # overlapping
    ([(-20, 3)], "outside the namespace"),
    ([(10_000 - 10, 10_000 + 30)], "outside the namespace"),
])
def test_scan_rejects_ranges_it_cannot_answer(ranges, message):
    fam = make_family(FamilyKind.MURMUR3, 3, 4001, seed=3)
    flt = build_filter(fam, 10_000, np.random.default_rng(8).choice(10_000, 900, replace=False))
    with pytest.raises(ValueError, match=message):
        flt.scan(ranges)
    # empty ranges are skipped wherever they lie, as reconstruct's padding leaves
    skipped = [(-5, -5), (30, 20), (10_050, 10_000)]
    assert np.array_equal(flt.scan(skipped + [(0, 20)] + skipped + [(20, 40)]),
                          flt.scan([(0, 40)]))


@pytest.mark.parametrize("kind", FAMILIES)
def test_scan_hashes_about_one_element_per_probe(kind, hashed):
    M = 2 * bloom.SCAN_CHUNK + 123
    fam = make_family(kind, 3, 60_000, seed=7)
    flt = build_filter(fam, M, np.random.default_rng(7).choice(M, 1000, replace=False))
    d = flt.popcount() / flt.m
    assert d <= 0.1
    hashed.clear()
    found = flt.scan([(0, M)])
    assert M <= sum(hashed) <= M * (1 + 2 * d)
    assert np.array_equal(found, np.flatnonzero(flt.contains_many(np.arange(M))))


@pytest.mark.parametrize("kind", FAMILIES)
def test_contains_many_hashes_k_per_element(kind, hashed):
    fam = make_family(kind, 3, 60_000, seed=7)
    flt = build_filter(fam, 10**6, np.random.default_rng(8).choice(10**6, 1000, replace=False))
    xs = np.random.default_rng(9).integers(0, 10**6, 5000)
    hashed.clear()
    hit = flt.contains_many(xs)
    assert sum(hashed) == 3 * xs.size and len(hashed) == 3
    assert hit.shape == xs.shape and 0 < hit.sum() < xs.size


def test_calibration_times_leaf_scans(monkeypatch):
    widths = []
    scan = BloomFilter.scan
    monkeypatch.setattr(BloomFilter, "scan",
                        lambda self, ranges: widths.extend(hi - lo for lo, hi in ranges)
                        or scan(self, ranges))
    monkeypatch.setattr(BloomFilter, "contains_many", None)
    for m in (10**4, 30):
        widths.clear()
        assert calibrate_cost_ratio(m, 3, trials=5, rng=np.random.default_rng(1)) > 0
        assert widths == [4096] * 6  # one untimed scan unpacks, then 5 timed


@pytest.mark.parametrize("kind", FAMILIES)
def test_ragged_leaf_list_matches_reference(monkeypatch, kind):
    # the surviving leaves of a threshold-0.5 walk: gapped, abutting in places,
    # the last one clipped at M; small chunks put several in each
    monkeypatch.setattr(bloom, "SCAN_CHUNK", 1500)
    M, width = 30_000, 241
    fam = make_family(kind, 3, 4001, seed=11)
    rng = np.random.default_rng(int(kind))
    flt = build_filter(fam, M, rng.choice(M, 300, replace=False))
    leaves = sorted({*rng.choice(-(-M // width), 30, replace=False).tolist(),
                     7, 8, M // width})
    ranges = [(j * width, min((j + 1) * width, M)) for j in leaves]
    assert ranges[-1][1] - ranges[-1][0] < width
    got = flt.scan(ranges)
    assert got.tolist() == _reference(flt, ranges)
    assert got.size > 0
