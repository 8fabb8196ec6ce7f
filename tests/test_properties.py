"""Property tests of the exact results, over random families, namespaces and
trees.

Each hash family is re-implemented here in pure Python as an oracle, so a
change that broke both the array path (``scan``) and the scalar path
(``contains``) the same way would still fail.
"""
import hashlib
import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from bloomsampletree.baselines import ReconstructionMode, da_reconstruct, hi_reconstruct
from bloomsampletree.bloom import BloomFilter, build_filter, tail_mask
from bloomsampletree.bst import BloomSampleTree, plan_with_m
from bloomsampletree.hashing import FamilyKind, make_family

_MASK64 = (1 << 64) - 1


def oracle_hash(family, i, x):
    """h_i(x) of one element, as each family defines it."""
    m = family.m
    if family.kind == FamilyKind.SIMPLE_LINEAR:
        a, b = family.params[i]
        return (a * x + b) % m
    seed = family.params[i]
    if family.kind == FamilyKind.MD5:
        return int.from_bytes(hashlib.md5(struct.pack("<QQ", seed, x)).digest()[:8],
                              "little") % m
    h = x ^ seed  # the murmur3 64-bit finalizer
    h ^= h >> 33
    h = h * 0xFF51AFD7ED558CCD & _MASK64
    h ^= h >> 33
    h = h * 0xC4CEB9FE1A85EC53 & _MASK64
    h ^= h >> 33
    return h % m


def oracle_scan(flt, xs):
    """The elements of ``xs`` whose k bits the filter sets, in order."""
    words, family = flt.words.tolist(), flt.family
    return [x for x in xs if all(words[h >> 6] >> (h & 63) & 1
                                 for h in (oracle_hash(family, i, x) for i in range(family.k)))]


families = st.builds(make_family, st.sampled_from(list(FamilyKind)), st.integers(1, 3),
                     st.integers(64, 4000), st.integers(0, 2**32 - 1))


@st.composite
def scan_cases(draw):
    """A family, the (gap before, length) of up to three pieces, members
    given by their index among the pieces' elements, an optional seed of
    random extra bits, and four starts for the pieces: at 0, such that the
    first piece crosses a multiple of 2^33 (unless it is one element long),
    such that the last piece ends at ``namespace_limit``, and anywhere."""
    family = draw(families)
    limit = family.namespace_limit
    lengths = st.integers(1, 64) | st.integers(512, 1000)  # both sides of hashing._REDUCE_MIN_SIZE
    shape = draw(st.lists(st.tuples(st.integers(0, 40), lengths), min_size=1, max_size=3))
    span = sum(gap + n for gap, n in shape)
    gap, n = shape[0]
    crossing = ((draw(st.integers(1, (limit - 1) >> 33)) << 33) - gap
                - draw(st.integers(min(1, n - 1), n - 1)))
    starts = [0, crossing, limit - span, draw(st.integers(0, limit - span))]
    members = draw(st.lists(st.integers(0, sum(n for _, n in shape) - 1), max_size=40))
    noise = draw(st.none() | st.integers(0, 2**32 - 1))
    return family, shape, members, noise, starts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scan_cases())
def test_scan_equals_contains_and_the_oracle(case):
    family, shape, members, noise, starts = case
    for lo in starts:
        pieces = []
        for gap, n in shape:
            pieces.append((lo + gap, lo + gap + n))
            lo += gap + n
        xs = [x for lo, hi in pieces for x in range(lo, hi)]
        flt = build_filter(family, family.namespace_limit, [xs[i] for i in members])
        if noise is not None:  # about half the bits set, so most elements pass h_0
            words = flt.words | np.frombuffer(np.random.default_rng(noise).bytes(
                8 * flt.words.size), dtype=np.uint64)
            words[-1] &= ~tail_mask(family.m)
            flt = BloomFilter(family, family.namespace_limit, words=words)
        want = oracle_scan(flt, xs)
        assert [x for x in xs if flt.contains(x)] == want
        assert flt.scan(pieces).tolist() == want
        assert {xs[i] for i in members} <= set(want)


@st.composite
def tree_cases(draw):
    """A pruned tree over M <= 5,000 whose occupied set clusters at 0, at
    M - 1 or anywhere, and a query that shares some of its members."""
    family = draw(families)
    M = draw(st.integers(2, 5000))
    plan = plan_with_m(family.m, M, family.k, draw(st.sampled_from([2.0, 8.0, 30.0, 240.0])))
    occupied = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, min(M, 300)))
        lo = draw(st.sampled_from([0, M - n, draw(st.integers(0, M - n))]))
        occupied += range(lo, lo + n)
    tree = BloomSampleTree.build_pruned(plan, family, occupied)
    shared = draw(st.lists(st.sampled_from(occupied), max_size=30))
    others = draw(st.lists(st.integers(0, M - 1), max_size=30))
    return tree, sorted(set(occupied)), build_filter(family, M, shared + others)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tree_cases(), st.sampled_from([0.0, 0.5]), st.integers(0, 2**32 - 1))
def test_pruned_tree_results_are_exact(case, threshold, seed):
    tree, occupied, query = case
    M = tree.plan.namespace_size
    tree.verify()
    positives = [x for x in range(M) if query.contains(x)]
    assert positives == oracle_scan(query, range(M))
    da, _ = da_reconstruct(M, query)
    assert da.tolist() == positives
    if tree.family.invertible:
        for mode in (ReconstructionMode.SET_BITS, ReconstructionMode.UNSET_BITS):
            assert hi_reconstruct(query, M, mode)[0].tolist() == positives

    got, counters = tree.reconstruct(query, 0.0)
    assert set(occupied) & set(positives) <= set(got.tolist()) <= set(positives)
    loaded = BloomSampleTree.from_bytes(tree.to_bytes())
    loaded_got, loaded_counters = loaded.reconstruct(query, 0.0)
    assert np.array_equal(loaded_got, got) and loaded_counters == counters

    one = tree.sample(query, threshold, rng=np.random.default_rng(seed))
    batch = tree.sample_many(query, 1, threshold=threshold, rng=np.random.default_rng(seed))
    assert (batch[0].element, batch[0].counters) == (one.element, one.counters)
    assert one.element is None or query.contains(one.element)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tree_cases(), st.sampled_from([0.0, 0.5]), st.integers(0, 2**32 - 1),
       st.integers(0, 50))
def test_without_replacement_past_the_positives_draws_each_once(case, threshold, seed,
                                                                 extra):
    tree, _, query = case
    M = tree.plan.namespace_size

    def draw(r):
        return tree.sample_many(query, r, with_replacement=False, threshold=threshold,
                                rng=np.random.default_rng(seed))

    n_reachable = sum(o.element is not None for o in draw(M))
    if n_reachable == 0:  # every path finds nothing, and none is dropped
        assert [o.element for o in draw(extra + 1)] == [None] * (extra + 1)
        return
    few, many = draw(n_reachable + 1), draw(2 * n_reachable + extra)
    elements = [o.element for o in many]
    assert len(set(elements)) == len(elements) == n_reachable
    assert all(query.contains(x) for x in elements)
    assert [(o.element, o.counters) for o in few] == [(o.element, o.counters) for o in many]
