"""The batched builder against a per-leaf reference builder, and built trees'
shared level matrices against writes through ``insert``."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bloomsampletree import bloom, bst
from bloomsampletree.bloom import BloomFilter
from bloomsampletree.bst import BloomSampleTree, plan_with_m
from bloomsampletree.hashing import FamilyKind, make_family

FAMILIES = list(FamilyKind)


def reference_build(plan, family, occupied=None) -> BloomSampleTree:
    """Fill each leaf with its own ``insert_many`` and OR upward with ``union``
    (a ``copy`` for an only child), as the builder did before batching."""
    M, width, depth = plan.namespace_size, plan.leaf_size, plan.depth
    if occupied is None:
        leaves = {j: np.arange(j * width, min((j + 1) * width, M)) for j in range(1 << depth)}
    else:
        occ = np.unique(np.asarray(occupied, dtype=np.int64))
        leaves = {int(j): occ[occ // width == j] for j in np.unique(occ // width)}
    nodes = {}
    for j, xs in leaves.items():
        leaf = nodes[(depth, j)] = BloomFilter(family, M)
        leaf.insert_many(xs)
    for level in range(depth - 1, -1, -1):
        for j in sorted({c >> 1 for lvl, c in nodes if lvl == level + 1}):
            kids = [nodes[key] for key in ((level + 1, 2 * j), (level + 1, 2 * j + 1))
                    if key in nodes]
            nodes[(level, j)] = kids[0].union(kids[1]) if len(kids) == 2 else kids[0].copy()
    return BloomSampleTree(plan, family, nodes)


def assert_same_tree(tree, ref):
    assert tree.to_bytes() == ref.to_bytes()
    assert tree.nodes.keys() == ref.nodes.keys()
    assert {key: node.inserted_count for key, node in tree.nodes.items()} == \
        {key: node.inserted_count for key, node in ref.nodes.items()}


def set_batch_rows(monkeypatch, m, rows):
    """Bound a build's batches to ``rows`` leaves (None keeps the default)."""
    if rows is not None:
        monkeypatch.setattr(bst, "_BUILD_BATCH_BYTES", rows * 64 * ((m + 63) // 64))


def _cases():
    """(name, plan, occupied or None for a full build)."""
    rng = np.random.default_rng(23)
    yield "full", plan_with_m(500, 1000, 3, 8.0), None
    yield "pruned", plan_with_m(500, 1000, 3, 8.0), rng.choice(1000, 90, replace=False)
    yield "empty", plan_with_m(500, 1000, 3, 8.0), []
    yield "depth0", plan_with_m(500, 100, 3, 10**9), None
    yield "depth0_pruned", plan_with_m(500, 100, 3, 10**9), [0, 50, 99]
    yield "one_word", plan_with_m(40, 300, 3, 8.0), None
    # M = 9 under 4 leaves of width 3: the last leaf holds no element
    yield "ragged", plan_with_m(64, 9, 3, 1.9), None
    yield "ragged_wide", plan_with_m(700, 10_007, 3, 40.0), None
    yield "sparse", plan_with_m(400, 2**40, 3, 240.0), rng.choice(2**40, 60, replace=False)


CASES = {name: (plan, occ) for name, plan, occ in _cases()}


class TestMatchesReference:
    @pytest.mark.parametrize("rows", [1, 3, None], ids=["rows1", "rows3", "default"])
    @pytest.mark.parametrize("kind", FAMILIES, ids=[k.name for k in FAMILIES])
    @pytest.mark.parametrize("case", list(CASES))
    def test_byte_identical_with_equal_counts(self, monkeypatch, case, kind, rows):
        plan, occ = CASES[case]
        fam = make_family(kind, plan.k, plan.m, seed=3)
        set_batch_rows(monkeypatch, plan.m, rows)
        tree = (BloomSampleTree.build_full(plan, fam) if occ is None
                else BloomSampleTree.build_pruned(plan, fam, occ))
        assert_same_tree(tree, reference_build(plan, fam, occ))

    def test_ragged_plans_have_empty_and_partial_leaves(self):
        assert CASES["ragged_wide"][0].namespace_size % CASES["ragged_wide"][0].leaf_size
        plan = CASES["ragged"][0]
        assert plan.depth == 2 and plan.leaf_size == 3 and plan.padded_size == 12
        tree = BloomSampleTree.build_full(plan, make_family(FamilyKind.MURMUR3, 3, 64))
        assert [tree.nodes[(2, j)].inserted_count for j in range(4)] == [3, 3, 3, 0]
        assert tree.nodes[(2, 3)].is_zero()


class TestHashesOncePerElement:
    @pytest.mark.parametrize("rows", [1, 3, None], ids=["rows1", "rows3", "default"])
    @pytest.mark.parametrize("case", ["full", "pruned", "ragged_wide", "sparse"])
    def test_k_times_the_elements_in_one_call_per_hash_per_batch(self, monkeypatch,
                                                                  case, rows):
        plan, occ = CASES[case]
        fam = make_family(FamilyKind.MURMUR3, plan.k, plan.m, seed=1)
        set_batch_rows(monkeypatch, plan.m, rows)
        hashed, calls, real = [], [], bloom.hash_many

        def counting(family, i, xs):
            hashed.append(np.size(xs))
            calls.append(i)
            return real(family, i, xs)

        monkeypatch.setattr(bloom, "hash_many", counting)
        if occ is None:
            tree = BloomSampleTree.build_full(plan, fam)
            n = plan.namespace_size
        else:
            tree = BloomSampleTree.build_pruned(plan, fam, occ)
            n = len(set(np.asarray(occ).tolist()))
        assert sum(hashed) == plan.k * n
        leaves = sum(1 for level, _ in tree.nodes if level == plan.depth)
        per_batch = rows or max(1, bst._BUILD_BATCH_BYTES // (64 * ((plan.m + 63) // 64)))
        assert len(calls) == plan.k * -(-leaves // per_batch)


@settings(max_examples=60, deadline=None)
@given(M=st.integers(1, 400), m=st.integers(24, 300), k=st.integers(1, 3),
       ratio=st.sampled_from([2.0, 3.5, 8.0, 30.0]), kind=st.sampled_from(FAMILIES),
       rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       share=st.floats(0.0, 1.0), full=st.booleans())
def test_random_small_plans_match_reference(M, m, k, ratio, kind, rows, seed, share, full):
    plan = plan_with_m(max(m, 8 * k), M, k, ratio)
    fam = make_family(kind, k, plan.m, seed=seed)
    occ = None
    if not full:
        occ = np.random.default_rng(seed).choice(M, int(share * M), replace=False)
    with pytest.MonkeyPatch.context() as patch:
        set_batch_rows(patch, plan.m, rows)
        tree = (BloomSampleTree.build_full(plan, fam) if full
                else BloomSampleTree.build_pruned(plan, fam, occ))
    assert_same_tree(tree, reference_build(plan, fam, occ))


def _built(case):
    plan, occ = CASES[case]
    fam = make_family(FamilyKind.MURMUR3, plan.k, plan.m, seed=9)
    if occ is None:
        return BloomSampleTree.build_full(plan, fam)
    return BloomSampleTree.build_pruned(plan, fam, occ)


def _path(plan, x):
    return {(level, (x // plan.leaf_size) >> (plan.depth - level))
            for level in range(plan.depth + 1)}


class TestLevelRowsDoNotAlias:
    """Built nodes are row views of one matrix per level; a write to one node
    must reach no other."""

    @pytest.mark.parametrize("case, x", [("full", 417), ("pruned", 417), ("pruned", 3),
                                         ("ragged_wide", 10_006)])
    def test_insert_changes_only_the_path_nodes(self, case, x):
        tree = _built(case)
        before = {key: node.words.copy() for key, node in tree.nodes.items()}
        masks = bloom.word_masks(tree.family, x)
        tree.insert(x)
        path = _path(tree.plan, x)
        for key, node in tree.nodes.items():
            expected = before.get(key, np.zeros_like(node.words)).copy()
            if key in path:
                for w, mask in masks.items():
                    expected[w] |= np.uint64(mask)
            assert np.array_equal(node.words, expected), key

    @pytest.mark.parametrize("case", ["full", "pruned", "ragged_wide"])
    def test_filling_one_node_leaves_every_other_row(self, case):
        tree = _built(case)
        before = {key: node.words.copy() for key, node in tree.nodes.items()}
        target = max(tree.nodes)  # the last row of the leaf matrix
        ones = (1 << 64) - 1
        tree.nodes[target].insert_masks({w: ones for w in range(len(before[target]))})
        for key, node in tree.nodes.items():
            if key != target:
                assert np.array_equal(node.words, before[key]), key
        assert np.bitwise_count(tree.nodes[target].words).sum() == 64 * len(before[target])

    @pytest.mark.parametrize("case", ["full", "pruned"])
    def test_copy_is_independent_of_the_tree(self, case):
        tree = _built(case)
        key = max(tree.nodes)
        node, ones = tree.nodes[key], (1 << 64) - 1
        copy, saved = node.copy(), node.words.copy()
        copy.insert_masks({0: ones})
        assert np.array_equal(node.words, saved)
        node.insert_masks({w: ones for w in range(1, len(saved))})
        tree.insert(tree.node_range(*key)[0])
        assert int(copy.words[0]) == ones
        assert np.array_equal(copy.words[1:], saved[1:])
        assert int(node.words[0]) == int(saved[0]) | bloom.word_masks(
            tree.family, tree.node_range(*key)[0]).get(0, 0)
