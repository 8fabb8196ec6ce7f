"""The batched builder against a per-leaf reference builder, and built trees'
shared level matrices against writes through ``insert``."""
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bloomsampletree import bloom, bst
from bloomsampletree.bloom import BloomFilter, build_filter
from bloomsampletree.bst import BloomSampleTree, plan_with_m
from bloomsampletree.hashing import FamilyKind, make_family

FAMILIES = list(FamilyKind)


def reference_build(plan, family, occupied=None) -> BloomSampleTree:
    """Fill each leaf with its own ``insert_many`` and OR upward with ``union``
    (a copy of the words for an only child), as the builder did before batching."""
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
            nodes[(level, j)] = (kids[0].union(kids[1]) if len(kids) == 2
                                  else BloomFilter(family, M, kids[0].words.copy()))
    return BloomSampleTree(plan, family, nodes)


def assert_same_tree(tree, ref):
    assert tree.to_bytes() == ref.to_bytes()
    assert tree.nodes.keys() == ref.nodes.keys()
    assert tree == ref


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

# sha256 of ``to_bytes`` of each case's tree (family seed 3): the v2 tree
# file is a fixed format, and files saved by earlier releases must compare
# equal to new ones byte for byte.
TREE_DIGESTS = {
    ('full', 'SIMPLE_LINEAR'):
        '091627d9386c0c676d693465231b7b33854e8ec4c89d14aa21d020e8d95b36a3',
    ('full', 'MURMUR3'):
        '507dca77830dc8d98c16a582cfe4a569f25c6bf39f5d6b8a7f48b687488358b5',
    ('full', 'MD5'):
        'b64bdff054db4c3fb31ca41b2e5aa2031ccffed6c502030b52acc5fc18cba2a5',
    ('pruned', 'SIMPLE_LINEAR'):
        '511a1508f8f485e6ad156db149d367d219c30e0e2e07b761f0cff108ccd64144',
    ('pruned', 'MURMUR3'):
        'fc6cf81f3395e0930e0661008473e2d576d9da2ee3ed12d0415fb314dc901d2d',
    ('pruned', 'MD5'):
        '9f3d7ea161012be3769fe8e3d7ae6e8366db0dd6aa3f4cb12547a049bc4f4653',
    ('empty', 'SIMPLE_LINEAR'):
        '1eebf2e9b4e5ad3b5928ac9846407d98078791d7b875b80bc7f278316d6f136a',
    ('empty', 'MURMUR3'):
        '8d94e5d6c63079f04116c708889b849debc7e418be047a422855201f53138dc6',
    ('empty', 'MD5'):
        'da1e777ba36f862fcba97b908d423900b2866c3107e63843a81fa02310839917',
    ('depth0', 'SIMPLE_LINEAR'):
        'cf7c75a29b851299b5d2a8aba677bae0a15834e30fe54819362c6ebb4d4df9d9',
    ('depth0', 'MURMUR3'):
        'baa6ff81aab579653ab465b06839f9ce1401e4167d6321d517eef4c7921cec4b',
    ('depth0', 'MD5'):
        '7748aa4d17bba07a9b020cafad09f03e4baeb277d13e6410a9f22a47654e82b2',
    ('depth0_pruned', 'SIMPLE_LINEAR'):
        '9971b78b6959a9a3536f4ff74ffc98b2b5f92959796b8ef376b9a53976c26abc',
    ('depth0_pruned', 'MURMUR3'):
        '7962d0425e458d55138cddcf2039aba76c565736d00b8b19c7d188ea316e86d0',
    ('depth0_pruned', 'MD5'):
        '4520015c009050717e97962ca0b9d9cde9e3c971437c188d726049f81521803c',
    ('one_word', 'SIMPLE_LINEAR'):
        'afababb85721fac496d597f289171e6c98ca432e4b73497f9d20318ccc723dba',
    ('one_word', 'MURMUR3'):
        'a331181d6364acefd8d2f95c692ed5ff86f8c510ad0e18c1ebf08f5c8458bae4',
    ('one_word', 'MD5'):
        '436dd8ade249fb76616659bb15e054347f8734e6567fe80dc5b357ddeb956d7f',
    ('ragged', 'SIMPLE_LINEAR'):
        '9caec62dd4b4cabe1d96a5a6fcc51580695a6bdb6fa04cfa27c7a6e8098b0eaa',
    ('ragged', 'MURMUR3'):
        '2d088b8d63c88c401c2ee74c39b932d826ebd3a1073f890cca355b1fe862c710',
    ('ragged', 'MD5'):
        '4ad18efb8cf18b647dc1fbc61dc35fa5ab817292310081bfd178c542cb07206a',
    ('ragged_wide', 'SIMPLE_LINEAR'):
        '01ec511c2b36d8eee57b5617890688eb3f825f8e22c899b9c2caae1c7028ccea',
    ('ragged_wide', 'MURMUR3'):
        'bd17c46f08fd818e1c0c96947bb49ab640b3c71b16a31dda377d97e648214960',
    ('ragged_wide', 'MD5'):
        '2a54214bc027c72f70ddcf8cfe1f444910acad9ad2bc29ce6bf0c3a2cdd3cf0c',
    ('sparse', 'SIMPLE_LINEAR'):
        '013e0452a0b397ebeeb47e80e7bb799fc4940068ea1637744be450864fd4e7d6',
    ('sparse', 'MURMUR3'):
        '7528d4e9458c6807dd2f338a415979b168ed2bb0190f93c7691b4719708c0ffc',
    ('sparse', 'MD5'):
        'bec15bf65ef954c44e6108eadae5ef3a5c35d0188eb4a2f428a0c0211676430a',
}


@pytest.mark.parametrize("kind", FAMILIES, ids=[k.name for k in FAMILIES])
@pytest.mark.parametrize("case", list(CASES))
def test_tree_files_keep_their_bytes(case, kind):
    plan, occ = CASES[case]
    fam = make_family(kind, plan.k, plan.m, seed=3)
    tree = (BloomSampleTree.build_full(plan, fam) if occ is None
            else BloomSampleTree.build_pruned(plan, fam, occ))
    assert hashlib.sha256(tree.to_bytes()).hexdigest() == TREE_DIGESTS[case, kind.name]


class TestMatchesReference:
    @pytest.mark.parametrize("rows", [1, 3, None], ids=["rows1", "rows3", "default"])
    @pytest.mark.parametrize("kind", FAMILIES, ids=[k.name for k in FAMILIES])
    @pytest.mark.parametrize("case", list(CASES))
    def test_byte_identical_with_equal_nodes(self, monkeypatch, case, kind, rows):
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
        fam = make_family(FamilyKind.MURMUR3, 3, 64)
        tree = BloomSampleTree.build_full(plan, fam)
        for j in range(4):
            lo = j * plan.leaf_size
            leaf = range(lo, min(lo + plan.leaf_size, 9))
            assert tree.nodes[(2, j)] == build_filter(fam, 9, leaf), j
        assert tree.nodes[(2, 3)].popcount() == 0


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


def _orders(ids, seed):
    """The ascending, descending, shuffled and repeated forms of ``ids``."""
    rng = np.random.default_rng(seed)
    asc = np.unique(np.asarray(ids, dtype=np.int64))
    repeated = np.concatenate([asc, rng.choice(asc, asc.size), asc[:1]])
    return {"ascending": asc, "descending": asc[::-1].copy(),
            "shuffled": rng.permutation(asc), "repeated": rng.permutation(repeated)}


@settings(max_examples=60, deadline=None)
@given(M=st.integers(1, 300), kind=st.sampled_from(FAMILIES), rows=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), share=st.floats(0.0, 1.0),
       ends=st.sampled_from(["", "first", "last", "both"]))
@example(M=50, kind=FamilyKind.MURMUR3, rows=1, seed=0, share=0.0, ends="")
@example(M=50, kind=FamilyKind.SIMPLE_LINEAR, rows=2, seed=0, share=0.0, ends="first")
@example(M=50, kind=FamilyKind.MD5, rows=2, seed=0, share=0.0, ends="last")
@example(M=1, kind=FamilyKind.MURMUR3, rows=1, seed=0, share=0.0, ends="both")
def test_input_order_gives_the_same_tree(M, kind, rows, seed, share, ends):
    """Ascending ids are used as given and any other order is sorted first;
    every order, repeats included, gives the same bytes, with small batches
    so that leaves straddle batch boundaries."""
    plan = plan_with_m(64, M, 3, 3.5)
    fam = make_family(kind, plan.k, plan.m, seed=seed)
    ids = np.random.default_rng(seed).choice(M, int(share * M), replace=False).tolist()
    ids += [0] * (ends in ("first", "both")) + [M - 1] * (ends in ("last", "both"))
    with pytest.MonkeyPatch.context() as patch:
        set_batch_rows(patch, plan.m, rows)
        files = {name: BloomSampleTree.build_pruned(plan, fam, xs).to_bytes()
                 for name, xs in _orders(ids, seed).items()}
    assert set(files.values()) == {reference_build(plan, fam, ids).to_bytes()}, files.keys()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40),
       bad=st.sampled_from([-1, 200, 10**6, 2.5, -0.5]))
def test_input_order_gives_the_same_error(seed, n, bad):
    """One id outside [0, M) or not an integer raises the same ValueError
    text in every order of the ids around it."""
    plan = plan_with_m(64, 200, 3, 3.5)
    fam = make_family(FamilyKind.MURMUR3, plan.k, plan.m, seed=1)
    rng = np.random.default_rng(seed)
    messages = set()
    for xs in _orders(rng.choice(200, n, replace=False), seed).values():
        ids = xs.tolist()
        ids.insert(int(rng.integers(len(ids) + 1)), bad)
        with pytest.raises(ValueError) as err:
            BloomSampleTree.build_pruned(plan, fam, ids)
        messages.add(str(err.value))
    assert len(messages) == 1, messages


class TestCallerInputIsOnlyRead:
    """Ascending int64 ids are not copied, so the builder hashes slices of
    the caller's own array: it must read them and never write them."""

    @pytest.fixture(params=[1, 3, None], ids=["rows1", "rows3", "default"])
    def build(self, request, monkeypatch):
        plan, occ = CASES["pruned"]
        set_batch_rows(monkeypatch, plan.m, request.param)
        fam = make_family(FamilyKind.MURMUR3, plan.k, plan.m, seed=3)
        ids = np.unique(occ)
        expected = reference_build(plan, fam, ids).to_bytes()
        return (lambda xs: BloomSampleTree.build_pruned(plan, fam, xs)), ids, expected

    def test_read_only_buffer(self, build):
        build_pruned, ids, expected = build
        data = ids.astype(np.int64).tobytes()
        xs = np.frombuffer(data, dtype=np.int64)
        assert not xs.flags.writeable
        assert build_pruned(xs).to_bytes() == expected
        assert xs.tobytes() == data

    def test_strided_view(self, build):
        build_pruned, ids, expected = build
        wide = np.full(2 * ids.size, -7, dtype=np.int64)  # the gaps are out of range
        wide[::2] = ids
        before = wide.copy()
        assert build_pruned(wide[::2]).to_bytes() == expected
        assert np.array_equal(wide, before)

    def test_writes_after_the_build_do_not_reach_the_tree(self, build):
        build_pruned, ids, expected = build
        xs = ids.astype(np.int64)
        tree = build_pruned(xs)
        xs[:] = xs[::-1]
        xs[0] = 0
        assert tree.to_bytes() == expected

    def test_list_int32_and_int64_give_the_same_tree(self, build):
        build_pruned, ids, expected = build
        for xs in (ids.tolist(), ids.astype(np.int32), ids.astype(np.int64)):
            assert build_pruned(xs).to_bytes() == expected, type(xs)


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
        bloom.insert_masks((tree.nodes[target],), {w: ones for w in range(len(before[target]))})
        for key, node in tree.nodes.items():
            if key != target:
                assert np.array_equal(node.words, before[key]), key
        assert np.bitwise_count(tree.nodes[target].words).sum() == 64 * len(before[target])

    @pytest.mark.parametrize("case", ["full", "pruned"])
    def test_copy_is_independent_of_the_tree(self, case):
        tree = _built(case)
        key = max(tree.nodes)
        node, ones = tree.nodes[key], (1 << 64) - 1
        saved = node.words.copy()
        copy = BloomFilter(node.family, node.namespace_size, saved.copy())
        bloom.insert_masks((copy,), {0: ones})
        assert np.array_equal(node.words, saved)
        bloom.insert_masks((node,), {w: ones for w in range(1, len(saved))})
        first = key[1] * (tree.plan.padded_size >> key[0])  # the node's first element
        tree.insert(first)
        assert int(copy.words[0]) == ones
        assert np.array_equal(copy.words[1:], saved[1:])
        assert int(node.words[0]) == int(saved[0]) | bloom.word_masks(
            tree.family, first).get(0, 0)
