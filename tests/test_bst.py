"""Tests for tree planning, construction, sampling, and reconstruction."""
import numpy as np
import pytest

from bloomsampletree.bloom import BloomFilter, FamilyMismatchError, build_filter
from bloomsampletree.bst import (
    BloomSampleTree,
    TreePlan,
    PlanError,
    plan_from_accuracy,
    plan_with_m,
    max_leaf_capacity,
)
from bloomsampletree.estimate import intersection_estimate, sample_visit_bound
from bloomsampletree.hashing import FamilyKind, make_family
from bloomsampletree import baselines


def small_tree(M=16, m=500, k=3, seed=0, leaf_ratio=2.0, family_kind=FamilyKind.MURMUR3,
               occupied=None):
    plan = plan_with_m(m, M, k, leaf_ratio)
    fam = make_family(family_kind, k, m, seed=seed)
    if occupied is None:
        tree = BloomSampleTree.build_full(plan, fam)
    else:
        tree = BloomSampleTree.build_pruned(plan, fam, occupied)
    return tree, plan, fam


class TestPlanner:
    def test_reference_parameters_m6(self):
        plan = plan_from_accuracy(0.9, 10**3, 10**6, 3, 240.0)
        assert plan.m == 60870
        assert plan.depth == 9
        assert plan.leaf_size == 1954
        assert plan.padded_size == 1954 * 512
        assert plan.full_node_count == 1023

    def test_reference_parameters_m7(self):
        plan = plan_from_accuracy(0.9, 10**3, 10**7, 3, 240.0)
        assert plan.m == 132933
        assert plan.depth == 12
        assert plan.leaf_size == 2442

    def test_m_is_minimal(self):
        from bloomsampletree.estimate import fp_probability
        plan = plan_from_accuracy(0.9, 10**3, 10**6, 3, 240.0)
        budget = 10**3 * 0.1 / (0.9 * (10**6 - 10**3))
        assert fp_probability(plan.m, 3, 10**3) <= budget
        assert fp_probability(plan.m - 1, 3, 10**3) > budget

    def test_leaf_capacity_boundary(self):
        cap = max_leaf_capacity(240.0)
        assert cap / np.log2(cap) <= 240.0 < (cap + 1) / np.log2(cap + 1)
        assert max_leaf_capacity(2.0) == 4  # 4/log2(4) = 2 exactly

    def test_depth_covers_namespace(self):
        for M in (16, 1000, 10**5, 10**6 + 7):
            plan = plan_with_m(10**4, M, 3, 240.0)
            assert plan.leaf_size << plan.depth >= M
            if plan.depth:
                assert -(-M // (1 << (plan.depth - 1))) > max_leaf_capacity(240.0)

    def test_rejects_accuracy_one(self):
        with pytest.raises(PlanError):
            plan_from_accuracy(1.0, 10**3, 10**6, 3, 240.0)

    def test_rejects_loose_accuracy(self):
        with pytest.raises(PlanError):
            plan_from_accuracy(1e-9, 10**3, 10**6, 3, 240.0)

    def test_rejects_bad_n_ref(self):
        with pytest.raises(PlanError):
            plan_from_accuracy(0.9, 0, 10**6, 3, 240.0)
        with pytest.raises(PlanError):
            plan_from_accuracy(0.9, 10**6, 10**6, 3, 240.0)

    def test_rejects_degenerate_m(self):
        with pytest.raises(PlanError):
            plan_with_m(10, 100, 3, 2.0)

    def test_plan_round_trip(self):
        plan = plan_from_accuracy(0.8, 500, 10**5, 4, 100.0)
        back, offset = TreePlan.from_bytes(plan.to_bytes())
        assert back == plan
        assert offset == len(plan.to_bytes())


class TestBuild:
    def test_three_level_structure(self):
        tree, plan, _ = small_tree(M=16, leaf_ratio=2.0)
        assert plan.depth == 2 and plan.leaf_size == 4
        assert tree.node_count == 7
        assert [tree.node_range(2, j) for j in range(4)] == [
            (0, 4), (4, 8), (8, 12), (12, 16)]

    def test_zero_depth_tree(self):
        plan = plan_with_m(500, 100, 3, 10**9)
        fam = make_family(FamilyKind.MURMUR3, 3, 500, seed=1)
        tree = BloomSampleTree.build_full(plan, fam)
        assert plan.depth == 0 and tree.node_count == 1

    def test_no_false_negatives_at_leaves(self):
        tree, plan, _ = small_tree(M=100, m=2000, leaf_ratio=4.0)
        for x in range(100):
            leaf = (plan.depth, x // plan.leaf_size)
            assert tree.nodes[leaf].contains(x)

    def test_family_plan_mismatch(self):
        plan = plan_with_m(500, 16, 3, 2.0)
        fam = make_family(FamilyKind.MURMUR3, 3, 999, seed=0)
        with pytest.raises(ValueError):
            BloomSampleTree.build_full(plan, fam)

    def test_pruned_empty(self):
        tree, _, _ = small_tree(M=16, occupied=[])
        assert tree.node_count == 0

    def test_pruned_full_occupancy_matches_full(self):
        for M in (16, 100, 1000):
            full, plan, fam = small_tree(M=M, m=2000, leaf_ratio=8.0)
            pruned = BloomSampleTree.build_pruned(plan, fam, np.arange(M))
            assert pruned == full

    def test_pruned_single_leaf_cluster(self):
        tree, plan, _ = small_tree(M=64, leaf_ratio=2.0, occupied=[1, 2, 3])
        assert tree.node_count == plan.depth + 1
        assert all((lvl, 0) in tree.nodes for lvl in range(plan.depth + 1))

    def test_pruned_sparse_huge_namespace(self):
        M = 2**40
        plan = plan_with_m(4000, M, 3, 240.0)
        fam = make_family(FamilyKind.MURMUR3, 3, 4000, seed=0)
        occ = np.random.default_rng(5).choice(M, size=1000, replace=False)
        tree = BloomSampleTree.build_pruned(plan, fam, occ)
        assert plan.depth >= 25
        assert tree.node_count <= (plan.depth + 1) * occ.size
        for x in occ[:20]:
            assert tree.nodes[(plan.depth, int(x) // plan.leaf_size)].contains(int(x))

    def test_pruned_rejects_out_of_namespace(self):
        plan = plan_with_m(500, 16, 3, 2.0)
        fam = make_family(FamilyKind.MURMUR3, 3, 500, seed=0)
        with pytest.raises(ValueError):
            BloomSampleTree.build_pruned(plan, fam, [16])


class TestInsert:
    def test_fresh_path_node_count(self):
        tree, plan, _ = small_tree(M=64, leaf_ratio=2.0, occupied=[])
        tree.insert(5)
        assert tree.node_count == plan.depth + 1

    def test_idempotent_bits(self):
        tree, _, _ = small_tree(M=64, leaf_ratio=2.0, occupied=[5, 40])
        before = {k: f.words.copy() for k, f in tree.nodes.items()}
        tree.insert(5)
        assert all(np.array_equal(tree.nodes[k].words, w) for k, w in before.items())

    def test_matches_batch_build(self):
        rng = np.random.default_rng(11)
        occ = rng.choice(1000, size=80, replace=False)
        batch, plan, fam = small_tree(M=1000, m=2000, leaf_ratio=8.0, occupied=occ)
        incremental = BloomSampleTree(plan, fam)
        for x in occ:
            incremental.insert(int(x))
        assert incremental == batch


class TestSample:
    def test_singleton_query(self):
        tree, plan, fam = small_tree(M=1000, m=5000, leaf_ratio=8.0)
        rng = np.random.default_rng(0)
        for x in (0, 437, 999):
            out = tree.sample(build_filter(fam, 1000, [x]), rng=rng)
            assert out.element == x

    def test_all_zero_query(self):
        tree, plan, fam = small_tree(M=16, leaf_ratio=2.0)
        out = tree.sample(BloomFilter(fam, 16), rng=np.random.default_rng(0))
        assert out.element is None
        assert out.counters.intersections == 2

    def test_element_always_positive(self):
        tree, plan, fam = small_tree(M=2000, m=600, leaf_ratio=8.0)
        rng = np.random.default_rng(1)
        q = build_filter(fam, 2000, rng.choice(2000, size=20, replace=False))
        for _ in range(200):
            # threshold 0 only prunes bit-exact empty branches, so the
            # search always lands on some positive
            out = tree.sample(q, threshold=0.0, rng=rng)
            assert out.element is not None and q.contains(out.element)

    def test_deterministic_replay(self):
        tree, plan, fam = small_tree(M=2000, m=600, leaf_ratio=8.0)
        q = build_filter(fam, 2000, [17, 600, 1500])
        a = tree.sample(q, rng=np.random.default_rng(7))
        b = tree.sample(q, rng=np.random.default_rng(7))
        assert a.element == b.element and a.counters == b.counters

    def test_tie_at_threshold_descends_left(self):
        # symmetric singleton halves give exactly equal child estimates
        tree, plan, fam = small_tree(M=8, m=4096, leaf_ratio=2.0)
        q = build_filter(fam, 8, [0, 4])
        est = intersection_estimate(tree.nodes[(1, 0)].intersect(q), q)
        est_l = intersection_estimate(tree.nodes[(1, 0)], q)
        est_r = intersection_estimate(tree.nodes[(1, 1)], q)
        assert est_l == est_r
        rng = np.random.default_rng(3)
        for _ in range(20):
            out = tree.sample(q, threshold=est_l, rng=rng)
            assert out.element == 0

    def test_backtracks_out_of_false_overlap(self):
        # tiny m forces false set overlaps; the sample must still be a positive
        tree, plan, fam = small_tree(M=512, m=64, leaf_ratio=2.0, seed=5)
        rng = np.random.default_rng(5)
        q = build_filter(fam, 512, [100])
        positives = set(np.arange(512)[q.contains_many(np.arange(512))])
        for _ in range(100):
            out = tree.sample(q, rng=rng)
            if out.element is not None:
                assert out.element in positives

    def test_counters_track_depth(self):
        tree, plan, fam = small_tree(M=1000, m=5000, leaf_ratio=8.0)
        out = tree.sample(build_filter(fam, 1000, [123]),
                          rng=np.random.default_rng(0))
        assert out.counters.nodes_visited >= plan.depth + 1
        assert out.counters.leaves_scanned >= 1
        assert out.counters.membership_queries >= plan.leaf_size

    def test_incompatible_query_rejected(self):
        tree, plan, fam = small_tree(M=16, leaf_ratio=2.0)
        other = make_family(FamilyKind.MURMUR3, 3, 500, seed=99)
        with pytest.raises(FamilyMismatchError):
            tree.sample(BloomFilter(other, 16))

    def test_node_visit_bound(self):
        # mean visits within 4x the analytic bound for an accuracy-0.8 plan
        plan = plan_from_accuracy(0.8, 10**3, 10**5, 3, 240.0)
        fam = make_family(FamilyKind.MURMUR3, 3, plan.m, seed=2)
        tree = BloomSampleTree.build_full(plan, fam)
        rng = np.random.default_rng(2)
        visits = []
        for _ in range(100):
            q = build_filter(fam, 10**5, rng.choice(10**5, size=100, replace=False))
            visits.append(tree.sample(q, rng=rng).counters.nodes_visited)
        bound = sample_visit_bound(10**5, plan.leaf_size, plan.m, 3, 100)
        assert np.mean(visits) <= 4 * bound


class TestSampleMany:
    def test_r1_bitwise_identical_to_sample(self):
        tree, plan, fam = small_tree(M=2000, m=600, leaf_ratio=8.0)
        rng = np.random.default_rng(13)
        q = build_filter(fam, 2000, rng.choice(2000, size=15, replace=False))
        single = tree.sample(q, rng=np.random.default_rng(21))
        batch = tree.sample_many(q, 1, rng=np.random.default_rng(21))
        assert len(batch) == 1
        assert batch[0].element == single.element
        assert batch[0].counters == single.counters

    def test_left_path_count_binomial(self):
        tree, plan, fam = small_tree(M=8, m=4096, leaf_ratio=2.0)
        q = build_filter(fam, 8, [0, 1, 4])
        est_l = intersection_estimate(tree.nodes[(1, 0)], q)
        est_r = intersection_estimate(tree.nodes[(1, 1)], q)
        p = est_l / (est_l + est_r)
        rng = np.random.default_rng(17)
        total_left = 0
        trials = 10**4
        for _ in range(trials):
            outs = tree.sample_many(q, 3, rng=rng)
            total_left += sum(1 for o in outs if o.element in (0, 1))
        mean = total_left / trials
        sigma = np.sqrt(3 * p * (1 - p) / trials)
        assert abs(mean - 3 * p) < 3 * sigma

    def test_without_replacement_exhausts_positives(self):
        tree, plan, fam = small_tree(M=2000, m=20000, leaf_ratio=8.0)
        rng = np.random.default_rng(19)
        members = rng.choice(2000, size=30, replace=False)
        q = build_filter(fam, 2000, members)
        positives, _ = baselines.da_reconstruct(2000, q)
        outs = tree.sample_many(q, positives.size, with_replacement=False,
                                threshold=0.0, rng=rng)
        got = sorted(o.element for o in outs)
        assert got == sorted(positives.tolist())

    def test_rejects_nonpositive_r(self):
        tree, plan, fam = small_tree(M=16, leaf_ratio=2.0)
        with pytest.raises(ValueError):
            tree.sample_many(BloomFilter(fam, 16), 0)


class TestReconstruct:
    def test_all_zero_query(self):
        tree, plan, fam = small_tree(M=16, leaf_ratio=2.0)
        elements, counters = tree.reconstruct(BloomFilter(fam, 16))
        assert elements.size == 0

    def test_two_element_set(self):
        tree, plan, fam = small_tree(M=16, m=500, leaf_ratio=2.0)
        elements, _ = tree.reconstruct(build_filter(fam, 16, [4, 6]))
        assert sorted(elements.tolist()) == [4, 6]

    def test_superset_of_members_at_zero_threshold(self):
        rng = np.random.default_rng(23)
        tree, plan, fam = small_tree(M=1024, m=300, leaf_ratio=8.0, seed=6)
        for _ in range(20):
            members = rng.choice(1024, size=25, replace=False)
            q = build_filter(fam, 1024, members)
            got, _ = tree.reconstruct(q, threshold=0.0)
            assert set(members.tolist()) <= set(got.tolist())

    def test_oracle_equality_at_zero_threshold(self):
        rng = np.random.default_rng(29)
        tree, plan, fam = small_tree(M=1024, m=2048, leaf_ratio=8.0, seed=7)
        for _ in range(200):
            members = rng.choice(1024, size=int(rng.integers(1, 60)), replace=False)
            q = build_filter(fam, 1024, members)
            got, _ = tree.reconstruct(q, threshold=0.0)
            oracle, _ = baselines.da_reconstruct(1024, q)
            assert np.array_equal(np.sort(got), oracle)


class TestTreeSerialization:
    def test_round_trip_full(self):
        tree, plan, fam = small_tree(M=100, m=700, leaf_ratio=4.0)
        back = BloomSampleTree.from_bytes(tree.to_bytes())
        assert back == tree

    def test_round_trip_pruned(self):
        tree, plan, fam = small_tree(M=1000, m=700, leaf_ratio=8.0,
                                     occupied=[5, 9, 512, 900])
        back = BloomSampleTree.from_bytes(tree.to_bytes())
        assert back == tree
        assert back.to_bytes() == tree.to_bytes()

    def test_file_round_trip_preserves_sampling(self, tmp_path):
        tree, plan, fam = small_tree(M=2000, m=600, leaf_ratio=8.0)
        path = tmp_path / "t.bstr"
        tree.save(path)
        loaded = BloomSampleTree.load(path)
        q = build_filter(fam, 2000, [3, 700, 1100])
        a = tree.sample(q, rng=np.random.default_rng(31))
        b = loaded.sample(q, rng=np.random.default_rng(31))
        assert a.element == b.element and a.counters == b.counters

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            BloomSampleTree.from_bytes(b"NOPE" + b"\0" * 100)


class TestInsertHashesOnce:
    def test_k_hash_calls_per_element(self, monkeypatch):
        from bloomsampletree import bloom
        tree, plan, fam = small_tree(M=1000, m=2000, leaf_ratio=8.0, occupied=[3, 700])
        assert plan.depth >= 2
        calls = []
        real = bloom.hash_many

        def counting(family, i, xs):
            calls.append(i)
            return real(family, i, xs)

        monkeypatch.setattr(bloom, "hash_many", counting)
        for x in (5, 701, 999):
            calls.clear()
            tree.insert(x)
            assert sorted(calls) == list(range(fam.k))

    def test_insert_into_loaded_tree_matches_batch_build(self):
        rng = np.random.default_rng(37)
        old = rng.choice(1000, size=40, replace=False)
        new = rng.choice(1000, size=40, replace=False)
        tree, plan, fam = small_tree(M=1000, m=2000, leaf_ratio=8.0, occupied=old)
        loaded = BloomSampleTree.from_bytes(tree.to_bytes())
        for x in new:
            loaded.insert(int(x))
        assert loaded == BloomSampleTree.build_pruned(plan, fam, np.union1d(old, new))

    def test_insert_counts_one_per_path_node(self):
        tree, plan, _ = small_tree(M=1000, m=2000, leaf_ratio=8.0, occupied=[3, 700])
        before = {key: f.inserted_count for key, f in tree.nodes.items()}
        tree.insert(5)
        for level in range(plan.depth + 1):
            key = (level, 5 // (plan.padded_size >> level))
            assert tree.nodes[key].inserted_count == before.get(key, 0) + 1

    def test_rejects_padding(self):
        tree, plan, _ = small_tree(M=1000, m=2000, leaf_ratio=8.0, occupied=[])
        assert plan.padded_size > plan.namespace_size
        for x in (plan.namespace_size, plan.padded_size - 1, -1):
            with pytest.raises(ValueError):
                tree.insert(x)
        assert tree.node_count == 0


def _first_index_entry(tree) -> int:
    """Byte offset of the first (level, j) entry of a serialized tree."""
    return 5 + len(tree.plan.to_bytes()) + len(tree.family.to_bytes()) + 8


class TestTreeFileValidation:
    def test_empty_pruned_round_trip(self):
        tree, _, _ = small_tree(M=16, occupied=[])
        back = BloomSampleTree.from_bytes(tree.to_bytes())
        assert back == tree and back.node_count == 0
        assert back.to_bytes() == tree.to_bytes()

    def test_every_truncation_rejected(self):
        data = small_tree(M=16, m=200, leaf_ratio=2.0)[0].to_bytes()
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                BloomSampleTree.from_bytes(data[:cut])

    def test_trailing_byte_rejected(self):
        data = small_tree(M=16, m=200, leaf_ratio=2.0)[0].to_bytes()
        with pytest.raises(ValueError):
            BloomSampleTree.from_bytes(data + b"\0")

    def test_level_above_depth_rejected(self):
        tree = small_tree(M=16, m=200, leaf_ratio=2.0)[0]
        data = bytearray(tree.to_bytes())
        data[_first_index_entry(tree)] = 200
        with pytest.raises(ValueError, match="outside"):
            BloomSampleTree.from_bytes(bytes(data))

    def test_index_beyond_level_width_rejected(self):
        tree = small_tree(M=16, m=200, leaf_ratio=2.0)[0]
        data = bytearray(tree.to_bytes())
        data[_first_index_entry(tree) + 1] = 1  # root becomes (0, 1)
        with pytest.raises(ValueError, match="outside"):
            BloomSampleTree.from_bytes(bytes(data))

    def test_orphan_node_rejected(self):
        tree, plan, _ = small_tree(M=64, leaf_ratio=2.0, occupied=[1])
        assert plan.depth >= 2
        data = bytearray(tree.to_bytes())
        last = _first_index_entry(tree) + 9 * (tree.node_count - 1)
        assert data[last] == plan.depth
        data[last + 1] = (1 << plan.depth) - 1  # leaf moves under an absent parent
        with pytest.raises(ValueError, match="no parent"):
            BloomSampleTree.from_bytes(bytes(data))

    def test_duplicate_node_rejected(self):
        tree = small_tree(M=16, m=200, leaf_ratio=2.0)[0]
        data = bytearray(tree.to_bytes())
        second = _first_index_entry(tree) + 9
        data[second:second + 9] = bytes(9)  # a second (0, 0) entry
        with pytest.raises(ValueError, match="order"):
            BloomSampleTree.from_bytes(bytes(data))

    def test_version_one_rejected(self):
        data = bytearray(small_tree(M=16)[0].to_bytes())
        data[4] = 1
        with pytest.raises(ValueError, match="unsupported tree version 1"):
            BloomSampleTree.from_bytes(bytes(data))
