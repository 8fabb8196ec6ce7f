"""Tests for tree planning, construction, sampling, and reconstruction."""
import math
import re
import struct
import sys

import numpy as np
import pytest

from bloomsampletree import bloom, bst, hashing
from bloomsampletree.bloom import BloomFilter, FamilyMismatchError, build_filter
from bloomsampletree.bst import (
    BloomSampleTree,
    OpCounters,
    TreePlan,
    PlanError,
    plan_from_accuracy,
    plan_with_m,
    max_leaf_capacity,
)
from bloomsampletree.estimate import (
    intersection_estimate_counts,
    sample_visit_bound,
)
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


def _estimate(node, query) -> float:
    """The tree's estimate of |node ∩ query|, from the two popcounts and the AND's."""
    return intersection_estimate_counts(node.m, node.family.k, node.popcount(), query.popcount(),
                                        int(np.bitwise_count(node.words & query.words).sum()))


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

    @pytest.mark.parametrize("M", [0, -5])
    def test_rejects_empty_namespace(self, M):
        with pytest.raises(PlanError, match="namespace size"):
            plan_with_m(200, M, 3, 240.0)

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
        assert sorted(tree.nodes) == [(0, 0), (1, 0), (1, 1), *((2, j) for j in range(4))]
        for j in range(4):
            assert tree.nodes[(2, j)] == build_filter(tree.family, 16, range(4 * j, 4 * j + 4))

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
        assert out.counters.intersections == 1  # the root's AND is empty

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
        est_l = _estimate(tree.nodes[(1, 0)], q)
        est_r = _estimate(tree.nodes[(1, 1)], q)
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
        est_l = _estimate(tree.nodes[(1, 0)], q)
        est_r = _estimate(tree.nodes[(1, 1)], q)
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

    def test_without_replacement_drops_paths_past_exhaustion(self):
        # once every leaf is drained the remaining paths are dropped, not NULL
        tree, plan, fam = small_tree(M=2000, m=2000, leaf_ratio=8.0)
        q = build_filter(fam, 2000, np.random.default_rng(29).choice(2000, 60, replace=False))
        positives, _ = baselines.da_reconstruct(2000, q)
        outs = tree.sample_many(q, 2 * positives.size, with_replacement=False,
                                threshold=0.0, rng=np.random.default_rng(31))
        assert sorted(o.element for o in outs) == sorted(positives.tolist())

    @pytest.mark.parametrize("threshold", [0.0, 0.5])
    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_without_replacement_stops_at_the_first_empty_path(self, kind, threshold):
        # the path after the last reachable positive walks the whole tree
        # and finds nothing, so a call past it draws nothing more
        tree, plan, fam = small_tree(M=2000, m=2000, leaf_ratio=8.0, family_kind=kind)
        q = build_filter(fam, 2000, np.random.default_rng(29).choice(2000, 60, replace=False))
        n_reachable = len(tree.sample_many(q, 2000, with_replacement=False,
                                           threshold=threshold, rng=np.random.default_rng(1)))
        assert n_reachable > 0
        calls = []
        for r in (n_reachable + 1, 20 * n_reachable):
            rng = np.random.default_rng(31)
            outs = tree.sample_many(q, r, with_replacement=False, threshold=threshold, rng=rng)
            calls.append(([(o.element, o.counters) for o in outs], rng.bit_generator.state))
        assert calls[0] == calls[1]
        assert len(calls[0][0]) == n_reachable

    @pytest.mark.parametrize("with_replacement", [True, False])
    def test_unpacks_the_query_once_per_call(self, monkeypatch, with_replacement):
        M = 10**6
        plan = plan_from_accuracy(0.9, 1000, M, 3, 240.0)
        assert (plan.m, plan.depth, plan.leaf_size) == (60_870, 9, 1954)
        fam = make_family(FamilyKind.MURMUR3, 3, plan.m, seed=1)
        tree = BloomSampleTree.build_full(plan, fam)
        query = build_filter(fam, M, np.random.default_rng(4).choice(M, 1000, replace=False))
        unpacks = []
        unpackbits = np.unpackbits
        monkeypatch.setattr(np, "unpackbits",
                            lambda *a, **kw: unpacks.append(1) or unpackbits(*a, **kw))
        outs = tree.sample_many(query, 200, with_replacement=with_replacement,
                                rng=np.random.default_rng(5))
        assert sum(o.counters.leaves_scanned for o in outs) > 50
        assert len(unpacks) == 1
        assert all(query.contains(o.element) for o in outs)

    def test_samples_of_one_query_unpack_it_once(self, monkeypatch):
        M = 10**5
        fam = make_family(FamilyKind.MURMUR3, 3, 6400, seed=1)
        tree = BloomSampleTree.build_full(plan_with_m(6400, M, 3, 240.0), fam)
        query = build_filter(fam, M, np.random.default_rng(4).choice(M, 300, replace=False))
        unpacks = []
        unpackbits = np.unpackbits
        monkeypatch.setattr(np, "unpackbits",
                            lambda *a, **kw: unpacks.append(1) or unpackbits(*a, **kw))
        rng = np.random.default_rng(6)
        outs = [tree.sample(query, rng=rng) for _ in range(20)]
        assert sum(o.counters.leaves_scanned for o in outs) >= 20
        assert len(unpacks) == 1
        assert all(query.contains(o.element) for o in outs)

    def test_rejects_nonpositive_r(self):
        tree, plan, fam = small_tree(M=16, leaf_ratio=2.0)
        with pytest.raises(ValueError):
            tree.sample_many(BloomFilter(fam, 16), 0)

    @pytest.mark.parametrize("r", [2.5, "3"])
    def test_rejects_non_integer_r(self, r):
        tree, plan, fam = small_tree(M=16, leaf_ratio=2.0)
        with pytest.raises(ValueError, match="^r must be an integer"):
            tree.sample_many(build_filter(fam, 16, [3]), r)

    def test_numpy_integer_r(self):
        tree, plan, fam = small_tree(M=16, leaf_ratio=2.0)
        query = build_filter(fam, 16, [3, 9])
        got = tree.sample_many(query, np.int64(5), rng=np.random.default_rng(2))
        want = tree.sample_many(query, 5, rng=np.random.default_rng(2))
        assert [(o.element, o.counters) for o in got] == [(o.element, o.counters) for o in want]


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


def _threshold_zero_trees(kind):
    """(name, tree, occupied) per tree shape the threshold-0 facts cover."""
    rng = np.random.default_rng(4)
    plan = plan_with_m(4000, 50_000, 3, 240.0)
    fam = make_family(kind, 3, 4000, seed=4)
    # the first 20 of 32 leaves hold a few elements each, the rest none
    occ = rng.choice(30_000, 60, replace=False)
    yield "pruned", BloomSampleTree.build_pruned(plan, fam, occ), occ
    loaded = BloomSampleTree.from_bytes(BloomSampleTree.build_pruned(plan, fam, occ).to_bytes())
    new = rng.choice(50_000, 20, replace=False)
    for x in new.tolist():
        loaded.insert(x)
    yield "loaded", loaded, np.union1d(occ, new)
    plan = plan_with_m(4000, 10_007, 3, 40.0)
    assert plan.namespace_size % plan.leaf_size and plan.padded_size > plan.namespace_size
    occ = np.append(rng.choice(5_000, 30, replace=False), 10_006)  # the short last leaf too
    yield "ragged", BloomSampleTree.build_pruned(plan, fam, occ), occ


class TestThresholdZeroOnPrunedTrees:
    """What threshold-0 ``reconstruct`` returns where the tree does not hold
    every element: every occupied positive, and exactly the dictionary scan
    (DA) of the leaves it scans, a subset of DA over the tree's leaves."""

    @pytest.mark.parametrize("kind", list(FamilyKind), ids=[k.name for k in FamilyKind])
    def test_occupied_positives_and_da_of_the_scanned_leaves(self, kind):
        rng = np.random.default_rng(5)
        strict = 0
        for name, tree, occ in _threshold_zero_trees(kind):
            M, width, depth = tree.plan.namespace_size, tree.plan.leaf_size, tree.plan.depth
            leaves = [j for level, j in tree.nodes if level == depth]
            for _ in range(6):
                members = np.union1d(rng.choice(occ, 10, replace=False),
                                     rng.choice(M, 40, replace=False))
                query = build_filter(tree.family, M, members)
                found, counters = tree.reconstruct(query, 0.0)
                da = baselines.da_reconstruct(M, query)[0]
                assert np.isin(np.intersect1d(da, occ), found).all(), name
                # a leaf is scanned iff it shares a bit with the query, since
                # each node on its path holds the leaf's bits
                scanned = [j for j in leaves
                           if (tree.nodes[(depth, j)].words & query.words).any()]
                assert counters.leaves_scanned == len(scanned), name
                assert np.array_equal(found, da[np.isin(da // width, scanned)]), name
                over_leaves = da[np.isin(da // width, leaves)]
                assert np.isin(found, over_leaves).all(), name
                strict += found.size < over_leaves.size
        assert strict  # the subset is proper for some queries

    @pytest.mark.parametrize("kind", list(FamilyKind), ids=[k.name for k in FamilyKind])
    @pytest.mark.parametrize("M", [8_192, 10_007])
    def test_full_tree_equals_da(self, kind, M):
        plan = plan_with_m(4000, M, 3, 240.0)
        fam = make_family(kind, 3, 4000, seed=4)
        tree = BloomSampleTree.build_full(plan, fam)
        rng = np.random.default_rng(6)
        for n in (1, 30, 300):
            query = build_filter(fam, M, rng.choice(M, n, replace=False))
            found, _ = tree.reconstruct(query, 0.0)
            assert np.array_equal(found, baselines.da_reconstruct(M, query)[0])


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
        real = bloom._hash_ints

        def counting(family, params, xs):
            calls.append(len(params) * len(xs))  # hashed (parameter, element) pairs
            return real(family, params, xs)

        monkeypatch.setattr(bloom, "_hash_ints", counting)
        for x in (5, 701, 999):
            calls.clear()
            tree.insert(x)
            assert sum(calls) == fam.k

    def test_insert_and_contains_build_no_hash_array(self, monkeypatch):
        tree, plan, _ = small_tree(M=1000, m=2000, leaf_ratio=8.0, occupied=[3, 700])
        calls = []
        real = hashing.hash_many

        def counting(family, i, xs):
            calls.append(i)
            return real(family, i, xs)

        monkeypatch.setattr(bloom, "hash_many", counting)
        monkeypatch.setattr(hashing, "hash_many", counting)
        for x in (5, 701, 999):
            tree.insert(x)
            assert tree.nodes[(plan.depth, x // plan.leaf_size)].contains(x)
        assert calls == []

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_insert_into_loaded_tree_matches_batch_build(self, kind):
        rng = np.random.default_rng(37)
        old = rng.choice(1000, size=40, replace=False)
        new = rng.choice(1000, size=40, replace=False)
        tree, plan, fam = small_tree(M=1000, m=2000, leaf_ratio=8.0, family_kind=kind,
                                     occupied=old)
        loaded = BloomSampleTree.from_bytes(tree.to_bytes())
        for x in new:
            loaded.insert(int(x))
        assert loaded == BloomSampleTree.build_pruned(plan, fam, np.union1d(old, new))

    @staticmethod
    def _path(plan, x):
        return [(level, x // (plan.padded_size >> level)) for level in range(plan.depth + 1)]

    def test_second_insert_keeps_words(self):
        tree, plan, _ = small_tree(M=1000, m=2000, leaf_ratio=8.0, occupied=[3, 700])
        tree.insert(5)
        words = {key: f.words.copy() for key, f in tree.nodes.items()}
        tree.insert(5)
        assert tree.nodes.keys() == words.keys()
        assert all(np.array_equal(f.words, words[key]) for key, f in tree.nodes.items())

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_one_word_filter_matches_batch_build(self, kind):
        # with m = 64 every hash lands in word 0, so the k masks merge
        rng = np.random.default_rng(41)
        old = rng.choice(1000, size=30, replace=False)
        new = rng.choice(1000, size=30, replace=False)
        tree, plan, fam = small_tree(M=1000, m=64, leaf_ratio=8.0, family_kind=kind,
                                     occupied=old)
        assert len(next(iter(tree.nodes.values())).words) == 1
        for x in new:
            tree.insert(int(x))
        assert tree == BloomSampleTree.build_pruned(plan, fam, np.union1d(old, new))

    def test_popcount_read_before_insert_is_refreshed(self):
        tree, plan, _ = small_tree(M=1000, m=2000, leaf_ratio=8.0, occupied=[3, 700])
        before = {key: tree.nodes[key].popcount() for key in self._path(plan, 5)}
        tree.insert(5)
        for key in self._path(plan, 5):
            node = tree.nodes[key]
            assert node.popcount() == int(np.bitwise_count(node.words).sum())
        leaf = tree.nodes[self._path(plan, 5)[-1]]
        assert leaf.popcount() > before[self._path(plan, 5)[-1]]

    def test_rejects_padding(self):
        tree, plan, _ = small_tree(M=1000, m=2000, leaf_ratio=8.0, occupied=[])
        assert plan.padded_size > plan.namespace_size
        for x in (plan.namespace_size, plan.padded_size - 1, -1):
            with pytest.raises(ValueError):
                tree.insert(x)
        assert tree.node_count == 0


def reference_index_error(keys, depth):
    """The message of the first faulty (level, j) entry, None if there is
    none: the loader's index checks run one entry at a time."""
    listed = set()
    for row, (level, j) in enumerate(keys):
        if level > depth or j >> level:
            return f"node {(level, j)} outside a depth-{depth} tree"
        if row and keys[row - 1] >= (level, j):
            return "tree nodes not in ascending (level, j) order"
        if level and (level - 1, j >> 1) not in listed:
            return f"node {(level, j)} has no parent"
        listed.add((level, j))
    return None


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
            with pytest.raises(ValueError, match="^truncated tree file$"):
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

    @pytest.mark.parametrize("keys, message", [
        # an orphan before a duplicate
        ([(0, 0), (1, 0), (2, 2), (2, 2)], r"node \(2, 2\) has no parent"),
        # a duplicate before an orphan
        ([(0, 0), (1, 0), (1, 0), (2, 2)], "not in ascending"),
        # a level above depth after an orphan
        ([(0, 0), (1, 0), (2, 2), (200, 0)], r"node \(2, 2\) has no parent"),
    ])
    def test_first_faulty_entry_named(self, keys, message):
        tree, plan, _ = small_tree(M=64, leaf_ratio=2.0, occupied=[1])
        assert plan.depth >= 2
        data = tree.to_bytes()
        head = data[:_first_index_entry(tree) - 8]
        n_words = len(tree.nodes[(0, 0)].words)
        data = b"".join([head, struct.pack("<Q", len(keys)),
                         np.array(keys, dtype=bst._INDEX_ENTRY).tobytes(),
                         bytes(8 * n_words * len(keys))])
        with pytest.raises(ValueError, match=message):
            BloomSampleTree.from_bytes(data)

    def test_index_checks_match_a_check_of_one_entry_at_a_time(self):
        rng = np.random.default_rng(13)
        verdicts = set()
        for depth, M, leaf_size in [(4, 64, 4), (9, 5_000, 10), (70, 1_000, 1)]:
            plan = TreePlan(M, 200, 3, depth, leaf_size, 1.0, 240.0)
            fam = make_family(FamilyKind.MURMUR3, 3, 200, seed=1)
            for _ in range(60):
                occ = rng.choice(M, int(rng.integers(1, 12)), replace=False)
                base = sorted(BloomSampleTree.build_pruned(plan, fam, occ).nodes)
                for _ in range(10):
                    keys = list(base)
                    for _ in range(int(rng.integers(1, 3))):
                        row, kind = int(rng.integers(len(keys))), int(rng.integers(4))
                        level, j = keys[row]
                        if kind == 0:
                            level = int(rng.integers(max(0, depth - 3), depth + 3))
                        elif kind == 1:
                            j ^= 1 << int(rng.integers(0, min(level, 63) + 1))
                        elif kind == 2:
                            level, j = keys[int(rng.integers(len(keys)))]
                        else:
                            j = int(rng.integers(0, 2**64, dtype=np.uint64))
                        keys[row] = (level, j)
                    expected = reference_index_error(keys, depth)
                    entries = np.array(keys, dtype=bst._INDEX_ENTRY)
                    try:
                        bst._check_index(entries["level"], entries["j"], depth)
                        got = None
                    except ValueError as exc:
                        got = str(exc)
                    assert got == expected, keys
                    verdicts.add(expected and expected.split()[-1])
        assert verdicts == {None, "tree", "order", "parent"}

    def test_levels_past_63_load(self):
        # 2^level + j, one integer per node, would overflow uint64 here
        plan = TreePlan(1000, 256, 3, depth=70, leaf_size=1, accuracy_target=1.0,
                        cost_ratio=240.0)
        fam = make_family(FamilyKind.MURMUR3, 3, 256, seed=4)
        tree = BloomSampleTree.build_pruned(plan, fam, [0, 5, 999])
        back = BloomSampleTree.from_bytes(tree.to_bytes())
        assert back == tree and (70, 999) in back.nodes
        back.verify()
        found, _ = back.reconstruct(build_filter(fam, 1000, [5]), 0.0)
        assert found.tolist() == [5]

    def test_version_one_rejected(self):
        data = bytearray(small_tree(M=16)[0].to_bytes())
        data[4] = 1
        with pytest.raises(ValueError, match="unsupported tree version 1"):
            BloomSampleTree.from_bytes(bytes(data))


def reference_reconstruct(tree, query, threshold):
    """Recursive depth-first reconstruction: every present node reached gets
    one AND, a node is pruned when its AND is empty or its estimate falls
    below the threshold, and the surviving leaves are scanned in order."""
    plan, counters, t1 = tree.plan, OpCounters(), query.popcount()

    def visit(level, j):
        node = tree.nodes[(level, j)]
        counters.nodes_visited += 1
        counters.intersections += 1
        t_and = int(np.bitwise_count(node.words & query.words).sum())
        if t_and == 0 or intersection_estimate_counts(
                plan.m, plan.k, node.popcount(), t1, t_and) < threshold:
            return []
        if level == plan.depth:
            counters.leaves_scanned += 1
            lo, hi = j * plan.leaf_size, min((j + 1) * plan.leaf_size, plan.namespace_size)
            if hi <= lo:
                return []
            counters.membership_queries += hi - lo
            xs = np.arange(lo, hi, dtype=np.int64)
            return [xs[query.contains_many(xs)]]
        return [part for c in (2 * j, 2 * j + 1) if (level + 1, c) in tree.nodes
                for part in visit(level + 1, c)]

    parts = visit(0, 0) if (0, 0) in tree.nodes else []
    found = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return found, counters


def _reference_trees():
    rng = np.random.default_rng(11)
    M = 40_000
    plan = plan_from_accuracy(0.9, 200, M, 3, 240.0)
    fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, plan.m, seed=2)
    occ = rng.choice(M, 3000, replace=False)
    yield "full", BloomSampleTree.build_full(plan, fam), occ[:150]
    yield "pruned", BloomSampleTree.build_pruned(plan, fam, occ), occ[100:400]
    big = 2**40
    plan = plan_with_m(4000, big, 3, 240.0)
    fam = make_family(FamilyKind.MURMUR3, 3, 4000, seed=0)
    occ = rng.choice(big, 300, replace=False)
    yield "sparse", BloomSampleTree.build_pruned(plan, fam, occ), occ[:20]
    plan = plan_with_m(3000, 10_007, 3, 240.0)
    assert plan.namespace_size % plan.leaf_size and plan.padded_size > plan.namespace_size
    fam = make_family(FamilyKind.MD5, 3, 3000, seed=1)
    yield "ragged", BloomSampleTree.build_full(plan, fam), rng.choice(10_007, 40, replace=False)
    yield "empty", BloomSampleTree.build_pruned(plan, fam, []), [3, 10_006]


class TestLevelWalkReconstruct:
    @pytest.mark.parametrize("case", ["full", "pruned", "sparse", "ragged", "empty"])
    def test_equals_recursive_reference(self, case):
        _, tree, members = next(t for t in _reference_trees() if t[0] == case)
        query = build_filter(tree.family, tree.plan.namespace_size, members)
        ests = [intersection_estimate_counts(
                    tree.plan.m, tree.plan.k, node.popcount(), query.popcount(),
                    int(np.bitwise_count(node.words & query.words).sum()))
                for node in tree.nodes.values()]
        own = sorted(e for e in ests if 0 < e < math.inf)
        thresholds = [0.0, 0.5] + own[len(own) // 2:len(own) // 2 + 1]
        for threshold in thresholds:
            found, counters = tree.reconstruct(query, threshold)
            ref, ref_counters = reference_reconstruct(tree, query, threshold)
            assert found.dtype == np.int64
            assert np.array_equal(found, ref), (case, threshold)
            assert counters == ref_counters, (case, threshold)
        if case != "empty":
            assert len(thresholds) == 3

    @pytest.mark.parametrize("case", ["full", "pruned", "sparse", "ragged"])
    def test_no_estimates_at_non_positive_thresholds(self, monkeypatch, case):
        _, tree, members = next(t for t in _reference_trees() if t[0] == case)
        query = build_filter(tree.family, tree.plan.namespace_size, members)
        calls = {"tree": 0, "ref": 0}
        real = intersection_estimate_counts

        def counting(who):
            def estimate(*args):
                calls[who] += 1
                return real(*args)
            return estimate

        monkeypatch.setattr(bst, "intersection_estimate_counts", counting("tree"))
        monkeypatch.setitem(globals(), "intersection_estimate_counts", counting("ref"))
        for threshold in (0.0, -1.0, 0.5):
            calls.update(tree=0, ref=0)
            found, counters = tree.reconstruct(query, threshold)
            ref, ref_counters = reference_reconstruct(tree, query, threshold)
            assert np.array_equal(found, ref) and counters == ref_counters
            assert calls["ref"] > 0
            assert calls["tree"] == (calls["ref"] if threshold > 0 else 0)

    def test_threshold_zero_full_tree_makes_one_call_per_chunk(self, monkeypatch):
        M = 200_000
        plan = plan_with_m(3000, M, 3, 240.0)
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 3000, seed=4)
        tree = BloomSampleTree.build_full(plan, fam)
        query = build_filter(fam, M, np.random.default_rng(3).choice(M, 300, replace=False))
        calls = []
        scan_chunk = BloomFilter._scan_chunk

        def counted(self, pieces, **kw):
            calls.append(sum(hi - lo for lo, hi in pieces))
            return scan_chunk(self, pieces, **kw)

        monkeypatch.setattr(BloomFilter, "_scan_chunk", counted)
        found, counters = tree.reconstruct(query, 0.0)
        assert counters.leaves_scanned == 1 << plan.depth >= 64
        assert len(calls) == -(-M // bloom.SCAN_CHUNK) == 4
        assert sum(calls) == counters.membership_queries == M
        assert np.array_equal(found, baselines.da_reconstruct(M, query)[0])

    def test_popcounts_past_a_uint16_sum_are_exact(self, monkeypatch):
        # all-ones rows at m = 70,000: each AND sets 70,000 bits, more than
        # a uint16 accumulator holds
        M, m = 4000, 70_000
        fam = make_family(FamilyKind.MURMUR3, 3, m, seed=2)
        tree = BloomSampleTree.build_full(plan_with_m(m, M, 3, 240.0), fam)
        ones = np.full((m + 63) // 64, ~np.uint64(0))
        ones[-1] &= ~bloom.tail_mask(m)
        for key in tree.nodes:
            tree.nodes[key] = BloomFilter(fam, M, words=ones.copy())
        seen = []
        estimate = bst.intersection_estimate_counts
        monkeypatch.setattr(bst, "intersection_estimate_counts",
                            lambda *args: seen.append(args) or estimate(*args))
        tree.reconstruct(BloomFilter(fam, M, words=ones.copy()), 0.5)
        assert seen and all(args[2:] == (m, m, m) for args in seen)

    def test_small_stack_bound_keeps_the_result(self, monkeypatch):
        trees = list(_reference_trees())
        stacked = []
        gather = bst._gather
        monkeypatch.setattr(bst, "_gather",
                            lambda rows: stacked.append(len(rows)) or gather(rows))
        for case, tree, members in trees:
            query = build_filter(tree.family, tree.plan.namespace_size, members)
            n_words = len(query.words)
            for rows in (1, 3):
                monkeypatch.setattr(bst, "_STACK_BYTES", 8 * n_words * rows)
                for threshold in (0.0, 0.5):
                    stacked.clear()
                    found, counters = tree.reconstruct(query, threshold)
                    ref, ref_counters = reference_reconstruct(tree, query, threshold)
                    assert np.array_equal(found, ref), (case, rows, threshold)
                    assert counters == ref_counters, (case, rows, threshold)
                    assert max(stacked, default=0) <= rows
                    assert len(stacked) >= -(-counters.intersections // rows)
                stacked.clear()
                tree.verify()
                assert max(stacked, default=0) <= rows


class TestPrefixPass:
    """At threshold 0 a node's AND is tested on its first ``_PREFIX_WORDS``
    words, and on the rest of its row only where those are empty."""

    @staticmethod
    def _tree(m, bits, unset):
        """A depth-2 murmur3 tree over [0, 4,000) whose node (level, j) sets
        exactly the bits ``bits[(level, j)]``, and a query that sets every
        bit outside the words ``unset``, so its leaves have positives."""
        plan = plan_with_m(m, 4000, 3, 120.0)
        assert plan.depth == 2
        fam = make_family(FamilyKind.MURMUR3, 3, m, seed=6)

        def flt(positions):
            words = np.zeros((m + 63) // 64, dtype=np.uint64)
            for b in positions:
                words[b >> 6] |= np.uint64(1) << np.uint64(b & 63)
            return BloomFilter(fam, 4000, words=words)

        query = flt([b for b in range(m) if b >> 6 not in unset])
        return BloomSampleTree(plan, fam, {key: flt(b) for key, b in bits.items()}), query

    @staticmethod
    def _reconstruct(monkeypatch, tree, query):
        """``tree.reconstruct(query, 0.0)``, checked against the recursive
        reference, and the shapes of the row lists it gathered."""
        shapes = []
        gather = bst._gather
        monkeypatch.setattr(bst, "_gather", lambda rows: shapes.append(
            (len(rows), len(rows[0]))) or gather(rows))
        found, counters = tree.reconstruct(query, 0.0)
        monkeypatch.setattr(bst, "_gather", gather)
        ref, ref_counters = reference_reconstruct(tree, query, 0.0)
        assert np.array_equal(found, ref) and counters == ref_counters
        return found, counters, shapes

    def test_empty_prefix_and_nonempty_rest_survives(self, monkeypatch):
        w = bst._PREFIX_WORDS
        m, late = 64 * (w + 8), 64 * (w + 4)  # ``late`` lies past the prefix
        tree, query = self._tree(m, {
            (0, 0): [130, late],
            (1, 0): [late],                   # prefix AND empty, rest not: survives
            (1, 1): [3 * 64, late + 64],      # AND empty everywhere: pruned
            (2, 0): [late], (2, 1): [130],
            (2, 2): [130, late], (2, 3): [late]},  # below the pruned node
            unset=(3, w + 5))
        found, counters, shapes = self._reconstruct(monkeypatch, tree, query)
        assert counters.intersections == 5 and counters.leaves_scanned == 2
        assert 0 < found.size and found.max() < 2000
        # per level a prefix stack, then the rest of the rows whose prefix was empty
        assert shapes == [(1, w), (2, w), (2, m // 64 - w), (2, w), (1, m // 64 - w)]

    def test_prefix_is_the_whole_row(self, monkeypatch):
        m = 64 * bst._PREFIX_WORDS - 20
        n_words = (m + 63) // 64
        tree, query = self._tree(m, {
            (0, 0): [5, 70, m - 1], (1, 0): [70], (1, 1): [m - 1],
            (2, 2): [m - 1], (2, 3): [70]}, unset=(1,))
        found, counters, shapes = self._reconstruct(monkeypatch, tree, query)
        assert counters.intersections == 5 and counters.leaves_scanned == 1
        assert 0 < found.size and 2000 <= found.min() <= found.max() < 3000
        assert shapes == [(1, n_words), (2, n_words), (2, n_words)]

    @pytest.mark.parametrize("case", ["full", "pruned"])
    def test_query_with_an_empty_prefix_stacks_each_row_once(self, monkeypatch, case):
        _, tree, members = next(t for t in _reference_trees() if t[0] == case)
        w, plan = bst._PREFIX_WORDS, tree.plan
        n_words = (plan.m + 63) // 64
        assert n_words > w
        # three members whose k bits all lie past the prefix
        members = [x for x in members.tolist()
                   if min(bloom.word_masks(tree.family, x)) >= w][:3]
        query = build_filter(tree.family, plan.namespace_size, members)
        assert len(members) == 3 and not query.words[:w].any()
        found, counters, shapes = self._reconstruct(monkeypatch, tree, query)
        assert set(members) <= set(found.tolist())
        # one stack of full rows per level, no prefix stack
        assert all(width == n_words for _, width in shapes)
        assert sum(rows for rows, _ in shapes) == counters.intersections
        assert len(shapes) <= plan.depth + 1

    @pytest.mark.parametrize("prefix", ["one word", "whole row"])
    def test_reference_trees_at_either_end(self, monkeypatch, prefix):
        w = bst._PREFIX_WORDS
        for case, tree, members in _reference_trees():
            n_words = (tree.plan.m + 63) // 64
            assert n_words > w
            monkeypatch.setattr(bst, "_PREFIX_WORDS", 1 if prefix == "one word" else n_words)
            query = build_filter(tree.family, tree.plan.namespace_size, members)
            for threshold in (0.0, -1.0):
                found, counters = tree.reconstruct(query, threshold)
                ref, ref_counters = reference_reconstruct(tree, query, 0.0)
                assert np.array_equal(found, ref), (case, prefix)
                assert counters == ref_counters, (case, prefix)


class TestNanThreshold:
    def test_every_traversal_rejects_nan(self):
        tree, plan, fam = small_tree(M=64)
        query = build_filter(fam, 64, [3, 40])
        with pytest.raises(ValueError, match="NaN"):
            tree.reconstruct(query, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            tree.sample(query, math.nan, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="NaN"):
            tree.sample_many(query, 5, threshold=math.nan)


class TestNodesCoverNamespace:
    """Node filters are bounded by M, so every M the family hashes exactly builds."""

    @staticmethod
    def _plan(M):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 1000003, seed=1)
        return plan_with_m(1000003, M, 3, 240.0), fam

    def test_linear_tree_at_the_namespace_limit(self):
        limit = make_family(FamilyKind.SIMPLE_LINEAR, 3, 1000003, seed=1).namespace_limit
        plan, fam = self._plan(limit)
        assert plan.padded_size > fam.namespace_limit
        ids = [0, 5, limit - 1]
        tree = BloomSampleTree.build_pruned(plan, fam, ids)
        back = BloomSampleTree.from_bytes(tree.to_bytes())
        assert back == tree
        back.verify()
        query = build_filter(fam, limit, ids)
        found, _ = back.reconstruct(query, 0.0)
        leaves = {x // plan.leaf_size for x in ids}
        in_leaves = np.concatenate([np.arange(j * plan.leaf_size,
                                              min((j + 1) * plan.leaf_size, limit))
                                    for j in sorted(leaves)])
        assert np.array_equal(found, in_leaves[query.contains_many(in_leaves)])
        assert set(ids) <= set(found.tolist())

    def test_error_names_m_one_above_the_limit(self):
        limit = make_family(FamilyKind.SIMPLE_LINEAR, 3, 1000003, seed=1).namespace_limit
        plan, fam = self._plan(limit + 1)
        with pytest.raises(ValueError, match=f"namespace size {limit + 1} exceeds"):
            BloomSampleTree.build_pruned(plan, fam, [0, 5])


class TestVerify:
    def test_built_trees_pass(self):
        small_tree(M=64)[0].verify()
        for _, tree, _ in _reference_trees():
            tree.verify()
        tree, plan, _ = small_tree(M=64, occupied=[1, 40])
        for x in (2, 63, 17):
            tree.insert(x)
        tree.verify()

    def test_flipped_bit_in_loaded_words_fails(self):
        tree, plan, _ = small_tree(M=64, occupied=[1, 40])
        data = tree.to_bytes()
        keys = sorted(tree.nodes)
        n_bytes = 8 * len(tree.nodes[(0, 0)].words)
        blob = len(data) - n_bytes * len(keys)
        leaf = keys[-1]
        parent = tree.nodes[(leaf[0] - 1, leaf[1] >> 1)]
        bit = int(parent.unset_bit_indices()[0])  # setting it breaks the parent's OR
        for row, bit, bad in ((0, 0, (0, 0)), (len(keys) - 1, bit, (leaf[0] - 1, leaf[1] >> 1))):
            flipped = bytearray(data)
            flipped[blob + row * n_bytes + bit // 8] ^= 1 << (bit % 8)
            loaded = BloomSampleTree.from_bytes(bytes(flipped))  # loading does not verify
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                loaded.verify()



def reference_verify(tree):
    """Level by level, each side's present children gathered into a row
    list and ORed into a zero matrix by fancy indexing."""
    levels = {}
    for level, j in sorted(tree.nodes):
        levels.setdefault(level, []).append(j)
    for level in range(tree.plan.depth):
        for js in tree._batches(levels.get(level, [])):
            words = np.stack([tree.nodes[(level, j)].words for j in js])
            ors = np.zeros_like(words)
            for side in (0, 1):
                rows = [r for r, j in enumerate(js)
                        if (level + 1, 2 * j + side) in tree.nodes]
                if rows:
                    ors[rows] |= np.stack([tree.nodes[(level + 1, 2 * js[r] + side)].words
                                           for r in rows])
            bad = np.flatnonzero((ors != words).any(axis=1))
            if bad.size:
                raise ValueError(f"tree node {(level, js[bad[0]])} "
                                 "is not the OR of its children")


def _verify_outcome(check, tree):
    try:
        check(tree)
    except ValueError as exc:
        return str(exc)
    return None


def _verify_trees():
    """A full tree, a pruned one, and a pruned one over a ragged namespace
    (M = 37 in leaves of 3) whose last parents have only a left child.
    m = 100 leaves 28 padding bits in each node's second word."""
    yield "full", small_tree(M=64, m=100)[0]
    yield "pruned", small_tree(M=64, m=100, occupied=[1, 40])[0]
    plan = plan_with_m(100, 37, 3, 2.0)
    assert (plan.leaf_size, plan.padded_size) == (3, 48)
    fam = make_family(FamilyKind.MD5, 3, 100, seed=1)
    yield "ragged", BloomSampleTree.build_pruned(plan, fam, [0, 7, 36])


class TestVerifyEqualsReference:
    @pytest.mark.parametrize("case", ["full", "pruned", "ragged"])
    def test_every_single_bit_flip(self, case):
        tree = dict(_verify_trees())[case]
        if case != "full":
            assert any((level + 1, 2 * j + side) not in tree.nodes
                       for level, j in tree.nodes if level < tree.plan.depth
                       for side in (0, 1))
        failures = 0
        for node in tree.nodes.values():
            for w in range(node.words.size):
                for b in range(64):
                    node.words[w] ^= np.uint64(1 << b)
                    got = _verify_outcome(BloomSampleTree.verify, tree)
                    assert got == _verify_outcome(reference_verify, tree)
                    node.words[w] ^= np.uint64(1 << b)
                    failures += got is not None
        assert failures > 0
        assert _verify_outcome(BloomSampleTree.verify, tree) is None

    @pytest.mark.parametrize("rows", [None, 1, 3])
    def test_every_single_node_deleted(self, monkeypatch, rows):
        if rows is not None:
            monkeypatch.setattr(bst, "_STACK_BYTES", 8 * 2 * rows)
        failures = 0
        for case, tree in _verify_trees():
            for key in sorted(tree.nodes):
                if key == (0, 0):
                    continue
                cut = BloomSampleTree(tree.plan, tree.family,
                                      {k: v for k, v in tree.nodes.items() if k != key})
                got = _verify_outcome(BloomSampleTree.verify, cut)
                assert got == _verify_outcome(reference_verify, cut), (case, key)
                failures += got is not None
        assert failures > 0


def reference_sample_many(tree, query, r, with_replacement=True,
                          threshold=bst.DEFAULT_THRESHOLD, rng=None):
    """Recursive depth-first sampler: at a node both of whose children
    survive, one coin picks the first (left on an exact tie at the
    threshold), and a dead end backtracks into the second.  A node, the
    root included, is pruned when it is absent, its AND is empty or its
    estimate is below the threshold.  Estimates and leaf scans are shared
    by the r paths and counted by the path that computes them."""
    plan, t1 = tree.plan, query.popcount()
    est_cache, leaf_cache = {}, {}
    used = None if with_replacement else {}

    def child_estimate(key, counters):
        if key not in est_cache:
            node = tree.nodes.get(key)
            if node is None:
                est_cache[key] = (True, 0.0)
            else:
                counters.intersections += 1
                t_and = int(np.bitwise_count(node.words & query.words).sum())
                if t_and == 0:
                    est_cache[key] = (True, 0.0)
                else:
                    est = intersection_estimate_counts(plan.m, plan.k, node.popcount(),
                                                       t1, t_and)
                    est_cache[key] = (est < threshold, est)
        return est_cache[key]

    def left_probability(est_l, est_r):
        if math.isinf(est_l) and math.isinf(est_r):
            return 0.5
        if math.isinf(est_l):
            return 1.0
        if math.isinf(est_r):
            return 0.0
        return est_l / (est_l + est_r)

    def visit(key, path):
        counters = path["counters"]
        counters.nodes_visited += 1
        level, j = key
        if level == plan.depth:
            if key not in leaf_cache:
                lo = j * plan.leaf_size
                xs = np.arange(lo, min(lo + plan.leaf_size, plan.namespace_size),
                               dtype=np.int64)
                leaf_cache[key] = xs[query.contains_many(xs)]
                counters.membership_queries += xs.size
                counters.leaves_scanned += 1
            hits = leaf_cache[key]
            if hits.size == 0:
                return None
            if used is None:
                return int(hits[rng.integers(hits.size)])
            taken = used.setdefault(key, set())
            avail = hits[~np.isin(hits, list(taken))] if taken else hits
            if avail.size == 0:
                path["blocked"] = True
                return None
            element = int(avail[rng.integers(avail.size)])
            taken.add(element)
            return element
        lkey, rkey = (level + 1, 2 * j), (level + 1, 2 * j + 1)
        l_empty, est_l = child_estimate(lkey, counters)
        r_empty, est_r = child_estimate(rkey, counters)
        if l_empty and r_empty:
            return None
        if r_empty:
            return visit(lkey, path)
        if l_empty:
            return visit(rkey, path)
        if est_l == est_r == threshold:
            first, second = lkey, rkey
        elif rng.random() < left_probability(est_l, est_r):
            first, second = lkey, rkey
        else:
            first, second = rkey, lkey
        found = visit(first, path)
        return visit(second, path) if found is None else found

    outcomes = []
    for _ in range(r):
        path = {"counters": OpCounters(), "blocked": False}
        root_pruned, _ = child_estimate((0, 0), path["counters"])
        element = None if root_pruned else visit((0, 0), path)
        if element is None and path["blocked"]:
            continue
        outcomes.append(bst.SampleOutcome(element, path["counters"]))
    return outcomes


def _sampler_trees():
    """``_reference_trees`` plus a full tree of the other two families, a
    tree whose two level-1 estimates are equal, and a saturated m = 64 tree
    queried with its whole namespace, where many child estimates are
    infinite."""
    yield from _reference_trees()
    plan = plan_from_accuracy(0.9, 200, 40_000, 3, 240.0)
    members = np.random.default_rng(12).choice(40_000, 150, replace=False)
    for kind in (FamilyKind.MURMUR3, FamilyKind.MD5):
        fam = make_family(kind, 3, plan.m, seed=3)
        yield f"full-{kind.name}", BloomSampleTree.build_full(plan, fam), members
    tree, _, _ = small_tree(M=8, m=4096, leaf_ratio=2.0)
    yield "tie", tree, [0, 4]
    yield "saturated", _saturated_tree(), np.arange(4096)


def _saturated_tree():
    plan = plan_with_m(64, 4096, 3, 16.0)
    assert plan.depth == 6
    return BloomSampleTree.build_full(plan, make_family(FamilyKind.MURMUR3, 3, 64, seed=0))


def _thresholds(tree, query):
    """0, 0.5, 2 and the median positive finite estimate of a node."""
    ests = sorted(e for e in (_estimate(node, query) for node in tree.nodes.values())
                  if 0 < e < math.inf)
    return [0.0, 0.5, 2.0] + ests[len(ests) // 2:len(ests) // 2 + 1]


class TestIterativeSampler:
    @pytest.mark.parametrize("case", ["full", "pruned", "sparse", "ragged", "empty",
                                      "full-MURMUR3", "full-MD5", "tie", "saturated"])
    def test_equals_recursive_reference(self, case):
        _, tree, members = next(t for t in _sampler_trees() if t[0] == case)
        query = build_filter(tree.family, tree.plan.namespace_size, members)
        thresholds = _thresholds(tree, query)
        assert len(thresholds) == (3 if case == "empty" else 4)
        if case == "tie":  # both level-1 estimates equal one of the thresholds
            assert _estimate(tree.nodes[(1, 0)], query) == \
                _estimate(tree.nodes[(1, 1)], query) in thresholds
        seed = 0
        for threshold in thresholds:
            for with_replacement in (True, False):
                for r in (1, 7, 300):
                    seed += 1
                    got = tree.sample_many(query, r, with_replacement, threshold,
                                           np.random.default_rng(seed))
                    ref = reference_sample_many(tree, query, r, with_replacement,
                                                threshold, np.random.default_rng(seed))
                    where = (case, threshold, with_replacement, r)
                    assert [o.element for o in got] == [o.element for o in ref], where
                    assert [o.counters for o in got] == [o.counters for o in ref], where
                    if threshold == 0 and case != "empty":
                        assert got and None not in [o.element for o in got], where

    def test_estimates_go_through_the_module_global(self, monkeypatch):
        _, tree, members = next(t for t in _reference_trees() if t[0] == "full")
        query = build_filter(tree.family, tree.plan.namespace_size, members)
        calls = []
        real = bst.intersection_estimate_counts

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bst, "intersection_estimate_counts", spy)
        outs = tree.sample_many(query, 20, threshold=0.0, rng=np.random.default_rng(1))
        assert calls
        assert len(calls) <= sum(o.counters.intersections for o in outs)


    def test_saturated_case_meets_every_infinite_coin(self, monkeypatch):
        tree = _saturated_tree()
        query = build_filter(tree.family, 4096, np.arange(4096))
        assert query.popcount() == query.m
        pairs = set()
        real = bst._Moves._left_probability

        def spy(est_l, est_r):
            pairs.add((math.isinf(est_l), math.isinf(est_r)))
            return real(est_l, est_r)

        monkeypatch.setattr(bst._Moves, "_left_probability", staticmethod(spy))
        tree.sample_many(query, 200, True, 0.0, np.random.default_rng(1))
        assert pairs == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("case, threshold", [("full", 0.5), ("full-MURMUR3", 0.0),
                                                  ("tie", 0.5), ("saturated", 0.0)])
    def test_one_coin_probability_per_parent(self, monkeypatch, case, threshold):
        _, tree, members = next(t for t in _sampler_trees() if t[0] == case)
        query = build_filter(tree.family, tree.plan.namespace_size, members)

        def survivor(key):
            node = tree.nodes.get(key)
            if node is None or not (node.words & query.words).any():
                return None
            est = _estimate(node, query)
            return None if est < threshold else est

        coins = 0  # parents with two surviving children, not tied at the threshold
        for level, j in tree.nodes:
            if level < tree.plan.depth:
                est_l, est_r = survivor((level + 1, 2 * j)), survivor((level + 1, 2 * j + 1))
                coins += (est_l is not None and est_r is not None
                          and not est_l == est_r == threshold)
        unspied = tree.sample_many(query, 300, True, threshold, np.random.default_rng(4))
        calls = []
        real = bst._Moves._left_probability

        def spy(est_l, est_r):
            calls.append((est_l, est_r))
            return real(est_l, est_r)

        monkeypatch.setattr(bst._Moves, "_left_probability", staticmethod(spy))
        spied = tree.sample_many(query, 300, True, threshold, np.random.default_rng(4))
        assert 0 < len(calls) <= coins
        assert [o.element for o in spied] == [o.element for o in unspied]
        assert [o.counters for o in spied] == [o.counters for o in unspied]


def _move_table_cases():
    """Every ``_sampler_trees`` case at each of its ``_thresholds``."""
    for case, tree, members in _sampler_trees():
        query = build_filter(tree.family, tree.plan.namespace_size, members)
        for threshold in _thresholds(tree, query):
            yield case, tree, query, threshold


class TestMoveTable:
    """``bst._Moves`` holds the one traversal rule that ``sample_many`` and
    ``reconstruct`` share."""

    def test_each_move_is_the_rule(self):
        rng, n_cases = np.random.default_rng(8), 0
        for case, tree, query, threshold in _move_table_cases():
            def kept(key):
                node = tree.nodes.get(key)
                if node is None or not (node.words & query.words).any():
                    return None
                est = _estimate(node, query)
                return None if est < threshold else est

            parents = sorted(key for key in tree.nodes if key[0] < tree.plan.depth)
            expected, present = {}, 0
            for level, j in parents:
                left, right = (level + 1, 2 * j), (level + 1, 2 * j + 1)
                present += (left in tree.nodes) + (right in tree.nodes)
                est_l, est_r = kept(left), kept(right)
                children = tuple(key for key, est in ((right, est_r), (left, est_l))
                                 if est is not None)
                if len(children) < 2 or est_l == est_r == threshold:
                    p = None
                elif math.isinf(est_l) or math.isinf(est_r):
                    p = 0.5 if est_l == est_r else float(math.isinf(est_l))
                else:
                    p = est_l / (est_l + est_r)
                expected[(level, j)] = children, p
            table = bst._Moves(tree, query, threshold)
            for key in parents:
                table[key]
            assert table == expected, (case, threshold)
            assert table.counters.intersections == present, (case, threshold)
            # a move depends on no other move: any fill order gives the same table
            shuffled = bst._Moves(tree, query, threshold)
            for i in rng.permutation(len(parents)).tolist():
                shuffled[parents[i]]
            assert shuffled == table and shuffled.counters == table.counters
            n_cases += 1
        assert n_cases == 35

    def test_reconstruct_scans_the_leaves_the_moves_reach(self, monkeypatch):
        scanned = []
        scan = BloomFilter.scan

        def spy(self, ranges):
            scanned.extend(lo for lo, _ in ranges)
            return scan(self, ranges)

        monkeypatch.setattr(BloomFilter, "scan", spy)
        n_cases = n_reaching = 0
        for case, tree, query, threshold in _move_table_cases():
            scanned.clear()
            tree.reconstruct(query, threshold)
            table = bst._Moves(tree, query, threshold)
            stack, reached = list(table[(-1, 0)][0]), []  # the root's move
            while stack:
                level, j = stack.pop()
                if level == tree.plan.depth:
                    reached.append(j)
                else:
                    stack += table[(level, j)][0]
            assert [lo // tree.plan.leaf_size for lo in scanned] == sorted(reached), \
                (case, threshold)
            n_cases += 1
            n_reaching += bool(reached)
        assert n_cases == 35 and n_reaching > 25


class TestSampleInsideReconstruct:
    """One rule covers every node, the root included, so every element that
    ``sample`` and ``sample_many`` draw lies in ``reconstruct`` at the same
    threshold."""

    @staticmethod
    def _check(tree, query, seed):
        for threshold in (0.0, 0.5):
            support = set(tree.reconstruct(query, threshold)[0].tolist())
            drawn = [tree.sample(query, threshold, np.random.default_rng(seed)).element]
            for with_replacement in (True, False):
                drawn += [o.element for o in tree.sample_many(
                    query, 50, with_replacement, threshold, np.random.default_rng(seed))]
            assert {x for x in drawn if x is not None} <= support, (threshold, seed)

    def test_depth_zero_root_that_shares_no_bit(self):
        tree, plan, fam = small_tree(M=100, m=4000, occupied=[3], leaf_ratio=240.0)
        query = build_filter(fam, 100, [0])
        assert plan.depth == 0 and not (tree.nodes[(0, 0)].words & query.words).any()
        assert tree.reconstruct(query, 0.0)[0].tolist() == []
        assert tree.sample(query, 0.0, np.random.default_rng(0)).element is None
        self._check(tree, query, 0)

    @pytest.mark.parametrize("kind", list(FamilyKind))
    @pytest.mark.parametrize("cost_ratio, depth", [(240.0, 0), (20.0, 4)])
    def test_random_pruned_trees(self, kind, cost_ratio, depth):
        M = 2000
        for seed in range(25):
            rng = np.random.default_rng(seed)
            tree, plan, fam = small_tree(M=M, m=300, seed=seed, leaf_ratio=cost_ratio,
                                         family_kind=kind,
                                         occupied=rng.choice(M, 40, replace=False))
            assert plan.depth == depth
            self._check(tree, build_filter(fam, M, rng.choice(M, 10, replace=False)), seed)


class TestNegativeThreshold:
    """No estimate is negative, so a negative threshold acts as 0."""

    @pytest.mark.parametrize("with_replacement", [True, False])
    def test_sample_many_equals_threshold_zero(self, with_replacement):
        plan = plan_from_accuracy(0.9, 200, 40_000, 3, 240.0)
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, plan.m, seed=2)
        tree = BloomSampleTree.build_full(plan, fam)
        members = np.random.default_rng(5).choice(40_000, 3000, replace=False)[:150]
        query = build_filter(fam, 40_000, members)
        at_zero = tree.sample_many(query, 300, with_replacement, 0.0,
                                   np.random.default_rng(0))
        below = tree.sample_many(query, 300, with_replacement, -1.0,
                                 np.random.default_rng(0))
        assert [o.element for o in below] == [o.element for o in at_zero]
        assert [o.counters for o in below] == [o.counters for o in at_zero]


def test_leaf_capacity_equals_brute_force_below_100():
    widths = np.arange(2, 1000)
    ratios = np.array([n / math.log2(n) for n in widths.tolist()])
    exact = ratios[ratios < 100].tolist()
    for r in np.linspace(0.01, 100, 2001).tolist() + exact:
        fits = widths[ratios <= r]
        assert max_leaf_capacity(r) == (int(fits.max()) if fits.size else 1), r


class TestPlannerRejectsWhatItCannotPlan:
    """k is stored as u16, and the leaf width needs a finite positive ratio."""

    @pytest.mark.parametrize("k", [0, -1, 2**16])
    def test_k_out_of_range(self, k):
        with pytest.raises(PlanError, match="k must be"):
            plan_from_accuracy(0.9, 1000, 10**5, k, 240.0)
        with pytest.raises(PlanError, match="k must be"):
            plan_with_m(10**6, 10**7, k, 240.0)

    def test_whole_float_sizes_plan_as_ints(self):
        plan = plan_from_accuracy(0.9, 1000, 1e6, 3, 240.0)
        assert plan == plan_from_accuracy(0.9, 1000, 10**6, 3, 240.0)
        assert (plan.namespace_size, plan.leaf_size) == (10**6, 1954)
        plan = plan_with_m(600.0, 2e4, np.float64(3.0), 240.0)
        assert plan == plan_with_m(600, 20_000, 3, 240.0)
        assert all(type(getattr(plan, f)) is int
                   for f in ("namespace_size", "m", "k", "depth", "leaf_size"))
        tree = BloomSampleTree.build_full(plan, make_family(FamilyKind.MURMUR3, 3, 600))
        assert tree.node_count == plan.full_node_count

    def test_plan_built_directly_holds_ints(self):
        plan = TreePlan(1e4, 600.0, 3.0, 2.0, 2500.0, 1.0, 240.0)
        assert plan == TreePlan(10_000, 600, 3, 2, 2500, 1.0, 240.0)
        assert BloomSampleTree.build_full(
            plan, make_family(FamilyKind.MURMUR3, 3, 600)).node_count == 7
        with pytest.raises(ValueError, match="leaf_size 2500.5 is not an integer"):
            TreePlan(10_000, 600, 3, 2, 2500.5, 1.0, 240.0)

    @pytest.mark.parametrize("k", [3.5, "3"])
    def test_k_that_is_no_integer(self, k):
        with pytest.raises(PlanError, match="k .* is not an integer"):
            plan_from_accuracy(0.9, 1000, 10**6, k, 240.0)
        with pytest.raises(PlanError, match="k .* is not an integer"):
            plan_with_m(1000, 10**5, k, 240.0)

    def test_m_and_namespace_that_are_no_integers(self):
        with pytest.raises(PlanError, match="m 600.5 is not an integer"):
            plan_with_m(600.5, 10**5, 3, 240.0)
        with pytest.raises(PlanError, match="namespace size 100000.5 is not an integer"):
            plan_with_m(600, 100_000.5, 3, 240.0)
        with pytest.raises(PlanError, match="namespace size 100000.5 is not an integer"):
            plan_from_accuracy(0.9, 1000, 100_000.5, 3, 240.0)

    def test_k_below_the_u16_limit_plans(self):
        assert plan_with_m(8 * (2**16 - 1), 10**7, 2**16 - 1, 240.0).k == 2**16 - 1

    @pytest.mark.parametrize("ratio", [1e307, sys.float_info.max])
    def test_huge_finite_ratio_plans_depth_zero(self, ratio):
        # N / log2(N) would leave the float range on the way to the width
        assert max_leaf_capacity(ratio) >= 2**64 - 1
        assert plan_with_m(1000, 10**5, 3, ratio).depth == 0
        plan = plan_from_accuracy(0.9, 1000, 10**5, 3, ratio)
        assert (plan.depth, plan.leaf_size) == (0, 10**5)

    @pytest.mark.parametrize("ratio", [math.inf, -math.inf, math.nan, 0.0, -3.0])
    def test_ratio_not_finite_and_positive(self, ratio):
        with pytest.raises(PlanError, match="cost_ratio"):
            max_leaf_capacity(ratio)
        with pytest.raises(PlanError, match="cost_ratio"):
            plan_from_accuracy(0.9, 1000, 10**5, 3, ratio)
        with pytest.raises(PlanError, match="cost_ratio"):
            plan_with_m(1000, 10**5, 3, ratio)
