"""Loading trees without copying their words, and the loader's checks on the
plan, on bits past m and on a query's namespace.

A loaded tree's nodes are row views of the input bytes; a node copies its
own words on its first write, so the input is never written.
"""
import dataclasses
import struct

import numpy as np
import pytest

from bloomsampletree.bloom import BloomFilter, build_filter, tail_mask
from bloomsampletree.bst import BloomSampleTree, TreePlan, plan_from_accuracy, plan_with_m
from bloomsampletree.cli import main
from bloomsampletree.hashing import FamilyKind, HashFamily, make_family

M = 50_000
OCCUPIED = np.arange(1_000, 4_000)
FAMILIES = [FamilyKind.SIMPLE_LINEAR, FamilyKind.MURMUR3, FamilyKind.MD5]


def _built(kind=FamilyKind.MURMUR3, m=997, occupied=OCCUPIED):
    plan = plan_with_m(m, M, 3, 240.0)
    family = make_family(kind, 3, m, seed=11)
    return BloomSampleTree.build_pruned(plan, family, occupied)


def _shares(node, data) -> bool:
    return np.shares_memory(node.words, np.frombuffer(data, np.uint8))


def _path(tree, x) -> set:
    depth, leaf = tree.plan.depth, x // tree.plan.leaf_size
    return {(level, leaf >> (depth - level)) for level in range(depth + 1)}


def _words_offset(tree) -> int:
    """Byte offset of the words blob in ``tree.to_bytes()``."""
    return len(tree.to_bytes()) - 8 * tree.node_count * len(tree.nodes[(0, 0)].words)


class TestZeroCopyLoad:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_every_loaded_node_views_the_input(self, kind):
        data = _built(kind).to_bytes()
        tree = BloomSampleTree.from_bytes(data)
        assert tree.node_count > 1
        assert all(_shares(node, data) for node in tree.nodes.values())
        assert not any(node.words.flags.writeable for node in tree.nodes.values())

    @pytest.mark.parametrize("x", [2_500, 40_000])
    def test_insert_copies_only_the_path_nodes(self, x):
        built = _built()
        data = built.to_bytes()
        tree = BloomSampleTree.from_bytes(data)
        old_keys = set(tree.nodes)
        tree.insert(x)
        path = _path(tree, x)
        assert path <= set(tree.nodes)
        for key, node in tree.nodes.items():
            assert _shares(node, data) == (key not in path), key
        # the nodes off the path still hold the built words
        assert all(tree.nodes[key] == built.nodes[key] for key in old_keys - path)

    def test_two_trees_from_one_bytes_stay_apart(self):
        built = _built()
        data = built.to_bytes()
        snapshot = bytes(bytearray(data))
        first = BloomSampleTree.from_bytes(data)
        second = BloomSampleTree.from_bytes(data)
        new = np.arange(30_000, 30_400)
        for x in new.tolist():
            first.insert(x)
        assert data == snapshot
        assert second == built
        assert all(_shares(node, data) for node in second.nodes.values())
        plan, family = built.plan, built.family
        assert first == BloomSampleTree.build_pruned(plan, family, np.union1d(OCCUPIED, new))

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_input_bytes_unchanged_after_any_inserts(self, kind):
        built = _built(kind)
        data = built.to_bytes()
        snapshot = bytes(bytearray(data))
        tree = BloomSampleTree.from_bytes(data)
        rng = np.random.default_rng(5)
        # inside the occupied range, in new leaves, and repeats
        xs = np.concatenate([rng.integers(0, M, 60), OCCUPIED[::97], OCCUPIED[:5]])
        for x in xs.tolist():
            tree.insert(x)
            assert data == snapshot
        expected = BloomSampleTree.build_pruned(built.plan, built.family,
                                                np.union1d(OCCUPIED, xs))
        assert tree == expected
        assert BloomSampleTree.from_bytes(data) == built

    def test_insert_many_on_a_loaded_node_copies_it(self):
        data = _built().to_bytes()
        snapshot = bytes(bytearray(data))
        tree = BloomSampleTree.from_bytes(data)
        root = tree.nodes[(0, 0)]
        before = root.words.copy()
        root.insert_many([7, 30_000, 49_999])
        assert not _shares(root, data) and root.words.flags.writeable
        assert data == snapshot
        assert root.contains(30_000) and bool(((root.words & before) == before).all())
        assert all(_shares(node, data) for key, node in tree.nodes.items() if key != (0, 0))

    def test_filter_over_read_only_words_copies_on_insert(self):
        family = make_family(FamilyKind.MURMUR3, 3, 997, seed=2)
        raw = bytes(8 * ((997 + 63) // 64))
        flt = BloomFilter(family, M, words=np.frombuffer(raw, "<u8"))
        flt.insert(123)
        assert flt.contains(123) and raw == bytes(len(raw))
        assert flt == build_filter(family, M, [123])

    @pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))])
    def test_mutable_input_edited_after_loading(self, wrap):
        built = _built()
        buf = wrap(built.to_bytes())
        tree = BloomSampleTree.from_bytes(buf)
        flat = np.frombuffer(buf, np.uint8)
        assert not any(np.shares_memory(node.words, flat) for node in tree.nodes.values())
        start = _words_offset(built)
        for pos in range(start, len(buf), 61):
            buf[pos] ^= 0xFF
        assert tree == built
        tree.insert(40_000)
        built.insert(40_000)
        assert tree == built

    def test_partly_written_tree_round_trips(self):
        built = _built()
        tree = BloomSampleTree.from_bytes(built.to_bytes())
        new = [2_222, 40_000, 40_001, 12_345]
        for x in new:
            tree.insert(x)
        data = tree.to_bytes()
        assert BloomSampleTree.from_bytes(data) == tree
        expected = BloomSampleTree.build_pruned(built.plan, built.family,
                                                np.union1d(OCCUPIED, new))
        assert data == expected.to_bytes()

    def test_load_from_file_views_its_bytes(self, tmp_path):
        built = _built()
        built.save(tmp_path / "t.bstr")
        tree = BloomSampleTree.load(tmp_path / "t.bstr")
        assert tree == built
        assert not any(node.words.flags.writeable for node in tree.nodes.values())
        tree.insert(45_000)
        built.insert(45_000)
        assert tree == built


class TestPlanCoversNamespace:
    def _family(self, m=997):
        return make_family(FamilyKind.MURMUR3, 3, m, seed=3)

    def test_leaves_short_of_namespace_rejected(self):
        plan = TreePlan(10**6, 997, 3, depth=6, leaf_size=64, accuracy_target=1.0,
                        cost_ratio=240.0)
        assert plan.padded_size == 4_096
        with pytest.raises(ValueError, match=r"cover \[0, 4096\)"):
            BloomSampleTree(plan, self._family())

    def test_leaf_width_zero_rejected(self):
        plan = TreePlan(M, 997, 3, depth=5, leaf_size=0, accuracy_target=1.0,
                        cost_ratio=240.0)
        with pytest.raises(ValueError, match="leaf width 0"):
            BloomSampleTree(plan, self._family())

    def test_exact_cover_accepted(self):
        plan = TreePlan(4_096, 997, 3, depth=6, leaf_size=64, accuracy_target=1.0,
                        cost_ratio=240.0)
        tree = BloomSampleTree.build_full(plan, self._family())
        assert BloomSampleTree.from_bytes(tree.to_bytes()) == tree

    @pytest.mark.parametrize("namespace", [2, 3, 1_000, 4_097, 10**6 + 1, 10**9 + 7])
    @pytest.mark.parametrize("cost_ratio", [2.0, 240.0, 10_000.0])
    def test_planner_outputs_pass(self, namespace, cost_ratio):
        family = self._family()
        BloomSampleTree(plan_with_m(997, namespace, 3, cost_ratio), family)
        if namespace > 1_000:
            plan = plan_from_accuracy(0.9, 100, namespace, 3, cost_ratio)
            BloomSampleTree(plan, make_family(FamilyKind.MURMUR3, 3, plan.m))

    @pytest.mark.parametrize("leaf_size", [0, 64])
    def test_file_with_short_plan_rejected(self, leaf_size):
        built = _built()
        data = bytearray(built.to_bytes())
        plan = dataclasses.replace(built.plan, leaf_size=leaf_size)
        data[5:5 + len(plan.to_bytes())] = plan.to_bytes()
        with pytest.raises(ValueError, match="plan's lea"):
            BloomSampleTree.from_bytes(bytes(data))


def _set_bit_in_nodes(tree, data: bytearray, bit: int, rows) -> None:
    n_words = len(tree.nodes[(0, 0)].words)
    start = _words_offset(tree)
    for row in rows:
        data[start + 8 * n_words * row + bit // 8] |= 1 << (bit % 8)


class TestBitsPastM:
    def test_tail_mask(self):
        assert tail_mask(200) == np.uint64((1 << 64) - (1 << 8))
        assert tail_mask(193) == np.uint64((1 << 64) - (1 << 1))
        assert tail_mask(256) == 0 and tail_mask(64) == 0
        assert tail_mask(2) == np.uint64((1 << 64) - 4)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_tree_with_bit_past_m_in_every_node_rejected(self, kind):
        built = _built(kind, m=200)
        data = bytearray(built.to_bytes())
        _set_bit_in_nodes(built, data, 255, range(built.node_count))
        with pytest.raises(ValueError, match=r"tree node \(0, 0\) sets a bit at or past m = 200"):
            BloomSampleTree.from_bytes(bytes(data))

    def test_first_bad_node_named(self):
        built = _built(m=200)
        keys = sorted(built.nodes)
        row = len(keys) - 1
        data = bytearray(built.to_bytes())
        _set_bit_in_nodes(built, data, 200, [row])
        with pytest.raises(ValueError, match=rf"tree node \({keys[row][0]}, {keys[row][1]}\)"):
            BloomSampleTree.from_bytes(bytes(data))

    def test_bit_m_minus_one_loads(self):
        built = _built(m=200)
        data = bytearray(built.to_bytes())
        _set_bit_in_nodes(built, data, 199, range(built.node_count))
        tree = BloomSampleTree.from_bytes(bytes(data))
        assert all(int(node.words[-1]) >> 7 & 1 for node in tree.nodes.values())

    def test_m_multiple_of_64_has_no_tail(self):
        built = _built(m=256)
        data = bytearray(built.to_bytes())
        _set_bit_in_nodes(built, data, 255, range(built.node_count))
        BloomSampleTree.from_bytes(bytes(data))

    @pytest.mark.parametrize("bit", [200, 255])
    def test_filter_with_bit_past_m_rejected(self, bit):
        family = make_family(FamilyKind.MURMUR3, 3, 200, seed=4)
        data = bytearray(build_filter(family, M, [5, 9]).to_bytes())
        data[len(data) - 32 + bit // 8] |= 1 << (bit % 8)
        with pytest.raises(ValueError, match="past m = 200"):
            BloomFilter.from_bytes(bytes(data))
        data[len(data) - 32 + bit // 8] &= ~(1 << (bit % 8)) & 0xFF
        assert BloomFilter.from_bytes(bytes(data))[0] == build_filter(family, M, [5, 9])


@pytest.fixture
def m200_tree_file(tmp_path, capsys):
    path = tmp_path / "tree.bstr"
    assert main(["build", "-M", "4096", "--force-m", "200", "--family", "murmur3",
                 "--cost-ratio", "16.0", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


def _one_line_error(capsys, argv) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


class TestCliErrors:
    @pytest.mark.parametrize("leaf_size", [0, 1])
    def test_short_plan_tree(self, capsys, m200_tree_file, leaf_size):
        tree = BloomSampleTree.load(m200_tree_file)
        data = bytearray(m200_tree_file.read_bytes())
        plan = dataclasses.replace(tree.plan, leaf_size=leaf_size)
        data[5:5 + len(plan.to_bytes())] = plan.to_bytes()
        m200_tree_file.write_bytes(bytes(data))
        err = _one_line_error(capsys, ["reconstruct", "--tree", str(m200_tree_file),
                                       "--set", "5,9"])
        assert "plan's lea" in err

    @pytest.mark.parametrize("command", ["sample", "reconstruct", "chi2"])
    def test_tree_with_bits_past_m(self, capsys, m200_tree_file, command):
        tree = BloomSampleTree.load(m200_tree_file)
        data = bytearray(m200_tree_file.read_bytes())
        _set_bit_in_nodes(tree, data, 255, range(tree.node_count))
        m200_tree_file.write_bytes(bytes(data))
        err = _one_line_error(capsys, [command, "--tree", str(m200_tree_file),
                                       "--set", "5,9"])
        assert "past m = 200" in err

    @pytest.mark.parametrize("command", ["sample", "reconstruct", "chi2"])
    def test_query_file_with_bits_past_m(self, capsys, m200_tree_file, tmp_path, command):
        tree = BloomSampleTree.load(m200_tree_file)
        data = bytearray(build_filter(tree.family, 4096, [5, 9, 700]).to_bytes())
        data[-1] |= 0x80
        query = tmp_path / "q.bflt"
        query.write_bytes(bytes(data))
        err = _one_line_error(capsys, [command, "--tree", str(m200_tree_file),
                                       "--query", str(query)])
        assert "past m = 200" in err


def _copying_writer(tree) -> bytes:
    """The v2 writer as it was, copying each node's words with ``astype``."""
    keys = sorted(tree.nodes)
    return b"".join([b"BSTR", bytes([2]), tree.plan.to_bytes(), tree.family.to_bytes(),
                     struct.pack("<Q", len(keys)),
                     np.array(keys, dtype=[("level", "u1"), ("j", "<u8")]).tobytes(),
                     *(tree.nodes[key].words.astype("<u8").tobytes() for key in keys)])


class TestWriterAndLoaderCost:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_writer_output_unchanged(self, kind):
        built = _built(kind)
        loaded = BloomSampleTree.from_bytes(built.to_bytes())
        loaded.insert(40_000)  # one written path, the rest read-only views
        for tree in (built, loaded, BloomSampleTree.from_bytes(loaded.to_bytes())):
            assert tree.to_bytes() == _copying_writer(tree)

    def test_loader_checks_the_namespace_once_per_tree(self, monkeypatch):
        data = _built().to_bytes()
        checks = []
        check = HashFamily.check_namespace
        monkeypatch.setattr(HashFamily, "check_namespace",
                            lambda self, n: checks.append(n) or check(self, n))
        tree = BloomSampleTree.from_bytes(data)
        assert checks == [M] and tree.node_count > 1
        assert tree == _built()


    @staticmethod
    def _count_node_makers(monkeypatch) -> dict:
        """Spy on ``BloomFilter.__init__`` and the batch row factory: calls to
        each, and the filters that the factory made."""
        calls = {"__init__": 0, "_row_views": 0, "filters": 0}
        init, row_views = BloomFilter.__init__, BloomFilter._row_views.__func__

        def counted_init(self, *args, **kwargs):
            calls["__init__"] += 1
            init(self, *args, **kwargs)

        def counted_row_views(cls, *args):
            calls["_row_views"] += 1
            flts = row_views(cls, *args)
            calls["filters"] += len(flts)
            return flts

        monkeypatch.setattr(BloomFilter, "__init__", counted_init)
        monkeypatch.setattr(BloomFilter, "_row_views", classmethod(counted_row_views))
        return calls

    def test_loader_makes_every_node_with_the_row_factory(self, monkeypatch):
        data = _built().to_bytes()
        calls = self._count_node_makers(monkeypatch)
        tree = BloomSampleTree.from_bytes(data)
        assert tree.node_count > 1
        assert calls == {"__init__": 0, "_row_views": 1, "filters": tree.node_count}

    @pytest.mark.parametrize("full", [True, False], ids=["build_full", "build_pruned"])
    def test_builds_make_every_node_with_the_row_factory(self, monkeypatch, full):
        plan = plan_with_m(997, M, 3, 240.0)
        family = make_family(FamilyKind.MURMUR3, 3, 997, seed=11)
        calls = self._count_node_makers(monkeypatch)
        tree = (BloomSampleTree.build_full(plan, family) if full
                else BloomSampleTree.build_pruned(plan, family, OCCUPIED))
        assert tree.node_count > 1
        # one factory call per level
        assert calls == {"__init__": 0, "_row_views": plan.depth + 1,
                         "filters": tree.node_count}

    def test_checked_keyword_is_gone(self):
        family = make_family(FamilyKind.MURMUR3, 3, 997, seed=2)
        with pytest.raises(TypeError, match="checked"):
            BloomFilter(family, M, checked=True)


def _loaded(kind=FamilyKind.MURMUR3):
    """A loaded tree with one written path, the rest read-only views."""
    tree = BloomSampleTree.from_bytes(_built(kind).to_bytes())
    tree.insert(40_000)
    return tree


NODE_KINDS = {"built": _built, "loaded": _loaded}


class TestWriterChecksNodes:
    @pytest.mark.parametrize("node_kind", list(NODE_KINDS))
    def test_node_with_another_m_rejected(self, node_kind):
        tree = NODE_KINDS[node_kind]()
        tree.nodes[(1, 0)] = build_filter(make_family(FamilyKind.MURMUR3, 3, 500, seed=11),
                                          M, [5])
        with pytest.raises(ValueError, match=r"tree node \(1, 0\) has m = 500, "
                                             r"not the tree's m = 997"):
            tree.to_bytes()

    @pytest.mark.parametrize("node_kind", list(NODE_KINDS))
    def test_node_with_another_family_of_the_same_m_rejected(self, node_kind):
        tree = NODE_KINDS[node_kind]()
        for family in (make_family(FamilyKind.MURMUR3, 3, 997, seed=12),
                       make_family(FamilyKind.MD5, 3, 997, seed=11)):
            tree.nodes[(1, 0)] = build_filter(family, M, [5])
            with pytest.raises(ValueError, match=r"tree node \(1, 0\) has another "
                                                 "hash family than the tree"):
                tree.to_bytes()

    def test_first_bad_node_named(self):
        tree = _built()
        other = make_family(FamilyKind.MURMUR3, 3, 997, seed=12)
        keys = sorted(tree.nodes)
        for key in (keys[-1], keys[2]):
            tree.nodes[key] = BloomFilter(other, M, words=tree.nodes[key].words)
        with pytest.raises(ValueError, match=rf"tree node \({keys[2][0]}, {keys[2][1]}\)"):
            tree.to_bytes()

    @pytest.mark.parametrize("node_kind", list(NODE_KINDS))
    def test_equal_family_of_another_object_written(self, node_kind):
        tree = NODE_KINDS[node_kind]()
        twin = make_family(FamilyKind.MURMUR3, 3, 997, seed=11)
        assert twin == tree.family and twin is not tree.family
        tree.nodes[(1, 0)] = BloomFilter(twin, M, words=tree.nodes[(1, 0)].words.copy())
        data = tree.to_bytes()
        assert data == _copying_writer(tree)
        assert BloomSampleTree.from_bytes(data) == tree

    @pytest.mark.parametrize("node_kind", list(NODE_KINDS))
    def test_failed_save_leaves_the_file(self, tmp_path, node_kind):
        path = tmp_path / "t.bstr"
        tree = NODE_KINDS[node_kind]()
        tree.save(path)
        before = path.read_bytes()
        tree.nodes[(1, 0)] = BloomFilter(make_family(FamilyKind.MURMUR3, 3, 500, seed=11), M)
        with pytest.raises(ValueError, match="m = 500"):
            tree.save(path)
        assert path.read_bytes() == before
        assert BloomSampleTree.load(path) != tree


class TestWriterOnOtherWords:
    def test_strided_node_words(self):
        tree = _built()
        words = tree.nodes[(1, 0)].words
        big = np.zeros(2 * words.size, dtype=np.uint64)
        big[::2] = words
        tree.nodes[(1, 0)] = BloomFilter(tree.family, M, words=big[::2])
        assert not tree.nodes[(1, 0)].words.flags.c_contiguous
        with pytest.raises(TypeError):  # so the writer must copy these words first
            b"".join([tree.nodes[(1, 0)].words])
        data = tree.to_bytes()
        assert data == _copying_writer(tree) == _built().to_bytes()
        assert BloomSampleTree.from_bytes(data) == tree

    def test_big_endian_node_words(self):
        tree = _loaded()
        node = tree.nodes[(1, 0)]
        node.words = node.words.astype(">u8")
        assert tree.to_bytes() == _copying_writer(tree) == _loaded().to_bytes()


class TestQueryNamespace:
    @pytest.mark.parametrize("query_size", [M // 2, M + 1, 2 * M])
    def test_library_rejects_another_namespace(self, query_size):
        tree = _built()
        query = build_filter(tree.family, query_size, [1_500, 2_500])
        for call in (lambda: tree.sample(query), lambda: tree.sample_many(query, 3),
                     lambda: tree.reconstruct(query, 0.0), lambda: tree.reconstruct(query)):
            with pytest.raises(ValueError, match=f"query filter is over \\[0, {query_size}\\)"):
                call()
        same = build_filter(tree.family, M, [1_500, 2_500])
        assert {1_500, 2_500} <= set(tree.reconstruct(same, 0.0)[0].tolist())

    @pytest.mark.parametrize("command", [["reconstruct", "--algo", "bst"],
                                         ["reconstruct", "--algo", "da"],
                                         ["reconstruct", "--algo", "hi"],
                                         ["sample"], ["chi2"]])
    @pytest.mark.parametrize("query_size", [2048, 8192])
    def test_cli_rejects_another_namespace(self, capsys, m200_tree_file, tmp_path,
                                           command, query_size):
        tree = BloomSampleTree.load(m200_tree_file)
        query = tmp_path / "q.bflt"
        build_filter(tree.family, query_size, [5, 9, 700]).save(query)
        err = _one_line_error(capsys, [*command, "--tree", str(m200_tree_file),
                                       "--query", str(query)])
        assert f"query filter is over [0, {query_size}), not the namespace [0, 4096)" in err
