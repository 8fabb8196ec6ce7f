"""Element input that int64 cannot hold exactly is rejected, never rounded."""
import numpy as np
import pytest

from bloomsampletree.bloom import BloomFilter, as_elements, build_filter, check_elements
from bloomsampletree.bst import BloomSampleTree, plan_with_m
from bloomsampletree.cli import main
from bloomsampletree.hashing import FamilyKind, make_family

M = 10**6
PLAN = plan_with_m(600, M, 3, 240.0)
FAM = make_family(FamilyKind.MURMUR3, 3, 600, seed=1)

TOO_BIG = [[2**63], [5, 2**63], [2**70], [5, 1180591620717411303424], [-(2**63) - 1],
           np.array([2**63], dtype=np.uint64), np.array([2.0**63]),
           np.array([2**70], dtype=object)]
NOT_INTEGRAL = [[1.5], [2.9], [3, 0.5], [2**62 + 1, 0.5], np.array([1.5, 2.0]),
                np.array([np.nan]), np.array([np.inf]), ["3"], [None]]


class TestAsElements:
    @pytest.mark.parametrize("values", TOO_BIG)
    def test_outside_int64_raises_value_error(self, values):
        with pytest.raises(ValueError):
            as_elements(values)

    @pytest.mark.parametrize("values", NOT_INTEGRAL)
    def test_non_integral_raises_value_error(self, values):
        with pytest.raises(ValueError):
            as_elements(values)

    @pytest.mark.parametrize("values, expected", [
        ([], []),
        ([3, 1, 2], [3, 1, 2]),
        ((x for x in (4, 5)), [4, 5]),
        ([2**63 - 1, -(2**63)], [2**63 - 1, -(2**63)]),
        ([2**62 + 1, 2.0], [2**62 + 1, 2]),
        (np.array([7, 8], dtype=np.uint64), [7, 8]),
        (np.array([7.0, -1.0]), [7, -1]),
        (np.array([[1, 2], [3, 4]], dtype=np.int32), [1, 2, 3, 4]),
        (np.array([True, False]), [1, 0]),
    ])
    def test_exact_values_kept(self, values, expected):
        out = as_elements(values)
        assert out.dtype == np.int64 and out.ndim == 1
        assert out.tolist() == expected

    def test_int64_array_is_not_copied(self):
        xs = np.arange(10, dtype=np.int64)
        assert np.shares_memory(as_elements(xs), xs)


class TestLibraryRejects:
    @pytest.mark.parametrize("values", [[2**63], [5, 1180591620717411303424]])
    def test_build_pruned_outside_int64(self, values):
        with pytest.raises(ValueError):
            BloomSampleTree.build_pruned(PLAN, FAM, values)

    @pytest.mark.parametrize("values", [[2**63], [5, 1180591620717411303424]])
    def test_build_filter_outside_int64(self, values):
        with pytest.raises(ValueError):
            build_filter(FAM, M, values)

    def test_build_pruned_non_integral(self):
        with pytest.raises(ValueError):
            BloomSampleTree.build_pruned(PLAN, FAM, [1.5])

    def test_build_filter_non_integral(self):
        with pytest.raises(ValueError):
            build_filter(FAM, M, [2.9])

    def test_rejected_insert_many_changes_nothing(self):
        f = build_filter(FAM, M, [1, 2])
        saved = f.words.copy()
        for values in ([3, 2.5], [3, 2**64]):
            with pytest.raises(ValueError):
                f.insert_many(values)
        assert np.array_equal(f.words, saved)

    def test_integral_floats_build_the_same_tree(self):
        assert BloomSampleTree.build_pruned(PLAN, FAM, np.array([1.0, 5e5])) == \
            BloomSampleTree.build_pruned(PLAN, FAM, [1, 500_000])
        assert build_filter(FAM, M, [3.0]) == build_filter(FAM, M, [3])


class TestScalarElements:
    """One element goes through the rule of ``as_elements``, like a batch."""

    def test_filter_insert_non_integral(self):
        f = build_filter(FAM, M, [])
        with pytest.raises(ValueError, match="not an integer"):
            f.insert(1.5)
        assert f.popcount() == 0

    def test_filter_contains_non_integral(self):
        f = build_filter(FAM, M, [1])
        with pytest.raises(ValueError, match="not an integer"):
            f.contains(1.9)

    def test_tree_insert_non_integral(self):
        tree = BloomSampleTree.build_pruned(PLAN, FAM, [])
        with pytest.raises(ValueError, match="not an integer"):
            tree.insert(2.5)
        assert tree.node_count == 0

    def test_integral_float_is_the_integer(self):
        f = build_filter(FAM, M, [])
        f.insert(2.0)
        assert f == build_filter(FAM, M, [2])
        assert f.contains(2.0) and f.contains(np.float64(2.0))
        tree = BloomSampleTree.build_pruned(PLAN, FAM, [])
        tree.insert(2.0)
        tree.insert(np.int64(7))
        assert tree == BloomSampleTree.build_pruned(PLAN, FAM, [2, 7])


class TestNamespaceRule:
    """Every element entry point checks [0, M) by one rule, naming the first
    element outside."""

    @pytest.mark.parametrize("values, bad", [
        ([5, M, -1], M), ([-1, M], -1), (np.array([3, 2**62, 4]), 2**62), ([M + 0.0], M)])
    def test_check_elements_names_the_first_outside(self, values, bad):
        with pytest.raises(ValueError, match=rf"^element {bad} outside namespace \[0, {M}\)$"):
            check_elements(values, M)

    def test_check_elements_keeps_what_is_inside(self):
        assert check_elements([0, M - 1, 2.0], M).tolist() == [0, M - 1, 2]
        assert check_elements([], M).size == 0

    CALLS = {
        "insert_many": lambda f, xs: f.insert_many(xs),
        "contains_many": lambda f, xs: f.contains_many(xs),
        "insert": lambda f, xs: [f.insert(x) for x in xs],
        "contains": lambda f, xs: [f.contains(x) for x in xs],
        "build_pruned": lambda f, xs: BloomSampleTree.build_pruned(PLAN, FAM, xs),
        "tree_insert": lambda f, xs: [BloomSampleTree.build_pruned(PLAN, FAM, []).insert(x)
                                      for x in xs],
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_every_entry_point_rejects_alike(self, name):
        call, f = self.CALLS[name], build_filter(FAM, M, [2])
        for xs, message in (([7, M, -3], f"element {M} outside namespace"),
                            ([7, -3], "element -3 outside namespace"),
                            ([7, 2.5], "element 2.5 is not an integer")):
            with pytest.raises(ValueError, match=f"^{message}"):
                call(f, xs)

    def test_contains_many_reads_no_fraction_as_its_floor(self):
        f = build_filter(FAM, M, [2])
        assert f.contains_many([2.0, 3.0]).tolist() == [True, f.contains(3)]
        with pytest.raises(ValueError, match="not an integer"):
            f.contains_many([2.5, 2.9])

    def test_contains_many_past_the_linear_namespace_limit(self):
        fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, 1009, seed=2)
        f = BloomFilter(fam, fam.namespace_limit)
        f.insert(fam.namespace_limit - 1)
        assert f.contains_many([fam.namespace_limit - 1]).tolist() == [True]
        for x in (fam.namespace_limit, 2**63 - 1):
            with pytest.raises(ValueError, match=f"element {x} outside"):
                f.contains_many([x])
            with pytest.raises(ValueError, match=f"element {x} outside"):
                f.contains(x)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.err


def _one_error_line(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


BUILD = ("build", "-M", 100, "--force-m", 64, "--cost-ratio", 8.0)


class TestCli:
    @pytest.fixture
    def tree_file(self, capsys, tmp_path):
        path = tmp_path / "t.bstr"
        assert run(capsys, *BUILD, "--out", path)[0] == 0
        return path

    @pytest.mark.parametrize("value", ["9223372036854775808", "1180591620717411303424"])
    def test_build_pruned_outside_int64(self, capsys, tmp_path, value):
        occupied = tmp_path / "occ.txt"
        occupied.write_text(f"5\n{value}\n")
        code, err = run(capsys, *BUILD, "--pruned", occupied, "--out", tmp_path / "p.bstr")
        assert code == 1 and _one_error_line(err)

    def test_build_pruned_non_integral(self, capsys, tmp_path):
        occupied = tmp_path / "occ.txt"
        occupied.write_text("5\n1.5\n")
        code, err = run(capsys, *BUILD, "--pruned", occupied, "--out", tmp_path / "p.bstr")
        assert code == 1 and _one_error_line(err)

    @pytest.mark.parametrize("value", ["9223372036854775808", "1180591620717411303424"])
    def test_sample_set_outside_int64(self, capsys, tree_file, value):
        code, err = run(capsys, "sample", "--tree", tree_file, "--set", f"5,{value}")
        assert code == 1 and _one_error_line(err)

    def test_sample_set_non_integral(self, capsys, tree_file):
        code, err = run(capsys, "sample", "--tree", tree_file, "--set", "5,1.5")
        assert code == 1 and _one_error_line(err)
