"""Element input that int64 cannot hold exactly is rejected, never rounded."""
import numpy as np
import pytest

from bloomsampletree.bloom import as_elements, build_filter
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
        assert f.is_zero()

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
