"""End-to-end tests driving the command line interface in process."""
import numpy as np
import pytest

from bloomsampletree.bloom import build_filter
from bloomsampletree.bst import BloomSampleTree
from bloomsampletree.cli import DEFAULT_SEED, main


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out


class TestPlan:
    def test_frozen_parameters(self, capsys):
        code, out = run_cli(capsys, "plan", "--accuracy", 0.9, "--n-ref", 1000,
                            "-M", 10**6, "-k", 3, "--cost-ratio", 240)
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert int(lines["m"]) == 60870
        assert int(lines["depth"]) == 9
        assert int(lines["leaf_size"]) == 1954
        assert int(lines["nodes"]) == 2 ** 10 - 1
        assert int(lines["memory_bits"]) == 60870 * (2 ** 10 - 1)
        assert float(lines["predicted_fp"]) == pytest.approx(1.1122e-4, rel=1e-3)

    def test_namespace_fitting_one_leaf_gives_depth_zero(self, capsys):
        code, out = run_cli(capsys, "plan", "-M", 1000, "--n-ref", 100)
        assert code == 0
        assert "depth 0" in out

    def test_accuracy_one_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["plan", "--accuracy", "1.0", "-M", "1000"])


class TestBuild:
    def test_small_full_tree_node_count(self, capsys, tmp_path):
        out_file = tmp_path / "t.bstr"
        code, out = run_cli(capsys, "build", "-M", 16, "--force-m", 64,
                            "--cost-ratio", 2.0, "--out", out_file)
        assert code == 0
        assert "nodes 7" in out
        tree = BloomSampleTree.load(out_file)
        assert tree.plan.depth == 2
        assert tree.node_range(2, 0) == (0, 4)

    def test_pruned_full_occupancy_matches_full_build(self, capsys, tmp_path):
        occupied = tmp_path / "all.txt"
        occupied.write_text("".join(f"{x}\n" for x in range(16)))
        full, pruned = tmp_path / "full.bstr", tmp_path / "pruned.bstr"
        run_cli(capsys, "build", "-M", 16, "--force-m", 64, "--cost-ratio", 2.0,
                "--out", full)
        run_cli(capsys, "build", "-M", 16, "--force-m", 64, "--cost-ratio", 2.0,
                "--pruned", occupied, "--out", pruned)
        assert full.read_bytes() == pruned.read_bytes()

    def test_empty_occupancy_builds_zero_nodes(self, capsys, tmp_path):
        occupied = tmp_path / "none.txt"
        occupied.write_text("# nothing here\n")
        code, out = run_cli(capsys, "build", "-M", 16, "--force-m", 64,
                            "--pruned", occupied, "--out", tmp_path / "t.bstr")
        assert code == 0
        assert "nodes 0" in out


@pytest.fixture
def small_tree_file(tmp_path, capsys):
    path = tmp_path / "tree.bstr"
    code = main(["build", "-M", "1000", "--force-m", "4096", "--cost-ratio", "2.0",
                 "--out", str(path)])
    assert code == 0
    capsys.readouterr()  # drop the build chatter before the test runs
    return path


class TestSample:
    def test_singleton_query(self, capsys, small_tree_file):
        code, out = run_cli(capsys, "sample", "--tree", small_tree_file, "--set", 5)
        assert code == 0
        assert out.splitlines()[0] == "5"

    def test_multiple_draws(self, capsys, small_tree_file):
        code, out = run_cli(capsys, "sample", "--tree", small_tree_file,
                            "--set", 5, "-r", 5)
        assert out.splitlines()[:5] == ["5"] * 5

    def test_draws_come_from_query_set(self, capsys, small_tree_file):
        code, out = run_cli(capsys, "sample", "--tree", small_tree_file,
                            "--set", "5,9,23", "-r", 20, "--threshold", 0)
        values = {line for line in out.splitlines() if not line.startswith("#")}
        assert values <= {"5", "9", "23"}

    def test_matches_in_memory_run(self, capsys, small_tree_file):
        code, out = run_cli(capsys, "sample", "--tree", small_tree_file,
                            "--set", "5,9,23", "-r", 10)
        tree = BloomSampleTree.load(small_tree_file)
        query = build_filter(tree.family, 1000, [5, 9, 23])
        rng = np.random.default_rng(DEFAULT_SEED)
        expect = [str(o.element) for o in tree.sample_many(query, 10, True, 0.5, rng)]
        assert [l for l in out.splitlines() if not l.startswith("#")] == expect

    def test_deterministic_under_seed(self, capsys, small_tree_file):
        _, a = run_cli(capsys, "--seed", 7, "sample", "--tree", small_tree_file,
                       "--set", "5,9,23", "-r", 10)
        _, b = run_cli(capsys, "--seed", 7, "sample", "--tree", small_tree_file,
                       "--set", "5,9,23", "-r", 10)
        assert a == b

    def test_missing_query_rejected(self, small_tree_file):
        with pytest.raises(SystemExit):
            main(["sample", "--tree", str(small_tree_file)])

    def test_malformed_set_exits_nonzero(self, capsys, small_tree_file):
        assert main(["sample", "--tree", str(small_tree_file), "--set", "abc"]) == 1

    def test_missing_tree_exits_nonzero(self, capsys, tmp_path):
        assert main(["sample", "--tree", str(tmp_path / "no.bstr"), "--set", "5"]) == 1


class TestReconstruct:
    @pytest.mark.parametrize("algo", ["da", "hi"])
    def test_algorithms_agree_with_tree(self, capsys, small_tree_file, algo):
        args = ["reconstruct", "--tree", small_tree_file, "--set", "5,9,23",
                "--threshold", 0]
        _, bst_out = run_cli(capsys, *args, "--algo", "bst")
        _, other_out = run_cli(capsys, *args, "--algo", algo)
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
        assert strip(bst_out) == strip(other_out)
        assert set(strip(bst_out)) >= {"5", "9", "23"}

    def test_output_sorted(self, capsys, small_tree_file):
        _, out = run_cli(capsys, "reconstruct", "--tree", small_tree_file,
                         "--set", "23,5,9", "--threshold", 0)
        values = [int(l) for l in out.splitlines() if not l.startswith("#")]
        assert values == sorted(values)


class TestChi2:
    def test_auto_rounds_and_uniformity(self, capsys, tmp_path):
        # sparse occupancy, oversized filters: near-uniform sampling expected
        rng = np.random.default_rng(3)
        members = np.sort(rng.choice(10**4, size=16, replace=False))
        occupied = tmp_path / "s.txt"
        occupied.write_text("".join(f"{x}\n" for x in members))
        tree_file = tmp_path / "t.bstr"
        main(["build", "-M", str(10**4), "--accuracy", "0.9", "--n-ref", "1600",
              "--family", "murmur3", "--pruned", str(occupied),
              "--out", str(tree_file)])
        code, out = run_cli(capsys, "chi2", "--tree", tree_file,
                            "--set", ",".join(str(x) for x in members),
                            "--auto-130n")
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert int(lines["T"]) == 130 * 16
        assert int(lines["df"]) == 15
        assert float(lines["p_value"]) > 0.08
        assert lines["rejected_at_0.08"] == "False"

    def test_explicit_rounds(self, capsys, small_tree_file):
        code, out = run_cli(capsys, "chi2", "--tree", small_tree_file,
                            "--set", "5,9", "-T", 200, "--threshold", 0)
        assert code == 0
        assert "T 200" in out

    def test_single_positive_rejected(self, small_tree_file):
        with pytest.raises(SystemExit):
            main(["chi2", "--tree", str(small_tree_file), "--set", "5", "-T", "10"])


class TestBench:
    def test_config_to_csv(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("version = 1\nalgorithms = da\nM = 2000\nn = 50\n"
                          "accuracy = 0.9\ntrials = 3\n")
        out_csv = tmp_path / "out.csv"
        code, out = run_cli(capsys, "bench", "--config", config, "--out", out_csv)
        assert code == 0
        assert "cells 1" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("algorithm,M,n,")
        assert lines[1].startswith("da,2000,50,")

    def test_bad_config_exits_nonzero(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("algorithms = da\n")
        assert main(["bench", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == 1


class TestCorruptTree:
    @pytest.mark.parametrize("damage", ["truncate", "append", "level"])
    def test_sample_exits_with_one_line_error(self, capsys, small_tree_file, damage):
        data = bytearray(small_tree_file.read_bytes())
        if damage == "truncate":
            data = data[:30]
        elif damage == "append":
            data += b"\0"
        else:
            tree = BloomSampleTree.load(small_tree_file)
            data[5 + len(tree.plan.to_bytes()) + len(tree.family.to_bytes()) + 8] = 200
        small_tree_file.write_bytes(bytes(data))
        code = main(["sample", "--tree", str(small_tree_file), "--set", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
