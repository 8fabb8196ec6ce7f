"""End-to-end tests driving the command line interface in process."""
import dataclasses
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from bloomsampletree import baselines
from bloomsampletree.bloom import BloomFilter, build_filter
from bloomsampletree.bst import BloomSampleTree, plan_from_accuracy
from bloomsampletree.cli import DEFAULT_SEED, build_parser, main
from bloomsampletree.estimate import population_estimate
from bloomsampletree.evalkit import chi_squared_uniformity
from bloomsampletree.hashing import FamilyKind, make_family


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

    @pytest.mark.parametrize("M", [0, -5])
    def test_empty_namespace_rejected(self, capsys, M):
        code = main(["plan", "-M", str(M), "--force-m", "200"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestBuild:
    def test_small_full_tree_node_count(self, capsys, tmp_path):
        out_file = tmp_path / "t.bstr"
        code, out = run_cli(capsys, "build", "-M", 16, "--force-m", 64,
                            "--cost-ratio", 2.0, "--out", out_file)
        assert code == 0
        assert "nodes 7" in out
        tree = BloomSampleTree.load(out_file)
        assert tree.plan.depth == 2
        assert tree.plan.padded_size >> 2 == 4  # leaf (2, 0) is [0, 4)

    def test_pruned_full_occupancy_matches_full_build(self, capsys, tmp_path):
        occupied = tmp_path / "all.txt"
        occupied.write_text("".join(f"{x}\n" for x in range(16)))
        full, pruned = tmp_path / "full.bstr", tmp_path / "pruned.bstr"
        run_cli(capsys, "build", "-M", 16, "--force-m", 64, "--cost-ratio", 2.0,
                "--out", full)
        run_cli(capsys, "build", "-M", 16, "--force-m", 64, "--cost-ratio", 2.0,
                "--pruned", occupied, "--out", pruned)
        assert full.read_bytes() == pruned.read_bytes()

    def test_pruned_input_order_does_not_change_the_file(self, capsys, tmp_path):
        ids = np.random.default_rng(5).choice(1000, 120, replace=False)
        ascending, shuffled = tmp_path / "asc.txt", tmp_path / "shuffled.txt"
        ascending.write_text("".join(f"{x}\n" for x in np.sort(ids)))
        mixed = np.random.default_rng(6).permutation(np.concatenate([ids, ids[:30]]))
        shuffled.write_text("".join(f"{x}\n" for x in mixed))
        files = []
        for occupied in (ascending, shuffled):
            files.append(tmp_path / f"{occupied.stem}.bstr")
            code, _ = run_cli(capsys, "build", "-M", 1000, "--force-m", 256,
                              "--cost-ratio", 4.0, "--pruned", occupied, "--out", files[-1])
            assert code == 0
        assert files[0].read_bytes() == files[1].read_bytes()
        assert BloomSampleTree.load(files[0]).plan.depth > 2

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

    @pytest.mark.parametrize("members", ["5,9,23", ""])
    @pytest.mark.parametrize("flags", [[], ["--without-replacement"]])
    def test_counter_line_sums_the_outcomes(self, capsys, monkeypatch, small_tree_file,
                                            members, flags):
        returned, sample_many = [], BloomSampleTree.sample_many

        def spy(*args, **kwargs):
            outcomes = sample_many(*args, **kwargs)
            returned.append((outcomes, [dataclasses.replace(o.counters) for o in outcomes]))
            return outcomes

        monkeypatch.setattr(BloomSampleTree, "sample_many", spy)
        code, out = run_cli(capsys, "sample", "--tree", small_tree_file, "--set", members,
                            "-r", 5, "--threshold", 0, *flags)
        assert code == 0
        (outcomes, counters), = returned
        assert [o.counters for o in outcomes] == counters  # no outcome was merged into
        total = {f: sum(getattr(c, f) for c in counters) for f in
                 ("intersections", "membership_queries", "nodes_visited", "leaves_scanned")}
        assert out.splitlines() == [
            "NULL" if o.element is None else str(o.element) for o in outcomes] + [
            f"# intersections {total['intersections']} membership "
            f"{total['membership_queries']} nodes {total['nodes_visited']} "
            f"leaves {total['leaves_scanned']}"]
        assert (members == "") == all(o.element is None for o in outcomes)

    def test_deterministic_under_seed(self, capsys, small_tree_file):
        _, a = run_cli(capsys, "--seed", 7, "sample", "--tree", small_tree_file,
                       "--set", "5,9,23", "-r", 10)
        _, b = run_cli(capsys, "--seed", 7, "sample", "--tree", small_tree_file,
                       "--set", "5,9,23", "-r", 10)
        assert a == b

    def test_with_replacement_is_gone(self, capsys, small_tree_file):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--tree", str(small_tree_file), "--set", "5,9",
                  "--with-replacement"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_without_replacement_draws_each_element_once(self, capsys, small_tree_file):
        code, out = run_cli(capsys, "sample", "--tree", small_tree_file, "--set", "5,9,23",
                            "-r", 3, "--threshold", 0, "--without-replacement")
        assert code == 0
        assert sorted(l for l in out.splitlines() if not l.startswith("#")) == ["23", "5", "9"]

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


    @pytest.mark.parametrize("members", [[5, 9, 23], range(1000)])
    def test_hi_prints_da_elements_at_any_density(self, capsys, small_tree_file, members):
        tree = BloomSampleTree.load(small_tree_file)
        query = build_filter(tree.family, 1000, members)
        dense = query.popcount() > query.m / 2
        assert dense == (len(members) == 1000)
        expect = [str(x) for x in baselines.da_reconstruct(1000, query)[0]]
        args = ["reconstruct", "--tree", small_tree_file,
                "--set", ",".join(map(str, members)), "--threshold", 0]
        for algo in ("hi", "da"):
            code, out = run_cli(capsys, *args, "--algo", algo)
            assert code == 0
            assert [l for l in out.splitlines() if not l.startswith("#")] == expect

    def test_hi_mode_is_gone(self, capsys, small_tree_file):
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--tree", str(small_tree_file), "--set", "5,9",
                  "--algo", "hi", "--hi-mode", "set"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


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
                            "--set", ",".join(str(x) for x in members))
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

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("family", ["simple", "murmur3", "md5"])
    def test_equals_seeded_sample_calls(self, capsys, tmp_path, family, threshold):
        # T single samples from the same seed give the counts of the one batch
        tree_file = tmp_path / "t.bstr"
        assert main(["build", "-M", "3000", "--force-m", "600", "--cost-ratio", "8",
                     "--family", family, "--out", str(tree_file)]) == 0
        members = [7, *range(300, 330), 1234, 2047, 2999]
        code, out = run_cli(capsys, "--seed", 11, "chi2", "--tree", tree_file,
                            "--set", ",".join(map(str, members)), "-T", 300,
                            "--threshold", threshold)
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        tree = BloomSampleTree.load(tree_file)
        query = build_filter(tree.family, 3000, members)
        positives, _ = baselines.da_reconstruct(3000, query)
        rng = np.random.default_rng(11)
        drawn = [tree.sample(query, threshold, rng).element for _ in range(300)]
        counts = np.array([drawn.count(int(x)) for x in positives])
        assert counts.sum() > 0
        report = chi_squared_uniformity(counts)
        assert lines["q"] == f"{report.q_statistic:.6g}"
        assert lines["p_value"] == f"{report.p_value:.6g}"

    def test_single_positive_rejected(self, small_tree_file):
        with pytest.raises(SystemExit):
            main(["chi2", "--tree", str(small_tree_file), "--set", "5", "-T", "10"])

    @pytest.mark.parametrize("members", ["5,9", "5,5,5,9", "9, 5,9,5"])
    def test_auto_rounds_count_distinct_elements(self, capsys, small_tree_file, members):
        code, out = run_cli(capsys, "chi2", "--tree", small_tree_file, "--set", members,
                            "--threshold", 0)
        assert code == 0
        assert out.splitlines()[0] == "T 260"

    def test_auto_130n_is_gone(self, capsys, small_tree_file):
        with pytest.raises(SystemExit) as exc:
            main(["chi2", "--tree", str(small_tree_file), "--set", "5,9", "--auto-130n"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


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


class TestBadQueryFile:
    @pytest.mark.parametrize("damage", ["header", "words", "append"])
    def test_sample_exits_with_one_line_error(self, capsys, small_tree_file, tmp_path, damage):
        tree = BloomSampleTree.load(small_tree_file)
        data = build_filter(tree.family, 1000, [5]).to_bytes()
        data = {"header": data[:8], "words": data[:-1], "append": data + b"\0"}[damage]
        query = tmp_path / "q.bflt"
        query.write_bytes(data)
        code = main(["sample", "--tree", str(small_tree_file), "--query", str(query)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1


def test_query_file_cut_inside_its_words(capsys, small_tree_file, tmp_path):
    tree = BloomSampleTree.load(small_tree_file)
    data = build_filter(tree.family, 1000, [5]).to_bytes()
    query = tmp_path / "q.bflt"
    query.write_bytes(data[:len(data) - 8 * len(tree.nodes[(0, 0)].words) // 2])
    code = main(["reconstruct", "--tree", str(small_tree_file), "--query", str(query)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: truncated Bloom filter block\n"


def test_tree_file_cut_inside_its_words(capsys, small_tree_file):
    data = small_tree_file.read_bytes()
    n_words = len(BloomSampleTree.load(small_tree_file).nodes[(0, 0)].words)
    small_tree_file.write_bytes(data[:len(data) - 8 * n_words // 2])
    code = main(["sample", "--tree", str(small_tree_file), "--set", "5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: truncated tree file\n"


def test_build_rejects_namespace_the_linear_family_cannot_hash(capsys, tmp_path):
    code = main(["build", "-M", str(10**13 + 10**6), "--force-m", "10000019",
                 "--family", "simple", "--out", str(tmp_path / "t.bstr")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["sample", "reconstruct"])
def test_nan_threshold_exits_with_one_line_error(capsys, small_tree_file, command):
    code = main([command, "--tree", str(small_tree_file), "--set", "5,9",
                 "--threshold", "nan"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestVerifyOnLoad:
    @staticmethod
    def _flip_root_bit(path):
        tree = BloomSampleTree.load(path)
        data = bytearray(path.read_bytes())
        data[len(data) - 8 * len(tree.nodes[(0, 0)].words) * tree.node_count] ^= 1
        path.write_bytes(bytes(data))

    @pytest.mark.parametrize("command", ["sample", "reconstruct", "chi2"])
    def test_flipped_bit_fails_with_one_line_error(self, capsys, small_tree_file, command):
        argv = [command, "--tree", str(small_tree_file), "--set", "5,9"]
        assert main(argv) == 0
        capsys.readouterr()
        self._flip_root_bit(small_tree_file)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        err = captured.err
        assert err.startswith("error: ") and "(0, 0)" in err and err.count("\n") == 1


def test_negative_threshold_samples_as_threshold_zero(capsys, tmp_path):
    plan = plan_from_accuracy(0.9, 200, 40_000, 3, 240.0)
    fam = make_family(FamilyKind.SIMPLE_LINEAR, 3, plan.m, seed=2)
    tree_file = tmp_path / "t.bstr"
    BloomSampleTree.build_full(plan, fam).save(tree_file)
    members = np.random.default_rng(5).choice(40_000, 3000, replace=False)[:150]
    argv = ["sample", "--tree", tree_file, "--set", ",".join(map(str, members)), "-r", 300]
    code, below = run_cli(capsys, *argv, "--threshold", -1)
    assert code == 0
    assert below == run_cli(capsys, *argv, "--threshold", 0)[1]


def test_chi2_on_a_saturated_query_file_asks_for_rounds(capsys, small_tree_file, tmp_path):
    tree = BloomSampleTree.load(small_tree_file)
    saturated = BloomFilter(tree.family, 1000, words=np.full(64, 2**64 - 1, dtype=np.uint64))
    assert saturated.popcount() == saturated.m == 4096
    query = tmp_path / "q.bflt"
    saturated.save(query)
    code = main(["chi2", "--tree", str(small_tree_file), "--query", str(query)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "saturated" in captured.err and "-T" in captured.err
    assert main(["chi2", "--tree", str(small_tree_file), "--query", str(query),
                 "-T", "50"]) == 0


def test_chi2_on_a_query_file_takes_130_times_its_estimated_population(capsys, tmp_path):
    tree_file, query_file = tmp_path / "t.bstr", tmp_path / "q.bflt"
    assert main(["build", "-M", "20000", "--force-m", "1000", "--family", "murmur3",
                 "--out", str(tree_file)]) == 0
    capsys.readouterr()
    tree = BloomSampleTree.load(tree_file)
    query = build_filter(tree.family, 20_000, range(0, 20_000, 500))
    query.save(query_file)
    code, out = run_cli(capsys, "chi2", "--tree", tree_file, "--query", query_file)
    assert code == 0
    T = int(out.splitlines()[0].removeprefix("T "))
    assert T == 130 * max(2, round(population_estimate(query))) == 130 * 38


class TestPlanRejections:
    @pytest.mark.parametrize("flags", [("-k", 0), ("-k", 2**16), ("--cost-ratio", "inf"),
                                       ("--cost-ratio", "nan"), ("--force-m", 1000, "-k", 0)])
    def test_one_line_error(self, capsys, flags):
        code = main([str(a) for a in ("plan", "-M", 100000) + flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1


class TestPlanCostRatio:
    def test_default_ratio_printed(self, capsys):
        code, out = run_cli(capsys, "plan", "-M", 10**6)
        assert code == 0
        assert "cost_ratio 240.0" in out.splitlines()

    @pytest.mark.parametrize("ratio", [1e307, sys.float_info.max])
    def test_huge_finite_ratio_plans(self, capsys, ratio):
        code, out = run_cli(capsys, "plan", "-M", 100000, "--cost-ratio", repr(ratio))
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert (lines["depth"], lines["leaf_size"]) == ("0", "100000")

    def test_calibrate_times_the_planned_m(self, capsys, monkeypatch):
        timed = []

        def fake_calibration(m, k, rng=None):
            timed.append((m, k))
            return 1000.0

        monkeypatch.setattr("bloomsampletree.cli.calibrate_cost_ratio", fake_calibration)
        code, out = run_cli(capsys, "plan", "-M", 10**7, "--n-ref", 10**4, "--calibrate")
        assert code == 0
        assert timed == [(608694, 3)]
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert lines["m"] == "608694"
        assert lines["depth"] == "10"
        assert lines["cost_ratio"] == "1000.0"

    def test_calibrated_ratio_is_stored_in_the_tree(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("bloomsampletree.cli.calibrate_cost_ratio",
                            lambda m, k, rng=None: 8.0)
        path = tmp_path / "t.bstr"
        code, _ = run_cli(capsys, "build", "-M", 1000, "--force-m", 4096, "--calibrate",
                          "--out", path)
        assert code == 0
        plan = BloomSampleTree.load(path).plan
        assert (plan.m, plan.cost_ratio, plan.accuracy_target) == (4096, 8.0, 1.0)

    def test_m_hint_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "-M", "100000", "--calibrate", "--m-hint", "5"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["families = foo", "algorithms = bst, nope",
                                  "shapes = blobs", "trials = 0",
                                  "shapes = uniform, clustered\np = 100"])
def test_bench_bad_grid_exits_with_one_line_error(capsys, tmp_path, line):
    config = tmp_path / "bad.cfg"
    config.write_text(f"version = 1\nM = 2000\nn = 50\ntrials = 3\n{line}\n")
    out_csv = tmp_path / "out.csv"
    code = main(["bench", "--config", str(config), "--out", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_csv.exists()


def test_readme_quick_start_parses():
    # every documented command line must parse; nothing is run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start (CLI)", 1)[1].split("```sh\n", 1)[1]
    lines = [l for l in block.split("```", 1)[0].splitlines()
             if l.startswith("bloomsampletree ")]
    parser = build_parser()
    commands = {parser.parse_args(shlex.split(l)[1:]).command for l in lines}
    assert commands == {"plan", "build", "sample", "reconstruct", "chi2", "bench"}
