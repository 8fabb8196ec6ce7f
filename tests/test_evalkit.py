"""Tests for query-set generators, chi-squared testing, and sweeps."""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from bloomsampletree.baselines import da_reconstruct, da_sample
from bloomsampletree.bloom import build_filter
from bloomsampletree.bst import BloomSampleTree, PlanError
from bloomsampletree.estimate import fp_probability
from bloomsampletree.evalkit import (
    CSV_HEADER,
    ChiSquaredReport,
    ClusteredSampler,
    SweepConfig,
    calibrate_cost_ratio,
    chi_squared_uniformity,
    gen_clustered,
    gen_uniform,
    measured_accuracy,
    regularized_gamma_q,
    run_sweep,
    write_csv,
)
from bloomsampletree.hashing import FamilyKind, make_family


class TestGenUniform:
    def test_full_namespace(self):
        assert np.array_equal(gen_uniform(50, 50, np.random.default_rng(0)),
                              np.arange(50))

    def test_empty(self):
        assert gen_uniform(100, 0, np.random.default_rng(0)).size == 0

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            gen_uniform(10, 11, np.random.default_rng(0))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n = -1"):
            gen_uniform(10, -1, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [10, 90])  # the rejection and the permutation draw
    def test_integer_seed_as_rng(self, n):
        assert np.array_equal(gen_uniform(100, n, 4), gen_uniform(100, n, np.random.default_rng(4)))

    def test_distinct_and_in_range(self):
        xs = gen_uniform(10**6, 5000, np.random.default_rng(1))
        assert len(np.unique(xs)) == 5000
        assert xs.min() >= 0 and xs.max() < 10**6

    def test_per_element_frequency(self):
        # 10^4 draws of n=1 from M=100; each element within 5 sigma of 1/100
        rng = np.random.default_rng(2)
        counts = np.zeros(100, dtype=int)
        for _ in range(10**4):
            counts[gen_uniform(100, 1, rng)[0]] += 1
        p = 1 / 100
        sigma = math.sqrt(p * (1 - p) * 10**4)
        assert np.all(np.abs(counts - 100) < 5 * sigma)


class TestGenClustered:
    def test_full_namespace(self):
        xs = gen_clustered(40, 40, 10.0, np.random.default_rng(3))
        assert sorted(xs.tolist()) == list(range(40))

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            gen_clustered(10, 11, 10.0, np.random.default_rng(0))

    def test_integer_seed_as_rng(self):
        assert np.array_equal(gen_clustered(500, 40, 10.0, 6),
                              gen_clustered(500, 40, 10.0, np.random.default_rng(6)))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n = -1"):
            gen_clustered(10, -1, 10.0, np.random.default_rng(0))

    def test_bad_percent_rejected(self):
        for p in (-1.0, 100.0, 250.0):
            with pytest.raises(ValueError):
                ClusteredSampler(100, p, np.random.default_rng(0))

    def test_exhaustion_raises(self):
        s = ClusteredSampler(3, 10.0, np.random.default_rng(4))
        for _ in range(3):
            s.draw()
        with pytest.raises(RuntimeError):
            s.draw()

    @pytest.mark.parametrize("p", [0.0, 10.0, 50.0])
    def test_pdf_invariants_after_every_draw(self, p):
        # mass stays non-negative, totals 1, and leaves the drawn element
        s = ClusteredSampler(200, p, np.random.default_rng(5))
        drawn = []
        for _ in range(150):
            drawn.append(s.draw())
            pdf = s.pdf()
            assert pdf.min() > -1e-12
            assert abs(pdf.sum() - 1.0) < 1e-9
            assert pdf[drawn[-1]] == pytest.approx(0.0, abs=1e-15)
        assert len(set(drawn)) == 150

    def test_mean_gap_smaller_than_uniform(self):
        # locality: sorted clustered samples sit closer together, 3 sigma
        M, n, trials = 10**5, 10**3, 100
        rng = np.random.default_rng(6)
        gap_c, gap_u = [], []
        for _ in range(trials):
            c = np.sort(gen_clustered(M, n, 10.0, rng))
            u = np.sort(gen_uniform(M, n, rng))
            gap_c.append(np.diff(c).mean())
            gap_u.append(np.diff(u).mean())
        gap_c, gap_u = np.array(gap_c), np.array(gap_u)
        sigma = math.sqrt(gap_c.var(ddof=1) / trials + gap_u.var(ddof=1) / trials)
        assert gap_u.mean() - gap_c.mean() > 3 * sigma


class TestChiSquared:
    def test_uniform_observations(self):
        rep = chi_squared_uniformity([10, 10, 10, 10])
        assert rep.q_statistic == 0.0
        assert rep.p_value == 1.0
        assert rep.degrees_of_freedom == 3
        assert not rep.rejected

    def test_frozen_two_cell_case(self):
        rep = chi_squared_uniformity([12, 8])
        assert rep.q_statistic == pytest.approx(0.8)
        assert rep.p_value == pytest.approx(0.37109337, abs=1e-7)

    def test_frozen_rejection_case(self):
        rep = chi_squared_uniformity([20, 0])
        assert rep.q_statistic == pytest.approx(20.0)
        assert rep.p_value == pytest.approx(7.7442e-6, rel=1e-3)
        assert rep.rejected

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            chi_squared_uniformity([5])

    def test_no_observations(self):
        with pytest.raises(ValueError):
            chi_squared_uniformity([0, 0, 0])

    def test_matches_numerical_integration(self):
        # upper tail within 1e-6 of direct density integration, df <= 10
        for df in range(1, 11):
            for q in (0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 50.0):
                tail, _ = integrate.quad(lambda t: stats.chi2.pdf(t, df), q, np.inf)
                assert abs(regularized_gamma_q(df / 2, q / 2) - tail) < 1e-6

    def test_matches_scipy_broadly(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            df = int(rng.integers(1, 200))
            q = float(rng.uniform(0, 300))
            assert regularized_gamma_q(df / 2, q / 2) == pytest.approx(
                stats.chi2.sf(q, df), abs=1e-10)


class TestMeasuredAccuracy:
    def test_all_members(self):
        assert measured_accuracy([1, 2, 3], {1, 2, 3, 4}) == 1.0

    def test_no_members(self):
        assert measured_accuracy([7, 8], {1, 2}) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            measured_accuracy([], {1})

    def test_da_sample_matches_prediction(self):
        # uniform sampling over positives lands on a member with
        # probability n / (n + FP count); 3 sigma Monte Carlo
        M, n = 10**5, 10**3
        fam = make_family(FamilyKind.MURMUR3, 3, 10 * n, seed=8)
        rng = np.random.default_rng(8)
        members = gen_uniform(M, n, rng)
        q = build_filter(fam, M, members)
        pos, _ = da_reconstruct(M, q)
        fp = fp_probability(10 * n, 3, n)
        predicted = n / (n + (M - n) * fp)
        trials = 800
        samples = [da_sample(M, q, rng).element for _ in range(trials)]
        acc = measured_accuracy(samples, set(members.tolist()))
        sigma_draw = math.sqrt(predicted * (1 - predicted) / trials)
        sigma_fp = (n / len(pos) ** 2) * math.sqrt((M - n) * fp * (1 - fp))
        assert abs(acc - predicted) < 3 * math.hypot(sigma_draw, sigma_fp)


class TestCalibrateCostRatio:
    def test_positive_and_finite(self):
        r = calibrate_cost_ratio(10**4, 3, trials=20, rng=np.random.default_rng(9))
        assert math.isfinite(r) and r > 0

    def test_grows_with_m(self):
        rng = np.random.default_rng(10)
        small = calibrate_cost_ratio(10**4, 3, trials=30, rng=rng)
        large = calibrate_cost_ratio(10**6, 3, trials=30, rng=rng)
        assert large > small

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            calibrate_cost_ratio(10**4, 3, trials=0)

    def test_integer_seed_as_rng(self):
        assert calibrate_cost_ratio(10**4, 3, trials=5, rng=9) > 0


class TestSweepConfig:
    GOOD = """
version = 1
algorithms = bst, da
M = 100000
n = 1000
accuracy = 0.8, 0.9
families = simple
shapes = uniform, clustered
k = 3
trials = 7
seed = 42
"""

    def test_parse(self):
        cfg = SweepConfig.parse(self.GOOD)
        assert cfg.algorithms == ["bst", "da"]
        assert cfg.namespace_sizes == [100000]
        assert cfg.accuracies == [0.8, 0.9]
        assert cfg.shapes == ["uniform", "clustered"]
        assert cfg.trials == 7
        assert cfg.master_seed == 42

    def test_version_required(self):
        with pytest.raises(ValueError):
            SweepConfig.parse("algorithms = da\n")

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig.parse("version = 9\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig.parse("version = 1\nbogus = 3\n")

    def test_comments_and_blanks_ignored(self):
        cfg = SweepConfig.parse("version = 1\n# a comment\n\nk = 4\n")
        assert cfg.k == 4

    def test_every_key_in_either_form(self):
        cfg = SweepConfig.parse("""
version 1
algorithms = bst, hi
M 5000, 20000
n = 10,20
accuracy 0.5
families = simple
shapes clustered
k = 5
cost_ratio 12.5
threshold = 0.25
trials 9
seed = 77
p 3.5
""")
        assert cfg == SweepConfig(algorithms=["bst", "hi"], namespace_sizes=[5000, 20000],
                                  set_sizes=[10, 20], accuracies=[0.5], families=["simple"],
                                  shapes=["clustered"], k=5, cost_ratio=12.5,
                                  threshold=0.25, trials=9, master_seed=77,
                                  clustering_percent=3.5)
        defaults = SweepConfig()
        assert all(getattr(cfg, f) != getattr(defaults, f)
                   for f in SweepConfig.__dataclass_fields__ if f != "families")

    def test_readme_block_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("A sweep config is a versioned key/value file:", 1)[1]
        block = block.split("```\n", 2)[1]
        keys = {line.replace("=", " ").split()[0] for line in block.splitlines()
                if line.split("#", 1)[0].strip()}
        assert keys == set(SweepConfig.KEYS) | {"version"}
        cfg = SweepConfig.parse(block)
        assert set(cfg.algorithms) <= {"bst", "da", "hi"}


class TestRunSweep:
    def _config(self, **kw):
        cfg = SweepConfig(algorithms=["bst", "da"], namespace_sizes=[10**4],
                          set_sizes=[200], accuracies=[0.9], families=["simple"],
                          shapes=["uniform"], trials=5, master_seed=123)
        for key, val in kw.items():
            setattr(cfg, key, val)
        return cfg

    def test_da_counter_contract(self):
        records = run_sweep(self._config(algorithms=["da"]))
        assert len(records) == 1
        rec = records[0]
        assert rec.membership == 10**4
        assert rec.intersections == 0

    def test_bst_cheaper_than_scan(self):
        records = run_sweep(self._config(algorithms=["bst"]))
        assert records[0].membership < 10**4

    def test_deterministic(self):
        a = run_sweep(self._config())
        b = run_sweep(self._config())
        for ra, rb in zip(a, b):
            assert (ra.algorithm, ra.intersections, ra.membership,
                    ra.nodes) == (rb.algorithm, rb.intersections, rb.membership,
                                  rb.nodes)

    def test_hi_on_the_simple_family_writes_a_record(self, tmp_path):
        records = run_sweep(self._config(algorithms=["hi"]))
        assert len(records) == 1
        assert records[0].membership > 0 and records[0].intersections == 0
        out = tmp_path / "sweep.csv"
        write_csv(records, out)
        assert out.read_text().splitlines()[1].startswith("hi,10000,200,0.9,simple,uniform,")

    # Every field but time_ns of each record of two fixed grids.  A change to
    # a cell's draws, its dispatch or its averages shows here.
    PINNED_GRIDS = [
        SweepConfig(algorithms=["bst", "da", "hi"], namespace_sizes=[100000],
                    set_sizes=[100, 300], accuracies=[0.9], families=["simple"],
                    shapes=["uniform", "clustered"], trials=5, master_seed=7),
        SweepConfig(algorithms=["bst", "da"], namespace_sizes=[100000], set_sizes=[150],
                    accuracies=[0.8], families=["murmur3", "md5"],
                    shapes=["uniform", "clustered"], trials=5, master_seed=7),
    ]
    PINNED_ROWS = [
        "bst,100000,100,0.9,simple,uniform,15.4,1563.0,8.2,5",
        "bst,100000,100,0.9,simple,clustered,13.0,1563.0,7.0,5",
        "bst,100000,300,0.9,simple,uniform,31.0,0.0,15.0,5",
        "bst,100000,300,0.9,simple,clustered,13.0,1563.0,7.0,5",
        "da,100000,100,0.9,simple,uniform,0.0,100000.0,0.0,5",
        "da,100000,100,0.9,simple,clustered,0.0,100000.0,0.0,5",
        "da,100000,300,0.9,simple,uniform,0.0,100000.0,0.0,5",
        "da,100000,300,0.9,simple,clustered,0.0,100000.0,0.0,5",
        "hi,100000,100,0.9,simple,uniform,0.0,4813.0,0.0,5",
        "hi,100000,100,0.9,simple,clustered,0.0,4781.0,0.0,5",
        "hi,100000,300,0.9,simple,uniform,0.0,7025.0,0.0,5",
        "hi,100000,300,0.9,simple,clustered,0.0,7035.0,0.0,5",
        "bst,100000,150,0.8,murmur3,uniform,13.0,1875.6,7.2,5",
        "bst,100000,150,0.8,murmur3,clustered,14.6,2188.2,8.2,5",
        "bst,100000,150,0.8,md5,uniform,13.0,1556.6,7.0,5",
        "bst,100000,150,0.8,md5,clustered,17.8,2188.2,9.8,5",
        "da,100000,150,0.8,murmur3,uniform,0.0,100000.0,0.0,5",
        "da,100000,150,0.8,murmur3,clustered,0.0,100000.0,0.0,5",
        "da,100000,150,0.8,md5,uniform,0.0,100000.0,0.0,5",
        "da,100000,150,0.8,md5,clustered,0.0,100000.0,0.0,5",
    ]

    def test_records_match_the_pinned_grid(self):
        rows = []
        for cfg in self.PINNED_GRIDS:
            for rec in run_sweep(cfg):
                fields = dataclasses.asdict(rec)
                del fields["time_ns"]
                rows.append(",".join(map(str, fields.values())))
        assert rows == self.PINNED_ROWS

    def test_csv_output(self, tmp_path):
        records = run_sweep(self._config(algorithms=["da"]))
        out = tmp_path / "sweep.csv"
        write_csv(records, out)
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == ("algorithm,M,n,accuracy,family,shape,"
                            "intersections,membership,nodes,time_ns,trials")
        assert len(lines) == 2
        assert lines[1].startswith("da,10000,200,0.9,simple,uniform,")


class TestRunSweepChecksItsGrid:
    """A bad name or trial count fails before the first cell builds a tree."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        build_full = BloomSampleTree.build_full

        def spy(plan, family):
            built.append(plan)
            return build_full(plan, family)

        monkeypatch.setattr(BloomSampleTree, "build_full", spy)
        return built

    @pytest.mark.parametrize("key, value, bad", [
        ("algorithms", ["bst", "nope"], "nope"),
        ("families", ["simple", "foo"], "foo"),
        ("shapes", ["uniform", "blobs"], "blobs"),
        ("trials", 0, "trials"),
        ("clustering_percent", 100.0, "percentage"),
        ("threshold", math.nan, "NaN"),
    ])
    def test_rejected_before_any_build(self, builds, key, value, bad):
        cfg = SweepConfig(algorithms=["bst"], namespace_sizes=[10**4], set_sizes=[200],
                          shapes=["uniform", "clustered"], trials=2, master_seed=123)
        setattr(cfg, key, value)
        with pytest.raises(ValueError, match=bad):
            run_sweep(cfg)
        assert builds == []

    @pytest.mark.parametrize("family", ["murmur3", "md5"])
    def test_hi_needs_the_simple_family(self, builds, family):
        cfg = SweepConfig(algorithms=["bst", "hi"], families=["simple", family],
                          namespace_sizes=[20000], set_sizes=[100], trials=5)
        with pytest.raises(ValueError, match=f"'hi'.*{family}"):
            run_sweep(cfg)
        assert builds == []

    def test_unplannable_cell_rejected_before_any_build(self, builds):
        # n = 50 plans and comes first; n = 5000 does not fit M = 2000
        cfg = SweepConfig(algorithms=["bst"], namespace_sizes=[2000], set_sizes=[50, 5000],
                          trials=2, master_seed=123)
        with pytest.raises(PlanError, match="n_ref"):
            run_sweep(cfg)
        assert builds == []

    def test_good_grid_builds_once_per_tree(self, builds):
        cfg = SweepConfig(algorithms=["bst"], namespace_sizes=[10**4], set_sizes=[200],
                          shapes=["uniform", "clustered"], trials=2, master_seed=123)
        assert len(run_sweep(cfg)) == 2
        assert len(builds) == 1
