import math
import re
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc

from etfspectra import frames as fr
from etfspectra import harness as hs
from etfspectra import spectra as sp
from etfspectra.functionals import FunctionalSpec
from etfspectra.manova import ManovaDistribution, ManovaParams
from etfspectra.rng import derive_rng


def synthetic_records(ns, b, C, statistic="ks"):
    """Records whose KS variance is exactly C * n^(-2b)."""
    recs = []
    for n in ns:
        s = math.sqrt(C * n ** (-2 * b) / 2)  # two symmetric values: var = 2 s^2 / ...
        vals = (0.1 - s, 0.1 + s)
        recs.append(hs.ExperimentRecord("synthetic", n, n // 2, n // 3, 2 / 3, 0.5,
                                        2, statistic, 0, values=vals))
    return recs


class TestFits:
    def test_noiseless_power_law_recovered(self):
        recs = synthetic_records([100, 200, 400, 800, 1600], b=0.93, C=3.7)
        fit = hs.fit_power_law(recs, "test1")
        assert fit.slope == pytest.approx(0.93, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert all(abs(r) < 1e-10 for r in fit.residuals)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            hs.fit_power_law(synthetic_records([100, 200], 0.9, 1.0), "test1")

    @pytest.mark.parametrize("values,shown", [((0.1, 0.1), "0.0"), ((0.1, math.nan), "nan")])
    def test_degenerate_variance_names_the_rung(self, values, shown):
        recs = synthetic_records([100, 200, 400], 0.9, 1.0)
        recs[1] = replace(recs[1], values=values)
        with pytest.raises(ValueError, match=f"the synthetic variance at n=200 is {shown};"):
            hs.fit_power_law(recs, "test1")


def ratio_ladder(ns, b_frame, b_base, a, eps):
    """Frame and baseline records whose values are mean * (1 -+ eps) with
    mean = C n^-b (log n)^-a on each side, so every rung has a finite weight."""
    sides = []
    for b, C in ((b_frame, 2.0), (b_base, 0.3)):
        recs = []
        for n, e in zip(ns, eps):
            mean = C * n ** (-b) * math.log(n) ** (-a)
            recs.append(hs.ExperimentRecord("synthetic", n, n // 2, n // 3, 2 / 3, 0.5,
                                            2, "psi", 0, values=(mean * (1 - e), mean * (1 + e))))
        sides.append(recs)
    return sides


class TestLogRatioFit:
    NS = [100, 200, 400, 800]

    def test_noiseless_returns_exponent_difference(self):
        # a shared (log n)^-0.9 factor cancels; unequal eps give unequal weights
        frame, base = ratio_ladder(self.NS, 1.1, 1.8, 0.9, [0.01, 0.03, 0.02, 0.05])
        fit, p = hs.fit_log_ratio(frame, base)
        assert fit.slope == pytest.approx(1.8 - 1.1, abs=1e-9)
        assert fit.n_points == 4
        assert sum(e * e for e in fit.residuals) < 1e-18
        assert p < 1e-12

    def test_weighted_slope_matches_polyfit(self):
        rng = np.random.default_rng(3)
        ns = [103, 211, 431, 863, 1031]
        frame, base = ratio_ladder(ns, 1.0, 1.0, 0.0, [0.1] * 5)
        frame = [replace(r, trials=5, values=tuple(rng.gamma(2.0, 1.0 / r.n, 5)))
                 for r in frame]
        base = [replace(r, trials=7, values=tuple(rng.gamma(3.0, r.n ** -1.2, 7)))
                for r in base]
        fit, p = hs.fit_log_ratio(frame, base)
        x = np.log(ns)
        y = np.log([f.mean / b.mean for f, b in zip(frame, base)])
        w = 1.0 / sum(np.array([r.variance / (r.trials * r.mean ** 2) for r in side])
                      for side in (frame, base))
        coef, cov = np.polyfit(x, y, 1, w=np.sqrt(w), cov="unscaled")
        assert fit.slope == pytest.approx(coef[0], abs=1e-12)
        assert fit.intercept == pytest.approx(coef[1], abs=1e-12)
        assert fit.stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)
        chi2 = float(np.sum(w * (y - np.polyval(coef, x)) ** 2))
        assert sum(e * e for e in fit.residuals) == pytest.approx(chi2, rel=1e-10)
        assert p == pytest.approx(2 * stats.norm.sf(abs(coef[0]) / math.sqrt(cov[0, 0])),
                                  rel=1e-12)

    @pytest.mark.parametrize("side,mean,why", [
        ("frame", 0.0, "the frame mean at n=200 is 0.0"),
        ("baseline", math.inf, "the baseline mean at n=200 is inf"),
        ("both", 1e-3, "frame and baseline variances at n=200 are both 0"),
    ])
    def test_degenerate_rung_raises(self, side, mean, why):
        frame, base = ratio_ladder(self.NS, 1.1, 1.8, 0.9, [0.01] * 4)
        for name, recs in (("frame", frame), ("baseline", base)):
            if side in (name, "both"):
                recs[1] = hs.ExperimentRecord("synthetic", 200, 100, 66, 2 / 3, 0.5, 2,
                                              "psi", 0, values=(mean, mean))
        with pytest.raises(ValueError, match=why):
            hs.fit_log_ratio(frame, base)

    def test_mismatched_rungs_raise(self):
        frame, base = ratio_ladder(self.NS, 1.1, 1.8, 0.9, [0.01] * 4)
        with pytest.raises(ValueError, match="rungs differ"):
            hs.fit_log_ratio(frame, base[::-1])

    def test_needs_three_points(self):
        frame, base = ratio_ladder(self.NS[:2], 1.1, 1.8, 0.9, [0.01] * 2)
        with pytest.raises(ValueError):
            hs.fit_log_ratio(frame, base)


class TestTTest:
    def _fit(self, slope, stderr, n=6):
        return hs.FitResult(slope, 0.0, stderr, 1.0, (), n)

    def test_identical_fits(self):
        f = self._fit(0.9, 0.01)
        assert hs.t_test_equal_slopes(f, f) == pytest.approx(1.0)

    def test_zero_statistic(self):
        assert hs.t_test_equal_slopes(self._fit(0.9, 0.02), self._fit(0.9, 0.03)) == 1.0

    def test_against_incomplete_beta_oracle(self):
        # 3-point fits: dof = 3 + 3 - 4 = 2; t-table: P(|T| > 4.3027) = 0.05
        fa = self._fit(1.0, 0.1, n=3)
        fb = self._fit(1.0 - 4.3027 * math.hypot(0.1, 0.1), 0.1, n=3)
        t = (fa.slope - fb.slope) / math.hypot(0.1, 0.1)
        p = hs.t_test_equal_slopes(fa, fb)
        oracle = betainc(1.0, 0.5, 2 / (2 + t * t))
        assert p == pytest.approx(oracle, abs=1e-12)
        assert p == pytest.approx(0.05, abs=1e-3)

    def test_dof_guard(self):
        with pytest.raises(ValueError):
            hs.t_test_equal_slopes(self._fit(1, 0.1, n=1), self._fit(1, 0.1, n=2))

    def test_separates_distant_slopes(self):
        p = hs.t_test_equal_slopes(self._fit(0.93, 0.01), self._fit(0.47, 0.01))
        assert p < 1e-6

    @pytest.mark.parametrize("dof", [1, 2, 5, 30])
    @pytest.mark.parametrize("t", [0.0, 0.7, 4.3, 40.0])
    def test_equals_scipy_stats_t_tail_exactly(self, t, dof):
        # stderrs 1 and 0 make the statistic exactly t; n_a + n_b - 4 = dof
        fa, fb = self._fit(t, 1.0, n=dof + 2), self._fit(0.0, 0.0, n=2)
        assert hs.t_test_equal_slopes(fa, fb) == 2.0 * stats.t.sf(abs(t), dof)


class TestBatches:
    def test_trials_guard(self):
        with pytest.raises(ValueError):
            hs.run_ks_batch("dss", (103,), 0.8, 0.5, 1, seed=0)
        with pytest.raises(ValueError, match="trials >= 2"):
            hs.run_ladder("dss", (103,), 0.8, 0.5, 1, seed=0,
                          functional=FunctionalSpec("shannon", alpha=1.0))

    @pytest.mark.filterwarnings("error")
    def test_ks_finite_at_beta_one(self):
        records, _ = hs.run_ks_batch("manova_ensemble", (64, 128), 1.0, 0.5, 3, seed=0)
        assert all(0.0 < v < 1.0 for r in records for v in r.values)

    def test_skip_notice_for_bad_size(self):
        records, skipped = hs.run_ks_batch("dss", (100, 103), 0.8, 0.5, 4, seed=0)
        assert len(records) == 1
        assert skipped and skipped[0][0] == 100

    def test_realized_ratios_recorded(self):
        records, _ = hs.run_ks_batch("dss", (103,), 0.8, 0.5, 4, seed=0)
        r = records[0]
        assert (r.n, r.m, r.k) == (103, 51, 41)
        assert r.beta == pytest.approx(41 / 51)
        assert r.gamma == pytest.approx(51 / 103)

    def test_baseline_ks_decreases_along_ladder(self):
        records, _ = hs.run_ks_batch("manova_ensemble", (64, 128, 256, 512),
                                     0.8, 0.5, 48, seed=1)
        means = [r.mean for r in records]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_deterministic_given_seed(self):
        a, _ = hs.run_ks_batch("manova_ensemble", (64,), 0.8, 0.5, 6, seed=3)
        b, _ = hs.run_ks_batch("manova_ensemble", (64,), 0.8, 0.5, 6, seed=3)
        assert a[0].values == b[0].values

    def test_trials_run_on_the_calling_thread(self, monkeypatch):
        # the retired ETFSPECTRA_THREADS variable starts no pool
        monkeypatch.setenv("ETFSPECTRA_THREADS", "2")
        threads = []

        def statistic(spec):
            threads.append(threading.current_thread())

        sp.run_trials(fr.construct_dss(103), 8, statistic, seed=5, k=41)
        sp.run_trials((103, 51, "complex"), 8, statistic, seed=5, k=41)
        assert threads == [threading.main_thread()] * 16

    def test_functional_batch_shrinks_with_n(self):
        spec = FunctionalSpec("shannon", alpha=1.0)
        records, baseline, _ = hs.run_ladder("manova_ensemble", (64, 256), 0.8, 0.5, 48,
                                             seed=2, functional=spec)
        assert records[0].mean > records[1].mean
        assert baseline is records  # an ensemble family is its own baseline

    def test_ladder_baseline_runs_at_frame_dims(self):
        # DSS(863) realizes (863, 431, 345); resolve_dims("manova", ...) rounds
        # m = 431.5 to 432, which is where a standalone ensemble batch runs
        records, baseline, _ = hs.run_ladder("dss", (863,), 0.8, 0.5, 2, seed=0)
        assert hs.resolve_dims("manova", 863, 0.8, 0.5) == (863, 432, 346)
        assert [(r.frame_family, r.n, r.m, r.k) for r in baseline] == [
            ("manova_ensemble", 863, 431, 345)]
        assert (records[0].n, records[0].m, records[0].k) == (863, 431, 345)
        _, baseline, _ = hs.run_ladder("real_paley", (14,), 0.8, 0.5, 2, seed=0)
        assert [(r.frame_family, r.n, r.m, r.k) for r in baseline] == [
            ("manova_ensemble_real", 14, 7, 6)]

    def test_sparse_frame_control_does_not_converge(self):
        # m columns of the identity repeated: a fraction of every subset
        # Gram's spectrum is exactly zero, so the KS distance to the MANOVA
        # limit stays bounded away from zero as n grows
        means = []
        for m in (32, 128):
            entries = np.concatenate([np.eye(m), np.eye(m)], axis=1)
            F = fr.FrameMatrix(entries, "sparse_control")
            ref_means = []
            rng = derive_rng(7)
            from etfspectra.manova import ManovaDistribution

            k = round(0.8 * m)
            dist = ManovaDistribution(ManovaParams.from_counts(2 * m, m, k))
            for _ in range(24):
                spec = sp.subset_gram_spectrum(F, sp.select(2 * m, "uniform_k", rng, k=k))
                ref_means.append(sp.ks_distance(spec, dist.cdf))
            means.append(np.mean(ref_means))
        assert min(means) > 0.1
        assert abs(means[0] - means[1]) < 0.05  # no decay


class TestEdgeConvergence:
    def test_dss_extreme_eigenvalues_near_support_edges(self):
        F = fr.construct_dss(503)
        m, k = 251, round(0.8 * 251)
        edges = ManovaDistribution(ManovaParams.from_counts(503, m, k)).edges
        rng = derive_rng(9)
        lo, hi = [], []
        for _ in range(200):
            ev = sp.subset_gram_spectrum(F, sp.select(503, "uniform_k", rng, k=k)).eigenvalues
            lo.append(ev.min())
            hi.append(ev.max())
        assert abs(np.median(lo) - edges.r_minus) < 0.05
        assert abs(np.median(hi) - edges.r_plus) < 0.05


class TestExport:
    def _records(self):
        recs, _ = hs.run_ks_batch("manova_ensemble", (32, 64), 0.8, 0.5, 5, seed=0)
        return recs

    def test_csv_deterministic_bytes(self, tmp_path):
        recs = self._records()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        hs.export(recs, "csv", p1, config={"seed": 0})
        hs.export(recs, "csv", p2, config={"seed": 0})
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_schema(self, tmp_path):
        path = tmp_path / "out.csv"
        hs.export(self._records(), "csv", path, config={"key": 1})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# etfspectra-export v1 config_sha256=")
        assert lines[1].split(",")[:4] == ["frame_family", "n", "m", "k"]
        assert len(lines) == 4

    def test_config_hash_embedded(self, tmp_path):
        recs, path = self._records(), tmp_path / "out.csv"
        hs.export(recs, "csv", path, config={"seed": 0})
        header = path.read_text().splitlines()[0]
        assert re.fullmatch(r"# etfspectra-export v1 config_sha256=[0-9a-f]{16}", header)
        with pytest.raises(ValueError):
            hs.export(recs, "json", path, config={"seed": 0})


class TestConfig:
    def test_grammar(self):
        cfg = hs.parse_config("""
# ladder setup
family = dss
beta = 0.8   # target
trials = 500
""")
        assert cfg == {"family": "dss", "beta": "0.8", "trials": "500"}

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            hs.parse_config("family dss")


def test_resolve_dims_fixed_aspect_families():
    assert hs.resolve_dims("dss", 103, 0.8, 0.5) == (103, 51, 41)
    assert hs.resolve_dims("real_paley", 14, 0.8, 0.5) == (14, 7, 6)
    assert hs.resolve_dims("alltop", 11, 0.8, 0.25) == (44, 11, 9)
    assert hs.resolve_dims("manova_ensemble", 100, 0.8, 0.25) == (100, 25, 20)
    with pytest.raises(fr.FrameParameterError, match="unknown frame family 'dsss'"):
        hs.resolve_dims("dsss", 103, 0.8, 0.5)


# two ladder sizes each family realizes; a family added to frames.FAMILIES
# without an entry here fails the test below
LADDER_SIZES = {
    "dss": (7, 103), "lowpass_dft": (9, 16), "random_spectrum_dft": (9, 16),
    "real_paley": (14, 30), "complex_paley": (7, 11), "grassmannian": (8, 12),
    "alltop": (5, 7), "spikes_sines": (8, 10), "spikes_hadamard": (8, 16),
    "gaussian_iid": (9, 16), "haar_real": (9, 16), "haar_complex": (9, 16),
    "random_cosine": (9, 16),
}


@pytest.mark.parametrize("size_index", (0, 1))
@pytest.mark.parametrize("family", fr.FAMILIES)
def test_ladder_dims_match_frames(family, size_index):
    size = LADDER_SIZES[family][size_index]
    for gamma in (0.5, 0.25):
        n, m, _ = hs.resolve_dims(family, size, 0.8, gamma)
        F = fr.construct(family, seed=1, **fr.ladder_dims(family, size, gamma)[2])
        assert (F.n, F.m) == (n, m)


@pytest.mark.parametrize("run", (hs.run_ks_batch, hs.run_ladder))
def test_unknown_family_raises_before_any_rung(run):
    with pytest.raises(fr.FrameParameterError, match="unknown frame family 'dsss'"):
        run("dsss", (103, 211, 431), 0.8, 0.5, 4, seed=0)
