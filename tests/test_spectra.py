import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from etfspectra import frames as fr
from etfspectra import spectra as sp
from etfspectra.manova import ManovaDistribution, ManovaParams
from etfspectra.rng import derive_rng
from oracles import dense_manova_ensemble, empirical_cdf, spectrum


class TestSelect:
    def test_full_subset(self):
        idx = sp.select(5, "uniform_k", derive_rng(0), k=5)
        assert np.array_equal(idx, np.arange(5))

    def test_bernoulli_p_zero(self):
        assert len(sp.select(10, "bernoulli", derive_rng(0), p=0.0)) == 0

    def test_fixed_seed_fixed_subset(self):
        a = sp.select(20, "uniform_k", derive_rng(9), k=7)
        b = sp.select(20, "uniform_k", derive_rng(9), k=7)
        assert np.array_equal(a, b)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            sp.select(4, "uniform_k", derive_rng(0), k=5)


class TestSubsetGramSpectrum:
    def test_unitary_all_ones(self):
        F = fr.construct_lowpass_dft(6, 6)
        spec = sp.subset_gram_spectrum(F, np.arange(6))
        assert np.abs(spec.eigenvalues - 1.0).max() < 1e-12

    def test_pair_eigenvalues_closed_form(self):
        # oracle: 2x2 Hermitian [[1, c], [c*, 1]] has eigenvalues 1 -+ |c|
        F = fr.construct_dss(7)
        c = abs(np.vdot(F.entries[:, 0], F.entries[:, 1]))
        assert c ** 2 == pytest.approx(4 / 18, abs=1e-12)
        spec = sp.subset_gram_spectrum(F, np.array([0, 1]))
        assert spec.eigenvalues == pytest.approx([1 - c, 1 + c], abs=1e-12)

    def test_trace_identity(self):
        F = fr.construct_dss(11)
        idx = sp.select(11, "uniform_k", derive_rng(1), k=4)
        spec = sp.subset_gram_spectrum(F, idx)
        assert spec.eigenvalues.sum() == pytest.approx(4.0, abs=1e-8)

    def test_both_gram_sides_share_nonzero_spectrum(self):
        F = fr.construct_dss(11)  # m = 5
        idx = np.array([0, 2, 3, 5, 6, 7, 9])  # k = 7 > m
        A = F.entries[:, idx]
        wide = np.linalg.eigvalsh(A @ A.conj().T)
        tall = np.linalg.eigvalsh(A.conj().T @ A)
        nz = np.sort(tall)[-len(wide):]
        assert np.abs(np.sort(wide) - nz).max() < 1e-8
        spec = sp.subset_gram_spectrum(F, idx)
        assert spec.r == 5 and len(spec.eigenvalues) == 5

    def test_empty_subset_rejected(self):
        F = fr.construct_dss(7)
        with pytest.raises(ValueError):
            sp.subset_gram_spectrum(F, np.array([], dtype=np.int64))

    def test_index_n_rejected(self):
        F = fr.construct_dss(863)
        with pytest.raises(IndexError):
            sp.subset_gram_spectrum(F, np.array([0, 863]))

    @pytest.mark.parametrize("frame", ["dss103", "real_paley29"])
    @pytest.mark.parametrize("side", ["k<m", "k=m", "k>m"])
    def test_matches_symmetrized_gemm_gram(self, frame, side):
        # oracle: eigvalsh of the full gemm Gram on the smaller side, symmetrized
        F = fr.construct_dss(103) if frame == "dss103" else fr.construct_real_paley(29)
        k = {"k<m": F.m // 2, "k=m": F.m, "k>m": F.m + 7}[side]
        idx = sp.select(F.n, "uniform_k", derive_rng(5), k=k)
        A = F.entries[:, idx]
        G = A.conj().T @ A if k <= F.m else A @ A.conj().T
        want = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
        want[want < sp.ZERO_CLAMP] = 0.0
        spec = sp.subset_gram_spectrum(F, idx)
        assert spec.eigenvalues.dtype == np.float64 and spec.r == min(k, F.m)
        assert np.abs(spec.eigenvalues - want).max() < 1e-12

    def test_etf_pair_is_welch_offset(self):
        F = fr.construct_real_paley(13)
        w = math.sqrt(fr.welch_rms_bound(F.n, F.m))
        spec = sp.subset_gram_spectrum(F, np.array([3, 9]))
        assert spec.eigenvalues == pytest.approx([1 - w, 1 + w], abs=1e-10)


def naive_cdf(points, x):
    """Oracle: direct counting."""
    return sum(1 for p in points if p <= x) / len(points)


class TestEmpiricalCdf:
    def test_repeated_point(self):
        cdf = empirical_cdf(np.array([1.0, 1.0]))
        assert cdf(0.999) == 0.0 and cdf(1.0) == 1.0

    def test_two_point(self):
        cdf = empirical_cdf(np.array([0.0, 2.0]))
        assert cdf(0.0) == 0.5 and cdf(1.9999) == 0.5 and cdf(2.0) == 1.0

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=40),
           st.floats(-6, 6))
    @settings(max_examples=100, deadline=None)
    def test_matches_counting_oracle(self, points, x):
        cdf = empirical_cdf(np.array(points))
        assert cdf(x) == pytest.approx(naive_cdf(points, x), abs=1e-12)


class TestKsDistance:
    def test_decile_midpoints_against_uniform(self):
        # sup deviation of the midpoint sample from U(0,1) is exactly 1/(2r)
        pts = (np.arange(10) + 0.5) / 10
        d = sp.ks_distance(spectrum(pts), lambda x: np.clip(x, 0, 1))
        assert d == pytest.approx(0.05, abs=1e-12)

    def test_zero_against_own_empirical(self):
        pts = np.array([0.3, 0.7, 1.5])
        cdf = empirical_cdf(pts)
        assert sp.ks_distance(spectrum(pts), cdf) == 0.0

    def test_single_point_at_median(self):
        d = sp.ks_distance(spectrum([0.5]), lambda x: np.clip(x, 0, 1))
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_tied_values_on_an_atom(self):
        # the step CDF 0 -> 0.9 at 1 -> 1 at 2: on [1, 2) the sample's CDF
        # is 1 and the reference 0.9
        def step(x):
            return np.where(x >= 2.0, 1.0, np.where(x >= 1.0, 0.9, 0.0))
        assert sp.ks_distance(spectrum([1.0, 1.0]), step) == pytest.approx(0.1, abs=1e-15)

    def test_against_dense_grid_oracle(self):
        # (200, 100, 80) has no atom; (60, 45, 36) puts 21 tied values on the
        # top atom at 4/3, and at m = n every value is 1, the law's one atom
        for n, m, k in [(200, 100, 80), (60, 45, 36), (40, 40, 20)]:
            dist = ManovaDistribution(ManovaParams.from_counts(n, m, k))
            spec = sp.sample_manova_ensemble(n, m, k, "complex", derive_rng(5))
            d_fast = sp.ks_distance(spec, dist.cdf)
            # oracle: sup of |F_emp - F_ref| over a 1e5 grid refined with the
            # empirical jump locations, the atoms and their left neighbors
            jumps = np.concatenate([spec.eigenvalues, [a.location for a in dist.atoms]])
            grid = np.concatenate([
                np.linspace(dist.edges.r_minus - 0.1, dist.edges.r_plus + 0.1, 100_000),
                jumps, np.nextafter(jumps, -np.inf)])
            emp = empirical_cdf(spec)
            d_grid = np.max(np.abs(emp(grid) - dist.cdf(grid)))
            assert d_fast >= d_grid - 1e-12  # grid never exceeds the exact sup
            assert d_fast == pytest.approx(d_grid, abs=1e-6)


# two-sample KS comparison of ensemble samplers; draws, seeds and level
# fixed before the first run
KS_DRAWS = 2000
KS_LEVEL = 1e-3  # per statistic, four statistics per case


def _sampled(n, m, k, field, rng):
    return sp.sample_manova_ensemble(n, m, k, field, rng).eigenvalues


def _dense_clamped(n, m, k, field, rng):
    ev = dense_manova_ensemble(n, m, k, field, rng)
    ev[ev < sp.ZERO_CLAMP] = 0.0
    return ev


def _ensemble_draws(sampler, n, m, k, field, rng):
    return np.array([sampler(n, m, k, field, rng) for _ in range(KS_DRAWS)])


def _ks_pvalues(a, b):
    """Two-sample KS p-values of the per-draw min, max, trace and sum of squares."""
    return [stats.ks_2samp(f(a), f(b)).pvalue
            for f in (lambda x: x.min(axis=1), lambda x: x.max(axis=1),
                      lambda x: x.sum(axis=1), lambda x: (x ** 2).sum(axis=1))]


class TestManovaEnsemble:
    def test_range(self):
        spec = sp.sample_manova_ensemble(100, 50, 40, "complex", derive_rng(1))
        assert spec.eigenvalues.min() >= 0.0
        assert spec.eigenvalues.max() <= 100 / 50 + 1e-9

    def test_mean_eigenvalue_matches_density_moment(self):
        # MC oracle against the unit first moment of the limiting law
        rng = derive_rng(2)
        means = [sp.sample_manova_ensemble(500, 250, 200, "complex", rng).eigenvalues.mean()
                 for _ in range(200)]
        means = np.array(means)
        stderr = means.std(ddof=1) / math.sqrt(len(means))
        assert abs(means.mean() - 1.0) < 3 * stderr + 1e-3

    def test_wide_case_scales_like_swapped_ensemble(self):
        # beta > 1: nonzero spectrum is the (n, k, m) draw scaled by k/m
        rng = derive_rng(3)
        spec = sp.sample_manova_ensemble(120, 40, 60, "complex", rng)
        assert len(spec.eigenvalues) == 40
        assert spec.eigenvalues.max() <= 120 / 40 + 1e-9
        means = [sp.sample_manova_ensemble(120, 40, 60, "complex", rng).eigenvalues.mean()
                 for _ in range(150)]
        # mean of the scaled law is beta = k/m
        assert np.mean(means) == pytest.approx(60 / 40, abs=0.02)

    def test_real_field_supported(self):
        spec = sp.sample_manova_ensemble(80, 40, 32, "real", derive_rng(4))
        assert len(spec.eigenvalues) == 32
        with pytest.raises(ValueError, match="field must be"):
            sp.sample_manova_ensemble(80, 40, 32, "quaternion", derive_rng(4))

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("n, m, k", [(60, 30, 20), (60, 30, 30), (60, 30, 45), (30, 30, 12),
                                         (40, 30, 25)],
                             ids=["k<m", "k=m", "k>m", "m=n", "top-atom"])
    def test_draws_match_dense_oracle(self, field, n, m, k):
        # same law from independent streams: two-sample KS on per-draw statistics
        got = _ensemble_draws(_sampled, n, m, k, field, derive_rng(20))
        want = _ensemble_draws(_dense_clamped, n, m, k, field, derive_rng(21))
        if m == n:  # no A: every value is the top edge n/m
            assert np.all(got == n / m)
            assert np.allclose(want, n / m, rtol=1e-12, atol=0.0)
            return
        assert min(_ks_pvalues(got, want)) >= KS_LEVEL
        r, c = sorted((k, m))
        if r > n - c:  # p + gamma > 1: r - (n - c) = 15 values sit at the top edge n/m
            assert np.all(np.sum(np.isclose(got, n / m, rtol=1e-12), axis=1) == 15)

    def test_ks_rejects_a_chi_shifted_sampler(self):
        # the same kernel with one more degree of freedom on every chi of B's
        # Bartlett factor (an off-by-one in its formula) must fail the test above
        class ShiftedChi(np.random.Generator):
            shifted = False

            def chisquare(self, df, size=None):
                df = np.asarray(df) + (0 if self.shifted else 1)
                self.shifted = True
                return super().chisquare(df, size)

        def shifted(n, m, k, field, rng):
            return _sampled(n, m, k, field, ShiftedChi(rng.bit_generator))

        got = _ensemble_draws(shifted, 60, 30, 20, "real", derive_rng(20))
        want = _ensemble_draws(_dense_clamped, 60, 30, 20, "real", derive_rng(21))
        assert min(_ks_pvalues(got, want)) < KS_LEVEL

    def test_deterministic_given_seed(self):
        a = sp.sample_manova_ensemble(60, 30, 24, "complex", derive_rng(8))
        b = sp.sample_manova_ensemble(60, 30, 24, "complex", derive_rng(8))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_etf_subset_pins_first_two_moments_ensemble_does_not():
    # Premise of acceptance criterion 6b: a k-subset Gram of a unit-norm ETF
    # has trace k and squared Frobenius norm k + k(k-1)(n-m)/(m(n-1)) on
    # every draw; the MANOVA ensemble at the same (n, m, k) lets both vary.
    F = fr.construct_dss(103)
    n, m = F.n, F.m
    k = round(0.8 * m)
    frob = k + k * (k - 1) * (n - m) / (m * (n - 1))
    rng = derive_rng(0)
    for _ in range(20):
        ev = sp.subset_gram_spectrum(F, sp.select(n, "uniform_k", rng, k=k)).eigenvalues
        assert ev.sum() == pytest.approx(k, abs=1e-9)
        assert (ev ** 2).sum() == pytest.approx(frob, abs=1e-9)
    traces = [sp.sample_manova_ensemble(n, m, k, "complex", rng).eigenvalues.sum()
              for _ in range(20)]
    assert np.std(traces) > 1e-3


class TestRunTrials:
    def test_trial_t_draws_from_its_own_stream(self):
        # the seeding contract: trial t is a function of (seed, *path, t + 1)
        # alone, whatever ran before it
        F = fr.construct_dss(11)
        got = sp.run_trials(F, 3, lambda s: s.eigenvalues, seed=4, path=(2,), k=5)
        for t, ev in enumerate(got):
            idx = sp.select(11, "uniform_k", derive_rng(4, 2, t + 1), k=5)
            assert np.array_equal(ev, sp.subset_gram_spectrum(F, idx).eigenvalues)
        ens = sp.run_trials((11, 5, "real"), 2, lambda s: s.eigenvalues, seed=4, k=3)
        for t, ev in enumerate(ens):
            want = sp.sample_manova_ensemble(11, 5, 3, "real", derive_rng(4, t + 1))
            assert np.array_equal(ev, want.eigenvalues)

    def test_empty_bernoulli_draw_has_empty_spectrum(self):
        F = fr.construct_dss(7)
        (spec,) = sp.run_trials(F, 1, lambda s: s, seed=0, p=0.0)
        assert (spec.k, len(spec.eigenvalues)) == (0, 0)

    def test_selection_arguments(self):
        F = fr.construct_dss(7)
        for kw in ({}, {"k": 2, "p": 0.5}):
            with pytest.raises(ValueError):
                sp.run_trials(F, 1, len, seed=0, **kw)
        with pytest.raises(ValueError):
            sp.run_trials((7, 3, "real"), 1, len, seed=0, p=0.5)
