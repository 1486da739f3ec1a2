import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import lapack

from etfspectra import frames as fr
from etfspectra import spectra as sp
from etfspectra.manova import ManovaDistribution, ManovaParams
from etfspectra.rng import derive_rng
from oracles import (FRAME_SIDES, FRAMES, HARMONIC, dense_manova_ensemble, empirical_cdf,
                     frame_with_gram_eigenvalues, spectrum, without_row)


class TestSelect:
    def test_full_subset(self):
        idx = sp.select(5, derive_rng(0), k=5)
        assert np.array_equal(idx, np.arange(5))

    def test_bernoulli_p_zero(self):
        assert len(sp.select(10, derive_rng(0), p=0.0)) == 0

    def test_fixed_seed_fixed_subset(self):
        a = sp.select(20, derive_rng(9), k=7)
        b = sp.select(20, derive_rng(9), k=7)
        assert np.array_equal(a, b)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            sp.select(4, derive_rng(0), k=5)


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
        idx = sp.select(11, derive_rng(1), k=4)
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
        idx = sp.select(F.n, derive_rng(5), k=k)
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


def full_lower(G):
    """The Hermitian matrix whose lower triangle G holds."""
    L = np.tril(G)
    return L + np.tril(L, -1).conj().T


class TestCirculantGather:
    @pytest.mark.parametrize("frame", HARMONIC)
    @pytest.mark.parametrize("side", ["k<m", "k=m"])
    def test_gather_matches_rank_k_update(self, frame, side):
        F = HARMONIC[frame]()
        assert F.circulant_row is not None
        k = F.m // 2 if side == "k<m" else F.m
        for t in range(3):
            idx = sp.select(F.n, derive_rng(21, t), k=k)
            G, m, kk = sp._subset_gram(F, idx)
            H, _, _ = sp._subset_gram(without_row(F), idx)
            assert (m, kk) == (F.m, k)
            assert np.abs(np.triu(H, 1)).max() == 0.0  # the update's lower triangle
            assert np.abs(G - full_lower(H)).max() < 1e-12
            want = sp.subset_gram_spectrum(without_row(F), idx).eigenvalues
            assert np.abs(sp.subset_gram_spectrum(F, idx).eigenvalues - want).max() < 1e-12
            tr, _, r = sp.subset_gram_traces(F, idx)
            want_tr, _, want_r = sp.subset_gram_traces(without_row(F), idx)
            assert r == want_r and tr == pytest.approx(want_tr, rel=1e-12)

    def test_wide_side_keeps_rank_k_update(self):
        F = fr.construct_dss(103)
        idx = sp.select(F.n, derive_rng(22), k=F.m + 7)
        G, m, k = sp._subset_gram(F, idx)
        assert G.shape == (m, m) and np.abs(np.triu(G, 1)).max() == 0.0

    def test_loaded_dss_matches_constructed(self, tmp_path):
        from etfspectra import frameio

        F = fr.construct_dss(103)
        frameio.save_frame(F, str(tmp_path / "dss.json"))
        loaded = frameio.load_frame(str(tmp_path / "dss.json"))
        assert loaded.circulant_row is None
        for k in (20, F.m):
            idx = sp.select(F.n, derive_rng(23, k), k=k)
            got = sp.subset_gram_spectrum(loaded, idx).eigenvalues
            assert np.abs(got - sp.subset_gram_spectrum(F, idx).eigenvalues).max() < 1e-12

    @pytest.mark.parametrize("build", [lambda: fr.construct_dss(103),
                                       lambda: fr.construct_real_paley(101)],
                             ids=["dss_gather", "paley_update"])
    @pytest.mark.parametrize("measure", [sp.subset_gram_spectrum, sp.subset_gram_traces],
                             ids=["spectrum", "traces"])
    def test_indices(self, build, measure):
        F = build()
        assert (F.circulant_row is not None) == (F.family == "dss")
        for bad in ([0, F.n], [F.n + 5, 1], [-F.n - 1, 3], [2, 0, -2 * F.n], [0.0, 2.5]):
            with pytest.raises(IndexError):
                measure(F, np.array(bad))
        # tuples, as mlie(mode="exact") passes them, and indices in [-n, 0)
        values = lambda out: np.asarray(getattr(out, "eigenvalues", out), dtype=float)
        want = values(measure(F, np.array([0, 3, 9, F.n - 1])))
        for same in ((0, 3, 9, F.n - 1), (0, 3, 9, -1), [-F.n, 3, 9, F.n - 1]):
            assert np.abs(values(measure(F, same)) - want).max() < 1e-12


@pytest.fixture
def spectrum_calls(monkeypatch):
    """Counts the calls of sp.subset_gram_spectrum."""
    calls = []
    original = sp.subset_gram_spectrum

    def counted(F, idx):
        calls.append(len(idx))
        return original(F, idx)

    monkeypatch.setattr(sp, "subset_gram_spectrum", counted)
    return calls


@pytest.fixture
def eigensolves(monkeypatch):
    """The order of every Gram that numpy's eigvalsh solves."""
    calls = []
    original = np.linalg.eigvalsh

    def counted(G):
        calls.append(len(G))
        return original(G)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def spectrum_sums(F, idx):
    """The spectrum path's (sum lambda, sum 1/lambda or inf when clamped, r)."""
    spec = sp.subset_gram_spectrum(F, idx)
    inverse = math.inf if spec.clamped else float(np.sum(1.0 / spec.eigenvalues))
    return float(np.sum(spec.eigenvalues)), inverse, spec.r


class TestSubsetGramTraces:
    @pytest.mark.parametrize("frame, k", FRAME_SIDES)
    def test_certified_path_matches_spectrum(self, frame, k, eigensolves):
        F = FRAMES[frame]()
        subsets = [sp.select(F.n, derive_rng(11, t), k=k) for t in range(10)]
        got = [sp.subset_gram_traces(F, idx) for idx in subsets]
        assert eigensolves == []  # every subset certified, none fell back
        for (tr, inv, r), idx in zip(got, subsets):
            want_tr, want_inv, want_r = spectrum_sums(F, idx)
            assert r == want_r == min(k, F.m)
            assert tr == pytest.approx(want_tr, rel=1e-12)
            assert inv == pytest.approx(want_inv, rel=1e-12)
            # the AHMR and the inverse energy that coding reads from them
            assert (inv / r) * (tr / r) == pytest.approx(
                (want_inv / r) * (want_tr / r), rel=1e-12)

    def test_small_eigenvalue_above_the_clamp_falls_back(self, eigensolves):
        # tr G^-1 = 3 + 2e9 is past the certificate, and the spectrum
        # path keeps 5e-10 (> ZERO_CLAMP): finite, the spectrum's sums
        F = frame_with_gram_eigenvalues(np.array([1.0, 1.0, 1.0, 5e-10]), m=6)
        idx = np.arange(4)
        tr, inv, r = sp.subset_gram_traces(F, idx)
        assert eigensolves == [4]  # one eigensolve of the 4 x 4 Gram
        want_tr, want_inv, want_r = spectrum_sums(F, idx)
        assert math.isfinite(inv) and inv == pytest.approx(want_inv, rel=1e-12)
        assert inv == pytest.approx(3.0 + 2e9, rel=1e-5)
        assert (tr, r) == (want_tr, want_r)

    def test_clamped_eigenvalue_is_inf_although_cholesky_succeeds(self):
        F = frame_with_gram_eigenvalues(np.array([1.0, 1.0, 1.0, 1e-12]), m=6)
        idx = np.arange(4)
        assert lapack.dpotrf(F.entries.T @ F.entries, lower=1)[1] == 0
        assert sp.subset_gram_spectrum(F, idx).clamped == 1
        assert sp.subset_gram_traces(F, idx)[1] == math.inf

    def test_ill_conditioned_lowpass_matches_spectrum(self):
        F = fr.construct_lowpass_dft(211, 105)
        finite = 0
        for t in range(20):
            idx = sp.select(F.n, derive_rng(13, t), k=84)
            _, inv, _ = sp.subset_gram_traces(F, idx)
            _, want, _ = spectrum_sums(F, idx)
            assert math.isinf(inv) == math.isinf(want)
            if math.isfinite(want):
                finite += 1
                assert inv == pytest.approx(want, rel=1e-6)
        assert finite > 0

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            sp.subset_gram_traces(fr.construct_dss(7), np.array([], dtype=np.int64))


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
INVERSE_DRAWS = 8000  # per case of the exact inverse-mean gate


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

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("call", [0, 1, 2], ids=["V-diagonal", "V-superdiagonal", "R-diagonal"])
    def test_ks_rejects_a_chi_shifted_sampler(self, call, field):
        # the same kernel with one more degree of freedom on every chi of one
        # chisquare call (an off-by-one in that formula) must fail the test
        # above: the diagonal or the superdiagonal of V (BB' = VV'), or the
        # diagonal of R (AA' = RR')
        class ShiftedChi(np.random.Generator):
            calls = 0

            def chisquare(self, df, size=None):
                df = np.asarray(df) + (self.calls == call)
                self.calls += 1
                return super().chisquare(df, size)

        def shifted(n, m, k, field, rng):
            return _sampled(n, m, k, field, ShiftedChi(rng.bit_generator))

        got = _ensemble_draws(shifted, 60, 30, 20, field, derive_rng(20))
        want = _ensemble_draws(_dense_clamped, 60, 30, 20, field, derive_rng(21))
        assert min(_ks_pvalues(got, want)) < KS_LEVEL

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("n, m, k", [(60, 30, 20), (40, 25, 10), (103, 51, 41)])
    def test_mean_inverse_matches_exact_value(self, field, n, m, k):
        # tr W^-1 = (m/n)(k + tr AA'(BB')^-1) and E(BB')^-1 = I/(m - k)
        # (complex) or I/(m - k - 1) (real), so at every finite size
        # E[mean 1/lambda] = (m/n)(n - k - s)/(m - k - s), s = 0 or 1;
        # draws, seeds and the 4 SE level fixed before the first run
        s = 0 if field == "complex" else 1
        exact = (m / n) * (n - k - s) / (m - k - s)
        rng = derive_rng(15, n, m, k, s)
        x = np.array([(1.0 / sp.sample_manova_ensemble(n, m, k, field, rng).eigenvalues).mean()
                      for _ in range(INVERSE_DRAWS)])
        assert abs(x.mean() - exact) < 4 * x.std(ddof=1) / math.sqrt(len(x))

    @pytest.mark.parametrize("n, m, k, name", [(100.7, 50, 40, "n"), (100, 50.5, 40, "m"),
                                               (100, 50, "40", "k"), (100, 50, None, "k"),
                                               (float("nan"), 50, 40, "n")])
    def test_non_integer_counts_raise(self, n, m, k, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer; got"):
            sp.sample_manova_ensemble(n, m, k, "complex", derive_rng(4))

    def test_integral_counts_are_counts(self):
        got = sp.sample_manova_ensemble(100.0, np.int64(50), 40.0, "complex", derive_rng(4))
        want = sp.sample_manova_ensemble(100, 50, 40, "complex", derive_rng(4))
        assert (got.m, got.k) == (50, 40)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)

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
        ev = sp.subset_gram_spectrum(F, sp.select(n, rng, k=k)).eigenvalues
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
            idx = sp.select(11, derive_rng(4, 2, t + 1), k=5)
            assert np.array_equal(ev, sp.subset_gram_spectrum(F, idx).eigenvalues)
        ens = sp.run_trials((11, 5, "real"), 2, lambda s: s.eigenvalues, seed=4, k=3)
        for t, ev in enumerate(ens):
            want = sp.sample_manova_ensemble(11, 5, 3, "real", derive_rng(4, t + 1))
            assert np.array_equal(ev, want.eigenvalues)

    def test_empty_bernoulli_draw_has_empty_spectrum(self):
        F = fr.construct_dss(7)
        (spec,) = sp.run_trials(F, 1, lambda s: s, seed=0, p=0.0)
        assert (spec.k, len(spec.eigenvalues)) == (0, 0)

    @pytest.mark.parametrize("source, kw", [(fr.construct_dss(7), {"k": 3}),
                                            (fr.construct_dss(7), {"p": 0.5}),
                                            ((11, 5, "real"), {"k": 3})],
                             ids=["frame_k", "frame_p", "ensemble"])
    @pytest.mark.parametrize("trials", [0, -1])
    def test_fewer_than_one_trial_raises(self, source, kw, trials):
        with pytest.raises(ValueError, match=f"need at least one trial; got trials={trials}"):
            sp.run_trials(source, trials, len, seed=0, **kw)

    def test_empty_draw_under_traces_names_the_trial(self):
        # Bernoulli(0.05) on 14 columns leaves some trials empty; the traces
        # statistic must never see an empty spectrum in their place
        F = fr.construct_real_paley(13)
        with pytest.raises(ValueError, match="trial [0-9]+ selected no column"):
            sp.run_trials(F, 20, lambda traces: traces, seed=0, p=0.05,
                          measure=sp.subset_gram_traces)

    def test_selection_arguments(self):
        F = fr.construct_dss(7)
        for kw in ({}, {"k": 2, "p": 0.5}):
            with pytest.raises(ValueError):
                sp.run_trials(F, 1, len, seed=0, **kw)
        with pytest.raises(ValueError):
            sp.run_trials((7, 3, "real"), 1, len, seed=0, p=0.5)

    def test_measure(self, spectrum_calls):
        F = fr.construct_dss(11)
        got = sp.run_trials(F, 3, lambda x: x, seed=4, k=5, measure=sp.subset_gram_traces)
        for t, traces in enumerate(got):
            idx = sp.select(11, derive_rng(4, t + 1), k=5)
            assert traces == sp.subset_gram_traces(F, idx)
        # the default measure is the module's subset_gram_spectrum at call
        # time, so a rebound global (a tracer's wrapper) sees every trial
        assert spectrum_calls == []
        sp.run_trials(F, 3, lambda spec: spec.r, seed=4, k=5)
        assert spectrum_calls == [5, 5, 5]
        with pytest.raises(ValueError, match="no measure"):
            sp.run_trials((11, 5, "real"), 1, len, seed=0, k=3, measure=sp.subset_gram_traces)
