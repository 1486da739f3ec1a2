import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from etfspectra import coding as cg
from etfspectra import frames as fr
from etfspectra.rng import derive_rng


class TestAmplification:
    def test_mp_source(self):
        assert cg.amplification("mp", 0.8, 0.4) == pytest.approx(5.0)

    def test_manova_values(self):
        assert cg.amplification("manova", 0.8, 0.4) == pytest.approx(3.0)
        assert cg.amplification("manova", 2.0, 0.5) == pytest.approx(1.5)

    def test_beta_one_rejected(self):
        with pytest.raises(ZeroDivisionError):
            cg.amplification("mp", 1.0, 0.5)

    def test_empirical_gaussian_near_mp(self):
        F = fr.construct_random("gaussian_iid", 600, 300, seed=1)
        model = cg.AmplificationModel("empirical", frame=F, trials=24, seed=2)
        lam = cg.amplification(model, 0.8, 240 / 600)
        # in inverse-energy form: beta * Lambda -> beta/(1-beta) = 4
        assert 0.8 * lam == pytest.approx(4.0, rel=0.05)

    def test_empirical_dss_near_manova(self):
        F = fr.construct_dss(503)  # m = 251
        model = cg.AmplificationModel("empirical", frame=F, trials=40, seed=3)
        k = round(0.8 * 251)
        p = k / 503
        lam = cg.amplification(model, k / 251, p)
        assert lam == pytest.approx((1 - p) / (1 - k / 251), rel=0.02)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            cg.AmplificationModel("empirical")
        with pytest.raises(ValueError):
            cg.AmplificationModel("theoretical")


class TestRates:
    def test_rate_vanishes_at_unit_sdr(self):
        for sdr in (1.0 + 1e-12, 1.0):
            assert cg.rate_sc(0.8, 0.5, sdr, "manova") == pytest.approx(0.0, abs=1e-9)

    def test_unit_amplification_leaves_redundancy_term_only(self):
        # a unitary frame has Lambda = 1 for every pattern, so the
        # high-resolution excess is (p/2)[(1/b - 1) log y + (1/b) log b]
        F = fr.construct_lowpass_dft(16, 16)
        model = cg.AmplificationModel("empirical", frame=F, trials=5, seed=0)
        p, beta, y = 0.5, 12 / 16, 1e4
        lam = cg.amplification(model, beta, p)
        delta = (1 / beta) * cg.rdf(p, y * beta * lam) - cg.rdf(p, y)
        expect = 0.5 * p * ((1 / beta - 1) * math.log2(y) + (1 / beta) * math.log2(beta))
        assert delta == pytest.approx(expect, abs=1e-9)

    def test_manova_below_mp_at_30db(self):
        y = 10 ** 3.0  # 30 dB
        for beta in (0.55, 0.7, 0.85, 0.95):
            assert cg.rate_sc(beta, 0.5, y, "manova") < cg.rate_sc(beta, 0.5, y, "mp")

    def test_rate_monotone_in_amplification(self):
        y = 100.0
        r_manova = cg.rate_sc(0.8, 0.4, y, "manova")
        r_mp = cg.rate_sc(0.8, 0.4, y, "mp")
        assert r_manova < r_mp

    @given(st.floats(0.52, 0.95), st.floats(1.5, 6.0))
    @settings(max_examples=50, deadline=None)
    def test_excess_rate_nonnegative(self, beta, log10y):
        p = 0.5
        y = 10.0 ** log10y
        assert cg.rate_sc(beta, p, y, "manova") - cg.rdf(p, y) >= -1e-12
        assert cg.rate_sc(beta, p, y, "mp") - cg.rdf(p, y) >= -1e-12

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            cg.rate_sc(1.2, 0.5, 100.0, "manova")


class TestCapacity:
    def test_zero_snr(self):
        assert cg.capacity_cc(2.0, 0.5, 1e-300, "manova") == pytest.approx(0.0, abs=1e-12)

    def test_below_shannon(self):
        for snr in (0.1, 1.0, 100.0):
            _, c = cg.optimize_beta("channel", 0.5, snr, "manova")
            assert c <= cg.shannon_capacity(0.5, snr) + 1e-12

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            cg.capacity_cc(0.8, 0.5, 10.0, "manova")

    def test_effective_snr_overflow_raises(self):
        # snr * beta / Lambda overflows to inf; log2(inf) must not pass
        with pytest.raises(OverflowError):
            cg.optimize_beta("channel", 0.5, 1e305, "manova")
        _, c = cg.optimize_beta("channel", 0.5, 1e192, "manova")
        assert math.isfinite(c)

    def test_effective_sdr_overflow_raises(self):
        # (sdr - 1) * beta * Lambda overflows to inf; log2(inf) must not pass
        with pytest.raises(OverflowError):
            cg.optimize_beta("source", 0.5, 1e308, "manova")
        _, r = cg.optimize_beta("source", 0.5, 1e192, "manova")
        assert math.isfinite(r)


class TestOptimizeBeta:
    def test_source_high_sdr_asymptote(self):
        y = 1e10
        beta, _ = cg.optimize_beta("source", 0.5, y, "manova")
        assert abs(beta - (1 - 1 / math.log(y))) < 0.02

    def test_channel_high_snr_asymptote(self):
        y = 1e10
        beta, _ = cg.optimize_beta("channel", 0.5, y, "manova")
        assert abs(beta - (1 + 1 / math.log(y))) < 0.02

    def test_optimum_below_endpoints(self):
        p, y = 0.5, 1e4
        beta, val = cg.optimize_beta("source", p, y, "mp")
        assert p + 1e-4 < beta < 1 - 1e-4
        assert val <= cg.rate_sc(p + 1e-4, p, y, "mp") + 1e-9
        assert val <= cg.rate_sc(1 - 1e-4, p, y, "mp") + 1e-9

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            cg.optimize_beta("sideways", 0.5, 10.0, "mp")

    @pytest.mark.parametrize("p", [0.9998, 0.99985, 0.99999, 1.0, -0.1])
    def test_source_without_a_bracket_raises(self, p):
        # [p + 1e-4, 1 - 1e-4] is empty or inverted from p = 0.9998 on
        with pytest.raises(ValueError, match=rf"no source beta to search at p={p}: "
                                             r"the bracket is \["):
            cg.optimize_beta("source", p, 10.0, "manova")

    def test_source_just_below_the_bracket_limit(self):
        p = 0.9997
        beta, rate = cg.optimize_beta("source", p, 10.0, "manova")
        assert p < beta < 1.0
        assert math.isfinite(rate)

    @pytest.mark.parametrize("direction, p, y", [("source", 0.0, 100.0), ("source", 0.5, 1.0),
                                                 ("channel", 0.5, 0.0)],
                             ids=["p=0", "sdr=1", "snr=0"])
    def test_flat_objective_has_no_optimum(self, direction, p, y):
        # the rate or capacity is 0 for every beta; no bracket end is optimal
        beta, val = cg.optimize_beta(direction, p, y, "manova")
        assert math.isnan(beta)
        assert val == 0.0

    @pytest.mark.parametrize("p", [1.5, -0.1])
    def test_channel_p_outside_unit_interval_raises(self, p):
        with pytest.raises(ValueError, match=f"no channel beta to search at p={p}"):
            cg.optimize_beta("channel", p, 10.0, "manova")


class TestHighResolutionGaps:
    def test_analytic_difference_values(self):
        gaps = cg.high_resolution_gaps(0.5, 1e6)
        assert gaps["diff_sc_analytic"] == pytest.approx(-0.25)
        assert gaps["diff_cc_analytic"] == pytest.approx(0.25)

    def test_numeric_difference_near_analytic(self):
        gaps = cg.high_resolution_gaps(0.5, 1e10)
        assert gaps["diff_sc"] == pytest.approx(gaps["diff_sc_analytic"], abs=0.02)

    def test_sign_structure(self):
        gaps = cg.high_resolution_gaps(0.5, 1e8)
        assert gaps["diff_sc"] < 0 < gaps["diff_cc"]
        assert gaps["gap_sc_mp"] > 0 > gaps["gap_cc_mp"]


class TestSiBenchmark:
    def test_half(self):
        assert cg.si_benchmark(0.5) == 1.0

    def test_degenerate(self):
        assert cg.si_benchmark(0.0) == 0.0
        assert cg.si_benchmark(1.0) == 0.0

    def test_value(self):
        # direct formula: -0.2 log2 0.2 - 0.8 log2 0.8
        assert cg.si_benchmark(0.2) == pytest.approx(0.7219, abs=1e-4)


class TestMlie:
    def test_unitary_zero(self):
        F = fr.construct_lowpass_dft(6, 6)
        res = cg.mlie(F, 6, mode="exact")
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert res.divergent == 0

    def test_dss7_pairs_all_identical(self):
        # equiangularity: every 2-subset Gram is [[1, c], [c*, 1]], so
        # eta = (1/m) * 2/(1 - |c|^2) = 6/7 for every one of the 21 patterns
        F = fr.construct_dss(7)
        res = cg.mlie(F, 2, mode="exact")
        assert res.patterns == 21
        assert res.divergent == 0
        assert res.value == pytest.approx((3 / 7) * 0.5 * math.log2(6 / 7), abs=1e-12)

    def test_etf_below_lowpass(self):
        dss = cg.mlie(fr.construct_dss(7), 3, mode="exact")
        lp = cg.mlie(fr.construct_lowpass_dft(7, 3), 3, mode="exact")
        assert dss.value < lp.value

    def test_montecarlo_mode(self):
        F = fr.construct_dss(11)
        res = cg.mlie(F, 4, mode="montecarlo", trials=64, seed=0)
        assert res.patterns == 64
        assert math.isfinite(res.value)

    def test_exact_guard(self):
        F = fr.construct_random("gaussian_iid", 64, 32, seed=0)
        with pytest.raises(ValueError):
            cg.mlie(F, 20, mode="exact")


# Gaussian references for the square-case divergence of the amplification;
# nothing in the package needs them, so they live with their tests.

def rectangular_inverse_trace(k: int, beta: float, trials: int, seed=None) -> float:
    """MC mean of (1/k) tr((HH')^-1) for k x m complex Gaussian H with
    entry variance 1/k and m = round(k/beta); converges to beta/(1-beta)."""
    m = int(round(k / beta))
    rng = derive_rng(seed)
    vals = np.empty(trials)
    for t in range(trials):
        H = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / math.sqrt(2 * k)
        ev = np.linalg.eigvalsh(H @ H.conj().T)
        vals[t] = np.sum(1.0 / ev) / k
    return float(vals.mean())


def square_gaussian_divergence_probe(k_values, trials: int = 200, seed=None,
                                     groups: int = 8) -> list:
    """Median-of-means of (1/k) tr((AA')^-1) for square complex Gaussian A.

    The estimand is heavy-tailed (its true mean is infinite), so rows carry
    a ``heavy_tail`` flag and the k^2..k^3 / (2 pi e) envelope
    is only an order-of-magnitude reference.
    """
    rows = []
    for i, k in enumerate(k_values):
        rng = derive_rng(seed, i)
        vals = np.empty(trials)
        for t in range(trials):
            A = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / math.sqrt(2 * k)
            ev = np.linalg.eigvalsh(A @ A.conj().T)
            vals[t] = np.sum(1.0 / ev) / k
        means = vals[: groups * (trials // groups)].reshape(groups, -1).mean(axis=1)
        estimate = float(np.median(means))
        med = float(np.median(vals))
        rows.append({
            "k": int(k),
            "estimate": estimate,
            "median": med,
            "lower_envelope": k ** 2 / (2.0 * math.pi * math.e),
            "upper_envelope": k ** 3 / (2.0 * math.pi * math.e),
            "heavy_tail": bool(vals.max() > 10.0 * med),
        })
    return rows


class TestDivergenceProbe:
    def test_growth_and_envelope(self):
        rows = square_gaussian_divergence_probe([8, 16, 32], trials=160, seed=5)
        estimates = [r["estimate"] for r in rows]
        assert estimates == sorted(estimates)  # grows with k
        for r in rows:
            assert r["estimate"] >= r["lower_envelope"]
        # heavy-tailed estimand: flag present in the schema
        assert all("heavy_tail" in r for r in rows)

    def test_k8_order_of_magnitude(self):
        (row,) = square_gaussian_divergence_probe([8], trials=240, seed=1)
        assert row["lower_envelope"] < row["estimate"] < 10 * row["upper_envelope"]

    def test_rectangular_control_is_finite(self):
        val = rectangular_inverse_trace(120, 0.8, trials=30, seed=2)
        assert val == pytest.approx(0.8 / 0.2, rel=0.1)


def t_sf_oracle(t, dof):
    """Survival function of Student t via the incomplete beta function."""
    x = dof / (dof + t * t)
    return 0.5 * betainc(dof / 2.0, 0.5, x)


def test_t_cdf_oracle_against_scipy():
    from scipy import stats

    for t, dof in [(4.3027, 2), (2.776, 4), (1.0, 7)]:
        assert stats.t.sf(t, dof) == pytest.approx(t_sf_oracle(t, dof), abs=1e-12)
