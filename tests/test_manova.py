import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from etfspectra import manova as mv
from etfspectra import spectra as sp
from etfspectra.rng import derive_rng
from oracles import cdf_quad, eta_normalized, eta_tilde, integrate_quad, z_eta_limit

GRID = [(b, g) for b in (0.3, 0.6, 0.8, 0.9) for g in (0.25, 0.5)]

# fixed before the rule was compared with quad: every (beta, gamma) with
# p <= 1, and p = 1 - eps approached along three gammas
LAW_GRID = [(b, g) for b in (0.3, 0.8, 0.999, 1.0, 1.5) for g in (0.0, 0.25, 0.5, 0.9)
            if b * g <= 1.0]
QUAD_GRID = (LAW_GRID
             + [((1.0 - eps) / g, g) for g in (0.25, 0.5, 0.9) for eps in (1e-3, 1e-6, 1e-9)])

# p + gamma = 1 - e puts r+ next to the 1/gamma pole: 1 - gamma r+ = delta+ < 1e-9
NEAR_POLE = [((0.5 - e) / 0.5, 0.5) for e in (3e-5, 1e-5, 1e-10)]


def rho_gamma_p(t, gamma, p):
    """Oracle: the (gamma, p) parameterization written out directly."""
    s = math.sqrt((p / gamma) * (1 - gamma))
    u = math.sqrt(1 - p)
    r_minus, r_plus = (s - u) ** 2, (s + u) ** 2
    if not r_minus < t < r_plus:
        return 0.0
    return (gamma * math.sqrt((t - r_minus) * (r_plus - t))
            / (2 * math.pi * t * (1 - gamma * t) * min(p, gamma)))


class TestDensity:
    def test_edges_plugin(self):
        e = mv.support_edges(mv.ManovaParams(0.8, 0.5))
        assert e.r_minus == pytest.approx((math.sqrt(0.4) - math.sqrt(0.6)) ** 2, abs=1e-15)
        assert e.r_plus == pytest.approx((math.sqrt(0.4) + math.sqrt(0.6)) ** 2, abs=1e-15)

    @pytest.mark.parametrize("beta,gamma", GRID + [(0.9, 0.9), (1.6, 0.5)])
    def test_total_mass_one(self, beta, gamma):
        dist = mv.ManovaDistribution(mv.ManovaParams(beta, gamma))
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-8)

    def test_mass_check_by_plain_quadrature(self):
        # independent oracle: integrate the raw density formula without the
        # trigonometric substitution
        params = mv.ManovaParams(0.8, 0.5)
        lo, hi = mv.support_edges(params)
        val, _ = integrate.quad(lambda x: mv.manova_density(x, params), lo, hi,
                                limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_mp_limit_small_gamma(self):
        # the gap to MP = MANOVA(beta, 0) shrinks linearly in gamma (~1.5e-4
        # per 1e-3 of gamma in the bulk at beta = 0.8)
        mp = mv.ManovaParams(0.8, 0.0)
        assert mv.manova_density(0.8, mv.ManovaParams(0.8, 1e-3)) == pytest.approx(
            mv.manova_density(0.8, mp), abs=1e-4)
        for x in [0.3, 0.8, 1.2, 1.8, 2.5]:
            gap_1 = abs(mv.manova_density(x, mv.ManovaParams(0.8, 1e-3))
                        - mv.manova_density(x, mp))
            gap_2 = abs(mv.manova_density(x, mv.ManovaParams(0.8, 2.5e-4))
                        - mv.manova_density(x, mp))
            assert gap_2 < 5e-5
            assert gap_2 == pytest.approx(gap_1 / 4, rel=0.05)

    def test_atom_for_beta_above_one(self):
        atoms = mv.manova_atoms(mv.ManovaParams(1.5, 0.5))
        assert atoms[0] == mv.Atom(0.0, pytest.approx(1 - 1 / 1.5))

    def test_top_atom_mass(self):
        atoms = mv.manova_atoms(mv.ManovaParams(0.9, 0.9))
        (atom,) = atoms
        assert atom.location == pytest.approx(1 / 0.9)
        assert atom.mass == pytest.approx(1 + 1 / 0.9 - 1 / 0.81, abs=1e-12)

    def test_density_at_an_atom_is_the_continuous_part(self):
        assert mv.manova_density(0.0, mv.ManovaParams(1.5, 0.5)) == 0.0
        assert mv.manova_density(1 / 0.9, mv.ManovaParams(0.9, 0.9)) == 0.0

    def test_gamma_p_parameterization_matches_pointwise(self):
        for beta, gamma in [(0.8, 0.5), (1.6, 0.5), (0.6, 0.25)]:
            params = mv.ManovaParams(beta, gamma)
            p = params.p
            scale = max(1.0, beta)  # stripped-zero renormalization
            for t in np.linspace(*mv.support_edges(params), 17)[1:-1]:
                assert scale * mv.manova_density(t, params) == pytest.approx(
                    rho_gamma_p(t, gamma, p), abs=1e-10)


class TestCdf:
    def test_zero_at_lower_edge(self):
        params = mv.ManovaParams(0.8, 0.5)
        dist = mv.ManovaDistribution(params)
        assert dist.cdf(dist.edges.r_minus) == pytest.approx(0.0, abs=1e-12)

    def test_one_at_infinity(self):
        dist = mv.ManovaDistribution(mv.ManovaParams(0.8, 0.5))
        assert dist.cdf(1e9) == pytest.approx(1.0, abs=1e-8)

    def test_grid_cdf_matches_quad(self):
        dist = mv.ManovaDistribution(mv.ManovaParams(0.8, 0.5))
        for x in np.linspace(dist.edges.r_minus, dist.edges.r_plus, 9):
            assert dist.cdf(x) == pytest.approx(cdf_quad(dist, x), abs=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.9])
    def test_grid_cdf_at_beta_one(self, gamma):
        # r- = 0 makes the theta weight 0/0 at theta = 0; gamma = 1/2 also
        # puts the top edge on the pole at 1/gamma
        dist = mv.ManovaDistribution(mv.ManovaParams(1.0, gamma))
        xs = np.linspace(dist.edges.r_minus, dist.edges.r_plus, 9)
        cdf = dist.cdf(xs)
        assert np.all(np.isfinite(cdf)) and np.all(np.diff(cdf) >= 0)
        for x, c in zip(xs, cdf):
            assert c == pytest.approx(cdf_quad(dist, x), abs=1e-9)

    @pytest.mark.parametrize("beta,gamma", QUAD_GRID + NEAR_POLE)
    def test_all_mass_below_infinity(self, beta, gamma):
        law = mv.ManovaDistribution(mv.ManovaParams(beta, gamma))
        assert law.cdf(1e9) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta,gamma", QUAD_GRID + NEAR_POLE)
    def test_monotone_and_finite_on_a_fine_grid(self, beta, gamma):
        # (1, 0.5) has r- = 0 and r+ on the pole, where tan(theta - phi) is
        # 0/0 at the top edge
        law = mv.ManovaDistribution(mv.ManovaParams(beta, gamma))
        lo, hi = law.edges
        xs = np.sort(np.concatenate((np.linspace(lo, hi, 2001),
                                     [lo - 1.0, 0.0, np.nextafter(hi, 0.0), 1e9])))
        cdf = law.cdf(xs)
        assert np.all(np.isfinite(cdf))
        assert np.all(np.diff(cdf) >= -1e-15)  # a few rounding units of 1

    @pytest.mark.parametrize("beta,gamma", LAW_GRID)
    def test_slope_is_the_density(self, beta, gamma):
        law = mv.ManovaDistribution(mv.ManovaParams(beta, gamma))
        lo, hi = law.edges
        xs = lo + (hi - lo) * np.linspace(0.05, 0.95, 19)
        h = 1e-5 * (hi - lo)
        slope = (law.cdf(xs + h) - law.cdf(xs - h)) / (2.0 * h)
        np.testing.assert_allclose(slope, law.pdf(xs), rtol=1e-7)

    def test_median_of_large_ensemble_sample(self):
        # MC oracle: pooled ensemble eigenvalues straddle the CDF = 1/2 point
        rng = derive_rng(11)
        pool = np.concatenate([
            sp.sample_manova_ensemble(1000, 500, 400, "complex", rng).eigenvalues
            for _ in range(60)])
        dist = mv.ManovaDistribution(mv.ManovaParams(0.8, 0.5))
        assert dist.cdf(np.median(pool)) == pytest.approx(0.5, abs=0.01)

    def test_monotone(self):
        dist = mv.ManovaDistribution(mv.ManovaParams(0.9, 0.9))
        xs = np.linspace(-0.5, 1.3 / 0.9, 400)
        assert np.all(np.diff(dist.cdf(xs)) >= -1e-12)


class TestMarchenkoPastur:
    """MP(beta) is MANOVA(beta, gamma = 0)."""

    def test_integrates_to_one(self):
        mp = mv.ManovaDistribution(mv.ManovaParams(0.8, 0.0))
        assert mp.moment(0) == pytest.approx(1.0, abs=1e-8)

    def test_edges(self):
        lo, hi = mv.support_edges(mv.ManovaParams(0.8, 0.0))
        assert lo == pytest.approx((1 - math.sqrt(0.8)) ** 2)
        assert hi == pytest.approx((1 + math.sqrt(0.8)) ** 2)

    def test_degenerate_limit_concentrates(self):
        lo, hi = mv.support_edges(mv.ManovaParams(1e-6, 0.0))
        assert lo == pytest.approx(1.0, abs=3e-3)
        assert hi == pytest.approx(1.0, abs=3e-3)

    def test_inverse_moment_closed_form(self):
        # known: E[1/X] = 1/(1-beta) for MP(beta)
        mp = mv.ManovaDistribution(mv.ManovaParams(0.8, 0.0))
        assert mp.moment(-1) == pytest.approx(5.0, abs=1e-7)


class TestMoments:
    @pytest.mark.parametrize("beta,gamma", GRID)
    def test_first_moment_is_p(self, beta, gamma):
        params = mv.ManovaParams(beta, gamma)
        assert mv.manova_moment_numeric(1, params) == pytest.approx(params.p, abs=1e-8)

    def test_second_moment_value(self):
        params = mv.ManovaParams(beta=0.4 / 0.5, gamma=0.5)
        assert mv.manova_moment_numeric(2, params) == pytest.approx(0.56, abs=1e-8)

    @pytest.mark.parametrize("beta,gamma", GRID)
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_numeric_matches_closed(self, beta, gamma, d):
        params = mv.ManovaParams(beta, gamma)
        assert mv.manova_moment_numeric(d, params) == pytest.approx(
            mv.manova_moment_closed(d, params), abs=1e-7)

    def test_inverse_moment_lambda_form(self):
        params = mv.ManovaParams(0.8, 0.5)
        raw = mv.manova_moment_numeric(-1, params)
        assert raw / params.p == pytest.approx(
            mv.inverse_moment_amplification(0.8, params.p), abs=1e-6)

    def test_inverse_moment_needs_beta_below_one(self):
        with pytest.raises(ValueError):
            mv.manova_moment_numeric(-1, mv.ManovaParams(1.5, 0.5))


class TestMidpointRule:
    """ManovaDistribution.integrate against adaptive quadrature."""

    @pytest.mark.parametrize("beta,gamma", QUAD_GRID)
    def test_matches_quad(self, beta, gamma):
        law = mv.ManovaDistribution(mv.ManovaParams(beta, gamma))
        fns = {f"x^{d}": (lambda d: lambda x: x ** float(d))(d)
               for d in range(-1 if beta < 1.0 else 0, 7)}
        fns.update({f"shannon alpha={a}": (lambda a: lambda x: np.log2(1.0 + a * x))(a)
                    for a in (0.1, 1.0, 1e3)})
        for name, fn in fns.items():
            want = integrate_quad(law, fn)
            assert law.integrate(fn) == pytest.approx(want, rel=1e-11), name

    def test_discontinuous_integrand_raises(self):
        law = mv.ManovaDistribution(mv.ManovaParams(0.8, 0.5))
        step = math.sqrt(law.edges.r_minus * law.edges.r_plus)
        with pytest.raises(ArithmeticError, match=r"beta=0\.8, gamma=0\.5"):
            law.integrate(lambda x: (x < step).astype(float))


class TestEdgeCases:
    """gamma = 1 and beta * gamma -> 1, where the continuous part empties;
    any RuntimeWarning (a 0/0 in the weight) fails the test."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.0 - 1e-9])
    def test_gamma_one_is_the_atom_at_one(self, beta):
        law = mv.ManovaDistribution(mv.ManovaParams(beta, 1.0))
        assert law.total_mass() == 1.0
        assert law.moment(2) == 1.0
        assert list(law.cdf([0.5, 1.0])) == [0.0, 1.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_p_to_one_from_below(self, gamma, eps):
        params = mv.ManovaParams((1.0 - eps) / gamma, gamma)
        law = mv.ManovaDistribution(params)
        assert law.total_mass() == pytest.approx(1.0, abs=1e-8)
        assert law.moment(2) == pytest.approx(
            mv.manova_moment_closed(2, params) / params.p, abs=1e-8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, m", [(11, 9), (17, 3), (17, 6)])
    def test_every_column_selected(self, n, m):
        # k = n gives p = (n/m)(m/n), which rounds to 1 + 2.2e-16 here
        params = mv.ManovaParams.from_counts(n, m, n)
        assert params.p > 1.0
        law = mv.ManovaDistribution(params)
        assert law.cdf(1e9) == pytest.approx(1.0, abs=1e-12)
        assert law.moment(1) == pytest.approx(mv.manova_moment_closed(1, params) / params.p,
                                              abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", [mv.ManovaParams(0.8, 5 / 9), mv.ManovaParams(0.6, 0.625),
                                        mv.ManovaParams(0.5, 2 / 3),
                                        mv.ManovaParams.from_counts(776, 431, 345)],
                             ids=["0.8,5/9", "0.6,0.625", "0.5,2/3", "rung-776"])
    def test_cdf_with_top_edge_on_the_pole(self, params):
        # p + gamma = 1 with beta != 1: r+ sits on the density's 1/gamma
        # pole and there is no atom at the top
        assert params.p + params.gamma == pytest.approx(1.0, abs=1e-15)
        law = mv.ManovaDistribution(params)
        xs = np.linspace(law.edges.r_minus, law.edges.r_plus, 9)
        cdf = law.cdf(np.append(xs, 1e9))
        assert np.all(np.isfinite(cdf)) and np.all(np.diff(cdf) >= 0)
        for x, c in zip(xs, cdf):
            assert c == pytest.approx(cdf_quad(law, x), abs=1e-9)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-9)


class TestAmplification:
    def test_table_values(self):
        assert mv.inverse_moment_amplification(0.8, 0.4) == pytest.approx(3.0)
        assert mv.inverse_moment_amplification(0.6, 0.3) == pytest.approx(1.75)

    def test_channel_side(self):
        assert mv.inverse_moment_amplification(2.0, 0.5) == pytest.approx(1.5)

    def test_beta_one_diverges(self):
        with pytest.raises(ZeroDivisionError):
            mv.inverse_moment_amplification(1.0, 0.5)

    @given(st.floats(0.05, 0.95), st.floats(0.0, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_at_least_one(self, beta, p):
        if p >= beta:  # source side needs p < beta (gamma <= 1)
            p = 0.99 * beta
        assert mv.inverse_moment_amplification(beta, p) >= 1.0


class TestEtaChain:
    def test_eta_at_zero_is_one(self):
        assert eta_tilde(0.5, 0.6, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert eta_normalized(0.5, 0.6, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_eta_tilde_limit_is_erased_fraction(self):
        assert eta_tilde(0.5, 0.6, 1e9) == pytest.approx(0.6, abs=1e-6)

    def test_z_eta_limit_plugin(self):
        assert z_eta_limit(0.5, 0.6) == pytest.approx(6.0)

    def test_z_eta_limit_matches_finite_z(self):
        s, t = 0.5, 0.75
        z = 1e10
        assert z * eta_normalized(s, t, z) == pytest.approx(
            z_eta_limit(s, t), rel=1e-4)

    def test_equal_fractions_diverge(self):
        with pytest.raises(ZeroDivisionError):
            z_eta_limit(0.5, 0.5)

    def test_chain_consistency_with_amplification(self):
        # s = 1 - gamma, t = 1 - p: gamma * limit is the mean inverse
        # eigenvalue of the min(k, m)-normalized subset Gram, which is the
        # source-side amplification
        beta, gamma = 0.8, 0.5
        p = beta * gamma
        lam = gamma * z_eta_limit(1 - gamma, 1 - p)
        assert lam == pytest.approx(mv.inverse_moment_amplification(beta, p), abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        mv.ManovaParams(0.8, 1.5)
    with pytest.raises(ValueError):
        mv.ManovaParams(0.8, -0.1)
    with pytest.raises(ValueError):
        mv.ManovaParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        mv.ManovaParams(3.0, 0.5)  # p > 1
    params = mv.ManovaParams.from_counts(863, 431, 345)
    assert params.p == pytest.approx(345 / 863)
