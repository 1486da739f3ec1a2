import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etfspectra import spectra as sp
from etfspectra.functionals import FunctionalSpec, evaluate, limiting_value
from etfspectra.manova import ManovaDistribution, ManovaParams, inverse_moment_amplification
from etfspectra.rng import derive_rng
from oracles import spectrum

AC = FunctionalSpec("ac")
RIP = FunctionalSpec("rip")


class TestEvaluate:
    def test_identity_gram(self):
        ones = spectrum(np.ones(5))
        assert evaluate(RIP, ones) == 0.0
        assert evaluate(AC, ones) == pytest.approx(1.0)
        assert evaluate(FunctionalSpec("cond"), ones) == pytest.approx(1.0)

    def test_ac_hand_arithmetic(self):
        # (mean of 1/x) * (mean of x) on {0.5, 1.5}: ((2 + 2/3)/2) * 1 = 4/3
        assert evaluate(AC, spectrum([0.5, 1.5])) == pytest.approx(4 / 3, abs=1e-14)

    def test_shannon_alpha_zero(self):
        spec = FunctionalSpec("shannon", alpha=0.0)
        assert evaluate(spec, spectrum([0.4, 1.2, 2.0])) == 0.0

    def test_shannon_identity_value(self):
        spec = FunctionalSpec("shannon", alpha=3.0)
        assert evaluate(spec, spectrum(np.ones(4))) == pytest.approx(math.log2(4.0))

    def test_ac_zero_eigenvalue_diverges(self):
        assert evaluate(AC, spectrum([0.0, 1.0])) == math.inf

    def test_rip_strip(self):
        vals = spectrum([0.7, 1.2])
        assert evaluate(RIP, vals) == pytest.approx(0.3)
        assert evaluate(FunctionalSpec("strip", delta=0.31), vals) == 1.0
        assert evaluate(FunctionalSpec("strip", delta=0.29), vals) == 0.0

    def test_max_min(self):
        vals = spectrum([0.7, 1.2])
        assert evaluate(FunctionalSpec("max"), vals) == 1.2
        assert evaluate(FunctionalSpec("min"), vals) == pytest.approx(0.7)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FunctionalSpec("strip")
        with pytest.raises(ValueError):
            FunctionalSpec("shannon", alpha=-1.0)
        with pytest.raises(ValueError):
            FunctionalSpec("curvature")

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_ac_at_least_one(self, vals):
        # arithmetic-harmonic mean inequality; equality iff constant
        vals = np.array(vals)
        ac = evaluate(AC, spectrum(vals))
        assert ac >= 1.0 - 1e-12
        if vals.max() - vals.min() > 1e-6 * vals.max():
            assert ac > 1.0

    @given(st.lists(st.floats(0.0, 8.0), min_size=1, max_size=20),
           st.floats(0.0, 4.0), st.floats(0.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_shannon_monotone_in_alpha(self, vals, a1, a2):
        lo, hi = sorted([a1, a2])
        vals = spectrum(vals)
        v_lo = evaluate(FunctionalSpec("shannon", alpha=lo), vals)
        v_hi = evaluate(FunctionalSpec("shannon", alpha=hi), vals)
        assert v_hi >= v_lo - 1e-12


class TestLimitingValue:
    def test_ac_limit_is_amplification(self):
        assert limiting_value(AC, ManovaParams(0.8, 0.5)) == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("beta, gamma", [(0.8, 0.5), (0.8, 0.0), (0.25, 0.4), (0.5, 0.9),
                                             (0.9, 0.7), (0.6, 0.25), (0.95, 0.1)])
    def test_ac_limit_is_closed_form(self, beta, gamma):
        # gamma = 0 is Marchenko-Pastur; (0.5, 0.9) and (0.9, 0.7) have p + gamma > 1
        params = ManovaParams(beta, gamma)
        limit = limiting_value(AC, params)
        assert limit == inverse_moment_amplification(beta, params.p)
        law = ManovaDistribution(params)  # oracle: both moments by quadrature
        assert limit == pytest.approx(law.moment(-1) * law.moment(1), rel=1e-14)

    def test_rip_limit_edge_formula(self):
        params = ManovaParams(0.8, 0.5)
        e = ManovaDistribution(params).edges
        assert limiting_value(RIP, params) == pytest.approx(
            max(e.r_plus - 1, 1 - e.r_minus), abs=1e-14)

    def test_max_min_cond(self):
        params = ManovaParams(0.8, 0.5)
        e = ManovaDistribution(params).edges
        assert limiting_value(FunctionalSpec("max"), params) == pytest.approx(e.r_plus)
        assert limiting_value(FunctionalSpec("min"), params) == pytest.approx(e.r_minus)
        assert limiting_value(FunctionalSpec("cond"), params) == pytest.approx(
            e.r_plus / e.r_minus)

    @pytest.mark.parametrize("kind", ("rip", "strip", "max", "min", "cond"))
    def test_extremes_at_gamma_one_match_ensemble(self, kind):
        # at m = n the edges meet at 1 - beta, which carries no mass: the law
        # is the atom at 1, and so is every ensemble spectrum
        spec = FunctionalSpec(kind, delta=0.1 if kind == "strip" else None)
        n, k = 40, 20
        limit = limiting_value(spec, ManovaParams.from_counts(n, n, k))
        rng = derive_rng(3)
        for field in ("complex", "real"):
            value = evaluate(spec, sp.sample_manova_ensemble(n, n, k, field, rng))
            assert value == pytest.approx(limit, abs=1e-12)

    def test_mp_ac_exceeds_manova_ac(self):
        # lower is better: the MANOVA law strictly beats Marchenko-Pastur
        beta = 0.8
        mp = limiting_value(AC, ManovaParams(beta, 0.0))
        man = limiting_value(AC, ManovaParams(beta, 0.5))
        assert mp == pytest.approx(1 / (1 - beta), abs=1e-7)
        assert mp > man

    def test_mp_shannon_below_manova(self):
        spec = FunctionalSpec("shannon", alpha=1.0)
        man = limiting_value(spec, ManovaParams(0.8, 0.5))
        mp = limiting_value(spec, ManovaParams(0.8, 0.0))
        assert man > mp  # higher is better

    def test_ac_limit_rejects_beta_one(self):
        with pytest.raises(ValueError):
            limiting_value(AC, ManovaParams(1.0, 0.5))


@pytest.mark.parametrize("spec,alpha_tag", [(AC, "ac"), (FunctionalSpec("shannon", alpha=1.0), "shannon")])
def test_monte_carlo_converges_to_limit(spec, alpha_tag):
    n, m, k = 500, 250, 200
    params = ManovaParams.from_counts(n, m, k)
    limit = limiting_value(spec, params)
    rng = derive_rng(17)
    vals = np.array([
        evaluate(spec, sp.sample_manova_ensemble(n, m, k, "complex", rng))
        for _ in range(400)])
    stderr = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - limit) < 5 * stderr
