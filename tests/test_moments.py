import math
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etfspectra import frames as fr
from etfspectra import moments as mo
from etfspectra.manova import ManovaParams, manova_moment_numeric
from oracles import (catalan, contract_cycle, is_noncrossing, narayana,
                     tuple_expected_moment)


def all_set_partitions(elements):
    """Oracle: every set partition, by recursive placement."""
    elements = list(elements)
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for sub in all_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] + [first]] + sub[i + 1:]
        yield sub + [[first]]


def noncrossing_partitions(d):
    """Oracle: every set partition of {1..d} that passes is_noncrossing."""
    return [part for part in all_set_partitions(range(1, d + 1)) if is_noncrossing(part)]


def enumerated_census(d):
    """Oracle: contract the d-cycle along every non-crossing partition."""
    census = {}
    for part in noncrossing_partitions(d):
        by_cycles = census.setdefault(len(part), {})
        cycles = contract_cycle(part, d)
        by_cycles[cycles] = by_cycles.get(cycles, 0) + 1
    return census


class TestCombinatorics:
    def test_narayana_values(self):
        assert narayana(5, 2) == 10
        assert narayana(4, 2) == 6
        assert narayana(6, 3) == 50
        assert all(narayana(d, 1) == 1 for d in range(1, 10))

    def test_narayana_sums_to_catalan(self):
        for d in range(1, 12):
            assert sum(narayana(d, k) for k in range(1, d + 1)) == catalan(d)

    def test_is_noncrossing_detects_crossing(self):
        assert not is_noncrossing([(1, 3), (2, 4)])
        assert is_noncrossing([(1, 4), (2, 3)])


class TestContractCycle:
    def test_adjacent_pair_merge(self):
        assert contract_cycle([(1, 2), (3,), (4,)]) == (3,)

    def test_two_adjacent_pairs(self):
        assert contract_cycle([(1, 2), (3, 4)]) == (2,)

    def test_opposite_merge_gives_two_two_cycles(self):
        assert contract_cycle([(1, 3), (2,), (4,)]) == (2, 2)

    def test_identity_on_two_cycle(self):
        assert contract_cycle([(1,), (2,)]) == (2,)

    def test_single_block_contracts_away(self):
        assert contract_cycle([(1, 2, 3, 4)]) == ()

    def test_crossing_rejected(self):
        with pytest.raises(ValueError):
            contract_cycle([(1, 3), (2, 4)])

    def test_flower_of_petals(self):
        assert contract_cycle([(2, 4, 6), (1,), (3,), (5,)]) == (2, 2, 2)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_length_sum_rule(self, d):
        # sum of cycle lengths = k + s - 1 whenever any cycle survives
        for part in noncrossing_partitions(d):
            cycles = contract_cycle(part, d)
            if cycles:
                assert sum(cycles) == len(part) + len(cycles) - 1
            else:
                assert len(part) == 1


PRINTED = {
    2: {2: [0, 1]},
    3: {2: [0, 3], 3: [0, -1, 1]},
    4: {2: [0, 6], 3: [0, -4, 6], 4: [0, 1, -3, 1]},
    5: {2: [0, 10], 3: [0, -10, 20], 4: [0, 5, -20, 10], 5: [0, -1, 6, -6, 1]},
    6: {2: [0, 15], 3: [0, -20, 50], 4: [0, 15, -75, 50],
        5: [0, -6, 45, -60, 15], 6: [0, 1, -10, 20, -10, 1]},
}


class TestAsymptoticMoment:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_printed_polynomials(self, d):
        poly = mo.asymptotic_moment(d)
        assert poly.blocks[1] == (Fr(1),)
        for k, coeffs in PRINTED[d].items():
            got = list(poly.blocks[k]) + [Fr(0)] * (len(coeffs) - len(poly.blocks[k]))
            assert got == [Fr(c) for c in coeffs], (d, k)

    @pytest.mark.parametrize("d", range(1, mo.MAX_ASYMPTOTIC_D + 1))
    def test_p_one_specialization(self, d):
        expect = tuple(Fr(math.comb(d - 1, j)) for j in range(d))
        got = mo.asymptotic_moment(d).at_p_one()
        got = got + (Fr(0),) * (len(expect) - len(got))
        assert got == expect

    @pytest.mark.parametrize("d", range(2, 7))
    def test_full_cycle_block_is_narayana_polynomial(self, d):
        # coefficient of x^j in a_{d,d} is +-N(d-1, j) with alternating signs
        blk = mo.asymptotic_moment(d).blocks[d]
        expect = [Fr(0)] + [(-1) ** (d - 1 - j) * narayana(d - 1, j)
                            for j in range(1, d)]
        assert list(blk) == expect

    @pytest.mark.parametrize("d", range(2, mo.MAX_ASYMPTOTIC_D + 1))
    def test_census_multiplicities_sum_to_narayana(self, d):
        census = mo.partition_census(d)
        for k in range(2, d + 1):
            assert sum(census[k].values()) == narayana(d, k)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_census_matches_enumeration(self, d):
        assert mo.partition_census(d) == enumerated_census(d)

    def test_census_guard(self):
        for d in (0, mo.MAX_PARTITION_D + 1):
            with pytest.raises(ValueError):
                mo.partition_census(d)

    def test_printed_census_decompositions(self):
        census = mo.partition_census(6)
        assert census[3] == {(3,): 20, (2, 2): 30}
        assert census[4] == {(4,): 15, (2, 3): 30, (2, 2, 2): 5}
        assert census[5] == {(5,): 6, (2, 4): 6, (3, 3): 3}

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("beta,gamma", [(0.6, 0.25), (0.8, 0.5), (0.3, 0.5)])
    def test_numeric_evaluation_matches_quadrature(self, d, beta, gamma):
        params = ManovaParams(beta, gamma)
        x = 1.0 / gamma - 1.0
        poly = mo.asymptotic_moment(d)
        assert poly.evaluate(params.p, x) == pytest.approx(
            manova_moment_numeric(d, params), abs=1e-7)

    def test_coefficient_map(self):
        poly = mo.asymptotic_moment(3)
        assert poly.coefficients[(1, 0)] == 1
        assert poly.coefficients[(2, 1)] == 3
        assert poly.coefficients[(3, 2)] == 1
        assert (3, 0) not in poly.coefficients

    def test_guard(self):
        with pytest.raises(ValueError):
            mo.asymptotic_moment(13)

    @given(st.floats(0.0, 1.0), st.floats(0.1, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_evaluate_against_fraction_arithmetic(self, p, x):
        # oracle: exact Fraction evaluation of the stored coefficients
        poly = mo.asymptotic_moment(5)
        pf, xf = Fr(p), Fr(x)
        exact = sum(c * pf ** k * xf ** j for (k, j), c in poly.coefficients.items())
        assert poly.evaluate(p, x) == pytest.approx(float(exact), rel=1e-12)


class TestExactExpectedMoment:
    def test_dss7_a22_is_redundancy(self):
        poly = mo.exact_expected_moment(fr.construct_dss(7), 2)
        assert poly.a[2] == pytest.approx(4 / 3, abs=1e-10)

    def test_a32_is_three_a22(self):
        for F in [fr.construct_dss(7), fr.construct_lowpass_dft(8, 4),
                  fr.construct_random("gaussian_iid", 9, 4, seed=0, normalize_columns=True)]:
            p2 = mo.exact_expected_moment(F, 2)
            p3 = mo.exact_expected_moment(F, 3)
            assert p3.a[2] == pytest.approx(3 * p2.a[2], abs=1e-10)

    def test_dss7_a44_closed_form(self):
        x = 7 / 3 - 1
        poly = mo.exact_expected_moment(fr.construct_dss(7), 4)
        assert poly.a[4] == pytest.approx(x ** 3 - 3 * x ** 2 + x + x ** 2 / 6, abs=1e-9)

    def test_utf_a22_a33(self):
        for F in [fr.construct_lowpass_dft(8, 4), fr.construct_alltop(5, 2)]:
            x = F.n / F.m - 1.0
            assert mo.exact_expected_moment(F, 2).a[2] == pytest.approx(x, abs=1e-9)
            assert mo.exact_expected_moment(F, 3).a[3] == pytest.approx(
                x ** 2 - x, abs=1e-9)

    def test_constant_terms(self):
        poly = mo.exact_expected_moment(fr.construct_dss(7), 3)
        assert poly.a[0] == 0.0
        assert poly.a[1] == pytest.approx(1.0, abs=1e-12)

    def test_guard(self):
        # orders 1..8, and at d = 8 the stated cap of n = 286 vectors
        F = fr.construct_dss(7)
        for d in (0, 9):
            with pytest.raises(ValueError, match="d must be in 1..8"):
                mo.exact_expected_moment(F, d)
        assert mo._exact_work(8, 286) <= mo.MAX_EXACT_WORK < mo._exact_work(8, 287)
        F = fr.construct_random("gaussian_iid", 287, 2, seed=0)
        with pytest.raises(ValueError, match="above the guard"):
            mo.exact_expected_moment(F, 8)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_all_subsets_oracle_agrees(self, d):
        F = fr.construct_dss(7)
        poly = mo.exact_expected_moment(F, d)
        for p in (0.2, 0.5, 0.9):
            assert poly.evaluate(p) == pytest.approx(
                mo.all_subsets_expected_moment(F, d, p), abs=1e-9)

    @pytest.mark.parametrize("F", [
        fr.construct_dss(7), fr.construct_dss(31), fr.construct_real_paley(13),
        fr.construct_lowpass_dft(8, 4),
        fr.construct_random("gaussian_iid", 9, 4, seed=0, normalize_columns=True),
    ], ids=["dss7", "dss31", "paley13", "lowpass8", "gaussian9"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_tuple_oracle(self, F, d):
        got = np.array(mo.exact_expected_moment(F, d).a)
        want = tuple_expected_moment(fr.gram(F), d)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("F", [
        fr.construct_dss(7), fr.construct_dss(11), fr.construct_lowpass_dft(8, 4),
        fr.construct_random("gaussian_iid", 9, 4, seed=0, normalize_columns=True),
    ], ids=["dss7", "dss11", "lowpass8", "gaussian9"])
    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    def test_high_orders_equal_all_subsets_oracle(self, F, d):
        poly = mo.exact_expected_moment(F, d)
        assert poly.a[0] == 0.0
        for p in (0.2, 0.5, 0.9):
            assert poly.evaluate(p) == pytest.approx(
                mo.all_subsets_expected_moment(F, d, p), abs=1e-9)

    def test_slicing_leaves_the_coefficients(self, monkeypatch):
        # DSS(11) at d = 8 in slices of one index value for the K4 classes
        F = fr.construct_dss(11)
        whole = np.array(mo.exact_expected_moment(F, 8).a)
        monkeypatch.setattr(mo, "_SLICE_ELEMENTS", 64)
        sliced = np.array(mo.exact_expected_moment(F, 8).a)
        # the sums run in another order; the coefficients reach a few hundred
        assert np.max(np.abs(sliced - whole)) <= 1e-12 * np.max(np.abs(whole))

    @pytest.mark.parametrize("family", ["haar_complex", "haar_real"])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_program_is_the_contraction(self, d, family):
        # each class's compiled program against one einsum over the whole network
        G = fr.gram(fr.construct_random(family, 9, 5, seed=3))
        for cls in mo._moment_plan(d)[1]:
            ops = [np.diagonal(G) ** key[0] if len(key) == 1 else G ** key[0] * G.conj() ** key[1]
                   for key in cls.keys]
            want = np.einsum(cls.subs, *ops)
            assert abs(mo._contract(cls.path, ops) - want) <= 1e-12 * abs(want), cls.subs

    @pytest.mark.parametrize("d", [4, 8])
    def test_repeated_call_plans_nothing(self, d, monkeypatch):
        F = fr.construct_dss(7)
        first = mo.exact_expected_moment(F, d)
        einsum = np.einsum

        def planning(*args, **kwargs):
            raise AssertionError("a repeated call planned a contraction path")

        def einsum_without_path(*args, optimize=False, **kwargs):
            if optimize is not False:
                planning()
            return einsum(*args, **kwargs)

        monkeypatch.setattr(mo, "_elimination_path", planning)
        monkeypatch.setattr(np, "einsum_path", planning)
        monkeypatch.setattr(np, "einsum", einsum_without_path)
        assert mo.exact_expected_moment(F, d) == first

    @pytest.mark.parametrize("d", range(1, 9))
    def test_class_sizes_sum_to_bell(self, d):
        classes = mo._moment_plan(d)[1]
        assert sum(cls.size for cls in classes) == len(list(all_set_partitions(range(d))))
        assert len(classes) == {4: 7, 6: 37, 8: 354}.get(d, len(classes))


class TestTupleOracle:
    def test_guard(self):
        G = fr.gram(fr.construct_random("gaussian_iid", 200, 100, seed=0))
        with pytest.raises(ValueError):
            tuple_expected_moment(G, 4)
        with pytest.raises(ValueError):
            tuple_expected_moment(fr.gram(fr.construct_dss(7)), 5)


class TestEwbBound:
    def test_d2_closed_form(self):
        for p in (0.0, 0.3, 1.0):
            x = 1.0
            assert mo.ewb_bound(0.5, p, 2, 100) == pytest.approx(p + p * p * x)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_p_one_is_tight_frame_power(self, d):
        gamma = 0.5
        assert mo.ewb_bound(gamma, 1.0, d, 57) == pytest.approx((1 / gamma) ** (d - 1))

    def test_d4_plugin(self):
        # gamma=0.5 -> x=1; delta = 0.25 * 0.25 * 1/6 at p=0.5, n=7
        p, x = 0.5, 1.0
        mano = (p + p ** 2 * 6 * x + p ** 3 * (6 * x ** 2 - 4 * x)
                + p ** 4 * (x ** 3 - 3 * x ** 2 + x))
        val = mo.ewb_bound(0.5, p, 4, 7)
        assert val == pytest.approx(mano + 0.25 * 0.25 / 6, abs=1e-14)

    def test_d4_matches_exact_moment_on_etf(self):
        F = fr.construct_dss(7)
        poly = mo.exact_expected_moment(F, 4)
        for p in (0.25, 0.5, 0.75, 1.0):
            assert poly.evaluate(p) == pytest.approx(
                mo.ewb_bound(F.m / F.n, p, 4, F.n), abs=1e-9)

    def test_tight_non_etf_exceeds_at_d4(self):
        F = fr.construct_lowpass_dft(8, 4)
        poly = mo.exact_expected_moment(F, 4)
        assert poly.evaluate(0.5) > mo.ewb_bound(0.5, 0.5, 4, 8) + 1e-6

    def test_rejects_unsupported_order(self):
        with pytest.raises(ValueError):
            mo.ewb_bound(0.5, 0.5, 5, 10)


class TestEmpiricalMoment:
    def test_first_moment_estimates_p(self):
        F = fr.construct_dss(31)
        mean, stderr = mo.empirical_moment(F, 1, trials=300, seed=1, p=0.4)
        assert abs(mean - 0.4) < 3 * stderr

    def test_p_one_deterministic_tight_value(self):
        F = fr.construct_dss(7)
        for d in (1, 2, 3):
            mean, _ = mo.empirical_moment(F, d, trials=4, seed=0, p=1.0)
            assert mean == pytest.approx((3 / 7) * (7 / 3) ** d, abs=1e-9)

    def test_p_zero(self):
        F = fr.construct_dss(7)
        mean, _ = mo.empirical_moment(F, 2, trials=10, seed=0, p=0.0)
        assert mean == 0.0

    def test_uniform_k_mode(self):
        F = fr.construct_dss(11)
        mean, stderr = mo.empirical_moment(F, 1, trials=50, seed=2, k=4)
        assert mean == pytest.approx(4 / 11, abs=1e-9)  # trace identity, no MC noise

    def test_argument_validation(self):
        F = fr.construct_dss(7)
        with pytest.raises(ValueError):
            mo.empirical_moment(F, 1, trials=5, seed=0)
        with pytest.raises(ValueError):
            mo.empirical_moment(F, 1, trials=5, seed=0, p=0.5, k=2)


class TestCrossingDecay:
    def test_dss7_value(self):
        F = fr.construct_dss(7)
        assert mo.crossing_term(F) == pytest.approx((4 / 3) ** 2 / 6, abs=1e-12)

    def test_dss31_value(self):
        F = fr.construct_dss(31)
        x = 31 / 15 - 1
        assert mo.crossing_term(F) == pytest.approx(x ** 2 / 30, abs=1e-12)

    def test_dss_d4_gap_is_the_ewb_delta(self):
        # a_{4,k} - A_{4,k}(x) = x^2/(n-1) * (1, -2, 1) on p^2, p^3, p^4
        for n in (7, 19, 31):
            F = fr.construct_dss(n)
            x = F.n / F.m - 1.0
            exact = mo.exact_expected_moment(F, 4).a
            limit = [mo._poly_eval(blk, x) for blk in mo.asymptotic_moment(4).blocks]
            delta = x ** 2 / (n - 1)
            for k, want in enumerate((0.0, 0.0, delta, -2 * delta, delta)):
                assert exact[k] - limit[k] == pytest.approx(want, abs=1e-12)

    def test_probe_rows_and_decay(self):
        rows = mo.crossing_decay_probe("dss", [7, 11, 19, 31])
        for row in rows:
            assert row["value"] == pytest.approx(row["etf_value"], abs=1e-9)
            assert sorted(row["n_times_gap"]) == [4, 5, 6, 7, 8]
            assert row["n_times_gap"][4] == pytest.approx(
                2 * row["n"] * row["etf_value"], abs=1e-9)
        # n times the gap falls with n at every order on an ETF ladder
        for d in range(4, 9):
            gaps = [row["n_times_gap"][d] for row in rows]
            assert gaps == sorted(gaps, reverse=True)
        # n * value stays bounded: the contribution decays like 1/n
        scaled = [row["n_times_value"] for row in rows]
        assert max(scaled) / min(scaled) < 2.5
