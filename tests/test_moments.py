import math
import tracemalloc
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etfspectra import frames as fr
from etfspectra import moments as mo
from etfspectra.manova import ManovaParams, manova_moment_closed, manova_moment_numeric
from oracles import (HARMONIC, catalan, contract_cycle, is_noncrossing, narayana,
                     rolled_dss, shifted_dss, tuple_expected_moment, unit_norm_gaussian,
                     without_row)


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
        assert poly.blocks[1] == (1,)
        for k, coeffs in PRINTED[d].items():
            got = list(poly.blocks[k]) + [0] * (len(coeffs) - len(poly.blocks[k]))
            assert got == coeffs, (d, k)

    @pytest.mark.parametrize("d", range(1, mo.MAX_ASYMPTOTIC_D + 1))
    def test_p_one_specialization(self, d):
        expect = tuple(math.comb(d - 1, j) for j in range(d))
        got = mo.asymptotic_moment(d).at_p_one()
        got = got + (0,) * (len(expect) - len(got))
        assert got == expect

    @pytest.mark.parametrize("d", range(1, mo.MAX_ASYMPTOTIC_D + 1))
    def test_coefficients_are_ints(self, d):
        poly = mo.asymptotic_moment(d)
        assert all(type(c) is int for blk in poly.blocks for c in blk)
        assert all(type(c) is int for c in poly.coefficients.values())
        assert all(type(c) is int for c in poly.at_p_one())

    @pytest.mark.parametrize("d", range(2, mo.MAX_ASYMPTOTIC_D + 1))
    def test_full_cycle_block_is_narayana_polynomial(self, d):
        # coefficient of x^j in a_{d,d} is +-N(d-1, j) with alternating signs
        blk = mo.asymptotic_moment(d).blocks[d]
        expect = [0] + [(-1) ** (d - 1 - j) * narayana(d - 1, j)
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

    @pytest.mark.parametrize("d", range(1, mo.MAX_ASYMPTOTIC_D + 1))
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
                  unit_norm_gaussian(9, 4, seed=0)]:
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
        unit_norm_gaussian(9, 4, seed=0),
    ], ids=["dss7", "dss31", "paley13", "lowpass8", "gaussian9"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_tuple_oracle(self, F, d):
        got = np.array(mo.exact_expected_moment(F, d).a)
        want = tuple_expected_moment(fr.gram(F), d)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("F", [
        fr.construct_dss(7), fr.construct_dss(11), fr.construct_lowpass_dft(8, 4),
        unit_norm_gaussian(9, 4, seed=0),
    ], ids=["dss7", "dss11", "lowpass8", "gaussian9"])
    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    def test_high_orders_equal_all_subsets_oracle(self, F, d):
        poly = mo.exact_expected_moment(F, d)
        assert poly.a[0] == 0.0
        for p in (0.2, 0.5, 0.9):
            assert poly.evaluate(p) == pytest.approx(
                mo.all_subsets_expected_moment(F, d, p), abs=1e-9)

    def test_slicing_leaves_the_coefficients(self, monkeypatch):
        # DSS(11) at d = 8 on the general path, in slices of one index value
        # for the K4 classes (the shift-invariant path never slices)
        F = without_row(fr.construct_dss(11))
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
        for net in mo._moment_plan(d).networks:
            ops = [np.diagonal(G) ** key[0] if len(key) == 1 else G ** key[0] * G.conj() ** key[1]
                   for key in net.keys]
            want = np.einsum(net.subs, *ops)
            assert abs(mo._contract(net.path, ops) - want) <= 1e-12 * abs(want), net.subs

    @pytest.mark.parametrize("d", [4, 8])
    def test_repeated_call_plans_nothing(self, d, monkeypatch):
        # DSS(7) on the shift-invariant path and, without its row, the general one
        frames = [fr.construct_dss(7), without_row(fr.construct_dss(7))]
        first = [mo.exact_expected_moment(F, d) for F in frames]
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
        assert [mo.exact_expected_moment(F, d) for F in frames] == first

    @pytest.mark.parametrize("d", range(1, 9))
    def test_class_sizes_sum_to_bell(self, d):
        sizes = mo._moment_plan(d).sizes
        assert sum(sizes) == len(list(all_set_partitions(range(d))))
        assert len(sizes) == {4: 7, 6: 37, 8: 354}.get(d, len(sizes))


def saved_and_loaded(F, path):
    from etfspectra import frameio

    frameio.save_frame(F, str(path))
    return frameio.load_frame(str(path))


def general_path_only(monkeypatch):
    """Make the shift-invariant plan raise, so that a call passes only on
    the general path."""
    plan = mo._moment_plan

    def general(d, shift=False):
        assert not shift, "took the shift-invariant path"
        return plan(d)

    monkeypatch.setattr(mo, "_moment_plan", general)


class TestShiftInvariantPath:
    @pytest.mark.parametrize("frame", HARMONIC)
    @pytest.mark.parametrize("d", range(1, 9))
    def test_equals_general_path(self, frame, d):
        F = HARMONIC[frame]()
        got = np.array(mo.exact_expected_moment(F, d).a)
        want = np.array(mo.exact_expected_moment(without_row(F), d).a)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [7, 8])
    def test_equals_general_path_at_dss199(self, d):
        F = fr.construct_dss(199)
        got = np.array(mo.exact_expected_moment(F, d).a)
        want = np.array(mo.exact_expected_moment(without_row(F), d).a)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("F", [
        fr.construct_dss(19), shifted_dss(19, 3), rolled_dss(19, 4),
        fr.construct_lowpass_dft(20, 7), fr.construct_random_spectrum_dft(20, 9, seed=1),
        fr.construct_complex_paley(23),
    ], ids=["dss19", "dss19_shifted", "dss19_rolled", "lowpass20", "random_spectrum20",
            "complex_paley23"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_tuple_oracle(self, F, d):
        assert F.circulant_row is not None
        got = np.array(mo.exact_expected_moment(F, d).a)
        assert np.max(np.abs(got - tuple_expected_moment(fr.gram(F), d))) <= 1e-12

    @pytest.mark.parametrize("build", [
        lambda _: fr.FrameMatrix(fr.construct_dss(31).entries[:, np.random.default_rng(5)
                                                              .permutation(31)], "dss"),
        lambda tmp_path: saved_and_loaded(fr.construct_dss(31), tmp_path / "dss.json"),
        lambda _: fr.construct_spikes_sines(8),
        lambda _: fr.construct_real_paley(13),
        lambda _: fr.construct_random("gaussian_iid", 12, 5, seed=2),
    ], ids=["dss31_permuted", "dss31_loaded", "spikes_sines8", "paley13", "gaussian12"])
    def test_other_frames_take_the_general_path(self, build, tmp_path, monkeypatch):
        F = build(tmp_path)
        assert F.circulant_row is None
        first = [mo.exact_expected_moment(F, d) for d in (4, 8)]
        general_path_only(monkeypatch)
        assert [mo.exact_expected_moment(F, d) for d in (4, 8)] == first

    @pytest.mark.parametrize("d", range(1, 9))
    def test_program_is_the_contraction(self, d):
        # each class's general network against c^L times its shift-invariant
        # network (the same or the conjugate sum) summed over every index,
        # 'a' too, on a Gram that is not circulant and whose diagonal is the
        # constant c = 2; the empty network sums to n there.  The einsum runs
        # pairwise: summed one term at a time, n = 19 loses 1e-12 at d = 8
        G = 2 * fr.gram(fr.FrameMatrix(fr.construct_dss(19).entries[
            :, np.random.default_rng(4).permutation(19)], "dss"))

        def operands(net):
            return [np.diagonal(G) ** key[0] if len(key) == 1
                    else G ** key[0] * G.conj() ** key[1] for key in net.keys]

        general, shift = mo._moment_plan(d), mo._moment_plan(d, True)
        assert np.array_equal(general.sizes, shift.sizes)
        assert np.array_equal(general.loops, shift.loops)
        for c, loops in enumerate(shift.loops):
            cls = general.networks[general.index[c]]
            net = shift.networks[shift.index[c]]
            assert not any(len(key) == 1 for key in net.keys)
            want = np.einsum(cls.subs, *operands(cls), optimize="greedy")
            got = 2.0 ** loops * (mo._contract(net.path, operands(net)) if net.path else len(G))
            assert min(abs(got - want), abs(got - want.conjugate())) <= 1e-12 * abs(want), \
                (cls.subs, net.subs)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_steps_and_intermediates(self, d):
        # with 'a' fixed, no step costs more than n^3 (n^2 below d = 8) and
        # no intermediate holds more than n^2 values; the empty network
        # (the single block) has no step
        networks = [net for net in mo._moment_plan(d, True).networks if net.path]
        for net in networks:
            assert max(net.steps) <= (3 if d == 8 else 2)
            assert net.rank <= 2
            assert all(t[0] == "a" for t, cut in zip(net.subs[:-2].split(","), net.sliced) if cut)
            assert "a" not in "".join(t for t, cut in zip(net.subs[:-2].split(","), net.sliced)
                                      if not cut)

    @pytest.mark.parametrize("d, networks", [(4, 5), (8, 117)])
    def test_each_network_is_contracted_once(self, d, networks, monkeypatch):
        # the classes whose networks coincide once the loops are folded into
        # g0^L share one contraction; the empty network runs none
        plan = mo._moment_plan(d, True)
        assert len(plan.sizes) == {4: 7, 8: 354}[d]
        assert len({net[:2] for net in plan.networks}) == len(plan.networks)
        calls = []
        contract = mo._contract

        def counted(program, operands):
            calls.append(program)
            return contract(program, operands)

        monkeypatch.setattr(mo, "_contract", counted)
        mo.exact_expected_moment(fr.construct_dss(19), d)
        assert len(calls) == networks
        assert sorted(map(id, calls)) == sorted(id(net.path) for net in plan.networks if net.path)

    @pytest.mark.parametrize("build", [
        lambda: fr.construct_dss(19), lambda: fr.construct_lowpass_dft(20, 7),
    ], ids=["dss19", "lowpass20"])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_diagonal_other_than_one(self, build, d):
        # every harmonic constructor has g0 = 1; frame vectors of norm 1.5
        # put g0 = 2.25 and check the folded factor g0^L
        F = build()
        F = fr.FrameMatrix(1.5 * F.entries, F.family, circulant_row=2.25 * F.circulant_row)
        got = np.array(mo.exact_expected_moment(F, d).a)
        want = np.array(mo.exact_expected_moment(without_row(F), d).a)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_guard(self):
        # the general count is unchanged; the shift-invariant one, each
        # distinct network counted once, reaches DSS(863) at d = 8 and stops
        # at n = 1983
        assert mo._exact_work(7, 702) <= mo.MAX_EXACT_WORK < mo._exact_work(7, 703)
        assert mo._exact_work(8, 1983, True) <= mo.MAX_EXACT_WORK < mo._exact_work(8, 1984, True)
        F = fr.construct_lowpass_dft(1984, 4)
        with pytest.raises(ValueError, match="above the guard"):
            mo.exact_expected_moment(F, 8)
        with pytest.raises(ValueError, match="above the guard"):
            mo.exact_expected_moment(without_row(fr.construct_dss(863)), 7)

    @pytest.mark.parametrize("build, d", [
        (lambda: fr.construct_lowpass_dft(18000, 4), 7),
        (lambda: fr.construct_lowpass_dft(20000, 4), 4),
        (lambda: fr.construct_random("gaussian_iid", 8000, 2, seed=0), 2),
    ], ids=["lowpass18000_d7", "lowpass20000_d4", "gaussian8000_d2"])
    def test_memory_guard_refuses_before_allocating(self, build, d):
        # narrow frames whose work passes MAX_EXACT_WORK but whose n-by-n
        # operands would take gigabytes: refused with next to nothing allocated
        F = build()
        shift = F.circulant_row is not None
        assert mo._exact_work(d, F.n, shift) <= mo.MAX_EXACT_WORK
        assert mo._exact_bytes(d, F.n, shift) > mo.MAX_EXACT_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="bytes of operands, above the guard"):
                mo.exact_expected_moment(F, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("shift", [True, False], ids=["shift", "general"])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_byte_count_bounds_the_peak(self, d, shift):
        # the guard's byte count against the largest traced allocation of a call
        F = fr.construct_lowpass_dft(300 if shift else 120, 4)
        F = F if shift else without_row(F)
        first = mo.exact_expected_moment(F, d)
        tracemalloc.start()
        try:
            assert mo.exact_expected_moment(F, d) == first
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mo._exact_bytes(d, F.n, shift)

    def test_dss863_at_order_7(self):
        F = fr.construct_dss(863)
        poly = mo.exact_expected_moment(F, 7)
        x = F.n / F.m - 1.0
        assert poly.a[0] == 0.0 and poly.a[1] == pytest.approx(1.0, abs=1e-12)
        # the p = 1 identity of a tight frame: m_7(1) = (x + 1)^6
        assert poly.evaluate(1.0) == pytest.approx((x + 1) ** 6, rel=1e-12)

    def test_probe_reaches_order_8_on_harmonic_frames(self):
        (dss,) = mo.crossing_decay_probe("dss", [431])
        assert sorted(dss["n_times_gap"]) == [4, 5, 6, 7, 8]
        (gaussian,) = mo.crossing_decay_probe("gaussian_iid", [290], seed=0)
        assert sorted(gaussian["n_times_gap"]) == [4, 5, 6, 7]


class TestOrderValidation:
    @pytest.mark.parametrize("call", [
        lambda d: mo.exact_expected_moment(fr.construct_dss(7), d),
        lambda d: mo.asymptotic_moment(d),
        lambda d: mo.partition_census(d),
        lambda d: mo.empirical_moment(fr.construct_dss(7), d, 4, seed=0, p=0.5),
        lambda d: manova_moment_closed(d, ManovaParams(0.8, 0.5)),
        lambda d: manova_moment_numeric(d, ManovaParams(0.8, 0.5)),
    ], ids=["exact", "asymptotic", "census", "empirical", "manova_closed", "manova_numeric"])
    @pytest.mark.parametrize("d", [4.5, 2.5, "4", None, float("nan")])
    def test_non_integer_order_raises(self, call, d):
        with pytest.raises(ValueError, match=f"got {d}"):
            call(d)

    def test_integral_values_are_orders(self):
        F = fr.construct_dss(7)
        assert mo.exact_expected_moment(F, np.int64(4)) == mo.exact_expected_moment(F, 4.0)
        assert mo.asymptotic_moment(4.0) == mo.asymptotic_moment(4)
        params = ManovaParams(0.8, 0.5)
        assert manova_moment_numeric(2.0, params) == manova_moment_numeric(2, params)
        assert manova_moment_numeric(np.int64(-1), params) == manova_moment_numeric(-1, params)

    def test_numeric_manova_moment_starts_at_the_inverse(self):
        with pytest.raises(ValueError, match="d must be an integer >= -1; got -2"):
            manova_moment_numeric(-2, ManovaParams(0.8, 0.5))


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

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 0])
    def test_rejects_fewer_than_two_vectors(self, d, n):
        for fn in (mo.ewb_bound, mo.ewb_delta):
            with pytest.raises(ValueError, match=f"needs n >= 2 vectors; got n={n}"):
                fn(0.5, 0.5, d, n)


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

    def test_zero_trials_raises(self):
        F = fr.construct_dss(7)
        with pytest.raises(ValueError, match="need at least one trial; got trials=0"):
            mo.empirical_moment(F, 2, 0, p=0.5)

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
