import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etfspectra import frames as fr


def brute_force_gram(F):
    """Oracle: pairwise inner products via explicit vdot, no matrix algebra."""
    E = F.entries
    n = E.shape[1]
    G = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            G[i, j] = np.vdot(E[:, i], E[:, j])
    return G


class TestDss:
    def test_dimensions_and_multiplicity(self):
        F = fr.construct_dss(7)
        assert (F.m, F.n) == (3, 7)
        assert F.params["lambda"] == 1

    def test_offdiagonals_equal_welch_value(self):
        F = fr.construct_dss(7)
        G = brute_force_gram(F)
        off = np.abs(G[~np.eye(7, dtype=bool)])
        expected = math.sqrt((7 - 3) / (6 * 3))
        assert np.max(np.abs(off - expected)) < 1e-9

    def test_dss31_tight_residual(self):
        F = fr.construct_dss(31)
        assert F.m == 15
        R = F.entries @ F.entries.conj().T - (31 / 15) * np.eye(15)
        assert np.abs(R).max() < 1e-9

    @pytest.mark.parametrize("n", [8, 13, 6, 5])
    def test_rejects_bad_n(self, n):
        with pytest.raises(fr.FrameParameterError):
            fr.construct_dss(n)


class TestLowpass:
    def test_square_case_is_unitary(self):
        F = fr.construct_lowpass_dft(6, 6)
        G = F.entries.conj().T @ F.entries
        assert np.abs(G - np.eye(6)).max() < 1e-12

    def test_tightness(self):
        F = fr.construct_lowpass_dft(8, 4)
        R = F.entries @ F.entries.conj().T - 2.0 * np.eye(4)
        assert np.abs(R).max() < 1e-12

    def test_not_equiangular(self):
        assert not fr.is_equiangular(fr.construct_lowpass_dft(101, 50))

    def test_bounds(self):
        with pytest.raises(fr.FrameParameterError):
            fr.construct_lowpass_dft(4, 5)


class TestRandomSpectrum:
    def test_same_seed_identical(self):
        a = fr.construct_random_spectrum_dft(101, 50, seed=1)
        b = fr.construct_random_spectrum_dft(101, 50, seed=1)
        assert a.entries.tobytes() == b.entries.tobytes()

    def test_tight_and_unit_norm(self):
        F = fr.construct_random_spectrum_dft(101, 50, seed=1)
        assert fr.is_tight(F, 1e-9)
        assert np.abs(np.linalg.norm(F.entries, axis=0) - 1.0).max() < 1e-12


class TestPaleyAndGrassmannian:
    def test_real_paley_q5(self):
        F = fr.construct_real_paley(5)
        assert (F.m, F.n) == (3, 6)
        assert not F.is_complex
        off = np.abs(brute_force_gram(F)[~np.eye(6, dtype=bool)])
        assert np.max(np.abs(off - math.sqrt(1 / 5))) < 1e-9

    def test_real_paley_q13(self):
        F = fr.construct_real_paley(13)
        assert (F.m, F.n) == (7, 14)
        assert fr.is_tight(F, 1e-9)

    def test_real_paley_rejects_nonprime(self):
        with pytest.raises(fr.FrameParameterError):
            fr.construct_real_paley(4)

    @pytest.mark.parametrize("q", [7, 11, 19])
    def test_complex_paley_predicates(self, q):
        F = fr.construct_complex_paley(q)
        assert fr.is_tight(F, 1e-9)
        assert fr.is_equiangular(F, 1e-9)

    @pytest.mark.parametrize("n", [8, 12, 24])
    def test_grassmannian_predicates(self, n):
        F = fr.construct_grassmannian(n)
        assert (F.m, F.n) == (n // 2, n)
        assert fr.is_tight(F, 1e-9)
        assert fr.is_equiangular(F, 1e-9)

    def test_unsupported_sizes(self):
        with pytest.raises(fr.FrameParameterError):
            fr.construct_grassmannian(10)  # 9 is not prime
        with pytest.raises(fr.FrameParameterError):
            fr.construct_complex_paley(13)  # 13 = 1 mod 4


class TestAlltop:
    def test_tight_not_equiangular(self):
        F = fr.construct_alltop(7, 2)
        assert (F.m, F.n) == (7, 14)
        assert fr.is_tight(F, 1e-9)
        assert not fr.is_equiangular(F, 1e-9)

    def test_unit_norm_columns(self):
        F = fr.construct_alltop(11, 4)
        assert np.abs(np.linalg.norm(F.entries, axis=0) - 1.0).max() < 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(fr.FrameParameterError):
            fr.construct_alltop(9, 2)
        with pytest.raises(fr.FrameParameterError):
            fr.construct_alltop(7, 9)


class TestSpikes:
    def test_hadamard_tight(self):
        F = fr.construct_spikes_hadamard(4)
        R = F.entries @ F.entries.T - 2.0 * np.eye(4)
        assert np.abs(R).max() < 1e-12

    def test_spike_fourier_inner_product(self):
        F = fr.construct_spikes_sines(4)
        # any spike against any Fourier column: single entry of size 1/sqrt(m)
        val = abs(np.vdot(F.entries[:, 0], F.entries[:, 5]))
        assert abs(val - 0.5) < 1e-12

    def test_hadamard_rejects_non_power(self):
        with pytest.raises(fr.FrameParameterError):
            fr.construct_spikes_hadamard(3)


class TestRandomFamilies:
    def test_haar_complex_scaled_isometry(self):
        F = fr.construct_random("haar_complex", 64, 32, seed=7)
        ev = np.linalg.eigvalsh(F.entries.conj().T @ F.entries)
        nonzero = ev[ev > 1e-8]
        assert len(nonzero) == 32
        assert np.abs(nonzero - 2.0).max() < 1e-9

    def test_gaussian_column_norms_concentrate(self):
        # law of large numbers: norms sit within 1 +- 0.1 for m >= 400
        # (checked in quantile form; the extreme of n columns can exceed it)
        F = fr.construct_random("gaussian_iid", 800, 400, seed=3)
        dev = np.abs(np.linalg.norm(F.entries, axis=0) - 1.0)
        assert np.quantile(dev, 0.99) < 0.1
        assert dev.mean() < 0.05

    def test_gaussian_normalize_flag(self):
        F = fr.construct_random("gaussian_iid", 50, 20, seed=3, normalize_columns=True)
        assert np.abs(np.linalg.norm(F.entries, axis=0) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("family", fr.RANDOM_FAMILIES)
    def test_same_seed_identical(self, family):
        a = fr.construct_random(family, 40, 20, seed=11)
        b = fr.construct_random(family, 40, 20, seed=11)
        assert a.entries.tobytes() == b.entries.tobytes()

    @pytest.mark.parametrize("family", ["haar_real", "haar_complex", "random_spectrum_dft",
                                        "random_cosine"])
    def test_orthogonal_families_tight(self, family):
        F = fr.construct(family, n=48, m=24, seed=5)
        assert fr.is_tight(F, 1e-9)


class TestWelchBounds:
    def test_rms_value(self):
        assert fr.welch_rms_bound(7, 3) == pytest.approx(4 / 18, abs=1e-15)

    def test_orthonormal_basis_bound_zero(self):
        assert fr.welch_rms_bound(5, 5) == 0.0

    def test_dss_meets_max_bound(self):
        F = fr.construct_dss(7)
        assert fr.coherence(F) ** 2 == pytest.approx(fr.welch_rms_bound(7, 3), abs=1e-12)

    @given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_welch_inequality_random_frames(self, m, seed):
        n = 2 * m
        F = fr.construct_random("gaussian_iid", n, m, seed=seed, normalize_columns=True)
        G = np.abs(fr.gram(F)) ** 2
        mean_off = (G.sum() - np.trace(G)) / (n * (n - 1))
        assert mean_off >= fr.welch_rms_bound(n, m) - 1e-12


ETF_CASES = [
    ("dss", {"n": 19}),
    ("real_paley", {"q": 13}),
    ("complex_paley", {"q": 11}),
    ("grassmannian", {"n": 12}),
]


@pytest.mark.parametrize("family,params", ETF_CASES)
def test_etf_offdiagonal_variance(family, params):
    F = fr.construct(family, **params)
    G = fr.gram(F)
    off = np.abs(G[~np.eye(F.n, dtype=bool)])
    assert off.var() < 1e-18


TIGHT_CASES = ETF_CASES + [
    ("lowpass_dft", {"n": 32, "m": 8}),
    ("alltop", {"n": 11, "L": 2}),
    ("spikes_sines", {"m": 8}),
    ("spikes_hadamard", {"m": 8}),
    ("random_spectrum_dft", {"n": 33, "m": 11, "seed": 2}),
]


@pytest.mark.parametrize("family,params", TIGHT_CASES)
def test_tight_families_residual(family, params):
    F = fr.construct(family, **params)
    R = F.entries @ F.entries.conj().T - (F.n / F.m) * np.eye(F.m)
    assert np.abs(R).max() < 1e-9


@pytest.mark.parametrize("family,params", TIGHT_CASES)
def test_welch_inequality_holds(family, params):
    F = fr.construct(family, **params)
    G = np.abs(fr.gram(F)) ** 2
    mean_off = (G.sum() - np.trace(G).real) / (F.n * (F.n - 1))
    assert mean_off >= fr.welch_rms_bound(F.n, F.m) - 1e-12


@pytest.mark.parametrize("family,params", TIGHT_CASES)
def test_deterministic_columns_unit_norm(family, params):
    F = fr.construct(family, **params)
    assert np.abs(np.linalg.norm(F.entries, axis=0) - 1.0).max() < 1e-12


def test_construct_dispatch_deterministic():
    a = fr.construct("dss", n=11)
    b = fr.construct("dss", n=11)
    assert a.entries.tobytes() == b.entries.tobytes()


def test_frame_entries_read_only():
    F = fr.construct_dss(7)
    with pytest.raises(ValueError):
        F.entries[0, 0] = 0.0
