#!/usr/bin/env python3
"""Construct the frame gallery and print the structural report:
dimensions, field, tightness residual, equiangularity, coherence vs the
Welch floor."""

import math

import etfspectra  # noqa: F401  (first: it sets the BLAS thread count before numpy loads)
import numpy as np

from etfspectra import frames as fr

GALLERY = [
    ("dss", {"n": 31}),
    ("grassmannian", {"n": 24}),
    ("real_paley", {"q": 29}),
    ("complex_paley", {"q": 31}),
    ("alltop", {"n": 31, "L": 2}),
    ("spikes_sines", {"m": 16}),
    ("spikes_hadamard", {"m": 16}),
    ("haar_complex", {"n": 64, "m": 32, "seed": 0}),
    ("haar_real", {"n": 64, "m": 32, "seed": 0}),
    ("random_spectrum_dft", {"n": 64, "m": 32, "seed": 0}),
    ("random_cosine", {"n": 64, "m": 32, "seed": 0}),
    ("gaussian_iid", {"n": 64, "m": 32, "seed": 0}),
]


def main():
    print(f"{'family':<18}{'m x n':<12}{'field':<9}{'tight res':<12}"
          f"{'equiangular':<13}{'coherence':<11}{'welch floor'}")
    for family, params in GALLERY:
        F = fr.construct(family, **params)
        resid = np.abs(F.entries @ F.entries.conj().T
                       - (F.n / F.m) * np.eye(F.m)).max()
        print(f"{family:<18}{f'{F.m} x {F.n}':<12}"
              f"{'complex' if F.is_complex else 'real':<9}"
              f"{resid:<12.2e}{str(fr.is_equiangular(F)):<13}"
              f"{fr.coherence(F):<11.5f}{math.sqrt(fr.welch_rms_bound(F.n, F.m)):.5f}")


if __name__ == "__main__":
    main()
