#!/usr/bin/env python3
"""Desk-scale reproduction of the AC-ratio lookup table: for DSS frames at
several sizes, the limiting value (1-p)/(1-beta) next to the RMS deviation
of the subset statistic around it."""

import argparse
import math

import etfspectra  # noqa: F401  (first: it sets the BLAS thread count before numpy loads)
import numpy as np

from etfspectra import frames as fr
from etfspectra.functionals import FunctionalSpec, evaluate, limiting_value
from etfspectra.manova import ManovaParams
from etfspectra.spectra import run_trials


def run(sizes, betas, trials, seed):
    spec = FunctionalSpec("ac")
    print(f"{'n':>6} {'beta':>6} {'limit':>8} {'mean':>8} {'rmse':>8}")
    for n in sizes:
        F = fr.construct_dss(n)
        m = F.m
        for beta in betas:
            k = round(beta * m)
            limit = limiting_value(spec, ManovaParams.from_counts(n, m, k))
            vals = np.array(run_trials(F, trials, lambda s: evaluate(spec, s), seed,
                                       (n, round(100 * beta)), k=k))
            rmse = math.sqrt(np.mean((vals - limit) ** 2))
            print(f"{n:>6} {k / m:>6.3f} {limit:>8.4f} {vals.mean():>8.4f} {rmse:>8.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="1031,1151,1291",
                    help="comma-separated DSS primes (= 3 mod 4)")
    ap.add_argument("--betas", default="0.8,0.6")
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run([int(s) for s in args.sizes.split(",")],
        [float(b) for b in args.betas.split(",")], args.trials, args.seed)


if __name__ == "__main__":
    main()
