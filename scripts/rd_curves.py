#!/usr/bin/env python3
"""Rate-distortion and capacity curves at the optimized redundancy for the
MP and MANOVA amplification laws, with the Shannon limits and the
side-information benchmark."""

import argparse

import etfspectra  # noqa: F401  (first: it sets the BLAS thread count before numpy loads)
import numpy as np

from etfspectra import coding as cg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--db", default="0:60:5", help="lo:hi:step sweep in dB")
    args = ap.parse_args()

    lo, hi, step = (float(x) for x in args.db.split(":"))
    dbs = np.arange(lo, hi + 0.5 * step, step)
    print(f"{'y_db':>6} {'R_mp':>8} {'R_manova':>9} {'RDF':>8} {'RDF+SI':>8} "
          f"{'C_mp':>8} {'C_manova':>9} {'C':>8}")
    for ydb in dbs:
        y = 10.0 ** (ydb / 10.0)
        row = [f"{ydb:>6.1f}"]
        for model in ("mp", "manova"):
            _, r = cg.optimize_beta("source", args.p, y, model)
            row.append(f"{r:>8.3f}" if model == "mp" else f"{r:>9.3f}")
        row.append(f"{cg.rdf(args.p, y):>8.3f}")
        row.append(f"{cg.rdf(args.p, y) + cg.si_benchmark(args.p):>8.3f}")
        for model in ("mp", "manova"):
            _, c = cg.optimize_beta("channel", args.p, y, model)
            row.append(f"{c:>8.3f}" if model == "mp" else f"{c:>9.3f}")
        row.append(f"{cg.shannon_capacity(args.p, y):>8.3f}")
        print(" ".join(row))


if __name__ == "__main__":
    main()
