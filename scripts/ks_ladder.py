#!/usr/bin/env python3
"""Convergence-exponent ladder: KS-distance variance decay for a frame
family against the same-size MANOVA ensemble, with the equal-slope t-test."""

import argparse

from etfspectra import harness as hs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", default="dss")
    ap.add_argument("--baseline", default="manova_ensemble",
                    choices=("manova_ensemble", "manova_ensemble_real"))
    ap.add_argument("--sizes", default=",".join(str(n) for n in hs.DESK_SIZES))
    ap.add_argument("--beta", type=float, default=0.8)
    ap.add_argument("--gamma", type=float, default=0.5)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="optional CSV for the family records")
    args = ap.parse_args()

    sizes = tuple(int(s) for s in args.sizes.split(","))
    if len(set(sizes)) < hs.MIN_FIT_POINTS:
        ap.error(f"the fit needs at least {hs.MIN_FIT_POINTS} distinct sizes")
    fam_records, skipped = hs.run_ks_batch(args.family, sizes, args.beta,
                                           args.gamma, args.trials, args.seed)
    for size, why in skipped:
        print(f"skipped n={size}: {why}")
    if len(fam_records) < hs.MIN_FIT_POINTS:
        raise SystemExit(f"only {len(fam_records)} ladder sizes ran; "
                         f"the fit needs at least {hs.MIN_FIT_POINTS}")
    base_records, _ = hs.run_ks_batch(args.baseline, sizes, args.beta,
                                      args.gamma, args.trials, args.seed)
    fit = hs.fit_power_law(fam_records, "test1")
    base = hs.fit_power_law(base_records, "test1")
    p = hs.t_test_equal_slopes(fit, base)
    print(f"{args.family}: slope {fit.slope:.4f} +- {fit.stderr:.4f} (R2 {fit.r_squared:.4f})")
    print(f"{args.baseline}: slope {base.slope:.4f} +- {base.stderr:.4f} (R2 {base.r_squared:.4f})")
    print(f"equal-slope t-test p = {p:.4g}")
    if args.out:
        hs.export(fam_records, "csv", args.out, config=vars(args))
        print(f"records -> {args.out}")


if __name__ == "__main__":
    main()
