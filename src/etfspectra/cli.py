"""Command line interface.

Subcommand groups mirror the library layout:

    etfspectra frames construct --family dss --n 31 --out frame.json
    etfspectra spectra sample --frame frame.json --k 412 --trials 1000 --seed 42 --out eigs.csv
    etfspectra manova density --beta 0.8 --gamma 0.5 --grid 2048 --out density.csv
    etfspectra functional eval --kind ac --frame frame.json --k 412 --trials 1000 --out psi.csv
    etfspectra moments asymptotic --d 6 --format json
    etfspectra moments ewb --gamma 0.5 --p 0.5 --d 4 --n 7
    etfspectra moments exact --frame frame.json --d 4
    etfspectra coding curve --direction sc --p 0.5 --model manova --sdr-db 0:60:2 --optimize-beta --out rd.csv
    etfspectra harness test1 --family dss --beta 0.8 --gamma 0.5 --profile desk --out test1.csv
    etfspectra harness test2 --functional shannon --alpha 1 --family dss --out test2.csv

Both harness tests run the family's ladder and the MANOVA-ensemble baseline
at the frame's own (n, m, k): test1 prints the equal-slope t-test p of the
KS-variance fits, test2 the weighted log-ratio test (slope, z, chi^2, p).
Every sampling command draws trial t from (seed, t), on the trial engine
of ``spectra.run_trials``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import coding, frames, frameio, harness, manova, moments
from .functionals import KINDS, FunctionalSpec, evaluate
from .spectra import run_trials


def _cmd_frames_construct(args):
    params = {}
    for key in ("n", "m", "q", "chirps", "seed"):
        val = getattr(args, key)
        if val is not None:
            params["L" if key == "chirps" else key] = val
    F = frames.construct(args.family, **params)
    frameio.save_frame(F, args.out)
    tight = frames.is_tight(F)
    equi = frames.is_equiangular(F)
    print(f"{args.family}: {F.m}x{F.n} field={'complex' if F.is_complex else 'real'} "
          f"tight={tight} equiangular={equi} -> {args.out}")


def _cmd_spectra_sample(args):
    F = frameio.load_frame(args.frame)
    spectra = run_trials(F, args.trials, lambda spec: spec.eigenvalues, args.seed, k=args.k)
    rows = [(trial, i, repr(float(v)))
            for trial, ev in enumerate(spectra) for i, v in enumerate(ev)]
    harness.write_csv(args.out, f"spectra sample k={args.k} trials={args.trials} seed={args.seed}",
                      [("trial", "index", "eigenvalue"), *rows])
    print(f"wrote {len(rows)} eigenvalues -> {args.out}")


def _cmd_manova_density(args):
    params = manova.ManovaParams(args.beta, args.gamma)
    dist = manova.ManovaDistribution(params)
    lo, hi = dist.edges
    pad = 0.05 * (hi - lo)
    xs = np.linspace(max(lo - pad, 0.0), hi + pad, args.grid)
    rows = [(repr(float(x)), repr(float(f)), repr(float(c)))
            for x, f, c in zip(xs, dist.pdf(xs), dist.cdf(xs))]
    harness.write_csv(args.out, f"manova density beta={args.beta} gamma={args.gamma}",
                      [("x", "pdf", "cdf"), *rows])
    sidecar = args.out + ".atoms.json"
    with open(sidecar, "w") as fh:
        json.dump({"atoms": [{"location": a.location, "mass": a.mass}
                             for a in dist.atoms],
                   "support": [lo, hi]}, fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.grid} grid points -> {args.out} (atoms in {sidecar})")


def _cmd_functional_eval(args):
    F = frameio.load_frame(args.frame)
    spec = FunctionalSpec(args.kind, delta=args.delta, alpha=args.alpha)
    vals = run_trials(F, args.trials, lambda spectrum: evaluate(spec, spectrum),
                      args.seed, k=args.k)
    rows = [(trial, repr(float(val))) for trial, val in enumerate(vals)]
    harness.write_csv(args.out, f"functional {args.kind} k={args.k} trials={args.trials} "
                      f"seed={args.seed}", [("trial", "value"), *rows])
    print(f"wrote {args.trials} evaluations -> {args.out}")


def _cmd_moments_asymptotic(args):
    poly = moments.asymptotic_moment(args.d)
    if args.format == "latex":
        print(poly.as_latex())
    else:
        print(json.dumps({"d": args.d, "coefficients": poly.as_dict()},
                         sort_keys=True, indent=2))


def _cmd_moments_ewb(args):
    val = moments.ewb_bound(args.gamma, args.p, args.d, args.n)
    print(json.dumps({"gamma": args.gamma, "p": args.p, "d": args.d, "n": args.n,
                      "ewb": val,
                      "manova_term": moments.asymptotic_moment(args.d).evaluate(
                          args.p, 1.0 / args.gamma - 1.0),
                      "delta_term": moments.ewb_delta(args.gamma, args.p, args.d, args.n)},
                     sort_keys=True))


def _cmd_moments_exact(args):
    F = frameio.load_frame(args.frame)
    poly = moments.exact_expected_moment(F, args.d)
    coeffs = {f"p^{k}": poly.a[k] for k in range(1, args.d + 1)}
    print(json.dumps({"d": args.d, "n": F.n, "m": F.m, "coefficients": coeffs},
                     sort_keys=True))


def _parse_range(spec: str):
    parts = [float(x) for x in spec.split(":")]
    if len(parts) == 1:
        return np.array(parts)
    if len(parts) != 3 or not (parts[0] <= parts[1] and parts[2] > 0):
        raise ValueError(f"--sdr-db takes a value or lo:hi:step with lo <= hi and step > 0; "
                         f"got {spec!r}")
    lo, hi, step = parts
    return np.arange(lo, hi + 0.5 * step, step)


def _cmd_coding_curve(args):
    if args.beta is None and not args.optimize_beta:
        raise ValueError("give --beta or --optimize-beta")
    source = args.direction == "sc"
    rows = []
    for ydb in _parse_range(args.sdr_db):
        y = 10.0 ** (ydb / 10.0)
        if args.optimize_beta:
            beta, val = coding.optimize_beta("source" if source else "channel", args.p, y,
                                             args.model)
        else:
            beta = args.beta
            val = (coding.rate_sc if source else coding.capacity_cc)(beta, args.p, y, args.model)
        if source:
            bench = (coding.rdf(args.p, y), coding.rdf(args.p, y) + coding.si_benchmark(args.p))
        else:
            bench = (coding.shannon_capacity(args.p, y), coding.si_benchmark(args.p))
        rows.append((repr(float(ydb)), repr(float(beta)), repr(float(val)), *map(repr, bench)))
    harness.write_csv(args.out, f"coding curve direction={args.direction} p={args.p} "
                      f"model={args.model}",
                      [("y_db", "beta_opt", "rate", "benchmark_rdf", "benchmark_si"), *rows])
    print(f"wrote {len(rows)} points -> {args.out}")


def _config_dict(args, sizes):
    """The run's settings, hashed into the export header: every argument but
    where the output goes and which file the settings came from, whose
    values are already merged into ``args``."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("fn", "out", "config")}
    cfg["sizes"] = list(sizes)
    return cfg


def _check_out_path(path):
    """Raise before any work when ``path`` cannot be a new output file."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"--out directory {folder!r} does not exist")
    if os.path.isdir(path):
        raise IsADirectoryError(f"--out {path!r} is a directory")


def _harness_common(args):
    _check_out_path(args.out)
    if args.config:
        with open(args.config) as fh:
            cfg = harness.parse_config(fh.read())
    else:
        cfg = {}
    # explicit flag > config file > built-in default (flags parse as None)
    for key, default in HARNESS_DEFAULTS.items():
        if getattr(args, key) is None:
            cast = type(default)
            setattr(args, key, cast(cfg[key]) if key in cfg else default)
    sizes = harness.DESK_SIZES if args.profile == "desk" else harness.FULL_SIZES
    if args.sizes:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    elif "sizes" in cfg:
        sizes = tuple(int(s) for s in cfg["sizes"].split(","))
    return sizes


def _require_rungs(cmd, count, skipped=()):
    """Exit with a one-line reason when a ladder is too short to fit."""
    if count >= harness.MIN_FIT_POINTS:
        return
    if skipped:
        lost = ",".join(str(size) for size, _ in skipped)
        why = f"only {count} ladder sizes ran (skipped {lost})"
    else:
        why = f"the ladder has {count} distinct sizes"
    raise SystemExit(f"harness {cmd}: {why}; the fit needs at least {harness.MIN_FIT_POINTS}")


def _cmd_harness(args):
    """test1 compares the KS-variance slopes of the family's ladder and of
    the ensemble baseline at the same rungs; test2 tests the weighted slope
    of log(frame mean / baseline mean) of a functional's squared deviation."""
    test1 = args.cmd == "test1"
    sizes = _harness_common(args)
    _require_rungs(args.cmd, len(set(sizes)))
    functional = None if test1 else FunctionalSpec(args.functional, delta=args.delta,
                                                   alpha=args.alpha)
    # an unknown family or trials < 2 raises before any rung
    records, baseline, skipped = harness.run_ladder(args.family, sizes, args.beta, args.gamma,
                                                    args.trials, args.seed, functional)
    for size, why in skipped:
        print(f"skipped n={size}: {why}", file=sys.stderr)
    harness.export(records, "csv", args.out, config=_config_dict(args, sizes))
    _require_rungs(args.cmd, len(records), skipped)
    if test1:
        fit, base = (harness.fit_power_law(r, "test1") for r in (records, baseline))
        result = (f"test1 {args.family}: slope={fit.slope:.5f} se={fit.stderr:.5f} "
                  f"R2={fit.r_squared:.5f} baseline_slope={base.slope:.5f} "
                  f"baseline_se={base.stderr:.5f} baseline_R2={base.r_squared:.5f} "
                  f"p_equal={harness.t_test_equal_slopes(fit, base):.5g}")
    elif baseline is records:
        result = (f"test2 {args.family} psi_{args.functional}: "
                  f"b_frame={harness.fit_power_law(records, 'test2').slope:.5f}; the family is "
                  "its own baseline, so the log ratio is 0 by construction and not tested")
    else:
        fit, p = harness.fit_log_ratio(records, baseline)
        b_frame, b_base = (harness.fit_power_law(r, "test2").slope for r in (records, baseline))
        result = (f"test2 {args.family} psi_{args.functional}: slope={fit.slope:.5f} "
                  f"se={fit.stderr:.5f} z={fit.slope / fit.stderr:.5f} chi2({fit.n_points - 2})="
                  f"{sum(e * e for e in fit.residuals):.5f} b_frame={b_frame:.5f} "
                  f"b_baseline={b_base:.5f} p_equal={p:.5g}")
    print(f"{result} -> {args.out}")


HARNESS_DEFAULTS = {"family": "manova_ensemble", "beta": 0.8, "gamma": 0.5,
                    "trials": 200, "seed": 0, "profile": "desk"}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="etfspectra", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="group", required=True)

    g = sub.add_parser("frames").add_subparsers(dest="cmd", required=True)
    c = g.add_parser("construct", help="build a frame and write the container file")
    c.add_argument("--family", required=True,
                   choices=tuple(frames.FAMILIES))
    c.add_argument("--n", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--q", type=int, help="Paley prime parameter")
    c.add_argument("--chirps", type=int, help="alltop redundancy L")
    c.add_argument("--seed", type=int)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_frames_construct)

    g = sub.add_parser("spectra").add_subparsers(dest="cmd", required=True)
    c = g.add_parser("sample", help="subset Gram eigenvalues to csv")
    c.add_argument("--frame", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_spectra_sample)

    g = sub.add_parser("manova").add_subparsers(dest="cmd", required=True)
    c = g.add_parser("density", help="density/cdf grid with atoms sidecar")
    c.add_argument("--beta", type=float, required=True)
    c.add_argument("--gamma", type=float, required=True)
    c.add_argument("--grid", type=int, default=2048)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_manova_density)

    g = sub.add_parser("functional").add_subparsers(dest="cmd", required=True)
    c = g.add_parser("eval", help="evaluate a spectral functional over subsets")
    c.add_argument("--kind", required=True, choices=KINDS)
    c.add_argument("--frame", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--alpha", type=float)
    c.add_argument("--delta", type=float)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_functional_eval)

    g = sub.add_parser("moments").add_subparsers(dest="cmd", required=True)
    c = g.add_parser("asymptotic", help="exact limiting moment polynomial")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--format", choices=("latex", "json"), default="json")
    c.set_defaults(fn=_cmd_moments_asymptotic)
    c = g.add_parser("ewb", help="erasure Welch bound value")
    c.add_argument("--gamma", type=float, required=True)
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(fn=_cmd_moments_ewb)
    c = g.add_parser("exact", help="exact expected moment of a stored frame")
    c.add_argument("--frame", required=True)
    c.add_argument("--d", type=int, required=True, help=f"order, 1..{moments.MAX_EXACT_D}")
    c.set_defaults(fn=_cmd_moments_exact)

    g = sub.add_parser("coding").add_subparsers(dest="cmd", required=True)
    c = g.add_parser("curve", help="rate / capacity over an SDR/SNR sweep")
    c.add_argument("--direction", required=True, choices=("sc", "cc"))
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--model", default="manova", choices=("mp", "manova"))
    c.add_argument("--sdr-db", dest="sdr_db", required=True,
                   help="lo:hi:step in dB (or single value)")
    c.add_argument("--beta", type=float)
    c.add_argument("--optimize-beta", dest="optimize_beta", action="store_true")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_coding_curve)

    g = sub.add_parser("harness").add_subparsers(dest="cmd", required=True)
    for name in ("test1", "test2"):
        c = g.add_parser(name)
        c.add_argument("--family")
        c.add_argument("--beta", type=float)
        c.add_argument("--gamma", type=float)
        c.add_argument("--trials", type=int)
        c.add_argument("--seed", type=int)
        c.add_argument("--profile", choices=("desk", "full"))
        c.add_argument("--sizes", help="comma-separated ladder overriding the profile")
        c.add_argument("--config", help="flat key=value config file; flags win")
        c.add_argument("--out", required=True)
        if name == "test2":
            c.add_argument("--functional", default="shannon", choices=KINDS)
            c.add_argument("--alpha", type=float, default=1.0)
            c.add_argument("--delta", type=float)
        c.set_defaults(fn=_cmd_harness)

    return top


def main(argv=None) -> int:
    """Run one command.  A bad argument or a file that cannot be read or
    written ends it with one ``<group> <cmd>: <reason>`` line on stderr and
    exit status 1."""
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (OSError, ValueError, OverflowError) as exc:
        raise SystemExit(f"{args.group} {args.cmd}: {exc}") from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
