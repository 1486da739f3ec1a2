"""Batch experiments: KS-distance ladders, functional convergence, power-law
fits, slope comparison tests, and CSV export.

A batch builds one frame per ladder size through ``frames.FAMILIES``, whose
rule says what a size means for the family, draws T uniform k-subsets of it
(or T draws of the MANOVA matrix ensemble), and measures the KS distance of
each subset spectrum to the limiting MANOVA CDF or the squared deviation of
a spectral functional from its limiting value.  A ladder adds the ensemble
baseline at each rung's own (n, m, k) and field.  Realized integer ratios
beta_n = k/m and gamma_n = m/n parameterize the reference law, not the targets.

Trials run on the engine of ``spectra.run_trials``: trial t at size index i
draws from (seed, i, t + 1) alone, whatever ran before it.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import frames as fr
from .functionals import FunctionalSpec, evaluate, limiting_value
from .manova import ManovaDistribution, ManovaParams
from .rng import derive_rng
from .spectra import ks_distance, run_trials

__all__ = [
    "ExperimentRecord",
    "FitResult",
    "resolve_dims",
    "run_ks_batch",
    "run_ladder",
    "fit_power_law",
    "fit_log_ratio",
    "t_test_equal_slopes",
    "export",
    "write_csv",
    "parse_config",
    "worker_count",
    "DESK_SIZES",
    "FULL_SIZES",
    "MIN_FIT_POINTS",
]

# primes = 3 (mod 4), so the ladder serves DSS directly; the full profile
# (publication-scale n, T ~ 1e4) is documented but not a default
DESK_SIZES = (103, 211, 431, 863)
FULL_SIZES = (1031, 1151, 1291, 1451, 1571, 1811, 1951)

ENSEMBLE_FAMILIES = ("manova_ensemble", "manova_ensemble_real")

# fewest ladder rungs the fits accept: one regressor and an intercept
MIN_FIT_POINTS = 3


def worker_count() -> int:
    """1: trials run one at a time.  ``perfbench/child.py`` reads this before
    it adds up traced self times; it goes when ROADMAP item 1 drops that read."""
    return 1


@dataclass(frozen=True)
class ExperimentRecord:
    """One Monte Carlo batch at a single size."""

    frame_family: str
    n: int
    m: int
    k: int
    beta: float
    gamma: float
    trials: int
    statistic: str
    seed: int | None
    values: tuple = field(repr=False, default=())
    wall_time: float = 0.0

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def variance(self) -> float:
        if self.trials < 2:
            raise ValueError("variance needs at least 2 trials")
        return float(np.var(self.values, ddof=1))

    @property
    def mean_square(self) -> float:
        return float(np.mean(np.square(self.values)))


def resolve_dims(family: str, size: int, beta: float, gamma: float) -> tuple[int, int, int]:
    """(n, m, k) realized by the family at a ladder size.

    Frame families follow their ladder rule in ``frames.FAMILIES``; the
    ensemble names and "manova" take the free aspect n = size,
    m = round(gamma * size).  k = round(beta * m).
    """
    if family in ENSEMBLE_FAMILIES + ("manova",):
        n, m = size, int(round(gamma * size))
    else:
        n, m, _ = fr.ladder_dims(family, size, gamma)
    k = int(round(beta * m))
    if not 1 <= k <= n:
        raise fr.FrameParameterError(f"no valid k for {family} at size {size}")
    return n, m, k


def _batch(family, sizes, beta, gamma, trials, seed, statistic, name, baseline=False):
    """One record per ladder size the family realizes (undefined sizes skip)
    and, with ``baseline``, one MANOVA-ensemble record at each such rung's
    (n, m, k) and field, drawn from the same per-trial streams.  A family
    that is neither a frame family nor an ensemble, or fewer than 2 trials,
    raises before any rung."""
    if trials < 2:
        raise ValueError("variance statistics need trials >= 2")
    if family not in ENSEMBLE_FAMILIES and family not in fr.FAMILIES:
        raise fr.FrameParameterError(f"unknown frame family {family!r}")
    records, base, skipped = [], [], []
    for i, size in enumerate(sizes):
        t0 = time.perf_counter()
        try:
            n, m, k = resolve_dims(family, size, beta, gamma)
            if family in ENSEMBLE_FAMILIES:
                field_tag = "complex" if family == "manova_ensemble" else "real"
                source = (n, m, field_tag)
            else:
                # through fr.construct, which a tracer can rebind; table entries it cannot
                source = fr.construct(family, seed=derive_rng(seed, i, 0).integers(2 ** 63),
                                      **fr.ladder_dims(family, size, gamma)[2])
                field_tag = "complex" if source.is_complex else "real"
        except fr.FrameParameterError as exc:
            skipped.append((size, str(exc)))
            continue
        params = ManovaParams.from_counts(n, m, k)
        stat = statistic(ManovaDistribution(params))
        runs = [(source, family, records)]
        if baseline:
            label = "manova_ensemble" if field_tag == "complex" else "manova_ensemble_real"
            runs.append(((n, m, field_tag), label, base))
        for src, label, out in runs:
            vals = run_trials(src, trials, stat, seed, (i,), k=k)
            out.append(ExperimentRecord(
                frame_family=label, n=n, m=m, k=k, beta=k / m, gamma=m / n,
                trials=trials, statistic=name, seed=seed,
                values=tuple(float(v) for v in vals),
                wall_time=time.perf_counter() - t0))
            t0 = time.perf_counter()
    return records, base, skipped


def _ks(law):
    return lambda spec: ks_distance(spec, law.cdf)


def run_ks_batch(family: str, sizes, beta: float, gamma: float, trials: int,
                 seed=None):
    """KS distance of each subset spectrum to the limiting MANOVA CDF.

    Returns (records, skipped) where ``skipped`` lists (size, reason) for
    sizes the family cannot realize.  ``family`` may be any frame family or
    manova_ensemble / manova_ensemble_real, drawn at resolve_dims.
    """
    records, _, skipped = _batch(family, sizes, beta, gamma, trials, seed, _ks, "ks")
    return records, skipped


def run_ladder(family: str, sizes, beta: float, gamma: float, trials: int,
               seed=None, functional: FunctionalSpec | None = None):
    """A family's ladder and its MANOVA-ensemble baseline at the same rungs.

    The statistic is the KS distance to the limiting MANOVA CDF, or, given
    ``functional``, the squared deviation of that functional from its
    limiting value.  The baseline at each rung runs at the family's own
    (n, m, k) and field, from the same per-trial streams; an ensemble
    family is its own baseline.  Returns (records, baseline, skipped).
    """
    if functional is None:
        statistic, name = _ks, "ks"
    else:
        def statistic(law):
            limit = limiting_value(functional, law.params)
            return lambda spec: (evaluate(functional, spec) - limit) ** 2
        name = f"psi_{functional.kind}_sq_dev"
    own = family in ENSEMBLE_FAMILIES
    records, baseline, skipped = _batch(family, sizes, beta, gamma, trials, seed,
                                        statistic, name, baseline=not own)
    return records, records if own else baseline, skipped


# ---------------------------------------------------------------------------
# regression and hypothesis testing

@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    stderr: float
    r_squared: float
    residuals: tuple
    n_points: int


def fit_power_law(records, model: str) -> FitResult:
    """Exponent fit over a size ladder: OLS on log n of -0.5 log(var of KS
    distance) for test1, the variance decay exponent, or of -log(mean
    squared functional deviation) for test2, one side's power exponent.
    The stderr is sqrt(RSS / (N - 2) / Sxx).  A rung whose variance (test1)
    or mean (test2) is 0 or not finite raises ValueError naming it."""
    if len(records) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} ladder points")
    x = np.log(np.array([r.n for r in records], dtype=float))
    if model == "test1":
        y = -0.5 * _logs(records, records[0].frame_family, "variance")
    elif model == "test2":
        y = -_logs(records, records[0].frame_family, "mean")
    else:
        raise ValueError(f"model must be test1|test2; got {model!r}")
    fit = _line_fit(x, y, np.ones(len(y)))
    rss = sum(e * e for e in fit.residuals)
    return replace(fit, stderr=fit.stderr * math.sqrt(rss / (len(y) - 2)))


def _line_fit(x, y, w) -> FitResult:
    """Least squares of y on x with weights w.  The stderr 1/sqrt(Sxx) takes
    w as inverse variances; the residuals are weighted, so their squares
    sum to chi^2."""
    xbar, ybar = np.average(x, weights=w), np.average(y, weights=w)
    sxx = float(np.sum(w * (x - xbar) ** 2))
    slope = float(np.sum(w * (x - xbar) * (y - ybar))) / sxx
    intercept = float(ybar - slope * xbar)
    resid = np.sqrt(w) * (y - intercept - slope * x)
    chi2, tss = float(resid @ resid), float(np.sum(w * (y - ybar) ** 2))
    return FitResult(slope, intercept, 1.0 / math.sqrt(sxx), 1.0 - chi2 / tss if tss > 0 else 1.0,
                     tuple(float(e) for e in resid), len(x))


def _logs(records, side: str, stat: str) -> np.ndarray:
    """log of each rung's ``stat`` (mean or variance); a value that is 0 or
    not finite raises, naming the rung."""
    vals = [getattr(r, stat) for r in records]
    for r, v in zip(records, vals):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"the {side} {stat} at n={r.n} is {v!r}; its log is undefined")
    return np.log(vals)


def fit_log_ratio(records, baseline) -> tuple[FitResult, float]:
    """Test 2: weighted least squares of log(mean_frame / mean_baseline) on
    log n over rungs that share (n, m, k), and the two-sided normal p of
    slope 0.  The slope is the baseline's power exponent minus the frame's;
    a log factor common to both cancels.  Weights are 1 / (v_f + v_b), with
    v = variance / (T mean^2) the delta-method variance of log(mean); the
    residuals are weighted, so their sum of squares is chi^2 on N - 2 dof.
    """
    if len(records) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} ladder points")
    if [(r.n, r.m, r.k) for r in records] != [(r.n, r.m, r.k) for r in baseline]:
        raise ValueError("frame and baseline rungs differ in (n, m, k)")
    y = _logs(records, "frame", "mean") - _logs(baseline, "baseline", "mean")
    v = sum(np.array([r.variance / (r.trials * r.mean ** 2) for r in side])
            for side in (records, baseline))
    if not np.all(v > 0.0):
        raise ValueError(f"frame and baseline variances at n={records[np.argmin(v)].n} "
                         "are both 0")
    fit = _line_fit(np.log(np.array([r.n for r in records], dtype=float)), y, 1.0 / v)
    from scipy import special  # on use, so that importing the package skips it
    return fit, float(2.0 * special.ndtr(-abs(fit.slope / fit.stderr)))


def t_test_equal_slopes(fit_a: FitResult, fit_b: FitResult) -> float:
    """Two-sided p-value for equal decay exponents.

    t = (b_a - b_b)/sqrt(se_a^2 + se_b^2) against Student t with
    n_a + n_b - 4 degrees of freedom, n the fits' points.
    """
    dof = fit_a.n_points + fit_b.n_points - 4
    if dof <= 0:
        raise ValueError(f"nonpositive degrees of freedom: {dof}")
    denom = math.hypot(fit_a.stderr, fit_b.stderr)
    if denom == 0.0:
        return 1.0 if fit_a.slope == fit_b.slope else 0.0
    t = (fit_a.slope - fit_b.slope) / denom
    from scipy import special
    return float(2.0 * special.stdtr(dof, -abs(t)))


# ---------------------------------------------------------------------------
# serialization

EXPORT_VERSION = 1
_CSV_COLUMNS = ("frame_family", "n", "m", "k", "beta", "gamma", "trials",
                "statistic", "seed", "mean", "variance", "mean_square")


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _record_row(r: ExperimentRecord) -> list:
    return [r.frame_family, r.n, r.m, r.k, repr(r.beta), repr(r.gamma),
            r.trials, r.statistic, r.seed, repr(r.mean), repr(r.variance),
            repr(r.mean_square)]


def write_csv(path: str, header: str, rows) -> None:
    """A "# header" line, then one comma-joined line per row; the first row
    names the columns."""
    lines = ["# " + header] + [",".join(str(c) for c in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def export(records, fmt: str, path: str, config: dict) -> None:
    """Write records as a csv aggregate table; ``fmt`` must be "csv".

    Output bytes are a pure function of records and config: wall times are
    not serialized.
    """
    if fmt != "csv":
        raise ValueError(f"format must be csv; got {fmt!r}")
    header = f"etfspectra-export v{EXPORT_VERSION} config_sha256={_config_hash(config)}"
    write_csv(path, header, [_CSV_COLUMNS, *map(_record_row, records)])


def parse_config(text: str) -> dict:
    """Flat key-value grammar: one ``key = value`` per line, ``#`` comments,
    blank lines ignored; keys and values are stripped strings."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out
