"""Analog erasure coding performance.

Source coding: n i.i.d. samples, k important ones known to the encoder,
m quantized projections (p = k/n, beta = k/m < 1).  Channel coding: m
symbols spread over n channel uses with Bernoulli(p) survival (beta = k/m
> 1).  Both directions pay a spectral amplification

    Lambda(beta, p) = (mean of 1/lambda) * (mean of lambda)

over the subset Gram spectrum; the Marchenko-Pastur and MANOVA laws give
1/(1-beta) and (1-p)/(1-beta) (source side), beta/(beta-1) and
(beta-p)/(beta-1) (channel side).  All rates are in bits (base-2 logs);
``y`` denotes the linear SDR/SNR.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .frames import FrameMatrix
from .functionals import FunctionalSpec, evaluate
from .manova import inverse_moment_amplification
from .spectra import ZERO_CLAMP, run_trials, subset_gram_spectrum

__all__ = [
    "AmplificationModel",
    "amplification",
    "rdf",
    "shannon_capacity",
    "rate_sc",
    "capacity_cc",
    "optimize_beta",
    "high_resolution_gaps",
    "si_benchmark",
    "mlie",
    "MlieResult",
]


@dataclass(frozen=True)
class AmplificationModel:
    """Which amplification law to plug into the rate/capacity formulas."""

    kind: str  # "mp" | "manova" | "empirical"
    frame: FrameMatrix | None = None
    trials: int = 100
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("mp", "manova", "empirical"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "empirical" and self.frame is None:
            raise ValueError("empirical model needs a frame")


def _as_model(model) -> AmplificationModel:
    return model if isinstance(model, AmplificationModel) else AmplificationModel(str(model))


_AC = FunctionalSpec("ac")


def empirical_ahmr(F: FrameMatrix, k: int, trials: int, seed=None) -> float:
    """Monte Carlo arithmetic-to-harmonic means ratio of subset spectra."""
    return float(np.mean(run_trials(F, trials, lambda spec: evaluate(_AC, spec), seed, k=k)))


def amplification(model, beta: float, p: float) -> float:
    """Lambda(beta, p) >= 1 under the chosen model.

    MP is the MANOVA law at p = 0 (i.i.d. frames forget the ambient
    ratio); the empirical model draws k = round(beta * m) columns of its
    frame.
    """
    model = _as_model(model)
    if beta == 1.0:
        raise ZeroDivisionError("amplification diverges at beta = 1")
    if model.kind == "mp":
        return inverse_moment_amplification(beta, 0.0)
    if model.kind == "manova":
        return inverse_moment_amplification(beta, p)
    k = int(round(beta * model.frame.m))
    return empirical_ahmr(model.frame, k, model.trials, model.seed)


def rdf(p: float, y: float) -> float:
    """Erasure rate-distortion function (p/2) log2(y), bits per sample."""
    return 0.5 * p * math.log2(y)


def shannon_capacity(p: float, y: float) -> float:
    """Erasure channel capacity (p/2) log2(1 + y), bits per channel use."""
    return 0.5 * p * math.log2(1.0 + y)


def rate_sc(beta: float, p: float, sdr: float, model) -> float:
    """Finite-SDR rate of the analog source coding scheme, bits/sample."""
    if not p < beta < 1.0:
        raise ValueError(f"source coding needs p < beta < 1; got beta={beta}")
    if sdr < 1.0:
        raise ValueError("rate is defined for sdr >= 1")
    lam = amplification(model, beta, p)
    effective = (sdr - 1.0) * beta * lam
    if not math.isfinite(effective):
        raise OverflowError(f"effective SDR overflows at sdr={sdr}, beta={beta}")
    return (1.0 / beta) * 0.5 * p * math.log2(1.0 + effective)


def capacity_cc(beta: float, p: float, snr: float, model) -> float:
    """Achievable rate of analog channel coding, bits per channel use."""
    if not beta > 1.0:
        raise ValueError(f"channel coding needs beta > 1; got beta={beta}")
    lam = amplification(model, beta, p)
    effective = snr * beta / lam
    if not math.isfinite(effective):
        raise OverflowError(f"effective SNR overflows at snr={snr}, beta={beta}")
    return (1.0 / beta) * shannon_capacity(p, effective)


def _golden_min(f, lo: float, hi: float, tol: float = 1e-6):
    """Golden-section minimum of a unimodal f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def optimize_beta(direction: str, p: float, y: float, model):
    """Best redundancy: minimizes the source rate or maximizes the channel
    capacity by golden section to width 1e-6 (the objective is smooth and
    empirically unimodal).  The source search spans beta in [p + 1e-4,
    1 - 1e-4], which is empty from p = 0.9998 on; the channel search spans
    beta up to max(10, p / 1e-4), i.e. gamma down to 1e-4.  Both need p in
    [0, 1].  Returns (beta_opt, optimum value); when the objective is 0 for
    every beta (p = 0, a source SDR of 1 or a channel SNR of 0) no beta is
    optimal, and it returns (nan, 0.0)."""
    tol = 1e-6
    if direction == "source":
        lo, hi = p + 1e-4, 1.0 - 1e-4
        objective = lambda b: rate_sc(b, p, y, model)
    elif direction == "channel":
        lo, hi = 1.0 + 1e-6, max(10.0, p / 1e-4)
        objective = lambda b: -capacity_cc(b, p, y, model)
    else:
        raise ValueError(f"direction must be source|channel; got {direction!r}")
    if not (0.0 <= p <= 1.0 and hi - lo > tol):
        raise ValueError(f"no {direction} beta to search at p={p}: the bracket is [{lo}, {hi}], "
                         f"and the search needs 0 <= p <= 1 and a width above {tol}")
    if p == 0.0 or y == (1.0 if direction == "source" else 0.0):
        return math.nan, 0.0
    b, v = _golden_min(objective, lo, hi, tol)
    return (b, -v) if direction == "channel" else (b, v)


def high_resolution_gaps(p: float, y: float) -> dict:
    """Gaps from the Shannon limits at the optimized beta, for the MP and
    MANOVA amplification laws, next to the analytic predictions.

    The scheme-vs-scheme differences have the exact high-resolution limits
    +-(p/2) log2(1-p); the absolute gaps grow like (p/2) log2 log2 y.
    """
    out = {}
    for kind in ("mp", "manova"):
        _, r = optimize_beta("source", p, y, kind)
        out[f"gap_sc_{kind}"] = r - rdf(p, y)
        _, c = optimize_beta("channel", p, y, kind)
        out[f"gap_cc_{kind}"] = c - shannon_capacity(p, y)
    out["diff_sc"] = out["gap_sc_manova"] - out["gap_sc_mp"]
    out["diff_cc"] = out["gap_cc_manova"] - out["gap_cc_mp"]
    out["diff_sc_analytic"] = 0.5 * p * math.log2(1.0 - p)
    out["diff_cc_analytic"] = -0.5 * p * math.log2(1.0 - p)
    out["loglog_term"] = 0.5 * p * math.log2(math.log2(y))
    return out


def si_benchmark(p: float) -> float:
    """Bits per sample to ship the importance pattern: binary entropy."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1]; got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class MlieResult:
    """Mean log inverse energy with the divergent-pattern bookkeeping."""

    value: float
    patterns: int
    divergent: int


def _inverse_energy(spec) -> float:
    ev = spec.eigenvalues
    if ev.min() < ZERO_CLAMP:
        return math.inf
    return float(np.sum(1.0 / ev)) / spec.m


def mlie(F: FrameMatrix, k: int, mode: str = "exact", trials: int = 1000,
         seed=None) -> MlieResult:
    """Average over k-subsets of (m/n)(1/2) log2 of the inverse energy
    (1/m) tr(Gram^-1).

    ``exact`` enumerates all C(n, k) patterns (guarded to 10^6);
    ``montecarlo`` samples.  Rank-deficient patterns are excluded from the
    mean and counted as divergent.
    """
    n, m = F.n, F.m
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n; got k={k}")
    if mode == "exact":
        if math.comb(n, k) > 10 ** 6:
            raise ValueError("too many patterns for exact mode")
        etas = [_inverse_energy(subset_gram_spectrum(F, idx))
                for idx in itertools.combinations(range(n), k)]
    elif mode == "montecarlo":
        etas = run_trials(F, trials, _inverse_energy, seed, k=k)
    else:
        raise ValueError(f"mode must be exact|montecarlo; got {mode!r}")
    finite = [e for e in etas if math.isfinite(e)]
    divergent = len(etas) - len(finite)
    value = (m / n) * 0.5 * float(np.mean(np.log2(finite))) if finite else math.inf
    return MlieResult(value, len(etas), divergent)
