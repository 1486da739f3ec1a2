"""Spectral functionals of subset Grams and their limiting values.

Each functional maps the eigenvalues of a subset Gram to a scalar:
restricted-isometry radius, its statistical indicator, the
arithmetic-to-harmonic means ratio driving analog-coding amplification,
the Shannon transform (bits), and the extreme/condition statistics.
``limiting_value`` evaluates the same functionals against the limiting
MANOVA law, whose gamma = 0 case is Marchenko-Pastur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manova import ManovaDistribution, ManovaParams, inverse_moment_amplification
from .spectra import ZERO_CLAMP, SubsetSpectrum

__all__ = ["FunctionalSpec", "evaluate", "limiting_value", "KINDS"]

KINDS = ("rip", "strip", "ac", "shannon", "max", "min", "cond")


@dataclass(frozen=True)
class FunctionalSpec:
    """A functional kind plus its parameter (delta for strip, alpha for
    shannon)."""

    kind: str
    delta: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown functional {self.kind!r}")
        if self.kind == "strip" and not (self.delta is not None and self.delta > 0):
            raise ValueError("strip needs delta > 0")
        if self.kind == "shannon" and not (self.alpha is not None and self.alpha >= 0):
            raise ValueError("shannon needs alpha >= 0")


def evaluate(spec: FunctionalSpec, spectrum: SubsetSpectrum) -> float:
    """Apply the functional to one spectrum.

    The AC ratio uses the r = min(k, m) nonzero eigenvalues; a (near-)zero
    eigenvalue makes it diverge, reported as math.inf.  The Shannon
    transform normalizes by k, so structurally zero eigenvalues of wide
    subsets contribute nothing.
    """
    ev = spectrum.eigenvalues
    if len(ev) == 0:
        raise ValueError("empty spectrum")
    kind = spec.kind
    if kind == "rip":
        return float(max(ev.max() - 1.0, 1.0 - ev.min()))
    if kind == "strip":
        return 1.0 if evaluate(FunctionalSpec("rip"), spectrum) <= spec.delta else 0.0
    if kind == "ac":
        if ev.min() < ZERO_CLAMP:
            return math.inf
        return float(np.mean(1.0 / ev) * np.mean(ev))
    if kind == "shannon":
        return float(np.sum(np.log2(1.0 + spec.alpha * ev)) / spectrum.k)
    if kind == "max":
        return float(ev.max())
    if kind == "min":
        return float(ev.min())
    if kind == "cond":
        if ev.min() < ZERO_CLAMP:
            return math.inf
        return float(ev.max() / ev.min())
    raise AssertionError(kind)


def limiting_value(spec: FunctionalSpec, params: ManovaParams) -> float:
    """Limit of the functional under the MANOVA(beta, gamma) law; gamma = 0
    is Marchenko-Pastur(beta)."""
    kind = spec.kind
    if kind == "ac":
        if params.beta >= 1.0:
            raise ValueError("AC limit needs beta < 1 (mass at zero otherwise)")
        return inverse_moment_amplification(params.beta, params.p)
    law = ManovaDistribution(params)
    if kind in ("rip", "strip", "max", "min", "cond"):
        locations = [a.location for a in law.atoms]
        lo = min([law.edges.r_minus] + locations)
        hi = max([law.edges.r_plus] + locations)
        if kind == "max":
            return hi
        if kind == "min":
            return lo
        if kind == "cond":
            return math.inf if lo == 0.0 else hi / lo
        rip = max(hi - 1.0, 1.0 - lo)
        return rip if kind == "rip" else (1.0 if rip <= spec.delta else 0.0)
    if kind == "shannon":
        return law.integrate(lambda x: np.log2(1.0 + spec.alpha * x))
    raise AssertionError(kind)
