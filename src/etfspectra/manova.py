"""The limiting spectral law MANOVA(beta, gamma), whose gamma = 0 case is
Marchenko-Pastur(beta), its moments, and the inverse-moment amplification.

The MANOVA law describes eigenvalues of the Gram matrix of a random size-k
column subset of an m-by-n tight frame with beta = k/m and gamma = m/n.
Its continuous density on (r-, r+) is

    sqrt((x - r-)(r+ - x)) / (2 beta pi x (1 - gamma x)),
    r+- = (sqrt(beta (1 - gamma)) +- sqrt(1 - beta gamma))^2,

with a point mass max(0, 1 + 1/beta - 1/(beta gamma)) at 1/gamma and, when
beta > 1, a point mass 1 - 1/beta at zero.  The same law reparameterized by
(gamma, p = beta gamma) with the zero mass stripped appears in the erasure
moment bounds; both forms are exposed here.

Integrals use the substitution x = r- + (r+ - r-) sin^2(theta), which
removes both inverse-square-root edge singularities.  With phi = 2 theta the
integrand is an even, 2 pi-periodic, analytic function of phi, so the
equispaced midpoint rule in theta converges geometrically (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review 2014).
The CDF needs no quadrature: the continuous part's antiderivative is a sum
of three arctangents in theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ManovaParams",
    "SupportEdges",
    "Atom",
    "ManovaDistribution",
    "manova_moment_numeric",
    "manova_moment_closed",
    "inverse_moment_amplification",
]


class Atom(NamedTuple):
    location: float
    mass: float


class SupportEdges(NamedTuple):
    r_minus: float
    r_plus: float


@dataclass(frozen=True)
class ManovaParams:
    """Aspect ratios beta = k/m, gamma = m/n (so p = k/n = beta*gamma);
    gamma = 0 gives the Marchenko-Pastur law of i.i.d. frames."""

    beta: float
    gamma: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be positive; got {self.beta}")
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must be in [0, 1]; got {self.gamma}")
        if not self.p <= 1 + 1e-12:
            raise ValueError(f"p = beta*gamma = {self.p} exceeds 1")

    @property
    def p(self) -> float:
        return self.beta * self.gamma

    @classmethod
    def from_counts(cls, n: int, m: int, k: int) -> "ManovaParams":
        return cls(beta=k / m, gamma=m / n)


class ManovaDistribution:
    """MANOVA(beta, gamma) law: support edges, point masses and the
    edge-substituted continuous part.  gamma = 0 is Marchenko-Pastur(beta).

    cdf() is the exact antiderivative, accurate to rounding; integrate()
    and moment() use the midpoint rule in theta, refined until it converges
    to 1e-12.
    """

    _FIRST_NODES = 16
    _MAX_NODES = 4_000_000
    _CHUNK = 1 << 16
    _RTOL = 1e-12

    def __init__(self, params: ManovaParams):
        self.params = params
        b, g, p = params.beta, params.gamma, params.p
        s = math.sqrt(b * (1.0 - g))
        t = math.sqrt(max(1.0 - p, 0.0))  # p may pass 1 by rounding (k = n)
        self.edges = SupportEdges((s - t) ** 2, (s + t) ** 2)
        # point masses, which with the continuous part have total mass 1
        atoms = []
        if b > 1.0:
            atoms.append(Atom(0.0, 1.0 - 1.0 / b))
        if p + g > 1.0:
            atoms.append(Atom(1.0 / g, 1.0 + 1.0 / b - 1.0 / p))
        self.atoms = tuple(atoms)
        self._mass0 = sum(a.mass for a in atoms if a.location == 0.0)
        self._mass_top = sum(a.mass for a in atoms if a.location > 0.0)
        # at gamma = 1 or p = 1 the edges meet and the law is its atoms alone
        self.continuous = self.edges.r_plus > self.edges.r_minus
        # delta+ = 1 - gamma r+ = (sqrt((1-gamma)(1-p)) - sqrt(gamma p))^2, the gap
        # between 1 and gamma r+ in a form that does not cancel; exactly 0 when
        # p + gamma = 1 within rounding, where r+ sits on the density's 1/gamma pole
        excess = 1.0 - p - g
        self._delta_plus = 0.0 if abs(excess) <= 4.0 * np.finfo(float).eps else (
            excess / (math.sqrt(max((1.0 - g) * (1.0 - p), 0.0)) + math.sqrt(g * p))) ** 2

    def _x_of(self, th):
        span = self.edges.r_plus - self.edges.r_minus
        return self.edges.r_minus + span * np.sin(th) ** 2

    def _weight(self, th):
        """Density in theta: the integral of g(x) f(x) dx over the support
        equals the integral over theta in [0, pi/2] of g(x(th)) w(th) dth."""
        b, g = self.params.beta, self.params.gamma
        span = self.edges.r_plus - self.edges.r_minus
        x = self._x_of(th)
        s2 = np.sin(th) ** 2
        c2 = np.cos(th) ** 2
        # 1 - g x = delta+ + g span c2, which does not round to 0 or below
        # near theta = pi/2 when r+ sits at or next to the 1/g pole
        gap = self._delta_plus + g * span * c2
        if self.edges.r_minus == 0.0:
            # beta = 1: x = span s2, so the theta -> 0 limit is finite
            return span * c2 / (b * np.pi * gap)
        return span ** 2 * s2 * c2 / (b * np.pi * x * gap)

    def integrate(self, fn) -> float:
        """Integral of fn against the full law: the midpoint rule in theta
        over the continuous part plus fn at each point mass.

        fn must be vectorised: it receives a float array of support points
        (and a float at each point mass) and returns values of the same
        shape, as ``lambda x: x ** d`` does.  The rule starts at 16 nodes and
        triples the count each round, which keeps the old nodes, until two
        estimates agree to 1e-12 relative to the integral of |fn| times the
        density.  A fn that is not analytic on the support (a step, a kink)
        converges too slowly; when one more round would pass 4e6 nodes,
        integrate raises ArithmeticError naming (beta, gamma) rather than
        return an unconverged value.
        """
        val = 0.0
        if self.continuous:
            val = self._midpoint_rule(fn)
        return val + sum(a.mass * fn(a.location) for a in self.atoms)

    def _node_sums(self, fn, th):
        """Sum of fn(x) w and of its absolute value over the nodes th."""
        f = fn(self._x_of(th)) * self._weight(th)
        return np.sum(f), np.sum(np.abs(f))

    def _midpoint_rule(self, fn) -> float:
        n = self._FIRST_NODES
        h = (math.pi / 2.0) / n
        total, size = self._node_sums(fn, (np.arange(n) + 0.5) * h)
        est = h * total
        while 3 * n <= self._MAX_NODES:
            # node j + 1/2 of the old grid is node 3j + 3/2 of the new one;
            # only 3j + 1/2 and 3j + 5/2 are new
            h /= 3.0
            for j0 in range(0, n, self._CHUNK):
                j = 3.0 * np.arange(j0, min(j0 + self._CHUNK, n))
                more, more_size = self._node_sums(fn, np.concatenate((j + 0.5, j + 2.5)) * h)
                total += more
                size += more_size
            n *= 3
            prev, est = est, h * total
            if abs(est - prev) <= self._RTOL * h * size:
                return float(est)
        b, g = self.params.beta, self.params.gamma
        raise ArithmeticError(
            f"midpoint rule on MANOVA(beta={b}, gamma={g}) did not converge to "
            f"{self._RTOL:g} with {n} nodes; last two estimates {float(prev)!r}, {float(est)!r}")

    def pdf(self, x):
        """Continuous part of the law; zero off the support and at the point
        masses, which ``atoms`` lists."""
        lo, hi = self.edges
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = (x > lo) & (x < hi)
        xi = x[inside]
        out[inside] = (np.sqrt((xi - lo) * (hi - xi))
                       / (2.0 * self.params.beta * np.pi * xi * (1.0 - self.params.gamma * xi)))
        return float(out) if out.ndim == 0 else out

    def _continuous_cdf(self, x):
        """Mass of the continuous part below x, in closed form.

        In theta the weight is (x - r-)(r+ - x) / (beta pi x (1 - gamma x)).
        Its partial fractions in x, 1/gamma - r- r+ / x
        - a delta+ / (gamma (1 - gamma x)) with a = 1 - gamma r-
        = delta+ + gamma span, each integrate to an arctangent:

            beta pi F = theta / gamma - sqrt(r- r+) psi - sqrt(a delta+) phi / gamma,
            tan psi = sqrt(r+ / r-) tan theta,  tan phi = sqrt(delta+ / a) tan theta.

        The 1/gamma terms are regrouped as (theta - phi)/gamma + K phi, with
        K = (1 - sqrt(a delta+))/gamma = (r- + a r+)/(1 + sqrt(a delta+)),
        so that nothing cancels as gamma -> 0.
        """
        b, g = self.params.beta, self.params.gamma
        lo, hi = self.edges
        span = hi - lo
        gap = self._delta_plus
        a = gap + g * span
        rho = math.sqrt(gap / a)
        k = (lo + hi * a) / (1.0 + math.sqrt(a * gap))
        root = math.sqrt(lo * hi)
        s = np.sqrt(np.clip((x - lo) / span, 0.0, 1.0))
        c = np.sqrt(np.clip((hi - x) / span, 0.0, 1.0))
        # tan(theta - phi) = gamma num / den; den is 0 only at r+ on the pole
        num = span * s * c
        den = a * (1.0 + rho) * (c * c + rho * s * s)
        lead = num / den if g == 0.0 else np.arctan2(g * num, den) / g
        below = (lead + k * np.arctan2(math.sqrt(gap) * s, math.sqrt(a) * c)
                 - root * np.arctan2(math.sqrt(hi) * s, math.sqrt(lo) * c)) / (b * np.pi)
        return np.where(x >= hi, (k - root) / (2.0 * b), below)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0.0, self._mass0, 0.0)
        if self.continuous:
            out = out + self._continuous_cdf(x)
        if self._mass_top:
            out = out + np.where(x >= 1.0 / self.params.gamma, self._mass_top, 0.0)
        return float(out) if out.ndim == 0 else out

    def total_mass(self) -> float:
        return self.moment(0)

    def moment(self, d: int) -> float:
        """Integral of x^d against the full law (beta normalization)."""
        if d < 0 and self._mass0 > 0.0:
            raise ValueError("negative moment diverges: law has mass at zero")
        return self.integrate(lambda x: x ** d)


# ---------------------------------------------------------------------------
# moments

def manova_moment_numeric(d: int, params: ManovaParams) -> float:
    """The n-normalized subset moment min(p, gamma) * E[t^d] of the
    stripped-zero (gamma, p) law; equals p times the beta-normalized
    moment without the mass at zero.

    d = -1 is the inverse moment and needs beta < 1.
    """
    d = int(d)
    if d < -1:
        raise ValueError("only d >= -1 is supported")
    if d == -1 and not params.beta < 1.0:
        raise ValueError("d = -1 requires beta < 1")
    law = ManovaDistribution(params)
    return params.p * (law.moment(d) - (law._mass0 if d == 0 else 0.0))


def manova_moment_closed(d: int, params: ManovaParams) -> float:
    """Exact polynomial value of the subset moment, d in 1..12."""
    from .moments import asymptotic_moment

    x = 1.0 / params.gamma - 1.0
    return asymptotic_moment(d).evaluate(params.p, x)


def inverse_moment_amplification(beta: float, p: float) -> float:
    """Arithmetic-to-harmonic means ratio of the limiting subset spectrum:
    (1-p)/(1-beta) for beta < 1, (beta-p)/(beta-1) for beta > 1."""
    if beta == 1.0:
        raise ZeroDivisionError("amplification diverges at beta = 1")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must be in [0, 1); got {p}")
    if beta < 1.0:
        return (1.0 - p) / (1.0 - beta)
    return (beta - p) / (beta - 1.0)
