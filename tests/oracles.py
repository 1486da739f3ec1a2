"""Reference computations the tests compare the package against; none is
reached from the package.  Each is a slower or more literal route to a
quantity the package computes another way: the cycle contraction behind
``moments.partition_census``, the index-tuple enumeration behind
``moments.exact_expected_moment``, the eta-transform derivation of
``manova.inverse_moment_amplification``, the MANOVA CDF and integrals
against the MANOVA law by adaptive quadrature, an empirical CDF for
``spectra.ks_distance``, and the dense MANOVA-ensemble sampler behind
``spectra.sample_manova_ensemble``.  Two builders of test inputs close the
file: a spectrum holding given values and a unit-norm Gaussian frame.
"""

import itertools
import math

import numpy as np
from scipy import integrate, linalg

from etfspectra import frames as fr
from etfspectra import spectra as sp


# ---------------------------------------------------------------------------
# non-crossing partitions of {1..d}

def is_noncrossing(blocks) -> bool:
    """No a < b < c < d with {a, c} and {b, d} split across two blocks."""
    blocks = [tuple(sorted(b)) for b in blocks]
    for b1, b2 in itertools.combinations(blocks, 2):
        for a, c in itertools.combinations(b1, 2):
            for b, e in itertools.combinations(b2, 2):
                if a < b < c < e or b < a < e < c:
                    return False
    return True


def contract_cycle(blocks, d: int | None = None) -> tuple:
    """Cycle lengths obtained by contracting the d-cycle along a
    non-crossing partition of {1..d}, given as a list of blocks.

    Merged neighbors produce self-loops with unit correlation, which are
    dropped; what remains is a cactus whose edges split uniquely into
    edge-disjoint cycles (doubled edges count as 2-cycles).  Returns the
    sorted tuple of cycle lengths.
    """
    blocks = [tuple(sorted(b)) for b in blocks]
    elements = sorted(itertools.chain.from_iterable(blocks))
    if d is None:
        d = len(elements)
    if elements != list(range(1, d + 1)):
        raise ValueError("partition must cover {1..d} exactly")
    if not is_noncrossing(blocks):
        raise ValueError("crossing partition: cycle decomposition is not defined")
    label = {e: bi for bi, b in enumerate(blocks) for e in b}
    walk = [label[i] for i in range(1, d + 1)]
    # closed walk around the quotient; non-crossing => each cycle closes
    # before its enclosing one resumes, so a stack recovers the lengths
    stack = [walk[0]]
    cycles = []
    for t in range(1, d + 1):
        b = walk[t % d]
        if b == stack[-1]:
            continue  # self-loop
        if b in stack:
            j = len(stack) - 1 - stack[::-1].index(b)
            cycles.append(len(stack) - j)
            del stack[j + 1:]
        else:
            stack.append(b)
    if len(stack) != 1:
        raise ValueError("contraction did not close; partition is not non-crossing")
    return tuple(sorted(cycles))


def narayana(d: int, k: int) -> int:
    if not 1 <= k <= d:
        return 0
    return math.comb(d, k) * math.comb(d, k - 1) // d


def catalan(d: int) -> int:
    return math.comb(2 * d, d) // (d + 1)


# ---------------------------------------------------------------------------
# exact subset moments by index-tuple enumeration

MAX_TUPLE_ENUMERATION = 10 ** 8


def tuple_expected_moment(G, d: int) -> np.ndarray:
    """a_{d,k} (k = 0..d) of the frame with Gram matrix G, by summing the
    correlation cycle G[i1,i2] ... G[id,i1] of every one of the n^d index
    tuples into the slot of its number k of distinct indices, in chunks of
    2^20 tuples.  Guarded to d <= 4 and n^d <= 10^8."""
    chunk = 1 << 20
    n = G.shape[0]
    if d < 1 or d > 4:
        raise ValueError("tuple enumeration supports d in 1..4")
    if n ** d > MAX_TUPLE_ENUMERATION:
        raise ValueError(f"n^d = {n ** d} exceeds the enumeration guard")
    sums = np.zeros(d + 1, dtype=complex)
    total = n ** d
    shape = (n,) * d
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        idx = np.stack(np.unravel_index(flat, shape))  # (d, chunk)
        vals = G[idx[d - 1], idx[0]].copy()
        for t in range(d - 1):
            vals *= G[idx[t], idx[t + 1]]
        distinct = np.ones(len(flat), dtype=np.int64)
        srt = np.sort(idx, axis=0)
        for t in range(1, d):
            distinct += srt[t] != srt[t - 1]
        for k in range(1, d + 1):
            sums[k] += vals[distinct == k].sum()
    sums /= n
    if np.abs(sums.imag).max() > 1e-8:
        raise ArithmeticError("correlation cycle sums should be real")
    return sums.real


# ---------------------------------------------------------------------------
# eta transform of the erased-DFT Gram limit
#
# s and t are the row/column erasure fractions; the unit-norm frame picture
# has gamma = 1 - s and p = 1 - t.

def eta_tilde(s: float, t: float, z: float) -> float:
    """Eta transform of the erased Gram including its zero mass."""
    disc = 1.0 + (2.0 * (s + t) - 4.0 * s * t) * z + (s - t) ** 2 * z ** 2
    return (1.0 + (s + t) * z + math.sqrt(disc)) / (2.0 * (1.0 + z))


def eta_normalized(s: float, t: float, z: float) -> float:
    """Eta transform after stripping the zero mass (fraction max(s, t))."""
    mx = max(s, t)
    return (eta_tilde(s, t, z) - mx) / (1.0 - mx)


def z_eta_limit(s: float, t: float) -> float:
    """lim z->inf of z * eta_normalized = max(s, t)/|s - t|."""
    if s == t:
        raise ZeroDivisionError("limit diverges for s = t")
    return max(s, t) / abs(s - t)


# ---------------------------------------------------------------------------
# CDFs

def cdf_quad(dist, x: float) -> float:
    """Scalar CDF of a ManovaDistribution by adaptive quadrature."""
    x = float(x)
    if x < dist.edges.r_minus:
        cont = 0.0
    else:
        lo, top = dist.edges
        hi = math.asin(math.sqrt(min(x - lo, top - lo) / (top - lo)))
        cont, _ = integrate.quad(dist._weight, 0.0, hi, epsabs=1e-12, limit=200)
    out = cont + (dist._mass0 if x >= 0.0 else 0.0)
    if dist._mass_top and x >= 1.0 / dist.params.gamma:
        out += dist._mass_top
    return out


def integrate_quad(dist, fn) -> float:
    """Integral of fn against a ManovaDistribution by adaptive quadrature
    in the edge-substituted variable, plus fn at each point mass."""
    val = 0.0
    if dist._continuous:
        val, _ = integrate.quad(lambda th: fn(dist._x_of(th)) * dist._weight(th),
                                0.0, math.pi / 2.0, epsabs=1e-10, epsrel=1e-11, limit=200)
    return val + sum(a.mass * fn(a.location) for a in dist.atoms)


def empirical_cdf(sample):
    """Right-continuous empirical CDF of a spectrum or an array of values."""
    points = np.sort(np.asarray(getattr(sample, "eigenvalues", sample), dtype=float))
    if len(points) == 0:
        raise ValueError("empty spectrum")

    def cdf(x):
        out = np.searchsorted(points, np.asarray(x, dtype=float), side="right") / len(points)
        return float(out) if out.ndim == 0 else out

    return cdf


# ---------------------------------------------------------------------------
# the MANOVA matrix ensemble by full products

def dense_manova_ensemble(n: int, m: int, k: int, field: str, rng) -> np.ndarray:
    """Ascending eigenvalues of one MANOVA(n, m, k) draw by the definition:
    Gaussian A and B (complex ones scaled by 1/sqrt(2)), full ``gemm``
    products BB' and AA' + BB', both symmetrized, and ``eigh``'s ``gvd``
    driver on the pencil; values below ``spectra.ZERO_CLAMP`` are not
    clamped.  It draws the same law as ``spectra.sample_manova_ensemble``
    from a different stream, so the two are compared in distribution."""

    def gaussian(shape):
        if field == "real":
            return rng.standard_normal(shape)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)

    r, c = (k, m) if k <= m else (m, k)
    A = gaussian((r, n - c))
    B = gaussian((r, c))
    BB = B @ B.conj().T
    SS = BB + A @ A.conj().T
    BB = 0.5 * (BB + BB.conj().T)
    SS = 0.5 * (SS + SS.conj().T)
    ev = np.clip(linalg.eigh(BB, SS, eigvals_only=True, driver="gvd"), 0.0, 1.0) * (n / c)
    return np.sort(ev * (k / m) if k > m else ev)


# ---------------------------------------------------------------------------
# test inputs

def spectrum(values) -> sp.SubsetSpectrum:
    """A spectrum holding the given values in ascending order, with
    k = m = the number of values."""
    values = np.sort(np.asarray(values, dtype=float))
    return sp.SubsetSpectrum(values, len(values), len(values))


def unit_norm_gaussian(n: int, m: int, seed: int) -> fr.FrameMatrix:
    """The gaussian_iid frame with each column scaled to unit norm."""
    E = fr.construct_random("gaussian_iid", n, m, seed=seed).entries
    return fr.FrameMatrix(E / np.linalg.norm(E, axis=0, keepdims=True), "gaussian_iid",
                          seed=seed, params={"n": n, "m": m})
