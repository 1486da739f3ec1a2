"""Subset spectra: sampling column subsets, Gram eigenvalues and inverse
traces, KS distances, draws from the MANOVA(n, m, k) matrix ensemble, and
the Monte Carlo trial engine that every estimator in the package runs on.

The Gram of a selected m-by-k subframe is formed on the smaller side
(k-by-k when k <= m, else m-by-m); the two sides share their nonzero
spectrum, so the stored spectrum always has r = min(k, m) entries.  A
k <= m subset of a frame with a circulant Gram row (the harmonic frames)
gathers its k-by-k Gram from that row; every other subset takes one rank-k
update of its columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import blas, lapack

from .frames import FrameMatrix
from .rng import derive_rng

__all__ = [
    "SubsetSpectrum",
    "select",
    "subset_gram_spectrum",
    "subset_gram_traces",
    "ks_distance",
    "sample_manova_ensemble",
    "run_trials",
    "ZERO_CLAMP",
]

ZERO_CLAMP = 1e-10
INVERSE_TRACE_CERTIFIED = 0.01 / ZERO_CLAMP  # tr G^-1 at most this: lambda_min >= 100 ZERO_CLAMP


def select(n: int, rng: np.random.Generator, k: int | None = None,
           p: float | None = None) -> np.ndarray:
    """Sorted int64 indices of a subset of {0..n-1}: a uniform k-subset
    (give ``k``) or Bernoulli(p) marks (give ``p``)."""
    if (p is None) == (k is None):
        raise ValueError("give exactly one of p or k")
    if p is None:
        if not 0 <= k <= n:
            raise ValueError(f"a uniform k-subset needs 0 <= k <= n; got k={k}")
        return np.sort(rng.permutation(n)[:k])
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Bernoulli marks need 0 <= p <= 1; got p={p}")
    return np.nonzero(rng.random(n) < p)[0]


@dataclass(frozen=True)
class SubsetSpectrum:
    """Ascending nonzero eigenvalues of a subset Gram with (m, k) context.

    r = min(k, m) values; eigenvalues below the clamp are stored as 0 and
    counted in ``clamped``.
    """

    eigenvalues: np.ndarray
    m: int
    k: int
    clamped: int = 0

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def r(self) -> int:
        return min(self.k, self.m)


def _clamp(ev: np.ndarray) -> tuple[np.ndarray, int]:
    if ev.size and ev.min() < -1e-8:
        raise linalg.LinAlgError(f"Gram eigenvalue {ev.min()} is significantly negative")
    n_clamped = int(np.count_nonzero(ev < ZERO_CLAMP))
    return np.where(ev < ZERO_CLAMP, 0.0, ev), n_clamped


def _subset_gram(F: FrameMatrix, idx):
    """(G, m, k): the Gram of the columns ``idx`` on the smaller side, with
    at least its lower triangle filled.

    A k <= m subset of a frame with a circulant row g is the gather
    G_ab = g[(idx_b - idx_a) mod n], both triangles, O(k^2) and no
    arithmetic; an index of n or more, or below -n, raises IndexError as
    indexing the entries would.  Every other subset, and the m-by-m side,
    takes one rank-k update of its columns (``herk`` for complex frames,
    ``syrk`` for real ones), which fills the lower triangle.
    """
    if len(idx) == 0:
        raise ValueError("empty subset")
    m, n, k = F.m, F.n, len(idx)
    if F.circulant_row is not None and k <= m:
        idx = np.asarray(idx)
        if idx.dtype.kind not in "iu" or idx.max() >= n or idx.min() < -n:
            raise IndexError(f"subset indices must be integers in [-{n}, {n})")
        return np.take(F.circulant_row, idx[None, :] - idx[:, None], mode="wrap"), m, k
    A = np.asfortranarray(F.entries[:, idx])
    rank_k_update = blas.zherk if F.is_complex else blas.dsyrk
    return rank_k_update(1.0, A, trans=2 if k <= m else 0, lower=1), m, k  # A'A or AA'


def subset_gram_spectrum(F: FrameMatrix, idx: np.ndarray) -> SubsetSpectrum:
    """Eigenvalues of the Gram of the columns ``idx``, ascending.

    The Gram is ``_subset_gram``'s: gathered from a harmonic frame's
    circulant row when k <= m, else one rank-k update.  ``eigvalsh`` reads
    only the lower triangle, which both fill.
    """
    return _gram_spectrum(*_subset_gram(F, idx))


def _gram_spectrum(G: np.ndarray, m: int, k: int) -> SubsetSpectrum:
    ev, n_clamped = _clamp(np.linalg.eigvalsh(G))
    return SubsetSpectrum(ev, m, k, clamped=n_clamped)


def subset_gram_traces(F: FrameMatrix, idx: np.ndarray) -> tuple[float, float, int]:
    """(tr G, tr G^-1, r) of the subset Gram of ``subset_gram_spectrum``
    (the same ``_subset_gram``, gathered or from a rank-k update).

    tr G^-1 = ||L^-1||_F^2 for the Cholesky factor L (``potrf``, ``trtri``).
    As 1/lambda_min <= tr G^-1, a value up to INVERSE_TRACE_CERTIFIED proves
    that the spectrum clamps no eigenvalue; any other subset returns the
    spectrum's sums, with tr G^-1 = inf when it clamps one.  ``potrf``
    factors a copy, so that subset's eigensolve reuses G.
    """
    G, m, k = _subset_gram(F, idx)
    trace = float(np.trace(G).real)
    potrf, trtri = lapack.get_lapack_funcs(("potrf", "trtri"), (G,))
    L, info = potrf(G, lower=1)
    if info == 0:
        L_inv, info = trtri(L, lower=1, overwrite_c=1)
        inverse_trace = float(np.linalg.norm(L_inv)) ** 2
        if info == 0 and inverse_trace <= INVERSE_TRACE_CERTIFIED:
            return trace, inverse_trace, min(m, k)
    spec = _gram_spectrum(G, m, k)
    ev = spec.eigenvalues
    return float(np.sum(ev)), math.inf if spec.clamped else float(np.sum(1.0 / ev)), spec.r


def ks_distance(spec: SubsetSpectrum, reference_cdf) -> float:
    """Sup distance between the sample's empirical CDF and a reference CDF.

    Exact for any nondecreasing reference, atoms and tied values included:
    at each sorted eigenvalue v the empirical CDF's own counts, of values
    <= v and of values < v, meet the reference at v and at its left limit,
    taken at the previous representable float.  Between two samples the
    empirical CDF is flat, so a jump of the reference inside the gap never
    beats the gap's endpoints.  ``reference_cdf`` is any callable accepting
    an array (e.g. ManovaDistribution.cdf).
    """
    vals = spec.eigenvalues
    r = len(vals)
    if r == 0:
        raise ValueError("empty spectrum")
    ref = np.asarray(reference_cdf(vals), dtype=float)
    ref_left = np.asarray(reference_cdf(np.nextafter(vals, -np.inf)), dtype=float)
    hi = np.searchsorted(vals, vals, "right") / r
    lo = np.searchsorted(vals, vals, "left") / r
    return max(float(np.max(np.abs(ref - hi))), float(np.max(np.abs(ref_left - lo))))


def _count(name: str, value) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is
    integral (100.0 and numpy ints pass; 100.7, "100", None and nan do not)."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value:
        raise ValueError(f"{name} must be an integer; got {value!r}")
    return count


def sample_manova_ensemble(n: int, m: int, k: int, field: str,
                           rng: np.random.Generator) -> SubsetSpectrum:
    """One spectrum draw from the MANOVA(n, m, k) matrix ensemble.

    For k <= m these are the eigenvalues of
    (n/m) (AA' + BB')^(-1/2) BB' (AA' + BB')^(-1/2) with A of shape
    k x (n-m) and B of shape k x m i.i.d. Gaussian.  For k > m the roles
    of k and m are swapped and the k/m nonzero-spectrum scaling applied,
    so values again live in [0, n/m].  Non-integer counts are refused.

    The values are 1 / (1 + nu) for the eigenvalues nu of (BB')^-1 AA'.
    AA' is unitarily invariant and independent of BB' = U L U', so nu
    depends on BB' only through the law of its eigenvalues L, and BB' is
    drawn as VV' for the upper-bidiagonal Laguerre factor V of Dumitriu
    and Edelman (2002): real, chi diagonals of f(c - i) and chi
    superdiagonals of f(r - 1 - i) degrees of freedom, f = 1 (real) or
    2 (complex).  AA' is RR' for its Bartlett factor R (Bartlett 1933;
    Goodman 1963 for the complex field): chi diagonal and Gaussian entries
    above it, and only those are drawn.  C = V^-1 R is one banded solve
    (``tbtrs``), and nu are the eigenvalues of CC' (``lauum``, C upper
    triangular) or C'C (``herk``/``syrk``), one standard Hermitian
    ``eigh``.  When AA' has rank n - c < r, R keeps n - c columns and the
    missing r - (n - c) values sit at the top edge.  On one BLAS thread at
    (n, m, k) = (863, 431, 345) a complex draw takes a median 20 ms, 14 ms
    of it in ``eigh``, against 27 ms with a Bartlett factor for BB' as
    well and a triangular solve (``trsm``) in place of ``tbtrs``.
    """
    n, m, k = _count("n", n), _count("m", m), _count("k", k)
    if not (1 <= k <= n and 1 <= m <= n):
        raise ValueError(f"need 1 <= k, m <= n; got n={n}, m={m}, k={k}")
    if field not in ("real", "complex"):
        raise ValueError(f"field must be 'real' or 'complex'; got {field!r}")
    r, c = (k, m) if k <= m else (m, k)
    d = n - c  # AA' is r x r of rank w
    w = min(r, d)
    lam = np.ones(r)
    if w:
        f = 2 if field == "complex" else 1
        if f == 2:
            dtype, tbtrs, lauum, rank_update, trans = (
                complex, lapack.ztbtrs, lapack.zlauum, blas.zherk, 2)
        else:
            dtype, tbtrs, lauum, rank_update, trans = (
                float, lapack.dtbtrs, lapack.dlauum, blas.dsyrk, 1)
        V = np.zeros((2, r), dtype)  # upper band storage: superdiagonal, diagonal
        V[1] = np.sqrt(rng.chisquare(f * (c - np.arange(r))))
        V[0, 1:] = np.sqrt(rng.chisquare(f * (r - 1 - np.arange(r - 1))))
        # R' row by row: R's column j has its chi in row r - w + j and
        # Gaussians above it
        rows = r - w + np.arange(w)
        above = np.arange(r) < rows[:, None]
        chi = np.sqrt(rng.chisquare(f * (d - w + 1 + np.arange(w))))
        Rt = np.zeros((w, r), dtype)
        Rt[above] = rng.standard_normal(f * int(rows.sum())).view(dtype)
        Rt[np.arange(w), rows] = chi
        C = tbtrs(V, Rt.T, overwrite_b=1)[0]  # Rt.T is R in Fortran order
        if w == r:
            W = lauum(C, lower=0, overwrite_c=1)[0]  # CC' in the upper triangle
        else:
            W = rank_update(1.0, C, trans=trans, lower=0)  # C'C in the upper triangle
        nu = linalg.eigh(W, lower=False, eigvals_only=True, overwrite_a=True)
        lam[:w] = 1.0 / (1.0 + np.clip(nu, 0.0, None))
    ev = lam * (n / c)
    if k > m:
        ev = ev * (k / m)
    ev, n_clamped = _clamp(np.sort(ev))
    return SubsetSpectrum(ev, m, k, clamped=n_clamped)


# ---------------------------------------------------------------------------
# the Monte Carlo trial engine

def run_trials(source, trials: int, statistic, seed=None, path=(),
               k: int | None = None, p: float | None = None, measure=None) -> list:
    """``statistic(draw)`` for each of ``trials`` independent draws.

    ``source`` is a FrameMatrix, whose draw is ``measure(F, idx)`` of a
    uniform k-subset (give ``k``) or of Bernoulli(p) marks (give ``p``) of
    its columns, or an ensemble spec (n, m, field), whose draw is a
    spectrum from the MANOVA(n, m, k) matrix ensemble.  The measure
    defaults to the Gram spectrum (``subset_gram_spectrum``, looked up at
    call time); ``subset_gram_traces`` is the one other.  An empty
    selection has an empty spectrum; under any other measure it raises a
    ValueError naming the trial, as does ``trials`` < 1.  Trials run one at
    a time, and trial t draws from derive_rng(seed, *path, t + 1) alone, so
    its value does not depend on the trials before it.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial; got trials={trials}")
    if isinstance(source, FrameMatrix):
        F = source
        measure = subset_gram_spectrum if measure is None else measure

        def draw(t, rng):
            idx = select(F.n, rng, k=k, p=p)
            if len(idx):
                return measure(F, idx)
            if measure is subset_gram_spectrum:
                return SubsetSpectrum(np.empty(0), F.m, 0)
            raise ValueError(f"trial {t} selected no column; only the spectrum "
                             "measure takes an empty subset")
    else:
        n, m, field_tag = source
        if k is None or p is not None:
            raise ValueError("ensemble draws take k, not p")
        if measure is not None:
            raise ValueError("an ensemble draw is a spectrum; it takes no measure")

        def draw(t, rng):
            return sample_manova_ensemble(n, m, k, field_tag, rng)

    return [statistic(draw(t, derive_rng(seed, *path, t + 1))) for t in range(trials)]
