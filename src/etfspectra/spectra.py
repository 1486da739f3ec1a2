"""Subset spectra: sampling column subsets, Gram eigenvalues, KS distances,
draws from the MANOVA(n, m, k) matrix ensemble, and the Monte Carlo trial
engine that every estimator in the package runs on.

The Gram of a selected m-by-k subframe is formed on the smaller side
(k-by-k when k <= m, else m-by-m); the two sides share their nonzero
spectrum, so the stored spectrum always has r = min(k, m) entries.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import blas

from .frames import FrameMatrix
from .rng import derive_rng

__all__ = [
    "SubsetSelection",
    "SubsetSpectrum",
    "select",
    "subset_gram_spectrum",
    "ks_distance",
    "sample_manova_ensemble",
    "run_trials",
    "worker_count",
    "ZERO_CLAMP",
]

ZERO_CLAMP = 1e-10


@dataclass(frozen=True)
class SubsetSelection:
    """A sorted subset of distinct indices of {0..n-1}, as ``select`` draws it."""

    indices: np.ndarray
    n: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError("indices out of range")

    @property
    def k(self) -> int:
        return len(self.indices)


def select(n: int, mode: str, seed=None, k: int | None = None,
           p: float | None = None) -> SubsetSelection:
    """Draw a subset of {0..n-1}: a uniform k-subset or Bernoulli(p) marks.

    ``seed`` may be an integer or a numpy Generator.
    """
    n = int(n)
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed)
    if mode == "uniform_k":
        if k is None or not 0 <= k <= n:
            raise ValueError(f"uniform_k needs 0 <= k <= n; got k={k}")
        idx = np.sort(rng.permutation(n)[:k])
        return SubsetSelection(idx, n)
    if mode == "bernoulli":
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli needs 0 <= p <= 1; got p={p}")
        idx = np.nonzero(rng.random(n) < p)[0]
        return SubsetSelection(idx, n)
    raise ValueError(f"unknown selection mode {mode!r}")


@dataclass(frozen=True)
class SubsetSpectrum:
    """Ascending nonzero eigenvalues of a subset Gram with (n, m, k) context.

    r = min(k, m) values; eigenvalues below the clamp are stored as 0 and
    counted in ``clamped``.
    """

    eigenvalues: np.ndarray
    n: int
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


def subset_gram_spectrum(F: FrameMatrix, sel: SubsetSelection | np.ndarray) -> SubsetSpectrum:
    """Eigenvalues of the Gram of the selected columns, ascending.

    The Gram is one rank-k update (``herk`` for complex frames, ``syrk`` for
    real ones) that fills only the lower triangle, which is all
    ``eigvalsh`` reads.
    """
    idx = sel.indices if isinstance(sel, SubsetSelection) else np.asarray(sel, dtype=np.int64)
    if len(idx) == 0:
        raise ValueError("empty subset")
    A = np.asfortranarray(F.entries[:, idx])
    m, k = A.shape
    rank_k_update = blas.zherk if F.is_complex else blas.dsyrk
    G = rank_k_update(1.0, A, trans=2 if k <= m else 0, lower=1)  # A'A or AA'
    ev = np.linalg.eigvalsh(G)
    ev, n_clamped = _clamp(ev)
    return SubsetSpectrum(ev, F.n, m, k, clamped=n_clamped)


def ks_distance(spec, reference_cdf, jump_points=()) -> float:
    """Sup distance between the sample's empirical CDF and a reference CDF.

    Exact at the sample jump points: both one-sided deviations are taken at
    every sorted eigenvalue, with the reference's left limit obtained at the
    previous representable float (so step references are handled exactly).
    ``reference_cdf`` is any callable accepting an array (e.g.
    ManovaDistribution.cdf); pass the reference's own jump locations in
    ``jump_points`` when it has point masses.
    """
    vals = spec.eigenvalues if isinstance(spec, SubsetSpectrum) else np.asarray(spec, dtype=float)
    vals = np.sort(vals)
    r = len(vals)
    if r == 0:
        raise ValueError("empty spectrum")
    ref = np.asarray(reference_cdf(vals), dtype=float)
    ref_left = np.asarray(reference_cdf(np.nextafter(vals, -np.inf)), dtype=float)
    hi = np.arange(1, r + 1) / r
    lo = np.arange(0, r) / r
    d = max(float(np.max(np.abs(ref - hi))), float(np.max(np.abs(ref_left - lo))))
    for x in jump_points:
        emp = float(np.searchsorted(vals, x, side="right")) / r
        emp_left = float(np.searchsorted(vals, np.nextafter(x, -np.inf), side="right")) / r
        d = max(d,
                abs(float(reference_cdf(x)) - emp),
                abs(float(reference_cdf(np.nextafter(x, -np.inf))) - emp_left))
    return d


def _gaussian(rng, shape, field: str) -> np.ndarray:
    """Standard Gaussians; a complex array takes its real parts, then its
    imaginary parts, each drawn in C order."""
    if field == "complex":
        out = np.empty(shape, dtype=complex)
        out.real = rng.standard_normal(shape)
        out.imag = rng.standard_normal(shape)
        return out
    if field == "real":
        return rng.standard_normal(shape)
    raise ValueError(f"field must be 'real' or 'complex'; got {field!r}")


def sample_manova_ensemble(n: int, m: int, k: int, field: str = "complex",
                           seed=None) -> SubsetSpectrum:
    """One spectrum draw from the MANOVA(n, m, k) matrix ensemble.

    For k <= m these are the eigenvalues of
    (n/m) (AA' + BB')^(-1/2) BB' (AA' + BB')^(-1/2) with A of shape
    k x (n-m) and B of shape k x m i.i.d. Gaussian, computed as the
    generalized eigenvalues of the pencil (BB', AA' + BB'), which do not
    depend on a common scale of A and B.  For k > m the roles of k and m
    are swapped and the k/m nonzero-spectrum scaling applied, so values
    again live in [0, n/m].

    BB' and AA' + BB' are two rank updates (``herk`` for the complex field,
    ``syrk`` for the real one) into lower triangles, solved in place by
    ``eigh``'s ``gv`` driver.  On one BLAS thread at (n, m, k) =
    (863, 431, 345) a complex draw takes 36-45 ms (about 10 ms of
    Gaussians, 8 ms of rank updates and 20 ms of ``eigh``), against
    49-73 ms with full products, symmetrized, and the ``gvd`` driver.
    """
    n, m, k = int(n), int(m), int(k)
    if not (1 <= k <= n and 1 <= m <= n):
        raise ValueError(f"need 1 <= k, m <= n; got n={n}, m={m}, k={k}")
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed)
    r, c = (k, m) if k <= m else (m, k)
    # r x r problem with "dimension" c: A is r x (n-c), B is r x c
    A = _gaussian(rng, (r, n - c), field)
    B = _gaussian(rng, (r, c), field)
    # the C-ordered r x w draw X is the Fortran-ordered X^T, whose update
    # (X^T)' X^T is the conjugate of XX'; a conjugated pencil has the same
    # eigenvalues
    rank_update, trans = (blas.zherk, 2) if field == "complex" else (blas.dsyrk, 1)
    BB = rank_update(1.0, B.T, trans=trans, lower=1)
    if n == c:  # no A
        SS = BB.copy(order="F")
    else:
        SS = rank_update(1.0, A.T, beta=1.0, c=BB, trans=trans, lower=1)
    try:
        ev = linalg.eigh(BB, SS, lower=True, eigvals_only=True, overwrite_a=True,
                         overwrite_b=True, driver="gv")
    except linalg.LinAlgError as exc:  # singular AA'+BB' has probability zero
        raise linalg.LinAlgError(f"ensemble draw failed: {exc}") from exc
    ev = np.clip(ev, 0.0, 1.0) * (n / c)
    if k > m:
        ev = ev * (k / m)
    ev, n_clamped = _clamp(np.sort(ev))
    return SubsetSpectrum(ev, n, m, k, clamped=n_clamped)


# ---------------------------------------------------------------------------
# the Monte Carlo trial engine

def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("ETFSPECTRA_THREADS", "1")))
    except ValueError:
        return 1


def _map_indexed(fn, count: int) -> list:
    """[fn(t) for t in range(count)], slot t holding fn(t) whatever order
    the pool ran them in."""
    workers = worker_count()
    if workers == 1:
        return [fn(t) for t in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def run_trials(source, trials: int, statistic, seed=None, path=(),
               k: int | None = None, p: float | None = None) -> list:
    """``statistic(spectrum)`` for each of ``trials`` independent draws.

    ``source`` is a FrameMatrix, whose draw is the Gram spectrum of a
    uniform k-subset (give ``k``) or of Bernoulli(p) marks (give ``p``) of
    its columns, or an ensemble spec (n, m, field), whose draw comes from
    the MANOVA(n, m, k) matrix ensemble.  An empty selection has an empty
    spectrum.  Trial t draws from derive_rng(seed, *path, t + 1);
    trials run on a pool of ETFSPECTRA_THREADS threads (LAPACK releases the
    GIL) into indexed slots, so the values do not depend on scheduling.
    """
    if (p is None) == (k is None):
        raise ValueError("give exactly one of p or k")
    if isinstance(source, FrameMatrix):
        F = source
        mode = "uniform_k" if p is None else "bernoulli"

        def draw(rng):
            sel = select(F.n, mode, rng, k=k, p=p)
            if sel.k == 0:
                return SubsetSpectrum(np.empty(0), F.n, F.m, 0)
            return subset_gram_spectrum(F, sel)
    else:
        n, m, field_tag = source
        if k is None:
            raise ValueError("ensemble draws need k")

        def draw(rng):
            return sample_manova_ensemble(n, m, k, field_tag, rng)

    return _map_indexed(lambda t: statistic(draw(derive_rng(seed, *path, t + 1))), trials)
