"""Frame constructions and structural predicates.

Frame vectors are the COLUMNS of an ``m``-by-``n`` matrix (n >= m), unit
norm unless noted.  Deterministic families: difference-set spectrum (DSS),
low-pass and random-spectrum DFT, real/complex Paley, conference-matrix
Grassmannian, Alltop chirps, spikes+sines, spikes+Hadamard.  Random
families: Gaussian i.i.d., Haar, random Fourier/cosine.

``FAMILIES`` alone maps a family name to its constructor and to its ladder
rule, which says what a ladder size means for that family (``ladder_dims``).

A frame is *tight* when ``F F' = (n/m) I`` and *equiangular* when every
off-diagonal Gram magnitude equals the Welch value
``sqrt((n-m)/((n-1)m))``.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .rng import derive_rng

__all__ = [
    "FrameMatrix",
    "FrameParameterError",
    "FAMILIES",
    "construct",
    "ladder_dims",
    "construct_dss",
    "construct_lowpass_dft",
    "construct_random_spectrum_dft",
    "construct_real_paley",
    "construct_complex_paley",
    "construct_grassmannian",
    "construct_alltop",
    "construct_spikes_sines",
    "construct_spikes_hadamard",
    "construct_random",
    "is_tight",
    "is_equiangular",
    "coherence",
    "gram",
    "welch_rms_bound",
    "welch_value",
    "is_prime",
    "RANDOM_FAMILIES",
]


class FrameParameterError(ValueError):
    """Raised when a construction is asked for parameters it does not support."""


RANDOM_FAMILIES = (
    "gaussian_iid",
    "haar_real",
    "haar_complex",
    "random_cosine",
)


@dataclass(frozen=True)
class FrameMatrix:
    """An m-by-n frame with construction metadata.

    ``entries`` is complex or real float64, columns are the frame vectors.
    Instances are immutable; the entry array is marked read-only.
    """

    entries: np.ndarray
    family: str
    seed: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.ndim != 2:
            raise FrameParameterError("frame entries must be a 2-d array")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.entries)


# ---------------------------------------------------------------------------
# number-theory helpers

def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (intended for n < 10^12)."""
    n = int(n)
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13):
        if n % q == 0:
            return n == q
    d = 17
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _quadratic_residues(n: int) -> np.ndarray:
    r = np.unique(np.mod(np.arange(1, n) ** 2, n))
    return np.sort(r)


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _jacobsthal(q: int) -> np.ndarray:
    """q-by-q matrix Q with Q[i, j] = legendre(i - j, q)."""
    chi = np.array([_legendre(a, q) for a in range(q)], dtype=float)
    idx = np.subtract.outer(np.arange(q), np.arange(q)) % q
    return chi[idx]


# ---------------------------------------------------------------------------
# harmonic (DFT-based) constructions

def _harmonic_frame(n: int, freqs: np.ndarray) -> np.ndarray:
    """Rows of the n-point IDFT at the given frequencies, unit-norm columns.

    Entry (j, i) is exp(2*pi*1j*freqs[j]*i/n)/sqrt(m), so every entry has
    magnitude 1/sqrt(m) and every column norm is exactly 1.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    m = len(freqs)
    i = np.arange(n)
    phase = 2.0 * np.pi * np.outer(freqs, i) / n
    return np.exp(1j * phase) / math.sqrt(m)


def construct_dss(n: int) -> FrameMatrix:
    """Difference-set spectrum ETF: IDFT rows at quadratic-residue frequencies.

    Requires a prime n with n % 4 == 3, n >= 7; gives m = (n-1)/2 and the
    distance multiplicity (n-3)/4.
    """
    n = int(n)
    if not is_prime(n) or n % 4 != 3 or n < 7:
        raise FrameParameterError(
            f"dss needs a prime n = 3 (mod 4), n >= 7; got {n}")
    freqs = _quadratic_residues(n)
    entries = _harmonic_frame(n, freqs)
    lam = (n - 3) // 4
    return FrameMatrix(entries, "dss", params={"n": n, "lambda": lam})


def construct_lowpass_dft(n: int, m: int) -> FrameMatrix:
    """Band-limited frame: the m lowest IDFT frequencies (tight, not ETF)."""
    n, m = int(n), int(m)
    if not 1 <= m <= n:
        raise FrameParameterError(f"need 1 <= m <= n; got m={m}, n={n}")
    entries = _harmonic_frame(n, np.arange(m))
    return FrameMatrix(entries, "lowpass_dft", params={"n": n, "m": m})


def construct_random_spectrum_dft(n: int, m: int, seed: int) -> FrameMatrix:
    """m distinct IDFT frequencies drawn uniformly without replacement."""
    n, m = int(n), int(m)
    if not 1 <= m <= n:
        raise FrameParameterError(f"need 1 <= m <= n; got m={m}, n={n}")
    rng = derive_rng(seed)
    freqs = np.sort(rng.permutation(n)[:m])
    entries = _harmonic_frame(n, freqs)
    return FrameMatrix(entries, "random_spectrum_dft", seed=seed,
                       params={"n": n, "m": m})


# ---------------------------------------------------------------------------
# conference-matrix constructions

def _projection_factor(P: np.ndarray, m: int) -> np.ndarray:
    """m-by-n factor F of a rank-m projection P = F'F / (n/m), unit columns.

    Takes the m top eigenvectors of the Hermitian projection, so FF' is
    exactly (n/m) I up to eigensolver roundoff.
    """
    n = P.shape[0]
    w, v = np.linalg.eigh(P)
    top = v[:, np.argsort(w)[-m:]]
    return math.sqrt(n / m) * top.conj().T


def construct_real_paley(q: int) -> FrameMatrix:
    """Real ETF with n = q+1, m = n/2 from the symmetric conference matrix.

    q must be a prime with q % 4 == 1.
    """
    q = int(q)
    if not is_prime(q) or q % 4 != 1:
        raise FrameParameterError(f"real_paley needs a prime q = 1 (mod 4); got {q}")
    n = q + 1
    C = np.zeros((n, n))
    C[0, 1:] = 1.0
    C[1:, 0] = 1.0
    C[1:, 1:] = _jacobsthal(q)
    P = 0.5 * (np.eye(n) + C / math.sqrt(q))
    entries = _projection_factor(P, n // 2)
    return FrameMatrix(entries, "real_paley", params={"q": q})


def construct_complex_paley(q: int) -> FrameMatrix:
    """Complex ETF on the Paley difference set QR(q) | {0}: m=(q+1)/2, n=q.

    q must be a prime with q % 4 == 3.
    """
    q = int(q)
    if not is_prime(q) or q % 4 != 3:
        raise FrameParameterError(f"complex_paley needs a prime q = 3 (mod 4); got {q}")
    freqs = np.sort(np.concatenate(([0], _quadratic_residues(q))))
    entries = _harmonic_frame(q, freqs)
    return FrameMatrix(entries, "complex_paley", params={"q": q})


def construct_grassmannian(n: int) -> FrameMatrix:
    """Complex ETF with m = n/2 from the skew conference matrix of order n.

    Supported whenever n = q+1 for a prime q = 3 (mod 4): i(skew C)/sqrt(q)
    is a Hermitian involution whose positive eigenspace gives the frame.
    """
    n = int(n)
    q = n - 1
    if n < 4 or not is_prime(q) or q % 4 != 3:
        raise FrameParameterError(
            f"grassmannian supports n = q+1 with q prime, q = 3 (mod 4); got n={n}")
    S = np.zeros((n, n))
    S[0, 1:] = 1.0
    S[1:, 0] = -1.0
    S[1:, 1:] = _jacobsthal(q)
    P = 0.5 * (np.eye(n) + 1j * S / math.sqrt(q))
    entries = _projection_factor(P, n // 2)
    return FrameMatrix(entries, "grassmannian", params={"q": q})


def construct_alltop(n: int, L: int = 2) -> FrameMatrix:
    """Cubic-phase chirp frame: n*L unit vectors in C^n, gamma = 1/L.

    Columns are indexed by (shift, modulation); vectors within one shift
    class form an orthogonal basis, so the frame is tight but has both zero
    and 1/sqrt(n) cross correlations (never equiangular for L >= 2).
    n must be a prime >= 5 (cubic phase differences need gcd(6, n) = 1).
    """
    n, L = int(n), int(L)
    if not is_prime(n) or n < 5:
        raise FrameParameterError(f"alltop needs a prime n >= 5; got {n}")
    if not 1 <= L <= n:
        raise FrameParameterError(f"alltop needs 1 <= L <= n; got L={L}")
    t = np.arange(n)
    cols = []
    for shift in range(L):
        cubic = np.power(t + shift, 3, dtype=np.int64) % n
        for nu in range(n):
            cols.append(np.exp(2j * np.pi * ((cubic + nu * t) % n) / n))
    entries = np.stack(cols, axis=1) / math.sqrt(n)
    return FrameMatrix(entries, "alltop", params={"n": n, "L": L})


# ---------------------------------------------------------------------------
# two-basis concatenations

def construct_spikes_sines(m: int) -> FrameMatrix:
    """[identity | unitary DFT]: m-by-2m tight frame, coherence 1/sqrt(m)."""
    m = int(m)
    if m < 2:
        raise FrameParameterError(f"spikes_sines needs m >= 2; got {m}")
    W = _harmonic_frame(m, np.arange(m))  # unitary: all m frequencies
    entries = np.concatenate([np.eye(m, dtype=complex), W], axis=1)
    return FrameMatrix(entries, "spikes_sines", params={"m": m})


def _hadamard(m: int) -> np.ndarray:
    H = np.ones((1, 1))
    while H.shape[0] < m:
        H = np.block([[H, H], [H, -H]])
    return H


def construct_spikes_hadamard(m: int) -> FrameMatrix:
    """[identity | Hadamard/sqrt(m)]: real m-by-2m tight frame, m a power of 2."""
    m = int(m)
    if m < 2 or m & (m - 1) != 0:
        raise FrameParameterError(f"spikes_hadamard needs m a power of 2, m >= 2; got {m}")
    entries = np.concatenate([np.eye(m), _hadamard(m) / math.sqrt(m)], axis=1)
    return FrameMatrix(entries, "spikes_hadamard", params={"m": m})


# ---------------------------------------------------------------------------
# random families

def _haar_factor(n: int, rng, complex_field: bool) -> np.ndarray:
    """Haar orthogonal/unitary n-by-n matrix via QR with a positive-real
    diagonal correction on R (makes the factor exactly Haar)."""
    if complex_field:
        Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    else:
        Z = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def construct_random(family: str, n: int, m: int, seed: int,
                     normalize_columns: bool = False) -> FrameMatrix:
    """Random frame families.

    gaussian_iid   : entries i.i.d. N(0, 1/m); columns have unit norm only
                     asymptotically unless ``normalize_columns`` is set.
    haar_real/complex : first m rows of a Haar orthogonal/unitary matrix,
                     scaled by sqrt(n/m) (exactly tight).
    random_cosine  : m random rows of the orthonormal DCT-II, scaled.
    """
    family = str(family)
    n, m = int(n), int(m)
    if family not in RANDOM_FAMILIES:
        raise FrameParameterError(f"unknown random family {family!r}")
    if not 1 <= m <= n:
        raise FrameParameterError(f"need 1 <= m <= n; got m={m}, n={n}")
    rng = derive_rng(seed)
    if family == "gaussian_iid":
        entries = rng.standard_normal((m, n)) / math.sqrt(m)
        if normalize_columns:
            entries = entries / np.linalg.norm(entries, axis=0, keepdims=True)
    elif family in ("haar_real", "haar_complex"):
        U = _haar_factor(n, rng, complex_field=(family == "haar_complex"))
        entries = math.sqrt(n / m) * U[:, :m].conj().T
    else:  # random_cosine
        rows = np.sort(rng.permutation(n)[:m])
        i = np.arange(n)
        C = np.cos(np.pi * np.outer(rows, 2 * i + 1) / (2 * n))
        scale = np.where(rows == 0, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
        entries = math.sqrt(n / m) * (scale[:, None] * C)
    return FrameMatrix(entries, family, seed=seed,
                       params={"n": n, "m": m, "normalize_columns": bool(normalize_columns)})


# ---------------------------------------------------------------------------
# the family table: constructor and ladder rule per family name

def _free_rung(size, gamma):
    m = int(round(gamma * size))
    return size, m, {"n": size, "m": m}


def _alltop_rung(size, gamma):
    """size is the prime dimension m; L = max(2, round(1/gamma)) chirp classes."""
    L = max(2, int(round(1.0 / gamma)))
    return size * L, size, {"n": size, "L": L}


def _two_basis_rung(family):
    def rung(size, gamma):
        if size % 2:
            raise FrameParameterError(f"{family} needs an even frame size; got {size}")
        return size, size // 2, {"m": size // 2}
    return rung


# family -> (constructor, ladder rule); a rule maps (ladder size, gamma target)
# to the frame's (n, m) and the constructor's arguments.  Fixed-aspect families
# ignore gamma; their size is n, except alltop's, which is m.
FAMILIES = {
    "dss": (construct_dss, lambda s, g: (s, (s - 1) // 2, {"n": s})),
    "lowpass_dft": (construct_lowpass_dft, _free_rung),
    "random_spectrum_dft": (construct_random_spectrum_dft, _free_rung),
    "real_paley": (construct_real_paley, lambda s, g: (s, s // 2, {"q": s - 1})),
    "complex_paley": (construct_complex_paley, lambda s, g: (s, (s + 1) // 2, {"q": s})),
    "grassmannian": (construct_grassmannian, lambda s, g: (s, s // 2, {"n": s})),
    "alltop": (construct_alltop, _alltop_rung),
    "spikes_sines": (construct_spikes_sines, _two_basis_rung("spikes_sines")),
    "spikes_hadamard": (construct_spikes_hadamard, _two_basis_rung("spikes_hadamard")),
    **{family: (partial(construct_random, family), _free_rung) for family in RANDOM_FAMILIES},
}


def _entry(family: str):
    if family not in FAMILIES:
        raise FrameParameterError(f"unknown frame family {family!r}")
    return FAMILIES[family]


def ladder_dims(family: str, size: int, gamma: float) -> tuple[int, int, dict]:
    """(n, m, constructor arguments) of the family at a ladder size.

    ``construct(family, **args)`` builds that m-by-n frame; a size the family
    cannot realize raises FrameParameterError here or in the constructor.
    """
    return _entry(family)[1](size, gamma)


def construct(family: str, **params) -> FrameMatrix:
    """Build any family by name.

    Parameters the family's constructor does not take are ignored; random
    families need n, m, seed. A missing parameter raises FrameParameterError.
    """
    build = _entry(family)[0]
    takes = inspect.signature(build).parameters
    missing = [key for key, p in takes.items() if p.default is p.empty and key not in params]
    if missing:
        raise FrameParameterError(f"{family} needs {', '.join(missing)}")
    return build(**{key: val for key, val in params.items() if key in takes})


# ---------------------------------------------------------------------------
# predicates and Welch bounds

def gram(F: FrameMatrix | np.ndarray) -> np.ndarray:
    """n-by-n matrix of column cross correlations c[i, j] = <f_i, f_j>."""
    E = F.entries if isinstance(F, FrameMatrix) else np.asarray(F)
    return E.conj().T @ E


def is_tight(F: FrameMatrix | np.ndarray, tol: float = 1e-9) -> bool:
    """Max-entry test of F F' = (n/m) I."""
    E = F.entries if isinstance(F, FrameMatrix) else np.asarray(F)
    m, n = E.shape
    R = E @ E.conj().T - (n / m) * np.eye(m)
    return float(np.abs(R).max()) <= tol


def welch_rms_bound(n: int, m: int) -> float:
    """Lower bound on the mean, and so on the max, off-diagonal squared
    correlation (ETFs meet it)."""
    if n == m:
        return 0.0
    return (n - m) / ((n - 1) * m)


def welch_value(n: int, m: int) -> float:
    """The equiangular magnitude sqrt((n-m)/((n-1)m))."""
    return math.sqrt(welch_rms_bound(n, m))


def is_equiangular(F: FrameMatrix | np.ndarray, tol: float = 1e-9) -> bool:
    """True when every off-diagonal |c_ij| equals the Welch value within tol."""
    G = gram(F)
    n = G.shape[0]
    if n < 2:
        return True
    m = (F.entries if isinstance(F, FrameMatrix) else np.asarray(F)).shape[0]
    off = np.abs(G[~np.eye(n, dtype=bool)])
    return float(np.abs(off - welch_value(n, m)).max()) <= tol


def coherence(F: FrameMatrix | np.ndarray) -> float:
    """Largest off-diagonal |c_ij|."""
    G = np.abs(gram(F))
    np.fill_diagonal(G, 0.0)
    return float(G.max())
