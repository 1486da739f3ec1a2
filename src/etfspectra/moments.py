"""Subset moments of frames.

The d-th subset moment of an m-by-n unit-norm frame under Bernoulli(p)
column erasures is

    m_d = (1/n) E[ tr((X'X)^d) ] = sum_k p^k a_{d,k}(F),

where a_{d,k}(F) collects correlation cycles c_{i1,i2} ... c_{id,i1} over
index tuples with exactly k distinct values.  Three computations of m_d
live here:

* ``exact_expected_moment`` enumerates the index tuples (exact for small n),
* ``all_subsets_expected_moment`` averages subset Gram traces over all 2^n
  erasure patterns (the independent oracle),
* ``asymptotic_moment`` evaluates the n -> infinity polynomial for
  equiangular tight frames by contracting the d-cycle along non-crossing
  partitions (exact rational arithmetic).  The partitions are never
  enumerated: ``partition_census`` counts the contracted cycle types in
  closed form (the Kreweras census).  The cycles left by a partition pi
  are the blocks of size >= 2 of its Kreweras complement, and the
  non-crossing partitions with b blocks of sizes lambda number
  d! / ((d - b + 1)! prod_j m_j!), m_j the multiplicity of size j
  (Kreweras 1972), so the cost is one term per integer partition of d
  (77 at d = 12).

The erasure Welch bound ``ewb_bound`` is the proven lower bound on m_d for
d = 2, 3, 4; tight frames meet it at d = 2, 3 and ETFs also at d = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .frames import FrameMatrix, construct, gram, ladder_dims
from .spectra import run_trials

__all__ = [
    "MomentPolynomial",
    "empirical_moment",
    "exact_expected_moment",
    "all_subsets_expected_moment",
    "ewb_bound",
    "manova_moment_formula",
    "ewb_delta",
    "partition_census",
    "asymptotic_moment",
    "crossing_term",
    "crossing_decay_probe",
    "MAX_TUPLE_ENUMERATION",
    "MAX_PARTITION_D",
    "MAX_ASYMPTOTIC_D",
]

MAX_TUPLE_ENUMERATION = 10 ** 8
MAX_PARTITION_D = 14
MAX_ASYMPTOTIC_D = 12


# ---------------------------------------------------------------------------
# exact rational polynomials in x, represented as tuples of Fractions

def _poly_add(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n))


def _poly_scale(a, c):
    return tuple(c * ai for ai in a)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _poly_eval(a, x: float) -> float:
    acc = 0.0
    for c in reversed(a):
        acc = acc * x + float(c)
    return acc


def _binom_poly(d: int):
    """(x+1)^d as a coefficient tuple."""
    return tuple(Fraction(math.comb(d, j)) for j in range(d + 1))


@dataclass(frozen=True)
class MomentPolynomial:
    """m_d(p, x) with exact rational coefficients.

    ``blocks[k]`` is the x-polynomial multiplying p^k (k = 0..d); x stands
    for the frame redundancy n/m - 1.
    """

    degree_d: int
    blocks: tuple

    @property
    def coefficients(self) -> dict:
        """Map (power of p, power of x) -> Fraction, zeros omitted."""
        out = {}
        for k, blk in enumerate(self.blocks):
            for j, c in enumerate(blk):
                if c != 0:
                    out[(k, j)] = c
        return out

    def evaluate(self, p: float, x: float) -> float:
        acc = 0.0
        for k in range(len(self.blocks) - 1, -1, -1):
            acc = acc * p + _poly_eval(self.blocks[k], x)
        return acc

    def at_p_one(self) -> tuple:
        """Exact x-polynomial of the p = 1 specialization."""
        out = (Fraction(0),)
        for blk in self.blocks:
            out = _poly_add(out, blk)
        return out

    def as_dict(self) -> dict:
        return {f"p^{k} x^{j}": str(c) for (k, j), c in sorted(self.coefficients.items())}

    def as_latex(self) -> str:
        parts = []
        for k in range(1, len(self.blocks)):
            blk = self.blocks[k]
            if all(c == 0 for c in blk):
                continue
            terms = []
            for j, c in enumerate(blk):
                if c == 0:
                    continue
                mag = abs(c)
                coef = "" if mag == 1 and j > 0 else str(mag)
                xpow = "" if j == 0 else ("x" if j == 1 else f"x^{{{j}}}")
                sign = "-" if c < 0 else ("+" if terms else "")
                terms.append(f"{sign}{coef}{xpow}")
            body = "".join(terms)
            if len([c for c in blk if c != 0]) > 1 or body.startswith("-"):
                body = f"({body})"
            head = f"p^{{{k}}}" if k > 1 else "p"
            parts.append(head if body == "1" else f"{head} {body}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# the census of contracted cycle types

def _integer_partitions(d: int, largest: int):
    """Integer partitions of d into parts <= largest, as non-increasing tuples."""
    if d == 0:
        yield ()
        return
    for first in range(min(d, largest), 0, -1):
        for rest in _integer_partitions(d - first, first):
            yield (first,) + rest


def partition_census(d: int) -> dict:
    """{k: {cycle-length tuple: count}} over non-crossing partitions with k
    blocks; the counts per k sum to the Narayana number N(d, k).

    Counted in closed form, without enumerating the Catalan(d) partitions.
    Contracting the d-cycle along pi leaves one cycle per block of size
    >= 2 of its Kreweras complement K(pi), with that block's size as its
    length, and K maps the partitions with k blocks one-to-one onto those
    with d + 1 - k blocks.  The non-crossing partitions of {1..d} whose
    block sizes form the integer partition lambda (b parts, m_j parts equal
    to j) number d! / ((d - b + 1)! prod_j m_j!) (G. Kreweras, "Sur les
    partitions non croisees d'un cycle", Discrete Math. 1 (1972) 333-350).
    So each lambda adds that count to census[d + 1 - b] at its parts >= 2;
    with b fixed, those parts determine lambda.
    """
    d = int(d)
    if not 1 <= d <= MAX_PARTITION_D:
        raise ValueError(f"d must be in 1..{MAX_PARTITION_D}; got {d}")
    census: dict = {}
    for lam in _integer_partitions(d, d):
        b = len(lam)
        ways = math.prod(math.factorial(lam.count(j)) for j in set(lam))
        count = math.factorial(d) // (math.factorial(d - b + 1) * ways)
        cycles = tuple(sorted(j for j in lam if j >= 2))
        census.setdefault(d + 1 - b, {})[cycles] = count
    return census


# ---------------------------------------------------------------------------
# asymptotic ETF moments via cycle contraction

@lru_cache(maxsize=None)
def _census(d: int) -> tuple:
    """Hashable partition_census(d): ((k, ((cycles, count), ...)), ...)."""
    return tuple(
        (k, tuple(sorted(by_cycles.items())))
        for k, by_cycles in sorted(partition_census(d).items()))


@lru_cache(maxsize=None)
def _a_diag(d: int) -> tuple:
    """a_{d,d}(x): the full-cycle coefficient, closed through the tight-frame
    p = 1 identity (x+1)^(d-1) = sum_k a_{d,k}."""
    if d == 1:
        return (Fraction(1),)
    total = _binom_poly(d - 1)
    total = _poly_add(total, (Fraction(-1),))  # remove a_{d,1} = 1
    for k in range(2, d):
        total = _poly_add(total, _poly_scale(_a_block(d, k), Fraction(-1)))
    return total


@lru_cache(maxsize=None)
def _a_block(d: int, k: int) -> tuple:
    """a_{d,k}(x) for 2 <= k < d: sum over non-crossing partitions with k
    blocks of the product of full-cycle coefficients of the contracted
    cycles (crossing partitions vanish asymptotically)."""
    acc = (Fraction(0),)
    for kk, by_cycles in _census(d):
        if kk != k:
            continue
        for cycles, count in by_cycles:
            term = (Fraction(count),)
            for length in cycles:
                term = _poly_mul(term, _a_diag(length))
            acc = _poly_add(acc, term)
    return acc


def asymptotic_moment(d: int) -> MomentPolynomial:
    """n -> infinity subset moment polynomial m_d(p, x) of an ETF family."""
    d = int(d)
    if not 1 <= d <= MAX_ASYMPTOTIC_D:
        raise ValueError(f"d must be in 1..{MAX_ASYMPTOTIC_D}; got {d}")
    blocks = [(Fraction(0),), (Fraction(1),)]  # p^0 and p^1 (a_{d,1} = 1)
    for k in range(2, d + 1):
        blocks.append(_a_diag(d) if k == d else _a_block(d, k))
    if d == 1:
        blocks = blocks[:2]
    return MomentPolynomial(d, tuple(blocks))


# ---------------------------------------------------------------------------
# erasure Welch bound

def manova_moment_formula(gamma: float, p: float, d: int) -> float:
    """Closed-form limiting moment for d = 2, 3, 4."""
    x = 1.0 / gamma - 1.0
    if d == 2:
        return p + p ** 2 * x
    if d == 3:
        return p + p ** 2 * 3 * x + p ** 3 * (x ** 2 - x)
    if d == 4:
        return (p + p ** 2 * 6 * x + p ** 3 * (6 * x ** 2 - 4 * x)
                + p ** 4 * (x ** 3 - 3 * x ** 2 + x))
    raise ValueError(f"closed form available for d in 2..4; got {d}")


def ewb_delta(gamma: float, p: float, d: int, n: int) -> float:
    """Finite-n correction of the bound: zero for d = 2, 3."""
    if d in (2, 3):
        return 0.0
    if d == 4:
        x = 1.0 / gamma - 1.0
        return p ** 2 * (1.0 - p) ** 2 * x ** 2 / (n - 1)
    raise ValueError(f"delta defined for d in 2..4; got {d}")


def ewb_bound(gamma: float, p: float, d: int, n: int) -> float:
    """Erasure Welch bound of order d on the subset moment m_d.

    Any unit-norm frame satisfies m_d >= ewb_bound; equality holds for
    tight frames at d = 2, 3 and for ETFs at d = 4.
    """
    if d not in (2, 3, 4):
        raise ValueError(f"the bound is proven for d in 2..4; got {d}")
    if not (0.0 <= p <= 1.0 and 0.0 < gamma <= 1.0):
        raise ValueError(f"need p in [0,1], gamma in (0,1]; got p={p}, gamma={gamma}")
    return manova_moment_formula(gamma, p, d) + ewb_delta(gamma, p, d, n)


# ---------------------------------------------------------------------------
# moments of concrete frames

def empirical_moment(F: FrameMatrix, d: int, trials: int, seed=None,
                     p: float | None = None, k: int | None = None):
    """Monte Carlo estimate of m_d with its standard error.

    Exactly one of ``p`` (Bernoulli selection) or ``k`` (uniform subsets)
    must be given.  Empty draws contribute zero.
    """
    d = int(d)
    if d < 1:
        raise ValueError("d must be a positive integer")
    vals = np.array(run_trials(F, trials, lambda spec: float(np.sum(spec.eigenvalues ** d)) / F.n,
                               seed, k=k, p=p))
    stderr = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return float(vals.mean()), stderr


@dataclass(frozen=True)
class SubsetMomentPolynomial:
    """m_d(p) = sum_k a_k p^k for one concrete frame (float coefficients)."""

    degree_d: int
    a: tuple  # a[k] for k = 0..d; a[0] = 0, a[1] = 1 for unit-norm frames

    def evaluate(self, p: float) -> float:
        acc = 0.0
        for c in reversed(self.a):
            acc = acc * p + c
        return acc


def exact_expected_moment(F: FrameMatrix, d: int) -> SubsetMomentPolynomial:
    """Exact a_{d,k}(F) by enumerating all n^d correlation cycles, in
    chunks of 2^20 tuples.

    Guarded to n^d <= 10^8; intended for d <= 4 at small n.
    """
    chunk = 1 << 20
    d = int(d)
    n = F.n
    if d < 1 or d > 4:
        raise ValueError("tuple enumeration supports d in 1..4")
    if n ** d > MAX_TUPLE_ENUMERATION:
        raise ValueError(f"n^d = {n ** d} exceeds the enumeration guard")
    G = gram(F)
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
    return SubsetMomentPolynomial(d, tuple(sums.real))


def all_subsets_expected_moment(F: FrameMatrix, d: int, p: float) -> float:
    """Independent oracle: E[m_d] by exhaustive 2^n Bernoulli enumeration.

    Walks every erasure pattern, takes the subset Gram trace of the d-th
    power through its eigenvalues, and weights by p^k (1-p)^(n-k).
    """
    n = F.n
    if n > 16:
        raise ValueError("exhaustive enumeration guarded to n <= 16")
    total = 0.0
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if (mask >> i) & 1]
        k = len(idx)
        A = F.entries[:, idx]
        Gs = A.conj().T @ A if k <= F.m else A @ A.conj().T
        ev = np.linalg.eigvalsh(0.5 * (Gs + Gs.conj().T))
        weight = p ** k * (1.0 - p) ** (n - k)
        total += weight * float(np.sum(ev ** d)) / n
    return total


# ---------------------------------------------------------------------------
# crossing-partition decay

def crossing_term(F: FrameMatrix) -> float:
    """The d = 4 crossing-partition contribution (1/n) sum_{i != j} |c_ij|^4."""
    A = np.abs(gram(F)) ** 2
    np.fill_diagonal(A, 0.0)
    return float(np.sum(A ** 2)) / F.n


def crossing_decay_probe(family: str, sizes, **params) -> list:
    """Crossing contribution across a size ladder; for an ETF it equals
    x^2/(n-1) exactly, so the rows exhibit the 1/n decay dropped by the
    asymptotic moment engine.  A size means what it means on a harness
    ladder (``frames.ladder_dims``, gamma = 1/2); ``params`` go to the
    constructor, such as a random family's seed."""
    rows = []
    for size in sizes:
        F = construct(family, **ladder_dims(family, size, 0.5)[2], **params)
        x = F.n / F.m - 1.0
        value = crossing_term(F)
        rows.append({
            "n": F.n,
            "m": F.m,
            "value": value,
            "etf_value": x ** 2 / (F.n - 1),
            "n_times_value": F.n * value,
        })
    return rows
