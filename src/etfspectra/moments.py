"""Subset moments of frames.

The d-th subset moment of an m-by-n unit-norm frame under Bernoulli(p)
column erasures is

    m_d = (1/n) E[ tr((X'X)^d) ] = sum_k p^k a_{d,k}(F),

where a_{d,k}(F) collects correlation cycles c_{i1,i2} ... c_{id,i1} over
index tuples with exactly k distinct values.  Three computations of m_d
live here:

* ``exact_expected_moment`` (d = 1..8) weights the Gram contraction of each
  class of set partitions of the cycle positions with a product of
  Bernoulli cumulants: one contraction program per dihedral class, 354 at
  d = 8, compiled once per d, in place of the n^d index tuples;
  ``MAX_EXACT_WORK`` caps its multiply-adds, which allows n <= 286 at d = 8,
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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .frames import FrameMatrix, construct, gram, ladder_dims
from .spectra import run_trials

__all__ = [
    "MomentPolynomial",
    "empirical_moment",
    "exact_expected_moment",
    "all_subsets_expected_moment",
    "ewb_bound",
    "ewb_delta",
    "partition_census",
    "asymptotic_moment",
    "crossing_term",
    "crossing_decay_probe",
    "MAX_EXACT_D",
    "MAX_EXACT_WORK",
    "MAX_PARTITION_D",
    "MAX_ASYMPTOTIC_D",
]

MAX_EXACT_D = 8
MAX_EXACT_WORK = 4 * 10 ** 10
_SLICE_ELEMENTS = 1 << 20  # intermediates of exact_expected_moment stay within this
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
    return asymptotic_moment(d).evaluate(p, 1.0 / gamma - 1.0) + ewb_delta(gamma, p, d, n)


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


def _set_partitions(d: int) -> list:
    """The Bell(d) set partitions of the cycle positions 0..d-1, each as the
    block label of every position, labels in order of first appearance."""
    labs = [(0,)]
    for _ in range(d - 1):
        labs = [lab + (v,) for lab in labs for v in range(max(lab) + 2)]
    return labs


def _first_appearance(lab) -> tuple:
    seen: dict = {}
    return tuple(seen.setdefault(v, len(seen)) for v in lab)


def _bernoulli_cumulant(j: int) -> tuple:
    """p-coefficients of kappa_j(p) = sum_k S(j,k) (-1)^(k-1) (k-1)! p^k."""
    def stirling2(k):
        return sum((-1) ** i * math.comb(k, i) * (k - i) ** j
                   for i in range(k + 1)) // math.factorial(k)
    return (0,) + tuple((-1) ** (k - 1) * math.factorial(k - 1) * stirling2(k)
                        for k in range(1, j + 1))


class _Step(NamedTuple):
    """One step of a contraction program: pop the live operands at positions
    ``take`` (ascending) and append ``run`` of them."""

    take: tuple
    run: Callable


def _compile_step(labels: list, out: set) -> tuple:
    """``run`` for one step on operands with axis labels ``labels`` that
    keeps the labels in ``out`` and sums the others, and its result's axis
    labels.  A sum over an index of both operands is a BLAS product; a step
    that sums none is a broadcast multiply, a one-operand step a reduce."""
    if len(labels) == 1:
        (x,) = labels
        summed = tuple(i for i, c in enumerate(x) if c not in out)
        return partial(np.add.reduce, axis=summed), "".join(c for c in x if c in out)
    x, y = labels
    summed = set(x + y) - out
    assert summed <= set(x) & set(y), f"{x},{y}: an index of one operand is summed"
    if not summed:  # a Hadamard or broadcast product: both as views on z's axes
        z = "".join(sorted(set(x + y)))
        px, py = (tuple(sorted(range(len(w)), key=w.__getitem__)) for w in (x, y))
        ix, iy = (tuple(slice(None) if c in w else None for c in z) for w in (x, y))
        return lambda u, v: u.transpose(px)[ix] * v.transpose(py)[iy], z
    if len(summed) > 1:  # both have the same axes, and every one is summed
        assert x == y, f"{x},{y}: axes in another order"
        return lambda u, v: np.dot(u.ravel(), v.ravel()), ""
    # one summed index k: x as (batch, x-only, k), y as (batch, k, y-only),
    # extra free indices broadcast as leading axes of a matmul
    (k,) = summed
    batch = [c for c in x if c in y and c != k]
    fx, fy = [c for c in x if c not in y], [c for c in y if c not in x]
    if fx and fy and fx[-1] > fy[-1]:  # swapped, the result's labels come out sorted
        run, z = _compile_step([y, x], out)
        return (lambda u, v: run(v, u)), z
    px = tuple(x.index(c) for c in batch + fx + [k])
    py = tuple(y.index(c) for c in batch + fy[:-1] + [k] + fy[-1:])
    keep, new = slice(None), None
    ix = ((keep,) * (len(batch) + len(fx[:-1])) + (new,) * len(fy[:-1])
          + (keep if fx else new, keep))
    iy = ((keep,) * len(batch) + (new,) * len(fx[:-1]) + (keep,) * len(fy[:-1])
          + (keep, keep if fy else new))
    iz = (Ellipsis, keep if fx else 0, keep if fy else 0)
    z = "".join(batch + fx[:-1] + fy[:-1] + fx[-1:] + fy[-1:])
    return lambda u, v: (u.transpose(px)[ix] @ v.transpose(py)[iy])[iz], z


def _elimination_path(terms: list) -> tuple:
    """Contraction program summing a product of vertex vectors and edge
    matrices over every index, by variable elimination: take the vertex with
    the fewest neighbours ('a' last, so that slicing 'a' bounds every
    intermediate) and contract its operands pairwise, the pair with the
    fewest indices first (with 'a' among equals), until the vertex is
    summed out.  Returns the program (``_Step``s), the number of distinct
    indices of each step (it costs about n to that power) and the largest
    intermediate's rank."""
    live, program, steps, rank = list(terms), [], [], 0
    left = sorted(set("".join(terms)), reverse=True)
    while left:
        v = min(left[:-1] or left,
                key=lambda v: len(set("".join(t for t in live if v in t))))
        left.remove(v)
        while True:
            pos = [i for i, t in enumerate(live) if v in t]
            if not pos:
                break
            pick = min(itertools.combinations(pos, 2), default=tuple(pos),
                       key=lambda ij: (len(set(live[ij[0]] + live[ij[1]])),
                                       "a" not in live[ij[0]] + live[ij[1]]))
            labels = [live[i] for i in pick]
            touched = set("".join(labels))
            for i in sorted(pick, reverse=True):
                del live[i]
            run, labels = _compile_step(labels, touched & set("".join(live)))
            live.append(labels)
            program.append(_Step(pick, run))
            steps.append(len(touched))
            rank = max(rank, len(live[-1]))
    return tuple(program), tuple(steps), rank


def _contract(program: tuple, operands) -> complex:
    """Run a contraction program on its operands."""
    live = list(operands)
    for take, run in program:
        args = [live.pop(i) for i in reversed(take)]
        live.append(run(*reversed(args)))
    return live[0]


class _CycleClass(NamedTuple):
    """One dihedral class of set partitions of the d cycle positions."""

    size: int        # partitions in the class
    subs: str        # einsum subscripts: a vertex vector or an edge matrix each
    keys: tuple      # operand keys: (l,) is diag(G)^l, (f, r) is G^f conj(G)^r
    sliced: tuple    # whether each operand's first index is 'a'
    path: tuple      # contraction program: the pairwise steps, in order
    steps: tuple     # number of indices each path step touches
    rank: int        # largest intermediate's number of indices


@lru_cache(maxsize=None)
def _moment_plan(d: int) -> tuple:
    """Everything ``exact_expected_moment`` needs that depends on d alone:
    the dihedral classes of set partitions tau of the d cycle positions,
    and weights[k, c], class c's size times the p^k coefficient of its
    cumulant product prod_{B in tau} kappa_|B|(p).

    C_tau(G), the cycle c_{i1 i2} ... c_{id i1} summed over the index tuples
    constant on each block, is a sum over the quotient graph of the cycle:
    one index per block, one Gram factor per cycle step, the steps inside a
    block folding into a diagonal power and parallel steps into one
    Hadamard product.  A dihedral image of tau has the same block sizes and
    the same or the conjugate C_tau, so each class counts its size times
    the real part.  Each class carries its contraction program, compiled
    here once per d: the pairwise steps of ``_elimination_path`` with their
    transposes and axis insertions fixed, so that a call plans nothing.
    """
    orbits: dict = {}
    for lab in _set_partitions(d):
        key = min(_first_appearance(lab[(s * t + r) % d] for t in range(d))
                  for r in range(d) for s in (1, -1))
        orbits[key] = orbits.get(key, 0) + 1
    weights = np.zeros((d + 1, len(orbits)))
    classes = []
    for c, (lab, size) in enumerate(sorted(orbits.items())):
        blocks = max(lab) + 1
        poly = (1,)
        for b in range(blocks):
            poly = _poly_mul(poly, _bernoulli_cumulant(lab.count(b)))
        weights[:, c] = [size * float(x) for x in poly]
        loops, edges = [0] * blocks, {}
        for t in range(d):
            u, v = lab[t], lab[(t + 1) % d]
            if u == v:
                loops[u] += 1
            else:
                e = (min(u, v), max(u, v))
                f, r = edges.get(e, (0, 0))
                edges[e] = (f + 1, r) if u < v else (f, r + 1)
        terms = ["abcdefgh"[u] for u in range(blocks) if loops[u]]
        keys = [(loops[u],) for u in range(blocks) if loops[u]]
        terms += ["abcdefgh"[u] + "abcdefgh"[v] for u, v in edges]
        keys += list(edges.values())
        classes.append(_CycleClass(size, ",".join(terms) + "->", tuple(keys),
                                   tuple(t[0] == "a" for t in terms),
                                   *_elimination_path(terms)))
    weights.flags.writeable = False
    return weights, tuple(classes)


def _exact_work(d: int, n: int) -> int:
    """Multiply-adds of ``exact_expected_moment`` at order d on n vectors,
    as its einsum steps count them (n to the number of indices a step
    touches)."""
    return sum(n ** e for cls in _moment_plan(d)[1] for e in cls.steps)


def exact_expected_moment(F: FrameMatrix, d: int) -> SubsetMomentPolynomial:
    """Exact a_{d,k}(F), d = 1..8, by cumulant-weighted partition contraction.

    With Bernoulli(p) marks b_i, E[b_{i1} ... b_{id}] is the sum over the
    set partitions tau of the d cycle positions on whose blocks the tuple is
    constant of prod_{B in tau} kappa_|B|(p) (the moment-cumulant formula:
    Leonov & Shiryaev 1959; Rota 1964), so n m_d(p) = sum_tau prod_B
    kappa_|B|(p) C_tau(G).  A call forms one Gram, then runs the contraction
    program of each dihedral class of tau (7 at d = 4, 37 at d = 6, 354 at
    d = 8), which ``_moment_plan`` compiles once per d: pairwise steps in the
    order of ``_elimination_path``, a BLAS product (matmul or dot) wherever
    a step sums an index of both its operands, a broadcast multiply for a
    Hadamard or outer product and ``np.add.reduce`` for a one-operand sum.  A call
    at d = 4 takes about 0.1 ms on DSS(7) and 0.14 ms on DSS(31) (one BLAS
    thread of a 2-CPU box).  At d <= 7 every step costs at most n^3
    with n^2 intermediates; the four d = 8 classes whose quotient is K4 with
    two opposite edges doubled cost n^4 and are sliced along index 'a' to
    intermediates of ``_SLICE_ELEMENTS``.  Guarded to
    ``_exact_work(d, n) <= MAX_EXACT_WORK``: n <= 286 at d = 8 (7 to 8 s
    for DSS(283) on one BLAS thread of a 2-CPU box), n <= 702 at d = 7.
    """
    d = int(d)
    n = F.n
    if not 1 <= d <= MAX_EXACT_D:
        raise ValueError(f"d must be in 1..{MAX_EXACT_D}; got {d}")
    if _exact_work(d, n) > MAX_EXACT_WORK:
        raise ValueError(f"order {d} on n = {n} vectors needs {_exact_work(d, n):.2e} "
                         f"multiply-adds, above the guard of {MAX_EXACT_WORK:.0e}")
    weights, classes = _moment_plan(d)
    G = gram(F)
    operands = {(1,): np.diagonal(G), (1, 0): G, (0, 1): G.conj()}

    def operand(key):
        if key not in operands:
            step = (1,) if len(key) == 1 else (1, 0) if key[0] else (0, 1)
            operands[key] = operand(tuple(k - s for k, s in zip(key, step))) * operands[step]
        return operands[key]

    sums = np.zeros(len(classes))
    for c, cls in enumerate(classes):
        ops = [operand(key) for key in cls.keys]
        chunk = max(1, _SLICE_ELEMENTS // n ** max(cls.rank - 1, 0))
        sums[c] = sum(_contract(cls.path, (op[s:s + chunk] if cut else op
                                           for op, cut in zip(ops, cls.sliced))).real
                      for s in range(0, n, chunk))
    a = weights @ sums / n
    a[0] = 0.0
    return SubsetMomentPolynomial(d, tuple(a))


def all_subsets_expected_moment(F: FrameMatrix, d: int, p: float) -> float:
    """Independent oracle: E[m_d] by exhaustive 2^n Bernoulli enumeration.

    Walks every erasure pattern, takes the subset Gram trace of the d-th
    power through its eigenvalues, and weights by p^k (1-p)^(n-k).  The
    patterns of each size k go to ``eigvalsh`` as one stack of Grams.
    """
    n = F.n
    if n > 16:
        raise ValueError("exhaustive enumeration guarded to n <= 16")
    total = 0.0
    for k in range(1, n + 1):
        idx = np.array(list(itertools.combinations(range(n), k)))
        A = F.entries[:, idx].transpose(1, 0, 2)  # one m-by-k block per pattern
        AH = A.conj().transpose(0, 2, 1)
        ev = np.linalg.eigvalsh(AH @ A if k <= F.m else A @ AH)
        total += p ** k * (1.0 - p) ** (n - k) * float(np.sum(ev ** d)) / n
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
    asymptotic moment engine.  Each row also holds, for every d = 4..8 that
    ``exact_expected_moment`` takes at its n, n max_k |a_{d,k}(F) -
    A_{d,k}(x)| with A_{d,k} the p^k coefficient of ``asymptotic_moment(d)``
    at x = n/m - 1: it levels off for an ETF family and grows otherwise.  A
    size means what it means on a harness ladder (``frames.ladder_dims``,
    gamma = 1/2); ``params`` go to the constructor, such as a random
    family's seed."""
    rows = []
    for size in sizes:
        F = construct(family, **ladder_dims(family, size, 0.5)[2], **params)
        x = F.n / F.m - 1.0
        value = crossing_term(F)
        gaps = {}
        for d in range(4, MAX_EXACT_D + 1):
            if _exact_work(d, F.n) <= MAX_EXACT_WORK:
                pairs = zip(exact_expected_moment(F, d).a, asymptotic_moment(d).blocks)
                gaps[d] = F.n * float(max(abs(a - _poly_eval(blk, x)) for a, blk in pairs))
        rows.append({
            "n": F.n,
            "m": F.m,
            "value": value,
            "etf_value": x ** 2 / (F.n - 1),
            "n_times_value": F.n * value,
            "n_times_gap": gaps,
        })
    return rows
