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
  d = 8, compiled once per d, in place of the n^d index tuples.  A frame
  with a circulant Gram (the harmonic constructors') sums each class with
  one index fixed, by shift invariance; its constant diagonal leaves a
  factor per class, and the classes whose remaining edge networks
  coincide share one program, 117 at d = 8.  ``MAX_EXACT_WORK`` caps its
  multiply-adds, which allows n <= 286 at d = 8 in general and n <= 1983
  on a circulant Gram, and ``MAX_EXACT_BYTES`` the bytes of its n-by-n
  operands,
* ``all_subsets_expected_moment`` averages subset Gram traces over all 2^n
  erasure patterns (the independent oracle),
* ``asymptotic_moment`` evaluates the n -> infinity polynomial for
  equiangular tight frames by contracting the d-cycle along non-crossing
  partitions, in integer arithmetic: no step divides, so every coefficient
  is a Python int (see ``MomentPolynomial``).  The partitions are never
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
from functools import lru_cache, partial, reduce
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
    "MAX_EXACT_BYTES",
    "MAX_PARTITION_D",
    "MAX_ASYMPTOTIC_D",
]

MAX_EXACT_D = 8
MAX_EXACT_WORK = 4 * 10 ** 10
MAX_EXACT_BYTES = 1 << 31
_SLICE_ELEMENTS = 1 << 20  # intermediates of the general exact path stay within this
MAX_PARTITION_D = 14
MAX_ASYMPTOTIC_D = 12


def _order(d, top: int | None = None, bottom: int = 1) -> int:
    """The moment order d as an int, at least ``bottom`` and at most
    ``top``; any other d, 4.5 included, is a ValueError naming it."""
    try:
        order = int(d)
    except (TypeError, ValueError, OverflowError):
        order = None
    if order is None or order != d or order < bottom or (top is not None and order > top):
        raise ValueError(f"d must be in {bottom}..{top}; got {d}" if top is not None
                         else f"d must be an integer >= {bottom}; got {d}")
    return order


# ---------------------------------------------------------------------------
# integer polynomials in x, represented as tuples of ints (constant first)

def _poly_add(a, b):
    return tuple(ai + bi for ai, bi in itertools.zip_longest(a, b, fillvalue=0))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _poly_eval(a, x: float) -> float:
    acc = 0.0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _binom_poly(d: int):
    """(x+1)^d as a coefficient tuple."""
    return tuple(math.comb(d, j) for j in range(d + 1))


@dataclass(frozen=True)
class MomentPolynomial:
    """m_d(p, x) with integer coefficients.

    ``blocks[k]`` is the x-polynomial multiplying p^k (k = 0..d); x stands
    for the frame redundancy n/m - 1.  The coefficients are integers because
    no step of ``asymptotic_moment`` divides: each block is a sum of
    Kreweras counts times products of integer full-cycle blocks, and each
    full-cycle block is (x+1)^(d-1) minus the other blocks.
    """

    degree_d: int
    blocks: tuple

    @property
    def coefficients(self) -> dict:
        """Map (power of p, power of x) -> int coefficient, zeros omitted."""
        return {(k, j): c for k, blk in enumerate(self.blocks) for j, c in enumerate(blk) if c}

    def evaluate(self, p: float, x: float) -> float:
        acc = 0.0
        for k in range(len(self.blocks) - 1, -1, -1):
            acc = acc * p + _poly_eval(self.blocks[k], x)
        return acc

    def at_p_one(self) -> tuple:
        """Integer x-polynomial of the p = 1 specialization."""
        return reduce(_poly_add, self.blocks, (0,))

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
    d = _order(d, MAX_PARTITION_D)
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
def _census(d: int) -> dict:
    """partition_census(d), counted once per d; not to be mutated."""
    return partition_census(d)


@lru_cache(maxsize=None)
def _a_diag(d: int) -> tuple:
    """a_{d,d}(x): the full-cycle coefficient, closed through the tight-frame
    p = 1 identity (x+1)^(d-1) = sum_k a_{d,k}."""
    if d == 1:
        return (1,)
    total = _poly_add(_binom_poly(d - 1), (-1,))  # remove a_{d,1} = 1
    for k in range(2, d):
        total = _poly_add(total, tuple(-c for c in _a_block(d, k)))
    return total


@lru_cache(maxsize=None)
def _a_block(d: int, k: int) -> tuple:
    """a_{d,k}(x) for 2 <= k < d: sum over non-crossing partitions with k
    blocks of the product of full-cycle coefficients of the contracted
    cycles (crossing partitions vanish asymptotically)."""
    acc = (0,)
    for cycles, count in _census(d)[k].items():
        term = (count,)
        for length in cycles:
            term = _poly_mul(term, _a_diag(length))
        acc = _poly_add(acc, term)
    return acc


def asymptotic_moment(d: int) -> MomentPolynomial:
    """n -> infinity subset moment polynomial m_d(p, x) of an ETF family."""
    d = _order(d, MAX_ASYMPTOTIC_D)
    blocks = [(0,), (1,)]  # p^0 and p^1 (a_{d,1} = 1)
    for k in range(2, d + 1):
        blocks.append(_a_diag(d) if k == d else _a_block(d, k))
    return MomentPolynomial(d, tuple(blocks))


# ---------------------------------------------------------------------------
# erasure Welch bound

def ewb_delta(gamma: float, p: float, d: int, n: int) -> float:
    """Finite-n correction of the bound: zero for d = 2, 3."""
    if n < 2:
        raise ValueError(f"the bound needs n >= 2 vectors; got n={n}")
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
    d = _order(d)
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
        return _poly_eval(self.a, p)


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
        if x != y:
            py = tuple(y.index(c) for c in x)
            return lambda u, v: np.dot(u.ravel(), v.transpose(py).ravel()), ""
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


def _elimination_path(terms: list, free: str = "") -> tuple:
    """Contraction program summing a product of vertex vectors and edge
    matrices over every index, by variable elimination: take the vertex with
    the fewest neighbours ('a' last, so that slicing 'a' bounds every
    intermediate) and contract its operands pairwise, the pair with the
    fewest indices first (with 'a' among equals), until the vertex is
    summed out.  Indices in ``free`` (the shift-invariant path's 'a', of
    extent 1 there) count for nothing.  Returns the program (``_Step``s),
    each step's number of distinct indices not in ``free`` (it costs about
    n to that power) and the largest intermediate's count of them."""
    live, program, steps, rank = list(terms), [], [], 0
    left = sorted(set("".join(terms)), reverse=True)

    def extent(labels):
        return len(set("".join(labels)) - set(free))

    while left:
        v = min(left[:-1] or left, key=lambda v: extent(t for t in live if v in t))
        left.remove(v)
        while True:
            pos = [i for i, t in enumerate(live) if v in t]
            if not pos:
                break
            pick = min(itertools.combinations(pos, 2), default=tuple(pos),
                       key=lambda ij: (extent(live[i] for i in ij),
                                       "a" not in live[ij[0]] + live[ij[1]]))
            labels = [live[i] for i in pick]
            touched = set("".join(labels))
            for i in sorted(pick, reverse=True):
                del live[i]
            # an index of one operand only is kept, for a later step to sum
            keep = set(labels[0]) ^ set(labels[-1])
            run, labels = _compile_step(labels, touched & set("".join(live)) | keep)
            live.append(labels)
            program.append(_Step(pick, run))
            steps.append(extent(touched))
            rank = max(rank, extent(live[-1]))
    return tuple(program), tuple(steps), rank


def _contract(program: tuple, operands) -> complex:
    """Run a contraction program on its operands."""
    live = list(operands)
    for take, run in program:
        y = live.pop(take[-1])  # the higher position first, so take[0] stays put
        live.append(run(live.pop(take[0]), y) if len(take) == 2 else run(y))
    return live[0]


class _Network(NamedTuple):
    """The contraction network of one or more dihedral classes of set
    partitions of the d cycle positions, and its compiled program."""

    subs: str        # einsum subscripts: a vertex vector or an edge matrix each
    keys: tuple      # operand keys: (l,) is diag(G)^l, (f, r) is G^f conj(G)^r
    sliced: tuple    # whether each operand's first index is 'a'
    path: tuple      # contraction program: the pairwise steps, in order
    steps: tuple     # each path step costs about n to this power
    rank: int        # largest intermediate's number of indices (bar 'a' if shifted)


class _Plan(NamedTuple):
    """What ``exact_expected_moment`` needs at one order d on one path, per
    dihedral class c of set partitions of the cycle positions and per
    distinct network."""

    weights: np.ndarray  # [k, c]: c's size times the p^k coefficient of its cumulant product
    sizes: np.ndarray    # [c]: partitions in c
    loops: np.ndarray    # [c]: cycle steps of c inside a block, the L of diag(G)^L
    index: np.ndarray    # [c]: position of c's network in ``networks``
    networks: tuple      # the distinct ``_Network``s
    powers: tuple        # the G-powers they read, as (key, prev, step)


def _network(lab) -> tuple:
    """The quotient graph of the cycle whose positions carry the block
    labels ``lab``: einsum terms, a vertex vector per block with a loop and
    an edge matrix per adjacent pair (lower label first), and their keys."""
    d, blocks = len(lab), max(lab) + 1
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
    return terms, keys


@lru_cache(maxsize=None)
def _shift_network(walk: tuple) -> tuple:
    """The edge network of the loop-free cyclic walk ``walk`` with 'a' on
    the block that the shift-invariant sum fixes, and its program
    (``_elimination_path`` with 'a' free).  Each block is tried as 'a'; the
    program whose step powers, largest first, sort lowest wins, the first
    block among equals."""
    nets = []
    for r in range(max(walk) + 1):
        terms, keys = _network([r if b == 0 else 0 if b == r else b for b in walk])
        nets.append((terms, keys, _elimination_path(terms, free="a")))
    return min(nets, key=lambda net: sorted(net[2][1], reverse=True))


def _dihedral_key(lab) -> tuple:
    """The least first-appearance relabelling of the rotations and
    reflections of the cyclic sequence ``lab``."""
    d = len(lab)
    return min(_first_appearance(lab[(s * t + r) % d] for t in range(d))
               for r in range(d) for s in (1, -1))


@lru_cache(maxsize=None)
def _moment_plan(d: int, shift: bool = False) -> _Plan:
    """Everything ``exact_expected_moment`` needs that depends on d alone:
    the dihedral classes of set partitions tau of the d cycle positions,
    their weights (size times the p-coefficients of the cumulant product
    prod_{B in tau} kappa_|B|(p)), their networks and the G-powers.

    C_tau(G), the cycle c_{i1 i2} ... c_{id i1} summed over the index tuples
    constant on each block, is a sum over the quotient graph of the cycle:
    one index per block, one Gram factor per cycle step, the steps inside a
    block folding into a diagonal power and parallel steps into one
    Hadamard product.  A dihedral image of tau has the same block sizes and
    the same or the conjugate C_tau, so each class counts its size times
    the real part.  Each network carries its contraction program, compiled
    here once per d: the pairwise steps of ``_elimination_path`` with their
    transposes and axis insertions fixed, so that a call plans nothing.
    On the general path every class has its own network.

    With ``shift`` the Gram is circulant, so each diagonal power is the
    constant g0^l: a class's network keeps its edge matrices only, the
    quotient of its cycle with the steps inside blocks dropped, and C_tau
    is g0^L times that network's sum, L the class's ``loops``.  The classes
    whose loop-free walks are dihedral images of each other share the
    network of the least image, the classes whose networks then coincide
    share one, and each network's program is that of ``_shift_network``,
    summed at a = 0 only: 6 networks for the 7 classes at d = 4, 118 for
    the 354 at d = 8, one of them the empty network (the single block),
    whose sum is 1.
    The G-powers the networks read are listed as (key, prev, step), each
    after its factors, so that a call forms each by one product prev * step
    with step diag(G) (1,), G (1, 0) or conj(G) (0, 1).
    """
    orbits: dict = {}
    for lab in _set_partitions(d):
        key = _dihedral_key(lab)
        orbits[key] = orbits.get(key, 0) + 1
    weights = np.zeros((d + 1, len(orbits)))
    sizes, loops, index, networks, position = [], [], [], [], {}
    for c, (lab, size) in enumerate(sorted(orbits.items())):
        poly = (1,)
        for b in range(max(lab) + 1):
            poly = _poly_mul(poly, _bernoulli_cumulant(lab.count(b)))
        weights[:, c] = [size * float(x) for x in poly]
        walk = [u for t, u in enumerate(lab) if u != lab[(t + 1) % d]]
        sizes.append(size)
        loops.append(d - len(walk))
        if not shift:
            terms, keys = _network(lab)
            program = _elimination_path(terms)
        elif walk:
            terms, keys, program = _shift_network(_dihedral_key(walk))
        else:
            terms, keys, program = [], [], ((), (), 0)
        net = _Network(",".join(terms) + "->", tuple(keys),
                       tuple(t[0] == "a" for t in terms), *program)
        at = position.get(net[:2]) if shift else None
        if at is None:
            at = position[net[:2]] = len(networks)
            networks.append(net)
        index.append(at)
    factors = {}
    for key in {key for net in networks for key in net.keys}:
        while sum(key) > 1:
            step = (1,) if len(key) == 1 else (1, 0) if key[0] else (0, 1)
            factors[key] = tuple(k - s for k, s in zip(key, step)), step
            key = factors[key][0]
    arrays = [weights, np.array(sizes), np.array(loops), np.array(index)]
    for x in arrays:
        x.flags.writeable = False
    # a key's prev sorts before it: (l-1,) < (l,), (f-1, r) < (f, r), (0, r-1) < (0, r)
    return _Plan(*arrays, tuple(networks),
                 tuple((key, *factors[key]) for key in sorted(factors)))


@lru_cache(maxsize=None)
def _exact_work(d: int, n: int, shift: bool = False) -> int:
    """Multiply-adds of ``exact_expected_moment`` at order d on n vectors,
    general or shift-invariant, as its steps count them (n to the number
    of indices a step touches, 'a' left out on the shift-invariant path),
    each distinct network once."""
    return sum(n ** e for net in _moment_plan(d, shift).networks for e in net.steps)


def _chunk(rank: int, n: int) -> int:
    """Values of 'a' per slice on the general path for a network whose largest
    intermediate has ``rank`` indices: n, unless that keeps more than
    ``_SLICE_ELEMENTS`` values."""
    return min(n, max(1, _SLICE_ELEMENTS // n ** max(rank - 1, 0)))


@lru_cache(maxsize=None)
def _exact_bytes(d: int, n: int, shift: bool = False) -> int:
    """Bytes that ``exact_expected_moment`` holds at once at order d on n
    vectors, 16 per value (complex): on the general path the Gram, its
    conjugate and every G-power that is a matrix, and four of the largest
    intermediate (a step's operands, its transposed copies and its
    result); on the shift-invariant path the whole powers it gathers from
    the row, and for each network one of its largest intermediate per step
    of its program and one more, since a program may hold every result it
    has made while a step copies an operand; on either a vector of n per
    G-power."""
    plan = _moment_plan(d, shift)
    networks, powers = plan.networks, plan.powers
    if shift:
        matrices = len({key for net in networks for key, cut in zip(net.keys, net.sliced)
                        if not cut})
        held = max((len(net.path) + 1) * n ** net.rank for net in networks)
    else:
        matrices = 2 + sum(len(key) == 2 for key, _, _ in powers)
        held = 4 * max(_chunk(net.rank, n) * n ** max(net.rank - 1, 0) for net in networks)
    return 16 * (matrices * n * n + (len(powers) + 3) * n + held)


@lru_cache(maxsize=None)
def _refusal(d: int, n: int, shift: bool) -> str:
    """Why ``exact_expected_moment`` refuses order d on n vectors on the
    given path, or "" if its guards admit the call."""
    work, size = _exact_work(d, n, shift), _exact_bytes(d, n, shift)
    if work > MAX_EXACT_WORK:
        return (f"order {d} on n = {n} vectors needs {work:.2e} "
                f"multiply-adds, above the guard of {MAX_EXACT_WORK:.0e}")
    if size > MAX_EXACT_BYTES:
        return (f"order {d} on n = {n} vectors holds {size:.2e} bytes "
                f"of operands, above the guard of {MAX_EXACT_BYTES:.2e}")
    return ""


def _shifts(F: FrameMatrix) -> bool:
    """Whether ``exact_expected_moment`` takes F's shift-invariant path."""
    return F.circulant_row is not None


def exact_expected_moment(F: FrameMatrix, d: int) -> SubsetMomentPolynomial:
    """Exact a_{d,k}(F), d = 1..8, by cumulant-weighted partition contraction.

    With Bernoulli(p) marks b_i, E[b_{i1} ... b_{id}] is the sum over the
    set partitions tau of the d cycle positions on whose blocks the tuple is
    constant of prod_{B in tau} kappa_|B|(p) (the moment-cumulant formula:
    Leonov & Shiryaev 1959; Rota 1964), so n m_d(p) = sum_tau prod_B
    kappa_|B|(p) C_tau(G).  A call forms one Gram and the elementwise
    G-powers of the plan, then runs the contraction program of each
    dihedral class of tau (7 at d = 4, 37 at d = 6, 354 at d = 8), or on
    the shift-invariant path of each distinct edge network (5, 20 and
    117), which ``_moment_plan`` compiles once per d: pairwise steps in the
    order of ``_elimination_path``, a BLAS product (matmul or dot) wherever
    a step sums an index of both its operands, a broadcast multiply for a
    Hadamard or outer product and ``np.add.reduce`` for a one-operand sum.

    Two paths, by the frame:

    * General (every frame without ``circulant_row``: a harmonic frame read
      through ``frameio`` or with permuted columns included).  At d <= 7
      every step costs at most n^3 with n^2 intermediates; the four d = 8
      classes whose quotient is K4 with two opposite edges doubled cost n^4
      and are sliced along index 'a' to intermediates of
      ``_SLICE_ELEMENTS``.  Reach: n <= 286 at d = 8 (7 to 8 s for
      DSS(283)), n <= 702 at d = 7.
    * Shift-invariant (the harmonic constructors ``dss``, ``lowpass_dft``,
      ``random_spectrum_dft`` and ``complex_paley``, which set the row).
      Their Gram is circulant, so C_tau is unchanged when every index
      shifts by one: C_tau is n times its sum at one block's index fixed
      to 0.  Its diagonal is the constant g0 = ``circulant_row[0]``, so a
      class with L cycle steps inside its blocks is g0^L times the sum of
      its edge network, and the classes whose edge networks coincide share
      one contraction (``_moment_plan``): a = weights @ (g0^L P), P the
      sums of the distinct networks.  Each network fixes the block whose
      removal leaves the cheapest program (``_shift_network``) and labels
      it 'a'; the operands come from the stored row (``_shift_sums``), and
      no Gram is formed.  Every step costs at most n^2 at d <= 7 and n^3
      at d = 8, with n^2 intermediates.  Reach: n <= 1983 at d = 8, 5178
      at d = 7; DSS(863) takes 0.06 s at d = 7 and 0.7 s at d = 8.
      Within 2.7e-12 of the general path, relative to the largest
      coefficient (DSS(199) at d = 8).

    A call at d = 4 takes about 0.045 ms on DSS(7) and on DSS(31), against
    0.10 and 0.14 ms on the general path.  Times are on one BLAS thread of
    a 2-CPU box.  Guarded, on the frame's path and before any array is
    formed, to ``_exact_work(d, n, shift) <= MAX_EXACT_WORK`` multiply-adds
    and ``_exact_bytes(d, n, shift) <= MAX_EXACT_BYTES`` (2 GiB) of
    operands and intermediates.  The work binds at d = 8 on either path
    and at d >= 3 on the general one; the bytes bind elsewhere: n <= 8190
    at d = 1 and 6687 at d = 2 on the general path, and on the
    shift-invariant one n <= 11578 to 11581 at d = 3 to 5, 5790 at d = 6
    and 5178 at d = 7 (at d <= 2 it holds no n-by-n operand).
    """
    d = _order(d, MAX_EXACT_D)
    n, shift = F.n, _shifts(F)
    refusal = _refusal(d, n, shift)
    if refusal:
        raise ValueError(refusal)
    plan = _moment_plan(d, shift)
    if shift:  # n times each class's sum at a = 0; the n cancels the 1/n
        row = F.circulant_row
        sums = _shift_sums(row, plan.networks, plan.powers)
        a = plan.weights @ (row[0].real ** plan.loops * sums[plan.index])
        a[0] = 0.0
        return SubsetMomentPolynomial(d, tuple(a))
    operands = _g_powers(gram(F), plan.powers)
    sums = np.zeros(len(plan.networks))
    for c, net in enumerate(plan.networks):
        ops = [operands[key] for key in net.keys]
        chunk = _chunk(net.rank, n)
        if chunk >= n:
            sums[c] = _contract(net.path, ops).real
        else:
            sums[c] = sum(_contract(net.path, [op[s:s + chunk] if cut else op
                                               for op, cut in zip(ops, net.sliced)]).real
                          for s in range(0, n, chunk))
    a = plan.weights @ sums / n
    a[0] = 0.0
    return SubsetMomentPolynomial(d, tuple(a))


def _g_powers(G, powers) -> dict:
    """The plan's elementwise powers of G (or of its first rows) by key."""
    operands = {(1,): np.diagonal(G), (1, 0): G, (0, 1): G.conj()}
    for key, prev, step in powers:
        operands[key] = operands[prev] * operands[step]
    return operands


def _shift_sums(row, networks, powers) -> np.ndarray:
    """Each edge network's sum at a = 0 on the circulant Gram with first
    row ``row``, 1 for the empty network.  An operand that holds 'a' is row
    0 of its G-power; any other is the whole power, a circulant gathered
    from that row.  Only those few powers take n^2 values."""
    first = _g_powers(row[None, :], powers)
    whole = {}
    sums = np.ones(len(networks))
    for c, net in enumerate(networks):
        if not net.path:
            continue
        ops = []
        for key, cut in zip(net.keys, net.sliced):
            if cut:
                ops.append(first[key])
            else:
                if key not in whole:
                    whole[key] = _circulant(first[key][0])
                ops.append(whole[key])
        sums[c] = _contract(net.path, ops).real
    return sums


def _circulant(row) -> np.ndarray:
    """The circulant matrix C[i, j] = row[(j - i) % n], copied from a strided
    view of the row with its tail in front: row i of C starts i places
    before row[0] there."""
    n = len(row)
    ext = np.concatenate((row[1:], row))
    step = ext.strides[0]
    return np.lib.stride_tricks.as_strided(ext[n - 1:], (n, n), (-step, step)).copy()


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
    at x = n/m - 1: it levels off for an ETF family and grows otherwise.
    The orders are those the engine's guards allow on the frame's path:
    d = 8 along both harness ladders (n <= 1951) for the harmonic families
    (dss, lowpass_dft, random_spectrum_dft, complex_paley), and for the
    others d = 8 to n = 286, d = 7 to n = 702 and d = 6 to n = 1055.  A
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
            if not _refusal(d, F.n, _shifts(F)):
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
