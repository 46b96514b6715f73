"""Exact occupancy probabilities and their enumeration oracles.

The probability a_w that some root path of the labeled M-ary tree carries
the label word w obeys a closed recursion over prefixes,

    a_{l,w} = 1 - (1 - p_l * a_w)^M,    a_empty = 1,

which this module evaluates directly (``a_probability``), sums over whole
levels (``expected_zn``, which walks a level in blocks of ``_BLOCK`` doubles,
in memory O(_BLOCK * n) for up to ``_WORD_CAP`` = 2^26 words, and rounds its
sum once, through ``_exact_sum``), and specializes to the uniform case
(``pi_sequence``, ``gamma_fixed_point``). ``brute_force_a`` and
``enumerate_z_distribution`` recompute the same quantities by exhausting
every labeling of the truncated tree; they exist so the recursions are
tested against something that cannot share their bugs. Both run on one
engine, ``_labeling_law``: the exact law, as {key: Fraction}, of one
integer key a labeling, which is "some path carries w" for the first and
Z for the second.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bounds import _bisect
from .errors import _budget_error, _check_arity, _checked_power
from .ifs import label_symbols
from .stochastic import ProbVector

_ENUM_CAP = 1 << 24  # labelings a brute-force enumeration may visit
_WORD_CAP = 1 << 26  # words a full-level sum may hold; _exact_sum is exact up to this many
_COMPOSITION_CAP = 500_000
_PI_CAP = 1_000_000  # pi_sequence steps, each one float kept
_MASK_BITS = 63  # word bitmasks live in one int64
_CHUNK = 1 << 18
_BLOCK = 1 << 14  # doubles a block of expected_zn's walk may hold
_HI_MASK = np.int64(~((1 << 26) - 1))  # clears the low 26 mantissa bits


def a_probability(w, p: ProbVector, M: int) -> float:
    """Occupancy probability of the label word ``w`` under i.i.d. labels.

    Evaluates the recursion suffix-to-prefix: starting from a = 1 for the
    empty suffix, each step applies a = 1 - (1 - p_l a)^M in the stable form
    -expm1(M * log1p(-p_l a)).
    """
    symbols = label_symbols(w, p.N)
    if not symbols:
        raise ValueError("word must be nonempty")
    _check_arity(M)
    a = 1.0
    for l in reversed(symbols):
        a = -math.expm1(M * math.log1p(-p.values[l - 1] * a))
    return a


def _prefix_edge_indices(M: int, depth: int) -> np.ndarray:
    """Breadth-first edge index of every prefix of every depth-``depth`` path.

    Row i is the path of lexicographic rank i, column j - 1 the edge its
    length-j prefix ends on: the (M^j - M)/(M - 1) edges of shallower levels
    plus the prefix's rank i // M^(depth - j). Shape (M^depth, depth).
    """
    j = np.arange(1, depth + 1, dtype=np.int64)
    offsets = (M**j - M) // (M - 1)
    return offsets + np.arange(M**depth, dtype=np.int64)[:, None] // M ** (depth - j)


def _edge_count(M: int, depth: int) -> int:
    return (M ** (depth + 1) - M) // (M - 1)


def _exact_probs(p: ProbVector) -> list[Fraction] | None:
    """Small-denominator rationals reproducing p bit-for-bit, else None."""
    out = []
    for x in p.values:
        q = Fraction(x).limit_denominator(1000)
        if float(q) != x:
            return None
        out.append(q)
    if sum(out) != 1:
        return None
    return out


def _check_labelings(N: int, M: int, depth: int) -> int:
    """The edge count E of the depth-``depth`` tree, or the budget error if N^E > _ENUM_CAP.

    N^E is formed only for E below the cap's bit length (N >= 2, so any larger
    E is over the cap), and E past the cap's square prints as its closed form.
    """
    E = _edge_count(M, depth)
    if E >= _ENUM_CAP.bit_length() or N**E > _ENUM_CAP:
        if E <= _ENUM_CAP**2:
            edges = str(E)
        elif M == 2:
            edges = f"(2^{depth + 1} - 2)"
        else:
            edges = f"(({M}^{depth + 1} - {M})/{M - 1})"
        raise _budget_error(f"N^E = {N}^{edges} labelings to enumerate", _ENUM_CAP, "_ENUM_CAP")
    return E


def _labeling_law(
    N: int, M: int, depth: int, key, weights: Sequence[Fraction]
) -> dict[int, Fraction]:
    """Exact law of ``key`` over the N^E labelings of the depth-``depth`` tree's E edges.

    Labelings are enumerated in chunks as digit rows, one digit 0..N-1 an
    edge. ``key`` maps a chunk's int64 (chunk, M^depth, depth) array of the
    digits along every root path to one nonnegative integer a labeling,
    below 2^39. A labeling with digit counts c_0..c_{N-1} weighs
    prod weights[i]^c_i, so labelings are grouped by key and digit multiset
    and each weight is formed once. A multiset is coded by its sorted digits
    read in base N, below N^E <= _ENUM_CAP = 2^24, so key * N^E + code fits
    int64. Returns {key: total weight}.
    """
    E = _check_labelings(N, M, depth)
    total = N**E
    powers = N ** np.arange(E, dtype=np.int64)
    prefix = _prefix_edge_indices(M, depth)
    groups: Counter[int] = Counter()
    for start in range(0, total, _CHUNK):
        vals = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = vals[:, None] // powers % N
        multiset = np.sort(digits, axis=1) @ powers
        packed = key(digits[:, prefix]).astype(np.int64) * total + multiset
        uniq, mult = np.unique(packed, return_counts=True)
        groups.update(dict(zip(uniq.tolist(), mult.tolist())))
    law: dict[int, Fraction] = {}
    for group, mult in groups.items():
        k, code = divmod(group, total)
        weight = Fraction(mult)
        for _ in range(E):
            code, d = divmod(code, N)
            weight *= weights[d]
        law[k] = law.get(k, 0) + weight
    return law


def brute_force_a(w, p: ProbVector, M: int):
    """Enumeration oracle for ``a_probability``.

    Sums the probability weight of every labeling of the depth-|w| tree in
    which some root path carries ``w``, grouping labelings by digit counts
    so each weight is formed once. When the entries of p round-trip through
    small rationals the result is that exact Fraction. Otherwise the sum is
    taken exactly over the binary values of p and rounded once to a float.
    """
    symbols = label_symbols(w, p.N)
    if not symbols:
        raise ValueError("word must be nonempty")
    _check_arity(M)
    target = np.asarray(symbols, dtype=np.int64) - 1

    def carries(paths: np.ndarray) -> np.ndarray:
        return (paths == target).all(axis=2).any(axis=1)

    rational = _exact_probs(p)
    weights = rational if rational is not None else [Fraction(x) for x in p.values]
    carried = _labeling_law(p.N, M, len(symbols), carries, weights).get(1, Fraction(0))
    return carried if rational is not None else float(carried)


@dataclass(frozen=True)
class PiSequence:
    """Uniform-label occupancy probabilities pi_0..pi_n.

    pi_n is a_w for any length-n word under uniform p; the recursion is
    pi_n = 1 - (1 - pi_{n-1}/N)^M from pi_0 = 1. Values are monotone
    non-increasing; mathematically they stay positive but can underflow to
    0.0 in float once M < N drives them below the denormal range.
    """

    N: int
    M: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.N < 2 or self.M < 2:
            raise ValueError("N and M must both be at least 2")
        if not self.values or self.values[0] != 1.0:
            raise ValueError("sequence must start at pi_0 = 1")
        for a, b in zip(self.values, self.values[1:]):
            if b > a + 1e-12 or not 0.0 <= b <= 1.0:
                raise ValueError("pi values must be non-increasing within [0,1]")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> float:
        return self.values[n]


def pi_sequence(N: int, M: int, n_max: int) -> PiSequence:
    """pi_0..pi_{n_max} for uniform labels over N symbols on the M-ary tree."""
    if N < 2 or M < 2:
        raise ValueError("N and M must both be at least 2")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if n_max > _PI_CAP:
        raise _budget_error(f"n_max = {n_max} steps", _PI_CAP, "_PI_CAP")
    values = [1.0]
    x = 1.0
    for _ in range(n_max):
        x = -math.expm1(M * math.log1p(-x / N))
        values.append(x)
    return PiSequence(N, M, tuple(values))


def gamma_fixed_point(N: int, M: int) -> float:
    """Attracting fixed point of x = 1 - (1 - x/N)^M on (0,1] when M > N.

    For M <= N the recursion drives pi_n to 0 and 0.0 is returned. Otherwise
    the nonzero root is bracketed, then bisected to adjacent doubles (at most
    200 halvings) and its residual checked below 1e-12.
    """
    if N < 2 or M < 2:
        raise ValueError("N and M must both be at least 2")
    if M <= N:
        return 0.0

    def f(x: float) -> float:
        return -math.expm1(M * math.log1p(-x / N)) - x

    lo = 0.5
    halvings = 0
    while f(lo) <= 0.0:
        lo /= 2
        halvings += 1
        if halvings > 200:
            raise RuntimeError("failed to bracket the nonzero fixed point")
    x = _bisect(lambda y: f(y) > 0.0, lo, 1.0)
    residual = abs(f(x))
    if residual >= 1e-12:
        raise RuntimeError(f"fixed-point residual {residual} not below 1e-12")
    return x


def _exact_sum(blocks: Iterable[np.ndarray]) -> float:
    """The correctly rounded sum of the nonnegative finite doubles in ``blocks``; equals ``math.fsum``.

    Each block's values are bucketed by their biased exponent ``bits >> 52``
    (bits being the float's int64 view), and each is split into ``hi``, its
    bits with the low 26 mantissa bits cleared, and ``lo = v - hi``, which is
    exact. ``np.bincount`` adds the hi parts and the lo parts of each bucket
    into 4096 running bucket sums, and ``math.fsum`` rounds them once. Every
    bucket sum is exact: with u the bucket's ulp, its hi parts are multiples
    of 2^26 u below 2^27 (2^26 u) and its lo parts multiples of u below
    2^26 u, so for up to 2^26 values in all blocks together every partial sum
    of either is a multiple of its grid below 2^53 grid steps and fits a
    double. ``_WORD_CAP`` = 2^26 keeps every level within that.
    """
    sums = np.zeros(4096, dtype=np.float64)
    for block in blocks:
        bits = block.view(np.int64)
        exponent = bits >> 52
        hi = (bits & _HI_MASK).view(np.float64)
        sums[:2048] += np.bincount(exponent, weights=hi, minlength=2048)
        lo = np.subtract(block, hi, out=hi)
        sums[2048:] += np.bincount(exponent, weights=lo, minlength=2048)
    return math.fsum(sums.tolist())


def _occupy(x: np.ndarray, M: int) -> None:
    """x <- 1 - (1 - x)^M in place, in the stable form -expm1(M * log1p(-x))."""
    np.negative(x, out=x)
    np.log1p(x, out=x)
    np.multiply(x, M, out=x)
    np.expm1(x, out=x)
    np.negative(x, out=x)


def _level_blocks(p: np.ndarray, M: int, n: int) -> Iterator[np.ndarray]:
    """The a-values of all N^n words of length n, in blocks of at most ``_BLOCK``.

    Levels evolve breadth-first while one fits a block: level k+1's part i
    is p_i times level k, written from i = N-1 down so that part 0, which
    overwrites the level it reads, goes last, and ``_occupy`` then runs in
    place on the new level. From the deepest such level K on, the walk is
    depth-first. Row d of one (n - K + 1) x N^K array holds a block of level
    K + d, row 0 the head: each row is ``_occupy`` of p_i times the row
    above, for the letter i its block descends by. Leaf t's letters are the
    base-N digits of t, so row d + 1 is recomputed only when leaf t starts a
    new block of it, at t a multiple of N^(n - K - 1 - d). Each leaf yields
    row n - K, which the next leaf overwrites.
    """
    N = p.size
    head = 0
    while head < n and N ** (head + 1) <= _BLOCK:
        head += 1
    depth = n - head
    rows = np.empty((depth + 1, N**head), dtype=np.float64)
    top = rows[0]
    top[0] = 1.0
    size = 1
    for _ in range(head):
        for i in range(N - 1, -1, -1):
            np.multiply(p[i], top[:size], out=top[i * size : (i + 1) * size])
        size *= N
        _occupy(top[:size], M)
    for t in range(N**depth):
        for d in range(depth):
            stride = N ** (depth - 1 - d)
            if t % stride == 0:
                np.multiply(p[t // stride % N], rows[d], out=rows[d + 1])
                _occupy(rows[d + 1], M)
        yield rows[depth]


def expected_zn(p: ProbVector, M: int, n: int) -> float:
    """Exact E[Z_n]: the sum of a_probability over all N^n label words.

    The a-values are evolved one prefix letter at a time, a whole block of
    words a step, so the cost is the output size N^n, not N^n recursion
    calls. ``_level_blocks`` walks the levels in blocks of ``_BLOCK``
    doubles, so memory is O(_BLOCK * n) at any N^n up to ``_WORD_CAP``, and
    ``_exact_sum`` adds the last level's blocks exactly, so the result is
    the correctly rounded sum.
    """
    _check_arity(M)
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    _checked_power("N^n = {} words to sum", p.N, n, _WORD_CAP, "_WORD_CAP")
    return _exact_sum(_level_blocks(p.as_array(), M, n))


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in _compositions(n - k, parts - 1):
            yield (k,) + rest


def multinomial_bound(p: ProbVector, M: int, n: int, *, log: bool = False) -> float:
    """Digit-frequency upper bound on E[Z_n].

    Words sharing digit counts (k_1..k_N) share their occupancy probability,
    and each probability is at most min(1, M^n prod p_i^{k_i}); the bound is
    the count-weighted sum over compositions of n. Terms are accumulated in
    log domain (log-gamma coefficients, log-sum-exp); ``log=True`` returns
    the natural log, which is the usable form once the value overflows
    float range.
    """
    _check_arity(M)
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    N = p.N
    n_comp = math.comb(n + N - 1, N - 1)
    if n_comp > _COMPOSITION_CAP:
        raise _budget_error(f"{n_comp} compositions to sum", _COMPOSITION_CAP, "_COMPOSITION_CAP")
    if n == 0:
        return 0.0 if log else 1.0
    log_p = [math.log(x) for x in p.values]
    cap_base = n * math.log(M)
    lg_n = math.lgamma(n + 1)
    terms = np.empty(n_comp, dtype=np.float64)
    for idx, ks in enumerate(_compositions(n, N)):
        log_coeff = lg_n - math.fsum(math.lgamma(k + 1) for k in ks)
        log_prob = cap_base + math.fsum(k * lp for k, lp in zip(ks, log_p))
        terms[idx] = log_coeff + min(0.0, log_prob)
    peak = float(terms.max())
    log_total = peak + math.log(float(np.exp(terms - peak).sum()))
    if log:
        return log_total
    if log_total > 700.0:
        raise OverflowError("bound exceeds float range; call with log=True")
    return math.exp(log_total)


def enumerate_z_distribution(
    p_exact: Sequence[Fraction], M: int, depth: int
) -> list[dict[int, Fraction]]:
    """Exact law of the occupancy count Z_k for every level k = 0..depth.

    Exhausts all labelings of the depth-k tree for each level, encoding each
    labeling's occupied word set as a bitmask and weighting by exact
    rational probabilities (entries of ``p_exact`` must sum to 1 exactly).
    Budgets bind fast: N^depth <= 63 for the bitmask and N^E <= 2^24
    labelings at the deepest level.
    """
    probs = [Fraction(q) for q in p_exact]
    N = len(probs)
    if N < 2:
        raise ValueError("need at least 2 label probabilities")
    if any(not 0 < q < 1 for q in probs):
        raise ValueError("exact probabilities must lie strictly inside (0,1)")
    if sum(probs) != 1:
        raise ValueError("exact probabilities must sum to 1 exactly")
    _check_arity(M)
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    _checked_power("N^depth = {} words in one mask", N, depth, _MASK_BITS, "_MASK_BITS")
    _check_labelings(N, M, depth)

    def z_of(paths: np.ndarray) -> np.ndarray:  # codes < N^depth <= 63: masks stay nonnegative
        codes = paths @ N ** np.arange(paths.shape[2], dtype=np.int64)
        return np.bitwise_count(np.bitwise_or.reduce(np.left_shift(1, codes), axis=1))

    laws = (_labeling_law(N, M, level, z_of, probs) for level in range(1, depth + 1))
    return [{1: Fraction(1)}, *laws]
