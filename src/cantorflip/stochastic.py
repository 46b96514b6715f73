"""Branching occupancy simulation over labeled M-ary trees.

Every edge of the full M-ary tree carries a label in {1..N}; a root path of
depth n therefore carries a label word in {1..N}^n. The occupancy map of a
level records, for each label word, how many of the M^n root paths carry it;
``z_n`` counts the distinct occupied words and ``measure`` normalizes the
counts into a probability measure on words (equivalently, on the basic
intervals of an interval system with N maps).

With labels drawn i.i.d. from a probability vector p, the M*c children of
the c paths sharing a word w split among the N one-letter extensions as a
single multinomial(M*c, p) draw, independently across words. ``_step`` is
the one implementation of that level step: it works on int64 word codes and
path counts, the children of code c being c*N + l, so sorted parents give
sorted children and the state stays linear in the number of distinct words
rather than in the number of paths or of possible words.

``evolve`` advances an ``OccupancyMap`` by one step. ``run_trials`` and
``z_distribution`` advance trials in blocks of B = max(1, _BLOCK_ENTRIES //
min(N, M)^depth): block b holds trials [b*B, (b+1)*B), draws from
Generator(PCG64(SeedSequence(master_seed, spawn_key=(b,)))) and orders its
entries by (trial, code). Results depend on that block size and on nothing
else (not on the thread count). When B == 1, block b is trial b, so deep
shapes keep one stream per trial. At one seed both functions see the same
trials: ``z_distribution`` is the histogram of the per-trial counts that
``run_trials`` aggregates.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetError
from .ifs import IfsSpec, interval
from .symbolic import EdgeIndex, LabelWord, child_indices

__all__ = [
    "ProbVector",
    "LabelSource",
    "OccupancyMap",
    "RandomMeasure",
    "TrialStats",
    "evolve",
    "z_n",
    "measure",
    "run_trials",
    "z_distribution",
    "estimate_dim",
    "energy_estimate",
    "occupancy_from_source",
]

_DENSE_STATE_CAP = 1 << 24  # pooled-union bitmaps: at most 2^24 words a level
_TRIAL_STATE_CAP = 1 << 24  # one trial's sparse state: at most 2^24 words a level
_WORK_CAP = 1 << 34  # trials * N^depth
_EXPLICIT_CAP = 1 << 16  # per-path walk budget (M^depth)
_INT64_MAX = (1 << 63) - 1  # path counts and word codes are int64
# a block of B > 1 trials holds at most 2^16 words at any level (B * min(N, M)^depth)
_BLOCK_ENTRIES = 1 << 16
_PAIR_CAP = 1 << 28  # energy pair sum: at most 2^28 (Z^2) pairs per level
_PAIR_TILE = 64  # energy pair sum: rows a tile; its 64 x Z buffer is at most 8 MB


@dataclass(frozen=True)
class ProbVector:
    """Probability vector p = (p_1..p_N) with open-interval entries.

    Each entry must lie strictly inside (0,1) and the entries must sum to 1
    within 1e-12.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(x) for x in self.values)
        object.__setattr__(self, "values", values)
        if len(values) < 2:
            raise ValueError("a probability vector needs at least 2 entries")
        for x in values:
            if not 0.0 < x < 1.0:
                raise ValueError(f"probability {x} outside the open interval (0,1)")
        total = math.fsum(values)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within 1e-12")

    @property
    def N(self) -> int:
        return len(self.values)

    @classmethod
    def uniform(cls, N: int) -> "ProbVector":
        return cls((1.0 / N,) * N)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True)
class LabelSource:
    """Assignment of a label in {1..N} to every edge index.

    Two kinds:

    * ``random(seed, p)``: i.i.d. draws from p, one independent stream per
      edge index (derived from ``(seed, index)``), so labels are
      reproducible and independent of query order.
    * ``periodic(m, offset)``: binary sources over symbols {1, 2} that mark
      symbol 2 exactly at edge indices congruent to ``offset`` mod m and
      symbol 1 elsewhere. The default offset m-1 marks every m-th edge in
      breadth-first order, counting from the first edge as number one.
    """

    kind: str
    p: ProbVector | None = None
    seed: int | None = None
    m: int | None = None
    offset: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "random":
            if self.p is None or self.seed is None:
                raise ValueError("random label source needs a seed and a ProbVector")
            if self.seed < 0:
                raise ValueError(f"seed must be nonnegative, got {self.seed}")
        elif self.kind == "periodic":
            if self.m is None or self.m < 2:
                raise ValueError(f"period must be at least 2, got {self.m}")
            offset = self.m - 1 if self.offset is None else self.offset
            if not 0 <= offset < self.m:
                raise ValueError(f"offset {offset} outside 0..{self.m - 1}")
            object.__setattr__(self, "offset", offset)
        else:
            raise ValueError(f"unknown label source kind {self.kind!r}")

    @classmethod
    def random(cls, seed: int, p: ProbVector) -> "LabelSource":
        return cls("random", p=p, seed=seed)

    @classmethod
    def periodic(cls, m: int, offset: int | None = None) -> "LabelSource":
        return cls("periodic", m=m, offset=offset)

    @property
    def N(self) -> int:
        return self.p.N if self.kind == "random" else 2

    def label(self, k: EdgeIndex) -> int:
        if k < 0:
            raise ValueError(f"edge index must be nonnegative, got {k}")
        if self.kind == "periodic":
            return 2 if k % self.m == self.offset else 1
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=(int(k),)))
        )
        u = rng.random()
        acc = 0.0
        for i, x in enumerate(self.p.values, start=1):
            acc += x
            if u < acc:
                return i
        return self.p.N


@dataclass(frozen=True)
class OccupancyMap:
    """Level-n occupancy: label word -> number of paths carrying it.

    Counts are positive and sum to M^level exactly; the number of entries is
    the occupancy count Z_n.
    """

    level: int
    M: int
    entries: dict[tuple[int, ...], int]

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")
        if self.M < 2:
            raise ValueError(f"arity must be at least 2, got {self.M}")
        total = 0
        for word, count in self.entries.items():
            if len(word) != self.level:
                raise ValueError(f"word {word} has length {len(word)}, not {self.level}")
            if count <= 0:
                raise ValueError(f"count for {word} must be positive, got {count}")
            total += count
        if total != self.M**self.level:
            raise ValueError(
                f"counts sum to {total}, expected M^level = {self.M**self.level}"
            )

    @classmethod
    def root(cls, M: int) -> "OccupancyMap":
        return cls(0, M, {(): 1})


@dataclass(frozen=True)
class RandomMeasure:
    """Normalized occupancy: word -> exact rational weight count / M^level."""

    level: int
    weights: dict[tuple[int, ...], Fraction]

    def __post_init__(self) -> None:
        if sum(self.weights.values(), Fraction(0)) != 1:
            raise ValueError("measure weights must sum to 1 exactly")


def _as_generator(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise ValueError("rng must be a numpy Generator or an integer seed")


def _tail_probs(p: np.ndarray) -> np.ndarray:
    # suffix sums p_l + ... + p_N, computed right to left for stability
    return np.cumsum(p[::-1])[::-1]


def _multinomial_split(rng: np.random.Generator, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Exact multinomial(n_i, p) draw for every entry of ``n``.

    Sequential conditional binomials: column l is Binomial(remaining, p_l /
    tail_l) and the last column takes what is left, so mass is conserved
    exactly. The generator's binomial sampler is exact (inversion for small
    mean, transformed rejection above), so no normal approximation enters at
    any count size.
    """
    n = np.asarray(n, dtype=np.int64)
    N = p.shape[0]
    tails = _tail_probs(p)
    out = np.empty((n.shape[0], N), dtype=np.int64)
    rem = n.copy()
    for l in range(N - 1):
        ratio = min(1.0, p[l] / tails[l])
        draw = rng.binomial(rem, ratio)
        out[:, l] = draw
        rem -= draw
    out[:, N - 1] = rem
    return out


def _step(
    rng: np.random.Generator, codes: np.ndarray, counts: np.ndarray, p: np.ndarray, M: int
) -> tuple[np.ndarray, np.ndarray]:
    """One level of the occupancy kernel: (codes, counts) -> occupied children.

    Entry i's M*counts[i] child paths split over the children codes[i]*N + l,
    l = 0..N-1, by one multinomial draw per entry, in entry order. Children
    come out in (entry, l) order with zero counts dropped, so ascending codes
    stay ascending.
    """
    N = p.shape[0]
    splits = _multinomial_split(rng, M * counts, p)
    occupied = splits > 0
    children = codes[:, None] * N + np.arange(N, dtype=np.int64)
    return children[occupied], splits[occupied]


def evolve(
    occ: OccupancyMap,
    p: ProbVector,
    M: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> OccupancyMap:
    """Advance an occupancy map one level under i.i.d. labels from ``p``.

    For each entry (w, c) the M*c child paths split among the N one-letter
    extensions of w by one multinomial(M*c, p) draw; the output drops zero
    counts. Raises OverflowError once M^(level+1) no longer fits the 64-bit
    path counters.
    """
    if M is None:
        M = occ.M
    elif M != occ.M:
        raise ValueError(f"arity {M} does not match the map's {occ.M}")
    if occ.M ** (occ.level + 1) > _INT64_MAX:
        raise OverflowError(
            "path counts overflow 64-bit at the next level; "
            "lower the depth or switch to trial sampling"
        )
    words = list(occ.entries)
    counts = np.fromiter(occ.entries.values(), dtype=np.int64, count=len(words))
    # entry indices as codes: child i*N + l is word i extended by letter l+1
    codes, child_counts = _step(
        _as_generator(rng), np.arange(len(words), dtype=np.int64), counts, p.as_array(), M
    )
    N = p.N
    entries = {
        words[c // N] + (c % N + 1,): n
        for c, n in zip(codes.tolist(), child_counts.tolist())
    }
    return OccupancyMap(occ.level + 1, occ.M, entries)


def z_n(occ: OccupancyMap) -> int:
    """Number of distinct occupied label words at the map's level."""
    return len(occ.entries)


def measure(occ: OccupancyMap) -> RandomMeasure:
    """Normalize an occupancy map to exact rational weights count / M^level."""
    denominator = occ.M**occ.level
    weights = {w: Fraction(c, denominator) for w, c in occ.entries.items()}
    return RandomMeasure(occ.level, weights)


def occupancy_from_source(source: LabelSource, M: int, depth: int) -> list[OccupancyMap]:
    """Occupancy maps for levels 0..depth by walking every path explicitly.

    Labels each edge through ``source.label``; exponential in the depth
    (M^depth paths), so it is a cross-check for the aggregated evolution and
    for deterministic word sets, not a production path.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if M**depth > _EXPLICIT_CAP:
        raise _budget_error(f"M^depth = {M**depth} paths to walk", _EXPLICIT_CAP, "_EXPLICIT_CAP")
    maps = [OccupancyMap.root(M)]
    frontier: list[tuple[tuple[int, ...], EdgeIndex | None]] = [((), None)]
    for level in range(1, depth + 1):
        nxt: list[tuple[tuple[int, ...], EdgeIndex]] = []
        counts: dict[tuple[int, ...], int] = {}
        for word, k in frontier:
            edges = range(M) if k is None else child_indices(k, M)
            for k2 in edges:
                w2 = word + (source.label(k2),)
                nxt.append((w2, k2))
                counts[w2] = counts.get(w2, 0) + 1
        maps.append(OccupancyMap(level, M, counts))
        frontier = nxt
    return maps


@dataclass(frozen=True)
class TrialStats:
    """Per-level occupancy statistics over independent trials.

    ``z_mean``/``z_var`` are the sample mean and variance (ddof=1, zero for a
    single trial), ``z_min``/``z_max`` the per-level extremes, and ``z_union``
    the pooled occupancy: how many words were occupied in at least one trial.
    All are indexed by level 0..depth and were reduced with commutative,
    exact integer accumulators, so they are independent of trial order.
    """

    depth: int
    trials: int
    master_seed: int
    z_mean: tuple[float, ...]
    z_var: tuple[float, ...]
    z_min: tuple[int, ...]
    z_max: tuple[int, ...]
    z_union: tuple[int, ...]


def _trial_rng(master_seed: int, block: int) -> np.random.Generator:
    # counter-style stream derivation: one child stream per (master_seed, block)
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=master_seed, spawn_key=(block,)))
    )


def _block_z(
    p: np.ndarray,
    M: int,
    depth: int,
    master_seed: int,
    block: int,
    size: int,
    union: list[np.ndarray] | None,
) -> np.ndarray:
    """Per-trial Z at levels 0..depth for ``size`` trials of one block.

    Trial j of the block starts as code j, so a code at level k is
    j*N^k + word and entries stay ordered by (trial, word). Returns an int64
    array of shape (depth + 1, size); marks each level's words in ``union``.
    """
    N = p.shape[0]
    rng = _trial_rng(master_seed, block)
    codes = np.arange(size, dtype=np.int64)
    counts = np.ones(size, dtype=np.int64)
    zs = np.ones((depth + 1, size), dtype=np.int64)
    for k in range(1, depth + 1):
        codes, counts = _step(rng, codes, counts, p, M)
        # trial j's codes fill [starts[j], starts[j + 1]) of the sorted codes
        starts = np.arange(size + 1, dtype=np.int64) * N**k
        zs[k] = np.diff(np.searchsorted(codes, starts))
        if union is not None:
            union[k - 1][codes - np.repeat(starts[:-1], zs[k])] = True
    return zs


def _block_trials(N: int, M: int, depth: int) -> int:
    """Trials a block: B = max(1, _BLOCK_ENTRIES // min(N, M)^depth)."""
    return max(1, _BLOCK_ENTRIES // min(N, M) ** depth)


def _trial_blocks(
    p: ProbVector,
    M: int,
    depth: int,
    trials: int,
    master_seed: int,
    threads: int,
    union: list[np.ndarray] | None,
) -> Iterable[np.ndarray]:
    """Per-trial Z arrays of every block, in block order.

    Blocks are independent, so a pool of ``threads`` workers maps over them
    without changing any result. Workers share ``union``: they only store
    True into it, so the bitmap does not depend on their interleaving.
    """
    B = _block_trials(p.N, M, depth)
    parr = p.as_array()

    def run(b: int) -> np.ndarray:
        return _block_z(parr, M, depth, master_seed, b, min(B, trials - b * B), union)

    blocks = range(-(-trials // B))
    if threads == 1:
        return map(run, blocks)
    with ThreadPoolExecutor(max_workers=min(threads, len(blocks))) as pool:
        return list(pool.map(run, blocks))


def _budget_error(request: str, cap: int, name: str) -> BudgetError:
    return BudgetError(f"{request}, over the cap of {cap} set by {name}")


def _check_budgets(N: int, M: int, depth: int, trials: int) -> None:
    """Bounds shared by ``run_trials`` and ``z_distribution``.

    A block of ``min(B, trials)`` trials codes its level-depth words as
    j*N^depth + word, so that product must fit int64; one trial holds at most
    min(N, M)^depth words a level.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if M**depth > _INT64_MAX:
        raise _budget_error(f"M^depth = {M**depth} paths a trial", _INT64_MAX, "_INT64_MAX")
    state = min(N, M) ** depth
    if state > _TRIAL_STATE_CAP:
        raise _budget_error(
            f"min(N, M)^depth = {state} words a trial", _TRIAL_STATE_CAP, "_TRIAL_STATE_CAP"
        )
    codes = min(_block_trials(N, M, depth), trials) * N**depth
    if codes > _INT64_MAX:
        raise _budget_error(f"B * N^depth = {codes} word codes a block", _INT64_MAX, "_INT64_MAX")
    if trials * N**depth > _WORK_CAP:
        raise _budget_error(f"trials * N^depth = {trials * N**depth}", _WORK_CAP, "_WORK_CAP")


def run_trials(
    spec: IfsSpec,
    p: ProbVector,
    M: int,
    depth: int,
    trials: int,
    master_seed: int,
    *,
    threads: int = 1,
) -> TrialStats:
    """Simulate ``trials`` independent labelings and aggregate Z statistics.

    Trials advance in blocks of B = max(1, _BLOCK_ENTRIES // min(N, M)^depth)
    trials; block b covers trials [b*B, (b+1)*B) and draws from
    Generator(PCG64(SeedSequence(master_seed, spawn_key=(b,)))), a
    counter-style derivation. When B == 1 that is one stream per trial.
    Blocks are independent streams, so a pool of ``threads`` workers maps
    over them and reproduces a serial run bit for bit. ``z_distribution``
    at the same seed histograms these same trials. The interval geometry of
    ``spec`` does not enter the counts; it is accepted to pin N and to keep
    one config object per experiment.
    """
    N = p.N
    if spec.N != N:
        raise ValueError(f"spec has N={spec.N} but p has {N} entries")
    if M < 2:
        raise ValueError(f"arity must be at least 2, got {M}")
    if master_seed < 0:
        raise ValueError(f"master seed must be nonnegative, got {master_seed}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _check_budgets(N, M, depth, trials)
    if N**depth > _DENSE_STATE_CAP:
        raise _budget_error(
            f"N^depth = {N**depth} words a pooled-union bitmap",
            _DENSE_STATE_CAP,
            "_DENSE_STATE_CAP",
        )

    # per block in int64 (a block's sum of Z^2 stays below 2^48), across
    # blocks in Python ints, so the totals are exact
    sums = [0] * (depth + 1)
    sums2 = [0] * (depth + 1)
    mins = [math.inf] * (depth + 1)
    maxs = [0] * (depth + 1)
    union = [np.zeros(N ** (k + 1), dtype=bool) for k in range(depth)]
    for zs in _trial_blocks(p, M, depth, trials, master_seed, threads, union):
        sums = [a + b for a, b in zip(sums, zs.sum(axis=1).tolist())]
        sums2 = [a + b for a, b in zip(sums2, (zs * zs).sum(axis=1).tolist())]
        mins = [min(a, b) for a, b in zip(mins, zs.min(axis=1).tolist())]
        maxs = [max(a, b) for a, b in zip(maxs, zs.max(axis=1).tolist())]

    T = trials
    z_mean = tuple(s / T for s in sums)
    if T > 1:
        z_var = tuple((T * s2 - s * s) / (T * (T - 1)) for s, s2 in zip(sums, sums2))
    else:
        z_var = (0.0,) * (depth + 1)
    z_union = (1,) + tuple(int(np.count_nonzero(u)) for u in union)
    return TrialStats(
        depth=depth,
        trials=trials,
        master_seed=master_seed,
        z_mean=z_mean,
        z_var=z_var,
        z_min=tuple(mins),
        z_max=tuple(maxs),
        z_union=z_union,
    )


def z_distribution(
    p: ProbVector, M: int, depth: int, trials: int, master_seed: int
) -> list[dict[int, int]]:
    """Empirical distribution of the occupancy count at each level 0..depth.

    Returns one ``{z: number of trials}`` histogram per level, keys
    ascending. The trials are those of ``run_trials`` at the same
    ``master_seed``: the same blocks of B = max(1, _BLOCK_ENTRIES //
    min(N, M)^depth) trials on the same per-block streams, so these
    histograms reproduce its z_mean, z_min and z_max.
    """
    N = p.N
    if M < 2:
        raise ValueError(f"arity must be at least 2, got {M}")
    _check_budgets(N, M, depth, trials)
    hists: list[Counter] = [Counter() for _ in range(depth + 1)]
    for zs in _trial_blocks(p, M, depth, trials, master_seed, 1, None):
        for hist, row in zip(hists, zs.tolist()):
            hist.update(row)
    return [dict(sorted(hist.items())) for hist in hists]


def estimate_dim(z_series: Sequence[float], r: float, window: tuple[int, int]) -> float:
    """Box-count style slope: least squares of ln Z_n on n, over -ln r.

    ``window`` is an inclusive (lo, hi) level range into ``z_series`` (indexed
    by level) and needs at least two points with strictly positive Z.
    """
    if not 0 < r < 1:
        raise ValueError(f"ratio must be inside (0,1), got {r}")
    lo, hi = window
    if lo < 0 or hi >= len(z_series) or hi - lo < 1:
        raise ValueError(f"window {window} is degenerate for a series of length {len(z_series)}")
    levels = np.arange(lo, hi + 1, dtype=np.float64)
    values = np.asarray([z_series[n] for n in range(lo, hi + 1)], dtype=np.float64)
    if np.any(values < 1):
        raise ValueError("occupancy values inside the window must be at least 1")
    slope = np.polyfit(levels, np.log(values), 1)[0]
    return float(slope / -math.log(r))


def energy_estimate(occ: OccupancyMap, spec: IfsSpec, t: float) -> float:
    """Discrete t-energy of the normalized occupancy at its level.

    Sum over ordered pairs of distinct occupied words of
    weight(w) * weight(w') * |mid(I_w) - mid(I_w')|^(-t), where I_w is the
    basic interval of w under ``spec``. This truncates the pair interaction
    at the level's scale r^n (the diagonal is excluded entirely), so it is a
    finite, diagnostic-only reading of the energy, not a convergent value.

    The summand is symmetric in the pair, so only the upper triangle j > i
    is computed and doubled. Rows go in tiles of ``_PAIR_TILE``: each tile's
    distances to columns j >= i0 are formed in place in one preallocated
    tile x Z buffer (entries j <= i set to inf, whose power is 0) and reduced
    to w_i . (D w_j) by two vector products, so the temporaries take
    O(tile * Z) memory. Raises BudgetError when the Z^2 pairs exceed
    ``_PAIR_CAP``.
    """
    if t <= 0:
        raise ValueError(f"energy exponent must be positive, got {t}")
    pairs = len(occ.entries) ** 2
    if pairs > _PAIR_CAP:
        raise _budget_error(
            f"level {occ.level} energy needs Z^2 = {pairs} pairs", _PAIR_CAP, "_PAIR_CAP"
        )
    words = sorted(occ.entries.keys())
    Z = len(words)
    if Z < 2:
        return 0.0
    denominator = float(occ.M**occ.level)
    weights = np.asarray([occ.entries[w] / denominator for w in words])
    mids = np.asarray([interval(spec, w).midpoint for w in words])
    buf = np.empty((min(_PAIR_TILE, Z), Z))
    below = np.tri(buf.shape[0], dtype=bool)  # j <= i inside a tile's leading square
    total = 0.0
    for i0 in range(0, Z - 1, _PAIR_TILE):
        i1 = min(i0 + _PAIR_TILE, Z)
        n = i1 - i0
        d = buf[:n, : Z - i0]
        np.subtract(mids[i0:i1, None], mids[None, i0:], out=d)
        np.abs(d, out=d)
        d[:, :n][below[:n, :n]] = np.inf
        np.power(d, -t, out=d)
        # einsum, not a BLAS gemv: as fast here, without BLAS worker threads
        total += float(weights[i0:i1] @ np.einsum("ij,j->i", d, weights[i0:]))
    return 2.0 * total
