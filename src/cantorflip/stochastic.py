"""Branching occupancy simulation over labeled M-ary trees.

Every edge of the full M-ary tree carries a label in {1..N}; a root path of
depth n therefore carries a label word in {1..N}^n. The occupancy map of a
level records, for each label word, how many of the M^n root paths carry it;
``z_n`` counts the distinct occupied words.

With labels drawn i.i.d. from a probability vector p, the M*c children of
the c paths sharing a word w split among the N one-letter extensions as a
single multinomial(M*c, p) draw, independently across words. ``_step`` is
the one implementation of that level step: it works on int64 word codes and
path counts, the children of code c being c*N + l, so sorted parents give
sorted children and the state stays linear in the number of distinct words
rather than in the number of paths or of possible words. The step runs in
a ``_Workspace``: typed, grow-only arrays that hold the level's entries and
every temporary of its draws. Every kernel function takes its caller's
workspace, and ``_ordered_map`` hands each worker one for all the items it
runs, so once its largest level has run a worker allocates no state-sized
array.

``evolve`` advances an ``OccupancyMap``, a level's words as an int32 array
with their path counts, by one ``_step`` whose codes are the row indices.
``run_trials`` and ``z_distribution`` advance trials in blocks of B =
max(1, min(_BLOCK_ENTRIES // min(N, M)^depth, _INT64_MAX // N^depth)),
so a block holds at most _BLOCK_ENTRIES words a level and its word codes
fit int64. Block b holds trials [b*B, (b+1)*B), draws from
Generator(PCG64(SeedSequence(master_seed, spawn_key=(b,)))) alone and
orders its entries by (trial, code); each of its levels is one ``_step``
on that one stream. The block is the unit of randomness and of work:
results depend on the block size and on nothing else (not on the thread
count). When B == 1, block b is trial b, so deep shapes keep one stream
per trial. At one seed both functions see the same trials:
``z_distribution`` is the histogram of the per-trial counts that
``run_trials`` aggregates.

Within a level a stream is consumed column by column of the multinomial
split. A column first draws its table entries in entry order, one uniform
each: those with n >= 1 inside numpy's binomial inversion regime (n*q <= 30,
q = min(ratio, 1 - ratio)) and at most ``_TABLE_ROWS``. Then the column's
other entries with n >= 1 go to ``Generator.binomial``, in entry order.
Entries with n = 0 draw nothing. Where a column has no such fallback entry,
it reads the uniforms ``Generator.binomial`` would read on the whole
column, and its draws equal numpy's except for a uniform within a few
hundred ulps of a CDF step, where numpy's own rounding of the same pmf may
fall on the other side (at most 6e-13 a draw). (A uniform past the last CDF
step of its row, below 1e-12 a draw, is redrawn after the column's other
table draws, where numpy redraws it at once.)
"""

from __future__ import annotations

import functools
import math
import threading
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import _budget_error, _check_arity, _checked_power
from .ifs import IfsSpec, interval

_DENSE_STATE_CAP = 1 << 24  # the pooled-union bitmap: at most 2^24 words
_TRIAL_STATE_CAP = 1 << 24  # one trial's sparse state: at most 2^24 words a level
_WORK_CAP = 1 << 34  # trials * min(N, M)^depth words
_INT64_MAX = (1 << 63) - 1  # path counts and word codes are int64
# a block of B > 1 trials holds at most 2^18 words at any level (B * min(N, M)^depth)
_BLOCK_ENTRIES = 1 << 18
_PAIR_CAP = 1 << 28  # energy pair sum: at most 2^28 (Z^2) pairs per level
_PAIR_TILE = 64  # energy pair sum: rows a tile; its 64 x Z buffer is at most 8 MB
_INVERSION_MEAN = 30.0  # numpy inverts Binomial(n, q) when n*q <= 30, q = min(ratio, 1 - ratio)
# last row of a binomial table: the whole inversion regime for q >= 1/10, and a
# table (at most 301 rows of 128 CDF and guide entries) stays under 1 MB
_TABLE_ROWS = 300
# (entry, letter) cells a compaction piece: its index arrays stay at 64 KB
_PIECE = 1 << 13


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


@dataclass(frozen=True, eq=False)
class OccupancyMap:
    """Level-n occupancy: the occupied label words and how many paths carry each.

    ``words`` is an int32 Z x level array of letters, its rows distinct and in
    ascending lexicographic order; ``counts`` holds the Z positive int64 path
    counts, row by row, which sum to M^level exactly. Z is the count Z_n.
    """

    M: int
    words: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        words, counts = self.words, self.counts
        _check_arity(self.M)
        if words.ndim != 2 or counts.shape != words.shape[:1]:
            raise ValueError(f"need Z x level words, Z counts; got {words.shape}, {counts.shape}")
        if counts.size and counts.min() <= 0:
            raise ValueError(f"counts must be positive, got {counts.min()}")
        total = counts.sum(dtype=object)  # in Python ints, as an int64 sum could wrap
        if total != self.M**self.level:
            raise ValueError(f"counts sum to {total}, expected M^level = {self.M**self.level}")
        if self.level:  # each row must rise above the one before at their first differing letter
            step = np.diff(words, axis=0)
            rise = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
            if np.any(rise <= 0):
                raise ValueError(f"word row {np.argmax(rise <= 0) + 1} is not above the row before it")

    @property
    def level(self) -> int:
        return self.words.shape[1]

    @classmethod
    def root(cls, M: int) -> "OccupancyMap":
        return cls(M, np.empty((1, 0), dtype=np.int32), np.ones(1, dtype=np.int64))


def _tail_probs(p: np.ndarray) -> np.ndarray:
    # suffix sums p_l + ... + p_N, computed right to left for stability
    return np.cumsum(p[::-1])[::-1]


@dataclass(frozen=True)
class _InversionTable:
    """Binomial(n, q) CDFs for n = 0..last, with a guide table, for one ratio.

    Row n of ``cdf`` holds the running sums of numpy's inversion pmf for
    Binomial(n, q), q = min(ratio, 1 - ratio), at k = 0..bound_n, then 2.0 (above
    every uniform) to the row width W = 2^shift. ``guide[n*W + j]`` is the flat
    ``cdf`` index of the least k with cdf[n, k] >= j/W, where the CDF search
    for a uniform in [j/W, (j+1)/W) starts.
    """

    flip: bool  # ratio > 1/2: draws are made on the q side and flipped, n - X
    last: int  # rows 1..last are numpy's inversion regime, n*q <= 30, within _TABLE_ROWS
    shift: int
    cdf: np.ndarray
    guide: np.ndarray


@functools.lru_cache(maxsize=128)
def _inversion_table(ratio: float) -> _InversionTable:
    """The table for ``ratio``, built on its first use with numpy's recurrence.

    numpy inverts Binomial(n, q) with one uniform U: X is the least k with
    U <= pmf(0) + ... + pmf(k), the pmf starting at (1 - q)^n = exp(n log(1 - q))
    and following pmf(k) = (n - k + 1) q pmf(k - 1) / (k (1 - q)); a U past
    k = bound_n = min(n, nq + 10 sqrt(nq(1 - q) + 1)) is redrawn. The rows
    repeat that recurrence from ``math.exp``'s first term and store the
    cumulative sums. numpy's first term may differ from ``math.exp``'s by a
    few ulps, and it subtracts each term from U instead of summing them, so
    its thresholds sit up to a few hundred ulps from these CDF steps.
    """
    flip = ratio > 0.5
    q = 1.0 - ratio if flip else ratio
    qc = 1.0 - q
    n = np.arange(_TABLE_ROWS + 1, dtype=np.int64)
    n = n[n * q <= _INVERSION_MEAN]
    mean = n * q
    bound = np.minimum(n, mean + 10.0 * np.sqrt(mean * qc + 1.0)).astype(np.int64)
    shift = (int(bound.max()) + 1).bit_length()  # W > bound + 1: every row ends in 2.0
    W = 1 << shift
    pmf = np.zeros((n.size, W))
    log_qc = math.log(qc)  # libm, as numpy's C code calls it
    pmf[:, 0] = [math.exp(k * log_qc) for k in n.tolist()]
    for k in range(1, int(bound.max()) + 1):
        pmf[:, k] = ((n - k + 1) * q * pmf[:, k - 1]) / (k * qc)
    cdf = np.cumsum(pmf, axis=1)
    cdf[np.arange(W) > bound[:, None]] = 2.0
    thresholds = np.arange(W) / W
    guide = np.concatenate(
        [np.searchsorted(row, thresholds) + i * W for i, row in enumerate(cdf)]
    )
    cdf = cdf.ravel()
    cdf.flags.writeable = guide.flags.writeable = False  # one cached table serves every caller
    return _InversionTable(flip, int(n[-1]), shift, cdf, guide)


class _Workspace(dict):
    """Typed, grow-only arrays, by role, that one worker reuses for every item it runs.

    ``array(name, size, dtype)`` returns the first ``size`` items of array
    ``name``, reallocated only when it is too small, so once a worker has run
    its largest level no later level allocates a state-sized array. A role's
    array keeps the dtype it was made with and is viewed as ``dtype``, which
    must have the same item size. Roles whose lifetimes do not overlap share
    an array: "codes" and "counts" hold a level's entries, which its outputs
    overwrite, and "counts" holds a column's uniforms while the level's draws
    run; "splits" holds the multinomial columns; "rows" is a column's draw
    scratch, and after the draws it trades arrays with "codes", so it holds
    the level's input codes while they are compacted; "inverted"
    and "walk" are a column's flags, and "piece", "kids" and "nonzero" one
    piece of the compaction. The energy pair sum keeps its pass rows in "tile".
    """

    def array(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        if name not in self or self[name].size < size:
            self.pop(name, None)  # drop the old array before allocating the new one
            self[name] = np.empty(size, dtype)
        head = self[name][:size]
        # most calls ask for the role's own dtype, and a .view costs about 0.5 us
        return head if head.dtype == dtype else head.view(dtype)


def _invert(
    table: _InversionTable, n: np.ndarray, u: np.ndarray, x: np.ndarray, ws: _Workspace
) -> np.ndarray:
    """x = least k with u <= cdf[min(n, last), k] for each entry, on the q side.

    Writes X into the int64 array ``x`` and returns the indices of the entries
    whose u lies past cdf[n, bound_n], which numpy redraws. An entry with
    u = 0 gets X = 0 from any row.
    """
    rows = ws.array("rows", n.size)  # scaled uniforms, then row offsets, then CDF values
    scaled = rows.view(np.float64)
    np.multiply(u, 1 << table.shift, out=scaled)  # exact: a power of two
    np.copyto(x, scaled, casting="unsafe")  # truncation: the bucket of u
    np.minimum(n, table.last, out=rows)
    np.left_shift(rows, table.shift, out=rows)
    x += rows
    np.take(table.guide, x, out=x, mode="clip")
    walk = ws.array("walk", n.size, bool)
    np.take(table.cdf, x, out=scaled, mode="clip")
    np.add(x, 1, out=x, where=np.greater(u, scaled, out=walk))
    np.take(table.cdf, x, out=scaled, mode="clip")
    i = np.flatnonzero(np.greater(u, scaled, out=walk))  # the few entries past a second step
    while i.size:
        x[i] += 1
        i = i[u[i] > table.cdf[x[i]]]
    # the guide never starts an entry on a 2.0, so only entries that walked end there
    np.take(table.cdf, x, out=scaled, mode="clip")
    again = np.flatnonzero(np.equal(scaled, 2.0, out=walk))
    np.minimum(n, table.last, out=rows)
    np.left_shift(rows, table.shift, out=rows)
    x -= rows
    return again


def _binomial(
    rng: np.random.Generator, n: np.ndarray, ratio: float, out: np.ndarray, ws: _Workspace
) -> np.ndarray:
    """Binomial(n_i, ratio) for every entry of the int64 array ``n``, into ``out``.

    Entries in numpy's inversion regime (n*q <= 30 with q = min(ratio,
    1 - ratio), n >= 1), up to the table's last row, invert one uniform each
    against ``_inversion_table(ratio)``, in entry order. Then the remaining
    entries with n >= 1 go to ``Generator.binomial``, in entry order. Entries
    with n = 0 draw nothing and give 0. ``out`` is a contiguous int64 array
    of n's length. The uniforms go to the "counts" array of ``ws``, so ``n``
    and ``out`` must lie elsewhere; redraws reuse its "rows" and "walk".
    """
    table = _inversion_table(float(ratio))
    u = ws.array("counts", n.size, np.float64)
    inverted = ws.array("inverted", n.size, bool)
    if n.size and n.min() >= 1 and n.max() <= table.last:
        rng.random(out=u)
    else:  # the table entries take the column's first k uniforms; the rest read u = 0
        np.greater_equal(n, 1, out=inverted)
        inverted &= np.less_equal(n, table.last, out=ws.array("walk", n.size, bool))
        drawn = ws.array("rows", n.size, np.float64)[: np.count_nonzero(inverted)]
        rng.random(out=drawn)
        u.fill(0.0)
        u[inverted] = drawn
    again = _invert(table, n, u, out, ws)
    while again.size:  # numpy redraws at once; here the redraws follow the column's draws
        redrawn = np.empty(again.size, dtype=np.int64)
        back = _invert(table, n[again], rng.random(again.size), redrawn, ws)
        out[again] = redrawn
        again = again[back]
    if table.flip:
        np.subtract(n, out, out=out)
    rest = np.greater(n, table.last, out=inverted)
    if rest.any():
        i = np.flatnonzero(rest)
        out[i] = rng.binomial(n[i], ratio)
    return out


def _multinomial_split(
    rng: np.random.Generator, n: np.ndarray, p: np.ndarray, ws: _Workspace
) -> np.ndarray:
    """Exact multinomial(n_i, p) draw for every entry of ``n``, as a len(n) x N array.

    Sequential conditional binomials: column l is Binomial(remaining, p_l /
    tail_l) and the last column takes what is left, so mass is conserved
    exactly. Each column is one ``_binomial`` call: entries inside numpy's
    inversion regime invert a uniform against a cached CDF table, and the
    rest go to ``Generator.binomial`` (exact inversion or transformed
    rejection), so no normal approximation enters at any count size. Where
    no entry of a column goes to ``Generator.binomial``, the column reads
    the uniforms ``rng.binomial(rem, ratio)`` would read, and equals its draw
    except for a uniform within a few hundred ulps of a CDF step.
    The result is a transposed view of one N x len(n) array, so each column
    is drawn in place. ``n`` is read once, before any draw, so it may be the
    "counts" array of ``ws``, which the draws then reuse.
    """
    n = np.asarray(n, dtype=np.int64)
    N = p.shape[0]
    tails = _tail_probs(p)
    out = ws.array("splits", N * n.size).reshape(N, n.size)
    rem = out[N - 1]  # the last column is what the others leave
    rem[...] = n
    for l in range(N - 1):
        ratio = min(1.0, p[l] / tails[l])
        rem -= _binomial(rng, rem, ratio, out[l], ws)
    return out.T


def _step(rng: np.random.Generator, size: int, p: np.ndarray, M: int, ws: _Workspace) -> int:
    """One level of the occupancy kernel, in place on the entries held in ``ws``.

    The level is the first ``size`` items of the "codes" (ascending int64
    word codes) and "counts" (path counts) buffers. Entry i's M*counts[i]
    child paths split over the children codes[i]*N + l, l = 0..N-1, by one
    multinomial draw per entry, in entry order. The children with nonzero
    counts replace the entries in (entry, l) order, so ascending codes stay
    ascending; returns their number. The compaction runs in pieces of
    _PIECE (entry, letter) cells, so its temporaries stay small, and finds a
    piece's nonzero cells through a bool mask, which ``flatnonzero`` scans
    faster than the int64 counts.
    """
    N = p.shape[0]
    counts = ws.array("counts", size)
    splits = _multinomial_split(rng, np.multiply(counts, M, out=counts), p, ws)
    del counts  # the draws reused its buffer; nothing holds it if "counts" grows
    # the inputs' array and the draws' scratch trade roles: "codes" can grow, and no copy
    codes, ws["codes"], ws["rows"] = ws.array("codes", size), ws["rows"], ws["codes"]
    end = int(np.count_nonzero(splits.T))
    new_codes, new_counts = ws.array("codes", end), ws.array("counts", end)
    rows = min(size, _PIECE // N)
    pieces, children = ws.array("piece", rows * N), ws.array("kids", rows * N)
    nonzero = ws.array("nonzero", rows * N, bool)
    start = 0
    for e0 in range(0, size, rows):
        e1 = min(e0 + rows, size)
        piece = pieces[: (e1 - e0) * N].reshape(e1 - e0, N)
        kids = children[: (e1 - e0) * N].reshape(e1 - e0, N)
        for l in range(N):  # column by column: a broadcast over N = 2 letters is slower
            piece[:, l] = splits[e0:e1, l]
            np.multiply(codes[e0:e1], N, out=kids[:, l])
            if l:
                kids[:, l] += l
        cells = piece.size
        occupied = np.flatnonzero(np.not_equal(pieces[:cells], 0, out=nonzero[:cells]))
        stop = start + occupied.size
        np.take(kids, occupied, out=new_codes[start:stop], mode="clip")
        np.take(piece, occupied, out=new_counts[start:stop], mode="clip")
        del occupied  # so two pieces' indices are never held at once
        start = stop
    return end


def evolve(occ: OccupancyMap, p: ProbVector, rng: np.random.Generator) -> OccupancyMap:
    """Advance an occupancy map one level under i.i.d. labels from ``p``.

    For each row w with count c the M*c child paths split among the N
    one-letter extensions of w by one multinomial(M*c, p) draw; the output
    drops zero counts and keeps (row, letter) order, so its rows ascend.
    Raises OverflowError once M^(level+1) no longer fits the 64-bit counts.
    """
    if occ.M ** (occ.level + 1) > _INT64_MAX:
        raise OverflowError(
            "path counts overflow 64-bit at the next level; "
            "lower the depth or switch to trial sampling"
        )
    Z, N = occ.counts.size, p.N
    ws = _Workspace()
    # row indices as codes: child i*N + l is row i extended by letter l+1
    ws.array("codes", Z)[...] = np.arange(Z)
    ws.array("counts", Z)[...] = occ.counts
    size = _step(rng, Z, p.as_array(), occ.M, ws)
    codes = ws.array("codes", size)
    words = np.empty((size, occ.level + 1), dtype=np.int32)
    words[:, :-1] = occ.words[codes // N]
    words[:, -1] = codes % N + 1
    return OccupancyMap(occ.M, words, ws.array("counts", size).copy())


def z_n(occ: OccupancyMap) -> int:
    """Number of distinct occupied label words at the map's level."""
    return occ.counts.size


@dataclass(frozen=True)
class TrialStats:
    """Per-level occupancy statistics over independent trials.

    ``z_mean``/``z_var`` are the sample mean and variance (ddof=1, zero for a
    single trial), ``z_min``/``z_max`` the per-level extremes, and ``z_union``
    the pooled occupancy: how many words were occupied in at least one trial.
    All are indexed by level 0..depth and were reduced with commutative,
    exact integer accumulators, so they are independent of trial order.
    ``z_union`` at level k counts the length-k prefixes of the pooled
    level-depth words: every occupied word has M*c > 0 child paths, so some
    child is occupied, and the occupied words of a level are exactly the
    prefixes of the next level's.
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
    ws: _Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial Z at levels 0..depth, and the level-depth words, of one block.

    The block's ``size`` trials draw from ``_trial_rng(master_seed, block)``
    alone, and each of its levels is one ``_step`` on that stream. Trial j
    of the block starts as code j, so a code at level k is j*N^k + word and
    entries stay ordered by (trial, word). Returns an int64 array of shape
    (depth + 1, size) and the int64 words (codes mod N^depth) that the
    block's trials occupy at level depth, each trial's ascending. Every
    level runs in ``ws``, the worker's workspace, which it passes to its
    next block: the words are a view of its "codes" array, valid until
    ``ws`` is used again.
    """
    N = p.shape[0]
    rng = _trial_rng(master_seed, block)
    ws.array("codes", size)[...] = np.arange(size)
    ws.array("counts", size).fill(1)
    zs = np.ones((depth + 1, size), dtype=np.int64)
    j = np.arange(size + 1, dtype=np.int64)
    entries = size
    for k in range(1, depth + 1):
        entries = _step(rng, entries, p, M, ws)
        # trial j's codes fill [starts[j], starts[j + 1]) of the sorted codes; no view
        # of "codes" is held across a step, which may grow it
        zs[k] = np.diff(np.searchsorted(ws.array("codes", entries), j * N**k))
    words = ws.array("codes", entries)
    return zs, np.remainder(words, N**depth, out=words)


def _block_trials(N: int, M: int, depth: int) -> int:
    """Trials a block: B = max(1, min(_BLOCK_ENTRIES // min(N, M)^depth, _INT64_MAX // N^depth)).

    B > 1 trials hold at most _BLOCK_ENTRIES words a level, and their word
    codes j*N^depth + word fit int64.
    """
    return max(1, min(_BLOCK_ENTRIES // min(N, M) ** depth, _INT64_MAX // N**depth))


def _ordered_map(fn: Callable, items: Sequence, workers: int) -> Iterator:
    """``fn(item, ws)`` of each item, yielded in item order.

    ``ws`` is the running worker's own ``_Workspace``, made on its first item
    and reused for all the others, and dropped when the map ends; workers
    share no workspace. Serial for 1 worker or 1 item, with one workspace;
    otherwise a pool of min(workers, items) threads with at most two items a
    thread submitted and not yet yielded, so results waiting to be read, and
    their futures, stay bounded.
    """
    if workers == 1 or len(items) <= 1:
        ws = _Workspace()
        for item in items:
            yield fn(item, ws)
        return
    local = threading.local()

    def run(item):
        if not hasattr(local, "ws"):
            local.ws = _Workspace()
        return fn(item, local.ws)

    workers = min(workers, len(items))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead: deque = deque()
        for item in items:
            ahead.append(pool.submit(run, item))
            if len(ahead) == 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _trial_blocks(
    p: ProbVector,
    M: int,
    depth: int,
    trials: int,
    master_seed: int,
    threads: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``_block_z`` of every block, yielded in block order as it is consumed.

    Blocks of ``_block_trials`` trials, one stream each, are independent and
    workers share no mutable state: each runs its blocks in the workspace
    ``_ordered_map`` hands it, so a pool of ``threads`` workers maps over the
    blocks without changing any result. Serial, a block's words are a view
    of the workspace, read before the next block is drawn; pooled, a worker
    copies them, since it runs its next block before this one is read.
    """
    B = _block_trials(p.N, M, depth)
    parr = p.as_array()

    def run(b: int, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
        zs, words = _block_z(parr, M, depth, master_seed, b, min(B, trials - b * B), ws)
        return zs, words.copy() if threads > 1 else words

    yield from _ordered_map(run, range(-(-trials // B)), threads)


def _check_budgets(N: int, M: int, depth: int, trials: int, master_seed: int) -> None:
    """Argument checks and bounds shared by ``run_trials`` and ``z_distribution``."""
    _check_arity(M)
    if master_seed < 0:
        raise ValueError(f"master seed must be nonnegative, got {master_seed}")
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _checked_power("M^depth = {} paths a trial", M, depth, _INT64_MAX, "_INT64_MAX")
    state = _checked_power(
        "min(N, M)^depth = {} words a trial", min(N, M), depth, _TRIAL_STATE_CAP, "_TRIAL_STATE_CAP"
    )
    _checked_power("N^depth = {} word codes a trial", N, depth, _INT64_MAX, "_INT64_MAX")
    if trials * state > _WORK_CAP:
        raise _budget_error(f"trials * min(N, M)^depth = {trials * state}", _WORK_CAP, "_WORK_CAP")


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

    Trials advance in blocks of B = max(1, min(_BLOCK_ENTRIES //
    min(N, M)^depth, _INT64_MAX // N^depth)) trials; block b covers trials
    [b*B, (b+1)*B) and draws from Generator(PCG64(SeedSequence(master_seed,
    spawn_key=(b,)))) alone, a counter-style derivation, and each of its
    levels is one ``_step`` over all its trials on that stream. When
    B == 1 that is one stream per trial. Blocks are independent, so a pool
    of ``threads`` workers maps over them and reproduces a serial run bit
    for bit. ``z_distribution`` at the same seed histograms these same
    trials. The interval geometry of ``spec`` does not enter the counts; it
    is accepted to pin N and to keep one config object per experiment.
    """
    N = p.N
    if spec.N != N:
        raise ValueError(f"spec has N={spec.N} but p has {N} entries")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _check_budgets(N, M, depth, trials, master_seed)
    words = _checked_power(
        "N^depth = {} words a pooled-union bitmap", N, depth, _DENSE_STATE_CAP, "_DENSE_STATE_CAP"
    )

    # per block in int64 (a block's sum of Z^2 stays below 2^48), across
    # blocks in Python ints, so the totals are exact
    sums = [0] * (depth + 1)
    sums2 = [0] * (depth + 1)
    mins = [math.inf] * (depth + 1)
    maxs = [0] * (depth + 1)
    union = np.zeros(words, dtype=bool)
    for zs, deepest in _trial_blocks(p, M, depth, trials, master_seed, threads):
        union[deepest] = True
        del deepest  # a view of a worker's "codes": held, it would outlive that buffer's growth
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
    # level k's words are the prefixes of level k+1's, word w's children being w*N + l
    z_union = [int(np.count_nonzero(union))]
    for _ in range(depth):
        union = union.reshape(-1, N).any(axis=1)
        z_union.append(int(np.count_nonzero(union)))
    return TrialStats(
        depth=depth,
        trials=trials,
        master_seed=master_seed,
        z_mean=z_mean,
        z_var=z_var,
        z_min=tuple(mins),
        z_max=tuple(maxs),
        z_union=tuple(reversed(z_union)),
    )


def z_distribution(
    p: ProbVector, M: int, depth: int, trials: int, master_seed: int
) -> list[dict[int, int]]:
    """Empirical distribution of the occupancy count at each level 0..depth.

    Returns one ``{z: number of trials}`` histogram per level, keys
    ascending. The trials are those of ``run_trials`` at the same
    ``master_seed``: the same blocks of B = max(1, min(_BLOCK_ENTRIES //
    min(N, M)^depth, _INT64_MAX // N^depth)) trials, each on its own stream,
    so these histograms reproduce its z_mean, z_min and z_max.
    """
    _check_budgets(p.N, M, depth, trials, master_seed)
    hists: list[Counter] = [Counter() for _ in range(depth + 1)]
    for zs, _ in _trial_blocks(p, M, depth, trials, master_seed, 1):
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


def energy_estimate(occ: OccupancyMap, spec: IfsSpec, t: float, *, threads: int = 1) -> float:
    """Discrete t-energy of the normalized occupancy at its level.

    Sum over ordered pairs of distinct occupied words of
    weight(w) * weight(w') * |mid(I_w) - mid(I_w')|^(-t), where I_w is the
    basic interval of w under ``spec``. This truncates the pair interaction
    at the level's scale r^n (the diagonal is excluded entirely), so it is a
    finite, diagnostic-only reading of the energy, not a convergent value.

    The midpoints come from one ``interval`` call on the map's int32 word
    array, whose rows ascend. The summand is symmetric in the pair, so only
    the upper triangle j > i is computed and doubled. Rows go in tiles of
    ``_PAIR_TILE``, and a tile's partial sum is w_i . (D w_j) over its rows
    i and the columns j >= i0 of its first row. A pool of ``threads``
    workers maps over the tiles; the partials are added in tile order, so
    the result is the same double at every thread count. Each worker keeps
    ceil(_PAIR_TILE / workers) x Z doubles in the "tile" array of its
    workspace, so the workers together hold about _PAIR_TILE x Z whatever
    the thread count; it runs a tile in passes of that many rows. A pass
    forms the differences mid_j - mid_i in place (entries j <= i set to inf,
    whose power is 0), raises them to -t and writes its rows of D w_j into
    the tile's row-sum vector; a row's sum does not depend on how many rows
    share its pass. The differences go through ``abs`` only when the
    midpoints are not strictly ascending: with orientation-preserving maps
    they ascend with the words, and for y > x, y - x is the same double as
    |x - y|. Workers call only numpy. Raises BudgetError when the Z^2 pairs
    exceed ``_PAIR_CAP``.
    """
    if t <= 0:
        raise ValueError(f"energy exponent must be positive, got {t}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    Z = occ.counts.size
    if Z**2 > _PAIR_CAP:
        raise _budget_error(
            f"level {occ.level} energy needs Z^2 = {Z**2} pairs", _PAIR_CAP, "_PAIR_CAP"
        )
    if Z < 2:
        return 0.0
    weights = occ.counts / float(occ.M**occ.level)
    mids = interval(spec, occ.words).midpoint
    ascending = bool(np.all(mids[1:] > mids[:-1]))
    starts = range(0, Z - 1, _PAIR_TILE)
    workers = min(threads, len(starts))
    rows = min(-(-_PAIR_TILE // workers), Z)
    below = np.tri(min(_PAIR_TILE, Z), dtype=bool)  # j <= i inside a tile's leading square

    def tile(i0: int, ws: _Workspace) -> float:
        i1 = min(i0 + _PAIR_TILE, Z)
        n = i1 - i0
        buf = ws.array("tile", rows * Z, np.float64)
        row_sums = np.empty(n)
        for r0 in range(i0, i1, rows):
            r1 = min(r0 + rows, i1)
            # contiguous rows, and one broadcast operand in the subtraction: numpy
            # copies each broadcast operand of a call on short rows into a buffer
            # of up to 8192 doubles, a transient every running worker holds
            d = buf[: (r1 - r0) * (Z - i0)].reshape(r1 - r0, Z - i0)
            d[...] = mids[r0:r1, None]
            np.subtract(mids[i0:], d, out=d)
            if not ascending:
                np.abs(d, out=d)
            d[:, :n][below[r0 - i0 : r1 - i0, :n]] = np.inf
            np.power(d, -t, out=d)
            # einsum, not a BLAS gemv: as fast here, without BLAS worker threads
            np.einsum("ij,j->i", d, weights[i0:], out=row_sums[r0 - i0 : r1 - i0])
        return float(weights[i0:i1] @ row_sums)

    total = 0.0
    for partial in _ordered_map(tile, starts, workers):
        total += partial
    return 2.0 * total
