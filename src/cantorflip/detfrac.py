"""Deterministic labelings that mark every m-th edge of the binary tree.

Edges are marked in breadth-first index order: symbol 1 at indices
congruent to the offset mod m, symbol 0 elsewhere, so words are over {0,1}.
The level-n word sets grow like rho_L^n where L is determined by the block
2^(L+1)-1 <= m <= 2^(L+2)-2 and rho_L is the positive root of
x^(L+1) = x^L + 1, which makes the limit set's dimension
log rho_L / log(1/r). tree_words (edge residues mod m) and graph_words
(walks on the mod-m digraph) run one subset-construction determinizer that
counts the words before it builds them, at a cost per word; their agreement
checks that the two automata match under the relabelling c <-> c+1. The
determinizer's own oracles share none of its code: the literal tree (in the
tests) and the subshift forbidding 1 0^k 1 for k < L (sft_words, sft_count).

A word set is one uint8 array of 0/1 letters, shape (W, n), one word a row,
its rows distinct and in ascending lexicographic order; level 0 is one empty
row. A word costs n bytes, not a Python tuple. Each builder appends a
level's children in (word, letter) order, so the rows ascend without a
sort; rows_within checks one set's rows against another's by packed keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _bisect
from .errors import _budget_error

_STATE_CAP = 1 << 22  # per level: words, and residues held by the level's states
_WORDS_CAP = 1 << 20  # words an enumeration may return


def level_of(m: int) -> int:
    """Block level L with 2^(L+1) - 1 <= m <= 2^(L+2) - 2.

    Defined for m >= 3; m = 2 marks every other edge and reproduces the full
    construction, so it has no block level.
    """
    if m < 3:
        raise ValueError(f"no block level for m = {m}; defined for m >= 3")
    return (m + 1).bit_length() - 2


@dataclass(frozen=True)
class DeterministicSpec:
    """Period m and marking offset (default m-1: indices m-1, 2m-1, ... are marked)."""

    m: int
    offset: int | None = None

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"period must be at least 2, got {self.m}")
        offset = self.m - 1 if self.offset is None else self.offset
        if not 0 <= offset < self.m:
            raise ValueError(f"offset {offset} outside 0..{self.m - 1}")
        object.__setattr__(self, "offset", offset)

    @property
    def L(self) -> int | None:
        return level_of(self.m) if self.m >= 3 else None


def rho(L: int) -> float:
    """Positive root of x^(L+1) = x^L + 1, bisected on (1,2) to adjacent doubles.

    At most 200 halvings. The residual must lie below 1e-13 * x^(L+1), the
    scale at which the terms it cancels round.
    """
    if L < 1:
        raise ValueError(f"L must be at least 1, got {L}")
    x = _bisect(lambda y: y ** (L + 1) - y**L - 1.0 < 0.0, 1.0, 2.0)
    top = x ** (L + 1)
    residual = abs(top - x**L - 1.0)
    if residual >= 1e-13 * top:
        raise RuntimeError(f"root residual {residual} not below 1e-13 * x^(L+1) = {1e-13 * top}")
    return x


def dim_Fm(m: int, r: float) -> float:
    """log rho_L(m) / log(1/r); for m = 2 the full construction's log 2 / log(1/r)."""
    if m < 2:
        raise ValueError(f"period must be at least 2, got {m}")
    if not 0.0 < r <= 0.5:
        raise ValueError(f"ratio {r} outside (0, 1/2]")
    top = math.log(2.0) if m == 2 else math.log(rho(level_of(m)))
    return top / math.log(1.0 / r)


def _determinize(start: frozenset[int], successors, symbol, n: int):
    """Subset automaton of the marked successor steps, with its level-n word counts.

    A state is the frozenset of residues that the paths of one word can end
    at; reading 1 moves to the successors x with symbol(x) true, reading 0 to
    the rest. Returns the transition rows, ((symbol, next state), ...), of the
    states reached before level n, each built when first reached, and the
    level-n word count per state, from an integer vector iterated n times.
    It stops at the first level whose words or states' residues exceed
    _STATE_CAP; as every state has a successor, no later level has fewer words.
    """
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    rows: dict[frozenset[int], tuple[tuple[int, frozenset[int]], ...]] = {}
    known, counts = {start: start}, {start: 1}
    for level in range(1, n + 1):
        grown: dict[frozenset[int], int] = {}
        for state, c in counts.items():
            if state not in rows:
                targets = frozenset(y for x in state for y in successors(x))
                ones = frozenset(filter(symbol, targets))
                rows[state] = tuple(
                    (s, known.setdefault(t, t)) for s, t in enumerate((targets - ones, ones)) if t
                )
            for _, t in rows[state]:
                grown[t] = grown.get(t, 0) + c
        counts = grown
        words, held = sum(counts.values()), sum(map(len, counts))
        if words > _STATE_CAP:
            raise _budget_error(f"{words} words at level {level} of {n}", _STATE_CAP, "_STATE_CAP")
        if held > _STATE_CAP:
            size = f"{held} residues in {len(counts)} subset states at level {level} of {n}"
            raise _budget_error(size, _STATE_CAP, "_STATE_CAP")
    return rows, counts


def _level_words(start: frozenset[int], successors, symbol, n: int) -> np.ndarray:
    """Level-n words of ``_determinize``'s automaton, counted before one is built.

    The automaton's rows become a table of next-state numbers, -1 where a
    letter leads nowhere, and the frontier is one state number per word.
    Each level appends every word's children in (word, letter) order, so the
    rows stay in ascending order with no sort; the automaton is
    deterministic, so they stay distinct.
    """
    rows, _ = _determinize(start, successors, symbol, n)
    # start is the first state in rows; the states first reached at level n
    # are never expanded, and share the last number
    number = {state: i for i, state in enumerate(rows)}
    table = np.full((len(rows) + 1, 2), -1, dtype=np.intp)
    for state, row in rows.items():
        for s, t in row:
            table[number[state], s] = number.get(t, len(rows))
    words, at = np.zeros((1, 0), dtype=np.uint8), np.zeros(1, dtype=np.intp)
    for _ in range(n):
        child = table[at]
        word, letter = np.nonzero(child >= 0)
        words = np.column_stack((words[word], letter.astype(np.uint8)))
        at = child[word, letter]
    return words


def tree_words(spec: DeterministicSpec | int, n: int) -> np.ndarray:
    """Distinct level-n label words of the marked binary tree, over {0,1}.

    The automaton runs on edge indices mod m: a pseudo-root with residue m-1
    spawns the first-level edges at residues 0 and 1, an edge at residue c
    spawns children at 2c+2 and 2c+3 mod m, and an edge reads 1 iff its
    residue is the offset. Cost is per word rather than per path (2^n).
    """
    if isinstance(spec, int):
        spec = DeterministicSpec(spec)
    m, offset = spec.m, spec.offset
    return _level_words(
        frozenset({m - 1}), lambda c: ((2 * c + 2) % m, (2 * c + 3) % m), lambda c: c == offset, n
    )


def graph_words(m: int, n: int) -> np.ndarray:
    """Words emitted by length-n walks on the mod-m digraph from vertices 1 and 2.

    The digraph has edges v -> (2v+1) mod m and v -> (2v+2) mod m, defined
    for m >= 3. Each visited vertex emits 1 if it is 0 and 0 otherwise.
    Vertex v is tree residue v-1, so this is tree_words' automaton at the
    default offset under the relabelling c -> c+1, and the two word sets
    must match.
    """
    if m < 3:
        raise ValueError(f"graph defined for m >= 3, got {m}")
    # pseudo-start: vertex 0's successors are exactly the real starts 1 and 2
    return _level_words(
        frozenset({0}), lambda v: ((2 * v + 1) % m, (2 * v + 2) % m), lambda v: v == 0, n
    )


def sft_count(L: int, n: int) -> int:
    """Number of words sft_words(L, n) would return, by gap-state counting."""
    if L < 1:
        raise ValueError(f"L must be at least 1, got {L}")
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    head = min(L, n)
    counts = {L: 1}  # gap since the last 1, clamped at L; L doubles as "no 1 yet"
    for pos in range(n):
        grown: dict[int, int] = {}
        for gap, c in counts.items():
            bumped = min(gap + 1, L)
            grown[bumped] = grown.get(bumped, 0) + c
            if pos >= head and gap >= L:
                grown[0] = grown.get(0, 0) + c
        counts = grown
    return sum(counts.values())


def sft_words(L: int, n: int) -> np.ndarray:
    """Length-n binary words starting with 0^min(L,n) and avoiding 1 0^k 1, k < L.

    Built one letter at a time from each word's gap since its last 1, under
    sft_count's rule: a word's 0-child comes first, then its 1-child where
    the gap allows one, so the rows ascend as they are made and the word
    length sets no recursion depth.
    """
    total = sft_count(L, n)
    if total > _WORDS_CAP:
        raise _budget_error(f"{total} words of length {n}", _WORDS_CAP, "_WORDS_CAP")
    # the head of min(L, n) zeros is forced, and leaves the gap at L
    words = np.zeros((1, min(L, n)), dtype=np.uint8)
    gaps = np.full(1, L)  # gap since the last 1, clamped at L; L doubles as "no 1 yet"
    for _ in range(words.shape[1], n):
        ones = gaps >= L
        width = 1 + ones
        parent = np.repeat(np.arange(len(gaps)), width)
        letter = np.zeros(len(parent), dtype=np.uint8)
        letter[np.cumsum(width)[ones] - 1] = 1
        words = np.concatenate((words[parent], letter[:, None]), axis=1)
        gaps = np.where(letter == 1, 0, np.minimum(gaps[parent] + 1, L))
    return words


def rows_within(words: np.ndarray, superset: np.ndarray) -> bool:
    """Whether every row of ``words`` is a row of ``superset``, a word array.

    The superset's rows must ascend, as the word arrays' rows do. Each row
    becomes one key that orders as the row does, and a sorted search of the
    superset's keys finds each word.
    """
    if words.shape[1] != superset.shape[1] or not len(superset):
        return not len(words)
    keys, known = _row_keys(words), _row_keys(superset)
    at = np.minimum(np.searchsorted(known, keys), len(known) - 1)
    return bool(np.all(known[at] == keys))


def _row_keys(words: np.ndarray) -> np.ndarray:
    """Rows packed most significant bit first: one uint64 each up to 64 letters, else bytes."""
    bits = np.packbits(words, axis=1)
    width = 8 * max(1, -(-bits.shape[1] // 8))  # whole uint64s, at least one
    packed = np.zeros((len(words), width), dtype=np.uint8)
    packed[:, : bits.shape[1]] = bits
    if width == 8:
        return packed.view(">u8").ravel().astype(np.uint64)
    return packed.view(f"V{width}").ravel()


def dimension_rows(ms, r: float) -> list[tuple[int, int | None, float | None, float]]:
    """(m, L, rho_L, dim) rows for CSV emission; L and rho are None at m = 2."""
    rows = []
    for m in ms:
        if m == 2:
            rows.append((2, None, None, dim_Fm(2, r)))
        else:
            L = level_of(m)
            rows.append((m, L, rho(L), dim_Fm(m, r)))
    return rows


def dump_words(words: np.ndarray) -> str:
    """One word a line, as 0/1 digits in row order, for golden files and diffs.

    The word arrays hold their rows in ascending order, so the lines are sorted.
    """
    digits = np.column_stack((words + ord("0"), np.full(len(words), ord("\n"), dtype=np.uint8)))
    return digits.tobytes().decode("ascii")
