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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import _bisect
from .errors import _budget_error

Word01 = tuple[int, ...]

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


def _level_words(start: frozenset[int], successors, symbol, n: int) -> set[Word01]:
    """Level-n words of ``_determinize``'s automaton, counted before one is built.

    The frontier holds each level's words grouped by the state they reach, so
    a level extends one list per state, and the words meet in one set at the
    end; the automaton is deterministic, so no word reaches two states.
    """
    rows, _ = _determinize(start, successors, symbol, n)
    frontier: dict[frozenset[int], list[Word01]] = {start: [()]}
    for _ in range(n):
        grown: dict[frozenset[int], list[Word01]] = {}
        for state, words in frontier.items():
            for s, t in rows[state]:
                grown.setdefault(t, []).extend([w + (s,) for w in words])
        frontier = grown
    return {w for words in frontier.values() for w in words}


def tree_words(spec: DeterministicSpec | int, n: int) -> set[Word01]:
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


def graph_words(m: int, n: int) -> set[Word01]:
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


def sft_words(L: int, n: int) -> set[Word01]:
    """Length-n binary words starting with 0^min(L,n) and avoiding 1 0^k 1, k < L.

    Built one letter at a time, the words grouped by their gap since the
    last 1 under sft_count's rule, so the word length sets no recursion depth.
    """
    total = sft_count(L, n)
    if total > _WORDS_CAP:
        raise _budget_error(f"{total} words of length {n}", _WORDS_CAP, "_WORDS_CAP")
    head = min(L, n)
    frontier: dict[int, list[Word01]] = {L: [()]}  # gap, clamped at L -> words
    for pos in range(n):
        grown: dict[int, list[Word01]] = {}
        for gap, words in frontier.items():
            grown.setdefault(min(gap + 1, L), []).extend([w + (0,) for w in words])
            if pos >= head and gap >= L:
                grown.setdefault(0, []).extend([w + (1,) for w in words])
        frontier = grown
    return {w for words in frontier.values() for w in words}


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


def dump_words(words) -> str:
    """Sorted one-word-per-line text form, for golden files and diffs."""
    lines = ["".join(str(s) for s in w) for w in words]
    return "\n".join(sorted(lines)) + "\n" if lines else ""
