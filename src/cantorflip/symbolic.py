"""Words over the path and label alphabets, and the breadth-first edge index.

Edges of the full M-ary tree are addressed by nonempty words over {1..M}:
the word picks the branch taken at each level. The breadth-first order puts
shorter words first and sorts words of equal length lexicographically;
``kappa`` is the unique order-preserving bijection from nonempty words onto
0, 1, 2, ... under that order. All index arithmetic (inverse, children) is
closed-form, so nothing here ever enumerates the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

EdgeIndex = int  # kept within the signed 64-bit range

_MAX_INDEX = 2**63 - 1

LESS, EQUAL, GREATER = -1, 0, 1


@dataclass(frozen=True)
class PathWord:
    """Word over the path alphabet {1..M}; nonempty words address tree edges."""

    symbols: tuple[int, ...]
    M: int

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError(f"arity must be at least 2, got {self.M}")
        symbols = tuple(int(s) for s in self.symbols)
        object.__setattr__(self, "symbols", symbols)
        for s in symbols:
            if not 1 <= s <= self.M:
                raise ValueError(f"path symbol {s} outside 1..{self.M}")

    def __len__(self) -> int:
        return len(self.symbols)

    def extend(self, symbol: int) -> "PathWord":
        return PathWord(self.symbols + (symbol,), self.M)


@dataclass(frozen=True)
class LabelWord:
    """Word over the label alphabet {1..N}."""

    symbols: tuple[int, ...]
    N: int

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError(f"label alphabet size must be at least 2, got {self.N}")
        object.__setattr__(self, "symbols", label_symbols(self.symbols, self.N))

    def __len__(self) -> int:
        return len(self.symbols)


def label_symbols(w: LabelWord | Sequence[int], N: int) -> tuple[int, ...]:
    """The symbols of a label word, checked against the alphabet {1..N}.

    A ``LabelWord`` must carry alphabet N; any other sequence must hold
    integers in 1..N.
    """
    if isinstance(w, LabelWord):
        if w.N != N:
            raise ValueError(f"word alphabet {w.N} does not match N={N}")
        return w.symbols
    symbols = tuple(int(s) for s in w)
    for s in symbols:
        if not 1 <= s <= N:
            raise ValueError(f"label symbol {s} outside 1..{N}")
    return symbols


def compare_star(a: PathWord, b: PathWord) -> int:
    """Breadth-first comparison; returns LESS (-1), EQUAL (0) or GREATER (1).

    Shorter words come first; words of equal length compare lexicographically.
    Both words must share one arity.
    """
    if a.M != b.M:
        raise ValueError(f"arity mismatch: {a.M} != {b.M}")
    key_a = (len(a.symbols), a.symbols)
    key_b = (len(b.symbols), b.symbols)
    if key_a < key_b:
        return LESS
    if key_a == key_b:
        return EQUAL
    return GREATER


def kappa(w: PathWord) -> EdgeIndex:
    """Breadth-first index of the edge addressed by the nonempty word ``w``.

    Closed form for a word i_1..i_d of arity M:

        (M^d - M) / (M - 1)  +  sum_k (i_k - 1) * M^(d-k)

    i.e. the number of edges at shallower levels plus the lexicographic rank
    at depth d. The empty word addresses the root vertex, not an edge, and
    is rejected. Indices beyond the signed 64-bit range raise OverflowError.
    """
    d = len(w.symbols)
    if d == 0:
        raise ValueError("the empty word does not address an edge")
    M = w.M
    offset = (M**d - M) // (M - 1)
    rank = 0
    for s in w.symbols:
        rank = rank * M + (s - 1)
    index = offset + rank
    if index > _MAX_INDEX:
        raise OverflowError(f"edge index for a depth-{d} word exceeds the 64-bit range")
    return index


def kappa_inverse(k: EdgeIndex, M: int) -> PathWord:
    """The nonempty word of arity ``M`` whose breadth-first index is ``k``."""
    if M < 2:
        raise ValueError(f"arity must be at least 2, got {M}")
    if k < 0:
        raise ValueError(f"edge index must be nonnegative, got {k}")
    depth = 1
    offset = 0
    while offset + M**depth <= k:
        offset += M**depth
        depth += 1
    rank = k - offset
    symbols = []
    for _ in range(depth):
        symbols.append(rank % M + 1)
        rank //= M
    return PathWord(tuple(reversed(symbols)), M)


def child_indices(k: EdgeIndex, M: int) -> list[EdgeIndex]:
    """Indices of the M edges one level below the edge with index ``k``.

    Equals ``[M*k + M + c - 1 for c in 1..M]``, which is kappa applied to the
    M one-symbol extensions of ``kappa_inverse(k, M)``.
    """
    if M < 2:
        raise ValueError(f"arity must be at least 2, got {M}")
    if k < 0:
        raise ValueError(f"edge index must be nonnegative, got {k}")
    if M * k + 2 * M - 2 > _MAX_INDEX:
        raise OverflowError("child edge index exceeds the 64-bit range")
    return [M * k + M + c - 1 for c in range(1, M + 1)]
