"""Equicontractive interval iterated function systems on [0,1].

A system is N affine maps x -> b_i + r*x (or the reflected b_i + r*(1-x)),
all with one contraction ratio r in (0, 1/N], images ordered left to right
with pairwise disjoint interiors inside [0,1]. Words over {1..N} address
nested basic intervals: the image of [0,1] under the corresponding
composition, of length exactly r^n at depth n. The attractor has dimension
-log N / log r, which is 1 when r = 1/N (the images tile [0,1]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_TOL = 1e-9


@dataclass(frozen=True)
class Interval:
    """Closed subinterval of [0,1], stored as left endpoint plus length.

    The fields are floats for one interval, or float arrays of one shape for
    a stack of intervals; the checks then hold entry by entry.
    """

    left: float | np.ndarray
    length: float | np.ndarray

    def __post_init__(self) -> None:
        if not np.all(self.length > 0):
            raise ValueError(f"interval length must be positive, got {self.length}")
        if np.any(self.left < -_TOL) or np.any(self.left + self.length > 1 + _TOL):
            raise ValueError(
                f"interval [{self.left}, {self.left + self.length}] leaves [0,1]"
            )

    @property
    def right(self) -> float | np.ndarray:
        return self.left + self.length

    @property
    def midpoint(self) -> float | np.ndarray:
        return self.left + self.length / 2.0


@dataclass(frozen=True)
class IfsSpec:
    """N equicontractive affine maps with ratio r, translations and orientations.

    Map i sends [0,1] onto [b_i, b_i + r]; orientation -1 reverses it within
    the same image. Validation enforces containment in [0,1], left-to-right
    ordering, disjoint open images, and (unless r = 1/N, where the images
    necessarily tile) strictly positive gaps.
    """

    N: int
    r: float
    translations: tuple[float, ...]
    orientations: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError(f"need at least 2 maps, got {self.N}")
        if not 0 < self.r:
            raise ValueError(f"contraction ratio must be positive, got {self.r}")
        if self.r > 1.0 / self.N + 1e-12:
            raise ValueError(
                f"contraction ratio {self.r} exceeds 1/N = {1.0 / self.N}; "
                "images of disjoint interiors no longer fit in [0,1]"
            )
        b = tuple(float(x) for x in self.translations)
        o = tuple(int(x) for x in self.orientations)
        object.__setattr__(self, "translations", b)
        object.__setattr__(self, "orientations", o)
        if len(b) != self.N:
            raise ValueError(f"expected {self.N} translations, got {len(b)}")
        if len(o) != self.N:
            raise ValueError(f"expected {self.N} orientations, got {len(o)}")
        for x in o:
            if x not in (-1, 1):
                raise ValueError(f"orientation must be +1 or -1, got {x}")
        for x in b:
            if x < -_TOL or x + self.r > 1 + _TOL:
                raise ValueError(f"image [{x}, {x + self.r}] leaves [0,1]")
        touching_allowed = 1.0 - self.N * self.r <= _TOL  # r = 1/N forces tiling
        for i in range(self.N - 1):
            gap = b[i + 1] - b[i] - self.r
            if gap < -1e-12:
                raise ValueError(
                    f"images {i + 1} and {i + 2} overlap (gap {gap}); "
                    "translations must be ordered with disjoint open images"
                )
            if gap <= 1e-12 and not touching_allowed:
                raise ValueError(
                    f"images {i + 1} and {i + 2} touch although r < 1/N; "
                    "touching images are only consistent with r = 1/N"
                )

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "r": self.r,
            "translations": list(self.translations),
            "orientations": list(self.orientations),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IfsSpec":
        N = data["N"]
        r = data["r"]
        translations = data.get("translations")
        orientations = data.get("orientations")
        if translations is None:
            return_spec = canonical_spec(N, r)
            translations = return_spec.translations
        if orientations is None:
            orientations = (1,) * N
        return cls(N, r, tuple(translations), tuple(orientations))


def canonical_spec(N: int, r: float) -> IfsSpec:
    """Orientation-preserving maps with equally spaced images.

    b_i = (i-1)(1-r)/(N-1), so the first image starts at 0, the last ends at
    1, and all gaps are equal. For N=2, r=1/3 this is the middle-thirds
    layout; for r = 1/N the images tile [0,1].
    """
    if N < 2:
        raise ValueError(f"need at least 2 maps, got {N}")
    b = tuple((i - 1) * (1.0 - r) / (N - 1) for i in range(1, N + 1))
    return IfsSpec(N, float(r), b, (1,) * N)


def label_symbols(w: Sequence[int], N: int) -> tuple[int, ...]:
    """The symbols of a label word, checked to be whole numbers in the alphabet {1..N}."""
    symbols = []
    for s in w:
        symbol = int(s)
        if symbol != s:
            raise ValueError(f"label symbol {s} is not a whole number")
        if not 1 <= symbol <= N:
            raise ValueError(f"label symbol {symbol} outside 1..{N}")
        symbols.append(symbol)
    return tuple(symbols)


def interval(spec: IfsSpec, w: Sequence[int] | np.ndarray) -> Interval:
    """Basic interval addressed by ``w``: image of [0,1] under the composition.

    ``w`` is one word, giving an Interval of floats, or a 2-D integer array
    whose rows are words of one length, giving an Interval of arrays with
    one entry per row. A symbol that is not a whole number, such as 1.7, is
    refused, not truncated; integer arrays are read as they are. The affine
    composition x -> a*x + c is accumulated left to right, one column of the
    stack at a time, so the rounding error of an endpoint grows only
    linearly with the depth. Each step is c + a*b and a*r, or for a
    reflected map c + a*(b + r) and a*(-r), the same float operations for
    every row, so a row of a stack is bit for bit the interval of that word
    alone. The length is r^len(w) up to that rounding.
    """
    words = np.asarray(w)
    if words.ndim not in (1, 2):
        raise ValueError(f"expected a word or a 2-D stack of words, got {words.ndim} dimensions")
    if words.dtype.kind not in "iu":
        with np.errstate(invalid="ignore"):  # nan and inf cast to garbage, named below
            whole = words.astype(np.int64)
        fractional = words[whole != words]
        if fractional.size:
            raise ValueError(f"label symbol {fractional[0]} is not a whole number")
        words = whole
    stack = words if words.ndim == 2 else words[None, :]
    if stack.size and not 1 <= stack.min() <= stack.max() <= spec.N:
        flat = stack.ravel()
        s = flat[(flat < 1) | (flat > spec.N)][0]
        raise ValueError(f"label symbol {s} outside 1..{spec.N}")
    # per-symbol step tables, indexed by the symbol itself (entry 0 is unused)
    r = spec.r
    maps = list(zip(spec.translations, spec.orientations))
    shift = np.array([0.0] + [b if o == 1 else b + r for b, o in maps])
    scale = np.array([0.0] + [r if o == 1 else -r for _, o in maps])
    a = np.ones(len(stack))
    c = np.zeros(len(stack))
    for symbols in stack.T:
        c += a * shift[symbols]
        a *= scale[symbols]
    left = np.where(a < 0, c + a, c)
    length = np.abs(a)
    if words.ndim == 1:
        return Interval(float(left[0]), float(length[0]))
    return Interval(left, length)


def dim_C(spec: IfsSpec) -> float:
    """Dimension of the attractor: -log N / log r (equals 1 when r = 1/N)."""
    return -math.log(spec.N) / math.log(spec.r)
