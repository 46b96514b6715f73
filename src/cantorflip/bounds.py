"""Dimension bounds for the random construction.

The lower bound is min{log M, -log sum p_i^2}/log(1/r). The refined upper
bound -phi(lambda)/log r applies only when M sits in the window between the
entropy threshold prod p_i^{-p_i} and the geometric threshold
(prod p_i)^{-1/N}; outside it the trivial covering bound
min{log N, log M}/log(1/r) is all there is. That choice is made in one
place, ``_upper``, which returns the bound with the lambda root it used;
``upper_bound`` and ``classify`` both read it. ``classify`` assembles one
report from it and ``lower_bound``, and marks the cases where the two
bounds meet, so the dimension is known exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import _check_arity
from .stochastic import ProbVector

_EDGE_TOL = 1e-9  # threshold comparisons; keeps M = N uniform inside the window


@dataclass(frozen=True)
class SandwichCheck:
    """Where M sits relative to the applicability window of the refined upper bound."""

    status: str  # below | within | above
    entropy_threshold: float
    geometric_threshold: float


@dataclass(frozen=True)
class LambdaRoot:
    value: float
    degenerate: bool  # True when M*p_i = 1 for all i and the value is a convention
    residual: float


@dataclass(frozen=True)
class BoundsReport:
    p: tuple[float, ...]
    M: int
    r: float
    lower: float
    upper: float
    trivial_upper: float
    sandwich: str
    entropy_threshold: float
    geometric_threshold: float
    lam: float | None
    lam_degenerate: bool
    exact: float | None
    exact_reason: str | None

    def to_dict(self) -> dict:
        """The fields by name, with ``p`` a list and ``lam*`` spelled ``lambda*``."""
        d = asdict(self)
        d["p"] = list(self.p)
        d["lambda"] = d.pop("lam")
        d["lambda_degenerate"] = d.pop("lam_degenerate")
        return d


def _check_ratio(N: int, r: float) -> None:
    if not 0.0 < r <= 1.0 / N + 1e-12:
        raise ValueError(f"ratio {r} outside (0, 1/{N}]")


def entropy(p: ProbVector) -> float:
    """Shannon entropy -sum p_i log p_i in nats."""
    return -math.fsum(x * math.log(x) for x in p.values)


def entropy_threshold(p: ProbVector) -> float:
    """prod p_i^{-p_i}, the lower edge of the window (equals e^entropy)."""
    return math.exp(entropy(p))


def geometric_threshold(p: ProbVector) -> float:
    """(prod p_i)^{-1/N}, the upper edge of the window."""
    return math.exp(-math.fsum(math.log(x) for x in p.values) / p.N)


def lower_bound(p: ProbVector, M: int, r: float) -> float:
    """min{log M, -log sum p_i^2} / log(1/r)."""
    _check_arity(M)
    _check_ratio(p.N, r)
    collision = math.fsum(x * x for x in p.values)
    return min(math.log(M), -math.log(collision)) / math.log(1.0 / r)


def sandwich_check(p: ProbVector, M: int) -> SandwichCheck:
    """Compare M against both thresholds; boundary cases count as within."""
    _check_arity(M)
    low = entropy_threshold(p)
    high = geometric_threshold(p)
    if M < low - _EDGE_TOL:
        status = "below"
    elif M > high + _EDGE_TOL:
        status = "above"
    else:
        status = "within"
    return SandwichCheck(status, low, high)


def _bisect(below, lo: float, hi: float) -> float:
    """Bisect [lo, hi], where ``below(lo)`` holds and ``below(hi)`` fails, to adjacent doubles.

    Stops after 200 halvings, or once the midpoint is no longer strictly
    inside (lo, hi): a further halving could only repeat an endpoint.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_lambda(p: ProbVector, M: int) -> LambdaRoot:
    """Zero of g(lam) = sum p_i^lam log(M p_i) on [0,1], bisected to adjacent doubles.

    Requires M within the window, which forces g(0) <= 0 <= g(1). At most
    200 halvings; the residual |g(lam)| is reported, not bounded. When
    M*p_i = 1 for every i, g vanishes identically and the returned value 1/2
    is a flagged convention (phi is then constant anyway).
    """
    check = sandwich_check(p, M)
    if check.status != "within":
        raise ValueError(f"M = {M} is {check.status} the applicability window")
    return _lambda_root(p, M)


def _lambda_root(p: ProbVector, M: int) -> LambdaRoot:
    """solve_lambda for an M already checked to lie within the window."""
    if max(abs(M * x - 1.0) for x in p.values) < 1e-12:
        return LambdaRoot(0.5, True, 0.0)
    terms = [(x, math.log(M * x)) for x in p.values]

    def g(lam: float) -> float:
        return math.fsum(x**lam * log_mx for x, log_mx in terms)

    g0, g1 = g(0.0), g(1.0)
    if g0 >= 0.0:  # boundary M = entropy threshold, within float noise
        return LambdaRoot(0.0, False, abs(g0))
    if g1 <= 0.0:  # boundary M = geometric threshold
        return LambdaRoot(1.0, False, abs(g1))
    lam = _bisect(lambda x: g(x) <= 0.0, 0.0, 1.0)
    return LambdaRoot(lam, False, abs(g(lam)))


def phi(p: ProbVector, M: int, x: float) -> float:
    """x log M + log sum p_i^x."""
    _check_arity(M)
    return x * math.log(M) + math.log(math.fsum(v**x for v in p.values))


def _upper(
    p: ProbVector, M: int, r: float
) -> tuple[float, float, LambdaRoot | None, SandwichCheck]:
    """The upper bound, the trivial bound, the lambda root used and the window check.

    Inside the window the bound is phi(lambda)/log(1/r); outside it, the root
    is None and the bound is the trivial min{log N, log M}/log(1/r).
    """
    _check_ratio(p.N, r)
    check = sandwich_check(p, M)  # checks M
    log_inv_r = math.log(1.0 / r)
    trivial = min(math.log(p.N), math.log(M)) / log_inv_r
    if check.status != "within":
        return trivial, trivial, None, check
    root = _lambda_root(p, M)
    return phi(p, M, root.value) / log_inv_r, trivial, root, check


def upper_bound(p: ProbVector, M: int, r: float) -> float:
    """phi(lambda)/log(1/r) inside the window, else the trivial covering bound."""
    return _upper(p, M, r)[0]


def xi(p: float, M: int) -> float:
    """Two-map occupancy frequency log(M p) / (log p - log(1-p)).

    Defined for N = 2 under the condition p(1-p) <= M^-2 (automatic at
    M = 2); the removable 0/0 at M = 2, p = 1/2 is set to 1/2.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie inside (0,1), got {p}")
    _check_arity(M)
    if p * (1.0 - p) > 1.0 / M**2 + 1e-12:
        raise ValueError(f"condition p(1-p) <= 1/M^2 fails for p={p}, M={M}")
    denominator = math.log(p) - math.log(1.0 - p)
    if abs(denominator) < 1e-15:
        return 0.5
    return math.log(M * p) / denominator


def classify(p: ProbVector, M: int, r: float) -> BoundsReport:
    """Full report: both bounds, window status, lambda, and exact cases.

    The dimension is exact when the bounds meet: M below both the entropy
    threshold and 1/sum p_i^2 pins it at log M/log(1/r) (small-M), uniform p
    with M >= N pins it at the full-construction dimension log N/log(1/r)
    (symmetric; tagged separately for N = M = 2, where the construction's
    own identity gives the same number).
    """
    N = p.N
    up, trivial, root, check = _upper(p, M, r)  # checks M and r
    low = lower_bound(p, M, r)
    log_inv_r = math.log(1.0 / r)
    uniform = max(abs(x - 1.0 / N) for x in p.values) < 1e-12
    collision = math.fsum(x * x for x in p.values)
    exact: float | None = None
    reason: str | None = None
    if uniform and N == 2 and M == 2:
        exact = math.log(2.0) / log_inv_r
        reason = "m2-identity"
    elif uniform and M >= N:
        exact = math.log(N) / log_inv_r
        reason = "symmetric corollary"
    elif M <= min(check.entropy_threshold, 1.0 / collision) + _EDGE_TOL:
        exact = math.log(M) / log_inv_r
        reason = "small-M corollary"

    return BoundsReport(
        p=p.values,
        M=M,
        r=r,
        lower=low,
        upper=up,
        trivial_upper=trivial,
        sandwich=check.status,
        entropy_threshold=check.entropy_threshold,
        geometric_threshold=check.geometric_threshold,
        lam=None if root is None else root.value,
        lam_degenerate=root is not None and root.degenerate,
        exact=exact,
        exact_reason=reason,
    )
