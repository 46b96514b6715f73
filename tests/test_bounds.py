"""Dimension bounds: thresholds, the lambda root, and the exact-case rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantorflip import (
    ProbVector,
    classify,
    entropy_threshold,
    gamma_fixed_point,
    geometric_threshold,
    lower_bound,
    phi,
    rho,
    sandwich_check,
    solve_lambda,
    upper_bound,
    xi,
)
from cantorflip import bounds
from cantorflip.bounds import LambdaRoot, _bisect, entropy
from cantorflip.cli import TABLE1_PERIODS

LOG3 = math.log(3.0)
THIRDS = ProbVector((1 / 3, 2 / 3))


def normalized(values):
    s = sum(values)
    return ProbVector(tuple(v / s for v in values))


prob_strategy = st.integers(min_value=2, max_value=4).flatmap(
    lambda N: st.tuples(*([st.floats(min_value=0.05, max_value=1.0)] * N))
).map(normalized)


class TestThresholds:
    def test_worked_example(self):
        p = ProbVector((0.05, 0.2, 0.75))
        assert entropy_threshold(p) == pytest.approx(1.9886, abs=1e-4)
        assert geometric_threshold(p) == pytest.approx(5.1087, abs=1e-4)

    def test_uniform_case_collapses(self):
        # both thresholds equal N for uniform p
        for N in (2, 3, 5):
            p = ProbVector.uniform(N)
            assert entropy_threshold(p) == pytest.approx(N, rel=1e-12)
            assert geometric_threshold(p) == pytest.approx(N, rel=1e-12)

    @given(prob_strategy)
    @settings(max_examples=80)
    def test_entropy_never_exceeds_geometric(self, p):
        # AM-GM in the exponent
        assert entropy_threshold(p) <= geometric_threshold(p) + 1e-9

    def test_sandwich_statuses(self):
        assert sandwich_check(ProbVector((0.5, 0.5)), 2).status == "within"
        assert sandwich_check(ProbVector((0.05, 0.2, 0.75)), 6).status == "above"
        assert sandwich_check(ProbVector.uniform(3), 2).status == "below"


class TestLambda:
    def test_root_value(self):
        root = solve_lambda(THIRDS, 2)
        assert root.value == pytest.approx(0.4951, abs=1e-4)
        assert not root.degenerate
        assert root.residual < 1e-12

    def test_g_vanishes_at_root(self):
        lam = solve_lambda(THIRDS, 2).value
        g = sum(q**lam * math.log(2 * q) for q in THIRDS.values)
        assert abs(g) < 1e-12

    def test_degenerate_uniform(self):
        # M*p_i = 1 for all i makes g identically 0; root pinned at 1/2
        root = solve_lambda(ProbVector((0.5, 0.5)), 2)
        assert root.value == 0.5
        assert root.degenerate

    def test_outside_window_rejected(self):
        with pytest.raises(ValueError):
            solve_lambda(ProbVector.uniform(3), 2)  # below the window

    def test_phi_at_root(self):
        lam = solve_lambda(THIRDS, 2).value
        assert phi(THIRDS, 2, lam) == pytest.approx(0.6786396343118632, abs=1e-12)


class TestBoundValues:
    def test_thirds_pair(self):
        assert lower_bound(THIRDS, 2, 1 / 3) == pytest.approx(
            0.5350264792820727, abs=1e-12
        )
        assert upper_bound(THIRDS, 2, 1 / 3) == pytest.approx(
            0.6177244158943501, abs=1e-12
        )

    def test_lower_never_exceeds_upper_on_grid(self):
        for i in range(1, 40):
            p = ProbVector((i / 40, 1 - i / 40))
            for M in (2, 3, 4):
                lo = lower_bound(p, M, 1 / 3)
                up = upper_bound(p, M, 1 / 3)
                assert lo <= up + 1e-12

    @pytest.mark.parametrize("r,trivial", [(0.5, 1.0), (0.25, 0.5)])
    def test_uniform_pair_upper_is_the_trivial_bound(self, r, trivial):
        # phi(1/2)/log(1/r) rounds one ulp above log 2/log(1/r) at these ratios
        rep = classify(ProbVector((0.5, 0.5)), 2, r)
        assert rep.upper == rep.trivial_upper == trivial
        assert upper_bound(ProbVector((0.5, 0.5)), 2, r) == trivial

    def test_upper_never_exceeds_trivial_on_grid(self):
        for r in (0.5, 1 / 3, 0.25, 0.1):
            for M in (2, 3, 4, 5):
                grid = [(i / 40, 1 - i / 40) for i in range(1, 40)]
                if r <= 1 / 3:
                    grid += [(i / 12, j / 12, (12 - i - j) / 12)
                             for i in range(1, 11) for j in range(1, 12 - i)]
                for p in grid:
                    rep = classify(ProbVector(p), M, r)
                    assert rep.upper <= rep.trivial_upper, (p, M, r)

    def test_upper_decreases_towards_degenerate_p(self):
        vals = [
            upper_bound(ProbVector((10.0**-k, 1 - 10.0**-k)), 2, 1 / 3)
            for k in range(2, 9)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.15

    def test_symmetry_in_p_for_two_labels(self):
        for x in (0.1, 0.3, 0.45):
            a = upper_bound(ProbVector((x, 1 - x)), 2, 1 / 3)
            b = upper_bound(ProbVector((1 - x, x)), 2, 1 / 3)
            assert a == pytest.approx(b, abs=1e-14)
            assert lower_bound(ProbVector((x, 1 - x)), 2, 1 / 3) == pytest.approx(
                lower_bound(ProbVector((1 - x, x)), 2, 1 / 3), abs=1e-14
            )

    @given(prob_strategy, st.integers(min_value=2, max_value=5))
    @settings(max_examples=80)
    def test_permutation_invariance(self, p, M):
        q = ProbVector(tuple(sorted(p.values)))
        r = 0.9 / p.N
        assert lower_bound(p, M, r) == pytest.approx(lower_bound(q, M, r), abs=1e-12)
        assert upper_bound(p, M, r) == pytest.approx(upper_bound(q, M, r), abs=1e-12)

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            lower_bound(THIRDS, 2, 0.6)  # r > 1/N


class TestXi:
    def test_known_values(self):
        assert xi(1 / 3, 2) == pytest.approx(math.log(2 / 3) / math.log(0.5), abs=1e-12)
        assert xi(0.25, 2) == pytest.approx(0.6309297535714575, abs=1e-12)
        assert xi(0.5, 2) == 0.5  # removable singularity

    def test_matches_upper_bound_through_entropy(self):
        # H(xi)/log(1/r) re-expresses the optimized exponent for N=2
        for p_val in (0.1, 1 / 3, 0.42):
            x = xi(p_val, 2)
            h = entropy(ProbVector((x, 1 - x)))
            assert h / LOG3 == pytest.approx(
                upper_bound(ProbVector((p_val, 1 - p_val)), 2, 1 / 3), abs=1e-10
            )

    def test_condition_enforced(self):
        with pytest.raises(ValueError):
            xi(0.4, 3)  # p(1-p) = 0.24 > 1/9
        xi(0.01, 3)  # small p passes

    def test_domain(self):
        with pytest.raises(ValueError):
            xi(0.0, 2)
        with pytest.raises(ValueError):
            xi(1.0, 2)


class TestClassify:
    def test_two_by_two_identity(self):
        rep = classify(ProbVector((0.5, 0.5)), 2, 1 / 3)
        assert rep.exact == pytest.approx(math.log(2) / LOG3, abs=1e-14)
        assert rep.exact_reason == "m2-identity"
        assert rep.lower == pytest.approx(rep.upper, abs=1e-12)

    def test_small_m_rule(self):
        rep = classify(ProbVector((0.2, 0.2, 0.6)), 2, 1 / 3)
        assert rep.exact == pytest.approx(math.log(2) / LOG3, abs=1e-14)
        assert rep.exact_reason == "small-M corollary"

    def test_symmetric_rule(self):
        rep = classify(ProbVector.uniform(3), 5, 1 / 5)
        assert rep.exact == pytest.approx(math.log(3) / math.log(5), abs=1e-14)
        assert rep.exact_reason == "symmetric corollary"

    def test_generic_case_has_no_exact_value(self):
        rep = classify(THIRDS, 2, 1 / 3)
        assert rep.exact is None
        assert rep.exact_reason is None
        assert rep.sandwich == "within"

    def test_report_serialization(self):
        rep = classify(THIRDS, 2, 1 / 3)
        d = rep.to_dict()
        assert d["lambda"] == pytest.approx(0.4951, abs=1e-4)
        assert d["sandwich"] == "within"
        assert d["p"] == [1 / 3, 2 / 3]
        assert set(d) == {
            "p", "M", "r", "lower", "upper", "trivial_upper", "sandwich",
            "entropy_threshold", "geometric_threshold", "lambda",
            "lambda_degenerate", "exact", "exact_reason",
        }

    def test_exact_value_sits_between_bounds(self):
        rep = classify(ProbVector((0.2, 0.2, 0.6)), 2, 1 / 3)
        assert rep.lower - 1e-12 <= rep.exact <= rep.upper + 1e-12


# The three 200-halving loops that bounds._bisect replaced, kept verbatim
# (each with the bracket set-up before it) as the reference its early stop
# must reproduce bit for bit.
def _old_g(p: ProbVector, M: int, lam: float) -> float:
    return math.fsum(x**lam * math.log(M * x) for x in p.values)


def _old_solve_lambda(p: ProbVector, M: int) -> LambdaRoot:
    check = sandwich_check(p, M)
    if check.status != "within":
        raise ValueError(f"M = {M} is {check.status} the applicability window")
    if max(abs(M * x - 1.0) for x in p.values) < 1e-12:
        return LambdaRoot(0.5, True, 0.0)
    g0 = _old_g(p, M, 0.0)
    g1 = _old_g(p, M, 1.0)
    if g0 >= 0.0:  # boundary M = entropy threshold, within float noise
        return LambdaRoot(0.0, False, abs(g0))
    if g1 <= 0.0:  # boundary M = geometric threshold
        return LambdaRoot(1.0, False, abs(g1))
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _old_g(p, M, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return LambdaRoot(lam, False, abs(_old_g(p, M, lam)))


def _old_rho(L: int) -> float:
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** (L + 1) - mid**L - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _old_gamma_fixed_point(N: int, M: int) -> float:
    def f(x: float) -> float:
        return -math.expm1(M * math.log1p(-x / N)) - x

    lo = 0.5
    while f(lo) <= 0.0:
        lo /= 2
    hi = 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _seeded_window_pairs():
    """In-window (p, M) pairs for N = 2..6 and M = 2..12, p drawn at a fixed seed."""
    rng = np.random.default_rng(20231)
    pairs = []
    for N in range(2, 7):
        for _ in range(40):
            p = ProbVector(tuple(float(v) for v in rng.dirichlet(np.ones(N))))
            pairs += [(p, M) for M in range(2, 13) if sandwich_check(p, M).status == "within"]
    return pairs


FIGURE1_GRID = [ProbVector((k / 1000.0, 1.0 - k / 1000.0)) for k in range(1, 1000)]  # figure1 --grid 999
TABLE1_ROWS = [ProbVector((1.0 / m, 1.0 - 1.0 / m)) for m in TABLE1_PERIODS]


class TestBisect:
    def test_stops_at_adjacent_doubles(self):
        calls = []

        def below(x):
            calls.append(x)
            return x * x < 2.0

        assert abs(_bisect(below, 1.0, 2.0) - math.sqrt(2.0)) <= math.ulp(1.0)
        assert len(calls) == 52  # doubles in [1, 2) are 2^-52 apart

    def test_at_most_200_halvings(self):
        # doubles are dense towards 0, so this bracket never closes
        calls = []
        assert _bisect(lambda x: calls.append(x) or x <= 0.0, 0.0, 1.0) == 2.0**-201
        assert len(calls) == 200

    def test_solve_lambda_matches_200_halvings_on_seeded_pairs(self):
        pairs = _seeded_window_pairs()
        assert len(pairs) > 400
        for p, M in pairs:
            assert solve_lambda(p, M) == _old_solve_lambda(p, M), (p, M)

    @pytest.mark.parametrize("points", [FIGURE1_GRID, TABLE1_ROWS], ids=["figure1", "table1"])
    def test_solve_lambda_matches_200_halvings_on_cli_points(self, points):
        within = [p for p in points if sandwich_check(p, 2).status == "within"]
        assert within
        for p in within:
            assert solve_lambda(p, 2) == _old_solve_lambda(p, 2), p

    def test_rho_matches_200_halvings(self):
        for L in range(1, 426):
            assert rho(L) == _old_rho(L), L

    def test_gamma_matches_200_halvings(self):
        for N in range(2, 13):
            for M in range(N + 1, 65):
                assert gamma_fixed_point(N, M) == _old_gamma_fixed_point(N, M), (N, M)

    def test_at_most_60_g_evaluations_per_figure1_point(self, monkeypatch):
        counts = []

        def counting(below, lo, hi):
            counts.append(0)

            def counted(x):
                counts[-1] += 1
                return below(x)

            return _bisect(counted, lo, hi)

        monkeypatch.setattr(bounds, "_bisect", counting)
        for p in FIGURE1_GRID:
            solve_lambda(p, 2)
        # p = 1/2 is the flagged degenerate point, which needs no bisection
        assert len(counts) == 998
        # g(0), g(1) and the residual are the three evaluations outside _bisect
        assert max(counts) + 3 <= 60
