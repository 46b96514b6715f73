"""Exact occupancy recursions against enumeration oracles.

Frozen values were produced once by exhaustive enumeration over all label
configurations of the truncated tree (`brute_force_a` in exact Fraction
mode) and are asserted here as plain constants.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cantorflip import (
    PiSequence,
    ProbVector,
    a_probability,
    brute_force_a,
    enumerate_z_distribution,
    expected_zn,
    gamma_fixed_point,
    multinomial_bound,
    pi_sequence,
)
from cantorflip import exact
from cantorflip.errors import BudgetError

SYM = ProbVector((0.5, 0.5))
SKEW = ProbVector((0.3, 0.7))
THIRDS = ProbVector((1 / 3, 2 / 3))


class TestAProbability:
    def test_single_letter_symmetric(self):
        # 1 - (1 - 1/2)^2
        assert a_probability((1,), SYM, 2) == pytest.approx(0.75, abs=1e-15)

    def test_two_letters_symmetric(self):
        assert a_probability((1, 1), SYM, 2) == pytest.approx(39 / 64, abs=1e-15)

    def test_depends_on_letter_order(self):
        # a is not symmetric in the word unless p is uniform
        a12 = a_probability((1, 2), SKEW, 2)
        a21 = a_probability((2, 1), SKEW, 2)
        assert a12 == pytest.approx(0.471471, abs=1e-12)
        assert a21 == pytest.approx(0.586551, abs=1e-12)
        assert abs(a12 - a21) > 0.1

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            a_probability((), SYM, 2)

    def test_fractional_symbol_rejected(self):
        # refused, not truncated to the word (1,)
        with pytest.raises(ValueError, match="label symbol 1.9 is not a whole number"):
            a_probability([1.9], SYM, 2)
        with pytest.raises(ValueError, match="label symbol 1.5 is not a whole number"):
            brute_force_a((1, 1.5), SYM, 2)
        assert a_probability([2.0], SKEW, 2) == a_probability((2,), SKEW, 2)

    def test_monotone_in_prefix(self):
        # extending a word can only make the event harder
        w = ()
        prev = 1.0
        for letter in (1, 2, 1, 1, 2):
            w = w + (letter,)
            cur = a_probability(w, SKEW, 2)
            assert cur <= prev + 1e-15
            prev = cur

    def test_uniform_word_matches_pi(self):
        pi = pi_sequence(2, 2, 6)
        for n in range(1, 7):
            assert a_probability((1,) * n, SYM, 2) == pytest.approx(pi[n], abs=1e-14)


class TestBruteForce:
    def test_exact_mode_returns_fraction(self):
        val = brute_force_a((1, 1), SYM, 2)
        assert val == Fraction(39, 64)

    def test_exact_mode_small_rationals(self):
        assert brute_force_a((1, 2), SKEW, 2) == Fraction(471471, 10**6)
        assert brute_force_a((1, 2, 1), SKEW, 2) == Fraction(32096681319591, 10**14)

    def test_arity_three(self):
        assert brute_force_a((1,), SYM, 3) == Fraction(7, 8)
        assert a_probability((1,), SYM, 3) == pytest.approx(0.875, abs=1e-15)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            brute_force_a((1,) * 30, SYM, 2)

    @pytest.mark.parametrize(
        "p, M", [(SYM, 2), (SKEW, 2), (SYM, 3), (SKEW, 3)], ids=["p0", "p1", "p0-M3", "p1-M3"]
    )
    def test_matches_recursion_length_two(self, p, M):
        words = [w for n in (1, 2) for w in itertools.product((1, 2), repeat=n)]
        for w in words:
            assert a_probability(w, p, M) == pytest.approx(
                float(brute_force_a(w, p, M)), abs=1e-13
            )


def _running_edge_index(M: int, depth: int) -> np.ndarray:
    """Edge index of every prefix of every path, from a running breadth-first count.

    Level k's edges take the next M^k indices, left to right, and the M
    children of a level's j-th edge are the next level's edges M*j..M*j+M-1,
    so every one of the M^depth paths is built explicitly, in lexicographic
    order.
    """
    edges = np.zeros((1, 0), dtype=np.int64)
    start = 0
    for k in range(1, depth + 1):
        index = start + np.arange(M**k, dtype=np.int64)
        start += M**k
        edges = np.column_stack([np.repeat(edges, M, axis=0), index])
    return edges


class TestPrefixEdgeIndices:
    def test_first_levels_binary(self):
        # level 1 holds edges 0-1, level 2 edges 2-5, level 3 edges 6-13
        table = exact._prefix_edge_indices(2, 3)
        assert table.tolist() == [
            [0, 2, 6], [0, 2, 7], [0, 3, 8], [0, 3, 9],
            [1, 4, 10], [1, 4, 11], [1, 5, 12], [1, 5, 13],
        ]

    @pytest.mark.parametrize("M", [2, 3, 4])
    def test_matches_running_edge_index(self, M):
        for depth in range(1, 5):
            np.testing.assert_array_equal(
                exact._prefix_edge_indices(M, depth), _running_edge_index(M, depth)
            )


class TestPiSequence:
    def test_known_prefix(self):
        pi = pi_sequence(2, 2, 3)
        assert pi[0] == 1.0
        assert pi[1] == 0.75
        assert pi[2] == pytest.approx(39 / 64, abs=1e-15)

    def test_container_protocol(self):
        pi = pi_sequence(2, 2, 10)
        assert isinstance(pi, PiSequence)
        assert len(pi) == 11
        assert list(pi)[0] == 1.0

    def test_sandwich_critical_case(self):
        # N=M=2 decays like 1/n, bracketed both sides
        pi = pi_sequence(2, 2, 2000)
        for n in (1, 10, 100, 1999):
            assert 1 / (1 + n) <= pi[n] <= 4 / (4 + n)

    def test_supercritical_limit(self):
        # M > N: bounded away from zero, converging to the fixed point
        pi = pi_sequence(2, 3, 200)
        gamma = gamma_fixed_point(2, 3)
        assert abs(pi[200] - gamma) < 1e-8
        assert pi[200] > 0.7

    def test_subcritical_decay(self):
        # M < N: geometric decay to 0
        pi = pi_sequence(3, 2, 60)
        assert pi[60] < (2 / 3) ** 55

    def test_validation(self):
        with pytest.raises(ValueError):
            pi_sequence(1, 2, 5)
        with pytest.raises(ValueError):
            pi_sequence(2, 2, -1)


class TestGammaFixedPoint:
    def test_closed_form_two_three(self):
        # fixed point of 1 - (1 - g/2)^3 is 3 - sqrt(5)
        assert gamma_fixed_point(2, 3) == pytest.approx(3 - math.sqrt(5), abs=1e-12)

    def test_degenerate_when_not_supercritical(self):
        assert gamma_fixed_point(2, 2) == 0.0
        assert gamma_fixed_point(3, 2) == 0.0

    def test_residual(self):
        for N, M in [(2, 3), (2, 4), (3, 4), (3, 6), (4, 5)]:
            g = gamma_fixed_point(N, M)
            assert abs((1 - (1 - g / N) ** M) - g) < 1e-12
            assert 0 < g < 1


class TestExpectedZn:
    def test_level_one(self):
        assert expected_zn(THIRDS, 2, 1) == pytest.approx(13 / 9, abs=1e-14)

    def test_symmetric_collapses_to_pi(self):
        # uniform p: E[Z_n] = N^n * pi_n
        pi = pi_sequence(2, 2, 8)
        for n in range(9):
            assert expected_zn(SYM, 2, n) == pytest.approx(2**n * pi[n], rel=1e-12)
        assert expected_zn(SYM, 2, 2) == pytest.approx(39 / 16, abs=1e-14)

    def test_monotone_nondecreasing(self):
        vals = [expected_zn(SKEW, 2, n) for n in range(12)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-12

    def test_bounded_by_branch_count(self):
        for n in range(10):
            assert expected_zn(THIRDS, 3, n) <= 3**n + 1e-9


class TestMultinomialBound:
    def test_level_one(self):
        # sum over splits of 2 paths between 2 labels, capped at 1
        assert multinomial_bound(THIRDS, 2, 1) == pytest.approx(5 / 3, abs=1e-14)

    def test_symmetric_saturates(self):
        # uniform p=1/2, M=2: every term caps, bound = 2^n
        assert multinomial_bound(SYM, 2, 6) == pytest.approx(64.0, abs=1e-10)

    def test_dominates_expectation(self):
        for n in range(1, 13):
            assert expected_zn(THIRDS, 2, n) <= multinomial_bound(THIRDS, 2, n) * (
                1 + 1e-12
            )

    def test_log_mode_consistent(self):
        for n in (1, 4, 9):
            v = multinomial_bound(THIRDS, 2, n)
            lv = multinomial_bound(THIRDS, 2, n, log=True)
            assert lv == pytest.approx(math.log(v), abs=1e-11)

    def test_value_mode_overflow(self):
        with pytest.raises(OverflowError):
            multinomial_bound(THIRDS, 2, 2000)
        # log mode handles the same size
        assert multinomial_bound(THIRDS, 2, 2000, log=True) > 0


class TestEnumerateDistribution:
    def test_depth_two_symmetric(self):
        dist = enumerate_z_distribution((Fraction(1, 2), Fraction(1, 2)), 2, 2)
        assert dist[1][1] == Fraction(1, 2)
        assert dist[1][2] == Fraction(1, 2)
        assert dist[2][4] == Fraction(1, 8)
        assert sum(dist[2].values()) == 1
        mean = sum(z * w for z, w in dist[2].items())
        assert mean == Fraction(39, 16)

    def test_mean_matches_expected_zn(self):
        probs = (Fraction(1, 3), Fraction(2, 3))
        p = ProbVector((1 / 3, 2 / 3))
        for M, depth in ((2, 3), (3, 2)):
            dist = enumerate_z_distribution(probs, M, depth)
            for n in range(1, depth + 1):
                mean = float(sum(z * w for z, w in dist[n].items()))
                assert mean == pytest.approx(expected_zn(p, M, n), rel=1e-12)

    def test_support_bounds(self):
        dist = enumerate_z_distribution((Fraction(1, 2), Fraction(1, 2)), 2, 3)
        for n in (1, 2, 3):
            zs = sorted(dist[n])
            assert zs[0] >= 1  # at least one interval always occupied
            assert zs[-1] <= 2**n

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            enumerate_z_distribution((Fraction(1, 2), Fraction(1, 3)), 2, 2)


HALVES = (Fraction(1, 2), Fraction(1, 2))
BUDGET_MESSAGES = {
    "word labelings": (
        lambda: brute_force_a((1,) * 5, SYM, 2),
        r"^N\^E = 2\^62 labelings to enumerate, over the cap of 16777216 set by _ENUM_CAP$",
    ),
    "level labelings": (
        lambda: enumerate_z_distribution(HALVES, 2, 5),
        r"^N\^E = 2\^62 labelings to enumerate, over the cap of 16777216 set by _ENUM_CAP$",
    ),
    "mask": (
        lambda: enumerate_z_distribution(HALVES, 2, 6),
        r"^N\^depth = 64 words in one mask, over the cap of 63 set by _MASK_BITS$",
    ),
    "level sum": (
        lambda: expected_zn(SYM, 2, 21),
        r"^N\^n = 2097152 words to sum, over the cap of 1048576 set by _WORD_CAP$",
    ),
    "pi steps": (
        lambda: pi_sequence(2, 3, exact._PI_CAP + 1),
        r"^n_max = 1000001 steps, over the cap of 1000000 set by _PI_CAP$",
    ),
    "compositions": (
        lambda: multinomial_bound(ProbVector.uniform(10), 2, 40),
        r"^2054455634 compositions to sum, over the cap of 500000 set by _COMPOSITION_CAP$",
    ),
    # past cap^2 a size prints as base^exp: 2**20000 has more digits than
    # Python converts to a string
    "deep level sum": (
        lambda: expected_zn(SYM, 2, 20000),
        r"^N\^n = 2\^20000 words to sum, over the cap of 1048576 set by _WORD_CAP$",
    ),
    "deep mask": (
        lambda: enumerate_z_distribution(HALVES, 2, 20000),
        r"^N\^depth = 2\^20000 words in one mask, over the cap of 63 set by _MASK_BITS$",
    ),
    # E = 2^(n+1) - 2 edges: past cap^2 E prints in closed form, and the
    # comparison never turns E into a float (2^1101 overflows one)
    "long word labelings": (
        lambda: brute_force_a((1,) * 1100, SYM, 2),
        r"^N\^E = 2\^\(2\^1101 - 2\) labelings to enumerate, over the cap of 16777216 set by _ENUM_CAP$",
    ),
    "very long word labelings": (
        lambda: brute_force_a((1,) * 15000, SYM, 2),
        r"^N\^E = 2\^\(2\^15001 - 2\) labelings to enumerate, over the cap of 16777216 set by _ENUM_CAP$",
    ),
    "ternary long word labelings": (
        lambda: brute_force_a((1,) * 1100, SYM, 3),
        r"^N\^E = 2\^\(\(3\^1101 - 3\)/2\) labelings to enumerate, over the cap of 16777216 set by _ENUM_CAP$",
    ),
}


@pytest.mark.parametrize("name", sorted(BUDGET_MESSAGES))
def test_budget_message_names_size_cap_and_constant(name):
    call, message = BUDGET_MESSAGES[name]
    with pytest.raises(BudgetError, match=message):
        call()


def test_labelings_cap_is_compared_exactly():
    # M = 12, depth 1 has E = 12 edges: 4^12 is the cap itself, 4^13 is over it
    assert exact._check_labelings(4, 12, 1) == 12
    with pytest.raises(BudgetError, match=r"^N\^E = 4\^13 labelings"):
        exact._check_labelings(4, 13, 1)
