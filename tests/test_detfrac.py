"""Deterministic every-m-th-edge construction and its three word views.

The same level-n word set is produced three ways: by labeling actual tree
edges (tree_words), by walking the mod-m successor digraph (graph_words),
and by the gap-constraint shift (sft_words, a superset in general). The
tests pin small cases exactly and cross-check the views against each other.
"""

import itertools
import math

import numpy as np
import pytest

from cantorflip import (
    DeterministicSpec,
    dim_Fm,
    dimension_rows,
    dump_words,
    graph_words,
    level_of,
    rho,
    sft_count,
    sft_words,
    tree_words,
)
from cantorflip import detfrac
from cantorflip.detfrac import _determinize
from cantorflip.errors import BudgetError

GOLDEN = (1 + math.sqrt(5)) / 2


class TestLevelOf:
    def test_blocks(self):
        assert [level_of(m) for m in (3, 6, 7, 14, 15, 30, 31, 62)] == [
            1, 1, 2, 2, 3, 3, 4, 4,
        ]

    def test_block_boundaries(self):
        # block L covers 2^(L+1)-1 .. 2^(L+2)-2
        for L in range(1, 6):
            lo, hi = 2 ** (L + 1) - 1, 2 ** (L + 2) - 2
            assert level_of(lo) == L
            assert level_of(hi) == L
            assert level_of(hi + 1) == L + 1

    def test_domain(self):
        with pytest.raises(ValueError):
            level_of(2)
        with pytest.raises(ValueError):
            level_of(0)


class TestRho:
    def test_golden_ratio(self):
        assert rho(1) == pytest.approx(GOLDEN, abs=1e-10)

    def test_known_roots(self):
        assert rho(2) == pytest.approx(1.4655712318767682, abs=1e-12)
        assert rho(3) == pytest.approx(1.380277569097614, abs=1e-12)
        assert rho(4) == pytest.approx(1.3247179572447458, abs=1e-12)

    def test_defining_equation(self):
        for L in range(1, 9):
            x = rho(L)
            assert abs(x ** (L + 1) - x**L - 1) < 1e-12

    def test_returns_for_every_l_to_1099(self):
        # an absolute residual bound of 1e-13 raised from L = 426 on: the
        # residual is rounding in terms of size x^(L+1), and is checked relative to it
        for L in range(1, 1100):
            x = rho(L)
            assert 1.0 < x < 2.0
            assert abs(x ** (L + 1) - x**L - 1.0) < 1e-13 * x ** (L + 1), L

    def test_decreasing_in_l(self):
        values = [rho(L) for L in range(1, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(1 < v < 2 for v in values)


class TestDimFm:
    def test_full_set_at_m2(self):
        # marking every 2nd edge still codes the whole construction
        assert dim_Fm(2, 1 / 3) == pytest.approx(math.log(2) / math.log(3), abs=1e-14)

    def test_table_values(self):
        assert dim_Fm(3, 1 / 3) == pytest.approx(0.4380178794859424, abs=1e-12)
        assert dim_Fm(7, 1 / 3) == pytest.approx(0.34793447131694316, abs=1e-12)
        assert dim_Fm(15, 1 / 3) == pytest.approx(0.29335609959519754, abs=1e-12)

    def test_constant_on_blocks(self):
        for L in range(1, 5):
            lo, hi = 2 ** (L + 1) - 1, 2 ** (L + 2) - 2
            block = {round(dim_Fm(m, 1 / 3), 14) for m in range(lo, hi + 1)}
            assert len(block) == 1

    def test_strictly_decreasing_across_blocks(self):
        vals = [dim_Fm(m, 1 / 3) for m in (2, 3, 7, 15, 31, 62)]
        assert vals[-1] == vals[-2]  # 31 and 62 share a block
        assert all(a > b for a, b in zip(vals[:-1], vals[1:-1]))


class TestWordSets:
    def test_small_tree_words(self):
        assert tree_words(3, 1) == {(0,)}
        assert tree_words(3, 3) == {(0, 0, 0), (0, 0, 1), (0, 1, 0)}
        assert tree_words(6, 2) == {(0, 0), (0, 1)}

    def test_accepts_spec_or_int(self):
        assert tree_words(DeterministicSpec(6), 2) == tree_words(6, 2)

    def test_tree_equals_graph_spot(self):
        for m in (3, 5, 6, 9, 13):
            for n in (1, 4, 7):
                assert tree_words(m, n) == graph_words(m, n)

    def test_tree_within_sft_spot(self):
        for m in (3, 7, 14):
            L = level_of(m)
            for n in (4, 8):
                assert tree_words(m, n) <= sft_words(L, n)

    @pytest.mark.parametrize("m", [1000, 2047, 2048, 4000, 9999])
    def test_identities_for_m_in_the_thousands(self, m):
        # criterion 8's identities (tree = graph, within the shift) past its m <= 14:
        # 2047 opens the L = 10 block, 2048 is a power of two, 9999 the most residues
        L = level_of(m)
        for n in range(24, 31):
            words = tree_words(m, n)
            assert words, (m, n)
            assert words == graph_words(m, n), (m, n)
            assert words <= sft_words(L, n), (m, n)

    def test_sft_small_cases(self):
        assert sft_words(1, 3) == {(0, 0, 0), (0, 0, 1), (0, 1, 0)}
        # head of min(L, n) zeros is forced
        assert sft_words(2, 4) == {(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)}

    def test_sft_gap_constraint(self):
        for w in sft_words(2, 8):
            ones = [i for i, s in enumerate(w) if s == 1]
            assert all(b - a > 2 for a, b in zip(ones, ones[1:]))
            assert not ones or ones[0] >= 2

    def test_sft_count_is_fibonacci_for_l1(self):
        fib = [1, 1]
        while len(fib) < 30:
            fib.append(fib[-1] + fib[-2])
        # count(1, n) = F_{n+1} with this indexing
        for n in range(1, 29):
            assert sft_count(1, n) == fib[n]
        assert sft_count(1, 28) == 514229

    def test_sft_words_matches_count(self):
        for L in (1, 2, 3):
            for n in (2, 5, 9):
                assert len(sft_words(L, n)) == sft_count(L, n)

    def test_budget(self):
        with pytest.raises(BudgetError):
            sft_words(1, 40)

    def test_offset_changes_words_not_count_scaling(self):
        base = tree_words(DeterministicSpec(5), 4)
        shifted = tree_words(DeterministicSpec(5, offset=1), 4)
        assert base != shifted  # same construction, different phase


def brute_force_counts(m: int, n: int, offset: int | None = None) -> tuple[list[int], np.ndarray]:
    """Distinct-word counts for levels 1..n and the level-n words, from the tree itself.

    Edges get a running breadth-first index, level by level; the edge at
    index e is marked (symbol 1) iff e mod m is the offset (default m-1).
    Each path's word is kept as an integer code with the first symbol most
    significant, and the two children of a level's j-th edge are the next
    level's edges 2j and 2j+1, so every one of the 2^n paths is built
    explicitly.
    """
    marked = m - 1 if offset is None else offset
    codes = np.zeros(1, dtype=np.int64)
    distinct = codes
    start = 0
    counts = []
    for k in range(1, n + 1):
        index = start + np.arange(1 << k, dtype=np.int64)
        start += 1 << k
        codes = np.repeat(codes, 2) * 2 + (index % m == marked)
        distinct = np.unique(codes)
        counts.append(len(distinct))
    return counts, distinct


class TestBruteForceTree:
    """The every-m-th-edge construction checked against the literal tree.

    Nothing here generates words through tree_words, graph_words, level_of
    or rho; those are only the values under test.
    """

    BLOCKS = {1: range(3, 7), 2: range(7, 15), 3: range(15, 31), 4: range(31, 63)}

    def test_count_sequences_split_into_blocks(self):
        by_sequence: dict[tuple[int, ...], list[int]] = {}
        for m in range(3, 63):
            counts, _ = brute_force_counts(m, 16)
            by_sequence.setdefault(tuple(counts), []).append(m)
        assert sorted(by_sequence.values()) == [list(b) for b in self.BLOCKS.values()]
        for L, block in self.BLOCKS.items():
            assert [level_of(m) for m in block] == [L] * len(block)

    def test_m30_is_in_the_m15_block(self):
        counts, codes = brute_force_counts(30, 16)
        assert counts == [sft_count(3, n) for n in range(1, 17)]
        words = {tuple(int(b) for b in format(int(c), "016b")) for c in codes}
        assert words == tree_words(30, 16)
        assert dim_Fm(30, 1 / 3) == dim_Fm(15, 1 / 3)

    def test_every_offset(self):
        # sft_words and graph_words model only the default offset m-1
        for m in range(2, 16):
            for offset in range(m):
                _, codes = brute_force_counts(m, 14, offset)
                words = {tuple(int(b) for b in format(int(c), "014b")) for c in codes}
                assert words == tree_words(DeterministicSpec(m, offset), 14), (m, offset)


class TestSubsetAutomaton:
    """Counts and growth of the one determinizer behind tree_words and graph_words.

    The oracles are sft_count's gap-state recursion and rho's root of
    x^(L+1) = x^L + 1; neither goes through the subset construction.
    """

    LARGE_M = (1000, 2047, 2048, 4000, 9999)
    # (start, successors, symbol) of tree_words and graph_words at offset m-1
    AUTOMATA = {
        "tree": lambda m: (
            frozenset({m - 1}), lambda c: ((2 * c + 2) % m, (2 * c + 3) % m), lambda c: c == m - 1
        ),
        "graph": lambda m: (
            frozenset({0}), lambda v: ((2 * v + 1) % m, (2 * v + 2) % m), lambda v: v == 0
        ),
    }

    @pytest.mark.parametrize("automaton", sorted(AUTOMATA))
    def test_count_at_level_300_is_the_shift_count(self, monkeypatch, automaton):
        monkeypatch.setattr(detfrac, "_STATE_CAP", math.inf)  # count far past the cap
        for m in [*range(3, 130), *self.LARGE_M]:
            _, counts = _determinize(*self.AUTOMATA[automaton](m), 300)
            assert sum(counts.values()) == sft_count(level_of(m), 300), m

    @pytest.mark.parametrize("words", [tree_words, graph_words])
    def test_word_budget_stops_at_first_level_over_cap(self, words):
        # no level holds fewer words than the one before, so the first level
        # over the cap refuses the request, however deep it asks
        for m in [*range(3, 130), *self.LARGE_M]:
            L = level_of(m)
            level = next(k for k in itertools.count(1) if sft_count(L, k) > 1 << 22)
            message = (
                rf"^{sft_count(L, level)} words at level {level} of 1000000, "
                r"over the cap of 4194304 set by _STATE_CAP$"
            )
            with pytest.raises(BudgetError, match=message):
                words(m, 10**6)

    @pytest.mark.parametrize("m", [3, 6, 7, 14, 15, 30, 31, 62, 63, 4000, 10**5])
    def test_spectral_radius_gives_dim_fm(self, monkeypatch, m):
        monkeypatch.setattr(detfrac, "_STATE_CAP", math.inf)
        rows, _ = _determinize(*self.AUTOMATA["graph"](m), 64)
        assert all(t in rows for row in rows.values() for _, t in row)  # closed under steps
        index = {state: i for i, state in enumerate(rows)}
        transfer = np.zeros((len(index), len(index)))
        for state, row in rows.items():
            for _, t in row:
                transfer[index[state], index[t]] += 1
        radius = max(abs(np.linalg.eigvals(transfer)))
        assert math.log(radius) / math.log(3) == pytest.approx(dim_Fm(m, 1 / 3), abs=1e-6)


def test_shift_budget_message():
    with pytest.raises(
        BudgetError,
        match=r"^165580141 words of length 40, over the cap of 1048576 set by _WORDS_CAP$",
    ):
        sft_words(1, 40)


@pytest.mark.parametrize("words", [tree_words, graph_words])
def test_residue_budget_message(monkeypatch, words):
    monkeypatch.setattr(detfrac, "_STATE_CAP", 1000)
    with pytest.raises(
        BudgetError,
        match=r"^1024 residues in 1 subset states at level 10 of 36, over the cap of 1000 set by _STATE_CAP$",
    ):
        words(4000, 36)



@pytest.mark.parametrize("words", [tree_words, graph_words])
def test_residue_cap_bounds_one_level(monkeypatch, words):
    # the states reached by level 16 hold 2418 residues, no level more than 1000
    monkeypatch.setattr(detfrac, "_STATE_CAP", 1000)
    _, codes = brute_force_counts(700, 16)
    assert words(700, 16) == {tuple(int(b) for b in format(int(c), "016b")) for c in codes}

class TestGrowth:
    def test_tree_word_growth_tracks_rho(self):
        ratio = len(tree_words(7, 16)) / len(tree_words(7, 15))
        assert ratio == pytest.approx(rho(2), abs=0.01)


class TestReporting:
    def test_dimension_rows(self):
        rows = dimension_rows((2, 3), 1 / 3)
        assert rows[0] == (2, None, None, pytest.approx(math.log(2) / math.log(3)))
        m, L, r1, d = rows[1]
        assert (m, L) == (3, 1)
        assert r1 == pytest.approx(GOLDEN, abs=1e-10)
        assert d == pytest.approx(0.4380178794859424, abs=1e-12)

    def test_dump_words_sorted_lines(self):
        text = dump_words(tree_words(3, 2))
        assert text == "00\n01\n"
