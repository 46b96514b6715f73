"""Simulator behavior: evolution invariants, seeding, and calibration.

Everything here is deterministic given the seeds baked into the tests, so
failures are reproducible bit for bit.
"""

import ctypes
import hashlib
import json
import math
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorflip import (
    IfsSpec,
    OccupancyMap,
    ProbVector,
    canonical_spec,
    energy_estimate,
    enumerate_z_distribution,
    estimate_dim,
    evolve,
    expected_zn,
    interval,
    pi_sequence,
    run_trials,
    z_distribution,
    z_n,
)
from cantorflip import stochastic
from cantorflip.errors import BudgetError

SYM = ProbVector((0.5, 0.5))
THIRDS_SPEC = canonical_spec(2, 1 / 3)


class TestProbVector:
    def test_accessors(self):
        p = ProbVector((0.3, 0.7))
        assert p.N == 2
        assert p.as_array().tolist() == [0.3, 0.7]

    def test_uniform(self):
        p = ProbVector.uniform(4)
        assert p.values == (0.25,) * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbVector((1.0,))
        with pytest.raises(ValueError):
            ProbVector((0.0, 1.0))  # entries must be interior
        with pytest.raises(ValueError):
            ProbVector((0.5, 0.6))


def _occupancy(M, entries):
    """An ``OccupancyMap`` whose rows are the label words of ``entries``, in dict order."""
    words = np.array(list(entries), dtype=np.int32).reshape(len(entries), -1)
    return OccupancyMap(M, words, np.array(list(entries.values()), dtype=np.int64))


def _assert_invariants(occ):
    """Rows are distinct, ascend as tuples and hold letters; counts sum to M^level."""
    rows = [tuple(w) for w in occ.words.tolist()]
    assert occ.words.dtype == np.int32 and occ.counts.dtype == np.int64
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert occ.words.size == 0 or occ.words.min() >= 1
    assert occ.counts.min() >= 1
    assert sum(occ.counts.tolist()) == occ.M**occ.level


class TestEvolve:
    def test_mass_conservation(self):
        rng = np.random.default_rng(3)
        occ = OccupancyMap.root(2)
        for level in range(1, 7):
            occ = evolve(occ, SYM, rng=rng)
            assert occ.level == level
            assert occ.words.shape == (z_n(occ), level)
            _assert_invariants(occ)

    def test_arity_three(self):
        rng = np.random.default_rng(4)
        occ = evolve(OccupancyMap.root(3), SYM, rng=rng)
        assert occ.counts.sum() == 3

    def test_root(self):
        occ = OccupancyMap.root(3)
        assert (occ.level, z_n(occ), occ.words.shape, occ.counts.tolist()) == (0, 1, (1, 0), [1])

    def test_z_monotone_and_capped(self):
        rng = np.random.default_rng(5)
        occ = OccupancyMap.root(2)
        prev_z = 1
        for level in range(1, 10):
            occ = evolve(occ, SYM, rng=rng)
            z = z_n(occ)
            assert prev_z <= z <= min(2 * prev_z, 2**level)
            prev_z = z

    def test_counts_overflow_guard(self):
        # level-62 map: the next level's M^n leaves the int64 range
        occ = _occupancy(2, {(1,) * 62: 2**62})
        message = (
            r"^M\^level = 9223372036854775808 paths at level 63, "
            r"over the cap of 9223372036854775807 set by _INT64_MAX$"
        )
        with pytest.raises(BudgetError, match=message):
            evolve(occ, SYM, rng=np.random.default_rng(0))

    def test_duplicated_or_unordered_rows_raise(self):
        words = np.array([[1, 1], [1, 2], [1, 2], [2, 1]], dtype=np.int32)
        counts = np.ones(4, dtype=np.int64)
        with pytest.raises(ValueError, match="row 2 is not above"):
            OccupancyMap(2, words, counts)  # a duplicated row
        with pytest.raises(ValueError, match="row 3 is not above"):
            OccupancyMap(2, words[[0, 1, 3, 2]], counts)  # (2, 1) before (1, 2)
        for entries in ({(2,): 1, (1,): 1}, {(1, 2): 2, (1, 1): 2}):  # descending rows
            with pytest.raises(ValueError, match="row 1 is not above"):
                _occupancy(2, entries)
        OccupancyMap(2, words[[0, 1, 3]], np.array([1, 1, 2]))  # distinct and ascending

    def test_bad_counts_shapes_and_arity_raise(self):
        with pytest.raises(ValueError, match="counts sum to 3, expected M\\^level = 2"):
            _occupancy(2, {(1,): 1, (2,): 2})
        with pytest.raises(ValueError, match="counts must be positive"):
            _occupancy(2, {(1,): 0, (2,): 2})
        with pytest.raises(ValueError, match="arity must be at least 2"):
            OccupancyMap(1, np.ones((1, 3), dtype=np.int32), np.ones(1, dtype=np.int64))
        with pytest.raises(ValueError, match="Z x level words"):
            OccupancyMap(2, np.ones(2, dtype=np.int32), np.ones(2, dtype=np.int64))
        with pytest.raises(ValueError, match="Z x level words"):
            OccupancyMap(2, np.ones((2, 1), dtype=np.int32), np.ones(3, dtype=np.int64))
        # three counts whose int64 sum wraps round to exactly M^level = 2
        big = (1 << 63) - 1
        counts = np.array([big, big, 4], dtype=np.int64)
        with pytest.raises(ValueError, match=f"counts sum to {2 * big + 4}"):
            OccupancyMap(2, np.array([[1], [2], [3]], dtype=np.int32), counts)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda N: st.lists(st.floats(0.05, 1.0), min_size=N, max_size=N)
        ),
        st.integers(2, 3),
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
    )
    def test_evolve_matches_dict_reference_property(self, weights, M, seed, levels):
        p = ProbVector(tuple(w / math.fsum(weights) for w in weights))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        occ = ref = OccupancyMap.root(M)
        for _ in range(levels):
            occ = evolve(occ, p, rng=rng)
            ref = _dict_evolve(ref, p, ref_rng)
            assert occ.words.tolist() == ref.words.tolist()
            assert occ.counts.tolist() == ref.counts.tolist()
            _assert_invariants(occ)


class TestRunTrials:
    def test_determinism(self):
        a = run_trials(THIRDS_SPEC, SYM, 2, 8, 300, master_seed=11)
        b = run_trials(THIRDS_SPEC, SYM, 2, 8, 300, master_seed=11)
        assert a == b

    def test_seed_changes_output(self):
        a = run_trials(THIRDS_SPEC, SYM, 2, 8, 300, master_seed=11)
        b = run_trials(THIRDS_SPEC, SYM, 2, 8, 300, master_seed=12)
        assert a != b

    def test_thread_count_is_invisible(self):
        a = run_trials(THIRDS_SPEC, SYM, 2, 8, 240, master_seed=5, threads=1)
        b = run_trials(THIRDS_SPEC, SYM, 2, 8, 240, master_seed=5, threads=4)
        assert a == b

    def test_level_zero_stats(self):
        s = run_trials(THIRDS_SPEC, SYM, 2, 4, 50, master_seed=1)
        assert s.z_mean[0] == 1.0
        assert s.z_var[0] == 0.0
        assert s.z_min[0] == s.z_max[0] == 1

    def test_union_dominates_max(self):
        s = run_trials(THIRDS_SPEC, SYM, 2, 6, 40, master_seed=2)
        for lvl in range(7):
            assert s.z_union[lvl] >= s.z_max[lvl]
            assert s.z_union[lvl] <= 2**lvl

    def test_mean_tracks_exact_expectation(self):
        # loose 4-sigma check on a non-uniform p, M=3
        p = ProbVector((1 / 3, 2 / 3))
        s = run_trials(THIRDS_SPEC, p, 3, 6, 3000, master_seed=8)
        exact = expected_zn(p, 3, 6)
        se = math.sqrt(s.z_var[6] / s.trials)
        assert abs(s.z_mean[6] - exact) < 4 * se

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            run_trials(THIRDS_SPEC, SYM, 2, 40, 10, master_seed=1)

    def test_single_trial_has_zero_variance(self):
        s = run_trials(THIRDS_SPEC, SYM, 2, 4, 1, master_seed=1)
        assert s.z_var == (0.0,) * 5

    def test_validation(self):
        with pytest.raises(ValueError):
            run_trials(THIRDS_SPEC, SYM, 2, 6, 0, master_seed=1)
        with pytest.raises(ValueError):
            run_trials(THIRDS_SPEC, ProbVector((0.5, 0.5)), 1, 6, 10, master_seed=1)


class TestZDistribution:
    def test_matches_enumeration_symmetric(self):
        hists = z_distribution(SYM, 2, 2, 60_000, master_seed=13)
        exact = enumerate_z_distribution((Fraction(1, 2), Fraction(1, 2)), 2, 2)
        for lvl in (1, 2):
            T = sum(hists[lvl].values())
            zs = set(hists[lvl]) | set(exact[lvl])
            tv = 0.5 * sum(
                abs(hists[lvl].get(z, 0) / T - float(exact[lvl].get(z, 0)))
                for z in zs
            )
            assert tv < 0.02

    def test_deterministic(self):
        assert z_distribution(SYM, 2, 3, 500, master_seed=3) == z_distribution(
            SYM, 2, 3, 500, master_seed=3
        )

    def test_support_is_sane(self):
        hists = z_distribution(SYM, 2, 3, 1000, master_seed=4)
        assert set(hists[1]) <= {1, 2}
        assert min(hists[3]) >= 1
        assert max(hists[3]) <= 8

    def test_runs_past_the_union_bitmap_cap(self):
        # N^13 = 2^26 words exceed the pooled-union cap, which only run_trials needs;
        # one trial's state is at most min(N, M)^13 = 2^13 words
        p = ProbVector.uniform(4)
        hists = z_distribution(p, 2, 13, 64, master_seed=6)
        for k, hist in enumerate(hists):
            assert sum(hist.values()) == 64
            assert 1 <= min(hist) and max(hist) <= 2**k
        with pytest.raises(BudgetError, match="_DENSE_STATE_CAP"):
            run_trials(canonical_spec(4, 0.2), p, 2, 13, 64, master_seed=6)

    def test_work_cap_counts_words_a_trial(self):
        # trials * N^18 = 2^36 is over _WORK_CAP, but the one trial holds at
        # most min(N, M)^18 = 2^18 words
        hists = z_distribution(ProbVector.uniform(4), 2, 18, 1, 0)
        assert [sum(hist.values()) for hist in hists] == [1] * 19


BUDGET_MESSAGES = {
    "int64 path counts": (
        lambda: z_distribution(SYM, 1 << 32, 2, 1, 0),
        r"M\^depth = 18446744073709551616 paths a trial, "
        r"over the cap of 9223372036854775807 set by _INT64_MAX",
    ),
    "trial state": (
        lambda: z_distribution(SYM, 2, 25, 1, 0),
        r"min\(N, M\)\^depth = 33554432 words a trial, "
        r"over the cap of 16777216 set by _TRIAL_STATE_CAP",
    ),
    "int64 word codes": (
        lambda: z_distribution(ProbVector.uniform(1000), 2, 7, 1, 0),
        r"N\^depth = 10{21} word codes a trial, "
        r"over the cap of 9223372036854775807 set by _INT64_MAX",
    ),
    "union bitmap": (
        lambda: run_trials(canonical_spec(4, 0.2), ProbVector.uniform(4), 2, 13, 1, 0),
        r"N\^depth = 67108864 words a pooled-union bitmap, "
        r"over the cap of 16777216 set by _DENSE_STATE_CAP",
    ),
    "work": (
        lambda: run_trials(THIRDS_SPEC, SYM, 2, 20, 1 << 15, 0),
        r"trials \* min\(N, M\)\^depth = 34359738368, over the cap of 17179869184 set by _WORK_CAP",
    ),
    # past cap^2 a size prints as base^exp: 2**20000 has more digits than
    # Python converts to a string
    "deep run_trials": (
        lambda: run_trials(THIRDS_SPEC, SYM, 2, 20000, 1, 0),
        r"M\^depth = 2\^20000 paths a trial, "
        r"over the cap of 9223372036854775807 set by _INT64_MAX",
    ),
    "deep z_distribution": (
        lambda: z_distribution(SYM, 2, 20000, 1, 0),
        r"M\^depth = 2\^20000 paths a trial, "
        r"over the cap of 9223372036854775807 set by _INT64_MAX",
    ),
}


@pytest.mark.parametrize("name", sorted(BUDGET_MESSAGES))
def test_budget_message_names_size_cap_and_constant(name):
    call, message = BUDGET_MESSAGES[name]
    with pytest.raises(BudgetError, match=message):
        call()


TRIAL_ENTRY_POINTS = {
    "run_trials": lambda M, seed: run_trials(THIRDS_SPEC, SYM, M, 3, 5, seed),
    "z_distribution": lambda M, seed: z_distribution(SYM, M, 3, 5, seed),
}


@pytest.mark.parametrize("entry", sorted(TRIAL_ENTRY_POINTS))
def test_trial_entry_points_check_arity_and_seed(entry):
    call = TRIAL_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=r"^arity must be at least 2, got 1$"):
        call(1, 0)
    with pytest.raises(ValueError, match=r"^master seed must be nonnegative, got -1$"):
        call(2, -1)


def _dense_block_z(rng, parr, M, depth, size, union):
    """Reference level loop over one block's dense size x N^k count arrays.

    Returns the per-trial Z, shape (depth + 1, size), and ORs each level's
    occupied words into ``union[k - 1]``. The occupied (trial, word) cells of
    each level are split in ascending index order, the order the sparse
    kernel keeps, so both consume a stream identically.
    """
    N = parr.shape[0]
    state = np.ones(size, dtype=np.int64)
    zs = [[1] * size]
    for k in range(depth):
        occupied = np.nonzero(state)[0]
        child = np.zeros(state.size * N, dtype=np.int64)
        splits = stochastic._multinomial_split(
            rng, M * state[occupied], parr, stochastic._Workspace()
        )
        child.reshape(state.size, N)[occupied, :] = splits
        state = child
        per_trial = state.reshape(size, -1) > 0
        zs.append(per_trial.sum(axis=1).tolist())
        union[k] |= per_trial.any(axis=0)
    return np.array(zs)


def _dict_evolve(occ, p, rng):
    """Reference level step over a dict of label-word tuples, row by row."""
    words = [tuple(w) for w in occ.words.tolist()]
    splits = stochastic._multinomial_split(
        rng, occ.M * occ.counts, p.as_array(), stochastic._Workspace()
    )
    entries = {}
    for i, w in enumerate(words):
        for l in range(p.N):
            c = int(splits[i, l])
            if c > 0:
                entries[w + (l + 1,)] = c
    return _occupancy(occ.M, entries)


def _inversion_limit(ratio):
    """Largest n that numpy inverts at ``ratio``: n*q <= 30, q = min(ratio, 1 - ratio)."""
    q = 1.0 - ratio if ratio > 0.5 else ratio
    n = np.arange(1000)
    return int(n[n * q <= 30.0].max())


def _binomial_pmf(n, ratio):
    return [math.comb(n, k) * ratio**k * (1.0 - ratio) ** (n - k) for k in range(n + 1)]


def _chi_square(sample, pmf):
    """Pearson statistic and degrees of freedom, tails pooled until each bin expects >= 5."""
    T = len(sample)
    observed = np.bincount(sample, minlength=len(pmf)).tolist()
    bins, obs, exp = [], 0, 0.0
    for o, q in zip(observed, pmf):
        obs, exp = obs + o, exp + T * q
        if exp >= 5.0:
            bins.append([obs, exp])
            obs, exp = 0, 0.0
    bins[-1][0] += obs
    bins[-1][1] += exp
    return sum((o - e) ** 2 / e for o, e in bins), len(bins) - 1


class _ScriptedUniforms:
    """A generator stand-in whose ``random`` calls return the given arrays in turn.

    Like ``Generator.random``, it takes a ``size`` or fills an ``out`` array;
    either must match the next scripted draw's length.
    """

    def __init__(self, *draws):
        self.draws = [np.asarray(d, dtype=np.float64) for d in draws]

    def random(self, size=None, out=None):
        u = self.draws.pop(0)
        if out is None:
            assert u.size == size
            return u
        assert size is None and u.size == out.size
        out[...] = u
        return out


_uint64_fn = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_uint32_fn = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_double_fn = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitgenT(ctypes.Structure):
    """numpy's ``bitgen_t``: a state pointer and the bit generator's output functions."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", _uint64_fn),
        ("next_uint32", _uint32_fn),
        ("next_double", _double_fn),
        ("next_raw", _uint64_fn),
    ]


_capsule_new = ctypes.PYFUNCTYPE(
    ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p
)(("PyCapsule_New", ctypes.pythonapi))


class _ScriptedBitGenerator:
    """A bit generator for ``np.random.Generator`` whose doubles are ``uniforms``, in order.

    ``Generator`` reads a ``bitgen_t`` from a capsule named "BitGenerator";
    here its ``next_double`` is a ctypes callback over the list and counts
    the doubles read in ``used``. The integer outputs are unused and read 0.
    """

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)
        self.used = 0

        def next_double(_state):
            self.used += 1
            return self.uniforms[self.used - 1]

        def unused(_state):
            return 0

        # the struct keeps the callbacks alive, and this object the struct and name
        self._bitgen = _BitgenT(
            None, _uint64_fn(unused), _uint32_fn(unused), _double_fn(next_double), _uint64_fn(unused)
        )
        self._name = b"BitGenerator"
        self.capsule = _capsule_new(ctypes.addressof(self._bitgen), self._name, None)
        self.lock = threading.Lock()


def _cdf_step_probes(ratio, ulps):
    """Rows n and uniforms ``ulps`` ulps either side of every CDF step of the table's rows.

    A probe within ``ulps`` ulps of a second step of its row is dropped, and
    so is one past the row's last step (a redraw, whose order differs from
    numpy's by design) or outside (0, 1).
    """
    table = stochastic._inversion_table(ratio)
    cdf = table.cdf.reshape(-1, 1 << table.shift)
    rows, probes = [], []
    for n in range(1, table.last + 1):
        steps = cdf[n][cdf[n] < 2.0].view(np.int64)  # positive doubles order as their bits
        bits = np.concatenate([steps - ulps, steps + ulps])
        near = np.searchsorted(steps, bits + ulps, "right") - np.searchsorted(steps, bits - ulps)
        u = bits[(near == 1) & (bits <= steps[-1])].view(np.float64)
        u = u[(u > 0.0) & (u < 1.0)]
        rows.append(np.full(u.size, n))
        probes.append(u)
    return np.concatenate(rows), np.concatenate(probes)


class TestBinomialSampler:
    @pytest.mark.parametrize(
        "ratio", [0.05, 0.1, 0.2, 0.25, 0.3, 1 / 3, 0.4, 0.5, 0.6, 2 / 3, 0.75, 0.9]
    )
    def test_agrees_with_numpy_away_from_its_cdf_steps(self, ratio):
        # numpy subtracts each pmf term from U where the table compares U with
        # their cumulative sum, and its first term may differ from math.exp's
        # by a few ulps, so its inversion thresholds sit up to a few hundred
        # ulps from the table's CDF steps; 512 ulps away the draws agree
        n, u = _cdf_step_probes(ratio, 512)
        assert u.size > 1000
        numpy_bits = _ScriptedBitGenerator(u)
        want = np.random.Generator(numpy_bits).binomial(n, ratio)
        assert numpy_bits.used == u.size  # no probe made numpy redraw
        got = stochastic._binomial(
            _ScriptedUniforms(u), n, ratio, np.empty_like(n), stochastic._Workspace()
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("ratio", [0.1, 1 / 3, 0.5, 0.7, 0.9])
    def test_matches_numpy_draw_for_draw_in_its_inversion_regime(self, ratio):
        limit = _inversion_limit(ratio)
        q = min(ratio, 1.0 - ratio)
        assert 29.5 < limit * q <= 30.0 < (limit + 1) * q  # n reaches the regime's edge
        shuffle = np.random.default_rng(limit)
        n = shuffle.permutation(np.repeat(np.arange(limit + 1, dtype=np.int64), 40))
        n = np.concatenate([[0, 0, limit], n, [limit, 1, 0]])
        ours, ref = np.random.default_rng(2024), np.random.default_rng(2024)
        got = stochastic._binomial(ours, n, ratio, np.empty_like(n), stochastic._Workspace())
        assert np.array_equal(got, ref.binomial(n, ratio))
        # the same uniforms were consumed: n = 0 entries draw none
        assert ours.random() == ref.random()

    def test_split_matches_sequential_numpy_binomials(self):
        # every entry inverted: the split is the old per-column rng.binomial loop
        p = np.array([0.6, 0.3, 0.1])  # ratios 0.6 and 0.75, both drawn flipped
        n = np.random.default_rng(5).integers(0, 40, 5000)
        got = stochastic._multinomial_split(np.random.default_rng(9), n, p, stochastic._Workspace())
        rng, rem, want = np.random.default_rng(9), n.copy(), []
        for ratio in (0.6, 0.3 / 0.4):
            want.append(rng.binomial(rem, ratio))
            rem = rem - want[-1]
        assert np.array_equal(got, np.stack(want + [rem], axis=1))

    @pytest.mark.parametrize(
        "ratio, ns",
        [
            # table rows, then n*q just past 30 (numpy's rejection sampler)
            (0.5, (40, 60, 61, 90)),
            (0.7, (50, 99, 100)),
            (0.9, (120, 300, 301)),
            # past the table's last row but inside numpy's inversion regime, and beyond it
            (0.05, (200, 300, 301, 450, 700)),
        ],
        ids=["half", "flipped-0.7", "flipped-0.9", "past-last-row"],
    )
    def test_mixed_call_matches_exact_pmf(self, ratio, ns):
        assert stochastic._TABLE_ROWS == 300  # the ns above straddle this row
        T = 20000
        n = np.random.default_rng(len(ns)).permutation(np.repeat(np.array(ns, dtype=np.int64), T))
        draws = stochastic._binomial(
            np.random.default_rng(77), n, ratio, np.empty_like(n), stochastic._Workspace()
        )
        for size in ns:
            stat, df = _chi_square(draws[n == size], _binomial_pmf(size, ratio))
            # about 6 sigma of a chi-square with df degrees of freedom
            assert stat < df + 6 * math.sqrt(2 * df), (ratio, size, stat, df)

    def test_uniform_past_the_last_cdf_step_is_redrawn(self):
        # numpy restarts its inversion when U passes the pmf mass up to bound_n
        table = stochastic._inversion_table(0.5)
        W = 1 << table.shift
        cdf = table.cdf.reshape(-1, W)
        ends = np.where(cdf < 2.0, cdf, -1.0).max(axis=1)
        top = 1.0 - 2.0**-53  # the largest uniform the generator returns
        n = int(np.flatnonzero(ends < top)[0])
        want = next(k for k, c in enumerate(np.cumsum(_binomial_pmf(n, 0.5))) if c >= 0.3)
        rng = _ScriptedUniforms([top], [0.3])
        out = np.empty(1, np.int64)
        got = stochastic._binomial(rng, np.array([n]), 0.5, out, stochastic._Workspace())
        assert got.tolist() == [want]
        assert rng.draws == []
        # the same column beside a zero and a fallback entry, in a used workspace
        ws = stochastic._Workspace()
        n_used = np.arange(1000)
        stochastic._binomial(np.random.default_rng(1), n_used, 0.5, np.empty_like(n_used), ws)
        rng = _ScriptedUniforms([top], [0.3])
        rng.binomial = lambda n, ratio: np.full(n.shape, -1)  # marks the fallback entries
        n3 = np.array([0, n, 1000])
        got = stochastic._binomial(rng, n3, 0.5, np.empty(3, np.int64), ws)
        assert got.tolist() == [0, want, -1]
        assert rng.draws == []

    def test_tables_are_built_on_first_draw_not_at_import(self):
        code = (
            "import cantorflip, cantorflip.cli\n"
            "from cantorflip import stochastic\n"
            "print(stochastic._inversion_table.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        assert out.stdout.split() == ["0"]


class TestKernelOracles:
    def test_sparse_kernel_matches_dense_loop_per_trial(self):
        # N = M = 2 at depth 19: 2^19 > _BLOCK_ENTRIES, so one trial a block
        N, M, depth, seed = 2, 2, 19, 99
        assert stochastic._BLOCK_ENTRIES // min(N, M) ** depth == 0
        parr = SYM.as_array()
        for t in range(3):
            union = [np.zeros(N ** (k + 1), dtype=bool) for k in range(depth)]
            want = _dense_block_z(stochastic._trial_rng(seed, t), parr, M, depth, 1, union)
            got, words = stochastic._block_z(parr, M, depth, seed, t, 1, stochastic._Workspace())
            assert np.array_equal(got, want)
            assert len(words) == got[depth, 0]
            # the deepest words, then every lower level as their prefixes
            level = np.zeros(N**depth, dtype=bool)
            level[words] = True
            for k in range(depth, 0, -1):
                assert np.array_equal(level, union[k - 1])
                level = level.reshape(-1, N).any(axis=1)

    @pytest.mark.parametrize(
        "p, M, depth, trials, seed",
        [
            # one trial a block: 2^19 > _BLOCK_ENTRIES
            ((0.5, 0.5), 2, 19, 4, 5),
            # blocks of B = 4 and B = 13 trials (N = M = 3), each run ending in a partial block
            ((0.2, 0.8), 2, 16, 10, 6),
            ((0.1, 0.3, 0.6), 3, 9, 20, 1),
            # the mc-shallow depth: 3 blocks of B = 1024 trials, the last of 952
            ((0.1, 0.9), 2, 8, 3000, 3),
            # N = 3, M = 2: min(N, M) = 2 sets B = 64, so all 20 trials fit one block
            ((0.1, 0.3, 0.6), 2, 12, 20, 1),
        ],
        ids=["B1-N2-depth19", "B4-N2-depth16", "B13-N3-depth9", "B1024-N2-depth8", "B64-N3-depth12"],
    )
    def test_run_trials_matches_dense_loop(self, p, M, depth, trials, seed):
        pv = ProbVector(p)
        s = _assert_trials_match_dense_blocks(pv, M, depth, trials, seed)
        assert s.z_union[depth] < pv.N**depth  # unsaturated, so every level's union is tested

    def test_thread_count_is_invisible_across_blocks(self):
        # depth 8 gives blocks of 1024 trials, so 3000 trials span 3 blocks
        runs = [
            run_trials(THIRDS_SPEC, SYM, 2, 8, 3000, master_seed=23, threads=k)
            for k in (1, 2, 3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_shared_union_survives_thread_switching(self):
        # depth 16 gives blocks of 4 trials: 12 blocks over 8 workers, all
        # storing into one union bitmap per level while threads switch often
        p = ProbVector((0.2, 0.8))
        serial = run_trials(THIRDS_SPEC, p, 2, 16, 48, master_seed=6)
        interval_ = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            pooled = run_trials(THIRDS_SPEC, p, 2, 16, 48, master_seed=6, threads=8)
        finally:
            sys.setswitchinterval(interval_)
        assert time.perf_counter() - start < 30.0
        assert pooled == serial
        assert serial.z_union[16] < 2**16  # unsaturated, so a lost store would show

    def test_z_distribution_histograms_the_run_trials_trials(self):
        p = ProbVector((0.3, 0.7))
        s = run_trials(THIRDS_SPEC, p, 3, 7, 1500, master_seed=41)
        hists = z_distribution(p, 3, 7, 1500, master_seed=41)
        for k, hist in enumerate(hists):
            assert sum(hist.values()) == 1500
            total = sum(z * c for z, c in hist.items())
            assert total / 1500 == s.z_mean[k]
            assert min(hist) == s.z_min[k]
            assert max(hist) == s.z_max[k]
            assert list(hist) == sorted(hist)

    def test_evolve_matches_dict_reference(self):
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        p = ProbVector((0.2, 0.3, 0.5))
        occ = ref = OccupancyMap.root(2)
        for _ in range(6):
            occ = evolve(occ, p, rng=rng)
            ref = _dict_evolve(ref, p, ref_rng)
            assert occ.words.tolist() == ref.words.tolist()
            assert occ.counts.tolist() == ref.counts.tolist()


def _assert_trials_match_dense_blocks(p, M, depth, trials, seed):
    """Each block, ``run_trials`` and ``z_distribution`` against ``_dense_block_z``.

    The dense loop runs block by block, each block on its own stream.
    Returns the ``run_trials`` stats.
    """
    N, parr = p.N, p.as_array()
    B = stochastic._block_trials(N, M, depth)
    union = [np.zeros(N ** (k + 1), dtype=bool) for k in range(depth)]
    zs = []
    for b, (got, words) in enumerate(stochastic._trial_blocks(p, M, depth, trials, seed, 1)):
        own = [np.zeros(N ** (k + 1), dtype=bool) for k in range(depth)]
        rng = stochastic._trial_rng(seed, b)
        zs.append(_dense_block_z(rng, parr, M, depth, min(B, trials - b * B), own))
        assert np.array_equal(got, zs[-1]), b
        assert np.array_equal(np.unique(words), np.flatnonzero(own[depth - 1])), b
        for u, o in zip(union, own):
            u |= o
    assert len(zs) == -(-trials // B)
    zs = np.concatenate(zs, axis=1)
    s = run_trials(canonical_spec(N, 1 / (N + 1)), p, M, depth, trials, master_seed=seed)
    assert s.z_mean == tuple(zs.sum(axis=1) / trials)
    assert s.z_min == tuple(zs.min(axis=1).tolist())
    assert s.z_max == tuple(zs.max(axis=1).tolist())
    assert s.z_union == (1,) + tuple(int(u.sum()) for u in union)
    hists = [dict(sorted(Counter(row).items())) for row in zs.tolist()]
    assert z_distribution(p, M, depth, trials, seed) == hists
    return s


# (p, M, depth, trials, seed) in run order: one trial a block (2^19 > _BLOCK_ENTRIES)
# and Z grows to about 90k entries, then blocks of B = 4 and B = 13 trials (N = M = 3)
# with smaller, then larger, levels, then N = 2, M = 3, p = (0.8, 0.2) with B = 512,
# whose split ratio 0.8 sends n > 150 paths to Generator.binomial; each run ends in a
# partial block
WORKSPACE_RUNS = [
    ((0.5, 0.5), 2, 19, 3, 5),
    ((0.2, 0.8), 2, 16, 10, 6),
    ((0.1, 0.3, 0.6), 3, 9, 20, 1),
    ((0.8, 0.2), 3, 9, 700, 2),
]


class TestWorkspace:
    def test_one_workspace_across_blocks_changes_no_result(self):
        ws = stochastic._Workspace()
        for p, M, depth, trials, seed in WORKSPACE_RUNS:
            pv = ProbVector(p)
            N, parr = pv.N, pv.as_array()
            B = stochastic._block_trials(N, M, depth)
            blocks = -(-trials // B)
            assert B == 1 or (blocks > 1 and trials % B)
            for b in range(blocks):
                size = min(B, trials - b * B)
                union = [np.zeros(N ** (k + 1), dtype=bool) for k in range(depth)]
                want = _dense_block_z(stochastic._trial_rng(seed, b), parr, M, depth, size, union)
                fresh, fresh_words = stochastic._block_z(
                    parr, M, depth, seed, b, size, stochastic._Workspace()
                )
                got, words = stochastic._block_z(parr, M, depth, seed, b, size, ws)
                assert np.array_equal(got, want)
                assert np.array_equal(fresh, want)
                assert np.array_equal(words, fresh_words)
                assert np.array_equal(np.unique(words), np.flatnonzero(union[depth - 1]))

    def test_fallback_column_in_the_kernel(self):
        # the last shape above really sends entries to Generator.binomial
        class Counting:
            def __init__(self, rng):
                self.rng, self.fallback = rng, 0

            def random(self, *args, **kwargs):
                return self.rng.random(*args, **kwargs)

            def binomial(self, n, ratio):
                self.fallback += n.size
                return self.rng.binomial(n, ratio)

        rng = Counting(stochastic._trial_rng(2, 0))
        ws = stochastic._Workspace()
        ws.array("codes", 1)[...] = 0
        ws.array("counts", 1)[...] = 1
        size = 1
        for _ in range(7):
            size = stochastic._step(rng, size, np.array([0.8, 0.2]), 3, ws)
        assert rng.fallback > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ordered_map_hands_each_worker_thread_one_workspace(self, workers):
        # the first two items wait for each other, so two workers really start
        meet = threading.Barrier(workers)
        seen = []

        def record(item, ws):
            if item < workers:
                meet.wait(timeout=30)
            seen.append((threading.get_ident(), ws))
            return item

        assert list(stochastic._ordered_map(record, range(50), workers)) == list(range(50))
        spaces = {id(ws): ws for _, ws in seen}
        owners = {(thread, id(ws)) for thread, ws in seen}
        assert len({thread for thread, _ in owners}) == len(spaces) == len(owners) == workers
        assert all(type(ws) is stochastic._Workspace for ws in spaces.values())

    @pytest.mark.parametrize("p, M, depth, trials, seed", WORKSPACE_RUNS[:3])
    def test_pooled_workers_match_serial(self, p, M, depth, trials, seed):
        pv = ProbVector(p)
        spec = canonical_spec(pv.N, 1 / (pv.N + 1))
        serial = run_trials(spec, pv, M, depth, trials, master_seed=seed)
        assert run_trials(spec, pv, M, depth, trials, master_seed=seed, threads=2) == serial

    @pytest.mark.parametrize("p, depth, size", [((0.5, 0.5), 18, 1), ((0.1, 0.3, 0.6), 12, 16)])
    def test_later_blocks_allocate_no_state_sized_array(self, p, depth, size):
        parr = ProbVector(p).as_array()
        ws = stochastic._Workspace()
        for b in range(3):  # warm: the workspace grows to the largest of these blocks
            stochastic._block_z(parr, 2, depth, 7, b, size, ws)
        tracemalloc.start()
        try:
            for b in range(3):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                _, words = stochastic._block_z(parr, 2, depth, 7, b, size, ws)
                transient = tracemalloc.get_traced_memory()[1] - before
                # one temporary of at most 64 KB at a time (a piece's indices), and
                # the state is too big to hide an array of its size under that bound
                assert transient <= 64 * 1024 + 4096, (b, transient)
                assert 8 * words.size > 3 * (64 * 1024 + 4096)
        finally:
            tracemalloc.stop()

    def test_run_trials_peak_memory_is_linear_in_the_largest_level(self):
        # traced peak <= C * 8 * max_k Z_k bytes + the N^depth union bitmap; the kernel
        # before the workspace peaked at C = 5.40 here (seeds 1, 2 and 7, 3-5 trials)
        C = 5.5
        depth = 18
        run_trials(THIRDS_SPEC, SYM, 2, 6, 1, 0)  # builds the cached inversion table
        for trials, seed in ((3, 1), (3, 2), (5, 7)):
            tracemalloc.start()
            try:
                s = run_trials(THIRDS_SPEC, SYM, 2, depth, trials, master_seed=seed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= C * 8 * max(s.z_max) + 2**depth, (seed, peak, max(s.z_max))


class TestBlocks:
    def test_level_steps_are_one_per_block_and_level(self, monkeypatch):
        streams = []
        step = stochastic._step

        def counted(rng, size, p, M, ws):
            streams.append(rng)  # held, so no two streams share an id
            return step(rng, size, p, M, ws)

        monkeypatch.setattr(stochastic, "_step", counted)
        # depth 8: 10 blocks of B = 1024 trials, the last of 784
        run_trials(THIRDS_SPEC, SYM, 2, 8, 10**4, master_seed=1)
        assert stochastic._block_trials(2, 2, 8) == 1024
        assert len(streams) == 8 * 10 == 80
        # each block's levels run on its one stream, a stream no other block draws from
        assert [len({id(rng) for rng in streams[i : i + 8]}) for i in range(0, 80, 8)] == [1] * 10
        assert len({id(rng) for rng in streams}) == 10
        # depth 20: one trial a block, and one step a level a trial
        streams.clear()
        run_trials(THIRDS_SPEC, SYM, 2, 20, 2, master_seed=1)
        assert stochastic._block_trials(2, 2, 20) == stochastic._block_trials(2, 2, 18) == 1
        assert len(streams) == 40 and len({id(rng) for rng in streams}) == 2

    def test_block_word_codes_fit_int64(self):
        # N = 15, M = 2 at depth 16: one trial a block, as 2 trials would code their words
        # as j*N^16 + word past 2^63; z_distribution keeps no N^depth union, so it runs
        # this shape, whose histograms the digest pins
        N, M, depth, trials = 15, 2, 16, 5
        assert stochastic._block_trials(N, M, depth) == 1
        assert N**depth <= stochastic._INT64_MAX < 2 * N**depth
        hists = z_distribution(ProbVector.uniform(N), M, depth, trials, 3)
        text = json.dumps([sorted(h.items()) for h in hists])
        digest = "c8dff73a0bf7d7d42b8356aeb524bb280c2e8618c2293607d4269a5ac2fa1563"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        # N = 100: the int64 cap, not _BLOCK_ENTRIES, sets B
        assert stochastic._block_trials(100, 2, 8) == 922 < stochastic._BLOCK_ENTRIES // 2**8
        assert stochastic._block_trials(100, 2, 9) == 9 == stochastic._INT64_MAX // 100**9

    def test_int64_capped_blocks_match_the_first_moment(self):
        # N = 100, M = 2 at depth 9: 12 blocks of B = 9 trials, the last of 1, as 10 trials
        # would code their words as j*N^9 + word past 2^63. The exact mean of Z_k is
        # N^k pi_k, from the recursion, which shares no code with the kernel
        N, M, depth, trials = 100, 2, 9, 100
        hists = z_distribution(ProbVector.uniform(N), M, depth, trials, 5)
        pi = pi_sequence(N, M, depth)
        for k, hist in enumerate(hists):
            assert sum(hist.values()) == trials
            mean = sum(z * c for z, c in hist.items()) / trials
            var = sum(c * (z - mean) ** 2 for z, c in hist.items()) / (trials - 1)
            se = math.sqrt(var / trials)
            assert abs(mean - N**k * pi[k]) <= 6 * se, (k, mean, N**k * pi[k], se)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_trial_loop_matches_dense_blocks_property(self, data):
        N = data.draw(st.integers(2, 4), label="N")
        M = data.draw(st.integers(2, 3), label="M")
        depth = data.draw(st.integers(1, 8), label="depth")
        weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=N, max_size=N))
        p = ProbVector(tuple(w / math.fsum(weights) for w in weights))
        # one to three blocks, with at most 10^4 trials and 2^21 cells in a dense block
        B = stochastic._block_trials(N, M, depth)
        trials = data.draw(st.integers(1, min(3 * B, 10**4, 2**21 // N**depth)), label="trials")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        _assert_trials_match_dense_blocks(p, M, depth, trials, seed)


# (p, M, depth, trials, seed): shapes that once advanced several blocks through each
# level together; now blocks of B = 1024 trials (depth 8, M = 2) and B = 2048 trials
# (depth 7, min(N, M) = 2), so the first run spans 2 blocks and the others one
BATCH_RUNS = [
    ((0.5, 0.5), 2, 8, 1100, 3),
    ((0.1, 0.3, 0.6), 2, 8, 900, 4),
    ((0.8, 0.2), 3, 7, 700, 2),
]


class TestBatches:
    @pytest.mark.parametrize("p, M, depth, trials, seed", BATCH_RUNS)
    def test_each_block_of_a_batch_matches_its_dense_loop(self, p, M, depth, trials, seed):
        pv = ProbVector(p)
        assert stochastic._block_trials(pv.N, M, depth) == stochastic._BLOCK_ENTRIES // 2**depth
        _assert_trials_match_dense_blocks(pv, M, depth, trials, seed)

    def test_thread_count_is_invisible_across_batches(self):
        # 3000 trials at depth 8: 3 blocks of B = 1024 trials, the last of 952
        runs = [run_trials(THIRDS_SPEC, SYM, 2, 8, 3000, master_seed=29, threads=k) for k in (1, 2)]
        assert runs[0] == runs[1]


class TestEstimateDim:
    def test_exact_powers_give_exact_dim(self):
        series = [2**n for n in range(11)]
        assert estimate_dim(series, 1 / 3, (4, 10)) == pytest.approx(
            math.log(2) / math.log(3), abs=1e-12
        )

    def test_window_validation(self):
        series = [2**n for n in range(6)]
        with pytest.raises(ValueError):
            estimate_dim(series, 1 / 3, (4, 4))  # need at least two points
        with pytest.raises(ValueError):
            estimate_dim(series, 1 / 3, (2, 9))  # window exceeds series
        with pytest.raises(ValueError):
            estimate_dim([1, 0, 4], 1 / 3, (0, 2))  # zero occupancy in window

    def test_calibration_on_pooled_runs(self):
        stats = run_trials(THIRDS_SPEC, SYM, 2, 14, 30, master_seed=21)
        est = estimate_dim(stats.z_union, 1 / 3, (7, 14))
        assert abs(est - math.log(2) / math.log(3)) < 0.05


def _full_matrix_energy(occ, spec, t):
    """The full-matrix pair sum the tiled sum replaced: every ordered pair."""
    entries = dict(zip(map(tuple, occ.words.tolist()), occ.counts.tolist()))
    words = sorted(entries)
    if len(words) < 2:
        return 0.0
    denominator = float(occ.M**occ.level)
    weights = np.asarray([entries[w] / denominator for w in words])
    mids = np.asarray([interval(spec, w).midpoint for w in words])
    total = 0.0
    block = 512
    for i0 in range(0, len(words), block):
        i1 = min(i0 + block, len(words))
        diff = np.abs(mids[i0:i1, None] - mids[None, :])
        rows = np.arange(i0, i1)
        diff[rows - i0, rows] = np.inf
        contrib = (weights[i0:i1, None] * weights[None, :]) * diff**-t
        total += float(contrib.sum())
    return total


def _double_loop_energy(occ, spec, t):
    mass = occ.M**occ.level
    items = [(interval(spec, w).midpoint, c / mass) for w, c in zip(occ.words.tolist(), occ.counts.tolist())]
    return math.fsum(
        wi * wj * abs(xi - xj) ** -t
        for i, (xi, wi) in enumerate(items)
        for j, (xj, wj) in enumerate(items)
        if i != j
    )


def _random_occupancy(N, level, Z, seed):
    """Z distinct level words of {1..N}^level with M = N and random counts."""
    rng = np.random.default_rng(seed)
    codes = rng.choice(N**level, size=Z, replace=False)
    counts = 1 + rng.multinomial(N**level - Z, np.full(Z, 1.0 / Z))
    order = np.argsort(codes)  # ascending codes give ascending words; each keeps its count
    words = [[int(d) + 1 for d in np.base_repr(c, N).zfill(level)] for c in codes[order]]
    return OccupancyMap(N, np.array(words, dtype=np.int32), counts[order])


_TILE = stochastic._PAIR_TILE
ENERGY_SPECS = {
    "canonical": (THIRDS_SPEC, 12),
    "reflected": (IfsSpec(2, 1 / 3, (0.0, 2 / 3), (1, -1)), 12),
    "uneven": (IfsSpec(3, 0.2, (0.05, 0.3, 0.8), (1, 1, 1)), 8),
}


class TestEnergy:
    @pytest.mark.parametrize("Z", [2, 3, 40, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1, 2999])
    @pytest.mark.parametrize("name", sorted(ENERGY_SPECS))
    def test_tiled_sum_matches_references(self, name, Z):
        spec, level = ENERGY_SPECS[name]
        occ = _random_occupancy(spec.N, level, Z, seed=Z)
        for t in (0.05, 0.5, 2.0):
            got = energy_estimate(occ, spec, t)
            assert got == pytest.approx(_full_matrix_energy(occ, spec, t), rel=1e-12)
            if Z <= 2 * _TILE + 1:
                assert got == pytest.approx(_double_loop_energy(occ, spec, t), rel=1e-12)

    @pytest.mark.parametrize("Z", [2, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1, 2999])
    @pytest.mark.parametrize("name", sorted(ENERGY_SPECS))
    def test_thread_count_is_invisible(self, name, Z):
        spec, level = ENERGY_SPECS[name]
        occ = _random_occupancy(spec.N, level, Z, seed=Z)
        for t in (0.05, 0.5, 2.0):
            serial = energy_estimate(occ, spec, t).hex()
            for threads in (2, 3, 4, 7):
                assert energy_estimate(occ, spec, t, threads=threads).hex() == serial

    def test_buffer_handoff_survives_thread_switching(self):
        # each worker reuses its own workspace's buffer for every tile it runs
        occ = _random_occupancy(2, 12, 1001, seed=3)
        serial = energy_estimate(occ, THIRDS_SPEC, 0.5).hex()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert energy_estimate(occ, THIRDS_SPEC, 0.5, threads=7).hex() == serial
        finally:
            sys.setswitchinterval(interval)

    def test_threads_below_one_raise(self):
        occ = _occupancy(2, {(1,): 1, (2,): 1})
        with pytest.raises(ValueError, match="threads must be at least 1"):
            energy_estimate(occ, THIRDS_SPEC, 0.5, threads=0)

    def test_workers_split_one_tile_sized_buffer(self):
        # the buffers of all workers together hold about _PAIR_TILE x Z doubles
        occ = _random_occupancy(2, 12, 2999, seed=2999)
        peaks = {}
        for threads in (1, 2):
            energy_estimate(occ, THIRDS_SPEC, 0.5, threads=threads)  # warm lazy set-up
            tracemalloc.start()
            try:
                energy_estimate(occ, THIRDS_SPEC, 0.5, threads=threads)
                peaks[threads] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1] > _TILE * 2999 * 8
        assert peaks[2] <= 1.05 * peaks[1] + 64 * 1024

    @pytest.mark.parametrize("name", ["canonical", "reflected"])
    def test_equal_midpoints_raise(self, name):
        # 3^-60 is below half an ulp of the midpoints near the right end
        spec = ENERGY_SPECS[name][0]
        occ = _occupancy(2, {(2,) * 59 + (1,): 2**59, (2,) * 60: 2**59})
        mids = interval(spec, occ.words).midpoint
        assert mids[0] == mids[1]
        message = r"^level 60 energy has two of its Z = 2 words at one midpoint double; lower the depth$"
        with pytest.raises(BudgetError, match=message):
            energy_estimate(occ, spec, 0.5)

    def test_two_interval_anchor(self):
        # intervals [0,1/3] and [2/3,1]: midpoints 1/6 and 5/6, weights 1/2
        occ = _occupancy(2, {(1,): 1, (2,): 1})
        t = 0.5
        expect = 2 * 0.25 * (2 / 3) ** (-t)
        assert energy_estimate(occ, THIRDS_SPEC, t) == pytest.approx(expect, rel=1e-12)

    def test_stays_bounded_below_dimension(self):
        from cantorflip import lower_bound

        t = 0.5 * lower_bound(SYM, 2, 1 / 3)
        rng = np.random.default_rng(11)
        occ = OccupancyMap.root(2)
        vals = []
        for lvl in range(1, 15):
            occ = evolve(occ, SYM, rng=rng)
            if lvl >= 6:
                vals.append(energy_estimate(occ, THIRDS_SPEC, t))
        # growth saturates well below a dimension-violating blowup
        assert max(vals) / min(vals) < 3.0

    def test_pair_budget(self):
        # 2^15 occupied words: 2^30 pairs exceed the 2^28 cap before any work
        import itertools

        words = np.array(list(itertools.product((1, 2), repeat=15)), dtype=np.int32)
        occ = OccupancyMap(2, words, np.ones(len(words), dtype=np.int64))
        with pytest.raises(BudgetError, match="_PAIR_CAP"):
            energy_estimate(occ, THIRDS_SPEC, 0.5)

    def test_single_interval_has_no_offdiagonal_energy(self):
        occ = _occupancy(2, {(1,): 2})
        assert energy_estimate(occ, THIRDS_SPEC, 0.5) == 0.0

    def test_one_interval_call_per_level(self, monkeypatch):
        calls = []

        def counting(spec, words):
            calls.append(np.shape(words))
            return interval(spec, words)

        monkeypatch.setattr(stochastic, "interval", counting)
        spec = ENERGY_SPECS["uneven"][0]
        p = ProbVector((0.2, 0.3, 0.5))
        rng = np.random.default_rng(4)
        occ = OccupancyMap.root(3)
        shapes = []
        for _ in range(7):
            occ = evolve(occ, p, rng=rng)
            energy_estimate(occ, spec, 0.5)
            if z_n(occ) >= 2:
                shapes.append((z_n(occ), occ.level))
        assert len(shapes) >= 5
        assert calls == shapes
        calls.clear()
        energy_estimate(_occupancy(2, {(1,): 2}), THIRDS_SPEC, 0.5)
        assert calls == []


def test_pi_calibration_depth8():
    """Mean Z_8 is an unbiased estimate of 2^8 * pi_8; check at 3 SE."""
    stats = run_trials(THIRDS_SPEC, SYM, 2, 8, 4000, master_seed=17)
    target = 2**8 * pi_sequence(2, 2, 8)[8]
    se = math.sqrt(stats.z_var[8] / stats.trials)
    assert abs(stats.z_mean[8] - target) < 3 * se
