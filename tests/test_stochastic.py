"""Simulator behavior: evolution invariants, seeding, and calibration.

Everything here is deterministic given the seeds baked into the tests, so
failures are reproducible bit for bit.
"""

import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from cantorflip import (
    IfsSpec,
    LabelSource,
    OccupancyMap,
    ProbVector,
    canonical_spec,
    energy_estimate,
    enumerate_z_distribution,
    estimate_dim,
    evolve,
    expected_zn,
    interval,
    measure,
    occupancy_from_source,
    pi_sequence,
    run_trials,
    tree_words,
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


class TestLabelSource:
    def test_periodic_marks_every_mth_edge(self):
        src = LabelSource.periodic(3)
        # default offset m-1: indices 2, 5, 8, ... carry the special label
        labels = [src.label(k) for k in range(9)]
        assert labels == [1, 1, 2, 1, 1, 2, 1, 1, 2]

    def test_periodic_custom_offset(self):
        src = LabelSource.periodic(4, offset=0)
        assert [src.label(k) for k in range(8)] == [2, 1, 1, 1, 2, 1, 1, 1]

    def test_periodic_validation(self):
        with pytest.raises(ValueError):
            LabelSource.periodic(1)
        with pytest.raises(ValueError):
            LabelSource.periodic(3, offset=3)

    def test_random_is_a_pure_function_of_seed_and_index(self):
        a = LabelSource.random(42, SYM)
        b = LabelSource.random(42, SYM)
        ks = [0, 1, 5, 1000, 10**12]
        assert [a.label(k) for k in ks] == [b.label(k) for k in ks]
        # and order of queries does not matter
        c = LabelSource.random(42, SYM)
        assert [c.label(k) for k in reversed(ks)] == [b.label(k) for k in reversed(ks)]

    def test_random_frequencies(self):
        src = LabelSource.random(7, ProbVector((0.2, 0.8)))
        labels = [src.label(k) for k in range(2000)]
        frac2 = labels.count(2) / 2000
        assert abs(frac2 - 0.8) < 0.03


class TestEvolve:
    def test_mass_conservation(self):
        rng = np.random.default_rng(3)
        occ = OccupancyMap.root(2)
        for level in range(1, 7):
            occ = evolve(occ, SYM, rng=rng)
            assert occ.level == level
            assert sum(occ.entries.values()) == 2**level
            assert all(len(w) == level for w in occ.entries)

    def test_arity_three(self):
        rng = np.random.default_rng(4)
        occ = evolve(OccupancyMap.root(3), SYM, rng=rng)
        assert sum(occ.entries.values()) == 3

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
        occ = OccupancyMap(62, 2, {(1,) * 62: 2**62})
        with pytest.raises(OverflowError):
            evolve(occ, SYM, rng=np.random.default_rng(0))

    def test_measure_normalises(self):
        rng = np.random.default_rng(6)
        occ = OccupancyMap.root(2)
        for _ in range(5):
            occ = evolve(occ, SYM, rng=rng)
        mu = measure(occ)
        assert sum(mu.weights.values(), Fraction(0)) == 1
        assert set(mu.weights) <= set(occ.entries)


class TestOccupancyFromSource:
    def test_matches_deterministic_words(self):
        occs = occupancy_from_source(LabelSource.periodic(3), 2, 3)
        got = {w for w, c in occs[3].entries.items() if c}
        want = {tuple(2 if s == 1 else 1 for s in w) for w in tree_words(3, 3)}
        assert got == want

    def test_level_zero_is_root(self):
        occs = occupancy_from_source(LabelSource.periodic(3), 2, 0)
        assert len(occs) == 1
        assert occs[0].entries == {(): 1}

    def test_budget(self):
        with pytest.raises(BudgetError):
            occupancy_from_source(LabelSource.periodic(3), 2, 17)

    def test_random_source_agrees_with_masses(self):
        occs = occupancy_from_source(LabelSource.random(9, SYM), 2, 6)
        for level, occ in enumerate(occs):
            assert sum(occ.entries.values()) == 2**level


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
        r"B \* N\^depth = 10{21} word codes a block, "
        r"over the cap of 9223372036854775807 set by _INT64_MAX",
    ),
    "union bitmap": (
        lambda: run_trials(canonical_spec(4, 0.2), ProbVector.uniform(4), 2, 13, 1, 0),
        r"N\^depth = 67108864 words a pooled-union bitmap, "
        r"over the cap of 16777216 set by _DENSE_STATE_CAP",
    ),
    "work": (
        lambda: run_trials(THIRDS_SPEC, SYM, 2, 20, 1 << 15, 0),
        r"trials \* N\^depth = 34359738368, over the cap of 17179869184 set by _WORK_CAP",
    ),
    "path walk": (
        lambda: occupancy_from_source(LabelSource.periodic(3), 2, 17),
        r"M\^depth = 131072 paths to walk, over the cap of 65536 set by _EXPLICIT_CAP",
    ),
}


@pytest.mark.parametrize("name", sorted(BUDGET_MESSAGES))
def test_budget_message_names_size_cap_and_constant(name):
    call, message = BUDGET_MESSAGES[name]
    with pytest.raises(BudgetError, match=message):
        call()


def _dense_trial_z(rng, parr, M, depth, union):
    """Reference per-trial level loop over dense N^k count arrays.

    The occupied words of each level are split in ascending index order, the
    order the sparse kernel keeps, so both consume a stream identically.
    """
    N = parr.shape[0]
    state = np.ones(1, dtype=np.int64)
    zs = [1]
    for k in range(depth):
        occupied = np.nonzero(state)[0]
        child = np.zeros(state.size * N, dtype=np.int64)
        splits = stochastic._multinomial_split(rng, M * state[occupied], parr)
        child.reshape(state.size, N)[occupied, :] = splits
        state = child
        zs.append(int(np.count_nonzero(state)))
        union[k] |= state > 0
    return zs


def _dict_evolve(occ, p, rng):
    """Reference level step over a dict of label-word tuples, in dict order."""
    words = list(occ.entries)
    counts = np.fromiter((occ.entries[w] for w in words), dtype=np.int64, count=len(words))
    splits = stochastic._multinomial_split(rng, occ.M * counts, p.as_array())
    entries = {}
    for i, w in enumerate(words):
        for l in range(p.N):
            c = int(splits[i, l])
            if c > 0:
                entries[w + (l + 1,)] = c
    return OccupancyMap(occ.level + 1, occ.M, entries)


class TestKernelOracles:
    def test_sparse_kernel_matches_dense_loop_per_trial(self):
        # N = M = 2 at depth 17: 2^17 > _BLOCK_ENTRIES, so one trial a block
        N, M, depth, seed = 2, 2, 17, 99
        assert stochastic._BLOCK_ENTRIES // min(N, M) ** depth == 0
        parr = SYM.as_array()
        for t in range(3):
            union = [np.zeros(N ** (k + 1), dtype=bool) for k in range(depth)]
            want = _dense_trial_z(stochastic._trial_rng(seed, t), parr, M, depth, union)
            got_union = [np.zeros(N ** (k + 1), dtype=bool) for k in range(depth)]
            got = stochastic._block_z(parr, M, depth, seed, t, 1, got_union)
            assert got[:, 0].tolist() == want
            for a, b in zip(got_union, union):
                assert np.array_equal(a, b)

    def test_run_trials_matches_dense_loop_at_one_trial_per_block(self):
        N, M, depth, trials, seed = 2, 2, 17, 4, 5
        union = [np.zeros(N ** (k + 1), dtype=bool) for k in range(depth)]
        zs = np.array(
            [
                _dense_trial_z(stochastic._trial_rng(seed, t), SYM.as_array(), M, depth, union)
                for t in range(trials)
            ]
        )
        s = run_trials(THIRDS_SPEC, SYM, M, depth, trials, master_seed=seed)
        assert s.z_mean == tuple(zs.sum(axis=0) / trials)
        assert s.z_min == tuple(zs.min(axis=0).tolist())
        assert s.z_max == tuple(zs.max(axis=0).tolist())
        assert s.z_union == (1,) + tuple(int(u.sum()) for u in union)

    def test_thread_count_is_invisible_across_blocks(self):
        # depth 8 gives blocks of 256 trials, so 1000 trials span 4 blocks
        runs = [
            run_trials(THIRDS_SPEC, SYM, 2, 8, 1000, master_seed=23, threads=k)
            for k in (1, 2, 3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_shared_union_survives_thread_switching(self):
        # depth 14 gives blocks of 4 trials: 12 blocks over 8 workers, all
        # storing into one union bitmap per level while threads switch often
        p = ProbVector((0.2, 0.8))
        serial = run_trials(THIRDS_SPEC, p, 2, 14, 48, master_seed=6)
        interval_ = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            pooled = run_trials(THIRDS_SPEC, p, 2, 14, 48, master_seed=6, threads=8)
        finally:
            sys.setswitchinterval(interval_)
        assert time.perf_counter() - start < 30.0
        assert pooled == serial
        assert serial.z_union[14] < 2**14  # unsaturated, so a lost store would show

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
            assert list(occ.entries.items()) == list(ref.entries.items())

    def test_evolve_keeps_dict_order_of_its_input(self):
        occ = OccupancyMap(1, 2, {(2,): 1, (1,): 1})
        got = evolve(occ, SYM, rng=np.random.default_rng(8))
        want = _dict_evolve(occ, SYM, np.random.default_rng(8))
        assert list(got.entries.items()) == list(want.entries.items())


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
    words = sorted(occ.entries.keys())
    if len(words) < 2:
        return 0.0
    denominator = float(occ.M**occ.level)
    weights = np.asarray([occ.entries[w] / denominator for w in words])
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
    items = [(interval(spec, w).midpoint, c / mass) for w, c in occ.entries.items()]
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
    words = [tuple(int(d) + 1 for d in np.base_repr(c, N).zfill(level)) for c in codes]
    return OccupancyMap(level, N, dict(zip(words, counts.tolist())))


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

    def test_two_interval_anchor(self):
        # intervals [0,1/3] and [2/3,1]: midpoints 1/6 and 5/6, weights 1/2
        occ = OccupancyMap(1, 2, {(1,): 1, (2,): 1})
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

        words = itertools.product((1, 2), repeat=15)
        occ = OccupancyMap(15, 2, dict.fromkeys(words, 1))
        with pytest.raises(BudgetError, match="_PAIR_CAP"):
            energy_estimate(occ, THIRDS_SPEC, 0.5)

    def test_single_interval_has_no_offdiagonal_energy(self):
        occ = OccupancyMap(1, 2, {(1,): 2})
        assert energy_estimate(occ, THIRDS_SPEC, 0.5) == 0.0


def test_pi_calibration_depth8():
    """Mean Z_8 is an unbiased estimate of 2^8 * pi_8; check at 3 SE."""
    stats = run_trials(THIRDS_SPEC, SYM, 2, 8, 4000, master_seed=17)
    target = 2**8 * pi_sequence(2, 2, 8)[8]
    se = math.sqrt(stats.z_var[8] / stats.trials)
    assert abs(stats.z_mean[8] - target) < 3 * se
