"""Release gate: the package's numbered acceptance criteria.

Each criterion is asserted at its stated tolerance, with wall-clock limits
where the criterion carries one. The conftest hook prints a one-line
PASS/FAIL verdict per criterion after the run. Criterion 1 is parametrized
per table cell so a single divergent cell is visible by name.
"""

import contextlib
import io
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import cantorflip as cf
from cantorflip.cli import main

# published comparison table at r = 1/3, p = 1/m: m -> (lower, dim_Fm, upper)
TABLE1_GOLDEN = {
    2: (0.631, 0.631, 0.631),
    3: (0.535, 0.438, 0.618),
    4: (0.428, 0.438, 0.599),
    6: (0.296, 0.438, 0.569),
    7: (0.256, 0.348, 0.557),
    14: (0.130, 0.348, 0.503),
    15: (0.121, 0.293, 0.498),
    # dim_Fm corrected from 0.256, the m=31..62 value; see test_detfrac.py::TestBruteForceTree
    30: (0.061, 0.293, 0.450),
}
COLUMNS = ("lower", "dim_Fm", "upper")


@pytest.fixture(scope="module")
def table1_run():
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(["table1"])
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = {}
    lines = buf.getvalue().strip().splitlines()
    for line in lines[1:]:
        fields = line.split(",")
        m = int(fields[0])
        rows[m] = {
            "lower": float(fields[2]),
            "dim_Fm": float(fields[3]),
            "upper": float(fields[4]),
        }
    return rows, elapsed


@pytest.mark.acceptance(criterion=1, label="comparison table to +/-0.0005, < 1 s")
@pytest.mark.parametrize(
    "m,column",
    [(m, c) for m in TABLE1_GOLDEN for c in COLUMNS],
    ids=[f"m{m}-{c}" for m in TABLE1_GOLDEN for c in COLUMNS],
)
def test_criterion1_table_cell(table1_run, m, column):
    rows, _ = table1_run
    got = rows[m][column]
    want = TABLE1_GOLDEN[m][COLUMNS.index(column)]
    assert got == pytest.approx(want, abs=5e-4), (
        f"table cell m={m} {column}: computed {got:.6f}, reference {want}"
    )


@pytest.mark.acceptance(criterion=1, label="comparison table to +/-0.0005, < 1 s")
def test_criterion1_runtime(table1_run):
    _, elapsed = table1_run
    assert elapsed < 1.0


@pytest.mark.acceptance(criterion=2, label="threshold pair 1.9886 / 5.1087 to 1e-4")
def test_criterion2_thresholds():
    p = cf.ProbVector((0.05, 0.2, 0.75))
    assert cf.entropy_threshold(p) == pytest.approx(1.9886, abs=1e-4)
    assert cf.geometric_threshold(p) == pytest.approx(5.1087, abs=1e-4)


@pytest.mark.acceptance(criterion=3, label="recursion = enumeration oracle to 1e-12")
def test_criterion3_oracle_equivalence():
    start = time.perf_counter()
    vectors = [cf.ProbVector((0.5, 0.5)), cf.ProbVector((0.3, 0.7))]
    words = [
        (s1, s2, s3)[:length]
        for length in (1, 2, 3)
        for s1 in (1, 2)
        for s2 in (1, 2)
        for s3 in (1, 2)
    ]
    checked = set()
    for p in vectors:
        for w in words:
            if (p.values, w) in checked:
                continue
            checked.add((p.values, w))
            fast = cf.a_probability(w, p, 2)
            oracle = cf.brute_force_a(w, p, 2)
            assert abs(fast - float(oracle)) < 1e-12, (p.values, w)
    assert time.perf_counter() - start < 10.0


@pytest.mark.acceptance(criterion=4, label="pi sandwich, pi_200 limit, gamma residual")
def test_criterion4_pi_properties():
    pi = cf.pi_sequence(2, 2, 10**4)
    for n in range(1, 10**4 + 1):
        assert 1.0 / (1 + n) <= pi[n] <= 4.0 / (4 + n), n
    pi23 = cf.pi_sequence(2, 3, 200)
    assert abs(pi23[200] - (3 - math.sqrt(5))) < 1e-8
    for N, M in [(2, 3), (2, 4), (3, 5), (4, 6)]:
        g = cf.gamma_fixed_point(N, M)
        assert abs((1 - (1 - g / N) ** M) - g) < 1e-12


@pytest.mark.acceptance(criterion=5, label="lambda root and bound order on 1000 draws")
def test_criterion5_lambda_phi_properties():
    rng = np.random.default_rng(20260822)
    checked = 0
    while checked < 1000:
        N = int(rng.integers(2, 5))
        M = int(rng.integers(2, 7))
        raw = rng.uniform(0.05, 1.0, size=N)
        p = cf.ProbVector(tuple(raw / raw.sum()))
        if cf.sandwich_check(p, M).status != "within":
            continue
        root = cf.solve_lambda(p, M)
        if not root.degenerate:
            g = sum(q**root.value * math.log(M * q) for q in p.values)
            assert abs(g) < 1e-12, (p.values, M)
        val = cf.phi(p, M, root.value)
        assert val <= min(math.log(M), math.log(N)) + 1e-12, (p.values, M)
        for r in (0.9 / N, 1.0 / N):
            assert cf.lower_bound(p, M, r) <= cf.upper_bound(p, M, r) + 1e-12
        checked += 1
    # two-label sweep: same ordering on a deterministic grid
    for i in range(1, 99):
        p = cf.ProbVector((i / 99, 1 - i / 99))
        for M in (2, 3, 5):
            assert cf.lower_bound(p, M, 1 / 3) <= cf.upper_bound(p, M, 1 / 3) + 1e-12


@pytest.mark.acceptance(criterion=6, label="log bound growth within 0.01 of phi")
def test_criterion6_bound_growth_rate():
    start = time.perf_counter()
    p = cf.ProbVector((1 / 3, 2 / 3))
    n = 2000
    log_bound = cf.multinomial_bound(p, 2, n, log=True)
    lam = cf.solve_lambda(p, 2).value
    target = cf.phi(p, 2, lam)
    assert abs(log_bound / n - target) < 0.01
    assert time.perf_counter() - start < 5.0


@pytest.mark.acceptance(criterion=7, label="mean Z_8 within 3 SE; pooled dim 0.631 +/- 0.03")
def test_criterion7_monte_carlo_calibration():
    start = time.perf_counter()
    spec = cf.canonical_spec(2, 1 / 3)
    p = cf.ProbVector((0.5, 0.5))
    stats = cf.run_trials(spec, p, 2, 8, 10**4, master_seed=20260822)
    target = 2**8 * cf.pi_sequence(2, 2, 8)[8]
    se = math.sqrt(stats.z_var[8] / stats.trials)
    assert abs(stats.z_mean[8] - target) < 3 * se
    pooled = cf.run_trials(spec, p, 2, 20, 50, master_seed=31337)
    est = cf.estimate_dim(pooled.z_union, 1 / 3, (10, 20))
    assert abs(est - 0.631) < 0.03
    assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance(criterion=8, label="word-set identities for m in 3..14, n <= 12")
def test_criterion8_deterministic_suite():
    start = time.perf_counter()
    for m in range(3, 15):
        L = cf.level_of(m)
        for n in range(1, 13):
            tw = cf.tree_words(m, n)
            assert np.array_equal(tw, cf.graph_words(m, n)), (m, n)
            shift = set(map(tuple, cf.sft_words(L, n).tolist()))
            assert set(map(tuple, tw.tolist())) <= shift, (m, n)
    assert cf.tree_words(3, 3).tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert abs(cf.rho(1) - (1 + math.sqrt(5)) / 2) < 1e-10
    for L in range(1, 5):
        lo, hi = 2 ** (L + 1) - 1, 2 ** (L + 2) - 2
        values = {round(cf.dim_Fm(m, 1 / 3), 12) for m in range(lo, min(hi, 62) + 1)}
        assert len(values) == 1, L
    assert time.perf_counter() - start < 20.0


@pytest.mark.acceptance(criterion=9, label="simulated Z law matches enumeration, TV < 0.01")
@pytest.mark.parametrize(
    "exact_p",
    [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))],
    ids=["half", "third"],
)
def test_criterion9_distributional(exact_p):
    depth = 3
    trials = 10**5
    p = cf.ProbVector(tuple(float(q) for q in exact_p))
    hists = cf.z_distribution(p, 2, depth, trials, master_seed=424242)
    law = cf.enumerate_z_distribution(exact_p, 2, depth)
    for level in range(1, depth + 1):
        total = sum(hists[level].values())
        assert total == trials
        support = set(hists[level]) | set(law[level])
        tv = 0.5 * sum(
            abs(hists[level].get(z, 0) / total - float(law[level].get(z, 0)))
            for z in support
        )
        assert tv < 0.01, (exact_p, level, tv)


@pytest.mark.acceptance(criterion=9, label="simulated Z law matches enumeration, TV < 0.01")
def test_criterion9_distributional_three_letters():
    # N = M = 3: the split's ratios 3/5 and 3/4 are drawn flipped, and the
    # second column sees zero remainders. Over seeds 0..29 the worst level's
    # TV read 0.0008-0.0045 (median 0.0026); this seed reads 0.0031.
    exact_p = (Fraction(3, 5), Fraction(3, 10), Fraction(1, 10))
    depth = 2
    trials = 10**5
    p = cf.ProbVector(tuple(float(q) for q in exact_p))
    hists = cf.z_distribution(p, 3, depth, trials, master_seed=424242)
    law = cf.enumerate_z_distribution(exact_p, 3, depth)
    for level in range(1, depth + 1):
        total = sum(hists[level].values())
        assert total == trials
        support = set(hists[level]) | set(law[level])
        tv = 0.5 * sum(
            abs(hists[level].get(z, 0) / total - float(law[level].get(z, 0)))
            for z in support
        )
        assert tv < 0.01, (level, tv)
