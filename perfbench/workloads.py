"""The benchmark's four workloads: operations, output checks and layer metrics.

An operation is one in-process ``cantorflip.cli.main(argv)`` call or one
public library call. Every random input (``--seed``/``master_seed``) is
derived from the workload seed; the program sees only the derived values.
Each operation has an output check that is seed-robust: a random workload's
gates hold on any seed, and a deterministic table is compared byte for byte
with a stored sha256.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import cantorflip.cli as cli
import cantorflip.stochastic as stochastic
from cantorflip.exact import pi_sequence
from cantorflip.ifs import canonical_spec

# Gate width in standard errors of the mean. At 6 sigma a two-sided normal
# gate is missed with probability about 2e-9 per check.
SIGMAS = 6.0
# The pooled-union estimate, against log 2/log 3 = 0.63093. At depth 8 from
# 10^4 trials the union is saturated and the estimate is exact; at depth 20
# from 50 trials it lay in [0.63079, 0.63093] over seeds 0..39 (numpy
# 2.4.6), so 0.005 is about 35 times the widest deviation seen.
ESTIMATE_TOL = 0.005
LOG2_LOG3 = math.log(2.0) / math.log(3.0)

# sha256 of the stdout of each `tables` operation. They pin today's output,
# including table1's m=30 dim_Fm = 0.2934; the test suite's own reference
# for that cell is neither restated nor overridden here.
TABLE_DIGESTS = {
    "zn-p2": "4bec48ffd385d1cc649e2ad2a7d29ce252419c2a68d4ac868716f7000636c4fc",
    "zn-p3": "1de8db35e588837307ed8202a0760da71e2892d5838ad3ae14873593cdca71b7",
    "pi": "ce86e6064b701c0fab38fee946f0b240c5fe6ba5cd2b0e9523d36bea59c7f4ac",
    "table1": "7fa09e236a6126dab8ac39cb51380026075b4b2651dddae21f1b40ac36f4a42c",
    "figure1": "e3c142c1a802d0611bbd8b09f0a1cefcc1a9a303109a22606a148da946b3dd7d",
    "det-m3": "0f99b43d0d940abc4c638a09e6d5714287ad508f116e02de80ef756694a2e099",
    "det-m4000": "0f51dacea9ad5f54144b870eed77df28dae140eed13448f2befd7192f3268784",
}


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` returns (exit code, output text)."""

    id: str
    root: str  # span name that times the whole operation
    run: Callable[[], tuple[int, str]]
    check: Callable[[str], list[str]]
    computed: Callable[[str], dict[str, int]]


def _no_counts(text: str) -> dict[str, int]:
    return {}


def derive_seeds(workload: str, seed: int, k: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(k)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the flags
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    return run


# -- mc-shallow / mc-deep ----------------------------------------------------

N_MC, M_MC = 2, 2


def _mean_gate(label: str, mean: float, var: float, trials: int) -> list[str]:
    """Mean Z_8 against its exact expectation N^8 * pi_8 (uniform p)."""
    expected = N_MC**8 * pi_sequence(N_MC, M_MC, 8)[8]
    tol = SIGMAS * math.sqrt(max(var, 0.0) / trials) + 1e-9
    if abs(mean - expected) > tol:
        return [f"{label}: mean Z_8 = {mean} vs exact {expected:.6g} (tol {tol:.3g})"]
    return []


def _simulate_argv(depth: int, trials: int, seed: int) -> list[str]:
    return ["simulate", "--N", "2", "--M", "2", "--p", "0.5,0.5", "--depth", str(depth),
            "--trials", str(trials), "--seed", str(seed)]


def _check_simulate(depth: int, trials: int) -> Callable[[str], list[str]]:
    def check(text: str) -> list[str]:
        doc = json.loads(text)
        levels, summary = doc["levels"], doc["summary"]
        problems = []
        if [row["level"] for row in levels] != list(range(depth + 1)):
            problems.append("simulate: levels are not 0..depth")
            return problems
        for k, row in enumerate(levels):
            if not row["z_min"] <= row["z_mean"] <= row["z_max"] <= row["z_union"] <= N_MC**k:
                problems.append(f"simulate: level {k} violates z_min <= z_mean <= z_max <= z_union <= N^k")
        row = levels[8]
        problems += _mean_gate("simulate", row["z_mean"], row["z_var"], trials)
        if abs(summary["estimate"] - LOG2_LOG3) > ESTIMATE_TOL:
            problems.append(f"simulate: pooled estimate {summary['estimate']} vs log2/log3")
        return problems

    return check


def _simulate_counts(trials: int, depth: int) -> Callable[[str], dict[str, int]]:
    def computed(text: str) -> dict[str, int]:
        levels = json.loads(text)["levels"]
        return {
            "trials": trials,
            "occupied": round(sum(row["z_mean"] for row in levels) * trials),
            "dense": trials * sum(N_MC**k for k in range(depth + 1)),
        }

    return computed


def _z_distribution(trials: int, depth: int, seed: int) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        p = stochastic.ProbVector((0.5, 0.5))
        hists = stochastic.z_distribution(p, M_MC, depth, trials, seed)
        return 0, json.dumps([sorted(h.items()) for h in hists])

    return run


def _check_z_distribution(trials: int) -> Callable[[str], list[str]]:
    def check(text: str) -> list[str]:
        hists = json.loads(text)
        problems = [f"z_distribution: level {k} totals {sum(c for _, c in h)}, not {trials}"
                    for k, h in enumerate(hists) if sum(c for _, c in h) != trials]
        h8 = hists[8]
        mean = sum(z * c for z, c in h8) / trials
        var = sum(c * (z - mean) ** 2 for z, c in h8) / (trials - 1)
        return problems + _mean_gate("z_distribution", mean, var, trials)

    return check


def _mc_ops(name: str, depth: int, trials: int, with_distribution: bool):
    def ops(seed: int) -> list[Op]:
        s_sim, s_dist = derive_seeds(name, seed, 2)
        out = [Op("simulate", "cli.main", _cli(_simulate_argv(depth, trials, s_sim)),
                  _check_simulate(depth, trials), _simulate_counts(trials, depth))]
        if with_distribution:
            out.append(Op("z_distribution", "stochastic.z_distribution",
                          _z_distribution(trials, depth, s_dist), _check_z_distribution(trials),
                          _no_counts))
        return out

    return ops


# -- energy --------------------------------------------------------------------

ENERGY_DEPTH, ENERGY_R = 14, 0.2


def _check_energy(text: str) -> list[str]:
    lines = text.splitlines()
    if lines[:1] != ["level,energy,scale"] or len(lines) != ENERGY_DEPTH + 1:
        return ["energy: expected a header and one row per level"]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    problems = []
    for k, (level, energy, scale) in enumerate(rows, start=1):
        if level != k or not math.isclose(scale, ENERGY_R**k, rel_tol=1e-6):
            problems.append(f"energy: row {k} has level {level}, scale {scale}")
        # a level whose occupancy is a single word has energy exactly 0
        if not (math.isfinite(energy) and energy >= 0.0):
            problems.append(f"energy: level {k} energy {energy} is not finite and >= 0")
    if not rows[-1][1] > 0.0:
        problems.append("energy: deepest level has no positive energy")
    return problems


def _energy_ops(seed: int) -> list[Op]:
    (s,) = derive_seeds("energy", seed, 1)
    argv = ["energy", "--N", "4", "--M", "2", "--p", "0.25,0.25,0.25,0.25",
            "--r", str(ENERGY_R), "--depth", str(ENERGY_DEPTH), "--seed", str(s)]
    return [Op("energy", "cli.main", _cli(argv), _check_energy, _no_counts)]


# -- tables ---------------------------------------------------------------------


def _check_digest(op_id: str) -> Callable[[str], list[str]]:
    def check(text: str) -> list[str]:
        got = digest(text)
        return [] if got == TABLE_DIGESTS[op_id] else [f"{op_id}: output sha256 {got} differs"]

    return check


def _zn_counts(N: int) -> Callable[[str], dict[str, int]]:
    def computed(text: str) -> dict[str, int]:
        ns = [int(line.split(",")[0]) for line in text.splitlines()[1:]]
        return {
            "words": sum(N**n for n in ns),
            "compositions": sum(math.comb(n + N - 1, N - 1) for n in ns),
        }

    return computed


def _word_count(text: str) -> dict[str, int]:
    return {"words": json.loads(text)["word_count"]}


TABLE_OPS = (
    ("zn-p2", ["exact", "--table", "zn", "--p", "0.3,0.7", "--M", "2", "--n-max", "20"], _zn_counts(2)),
    ("zn-p3", ["exact", "--table", "zn", "--p", "0.2,0.3,0.5", "--M", "3", "--n-max", "12"], _zn_counts(3)),
    ("pi", ["exact", "--table", "pi", "--N", "2", "--M", "3", "--n-max", "10000"], _no_counts),
    ("table1", ["table1"], _no_counts),
    ("figure1", ["figure1", "--grid", "999"], _no_counts),
    ("det-m3", ["deterministic", "--m", "3", "--n", "22"], _word_count),
    ("det-m4000", ["deterministic", "--m", "4000", "--n", "36"], _word_count),
)


def _table_ops(seed: int) -> list[Op]:
    # Every table is a pure function of its flags, so the seed does not enter.
    return [Op(op_id, "cli.main", _cli(argv), _check_digest(op_id), computed)
            for op_id, argv, computed in TABLE_OPS]


# -- thread-pool decision row --------------------------------------------------


def thread_rows(seed: int, nproc: int) -> dict[str, float]:
    """Untraced run_trials at the mc-shallow shape with 1 and min(2, nproc) threads."""
    (s,) = derive_seeds("threads", seed, 1)
    p = stochastic.ProbVector((0.5, 0.5))
    spec = canonical_spec(2, 1.0 / 3.0)
    rows = {}
    for label, threads in (("threads1_s", 1), ("threads2_s", min(2, nproc))):
        start = time.perf_counter()
        stochastic.run_trials(spec, p, M_MC, 8, 10000, s, threads=threads)
        rows[label] = time.perf_counter() - start
    return rows


# -- layer metrics ----------------------------------------------------------------

S, COUNT, RATE, FRAC, BYTES = "s", "count", "1/s", "ratio", "bytes"


@dataclass(frozen=True)
class SelfTime:
    """A metric that is the summed self time of one span, in one op or all."""

    span: str
    op: str | None = None

    def __call__(self, t) -> float:
        return t.self_s(self.span, self.op)


def _occupied_frac(t) -> float:
    c = t.computed["simulate"]
    return c["occupied"] / c["dense"]


RUN_TRIALS_METRICS = [
    ("stochastic.run_trials.s", S, "lower", SelfTime("stochastic.run_trials")),
    ("stochastic.run_trials.trials_per_s", RATE, "higher",
     lambda t: t.computed["simulate"]["trials"] / t.self_s("stochastic.run_trials")),
    ("stochastic.trial.occupied_frac", FRAC, "higher", _occupied_frac),
]
COMMON_METRICS = [
    ("cli.self_s", S, "lower", SelfTime("cli.main")),
    ("cli.out_bytes", BYTES, "lower", lambda t: t.out_bytes),
]


def _table_metrics() -> list:
    # cli.self_s per operation only: an aggregate beside it would count the
    # same time twice
    rows = [("cli.out_bytes", BYTES, "lower", lambda t: t.out_bytes)]
    rows += [(f"{op}.cli.self_s", S, "lower", SelfTime("cli.main", op)) for op, _, _ in TABLE_OPS]
    for op in ("zn-p2", "zn-p3"):
        rows += [
            (f"{op}.exact.expected_zn.s", S, "lower", SelfTime("exact.expected_zn", op)),
            (f"{op}.exact.expected_zn.words", COUNT, "lower",
             lambda t, op=op: t.computed[op]["words"]),
            (f"{op}.exact.multinomial_bound.s", S, "lower", SelfTime("exact.multinomial_bound", op)),
            (f"{op}.exact.multinomial_bound.compositions", COUNT, "lower",
             lambda t, op=op: t.computed[op]["compositions"]),
        ]
    rows += [
        ("pi.exact.pi_sequence.s", S, "lower", SelfTime("exact.pi_sequence", "pi")),
        ("table1.bounds.classify.s", S, "lower", SelfTime("bounds.classify", "table1")),
        ("figure1.bounds.lower_bound.s", S, "lower", SelfTime("bounds.lower_bound", "figure1")),
        ("figure1.bounds.upper_bound.s", S, "lower", SelfTime("bounds.upper_bound", "figure1")),
    ]
    for op in ("det-m3", "det-m4000"):
        rows += [(f"{op}.detfrac.{fn}.s", S, "lower", SelfTime(f"detfrac.{fn}", op))
                 for fn in ("tree_words", "graph_words", "sft_words")]
        rows.append((f"{op}.detfrac.words", COUNT, "lower",
                     lambda t, op=op: t.computed[op]["words"]))
    return rows


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Callable[[int], list[Op]]
    # (metric suffix, unit, better, value from a TracedPass); the suffix is
    # prefixed with the workload name. The SelfTime values together should
    # account for the workload's time.
    layer_metrics: list


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-shallow",
            "simulate and z_distribution at depth 8 with 10^4 trials: tiny states, so per-trial "
            "Python and stream set-up dominate; where batching the trial loop shows",
            _mc_ops("mc-shallow", 8, 10000, with_distribution=True),
            COMMON_METRICS + RUN_TRIALS_METRICS + [
                ("stochastic.z_distribution.s", S, "lower", SelfTime("stochastic.z_distribution")),
                ("stochastic.run_trials.threads1_s", S, "lower", lambda t: t.extra["threads1_s"]),
                ("stochastic.run_trials.threads2_s", S, "lower", lambda t: t.extra["threads2_s"]),
            ],
        ),
        Workload(
            "mc-deep",
            "simulate at depth 20 with 50 trials: dense N^20 states and pooled-union arrays "
            "dominate; where a sparse occupancy kernel shows and a batching-only change does not",
            _mc_ops("mc-deep", 20, 50, with_distribution=False),
            COMMON_METRICS + RUN_TRIALS_METRICS,
        ),
        Workload(
            "energy",
            "energy at N=4, M=2, depth 14: the O(Z^2) pair sum dominates, then ifs.interval; "
            "M < N keeps Z, and so the work, nearly the same on every seed",
            _energy_ops,
            COMMON_METRICS + [
                ("stochastic.evolve.s", S, "lower", SelfTime("stochastic.evolve")),
                ("stochastic.evolve.entries", COUNT, "lower",
                 lambda t: t.counts["stochastic.evolve"]),
                ("stochastic.energy_estimate.s", S, "lower", SelfTime("stochastic.energy_estimate")),
                ("stochastic.energy_estimate.pairs", COUNT, "lower",
                 lambda t: t.counts["stochastic.energy_estimate"]),
                ("stochastic.energy_estimate.pairs_per_s", RATE, "higher",
                 lambda t: t.counts["stochastic.energy_estimate"] / t.self_s("stochastic.energy_estimate")),
                ("ifs.interval.s", S, "lower", SelfTime("ifs.interval")),
                ("ifs.interval.calls", COUNT, "lower", lambda t: t.calls("ifs.interval")),
            ],
        ),
        Workload(
            "tables",
            "exact recursions, bounds and the every-m-th-edge word sets at fixed flags; no "
            "stochastic code runs, and m=3 (word-heavy) and m=4000 (residue-heavy) pull apart",
            _table_ops,
            _table_metrics(),
        ),
    )
}

# Counts recorded at call boundaries in the traced pass, from each call's
# arguments or result.
TRACE_COUNTERS = {
    "stochastic.evolve": lambda args, result: stochastic.z_n(result),
    "stochastic.energy_estimate": lambda args, result: stochastic.z_n(args[0]) ** 2,
}

# Per-workload metrics every traced run reports besides the layer metrics.
TRACE_METRICS = (
    ("trace.overhead_s", S, "lower"),
    # declared self times over the traced, then the untraced, operation time
    ("trace.accounted_frac", FRAC, "higher"),
    ("trace.accounted_wall_frac", FRAC, "higher"),
)


def per_layer_declared() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for w in WORKLOADS.values():
        out += [(f"{w.name}.{suffix}", unit, better) for suffix, unit, better, _ in w.layer_metrics]
        out += [(f"{w.name}.{suffix}", unit, better) for suffix, unit, better in TRACE_METRICS]
    return out
