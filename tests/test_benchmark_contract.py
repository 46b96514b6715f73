"""The benchmark's trace contract, checked by the test suite.

``perfbench/`` reads per-layer self times from spans that it records by
wrapping every cross-layer function binding (``spans.instrument``), plus one
root span per operation. A declared span that neither provides is never
entered, and a traced benchmark run then fails with ``MissingSpan``.
Deleting or moving a function in ``src/`` can do that without touching
``perfbench/``, so the contract is checked here, and so are the counters
that a traced run reads from the arguments and results of those calls. The
benchmark files are only imported, never changed.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from cantorflip import OccupancyMap, ProbVector, cli, evolve

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


def test_every_declared_span_is_an_op_root_or_a_binding():
    declared = set(workloads.TRACE_COUNTERS)
    for w in workloads.WORKLOADS.values():
        declared |= {
            value.span for *_, value in w.layer_metrics if isinstance(value, workloads.SelfTime)
        }
    roots = {op.root for w in workloads.WORKLOADS.values() for op in w.ops(1)}
    bound = {name for _, _, name in spans.cross_layer_bindings()}
    assert "ifs.interval" in declared
    assert sorted(declared - roots - bound) == []


def test_trace_counters_read_z_from_evolve_and_energy():
    # a small `energy` call under the traced pass's wrappers: evolve counts the
    # Z of every level it makes, energy_estimate the Z^2 pairs of every level
    argv = ["energy", "--N", "3", "--M", "2", "--p", "0.2,0.3,0.5", "--r", "0.2",
            "--depth", "7", "--seed", "5"]
    tracer = spans.Tracer(workloads.TRACE_COUNTERS)
    with spans.instrument(tracer):
        assert cli.main(argv) == 0
    rng, occ, zs = np.random.default_rng(5), OccupancyMap.root(2), []
    for _ in range(7):
        occ = evolve(occ, ProbVector((0.2, 0.3, 0.5)), rng=rng)
        zs.append(int(occ.counts.size))
    assert len(set(zs)) > 3  # the levels differ, so a count from the wrong level shows
    assert tracer.counts["stochastic.evolve"] == sum(zs)
    assert tracer.counts["stochastic.energy_estimate"] == sum(z * z for z in zs)
    names = [span[0] for span in tracer.spans]
    assert names.count("stochastic.evolve") == names.count("stochastic.energy_estimate") == 7


def test_benchmark_tests_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
