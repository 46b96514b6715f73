"""The benchmark's trace contract, checked by the test suite.

``perfbench/`` reads per-layer self times from spans that it records by
wrapping every cross-layer function binding (``spans.instrument``), plus one
root span per operation. A declared span that neither provides is never
entered, and a traced benchmark run then fails with ``MissingSpan``.
Deleting or moving a function in ``src/`` can do that without touching
``perfbench/``, so the contract is checked here. The benchmark files are
only imported, never changed.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

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


def test_benchmark_tests_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
