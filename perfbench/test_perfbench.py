"""The benchmark's own tests: metric names and self-time arithmetic.

    python3 -m pytest perfbench
"""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_are_well_formed():
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_declared_metrics_match_benchmark_json():
    bench = _benchmark_json()
    declared = [{"name": n, "unit": u, "better": b} for n, u, b in workloads.per_layer_declared()]
    assert bench["per_layer"] == declared
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4] > b [2,3]; root > c [5,9]
    rows = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1), ("c", 5.0, 9.0, 0)]
    assert spans.self_times(rows) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # self times of one tree add up to the root's duration
    assert sum(spans.self_times(rows)) == pytest.approx(10.0)


def test_tracer_nests_wrapped_calls_and_counts():
    tracer = spans.Tracer({"inner": lambda args, result: result})
    inner = tracer.wrap("inner", lambda x: x * 2)
    outer = tracer.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == 14
    names_parents = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names_parents == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counts["inner"] == 14
    selfs = spans.self_times(tracer.spans)
    outer_span = tracer.spans[0]
    assert sum(selfs) == pytest.approx(outer_span[2] - outer_span[1])


def test_instrument_wraps_cross_layer_bindings_and_restores_them():
    import cantorflip.cli as cli
    import cantorflip.stochastic as stochastic

    before = (cli.run_trials, stochastic.interval)
    names = {name for _, _, name in spans.cross_layer_bindings()}
    assert {"stochastic.run_trials", "ifs.interval", "detfrac.tree_words"} <= names
    assert not any(n.startswith(("symbolic.", "errors.")) for n in names)
    with spans.instrument(spans.Tracer()):
        assert cli.run_trials is not before[0]
    assert (cli.run_trials, stochastic.interval) == before


def test_missing_span_fails_instead_of_reading_zero():
    import run

    tracer = spans.Tracer()
    tracer.wrap("outer", lambda: None)()
    res = {"computed": {}, "out_bytes": 0, "op_spans": {"op": (0, 1), "other-op": (1, 1)}}
    traced = run.TracedPass(tracer, res, {})
    assert traced.calls("outer", "op") == 1
    with pytest.raises(spans.MissingSpan):
        traced.self_s("inner")
    with pytest.raises(spans.MissingSpan):
        workloads.SelfTime("outer", "other-op")(traced)
