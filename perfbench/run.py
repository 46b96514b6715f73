"""cantorflip benchmark: end-to-end time and memory, or traced per-layer time.

    python3 perfbench/run.py --workload mc-shallow --seed 1 --seconds 18 --trace 0

Workloads: mc-shallow, mc-deep, energy, tables (see workloads.py), or `all`
to run each in turn. One client drives the package in process as a closed
loop: one operation at a time, CANTORFLIP_THREADS unset.

--trace 0 reports the end-to-end metrics, all with tracing off:
  wall_s       one pass's operation time: the sum over its operations of
               each one's median time; passes repeat until --seconds have
               elapsed (at least MIN_PASSES)
  setup_s      the least time a fresh interpreter takes to
               `import cantorflip, cantorflip.cli`, over SETUP_EDGE samples
               before the passes, one after each pass and SETUP_EDGE after;
               host interference only ever adds to it
  peak_rss_mb  peak resident memory of a fresh process running one pass
--trace 1 runs every workload once untraced and once traced, whatever
--workload names, because its result must hold every per-layer metric and
those are keyed by workload (and, in tables, by operation): self times and
counts, tracing overhead, the share of the operation time that the declared
self times account for, and the thread-pool decision row. A declared span
that was never entered fails the run. Spans go to .bench_out/ at the end.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. An operation fails on a nonzero exit code, an
exception or a failed output check; ops_failed_frac = failed/attempted is
printed above it. Without src/cantorflip beside this directory the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_PASSES = 3
SETUP_EDGE = 2
CHILD_TIMEOUT_S = 150
SETUP_CODE = (
    "import time; t = time.perf_counter(); import cantorflip, cantorflip.cli; "
    "print(time.perf_counter() - t)"
)
workloads = None  # imported by main() once src/ is known to hold the package
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def run_pass(ops, tracer=None) -> dict:
    """Run each operation once; time it, check its output, note its spans."""
    result = {"seconds": 0.0, "op_seconds": {}, "attempted": 0, "failed": 0, "problems": [],
              "digests": {}, "computed": {}, "out_bytes": 0, "op_spans": {}}
    for op in ops:
        result["attempted"] += 1
        first_span = tracer.mark() if tracer else 0
        start = time.perf_counter()
        try:
            code, text = tracer.call(op.root, op.run) if tracer else op.run()
        except Exception as exc:  # one broken operation must not end the run
            code, text = f"raised {exc!r}", ""
        result["op_seconds"][op.id] = time.perf_counter() - start
        result["seconds"] += result["op_seconds"][op.id]
        if tracer:
            result["op_spans"][op.id] = (first_span, tracer.mark())
        problems = [f"{op.id}: exit {code}"] if code != 0 else []
        if not problems:
            try:
                problems = op.check(text)
                result["computed"][op.id] = op.computed(text)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"{op.id}: unreadable output ({exc!r})"]
        if op.root == "cli.main":
            result["out_bytes"] += len(text.encode())
        result["digests"][op.id] = workloads.digest(text)
        if problems:
            result["failed"] += 1
            result["problems"] += problems
    return result


def _subprocess(args, env=None) -> str:
    done = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return done.stdout


def setup_seconds() -> float:
    """One fresh interpreter's import time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return float(_subprocess([sys.executable, "-c", SETUP_CODE], env).strip().splitlines()[-1])


def child_pass(name: str, seed: int) -> dict:
    """One untraced pass in this fresh process; reports its peak RSS."""
    res = run_pass(workloads.WORKLOADS[name].ops(seed))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {"peak_rss_mb": peak_kb / 1024.0, "attempted": res["attempted"],
            "failed": res["failed"], "problems": res["problems"], "digests": res["digests"]}


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    child = json.loads(_subprocess([sys.executable, __file__, "--child", "--workload", name,
                                    "--seed", str(seed)]).strip().splitlines()[-1])
    attempted, failed = child["attempted"], child["failed"]
    problems = [f"fresh process: {p}" for p in child["problems"]]
    ops = workloads.WORKLOADS[name].ops(seed)
    times = {op.id: [] for op in ops}
    setup = [setup_seconds() for _ in range(SETUP_EDGE)]
    passes, measured = 0, 0.0
    while passes < MIN_PASSES or measured < seconds:
        res = run_pass(ops)
        passes += 1
        measured += res["seconds"]
        setup.append(setup_seconds())
        for op_id, dt in res["op_seconds"].items():
            times[op_id].append(dt)
        attempted += res["attempted"]
        failed += res["failed"]
        problems += res["problems"]
        # same seed, same inputs: every pass must reproduce the fresh process's outputs
        for op_id, d in res["digests"].items():
            if d != child["digests"].get(op_id):
                failed += 1
                problems.append(f"{op_id}: output differs from the fresh process's run")
    metrics = {
        # per-operation medians: a burst of interference spoils one operation's
        # sample, not a whole pass's
        "wall_s": sum(statistics.median(t) for t in times.values()),
        "setup_s": min(setup + [setup_seconds() for _ in range(SETUP_EDGE)]),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    return {"metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
            "attempted": attempted, "failed": failed, "problems": problems,
            "op_seconds": times}


class TracedPass:
    """What the layer-metric functions read: self times, calls, counts, outputs."""

    def __init__(self, tracer, res: dict, extra: dict):
        self.spans = tracer.spans
        self.selfs = spans.self_times(tracer.spans)
        self.counts = tracer.counts
        self.computed = res["computed"]
        self.out_bytes = res["out_bytes"]
        self.op_spans = res["op_spans"]
        self.extra = extra

    def _matching(self, name: str, op: str | None) -> list[int]:
        """Indices of the spans called `name`, in `op` or anywhere; never empty."""
        indices = range(*self.op_spans[op]) if op else range(len(self.spans))
        found = [i for i in indices if self.spans[i][0] == name]
        if not found:
            raise spans.MissingSpan(f"no {name} span" + (f" in {op}" if op else ""))
        return found

    def self_s(self, name: str, op: str | None = None) -> float:
        return sum(self.selfs[i] for i in self._matching(name, op))

    def calls(self, name: str, op: str | None = None) -> int:
        return len(self._matching(name, op))


def traced(seed: int, nproc: int) -> dict:
    metrics, attempted, failed, problems, span_log = {}, 0, 0, [], []
    for name, w in workloads.WORKLOADS.items():
        ops = w.ops(seed)
        plain = run_pass(ops)
        tracer = spans.Tracer(workloads.TRACE_COUNTERS)
        with spans.instrument(tracer):
            res = run_pass(ops, tracer)
        extra = workloads.thread_rows(seed, nproc) if name == "mc-shallow" else {}
        for r in (plain, res):
            attempted += r["attempted"]
            failed += r["failed"]
            problems += r["problems"]
        changed = [op_id for op_id, d in res["digests"].items() if d != plain["digests"][op_id]]
        failed += len(changed)
        problems += [f"{op_id}: tracing changed the output" for op_id in changed]
        tp = TracedPass(tracer, res, extra)
        missing, declared = set(), 0.0
        for suffix, _, _, fn in w.layer_metrics:
            try:  # a rate is read only once its span is known to exist
                metrics[f"{name}.{suffix}"] = fn(tp)
            except spans.MissingSpan as exc:
                metrics[f"{name}.{suffix}"] = 0.0
                missing.add(str(exc))
                continue
            if isinstance(fn, workloads.SelfTime):
                declared += metrics[f"{name}.{suffix}"]
        failed += len(missing)
        problems += [f"{name}: {m}" for m in sorted(missing)]
        metrics[f"{name}.trace.overhead_s"] = res["seconds"] - plain["seconds"]
        metrics[f"{name}.trace.accounted_frac"] = declared / res["seconds"]
        metrics[f"{name}.trace.accounted_wall_frac"] = declared / plain["seconds"]
        span_log += [{"workload": name, "name": n, "start": s, "end": e, "parent": p}
                     for n, s, e, p in tracer.spans]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-seed{seed}.jsonl", "w") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in span_log)
    units = {n: u for n, u, _ in workloads.per_layer_declared()}
    return {"metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            "attempted": attempted, "failed": failed, "problems": problems}


def provenance(seed: int, nproc: int, threads_env: str | None) -> dict:
    import numpy
    from importlib.metadata import version

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = _subprocess(["git", "rev-parse", "HEAD"]).strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "jsonschema": version("jsonschema"),
            "git_commit": commit, "workload_seed": seed, "CANTORFLIP_THREADS": threads_env}


def report(name: str, result: dict) -> None:
    computed = {n for n, u, _ in workloads.per_layer_declared() if u in ("count", "bytes")}
    for metric, entry in result["metrics"].items():
        tag = "  (computed)" if metric in computed else ""
        print(f"{name:10s} {metric:50s} {entry['value']:.6g} {entry['unit']}{tag}")
    print(f"{name:10s} {'ops_failed_frac':50s} {result['failed']}/{result['attempted']}"
          f" = {result['failed'] / result['attempted']:.6g} (failed / attempted operations)")
    for problem in result["problems"][:20]:
        print(f"{name:10s} FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cantorflip" / "__init__.py").is_file():
        sys.stderr.write(f"no cantorflip sources under {SRC}; nothing to measure\n")
        return 2
    threads_env = os.environ.pop("CANTORFLIP_THREADS", None)
    sys.path.insert(0, str(SRC))
    global workloads
    import workloads

    import cantorflip

    if Path(cantorflip.__file__).resolve().parent != SRC / "cantorflip":
        sys.stderr.write(f"cantorflip imported from {cantorflip.__file__}, not {SRC}\n")
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    if args.child:
        print(json.dumps(child_pass(args.workload, args.seed)))
        return 0

    nproc = len(os.sched_getaffinity(0))
    prov = provenance(args.seed, nproc, threads_env)
    print(json.dumps({"provenance": prov}))
    if args.trace:  # the traced run covers every workload; see the module docstring
        results = {"traced": traced(args.seed, nproc)}
    else:
        results = {name: end_to_end(name, args.seed, args.seconds) for name in names}
    for name, result in results.items():
        report(name, result)
    if len(results) == 1:
        (metrics,) = [r["metrics"] for r in results.values()]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"provenance": prov, "results": results}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
