"""Command-line front end.

Subcommands: bounds, table1, figure1, simulate, exact, deterministic,
energy. Every run is deterministic given its config and seed. Exit codes:
0 success, 2 validation problem (bad flags, malformed config, constraint
violations), 3 exceeded budget (state, depth, or enumeration size).

A JSON config supplies experiment fields; explicit flags override config
values. CSV output uses '.' decimals, ',' separators, a header row, and 9
significant digits. CANTORFLIP_THREADS caps simulation parallelism.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import jsonschema
import numpy as np

from .bounds import classify, lower_bound, upper_bound
from .detfrac import (
    DeterministicSpec,
    dim_Fm,
    dimension_rows,
    dump_words,
    graph_words,
    level_of,
    rho,
    sft_words,
    tree_words,
)
from .errors import BudgetError
from .exact import expected_zn, multinomial_bound, pi_sequence
from .ifs import IfsSpec, canonical_spec
from .stochastic import (
    OccupancyMap,
    ProbVector,
    energy_estimate,
    estimate_dim,
    evolve,
    run_trials,
)

__all__ = ["main", "CONFIG_SCHEMA", "TABLE1_PERIODS"]

TABLE1_PERIODS = (2, 3, 4, 6, 7, 14, 15, 30)

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "mode": {
            "enum": ["simulate", "bounds", "table1", "figure1", "exact", "deterministic", "energy"]
        },
        "ifs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "N": {"type": "integer", "minimum": 2},
                "r": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "translations": {"type": "array", "items": {"type": "number"}},
                "orientations": {"type": "array", "items": {"enum": [1, -1]}},
            },
            "required": ["N", "r"],
        },
        "N": {"type": "integer", "minimum": 2},
        "M": {"type": "integer", "minimum": 2},
        "p": {
            "type": "array",
            "minItems": 2,
            "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        },
        "r": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "depth": {"type": "integer", "minimum": 1},
        "trials": {"type": "integer", "minimum": 1},
        "master_seed": {"type": "integer", "minimum": 0},
        "window": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 2,
            "maxItems": 2,
        },
        "m": {"type": "integer", "minimum": 2},
        "offset": {"type": "integer", "minimum": 0},
        "n": {"type": "integer", "minimum": 0},
        "n_max": {"type": "integer", "minimum": 0},
        "grid": {"type": "integer", "minimum": 3},
        "t": {"type": "number", "exclusiveMinimum": 0},
        "table": {"enum": ["pi", "zn"]},
        "dump": {"type": "string"},
        "out": {"type": "string"},
        "format": {"enum": ["json", "csv"]},
    },
}


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_doc(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    return "\n".join(lines) + "\n"


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _load_config(path: str | None, command: str, *also: str) -> dict:
    """Read and validate a config whose mode, if given, is ``command`` or one of ``also``."""
    if path is None:
        return {}
    raw = json.loads(Path(path).read_text())
    jsonschema.validate(raw, CONFIG_SCHEMA)
    mode = raw.get("mode")
    if mode is not None and mode not in (command, *also):
        raise ValueError(f"config mode {mode!r} does not match command {command!r}")
    return raw


def _pick(args, config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _parse_p(value) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = [s for s in value.split(",") if s.strip() != ""]
        return tuple(float(s) for s in parts)
    return tuple(float(x) for x in value)


def _require(value, name: str):
    if value is None:
        raise ValueError(f"missing required parameter {name}")
    return value


def _threads() -> int:
    raw = os.environ.get("CANTORFLIP_THREADS", "").strip()
    if not raw:
        return 1
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(f"CANTORFLIP_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ValueError(f"CANTORFLIP_THREADS must be at least 1, got {threads}")
    return threads


def _prob_vector(args, config, N_hint: int | None) -> ProbVector:
    p_raw = _pick(args, config, "p")
    if p_raw is None:
        if N_hint is None:
            raise ValueError("missing required parameter --p (or --N for uniform p)")
        return ProbVector.uniform(N_hint)
    p = _parse_p(p_raw)
    if N_hint is not None and len(p) != N_hint:
        raise ValueError(f"--N {N_hint} does not match the {len(p)}-entry p")
    return ProbVector(p)


def _ifs_spec(args, config, N: int, r: float) -> IfsSpec:
    if "ifs" in config and getattr(args, "N", None) is None and getattr(args, "r", None) is None:
        spec = IfsSpec.from_dict(config["ifs"])
        if spec.N != N:
            raise ValueError(f"config ifs has N={spec.N} but p has {N} entries")
        return spec
    return canonical_spec(N, r)


def cmd_bounds(args) -> int:
    config = _load_config(args.config, "bounds")
    p = _prob_vector(args, config, _pick(args, config, "N"))
    M = int(_require(_pick(args, config, "M"), "--M"))
    r = float(_pick(args, config, "r", 1.0 / 3.0))
    report = classify(p, M, r)
    fmt = _pick(args, config, "format", "json")
    out = _pick(args, config, "out")
    if fmt == "csv":
        row = [
            ";".join(_fmt(x) for x in report.p),
            report.M,
            report.r,
            report.lower,
            report.upper,
            report.trivial_upper,
            report.sandwich,
            report.lam,
            "1" if report.lam_degenerate else "0",
            report.exact,
            report.exact_reason or "",
        ]
        header = "p,M,r,lower,upper,trivial_upper,sandwich,lambda,lambda_degenerate,exact,exact_reason"
        _emit(_csv(header, [row]), out)
    else:
        _emit(_json_doc(report.to_dict()), out)
    return 0


def cmd_table1(args) -> int:
    config = _load_config(args.config, "table1", "bounds")
    r = 1.0 / 3.0
    rows = []
    for m in TABLE1_PERIODS:
        p = 1.0 / m
        report = classify(ProbVector((p, 1.0 - p)), 2, r)
        rows.append((m, p, report.lower, dim_Fm(m, r), report.upper))
    fmt = _pick(args, config, "format", "csv")
    out = _pick(args, config, "out")
    if fmt == "json":
        doc = [
            {"m": m, "p": p, "lower": lo, "dim_Fm": d, "upper": up}
            for m, p, lo, d, up in rows
        ]
        _emit(_json_doc(doc), out)
    else:
        _emit(_csv("m,p,lower,dim_Fm,upper", rows), out)
    return 0


def cmd_figure1(args) -> int:
    config = _load_config(args.config, "figure1", "bounds")
    grid = int(_pick(args, config, "grid", 99))
    if grid < 3:
        raise ValueError(f"grid must be at least 3, got {grid}")
    r = float(_pick(args, config, "r", 1.0 / 3.0))
    rows = []
    for k in range(1, grid + 1):
        p = k / (grid + 1.0)
        vec = ProbVector((p, 1.0 - p))
        rows.append((p, lower_bound(vec, 2, r), upper_bound(vec, 2, r)))
    fmt = _pick(args, config, "format", "csv")
    out = _pick(args, config, "out")
    if fmt == "json":
        doc = [{"p": p, "lower": lo, "upper": up} for p, lo, up in rows]
        _emit(_json_doc(doc), out)
    else:
        _emit(_csv("p,lower,upper", rows), out)
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args.config, "simulate")
    N_hint = _pick(args, config, "N")
    if N_hint is None and "ifs" in config:
        N_hint = config["ifs"]["N"]
    p = _prob_vector(args, config, N_hint)
    M = int(_require(_pick(args, config, "M"), "--M"))
    r = float(_pick(args, config, "r", config.get("ifs", {}).get("r", 1.0 / 3.0)))
    depth = int(_require(_pick(args, config, "depth"), "--depth"))
    trials = int(_pick(args, config, "trials", 100))
    seed = int(_pick(args, config, "master_seed", 0))
    window_raw = _pick(args, config, "window")
    if window_raw is None:
        window = (max(0, depth // 2), depth)
    elif isinstance(window_raw, str):
        lo, hi = (int(s) for s in window_raw.split(","))
        window = (lo, hi)
    else:
        window = (int(window_raw[0]), int(window_raw[1]))
    spec = _ifs_spec(args, config, p.N, r)
    stats = run_trials(spec, p, M, depth, trials, seed, threads=_threads())
    estimate = estimate_dim(stats.z_union, spec.r, window)
    resolved = {
        "N": p.N,
        "M": M,
        "p": list(p.values),
        "r": spec.r,
        "depth": depth,
        "trials": trials,
        "master_seed": seed,
        "window": list(window),
    }
    summary = {
        "estimate": estimate,
        "estimator": "pooled-occupancy regression",
        "window": list(window),
        "master_seed": seed,
        "trials": trials,
        "depth": depth,
        "config_sha256": _config_hash(resolved),
    }
    levels = [
        {
            "level": k,
            "z_mean": stats.z_mean[k],
            "z_var": stats.z_var[k],
            "z_min": stats.z_min[k],
            "z_max": stats.z_max[k],
            "z_union": stats.z_union[k],
        }
        for k in range(depth + 1)
    ]
    fmt = _pick(args, config, "format", "json")
    out = _pick(args, config, "out")
    if fmt == "csv":
        rows = [
            (k, stats.z_mean[k], stats.z_var[k], stats.z_min[k], stats.z_max[k])
            for k in range(depth + 1)
        ]
        _emit(_csv("level,z_mean,z_var,z_min,z_max", rows), out)
        if out:
            Path(out + ".summary.json").write_text(_json_doc(summary))
        else:
            sys.stderr.write(_json_doc(summary))
    else:
        _emit(_json_doc({"summary": summary, "levels": levels}), out)
    return 0


def cmd_exact(args) -> int:
    config = _load_config(args.config, "exact")
    table = _pick(args, config, "table", "pi")
    fmt = _pick(args, config, "format", "csv")
    out = _pick(args, config, "out")
    if table == "pi":
        N = int(_require(_pick(args, config, "N"), "--N"))
        M = int(_require(_pick(args, config, "M"), "--M"))
        n_max = int(_pick(args, config, "n_max", 30))
        seq = pi_sequence(N, M, n_max)
        rows = [(n, seq[n]) for n in range(len(seq))]
        if fmt == "json":
            _emit(_json_doc([{"n": n, "pi": v} for n, v in rows]), out)
        else:
            _emit(_csv("n,pi", rows), out)
    else:
        p = _prob_vector(args, config, _pick(args, config, "N"))
        M = int(_require(_pick(args, config, "M"), "--M"))
        n_max = int(_pick(args, config, "n_max", 10))
        rows = [
            (n, expected_zn(p, M, n), multinomial_bound(p, M, n))
            for n in range(n_max + 1)
        ]
        if fmt == "json":
            _emit(
                _json_doc([{"n": n, "value": v, "bound": b} for n, v, b in rows]), out
            )
        else:
            _emit(_csv("n,value,bound", rows), out)
    return 0


def cmd_deterministic(args) -> int:
    config = _load_config(args.config, "deterministic")
    m = int(_require(_pick(args, config, "m"), "--m"))
    r = float(_pick(args, config, "r", 1.0 / 3.0))
    n = _pick(args, config, "n")
    offset = _pick(args, config, "offset")
    spec = DeterministicSpec(m, None if offset is None else int(offset))
    fmt = _pick(args, config, "format", "json")
    out = _pick(args, config, "out")
    if fmt == "csv":
        _emit(_csv("m,L,rho_L,dim_Fm", dimension_rows([m], r)), out)
        return 0
    report: dict = {
        "m": m,
        "offset": spec.offset,
        "L": spec.L,
        "rho": None if m == 2 else rho(level_of(m)),
        "dim": dim_Fm(m, r),
        "r": r,
    }
    if m == 2:
        report["note"] = "m = 2 marks every other edge and reproduces the full construction"
    if n is not None:
        n = int(n)
        words = tree_words(spec, n)
        report["n"] = n
        report["word_count"] = len(words)
        if len(words) <= 64:
            report["words"] = sorted("".join(str(s) for s in w) for w in words)
        if m >= 3 and spec.offset == m - 1:
            graph_set = graph_words(m, n)
            sft_set = sft_words(level_of(m), n)
            report["checks"] = {
                "tree_equals_graph": words == graph_set,
                "tree_within_sft": words <= sft_set,
            }
        dump = _pick(args, config, "dump")
        if dump:
            Path(dump).write_text(dump_words(words))
    _emit(_json_doc(report), out)
    return 0


def cmd_energy(args) -> int:
    config = _load_config(args.config, "energy")
    N_hint = _pick(args, config, "N")
    if N_hint is None and "ifs" in config:
        N_hint = config["ifs"]["N"]
    p = _prob_vector(args, config, N_hint)
    M = int(_pick(args, config, "M", 2))
    r = float(_pick(args, config, "r", config.get("ifs", {}).get("r", 1.0 / 3.0)))
    depth = int(_pick(args, config, "depth", 8))
    seed = int(_pick(args, config, "master_seed", 0))
    t_raw = _pick(args, config, "t")
    t = 0.5 * lower_bound(p, M, r) if t_raw is None else float(t_raw)
    spec = _ifs_spec(args, config, p.N, r)
    rng = np.random.default_rng(seed)
    occ = OccupancyMap.root(M)
    rows = []
    stopped = None
    for level in range(1, depth + 1):
        try:
            occ = evolve(occ, p, rng=rng)
            rows.append((level, energy_estimate(occ, spec, t), spec.r**level))
        except (BudgetError, OverflowError) as exc:
            # emit the completed levels, then exit 3 as any budget stop does
            stopped = exc
            break
    fmt = _pick(args, config, "format", "csv")
    out = _pick(args, config, "out")
    if fmt == "json":
        doc = {
            "t": t,
            "master_seed": seed,
            "note": "diagnostic only; truncated at each level's interval scale",
            "rows": [
                {"level": lv, "energy": e, "scale": sc} for lv, e, sc in rows
            ],
        }
        _emit(_json_doc(doc), out)
    else:
        _emit(_csv("level,energy,scale", rows), out)
    if stopped is not None:
        raise stopped
    return 0


def _add_common(sub, seed: bool = False) -> None:
    sub.add_argument("--config", help="JSON experiment config; flags override its fields")
    sub.add_argument("--out", help="output path (stdout when omitted)")
    sub.add_argument("--format", choices=["json", "csv"], dest="format")
    if seed:
        sub.add_argument("--seed", type=int, dest="master_seed", help="master seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorflip",
        description="Random and deterministic tree-labeled subsets of Cantor sets: "
        "bounds, exact recursions, simulation, and reference tables.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("bounds", help="dimension bounds report for one (p, M, r)")
    sub.add_argument("--N", type=int)
    sub.add_argument("--M", type=int)
    sub.add_argument("--p", help="comma-separated probabilities, e.g. 0.5,0.5")
    sub.add_argument("--r", type=float)
    _add_common(sub)
    sub.set_defaults(func=cmd_bounds)

    sub = commands.add_parser("table1", help="golden comparison table at r=1/3, p=1/m")
    _add_common(sub)
    sub.set_defaults(func=cmd_table1)

    sub = commands.add_parser("figure1", help="two-map bound curves on a p grid")
    sub.add_argument("--grid", type=int)
    sub.add_argument("--r", type=float)
    _add_common(sub)
    sub.set_defaults(func=cmd_figure1)

    sub = commands.add_parser("simulate", help="Monte Carlo occupancy statistics")
    sub.add_argument("--N", type=int)
    sub.add_argument("--M", type=int)
    sub.add_argument("--p")
    sub.add_argument("--r", type=float)
    sub.add_argument("--depth", type=int)
    sub.add_argument("--trials", type=int)
    sub.add_argument("--window", help="inclusive regression window, e.g. 10,20")
    _add_common(sub, seed=True)
    sub.set_defaults(func=cmd_simulate)

    sub = commands.add_parser("exact", help="recursion tables: pi or expected-count-vs-bound")
    sub.add_argument("--table", choices=["pi", "zn"])
    sub.add_argument("--N", type=int)
    sub.add_argument("--M", type=int)
    sub.add_argument("--p")
    sub.add_argument("--n-max", type=int, dest="n_max")
    _add_common(sub)
    sub.set_defaults(func=cmd_exact)

    sub = commands.add_parser("deterministic", help="periodic-marking report and word sets")
    sub.add_argument("--m", type=int)
    sub.add_argument("--r", type=float)
    sub.add_argument("--n", type=int)
    sub.add_argument("--offset", type=int)
    sub.add_argument("--dump", help="write the level-n word set to this path")
    _add_common(sub)
    sub.set_defaults(func=cmd_deterministic)

    sub = commands.add_parser("energy", help="discrete t-energy diagnostic per level")
    sub.add_argument("--N", type=int)
    sub.add_argument("--M", type=int)
    sub.add_argument("--p")
    sub.add_argument("--r", type=float)
    sub.add_argument("--depth", type=int)
    sub.add_argument("--t", type=float)
    _add_common(sub, seed=True)
    sub.set_defaults(func=cmd_energy)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except jsonschema.ValidationError as exc:
        sys.stderr.write(f"config validation error: {exc.message}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 2
    except (BudgetError, OverflowError) as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
