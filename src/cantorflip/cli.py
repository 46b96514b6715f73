"""Command-line front end.

Subcommands: bounds, table1, figure1, simulate, exact, deterministic,
energy. Every run is deterministic given its config and seed. Exit codes:
0 success, 2 validation problem (bad flags, malformed config, constraint
violations), 3 exceeded budget (state, depth, or enumeration size).

Each subcommand's parameters are written once, in ``COMMANDS``: a
``Param`` gives the name, the flag's type, the JSON-schema fragment and the
default. The argparse flags, one config schema per subcommand and the
resolved parameter dict (defaults, then the JSON config, then explicit
flags) are all generated from it, so a config accepts exactly the fields
its subcommand's flags set, plus ``mode`` and, for simulate and energy, the
``ifs`` geometry. A small in-module checker (``_errors``) validates the
resolved dict against that schema: it knows only the keywords ``COMMANDS``
uses, gives the Draft 2020-12 reference validator's messages, and, unlike
it, takes only finite numbers, so a NaN or an infinity exits 2. CSV output
uses '.' decimals, ',' separators, a header row, and 9 significant digits.
The row tables (table1, figure1, exact) are written row by row, as CSV or
as one JSON list.

``energy`` runs one worker thread per usable CPU (the CPU affinity mask, so
``taskset`` limits it) and ``simulate`` runs 1. The thread count changes
only the speed, never an output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

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
    rows_within,
    sft_words,
    tree_words,
)
from .errors import BudgetError, _budget_error
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

TABLE1_PERIODS = (2, 3, 4, 6, 7, 14, 15, 30)
_GRID_CAP = 100_000  # figure1 grid points; each solves for lambda


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


def _write_json_rows(rows, out: str | None) -> None:
    """Write ``_json_doc(list(rows))`` one row at a time, to ``out`` or stdout.

    Rows are flat dicts of numbers. Each is encoded without ``indent``, which
    runs json's C encoder, and its item separator carries the newline and
    indent that ``indent=2`` gives the items of a dict inside a list.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": ")).encode
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as f:
        opening = "[\n"
        for row in rows:
            f.write(opening + "  {\n    " + encode(row)[1:-1] + "\n  }")
            opening = ",\n"
        f.write("[]\n" if opening == "[\n" else "\n]\n")


def _write_csv(header: str, rows, out: str | None) -> None:
    """Write the header, then each row as it is formed, to ``out`` or stdout."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join([v if isinstance(v, str) else _fmt(v) for v in row]) + "\n")


def _write_table(keys: tuple[str, ...], rows, params: dict) -> None:
    """Write ``rows``, tuples in the order of ``keys``, as CSV or a JSON list of dicts."""
    if params["format"] == "json":
        _write_json_rows((dict(zip(keys, row)) for row in rows), params.get("out"))
    else:
        _write_csv(",".join(keys), rows, params.get("out"))


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _prob_vector(params: dict, N: int | None) -> ProbVector:
    if "p" not in params:
        if N is None:
            raise ValueError("missing required parameter --p (or --N for uniform p)")
        return ProbVector.uniform(N)
    p = ProbVector(tuple(params["p"]))
    if N is not None and p.N != N:
        raise ValueError(f"--N {N} does not match the {p.N}-entry p")
    return p


def _geometry(params: dict) -> tuple[ProbVector, IfsSpec]:
    """p and the interval system; N and r, when given, must agree with a config's ifs."""
    if "ifs" not in params:
        p = _prob_vector(params, params.get("N"))
        return p, canonical_spec(p.N, params.get("r", 1.0 / 3.0))
    spec = IfsSpec.from_dict(params["ifs"])
    for key in ("N", "r"):
        if key in params and params[key] != getattr(spec, key):
            raise ValueError(
                f"{key} = {params[key]} disagrees with the config's ifs {key} = {getattr(spec, key)}"
            )
    return _prob_vector(params, spec.N), spec


def cmd_bounds(params: dict) -> int:
    p = _prob_vector(params, params.get("N"))
    report = classify(p, params["M"], params["r"])
    doc = report.to_dict()
    if params["format"] == "csv":
        keys = ("p", "M", "r", "lower", "upper", "trivial_upper", "sandwich",
                "lambda", "lambda_degenerate", "exact", "exact_reason")
        doc["p"] = ";".join(_fmt(x) for x in report.p)
        _write_csv(",".join(keys), [[doc[k] for k in keys]], params.get("out"))
    else:
        _emit(_json_doc(doc), params.get("out"))
    return 0


def cmd_table1(params: dict) -> int:
    r = 1.0 / 3.0
    rows = []
    for m in TABLE1_PERIODS:
        p = 1.0 / m
        report = classify(ProbVector((p, 1.0 - p)), 2, r)
        rows.append((m, p, report.lower, dim_Fm(m, r), report.upper))
    _write_table(("m", "p", "lower", "dim_Fm", "upper"), rows, params)
    return 0


def cmd_figure1(params: dict) -> int:
    grid, r = params["grid"], params["r"]
    if grid > _GRID_CAP:
        raise _budget_error(f"grid = {grid} points", _GRID_CAP, "_GRID_CAP")
    rows = []
    for k in range(1, grid + 1):
        p = k / (grid + 1.0)
        vec = ProbVector((p, 1.0 - p))
        rows.append((p, lower_bound(vec, 2, r), upper_bound(vec, 2, r)))
    _write_table(("p", "lower", "upper"), rows, params)
    return 0


def cmd_simulate(params: dict) -> int:
    p, spec = _geometry(params)
    M, depth, trials, seed = (params[k] for k in ("M", "depth", "trials", "master_seed"))
    window = tuple(params.get("window", (max(0, depth // 2), depth)))
    # checked before the trials run, which can take minutes
    if not 0 <= window[0] < window[1] <= depth:
        raise ValueError(f"window {list(window)} needs 0 <= lo < hi <= depth = {depth}")
    stats = run_trials(spec, p, M, depth, trials, seed)
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
    keys = ("level", "z_mean", "z_var", "z_min", "z_max", "z_union")
    rows = list(zip(range(depth + 1), *(getattr(stats, k) for k in keys[1:])))
    out = params.get("out")
    if params["format"] == "csv":  # the CSV leaves out z_union
        _write_csv(",".join(keys[:-1]), [row[:-1] for row in rows], out)
        if out:
            Path(out + ".summary.json").write_text(_json_doc(summary))
        else:
            sys.stderr.write(_json_doc(summary))
    else:
        levels = [dict(zip(keys, row)) for row in rows]
        _emit(_json_doc({"summary": summary, "levels": levels}), out)
    return 0


def cmd_exact(params: dict) -> int:
    if params["table"] == "pi":
        seq = pi_sequence(params["N"], params["M"], params.get("n_max", 30))
        _write_table(("n", "pi"), enumerate(seq.values), params)
    else:
        p, M = _prob_vector(params, params.get("N")), params["M"]
        # deepest level first, so a level over a cap exits 3 before any other is summed
        rows = [
            (n, expected_zn(p, M, n), multinomial_bound(p, M, n))
            for n in range(params.get("n_max", 10), -1, -1)
        ][::-1]
        _write_table(("n", "value", "bound"), rows, params)
    return 0


def cmd_deterministic(params: dict) -> int:
    m, r, n = params["m"], params["r"], params.get("n")
    spec = DeterministicSpec(m, params.get("offset"))
    if params["format"] == "csv":
        if spec.offset != m - 1:
            raise ValueError(
                f"--format csv reports the default --offset m - 1 = {m - 1} only, "
                f"got --offset {spec.offset} for --m {m}"
            )
        for key in ("n", "dump"):
            if key in params:
                raise ValueError(
                    f"--format csv reports the dimension row only and builds no words, "
                    f"got --{key} {params[key]}"
                )
        _write_csv("m,L,rho_L,dim_Fm", dimension_rows([m], r), params.get("out"))
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
        words = tree_words(spec, n)
        report["n"] = n
        report["word_count"] = len(words)
        if len(words) <= 64:
            report["words"] = dump_words(words).splitlines()
        if m >= 3 and spec.offset == m - 1:
            # the graph array is dropped before the SFT array is built, so one is held at a time
            checks = {"tree_equals_graph": np.array_equal(words, graph_words(m, n))}
            checks["tree_within_sft"] = rows_within(words, sft_words(level_of(m), n))
            report["checks"] = checks
        if params.get("dump"):
            Path(params["dump"]).write_text(dump_words(words))
    _emit(_json_doc(report), params.get("out"))
    return 0


def cmd_energy(params: dict) -> int:
    p, spec = _geometry(params)
    M, depth, seed = params["M"], params["depth"], params["master_seed"]
    t = params["t"] if "t" in params else 0.5 * lower_bound(p, M, spec.r)
    threads = _usable_cpus()
    rng = np.random.default_rng(seed)
    occ = OccupancyMap.root(M)
    keys = ("level", "energy", "scale")
    rows = []
    stopped = None
    for level in range(1, depth + 1):
        try:
            occ = evolve(occ, p, rng=rng)
            rows.append((level, energy_estimate(occ, spec, t, threads=threads), spec.r**level))
        except (BudgetError, OverflowError) as exc:
            # emit the completed levels, then exit 3 as any budget stop does
            stopped = exc
            break
    if params["format"] == "json":
        doc = {
            "t": t,
            "master_seed": seed,
            "note": "diagnostic only; truncated at each level's interval scale",
            "rows": [dict(zip(keys, row)) for row in rows],
        }
        _emit(_json_doc(doc), params.get("out"))
    else:
        _write_csv(",".join(keys), rows, params.get("out"))
    if stopped is not None:
        raise stopped
    return 0


REQUIRED = object()  # a Param default: the resolved dict must set it


def _comma_list(item: type) -> Callable:
    """Parse '0.3,0.7' from a flag, or [0.3, 0.7] from a config, to a list of ``item``."""

    def comma_list(value):
        if isinstance(value, str):
            value = [s for s in value.split(",") if s.strip()]
        return [item(x) for x in value]

    return comma_list


class Param(NamedTuple):
    """One subcommand parameter: flag, config field and resolved-dict key."""

    name: str
    # argparse type, also applied to the validated value; None: config-only
    type: Callable | None
    schema: dict  # JSON-schema fragment; its "description" is the flag's help
    default: Any = None  # REQUIRED, or None when unset or derived by the command
    flag: str | None = None  # when not --name with '_' spelled '-'


class Command(NamedTuple):
    help: str
    run: Callable[[dict], int]
    params: tuple[Param, ...]
    modes: tuple[str, ...] = ()  # config modes accepted besides the command's own
    rules: dict = {}  # extra JSON-schema keywords tying params together


_RATIO = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_N = Param("N", int, {"type": "integer", "minimum": 2})
_M = Param("M", int, {"type": "integer", "minimum": 2}, REQUIRED)
_P = Param(
    "p",
    _comma_list(float),
    {"type": "array", "minItems": 2, "items": _RATIO,
     "description": "comma-separated probabilities, e.g. 0.5,0.5"},
)
_R = Param("r", float, _RATIO)  # simulate and energy take r from ifs, else 1/3
_R3 = _R._replace(default=1.0 / 3.0)
_DEPTH = Param("depth", int, {"type": "integer", "minimum": 1}, REQUIRED)
_SEED = Param(
    "master_seed", int, {"type": "integer", "minimum": 0, "description": "master seed"}, 0, "--seed"
)
_IFS = Param(
    "ifs",
    None,
    {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "N": {"type": "integer", "minimum": 2},
            "r": _RATIO,
            "translations": {"type": "array", "items": {"type": "number"}},
            "orientations": {"type": "array", "items": {"enum": [1, -1]}},
        },
        "required": ["N", "r"],
    },
)
_OUT = Param("out", str, {"type": "string", "description": "output path (stdout when omitted)"})


def _format(default: str) -> Param:
    return Param("format", str, {"enum": ["json", "csv"]}, default)


COMMANDS = {
    "bounds": Command(
        "dimension bounds report for one (p, M, r)",
        cmd_bounds,
        (_N, _M, _P, _R3, _OUT, _format("json")),
    ),
    "table1": Command(
        "golden comparison table at r=1/3, p=1/m",
        cmd_table1,
        (_OUT, _format("csv")),
        ("bounds",),
    ),
    "figure1": Command(
        "two-map bound curves on a p grid",
        cmd_figure1,
        (Param("grid", int, {"type": "integer", "minimum": 3}, 99), _R3, _OUT, _format("csv")),
        ("bounds",),
    ),
    "simulate": Command(
        "Monte Carlo occupancy statistics",
        cmd_simulate,
        (
            _N, _M, _P, _R, _DEPTH,
            Param("trials", int, {"type": "integer", "minimum": 1}, 100),
            _SEED,
            Param(
                "window",
                _comma_list(int),
                {"type": "array", "items": {"type": "integer", "minimum": 0},
                 "minItems": 2, "maxItems": 2,
                 "description": "inclusive regression window, e.g. 10,20 (default depth//2,depth)"},
            ),
            _IFS, _OUT, _format("json"),
        ),
    ),
    "exact": Command(
        "recursion tables: pi or expected-count-vs-bound",
        cmd_exact,
        (
            Param("table", str, {"enum": ["pi", "zn"]}, "pi"),
            _N, _M, _P,
            Param("n_max", int, {"type": "integer", "minimum": 0,
                                 "description": "last n (default 30 for pi, 10 for zn)"}),
            _OUT, _format("csv"),
        ),
        rules={
            "if": {"properties": {"table": {"const": "pi"}}},
            "then": {"required": ["N"], "properties": {"p": {"not": {}}}},  # pi reads no p
        },
    ),
    "deterministic": Command(
        "periodic-marking report and word sets",
        cmd_deterministic,
        (
            Param("m", int, {"type": "integer", "minimum": 2}, REQUIRED),
            _R3,
            Param("n", int, {"type": "integer", "minimum": 0}),
            Param("offset", int, {"type": "integer", "minimum": 0}),
            Param("dump", str, {"type": "string",
                                "description": "write the level-n word set to this path"}),
            _OUT, _format("json"),
        ),
    ),
    "energy": Command(
        "discrete t-energy diagnostic per level",
        cmd_energy,
        (
            _N, _M._replace(default=2), _P, _R, _DEPTH._replace(default=8), _SEED,
            Param("t", float, {"type": "number", "exclusiveMinimum": 0,
                               "description": "energy exponent (default half the lower bound)"}),
            _IFS, _OUT, _format("csv"),
        ),
    ),
}


def _schema(name: str, command: Command) -> dict:
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "mode": {"enum": [name, *command.modes]},
            **{p.name: p.schema for p in command.params},
        },
        "required": [p.name for p in command.params if p.default is REQUIRED],
        **command.rules,
    }


class ConfigError(ValueError):
    """A resolved parameter dict that breaks its subcommand's schema at ``path``."""

    def __init__(self, path: tuple, message: str):
        super().__init__(message)
        self.path = path


_NUMBER_TYPES = {"number", "integer"}
_TYPES = {"object": dict, "array": list, "string": str}
_BOUNDS = {  # keyword: (fails when, message)
    "minimum": (lambda x, b: x < b, "is less than the minimum of"),
    "exclusiveMinimum": (lambda x, b: x <= b, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (lambda x, b: x >= b, "is greater than or equal to the maximum of"),
}
_ANNOTATIONS = {"$schema", "description", "then"}  # "then" is read by "if"
_KEYWORDS = frozenset({"type", "enum", "const", "minItems", "maxItems", "items", "properties",
                      "additionalProperties", "required", "not", "if", *_BOUNDS, *_ANNOTATIONS})


def _is_type(value, name: str) -> bool:
    """JSON-schema types, except that a number must be finite; a bool is no number."""
    if name not in _NUMBER_TYPES:
        return isinstance(value, _TYPES[name])
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or (
        math.isfinite(value) and (name == "number" or value.is_integer())
    )


def _equal(a, b) -> bool:
    """Equality that tells True from 1, as JSON schema's enum and const do."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _errors(value, schema: dict, path: tuple = ()):
    """Yield (path, message) for each keyword ``value`` breaks.

    Keywords are read in schema order, and each message is the Draft 2020-12
    reference validator's, word for word. Only the keywords in ``_KEYWORDS``,
    the ones ``COMMANDS`` uses, are known.
    """
    for key, arg in schema.items():
        if key == "type" and not _is_type(value, arg):
            if arg in _NUMBER_TYPES and isinstance(value, float) and not math.isfinite(value):
                yield path, f"{value!r} is not a finite number"
            else:
                yield path, f"{value!r} is not of type {arg!r}"
        elif key in _BOUNDS and _is_type(value, "number") and _BOUNDS[key][0](value, arg):
            yield path, f"{value!r} {_BOUNDS[key][1]} {arg!r}"
        elif key == "enum" and not any(_equal(value, e) for e in arg):
            yield path, f"{value!r} is not one of {arg!r}"
        elif key == "const" and not _equal(value, arg):
            yield path, f"{arg!r} was expected"
        elif key == "minItems" and isinstance(value, list) and len(value) < arg:
            yield path, f"{value!r} is too short"
        elif key == "maxItems" and isinstance(value, list) and len(value) > arg:
            yield path, f"{value!r} is too long"
        elif key == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _errors(item, arg, (*path, i))
        elif key == "properties" and isinstance(value, dict):
            for name, sub in arg.items():
                if name in value:
                    yield from _errors(value[name], sub, (*path, name))
        elif key == "additionalProperties" and isinstance(value, dict):  # false only
            extra = sorted((k for k in value if k not in schema.get("properties", {})), key=str)
            if extra:
                verb = "was" if len(extra) == 1 else "were"
                names = ", ".join(map(repr, extra))
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "required" and isinstance(value, dict):
            for name in arg:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "not" and next(_errors(value, arg, path), None) is None:
            yield path, f"{value!r} should not be valid under {arg!r}"
        elif key == "if" and next(_errors(value, arg, path), None) is None:
            yield from _errors(value, schema.get("then", {}), path)
        elif key not in _KEYWORDS:
            raise NotImplementedError(f"JSON-schema keyword {key!r}")


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then explicit flags; validated, then typed."""
    params = COMMANDS[args.command].params
    resolved = {p.name: p.default for p in params if p.default not in (None, REQUIRED)}
    if args.config is not None:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError(f"config must be a JSON object, got {type(config).__name__}")
        resolved.update(config)
    for p in params:
        if p.type is not None and getattr(args, p.name) is not None:
            resolved[p.name] = getattr(args, p.name)
    error = next(_errors(resolved, _schema(args.command, COMMANDS[args.command])), None)
    if error is not None:
        raise ConfigError(*error)
    types = {p.name: p.type for p in params if p.type is not None}
    return {k: types[k](v) if k in types else v for k, v in resolved.items()}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorflip",
        description="Random and deterministic tree-labeled subsets of Cantor sets: "
        "bounds, exact recursions, simulation, and reference tables.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = commands.add_parser(name, help=command.help)
        sub.add_argument("--config", help="JSON experiment config; flags override its fields")
        for p in command.params:
            if p.type is not None:
                sub.add_argument(
                    p.flag or "--" + p.name.replace("_", "-"),
                    dest=p.name,
                    type=p.type,
                    choices=p.schema.get("enum"),
                    help=p.schema.get("description"),
                )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].run(_resolve(args))
    except ConfigError as exc:
        where = "/".join(str(k) for k in exc.path)
        sys.stderr.write(f"config validation error: {where + ': ' if where else ''}{exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 2
    except (BudgetError, OverflowError) as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
