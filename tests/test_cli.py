"""Command-line surface: output formats, config handling, exit codes.

Most cases drive ``main()`` in-process and inspect captured stdout; a
single subprocess test covers the installed entry point.
"""

import ast
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorflip import cli
from cantorflip.cli import COMMANDS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


R_FLAG = "0.3333333333333333"


class TestTable1:
    def test_golden_rows_shape(self, capsys):
        code, out, err = run_cli(capsys, "table1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,p,lower,dim_Fm,upper"
        assert len(lines) == 9
        ms = [int(row.split(",")[0]) for row in lines[1:]]
        assert ms == [2, 3, 4, 6, 7, 14, 15, 30]

    def test_m2_row_collapses(self, capsys):
        _, out, _ = run_cli(capsys, "table1")
        row = out.strip().splitlines()[1].split(",")
        lower, dim, upper = map(float, row[2:])
        assert lower == pytest.approx(dim, abs=1e-9)
        assert upper == pytest.approx(dim, abs=1e-9)
        assert dim == pytest.approx(math.log(2) / math.log(3), abs=1e-9)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 8
        assert rows[0]["m"] == 2


class TestBounds:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--N", "2", "--M", "2", "--p", "0.3,0.7", "--r", R_FLAG
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sandwich"] == "within"
        assert doc["lower"] == pytest.approx(0.4958320428966492, abs=1e-9)
        assert doc["upper"] == pytest.approx(0.6115199549626641, abs=1e-9)

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "--N", "2", "--M", "2", "--p", "0.3,0.7", "--r", R_FLAG,
            "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("p,M,r,lower,upper")
        assert row.startswith("0.3;0.7,2,")

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {"mode": "bounds", "N": 2, "M": 2, "p": [0.3, 0.7], "r": 1 / 3}
            )
        )
        code, out, _ = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["sandwich"] == "within"

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {"mode": "bounds", "N": 2, "M": 2, "p": [0.3, 0.7], "r": 1 / 3}
            )
        )
        _, out, _ = run_cli(
            capsys, "bounds", "--config", str(cfg), "--p", "0.5,0.5"
        )
        doc = json.loads(out)
        assert doc["exact_reason"] == "m2-identity"


class TestSimulate:
    ARGS = (
        "simulate", "--N", "2", "--r", R_FLAG, "--M", "2", "--p", "0.5,0.5",
        "--depth", "10", "--trials", "40", "--seed", "7",
    )

    def test_summary_fields(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["trials"] == 40
        assert doc["summary"]["master_seed"] == 7
        assert 0.3 < doc["summary"]["estimate"] < 0.9
        assert len(doc["levels"]) == 11

    def test_reruns_are_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_csv_and_summary_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "sim.csv"
        code, _, _ = run_cli(
            capsys, *self.ARGS, "--format", "csv", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "level,z_mean,z_var,z_min,z_max"
        assert len(lines) == 12
        sidecar = json.loads((tmp_path / "sim.csv.summary.json").read_text())
        assert sidecar["depth"] == 10

    # sha256 of the JSON document, of the CSV and of its summary sidecar at ARGS
    DIGESTS = {
        "json": "160c1df7cd1c2d0643b48b579113e52e3b04bc141745cd61f43057adb2e5caba",
        "csv": "799b91c971b1fc7adb02c534e7741c1633ba0f0018bb62cd384636b2c8727c9f",
        "summary": "d058e827bb75c0d3c9dd0ec90013da337c23c8290f62251ccceb8896518dde81",
    }

    def test_outputs_are_pinned(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, *self.ARGS)
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS["json"]
        out_path = tmp_path / "sim.csv"
        code, _, _ = run_cli(capsys, *self.ARGS, "--format", "csv", "--out", str(out_path))
        assert code == 0
        for key, path in (("csv", out_path), ("summary", tmp_path / "sim.csv.summary.json")):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[key]

    def test_window_flag(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--window", "6,10")
        assert code == 0
        assert json.loads(out)["summary"]["window"] == [6, 10]

    @pytest.mark.parametrize("window", ["5,11", "6,6", "8,2"])
    def test_window_outside_depth_exits_2_before_any_trial(self, capsys, monkeypatch, window):
        def no_trials(*args, **kwargs):
            raise AssertionError("run_trials ran before the window was checked")

        monkeypatch.setattr(cli, "run_trials", no_trials)
        code, out, err = run_cli(capsys, *self.ARGS, "--window", window)
        assert code == 2
        assert out == ""
        lo, hi = window.split(",")
        assert f"window [{lo}, {hi}] needs 0 <= lo < hi <= depth = 10" in err


class TestExact:
    def test_pi_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--table", "pi", "--N", "2", "--M", "2", "--n-max", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,pi"
        assert lines[1] == "0,1"
        assert float(lines[2].split(",")[1]) == pytest.approx(0.75)

    def test_pi_table_refuses_p(self, capsys):
        # pi is the uniform recursion; a p would be ignored
        code, out, err = run_cli(
            capsys,
            "exact", "--table", "pi", "--N", "2", "--M", "2", "--n-max", "3", "--p", "0.3,0.7",
        )
        assert code == 2
        assert out == ""
        assert "config validation error: p: " in err

    def test_pi_table_requires_n(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--table", "pi", "--M", "2")
        assert code == 2
        assert out == ""
        assert "'N' is a required property" in err

    def test_zn_table_bound_dominates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "exact", "--table", "zn", "--p", "0.3333333333333333,0.6666666666666667",
            "--M", "2", "--n-max", "6",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            _, value, bound = line.split(",")
            assert float(value) <= float(bound) * (1 + 1e-9)


    # zn stops at 12: n_max 30 is over its word cap (next test)
    # n_max is the last n of an exact table and the grid of figure1
    @pytest.mark.parametrize(
        "table,n_max",
        [("pi", 0), ("pi", 1), ("pi", 30), ("zn", 0), ("zn", 1), ("zn", 12),
         ("table1", None), ("figure1", 3), ("figure1", 99)],
    )
    def test_json_is_written_row_by_row_as_one_document(self, capsys, tmp_path, table, n_max):
        from cantorflip import (
            ProbVector, classify, dim_Fm, expected_zn, lower_bound, multinomial_bound,
            pi_sequence, upper_bound,
        )

        argv = ["exact", "--table", table, "--N", "2", "--M", "2", "--n-max", str(n_max),
                "--format", "json"]
        if table == "pi":
            doc = [{"n": n, "pi": v} for n, v in enumerate(pi_sequence(2, 2, n_max).values)]
        elif table == "zn":
            p = ProbVector((0.3, 0.7))
            doc = [
                {"n": n, "value": expected_zn(p, 2, n), "bound": multinomial_bound(p, 2, n)}
                for n in range(n_max + 1)
            ]
            argv += ["--p", "0.3,0.7"]
        elif table == "table1":
            doc = []
            for m in cli.TABLE1_PERIODS:
                report = classify(ProbVector((1 / m, 1 - 1 / m)), 2, 1 / 3)
                doc.append({"m": m, "p": 1 / m, "lower": report.lower,
                            "dim_Fm": dim_Fm(m, 1 / 3), "upper": report.upper})
            argv = ["table1", "--format", "json"]
        else:
            vecs = [ProbVector((k / (n_max + 1), 1 - k / (n_max + 1))) for k in range(1, n_max + 1)]
            doc = [{"p": v.values[0], "lower": lower_bound(v, 2, 1 / 3),
                    "upper": upper_bound(v, 2, 1 / 3)} for v in vecs]
            argv = ["figure1", "--grid", str(n_max), "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == cli._json_doc(doc)
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "out.json"))
        assert code == 0
        assert (tmp_path / "out.json").read_text() == cli._json_doc(doc)

    def test_zn_json_past_the_word_cap_writes_nothing(self, capsys):
        code, out, err = run_cli(
            capsys, "exact", "--table", "zn", "--N", "2", "--M", "2", "--n-max", "30",
            "--format", "json",
        )
        assert code == 3
        assert out == ""
        assert "_WORD_CAP" in err


class TestDeterministic:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "deterministic", "--m", "6", "--n", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["L"] == 1
        assert doc["rho"] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-10)
        assert doc["word_count"] == 5
        assert doc["checks"] == {"tree_equals_graph": True, "tree_within_sft": True}

    def test_m_past_level_426(self, capsys):
        # L = 426, the first level where rho's old absolute residual bound raised
        code, out, err = run_cli(capsys, "deterministic", "--m", str(2**427))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["L"] == 426
        assert doc["rho"] == pytest.approx(1.01070684641935, abs=1e-14)

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "deterministic", "--m", "3", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[0] == "m,L,rho_L,dim_Fm"

    @pytest.mark.parametrize("offset", ["0", "2", "3"])
    def test_csv_refuses_another_offset(self, capsys, offset):
        # the row's rho_L and dim_Fm are the default offset's; at m = 5, offset 2
        # the words grow like 1.7549^n, not 1.618^n
        code, out, err = run_cli(
            capsys, "deterministic", "--m", "5", "--offset", offset, "--format", "csv"
        )
        assert code == 2
        assert out == ""
        assert "--format csv" in err and f"--offset {offset}" in err and "--m 5" in err

    def test_csv_accepts_the_default_offset_by_name(self, capsys):
        _, default, _ = run_cli(capsys, "deterministic", "--m", "5", "--format", "csv")
        code, out, _ = run_cli(
            capsys, "deterministic", "--m", "5", "--offset", "4", "--format", "csv"
        )
        assert code == 0
        assert out == default == "m,L,rho_L,dim_Fm\n5,1,1.61803399,0.438017879\n"

    @pytest.mark.parametrize("key", ["n", "dump"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_csv_refuses_word_requests(self, capsys, tmp_path, key, source):
        # the CSV row builds no words, so --n and --dump would be dropped unread
        path = tmp_path / "words.txt"
        value = {"n": 5, "dump": str(path)}[key]
        if source == "flag":
            argv = ["--m", "3", f"--{key}", str(value)]
        else:
            cfg = tmp_path / "det.json"
            cfg.write_text(json.dumps({"m": 3, key: value}))
            argv = ["--config", str(cfg)]
        code, out, err = run_cli(capsys, "deterministic", *argv, "--format", "csv")
        assert (code, out) == (2, "")
        assert "--format csv" in err and f"--{key} {value}" in err
        assert not path.exists()

    def test_dump_file(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        code, _, _ = run_cli(
            capsys, "deterministic", "--m", "3", "--n", "3", "--dump", str(path)
        )
        assert code == 0
        assert path.read_text() == "000\n001\n010\n"

    def test_dump_digest(self, capsys, tmp_path):
        # 1597 words of 16 letters, one a line in ascending order
        path = tmp_path / "words.txt"
        code, _, _ = run_cli(
            capsys, "deterministic", "--m", "3", "--n", "16", "--dump", str(path)
        )
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5045c8ef4a2dd4e5ec8326ed1d322e73ca6c64b7e00f51e7746a31f66864e0de"
        )

    @pytest.mark.parametrize("n", ["40", "1000000"])
    def test_word_budget_exits_3_at_the_first_level_over_cap(self, capsys, n):
        code, out, err = run_cli(capsys, "deterministic", "--m", "3", "--n", n)
        assert code == 3
        assert out == ""
        assert f"5702887 words at level 33 of {n}, over the cap of 4194304 set by _STATE_CAP" in err

    def test_many_residues_few_words(self, capsys):
        code, out, _ = run_cli(capsys, "deterministic", "--m", "4000", "--n", "60")
        assert code == 0
        doc = json.loads(out)
        assert doc["word_count"] == 9988
        assert doc["checks"] == {"tree_equals_graph": True, "tree_within_sft": True}

    def test_dump_from_config(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        cfg = tmp_path / "det.json"
        cfg.write_text(
            json.dumps({"mode": "deterministic", "m": 3, "n": 3, "dump": str(path)})
        )
        code, _, _ = run_cli(capsys, "deterministic", "--config", str(cfg))
        assert code == 0
        assert path.read_text() == "000\n001\n010\n"


@pytest.mark.parametrize("command", ["table1", "figure1"])
@pytest.mark.parametrize("mode", ["own", "bounds"])
def test_table_configs_accept_own_mode_and_bounds(capsys, tmp_path, command, mode):
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps({"mode": command if mode == "own" else mode, "format": "json"}))
    code, out, _ = run_cli(capsys, command, "--config", str(cfg))
    assert code == 0
    _, flag_out, _ = run_cli(capsys, command, "--format", "json")
    assert out == flag_out


class TestConfigFields:
    IFS = {"N": 2, "r": 0.25, "translations": [0, 0.75], "orientations": [-1, 1]}
    ENERGY = {"mode": "energy", "ifs": IFS, "M": 2, "p": [0.5, 0.5], "depth": 4, "master_seed": 3}

    def run_config(self, capsys, tmp_path, config, *flags):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config))
        return run_cli(capsys, "energy", "--config", str(cfg), *flags)

    @pytest.mark.parametrize("flag", [("--N", "2"), ("--r", "0.25")])
    def test_agreeing_flag_keeps_the_ifs_geometry(self, capsys, tmp_path, flag):
        _, plain, _ = self.run_config(capsys, tmp_path, self.ENERGY)
        code, flagged, _ = self.run_config(capsys, tmp_path, self.ENERGY, *flag)
        _, canonical, _ = run_cli(
            capsys,
            "energy", "--N", "2", "--r", "0.25", "--M", "2", "--p", "0.5,0.5",
            "--depth", "4", "--seed", "3",
        )
        assert code == 0
        assert flagged == plain != canonical

    @pytest.mark.parametrize("where", ["flag", "field"])
    def test_r_disagreeing_with_ifs_exits_2(self, capsys, tmp_path, where):
        if where == "flag":
            code, out, err = self.run_config(capsys, tmp_path, self.ENERGY, "--r", "0.2")
        else:
            code, out, err = self.run_config(capsys, tmp_path, {**self.ENERGY, "r": 0.2})
        assert code == 2
        assert out == ""
        assert "r = 0.2" in err and "r = 0.25" in err

    def test_field_the_command_does_not_read_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "table.json"
        cfg.write_text(json.dumps({"mode": "table1", "r": 0.2}))
        code, out, err = run_cli(capsys, "table1", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "config validation error" in err and "'r' was unexpected" in err


# One bad config per schema keyword, and the exact stderr line it gives. The
# lines are the Draft 2020-12 reference validator's, which the CLI used before
# it checked configs itself; "a finite number" is the checker's own rule.
BAD_CONFIGS = {
    "type": ("bounds", {"M": "2"}, "M: '2' is not of type 'integer'"),
    "type-bool": ("bounds", {"M": True}, "M: True is not of type 'integer'"),
    "type-float": ("bounds", {"M": 2.5}, "M: 2.5 is not of type 'integer'"),
    "minimum": ("bounds", {"M": 1}, "M: 1 is less than the minimum of 2"),
    "exclusiveMinimum": ("energy", {"t": 0}, "t: 0 is less than or equal to the minimum of 0"),
    "exclusiveMaximum": (
        "bounds", {"N": 2, "M": 2, "r": 1}, "r: 1 is greater than or equal to the maximum of 1"
    ),
    "enum": ("table1", {"format": "xml"}, "format: 'xml' is not one of ['json', 'csv']"),
    "enum-bool": (
        "energy",
        {"ifs": {"N": 2, "r": 0.25, "orientations": [True, -1]}},
        "ifs/orientations/0: True is not one of [1, -1]",
    ),
    "mode": ("bounds", {"mode": "simulate"}, "mode: 'simulate' is not one of ['bounds']"),
    "minItems": ("bounds", {"M": 2, "p": [0.5]}, "p: [0.5] is too short"),
    "maxItems": (
        "simulate", {"N": 2, "M": 2, "depth": 4, "window": [0, 2, 4]}, "window: [0, 2, 4] is too long"
    ),
    "items": (
        "simulate", {"N": 2, "M": 2, "depth": 4, "window": [2, -1]},
        "window/1: -1 is less than the minimum of 0",
    ),
    "properties": ("energy", {"ifs": {"N": 1, "r": 0.25}}, "ifs/N: 1 is less than the minimum of 2"),
    "additionalProperties": (
        "table1", {"r": 0.2}, "Additional properties are not allowed ('r' was unexpected)"
    ),
    "additionalProperties-two": (
        "table1", {"b": 1, "a": 2}, "Additional properties are not allowed ('a', 'b' were unexpected)"
    ),
    "additionalProperties-ifs": (
        "energy",
        {"ifs": {"N": 2, "r": 0.25, "x": 0}},
        "ifs: Additional properties are not allowed ('x' was unexpected)",
    ),
    "required": ("bounds", {"N": 2}, "'M' is a required property"),
    "if-then-required": ("exact", {"M": 2}, "'N' is a required property"),
    "if-then-not": (
        "exact", {"N": 2, "M": 2, "p": [0.3, 0.7]}, "p: [0.3, 0.7] should not be valid under {}"
    ),
    "several": (
        "bounds", {"M": 1, "p": [1.5], "x": 0},
        "Additional properties are not allowed ('x' was unexpected)",
    ),
    "finite-nan": ("energy", {"N": 2, "depth": 3, "t": math.nan}, "t: nan is not a finite number"),
    "finite-inf": ("bounds", {"N": 2, "M": 2, "r": math.inf}, "r: inf is not a finite number"),
    "finite-integer": ("bounds", {"M": -math.inf}, "M: -inf is not a finite number"),
    "finite-item": ("bounds", {"M": 2, "p": [0.5, math.nan]}, "p/1: nan is not a finite number"),
    "finite-ifs": (
        "energy",
        {"ifs": {"N": 2, "r": 0.25, "translations": [0, math.inf]}},
        "ifs/translations/1: inf is not a finite number",
    ),
}


@pytest.mark.parametrize("name", list(BAD_CONFIGS))
def test_bad_config_names_its_error(capsys, tmp_path, name):
    command, config, message = BAD_CONFIGS[name]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))  # NaN and Infinity, as Python's json reads them
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert (code, out, err) == (2, "", f"config validation error: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--t", "nan"], "t: nan is not a finite number"),
        (["--t", "inf"], "t: inf is not a finite number"),
        (["--r", "nan"], "r: nan is not a finite number"),
        (["--r", "inf"], "r: inf is not a finite number"),
        (["--p", "0.5,nan"], "p/1: nan is not a finite number"),
    ],
    ids=" ".join,
)
def test_non_finite_flag_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "energy", "--N", "2", "--M", "2", "--depth", "3", *argv)
    assert (code, out, err) == (2, "", f"config validation error: {message}\n")


@pytest.mark.parametrize(
    "schema,value,errors",
    [
        ({"const": "pi"}, "zn", [((), "'pi' was expected")]),
        ({"const": 1}, True, [((), "1 was expected")]),
        ({"enum": [1, -1]}, 1.0, []),
        ({"type": "integer"}, 2.0, []),
        ({"type": "number", "minimum": 0}, "x", [((), "'x' is not of type 'number'")]),
        ({"type": "integer", "minimum": 2}, 10**400, []),
    ],
)
def test_checker_keyword_semantics(schema, value, errors):
    assert list(cli._errors(value, schema)) == errors


def _schema_keywords(schema: dict):
    """Every (keyword, argument) pair in ``schema`` and its subschemas."""
    for key, arg in schema.items():
        yield key, arg
        if key == "properties":
            for sub in arg.values():
                yield from _schema_keywords(sub)
        elif key in ("items", "not", "if", "then"):
            yield from _schema_keywords(arg)


def test_checker_knows_every_schema_keyword():
    # a Param fragment with, say, "pattern" must fail here, not go unchecked
    for name, command in COMMANDS.items():
        for key, arg in _schema_keywords(cli._schema(name, command)):
            assert key in cli._KEYWORDS, (name, key)
            if key == "type":
                assert arg in {*cli._TYPES, *cli._NUMBER_TYPES}, (name, arg)
            if key == "additionalProperties":
                assert arg is False, name


_SCALARS = st.one_of(
    st.integers(-3, 12),
    st.floats(-2, 3, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0]),
    st.booleans(),
    st.sampled_from(["pi", "zn", "json", "csv", "bounds", "simulate", "", "x"]),
    st.none(),
)
_LISTS = st.lists(_SCALARS, max_size=4)
_IFS_LIKE = st.dictionaries(
    st.sampled_from(["N", "r", "translations", "orientations", "x"]),
    st.one_of(_SCALARS, _LISTS),
    max_size=5,
)


@st.composite
def _configs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    fields = [p.name for p in COMMANDS[name].params] + ["mode", "unknown"]
    values = st.one_of(_SCALARS, _LISTS, _IFS_LIKE)
    return name, draw(st.dictionaries(st.sampled_from(fields), values, max_size=len(fields)))


@settings(max_examples=600, deadline=None)
@given(_configs())
def test_checker_matches_reference_validator(case):
    jsonschema = pytest.importorskip("jsonschema")
    name, config = case
    schema = cli._schema(name, COMMANDS[name])
    expected = [
        (tuple(e.absolute_path), e.message)
        for e in jsonschema.Draft202012Validator(schema).iter_errors(config)
    ]
    errors = list(cli._errors(config, schema))
    assert (errors == []) == (expected == [])  # accepts exactly what the reference accepts
    # the same errors, paths and words in the same order, so the first, which
    # main() prints, is the reference's first
    assert errors == expected


# One sample per parameter name, valid for every subcommand that has it; a
# new parameter without a sample fails test_flag_equals_config_field.
SAMPLES = {
    "N": 2, "M": 3, "p": [0.4, 0.6], "r": 0.2, "depth": 5, "trials": 7,
    "master_seed": 11, "window": [2, 5], "grid": 11, "n_max": 5, "m": 6,
    "n": 5, "offset": 1, "t": 0.3,
}
# A config each subcommand runs on
BASE = {
    "bounds": {"M": 2, "p": [0.3, 0.7]},
    "table1": {},
    "figure1": {"grid": 9},
    "simulate": {"M": 2, "p": [0.5, 0.5], "depth": 6, "trials": 5},
    "exact": {"table": "zn", "N": 2, "M": 2, "n_max": 4},
    "deterministic": {"m": 3, "n": 4},
    "energy": {"M": 2, "p": [0.5, 0.5], "depth": 4},
}
# A config in place of BASE for a parameter whose sample refuses a BASE field:
# deterministic's CSV row builds no words, so it refuses n
BASE_FOR = {("deterministic", "format"): {"m": 3}}
FLAG_PARAMS = [
    (command, param)
    for command, spec in COMMANDS.items()
    for param in spec.params
    if param.type is not None
]


@pytest.mark.parametrize(
    "command,param", FLAG_PARAMS, ids=[f"{c}-{p.name}" for c, p in FLAG_PARAMS]
)
def test_flag_equals_config_field(capsys, tmp_path, command, param):
    if "enum" in param.schema:  # the choice that is not the default
        value = next(v for v in param.schema["enum"] if v != param.default)
    elif param.schema.get("type") == "string":  # an output path
        value = str(tmp_path / param.name)
    else:
        value = SAMPLES[param.name]
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    flag = param.flag or "--" + param.name.replace("_", "-")
    base = BASE_FOR.get((command, param.name), BASE[command])
    base = {k: v for k, v in base.items() if k != param.name}
    cfg = tmp_path / "exp.json"
    results = []
    for config, flags in (({**base, param.name: value}, []), (base, [flag, text])):
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, command, "--config", str(cfg), *flags)
        written = sorted((f.name, f.read_text()) for f in tmp_path.iterdir() if f != cfg)
        for f in tmp_path.iterdir():
            if f != cfg:
                f.unlink()
        assert code == 0, err
        results.append((out, err, written))
    assert results[0] == results[1]


def _readme_cli_lines():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cantorflip ")]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_line_runs(capsys, tmp_path, argv):
    argv = [
        str(tmp_path / "words.txt") if before == "--dump" else arg
        for before, arg in zip(["", *argv], argv)
    ]
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert (tmp_path / "out").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--table", "pi", "--N", "2", "--M", "3", "--n-max", "50"],
        ["exact", "--table", "zn", "--p", "0.3,0.7", "--M", "2", "--n-max", "6"],
        ["table1"],
        ["simulate", "--M", "2", "--p", "0.5,0.5", "--depth", "5", "--trials", "3", "--format", "csv"],
    ],
    ids=" ".join,
)
def test_csv_to_out_file_matches_stdout(capsys, tmp_path, argv):
    _, stdout, _ = run_cli(capsys, *argv)
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "out.csv"))
    assert code == 0
    assert (tmp_path / "out.csv").read_bytes() == stdout.encode()


class TestFigure1:
    def test_grid(self, capsys):
        code, out, _ = run_cli(capsys, "figure1", "--grid", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,lower,upper"
        assert len(lines) == 10
        mid = lines[5].split(",")
        assert float(mid[0]) == pytest.approx(0.5)
        assert float(mid[1]) == pytest.approx(float(mid[2]), abs=1e-9)


class TestEnergy:
    def test_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "energy", "--N", "2", "--r", R_FLAG, "--M", "2", "--p", "0.5,0.5",
            "--depth", "5", "--seed", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,energy,scale"
        assert len(lines) == 6

    def test_readme_example_digest(self, capsys):
        # pinned from the full-matrix pair sum the tiled sum replaced
        code, out, _ = run_cli(
            capsys,
            "energy", "--N", "2", "--r", R_FLAG, "--M", "2", "--p", "0.5,0.5",
            "--depth", "8", "--seed", "3",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7075e092fa39152ce4f2072c0d8f7a607f6accc0ef18c8912f52070af08c6bfa"
        )


# sha256 of energy stdout at the benchmark's N = 4 shape, depth 12, pinned
# from the per-word midpoint loop that the stacked interval call replaced
ENERGY_DIGESTS = {
    (1, "csv"): "86c78d8e227023095cc081f8b9c6e1c1334e56528521b2455f37622821314063",
    (1, "json"): "6d95509d570229bb61a35afa2fa6b9fa8e16b11d64655f1d85d0c4f9ce9118fd",
    (2, "csv"): "1a3f44f3f3717eb2c02a0790b445824474d4aadf0d23cd33402b99b2c9765797",
    (2, "json"): "83d9cbb493a2931c531e8699df851541af8a7fb403038a1ddfe3743e2b106ccb",
    (3, "csv"): "5298659b5ab2ff4911aa783143cd96355d7151dfdc05602cc38aaa9beb4a1aac",
    (3, "json"): "65bac63c7f975ba0b1698669b2399b37c7bc017f2e367b206cf7b59c52d723a4",
}
# the same for a config with reflected first and last maps (N = M = 3, depth
# 7); r and the translations are not dyadic, so a reordered step rounds apart
REFLECTED_ENERGY = {
    "mode": "energy",
    "ifs": {"N": 3, "r": 0.22, "translations": [0.03, 0.41, 0.77], "orientations": [-1, 1, -1]},
    "M": 3, "p": [0.2, 0.3, 0.5], "depth": 7, "master_seed": 5,
}
REFLECTED_ENERGY_DIGESTS = {
    "csv": "52ea0da951ff3af2b4bd348f1824ae2b17019883570a2d106361c6929d741928",
    "json": "1a659a06a2ffb6e85cea31bc4f0bd4abe0af9fe3a1b44f9c48b593572e0ae555",
}


ENERGY_ARGS = (
    "energy", "--N", "4", "--M", "2", "--p", "0.25,0.25,0.25,0.25", "--r", "0.2", "--depth", "12",
)


class TestEnergyDigests:
    @pytest.mark.parametrize("seed,fmt", sorted(ENERGY_DIGESTS))
    def test_benchmark_shape(self, capsys, seed, fmt):
        code, out, _ = run_cli(capsys, *ENERGY_ARGS, "--seed", str(seed), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ENERGY_DIGESTS[seed, fmt]

    @pytest.mark.parametrize("fmt", sorted(REFLECTED_ENERGY_DIGESTS))
    def test_reflected_config(self, capsys, tmp_path, fmt):
        cfg = tmp_path / "energy.json"
        cfg.write_text(json.dumps(REFLECTED_ENERGY))
        code, out, _ = run_cli(capsys, "energy", "--config", str(cfg), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == REFLECTED_ENERGY_DIGESTS[fmt]


# sha256 of the JSON row tables and bounds reports, pinned from the
# whole-document writers that the row-by-row table writer and the
# field-driven BoundsReport.to_dict replaced, and of the bounds and
# deterministic CSV rows, pinned before their columns were named once
DOCUMENT_DIGESTS = {
    "table1 --format json":
        "ec20c0c60f8f43b5ddcd83bc29455a21c5bfb6a4edb5f0977fab3a13df099084",
    "figure1 --grid 999 --format json":
        "f140847ab457a6e9eb92c3976c827d528aee24ad3ee2b109b81776fb283800a4",
    "figure1 --format json --r 0.25":
        "fce703c1f20fb5ed8f7fda2dc9a94b76d802cd1fc1574edc5cc5d72c4873f910",
    "exact --table zn --p 0.3,0.7 --M 2 --n-max 12 --format json":
        "ab8a7ad583f8bc679709f20df342e34872a89cbbd196b08bc7cfe0e01ad40838",
    "exact --table pi --N 2 --M 3 --n-max 50 --format json":
        "a836e27be938c357ffee60530f21de69b58fcd73e103793f7fa1e9b49a7cb7cb",
    "bounds --p 0.3,0.7 --M 2":
        "c65d4a3137712c9ac32cf06946d869df80c91c75e942959a9a1acda1ee5ba7f6",
    "bounds --N 3 --M 5":
        "f3ee88a836efbfee412f6a4e10018459b5eccc7763724de93cd693d40394c868",
    "bounds --p 0.2,0.3,0.5 --M 3 --r 0.2":
        "9a8f797fbd7b3a998ca230d9971247af2c21c9057eb2abf66eb6892dbe250e9c",
    "bounds --p 0.3,0.7 --M 2 --format csv":
        "414c0676c58617ca97f112bff4bed93cde80953d358982cfa2aac9e401373ce3",
    "bounds --N 3 --M 5 --format csv":
        "b9a0f6eb21cc8be3fbf506b564f420908b1eccaab88c0a0c2065308edbad4a6d",
    "bounds --p 0.2,0.3,0.5 --M 3 --r 0.2 --format csv":
        "fecb301f2b4ed7ccc4df067bcc7ac0f2a0f67ce75a7d19d46e0ceaae14ecf575",
    "deterministic --m 6 --format csv":
        "f24af7933c2480b697ed902e2425f41276b12c8712a69ade9a536b37e6d26a99",
    # word reports: the listed words, the word-heavy m = 3 and the residue-heavy m = 4000
    "deterministic --m 6 --n 8":
        "c68fb267f75b0adf54dcfa2ba4e415b22971e9a74d59454e33178dc7fdef0e1a",
    "deterministic --m 3 --n 22":
        "0f99b43d0d940abc4c638a09e6d5714287ad508f116e02de80ef756694a2e099",
    "deterministic --m 4000 --n 36":
        "0f51dacea9ad5f54144b870eed77df28dae140eed13448f2befd7192f3268784",
}


@pytest.mark.parametrize("line", sorted(DOCUMENT_DIGESTS))
def test_document_digest_to_stdout_and_out(capsys, tmp_path, line):
    code, out, _ = run_cli(capsys, *line.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DOCUMENT_DIGESTS[line]
    code, _, _ = run_cli(capsys, *line.split(), "--out", str(tmp_path / "out.json"))
    assert code == 0
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == DOCUMENT_DIGESTS[line]


class TestFailures:
    def test_bad_probabilities_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--N", "2", "--M", "2", "--p", "0.5,0.6", "--r", R_FLAG
        )
        assert code == 2
        assert "validation error" in err

    def test_bad_config_schema_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mode": "bounds", "N": 2, "bogus": True}))
        code, _, err = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == 2
        assert "config validation error" in err

    def test_mode_mismatch_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"mode": "simulate", "M": 2}))
        code, _, err = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == 2

    def test_budget_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--N", "2", "--r", R_FLAG, "--M", "2", "--p", "0.5,0.5",
            "--depth", "40", "--trials", "10", "--seed", "1",
        )
        assert code == 3
        assert "budget exceeded" in err

    def test_size_past_string_conversion_limit_exits_3(self, capsys):
        # 2**20000 has more digits than Python converts to a string
        code, _, err = run_cli(
            capsys,
            "simulate", "--N", "2", "--M", "2", "--p", "0.5,0.5", "--depth", "20000",
            "--trials", "1",
        )
        assert code == 3
        assert "M^depth = 2^20000 paths a trial, over the cap of" in err

    def test_energy_pair_budget_exit_3(self, capsys, monkeypatch):
        # a cap of 2^8 pairs trips once a level holds more than 16 words
        import cantorflip.stochastic as stochastic

        monkeypatch.setattr(stochastic, "_PAIR_CAP", 1 << 8)
        code, out, err = run_cli(
            capsys,
            "energy", "--N", "2", "--M", "2", "--p", "0.5,0.5", "--depth", "12",
            "--seed", "1",
        )
        assert code == 3
        assert "budget exceeded" in err
        assert "_PAIR_CAP" in err and "256" in err
        # the levels completed before the stop are still emitted
        lines = out.strip().splitlines()
        assert lines[0] == "level,energy,scale"
        levels = [int(line.split(",")[0]) for line in lines[1:]]
        assert levels == list(range(1, len(levels) + 1))
        assert len(levels) >= 4  # levels 1-4 hold at most 16 words
        assert f"level {len(levels) + 1} energy needs" in err


BUDGET_MESSAGES = {
    "figure1 grid": (
        ["figure1", "--grid", str(cli._GRID_CAP + 1)],
        "grid = 100001 points, over the cap of 100000 set by _GRID_CAP",
    ),
    "pi steps": (
        ["exact", "--table", "pi", "--N", "2", "--M", "3", "--n-max", "1000001"],
        "n_max = 1000001 steps, over the cap of 1000000 set by _PI_CAP",
    ),
}


@pytest.mark.parametrize("name", sorted(BUDGET_MESSAGES))
def test_budget_exit_3_before_any_work(capsys, monkeypatch, name):
    argv, message = BUDGET_MESSAGES[name]

    def refuse(*args):
        raise AssertionError("work started before the budget check")

    for attr in ("lower_bound", "upper_bound", "_fmt"):
        monkeypatch.setattr(cli, attr, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"budget exceeded: {message}\n"


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cantorflip", "table1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("m,p,lower,dim_Fm,upper")


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Two usable CPUs, and the max_workers of every pool the stochastic layer starts."""
    import cantorflip.stochastic as stochastic

    sizes = []

    class Spy(stochastic.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(stochastic, "ThreadPoolExecutor", Spy)
    return sizes


# three blocks of 16 trials; an energy level past 64 words has two tiles or more.
# CANTORFLIP_THREADS, once a worker-count knob, is set in some cases to show
# that it is ignored: simulate runs 1 worker, energy one per usable CPU.
POOLED_SIMULATE = ("simulate", "--M", "2", "--p", "0.5,0.5", "--depth", "12", "--trials", "40")
POOLED_ENERGY = ("energy", "--N", "2", "--M", "2", "--p", "0.5,0.5", "--depth", "8", "--seed", "3")


@pytest.mark.parametrize(
    "env,argv,sizes",
    [
        ("64", POOLED_SIMULATE, set()),
        (None, POOLED_SIMULATE, set()),
        ("64", POOLED_ENERGY, {2}),
        (None, POOLED_ENERGY, {2}),
        ("1", POOLED_ENERGY, {2}),
    ],
    ids=["simulate-64", "simulate-unset", "energy-64", "energy-unset", "energy-1"],
)
def test_worker_count_is_capped_at_the_usable_cpus(capsys, monkeypatch, pool_sizes, env, argv, sizes):
    if env is not None:
        monkeypatch.setenv("CANTORFLIP_THREADS", env)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert set(pool_sizes) == sizes


def test_usable_cpus_fall_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli._usable_cpus() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


_ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def test_package_reads_no_environment_variable():
    # outputs and worker counts follow from flags, configs and the CPU affinity
    # mask alone; a knob read from the environment would bring that back
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in _ENVIRONMENT_NAMES]
    assert found == []


def test_cli_import_loads_no_schema_library():
    # configs are checked in-repo, so starting the CLI imports no schema package
    code = "import json, sys, cantorflip, cantorflip.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    roots = {name.split(".")[0] for name in json.loads(proc.stdout)}
    assert roots & {"jsonschema", "referencing", "attrs"} == set()


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in allowed]
    assert found == []
