"""Command-line surface: output formats, config handling, exit codes.

Most cases drive ``main()`` in-process and inspect captured stdout; a
single subprocess test covers the installed entry point.
"""

import hashlib
import json
import math
import subprocess
import sys

import pytest

from cantorflip.cli import main


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

    def test_window_flag(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--window", "6,10")
        assert code == 0
        assert json.loads(out)["summary"]["window"] == [6, 10]


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


class TestDeterministic:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "deterministic", "--m", "6", "--n", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["L"] == 1
        assert doc["rho"] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-10)
        assert doc["word_count"] == 5
        assert doc["checks"] == {"tree_equals_graph": True, "tree_within_sft": True}

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "deterministic", "--m", "3", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[0] == "m,L,rho_L,dim_Fm"

    def test_dump_file(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        code, _, _ = run_cli(
            capsys, "deterministic", "--m", "3", "--n", "3", "--dump", str(path)
        )
        assert code == 0
        assert path.read_text() == "000\n001\n010\n"

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


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cantorflip", "table1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("m,p,lower,dim_Fm,upper")


def test_threads_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CANTORFLIP_THREADS", "2")
    code, out, _ = run_cli(capsys, *TestSimulate.ARGS)
    assert code == 0
    # parallel run must match the serial output exactly
    monkeypatch.delenv("CANTORFLIP_THREADS")
    _, out_serial, _ = run_cli(capsys, *TestSimulate.ARGS)
    assert out == out_serial
