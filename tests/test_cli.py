"""CLI flag handling, config files and exit codes."""

import json
import subprocess
import sys

import pytest

from idjc.cli import main


def run_cli(*args):
    return main(list(args))


class TestRunOk:
    def test_flags_only(self, tmp_path):
        out = tmp_path / "purity.csv"
        code = run_cli("run", "--scenario", "purity-mixture", "--alpha", "5",
                       "--tau-max", "3.1416", "--tau-steps", "60",
                       "--out", str(out))
        assert code == 0
        assert out.exists()
        assert out.read_text().splitlines()[0] == "tau,zeta_numeric,zeta_closed"

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "inversion-cat", "alpha": 3.0, "parity_r": 1,
            "tau_max": 3.141592653589793, "tau_steps": 31,
            "output_path": str(tmp_path / "w.csv"),
        }))
        assert run_cli("run", "--config", str(cfg)) == 0
        assert (tmp_path / "w.csv").exists()

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "purity-mixture", "alpha": 5.0, "tau_steps": 10,
            "output_path": str(tmp_path / "ignored.csv"),
        }))
        out = tmp_path / "actual.csv"
        assert run_cli("run", "--config", str(cfg), "--tau-steps", "12",
                       "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 13  # header + 12 rows

    def test_self_check_mode(self, tmp_path):
        assert run_cli("run", "--scenario", "purity-mixture", "--alpha", "4",
                       "--tau-steps", "25", "--self-check",
                       "--out", str(tmp_path / "sc.csv")) == 0

    def test_json_format(self, tmp_path):
        out = tmp_path / "w.json"
        assert run_cli("run", "--scenario", "inversion-cat", "--tau-steps", "11",
                       "--format", "json", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert "metadata" in doc and "columns" in doc


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "purity-mixture", "alpa": 5.0}))
        assert run_cli("run", "--config", str(cfg)) == 2

    def test_invalid_field_is_2(self, tmp_path):
        assert run_cli("run", "--scenario", "purity-mixture",
                       "--tau-steps", "1", "--out", str(tmp_path / "x.csv")) == 2

    def test_missing_scenario_is_2(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path / "x.csv")) == 2

    def test_numeric_precondition_is_3(self, tmp_path):
        # dim far too small for alpha=5 coherent support
        assert run_cli("run", "--scenario", "purity-mixture", "--alpha", "5",
                       "--dim", "30", "--out", str(tmp_path / "x.csv")) == 3

    def test_io_error_is_4(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run_cli("run", "--scenario", "purity-mixture", "--tau-steps", "5",
                       "--out", str(missing_dir)) == 4

    def test_failed_multi_file_write_leaves_nothing(self, tmp_path):
        (tmp_path / "out_t1.csv").mkdir()  # the second grid file cannot be written
        assert run_cli("run", "--scenario", "qfunc-mixture", "--out", str(tmp_path / "out.csv"),
                       *(f"{key}={val}" for key, val in QFUNC_ARGS.items())) == 4
        assert [p.name for p in tmp_path.iterdir()] == ["out_t1.csv"]

    def test_unreadable_config_is_4(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "none.json")) == 4

    def test_malformed_config_is_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run_cli("run", "--config", str(cfg)) == 2


QFUNC_ARGS = {"--alpha": "2", "--x-min": "-4", "--x-max": "4", "--y-min": "-4",
              "--y-max": "4", "--nx": "5", "--ny": "5", "--tau-values": "0,0.5"}


class TestNonFiniteInput:
    """Every non-finite float or null integer is a configuration error; nothing is written."""

    def run_qfunc(self, tmp_path, flag, value):
        args = dict(QFUNC_ARGS, **{flag: value})
        return run_cli("run", "--scenario", "qfunc-mixture", "--out", str(tmp_path / "q.csv"),
                       *(f"{key}={val}" for key, val in args.items()))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_alpha(self, tmp_path, value):
        assert self.run_qfunc(tmp_path, "--alpha", value) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_lam(self, tmp_path, value):
        assert run_cli("run", "--scenario", "inversion-cat", "--lambda", value,
                       "--tau-steps", "5", "--out", str(tmp_path / "w.csv")) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_tau_max(self, tmp_path, value):
        assert run_cli("run", "--scenario", "purity-mixture", "--tau-max", value,
                       "--tau-steps", "5", "--out", str(tmp_path / "p.csv")) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--x-min", "--x-max", "--y-min", "--y-max"])
    @pytest.mark.parametrize("value", ["-inf", "inf", "nan"])
    def test_grid_bound(self, tmp_path, flag, value):
        assert self.run_qfunc(tmp_path, flag, value) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "0,inf", "0.5,nan"])
    def test_tau_values(self, tmp_path, value):
        assert self.run_qfunc(tmp_path, "--tau-values", value) == 2
        assert list(tmp_path.iterdir()) == []

    def test_null_tau_steps(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "purity-mixture", "tau_steps": None,
                                   "output_path": str(tmp_path / "p.csv")}))
        assert run_cli("run", "--config", str(cfg)) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "idjc.cli", "run", "--scenario", "purity-mixture",
             "--tau-steps", "8", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert str(out) in proc.stdout
        assert out.exists()
