"""CLI flag handling, config files and exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idjc.cli
from idjc import scenarios
from idjc.cli import build_parser, main
from idjc.scenarios import SCENARIO_NAMES, ScenarioConfig

from conftest import small_config


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

    def test_self_check_at_alpha_64(self, tmp_path):
        """The series check reads the dropped tail, not the weights' rounding."""
        assert run_cli("run", "--scenario", "purity-mixture", "--alpha", "64",
                       "--tau-steps", "3", "--self-check",
                       "--out", str(tmp_path / "p.csv")) == 0

    def test_self_check_mode(self, tmp_path):
        assert run_cli("run", "--scenario", "purity-mixture", "--alpha", "4",
                       "--tau-steps", "25", "--self-check",
                       "--out", str(tmp_path / "sc.csv")) == 0

    @pytest.mark.parametrize("tau", ["1e6", "1e8", "1e12", "1e300"])
    @pytest.mark.parametrize("scenario", ["inversion-cat", "purity-mixture", "cat-transition",
                                          "qfunc-mixture"])
    def test_self_check_passes_at_large_tau(self, tmp_path, scenario, tau):
        """Both routes take the intensity-dependent phases at tau mod 2 pi, exactly."""
        taus = ["--tau-max", tau, "--tau-steps", "50"]
        if scenario == "qfunc-mixture":
            taus = ["--tau-values", f"{tau},0.5", "--x-min=-8", "--x-max", "8",
                    "--y-min=-8", "--y-max", "8", "--nx", "9", "--ny", "9"]
        assert run_cli("run", "--scenario", scenario, *taus, "--self-check",
                       "--out", str(tmp_path / "t.csv")) == 0

    def test_vacuum_limit_alpha(self, tmp_path):
        """alpha^2 underflows here; the closed-form column must stay finite."""
        out = tmp_path / "p.csv"
        assert run_cli("run", "--scenario", "purity-mixture", "--alpha", "1e-160",
                       "--tau-steps", "5", "--self-check", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 5
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    @pytest.mark.parametrize("alpha", ["1e-7", "1e-9"])
    def test_odd_cat_small_alpha(self, tmp_path, alpha):
        """The odd-cat bracket and numerator vanish like alpha^2 here."""
        out = tmp_path / "w.csv"
        assert run_cli("run", "--scenario", "inversion-cat", "--parity-r", "-1",
                       "--alpha", alpha, "--tau-steps", "25", "--self-check",
                       "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 25
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_odd_cat_tiny_alpha(self, tmp_path):
        """At alpha = 1e-160 the odd cat is |1>, whose inversion is cos 4 tau."""
        out = tmp_path / "w.csv"
        assert run_cli("run", "--scenario", "inversion-cat", "--parity-r", "-1",
                       "--alpha", "1e-160", "--tau-steps", "9", "--self-check",
                       "--out", str(out)) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.allclose(table[:, 1:], np.cos(4.0 * table[:, :1]), rtol=0.0, atol=1e-12)

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

    def test_io_error_is_4(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run_cli("run", "--scenario", "purity-mixture", "--tau-steps", "5",
                       "--out", str(missing_dir)) == 4
        err = capsys.readouterr().err  # the requested path, not its temporary file
        assert f"'{missing_dir}'" in err and ".tmp" not in err
        assert not (tmp_path / "no").exists()

    def test_failed_multi_file_write_leaves_nothing(self, tmp_path, capsys):
        (tmp_path / "out_t1.csv").mkdir()  # the second grid file cannot be written
        assert run_cli("run", "--scenario", "qfunc-mixture", "--out", str(tmp_path / "out.csv"),
                       *(f"{key}={val}" for key, val in QFUNC_ARGS.items())) == 4
        assert [p.name for p in tmp_path.iterdir()] == ["out_t1.csv"]
        err = capsys.readouterr().err
        assert f"'{tmp_path / 'out_t1.csv'}'" in err and ".tmp" not in err

    def test_failed_grid_write_leaves_nothing(self, tmp_path, capsys):
        temp = tmp_path / f".out_t1.csv.{os.getpid()}.tmp"
        temp.mkdir()  # the second grid's temporary file cannot be opened for writing
        assert run_cli("run", "--scenario", "qfunc-mixture", "--out", str(tmp_path / "out.csv"),
                       *(f"{key}={val}" for key, val in QFUNC_ARGS.items())) == 4
        assert [p.name for p in tmp_path.iterdir()] == [temp.name]
        err = capsys.readouterr().err
        assert f"'{tmp_path / 'out_t1.csv'}'" in err and ".tmp" not in err

    def test_unreadable_config_is_4(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "none.json")) == 4

    def test_malformed_config_is_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run_cli("run", "--config", str(cfg)) == 2

    def test_non_utf8_config_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b'{"scenario": "purity-mixture", "output_path": "\xff.csv"}')
        assert run_cli("run", "--config", str(cfg)) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


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

    @pytest.mark.parametrize("scenario,flag,value", [
        ("purity-mixture", "--tau-max", "1e308"),
        ("inversion-cat", "--tau-max", "1e307"),
        ("qfunc-mixture", "--tau-values", "0,1e308"),
    ])
    def test_overflowing_pair_phase(self, tmp_path, scenario, flag, value):
        """tau * dim overflows, but both routes reduce an intensity-dependent tau mod 2 pi first."""
        args = dict(QFUNC_ARGS if scenario == "qfunc-mixture" else {"--tau-steps": "3"},
                    **{"--alpha": "1", flag: value})
        assert run_cli("run", "--scenario", scenario, "--out", str(tmp_path / "o.csv"),
                       *(f"{key}={val}" for key, val in args.items()), "--self-check") == 0
        written = list(tmp_path.iterdir())
        assert written and all(math.isfinite(v) for path in written
                               for v in _written_numbers(path))

    def test_overflowing_q_series_phase(self, tmp_path):
        """tau * 82, the Q oracle's terms out to the corner, overflows; the oracle reduces tau."""
        args = ["--alpha", "1", "--x-min=-16", "--x-max", "16", "--y-min=-16", "--y-max", "16",
                "--nx", "5", "--ny", "5", "--tau-values", "6e306,1e308", "--self-check"]
        assert run_cli("run", "--scenario", "qfunc-mixture", "--out", str(tmp_path / "q.csv"),
                       *args) == 0
        written = sorted(tmp_path.iterdir())
        assert [path.name for path in written] == ["q_t0.csv", "q_t1.csv"]
        assert all(math.isfinite(v) for path in written for v in _written_numbers(path))

    @pytest.mark.parametrize("tau_max,code", [("4e307", 0), ("5e307", 2)])
    def test_ordinary_pair_phase(self, tmp_path, capsys, tau_max, code):
        """The ordinary sweep's phase tau * sqrt(18) is not reduced: it must stay finite."""
        assert run_cli("run", "--scenario", "ordinary-contrast", "--alpha", "1", "--tau-steps",
                       "3", "--tau-max", tau_max, "--self-check",
                       "--out", str(tmp_path / "o.csv")) == code
        if code:
            assert capsys.readouterr().err == ("error: tau_max: the ordinary pair phase "
                                               "tau * sqrt(18) overflows\n")
            assert list(tmp_path.iterdir()) == []
        else:
            assert all(math.isfinite(v) for v in _written_numbers(tmp_path / "o.csv"))

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    @pytest.mark.parametrize("value", ["2e154", "1.7976931348623157e308"])
    def test_overflowing_alpha_square(self, tmp_path, capsys, scenario, value):
        """A finite alpha whose square overflows cannot size dim."""
        args = dict(QFUNC_ARGS, **{"--alpha": value, "--tau-steps": "3"})
        assert run_cli("run", "--scenario", scenario, "--out", str(tmp_path / "o.csv"),
                       *(f"{key}={val}" for key, val in args.items())) == 2
        assert capsys.readouterr().err.startswith("error: alpha: ")
        assert list(tmp_path.iterdir()) == []

    def test_null_tau_steps(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "purity-mixture", "tau_steps": None,
                                   "output_path": str(tmp_path / "p.csv")}))
        assert run_cli("run", "--config", str(cfg)) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


class TestCountsBeyondIndexing:
    """A tau or grid count no array can hold, or a level count no int64 holds, exits 2."""

    @pytest.mark.parametrize("flag", ["--nx", "--ny"])
    @pytest.mark.parametrize("value", [str(2 ** 63), str(2 ** 63 - 1), str(2 ** 60)])
    def test_grid_count(self, tmp_path, capsys, flag, value):
        """2**63 once raised IndexError out of the gate, as np.linspace does for 2**63 - 1."""
        args = dict(QFUNC_ARGS, **{flag: value})
        assert run_cli("run", "--scenario", "qfunc-mixture", "--out", str(tmp_path / "q.csv"),
                       *(f"{key}={val}" for key, val in args.items())) == 2
        assert capsys.readouterr().err == (f"error: {flag[2:]}: must be at most {2 ** 60 - 1}, "
                                           f"the most floats one array holds, got {value}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["100000000000000000000000", str(2 ** 60)])
    def test_tau_steps(self, tmp_path, capsys, value):
        assert run_cli("run", "--scenario", "purity-mixture", "--tau-steps", value,
                       "--out", str(tmp_path / "p.csv")) == 2
        assert capsys.readouterr().err.startswith("error: tau_steps: must be at most ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dim", [[], ["--dim", "10"]], ids=["auto", "explicit"])
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_alpha_level_count(self, tmp_path, capsys, scenario, dim):
        """alpha = 1e150 once reached scipy's Poisson tail with a count beyond int64."""
        args = dict(QFUNC_ARGS if scenario == "qfunc-mixture" else {"--tau-steps": "3"},
                    **{"--alpha": "1e150"})
        assert run_cli("run", "--scenario", scenario, "--out", str(tmp_path / "o.csv"),
                       *(f"{key}={val}" for key, val in args.items()), *dim) == 2
        levels = idjc.default_dim(1e150)
        assert capsys.readouterr().err == (f"error: alpha: sizes {levels} Fock levels, "
                                           f"more than an int64 holds ({2 ** 63 - 1})\n")
        assert list(tmp_path.iterdir()) == []

    def test_dim_level_count(self, tmp_path, capsys):
        assert run_cli("run", "--scenario", "purity-mixture", "--dim", str(2 ** 63),
                       "--tau-steps", "3", "--out", str(tmp_path / "p.csv")) == 2
        assert capsys.readouterr().err == (f"error: dim: sizes {2 ** 63} Fock levels, "
                                           f"more than an int64 holds ({2 ** 63 - 1})\n")
        assert list(tmp_path.iterdir()) == []


class TestMisreadConfigValues:
    """A config value that would silently read as another one is an error naming its field."""

    def run_config(self, tmp_path, capsys, **values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(QFUNC_CONFIG, output_path=str(tmp_path / "q.csv"),
                                       **values)))
        code = run_cli("run", "--config", str(cfg))
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("value", ["12", {"0.5": 1}, [True, 0.5]])
    def test_tau_values(self, tmp_path, capsys, value):
        code, err = self.run_config(tmp_path, capsys, tau_values=value)
        assert code == 2
        assert "tau_values:" in err

    @pytest.mark.parametrize("key", ["alpha", "lam", "tau_max", "x_min", "tau_values"])
    def test_integer_beyond_float_range(self, tmp_path, capsys, key):
        """A JSON integer that no float holds would otherwise end in a traceback."""
        huge = 10 ** 400
        code, err = self.run_config(tmp_path, capsys,
                                    **{key: [huge] if key == "tau_values" else huge})
        assert code == 2
        assert err.startswith(f"error: {key}: cannot interpret ")

    @pytest.mark.parametrize("key", ["alpha", "parity_r", "lam", "x_min"])
    def test_boolean_number(self, tmp_path, capsys, key):
        code, err = self.run_config(tmp_path, capsys, **{key: True})
        assert code == 2
        assert f"{key}:" in err

    @pytest.mark.parametrize("key,value", [("output_path", ["a"]), ("scenario", ["qfunc-mixture"]),
                                           ("output_format", {"csv": 1})])
    def test_string_field(self, tmp_path, capsys, key, value):
        """A list path would otherwise be written to a file named by its printed form."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**QFUNC_CONFIG, "output_path": str(tmp_path / "q.csv"),
                                   key: value}))
        assert run_cli("run", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == f"error: {key}: cannot interpret {value!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


QFUNC_CONFIG = {"scenario": "qfunc-mixture", "alpha": 2.0, "x_min": -4.0, "x_max": 4.0,
                "y_min": -4.0, "y_max": 4.0, "nx": 5, "ny": 5, "tau_values": [0.0, 0.5]}
CAT_ARGS = {"--alpha": "2", "--tau-steps": "5"}
CAT_CONFIG = {"scenario": "inversion-cat", "alpha": 2.0, "tau_steps": 5}


@pytest.mark.parametrize("values,field", [
    ({"parity_r": 2}, "parity_r:"),
    ({"dim": 1}, "dim:"),
    ({"output_format": "xml"}, "output_format:"),
    ({"output_path": ""}, "output_path:"),
    ({"tau_values": []}, "tau_values:"),
    ({"nx": 1}, "nx and ny"),
    ({"x_max": -4.0}, "x_max > x_min"),
    ({"nx": 2.5}, "nx:"),
    ({"x_min": -1e200}, "grid:"),
    ([1, 2], "config file"),
], ids=["parity_r", "dim", "output_format", "output_path", "tau_values", "nx", "x_max",
        "fractional_nx", "overflowing_grid", "not_an_object"])
def test_config_file_error(tmp_path, capsys, values, field):
    """Each invalid config file exits 2, names what is wrong and writes nothing."""
    cfg = tmp_path / "cfg.json"
    if isinstance(values, dict):
        values = {**QFUNC_CONFIG, "output_path": str(tmp_path / "q.csv"), **values}
    cfg.write_text(json.dumps(values))
    assert run_cli("run", "--config", str(cfg)) == 2
    assert field in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("flag,key,value,field", [
    ("--dim", "dim", "abc", "dim"),
    ("--alpha", "alpha", "x", "alpha"),
    ("--parity-r", "parity_r", "2", "parity_r"),
    ("--format", "output_format", "xml", "output_format"),
    ("--tau-steps", "tau_steps", "2.5", "tau_steps"),
    ("--scenario", "scenario", "foo", "scenario"),
    ("--nx", "nx", "1", "grid"),
])
def test_flag_reads_like_config_key(tmp_path, capsys, flag, key, value, field):
    """A bad flag value exits 2, writes nothing and gives the config key's message."""
    out = str(tmp_path / "q.csv")
    # each on a run that reads its key: the cat scenarios read parity_r, qfunc-mixture the grid
    scenario, args, config = (("inversion-cat", CAT_ARGS, CAT_CONFIG) if key == "parity_r"
                              else ("qfunc-mixture", QFUNC_ARGS, QFUNC_CONFIG))
    flags = dict(args, **{"--scenario": scenario, "--out": out, flag: value})
    assert run_cli("run", *(f"{k}={v}" for k, v in flags.items())) == 2
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "output_path": out, key: value}))
    assert run_cli("run", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == from_flag
    assert from_flag.startswith(f"error: {field}: ")
    assert from_flag.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_help_names_the_scenarios_that_read_each_key():
    """Each scenario key's flag help names exactly the scenarios whose table entry reads it."""
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    helps = {action.dest: action.help for action in subparsers.choices["run"]._actions}
    for key in scenarios._SCENARIO_KEYS:
        readers = {name for name, spec in scenarios._SCENARIOS.items() if key in spec.reads}
        assert {name for name in SCENARIO_NAMES if name in helps[key]} == readers, key


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        """The child finds the package where this process imported it from."""
        out = tmp_path / "cli.csv"
        src = str(Path(idjc.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "idjc.cli", "run", "--scenario", "purity-mixture",
             "--tau-steps", "8", "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert str(out) in proc.stdout
        assert out.exists()


#: Runs all five scenarios into the directory argv[1], in one child process.
_ALL_SCENARIOS_CHILD = """
import sys
from idjc.cli import main
sweep = ["--alpha", "10", "--tau-steps", "200"]
runs = {name: sweep for name in ("purity-mixture", "inversion-cat", "cat-transition",
                                 "ordinary-contrast")}
runs["qfunc-mixture"] = ["--alpha", "5", "--x-min=-8", "--x-max", "8", "--y-min=-8",
                         "--y-max", "8", "--nx", "41", "--ny", "41", "--tau-values", "0,0.7,1.5"]
for name, args in runs.items():
    assert main(["run", "--scenario", name, "--out", f"{sys.argv[1]}/{name}.csv", *args]) == 0
"""


def test_bytes_do_not_depend_on_blas_threads(tmp_path):
    """idjc starts no threads; numpy's BLAS may, with the same bytes at one and at two threads."""
    src = str(Path(idjc.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    children = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        children.append(subprocess.Popen(
            [sys.executable, "-c", _ALL_SCENARIOS_CHILD, str(tmp_path / threads)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env))
    for child in children:
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
    one, two = ({p.name: p.read_bytes() for p in (tmp_path / n).iterdir()} for n in ("1", "2"))
    assert len(one) == 7 and one == two


# Strategies for the input-gate fuzz.  Every key starts from a small value of
# its type, the tau fields from huge finite floats too; a scenario keeps the
# scenario keys that the table says it reads, and on some draws one more, not
# at its default.  Then up to two keys are left out and up to two get a wrong
# JSON type or a non-finite float.
_NOT_STRINGS = (st.booleans() | st.lists(st.integers(0, 3), max_size=2)
                | st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1)
                | st.sampled_from([math.nan, math.inf, -math.inf]))
_TAUS = st.floats(0.0, 10.0, exclude_min=True) | st.floats(1e300, sys.float_info.max)


@st.composite
def _fuzz_configs(draw):
    scenario = draw(st.sampled_from(SCENARIO_NAMES))
    x_min, x_max, y_min, y_max = (draw(st.floats(-16.0, 16.0)) for _ in range(4))
    keys = {
        "parity_r": draw(st.integers(-1, 1)),
        "lam": draw(st.floats(0.0, 4.0, exclude_min=True)),
        "tau_max": draw(_TAUS),
        "tau_steps": draw(st.integers(2, 16)),
        "tau_values": draw(st.lists(_TAUS, min_size=1, max_size=4)),
        "x_min": min(x_min, x_max), "x_max": max(x_min, x_max),
        "y_min": min(y_min, y_max), "y_max": max(y_min, y_max),
        "nx": draw(st.integers(2, 8)),
        "ny": draw(st.integers(2, 8)),
    }
    reads = scenarios._SCENARIOS[scenario].reads
    kept = draw(st.none() | st.sampled_from(
        [key for key, value in keys.items()
         if key not in reads and value != getattr(ScenarioConfig(), key)]))
    raw = {
        "scenario": scenario,
        "alpha": draw(st.floats(0.0, 4.0, exclude_min=True)),
        "dim": draw(st.just("auto") | st.integers(2, 64)),
        **{key: value for key, value in keys.items() if key in reads or key == kept},
        "output_path": "out.csv",  # put in the temp dir by the test
        "output_format": draw(st.sampled_from(("csv", "json"))),
    }
    for key in draw(st.lists(st.sampled_from(sorted(raw.keys() - {"output_path"})),
                             max_size=2, unique=True)):
        del raw[key]  # not output_path: its default would write outside the temp dir
    for key in draw(st.lists(st.sampled_from(sorted(raw)), max_size=2, unique=True)):
        wrong = _NOT_STRINGS if key == "output_path" else _NOT_STRINGS | st.text(max_size=4)
        raw[key] = draw(wrong)
    return raw


def _written_numbers(path: Path) -> list[float]:
    text = path.read_text()
    if text.startswith("{"):  # --format json, whatever the file name
        return [v for col in json.loads(text)["columns"].values() for v in col]
    return [float(v) for line in text.splitlines()[1:] for v in line.split(",")]


#: One small valid config per scenario, each key it reads set: each must exit 0.
VALID_RUNS = [small_config(name) for name in SCENARIO_NAMES]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(raw=_fuzz_configs(), self_check=st.booleans())
def test_input_gate_fuzz(raw, self_check):
    """Any flat config exits 0, 2, 3 or 4 without a traceback and writes only finite numbers."""
    valid = raw in VALID_RUNS
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        if isinstance(raw["output_path"], str):
            raw = dict(raw, output_path=str(Path(tmp) / raw["output_path"]))
        cfg.write_text(json.dumps(raw))
        code = run_cli("run", "--config", str(cfg), *(["--self-check"] if self_check else []))
        assert code in (0, 2, 3, 4)
        assert code == 0 or not valid
        written = sorted(set(Path(tmp).iterdir()) - {cfg})
        assert bool(written) == (code == 0)
        for path in written:
            assert all(math.isfinite(v) for v in _written_numbers(path)), path.name


for _raw in VALID_RUNS:  # every scenario's exit-0 path, whatever the strategy draws
    for _self_check in (False, True):
        test_input_gate_fuzz = example(raw=_raw, self_check=_self_check)(test_input_gate_fuzz)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=st.floats(1.35e154, sys.float_info.max), scenario=st.sampled_from(SCENARIO_NAMES),
       self_check=st.booleans())
def test_overflowing_alpha_fuzz(alpha, scenario, self_check):
    """Every alpha whose square overflows exits 2 with an alpha error and writes nothing."""
    args = dict(QFUNC_ARGS, **{"--alpha": repr(alpha), "--tau-steps": "3"})
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_cli("run", "--scenario", scenario, "--out", str(Path(tmp) / "o.csv"),
                       *(f"{key}={val}" for key, val in args.items()),
                       *(["--self-check"] if self_check else []))
        assert list(Path(tmp).iterdir()) == []
    assert code == 2
    assert err.getvalue().startswith("error: alpha: ")
