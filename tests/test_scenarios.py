"""Scenario configuration, outputs, self-check and determinism."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import idjc
from idjc import closed_form, dynamics, husimi, scenarios
from idjc.cli import main
from idjc.errors import ConfigError, SelfCheckFailed
from idjc.scenarios import (
    CSV_BLOCK_ROWS,
    SCENARIO_NAMES,
    ScenarioConfig,
    _write_csv,
    config_from_mapping,
    resolve_dim,
    run_scenario,
    validate_config,
)

from conftest import small_config


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def base_config(tmp_path, scenario, **overrides):
    cfg = ScenarioConfig(scenario=scenario, alpha=5.0,
                         output_path=str(tmp_path / "out.csv"))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestValidateConfig:
    def test_ok(self, tmp_path):
        assert validate_config(base_config(tmp_path, "purity-mixture")) == []

    def test_tau_steps_too_small(self, tmp_path):
        errors = validate_config(base_config(tmp_path, "purity-mixture", tau_steps=1))
        assert len(errors) == 1 and "tau_steps" in errors[0]

    def test_qfunc_requires_grid(self, tmp_path):
        errors = validate_config(base_config(tmp_path, "qfunc-mixture"))
        assert any("grid" in e for e in errors)

    def test_scenario_required(self):
        errors = validate_config(ScenarioConfig())
        assert any(e.startswith("scenario") for e in errors)

    def test_unknown_scenario(self, tmp_path):
        errors = validate_config(base_config(tmp_path, "qfunc"))
        assert any("scenario" in e for e in errors)

    def test_bad_alpha_and_lambda(self, tmp_path):
        cfg = base_config(tmp_path, "purity-mixture", alpha=0.0, lam=-1.0)
        errors = validate_config(cfg)
        assert any("alpha" in e for e in errors)
        assert any("lam" in e for e in errors)

    def test_auto_dim_resolution(self, tmp_path):
        cfg = base_config(tmp_path, "purity-mixture")
        assert resolve_dim(cfg) == math.ceil(25 + 10 * math.sqrt(26)) + 2
        assert resolve_dim(cfg) >= 77

    def test_explicit_dim(self, tmp_path):
        assert resolve_dim(base_config(tmp_path, "purity-mixture", dim=90)) == 90


class TestConfigFromMapping:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"scenario": "purity-mixture", "alpa": 5})
        assert "alpa" in str(err.value)

    def test_uncoercible_value(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"scenario": "purity-mixture", "tau_steps": "many"})
        assert "tau_steps" in str(err.value)

    def test_round_trip(self):
        cfg = config_from_mapping({
            "scenario": "purity-mixture", "alpha": 4, "tau_steps": 100,
            "dim": 80, "tau_values": [0.0, 1.0],
        })
        assert cfg.alpha == 4.0 and cfg.tau_steps == 100
        assert cfg.dim == 80 and cfg.tau_values == (0.0, 1.0)

    def test_run_rejects_invalid(self, tmp_path):
        with pytest.raises(ConfigError):
            run_scenario(base_config(tmp_path, "purity-mixture", tau_steps=1))


class TestPurityMixtureScenario:
    def test_output(self, tmp_path):
        cfg = base_config(tmp_path, "purity-mixture", tau_steps=201)
        paths = run_scenario(cfg, self_check=True)
        header, data = read_csv(paths[0])
        assert header == ["tau", "zeta_numeric", "zeta_closed"]
        assert data.shape == (201, 3)
        assert data[0, 1] == pytest.approx(0.5, abs=1e-10)
        # tau grid is inclusive, so index 100 sits at pi/2
        assert data[:, 1].min() < 0.02
        assert int(np.argmin(data[:, 1])) == 100
        assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-9


class TestInversionCatScenario:
    def test_output(self, tmp_path):
        cfg = base_config(tmp_path, "inversion-cat", tau_steps=201, parity_r=1)
        paths = run_scenario(cfg, self_check=True)
        header, data = read_csv(paths[0])
        assert header == ["tau", "W_numeric", "W_closed"]
        assert data[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert data[100, 1] < -0.98          # flipped at half revival
        assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-9


class TestQfuncMixtureScenario:
    def test_three_grid_files(self, tmp_path):
        cfg = base_config(tmp_path, "qfunc-mixture", x_min=-8.0, x_max=8.0,
                          y_min=-8.0, y_max=8.0, nx=41, ny=41)
        paths = run_scenario(cfg)
        assert [p.name for p in paths] == ["out_t0.csv", "out_t1.csv", "out_t2.csv"]
        for path in paths:
            header, data = read_csv(path)
            assert header == ["x", "y", "q"]
            assert data.shape == (41 * 41, 3)
            assert data[:, 2].min() >= -1e-12
            assert data[:, 2].max() <= 1.0 / math.pi + 1e-12
            cell = (16.0 / 40.0) ** 2
            assert data[:, 2].sum() * cell == pytest.approx(1.0, abs=1e-3)

    def test_explicit_tau_values(self, tmp_path):
        cfg = base_config(tmp_path, "qfunc-mixture", x_min=-8.0, x_max=8.0,
                          y_min=-8.0, y_max=8.0, nx=21, ny=21,
                          tau_values=(0.5,))
        paths = run_scenario(cfg)
        assert len(paths) == 1 and paths[0].name == "out.csv"

    @staticmethod
    def expected_tables(cfg):
        """Each grid's own x, y and q columns, from the engine directly."""
        grids = husimi.q_sweep(
            [(0.5, idjc.make_coherent(cfg.alpha, resolve_dim(cfg))),
             (0.5, idjc.make_coherent(-cfg.alpha, resolve_dim(cfg)))],
            cfg.tau_values, cfg.x_min, cfg.x_max, cfg.y_min, cfg.y_max, cfg.nx, cfg.ny)
        return [(np.repeat(g.xs, g.ny), np.tile(g.ys, g.nx), g.values.reshape(-1))
                for g in grids]

    def test_csv_cells_belong_to_their_own_run(self, tmp_path):
        """Runs in one process on different grids: one of more rows than a CSV block, one of 20 taus.

        Every file holds its own grid's cells, each as format(v, ".17g") writes
        it, row by row across the block boundary.
        """
        assert 65 * 65 > CSV_BLOCK_ROWS
        runs = [
            base_config(tmp_path, "qfunc-mixture", alpha=2.0, x_min=-4.0, x_max=4.0,
                        y_min=-3.0, y_max=5.0, nx=7, ny=5, tau_values=(0.0, 0.4, 1.1),
                        output_path=str(tmp_path / "a.csv")),
            base_config(tmp_path, "qfunc-mixture", alpha=2.0, x_min=-5.0, x_max=3.0,
                        y_min=-4.0, y_max=4.0, nx=4, ny=6, tau_values=(0.2, 0.9),
                        output_path=str(tmp_path / "b.csv")),
            base_config(tmp_path, "qfunc-mixture", alpha=2.0, x_min=-4.0, x_max=4.5,
                        y_min=-3.5, y_max=4.0, nx=65, ny=65, tau_values=(0.3, 1.7),
                        output_path=str(tmp_path / "c.csv")),
            base_config(tmp_path, "qfunc-mixture", alpha=2.0, x_min=-4.0, x_max=3.0,
                        y_min=-3.0, y_max=4.5, nx=5, ny=4,
                        tau_values=tuple(0.15 * k for k in range(20)),
                        output_path=str(tmp_path / "d.csv")),
        ]
        for cfg in runs + runs:
            paths = run_scenario(cfg)
            tables = self.expected_tables(cfg)
            assert len(paths) == len(tables) == len(cfg.tau_values)
            for path, columns in zip(paths, tables):
                rows = ("".join(",".join(format(v, ".17g") for v in row) + "\n"
                                for row in zip(*columns)))
                assert path.read_text() == "x,y,q\n" + rows

    def test_csv_cells_are_format_17g(self, tmp_path):
        values = [-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0, float(2**53 + 1), -math.inf, math.nan]
        path = tmp_path / "cells.csv"
        _write_csv([(path, path)], ("v", "w"), (values,), [(values[::-1],)])
        rows = "".join(f"{format(v, '.17g')},{format(w, '.17g')}\n"
                       for v, w in zip(values, values[::-1]))
        assert path.read_text() == "v,w\n" + rows
        assert path.read_text().splitlines()[1:3] == ["-0,nan", "4.9406564584124654e-324,-inf"]

    def test_json_carries_each_grid(self, tmp_path):
        cfg = base_config(tmp_path, "qfunc-mixture", alpha=2.0, x_min=-4.0, x_max=4.0,
                          y_min=-3.0, y_max=5.0, nx=7, ny=5, tau_values=(0.0, 0.7),
                          output_path=str(tmp_path / "q.json"), output_format="json")
        paths = run_scenario(cfg)
        for path, (x, y, q) in zip(paths, self.expected_tables(cfg), strict=True):
            columns = json.loads(path.read_text())["columns"]
            assert columns == {"x": x.tolist(), "y": y.tolist(), "q": q.tolist()}


class TestCatTransitionScenario:
    def test_output(self, tmp_path):
        cfg = base_config(tmp_path, "cat-transition", tau_steps=201, parity_r=1)
        paths = run_scenario(cfg, self_check=True)
        header, data = read_csv(paths[0])
        assert header == ["tau", "P_excited", "fidelity_even_cat_alpha",
                          "fidelity_odd_cat_i_alpha"]
        assert data[0, 1] == pytest.approx(1.0, abs=1e-12)   # atom starts excited
        assert data[0, 2] == pytest.approx(1.0, abs=1e-12)   # field starts as the even cat
        assert data[100, 1] < 0.01                           # flipped at pi/2
        assert data[100, 3] > 0.98                           # rotated odd cat appears
        assert data[200, 2] > 0.999                          # full return at pi


class TestOrdinaryContrastScenario:
    def test_output(self, tmp_path):
        cfg = base_config(tmp_path, "ordinary-contrast", tau_steps=101)
        paths = run_scenario(cfg, self_check=True)
        header, data = read_csv(paths[0])
        assert header == ["tau", "zeta_ID", "zeta_ordinary"]
        assert data[0, 1] == pytest.approx(0.5, abs=1e-10)
        assert data[0, 2] == pytest.approx(0.5, abs=1e-10)
        assert np.all(np.isfinite(data))

    def test_csv_cells_across_a_block_boundary(self, tmp_path):
        """A sweep of more taus than a CSV block holds, each cell as format(v, ".17g") writes it."""
        cfg = base_config(tmp_path, "ordinary-contrast", alpha=2.0, tau_steps=4100)
        assert cfg.tau_steps > CSV_BLOCK_ROWS
        (path,) = run_scenario(cfg)
        taus = np.linspace(0.0, cfg.tau_max, cfg.tau_steps)
        dim = resolve_dim(cfg)
        mixture = [(0.5, idjc.make_coherent(cfg.alpha, dim)),
                   (0.5, idjc.make_coherent(-cfg.alpha, dim))]
        ordinary = dynamics.sweep_branches(mixture, taus, coupling=dynamics.ORDINARY)
        columns = (taus, dynamics.sweep_branches(mixture, taus).purity_defect,
                   ordinary.purity_defect)
        rows = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in zip(*columns))
        assert path.read_text() == "tau,zeta_ID,zeta_ordinary\n" + rows


class TestOutputFormats:
    def test_json_document(self, tmp_path):
        cfg = base_config(tmp_path, "purity-mixture", tau_steps=11,
                          output_path=str(tmp_path / "out.json"),
                          output_format="json")
        paths = run_scenario(cfg)
        doc = json.loads(paths[0].read_text())
        assert set(doc["columns"]) == {"tau", "zeta_numeric", "zeta_closed"}
        assert len(doc["columns"]["tau"]) == 11
        assert doc["metadata"]["dim"] == 78
        assert doc["metadata"]["config"]["alpha"] == 5.0
        assert doc["metadata"]["tail_mass"] < 1e-12

    def test_csv_seventeen_digit_round_trip(self, tmp_path):
        cfg = base_config(tmp_path, "purity-mixture", tau_steps=5)
        paths = run_scenario(cfg)
        _, data = read_csv(paths[0])
        # re-serializing the parsed values must reproduce the file exactly
        lines = paths[0].read_text().splitlines()[1:]
        for line, row in zip(lines, data):
            assert line == ",".join(format(v, ".17g") for v in row)


def test_csv_writer_holds_one_block(tmp_path):
    """The writer's traced peak stays under a few blocks' text, for 1 table as for 8.

    Each table has three row blocks; text held for a whole table, or for one
    block of every table at once, would break the bound.
    """
    rows = 3 * CSV_BLOCK_ROWS - 100
    rng = np.random.default_rng(5)
    keys = (rng.standard_normal(rows), rng.standard_normal(rows))
    tables = [(rng.standard_normal(rows),) for _ in range(8)]
    peaks = {}
    for count in (1, 8):
        files = [(tmp_path / f"t{k}.csv",) * 2 for k in range(count)]
        _write_csv(files, ("x", "y", "q"), keys, tables[:count])  # files exist, imports done
        tracemalloc.start()
        try:
            _write_csv(files, ("x", "y", "q"), keys, tables[:count])
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    block_text = (tmp_path / "t0.csv").stat().st_size * CSV_BLOCK_ROWS / rows
    assert peaks[1] < 5 * block_text
    assert peaks[8] < 1.1 * peaks[1]


#: A small grid and two taus: the keys without a default, which qfunc-mixture alone reads.
QFUNC_KEYS = {"x_min": -5.0, "x_max": 5.0, "y_min": -5.0, "y_max": 5.0, "nx": 9, "ny": 7,
              "tau_values": (0.0, 0.9)}


def small_keys(scenario):
    """Small values of the scenario keys that scenario reads: 21 taus, or the grid and two taus."""
    return {key: value for key, value in {"tau_steps": 21, **QFUNC_KEYS}.items()
            if key in scenarios._SCENARIOS[scenario].reads}


def as_flags(values):
    """Config values as --key=value flags, a tuple as its comma-separated items."""
    return [f"--{key.replace('_', '-')}=" + (",".join(map(str, value))
                                            if isinstance(value, tuple) else str(value))
            for key, value in values.items()]


@pytest.mark.parametrize("scenario", ["purity-mixture", "inversion-cat", "qfunc-mixture",
                                      "cat-transition", "ordinary-contrast"])
def test_scenarios_avoid_the_dense_path(tmp_path, monkeypatch, scenario):
    """Every scenario runs on the branch sweep, never on the dense evolved matrix."""
    def dense(*args, **kwargs):
        raise AssertionError("dense path called")

    monkeypatch.setattr(dynamics, "evolve_field", dense)
    monkeypatch.setattr(husimi, "q_grid", dense)
    cfg = base_config(tmp_path, scenario, alpha=3.0, **small_keys(scenario))
    assert run_scenario(cfg, self_check=True)


def shifted_by_1e8(func):
    return lambda *args, **kwargs: func(*args, **kwargs) + 1e-8


def above_one_over_pi(q_sweep):
    return lambda *args, **kwargs: [dataclasses.replace(grid, values=grid.values + 1.0)
                                    for grid in q_sweep(*args, **kwargs)]


@pytest.mark.parametrize("scenario,module,name,fault,message", [
    ("purity-mixture", closed_form, "purity_mixture_closed", shifted_by_1e8,
     "zeta_numeric and zeta_closed disagree"),
    ("qfunc-mixture", closed_form, "q_mixture_closed", shifted_by_1e8,
     "q and q_closed disagree"),
    ("qfunc-mixture", husimi, "q_sweep", above_one_over_pi, "Q out of bounds"),
], ids=["purity", "q-agreement", "q-bound"])
def test_failed_self_check_writes_nothing(tmp_path, monkeypatch, scenario, module, name,
                                          fault, message):
    """A closed form off by 1e-8 or a Q above 1/pi stops the run before any file is written."""
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    flags = {"alpha": 3.0, **small_keys(scenario)}
    cfg = base_config(tmp_path, scenario, **flags)
    with pytest.raises(SelfCheckFailed) as failure:
        run_scenario(cfg, self_check=True)
    assert message in str(failure.value)
    assert list(tmp_path.iterdir()) == []
    assert main(["run", "--scenario", scenario, "--self-check",
                 "--out", cfg.output_path, *as_flags(flags)]) == 3
    assert list(tmp_path.iterdir()) == []


def test_q_out_of_bounds_fails_without_self_check(tmp_path, monkeypatch):
    """The Q bound holds for every valid Q, so a grid outside it is refused on every run."""
    monkeypatch.setattr(husimi, "q_sweep", above_one_over_pi(husimi.q_sweep))
    out = str(tmp_path / "q.csv")
    assert main(["run", "--scenario", "qfunc-mixture", "--alpha", "3", "--x-min=-5",
                 "--x-max", "5", "--y-min=-5", "--y-max", "5", "--nx", "9", "--ny", "7",
                 "--out", out]) == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scenario", ["cat-transition", "ordinary-contrast", "qfunc-mixture"])
def test_unwritten_oracle_columns_are_computed_only_under_self_check(tmp_path, monkeypatch,
                                                                    scenario):
    flags = {"alpha": 3.0, **small_keys(scenario)}
    expected = run_scenario(base_config(tmp_path, scenario, output_path=str(tmp_path / "a.csv"),
                                        **flags))

    def refuse(*args, **kwargs):
        raise AssertionError("closed form computed without --self-check")

    for name in ("purity_mixture_closed", "inversion_cat_closed", "q_mixture_closed"):
        monkeypatch.setattr(closed_form, name, refuse)
    paths = run_scenario(base_config(tmp_path, scenario, output_path=str(tmp_path / "b.csv"),
                                     **flags))
    assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in expected]


class TestDeterminism:
    @pytest.mark.parametrize("scenario", ["purity-mixture", "inversion-cat",
                                          "cat-transition", "ordinary-contrast"])
    def test_two_runs_identical(self, tmp_path, scenario):
        cfg_a = base_config(tmp_path, scenario, tau_steps=41,
                            output_path=str(tmp_path / "a.csv"))
        cfg_b = base_config(tmp_path, scenario, tau_steps=41,
                            output_path=str(tmp_path / "b.csv"))
        (path_a,) = run_scenario(cfg_a)
        (path_b,) = run_scenario(cfg_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_qfunc_two_runs_identical(self, tmp_path):
        grids = {}
        for name in ("a.csv", "b.csv"):
            cfg = base_config(tmp_path, "qfunc-mixture", x_min=-8.0, x_max=8.0,
                              y_min=-8.0, y_max=8.0, nx=31, ny=31,
                              tau_values=(math.pi / 4,),
                              output_path=str(tmp_path / name))
            (path,) = run_scenario(cfg)
            grids[name] = path.read_bytes()
        assert grids["a.csv"] == grids["b.csv"]


class TestLibraryConfigReadLikeAFile:
    """A ScenarioConfig built in code obeys the type rules of config files and flags."""

    HUGE = 10 ** 400  # an integer that no float holds
    GRID = {"alpha": 2.0, "x_min": -4.0, "x_max": 4.0, "y_min": -4.0, "y_max": 4.0, "nx": 5,
            "ny": 5, "tau_values": (0.5,)}
    SWEEP = {"alpha": 2.0, "tau_steps": 5}

    @pytest.mark.parametrize("field,value,prefix", [
        ("alpha", HUGE, "alpha: cannot interpret "),
        ("lam", HUGE, "lam: cannot interpret "),
        ("tau_max", HUGE, "tau_max: cannot interpret "),
        ("x_min", HUGE, "x_min: cannot interpret "),
        ("tau_values", [HUGE], "tau_values: cannot interpret "),
        ("x_min", "a", "x_min: cannot interpret 'a'"),
        ("tau_values", 5, "tau_values: cannot interpret 5"),
        ("dim", HUGE, "dim: sizes 1000"),
    ], ids=["alpha", "lam", "tau_max", "x_min", "tau_values", "x_min-str", "tau_values-int",
            "dim"])
    def test_formerly_raising_value_is_one_field_error(self, tmp_path, field, value, prefix):
        cfg = base_config(tmp_path, "qfunc-mixture", **self.GRID)
        setattr(cfg, field, value)
        errors = validate_config(cfg)
        assert len(errors) == 1 and errors[0].startswith(prefix), errors
        with pytest.raises(ConfigError):
            run_scenario(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_boolean_alpha_is_refused_alike(self, tmp_path, capsys):
        """Once read as alpha = 1 by the library while a config file refused it."""
        cfg = base_config(tmp_path, "purity-mixture", alpha=True, tau_steps=5)
        with pytest.raises(ConfigError) as err:
            run_scenario(cfg)
        assert err.value.field_errors == ["alpha: cannot interpret True"]
        config_file = tmp_path / "cfg.json"
        config_file.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert main(["run", "--config", str(config_file)]) == 2
        assert capsys.readouterr().err == "error: alpha: cannot interpret True\n"
        assert list(tmp_path.iterdir()) == [config_file]

    @pytest.mark.parametrize("scenario,field,value", [
        ("inversion-cat", "tau_steps", np.int64(5)),
        ("inversion-cat", "tau_steps", 5.0),
        ("inversion-cat", "tau_steps", "5"),
        ("qfunc-mixture", "nx", "5"),
        ("qfunc-mixture", "nx", 5.0),
    ], ids=["tau_steps-int64", "tau_steps-float", "tau_steps-str", "nx-str", "nx-float"])
    def test_number_reads_like_its_flag(self, tmp_path, capsys, scenario, field, value):
        values = self.GRID if scenario == "qfunc-mixture" else self.SWEEP
        flagged = tmp_path / "flag.csv"
        assert main(["run", "--scenario", scenario, "--out", str(flagged), *as_flags(values)]) == 0
        cfg = base_config(tmp_path, scenario, output_path=str(tmp_path / "lib.csv"), **values)
        setattr(cfg, field, value)
        assert validate_config(cfg) == []
        (path,) = run_scenario(cfg)
        assert path.read_bytes() == flagged.read_bytes()


SWEEPS = ("purity-mixture", "inversion-cat", "cat-transition", "ordinary-contrast")


class TestUnreadKeys:
    """A key without a default that the scenario does not read exits 2, naming it.

    A sweep given tau_values would otherwise run its tau_max/tau_steps grid in
    their place, and write nothing to say so.
    """

    @pytest.mark.parametrize("key", sorted(QFUNC_KEYS))
    @pytest.mark.parametrize("scenario", SWEEPS)
    def test_flag_file_and_library_agree(self, tmp_path, capsys, scenario, key):
        message = f"{key}: {scenario} does not read it"
        values = {"scenario": scenario, "tau_steps": 3, key: QFUNC_KEYS[key],
                  "output_path": str(tmp_path / "o.csv")}
        assert main(["run", "--scenario", scenario, "--tau-steps", "3",
                     "--out", values["output_path"], *as_flags({key: QFUNC_KEYS[key]})]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        config_file = tmp_path / "cfg.json"
        config_file.write_text(json.dumps(values))
        assert main(["run", "--config", str(config_file)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        config = ScenarioConfig(**values)
        assert validate_config(config) == [message]
        with pytest.raises(ConfigError) as err:
            run_scenario(config)
        assert err.value.field_errors == [message]
        assert list(tmp_path.iterdir()) == [config_file]

    def test_taus_asked_for_by_value(self, tmp_path, capsys):
        """Once exited 0 and wrote the rows of tau = 0, pi/2 and pi."""
        assert main(["run", "--scenario", "purity-mixture", "--tau-values", "0,1",
                     "--tau-steps", "3", "--nx", "5", "--x-min", "3",
                     "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: tau_values: purity-mixture does not read it",
            "error: x_min: purity-mixture does not read it",
            "error: nx: purity-mixture does not read it",
        ]
        assert list(tmp_path.iterdir()) == []

    def test_after_range_errors(self, tmp_path):
        cfg = base_config(tmp_path, "ordinary-contrast", tau_steps=1, nx=2 ** 60, ny=5)
        assert validate_config(cfg) == [
            "tau_steps: must be an integer >= 2, got 1",
            f"nx: must be at most {2 ** 60 - 1}, the most floats one array holds, got {2 ** 60}",
            "nx: ordinary-contrast does not read it",
            "ny: ordinary-contrast does not read it",
        ]

    @pytest.mark.parametrize("scenario,error", [
        (None, "scenario: required"),
        ("qfunc", "scenario: unknown scenario 'qfunc', choose from purity-mixture, "
                  "inversion-cat, qfunc-mixture, cat-transition, ordinary-contrast"),
    ])
    def test_not_without_a_known_scenario(self, tmp_path, scenario, error):
        assert validate_config(base_config(tmp_path, scenario, **QFUNC_KEYS)) == [error]

    def test_qfunc_reads_every_one(self, tmp_path):
        paths = run_scenario(base_config(tmp_path, "qfunc-mixture", alpha=2.0, **QFUNC_KEYS))
        assert [path.name for path in paths] == ["out_t0.csv", "out_t1.csv"]

    @pytest.mark.parametrize("scenario,key,value", [
        ("purity-mixture", "parity_r", -1), ("purity-mixture", "lam", 3.0),
        ("ordinary-contrast", "parity_r", 0), ("ordinary-contrast", "lam", 0.5),
        ("qfunc-mixture", "parity_r", -1), ("qfunc-mixture", "lam", 3.0),
        ("qfunc-mixture", "tau_max", 9.0), ("qfunc-mixture", "tau_steps", 7),
    ])
    def test_key_with_a_default(self, tmp_path, capsys, scenario, key, value):
        """Once ignored, so the run wrote what its default writes; the default itself still runs."""
        message = f"{key}: {scenario} does not read it"
        keys = {"scenario": scenario, **small_keys(scenario), key: value}
        out = str(tmp_path / "o.csv")
        assert main(["run", "--out", out, *as_flags(keys)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        config_file = tmp_path / "cfg.json"
        config_file.write_text(json.dumps({**keys, "output_path": out}))
        assert main(["run", "--config", str(config_file)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert validate_config(ScenarioConfig(**keys, output_path=out)) == [message]
        with pytest.raises(ConfigError) as err:
            run_scenario(ScenarioConfig(**keys, output_path=out))
        assert err.value.field_errors == [message]
        assert list(tmp_path.iterdir()) == [config_file]
        default = {**keys, key: getattr(ScenarioConfig(), key)}
        assert validate_config(ScenarioConfig(**default)) == []
        assert main(["run", "--out", out, *as_flags(default)]) == 0


#: A value of every scenario key that is neither its default nor its value in small_config.
OTHER_KEYS = {"parity_r": 0, "lam": 3.0, "tau_max": 2.0, "tau_steps": 7, "tau_values": (0.3, 0.9),
              "x_min": -3.0, "x_max": 3.0, "y_min": -3.0, "y_max": 3.0, "nx": 4, "ny": 6}


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_scenario_table_matches_its_runners(scenario):
    """Past the gate, every key a scenario reads changes what its runner returns, and no other does.

    The runner's header, key columns, tables and metadata are compared; lam
    reaches the cat scenarios' revival_time metadata only.
    """
    assert sorted(OTHER_KEYS) == sorted(scenarios._SCENARIO_KEYS)
    spec = scenarios._SCENARIOS[scenario]
    base = config_from_mapping(small_config(scenario))
    dim = resolve_dim(base)

    def returned(**change):
        header, keys, tables, _ = spec.run(dataclasses.replace(base, **change), dim)
        return json.dumps([header, keys, tables], default=lambda col: np.asarray(col).tolist())

    unchanged = returned()
    changed = {key for key, value in OTHER_KEYS.items() if returned(**{key: value}) != unchanged}
    assert changed == set(spec.reads)


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_json_echoes_only_the_keys_the_scenario_reads(tmp_path, scenario):
    """metadata.config holds the keys every scenario reads plus this one's reads, values as run."""
    raw = {**small_config(scenario), "output_path": str(tmp_path / "out.json"),
           "output_format": "json"}
    read = dataclasses.asdict(config_from_mapping(raw))
    common = set(read) - set(scenarios._SCENARIO_KEYS)
    assert {"scenario", "alpha", "dim", "output_path", "output_format"} <= common
    want = {key: read[key] for key in common | set(scenarios._SCENARIOS[scenario].reads)}
    for path in run_scenario(config_from_mapping(raw)):
        echo = json.loads(path.read_text())["metadata"]["config"]
        assert echo == json.loads(json.dumps(want))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_purification_is_the_cat_transition(tmp_path, alpha):
    """At tau = pi/2, zeta_mix = (1 - exp(-4 alpha^2)) (1 - F_odd) / 2: the paper's results as one.

    The mixture of |alpha> and |-alpha> is p_e |even><even| + p_o |odd><odd|
    with 2 p_e p_o = (1 - exp(-4 alpha^2)) / 2.  At pi/2 the odd cat returns to
    the odd cat at i alpha and the even cat evolves to a pure field state, so
    the purity defect is 2 p_e p_o times one minus the fidelity of the two,
    which cat-transition writes as fidelity_odd_cat_i_alpha.  Both scenarios'
    middle row of three taus on [0, pi] is exactly pi/2.
    """
    rows = {}
    for scenario in ("purity-mixture", "cat-transition"):
        cfg = base_config(tmp_path, scenario, alpha=alpha, tau_steps=3,
                          output_path=str(tmp_path / f"{scenario}.csv"))
        header, data = read_csv(run_scenario(cfg)[0])
        assert data[1, 0] == math.pi / 2
        rows[scenario] = dict(zip(header, data[1]))
    zeta = rows["purity-mixture"]["zeta_numeric"]
    f_odd = rows["cat-transition"]["fidelity_odd_cat_i_alpha"]
    assert abs(zeta - 0.5 * -math.expm1(-4.0 * alpha**2) * (1.0 - f_odd)) < 1e-13
