"""Named simulation scenarios with reproducible file output.

Each scenario sweeps the dimensionless time tau = lambda*t and writes one
CSV or JSON table; the phase-space scenario writes one grid file per
requested tau.  Identical configuration produces byte-identical files on
every run: floats are serialized with 17 significant digits (lossless round
trip), each CSV cell as "%.17g" formats it.  Every scenario evaluates its tau
grid on the branch sweep of :mod:`idjc.dynamics`; the Q grids come from
:func:`idjc.husimi.q_sweep`.
Each runner returns the header shared by its tables, their key columns (tau,
or the grid's x and y), each table's value columns with its JSON metadata,
and its check pairs (engine name, engine column, oracle name, oracle), the
oracle a zero-argument callable giving the closed-form column; run_scenario
alone compares them, under --self-check, so a closed-form column that no
table holds is computed only then.  The key columns come first in every table.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import closed_form, dynamics, fock, husimi
from .errors import ConfigError, SelfCheckFailed

GRID_FIELDS = ("x_min", "x_max", "y_min", "y_max", "nx", "ny")

#: Numeric and closed-form columns must agree to this under --self-check.
SELF_CHECK_ATOL = 1e-9

DEFAULT_QFUNC_TAUS = (0.0, math.pi / 4.0, math.pi / 2.0)

#: Rows per CSV block, written to every table before the next; bounds the text held at once.
CSV_BLOCK_ROWS = 4096

#: The most floats one numpy array can hold, whose byte count must fit an intp:
#: np.linspace raises, not always ValueError, for more tau_steps, nx or ny.
_MAX_LENGTH = np.iinfo(np.intp).max // np.dtype(float).itemsize

#: The largest level count an int64 holds, as the Poisson tail and the basis need.
_MAX_LEVELS = np.iinfo(np.int64).max


@dataclass
class ScenarioConfig:
    """Flat scenario configuration; the JSON config file mirrors these fields."""

    scenario: str | None = None
    alpha: float = 5.0
    parity_r: int = 1
    lam: float = 1.0
    tau_max: float = math.pi
    tau_steps: int = 600
    dim: int | str = "auto"
    tau_values: tuple[float, ...] | None = None
    x_min: float | None = None
    x_max: float | None = None
    y_min: float | None = None
    y_max: float | None = None
    nx: int | None = None
    ny: int | None = None
    output_path: str = "out.csv"
    output_format: str = "csv"


_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}
#: The keys that only some scenarios read, each listed in the reads of those that do.
_SCENARIO_KEYS = ("parity_r", "lam", "tau_max", "tau_steps", "tau_values", *GRID_FIELDS)

_INT_FIELDS = ("parity_r", "tau_steps", "nx", "ny")
_FLOAT_FIELDS = ("alpha", "lam", "tau_max", "x_min", "x_max", "y_min", "y_max")


def config_from_mapping(raw) -> ScenarioConfig:
    """Build a ScenarioConfig from a flat mapping: parsed JSON, CLI overrides or a library config.

    Unknown keys are errors: a misspelled key would otherwise silently fall
    back to a default and corrupt a reproduction run.  For the same reason a
    boolean is no value of any field (true would read as 1), tau_values
    must be a list, not a string or an object (whose characters or keys
    would read as taus), and scenario, output_path and output_format must
    be strings (a list would read as its printed form).
    """
    errors = [f"unknown config key: {k}" for k in sorted(raw.keys() - _DEFAULTS.keys())]
    if errors:
        raise ConfigError(errors)
    kwargs = {}
    for key, value in raw.items():
        try:
            if isinstance(value, bool):
                raise TypeError(value)
            if value is None:
                pass
            elif key in _INT_FIELDS or (key == "dim" and value != "auto"):
                if isinstance(value, float) and not value.is_integer():
                    raise ValueError(value)
                value = int(value)
            elif key in _FLOAT_FIELDS:
                value = float(value)
            elif key == "tau_values":
                if isinstance(value, (str, dict)) or any(isinstance(t, bool) for t in value):
                    raise TypeError(value)
                value = tuple(float(t) for t in value)
            elif key in ("scenario", "output_path", "output_format"):
                if not isinstance(value, str):
                    raise TypeError(value)
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int no float holds
            errors.append(f"{key}: cannot interpret {value!r}")
            continue
        kwargs[key] = value
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(**kwargs)


def _finite(value) -> bool:
    return value is not None and math.isfinite(value)


def validate_config(config: ScenarioConfig) -> list[str]:
    """All invariant violations, one line per broken rule, range lines before unread-key lines.

    The config is first read as a config file is, by config_from_mapping, whose
    errors are the verdict if it fails.  Every float must be finite: an
    infinite tau_max or a NaN tau would otherwise run and write NaN rows.  So
    must the largest pair phase of ordinary-contrast's ordinary sweep,
    tau_max * sqrt(dim); every intensity-dependent tau is reduced mod 2 pi
    before it forms a phase, so no other tau overflows one.  Every count must
    fit its array: tau_steps, nx and ny at most _MAX_LENGTH, and the level
    count of alpha or of an explicit dim at most _MAX_LEVELS.  A scenario key
    that the scenario does not read must keep its default, so that no value given,
    such as a parity for the mixture, is dropped unread.  An empty list means OK.
    """
    return _read_and_check(config)[1]


def _read_and_check(config: ScenarioConfig) -> tuple[ScenarioConfig, list[str]]:
    """The config as config_from_mapping reads it, and validate_config's verdict on it."""
    try:
        config = config_from_mapping(asdict(config))
    except ConfigError as exc:
        return config, exc.field_errors
    errors = []
    if config.scenario is None:
        errors.append("scenario: required")
    elif config.scenario not in SCENARIO_NAMES:
        errors.append(f"scenario: unknown scenario {config.scenario!r}, "
                      f"choose from {', '.join(SCENARIO_NAMES)}")
    alpha_ok = (_finite(config.alpha) and config.alpha > 0.0
                and math.isfinite(config.alpha * config.alpha))  # default_dim squares it
    if not alpha_ok:
        errors.append(f"alpha: must be a positive real with a finite square, got {config.alpha!r}")
    if config.parity_r not in (-1, 0, 1):
        errors.append(f"parity_r: must be -1, 0 or +1, got {config.parity_r!r}")
    if not (_finite(config.lam) and config.lam > 0.0):
        errors.append(f"lam: coupling constant must be finite and positive, got {config.lam!r}")
    if not (_finite(config.tau_max) and config.tau_max > 0.0):
        errors.append(f"tau_max: must be finite and positive, got {config.tau_max!r}")
    if not (config.tau_steps is not None and config.tau_steps >= 2):
        errors.append(f"tau_steps: must be an integer >= 2, got {config.tau_steps!r}")
    dim_ok = config.dim == "auto" or (config.dim is not None and config.dim >= 2)
    if not dim_ok:
        errors.append(f"dim: must be \"auto\" or an integer >= 2, got {config.dim!r}")
    if config.output_format not in ("csv", "json"):
        errors.append(f"output_format: must be csv or json, got {config.output_format!r}")
    if not config.output_path:
        errors.append("output_path: must be a non-empty path")
    if config.tau_values is not None:
        if len(config.tau_values) == 0:
            errors.append("tau_values: must contain at least one tau")
        elif not all(math.isfinite(t) and t >= 0.0 for t in config.tau_values):
            errors.append("tau_values: all entries must be finite and >= 0")
    too_long = [name for name in ("tau_steps", "nx", "ny")
                if (getattr(config, name) or 0) > _MAX_LENGTH]
    grid = [getattr(config, name) for name in GRID_FIELDS]
    spec = _SCENARIOS.get(config.scenario)  # None for a missing or unknown scenario
    unread = [f"{name}: {config.scenario} does not read it" for name in _SCENARIO_KEYS
              if spec and name not in spec.reads and getattr(config, name) != _DEFAULTS[name]]
    grid_errors = []  # the grid error comes last
    if spec and "nx" in spec.reads and None in grid:
        missing = ", ".join(name for name, value in zip(GRID_FIELDS, grid) if value is None)
        grid_errors.append(f"grid: {config.scenario} needs explicit bounds and resolution; "
                           f"missing {missing}")
    elif spec and "nx" in spec.reads and not too_long:
        try:
            husimi._grid_axes(*grid)
        except ValueError as exc:
            grid_errors.append(f"grid: {exc}")
    if alpha_ok and dim_ok:
        counts = [("alpha", fock.default_dim(config.alpha))]
        if config.dim != "auto":
            counts.append(("dim", config.dim))
        too_many = [f"{name}: sizes {count} Fock levels, more than an int64 holds ({_MAX_LEVELS})"
                    for name, count in counts if count > _MAX_LEVELS]
        errors += too_many
        # only the ordinary coupling forms a phase from an unreduced tau, tau * sqrt(n + 1)
        if (not too_many and spec and spec.ordinary and _finite(config.tau_max)
                and not math.isfinite(config.tau_max * math.sqrt(dim := resolve_dim(config)))):
            errors.append(f"tau_max: the ordinary pair phase tau * sqrt({dim}) overflows")
    for name, value in zip(GRID_FIELDS, grid[:4]):
        if value is not None and not _finite(value):
            errors.append(f"{name}: must be finite, got {value!r}")
    errors += [f"{name}: must be at most {_MAX_LENGTH}, the most floats one array holds, "
               f"got {getattr(config, name)!r}" for name in too_long]
    return config, errors + unread + grid_errors


def resolve_dim(config: ScenarioConfig) -> int:
    if config.dim == "auto":
        return fock.default_dim(config.alpha)
    return int(config.dim)


def _tau_grid(config: ScenarioConfig) -> np.ndarray:
    # tau_steps evenly spaced points from 0 to tau_max, endpoints included
    return np.linspace(0.0, config.tau_max, config.tau_steps)


def _coherent_mixture(alpha: float, dim: int) -> list[tuple[float, fock.StateVector]]:
    """Equal-weight ensemble of |alpha> and |-alpha>."""
    return [(0.5, fock.make_coherent(alpha, dim)), (0.5, fock.make_coherent(-alpha, dim))]


@contextlib.contextmanager
def _naming(path: Path):
    """Re-raise an OSError as one naming path, the file asked for, not its temporary."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _block(columns, start: int) -> np.ndarray:
    """Rows start to start + CSV_BLOCK_ROWS of columns, stacked as floats."""
    return np.column_stack([np.asarray(col[start:start + CSV_BLOCK_ROWS], dtype=float)
                            for col in columns])


def _write_csv(files, header, keys, tables) -> None:
    """A run's CSV tables: table k is the key columns then tables[k], written to files[k].

    files[k] pairs the file written with the path an OSError names.  Row
    blocks run outside and tables inside: one % formats a block's key cells
    into a row template whose value slots stay %.17g, and one more % per table
    fills them, so the key text is formatted once per block for all tables.
    Each file is reopened to append its next block, so one file is open at a
    time and the text held at once is one block's.
    """
    row = ",".join(["%.17g"] * len(keys) + ["%%.17g"] * (len(header) - len(keys))) + "\n"
    for start in range(0, len(keys[0]), CSV_BLOCK_ROWS):
        key_cells = _block(keys, start)
        template = row * len(key_cells) % tuple(key_cells.ravel().tolist())
        lead = ",".join(header) + "\n" if start == 0 else ""
        for (target, path), columns in zip(files, tables, strict=True):
            with _naming(path), open(target, "a" if start else "w", newline="\n") as fh:
                fh.write(lead + template % tuple(_block(columns, start).ravel().tolist()))


def _write_json(path: Path, header, columns, metadata) -> None:
    doc = {
        "columns": {name: np.asarray(col, dtype=float).tolist()
                    for name, col in zip(header, columns)},
        "metadata": metadata,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _metadata(config: ScenarioConfig, dim: int, extra=None) -> dict:
    """The config echo leaves out the scenario keys that the scenario does not read."""
    unread = set(_SCENARIO_KEYS) - set(_SCENARIOS[config.scenario].reads)
    return {"config": {k: v for k, v in asdict(config).items() if k not in unread},
            "dim": dim, "tail_mass": fock.poisson_tail(config.alpha**2, dim), **(extra or {})}


def _check_pairs(pairs) -> None:
    """Raise SelfCheckFailed for the first pair whose columns differ by more than SELF_CHECK_ATOL."""
    for engine_name, engine, oracle_name, oracle in pairs:
        worst = float(np.max(np.abs(engine - oracle())))
        if not worst <= SELF_CHECK_ATOL:
            raise SelfCheckFailed(f"{engine_name} and {oracle_name} disagree by {worst:.3e} "
                                  f"(> {SELF_CHECK_ATOL:.0e})")


def _zeta_closed(config, taus) -> np.ndarray:
    return np.array([closed_form.purity_mixture_closed(config.alpha, t) for t in taus])


def _w_closed(config, taus) -> np.ndarray:
    return np.array([closed_form.inversion_cat_closed(config.alpha, config.parity_r, t)
                     for t in taus])


def _run_purity_mixture(config, dim):
    taus = _tau_grid(config)
    numeric = dynamics.sweep_branches(_coherent_mixture(config.alpha, dim), taus).purity_defect
    closed = _zeta_closed(config, taus)
    return (("tau", "zeta_numeric", "zeta_closed"), (taus,), [((numeric, closed), None)],
            [("zeta_numeric", numeric, "zeta_closed", lambda: closed)])


def _run_inversion_cat(config, dim):
    taus = _tau_grid(config)
    spec = fock.CatSpec(alpha=config.alpha, parity_r=config.parity_r)
    cat = fock.make_cat(spec, dim)
    numeric = 2.0 * dynamics.sweep_branches([(1.0, cat)], taus).excited_population - 1.0
    closed = _w_closed(config, taus)
    extra = {"revival_time": closed_form.revival_time(spec, config.lam)}
    return (("tau", "W_numeric", "W_closed"), (taus,), [((numeric, closed), extra)],
            [("W_numeric", numeric, "W_closed", lambda: closed)])


def _run_qfunc_mixture(config, dim):
    taus = config.tau_values if config.tau_values is not None else DEFAULT_QFUNC_TAUS
    grids = husimi.q_sweep(_coherent_mixture(config.alpha, dim), taus, config.x_min,
                           config.x_max, config.y_min, config.y_max, config.nx, config.ny)
    # the grid's points in row order, x slow and y fast: the key columns of every table
    x_col = np.repeat(grids[0].xs, config.ny)
    y_col = np.tile(grids[0].ys, config.nx)
    # the closed form is checked on a deterministic subsample (full grids are large)
    idx = np.arange(0, len(x_col), max(1, len(x_col) // 400))
    betas = x_col[idx] + 1j * y_col[idx]
    outputs, pairs = [], []
    for tau, grid in zip(taus, grids):
        q_col = grid.values.reshape(-1)
        # every valid Q lies in [0, 1/pi]; a value outside is an engine fault
        if float(q_col.min()) < -1e-12 or float(q_col.max()) > 1.0 / math.pi + 1e-12:
            raise SelfCheckFailed(f"Q out of bounds [0, 1/pi]: min {q_col.min():.3e}, "
                                  f"max {q_col.max():.6f}")
        extra = {"tau": float(tau), "normalization": grid.normalization()}
        outputs.append(((q_col,), extra))
        oracle = functools.partial(closed_form.q_mixture_closed, config.alpha, tau, betas)
        pairs.append(("q", q_col[idx], "q_closed", oracle))
    return ("x", "y", "q"), (x_col, y_col), outputs, pairs


def _run_cat_transition(config, dim):
    taus = _tau_grid(config)
    spec = fock.CatSpec(alpha=config.alpha, parity_r=config.parity_r)
    cat = fock.make_cat(spec, dim)
    even_here = fock.make_cat(fock.CatSpec(alpha=config.alpha, parity_r=1), dim)
    odd_rotated = fock.make_cat(fock.CatSpec(alpha=config.alpha * 1j, parity_r=-1), dim)
    sweep = dynamics.sweep_branches([(1.0, cat)], taus,
                                    targets=(even_here.amplitudes, odd_rotated.amplitudes))
    p_exc = sweep.excited_population
    fid_even, fid_odd = sweep.fidelities
    header = ("tau", "P_excited", "fidelity_even_cat_alpha", "fidelity_odd_cat_i_alpha")
    extra = {"revival_time": closed_form.revival_time(spec, config.lam)}
    return (header, (taus,), [((p_exc, fid_even, fid_odd), extra)],
            [("P_excited", p_exc, "(W_closed+1)/2",
              lambda: (_w_closed(config, taus) + 1.0) / 2.0)])


def _run_ordinary_contrast(config, dim):
    taus = _tau_grid(config)
    mixture = _coherent_mixture(config.alpha, dim)
    zeta_id = dynamics.sweep_branches(mixture, taus).purity_defect
    zeta_ord = dynamics.sweep_branches(mixture, taus,
                                       coupling=dynamics.ORDINARY).purity_defect
    return (("tau", "zeta_ID", "zeta_ordinary"), (taus,), [((zeta_id, zeta_ord), None)],
            [("zeta_ID", zeta_id, "zeta_closed", lambda: _zeta_closed(config, taus))])


@dataclass(frozen=True)
class _Scenario:
    run: object  # (config, dim) -> the header, key columns, tables and check pairs
    reads: tuple  # the _SCENARIO_KEYS it reads; those of the grid it needs
    ordinary: bool = False  # forms ordinary pair phases from an unreduced tau


_SWEEP = ("tau_max", "tau_steps")
_CAT = ("parity_r", "lam", *_SWEEP)
_SCENARIOS = {
    "purity-mixture": _Scenario(_run_purity_mixture, _SWEEP),
    "inversion-cat": _Scenario(_run_inversion_cat, _CAT),
    "qfunc-mixture": _Scenario(_run_qfunc_mixture, ("tau_values", *GRID_FIELDS)),
    "cat-transition": _Scenario(_run_cat_transition, _CAT),
    "ordinary-contrast": _Scenario(_run_ordinary_contrast, _SWEEP, ordinary=True),
}

SCENARIO_NAMES = tuple(_SCENARIOS)


def _output_paths(config: ScenarioConfig, count: int) -> list[Path]:
    base = Path(config.output_path)
    if count == 1:
        return [base]
    return [base.with_name(f"{base.stem}_t{k}{base.suffix}") for k in range(count)]


def run_scenario(config: ScenarioConfig, self_check: bool = False) -> list[Path]:
    """Run one scenario and write its output file(s); returns the paths written.

    It runs config as validate_config reads it, so "5" or 5.0 runs as 5.
    Raises ConfigError for invalid configuration, TruncationTooSmall or
    TailLeak when dim cannot hold the requested states, SelfCheckFailed when
    a Q leaves [0, 1/pi] or --self-check finds a mismatch, and OSError naming
    the requested path for filesystem problems.  Nothing is written unless all
    checks pass, and a failed write leaves none of the run's files: tables go
    to temporary files first, renamed to their targets once all are written.
    """
    config, errors = _read_and_check(config)
    if errors:
        raise ConfigError(errors)
    dim = resolve_dim(config)
    header, keys, tables, pairs = _SCENARIOS[config.scenario].run(config, dim)
    if self_check:
        _check_pairs(pairs)
    paths = _output_paths(config, len(tables))
    files = [(path.with_name(f".{path.name}.{os.getpid()}.tmp"), path) for path in paths]
    placed = []
    try:
        if config.output_format == "csv":
            _write_csv(files, header, keys, [columns for columns, _ in tables])
        else:
            for (temp, path), (columns, extra) in zip(files, tables):
                with _naming(path):
                    _write_json(temp, header, keys + columns, _metadata(config, dim, extra))
        for temp, path in files:
            with _naming(path):
                os.replace(temp, path)
            placed.append(path)
    finally:
        if len(placed) < len(paths):  # a failed run leaves none of its files
            for leftover in [temp for temp, _ in files] + placed:
                if not leftover.is_dir():  # a directory in a temporary's place is not the run's
                    leftover.unlink(missing_ok=True)
    return paths
