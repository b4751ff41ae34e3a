"""Named simulation scenarios with reproducible file output.

Each scenario sweeps the dimensionless time tau = lambda*t and writes one
CSV or JSON table; the phase-space scenario writes one grid file per
requested tau.  Identical configuration produces byte-identical files on
every run: floats are serialized with 17 significant digits (lossless round
trip).  Every scenario evaluates its tau grid on the branch sweep of
:mod:`idjc.dynamics`; the Q grids come from :func:`idjc.husimi.q_sweep`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import closed_form, dynamics, fock, husimi
from .errors import ConfigError, SelfCheckFailed

SCENARIO_NAMES = (
    "purity-mixture",
    "inversion-cat",
    "qfunc-mixture",
    "cat-transition",
    "ordinary-contrast",
)

GRID_FIELDS = ("x_min", "x_max", "y_min", "y_max", "nx", "ny")

#: Numeric and closed-form columns must agree to this under --self-check.
SELF_CHECK_ATOL = 1e-9

DEFAULT_QFUNC_TAUS = (0.0, math.pi / 4.0, math.pi / 2.0)


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


_FIELD_NAMES = tuple(f.name for f in fields(ScenarioConfig))

_INT_FIELDS = ("parity_r", "tau_steps", "nx", "ny")
_FLOAT_FIELDS = ("alpha", "lam", "tau_max", "x_min", "x_max", "y_min", "y_max")


def config_from_mapping(raw) -> ScenarioConfig:
    """Build a ScenarioConfig from a flat mapping (parsed JSON or CLI overrides).

    Unknown keys are errors: a misspelled key would otherwise silently fall
    back to a default and corrupt a reproduction run.
    """
    errors = [f"unknown config key: {k}" for k in sorted(set(raw) - set(_FIELD_NAMES))]
    if errors:
        raise ConfigError(errors)
    kwargs = {}
    for key, value in raw.items():
        try:
            if value is None:
                pass
            elif key in _INT_FIELDS or (key == "dim" and value != "auto"):
                if isinstance(value, float) and not value.is_integer():
                    raise ValueError(value)
                value = int(value)
            elif key in _FLOAT_FIELDS:
                value = float(value)
            elif key == "tau_values":
                value = tuple(float(t) for t in value)
            elif key in ("scenario", "output_path", "output_format"):
                value = str(value)
        except (TypeError, ValueError):
            errors.append(f"{key}: cannot interpret {value!r}")
            continue
        kwargs[key] = value
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(**kwargs)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def validate_config(config: ScenarioConfig) -> list[str]:
    """All invariant violations, one message per field; empty list means OK.

    Every float must be finite: an infinite tau_max or a NaN tau would
    otherwise run and write NaN rows.
    """
    errors = []
    if config.scenario is None:
        errors.append("scenario: required")
    elif config.scenario not in SCENARIO_NAMES:
        errors.append(f"scenario: unknown scenario {config.scenario!r}, "
                      f"choose from {', '.join(SCENARIO_NAMES)}")
    if not (_finite(config.alpha) and config.alpha > 0.0):
        errors.append(f"alpha: must be a finite positive real number, got {config.alpha!r}")
    if config.parity_r not in (-1, 0, 1):
        errors.append(f"parity_r: must be -1, 0 or +1, got {config.parity_r!r}")
    if not (_finite(config.lam) and config.lam > 0.0):
        errors.append(f"lam: coupling constant must be finite and positive, got {config.lam!r}")
    if not (_finite(config.tau_max) and config.tau_max > 0.0):
        errors.append(f"tau_max: must be finite and positive, got {config.tau_max!r}")
    if not (isinstance(config.tau_steps, int) and config.tau_steps >= 2):
        errors.append(f"tau_steps: must be an integer >= 2, got {config.tau_steps!r}")
    if config.dim != "auto":
        if not isinstance(config.dim, int) or config.dim < 2:
            errors.append(f"dim: must be \"auto\" or an integer >= 2, got {config.dim!r}")
    if config.output_format not in ("csv", "json"):
        errors.append(f"output_format: must be csv or json, got {config.output_format!r}")
    if not config.output_path:
        errors.append("output_path: must be a non-empty path")
    if config.tau_values is not None:
        if len(config.tau_values) == 0:
            errors.append("tau_values: must contain at least one tau")
        elif not all(_finite(t) and t >= 0.0 for t in config.tau_values):
            errors.append("tau_values: all entries must be finite and >= 0")
    bounds = GRID_FIELDS[:4]
    for name in bounds:
        value = getattr(config, name)
        if value is not None and not _finite(value):
            errors.append(f"{name}: must be finite, got {value!r}")
    if config.scenario == "qfunc-mixture":
        missing = [name for name in GRID_FIELDS if getattr(config, name) is None]
        if missing:
            errors.append("grid: qfunc-mixture needs explicit bounds and resolution; "
                          f"missing {', '.join(missing)}")
        else:
            if config.nx < 2 or config.ny < 2:
                errors.append(f"grid: nx and ny must be >= 2, got {config.nx} x {config.ny}")
            if (all(_finite(getattr(config, name)) for name in bounds)
                    and not (config.x_max > config.x_min and config.y_max > config.y_min)):
                errors.append("grid: bounds must satisfy x_max > x_min and y_max > y_min")
    return errors


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


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path: Path, header, columns) -> None:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    meta = {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(config).items()},
        "dim": dim,
        "tail_mass": fock.poisson_tail(config.alpha**2, dim),
    }
    if extra:
        meta.update(extra)
    return meta


def _self_check_columns(name_a: str, col_a, name_b: str, col_b) -> None:
    worst = float(np.max(np.abs(np.asarray(col_a) - np.asarray(col_b))))
    if not worst <= SELF_CHECK_ATOL:
        raise SelfCheckFailed(
            f"{name_a} and {name_b} disagree by {worst:.3e} (> {SELF_CHECK_ATOL:.0e})"
        )


def _run_purity_mixture(config, dim, self_check):
    taus = _tau_grid(config)
    sweep = dynamics.sweep_branches(_coherent_mixture(config.alpha, dim), taus)
    numeric = sweep.purity_defect
    closed = np.array([
        closed_form.purity_mixture_closed(config.alpha, t, dim) for t in taus
    ])
    if self_check:
        _self_check_columns("zeta_numeric", numeric, "zeta_closed", closed)
    header = ("tau", "zeta_numeric", "zeta_closed")
    return [(header, (taus, numeric, closed), None)]


def _run_inversion_cat(config, dim, self_check):
    taus = _tau_grid(config)
    spec = fock.CatSpec(alpha=config.alpha, parity_r=config.parity_r)
    cat = fock.make_cat(spec, dim)
    sweep = dynamics.sweep_branches([(1.0, cat)], taus)
    numeric = 2.0 * sweep.excited_population - 1.0
    closed = np.array([
        closed_form.inversion_cat_closed(config.alpha, config.parity_r, t) for t in taus
    ])
    if self_check:
        _self_check_columns("W_numeric", numeric, "W_closed", closed)
    header = ("tau", "W_numeric", "W_closed")
    extra = {"revival_time": closed_form.revival_time(spec, config.lam)}
    return [(header, (taus, numeric, closed), extra)]


def _run_qfunc_mixture(config, dim, self_check):
    taus = config.tau_values if config.tau_values is not None else DEFAULT_QFUNC_TAUS
    grids = husimi.q_sweep(_coherent_mixture(config.alpha, dim), taus, config.x_min,
                           config.x_max, config.y_min, config.y_max, config.nx, config.ny)
    outputs = []
    for tau, grid in zip(taus, grids):
        x_col = np.repeat(grid.xs, config.ny)
        y_col = np.tile(grid.ys, config.nx)
        q_col = grid.values.reshape(-1)
        if self_check:
            _qfunc_self_check(config, tau, x_col, y_col, q_col)
        header = ("x", "y", "q")
        extra = {"tau": float(tau), "normalization": grid.normalization()}
        outputs.append((header, (x_col, y_col, q_col), extra))
    return outputs


def _qfunc_self_check(config, tau, x_col, y_col, q_col) -> None:
    bound = 1.0 / math.pi + 1e-12
    if float(q_col.min()) < -1e-12 or float(q_col.max()) > bound:
        raise SelfCheckFailed(
            f"Q out of bounds [0, 1/pi]: min {q_col.min():.3e}, max {q_col.max():.6f}"
        )
    # closed-form agreement on a deterministic subsample (full grids are large)
    stride = max(1, len(q_col) // 400)
    idx = np.arange(0, len(q_col), stride)
    closed = closed_form.q_mixture_closed(config.alpha, tau, x_col[idx] + 1j * y_col[idx])
    _self_check_columns("q", q_col[idx], "q_closed", closed)


def _run_cat_transition(config, dim, self_check):
    taus = _tau_grid(config)
    spec = fock.CatSpec(alpha=config.alpha, parity_r=config.parity_r)
    cat = fock.make_cat(spec, dim)
    even_here = fock.make_cat(fock.CatSpec(alpha=config.alpha, parity_r=1), dim)
    odd_rotated = fock.make_cat(fock.CatSpec(alpha=config.alpha * 1j, parity_r=-1), dim)
    sweep = dynamics.sweep_branches([(1.0, cat)], taus,
                                    targets=(even_here.amplitudes, odd_rotated.amplitudes))
    p_exc = sweep.excited_population
    fid_even, fid_odd = sweep.fidelities
    if self_check:
        closed_pe = np.array([
            (closed_form.inversion_cat_closed(config.alpha, config.parity_r, t) + 1.0) / 2.0
            for t in taus
        ])
        _self_check_columns("P_excited", p_exc, "(W_closed+1)/2", closed_pe)
    header = ("tau", "P_excited", "fidelity_even_cat_alpha", "fidelity_odd_cat_i_alpha")
    extra = {"revival_time": closed_form.revival_time(spec, config.lam)}
    return [(header, (taus, p_exc, fid_even, fid_odd), extra)]


def _run_ordinary_contrast(config, dim, self_check):
    taus = _tau_grid(config)
    mixture = _coherent_mixture(config.alpha, dim)
    zeta_id = dynamics.sweep_branches(mixture, taus).purity_defect
    zeta_ord = dynamics.sweep_branches(mixture, taus,
                                       coupling=dynamics.ORDINARY).purity_defect
    if self_check:
        closed = np.array([
            closed_form.purity_mixture_closed(config.alpha, t, dim) for t in taus
        ])
        _self_check_columns("zeta_ID", zeta_id, "zeta_closed", closed)
    header = ("tau", "zeta_ID", "zeta_ordinary")
    return [(header, (taus, zeta_id, zeta_ord), None)]


_RUNNERS = {
    "purity-mixture": _run_purity_mixture,
    "inversion-cat": _run_inversion_cat,
    "qfunc-mixture": _run_qfunc_mixture,
    "cat-transition": _run_cat_transition,
    "ordinary-contrast": _run_ordinary_contrast,
}


def _output_paths(config: ScenarioConfig, count: int) -> list[Path]:
    base = Path(config.output_path)
    if count == 1:
        return [base]
    return [base.with_name(f"{base.stem}_t{k}{base.suffix}") for k in range(count)]


def run_scenario(config: ScenarioConfig, self_check: bool = False) -> list[Path]:
    """Run one scenario and write its output file(s); returns the paths written.

    Raises ConfigError for invalid configuration, TruncationTooSmall or
    TailLeak when dim cannot hold the requested states, SelfCheckFailed when
    --self-check finds a numeric/closed-form mismatch, and OSError for
    filesystem problems.  Nothing is written unless all checks pass, and a
    failed write leaves none of the run's files: tables go to temporary files
    first, renamed to their targets once all are written.
    """
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    dim = resolve_dim(config)
    tables = _RUNNERS[config.scenario](config, dim, self_check)
    paths = _output_paths(config, len(tables))
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    placed = []
    try:
        for temp, (header, columns, extra) in zip(temps, tables):
            if config.output_format == "csv":
                _write_csv(temp, header, columns)
            else:
                _write_json(temp, header, columns, _metadata(config, dim, extra))
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
            placed.append(path)
    except BaseException:
        for leftover in temps + placed:
            leftover.unlink(missing_ok=True)
        raise
    return paths
