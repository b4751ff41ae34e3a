"""Property-based invariants: normalization, convexity, channel structure."""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idjc
from idjc import cli, scenarios
from idjc.scenarios import SCENARIO_NAMES, ScenarioConfig, validate_config

from conftest import SMALL_KEYS, params, random_density, small_config

AMPLITUDES = st.complex_numbers(max_magnitude=6.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=AMPLITUDES)
def test_coherent_constructor_normalized(alpha):
    psi = idjc.make_coherent(alpha)
    assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=st.floats(min_value=0.05, max_value=6.0), parity_r=st.sampled_from([-1, 1]))
def test_cat_parity_sector_is_bitwise_empty(alpha, parity_r):
    psi = idjc.make_cat(idjc.CatSpec(alpha=alpha, parity_r=parity_r))
    dead = psi.amplitudes[1::2] if parity_r == 1 else psi.amplitudes[0::2]
    assert np.all(dead == 0)
    assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) < 1e-12


def test_pure_states_have_zero_defect():
    rng = np.random.default_rng(42)
    for _ in range(100):
        dim = int(rng.integers(2, 40))
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        rho = idjc.pure_density(idjc.StateVector.normalized(raw))
        assert idjc.purity_defect(rho) < 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31), n_parts=st.integers(2, 5))
def test_mix_preserves_trace_and_hermiticity(seed, n_parts):
    rng = np.random.default_rng(seed)
    dim = 12
    weights = rng.dirichlet(np.ones(n_parts))
    parts = [(w, random_density(rng, dim, support=dim - 2)) for w in weights]
    rho = idjc.mix(parts)
    el = rho.elements
    assert abs(np.trace(el).real - 1.0) < 1e-12
    assert np.max(np.abs(el - el.conj().T)) < 1e-12
    defect = idjc.purity_defect(rho)
    assert -1e-10 <= defect <= 1.0 - 1.0 / dim + 1e-10


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31))
def test_photon_distribution_is_a_distribution(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 16)
    dist = idjc.photon_distribution(rho)
    assert dist.min() > -1e-12
    assert dist.sum() == pytest.approx(1.0, abs=1e-10)


def test_trace_preservation_over_random_inputs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(rng.integers(8, 48))
        rho = random_density(rng, dim)
        tau = float(rng.uniform(0.0, 4.0 * math.pi))
        coupling = idjc.INTENSITY_DEPENDENT if rng.random() < 0.5 else idjc.ORDINARY
        out = idjc.evolve_field(rho, params(tau, dim=dim, coupling=coupling))
        assert abs(np.trace(out.elements).real - 1.0) < 1e-12


def test_kraus_completeness_over_random_taus():
    rng = np.random.default_rng(13)
    for _ in range(50):
        tau = float(rng.uniform(0.0, 4.0 * math.pi))
        coupling = idjc.INTENSITY_DEPENDENT if rng.random() < 0.5 else idjc.ORDINARY
        p = params(tau, dim=64, coupling=coupling)
        total = idjc.kraus_diag(p) ** 2 + np.abs(idjc.kraus_shift(p)) ** 2
        assert np.max(np.abs(total[:62] - 1.0)) < 1e-14


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31),
       x=st.floats(min_value=-7, max_value=7), y=st.floats(min_value=-7, max_value=7))
def test_q_values_bounded(seed, x, y):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 24)
    q = idjc.q_at(rho, complex(x, y))
    assert -1e-12 <= q <= 1.0 / math.pi + 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(alpha=st.floats(min_value=0.2, max_value=5.0),
       parity_r=st.sampled_from([-1, 0, 1]),
       tau=st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_branch_norms_complete(alpha, parity_r, tau):
    spec = idjc.CatSpec(alpha=alpha, parity_r=parity_r)
    stay, flip = idjc.evolved_cat_branches(spec, tau, idjc.default_dim(alpha))
    total = np.vdot(stay, stay).real + np.vdot(flip, flip).real
    assert abs(total - 1.0) < 1e-10


def test_evolution_linear_in_density_argument():
    # the map must commute with mixing: evolve(sum w_i rho_i) = sum w_i evolve(rho_i)
    rng = np.random.default_rng(31)
    dim = 20
    a, b = random_density(rng, dim), random_density(rng, dim)
    p = params(1.37, dim=dim)
    mixed = idjc.mix([(0.3, a), (0.7, b)])
    lhs = idjc.evolve_field(mixed, p).elements
    rhs = 0.3 * idjc.evolve_field(a, p).elements + 0.7 * idjc.evolve_field(b, p).elements
    assert np.max(np.abs(lhs - rhs)) < 1e-14


#: (min, max) of one grid axis: ordinary, equal, reversed, or with a bound whose square overflows.
GRID_AXES = st.sampled_from([(-3.0, 2.0), (0.0, 0.5), (1.0, 1.0), (2.0, -3.0),
                             (-1e200, 1.0), (0.0, 1e200)])


def _value_error(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=120, deadline=None, derandomize=True)
@given(x_axis=GRID_AXES, y_axis=GRID_AXES, nx=st.integers(0, 4), ny=st.integers(0, 4))
def test_grid_verdicts_agree(x_axis, y_axis, nx, ny):
    """validate_config rejects a qfunc grid exactly when q_grid and q_sweep do, in their words."""
    bounds = (*x_axis, *y_axis)
    vac = idjc.make_coherent(0.0, 6)
    dense = _value_error(lambda: idjc.q_grid(idjc.pure_density(vac), *bounds, nx, ny))
    swept = _value_error(lambda: idjc.q_sweep([(1.0, vac)], [0.0], *bounds, nx, ny))
    config = ScenarioConfig(scenario="qfunc-mixture", x_min=bounds[0], x_max=bounds[1],
                            y_min=bounds[2], y_max=bounds[3], nx=nx, ny=ny)
    reported = [e for e in validate_config(config) if e.startswith("grid: ")]
    assert dense == swept
    assert reported == ([] if dense is None else [f"grid: {dense}"])


#: Values no field of a library config may turn into a traceback: non-finite and
#: huge numbers, numeric and other strings, booleans, None, containers and numpy scalars.
GATE_POOL = [math.nan, math.inf, -math.inf, 1e308, 0, 10 ** 400,
             "5", "0.5", "-1", "1e400", "nan", "a", "", True, False, None,
             [], [0.5], [1, "2"], ["a"], [None], (0.5,), (), {}, {"a": 1},
             np.int64(600), np.int64(-1), np.float64(2.5), np.float64(math.nan)]


@st.composite
def _gate_configs(draw):
    """A small valid config of any scenario with up to three fields drawn from GATE_POOL.

    Each scenario gets the keys it reads and, on some draws, one key it does not read.
    """
    values = small_config(draw(st.sampled_from(SCENARIO_NAMES)))
    unread = SMALL_KEYS.keys() - set(scenarios._SCENARIOS[values["scenario"]].reads)
    if key := draw(st.none() | st.sampled_from(sorted(unread))):
        values[key] = SMALL_KEYS[key]
    names = [f.name for f in fields(ScenarioConfig)]
    for name in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
        values[name] = draw(st.sampled_from(GATE_POOL))
    return ScenarioConfig(**values)


def _as_config_file(config):
    """The config as JSON text, or None when a config file cannot hold its values as they are."""
    try:
        text = json.dumps(asdict(config))
    except TypeError:  # a numpy integer
        return None
    # a tuple reads back as a list, a numpy float as a float: neither is the same value
    return text if repr(json.loads(text)) == repr(asdict(config)) else None


#: One small valid config per scenario, each key it reads set: each must validate.
VALID_CONFIGS = [ScenarioConfig(**small_config(name)) for name in SCENARIO_NAMES]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(config=_gate_configs())
def test_library_gate_fuzz(config):
    """validate_config never raises, and a config file with the same values gets its verdict.

    The runners are stubbed to write nothing: the verdict is the gate's alone, and a
    valid draw such as tau_steps = 10**400 need not be small enough to run.
    """
    errors = validate_config(config)
    assert isinstance(errors, list) and all(isinstance(e, str) for e in errors)
    assert errors == [] or config not in VALID_CONFIGS
    text = _as_config_file(config)
    if text is None:
        return
    stubs = {name: replace(spec, run=lambda config, dim: (("tau",), ([],), [], []))
             for name, spec in scenarios._SCENARIOS.items()}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(scenarios._SCENARIOS, stubs), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        path = Path(tmp) / "cfg.json"
        path.write_text(text)
        code = cli.main(["run", "--config", str(path)])
        assert list(Path(tmp).iterdir()) == [path]
    assert code == (2 if errors else 0)
    assert err.getvalue().splitlines() == [f"error: {message}" for message in errors]


for _config in VALID_CONFIGS:  # every scenario's valid path, whatever the strategy draws
    test_library_gate_fuzz = example(config=_config)(test_library_gate_fuzz)
