import numpy as np
import pytest

import idjc
from idjc import scenarios

ALPHA = 5.0
DIM = idjc.default_dim(ALPHA)

#: A small valid value of every scenario key, none of them its default.
SMALL_KEYS = {"parity_r": -1, "lam": 2.0, "tau_max": 1.0, "tau_steps": 5, "tau_values": [0.5],
              "x_min": -4.0, "x_max": 4.0, "y_min": -4.0, "y_max": 4.0, "nx": 5, "ny": 5}


def small_config(scenario: str) -> dict:
    """A small valid flat config of scenario that sets every key the scenario table says it reads."""
    return {"scenario": scenario, "alpha": 2.0, "output_path": "out.csv",
            **{key: SMALL_KEYS[key] for key in scenarios._SCENARIOS[scenario].reads}}


def mixture_density(alpha: float, dim: int) -> idjc.DensityMatrix:
    """Equal-weight mixture of |alpha> and |-alpha>."""
    plus = idjc.pure_density(idjc.make_coherent(alpha, dim))
    minus = idjc.pure_density(idjc.make_coherent(-alpha, dim))
    return idjc.mix([(0.5, plus), (0.5, minus)])


def random_density(rng: np.random.Generator, dim: int,
                   support: int | None = None) -> idjc.DensityMatrix:
    """Random valid density matrix with empty top levels.

    Built as a normalized Gram matrix on the first ``support`` levels, so it
    is Hermitian and positive by construction and safe to propagate (the
    photon-adding branch never reaches the truncation edge).
    """
    if support is None:
        support = dim - 4
    g = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
    block = g @ g.conj().T
    block /= np.trace(block).real
    el = np.zeros((dim, dim), dtype=complex)
    el[:support, :support] = block
    return idjc.DensityMatrix(el)


def params(tau: float, dim: int = DIM, **kwargs) -> idjc.EvolutionParams:
    return idjc.EvolutionParams(tau=tau, dim=dim, **kwargs)


@pytest.fixture(scope="session")
def mixture5() -> idjc.DensityMatrix:
    return mixture_density(ALPHA, DIM)


@pytest.fixture(scope="session")
def even_cat5() -> idjc.StateVector:
    return idjc.make_cat(idjc.CatSpec(alpha=ALPHA, parity_r=1), DIM)


@pytest.fixture(scope="session")
def odd_cat5() -> idjc.StateVector:
    return idjc.make_cat(idjc.CatSpec(alpha=ALPHA, parity_r=-1), DIM)


@pytest.fixture(scope="session")
def odd_cat_rotated5() -> idjc.StateVector:
    return idjc.make_cat(idjc.CatSpec(alpha=ALPHA * 1j, parity_r=-1), DIM)


@pytest.fixture(scope="session")
def even_cat_rotated5() -> idjc.StateVector:
    return idjc.make_cat(idjc.CatSpec(alpha=ALPHA * 1j, parity_r=1), DIM)
