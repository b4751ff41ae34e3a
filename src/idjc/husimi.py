"""Husimi Q-function on truncated Fock states.

Q(beta) = <beta| rho |beta> / pi is a genuine probability density over the
complex plane, bounded pointwise by 1/pi.  Coherent overlaps are evaluated
in log space with the phase tracked separately, so |beta| ~ 10 against
photon numbers in the hundreds stays well inside double range.

q_grid takes any density matrix.  q_sweep takes an evolving pure-state
ensemble and a tau grid: Q is the fidelity sum of the stay and flip
branches of :func:`idjc.dynamics.sweep_branches` with coherent targets.
This module is the engine side only: the independent Q series of the
evolved mixture, which takes one point or an array of them, lives with
every other series oracle in :mod:`idjc.closed_form`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Re-exported because perfbench/checks.py and perfbench/tracer.py call and wrap
# husimi.q_mixture_closed.
from .closed_form import q_mixture_closed  # noqa: F401
from .dynamics import sweep_branches
from .errors import TruncationTooSmall
from .fock import DensityMatrix, _coherent_amplitudes, photon_distribution, poisson_tail

#: Bound on the estimated absolute Q error from basis truncation.  The
#: estimate is a worst-case Cauchy-Schwarz product of tail masses; states
#: built with the default truncation rule score ~2e-9 at |beta| ~ 11 even
#: though their actual error is below 1e-30, so the default leaves margin.
DEFAULT_GUARD_TOL = 1e-6


def _truncation_guard(top: float, dim: int, beta_sq_max: float, guard_tol: float) -> None:
    """Reject evaluations whose value could be visibly wrong for a truncated state.

    The computed Q is exact for the state as stored; it can only
    misrepresent the untruncated state when that was cut short.  The
    estimate multiplies the two tail masses (the probe state's and top, the
    state's top-two-level population), which is zero whenever those levels
    are empty, so points far outside the basis are fine then.
    """
    probe_tail = poisson_tail(beta_sq_max, dim)
    estimate = math.sqrt(probe_tail * max(top, 0.0)) / math.pi
    if not estimate < guard_tol:
        raise TruncationTooSmall(
            f"estimated Q truncation error {estimate:.2e} exceeds {guard_tol:.1e} "
            f"(|beta|^2 = {beta_sq_max:g}, dim = {dim}); increase dim"
        )


def q_at(rho: DensityMatrix, beta, guard_tol: float = DEFAULT_GUARD_TOL) -> float:
    """Q at a single phase-space point beta = x + i y."""
    beta = complex(beta)
    _truncation_guard(photon_distribution(rho)[-2:].sum(), rho.dim, abs(beta) ** 2, guard_tol)
    u = _coherent_amplitudes(beta, rho.dim)[0]
    return float(np.vdot(u, rho.elements @ u).real) / math.pi


@dataclass(frozen=True)
class QGrid:
    """Q sampled on a rectangular grid; values[i, j] = Q(x_i + i y_j)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.nx, self.ny):
            raise ValueError(f"values shape {vals.shape} != ({self.nx}, {self.ny})")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    @property
    def cell_area(self) -> float:
        dx = (self.x_max - self.x_min) / (self.nx - 1)
        dy = (self.y_max - self.y_min) / (self.ny - 1)
        return dx * dy

    def normalization(self) -> float:
        """Riemann sum of Q over the window; 1 when the window covers the state."""
        return float(self.values.sum()) * self.cell_area


def _grid_axes(x_min: float, x_max: float, y_min: float, y_max: float,
               nx: int, ny: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Sample points of a valid grid and the largest |beta|^2 on it."""
    if nx < 2 or ny < 2:
        raise ValueError(f"grid needs nx, ny >= 2, got {nx} x {ny}")
    if not (x_max > x_min and y_max > y_min):
        raise ValueError("grid bounds must satisfy x_max > x_min and y_max > y_min")
    corner_sq = max(x_min**2, x_max**2) + max(y_min**2, y_max**2)
    return np.linspace(x_min, x_max, nx), np.linspace(y_min, y_max, ny), corner_sq


def q_grid(rho: DensityMatrix, x_min: float, x_max: float, y_min: float, y_max: float,
           nx: int = 161, ny: int = 161, guard_tol: float = DEFAULT_GUARD_TOL,
           jobs: int = 1) -> QGrid:
    """Q of any density matrix on a rectangular grid; jobs is accepted and has no effect."""
    xs, ys, corner_sq = _grid_axes(x_min, x_max, y_min, y_max, nx, ny)
    _truncation_guard(photon_distribution(rho)[-2:].sum(), rho.dim, corner_sq, guard_tol)
    el = rho.elements
    values = np.empty((nx, ny))
    for i, x in enumerate(xs):
        u = _coherent_amplitudes(x + 1j * ys, rho.dim)
        values[i] = np.real(np.sum(u.conj() * (u @ el.T), axis=1)) / math.pi
    return QGrid(x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max,
                 nx=nx, ny=ny, values=values)


def q_sweep(components, taus, x_min: float, x_max: float, y_min: float, y_max: float,
            nx: int = 161, ny: int = 161, guard_tol: float = DEFAULT_GUARD_TOL) -> list[QGrid]:
    """Q of an evolved pure-state ensemble on a rectangular grid, one QGrid per tau.

    components and taus are checked as for :func:`idjc.dynamics.sweep_branches`.
    Equals q_grid of the dense evolved state at each tau, guard included.
    """
    components = list(components)
    xs, ys, corner_sq = _grid_axes(x_min, x_max, y_min, y_max, nx, ny)
    dim = components[0][1].dim if components else 0
    top = sweep_branches(components, taus, targets=np.eye(dim)[-2:]).fidelities.sum(axis=0)
    _truncation_guard(float(top.max(initial=0.0)), dim, corner_sq, guard_tol)
    values = np.empty((top.size, nx, ny))
    for i, x in enumerate(xs):
        rows = _coherent_amplitudes(x + 1j * ys, dim)
        values[:, i, :] = sweep_branches(components, taus, targets=rows).fidelities.T / math.pi
    return [QGrid(x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max,
                  nx=nx, ny=ny, values=v) for v in values]

