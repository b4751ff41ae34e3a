"""Husimi Q-function on truncated Fock states.

Q(beta) = <beta| rho |beta> / pi is a genuine probability density over the
complex plane, bounded pointwise by 1/pi.  Coherent overlaps are evaluated
in log space with the phase tracked separately, so |beta| ~ 10 against
photon numbers in the hundreds stays well inside double range.

Grid evaluation is defined point by point (no state between points), so
rows may be computed concurrently; assembly is in index order and the
result does not depend on the execution schedule.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import TruncationTooSmall
from .fock import DensityMatrix, _coherent_amplitudes, default_dim, poisson_tail

#: Bound on the estimated absolute Q error from basis truncation.  The
#: estimate is a worst-case Cauchy-Schwarz product of tail masses; states
#: built with the default truncation rule score ~2e-9 at |beta| ~ 11 even
#: though their actual error is below 1e-30, so the default leaves margin.
DEFAULT_GUARD_TOL = 1e-6


def _truncation_guard(rho: DensityMatrix, beta_sq_max: float, guard_tol: float) -> None:
    """Reject evaluations whose value could be visibly wrong for the given rho.

    The computed Q is exact for rho as stored; it can only misrepresent the
    untruncated state when rho itself was cut short.  The estimate below
    multiplies the two tail masses (the probe state's and rho's), which is
    zero whenever the top levels of rho are empty, so points far outside the
    basis are fine against well-truncated states.
    """
    top = float(np.real(rho.elements[-1, -1]))
    if rho.dim >= 2:
        top += float(np.real(rho.elements[-2, -2]))
    top = max(top, 0.0)
    probe_tail = poisson_tail(beta_sq_max, rho.dim)
    estimate = math.sqrt(probe_tail * top) / math.pi
    if not estimate < guard_tol:
        raise TruncationTooSmall(
            f"estimated Q truncation error {estimate:.2e} exceeds {guard_tol:.1e} "
            f"(|beta|^2 = {beta_sq_max:g}, dim = {rho.dim}); increase dim"
        )


def q_at(rho: DensityMatrix, beta, guard_tol: float = DEFAULT_GUARD_TOL) -> float:
    """Q at a single phase-space point beta = x + i y."""
    beta = complex(beta)
    _truncation_guard(rho, abs(beta) ** 2, guard_tol)
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


def q_grid(rho: DensityMatrix, x_min: float, x_max: float, y_min: float, y_max: float,
           nx: int = 161, ny: int = 161, guard_tol: float = DEFAULT_GUARD_TOL,
           jobs: int = 1) -> QGrid:
    """Q on a rectangular grid, optionally with rows computed in parallel.

    The result is identical for any jobs value: each row is an independent
    pure evaluation and rows are stored by index.
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"grid needs nx, ny >= 2, got {nx} x {ny}")
    if not (x_max > x_min and y_max > y_min):
        raise ValueError("grid bounds must satisfy x_max > x_min and y_max > y_min")
    corner_sq = max(x_min**2, x_max**2) + max(y_min**2, y_max**2)
    _truncation_guard(rho, corner_sq, guard_tol)

    xs = np.linspace(x_min, x_max, nx)
    ys = np.linspace(y_min, y_max, ny)
    el = rho.elements

    def row(i: int) -> np.ndarray:
        u = _coherent_amplitudes(xs[i] + 1j * ys, el.shape[0])
        return np.real(np.sum(u.conj() * (u @ el.T), axis=1)) / math.pi

    values = np.empty((nx, ny))
    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for i, r in enumerate(pool.map(row, range(nx))):
                values[i, :] = r
    else:
        for i in range(nx):
            values[i, :] = row(i)
    return QGrid(x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max,
                 nx=nx, ny=ny, values=values)


def _series_terms(alpha: float, beta: complex, n_terms: int) -> np.ndarray:
    """exp(-(|b|^2 + a^2)/2) (b* a)^n / n!, log-magnitude with separate phase."""
    n = np.arange(n_terms)
    x = beta.conjugate() * alpha
    prefactor = -0.5 * (abs(beta) ** 2 + abs(alpha) ** 2)
    if x == 0:
        terms = np.zeros(n_terms, dtype=complex)
        terms[0] = math.exp(prefactor)
        return terms
    log_mag = prefactor + n * math.log(abs(x)) - gammaln(n + 1)
    return np.exp(log_mag) * np.exp(1j * n * np.angle(x))


def q_mixture_closed(alpha: float, tau: float, beta,
                     n_terms: int | None = None) -> float:
    """Q of the evolved equal mixture of |a> and |-a>, by direct series.

    Sums <beta| against the stay and flip branches of each mixture
    component; the four squared magnitudes carry the whole value (a proper
    mixture has no cross terms between its components).  Independent of the
    matrix engine.
    """
    alpha = float(alpha)
    beta = complex(beta)
    if n_terms is None:
        n_terms = default_dim(math.sqrt(abs(beta.conjugate() * alpha))) + 8
    peak = abs(beta.conjugate() * alpha)
    tail = poisson_tail(peak, n_terms)
    if not tail < 1e-12:
        raise TruncationTooSmall(
            f"series needs more than {n_terms} terms for |alpha*beta| = {peak:g}"
        )
    n = np.arange(n_terms)
    base = _series_terms(alpha, beta, n_terms)
    alt = (-1.0) ** n
    stay_weight = np.cos(tau * (n + 1.0))
    flip_weight = -1j * beta.conjugate() * np.sin(tau * (n + 1.0)) / np.sqrt(n + 1.0)
    total = 0.0
    for sign in (None, alt):
        terms = base if sign is None else base * sign
        total += abs(np.sum(terms * stay_weight)) ** 2
        total += abs(np.sum(terms * flip_weight)) ** 2
    return total / (2.0 * math.pi)
