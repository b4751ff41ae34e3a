"""Truncated Fock-space states and density matrices.

State constructors evaluate amplitudes in log space (log-gamma instead of
factorials), so coherent amplitudes up to |alpha| ~ 10 and photon numbers in
the hundreds stay finite.  Every value is immutable after construction and
every function here is pure, so concurrent use needs no locking.  Each
tolerance check reads "not deviation <= tol", so that a NaN fails it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln
from scipy.stats import poisson

from .errors import (
    DimMismatch,
    InvalidCat,
    InvalidDim,
    TruncationTooSmall,
    WeightMismatch,
)

#: Default bound on the photon-number probability a truncation may discard.
DEFAULT_TAIL_TOL = 1e-12

_NORM_ATOL = 1e-12
_HERMITICITY_ATOL = 1e-12
_TRACE_ATOL = 1e-10


def default_dim(alpha) -> int:
    """Truncation dimension comfortably holding a coherent state of amplitude alpha.

    Sized so the discarded Poisson tail stays below 1e-14 for every alpha
    (at most 2.9e-15, near |alpha| = 1.73), with a spare level for the
    photon-adding branch of the evolution.
    """
    nbar = abs(alpha) ** 2
    return math.ceil(nbar + 10.0 * math.sqrt(nbar + 1.0)) + 2


def poisson_tail(mean: float, dim: int) -> float:
    """Probability that a Poisson(mean) photon number is >= dim."""
    if mean == 0.0:
        return 0.0
    return float(poisson.sf(dim - 1, mean))


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over Fock levels |0> .. |dim-1>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise InvalidDim("state vector must be a non-empty 1-D array")
        norm_sq = float(np.vdot(amp, amp).real)
        if not abs(norm_sq - 1.0) <= _NORM_ATOL:
            raise ValueError(f"state vector is not normalized: |psi|^2 = {norm_sq!r}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Build a StateVector from arbitrary amplitudes, rescaling to unit norm.

        When the squared norm underflows (amplitudes near 1e-160), the
        amplitudes are first divided by the largest modulus; every other
        input is normalized unscaled, so its bits do not depend on this.
        """
        amp = np.asarray(amplitudes, dtype=complex)
        norm = float(np.linalg.norm(amp))
        if norm * norm < sys.float_info.min:
            peak = float(np.max(np.abs(amp), initial=0.0))
            if peak == 0.0:
                raise ValueError("cannot normalize the zero vector")
            amp = amp.real / peak + 1j * (amp.imag / peak)  # numpy's complex divide forms 1/peak
            norm = float(np.linalg.norm(amp))
        return cls(amp / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def _check_trace(el: np.ndarray) -> None:
    tr = complex(np.trace(el))
    if not abs(tr - 1.0) <= _TRACE_ATOL:
        raise ValueError(f"density matrix trace is {tr!r}, expected 1")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace field state on a truncated Fock basis.

    The public constructor copies its input and validates shape,
    Hermiticity and trace, so every user-supplied matrix is checked in
    full.  The engine's own outputs (:func:`idjc.dynamics.evolve_field`) are
    Hermitian by construction and come through :meth:`_owned`, which
    re-checks only the trace.  Positive semidefiniteness is never checked
    (an O(dim^3) eigendecomposition per operation would dominate the cost,
    and the evolution map preserves positivity structurally); call
    :meth:`min_eigenvalue` to check it explicitly.
    """

    elements: np.ndarray

    def __post_init__(self):
        el = np.array(self.elements, dtype=complex)
        if el.ndim != 2 or el.shape[0] != el.shape[1] or el.shape[0] < 1:
            raise InvalidDim("density matrix must be square and non-empty")
        herm = float(np.max(np.abs(el - el.conj().T)))
        if not herm <= _HERMITICITY_ATOL:
            raise ValueError(f"density matrix is not Hermitian: max deviation {herm!r}")
        _check_trace(el)
        el.flags.writeable = False
        object.__setattr__(self, "elements", el)

    @classmethod
    def _owned(cls, el: np.ndarray) -> "DensityMatrix":
        """Take ownership of a square complex array the engine just built.

        No copy and no Hermiticity comparison: the caller guarantees that el
        is Hermitian by construction and that nothing else holds it.  The
        trace is still checked, and el is made read-only.
        """
        _check_trace(el)
        el.flags.writeable = False
        rho = object.__new__(cls)
        object.__setattr__(rho, "elements", el)
        return rho

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue; >= -1e-10 for a physically valid state."""
        return float(np.linalg.eigvalsh(self.elements)[0])


@dataclass(frozen=True)
class CatSpec:
    """Parameters of the superposition |alpha> + r |-alpha>.

    parity_r = +1 selects the even superposition (support on even photon
    numbers only), -1 the odd one, 0 a plain coherent state.  alpha is
    accepted complex but the usual choice is real.
    """

    alpha: complex
    parity_r: int = 1

    def __post_init__(self):
        if self.parity_r not in (-1, 0, 1):
            raise InvalidCat(f"parity_r must be -1, 0 or +1, got {self.parity_r!r}")
        alpha = complex(self.alpha)
        if self.parity_r == -1 and alpha == 0:
            raise InvalidCat("odd superposition with alpha = 0 is the null vector")
        object.__setattr__(self, "alpha", alpha)

    @property
    def norm_const(self) -> float:
        """1 / (1 + r^2 + 2 r exp(-2 |alpha|^2)), read by both cat oracles of closed_form.

        The bracket is written (1 + r)^2 + 2 r expm1(-2 |alpha|^2), so the
        odd case keeps its precision at small |alpha|.  Its odd value, about
        4 |alpha|^2, is 0 once |alpha|^2 underflows; the constant is then
        beyond the float range, and reads inf, as it does below about 3.7e-155.
        """
        r = self.parity_r
        bracket = (1.0 + r) ** 2 + 2.0 * r * math.expm1(-2.0 * abs(self.alpha) ** 2)
        return 1.0 / bracket if bracket else math.inf


def _coherent_amplitudes(betas, dim: int) -> np.ndarray:
    """Rows of untruncated coherent amplitudes <n|beta> = exp(-|b|^2/2) b^n / sqrt(n!).

    One row per entry of betas, n < dim.  Shared by the state constructors
    and the Husimi overlaps.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=complex))
    n = np.arange(dim)
    mod = np.abs(betas)
    safe = np.where(mod > 0.0, mod, 1.0)
    log_mag = (-0.5 * mod[:, None] ** 2 + n[None, :] * np.log(safe)[:, None]
               - 0.5 * gammaln(n + 1)[None, :])
    mag = np.exp(log_mag)
    mag[mod == 0.0] = (n == 0).astype(float)
    return mag * np.exp(1j * np.angle(betas)[:, None] * n[None, :])


def _check_truncation(alpha: complex, dim: int, tail_tol: float) -> None:
    if dim < 1:
        raise InvalidDim(f"dim must be >= 1, got {dim}")
    tail = poisson_tail(abs(alpha) ** 2, dim)
    if not tail < tail_tol:
        raise TruncationTooSmall(
            f"photon-number tail beyond dim={dim} is {tail:.3e} for "
            f"|alpha|^2 = {abs(alpha) ** 2:g} (tolerance {tail_tol:.1e})"
        )


def make_coherent(alpha, dim: int | None = None,
                  tail_tol: float = DEFAULT_TAIL_TOL) -> StateVector:
    """Coherent state truncated to dim levels and renormalized.

    dim=None applies :func:`default_dim`.  Raises TruncationTooSmall when the
    discarded Poisson tail would exceed tail_tol; renormalization then keeps
    truncation errors confined to that declared budget.  This is
    :func:`make_cat` with parity_r = 0, whose parity factor is exactly 1.
    """
    return make_cat(CatSpec(alpha, 0), dim, tail_tol)


def make_cat(spec: CatSpec, dim: int | None = None,
             tail_tol: float = DEFAULT_TAIL_TOL) -> StateVector:
    """Normalized |alpha> + r |-alpha> on a truncated basis.

    The two coherent branches are combined through the factor 1 + r(-1)^n,
    which vanishes identically on the opposite parity sector, so for
    r = +1 (-1) the odd (even) amplitudes are exact zeros, not merely small.
    """
    if dim is None:
        dim = default_dim(spec.alpha)
    _check_truncation(spec.alpha, dim, tail_tol)
    base = _coherent_amplitudes(spec.alpha, dim)[0]
    parity_factor = 1.0 + spec.parity_r * (-1.0) ** np.arange(dim)
    return StateVector.normalized(base * parity_factor)


def pure_density(psi: StateVector) -> DensityMatrix:
    """Rank-one projector |psi><psi|."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def mixture_weights(components) -> np.ndarray:
    """Checked weights of a sequence of (weight, state) pairs.

    Weights must be nonnegative numbers (not NaN) and sum to one within
    1e-12, and all states (density matrices or state vectors) must share one
    dim.
    """
    if not components:
        raise WeightMismatch("a mixture needs at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    if not np.all(weights >= 0.0):
        raise WeightMismatch(f"weights must be nonnegative numbers, got {weights.tolist()}")
    total = float(weights.sum())
    if not abs(total - 1.0) <= 1e-12:
        raise WeightMismatch(f"weights sum to {total!r}, expected 1")
    dims = {state.dim for _, state in components}
    if len(dims) != 1:
        raise DimMismatch(f"components have differing dims {sorted(dims)}")
    return weights


def mix(components) -> DensityMatrix:
    """Convex combination of density matrices.

    components: sequence of (weight, DensityMatrix) pairs, checked by
    :func:`mixture_weights`.
    """
    components = list(components)
    mixture_weights(components)
    out = components[0][0] * components[0][1].elements
    for w, rho in components[1:]:
        out += w * rho.elements
    return DensityMatrix(out)


def purity_defect(rho: DensityMatrix) -> float:
    """1 - Tr[rho^2]: zero iff pure, at most 1 - 1/dim."""
    return 1.0 - float(np.vdot(rho.elements, rho.elements).real)


def fidelity_with_pure(rho: DensityMatrix, psi: StateVector) -> float:
    """<psi| rho |psi>."""
    if rho.dim != psi.dim:
        raise DimMismatch(f"rho dim {rho.dim} != psi dim {psi.dim}")
    amp = psi.amplitudes
    return float(np.vdot(amp, rho.elements @ amp).real)


def photon_distribution(rho: DensityMatrix) -> np.ndarray:
    """Diagonal of rho as a real probability vector over photon number."""
    return np.real(np.diag(rho.elements)).copy()
