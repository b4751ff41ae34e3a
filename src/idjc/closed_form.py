"""Closed-form series for special initial states: every series oracle of idjc.

Everything here recomputes, from plain Poisson-weighted trigonometric sums,
quantities the matrix engine in :mod:`idjc.dynamics` produces numerically:
purity of the evolved two-coherent-state mixture, atomic inversion for
coherent-superposition inputs, the two evolved branches of a superposition
and the Husimi Q of the evolved mixture, for one point beta or an array of
them.  None of it calls the engine, so the two code paths serve as
independent cross checks of each other.

All series evaluate alpha^n / sqrt(n!) style coefficients in log space;
naive factorials would overflow near n ~ 170.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .errors import InvalidCat, TruncationTooSmall
from .fock import CatSpec, default_dim

#: Largest Poisson weight mass a truncated series may miss.
SERIES_TAIL_TOL = 1e-12


def poisson_weights(alpha: float, n_terms: int) -> np.ndarray:
    """Photon-number distribution of a coherent state: exp(-a^2) a^(2n) / n!."""
    if n_terms < 1:
        raise TruncationTooSmall(f"n_terms must be >= 1, got {n_terms}")
    mean = abs(alpha) ** 2
    if mean == 0.0:
        w = np.zeros(n_terms)
        w[0] = 1.0
        return w
    n = np.arange(n_terms)
    return np.exp(-mean + n * math.log(mean) - gammaln(n + 1))


def _checked_weights(alpha: float, n_terms: int) -> np.ndarray:
    w = poisson_weights(alpha, n_terms)
    tail = 1.0 - float(w.sum())
    if not tail < SERIES_TAIL_TOL:
        raise TruncationTooSmall(
            f"Poisson tail beyond {n_terms} terms is {tail:.3e} at amplitude {alpha:g}"
        )
    return w


def _coherent_series(z, n_terms: int) -> np.ndarray:
    """<n|z> = exp(-|z|^2/2) z^n / sqrt(n!) for n < n_terms, shape z.shape + (n_terms,).

    The magnitude is taken in log space with the phase tracked separately.
    """
    z = np.asarray(z, dtype=complex)[..., None]
    n = np.arange(n_terms)
    mod = np.abs(z)
    safe = np.where(mod > 0.0, mod, 1.0)
    mag = np.exp(-0.5 * mod**2 + n * np.log(safe) - 0.5 * gammaln(n + 1))
    return np.where(mod > 0.0, mag, n == 0) * np.exp(1j * n * np.angle(z))


def purity_mixture_closed(alpha: float, tau: float, n_terms: int | None = None) -> float:
    """Purity defect 1 - Tr[rho^2] of the evolved equal mixture of |a> and |-a>.

    The squared trace decomposes into overlaps among the four evolved
    branches (stay/flip for each mixture component): two diagonal-branch
    sums, two flip-branch sums and two cross sums, each in a plus variant
    and an alternating-sign variant from the <a|..|-a> cross overlaps.
    alpha must be real and nonzero (the flip-branch weights carry 1/alpha
    factors from reindexing the shifted series).
    """
    alpha = float(alpha)
    if alpha == 0.0:
        raise ValueError("mixture purity series needs alpha != 0")
    if n_terms is None:
        n_terms = default_dim(alpha)
    weights = _checked_weights(alpha, n_terms)
    n = np.arange(n_terms, dtype=float)
    alt = (-1.0) ** np.arange(n_terms)
    cos_up = np.cos(tau * (n + 1.0))
    sin_dn = np.sin(tau * n)

    w_stay = cos_up**2
    w_flip = (n / alpha**2) * sin_dn**2
    w_cross = (np.sqrt(n) / alpha) * cos_up * sin_dn

    stay_p = float(np.sum(weights * w_stay))
    stay_m = float(np.sum(weights * alt * w_stay))
    flip_p = float(np.sum(weights * w_flip))
    flip_m = float(np.sum(weights * -alt * w_flip))
    cross_p = float(np.sum(weights * w_cross))
    cross_m = float(np.sum(weights * -alt * w_cross))

    trace_sq = 0.5 * (stay_p**2 + stay_m**2 + flip_p**2 + flip_m**2)
    trace_sq += cross_p**2 + cross_m**2
    return 1.0 - trace_sq


def inversion_cat_closed(alpha: float, parity_r: int, tau: float) -> float:
    """Atomic inversion <sigma_z> for the field starting in |a> + r|-a>, atom excited.

    Resumming the photon-number series gives Gaussian-damped oscillations:

        [ (1+r^2) exp(-2 a^2 sin^2 tau) cos(a^2 sin 2tau + 2 tau)
          + 2 r   exp(-2 a^2 cos^2 tau) cos(a^2 sin 2tau - 2 tau) ]
        / (1 + r^2 + 2 r exp(-2 a^2))

    The denominator enters to the first power (it is the squared norm of the
    unnormalized superposition); that is what makes W(0) = +1 exactly, as the
    excited initial atom requires.
    """
    if parity_r not in (-1, 0, 1):
        raise InvalidCat(f"parity_r must be -1, 0 or +1, got {parity_r!r}")
    a_sq = float(alpha) ** 2
    if parity_r == -1 and a_sq == 0.0:
        raise InvalidCat("odd superposition with alpha = 0 is the null vector")
    bracket = 1.0 + parity_r**2 + 2.0 * parity_r * math.exp(-2.0 * a_sq)
    main = (1.0 + parity_r**2) * math.exp(-2.0 * a_sq * math.sin(tau) ** 2) \
        * math.cos(a_sq * math.sin(2.0 * tau) + 2.0 * tau)
    cross = 2.0 * parity_r * math.exp(-2.0 * a_sq * math.cos(tau) ** 2) \
        * math.cos(a_sq * math.sin(2.0 * tau) - 2.0 * tau)
    return (main + cross) / bracket


def evolved_cat_branches(spec: CatSpec, tau: float, dim: int,
                         tail_tol: float = SERIES_TAIL_TOL):
    """Unnormalized stay and flip branches of an evolved superposition.

    Returns (stay, flip) as complex arrays of length dim: stay[n] is the
    atom-still-excited branch, cos(tau*(n+1)) on the initial amplitudes;
    flip[n] is the photon-added branch, -i sin(tau*n) on the amplitudes
    shifted up one level.  Squared norms add to one (the atom is excited or
    ground, nothing else), up to the truncation tail.
    """
    if dim < 1:
        raise TruncationTooSmall(f"dim must be >= 1, got {dim}")
    n = np.arange(dim)
    base = _coherent_series(spec.alpha, dim)
    base = base * (1.0 + spec.parity_r * (-1.0) ** n) * math.sqrt(spec.norm_const)
    held = float(np.vdot(base, base).real)
    if not 1.0 - held < tail_tol:
        raise TruncationTooSmall(
            f"superposition holds only {held!r} of its norm in dim={dim}"
        )
    stay = base * np.cos(tau * (n + 1.0))
    flip = np.zeros(dim, dtype=complex)
    flip[1:] = -1j * np.sin(tau * n[1:].astype(float)) * base[:-1]
    return stay, flip


def q_mixture_closed(alpha: float, tau: float, beta,
                     n_terms: int | None = None) -> float | np.ndarray:
    """Q of the evolved equal mixture of |a> and |-a>, by direct series.

    beta is one phase-space point, which gives a float, or an array of them,
    which gives an array of the same shape.  <beta| is summed against the
    stay branch, cos(tau(n+1)) <n|+-a> on level n, and the flip branch,
    -i sin(tau(n+1)) <n|+-a> on level n+1, of each mixture component; the
    four squared magnitudes carry the whole value (a proper mixture has no
    cross terms between its components).
    """
    alpha = float(alpha)
    beta = np.asarray(beta, dtype=complex)
    peak = float(np.max(np.abs(beta), initial=0.0)) * abs(alpha)
    if n_terms is None:
        n_terms = default_dim(math.sqrt(peak)) + 8
    _checked_weights(math.sqrt(peak), n_terms)
    n = np.arange(n_terms)
    plus = _coherent_series(alpha, n_terms)
    components = np.stack([plus, plus * (-1.0) ** n], axis=-1)
    bra = _coherent_series(beta, n_terms + 1).conj()
    stay = bra[..., :-1] @ (np.cos(tau * (n + 1.0))[:, None] * components)
    flip = bra[..., 1:] @ (-1j * np.sin(tau * (n + 1.0))[:, None] * components)
    q = np.sum(np.abs(stay) ** 2 + np.abs(flip) ** 2, axis=-1) / (2.0 * math.pi)
    return float(q) if q.ndim == 0 else q


def revival_time(spec: CatSpec, lam: float = 1.0) -> float:
    """First revival time (physical units) under the intensity-dependent coupling.

    Occupied photon numbers are spaced by two for the even/odd
    superpositions and by one for a coherent state, so neighboring pair
    frequencies differ by 4*lam resp. 2*lam: revivals at pi/(2 lam) and
    pi/lam.
    """
    if not lam > 0.0:
        raise ValueError(f"coupling constant must be positive, got {lam!r}")
    if spec.parity_r in (-1, 1):
        return math.pi / (2.0 * lam)
    return math.pi / lam
