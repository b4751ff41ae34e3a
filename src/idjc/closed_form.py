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

from .errors import TruncationTooSmall
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


def _check_series(series: str, weights: np.ndarray, alpha) -> None:
    """Reject a series of amplitude alpha whose Poisson weights miss SERIES_TAIL_TOL of the mass.

    weights are the first n terms of exp(-m) m^k / k!, m = |alpha|^2.  Term
    k+1 is term k times m/(k+1), so once n + 1 > m the dropped terms are at
    most a geometric series after weights[-1] with ratio m/(n+1).  Only below
    that is 1 - sum(weights) read: past the mode it is rounding, 1.3e-12 at
    alpha = 64, where the dropped mass is 5.9e-23.
    """
    n_terms, mean = len(weights), abs(alpha) ** 2
    if n_terms and n_terms + 1 > mean:
        missing = float(weights[-1]) * (mean / n_terms) / (1.0 - mean / (n_terms + 1))
    else:
        missing = 1.0 - float(np.sum(weights))
    if not missing < SERIES_TAIL_TOL:
        raise TruncationTooSmall(f"{series} series at amplitude {alpha:g} misses "
                                 f"{missing:.3e} of its mass in {n_terms} terms")


def _reduced(tau: float) -> float:
    """tau, or for tau above 2 pi the same angle in (-pi, pi], to about an ulp.

    Every phase of these series is tau times an integer, so only tau mod 2 pi
    matters; libm's sin and cos reduce tau exactly, and the reduced tau keeps
    the digits that a product with a large tau would round away.
    """
    return math.atan2(math.sin(tau), math.cos(tau)) if tau > 2.0 * math.pi else tau


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

    With r_n = |<n|a>| each evolved component has a stay branch r_n c_n on
    level n and a flip branch r_n s_n on level n+1, c_n = cos(tau(n+1)) and
    s_n = sin(tau(n+1)); the |-a> component carries an extra (-1)^n.  The
    squared trace is built from the branch overlaps on one level index:
    stay with stay, flip with flip (the top level's flip leaves the
    truncation and is dropped) and the stay branch on level n with the flip
    branch arriving there from n-1, each summed plain and with (-1)^n.
    """
    alpha = float(alpha)
    tau = _reduced(tau)
    if n_terms is None:
        n_terms = default_dim(alpha)
    weights = poisson_weights(alpha, n_terms)
    _check_series("Poisson", weights, alpha)
    # exp's rounding leaves about eps alpha^2 in sum(w) - 1, which would move zeta by twice it
    amp = np.sqrt(weights / weights.sum())
    alt = (-1.0) ** np.arange(n_terms)
    phase = tau * np.arange(1.0, n_terms + 1.0)
    stay = amp * np.cos(phase)
    flip = (amp * np.sin(phase))[:-1]
    cross = stay[1:] * flip

    stay_p, stay_m = float(stay @ stay), float(stay @ (alt * stay))
    flip_p, flip_m = float(flip @ flip), float(flip @ (alt[:-1] * flip))
    cross_p, cross_m = float(cross.sum()), float(cross @ alt[:-1])

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
    excited initial atom requires.  CatSpec(alpha, parity_r) checks the inputs
    and gives the bracket, as 1 / norm_const; for r = -1 numerator and
    denominator both vanish like a^2, which :func:`_odd_cat_inversion` divides out.
    """
    spec = CatSpec(alpha, parity_r)
    a_sq = float(alpha) ** 2
    tau = _reduced(tau)
    if parity_r == -1:
        return _odd_cat_inversion(a_sq, tau)
    main = (1.0 + parity_r**2) * math.exp(-2.0 * a_sq * math.sin(tau) ** 2) \
        * math.cos(a_sq * math.sin(2.0 * tau) + 2.0 * tau)
    cross = 2.0 * parity_r * math.exp(-2.0 * a_sq * math.cos(tau) ** 2) \
        * math.cos(a_sq * math.sin(2.0 * tau) - 2.0 * tau)
    return (main + cross) * spec.norm_const


def _sinc(x: float) -> float:
    return math.sin(x) / x if x else 1.0


def _expm1_ratio(x: float) -> float:
    return math.expm1(x) / x if x else 1.0


def _odd_cat_inversion(a_sq: float, tau: float) -> float:
    """The r = -1 inversion with the common factor 2 a^2 divided out.

    With A = a^2 sin 2tau, E_s = exp(-2 a^2 sin^2 tau), E_c = exp(-2 a^2
    cos^2 tau), S(x) = sin(x)/x and G(x) = expm1(x)/x,

        W = [ -E_s sin^2(2tau) S(A) + E_c G(x) cos 2tau cos(A - 2tau) ] / G(-2 a^2)

    where x = 2 a^2 cos 2tau; E_c G(x) equals E_s G(-x), and the form with
    the non-positive argument is taken so expm1 cannot overflow.  Nothing
    cancels, so W stays accurate down to a = 0, where it is cos 4tau.
    """
    cos2, sin2 = math.cos(2.0 * tau), math.sin(2.0 * tau)
    a = a_sq * sin2
    e_s = math.exp(-2.0 * a_sq * math.sin(tau) ** 2)
    e_c = math.exp(-2.0 * a_sq * math.cos(tau) ** 2)
    x = 2.0 * a_sq * cos2
    lift = e_s * _expm1_ratio(-x) if x > 0.0 else e_c * _expm1_ratio(x)
    num = -e_s * sin2**2 * _sinc(a) + lift * cos2 * math.cos(a - 2.0 * tau)
    return num / _expm1_ratio(-2.0 * a_sq)


def evolved_cat_branches(spec: CatSpec, tau: float, dim: int):
    """Unnormalized stay and flip branches of an evolved superposition.

    Returns (stay, flip) as complex arrays of length dim: stay[n] is the
    atom-still-excited branch, cos(tau*(n+1)) on the initial amplitudes;
    flip[n] is the photon-added branch, -i sin(tau*n) on the amplitudes
    shifted up one level.  Squared norms add to one (the atom is excited or
    ground, nothing else), up to the truncation tail of |alpha>'s Poisson
    weights, which must stay below SERIES_TAIL_TOL (a dim below 1 holds none
    of the norm).
    """
    n = np.arange(dim)
    tau = _reduced(tau)
    base = _coherent_series(spec.alpha, dim)
    _check_series("superposition", np.abs(base) ** 2, spec.alpha)
    if spec.parity_r == -1:
        # sqrt(norm_const) = 1 / (2 |alpha| sqrt(G)), G = expm1(x) / x at x = -2 |alpha|^2,
        # overflows at tiny alpha; <n|alpha> = alpha <n-1|alpha> / sqrt(n) cancels 1/|alpha|
        a = abs(spec.alpha)
        base[1:] = base[:-1] / np.sqrt(n[1:]) * (spec.alpha / a)
        scale = 0.5 / math.sqrt(_expm1_ratio(-2.0 * a * a))
    else:
        scale = math.sqrt(spec.norm_const)
    base = base * (1.0 + spec.parity_r * (-1.0) ** n) * scale
    stay = base * np.cos(tau * (n + 1.0))
    flip = np.zeros(dim, dtype=complex)
    flip[1:] = -1j * np.sin(tau * n[1:].astype(float)) * base[:-1]
    return stay, flip


def q_mixture_closed(alpha: float, tau: float, beta) -> float | np.ndarray:
    """Q of the evolved equal mixture of |a> and |-a>, by direct series.

    beta is one phase-space point, which gives a float, or an array of them,
    which gives an array of the same shape.  <beta| is summed against the
    stay branch, cos(tau(n+1)) <n|+-a> on level n, and the flip branch,
    -i sin(tau(n+1)) <n|+-a> on level n+1, of each mixture component; the
    four squared magnitudes carry the whole value (a proper mixture has no
    cross terms between its components).  The overlap <beta|n><n|+-a> is
    Poisson-like with mean peak = max |beta| * |a|, so the series always has
    default_dim(sqrt(peak)) + 8 terms, whose tail _check_series bounds.
    """
    alpha = float(alpha)
    tau = _reduced(tau)
    beta = np.asarray(beta, dtype=complex)
    root = math.sqrt(float(np.max(np.abs(beta), initial=0.0)) * abs(alpha))
    n_terms = default_dim(root) + 8
    _check_series("Poisson", poisson_weights(root, n_terms), root)
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
