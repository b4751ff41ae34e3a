"""Exact reduced-field evolution for a resonant two-level atom in a cavity.

On resonance the interaction-picture propagator splits into two branches
acting on the field alone: a photon-number-diagonal branch (the atom keeps
its state) and a one-step shift branch (the atom flips, exchanging one
photon).  With the intensity-dependent coupling a (a^dag a)^(1/2) the pair
Rabi frequency at photon number n is proportional to the integer n+1, so
every matrix element of the map is periodic in tau = lambda*t with period
2*pi, and with period pi on a single parity sector.  The ordinary linear
coupling (sqrt(n+1) frequencies) is available for contrast.

Free-field phases are dropped deliberately: populations, purity and photon
statistics do not depend on them, and phase-space pictures then stay put
instead of rigidly rotating at the cavity frequency.  The cavity frequency
therefore appears nowhere in this module.

Two paths evaluate the map; phi_n = tau * (pair frequency of level n).
The per-call functions (evolve_field, excited_population, atomic_inversion,
joint_state_blocks) take one tau and a general, possibly full-rank density
matrix, and build the evolved matrix densely from two real weights: the
stay branch weights rho[m, n] by cos(phi_m) cos(phi_n), and the flip
branch moves rho one level, weighted by sin(phi_m) sin(phi_n) because
(-i sin)(i sin) is real.  evolve_field applies them in row blocks, so its
output is the only dim x dim array it allocates, with the bits of applying
the whole weight matrices.  Both weights are real and symmetric to the
bit, so a Hermitian input gives a Hermitian output by construction:
evolve_field validates its input once and re-checks only the trace of what
it returns (the dropped top-level flip may remove up to
DEFAULT_TAIL_LEAK_TOL of it).  sweep_branches covers a whole tau grid
for an ensemble of pure states with the atom excited: each component v
evolves into exactly two field branches, stay cos(phi_n) v_n and flip
-i sin(phi_(n-1)) v_(n-1), so purity, excited population and fidelities
are sums of branch overlaps, taken over fixed-size tau blocks; no evolved
matrix is ever built, and the temporaries do not grow with the number of
taus.  The purity pairs the ensemble with itself: real trigonometric blocks
times fixed complex vectors of level products.
Both paths take the cos and sin of the pair phases, for one tau or a block
of taus, from _branch_weights, together with the flip branch's source and
target levels src and dst: the flip weights and products are sliced to
them, so the top level's flip, which would leave the basis, is never formed.
With the intensity-dependent coupling every phase is tau times an integer,
so _branch_weights first replaces a tau above 2 pi by atan2(sin tau, cos
tau), the same angle in (-pi, pi]: libm reduces tau exactly, and the phases
keep the digits that the product tau * (n+1) would round away.
A fidelity with amplitude rows r, F_r = sum_k w_k (|<r|a_k>|^2 + |<r|b_k>|^2),
comes from _branch_fidelities alone, against the branches that _branch_block
builds per tau block; so do the Q of :func:`idjc.husimi.q_sweep` (coherent
rows) and its guard's top-two population (rows |dim-2> and |dim-1>).  Each
path checks its inputs in the prologue that gives its weights, _checked_weights
per call and _checked_sweep for the sweeps, under the rules of EvolutionParams.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, TailLeak
from .fock import DensityMatrix, StateVector, mixture_weights

INTENSITY_DEPENDENT = "intensity_dependent"
ORDINARY = "ordinary"
ATOM_EXCITED = "excited"
ATOM_GROUND = "ground"

#: Bound on initial population in the top two Fock levels; the
#: photon-adding branch shifts population up one level per application, so
#: anything sitting there would leak out of the truncated basis.
DEFAULT_TAIL_LEAK_TOL = 1e-10

#: Taus per block of _checked_sweep, the one walk of sweep_branches and husimi.q_sweep:
#: their temporaries stay (block x dim) or (block x 2m x dim), whatever the tau count.
SWEEP_TAU_BLOCK = 64

#: Bytes of complex entries per row block of evolve_field: 128 KiB, glibc's
#: default mmap threshold, so a block's temporaries reuse the same heap pages.
_ROW_BLOCK_BYTES = 2**17


@dataclass(frozen=True)
class EvolutionParams:
    """Evolution inputs: dimensionless time tau = lambda*t plus mode switches.

    The dynamics depends on the coupling constant only through tau.  atom
    selects the initial atomic state; the ground-state case is the mirror
    map with the roles of the two branches swapped (pair frequencies n
    instead of n+1).  dim is an integer that an int64 holds, numpy's included.
    An ordinary tau needs a finite tau * sqrt(dim), the bound on its phases.
    """

    tau: float
    dim: int
    coupling: str = INTENSITY_DEPENDENT
    atom: str = ATOM_EXCITED

    def __post_init__(self):
        if not (self.tau >= 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau!r}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim!r}")
        if not (isinstance(self.dim, numbers.Integral) and self.dim < 2**63):
            raise ValueError(f"dim must be an integer an int64 holds, got {self.dim!r}")
        if self.coupling not in (INTENSITY_DEPENDENT, ORDINARY):
            raise ValueError(f"unknown coupling mode {self.coupling!r}")
        if self.atom not in (ATOM_EXCITED, ATOM_GROUND):
            raise ValueError(f"unknown atom state {self.atom!r}")
        if self.coupling == ORDINARY and not math.isfinite(self.tau * math.sqrt(self.dim)):
            raise ValueError(f"the ordinary pair phase tau * sqrt({self.dim}) overflows")


def kraus_diag(params: EvolutionParams) -> np.ndarray:
    """Diagonal entries <n|K|n> of the atom-unchanged branch (a cosine)."""
    return _branch_weights(params.tau, params.dim, params.coupling, params.atom)[0]


def kraus_shift(params: EvolutionParams) -> np.ndarray:
    """Per-level amplitudes of the atom-flip branch.

    For an excited atom entry n maps |n> to |n+1> (one photon emitted) with
    amplitude -i sin(tau*(n+1)); the intensity-dependent ladder factor n+1
    cancels exactly against the sinc denominator, which is what makes the
    amplitudes free of square roots.  The top entry would land outside the
    truncated basis and is dropped by the propagation; initial states must
    keep the top levels empty (see TailLeak).  For a ground atom entry n
    maps |n> to |n-1> with amplitude -i sin(tau*n); entry 0 is zero.
    """
    return -1j * _branch_weights(params.tau, params.dim, params.coupling, params.atom)[1]


def _branch_weights(tau, dim: int, coupling: str,
                    atom: str = ATOM_EXCITED) -> tuple[np.ndarray, np.ndarray, slice, slice]:
    """cos and sin of the pair phases, and the flip branch's source and target levels.

    tau is one tau, giving dim-vectors, or a 1-d block of them, giving one
    row per tau.  The phase of level n is tau times the Rabi frequency, in
    units of lam, of the pair containing n.  An excited atom pairs level n
    upward, frequency n+1 in the intensity-dependent mode or sqrt(n+1) in
    the ordinary one, and its flip moves level src up one to dst (the top
    level's flip leaves the basis).  A ground atom pairs downward, n in
    place of n+1, and its flip moves down one.  Intensity-dependent taus
    above 2 pi are first replaced by the same angle in (-pi, pi].
    """
    if atom == ATOM_EXCITED:
        levels, src, dst = np.arange(1.0, dim + 1.0), slice(None, -1), slice(1, None)
    else:
        levels, src, dst = np.arange(0.0, dim), slice(1, None), slice(None, -1)
    freqs = levels if coupling == INTENSITY_DEPENDENT else np.sqrt(levels)
    if coupling == INTENSITY_DEPENDENT and np.max(tau) > 2.0 * math.pi:
        tau = np.where(tau > 2.0 * math.pi, np.arctan2(np.sin(tau), np.cos(tau)), tau)
    phases = np.multiply.outer(tau, freqs)
    return np.cos(phases), np.sin(phases), src, dst


def _check_tail(top: float) -> None:
    """Reject an excited-atom input with population top in its top two levels."""
    if not top < DEFAULT_TAIL_LEAK_TOL:
        raise TailLeak(
            f"population {top:.3e} in the top two Fock levels exceeds "
            f"{DEFAULT_TAIL_LEAK_TOL:.1e}; increase dim"
        )


def _checked_weights(rho0: DensityMatrix, params: EvolutionParams):
    """_branch_weights of params, once rho0 has their dim and, atom excited, an empty tail."""
    if rho0.dim != params.dim:
        raise DimMismatch(f"rho dim {rho0.dim} != params dim {params.dim}")
    if params.atom == ATOM_EXCITED:
        _check_tail(float(np.real(rho0.elements[-1, -1] + rho0.elements[-2, -2])))
    return _branch_weights(params.tau, params.dim, params.coupling, params.atom)


def _row_blocks(n: int):
    """Slices of consecutive rows covering n rows of length n.

    Each block of complex entries takes at most _ROW_BLOCK_BYTES (one row
    if a single row is larger), so its temporaries are served from the heap
    instead of being mapped and faulted in anew on every call.
    """
    rows = max(1, _ROW_BLOCK_BYTES // (16 * n))
    return (slice(s, s + rows) for s in range(0, n, rows))


def evolve_field(rho0: DensityMatrix, params: EvolutionParams) -> DensityMatrix:
    """Reduced field state after interaction time tau.

    Applies the two branches as real weights, one block of _row_blocks at a
    time: the stay branch writes out[m, n] = cos_m cos_n rho[m, n] into the
    output, and only once every stay row is written (a flip row lands on its
    neighbouring output row) the flip branch adds sin_m sin_n rho[m, n] one
    level over.  The output is the only dim x dim array allocated; each
    block's weights are rows of the full outer products, so the result is
    the same to the bit as forming them whole.  The map is trace preserving
    as long as the initial state keeps the top of the truncated basis empty,
    which is enforced against DEFAULT_TAIL_LEAK_TOL.  The output is
    Hermitian by construction, so only its trace is re-checked.
    """
    cos, sin, src, dst = _checked_weights(rho0, params)
    el = rho0.elements
    out = np.empty_like(el)
    for rows in _row_blocks(params.dim):
        np.multiply(np.multiply.outer(cos[rows], cos), el[rows], out=out[rows])
    flip, s, moved = out[dst, dst], sin[src], el[src, src]
    for rows in _row_blocks(len(s)):
        flip[rows] += np.multiply.outer(s[rows], s) * moved[rows]
    return DensityMatrix._owned(out)


def excited_population(rho0: DensityMatrix, params: EvolutionParams) -> float:
    """Probability of finding the atom excited at time tau.

    Only the photon-number populations of rho0 enter (both branches are
    diagonal-to-diagonal in that respect).
    """
    cos, sin, _, _ = _checked_weights(rho0, params)
    weights = cos**2 if params.atom == ATOM_EXCITED else sin**2
    return float(np.sum(weights * np.real(np.diag(rho0.elements))))


def atomic_inversion(rho0: DensityMatrix, params: EvolutionParams) -> float:
    """Population inversion <sigma_z> = 2 P_excited - 1."""
    return 2.0 * excited_population(rho0, params) - 1.0


@dataclass(frozen=True)
class JointBlocks:
    """Atom-field state in 2x2 atomic block form (atom index outermost).

    ee and gg are the field blocks with the atom excited resp. ground; eg
    and ge carry the atomic coherences.  Block traces of ee and gg add to
    one; individually they are not density matrices.
    """

    ee: np.ndarray
    eg: np.ndarray
    ge: np.ndarray
    gg: np.ndarray

    def assemble(self) -> np.ndarray:
        """Full (2 dim) x (2 dim) joint density matrix."""
        return np.block([[self.ee, self.eg], [self.ge, self.gg]])


def joint_state_blocks(rho0: DensityMatrix, params: EvolutionParams) -> JointBlocks:
    """All four atomic blocks of the evolved joint state.

    The joint evolution is unitary, so the purity of the assembled matrix
    equals that of rho0 at every tau; this is the main consistency handle
    on the reduced map.  The stay block belongs to the initial atomic state
    and the flip block to the other one; the coherence between them is the
    flip branch times the stay branch, -i sin_m cos_n.
    """
    cos, sin, src, dst = _checked_weights(rho0, params)
    el = rho0.elements
    stay = np.outer(cos, cos) * el
    flip = np.zeros_like(el)
    flip[dst, dst] = np.outer(sin[src], sin[src]) * el[src, src]
    coherence = np.zeros_like(el)
    coherence[dst, :] = -1j * np.outer(sin[src], cos) * el[src, :]
    if params.atom == ATOM_EXCITED:
        return JointBlocks(ee=stay, eg=coherence.conj().T, ge=coherence, gg=flip)
    return JointBlocks(ee=flip, eg=coherence, ge=coherence.conj().T, gg=stay)


@dataclass(frozen=True)
class BranchSweep:
    """Observables of an evolved pure-state ensemble, one entry per tau.

    fidelities has one row per target state, in the order given.
    """

    purity_defect: np.ndarray
    excited_population: np.ndarray
    fidelities: np.ndarray


def _pair_products(vecs: np.ndarray, src: slice, dst: slice) -> tuple[np.ndarray, np.ndarray]:
    """conj(v_k[n]) v_l[n] over all levels, and conj(v_k[dst]) v_l[src], for rows k, l of vecs.

    Row k*m + l of each belongs to the pair (k, l), split into real and imaginary columns.
    """
    same = vecs.conj()[:, None, :] * vecs[None, :, :]
    shifted = vecs.conj()[:, None, dst] * vecs[None, :, src]
    return tuple(np.concatenate([z.real, z.imag]).reshape(-1, z.shape[-1]).T
                 for z in (same, shifted))


def _abs2(trig: np.ndarray, split: np.ndarray) -> np.ndarray:
    """|trig @ z|^2 for a real trig block and complex columns z split as [real | imag]."""
    out = trig @ split
    half = split.shape[1] // 2
    return out[:, :half] ** 2 + out[:, half:] ** 2


def _checked_sweep(components, taus, coupling: str = INTENSITY_DEPENDENT):
    """Weights, amplitude rows, 1-d taus and tau blocks of an excited-atom pure-state ensemble.

    Inputs are checked on the call by the rules of EvolutionParams, on the
    smallest and largest tau, and of evolve_field, on the top-two-level
    population.  The lazy blocks of SWEEP_TAU_BLOCK taus cover the taus in
    order, each as (slice, cos, sin, src, dst) with the block's _branch_weights.
    """
    components = list(components)
    weights = mixture_weights(components)
    vecs = np.array([psi.amplitudes for _, psi in components])
    dim = vecs.shape[1]
    taus = np.array(taus, dtype=float, ndmin=1)
    if taus.ndim != 1:
        raise ValueError(f"taus must be one-dimensional, got shape {taus.shape}")
    for tau in (taus.min(), taus.max()) if taus.size else (0.0,):
        EvolutionParams(tau=float(tau), dim=dim, coupling=coupling)
    _check_tail(float(weights @ np.sum(np.abs(vecs[:, -2:]) ** 2, axis=1)))
    blocks = (slice(s, s + SWEEP_TAU_BLOCK) for s in range(0, taus.size, SWEEP_TAU_BLOCK))
    return weights, vecs, taus, ((b, *_branch_weights(taus[b], dim, coupling)) for b in blocks)


def _branch_block(vecs: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                  src: slice, dst: slice) -> np.ndarray:
    """Stay and flip branches of every amplitude row at each tau of a block.

    cos, sin, src and dst are _branch_weights of the block's taus, for either
    coupling.  Shape (taus, 2m, dim) for m rows: row k is the stay branch
    cos(phi_n) v_k[n] and row m + k the flip branch -i sin(phi_src) v_k[src]
    on dst; the top level's flip leaves the basis and is never formed.
    """
    m, dim = vecs.shape
    branches = np.zeros((len(cos), 2 * m, dim), dtype=complex)
    branches[:, :m] = cos[:, None, :] * vecs
    branches[:, m:, dst] = -1j * sin[:, None, src] * vecs[:, src]
    return branches


def _branch_fidelities(branches: np.ndarray, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """F_r = sum_k w_k (|<r|a_k>|^2 + |<r|b_k>|^2), shape (rows, taus), for a _branch_block."""
    z = rows.conj() @ branches.reshape(-1, branches.shape[-1]).T
    overlaps = (z.real ** 2 + z.imag ** 2).reshape(len(rows), -1, branches.shape[1])
    return overlaps @ np.tile(weights, 2)  # the stay rows, then the flip rows


def sweep_branches(components, taus, coupling: str = INTENSITY_DEPENDENT,
                   targets=()) -> BranchSweep:
    """Purity defect, excited population and target fidelities over a tau grid.

    components: (weight, StateVector) pairs, the field state
    sum_k w_k |v_k><v_k| with the atom excited; weights follow the rule of
    :func:`idjc.fock.mix`.  targets: amplitude rows of the states to take
    fidelities with, each held to the rule of StateVector (ValueError if not
    unit norm).  Inputs are checked once per call by the rules of
    EvolutionParams and of evolve_field.

    Component k evolves into the stay branch a_k[n] = cos(phi_n) v_k[n] and
    the flip branch b_k[n] = -i sin(phi_(n-1)) v_k[n-1]; the top level's
    flip leaves the basis and is dropped, as in evolve_field.  Then

        Tr rho^2 = sum_kl w_k w_l (|<a_k|a_l>|^2 + |<b_k|b_l>|^2 + 2 |<a_k|b_l>|^2)
        F_psi    = sum_k w_k (|<psi|a_k>|^2 + |<psi|b_k>|^2)
        P_e      = sum_k w_k ||a_k||^2
    """
    weights, vecs, taus, blocks = _checked_sweep(components, taus, coupling)
    dim = vecs.shape[1]
    goals = np.array(targets, dtype=complex)
    if goals.size and (goals.ndim != 2 or goals.shape[1] != dim):
        raise DimMismatch(f"targets of shape {goals.shape} are not rows of ensemble dim {dim}")
    goals = goals.reshape(-1, dim)
    for row in goals:
        StateVector(row)

    pair_weights = np.outer(weights, weights).ravel()
    *_, src, dst = _branch_weights(0.0, dim, coupling)  # the flip levels, the same at every tau
    same, up = _pair_products(vecs, src, dst)
    pops = weights @ (vecs.real ** 2 + vecs.imag ** 2)

    purity = np.empty(taus.size)
    excited = np.empty(taus.size)
    fids = np.empty((taus.size, len(goals)))
    for block, cos, sin, _, _ in blocks:
        cos2, flip = cos * cos, sin[:, src]
        overlaps = (_abs2(cos2, same) + _abs2(flip * flip, same[src])
                    + 2.0 * _abs2(cos[:, dst] * flip, up))
        purity[block] = 1.0 - overlaps @ pair_weights
        excited[block] = cos2 @ pops
        if len(goals):
            branches = _branch_block(vecs, cos, sin, src, dst)
            fids[block] = _branch_fidelities(branches, weights, goals).T
    return BranchSweep(purity_defect=purity, excited_population=excited,
                       fidelities=fids.T.copy())
