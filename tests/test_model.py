"""A third route to the model: the joint Hamiltonian, diagonalized.

Every other reference in the suite restates the engine's pair decomposition.
This module builds H = sigma_+ (x) R + sigma_- (x) R^dag in the 2 dim joint
space, atom index outermost with the excited block first, with
R = a sqrt(a^dag a) for the intensity-dependent coupling and R = a for the
ordinary one, and evolves with U(tau) = V exp(-i w tau) V^dag from
numpy.linalg.eigh.  It calls nothing of idjc but the public API under test.

The truncated H leaves |e, dim-1> uncoupled, because its partner |g, dim> is
outside the basis, whereas the engine multiplies it by cos(tau dim) and
drops its flip.  The two agree while the top levels are empty, which is the
TailLeak rule, so every state here lives on the lowest dim - 3 levels.  Taus
stay within [0, 2 pi]: the eigenvalues carry their own rounding, so this
route is no reference for large taus.
"""

import math

import numpy as np
import pytest

import idjc

from conftest import random_density

COUPLINGS = (idjc.INTENSITY_DEPENDENT, idjc.ORDINARY)
ATOMS = (idjc.ATOM_EXCITED, idjc.ATOM_GROUND)
TAUS = (0.3, 1.7, 5.9)
ATOL = 1e-13


def propagator(tau: float, dim: int, coupling: str) -> np.ndarray:
    """U(tau) on the joint space, from the eigenvectors of H."""
    n = np.arange(1.0, dim)
    r = np.diag(n if coupling == idjc.INTENSITY_DEPENDENT else np.sqrt(n), k=1)  # R[n-1, n]
    zero = np.zeros((dim, dim))
    w, v = np.linalg.eigh(np.block([[zero, r], [r.T, zero]]))
    return (v * np.exp(-1j * w * tau)) @ v.conj().T


def evolved_joint(field: np.ndarray, tau: float, coupling: str, atom: str) -> np.ndarray:
    """U (|atom><atom| (x) field) U^dag."""
    dim = len(field)
    joint = np.zeros((2 * dim, 2 * dim), dtype=complex)
    block = slice(None, dim) if atom == idjc.ATOM_EXCITED else slice(dim, None)
    joint[block, block] = field
    u = propagator(tau, dim, coupling)
    return u @ joint @ u.conj().T


def random_states(rng: np.random.Generator, count: int, dim: int) -> list[idjc.StateVector]:
    """Random pure states on the lowest dim - 3 levels."""
    raw = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    raw[:, -3:] = 0.0
    return [idjc.StateVector.normalized(row) for row in raw]


def coherent_row(beta: complex, dim: int) -> np.ndarray:
    """<n|beta> for n < dim, untruncated, as the engine's Q overlaps take it."""
    return np.array([math.exp(-abs(beta) ** 2 / 2) * beta ** n / math.sqrt(math.factorial(n))
                     for n in range(dim)])


@pytest.mark.parametrize("dim", [6, 17, 40])
@pytest.mark.parametrize("coupling", COUPLINGS)
@pytest.mark.parametrize("atom", ATOMS)
def test_per_call_maps_match_the_joint_evolution(dim, coupling, atom):
    rho0 = random_density(np.random.default_rng(dim), dim, support=dim - 3)
    for tau in TAUS:
        joint = evolved_joint(rho0.elements, tau, coupling, atom)
        ee, eg = joint[:dim, :dim], joint[:dim, dim:]
        ge, gg = joint[dim:, :dim], joint[dim:, dim:]
        p = idjc.EvolutionParams(tau=tau, dim=dim, coupling=coupling, atom=atom)
        blocks = idjc.joint_state_blocks(rho0, p)
        for got, want in ((blocks.ee, ee), (blocks.eg, eg), (blocks.ge, ge), (blocks.gg, gg),
                          (idjc.evolve_field(rho0, p).elements, ee + gg)):
            assert np.max(np.abs(got - want)) < ATOL
        assert abs(idjc.excited_population(rho0, p) - np.trace(ee).real) < ATOL


@pytest.mark.parametrize("coupling", COUPLINGS)
def test_branch_sweep_matches_the_joint_evolution(coupling):
    dim = 17
    rng = np.random.default_rng(5)
    states = random_states(rng, 3, dim)
    weights = (0.2, 0.3, 0.5)
    targets = [psi.amplitudes for psi in random_states(rng, 2, dim)]
    sweep = idjc.sweep_branches(list(zip(weights, states)), TAUS, coupling=coupling,
                                targets=targets)
    for k, tau in enumerate(TAUS):
        joint = sum(w * evolved_joint(np.outer(psi.amplitudes, psi.amplitudes.conj()), tau,
                                      coupling, idjc.ATOM_EXCITED)
                    for w, psi in zip(weights, states))
        field = joint[:dim, :dim] + joint[dim:, dim:]
        assert abs(sweep.purity_defect[k] - (1.0 - np.vdot(field, field).real)) < ATOL
        assert abs(sweep.excited_population[k] - np.trace(joint[:dim, :dim]).real) < ATOL
        for fid, t in zip(sweep.fidelities[:, k], targets):
            assert abs(fid - np.vdot(t, field @ t).real) < ATOL


def test_q_sweep_matches_the_joint_evolution():
    dim = 17
    rng = np.random.default_rng(7)
    states = random_states(rng, 2, dim)
    weights = (0.4, 0.6)
    xs, ys = np.linspace(-2.0, 2.0, 5), np.linspace(-1.5, 2.5, 4)
    grids = idjc.q_sweep(list(zip(weights, states)), TAUS, -2.0, 2.0, -1.5, 2.5, 5, 4)
    for tau, grid in zip(TAUS, grids):
        joint = sum(w * evolved_joint(np.outer(psi.amplitudes, psi.amplitudes.conj()), tau,
                                      idjc.INTENSITY_DEPENDENT, idjc.ATOM_EXCITED)
                    for w, psi in zip(weights, states))
        field = joint[:dim, :dim] + joint[dim:, dim:]
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                u = coherent_row(complex(x, y), dim)
                assert abs(grid.values[i, j] - np.vdot(u, field @ u).real / math.pi) < ATOL
