"""Evolution map: Kraus branches, populations, joint blocks, periodicity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idjc
from idjc import closed_form
from idjc.errors import DimMismatch, TailLeak

from conftest import ALPHA, DIM, params, random_density


def evolved_mixture_double_series(alpha: float, tau: float, dim: int) -> np.ndarray:
    """Brute-force double sum for the evolved mixture, scalar math only.

    Builds the evolved matrix term by term from the initial mixture
    coefficients: the diagonal branch contributes at |n><m| with
    cos(tau(n+1)) cos(tau(m+1)), the photon-adding branch at |n+1><m+1|
    with sin(tau(n+1)) sin(tau(m+1)).  Kept free of the engine's
    vectorized shift tricks on purpose.
    """
    rho = np.zeros((dim, dim), dtype=complex)
    for n in range(dim):
        for m in range(dim):
            if (n + m) % 2:
                continue  # the two mixture components cancel at odd n+m
            weight = math.exp(-alpha**2 + (n + m) * math.log(alpha)
                              - 0.5 * (math.lgamma(n + 1) + math.lgamma(m + 1)))
            rho[n, m] += weight * math.cos(tau * (n + 1)) * math.cos(tau * (m + 1))
            if n + 1 < dim and m + 1 < dim:
                rho[n + 1, m + 1] += weight * math.sin(tau * (n + 1)) * math.sin(tau * (m + 1))
    return rho


class TestKrausDiag:
    def test_identity_at_zero(self):
        assert np.array_equal(idjc.kraus_diag(params(0.0)), np.ones(DIM))

    def test_half_revival_values(self):
        diag = idjc.kraus_diag(params(math.pi / 2))
        assert abs(diag[0]) < 1e-15          # cos(pi/2)
        assert diag[1] == pytest.approx(-1.0, abs=1e-15)

    def test_alternating_at_pi(self):
        diag = idjc.kraus_diag(params(math.pi))
        n = np.arange(DIM)
        assert np.max(np.abs(diag - (-1.0) ** (n + 1))) < 1e-12

    def test_ordinary_mode(self):
        diag = idjc.kraus_diag(params(0.7, coupling=idjc.ORDINARY))
        assert diag[3] == pytest.approx(math.cos(0.7 * 2.0), abs=1e-15)


class TestKrausShift:
    def test_vacuum_action(self):
        tau = 0.37
        shift = idjc.kraus_shift(params(tau))
        assert shift[0] == pytest.approx(-1j * math.sin(tau), abs=1e-15)

    def test_node_at_half_revival(self):
        shift = idjc.kraus_shift(params(math.pi / 2))
        assert abs(shift[1]) < 1e-15         # sin(pi) on the n=1 pair

    def test_completeness(self):
        for tau in (0.0, 0.3, 1.7, math.pi / 2, 5.9):
            for coupling in (idjc.INTENSITY_DEPENDENT, idjc.ORDINARY):
                p = params(tau, coupling=coupling)
                total = idjc.kraus_diag(p) ** 2 + np.abs(idjc.kraus_shift(p)) ** 2
                assert np.max(np.abs(total[: DIM - 1] - 1.0)) < 1e-14


class TestEvolveField:
    def test_identity_at_zero(self, mixture5):
        out = idjc.evolve_field(mixture5, params(0.0))
        assert np.array_equal(out.elements, mixture5.elements)

    def test_trace_preserved(self, mixture5):
        rng = np.random.default_rng(7)
        for tau in rng.uniform(0.0, 2 * math.pi, size=10):
            out = idjc.evolve_field(mixture5, params(tau))
            assert abs(np.trace(out.elements).real - 1.0) < 1e-12

    def test_cat_formation_from_mixture(self, mixture5, odd_cat_rotated5):
        out = idjc.evolve_field(mixture5, params(math.pi / 2))
        fid = idjc.fidelity_with_pure(out, odd_cat_rotated5)
        assert fid > 0.99
        assert fid == pytest.approx(0.9949202811678, abs=1e-9)  # frozen

    @pytest.mark.parametrize("tau", [0.0, 0.7, math.pi / 2, 2.9])
    def test_matches_double_series(self, mixture5, tau):
        out = idjc.evolve_field(mixture5, params(tau))
        expected = evolved_mixture_double_series(ALPHA, tau, DIM)
        assert np.max(np.abs(out.elements - expected)) < 1e-10

    def test_tail_leak(self):
        el = np.zeros((10, 10), dtype=complex)
        el[9, 9] = 1.0
        with pytest.raises(TailLeak):
            idjc.evolve_field(idjc.DensityMatrix(el), params(0.5, dim=10))
        el = np.zeros((10, 10), dtype=complex)
        el[8, 8] = 1.0
        with pytest.raises(TailLeak):
            idjc.evolve_field(idjc.DensityMatrix(el), params(0.5, dim=10))

    def test_output_trace_still_checked(self):
        """The dropped top-level flip adds to the input's own trace defect.

        Each stays within its tolerance here (0.9e-10 against 1e-10 for
        both), but at tau = pi/20 the top level flips out completely and the
        output trace falls 1.8e-10 short.
        """
        el = np.zeros((10, 10), dtype=complex)
        el[0, 0] = 1.0 - 1.8e-10
        el[9, 9] = 0.9e-10
        rho0 = idjc.DensityMatrix(el)
        with pytest.raises(ValueError, match="trace"):
            idjc.evolve_field(rho0, params(math.pi / 20, dim=10))

    def test_dim_mismatch(self, mixture5):
        with pytest.raises(DimMismatch):
            idjc.evolve_field(mixture5, params(0.5, dim=DIM + 1))


class TestParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            idjc.EvolutionParams(tau=-0.1, dim=10)
        with pytest.raises(ValueError):
            idjc.EvolutionParams(tau=0.1, dim=1)
        with pytest.raises(ValueError):
            idjc.EvolutionParams(tau=0.1, dim=10, coupling="linear")
        with pytest.raises(ValueError):
            idjc.EvolutionParams(tau=0.1, dim=10, atom="superposed")

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValueError):
            idjc.EvolutionParams(tau=tau, dim=10)


class TestExcitedPopulation:
    def test_one_at_zero(self, mixture5):
        assert idjc.excited_population(mixture5, params(0.0)) == pytest.approx(1.0, abs=1e-13)

    def test_vacuum_rabi(self):
        vac = idjc.pure_density(idjc.make_coherent(0.0, 8))
        for tau in (0.0, 0.4, 1.3, 2.2):
            p = idjc.excited_population(vac, params(tau, dim=8))
            assert p == pytest.approx(math.cos(tau) ** 2, abs=1e-14)

    def test_even_cat_fully_flips(self, even_cat5):
        rho = idjc.pure_density(even_cat5)
        assert idjc.excited_population(rho, params(math.pi / 2)) < 0.01


class TestAtomicInversion:
    def test_one_at_zero(self, even_cat5):
        rho = idjc.pure_density(even_cat5)
        assert idjc.atomic_inversion(rho, params(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form(self, even_cat5):
        rho = idjc.pure_density(even_cat5)
        for tau in np.linspace(0.0, 2 * math.pi, 81):
            numeric = idjc.atomic_inversion(rho, params(tau))
            closed = idjc.inversion_cat_closed(ALPHA, 1, tau)
            assert abs(numeric - closed) < 1e-9

    def test_flip_at_half_revival(self, even_cat5):
        rho = idjc.pure_density(even_cat5)
        assert idjc.atomic_inversion(rho, params(math.pi / 2)) < -0.98


class TestJointBlocks:
    def test_structure_at_zero(self, mixture5):
        blocks = idjc.joint_state_blocks(mixture5, params(0.0))
        assert np.array_equal(blocks.ee, mixture5.elements)
        assert not blocks.eg.any()
        assert not blocks.ge.any()
        assert not blocks.gg.any()

    def test_block_traces(self, mixture5):
        blocks = idjc.joint_state_blocks(mixture5, params(1.3))
        total = np.trace(blocks.ee) + np.trace(blocks.gg)
        assert total.real == pytest.approx(1.0, abs=1e-12)

    def test_pure_input_stays_pure(self, even_cat5):
        rho = idjc.pure_density(even_cat5)
        for tau in (0.21, 1.1, 2.8):
            full = idjc.joint_state_blocks(rho, params(tau)).assemble()
            purity = np.vdot(full, full).real
            assert purity == pytest.approx(1.0, abs=1e-10)

    def test_mixture_purity_invariant(self, mixture5):
        rng = np.random.default_rng(11)
        for tau in rng.uniform(0.0, 2 * math.pi, size=20):
            full = idjc.joint_state_blocks(mixture5, params(tau)).assemble()
            defect = 1.0 - np.vdot(full, full).real
            assert defect == pytest.approx(0.5, abs=1e-9)

    def test_hermitian(self, mixture5):
        full = idjc.joint_state_blocks(mixture5, params(0.9)).assemble()
        assert np.max(np.abs(full - full.conj().T)) < 1e-14


class TestPeriodicity:
    def test_full_period_two_pi(self):
        rng = np.random.default_rng(3)
        rho0 = random_density(rng, 40)
        for tau in rng.uniform(0.0, math.pi, size=4):
            a = idjc.evolve_field(rho0, params(tau, dim=40))
            b = idjc.evolve_field(rho0, params(tau + 2 * math.pi, dim=40))
            assert np.max(np.abs(a.elements - b.elements)) < 1e-10

    def test_parity_sector_period_pi(self, mixture5, even_cat5):
        for rho0 in (mixture5, idjc.pure_density(even_cat5)):
            for tau in (0.35, 1.2):
                a = idjc.evolve_field(rho0, params(tau))
                b = idjc.evolve_field(rho0, params(tau + math.pi))
                assert np.max(np.abs(a.elements - b.elements)) < 1e-10

    # W of the even cat and zeta of the |a>/|-a> mixture at alpha = 5 and large non-integer
    # taus, made with mpmath at 50 digits: theta = fmod(tau, 2 pi) of the exact float tau,
    # then the untruncated series over 200 photon numbers, W = sum_n p_n cos(2 theta (n+1))
    # for the even cat's p_n, and zeta from the overlaps of the stay and flip branches.
    LARGE_TAU_REFERENCES = {1e8 / 3: (-0.46327363578799885, 0.3995531638573708),
                            1e12 / 3: (0.007784373554868067, 0.5247353528848082)}

    @pytest.mark.parametrize("tau", sorted(LARGE_TAU_REFERENCES))
    def test_large_tau_keeps_the_reduced_phase(self, mixture5, even_cat5, tau):
        """Every route takes tau mod 2 pi exactly instead of rounding tau * (n + 1)."""
        w_ref, zeta_ref = self.LARGE_TAU_REFERENCES[tau]
        components = [(0.5, idjc.make_coherent(ALPHA, DIM)),
                      (0.5, idjc.make_coherent(-ALPHA, DIM))]
        w = [idjc.atomic_inversion(idjc.pure_density(even_cat5), params(tau)),
             2.0 * idjc.sweep_branches([(1.0, even_cat5)], [tau]).excited_population[0] - 1.0,
             closed_form.inversion_cat_closed(ALPHA, 1, tau)]
        zeta = [idjc.purity_defect(idjc.evolve_field(mixture5, params(tau))),
                idjc.sweep_branches(components, [tau]).purity_defect[0],
                closed_form.purity_mixture_closed(ALPHA, tau)]
        assert np.max(np.abs(np.subtract(w, w_ref))) < 1e-12
        assert np.max(np.abs(np.subtract(zeta, zeta_ref))) < 1e-12

    def test_ordinary_mode_not_periodic(self, mixture5):
        a = idjc.evolve_field(mixture5, params(0.8, coupling=idjc.ORDINARY))
        b = idjc.evolve_field(mixture5, params(0.8 + 2 * math.pi, coupling=idjc.ORDINARY))
        assert np.max(np.abs(a.elements - b.elements)) > 1e-3


class TestOrdinaryContrast:
    def test_no_full_purification(self, mixture5):
        # coarse sweep of the ordinary-coupling revival window
        taus = np.linspace(0.0, 2 * math.pi * math.sqrt(26.0), 301)[1:]
        best = min(
            idjc.purity_defect(idjc.evolve_field(mixture5, params(t, coupling=idjc.ORDINARY)))
            for t in taus
        )
        dip = idjc.purity_defect(idjc.evolve_field(mixture5, params(math.pi / 2)))
        assert best > dip


class TestGroundAtom:
    def test_vacuum_is_stationary(self):
        vac = idjc.pure_density(idjc.make_coherent(0.0, 8))
        out = idjc.evolve_field(vac, params(1.7, dim=8, atom=idjc.ATOM_GROUND))
        assert np.array_equal(out.elements, vac.elements)

    def test_completeness_all_levels(self):
        p = params(2.3, atom=idjc.ATOM_GROUND)
        total = idjc.kraus_diag(p) ** 2 + np.abs(idjc.kraus_shift(p)) ** 2
        assert np.max(np.abs(total - 1.0)) < 1e-14

    def test_stays_ground_on_vacuum(self):
        vac = idjc.pure_density(idjc.make_coherent(0.0, 8))
        assert idjc.excited_population(vac, params(0.9, dim=8, atom=idjc.ATOM_GROUND)) == 0.0

    def test_trace_preserved(self, mixture5):
        out = idjc.evolve_field(mixture5, params(1.1, atom=idjc.ATOM_GROUND))
        assert abs(np.trace(out.elements).real - 1.0) < 1e-12

    def test_joint_blocks_assemble(self, mixture5):
        blocks = idjc.joint_state_blocks(mixture5, params(0.7, atom=idjc.ATOM_GROUND))
        full = blocks.assemble()
        assert np.trace(full).real == pytest.approx(1.0, abs=1e-12)
        defect = 1.0 - np.vdot(full, full).real
        assert defect == pytest.approx(0.5, abs=1e-9)


def explicit_kraus(p: idjc.EvolutionParams) -> tuple[np.ndarray, np.ndarray]:
    """Stay and flip Kraus operators as dim x dim matrices, built from their entries.

    The flip operator maps |n> to kraus_shift[n] |n+1> for an excited atom
    (sub-diagonal) and to kraus_shift[n] |n-1> for a ground atom
    (super-diagonal).
    """
    stay = np.diag(idjc.kraus_diag(p)).astype(complex)
    shift = idjc.kraus_shift(p)
    if p.atom == idjc.ATOM_EXCITED:
        flip = np.diag(shift[:-1], k=-1)
    else:
        flip = np.diag(shift[1:], k=1)
    return stay, flip


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       dim=st.integers(min_value=6, max_value=40),
       tau=st.floats(min_value=0.0, max_value=4 * math.pi),
       coupling=st.sampled_from([idjc.INTENSITY_DEPENDENT, idjc.ORDINARY]),
       atom=st.sampled_from([idjc.ATOM_EXCITED, idjc.ATOM_GROUND]))
def test_dense_map_equals_explicit_kraus_products(seed, dim, tau, coupling, atom):
    """evolve_field, joint_state_blocks and excited_population against K rho K^dag.

    A ground atom has no tail to keep empty, so its states fill every level.
    """
    support = dim if atom == idjc.ATOM_GROUND else None
    rho0 = random_density(np.random.default_rng(seed), dim, support)
    p = params(tau, dim=dim, coupling=coupling, atom=atom)
    stay, flip = explicit_kraus(p)
    el = rho0.elements
    kept = stay @ el @ stay.conj().T
    flipped = flip @ el @ flip.conj().T
    coherence = flip @ el @ stay.conj().T

    out = idjc.evolve_field(rho0, p)
    assert np.max(np.abs(out.elements - (kept + flipped))) <= 1e-14
    # the output is taken over, not copied, and is Hermitian to the bit
    assert not out.elements.flags.writeable
    assert out.elements is not rho0.elements
    hermitian = idjc.DensityMatrix((el + el.conj().T) / 2.0)
    sym = idjc.evolve_field(hermitian, p).elements
    assert np.array_equal(sym, sym.conj().T)

    blocks = idjc.joint_state_blocks(rho0, p)
    if atom == idjc.ATOM_EXCITED:
        expected = {"ee": kept, "gg": flipped, "ge": coherence, "eg": coherence.conj().T}
    else:
        expected = {"gg": kept, "ee": flipped, "eg": coherence, "ge": coherence.conj().T}
    for name, block in expected.items():
        assert np.max(np.abs(getattr(blocks, name) - block)) <= 1e-14, name

    p_exc = idjc.excited_population(rho0, p)
    assert p_exc == pytest.approx(np.trace(expected["ee"]).real, abs=1e-14)


#: Rows per block of evolve_field's walk at dim 203, the default truncation at alpha = 10.
ROWS = 40


def test_row_blocks_cover_every_row_once():
    for n in (1, 2, 3, ROWS, 203, 8193, 20000):
        blocks = list(idjc.dynamics._row_blocks(n))
        covered = np.concatenate([np.arange(n)[b] for b in blocks])
        assert np.array_equal(covered, np.arange(n))
        rows = blocks[0].stop - blocks[0].start
        assert rows == 1 or 16 * rows * n <= idjc.dynamics._ROW_BLOCK_BYTES
    assert [len(range(203)[b]) for b in idjc.dynamics._row_blocks(203)] == [ROWS] * 5 + [3]


def _whole_matrix_map(rho0: idjc.DensityMatrix, p: idjc.EvolutionParams) -> np.ndarray:
    """The map formed from whole dim x dim weight matrices, which evolve_field walks in rows."""
    cos, sin, src, dst = idjc.dynamics._branch_weights(p.tau, p.dim, p.coupling, p.atom)
    el = rho0.elements
    out = np.outer(cos, cos) * el
    out[dst, dst] += np.outer(sin[src], sin[src]) * el[src, src]
    return out


@pytest.mark.parametrize("dim,atom", [
    (dim, atom) for dim in (2, 3, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1, 203)
    for atom in (idjc.ATOM_EXCITED, idjc.ATOM_GROUND)
    if (dim, atom) != (2, idjc.ATOM_EXCITED)  # at dim 2 the levels an excited atom keeps empty are all
])
@pytest.mark.parametrize("coupling", [idjc.INTENSITY_DEPENDENT, idjc.ORDINARY])
def test_row_blocks_give_the_whole_matrix_bits(monkeypatch, dim, atom, coupling):
    """Blocks of ROWS rows at every dim; the output keeps every bit and its Hermiticity."""
    monkeypatch.setattr(idjc.dynamics, "_ROW_BLOCK_BYTES", 16 * ROWS * dim)
    support = dim if atom == idjc.ATOM_GROUND else dim - 2
    el = random_density(np.random.default_rng(dim), dim, support).elements
    rho0 = idjc.DensityMatrix((el + el.conj().T) / 2.0)
    for tau in (0.0, 0.7, 2.5):
        p = params(tau, dim=dim, coupling=coupling, atom=atom)
        out = idjc.evolve_field(rho0, p).elements
        assert np.array_equal(out, _whole_matrix_map(rho0, p))
        assert np.array_equal(out, out.conj().T)


def test_evolve_field_allocates_one_dense_array():
    """The output is the map's only dim x dim array: the traced peak stays under two of them."""
    dim = 203
    rho0 = random_density(np.random.default_rng(3), dim)
    p = params(0.7, dim=dim)
    idjc.evolve_field(rho0, p)
    tracemalloc.start()
    try:
        idjc.evolve_field(rho0, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * dim * dim
