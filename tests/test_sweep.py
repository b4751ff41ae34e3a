"""Batched branch sweep and the Q grids built on it: equivalence with the dense
per-tau path, input checks, large alpha."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idjc
from idjc.errors import DimMismatch, TailLeak, TruncationTooSmall, WeightMismatch

COUPLINGS = (idjc.INTENSITY_DEPENDENT, idjc.ORDINARY)


def random_state(rng: np.random.Generator, dim: int, support: int) -> idjc.StateVector:
    amp = np.zeros(dim, dtype=complex)
    amp[:support] = rng.normal(size=support) + 1j * rng.normal(size=support)
    return idjc.StateVector.normalized(amp)


def random_ensemble(rng, n_parts: int, dim: int, support: int, top_pop: float = 0.0):
    """Random weights and states; top_pop puts that population on each level >= support."""
    weights = rng.dirichlet(np.ones(n_parts))
    parts = []
    for w in weights:
        amp = random_state(rng, dim, support).amplitudes.copy()
        amp *= math.sqrt(1.0 - (dim - support) * top_pop)
        amp[support:] = math.sqrt(top_pop)
        parts.append((float(w), idjc.StateVector(amp)))
    return parts


def dense_reference(components, taus, coupling, targets):
    """Per-tau purity defect, excited population and fidelities via evolve_field."""
    rho0 = idjc.mix([(w, idjc.pure_density(psi)) for w, psi in components])
    rows = []
    for tau in taus:
        p = idjc.EvolutionParams(tau=float(tau), dim=rho0.dim, coupling=coupling)
        rho = idjc.evolve_field(rho0, p)
        rows.append([idjc.purity_defect(rho), idjc.excited_population(rho0, p)]
                    + [idjc.fidelity_with_pure(rho, psi) for psi in targets])
    return np.array(rows).reshape(len(taus), 2 + len(targets))


def sweep_columns(sweep):
    return np.column_stack([sweep.purity_defect, sweep.excited_population,
                            *sweep.fidelities])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31), n_parts=st.integers(1, 3), dim=st.integers(3, 30),
       coupling=st.sampled_from(COUPLINGS), n_taus=st.integers(1, 12),
       n_targets=st.integers(0, 2), top_pop=st.sampled_from([0.0, 2e-11]))
def test_matches_dense_per_tau_path(seed, n_parts, dim, coupling, n_taus, n_targets,
                                    top_pop):
    """top_pop stays under the TailLeak bound but shows a mishandled top level."""
    rng = np.random.default_rng(seed)
    components = random_ensemble(rng, n_parts, dim, support=dim - 2, top_pop=top_pop)
    targets = [random_state(rng, dim, dim) for _ in range(n_targets)]
    taus = rng.uniform(0.0, 3.0 * math.pi, size=n_taus)  # beyond one 2 pi period
    want = dense_reference(components, taus, coupling, targets)
    got = sweep_columns(idjc.sweep_branches(components, taus, coupling=coupling,
                                            targets=[t.amplitudes for t in targets]))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31), dim=st.integers(3, 20),
       coupling=st.sampled_from(COUPLINGS),
       fault=st.sampled_from(["tail", "component_dim", "target_dim"]))
def test_raises_where_dense_path_raises(seed, dim, coupling, fault):
    rng = np.random.default_rng(seed)
    components = random_ensemble(rng, 2, dim, support=dim - 2)
    targets = [random_state(rng, dim, dim)]
    if fault == "tail":
        components[1] = (components[1][0], random_state(rng, dim, dim))
        expected = TailLeak
    elif fault == "component_dim":
        components[1] = (components[1][0], random_state(rng, dim + 1, dim - 1))
        expected = DimMismatch
    else:
        targets = [random_state(rng, dim + 1, dim + 1)]
        expected = DimMismatch
    with pytest.raises(expected):
        dense_reference(components, [0.7], coupling, targets)
    with pytest.raises(expected):
        idjc.sweep_branches(components, [0.7], coupling=coupling,
                            targets=[t.amplitudes for t in targets])


@pytest.mark.parametrize("n_taus", [0, 1, 63, 64, 65, 3 * 64 + 5])
def test_tau_blocks_cover_each_tau_once(n_taus):
    """The one block walk: full blocks of SWEEP_TAU_BLOCK, then the rest, in order.

    Each block carries _branch_weights of its own taus, for the coupling asked.
    """
    psi = idjc.make_coherent(1.0)
    components = [(1.0, psi)]
    taus = np.linspace(0.0, 7.0, n_taus)  # past 2 pi, where the intensity-dependent taus reduce
    for coupling in COUPLINGS:
        *_, got, blocks = idjc.dynamics._checked_sweep(components, taus, coupling)
        blocks = list(blocks)
        assert [t for block, *_ in blocks for t in got[block]] == list(taus)
        assert all(len(got[block]) == idjc.dynamics.SWEEP_TAU_BLOCK for block, *_ in blocks[:-1])
        assert all(len(got[block]) > 0 for block, *_ in blocks)
        for block, *trig in blocks:
            want = idjc.dynamics._branch_weights(taus[block], psi.dim, coupling)
            assert all(np.array_equal(a, b) for a, b in zip(trig[:2], want[:2]))
            assert trig[2:] == list(want[2:])


def test_one_dimensional_targets_are_named_by_their_shape():
    """Targets that are no 2-d array of rows of length dim are named by their whole shape."""
    psi = idjc.make_coherent(1.0, 29)
    with pytest.raises(DimMismatch, match=r"targets of shape \(29,\) are not rows"):
        idjc.sweep_branches([(1.0, psi)], [0.1], targets=psi.amplitudes)
    for targets, shape in [(1.0, r"\(\)"), ([[1.0]], r"\(1, 1\)"),
                           (np.ones((1, 1, 29)), r"\(1, 1, 29\)")]:
        with pytest.raises(DimMismatch,
                           match=rf"^targets of shape {shape} are not rows of ensemble dim 29$"):
            idjc.sweep_branches([(1.0, psi)], [0.1], targets=targets)


def test_intensity_dependent_sweeps_run_at_the_largest_tau():
    components = [(0.5, idjc.make_coherent(1.0, 29)), (0.5, idjc.make_coherent(-1.0, 29))]
    sweep = idjc.sweep_branches(components, [1e308], targets=[components[0][1].amplitudes])
    (grid,) = idjc.q_sweep(components, [1e308], -2.0, 2.0, -2.0, 2.0, nx=5, ny=5)
    assert all(np.all(np.isfinite(v)) for v in (sweep.purity_defect, sweep.excited_population,
                                                sweep.fidelities, grid.values))


def test_grid_spanning_several_tau_blocks():
    """Both couplings: target fidelities come from each block's branches of that coupling."""
    rng = np.random.default_rng(7)
    components = random_ensemble(rng, 2, 16, support=14)
    targets = [random_state(rng, 16, 16)]
    taus = np.linspace(0.0, 2.5 * math.pi, 3 * idjc.dynamics.SWEEP_TAU_BLOCK + 5)
    for coupling in COUPLINGS:
        want = dense_reference(components, taus, coupling, targets)
        got = sweep_columns(idjc.sweep_branches(components, taus, coupling=coupling,
                                                targets=[t.amplitudes for t in targets]))
        assert np.max(np.abs(got - want)) < 1e-12, coupling


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31), n_parts=st.integers(1, 3), dim=st.integers(3, 24),
       n_taus=st.integers(1, 4), half_width=st.floats(0.5, 5.0),
       shape=st.tuples(st.integers(2, 7), st.integers(2, 7)),
       top_pop=st.sampled_from([0.0, 2e-11]))
def test_q_sweep_matches_dense_q_grid(seed, n_parts, dim, n_taus, half_width, shape, top_pop):
    """The guard is switched off: this compares values, the guard is tested below."""
    rng = np.random.default_rng(seed)
    components = random_ensemble(rng, n_parts, dim, support=dim - 2, top_pop=top_pop)
    taus = rng.uniform(0.0, 3.0 * math.pi, size=n_taus)
    window = (-half_width, 0.8 * half_width, -0.6 * half_width, half_width, *shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(idjc.husimi, "DEFAULT_GUARD_TOL", math.inf)
        grids = idjc.q_sweep(components, taus, *window)
        rho0 = idjc.mix([(w, idjc.pure_density(psi)) for w, psi in components])
        assert len(grids) == n_taus
        for tau, grid in zip(taus, grids):
            rho = idjc.evolve_field(rho0, idjc.EvolutionParams(tau=float(tau), dim=dim))
            want = idjc.q_grid(rho, *window)
            assert (grid.xs == want.xs).all() and (grid.ys == want.ys).all()
            assert np.max(np.abs(grid.values - want.values)) < 1e-12


@pytest.mark.parametrize("tau", [0.0, math.pi / 8, 0.3])
def test_q_sweep_guard_raises_where_dense_guard_raises(tau):
    """Levels 0..3 of dim 6, uniform: at pi/8 the flip fills the top two levels."""
    amp = np.zeros(6)
    amp[:4] = 0.5
    components = [(1.0, idjc.StateVector(amp))]
    window = (-6.0, 6.0, -6.0, 6.0, 5, 5)
    rho = idjc.evolve_field(idjc.pure_density(components[0][1]),
                            idjc.EvolutionParams(tau=tau, dim=6))
    try:
        idjc.q_grid(rho, *window)
        dense_raises = False
    except TruncationTooSmall:
        dense_raises = True
    assert dense_raises == (tau > 0.0)
    if dense_raises:
        with pytest.raises(TruncationTooSmall):
            idjc.q_sweep(components, [0.0, tau], *window)
    else:
        idjc.q_sweep(components, [tau], *window)


def test_q_sweep_rejects_bad_grid():
    components = [(1.0, idjc.make_coherent(1.0))]
    with pytest.raises(ValueError):
        idjc.q_sweep(components, [0.1], -1.0, 1.0, -1.0, 1.0, 1, 10)
    with pytest.raises(ValueError):
        idjc.q_sweep(components, [0.1], 1.0, -1.0, -1.0, 1.0, 10, 10)


def test_q_sweep_spanning_several_tau_blocks(monkeypatch):
    monkeypatch.setattr(idjc.husimi, "DEFAULT_GUARD_TOL", math.inf)
    rng = np.random.default_rng(11)
    components = random_ensemble(rng, 3, 12, support=10, top_pop=2e-11)
    taus = np.linspace(0.0, 2.5 * math.pi, 2 * idjc.dynamics.SWEEP_TAU_BLOCK + 3)
    window = (-3.0, 2.0, -2.5, 3.0, 4, 3)
    grids = idjc.q_sweep(components, taus, *window)
    rho0 = idjc.mix([(w, idjc.pure_density(psi)) for w, psi in components])
    assert len(grids) == taus.size
    for tau, grid in zip(taus, grids):
        rho = idjc.evolve_field(rho0, idjc.EvolutionParams(tau=float(tau), dim=12))
        want = idjc.q_grid(rho, *window)
        assert np.max(np.abs(grid.values - want.values)) < 1e-12


def test_q_sweep_of_no_taus():
    components = [(1.0, idjc.make_coherent(1.0))]
    assert idjc.q_sweep(components, [], -1.0, 1.0, -1.0, 1.0, 3, 3) == []


@pytest.mark.parametrize("fault,expected", [
    ("nan_tau", ValueError), ("negative_tau", ValueError), ("two_dim_taus", ValueError),
    ("tail", TailLeak), ("component_dim", DimMismatch), ("weights", WeightMismatch),
])
def test_q_sweep_raises_where_sweep_raises(fault, expected, monkeypatch):
    """q_sweep runs the sweep's own input checks, so each bad input raises the same type."""
    rng = np.random.default_rng(5)
    components = random_ensemble(rng, 2, 10, support=8)
    taus = {"nan_tau": [0.3, math.nan], "negative_tau": [-0.1],
            "two_dim_taus": [[0.1, 0.2]]}.get(fault, [0.3])
    if fault == "tail":
        components[1] = (components[1][0], random_state(rng, 10, 10))
    elif fault == "component_dim":
        components[1] = (components[1][0], random_state(rng, 11, 9))
    elif fault == "weights":
        components = [(0.7, psi) for _, psi in components]
    with pytest.raises(expected) as swept:
        idjc.sweep_branches(components, taus)
    monkeypatch.setattr(idjc.husimi, "DEFAULT_GUARD_TOL", math.inf)
    with pytest.raises(expected) as gridded:
        idjc.q_sweep(components, taus, -2.0, 2.0, -2.0, 2.0, 3, 3)
    assert gridded.type is swept.type


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31), n_parts=st.integers(1, 3), dim=st.integers(3, 24),
       top_pop=st.sampled_from([0.0, 2e-11]))
def test_q_sweep_guard_reads_top_population_off_the_branches(seed, n_parts, dim, top_pop):
    """The population q_sweep hands the guard is the top-two-level fidelity sum."""
    rng = np.random.default_rng(seed)
    components = random_ensemble(rng, n_parts, dim, support=dim - 2, top_pop=top_pop)
    taus = rng.uniform(0.0, 3.0 * math.pi, size=5)
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(idjc.husimi, "_truncation_guard", lambda top, *_: seen.append(top))
        for tau in taus:
            idjc.q_sweep(components, [tau], -1.0, 1.0, -1.0, 1.0, 2, 2)
    want = idjc.sweep_branches(components, taus,
                               targets=np.eye(2, dim, dim - 2)).fidelities.sum(axis=0)
    assert np.max(np.abs(np.array(seen) - want)) < 1e-15


class TestInputChecks:
    @pytest.fixture
    def components(self):
        return random_ensemble(np.random.default_rng(3), 2, 10, support=8)

    @pytest.mark.parametrize("taus", [[0.5, -0.1], [math.nan], [0.0, math.inf]])
    def test_rejects_bad_taus(self, components, taus):
        with pytest.raises(ValueError):
            idjc.sweep_branches(components, taus)

    def test_rejects_an_overflowing_ordinary_phase(self, components):
        """The largest tau's phase tau * sqrt(dim) must be finite, not swept into NaN."""
        with pytest.raises(ValueError, match=r"ordinary pair phase tau \* sqrt\(10\) overflows"):
            idjc.sweep_branches(components, [0.0, 1e308], coupling=idjc.ORDINARY)

    def test_rejects_unknown_coupling(self, components):
        with pytest.raises(ValueError):
            idjc.sweep_branches(components, [0.1], coupling="linear")

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            idjc.sweep_branches([(1.0, idjc.StateVector([1.0]))], [0.1])

    def test_rejects_two_dimensional_taus(self, components):
        with pytest.raises(ValueError):
            idjc.sweep_branches(components, [[0.1, 0.2]])

    @pytest.mark.parametrize("weights", [(0.6, 0.6), (1.2, -0.2)])
    def test_weights_follow_mix_rule(self, components, weights):
        bad = [(w, psi) for w, (_, psi) in zip(weights, components)]
        with pytest.raises(WeightMismatch):
            idjc.sweep_branches(bad, [0.1])

    def test_empty_ensemble(self):
        with pytest.raises(WeightMismatch):
            idjc.sweep_branches([], [0.1])

    @pytest.mark.parametrize("scale, fill", [(5.0, 0.0), (1.0, math.nan), (1.0, math.inf)])
    def test_target_rows_follow_state_vector_rule(self, components, scale, fill):
        """A target row that is no unit-norm state raises as StateVector does."""
        good = components[0][1].amplitudes
        bad = scale * good
        bad[3] += fill
        with pytest.raises(ValueError, match="not normalized"):
            idjc.sweep_branches(components, [0.0, 0.5], targets=[good, bad])
        with pytest.raises(ValueError, match="not normalized"):
            idjc.StateVector(bad)

    def test_empty_grid(self, components):
        sweep = idjc.sweep_branches(components, [], targets=[components[0][1].amplitudes])
        assert sweep.purity_defect.shape == (0,)
        assert sweep.fidelities.shape == (1, 0)


@pytest.mark.parametrize("alpha", [5.0, 10.0, 30.0, 100.0])
def test_purity_dip_follows_large_alpha_law(alpha):
    """zeta(pi/2) = 1/(8 alpha^2) to leading order, from the sweep and from the series.

    The mixture purifies only in the limit: at alpha = 5 the dip is 1.6% above
    the law and at alpha = 100 0.004% above it.
    """
    dim = idjc.default_dim(alpha)
    mixture = [(0.5, idjc.make_coherent(alpha, dim)), (0.5, idjc.make_coherent(-alpha, dim))]
    numeric = float(idjc.sweep_branches(mixture, [math.pi / 2]).purity_defect[0])
    closed = idjc.purity_mixture_closed(alpha, math.pi / 2)
    assert abs(numeric - closed) < 1e-9
    for zeta in (numeric, closed):
        assert abs(8.0 * alpha**2 * zeta - 1.0) < 0.02


@pytest.mark.parametrize("alpha", [10.0, 20.0, 30.0, 100.0])
def test_odd_cat_fidelity_approaches_one_with_alpha(alpha):
    """F_odd(pi/2) = 1 - 1/(4 alpha^2) to leading order.

    The flip branch carries the rotated odd cat shifted up by one photon, so
    the criterion-5 threshold F_odd > 0.999 fails at alpha = 5 on physics and
    holds from alpha ~ 16 on.
    """
    dim = idjc.default_dim(alpha)
    even = idjc.make_cat(idjc.CatSpec(alpha=alpha, parity_r=1), dim)
    odd_rotated = idjc.make_cat(idjc.CatSpec(alpha=alpha * 1j, parity_r=-1), dim)
    sweep = idjc.sweep_branches([(1.0, even)], [math.pi / 2], targets=[odd_rotated.amplitudes])
    fid_odd = float(sweep.fidelities[0, 0])
    assert abs(4.0 * alpha**2 * (1.0 - fid_odd) - 1.0) < 0.01
    if alpha >= 20.0:
        assert fid_odd > 0.999
    assert sweep.excited_population[0] < 1e-12
