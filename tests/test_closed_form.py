"""Closed-form series against independent scalar oracles and the matrix engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idjc
from idjc.errors import InvalidCat, TruncationTooSmall

from conftest import ALPHA, DIM, params


def poisson_pmf(n: int, mean: float) -> float:
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))


class TestPoissonWeights:
    def test_matches_lgamma_oracle(self):
        w = idjc.poisson_weights(ALPHA, 60)
        for n in range(0, 60, 7):
            assert w[n] == pytest.approx(poisson_pmf(n, 25.0), rel=1e-12)

    def test_normalized(self):
        assert idjc.poisson_weights(2.0, 50).sum() == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_limit(self):
        w = idjc.poisson_weights(0.0, 5)
        assert w[0] == 1.0 and np.all(w[1:] == 0.0)


class TestPurityMixtureClosed:
    def test_half_mixed_at_zero(self):
        assert idjc.purity_mixture_closed(ALPHA, 0.0) == pytest.approx(0.5, abs=1e-10)

    def test_dip_at_half_revival(self):
        assert idjc.purity_mixture_closed(ALPHA, math.pi / 2) < 0.02

    def test_agrees_with_engine(self, mixture5):
        rng = np.random.default_rng(23)
        for tau in rng.uniform(0.0, math.pi, size=50):
            closed = idjc.purity_mixture_closed(ALPHA, tau, DIM)
            numeric = idjc.purity_defect(idjc.evolve_field(mixture5, params(tau)))
            assert abs(closed - numeric) < 1e-9

    def test_truncation_error(self):
        with pytest.raises(TruncationTooSmall):
            idjc.purity_mixture_closed(ALPHA, 1.0, n_terms=30)

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError):
            idjc.purity_mixture_closed(0.0, 1.0, 10)


class TestInversionCatClosed:
    @pytest.mark.parametrize("alpha,parity_r", [
        (5.0, 1), (5.0, -1), (5.0, 0), (2.0, 1), (0.5, 0), (0.0, 1),
    ])
    def test_starts_at_one(self, alpha, parity_r):
        assert idjc.inversion_cat_closed(alpha, parity_r, 0.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
    def test_coherent_case_against_fock_sum(self, tau):
        # independent route: W = sum_n P_n cos(2 tau (n+1))
        expected = sum(poisson_pmf(n, 25.0) * math.cos(2.0 * tau * (n + 1))
                       for n in range(200))
        got = idjc.inversion_cat_closed(5.0, 0, tau)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_even_cat_at_half_revival(self):
        # sin(pi) and cos(pi/2) collapse the expression to exactly -1
        assert idjc.inversion_cat_closed(5.0, 1, math.pi / 2) == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("parity_r", [-1, 0, 1])
    @pytest.mark.parametrize("alpha", [2.0, 5.0])
    def test_agrees_with_engine(self, alpha, parity_r):
        dim = idjc.default_dim(alpha)
        if parity_r == 0:
            psi = idjc.make_coherent(alpha, dim)
        else:
            psi = idjc.make_cat(idjc.CatSpec(alpha=alpha, parity_r=parity_r), dim)
        rho = idjc.pure_density(psi)
        for tau in np.linspace(0.0, 2 * math.pi, 40):
            numeric = idjc.atomic_inversion(rho, params(tau, dim=dim))
            closed = idjc.inversion_cat_closed(alpha, parity_r, tau)
            assert abs(numeric - closed) < 1e-9

    def test_parity_sector_period(self):
        for parity_r in (-1, 1):
            for tau in (0.2, 0.9, 2.4):
                a = idjc.inversion_cat_closed(ALPHA, parity_r, tau)
                b = idjc.inversion_cat_closed(ALPHA, parity_r, tau + math.pi)
                assert abs(a - b) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(InvalidCat):
            idjc.inversion_cat_closed(0.0, -1, 1.0)
        with pytest.raises(InvalidCat):
            idjc.inversion_cat_closed(1.0, 3, 1.0)


class TestEvolvedCatBranches:
    def test_initial_state_at_zero(self):
        spec = idjc.CatSpec(alpha=ALPHA, parity_r=1)
        stay, flip = idjc.evolved_cat_branches(spec, 0.0, DIM)
        assert np.all(flip == 0)
        cat = idjc.make_cat(spec, DIM)
        assert np.max(np.abs(stay - cat.amplitudes)) < 1e-12

    def test_branch_norms_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            alpha = rng.uniform(0.5, 5.0)
            parity_r = int(rng.choice([-1, 0, 1]))
            tau = rng.uniform(0.0, 2 * math.pi)
            spec = idjc.CatSpec(alpha=alpha, parity_r=parity_r)
            stay, flip = idjc.evolved_cat_branches(spec, tau, idjc.default_dim(alpha))
            total = np.vdot(stay, stay).real + np.vdot(flip, flip).real
            assert abs(total - 1.0) < 1e-10

    @pytest.mark.parametrize("parity_r", [-1, 1])
    def test_matches_engine(self, parity_r):
        spec = idjc.CatSpec(alpha=ALPHA, parity_r=parity_r)
        rho0 = idjc.pure_density(idjc.make_cat(spec, DIM))
        for tau in (0.4, math.pi / 2, 2.6):
            stay, flip = idjc.evolved_cat_branches(spec, tau, DIM)
            rebuilt = np.outer(stay, stay.conj()) + np.outer(flip, flip.conj())
            engine = idjc.evolve_field(rho0, params(tau)).elements
            assert np.max(np.abs(rebuilt - engine)) < 1e-12

    def test_even_cat_half_revival(self, odd_cat_rotated5):
        stay, flip = idjc.evolved_cat_branches(
            idjc.CatSpec(alpha=ALPHA, parity_r=1), math.pi / 2, DIM)
        assert np.linalg.norm(stay) < 0.01      # vanishes identically
        flip_state = flip / np.linalg.norm(flip)
        fid = abs(np.vdot(odd_cat_rotated5.amplitudes, flip_state)) ** 2
        # one photon added to the even cat, so the match to the rotated odd
        # cat is imperfect at finite alpha: 1 - F ~ 1/(4 alpha^2)
        assert fid == pytest.approx(0.9898405623356, abs=1e-9)  # frozen

    def test_flip_branch_mismatch_shrinks_with_alpha(self):
        fids = []
        for alpha in (2.0, 3.0, 4.0, 5.0):
            dim = idjc.default_dim(alpha)
            target = idjc.make_cat(idjc.CatSpec(alpha=alpha * 1j, parity_r=-1), dim)
            _, flip = idjc.evolved_cat_branches(
                idjc.CatSpec(alpha=alpha, parity_r=1), math.pi / 2, dim)
            flip_state = flip / np.linalg.norm(flip)
            fids.append(abs(np.vdot(target.amplitudes, flip_state)) ** 2)
        assert all(b > a for a, b in zip(fids, fids[1:]))

    def test_odd_cat_half_revival(self, odd_cat_rotated5):
        stay, flip = idjc.evolved_cat_branches(
            idjc.CatSpec(alpha=ALPHA, parity_r=-1), math.pi / 2, DIM)
        assert np.linalg.norm(flip) < 0.01      # vanishes identically
        stay_state = stay / np.linalg.norm(stay)
        fid = abs(np.vdot(odd_cat_rotated5.amplitudes, stay_state)) ** 2
        assert fid > 1.0 - 1e-12                # exact up to rounding

    def test_truncation_error(self):
        with pytest.raises(TruncationTooSmall):
            idjc.evolved_cat_branches(idjc.CatSpec(alpha=5.0, parity_r=1), 1.0, 30)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=st.floats(min_value=0.5, max_value=8.0),
       tau=st.floats(min_value=0.0, max_value=2 * math.pi),
       others=st.lists(st.complex_numbers(max_magnitude=9.0, allow_nan=False,
                                          allow_infinity=False), max_size=39),
       zero_at=st.integers(min_value=0, max_value=39))
def test_q_mixture_closed_array_equals_scalar_calls(alpha, tau, others, zero_at):
    others.insert(zero_at % (len(others) + 1), 0j)
    betas = np.array(others)
    scalars = [idjc.q_mixture_closed(alpha, tau, beta) for beta in betas]
    assert all(type(q) is float for q in scalars)
    together = idjc.q_mixture_closed(alpha, tau, betas)
    assert together.shape == betas.shape
    assert np.max(np.abs(together - scalars)) <= 1e-13
    with pytest.raises(TruncationTooSmall):
        idjc.q_mixture_closed(alpha, tau, np.append(betas, 9.0), n_terms=10)


#: Engine functions the oracles must never reach, whichever module holds the name.
ENGINE_NAMES = ("poisson_tail", "_coherent_amplitudes", "sweep_branches")


def test_oracles_run_without_the_engine(monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("a closed form called the engine")

    for module in (idjc.fock, idjc.dynamics, idjc.husimi, idjc.closed_form):
        for name in ENGINE_NAMES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, engine)
    assert 0.0 < idjc.purity_mixture_closed(ALPHA, 1.0) < 1.0
    assert -1.0 < idjc.inversion_cat_closed(ALPHA, 1, 1.0) < 1.0
    stay, flip = idjc.evolved_cat_branches(idjc.CatSpec(alpha=ALPHA, parity_r=1), 1.0, DIM)
    assert abs(np.vdot(stay, stay).real + np.vdot(flip, flip).real - 1.0) < 1e-10
    q_closed = idjc.closed_form.q_mixture_closed
    assert type(q_closed(ALPHA, 1.0, 3.0 + 1.0j)) is float
    assert q_closed(ALPHA, 1.0, np.array([[0.0, 3.0 + 1.0j]])).shape == (1, 2)
    assert idjc.husimi.q_mixture_closed is q_closed


class TestRevivalTime:
    def test_even_cat(self):
        assert idjc.revival_time(idjc.CatSpec(alpha=5.0, parity_r=1)) == math.pi / 2

    def test_coherent(self):
        assert idjc.revival_time(idjc.CatSpec(alpha=5.0, parity_r=0)) == math.pi

    def test_scales_with_coupling(self):
        assert idjc.revival_time(idjc.CatSpec(alpha=5.0, parity_r=1), lam=2.0) == math.pi / 4

    def test_rejects_bad_coupling(self):
        with pytest.raises(ValueError):
            idjc.revival_time(idjc.CatSpec(alpha=5.0, parity_r=1), lam=0.0)
