"""Constructors, purity, fidelity and photon statistics on truncated Fock spaces."""

import math

import numpy as np
import pytest

import idjc
from idjc.errors import (
    DimMismatch,
    InvalidCat,
    InvalidDim,
    TruncationTooSmall,
    WeightMismatch,
)

from conftest import ALPHA, DIM


def poisson_pmf(n: int, mean: float) -> float:
    """Independent log-gamma evaluation of exp(-m) m^n / n!."""
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))


class TestDefaultDim:
    def test_rule(self):
        assert idjc.default_dim(5.0) == math.ceil(25 + 10 * math.sqrt(26)) + 2

    def test_alpha5_is_large_enough(self):
        assert idjc.default_dim(5.0) >= 77

    def test_tail_below_tolerance(self):
        for alpha in (0.5, 2.0, 5.0, 7.0):
            assert idjc.poisson_tail(alpha**2, idjc.default_dim(alpha)) < 1e-12

    def test_tail_bound_holds_for_every_alpha(self):
        """The docstring's bound, on a fine grid where the tail peaks and a coarse one to 1000."""
        alphas = np.concatenate([np.linspace(0.01, 10.0, 1000), np.linspace(10.0, 1000.0, 400)])
        tails = [idjc.poisson_tail(a * a, idjc.default_dim(a)) for a in alphas]
        assert max(tails) < 1e-14


class TestMakeCoherent:
    def test_vacuum(self):
        psi = idjc.make_coherent(0.0, 8)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert np.array_equal(psi.amplitudes, expected)

    def test_mean_photon_number(self):
        psi = idjc.make_coherent(ALPHA)
        mean = float(np.sum(np.arange(psi.dim) * np.abs(psi.amplitudes) ** 2))
        assert abs(mean - 25.0) < 1e-9

    def test_matches_poisson_pmf_at_peak(self):
        psi = idjc.make_coherent(ALPHA)
        assert abs(abs(psi.amplitudes[25]) ** 2 - poisson_pmf(25, 25.0)) < 1e-10

    def test_normalized(self):
        psi = idjc.make_coherent(3.0 + 1.0j)
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) < 1e-12

    def test_tail_check_rejects_tight_dim(self, monkeypatch):
        # Poisson(25) mass at or above 60 is ~2e-9, above the default budget
        with pytest.raises(TruncationTooSmall):
            idjc.make_coherent(5.0, 60)
        monkeypatch.setattr(idjc.fock, "DEFAULT_TAIL_TOL", 1e-8)
        psi = idjc.make_coherent(5.0, 60)
        assert psi.dim == 60

    def test_invalid_dim(self):
        with pytest.raises(InvalidDim):
            idjc.make_coherent(1.0, 0)


class TestMakeCat:
    def test_even_cat_odd_amplitudes_exactly_zero(self):
        psi = idjc.make_cat(idjc.CatSpec(alpha=ALPHA, parity_r=1))
        assert np.all(psi.amplitudes[1::2] == 0)
        assert np.any(psi.amplitudes[0::2] != 0)

    def test_odd_cat_even_amplitudes_exactly_zero(self):
        psi = idjc.make_cat(idjc.CatSpec(alpha=ALPHA, parity_r=-1))
        assert np.all(psi.amplitudes[0::2] == 0)

    def test_small_alpha_odd_cat_is_single_photon(self):
        psi = idjc.make_cat(idjc.CatSpec(alpha=0.001, parity_r=-1), 8)
        assert abs(psi.amplitudes[1]) ** 2 > 0.999999

    def test_tiny_alpha_odd_cat_is_exactly_single_photon(self):
        """The squared norm of 2e-160 amplitudes underflows; the state is still |1>."""
        psi = idjc.make_cat(idjc.CatSpec(alpha=1e-160, parity_r=-1), 4)
        assert np.array_equal(psi.amplitudes, [0.0, 1.0, 0.0, 0.0])

    def test_r_zero_reduces_to_coherent(self, monkeypatch):
        monkeypatch.setattr(idjc.fock, "DEFAULT_TAIL_TOL", 1e-8)
        cat = idjc.make_cat(idjc.CatSpec(alpha=ALPHA, parity_r=0), 60)
        coh = idjc.make_coherent(ALPHA, 60)
        assert np.array_equal(cat.amplitudes, coh.amplitudes)

    def test_invalid_cat(self):
        with pytest.raises(InvalidCat):
            idjc.CatSpec(alpha=0.0, parity_r=-1)
        with pytest.raises(InvalidCat):
            idjc.CatSpec(alpha=1.0, parity_r=2)

    def test_norm_const(self):
        spec = idjc.CatSpec(alpha=ALPHA, parity_r=1)
        assert spec.norm_const == pytest.approx(1.0 / (2.0 + 2.0 * math.exp(-50.0)), rel=1e-15)
        assert idjc.CatSpec(alpha=ALPHA, parity_r=0).norm_const == 1.0
        assert idjc.CatSpec(alpha=0.3, parity_r=-1).norm_const > 0.0

    @pytest.mark.parametrize("alpha", [1e-155, 1e-160, 1e-163, 1e-170])
    def test_norm_const_beyond_float_range(self, alpha):
        """The odd constant, about 1/(4 alpha^2), reads inf where it exceeds the float range."""
        assert idjc.CatSpec(alpha=alpha, parity_r=-1).norm_const == math.inf


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            idjc.StateVector(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amp", [[math.nan, 0.0], [1.0, complex(0.0, math.nan)]])
    def test_rejects_nan(self, amp):
        with pytest.raises(ValueError, match="not normalized"):
            idjc.StateVector(np.array(amp))

    def test_normalized_classmethod(self):
        psi = idjc.StateVector.normalized([1.0, 1.0j])
        assert abs(abs(psi.amplitudes[0]) ** 2 - 0.5) < 1e-15

    def test_normalized_keeps_ordinary_bits(self):
        raw = np.random.default_rng(3).normal(size=(50, 2)) @ [1.0, 1.0j]
        for amp in (raw, 1e-150 * raw, 1e150 * raw):
            expected = amp / np.linalg.norm(amp)
            assert np.array_equal(idjc.StateVector.normalized(amp).amplitudes, expected)

    def test_normalized_subnormal_and_zero(self):
        psi = idjc.StateVector.normalized([0.0, 1e-320j, 0.0])
        assert np.array_equal(psi.amplitudes, [0.0, 1.0j, 0.0])
        with pytest.raises(ValueError, match="zero vector"):
            idjc.StateVector.normalized([0.0, 0.0])

    def test_immutable(self):
        psi = idjc.make_coherent(1.0, 20)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        el = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            idjc.DensityMatrix(el)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            idjc.DensityMatrix(np.eye(4, dtype=complex))

    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)], ids=["coherence", "population"])
    def test_rejects_nan(self, entry):
        el = np.diag([0.5, 0.5]).astype(complex)
        el[entry] = math.nan
        with pytest.raises(ValueError):
            idjc.DensityMatrix(el)

    def test_min_eigenvalue_of_valid_state(self, mixture5):
        assert mixture5.min_eigenvalue() >= -1e-10


class TestPureDensity:
    def test_vacuum_projector(self):
        rho = idjc.pure_density(idjc.make_coherent(0.0, 4))
        assert rho.elements[0, 0] == 1.0
        assert np.count_nonzero(rho.elements) == 1

    def test_superposition_coherence(self):
        psi = idjc.StateVector.normalized([1.0, 1.0, 0.0])
        rho = idjc.pure_density(psi)
        assert rho.elements[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_unit_trace(self):
        rho = idjc.pure_density(idjc.make_coherent(2.0))
        assert np.trace(rho.elements).real == pytest.approx(1.0, abs=1e-13)


class TestMix:
    def test_mixture_purity_defect(self, mixture5):
        assert idjc.purity_defect(mixture5) == pytest.approx(0.5, abs=1e-10)

    def test_single_component_unchanged(self):
        rho = idjc.pure_density(idjc.make_coherent(1.5, 30))
        out = idjc.mix([(1.0, rho)])
        assert np.allclose(out.elements, rho.elements, atol=0, rtol=0)

    def test_two_fock_states(self):
        zero = idjc.pure_density(idjc.StateVector.normalized([1.0, 0.0]))
        one = idjc.pure_density(idjc.StateVector.normalized([0.0, 1.0]))
        rho = idjc.mix([(0.5, zero), (0.5, one)])
        assert 1.0 - idjc.purity_defect(rho) == 0.5

    def test_weight_errors(self):
        rho = idjc.pure_density(idjc.make_coherent(0.0, 4))
        with pytest.raises(WeightMismatch):
            idjc.mix([(0.7, rho), (0.7, rho)])
        with pytest.raises(WeightMismatch):
            idjc.mix([(-0.5, rho), (1.5, rho)])
        with pytest.raises(WeightMismatch):
            idjc.mix([])

    @pytest.mark.parametrize("weights", [(math.nan,), (math.nan, 1.0), (-0.5, 1.5)])
    def test_nan_or_negative_weight_is_refused(self, weights):
        psi = idjc.make_coherent(0.0, 4)
        components = [(w, psi) for w in weights]
        for refuse in (idjc.fock.mixture_weights,
                       lambda c: idjc.sweep_branches(c, [0.0, 1.0])):
            with pytest.raises(WeightMismatch, match="must be nonnegative numbers") as err:
                refuse(components)
            assert "negative weight" not in str(err.value)

    def test_dim_mismatch(self):
        a = idjc.pure_density(idjc.make_coherent(0.0, 4))
        b = idjc.pure_density(idjc.make_coherent(0.0, 5))
        with pytest.raises(DimMismatch):
            idjc.mix([(0.5, a), (0.5, b)])


class TestPurityDefect:
    def test_pure_state(self):
        rho = idjc.pure_density(idjc.make_coherent(2.5))
        assert idjc.purity_defect(rho) < 1e-12

    def test_equal_two_level_mixture(self):
        el = np.diag([0.5, 0.5]).astype(complex)
        assert idjc.purity_defect(idjc.DensityMatrix(el)) == 0.5


class TestFidelityWithPure:
    def test_self_fidelity(self):
        psi = idjc.make_coherent(2.0)
        assert idjc.fidelity_with_pure(idjc.pure_density(psi), psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        zero = idjc.StateVector.normalized([1.0, 0.0])
        one = idjc.StateVector.normalized([0.0, 1.0])
        assert idjc.fidelity_with_pure(idjc.pure_density(zero), one) == 0.0

    def test_mixture_against_even_cat(self, mixture5, even_cat5):
        # by hand: <cat|rho|cat> = (1 + exp(-2 a^2)) / 2, i.e. 1/2 up to 2e-22
        assert idjc.fidelity_with_pure(mixture5, even_cat5) == pytest.approx(0.5, abs=1e-6)

    def test_dim_mismatch(self, mixture5):
        with pytest.raises(DimMismatch):
            idjc.fidelity_with_pure(mixture5, idjc.make_coherent(1.0, 20))


class TestPhotonDistribution:
    def test_even_cat_matches_closed_form(self, even_cat5):
        # independent evaluation: exp(-a^2) a^(2n) (1 + r(-1)^n)^2 / (n! (1+r^2+2r exp(-2a^2)))
        dist = idjc.photon_distribution(idjc.pure_density(even_cat5))
        bracket = 2.0 + 2.0 * math.exp(-2.0 * ALPHA**2)
        for n in range(DIM):
            expected = poisson_pmf(n, 25.0) * (1.0 + (-1.0) ** n) ** 2 / bracket
            assert abs(dist[n] - expected) < 1e-10

    def test_coherent_is_poissonian(self):
        dist = idjc.photon_distribution(idjc.pure_density(idjc.make_coherent(ALPHA)))
        for n in range(0, DIM, 5):
            assert abs(dist[n] - poisson_pmf(n, 25.0)) < 1e-10

    def test_vacuum(self):
        dist = idjc.photon_distribution(idjc.pure_density(idjc.make_coherent(0.0, 6)))
        assert dist[0] == 1.0
        assert np.all(dist[1:] == 0.0)

    def test_sums_to_one(self, mixture5):
        assert idjc.photon_distribution(mixture5).sum() == pytest.approx(1.0, abs=1e-10)
