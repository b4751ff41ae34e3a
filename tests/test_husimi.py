"""Q-function values, grids, bounds and the closed-form mixture series."""

import math

import numpy as np
import pytest

import idjc
from idjc.errors import TruncationTooSmall

from conftest import ALPHA, params


class TestQAt:
    def test_vacuum_at_origin(self):
        vac = idjc.pure_density(idjc.make_coherent(0.0, 8))
        assert idjc.q_at(vac, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_vacuum_gaussian(self):
        vac = idjc.pure_density(idjc.make_coherent(0.0, 30))
        beta = 1.0 + 1.0j
        expected = math.exp(-abs(beta) ** 2) / math.pi
        assert idjc.q_at(vac, beta) == pytest.approx(expected, abs=1e-12)

    def test_mixture_at_component_center(self, mixture5):
        # half the coherent peak: the other component sits 2 alpha away
        assert idjc.q_at(mixture5, ALPHA) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-6)

    def test_guard_triggers_on_under_truncated_state(self):
        cramped = idjc.pure_density(idjc.StateVector.normalized(np.ones(6)))
        with pytest.raises(TruncationTooSmall):
            idjc.q_at(cramped, 6.0)

    def test_guard_ignores_empty_top_levels(self):
        vac = idjc.pure_density(idjc.make_coherent(0.0, 6))
        # far outside the basis, but the state has no weight up there
        assert idjc.q_at(vac, 6.0) == pytest.approx(math.exp(-36.0) / math.pi, abs=1e-12)


class TestQGrid:
    def test_vacuum_normalization(self):
        vac = idjc.pure_density(idjc.make_coherent(0.0, 12))
        grid = idjc.q_grid(vac, -4.0, 4.0, -4.0, 4.0, 81, 81)
        assert grid.normalization() == pytest.approx(1.0, abs=1e-3)

    def test_bounds_pointwise(self, mixture5):
        rho = idjc.evolve_field(mixture5, params(0.8))
        grid = idjc.q_grid(rho, -8.0, 8.0, -8.0, 8.0, 61, 61)
        assert grid.values.min() >= -1e-12
        assert grid.values.max() <= 1.0 / math.pi + 1e-12

    def test_mixture_lobes_track_rotation(self, mixture5):
        cell = 16.0 / 80.0
        cases = {
            0.0: [(ALPHA, 0.0), (-ALPHA, 0.0)],
            math.pi / 4: [(ALPHA / math.sqrt(2), ALPHA / math.sqrt(2)),
                          (ALPHA / math.sqrt(2), -ALPHA / math.sqrt(2)),
                          (-ALPHA / math.sqrt(2), ALPHA / math.sqrt(2)),
                          (-ALPHA / math.sqrt(2), -ALPHA / math.sqrt(2))],
            math.pi / 2: [(0.0, ALPHA), (0.0, -ALPHA)],
        }
        for tau, centers in cases.items():
            rho = idjc.evolve_field(mixture5, params(tau))
            grid = idjc.q_grid(rho, -8.0, 8.0, -8.0, 8.0, 81, 81)
            xs, ys = grid.xs, grid.ys
            for cx, cy in centers:
                window = ((xs[:, None] - cx) ** 2 + (ys[None, :] - cy) ** 2) <= 1.5**2
                masked = np.where(window, grid.values, -1.0)
                i, j = np.unravel_index(np.argmax(masked), masked.shape)
                assert abs(xs[i] - cx) <= cell + 1e-9
                assert abs(ys[j] - cy) <= cell + 1e-9

    def test_point_symmetry(self, mixture5):
        rho = idjc.evolve_field(mixture5, params(1.1))
        grid = idjc.q_grid(rho, -8.0, 8.0, -8.0, 8.0, 41, 41)
        assert np.max(np.abs(grid.values - grid.values[::-1, ::-1])) < 1e-12

    def test_jobs_do_not_change_bytes(self, mixture5):
        rho = idjc.evolve_field(mixture5, params(0.6))
        serial = idjc.q_grid(rho, -8.0, 8.0, -8.0, 8.0, 41, 41, jobs=1)
        threaded = idjc.q_grid(rho, -8.0, 8.0, -8.0, 8.0, 41, 41, jobs=3)
        assert np.array_equal(serial.values, threaded.values)

    def test_rejects_degenerate_grid(self, mixture5):
        with pytest.raises(ValueError):
            idjc.q_grid(mixture5, -1.0, 1.0, -1.0, 1.0, 1, 10)
        with pytest.raises(ValueError):
            idjc.q_grid(mixture5, 1.0, -1.0, -1.0, 1.0, 10, 10)

    def test_rejects_overflowing_bounds(self, mixture5):
        """A bound whose square overflows is a ValueError, not an OverflowError."""
        with pytest.raises(ValueError, match="not finite"):
            idjc.q_grid(mixture5, -1e200, 8.0, -8.0, 8.0, 5, 5)
        with pytest.raises(ValueError, match="not finite"):
            idjc.q_sweep([(1.0, idjc.make_coherent(2.0))], [0.0], -8.0, 8.0, -8.0, 1e200, 5, 5)

    def test_cell_area(self):
        vac = idjc.pure_density(idjc.make_coherent(0.0, 6))
        grid = idjc.q_grid(vac, -2.0, 2.0, -1.0, 1.0, 41, 21)
        assert grid.cell_area == pytest.approx(0.1 * 0.1, rel=1e-12)


class TestQMixtureClosed:
    def test_reduces_to_static_mixture_at_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            beta = complex(rng.uniform(-7, 7), rng.uniform(-7, 7))
            expected = (math.exp(-abs(beta - ALPHA) ** 2)
                        + math.exp(-abs(beta + ALPHA) ** 2)) / (2.0 * math.pi)
            assert idjc.q_mixture_closed(ALPHA, 0.0, beta) == pytest.approx(expected, abs=1e-12)

    def test_component_center_value(self):
        assert idjc.q_mixture_closed(ALPHA, 0.0, ALPHA + 0.0j) == pytest.approx(
            1.0 / (2.0 * math.pi), abs=1e-6)

    def test_agrees_with_engine(self, mixture5):
        rng = np.random.default_rng(17)
        for _ in range(50):
            tau = rng.uniform(0.0, math.pi)
            beta = complex(rng.uniform(-7, 7), rng.uniform(-7, 7))
            closed = idjc.q_mixture_closed(ALPHA, tau, beta)
            engine = idjc.q_at(idjc.evolve_field(mixture5, params(tau)), beta)
            assert abs(closed - engine) < 1e-9

    def test_truncation_error(self):
        with pytest.raises(TruncationTooSmall):
            idjc.q_mixture_closed(5.0, 1.0, 5.0 + 0.0j, n_terms=10)
