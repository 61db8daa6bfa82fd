"""Grid, Laplacian stencil, and field-metric oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdcheck import Grid1D, grad_sup, laplacian_values
from rdcheck.solver import row_norms


def mass(values, grid: Grid1D) -> float:
    """The mass h * sum_j f_j of one row, as the run computes it."""
    return float(row_norms(np.atleast_2d(values), grid.h)[1][0])


def field_values(n, lo=-10.0, hi=10.0):
    return st.lists(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False),
        min_size=n,
        max_size=n,
    )


class TestGrid:
    def test_geometry(self):
        g = Grid1D(4, 2.0)
        assert g.h == 0.5
        np.testing.assert_allclose(g.centers, [0.25, 0.75, 1.25, 1.75], rtol=0, atol=0)

    def test_default_unit_length(self):
        g = Grid1D(10)
        assert g.length == 1.0 and g.h == 0.1

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5])
    def test_bad_cell_count(self, bad):
        with pytest.raises(ValueError):
            Grid1D(bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_length(self, bad):
        with pytest.raises(ValueError):
            Grid1D(4, bad)


class TestLaplacian:
    def test_constant_maps_to_exact_zero(self):
        g = Grid1D(16, 3.0)
        assert np.all(laplacian_values(np.full(16, 7.25), g.h) == 0.0)

    def test_hand_stencil_three_cells(self):
        g = Grid1D(3, 1.5)  # h = 0.5
        out = laplacian_values(np.array([1.0, 4.0, 2.0]), g.h)
        h2 = 0.25
        np.testing.assert_allclose(
            out, [(4 - 1) / h2, (1 - 2 * 4 + 2) / h2, (4 - 2) / h2], rtol=1e-15
        )

    def test_integer_data_conserves_exactly(self):
        # Power-of-two h and integer values keep every flux difference exact,
        # so the telescoping wall-to-wall sum is exactly zero in floats.
        g = Grid1D(64, 1.0)
        rng = np.random.default_rng(0)
        f = rng.integers(-50, 50, size=64).astype(np.float64)
        assert mass(laplacian_values(f, g.h), g) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(field_values(17))
    def test_conservation_up_to_rounding(self, vals):
        g = Grid1D(17, 1.7)
        lap = laplacian_values(np.array(vals), g.h)
        scale = 1.0 + float(np.max(np.abs(lap)))
        assert abs(mass(lap, g)) <= 1e-12 * scale * g.length

    def test_symmetric_negative_semidefinite(self):
        g = Grid1D(24, 2.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = rng.normal(size=24)
            w = rng.normal(size=24)
            lf = laplacian_values(f, g.h)
            lw = laplacian_values(w, g.h)
            left = float(np.dot(lf, w))
            right = float(np.dot(f, lw))
            scale = 1.0 + abs(left) + abs(right)
            assert abs(left - right) <= 1e-12 * scale
            quad = float(np.dot(lf, f))
            rounding = np.linalg.norm(lf) * np.linalg.norm(f)
            assert quad <= 1e-12 * (1.0 + rounding)

    @pytest.mark.parametrize("n_cells,length,k", [(32, 1.0, 1), (32, 1.0, 2), (48, 1.0, 5), (40, 2.0, 3)])
    def test_cosine_eigenmodes(self, n_cells, length, k):
        # cos(k pi x / L) at cell centers is an exact eigenvector of the
        # zero-flux stencil with eigenvalue -(4/h^2) sin^2(k pi h / (2L)).
        g = Grid1D(n_cells, length)
        mode = np.cos(k * np.pi * g.centers / length)
        lam = -(4.0 / g.h**2) * np.sin(k * np.pi * g.h / (2.0 * length)) ** 2
        out = laplacian_values(mode, g.h)
        np.testing.assert_allclose(out, lam * mode, rtol=0, atol=1e-9 * abs(lam))


class TestMetrics:
    def test_integrate_hand_value(self):
        g = Grid1D(4, 2.0)
        assert mass([1.0, 2.0, 3.0, 4.0], g) == pytest.approx(5.0, rel=1e-15)

    def test_integrate_constant_exact(self):
        g = Grid1D(8, 1.0)
        assert mass(np.full(8, 3.0), g) == pytest.approx(3.0, rel=1e-15)

    def test_grad_sup_hand_value(self):
        g = Grid1D(3, 1.5)
        assert grad_sup(np.array([0.0, 1.0, 3.0]), g.h) == pytest.approx(4.0, rel=1e-15)

    def test_grad_sup_constant_zero(self):
        assert grad_sup(np.full(5, 9.0), Grid1D(5).h) == 0.0
