"""Grid, Laplacian stencil, and field-metric oracles."""

import tracemalloc

import numpy as np
import pytest
from conftest import bump
from hypothesis import given, settings
from hypothesis import strategies as st

from rdcheck import Grid1D, grad_sup, holder_modulus, laplacian_values
from rdcheck.grid import LAG_CHUNK
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

    def test_holder_gamma_zero_is_oscillation(self):
        g = Grid1D(6)
        f = [3.0, -1.0, 0.5, 2.0, -0.25, 1.0]
        assert holder_modulus(f, g.h, [0.0])[0] == 4.0

    def test_holder_gamma_one_hand_value(self):
        g = Grid1D(3, 1.5)  # centers 0.25, 0.75, 1.25
        f = [0.0, 1.0, 0.0]
        assert holder_modulus(f, g.h, [1.0])[0] == pytest.approx(2.0, rel=1e-15)

    def test_holder_monotone_in_gamma_for_wide_pairs(self):
        # On a unit-length domain all pair distances are < 1, so the
        # quotient grows with gamma.
        g = Grid1D(32, 1.0)
        rng = np.random.default_rng(2)
        values = holder_modulus(rng.normal(size=32), g.h, [0.0, 0.25, 0.5, 1.0])
        assert list(values) == sorted(values)

    def test_holder_linear_field_exact_at_5000_cells(self):
        # The extreme pair of a linear profile is the two end cells, at the
        # largest lag: a profile that never prunes, scanned to the end.
        n = 5000
        g = Grid1D(n, 1.0)
        a = 3.0
        span = g.centers[-1] - g.centers[0]
        gammas = [0.0, 0.5, 1.0]
        got = holder_modulus(a * g.centers, g.h, gammas)
        for gamma, value in zip(gammas, got):
            expect = a * span ** (1.0 - gamma) if gamma < 1.0 else a
            assert value == pytest.approx(expect, rel=1e-12)

    def test_holder_spike_beyond_2048_cells_is_seen(self):
        # A unit spike next to the wall of a 3000-cell zero field: its
        # quotient against a neighbour is 1 / h^0.5 = sqrt(3000) ~ 54.77.
        g = Grid1D(3000, 1.0)
        f = np.zeros(3000)
        f[2] = 1.0
        got = holder_modulus(f, g.h, [0.5])[0]
        assert got == pytest.approx(np.sqrt(3000.0), rel=1e-14)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_holder_bad_gamma(self, bad):
        with pytest.raises(ValueError):
            holder_modulus(np.ones(4), 0.25, [0.5, bad])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_holder_rejects_nonfinite_values(self, bad):
        with pytest.raises(ValueError):
            holder_modulus([[0.0, 1.0, 2.0], [0.0, bad, 1.0]], 0.5, [0.5])

    def test_holder_overflowing_differences_are_infinite(self):
        # A difference beyond max-float overflows to inf; the scan raises no
        # invalid-value warning of its own on it.
        f = np.array([1e308, -1e308, 0.0])
        with np.errstate(over="ignore"):
            got = holder_modulus(f, 0.5, [0.0, 0.5, 1.0])
        assert np.all(got == np.inf)

    def test_holder_gamma_one_dominates_grad_sup(self):
        g = Grid1D(20, 1.0)
        rng = np.random.default_rng(3)
        f = rng.normal(size=20)
        assert holder_modulus(f, g.h, [1.0])[0] >= grad_sup(f, g.h) - 1e-12


def lag_sweep_holder(values, h, gammas):
    """Test oracle: the lag-by-lag sweep holder_modulus used to run.

    D(m) = max_j |f_{j+m} - f_j| for every lag m upwards, divided by
    (m h)^gamma, stopping at the first lag where osc / (m h)^gamma <= best
    for every row and gamma.  One numpy pass per lag.
    """
    f = np.asarray(values, dtype=np.float64)
    g = np.asarray(gammas, dtype=np.float64)
    rows = f.reshape(-1, f.shape[-1])
    n = rows.shape[1]
    osc = (np.max(rows, axis=1) - np.min(rows, axis=1))[:, None]
    scale = (np.arange(1, n, dtype=np.float64) * h)[:, None] ** g
    best = np.where(g == 0.0, osc, 0.0)
    for m in range(1, n):
        if np.all(osc / scale[m - 1] <= best):
            break
        lag_max = np.max(np.abs(rows[:, m:] - rows[:, :-m]), axis=1)
        best = np.maximum(best, lag_max[:, None] / scale[m - 1])
    return best.reshape(f.shape[:-1] + g.shape)


def pairwise_holder(values, h, gamma):
    """Test oracle: |f_j - f_k| / (|j - k| h)^gamma maximised over all pairs."""
    f = np.asarray(values, dtype=np.float64)
    j, k = np.triu_indices(f.size, 1)
    return float(np.max(np.abs(f[k] - f[j]) / ((k - j) * h) ** gamma))


PROFILES = ("noise", "bump", "monotone", "constant", "cumsum")


def profile(kind, x, rng, amplitude, exponent):
    if kind == "noise":
        return amplitude * rng.normal(size=x.size)
    if kind == "bump":
        centre = rng.uniform(x[0], x[-1])
        width = rng.uniform(0.02, 0.5) * (x[0] + x[-1])  # x[0] + x[-1] = L
        return amplitude * np.exp(-(((x - centre) / width) ** 2))
    if kind == "monotone":
        # The scan's worst case: for gamma <= exponent the widest pair wins,
        # so the sweep cannot stop before the largest lag.
        return amplitude * x**exponent
    if kind == "constant":
        return np.full(x.size, amplitude)
    return amplitude * np.cumsum(rng.normal(size=x.size))


class TestHolderAgainstPairwiseOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 200),
        length=st.sampled_from([1.0, 0.3, 2.0, 7.5, 1e3]),
        kinds=st.lists(st.sampled_from(PROFILES), min_size=1, max_size=4),
        log_amplitude=st.floats(-8.0, 8.0),
        exponent=st.floats(0.0, 1.0),
        gammas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scan_matches_oracle(
        self, n, length, kinds, log_amplitude, exponent, gammas, seed
    ):
        g = Grid1D(n, length)
        rng = np.random.default_rng(seed)
        amplitude = 10.0**log_amplitude
        stacked = np.stack(
            [profile(kind, g.centers, rng, amplitude, exponent) for kind in kinds]
        )
        gammas = [0.0] + gammas
        together = holder_modulus(stacked, g.h, gammas)
        assert together.shape == (len(kinds), len(gammas))
        for row, got in zip(stacked, together):
            alone = holder_modulus(row, g.h, gammas)
            np.testing.assert_array_equal(alone, got)
            expect = [pairwise_holder(row, g.h, gamma) for gamma in gammas]
            assert got[0] == expect[0] == np.ptp(row)
            np.testing.assert_allclose(got, expect, rtol=1e-15, atol=0.0)


README_QUAD_BUMPS = [(0.5, 0.06, 2.0), (0.5, 0.08, 1.6), (0.5, 0.15, 1.0), (0.5, 0.12, 1.5)]


class TestHolderAgainstLagSweep:
    """The band-pruned scan returns the lag sweep's bits."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(2, 600),
        length=st.sampled_from([1.0, 0.3, 2.0, 7.5, 1e3]),
        kinds=st.lists(st.sampled_from(PROFILES), min_size=1, max_size=4),
        log_amplitude=st.floats(-8.0, 8.0),
        exponent=st.floats(0.0, 1.0),
        gammas=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_the_lag_sweep(
        self, n, length, kinds, log_amplitude, exponent, gammas, seed
    ):
        g = Grid1D(n, length)
        rng = np.random.default_rng(seed)
        amplitude = 10.0**log_amplitude
        stacked = np.stack(
            [profile(kind, g.centers, rng, amplitude, exponent) for kind in kinds]
        )
        gammas = [1.0, *gammas, 0.0]
        np.testing.assert_array_equal(
            holder_modulus(stacked, g.h, gammas), lag_sweep_holder(stacked, g.h, gammas)
        )

    @pytest.mark.parametrize(
        "exponent", [None, 0.25, 0.5], ids=["readme-quad-bumps", "x^0.25", "x^0.5"]
    )
    def test_bitwise_equal_at_1024_cells(self, exponent):
        # The bumps prune most bands; x^0.25 and x^0.5 at gamma up to their
        # exponent take their quotient at the widest lag and prune little.
        g = Grid1D(1024, 1.0)
        if exponent is None:
            values = np.stack([bump(g, *b) for b in README_QUAD_BUMPS])
        else:
            values = g.centers**exponent
        gammas = [0.0, 0.25, 0.5, 1.0]
        np.testing.assert_array_equal(
            holder_modulus(values, g.h, gammas), lag_sweep_holder(values, g.h, gammas)
        )

    def test_memory_is_linear_in_cells(self):
        # A monotone 5000-cell row keeps most bands open.  The scan holds
        # one (rows, LAG_CHUNK, cells) buffer, 1.28 MB here; a dense n x n
        # pair matrix would need 200 MB.
        n = 5000
        g = Grid1D(n, 1.0)
        values = g.centers**0.5
        gammas = [0.0, 0.25, 0.5, 1.0]
        holder_modulus(values, g.h, gammas)  # one-time allocations stay out
        tracemalloc.start()
        try:
            holder_modulus(values, g.h, gammas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * LAG_CHUNK * n * 8
