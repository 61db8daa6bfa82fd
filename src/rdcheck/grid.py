"""One-dimensional cell-centered finite-volume grid and its array metrics.

The domain [0, L] is split into ``n_cells`` equal cells of width h = L/n.
Unknowns live at cell centers x_j = (j - 1/2) h.  The discrete Laplacian is
the flux form

    (L f)_j = (F_{j+1/2} - F_{j-1/2}) / h,      F_{j+1/2} = (f_{j+1} - f_j) / h,

with the two boundary fluxes set to zero (homogeneous Neumann walls).  Three
properties carry everything downstream:

* conservation: the fluxes telescope, so sum_j (L f)_j h = 0 exactly;
* symmetry and negative semidefiniteness of the stencil matrix;
* the eigenmodes cos(k pi x_j / L), k = 0..n-1, with eigenvalues
  -(4/h^2) sin^2(k pi / 2n).

Cell data is a raw float64 array: one row (cells,), or a stack of rows
(rows, cells) such as a run's (species, cells) state.  The metrics (sup of
the one-sided gradient, Holder quotient) are defined on the same data and
are the measurement side of every bound checked elsewhere in the package.
`holder_modulus(values, h, gammas)` takes one row or a stack of rows and
returns every row's quotient at every gamma.  It is exact at every grid
size.  The lags |j - k| are grouped in bands [w, 2w); a sparse table of
window maxima and minima bounds every quotient in a band, and only bands
whose bound can still beat the running best are scanned, 32 lags per numpy
call.  Memory is O(n); time is O(n^2) in the worst case, a monotone
x^gamma-like profile that prunes little.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Grid1D",
    "laplacian_values",
    "grad_sup",
    "holder_modulus",
]


class Grid1D:
    """Uniform cell-centered grid on [0, length].

    Attributes:
        n_cells: number of cells, at least 2.
        length: domain length, strictly positive.
        h: cell width, length / n_cells.
        centers: array of cell-center coordinates, shape (n_cells,).
    """

    __slots__ = ("n_cells", "length", "h", "centers")

    def __init__(self, n_cells: int, length: float = 1.0):
        if int(n_cells) != n_cells or n_cells < 2:
            raise ValueError(f"n_cells must be an integer >= 2, got {n_cells}")
        length = float(length)
        if not np.isfinite(length) or length <= 0.0:
            raise ValueError(f"length must be finite and > 0, got {length}")
        self.n_cells = int(n_cells)
        self.length = length
        self.h = length / self.n_cells
        self.centers = (np.arange(self.n_cells, dtype=np.float64) + 0.5) * self.h

    def __repr__(self):
        return f"Grid1D(n_cells={self.n_cells}, length={self.length})"


def laplacian_values(values: np.ndarray, h: float) -> np.ndarray:
    """Flux-form Neumann Laplacian applied to a raw row, or to each row of a stack."""
    flux = np.diff(values) / h
    out = np.empty_like(values)
    out[..., 0] = flux[..., 0] / h
    out[..., -1] = -flux[..., -1] / h
    out[..., 1:-1] = np.diff(flux) / h
    return out


def grad_sup(values: np.ndarray, h: float) -> float:
    """Max over interior faces of |f_{j+1} - f_j| / h, for one row of cells.

    Zero for constants; n_cells >= 2 is a Grid1D invariant so at least one
    face exists.
    """
    return float(np.max(np.abs(np.diff(values))) / h)


# Lags per numpy call in holder_modulus; the scan's one temporary is a
# (rows, LAG_CHUNK, cells) buffer.
LAG_CHUNK = 32


def holder_modulus(values, h: float, gammas) -> np.ndarray:
    """Discrete Holder quotients max_{j != k} |f_j - f_k| / (|j - k| h)^gamma.

    Exact at every grid size: the result is bitwise max over lags m of
    D(m) / (m h)^gamma, with D(m) = max_j |f_{j+m} - f_j|.  The lags are
    grouped in bands [w, 2w), w = 1, 2, 4, ...  The widest spread
    max f - min f over any window of 2w cells bounds D(m) for every m < 2w,
    so that spread over (w h)^gamma bounds every quotient in the band; the
    spreads come from a sparse table of window maxima and minima built by
    doubling.  Bands are visited in decreasing order of their bound, and a
    band is left as soon as its bound, taken from the next lag still to
    scan, is <= the running best for every row and gamma.  Inside a band
    LAG_CHUNK lags take one subtraction over a sliding window of the row
    padded with NaN, and D(m) is the larger of the NaN-ignoring max and
    -min of the differences.  This is exact because max |d| = max(max d,
    -min d) and division by a positive scalar is monotone.

    Rough profiles leave after the first bands and smooth ones after about
    a third of the lags; a monotone profile shaped like x^gamma keeps most
    bands open, so the worst case is O(n^2) time, in O(n) memory.  On one
    core of a 2-vCPU Xeon guest, the six v_d rows of a 1024-cell README quad
    run at gammas 0.25 and 0.5 take 7-9 ms together (a lag-by-lag sweep
    took 48-57 ms), and a 5000-cell x^0.25 or x^0.5 row takes 17-23 ms
    (96-114 ms).

    Args:
        values: cell data of shape (cells,) or stacked rows (rows, cells),
            cells >= 2, all finite.
        h: cell width, finite and > 0.
        gammas: sequence of exponents in [0, 1].  gamma = 0 gives the
            oscillation max f - min f exactly; gamma = 1 is the Lipschitz
            quotient and dominates grad_sup.

    Returns:
        Array of shape values.shape[:-1] + (len(gammas),): the quotient of
        each row at each gamma.

    Raises:
        ValueError: on non-finite values, fewer than two cells, a bad h, or
            a gamma outside [0, 1].
    """
    f = np.asarray(values, dtype=np.float64)
    g = np.asarray(gammas, dtype=np.float64)
    if f.ndim not in (1, 2) or f.shape[-1] < 2:
        raise ValueError(
            f"values must have shape (cells,) or (rows, cells) with cells >= 2, "
            f"got {f.shape}"
        )
    if not np.all(np.isfinite(f)):
        raise ValueError("values must be finite")
    h = float(h)
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"h must be finite and > 0, got {h}")
    if g.ndim != 1 or not np.all((g >= 0.0) & (g <= 1.0)):
        raise ValueError(f"gammas must be a sequence in [0, 1], got {gammas}")
    rows = f.reshape(-1, f.shape[-1])
    n_rows, n = rows.shape
    osc = (np.max(rows, axis=1) - np.min(rows, axis=1))[:, None]
    # (m h)^gamma for every lag; row m - 1 belongs to lag m.
    scale = (np.arange(1, n, dtype=np.float64) * h)[:, None] ** g
    # gamma = 0 needs no scan: the oscillation is attained by the pair
    # (argmax, argmin), and (m h)^0 = 1 for every lag.
    best = np.where(g == 0.0, osc, 0.0)

    # Band [w, 2w) gets the widest spread over windows of 2w cells; once a
    # window would cover the whole row that spread is osc.
    widths, spreads = [], []
    top, bottom, w = rows, rows, 1
    while w < n:
        if 2 * w <= n:
            top = np.maximum(top[:, :-w], top[:, w:])
            bottom = np.minimum(bottom[:, :-w], bottom[:, w:])
            spreads.append(np.max(top - bottom, axis=1)[:, None])
        else:
            spreads.append(osc)
        widths.append(w)
        w *= 2
    bounds = np.stack([sp / scale[wd - 1] for sp, wd in zip(spreads, widths)])
    # Rank a band by its bound relative to the largest bound of the same row
    # and gamma, so that rows and gammas of different magnitude weigh alike.
    # A zero or overflowed peak ranks nothing.
    peak = bounds.max(axis=0)
    ranked = (peak > 0.0) & (peak < np.inf)
    rank = np.divide(bounds, peak, out=np.zeros_like(bounds), where=ranked)
    order = np.argsort(-rank.reshape(len(widths), -1).max(axis=1), kind="stable")

    padded = np.concatenate(
        [rows, np.full((n_rows, LAG_CHUNK - 1), np.nan)], axis=1
    )
    # windows[r, j, i] = f[r, j + i], NaN past the last cell.
    windows = sliding_window_view(padded, LAG_CHUNK, axis=1)
    buffer = np.empty(n_rows * LAG_CHUNK * n)
    for band in order:
        w, spread = widths[band], spreads[band]
        for m in range(w, min(2 * w, n), LAG_CHUNK):
            if np.all(spread / scale[m - 1] <= best):
                break
            lags = min(LAG_CHUNK, 2 * w - m, n - m)
            span = n - m
            # diff[r, i, j] = f[r, j + m + i] - f[r, j], NaN where j + m + i >= n.
            diff = buffer[: n_rows * lags * span].reshape(n_rows, lags, span)
            np.subtract(
                windows[:, m:, :lags].transpose(0, 2, 1), rows[:, None, :span], out=diff
            )
            lag_max = np.maximum(
                np.fmax.reduce(diff, axis=2), -np.fmin.reduce(diff, axis=2)
            )
            quotients = lag_max[:, :, None] / scale[m - 1 : m - 1 + lags]
            best = np.maximum(best, quotients.max(axis=1))
    return best.reshape(f.shape[:-1] + g.shape)
