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
(rows, cells) such as a run's (species, cells) state.  `grad_sup`, the sup
of the one-sided gradient of a row, is defined on the same data; with the
row's oscillation max f - min f it is the measurement side of the gradient
interpolation bound checked on v_d.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Grid1D",
    "laplacian_values",
    "grad_sup",
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

