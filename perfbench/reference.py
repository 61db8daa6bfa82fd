"""Fixed reference task, timed right after each verification by ``run.py``.

Usage: python3 reference.py   (prints its own wall time in seconds)

It does, in about equal shares of time, the three kinds of work that
dominate the workloads, without rdcheck: a pure-Python recurrence over
lists (the Thomas solve), many numpy operations on 64-cell arrays (the
small-grid solver loop) and an all-pairs numpy scan over 1024 cells (the
Hoelder scan).  The work never changes, so its time tracks only how fast
the host runs at that moment.  On a host shared with other machines that
speed drifts by a quarter within a minute; dividing each verification's
time by the reference time taken next to it removes most of that drift.
"""

import time

import numpy as np


def main() -> float:
    start = time.perf_counter()
    n = 4096
    for _ in range(75):
        lower = [0.5] * n
        diag = [2.0] * n
        rhs = [1.0] * n
        c = [0.0] * n
        d = [0.0] * n
        c[0] = lower[0] / diag[0]
        d[0] = rhs[0] / diag[0]
        for j in range(1, n):
            denom = diag[j] - lower[j - 1] * c[j - 1]
            c[j] = lower[j] / denom
            d[j] = (rhs[j] - lower[j - 1] * d[j - 1]) / denom
    skew = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    u = np.linspace(0.1, 1.0, 192).reshape(3, 64)
    for _ in range(9000):
        u = np.abs(u + 1e-4 * (skew @ u - 0.01) * u)
        if np.min(u) < 0.0:
            break
    x = np.sin(np.arange(1024.0))
    centres = np.arange(1024.0) / 1024.0
    for _ in range(7):
        dx = np.abs(centres[:, None] - centres[None, :])
        np.fill_diagonal(dx, 1.0)
        np.max(np.abs(x[:, None] - x[None, :]) / dx**0.25)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main()))
