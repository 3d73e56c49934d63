"""The two hot kernels, in numpy.

* ``interference_powsum`` -- running interference power sums over one chunk
  of interferer points;
* ``ruin_step``           -- one survival-recursion step on a capital grid.
"""

from __future__ import annotations

import numpy as np


def interference_powsum(x_sq, exponent, marks, offsets, carry=0.0):
    """Running sums of marks * x_sq**exponent, read after offsets[j] terms.

    x_sq: squared interferer distances of one chunk (overwritten: it holds
    the running sums on return); exponent: -alpha/2; offsets: int64 term
    counts in 1..len(x_sq).  The sum starts from ``carry`` and runs in order,
    so a point stream cut into chunks, each fed the last running sum of the
    chunk before, gives bit for bit the sums of one sequential pass over the
    whole stream; segment sums are differences of these.
    """
    contrib = np.power(x_sq, exponent, out=x_sq)
    contrib *= marks
    contrib[0] += carry
    np.cumsum(contrib, out=contrib)
    return contrib[offsets - 1]


def ruin_step(phi_prev, grid_lo, grid_step, growth, atom_pos, atom_mass, u_grid, out=None):
    """One exact survival-recursion step on a uniform capital grid.

    out[j] = sum_k atom_mass[k] * 1{x >= 0} * phi_prev(x),
    x = u_grid[j] * growth + atom_pos[k], with phi_prev linearly interpolated
    on the uniform grid (clamped to 0 left / 1 right).  Capital exactly at 0
    survives; the indicator tolerance absorbs float rounding at the boundary.
    """
    if out is None:
        out = np.zeros_like(u_grid)
    else:
        out[:] = 0.0
    n = len(phi_prev)
    base = u_grid * growth
    tol = 1e-9 * grid_step
    inv_step = 1.0 / grid_step
    for y, m in zip(atom_pos, atom_mass):
        x = base + y
        alive = x >= -tol
        pos = (x - grid_lo) * inv_step
        idx = np.floor(pos).astype(np.int64)
        frac = pos - idx
        lo_clip = idx < 0
        hi_clip = idx >= n - 1
        idx_c = np.clip(idx, 0, n - 2)
        val = phi_prev[idx_c] * (1.0 - frac) + phi_prev[idx_c + 1] * frac
        val[lo_clip] = 0.0
        val[hi_clip] = 1.0
        out += m * np.where(alive, val, 0.0)
    return out
