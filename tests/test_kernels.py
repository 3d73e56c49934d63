"""The numpy hot kernels against brute force."""

import numpy as np
import pytest

from microruin import _kernels


def _powsum_case(rng, n_seg=500, mean_pts=40):
    counts = rng.poisson(mean_pts, size=n_seg)
    counts[rng.integers(0, n_seg, 5)] = 0  # force empty segments
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    x_sq = rng.uniform(0.5, 2e3, size=int(offsets[-1]))
    marks = rng.exponential(1.0, size=int(offsets[-1]))
    return x_sq, marks, offsets


def test_powsum_matches_bruteforce():
    rng = np.random.default_rng(1)
    x_sq, marks, offsets = _powsum_case(rng)
    ends = offsets[1:]
    running = _kernels.interference_powsum(x_sq.copy(), -1.7, marks, ends, carry=0.25)
    got = np.diff(np.concatenate(([0.25], running)))
    for j in [0, 1, 13, 200, len(ends) - 1]:
        seg = slice(offsets[j], offsets[j + 1])
        ref = float(np.sum(marks[seg] * x_sq[seg] ** -1.7))
        assert got[j] == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_powsum_chunks_carry_the_running_sum_exactly():
    # cut anywhere, fed the previous chunk's last running sum, the chunks
    # give the whole-stream running sums bit for bit
    rng = np.random.default_rng(2)
    x_sq, marks, _ = _powsum_case(rng, n_seg=50)
    n = len(x_sq)
    whole = _kernels.interference_powsum(x_sq.copy(), -2.0, marks,
                                         np.arange(1, n + 1, dtype=np.int64))
    pieces, carry = [], 0.0
    for a, b in [(0, 1), (1, 9), (9, 500), (500, n)]:
        part = _kernels.interference_powsum(x_sq[a:b].copy(), -2.0, marks[a:b],
                                            np.arange(1, b - a + 1, dtype=np.int64), carry)
        pieces.append(part)
        carry = part[-1]
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


def _ruin_case(rng):
    grid = np.linspace(-40.0, 60.0, 501)
    phi = np.clip(np.cumsum(rng.random(501)), 0, None)
    phi = phi / phi[-1]
    atom_pos = np.sort(rng.uniform(-20, 20, size=37))
    atom_mass = rng.dirichlet(np.ones(37))
    return phi, grid, atom_pos, atom_mass


def test_ruin_step_matches_bruteforce():
    rng = np.random.default_rng(3)
    phi, grid, atom_pos, atom_mass = _ruin_case(rng)
    step = grid[1] - grid[0]
    growth = 1.07
    got = _kernels.ruin_step(phi, grid[0], step, growth, atom_pos, atom_mass, grid)
    for j in (0, 100, 250, 500):
        x = grid[j] * growth + atom_pos
        alive = x >= -1e-9 * step
        interp = np.interp(x, grid, phi, left=0.0, right=1.0)
        ref = float(np.sum(atom_mass * np.where(alive, interp, 0.0)))
        assert got[j] == pytest.approx(ref, rel=1e-10, abs=1e-12)
