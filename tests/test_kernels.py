"""The numpy hot kernel and the per-atom recursion oracle against brute force."""

import numpy as np
import pytest

from microruin import _kernels
from tests.oracles import ruin_step


def _powsum_case(rng, n_seg=500, mean_pts=40):
    counts = rng.poisson(mean_pts, size=n_seg)
    counts[rng.integers(0, n_seg, 5)] = 0  # force empty segments
    counts[[0, -2, -1]] = 0                # at both ends too
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    x_sq = rng.uniform(0.5, 2e3, size=int(counts.sum()))
    marks = rng.exponential(1.0, size=int(counts.sum()))
    return x_sq, marks, starts, counts


def _powsum(x_sq, exponent, marks, starts):
    """The kernel on freshly made buffers (the sampler passes its workspace's)."""
    segment = _kernels.segment_index(starts, len(x_sq), np.empty(len(x_sq) + 1, np.int64))
    return _kernels.interference_powsum(x_sq, exponent, marks, starts, segment,
                                        np.empty(len(starts)))


def test_kernel_writes_into_the_callers_buffers():
    rng = np.random.default_rng(4)
    x_sq, marks, starts, counts = _powsum_case(rng, n_seg=20)
    seg_buf, out = np.full(len(x_sq) + 1, -1, np.int64), np.full(len(starts), np.nan)
    segment = _kernels.segment_index(starts, len(x_sq), seg_buf)
    assert np.shares_memory(segment, seg_buf)
    assert segment.tolist() == np.repeat(np.arange(len(starts)), counts).tolist()
    got = _kernels.interference_powsum(x_sq, -2.0, marks, starts, segment, out)
    assert got is out and not np.isnan(out).any()


def test_powsum_matches_bruteforce():
    rng = np.random.default_rng(1)
    x_sq, marks, starts, counts = _powsum_case(rng)
    got = _powsum(x_sq.copy(), -1.7, marks, starts)
    assert got.shape == counts.shape
    assert np.all(got[counts == 0] == 0.0)
    for j in [0, 1, 13, 200, len(starts) - 2, len(starts) - 1,
              *np.flatnonzero(counts == 0)]:
        seg = slice(starts[j], starts[j] + counts[j])
        ref = float(np.sum(marks[seg] * x_sq[seg] ** -1.7))
        assert got[j] == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_powsum_chunks_cut_at_segment_edges_match_whole():
    # each segment is summed on its own, so chunks cut at any segment edge
    # give the whole-stream sums bit for bit
    rng = np.random.default_rng(2)
    x_sq, marks, starts, _ = _powsum_case(rng, n_seg=50)
    whole = _powsum(x_sq.copy(), -2.0, marks, starts)
    edges = np.append(starts, len(x_sq))
    pieces = []
    for s0, s1 in [(0, 1), (1, 9), (9, 30), (30, 30), (30, 50)]:
        a, b = edges[s0], edges[s1]
        pieces.append(_powsum(x_sq[a:b].copy(), -2.0, marks[a:b], starts[s0:s1] - a))
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
    got = ruin_step(phi, grid[0], step, growth, atom_pos, atom_mass, grid)
    for j in (0, 100, 250, 500):
        x = grid[j] * growth + atom_pos
        alive = x >= -1e-9 * step
        interp = np.interp(x, grid, phi, left=0.0, right=1.0)
        ref = float(np.sum(atom_mass * np.where(alive, interp, 0.0)))
        assert got[j] == pytest.approx(ref, rel=1e-10, abs=1e-12)
