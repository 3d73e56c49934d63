#!/usr/bin/env python3
"""Time the numpy hot kernels and the Monte Carlo interferer stage.

Run:  python benchmarks/bench_kernels.py [--quick]

Inputs are production-shaped: the slots of one batch of the reference
scenario at the default truncation radius (about 28 interferer points per
slot; --quick uses a fifth of the batch).  Reported, best of 3:

* ``interference_powsum`` alone: one whole-batch call against calls on
  chunks of whole slots of up to ``montecarlo.CHUNK_POINTS`` points, in ns
  per interferer point and the bytes of the arrays each call touches;
* the interferer stage (position draws, mark draws, kernel) streamed in
  chunks against the same stage with the whole batch as one chunk, in ns
  per point and the peak bytes it allocates (tracemalloc);
* one whole revenue batch (``montecarlo._revenue_batch``, 65,536 users) of
  the reference and the multi-slot scenario, in ms per batch and ns per
  interferer point;
* ``ruin_step`` on a large capital grid;
* ``survival_recursion`` on the reference scenario's interval PMFs: capital
  grid points, FFT length and ms per call;
* ``sample_revenues`` end to end for two full batches, on one thread and on
  the thread pool.
"""

from __future__ import annotations

import argparse
import math
import time
import tracemalloc

import numpy as np

from microruin import _kernels, model, montecarlo, ruin


def _best(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _batch_slots(n_users, rng):
    """Per-slot point counts and annulus (r^2, width) of one reference batch."""
    cfg = model.validate(model.default_config())
    beta = cfg.network.beta_cells_per_area
    radius2 = (montecarlo.SimulationPlan().ppp_radius_factor / math.sqrt(beta)) ** 2
    r2 = -np.log1p(-rng.random(n_users)) / (math.pi * beta)
    span = np.maximum(radius2 - r2, 0.0)
    m_slot = rng.poisson(beta * math.pi * span)
    return m_slot, r2, span, -cfg.network.alpha_pathloss / 2.0


def bench_powsum(m_slot, r2, span, exponent, rng):
    offsets = np.concatenate(([0], np.cumsum(m_slot))).astype(np.int64)
    total = int(offsets[-1])
    x_all = rng.uniform(1.0, float(np.max(r2 + span)), size=total)
    marks = rng.exponential(1.0, size=total)
    chunk = montecarlo.CHUNK_POINTS
    # chunk edges at whole slots, as in montecarlo._uniform_field_sums
    edges = [0]
    while edges[-1] < len(m_slot):
        s0 = edges[-1]
        edges.append(max(int(np.searchsorted(offsets, offsets[s0] + chunk, side="right")) - 1,
                         s0 + 1))

    def whole():
        return _kernels.interference_powsum(x_all.copy(), exponent, marks, offsets[:-1])

    def chunked():
        x = x_all.copy()
        for s0, s1 in zip(edges[:-1], edges[1:]):
            a, b = offsets[s0], offsets[s1]
            _kernels.interference_powsum(x[a:b], exponent, marks[a:b], offsets[s0:s1] - a)

    t_whole, _ = _best(whole)
    t_copy, _ = _best(x_all.copy)
    t_chunk, _ = _best(chunked)
    per_pt = 1e9 / total
    seg = len(m_slot) * chunk / total  # slots per chunk
    print(f"interference_powsum  {total:.2e} pts in {len(m_slot)} slots")
    print(f"  whole batch  {(t_whole - t_copy) * per_pt:6.2f} ns/pt  "
          f"{(16 * total + 16 * len(m_slot)) / 2**20:8.1f} MiB per call")
    print(f"  chunked      {(t_chunk - t_copy) * per_pt:6.2f} ns/pt  "
          f"{(16 * chunk + 16 * seg) / 2**20:8.1f} MiB per call ({chunk} pts)")


def bench_stage(m_slot, r2, span, exponent):
    total = int(m_slot.sum())

    def stage():
        return montecarlo._uniform_field_sums(montecarlo._stream(1, "bench", 0),
                                              montecarlo._stream(1, "bench", 0, "marks"),
                                              m_slot, r2, span, exponent)

    rows = []
    saved = montecarlo.CHUNK_POINTS
    for label, chunk in (("whole batch", total), ("chunked", saved)):
        montecarlo.CHUNK_POINTS = chunk
        try:
            t, out = _best(stage)
            tracemalloc.start()
            stage()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        finally:
            montecarlo.CHUNK_POINTS = saved
        rows.append((label, t, peak, out))
    assert rows[0][3].tobytes() == rows[1][3].tobytes(), "chunking moved the sums"
    print(f"interferer stage (draws + kernel), {total:.2e} pts")
    for label, t, peak, _ in rows:
        print(f"  {label:11s}  {t * 1e9 / total:6.2f} ns/pt  {peak / 2**20:8.1f} MiB peak")


def _scenarios():
    ref = model.validate(model.default_config())
    data = ref.to_dict()
    data["durations"].update({"kind": "truncated-geometric", "mean": 2.0, "tau_max": 5})
    return {"reference": ref,
            "multi-slot": model.validate(model.ScenarioConfig.from_dict(data))}


def bench_batch(n_users):
    """One revenue batch per scenario, on this thread."""
    saved = _kernels.interference_powsum
    print(f"revenue batch  {n_users} users, one thread")
    for name, cfg in _scenarios().items():
        plan = montecarlo.plan_from_config(cfg)
        durations = cfg.interval_durations(1)
        points = []

        def counting(x_sq, exponent, marks, offsets):
            points.append(len(x_sq))
            return saved(x_sq, exponent, marks, offsets)

        _kernels.interference_powsum = counting
        try:
            montecarlo._revenue_batch(cfg, plan, ("bench", 0), n_users, durations)
        finally:
            _kernels.interference_powsum = saved
        t, _ = _best(lambda: montecarlo._revenue_batch(cfg, plan, ("bench", 0), n_users,
                                                       durations))
        print(f"  {name:10s}  {t * 1e3:7.1f} ms/batch  {t * 1e9 / sum(points):6.2f} ns/pt  "
              f"({sum(points):.2e} pts)")


def bench_ruin_step(n_grid, n_atoms, rng):
    grid = np.linspace(-5e3, 8e3, n_grid)
    phi = np.clip(np.linspace(-0.2, 1.2, n_grid), 0.0, 1.0)
    atom_pos = np.sort(rng.uniform(-2e3, 2e3, size=n_atoms))
    atom_mass = rng.dirichlet(np.ones(n_atoms))
    t, _ = _best(lambda: _kernels.ruin_step(phi, grid[0], grid[1] - grid[0], 1.05,
                                            atom_pos, atom_mass, grid))
    print(f"ruin_step  {n_grid}x{n_atoms}  {t * 1e3:8.1f} ms")


def bench_recursion():
    cfg = model.validate(model.default_config())
    pmfs, _ = ruin.interval_net_pmfs(cfg)
    us = np.array([100.0, 150.0, 200.0, 250.0, 300.0])

    def solve():
        return ruin.survival_recursion(us, cfg.financial.interest_rate_per_interval, pmfs,
                                       tail_eps=cfg.numerics.tail_eps)

    t, res = _best(solve)
    diag = res.diagnostics
    print(f"survival_recursion  reference  {diag['grid_points']} grid pts  "
          f"FFT {diag['fft_points']}  {t * 1e3:8.1f} ms")


def bench_sampler():
    cfg = model.validate(model.default_config())
    plan = montecarlo.plan_from_config(cfg)
    n_samples = 2 * plan.batch_size
    montecarlo.sample_revenues(cfg, plan, 4096)  # warm-up
    cpus = montecarlo._cpu_count()
    print(f"sample_revenues  {n_samples} samples (batches of {plan.batch_size})")
    saved = montecarlo._cpu_count
    try:
        for workers in sorted({1, cpus}):
            montecarlo._cpu_count = lambda: workers
            t, _ = _best(lambda: montecarlo.sample_revenues(cfg, plan, n_samples))
            print(f"  {workers} thread(s)  {n_samples / t / 1e3:8.1f}k samples/s")
    finally:
        montecarlo._cpu_count = saved


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    scale = 0.2 if args.quick else 1.0
    rng = np.random.default_rng(0)
    m_slot, r2, span, exponent = _batch_slots(int(65_536 * scale), rng)
    bench_powsum(m_slot, r2, span, exponent, rng)
    bench_stage(m_slot, r2, span, exponent)
    bench_batch(int(65_536 * scale))
    bench_ruin_step(int(20_000 * scale), int(2_000 * scale), rng)
    bench_recursion()
    bench_sampler()


if __name__ == "__main__":
    main()
