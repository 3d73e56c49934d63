#!/usr/bin/env python3
"""Time the numpy hot kernel, the Monte Carlo interferer stage and the recursion.

Run from the repository root, once per source tree, each run under its own
label; every run goes into one JSON file:

    PYTHONPATH=src python benchmarks/bench_kernels.py --label change
    PYTHONPATH=/path/to/other/src python benchmarks/bench_kernels.py --label parent

Inputs are production-shaped: the slots of one batch of the reference
scenario at the default truncation radius (--quick uses a fifth of the batch
and fewer sampler batches).  Reported, best of 3 unless stated:

* the sampler's truncation (``montecarlo.far_field_summary``):
  its radius factor and mean interferer points per slot;
* the per-slot draws of those slots in ns per slot, best of 7 interleaved
  rounds: the interferer counts (``montecarlo._poisson_counts``, and
  ``Generator.poisson`` on the same means for comparison) and the far field
  (``montecarlo._far_field``);
* the interferer stage (``montecarlo._uniform_field_sums``) in ns per
  interferer point, best of 7 interleaved rounds, in a workspace kept from
  round to round as batches keep it, split into four parts that add up to it:
  ``draws`` (the uniform and exponential generator fills, chunk by chunk),
  ``power`` (``interference_powsum`` with one segment per chunk: the terms
  and one sum over the chunk), ``segment_sums`` (the kernel with one segment
  per slot, less ``power``: finding each point's slot and what the per-slot
  segments add; it may read below 0, since one bin takes every add of a
  chunk in one dependency chain) and ``offsets`` (the rest of the stage: the
  per-point positions and the per-slot work); and the peak bytes the stage
  allocates in a new workspace (tracemalloc), streamed in chunks and as one
  whole chunk;
* one whole revenue batch (``montecarlo._revenue_batch``, 65,536 users) of
  the reference and the multi-slot scenario, best of 7, in ms per batch and
  ns per interferer point;
* ``survival_recursion`` on the reference scenario's interval PMFs: capital
  grid points, FFT length and ms per call;
* ``sample_revenues`` for 8 full batches of the reference and the
  multi-slot scenario on 1 and on 2 threads.  Each thread count runs in its
  own fresh process, the median of 5 campaigns after a warm-up, and the two
  alternate 3 times; every process's median is recorded in samples per
  second.  (Alternating thread counts inside one process read them equal.)
* ``simulate_surplus_paths`` at u = 100..300 on 1M reference and 200k
  multi-slot paths (--quick: 100k and 20k), each campaign in its own fresh
  process, 3 per scenario (--quick: 1): wall time of the call, the
  process's peak RSS (``ru_maxrss``) and the sha256 of its psi.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from microruin import _kernels, model, montecarlo, ruin

HERE = os.path.dirname(os.path.abspath(__file__))


def _best(fn, setup=None, repeats=3):
    """Best wall time of fn(*setup()) over repeats; setup runs untimed."""
    best, out = float("inf"), None
    for _ in range(repeats):
        args = setup() if setup else ()
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def truncation():
    """The sampler's truncation on the reference scenario."""
    far = montecarlo.far_field_summary(model.validate(model.default_config()))
    print(f"truncation  factor {far['radius_factor']:g}  "
          f"{far['points_per_slot']:.2f} interferer points per slot")
    return {"radius_factor": far["radius_factor"],
            "points_per_slot": round(far["points_per_slot"], 3)}


def _batch_slots(n_users, rng):
    """Per-slot point counts and annulus (t, width) of one reference batch,
    in the sampler's unit t = pi beta r^2 (Exp(1) for the serving distance)."""
    cfg = model.validate(model.default_config())
    t = rng.standard_exponential(n_users)
    span = np.maximum(math.pi * montecarlo.RADIUS_FACTOR ** 2 - t, 0.0)
    m_slot = rng.poisson(span)
    return m_slot, t, span, -cfg.network.alpha_pathloss / 2.0


def bench_stage(m_slot, r2, span, exponent, rng):
    offsets = np.concatenate(([0], np.cumsum(m_slot))).astype(np.int64)
    total = int(offsets[-1])
    # (first slot, end slot, first point, end point) of each chunk the field
    # sums walk
    chunks = [(s0, s1, int(offsets[s0]), int(offsets[s1]))
              for s0, s1 in montecarlo._chunks(offsets)]
    size = max(b - a for _, _, a, b in chunks)
    x_all = rng.uniform(1.0, 2.0, size=total)
    marks = rng.exponential(1.0, size=total)
    one_segment = np.zeros(1, dtype=np.int64)

    # a batch reuses its workspace from the last batch
    reused = montecarlo._Workspace()

    def stage(r2_copy, span_copy, ws):
        # the field sums may overwrite their r2 and span inputs
        return montecarlo._uniform_field_sums(montecarlo._stream(1, "bench", 0),
                                              montecarlo._stream(1, "bench", 0, "marks"),
                                              m_slot, r2_copy, span_copy, exponent, ws)

    def inputs():
        return r2.copy(), span.copy(), reused

    def draws():
        x_rng = montecarlo._stream(1, "bench", 0)
        m_rng = montecarlo._stream(1, "bench", 0, "marks")
        x_buf, m_buf = np.empty(size), np.empty(size)
        for _, _, a, b in chunks:
            x_rng.random(out=x_buf[: b - a])
            m_rng.standard_exponential(out=m_buf[: b - a])

    # the kernel's buffers, kept from call to call as a workspace keeps them
    segment = np.empty(size + 1, dtype=np.int64)
    sums = np.empty(max(s1 - s0 for s0, s1, _, _ in chunks))

    def kernel(x, per_slot):
        for s0, s1, a, b in chunks:
            starts = offsets[s0:s1] - a if per_slot else one_segment
            _kernels.interference_powsum(x[a:b], exponent, marks[a:b], starts,
                                         _kernels.segment_index(starts, b - a, segment),
                                         sums[:len(starts)])

    def fresh():
        return (x_all.copy(),)  # the kernel overwrites its x

    # the parts are differences of timings, so the timings are interleaved
    # (each round times every one once) and each keeps its best of 7 rounds
    timed = {"stage": (stage, inputs), "draws": (draws, None),
             "kernel": (lambda x: kernel(x, True), fresh),
             "one_segment": (lambda x: kernel(x, False), fresh)}
    t = dict.fromkeys(timed, float("inf"))
    for _ in range(7):
        for name, (fn, setup) in timed.items():
            t[name] = min(t[name], _best(fn, setup, 1)[0])
    split = {"draws": t["draws"], "offsets": t["stage"] - t["draws"] - t["kernel"],
             "power": t["one_segment"], "segment_sums": t["kernel"] - t["one_segment"],
             "stage": t["stage"]}
    ns = {k: round(v * 1e9 / total, 3) for k, v in split.items()}

    peaks = {}
    saved = montecarlo.CHUNK_POINTS
    for label, chunk in (("whole_batch", total), ("chunked", saved)):
        montecarlo.CHUNK_POINTS = chunk
        try:
            args = r2.copy(), span.copy(), montecarlo._Workspace()  # its buffers count
            tracemalloc.start()
            stage(*args)
            peaks[label] = round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
            tracemalloc.stop()
        finally:
            montecarlo.CHUNK_POINTS = saved
    print(f"interferer stage  {total:.2e} pts in {len(m_slot)} slots, ns/pt")
    print("  " + "  ".join(f"{k} {v:.2f}" for k, v in ns.items()))
    print(f"  peak MiB  chunked {peaks['chunked']:.1f}  whole batch {peaks['whole_batch']:.1f}")
    return {"points": total, "slots": len(m_slot), "ns_per_point": ns, "peak_mib": peaks}


def bench_slot_draws(t, span):
    """The per-slot draws of one batch's slots, in ns per slot: the
    interferer counts (``_poisson_counts``, and ``Generator.poisson`` on the
    same means for comparison) and the far field (``_far_field``)."""
    net = model.validate(model.default_config()).network
    edge = math.pi * montecarlo.RADIUS_FACTOR ** 2
    ws = montecarlo._Workspace()
    counts = np.empty(len(t), np.int64)
    far = np.empty(len(t))
    draws = {"counts": lambda rng: montecarlo._poisson_counts(rng, span, counts, ws),
             "counts_generator_poisson": lambda rng: rng.poisson(span),
             "far_field": lambda rng: montecarlo._far_field(net, edge, t, rng, out=far)}
    # interleaved rounds, each draw keeping its best of 7
    best = dict.fromkeys(draws, float("inf"))
    for _ in range(7):
        for name, draw in draws.items():
            best[name] = min(best[name], _best(draw, lambda: (montecarlo._stream(1, "slots"),),
                                               1)[0])
    ns = {k: round(v * 1e9 / len(t), 3) for k, v in best.items()}
    print(f"per-slot draws  {len(t)} slots, ns/slot")
    print("  " + "  ".join(f"{k} {v:.2f}" for k, v in ns.items()))
    return {"slots": len(t), "ns_per_slot": ns}


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
    out = {}
    for name, cfg in _scenarios().items():
        plan = cfg.numerics
        durations = cfg.interval_durations(1)
        points, revenues = [], np.empty(n_users)

        def counting(x_sq, *args, **kwargs):
            points.append(len(x_sq))
            return saved(x_sq, *args, **kwargs)

        _kernels.interference_powsum = counting
        try:
            montecarlo._revenue_batch(cfg, plan, ("bench", 0), n_users, durations, revenues)
        finally:
            _kernels.interference_powsum = saved
        t, _ = _best(lambda: montecarlo._revenue_batch(cfg, plan, ("bench", 0), n_users,
                                                       durations, revenues), None, 7)
        out[name] = {"ms_per_batch": round(t * 1e3, 3),
                     "ns_per_point": round(t * 1e9 / sum(points), 3), "points": sum(points)}
        print(f"  {name:10s}  {t * 1e3:7.1f} ms/batch  {t * 1e9 / sum(points):6.2f} ns/pt  "
              f"({sum(points):.2e} pts)")
    return out


def bench_recursion():
    cfg = model.validate(model.default_config())
    pmfs, info = ruin.interval_net_pmfs(cfg)
    us = np.array([100.0, 150.0, 200.0, 250.0, 300.0])

    def solve():
        return ruin.survival_recursion(us, cfg.financial.interest_rate_per_interval, pmfs,
                                       loss_top=info["loss_top"])

    t, res = _best(solve)
    grid_points, fft_points = res.u_grid[2], res.diagnostics["fft_points"]
    print(f"survival_recursion  reference  {grid_points} grid pts  "
          f"FFT {fft_points}  {t * 1e3:8.1f} ms")
    return {"grid_points": grid_points, "fft_points": fft_points, "ms": round(t * 1e3, 3)}


# sample_revenues campaigns of one config on a given thread count, after a
# warm-up: samples per second of each campaign
_SAMPLER_RUN = """
import json, sys, time
from microruin import model, montecarlo
workers, n, calls = (int(a) for a in sys.argv[1:4])
montecarlo._cpu_count = lambda: workers
cfg = model.validate(model.ScenarioConfig.from_dict(json.loads(sys.argv[4])))
montecarlo.sample_revenues(cfg, cfg.numerics, 4096)
for _ in range(calls):
    t0 = time.perf_counter()
    montecarlo.sample_revenues(cfg, cfg.numerics, n)
    print(n / (time.perf_counter() - t0))
"""


def bench_sampler(n_batches, alternations=3, calls=5):
    """sample_revenues over n_batches full batches on 1 and 2 threads, per
    scenario.  Each thread count runs in its own fresh process (``calls``
    campaigns after a warm-up, their median recorded), and the thread counts
    alternate which runs first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = {}
    for name, cfg in _scenarios().items():
        n_samples = n_batches * cfg.numerics.mc_batch
        args = [str(n_samples), str(calls), json.dumps(cfg.to_dict())]
        rates = {1: [], 2: []}
        for k in range(alternations):
            for workers in ((1, 2) if k % 2 == 0 else (2, 1)):
                lines = subprocess.run([sys.executable, "-c", _SAMPLER_RUN, str(workers), *args],
                                       env=env, check=True, capture_output=True,
                                       text=True).stdout.split()
                rates[workers].append(round(statistics.median(map(float, lines))))
        print(f"sample_revenues  {name}  {n_samples} samples ({n_batches} batches), median of "
              f"{calls} calls per process, {alternations} process(es) per thread count")
        for workers, runs in rates.items():
            print(f"  {workers} thread(s)  " + "  ".join(f"{r / 1e3:8.1f}k" for r in runs)
                  + "  samples/s")
        out[name] = {"samples": n_samples, "batches": n_batches, "calls": calls,
                     "samples_per_s": {str(w): runs for w, runs in rates.items()},
                     "median_samples_per_s": {str(w): statistics.median(runs)
                                              for w, runs in rates.items()}}
    return out


# one surplus-path campaign in this fresh process: wall time, peak RSS and
# the sha256 of its psi
_PATHS_RUN = """
import hashlib, json, resource, sys, time
from dataclasses import replace
from microruin import model, montecarlo
cfg = model.validate(model.ScenarioConfig.from_dict(json.loads(sys.argv[2])))
plan = replace(montecarlo.plan_from_config(cfg), mc_paths=int(sys.argv[1]))
t0 = time.perf_counter()
est = montecarlo.simulate_surplus_paths(cfg, plan, [100.0, 150.0, 200.0, 250.0, 300.0])
wall = time.perf_counter() - t0
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(wall, rss_mb, hashlib.sha256(est.psi.tobytes()).hexdigest())
"""


def bench_surplus_paths(paths, runs):
    """``simulate_surplus_paths`` at u = 100..300, ``paths[name]`` paths per
    scenario, each of ``runs`` campaigns in its own fresh process: its wall
    time, the process's peak RSS and the sha256 of its psi."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = {}
    for name, cfg in _scenarios().items():
        walls, rss, hashes = [], [], set()
        for _ in range(runs):
            wall, peak, sha = subprocess.run(
                [sys.executable, "-c", _PATHS_RUN, str(paths[name]), json.dumps(cfg.to_dict())],
                env=env, check=True, capture_output=True, text=True).stdout.split()
            walls.append(round(float(wall), 4))
            rss.append(round(float(peak), 1))
            hashes.add(sha)
        print(f"surplus_paths  {name}  {paths[name]} paths, {runs} fresh process(es)  "
              f"wall s " + " ".join(f"{w:.3f}" for w in walls)
              + "  peak RSS MB " + " ".join(f"{m:.1f}" for m in rss))
        out[name] = {"paths": paths[name], "wall_s": walls, "peak_rss_mb": rss,
                     "median_wall_s": statistics.median(walls),
                     "median_peak_rss_mb": statistics.median(rss),
                     "psi_sha256": sorted(hashes)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="name of this run in the JSON file (default: no file)")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default=os.path.join(os.path.dirname(HERE),
                                                      "BENCH_kernels.json"))
    args = parser.parse_args(argv)
    scale = 0.2 if args.quick else 1.0
    rng = np.random.default_rng(0)
    m_slot, r2, span, exponent = _batch_slots(int(65_536 * scale), rng)
    run = {"quick": args.quick,
           "truncation": truncation(),
           "slot_draws": bench_slot_draws(r2, span),
           "interferer_stage": bench_stage(m_slot, r2, span, exponent, rng),
           "revenue_batch": bench_batch(int(65_536 * scale)),
           "survival_recursion": bench_recursion(),
           "sampler": bench_sampler(2, 1, 2) if args.quick else bench_sampler(8),
           "surplus_paths": (
               bench_surplus_paths({"reference": 100_000, "multi-slot": 20_000}, 1)
               if args.quick else
               bench_surplus_paths({"reference": 1_000_000, "multi-slot": 200_000}, 3))}
    if args.label:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["machine"] = {"python": platform.python_version(), "numpy": np.__version__,
                          "cpus": os.cpu_count(), "platform": platform.platform()}
        doc.setdefault("runs", {})[args.label] = run
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
