#!/usr/bin/env python3
"""Time the analytic pipeline stage by stage on the analytic sweep scenarios.

Run from the repository root, once per source tree, each run under its own
label; the medians of every run go into one JSON file:

    PYTHONPATH=src python benchmarks/bench_analytic.py --label change
    PYTHONPATH=/path/to/other/src python benchmarks/bench_analytic.py --label parent

The scenarios are the 11 of ``perfbench/workload.py`` (the default config
with section-level overrides; each has one distinct interval law, so the
stages run on interval 1).  Per scenario, median over --repeats runs, in ms:

* ``moments``: ``revenue_moments``;
* ``income``: density expansion, sanitizing, lattice discretization and the
  fee convolution, up to the net-profit step PMF;
* ``chernoff_edges``: the two Chernoff window edges of the compound stage;
* ``compound``: ``compound_geometric_pmf`` as a whole (edges included);
* ``loss_top``: the Chernoff top of the recursion grid;
* ``correlation_setup``: the recursion's correlation operator (atom spectrum);
* ``steps``: the horizon's recursion steps on that operator;
* ``pipeline``: ``run_pipeline`` end to end.

The sizes that decide the FFT work (compound window, recursion grid and
correlation FFT length) are recorded with the times.  Stages a tree refuses
(AccuracyError, ResourceLimitError) are recorded as refused.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time

import numpy as np

from microruin import AccuracyError, ResourceLimitError, compound, income_pdf, ruin
from microruin.moments import revenue_moments

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
from workload import SCENARIOS, U_VALUES, build_config  # noqa: E402

STAGES = ("moments", "income", "chernoff_edges", "compound", "loss_top",
          "correlation_setup", "steps", "pipeline")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def one_pass(cfg) -> tuple[dict, dict]:
    """(seconds per stage, sizes) of one run of every stage on one scenario."""
    fin, num = cfg.financial, cfg.numerics
    t = {}
    t["moments"], mv = _timed(lambda: revenue_moments(cfg, interval_index=1))
    v_lo, v_hi = cfg.income_support(1)
    delta = num.lattice_step or (v_hi + max(fin.operator_fees.values())) / 2048.0

    def income():
        density = income_pdf.sanitize(income_pdf.expand_density(mv, v_lo, v_hi))
        return compound.net_profit_step_pmf(compound.discretize_income(density, delta), fin)

    t["income"], zstep = _timed(income)
    alive = zstep.mass > 0
    idx, log_p = zstep.indices()[alive], np.log(zstep.mass[alive])
    log_eps = math.log(num.tail_eps)
    t["chernoff_edges"], _ = _timed(lambda: [
        compound._chernoff_edge(side, log_p, fin.w_n_geometric, log_eps)
        for side in (idx, -idx)])
    t["compound"], g = _timed(lambda: compound.compound_geometric_pmf(
        zstep, fin.w_n_geometric, tail_eps=num.tail_eps))
    pmfs = [g.trimmed(ruin.TRIM_MASS)] * fin.horizon_intervals
    r = fin.interest_rate_per_interval
    growth, horizon = 1.0 + r, len(pmfs)
    t["loss_top"], _ = _timed(lambda: ruin._loss_top(pmfs, growth, horizon, num.tail_eps))
    stride = max(1, math.ceil(growth ** horizon))
    grid = ruin._RecursionGrid(np.array(U_VALUES), r, pmfs, pmfs[0].step / stride,
                               horizon, num.tail_eps)
    t["correlation_setup"], step = _timed(lambda: ruin._Correlation(grid, pmfs[0], stride))

    def steps():
        phi = np.ones_like(grid.points)
        for _ in range(horizon):
            phi = step(phi)

    t["steps"], _ = _timed(steps)
    t["pipeline"], (result, info) = _timed(lambda: ruin.run_pipeline(cfg, np.array(U_VALUES)))
    sizes = {"window_points": g.diagnostics["window_points"],
             "grid_points": result.diagnostics["grid_points"],
             "fft_points": result.diagnostics["fft_points"]}
    return t, sizes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="name of this run in the JSON file")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out", default=os.path.join(os.path.dirname(HERE), "BENCH_analytic.json"))
    args = ap.parse_args(argv)

    configs = [(name, build_config(7, overrides)) for name, overrides in SCENARIOS]
    one_pass(configs[0][1])  # warm-up
    times = {name: {s: [] for s in STAGES} for name, _ in configs}
    sizes, refused = {}, {}
    for _ in range(args.repeats):
        for name, cfg in configs:
            if name in refused:
                continue
            try:
                t, sizes[name] = one_pass(cfg)
            except (AccuracyError, ResourceLimitError) as exc:
                refused[name] = f"{type(exc).__name__}: {exc}"
                continue
            for stage in STAGES:
                times[name][stage].append(t[stage])

    run = {"repeats": args.repeats, "scenarios": {}}
    print(f"{'scenario':18s}" + "".join(f"{s:>18s}" for s in STAGES))
    for name, _ in configs:
        if name in refused:
            run["scenarios"][name] = {"refused": refused[name]}
            print(f"{name:18s}  refused: {refused[name]}")
            continue
        medians = {s: round(statistics.median(times[name][s]) * 1e3, 3) for s in STAGES}
        run["scenarios"][name] = {"median_ms": medians, **sizes[name]}
        print(f"{name:18s}" + "".join(f"{medians[s]:18.3f}" for s in STAGES))
    totals = {s: round(sum(v["median_ms"][s] for v in run["scenarios"].values()
                           if "median_ms" in v), 3) for s in STAGES}
    run["total_median_ms"] = totals
    print(f"{'total':18s}" + "".join(f"{totals[s]:18.3f}" for s in STAGES))

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
