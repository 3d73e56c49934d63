#!/usr/bin/env python3
"""Time the analytic pipeline stage by stage on the analytic sweep scenarios.

Run from the repository root, once per source tree, each run under its own
label; the medians of every run go into one JSON file:

    PYTHONPATH=src python benchmarks/bench_analytic.py --label change
    PYTHONPATH=/path/to/other/src python benchmarks/bench_analytic.py --label parent

The scenarios are the 11 of ``perfbench/workload.py`` (the default config
with section-level overrides).  A run is one ``ruin.run_pipeline`` call per
scenario; each stage is timed inside it by wrapping the functions it calls
under the names they are looked up by (as ``perfbench/tracing.py`` does),
summed over their calls.  Per scenario, median over --repeats runs, in ms:

* ``moments``: ``revenue_moments``;
* ``income``: density expansion, sanitizing, lattice discretization and the
  fee convolution, up to the net-profit step PMF;
* ``chernoff_edges``: the Chernoff searches for the window edges of each
  step law (``compound._chernoff_edge``), found once per solve: the loss
  top reads the lower edges' theta and the compound stage inverts on both;
* ``loss_top``: the closed-form Chernoff top of the discounted losses that
  sizes both the recursion grid and the compound windows
  (``ruin._chernoff_top``; an older tree bounded it here for the windows
  and searched the grid's top on the compound PMFs apart);
* ``compound``: ``compound_geometric_pmf`` on those edges;
* ``correlation_setup``: the recursion's correlation operators and each
  step's window (``ruin._windows``; an older tree made one atom spectrum
  per operator here, in its constructor);
* ``steps``: the recursion's transform steps on those operators (on trees
  with windows, each window's atom spectrum is made in its first step);
* ``pipeline``: ``run_pipeline`` end to end.

Every stage runs outside the others, so they add up to no more than
``pipeline``.  (On older trees the compound stage and the loss bound
searched their own edges, and ``chernoff_edges`` ran inside them.)  The
sizes that decide the FFT work (compound window, recursion grid,
correlation FFT length and the transform points of each recursion step in
the order run: phases x length of its ``np.fft.irfft`` call, 0 for a step
without one) are recorded with the times, and so are the calls of
``np.fft.rfft`` and ``np.fft.irfft`` in one pipeline run, counted by
wrapping both here, and the work of the Chernoff searches: the CGF
evaluations of each search in solve order (the upper and lower window edge
of each distinct step law; an older tree then searched the recursion
grid's loss top, and before that the loss bound's lower edge first, apart),
counted by wrapping the CGF each search is handed.  Scenarios a tree refuses
(AccuracyError, ResourceLimitError) are recorded as refused.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from microruin import AccuracyError, ResourceLimitError, compound, income_pdf, ruin

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
from workload import SCENARIOS, U_VALUES, build_config  # noqa: E402

# stage -> the (owner, name) pairs run_pipeline reaches it by
TARGETS = {
    "moments": [(ruin, "revenue_moments")],
    "income": [(income_pdf, "expand_density"), (income_pdf, "sanitize"),
               (ruin, "discretize_income"), (ruin, "net_profit_step_pmf")],
    "chernoff_edges": [(compound, "_chernoff_edge")],
    "loss_top": [(ruin, "_chernoff_top")],
    "compound": [(ruin, "compound_geometric_pmf")],
    "correlation_setup": [(ruin._Correlation, "__init__"), (ruin, "_windows")],
    "steps": [(ruin._Correlation, "__call__")],
    "pipeline": [(ruin, "run_pipeline")],
}
STAGES = tuple(TARGETS)
spent = dict.fromkeys(STAGES, 0.0)
cgf_calls: list[int] = []  # CGF evaluations of each search of the current solve
fft_calls = {"rfft": 0, "irfft": 0}  # transforms of the current solve
step_points: list[int] = []  # transform points of each recursion step of the current solve


def _timed(stage, fn):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - t0
    return timed


def _counted(search):
    @functools.wraps(search)
    def counted(cgf, *args):
        cgf_calls.append(0)

        def counted_cgf(theta):
            cgf_calls[-1] += 1
            return cgf(theta)
        return search(counted_cgf, *args)
    return counted


def _tallied(name, fn):
    @functools.wraps(fn)
    def tallied(*args, **kwargs):
        fft_calls[name] += 1
        return fn(*args, **kwargs)
    return tallied


def _stepped(fn):
    """A recursion step that records its transform points: those of the
    ``np.fft.irfft`` calls it makes, phases (columns) x length."""
    irfft = np.fft.irfft

    @functools.wraps(fn)
    def stepped(*args, **kwargs):
        step_points.append(0)

        def counted(a, n, **kw):
            step_points[-1] += (a.shape[1] if a.ndim > 1 else 1) * n
            return irfft(a, n, **kw)
        np.fft.irfft = counted
        try:
            return fn(*args, **kwargs)
        finally:
            np.fft.irfft = irfft
    return stepped


def install() -> list[str]:
    """Wrap every target and both real FFTs.  A target the tree lacks (a
    renamed function, or an older tree) is skipped, its stage reads 0, and
    its name is returned so that the run records it."""
    absent = []
    for stage, targets in TARGETS.items():
        for owner, name in targets:
            if hasattr(owner, name):
                setattr(owner, name, _timed(stage, getattr(owner, name)))
            else:
                absent.append(f"{owner.__name__}.{name}")
    for name in fft_calls:
        setattr(np.fft, name, _tallied(name, getattr(np.fft, name)))
    for name in ("__call__", "first_step"):
        if hasattr(ruin._Correlation, name):
            setattr(ruin._Correlation, name, _stepped(getattr(ruin._Correlation, name)))
    # both callers look the Chernoff search up in compound
    compound.chernoff_min = _counted(compound.chernoff_min)
    return absent


def one_pass(cfg) -> tuple[dict, dict]:
    """(seconds per stage, sizes) of one pipeline run on one scenario."""
    spent.update(dict.fromkeys(STAGES, 0.0))
    cgf_calls.clear()
    fft_calls.update(dict.fromkeys(fft_calls, 0))
    step_points.clear()
    result, info = ruin.run_pipeline(cfg, np.array(U_VALUES))
    sizes = {"window_points": info["intervals"][1]["compound"]["window_points"],
             "grid_points": result.u_grid[2],
             "fft_points": result.diagnostics["fft_points"],
             "step_points": list(step_points),
             "fft_calls": dict(fft_calls),
             "cgf_per_search": list(cgf_calls),
             "cgf_evaluations": sum(cgf_calls)}
    return dict(spent), sizes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="name of this run in the JSON file")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out", default=os.path.join(os.path.dirname(HERE), "BENCH_analytic.json"))
    args = ap.parse_args(argv)

    configs = [(name, build_config(7, overrides)) for name, overrides in SCENARIOS]
    absent = install()
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

    run = {"repeats": args.repeats, "scenarios": {}, "absent_targets": absent}
    if absent:
        print(f"targets this tree lacks (their stages read 0): {', '.join(absent)}")
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
    searches = [n for v in run["scenarios"].values() for n in v.get("cgf_per_search", [])]
    run["cgf_evaluations"] = sum(searches)
    run["max_cgf_per_search"] = max(searches, default=0)
    print(f"CGF evaluations per pass: {sum(searches)} over {len(searches)} searches, "
          f"at most {run['max_cgf_per_search']} in one")

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
