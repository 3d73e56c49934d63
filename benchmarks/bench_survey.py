#!/usr/bin/env python3
"""Run the random-config survey and record every draw's outcome.

Run from the repository root, once per source tree, each run under its own
label; every run goes into one JSON file:

    PYTHONPATH=/path/to/other/src:. python benchmarks/bench_survey.py --label parent
    PYTHONPATH=src:. python benchmarks/bench_survey.py --label change --against parent

The survey is 800 draws of ``tests/test_survey.py::survey_draw``, the first
400 of each of the generators seeded 1 and 2, so that seed 1's first 40 are
the Tier-1 survey test's.  Each draw is validated and solved by
``ruin.run_pipeline`` at the capitals {0, 50, 100, 300, 1000}; the Monte
Carlo is not run.  A draw either solves or refuses with a
``MicroruinError``, whose reason is its class and its message up to the
first number ("ResourceLimitError: compound support needs").  Any other
exception stops the run.

A run records:

* the outcome counts, solved and per refusal reason;
* every draw's outcome, named seed:index: the refusal's whole message, or
  the recursion grid's points and the largest compound window's points;
* the solved draws nearest the two budgets a solve can exceed, the five
  largest recursion grids and the five largest compound windows, with their
  configs;
* with ``--against LABEL``, every draw whose outcome or grid differs from
  that earlier run's, with both.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import re
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from microruin import MicroruinError, model, ruin  # noqa: E402
from tests.test_survey import CAPITALS, survey_draw  # noqa: E402

SEEDS = (1, 2)
DRAWS_PER_SEED = 400
WORST = 5


def reason(exc: MicroruinError) -> str:
    """The refusal's class and its message up to the first number."""
    return f"{type(exc).__name__}: {re.split(r' [-+(]?[0-9]', str(exc))[0]}"


def outcome(document: dict) -> dict:
    """{"outcome": "solved" or the refusal reason} of one draw, with the
    refusal's message, or the grid and largest compound window points."""
    try:
        cfg = model.validate(model.ScenarioConfig.from_dict(document))
        result, info = ruin.run_pipeline(cfg, np.array(CAPITALS))
    except MicroruinError as exc:
        return {"outcome": reason(exc), "message": f"{type(exc).__name__}: {exc}"}
    return {"outcome": "solved", "grid_points": result.u_grid[2],
            "window_points": max(v["compound"]["window_points"]
                                 for v in info["intervals"].values())}


def describe(record: dict) -> str:
    """One draw's record as text, its outcome first."""
    if record["outcome"] != "solved":
        return record["message"]
    return f"solved grid={record['grid_points']} window={record['window_points']}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="name of this run in the JSON file")
    ap.add_argument("--against", help="an earlier run's label to name the changed draws by")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_survey.json"))
    args = ap.parse_args(argv)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    earlier = None
    if args.against:
        earlier = doc.get("runs", {}).get(args.against)
        if earlier is None:
            ap.error(f"no run labelled {args.against!r} in {args.out}")

    t0 = time.perf_counter()
    documents, records = {}, {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for index in range(DRAWS_PER_SEED):
            name = f"{seed}:{index}"
            documents[name] = survey_draw(rng)
            records[name] = outcome(documents[name])
    wall = time.perf_counter() - t0
    texts = {name: describe(r) for name, r in records.items()}

    counts = collections.Counter(r["outcome"] for r in records.values())
    solved = [name for name, r in records.items() if r["outcome"] == "solved"]
    run = {"capitals": list(CAPITALS), "seeds": list(SEEDS),
           "draws_per_seed": DRAWS_PER_SEED, "wall_s": round(wall, 1),
           "counts": dict(counts.most_common()),
           "draws": [f"{name} {text}" for name, text in texts.items()]}
    for size in ("grid_points", "window_points"):
        worst = sorted(solved, key=lambda name: records[name][size], reverse=True)[:WORST]
        run[f"largest_{size}"] = [{"draw": name, size: records[name][size],
                                   "config": documents[name]} for name in worst]
    print(f"{len(records)} draws in {wall:.1f} s")
    for key, n in counts.most_common():
        print(f"{n:5d}  {key}")
    if earlier is not None:
        before = dict(entry.split(" ", 1) for entry in earlier["draws"])
        changed = [name for name, text in texts.items() if before[name] != text]
        run["against"] = args.against
        run["changed"] = [f"{name}: {before[name]} -> {texts[name]}" for name in changed]
        moved = [entry for name, entry in zip(changed, run["changed"])
                 if before[name].startswith("solved") != (records[name]["outcome"] == "solved")]
        print(f"against {args.against}: {len(changed)} draws differ, "
              f"{len(moved)} of them in outcome")
        for entry in moved:
            print(f"  {entry}")

    doc["machine"] = {"python": platform.python_version(), "numpy": np.__version__,
                      "cpus": os.cpu_count(), "platform": platform.platform()}
    doc.setdefault("runs", {})[args.label] = run
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
