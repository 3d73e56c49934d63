#!/usr/bin/env python3
"""Time the CLI's commands cold, from process start, on one or more source trees.

Run from the repository root with one --src LABEL=PATH per source tree;
each tree's run goes into one JSON file under its label:

    python benchmarks/bench_cli.py --src parent=/path/to/other/src --src change=src

Every timed run is a fresh process with PYTHONPATH set to the tree, one
BLAS thread and no MICRORUIN_* variables, writing into a new temporary
directory.  The commands, each timed --repeats times per tree:

* ``python -c pass`` and ``python -c "import numpy"``, the baselines: a bare
  interpreter and numpy's import, which no tree can make cheaper;
* ``python -m microruin.cli`` with ``validate``, ``ruin --no-mc``, ``ruin``
  and ``reproduce-tables --fast``, on the built-in reference config.

The trees alternate run by run: each repeat runs every command once per
tree, the trees in the order given on even repeats and reversed on odd
ones, so that a drift in machine load reaches every tree alike.  Per tree
and command the file records the median and quartiles of the wall time
(from spawn to reaped exit), the CPU time (``ru_utime + ru_stime`` of the
child from ``os.wait4``) and the peak RSS (``ru_maxrss``).  A child's
``ru_maxrss`` counts the pages it shared with this script before its exec,
so the script imports no numpy: its own RSS is the floor of every reading.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CLI = [sys.executable, "-m", "microruin.cli", "--out"]
# name -> argv; a CLI command's argv is completed with its output directory
COMMANDS = {
    "python -c pass": [sys.executable, "-c", "pass"],
    "import numpy": [sys.executable, "-c", "import numpy"],
    "validate": ["validate"],
    "ruin --no-mc": ["ruin", "--no-mc"],
    "ruin": ["ruin"],
    "reproduce-tables --fast": ["reproduce-tables", "--fast"],
}
BASELINES = ("python -c pass", "import numpy")


def _env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MICRORUIN_")}
    env["PYTHONPATH"] = os.path.abspath(src)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def time_once(name: str, env: dict) -> tuple[float, float, float]:
    """(wall s, CPU s, peak RSS MB) of one fresh process running ``name``."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = COMMANDS[name]
        if name not in BASELINES:
            argv = [*CLI, os.path.join(tmp, "out"), *argv]
        with open(os.path.join(tmp, "log"), "wb+") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=tmp, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            if os.waitstatus_to_exitcode(status) != 0:
                log.seek(0)
                raise SystemExit(f"{name} failed with {env['PYTHONPATH']}:\n"
                                 f"{log.read()[-800:].decode(errors='replace')}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def _summary(values) -> dict:
    values = list(values)
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", required=True, metavar="LABEL=PATH",
                    help="a source tree and the label its run is stored under")
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(os.path.dirname(HERE), "BENCH_cli.json"))
    args = ap.parse_args(argv)
    trees = dict(item.split("=", 1) for item in args.src)

    times = {label: {name: [] for name in COMMANDS} for label in trees}
    for repeat in range(args.repeats):
        order = list(trees) if repeat % 2 == 0 else list(trees)[::-1]
        for name in COMMANDS:
            for label in order:
                times[label][name].append(time_once(name, _env(trees[label])))

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["machine"] = {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
                      "cpus": os.cpu_count(), "platform": platform.platform(),
                      "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "")}
    runs = {label: {"repeats": args.repeats, "commands": {}} for label in trees}
    print(f"{'median wall s':26s}" + "".join(f"{label:>14s}" for label in trees))
    for name in COMMANDS:
        row = ""
        for label, run in runs.items():
            wall, cpu, rss = zip(*times[label][name])
            run["commands"][name] = {"wall_s": _summary(wall), "cpu_s": _summary(cpu),
                                     "peak_rss_mb": _summary(rss)}
            row += f"{run['commands'][name]['wall_s']['median']:14.4f}"
        print(f"{name:26s}" + row)
    doc.setdefault("runs", {}).update(runs)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
