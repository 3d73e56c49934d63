"""The benchmark scripts in ``benchmarks/`` run to the end.

Both reach into private sampler and recursion names (``_revenue_batch``,
``_uniform_field_sums``, ``ruin._loss_top`` and the like), so a rename there
would otherwise only show at the next measurement.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, str(ROOT / "benchmarks" / script), *args],
                          cwd=ROOT, env=env, check=True, capture_output=True, text=True).stdout


def test_bench_kernels_quick_without_label_writes_nothing():
    committed = (ROOT / "BENCH_kernels.json").read_bytes()
    out = _run("bench_kernels.py", "--quick")
    assert "interferer stage" in out and "sample_revenues" in out
    assert (ROOT / "BENCH_kernels.json").read_bytes() == committed


def test_bench_analytic_writes_its_run(tmp_path):
    path = tmp_path / "bench.json"
    _run("bench_analytic.py", "--label", "smoke", "--repeats", "1", "--out", str(path))
    run = json.loads(path.read_text())["runs"]["smoke"]
    assert run["repeats"] == 1 and "reference" in run["scenarios"]
    # every stage is timed inside one pipeline call: a production function
    # that is renamed or no longer called reads 0
    for name, scenario in run["scenarios"].items():
        if "refused" in scenario:
            continue
        ms = scenario["median_ms"]
        assert all(v > 0 for v in ms.values()), (name, ms)
        # chernoff_edges runs inside compound; each value is rounded to 1 us
        outside = sum(v for k, v in ms.items() if k not in ("chernoff_edges", "pipeline"))
        assert ms["chernoff_edges"] <= ms["compound"], (name, ms)
        assert outside <= ms["pipeline"] + 0.0005 * len(ms), (name, ms)
