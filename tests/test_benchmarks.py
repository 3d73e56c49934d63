"""The benchmark scripts in ``benchmarks/`` run to the end, and the
benchmark's tracer still reaches every layer it measures.

Both scripts reach into private sampler and recursion names
(``_revenue_batch``, ``_uniform_field_sums``, ``ruin._loss_top`` and the
like), and ``perfbench/tracing.py`` wraps program functions by their dotted
names and reads their parameters and results, so a rename there would
otherwise only show at the next measurement.
"""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import time

from microruin import model, montecarlo, ruin

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, str(ROOT / "benchmarks" / script), *args],
                          cwd=ROOT, env=env, check=True, capture_output=True, text=True).stdout


def test_bench_kernels_quick_without_label_writes_nothing():
    committed = (ROOT / "BENCH_kernels.json").read_bytes()
    out = _run("bench_kernels.py", "--quick")
    assert "interferer stage" in out and "sample_revenues" in out and "surplus_paths" in out
    assert (ROOT / "BENCH_kernels.json").read_bytes() == committed


def test_bench_analytic_writes_its_run(tmp_path):
    path = tmp_path / "bench.json"
    _run("bench_analytic.py", "--label", "smoke", "--repeats", "1", "--out", str(path))
    run = json.loads(path.read_text())["runs"]["smoke"]
    assert run["repeats"] == 1 and "reference" in run["scenarios"]
    # every stage is timed inside one pipeline call: a production function
    # that is renamed is recorded as absent, and one no longer called reads 0
    assert run["absent_targets"] == []
    for name, scenario in run["scenarios"].items():
        if "refused" in scenario:
            continue
        ms = scenario["median_ms"]
        assert all(v > 0 for v in ms.values()), (name, ms)
        # chernoff_edges runs inside compound and the loss bound; each value
        # is rounded to 1 us
        outside = sum(v for k, v in ms.items() if k not in ("chernoff_edges", "pipeline"))
        assert ms["chernoff_edges"] <= ms["compound"] + ms["loss_bound"] + 0.001, (name, ms)
        assert outside <= ms["pipeline"] + 0.0005 * len(ms), (name, ms)
        # the Chernoff searches are counted: the loss bound's lower edge, the
        # two window edges (no upper one when the step PMF has no atom above
        # 0) and the loss top, each at least one CGF call
        assert len(scenario["cgf_per_search"]) in (3, 4), (name, scenario)
        assert scenario["fft_calls"]["rfft"] > scenario["fft_calls"]["irfft"] > 0
        assert min(scenario["cgf_per_search"]) >= 1
        assert scenario["cgf_evaluations"] == sum(scenario["cgf_per_search"])
    assert run["cgf_evaluations"] == sum(s.get("cgf_evaluations", 0)
                                         for s in run["scenarios"].values())


def test_bench_cli_writes_its_run(tmp_path):
    path = tmp_path / "bench.json"
    _run("bench_cli.py", "--src", f"smoke={ROOT / 'src'}", "--repeats", "1", "--out", str(path))
    run = json.loads(path.read_text())["runs"]["smoke"]
    assert run["repeats"] == 1
    assert set(run["commands"]) == {"python -c pass", "import numpy", "validate",
                                    "ruin --no-mc", "ruin", "reproduce-tables --fast"}
    for command in run["commands"].values():
        assert all(0 < command[k]["q1"] <= command[k]["median"] <= command[k]["q3"]
                   for k in ("wall_s", "cpu_s", "peak_rss_mb")), command


def _perfbench_tracing():
    """``perfbench/tracing.py`` as a module of its own, left unregistered."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_reaches_every_layer():
    tracing = _perfbench_tracing()
    cfg = model.validate(model.default_config())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        ruin.run_pipeline(cfg, [100.0, 150.0, 200.0, 250.0, 300.0])
        montecarlo.sample_revenues(cfg, cfg.numerics, 4096)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    spans = tracer.take()
    assert [s["name"] for s in spans if "count_error" in s] == []
    # the recursion's per-atom step left src for the tests
    assert tracer.absent == {"microruin._kernels.ruin_step"}
    metrics, _ = tracing.summarize([spans], [wall], tracer.absent)
    wanted = _traced_metrics()
    missing = [name for name in wanted if name not in metrics]
    assert missing == []
    assert all(math.isfinite(metrics[name]) for name in wanted), metrics


def _traced_metrics():
    """The per-layer metrics a traced operation gives: import.* comes from a
    separate process and trace.* from paired runs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]
            if not m["name"].startswith(("import.", "trace."))]


def test_traced_cli_reaches_every_layer(tmp_path):
    # the test above never enters cli.main, so its cli.self_s reads 0; the
    # ruin-cli workload runs the CLI through perfbench/traced_cli.py
    data = model.default_config().to_dict()
    data["numerics"]["mc_paths"] = 2_000
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans_path),
                    "--", "--config", str(config), "--out", str(tmp_path / "o"), "ruin",
                    "--u", "100"], cwd=ROOT, env=env, check=True, capture_output=True)
    dump = json.loads(spans_path.read_text())
    spans = dump["spans"]
    assert [s["name"] for s in spans if "count_error" in s] == []
    wall = sum(s["end"] - s["start"] for s in spans if s["layer"] == "cli")
    metrics, _ = _perfbench_tracing().summarize([spans], [wall], dump["absent"])
    assert all(math.isfinite(metrics.get(name, math.nan)) for name in _traced_metrics()), metrics
    assert metrics["cli.self_s"] > 0
