"""Tests of the benchmark itself, on tiny sizes (--smoke).

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ruin-cli", "analytic-sweep", "mc-revenue")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "11", "--seconds", "0.5",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    report = "\n".join(lines[:-1])
    if trace:
        assert "dominant layer:" in report and "prediction" in report
    else:
        named = {"ruin-cli": ["ruin_cli_s", "psi5_gap_max"],
                 "analytic-sweep": ["solves_per_s", "refused scenarios"],
                 "mc-revenue": ["revenue_samples_per_s", "mean z"]}[workload]
        for name in named + ["setup_s", "peak_rss_mb", "failed_share"]:
            assert name in report
        assert " s " in report and " MB" in report and " 1/s" in report


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", "ruin-cli", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def ruin_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("ruin")
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-m", "microruin.cli", "--out", str(out),
                    "--set", "numerics.mc_paths=2000", "ruin", "--u", "100,150,200,250,300"],
                   env=env, check=True, capture_output=True, timeout=170)
    return out


U = (100.0, 150.0, 200.0, 250.0, 300.0)


def _rewrite(out, edit, rehash=True):
    """Apply edit(table) to ruin.csv; rehash keeps manifest.json consistent."""
    header, table, _ = checks.read_ruin_csv(str(out))
    edit(table)
    text = ",".join(header) + "\n" + "".join(
        ",".join(format(x, ".12g") for x in row) + "\n" for row in table)
    (out / "ruin.csv").write_text(text)
    if not rehash:
        return
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"]["ruin.csv"] = hashlib.sha256(text.encode()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))


def test_ruin_output_accepted(ruin_out):
    problems, gap, _ = checks.check_ruin_output(str(ruin_out), U, horizon=5)
    assert problems == []
    assert 0.0 < gap < 1.0


@pytest.mark.parametrize("corruption, message", [
    ("bytes", "sha256"),
    ("psi_range", "outside [0, 1]"),
    ("monotone_u", "increases with initial capital"),
    ("monotone_l", "decreases with the horizon"),
    ("mc_ci", "confidence interval"),
    ("rows", "rows"),
])
def test_ruin_output_corruption_rejected(ruin_out, tmp_path, corruption, message):
    out = tmp_path / "out"
    shutil.copytree(ruin_out, out)
    if corruption == "bytes":
        _rewrite(out, lambda t: t.__setitem__((0, 2), t[0, 2] * (1 + 1e-9)), rehash=False)
    elif corruption == "psi_range":
        _rewrite(out, lambda t: t.__setitem__((0, 2), 1.5))
    elif corruption == "monotone_u":
        _rewrite(out, lambda t: t.__setitem__((1, 2), t[0, 2] + 0.01))
    elif corruption == "monotone_l":
        _rewrite(out, lambda t: t.__setitem__((24, 2), 0.0))
    elif corruption == "mc_ci":
        _rewrite(out, lambda t: t.__setitem__((0, 3), t[0, 5] + 0.01))
    else:
        lines = (out / "ruin.csv").read_text().splitlines(keepends=True)
        (out / "ruin.csv").write_text("".join(lines[:-1]))
    problems, _, _ = checks.check_ruin_output(str(out), U, horizon=5)
    assert any(message in p for p in problems), problems


def test_psi_table_checks():
    good = np.array([[0.2, 0.1], [0.3, 0.2]])
    assert checks.check_psi_table(good, 2, 2) == []
    assert checks.check_psi_table(good[::-1], 2, 2)
    assert checks.check_psi_table(np.array([[0.2, np.nan], [0.3, 0.2]]), 2, 2)


def test_revenue_checks_reject_corruption():
    rng = np.random.default_rng(5)
    v = rng.uniform(0.0, 10.0, 10_000)
    ok = checks.revenue_summary(v)
    problems, z, _ = checks.check_revenues(ok, len(v), (0.0, 10.0), 65536, 5.0)
    assert problems == [] and abs(z) < 4
    assert checks.check_revenues(ok, len(v), (0.0, 10.0), 65536, 5.5)[0]  # mean off
    outside = v.copy()
    outside[0] = 10.5
    assert checks.check_revenues(checks.revenue_summary(outside), len(v), (0.0, 10.0),
                                 65536, 5.0)[0]
    bad = v.copy()
    bad[3] = np.nan
    assert checks.check_revenues(checks.revenue_summary(bad), len(v), (0.0, 10.0),
                                 65536, 5.0)[0]
    assert checks.check_revenues(ok, len(v) + 1, (0.0, 10.0), 65536, 5.0)[0]


def _span(layer, start, end, parent, counts=None, error=None):
    return {"name": layer, "layer": layer, "start": start, "end": end, "parent": parent,
            "error": error, "counts": counts or {}}


def test_self_time_is_span_minus_children():
    spans = [_span("ruin", 0.0, 10.0, -1),
             _span("compound", 1.0, 4.0, 0, {"pre_trim_points": 100}, error="AccuracyError"),
             _span("kernels", 2.0, 3.0, 1, {"points": 7, "bytes": 56}),
             _span("ruin", 5.0, 6.0, 0, {"post_trim_points": 20, "grid_points": 9,
                                         "steps": 5})]
    metrics, shares = tracing.summarize([spans], [10.0], absent=set())
    assert metrics["ruin.busy_s"] == pytest.approx(6.0 + 1.0)
    assert metrics["compound.busy_s"] == pytest.approx(2.0)
    assert metrics["kernels.busy_s"] == pytest.approx(1.0)
    assert metrics["compound.failed"] == 1
    assert metrics["compound.kept_ratio"] == pytest.approx(0.2)
    assert metrics["kernels.interferer_points"] == 7
    assert shares["other"] == pytest.approx(0.0)


def test_missing_names_are_reported_absent():
    missing = (("kernels", "microruin._no_such_module.fn", None),
               ("ruin", "microruin.ruin.no_such_function", None))
    tracer = tracing.Tracer(targets=missing)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {name for _, name, _ in missing}
    gone = {name for layer, name, _ in tracing.TARGETS if layer == "kernels"}
    metrics, _ = tracing.summarize([[]], [1.0], absent=gone)
    assert not any(k.startswith("kernels.") for k in metrics)
    assert "ruin.busy_s" in metrics


def test_wrapping_is_undone():
    from microruin import ruin
    original = ruin.compound_geometric_pmf
    tracer = tracing.Tracer()
    tracer.install()
    assert ruin.compound_geometric_pmf is not original
    tracer.uninstall()
    assert ruin.compound_geometric_pmf is original
