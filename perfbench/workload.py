"""One workload in its own process: a closed loop with one client.

Run by run.py, never directly:
    python perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
                                 --tmp DIR --result FILE [--smoke] [--setup-only]

The loop keeps starting operations until --seconds have passed; each
operation's output is checked outside its timed region.  With --trace 1
operations alternate between untraced and traced, so the tracing overhead is
measured in the same process.  The result, including the monotonic time at
which the first timed operation started (setup ends there), goes to --result
as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
U_VALUES = (100.0, 150.0, 200.0, 250.0, 300.0)
U_ARG = ",".join(f"{u:g}" for u in U_VALUES)

# Scenario = reference config plus section-level overrides.  Five of them
# are refused by the program at the parent of this benchmark (multi-slot and
# clamps [0.1, 100]: AccuracyError from the expansion; w_n 0.05:
# ResourceLimitError; lattice step 1100/4096 and fee 300: compound mean
# identity); they stay in so that ok_share measures robustness.
MULTI_SLOT = {"durations": {"kind": "truncated-geometric", "mean": 2.0, "tau_max": 5}}
SCENARIOS = (
    ("reference", {}),
    ("pathloss-3", {"network": {"alpha_pathloss": 3.0}}),
    ("interest-0", {"financial": {"interest_rate_per_interval": 0.0}}),
    ("noise-0.01", {"network": {"sigma2_noise_power": 0.01}}),
    ("horizon-10", {"financial": {"horizon_intervals": 10}}),
    ("two-operators", {"financial": {"operator_fees": {"1": 100.0, "2": 60.0},
                                     "operator_mix": {"1": 0.5, "2": 0.5}}}),
    ("multi-slot", MULTI_SLOT),
    ("w_n-0.05", {"financial": {"w_n_geometric": 0.05}}),
    ("lattice-1100/4096", {"numerics": {"lattice_step": 1100 / 4096}}),
    ("fee-300", {"financial": {"operator_fees": {"1": 300.0}}}),
    ("clamps-0.1-100", {"financial": {"c_min": 0.1, "c_max": 100.0}}),
)
SMOKE_SCENARIOS = ("reference", "clamps-0.1-100")

# two full batches of the default 65,536, so work spread over batches can
# show, yet small enough that a run holds several call pairs
MC_SAMPLES = 2 * 65_536
SMOKE_MC_SAMPLES = 20_000
MC_WARMUP_SAMPLES = 4_096
SMOKE_MC_PATHS = 2_000


def build_config(seed: int, overrides: dict):
    """Reference config with overrides; the seed enters only as numerics.seed."""
    from microruin import model
    data = model.default_config().to_dict()
    for section, values in overrides.items():
        data[section].update(values)
    data["numerics"]["seed"] = seed
    return model.validate(model.ScenarioConfig.from_dict(data))


def env_info() -> dict:
    import numpy
    import scipy

    import microruin
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": getattr(microruin, "kernel_backend", "absent"),
        "microruin_path": os.path.dirname(microruin.__file__),
    }


class Loop:
    """Shared closed-loop runner; subclasses define setup() and one op()."""

    def __init__(self, args):
        self.args = args
        self.ops: list[dict] = []
        self.problems: list[str] = []
        self.traced_spans: list[list[dict]] = []
        self.absent: set[str] = set()
        self.report: dict = {}

    def run(self, min_ops: int):
        """Starts operations while the next one is expected to end in the window."""
        end = time.monotonic() + self.args.seconds
        walls = []
        while len(self.ops) < min_ops or time.monotonic() + statistics.median(walls) <= end:
            traced = bool(self.args.trace) and len(self.ops) % 2 == 1
            t0 = time.monotonic()
            rec = self.op(traced)
            walls.append(time.monotonic() - t0)
            rec["traced"] = traced
            self.ops.append(rec)

    @contextlib.contextmanager
    def tracing_in_process(self, traced: bool):
        """Wraps the program's functions for one operation when traced."""
        if not traced:
            yield
            return
        tracer = tracing.Tracer()
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()
            self.traced_spans.append(tracer.take())
            self.absent |= tracer.absent

    def result(self) -> dict:
        return {"ops": self.ops, "problems": self.problems, "report": self.report,
                "spans": self.traced_spans, "absent": sorted(self.absent),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


class AnalyticSweep(Loop):
    """One op = one pass of ruin.run_pipeline over every scenario."""

    def setup(self):
        from microruin import AccuracyError, ResourceLimitError, ruin
        self.ruin = ruin
        self.refusals = (AccuracyError, ResourceLimitError)
        names = SMOKE_SCENARIOS if self.args.smoke else [n for n, _ in SCENARIOS]
        # a fixed order: the solve time of a scenario depends on which
        # allocations the scenarios before it left behind
        self.scenarios = [(n, build_config(self.args.seed, dict(SCENARIOS)[n]))
                          for n in names]
        self.first_psi: dict = {}
        self.refused: dict = {}
        self.us = np.array(U_VALUES)
        self.ruin.run_pipeline(dict(self.scenarios)["reference"], self.us)  # warm-up

    def op(self, traced):
        rec = {"t": 0.0, "attempted": 0, "ok": 0, "failed": 0}
        with self.tracing_in_process(traced):
            self._solve_all(rec)
        rec["work"] = rec["ok"]
        return rec

    def _solve_all(self, rec):
        for name, cfg in self.scenarios:
            rec["attempted"] += 1
            t0 = time.perf_counter()
            try:
                result, _ = self.ruin.run_pipeline(cfg, self.us)
            except self.refusals as exc:
                self.refused[name] = type(exc).__name__
                continue
            except Exception as exc:  # any other error is a failed operation
                rec["failed"] += 1
                self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                rec["t"] += time.perf_counter() - t0
            problems = checks.check_psi_table(result.psi, len(self.us),
                                              cfg.financial.horizon_intervals, name)
            digest = result.psi.tobytes()
            if self.first_psi.setdefault(name, digest) != digest:
                problems.append(f"{name}: psi differs between repeated solves")
            if problems:
                rec["failed"] += 1
                self.problems += problems
            else:
                rec["ok"] += 1

    def result(self):
        self.report["refused"] = self.refused
        return super().result()


class McRevenue(Loop):
    """One op = two sample_revenues calls: the reference config, then multi-slot."""

    def setup(self):
        from microruin import montecarlo
        self.montecarlo = montecarlo
        self.n = SMOKE_MC_SAMPLES if self.args.smoke else MC_SAMPLES
        self.configs = {"reference": build_config(self.args.seed, {}),
                        "multi-slot": build_config(self.args.seed, MULTI_SLOT)}
        self.plans = {k: montecarlo.plan_from_config(c) for k, c in self.configs.items()}
        self.summaries = {k: [] for k in self.configs}
        for key, cfg in self.configs.items():  # warm-up
            montecarlo.sample_revenues(cfg, self.plans[key], MC_WARMUP_SAMPLES)

    def op(self, traced):
        rec = {"t": 0.0, "attempted": 0, "ok": 0, "failed": 0, "work": 0}
        with self.tracing_in_process(traced):
            self._sample_all(rec)
        return rec

    def _sample_all(self, rec):
        for key, cfg in self.configs.items():
            rec["attempted"] += 1
            t0 = time.perf_counter()
            try:
                v = self.montecarlo.sample_revenues(cfg, self.plans[key], self.n)
            except Exception as exc:  # any error is a failed operation
                rec["failed"] += 1
                self.problems.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            finally:
                rec["t"] += time.perf_counter() - t0
            self.summaries[key].append((len(self.ops), checks.revenue_summary(v)))
            rec["work"] += len(v)

    def result(self):
        """Checks every call against the analytic mean (after the loop, untimed)."""
        from microruin import moments
        for key, cfg in self.configs.items():
            expected = float(moments.revenue_moments(cfg).raw[0])
            support = cfg.income_support()
            first = None
            for op_index, summary in self.summaries[key]:
                problems, z, excess = checks.check_revenues(
                    summary, self.n, support, cfg.numerics.mc_batch, expected)
                first = first or summary["sha256"]
                if summary["sha256"] != first:
                    problems.append("revenues differ between calls with one seed")
                rec = self.ops[op_index]
                if problems:
                    rec["failed"] += 1
                    rec["work"] -= summary["n"]
                    self.problems += [f"{key}: {p}" for p in problems]
                else:
                    rec["ok"] += 1
                self.report[f"z_{key}"] = z
                self.report[f"support_excess_{key}"] = excess
        return super().result()


class RuinCli(Loop):
    """One op = one cold `python -m microruin.cli ... ruin` process."""

    def setup(self):
        self.cli_args = ["--out", None, "--set", f"numerics.seed={self.args.seed}"]
        if self.args.smoke:
            self.cli_args += ["--set", f"numerics.mc_paths={SMOKE_MC_PATHS}"]
        self.cli_args += ["ruin", "--u", U_ARG]
        self.first_csv = None
        self.gap = None

    def op(self, traced):
        i = len(self.ops)
        out = os.path.join(self.args.tmp, f"ruin-{i}")
        argv = list(self.cli_args)
        argv[1] = out
        spans_path = os.path.join(self.args.tmp, f"spans-{i}.json")
        if not traced:
            cmd = [sys.executable, "-m", "microruin.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, "--",
                   *argv]
        log_path = os.path.join(self.args.tmp, f"ruin-{i}.log")
        with open(log_path, "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            dt = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {"t": dt, "attempted": 1, "ok": 0, "failed": 0, "work": 0,
               "rss_mb": usage.ru_maxrss / 1024}
        if proc.returncode != 0:
            with open(log_path, "rb") as fh:
                tail = fh.read()[-400:].decode(errors="replace")
            problems = [f"exit code {proc.returncode}: {tail}"]
        else:
            problems, gap, data = checks.check_ruin_output(out, U_VALUES, horizon=5)
            self.first_csv = self.first_csv or data
            if data != self.first_csv:
                problems.append("ruin.csv differs between runs with one seed")
            if self.gap is None:
                self.gap = gap
        if traced and os.path.exists(spans_path):
            with open(spans_path) as fh:
                dump = json.load(fh)
            self.traced_spans.append(dump["spans"])
            self.absent |= set(dump["absent"])
        if problems:
            rec["failed"] = 1
            self.problems += problems
        else:
            rec["ok"] = rec["work"] = 1
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def result(self):
        out = super().result()
        out["peak_rss_mb"] = max((op["rss_mb"] for op in self.ops), default=0.0)
        if self.gap is not None:
            self.report["psi5_gap_max"] = self.gap
        return out


WORKLOADS = {"ruin-cli": RuinCli, "analytic-sweep": AnalyticSweep, "mc-revenue": McRevenue}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    loop = WORKLOADS[args.workload](args)
    loop.setup()
    first_op_at = time.monotonic()
    if args.setup_only:
        out = {"first_op_at": first_op_at}
    else:
        loop.run(min_ops=2 if args.trace else 1)
        out = loop.result()
        out["first_op_at"] = first_op_at
        out["env"] = env_info()
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
