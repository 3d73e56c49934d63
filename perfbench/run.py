#!/usr/bin/env python3
"""microruin benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload ruin-cli --seed 7 --seconds 30 --trace 0

Workloads (each runs in its own fresh child process as a closed loop with
one client; the seed reaches the program only as numerics.seed):

  ruin-cli        cold `python -m microruin.cli --out DIR --set numerics.seed=SEED
                  ruin --u 100,150,200,250,300` on the reference config, one
                  process at a time (import + analytic pipeline + 20k MC paths).
  analytic-sweep  ruin.run_pipeline over 11 fixed scenarios around the
                  reference; MC is never touched.
  mc-revenue      montecarlo.sample_revenues with 131,072 samples per call,
                  alternating the reference and a multi-slot config.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json:
  setup_s      median set-up time: cold `microruin.cli validate` processes on
               ruin-cli; child start to first timed operation (import, configs,
               one warm-up) on the other two.
  work_per_s   median per operation of completed work per second: `ruin` runs
               on ruin-cli, successful solves on analytic-sweep (time spent on
               refused scenarios counts), revenue samples on mc-revenue.
  peak_rss_mb  peak RSS of the process(es) running the program.
  ok_share     operations that completed and passed their checks / attempted.
--trace 1 alternates untraced and traced operations and prints the per-layer
metrics plus the tracing overhead.  Lines before the last one are a
human-readable report; the last line is the JSON result.  --smoke shrinks
every size for the benchmark's own tests.

Outputs go to a temporary directory under .perfbench_tmp/ in the checkout,
which is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOADS = ("ruin-cli", "analytic-sweep", "mc-revenue")
SETUP_PROBES = 2          # extra set-up measurements besides the main child
IMPORT_PROBES = 3
DEADLINE_S = 170.0        # the whole run, set-up and checks included

# layers predicted to dominate each workload (and their least share of an
# operation), and layers predicted to stay idle on it
PREDICTIONS = {
    "ruin-cli": (("montecarlo", "kernels"), 0.5, ()),
    "analytic-sweep": (("compound", "ruin"), 0.75, ("cli", "montecarlo", "kernels")),
    "mc-revenue": (("montecarlo", "kernels"), 0.9,
                   ("cli", "moments", "income_pdf", "compound", "ruin")),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def l3_cache() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                if fh.read().strip() == "3":
                    with open(os.path.join(base, index, "size")) as fh:
                        return fh.read().strip()
    except OSError:
        pass
    return "unknown"


def child_env(tmp: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MICRORUIN_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = tmp
    # one client, one thread: with a BLAS pool of nproc threads the analytic
    # pass burns 60% more CPU time in spin-waits for the same wall time, and
    # its wall time then depends on whether the second CPU is free
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd, env, log_path, deadline):
    """Runs cmd to its end; returns (exit code, seconds from spawn, spawn time).

    The child leads a new process group, which is killed at the deadline.
    """
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(deadline - t0, 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, time.monotonic() - t0, t0


def _log_tail(path: str) -> str:
    with open(path, "rb") as fh:
        return fh.read()[-800:].decode(errors="replace")


class ChildError(RuntimeError):
    pass


class Bench:
    def __init__(self, args, tmp):
        self.args = args
        self.tmp = tmp
        self.env = child_env(tmp)
        self.deadline = time.monotonic() + DEADLINE_S
        self.counter = 0

    def _path(self, stem: str) -> str:
        self.counter += 1
        return os.path.join(self.tmp, f"{stem}-{self.counter}")

    def run_workload(self, setup_only: bool = False) -> tuple[dict, float]:
        """Runs workload.py in a fresh process; returns (its result, spawn time)."""
        result_path = self._path("result") + ".json"
        log_path = self._path("workload") + ".log"
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--tmp", self.tmp, "--result", result_path]
        cmd += ["--smoke"] * a.smoke + ["--setup-only"] * setup_only
        code, _, t0 = spawn(cmd, self.env, log_path, self.deadline)
        if code != 0:
            raise ChildError(f"workload process exited {code}:\n{_log_tail(log_path)}")
        with open(result_path) as fh:
            return json.load(fh), t0

    def setup_times(self) -> list[float]:
        probes = 1 if self.args.smoke else SETUP_PROBES
        if self.args.workload == "ruin-cli":
            cmd = [sys.executable, "-m", "microruin.cli", "--set",
                   f"numerics.seed={self.args.seed}", "validate"]
            times = []
            for _ in range(probes + 1):
                log_path = self._path("validate") + ".log"
                code, seconds, _ = spawn(cmd, self.env, log_path, self.deadline)
                if code != 0:
                    raise ChildError(f"`validate` exited {code}:\n{_log_tail(log_path)}")
                times.append(seconds)
            return times
        times = []
        for _ in range(probes):
            result, t0 = self.run_workload(setup_only=True)
            times.append(result["first_op_at"] - t0)
        return times

    def import_times(self) -> dict:
        cmd = [sys.executable, "-X", "importtime", "-c", "import microruin.cli"]
        samples: dict[str, list] = {}
        for _ in range(1 if self.args.smoke else IMPORT_PROBES):
            log_path = self._path("importtime") + ".log"
            code, _, _ = spawn(cmd, self.env, log_path, self.deadline)
            if code != 0:
                raise ChildError(f"import probe exited {code}:\n{_log_tail(log_path)}")
            with open(log_path, errors="replace") as fh:
                for key, value in tracing.parse_importtime(fh.read()).items():
                    samples.setdefault(key, []).append(value)
        return {key: statistics.median(values) for key, values in samples.items()}


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    ops = [op for op in result["ops"] if not op["traced"]]
    attempted = sum(op["attempted"] for op in result["ops"])
    ok = sum(op["ok"] for op in result["ops"])
    times = [op["t"] for op in ops]
    metrics = {
        "setup_s": _median(setups),
        "work_per_s": _median([op["work"] / op["t"] for op in ops]),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": ok / attempted,
    }
    report = result["report"]
    lines = [f"setup_s              {metrics['setup_s']:.4f} s   (median of "
             f"{', '.join(f'{t:.3f}' for t in setups)})",
             f"operation times (s)  {', '.join(f'{t:.3f}' for t in times)}"]
    workload = result["workload"]
    if workload == "ruin-cli":
        lines.append(f"ruin_cli_s           {_median(times):.4f} s   (median of {len(times)} runs)")
        gap = report.get("psi5_gap_max")
        lines.append(f"psi5_gap_max         {gap:.6f} 1     (max_u |psi_num - psi_mc| at l=5)"
                     if gap is not None else "psi5_gap_max         absent (no valid ruin.csv)")
    elif workload == "analytic-sweep":
        lines.append(f"solves_per_s         {metrics['work_per_s']:.4f} 1/s "
                     f"(median of {len(ops)} passes of {ops[0]['attempted']} scenarios)")
        refused = report.get("refused", {})
        if refused:
            lines.append("refused scenarios    " + ", ".join(f"{k} ({v})"
                                                        for k, v in sorted(refused.items())))
    else:
        lines.append(f"revenue_samples_per_s {metrics['work_per_s']:.1f} 1/s "
                     f"(median of {len(ops)} call pairs)")
        for key in ("reference", "multi-slot"):
            if f"z_{key}" in report:
                lines.append(f"mean z ({key:10s})  {report[f'z_{key}']:+.3f} SE; largest "
                             f"excursion beyond the income support "
                             f"{report[f'support_excess_{key}']:.3g}")
    lines.append(f"peak_rss_mb          {metrics['peak_rss_mb']:.1f} MB")
    lines.append(f"failed_share         {attempted - ok}/{attempted} = "
                 f"{(attempted - ok) / attempted:.4f} 1")
    lines.append(f"ok_share             {metrics['ok_share']:.4f} 1")
    return metrics, lines


def per_layer(result: dict, imports: dict) -> tuple[dict, list[str]]:
    traced = [op for op in result["ops"] if op["traced"]]
    plain = [op for op in result["ops"] if not op["traced"]]
    metrics, shares = tracing.summarize(result["spans"], [op["t"] for op in traced],
                                        set(result["absent"]))
    metrics.update(imports)
    t_traced, t_plain = _median([op["t"] for op in traced]), _median([op["t"] for op in plain])
    metrics["trace.overhead_s"] = t_traced - t_plain
    metrics["trace.overhead_share"] = (t_traced - t_plain) / t_plain
    lines = [f"traced {len(traced)} and untraced {len(plain)} operations; median op "
             f"{t_traced:.4f} s traced vs {t_plain:.4f} s untraced"]
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    lines.append("layer shares of a traced operation: "
                 + ", ".join(f"{k} {v:.1%}" for k, v in ranked if v > 0.0005))
    dominant = ranked[0][0]
    lines.append(f"dominant layer: {dominant} ({shares[dominant]:.1%})")
    group, least, idle = PREDICTIONS[result["workload"]]
    share = sum(shares[layer] for layer in group)
    verdict = "holds" if share >= least else "CONTRADICTED"
    lines.append(f"prediction {'+'.join(group)} >= {least:.0%} of an operation: "
                 f"{verdict} ({share:.1%})")
    busy_idle = [layer for layer in idle if shares[layer] > 0.0]
    if idle:
        lines.append(f"prediction idle {', '.join(idle)}: "
                     + (f"CONTRADICTED (busy: {', '.join(busy_idle)})" if busy_idle
                        else "holds"))
    if dominant not in group and dominant != "other":
        lines.append(f"dominant layer {dominant} CONTRADICTS the predicted {'+'.join(group)}")
    if result["absent"]:
        lines.append("absent (traced name no longer exists): " + ", ".join(result["absent"]))
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "microruin", "__init__.py")):
        print(f"perfbench: no microruin sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            bench = Bench(args, tmp)
            setups = bench.setup_times()
            imports = bench.import_times() if args.trace else {}
            result, t0 = bench.run_workload()
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    result["workload"] = args.workload
    if args.workload != "ruin-cli":
        setups.append(result["first_op_at"] - t0)

    env = result["env"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} operations={len(result['ops'])}")
    print(f"env: nproc={nproc()} L3={l3_cache()} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          f"kernel_backend={env['kernel_backend']} blas_threads=1")
    if args.trace:
        values, lines = per_layer(result, imports)
    else:
        values, lines = end_to_end(result, setups)
    for line in lines:
        print(line)
    for problem in result["problems"][:20]:
        print(f"CHECK FAILED: {problem}")

    metrics = {}
    for entry in wanted:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
            print(f"  {entry['name']:28s} {values[entry['name']]:.6g} {entry['unit']}")
        else:
            print(f"  {entry['name']:28s} absent")
    attempted = sum(op["attempted"] for op in result["ops"])
    failed = sum(op["failed"] for op in result["ops"])
    print(json.dumps({"correct": failed == 0 and not result["problems"],
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
