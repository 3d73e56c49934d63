"""Per-layer tracing from outside the program.

The tracer replaces each traced function under the name its caller looks it
up by (``microruin.ruin.compound_geometric_pmf`` is what ``run_pipeline``
calls), records one span per call in memory (name, layer, start, end,
parent, error, counts) and restores the originals on ``uninstall``.  A name
that no longer exists is skipped and its metrics are reported as absent.

``summarize`` turns the spans of the traced operations into the per-layer
metrics; a layer's busy time is the sum of its spans' self times (span
duration minus the time covered by its child spans).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import re
import statistics
import time

LAYERS = ("import", "cli", "moments", "income_pdf", "compound", "ruin", "montecarlo",
          "kernels")


def _count_sanitize(args, result):
    return {"sanitized_mass": float(result.sanitized_mass)}


def _count_compound(args, result):
    return {"pre_trim_points": len(result.mass)}


def _count_recursion(args, result):
    pmfs = list(args["pmfs"])
    unique = {id(p): p for p in pmfs}.values()
    horizon = len(pmfs)
    # identical interval PMFs collapse to one forward pass; otherwise every
    # horizon l runs its own backward pass of l steps
    steps = horizon if len(unique) == 1 else horizon * (horizon + 1) // 2
    return {"post_trim_points": sum(len(p.mass) for p in unique),
            "grid_points": int(result.u_grid[2]), "steps": steps}


def _count_batch(args, result):
    return {"samples": int(args["n"])}


def _count_powsum(args, result):
    arrays = (args["x_sq"], args["marks"], args["offsets"], result)
    return {"points": len(args["x_sq"]), "bytes": sum(a.nbytes for a in arrays)}


def _count_ruin_step(args, result):
    names = ("phi_prev", "atom_pos", "atom_mass", "u_grid")
    return {"bytes": sum(args[k].nbytes for k in names) + result.nbytes}


# (layer, name the caller looks the function up by, counter)
TARGETS = (
    ("ruin", "microruin.ruin.run_pipeline", None),
    ("ruin", "microruin.ruin.interval_net_pmfs", None),
    ("ruin", "microruin.ruin.survival_recursion", _count_recursion),
    ("moments", "microruin.ruin.revenue_moments", None),
    ("income_pdf", "microruin.income_pdf.expand_density", None),
    ("income_pdf", "microruin.income_pdf.sanitize", _count_sanitize),
    ("compound", "microruin.ruin.discretize_income", None),
    ("compound", "microruin.ruin.net_profit_step_pmf", None),
    ("compound", "microruin.ruin.compound_geometric_pmf", _count_compound),
    ("montecarlo", "microruin.montecarlo.sample_revenues", None),
    ("montecarlo", "microruin.montecarlo.simulate_surplus_paths", None),
    # the per-batch sampler is where both MC routes draw revenues; it is the
    # only place the path simulator's sample count is visible from outside
    ("montecarlo", "microruin.montecarlo._revenue_batch", _count_batch),
    ("kernels", "microruin._kernels.interference_powsum", _count_powsum),
    ("kernels", "microruin._kernels.ruin_step", _count_ruin_step),
)

# metric -> the traced names it is computed from (absent when none exist)
_SOURCES = {
    "cli.self_s": ("microruin.cli.main",),
    "moments.calls": ("microruin.ruin.revenue_moments",),
    "income_pdf.sanitized_mass": ("microruin.income_pdf.sanitize",),
    "compound.fft_points": ("microruin.ruin.compound_geometric_pmf",),
    "compound.kept_ratio": ("microruin.ruin.compound_geometric_pmf",
                            "microruin.ruin.survival_recursion"),
    "ruin.grid_points": ("microruin.ruin.survival_recursion",),
    "ruin.steps": ("microruin.ruin.survival_recursion",),
    "montecarlo.samples": ("microruin.montecarlo._revenue_batch",),
    "montecarlo.us_per_sample": ("microruin.montecarlo._revenue_batch",),
    "kernels.interferer_points": ("microruin._kernels.interference_powsum",),
    "kernels.bytes_computed": ("microruin._kernels.interference_powsum",
                               "microruin._kernels.ruin_step"),
}

IMPORT_MODULES = {
    "import.total_s": "microruin.cli",
    "import.microruin.moments_s": "microruin.moments",
    "import.microruin.ruin_s": "microruin.ruin",
}


def _resolve(dotted: str):
    """(owner, attribute) for a dotted name, or None when it does not exist."""
    parts = dotted.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:-1]:
            owner = getattr(owner, part, None)
        if owner is not None and callable(getattr(owner, parts[-1], None)):
            return owner, parts[-1]
        return None
    return None


class Tracer:
    """Spans of wrapped calls, kept in memory until ``take``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[dict] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._saved: list = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        rec = {"name": name, "layer": layer,
               "parent": self._stack[-1] if self._stack else -1,
               "start": time.perf_counter(), "end": None, "error": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, layer, counter, original):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, layer) as rec:
                result = original(*args, **kwargs)
                if counter is not None:
                    try:
                        rec["counts"] = counter(signature.bind(*args, **kwargs).arguments,
                                                result)
                    except (AttributeError, KeyError, TypeError, IndexError) as exc:
                        rec["count_error"] = repr(exc)
                return result
        return traced

    def install(self):
        for layer, dotted, counter in self.targets:
            found = _resolve(dotted)
            if found is None:
                self.absent.add(dotted)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(dotted, layer, counter, original))
            self._saved.append((owner, attr, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[dict]:
        spans, self.spans = self.spans, []
        return spans

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.take(), "absent": sorted(self.absent)}, fh)


def _tree(spans):
    """Self time per span, and the root span index of each span."""
    self_t = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            self_t[s["parent"]] -= s["end"] - s["start"]
    roots = []
    for i, s in enumerate(spans):
        roots.append(i if s["parent"] < 0 else roots[s["parent"]])
    return self_t, roots


def _originated(spans, i):
    """The span raised and none of its children did (the error started here)."""
    if spans[i]["error"] is None:
        return False
    return not any(s["parent"] == i and s["error"] for s in spans)


def summarize(ops: list[list[dict]], op_walls: list[float], absent) -> tuple[dict, dict]:
    """Per-layer metrics, averaged per traced operation, and layer shares.

    ops holds the spans of each traced operation, op_walls its wall time.
    Returns (metrics, shares) where shares maps each layer (plus "other")
    to its fraction of the mean traced operation wall time.
    """
    n_ops = max(len(ops), 1)
    # a counter that no longer fits the program's signature makes its
    # metrics absent, like a missing name
    absent = set(absent) | {s["name"] for spans in ops for s in spans if "count_error" in s}
    busy = dict.fromkeys(LAYERS, 0.0)
    fails = dict.fromkeys(LAYERS, 0)
    moments_calls = 0
    sanitized, fft_points, grid_points, steps = [], [], [], []
    pre_total = post_total = 0
    samples = points = nbytes = 0
    mc_inclusive = 0.0
    for spans in ops:
        self_t, roots = _tree(spans)
        pre_by_root, post_by_root = {}, {}
        for i, s in enumerate(spans):
            layer, counts = s["layer"], s["counts"]
            busy[layer] += self_t[i]
            fails[layer] += _originated(spans, i)
            moments_calls += layer == "moments"
            if layer == "montecarlo" and (s["parent"] < 0
                                          or spans[s["parent"]]["layer"] != "montecarlo"):
                mc_inclusive += s["end"] - s["start"]
            if "sanitized_mass" in counts:
                sanitized.append(counts["sanitized_mass"])
            if "pre_trim_points" in counts:
                fft_points.append(counts["pre_trim_points"])
                pre_by_root[roots[i]] = pre_by_root.get(roots[i], 0) + counts["pre_trim_points"]
            if "post_trim_points" in counts:
                post_by_root[roots[i]] = post_by_root.get(roots[i], 0) + counts["post_trim_points"]
                grid_points.append(counts["grid_points"])
                steps.append(counts["steps"])
            samples += counts.get("samples", 0)
            points += counts.get("points", 0)
            nbytes += counts.get("bytes", 0)
        # pair pre- and post-trim sizes within solves that reached the recursion
        for root, post in post_by_root.items():
            pre_total += pre_by_root.get(root, 0)
            post_total += post

    def mean(xs):
        return float(statistics.fmean(xs)) if xs else 0.0

    metrics = {f"{layer}.busy_s": busy[layer] / n_ops for layer in LAYERS if layer != "import"}
    metrics["cli.self_s"] = metrics.pop("cli.busy_s")
    metrics.update({
        "moments.calls": moments_calls / n_ops,
        "income_pdf.sanitized_mass": max(sanitized, default=0.0),
        "income_pdf.failed": fails["income_pdf"] / n_ops,
        "compound.fft_points": mean(fft_points),
        "compound.kept_ratio": post_total / pre_total if pre_total else 0.0,
        "compound.failed": fails["compound"] / n_ops,
        "ruin.grid_points": mean(grid_points),
        "ruin.steps": mean(steps),
        "montecarlo.samples": samples / n_ops,
        "montecarlo.us_per_sample": 1e6 * mc_inclusive / samples if samples else 0.0,
        "kernels.interferer_points": points / n_ops,
        "kernels.bytes_computed": nbytes / n_ops,
    })
    layer_targets = {}
    for layer, dotted, _ in TARGETS:
        layer_targets.setdefault(layer, []).append(dotted)
    for layer, names in layer_targets.items():
        if all(name in absent for name in names):
            metrics = {k: v for k, v in metrics.items() if not k.startswith(layer + ".")}
    for metric, names in _SOURCES.items():
        if all(name in absent for name in names):
            metrics.pop(metric, None)

    wall = mean(op_walls) or 1.0
    shares = {layer: busy[layer] / n_ops / wall for layer in LAYERS}
    shares["other"] = max(0.0, 1.0 - sum(shares.values()))
    return metrics, shares


_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def parse_importtime(stderr_text: str) -> dict:
    """Cumulative import seconds of the modules in IMPORT_MODULES."""
    cumulative = {}
    for line in stderr_text.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            cumulative[match.group(2)] = int(match.group(1)) * 1e-6
    return {metric: cumulative[module] for metric, module in IMPORT_MODULES.items()
            if module in cumulative}
