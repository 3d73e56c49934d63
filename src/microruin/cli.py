"""Command-line interface: one subcommand per pipeline stage plus sweeps and
table reproduction.

Outputs are CSV files ('.' decimal separator, header row, LF line endings)
written to --out together with a manifest.json recording the config hash,
package version, seed, timestamps, per-stage tolerances achieved, and a
sha256 for every emitted file.  Identical config and seed give byte-identical
CSV outputs.

Exit codes: 0 success, 2 configuration errors (reported with field paths)
or bad argument values (named by argparse), 3 accuracy/resource errors.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import gc
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from . import __version__, compound, income_pdf, model, montecarlo, moments, ruin
from .errors import AccuracyError, ConfigError, DomainError, MicroruinError, ResourceLimitError


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


@dataclass
class RunManifest:
    """Provenance record tying every output file to its producing run."""

    config_hash: str
    seed: int
    command: str
    package_version: str = __version__
    started_utc: str = ""
    finished_utc: str = ""
    tolerances_achieved: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    # point masses of the income law at the support ends (income-pdf only)
    income_atoms: dict = field(default_factory=dict)
    # the Monte Carlo campaign's interferer truncation (ruin and simulate)
    mc: dict = field(default_factory=dict)

    def write(self, out_dir: str):
        self.finished_utc = _now()
        with _atomic_open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(self.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@contextlib.contextmanager
def _atomic_open(path: str, mode: str):
    """A temp file beside ``path`` that replaces it only once fully written;
    on any error the temp file goes and ``path`` is left as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(out_dir: str, name: str, header, rows, manifest: RunManifest):
    """Atomic CSV write; registers the file hash in the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_fmt(x) for x in row) + "\n"
    data = text.encode()
    with _atomic_open(os.path.join(out_dir, name), "wb") as fh:
        fh.write(data)
    manifest.outputs[name] = hashlib.sha256(data).hexdigest()


def _moment_rows(interval: int, *columns):
    """[interval, s, column[s - 1] of each column] for every moment order s."""
    return [[interval, s, *(c[s - 1] for c in columns)] for s in range(1, len(columns[0]) + 1)]


def _psi_rows(us, *tables):
    """[l, u, table[l - 1, j] of each table] for every horizon l and capital
    u = us[j]; each table has one row per horizon."""
    return [[l, u, *(t[l - 1, j] for t in tables)]
            for l in range(1, len(tables[0]) + 1) for j, u in enumerate(us)]


def _ecdf(samples, grid) -> np.ndarray:
    """The empirical CDF of ``samples`` at every grid point."""
    return np.searchsorted(np.sort(samples), grid, side="right") / len(samples)


def _capitals(args, cfg) -> np.ndarray:
    """The --u capitals, or else the config's initial capital."""
    return np.array(args.u or [cfg.financial.initial_capital], dtype=float)


def _apply_overrides(data: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError([(item, "override must look like path.to.field=value")])
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = dotted.split(".")
        for depth, part in enumerate(parts[:-1], start=1):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError([(".".join(parts[:depth]),
                                    "is a value, not a section: cannot set a field inside it")])
        node[parts[-1]] = value
    return data


def _overridden(cfg: model.ScenarioConfig, overrides) -> model.ScenarioConfig:
    """``cfg`` with every dotted ``path=value`` override applied, validated.
    An override of ``products.rates_bps`` replaces the config's rate gaps."""
    data = cfg.to_dict()
    if any(item.startswith("products.rates_bps=") for item in overrides or ()):
        del data["products"]["rate_gaps"]
    data = _apply_overrides(data, overrides)
    return model.validate(model.ScenarioConfig.from_dict(data))


def _arg_type(parse, expected: str):
    """An argparse type: a ValueError from ``parse`` exits 2 naming the argument."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
    return convert


def _finite(parts) -> list[float]:
    values = [float(x) for x in parts]
    if not np.isfinite(values).all():
        raise ValueError(parts)
    return values


def _at_least(low, value):
    if not value >= low:
        raise ValueError(value)
    return value


def _grid(text: str) -> np.ndarray:
    """The values START, START + STEP, ... up to STOP; more than
    ``compound.POINTS_BUDGET`` of them are refused before any is made."""
    start, stop, step = _finite(text.split(":"))
    if not (step > 0 and (stop + 1e-12 - start) / step <= compound.POINTS_BUDGET):
        raise ValueError(text)
    return np.arange(start, stop + 1e-12, step)


def _tables(text: str) -> set:
    which = set(_TABLES) if text == "all" else set(text.split(","))
    if which - set(_TABLES):
        raise ValueError(text)
    return which


_TABLES = ("tableII", "tableIII", "fig2", "fig3", "fig4")
_GRID = f"START:STOP:STEP, finite, STEP > 0, at most {compound.POINTS_BUDGET} points"
_NUMBERS = _arg_type(lambda text: _finite(text.split(",")), "comma-separated finite numbers")
_NUMBER = _arg_type(lambda text: _finite([text])[0], "a finite number")
_RATE = _arg_type(lambda text: _at_least(0.0, _finite([text])[0]), "a finite number >= 0")
_COUNT = _arg_type(lambda text: _at_least(1, int(text)), "an integer >= 1")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_validate(args, cfg, manifest):
    print("config ok")


def _cmd_moments(args, cfg, manifest):
    mv = moments.revenue_moments(cfg, interval_index=args.interval)
    _write_csv(args.out, "moments.csv", ["interval", "order", "value"],
               _moment_rows(args.interval, mv.raw), manifest)
    manifest.tolerances_achieved["quad_rel_tol"] = cfg.numerics.quad_rel_tol
    print(f"E[V] = {mv.raw[0]:.6g} (order-{mv.order} moments written)")


def _cmd_income_pdf(args, cfg, manifest):
    mv = moments.revenue_moments(cfg, interval_index=args.interval)
    # the support the moments (and their clamp atoms) were computed on
    v_lo, v_hi = cfg.income_support(args.interval)
    dens = income_pdf.sanitize(income_pdf.expand_density(mv, v_lo, v_hi))
    grid = np.linspace(v_lo, v_hi, args.points)
    pdf, cdf = dens.pdf(grid), dens.cdf(grid)
    if len(grid) > 1:
        # a weight exponent below 1 makes the density infinite at that support
        # edge; write the continuous part's mean density over the edge cell
        cell = np.diff(cdf)
        cell[-1] -= dens.atoms[1]
        cell /= np.diff(grid)
        pdf[0] = pdf[0] if np.isfinite(pdf[0]) else cell[0]
        pdf[-1] = pdf[-1] if np.isfinite(pdf[-1]) else cell[-1]
    _write_csv(args.out, "income_pdf.csv", ["v", "pdf", "cdf"], zip(grid, pdf, cdf), manifest)
    manifest.tolerances_achieved["sanitized_mass"] = dens.sanitized_mass
    manifest.income_atoms = {"v_lo": v_lo, "mass_lo": dens.atoms[0],
                             "v_hi": v_hi, "mass_hi": dens.atoms[1]}
    print(f"income density on [{v_lo:.6g}, {v_hi:.6g}], sanitized mass "
          f"{dens.sanitized_mass:.4g}")


def _pipeline_accuracy(info) -> dict:
    """The lattice step, the largest sanitized mass and fee rounding over the
    intervals, and per distinct interval the compound diagnostics and trim."""
    intervals = info["intervals"].values()
    return {"lattice_step": info["lattice_step"],
            "sanitized_mass": max(v["sanitized_mass"] for v in intervals),
            "fee_rounding": max((v["fee_rounding"] for v in intervals), key=abs),
            "compound": {str(i): v["compound"] for i, v in info["intervals"].items()},
            "trimmed_mass": {str(i): v["trimmed_mass"] for i, v in info["intervals"].items()}}


def _cmd_compound(args, cfg, manifest):
    horizon = cfg.financial.horizon_intervals
    if args.interval and args.interval > horizon:
        raise DomainError(f"--interval {args.interval} is past the horizon of {horizon} intervals")
    pmfs, info = ruin.interval_net_pmfs(cfg)
    rows = []
    for i, pmf in enumerate(pmfs, start=1):
        if args.interval and i != args.interval:
            continue
        for idx, val, mass in zip(pmf.indices(), pmf.values(), pmf.mass):
            rows.append((i, idx, val, mass))
    _write_csv(args.out, "compound.csv", ["interval", "index", "value", "mass"],
               rows, manifest)
    manifest.tolerances_achieved.update(_pipeline_accuracy(info))
    print(f"compound PMFs written (lattice step {info['lattice_step']:.6g})")


def _cmd_ruin(args, cfg, manifest):
    us = _capitals(args, cfg)
    result, info = ruin.run_pipeline(cfg, us)
    header = ["l", "u", "psi_numerical"]
    tables = [result.psi]
    if not args.no_mc:
        mc = montecarlo.simulate_surplus_paths(cfg, cfg.numerics, us)
        manifest.mc["far_field"] = montecarlo.far_field_summary(cfg)
        header += ["psi_mc", "ci_lo", "ci_hi"]
        tables += [mc.psi, mc.ci_lo, mc.ci_hi]
    _write_csv(args.out, "ruin.csv", header, _psi_rows(us, *tables), manifest)
    lo, step, points = result.u_grid
    manifest.tolerances_achieved.update(_pipeline_accuracy(info))
    manifest.tolerances_achieved["ruin_grid"] = {
        "grid_points": points, "grid_lo": lo,
        "grid_hi": (round(lo / step) + points - 1) * step, **result.diagnostics,
        "trim_bound": info["trim_bound"]}
    print(", ".join(f"psi_{l}({u:g})={psi:.4f}"
                    for l, u, psi in _psi_rows(us, result.psi)[-len(us):]))


# the paper's Figure 2 inputs, which are also expected-surplus's defaults
_FIG2 = {"evs": _grid("0:0.2:0.005"), "horizons": [1, 2, 3, 4, 5], "r": 0.05,
         "e_n": 100.0, "e_c": 0.1}


def _bound_rows(evs, horizons, r: float, e_n: float, e_c: float):
    """(n, E[V], u*) rows of the initial-capital bound over the E[V] values."""
    return [(n, ev, ruin.initial_capital_bound(r, n, e_n, ev, e_c))
            for n in horizons for ev in evs]


def _cmd_expected_surplus(args, cfg, manifest):
    rows = _bound_rows(args.ev_grid, args.horizons, args.r, args.e_n, args.e_c)
    _write_csv(args.out, "expected_surplus.csv", ["n", "e_v", "u_bound"], rows, manifest)
    print(f"{len(rows)} bound rows written")


def _cmd_simulate(args, cfg, manifest):
    plan = cfg.numerics
    manifest.mc["far_field"] = montecarlo.far_field_summary(cfg)
    if args.what == "moments":
        mv, se = montecarlo.estimate_moments(cfg, plan, interval_index=args.interval)
        _write_csv(args.out, "mc_moments.csv", ["interval", "order", "value", "se"],
                   _moment_rows(args.interval, mv.raw, se), manifest)
        print(f"MC E[V] = {mv.raw[0]:.6g} +- {se[0]:.2g}")
    elif args.what == "revenue-cdf":
        v = montecarlo.sample_revenues(cfg, plan, plan.mc_samples,
                                       interval_index=args.interval)
        v_lo, v_hi = cfg.income_support(args.interval)
        grid = np.linspace(v_lo, v_hi, args.points)
        _write_csv(args.out, "mc_revenue_cdf.csv", ["v", "ecdf"],
                   zip(grid, _ecdf(v, grid)), manifest)
        print(f"empirical CDF from {len(v)} samples written")
    else:  # paths
        us = _capitals(args, cfg)
        est = montecarlo.simulate_surplus_paths(cfg, plan, us)
        _write_csv(args.out, "mc_ruin.csv", ["l", "u", "psi", "ci_lo", "ci_hi"],
                   _psi_rows(us, est.psi, est.ci_lo, est.ci_hi), manifest)
        print(f"{plan.mc_paths} surplus paths simulated")


def _cmd_sweep(args, cfg, manifest):
    dotted, values = args.param
    rows = []
    integer = dotted in model.INTEGER_FIELDS
    for value in values:
        # an integer field takes whole grid values as ints (validation
        # refuses 4.0 there, as it refuses 4.5)
        text = int(value) if integer and float(value).is_integer() else float(value)
        point_cfg = _overridden(cfg, [f"{dotted}={text}"])
        mv = moments.revenue_moments(point_cfg, interval_index=1)
        sub = os.path.join(args.out, f"sweep_{dotted.replace('.', '_')}_{_fmt(value)}")
        sub_manifest = RunManifest(config_hash=point_cfg.config_hash(),
                                   seed=point_cfg.numerics.seed,
                                   command="sweep-point", started_utc=_now())
        _write_csv(sub, "moments.csv", ["interval", "order", "value"],
                   _moment_rows(1, mv.raw), sub_manifest)
        sub_manifest.write(sub)
        rows.append([value, *mv.raw])
    # a sweep of the moment order leaves the lower orders' rows short: nan
    width = max((len(row) for row in rows), default=cfg.numerics.moment_order + 1)
    rows = [row + [np.nan] * (width - len(row)) for row in rows]
    header = ["value"] + [f"moment_{s}" for s in range(1, width)]
    _write_csv(args.out, "sweep.csv", header, rows, manifest)
    print(f"{len(values)} sweep points done ({dotted})")


def _cmd_reproduce_tables(args, cfg, manifest):
    # the tables' configs override no numerics, so one plan serves them all
    plan = cfg.numerics
    narrow_clamps = ["financial.c_min=0.1", "financial.c_max=100.0"]

    if "tableII" in args.which:
        rows = []
        for beta in (0.01, 0.1, 1.0):
            row = [beta]
            for alpha in (3.0, 4.0):
                c2 = _overridden(cfg, [f"network.beta_cells_per_area={beta}",
                                       f"network.alpha_pathloss={alpha}", *narrow_clamps])
                ev = moments.revenue_moments(c2).raw[0]
                mc = float(np.mean(montecarlo.sample_revenues(c2, plan, plan.mc_samples)))
                row += [ev, mc]
            rows.append(row)
        _write_csv(args.out, "tableII.csv",
                   ["beta", "ev_num_alpha3", "ev_mc_alpha3", "ev_num_alpha4",
                    "ev_mc_alpha4"], rows, manifest)

    if "fig2" in args.which:
        _write_csv(args.out, "fig2.csv", ["n", "e_v", "u_bound"], _bound_rows(**_FIG2),
                   manifest)

    if "fig3" in args.which:
        rows = []
        for a_d in (10.0, 100.0):
            for alpha in np.arange(2.5, 5.001, 0.25):
                c3 = _overridden(cfg, [f"network.alpha_pathloss={float(alpha)}",
                                       *narrow_clamps, f"products.rate_gaps=[{a_d}]"])
                rows.append((a_d, alpha, moments.revenue_moments(c3).raw[0]))
        _write_csv(args.out, "fig3.csv", ["a_d", "alpha", "ev_num"], rows, manifest)

    if "fig4" in args.which or "tableIII" in args.which:
        c4 = _overridden(cfg, ["network.alpha_pathloss=4.0",
                               "network.beta_cells_per_area=0.1",
                               "financial.c_min=0.001", "financial.c_max=1000.0",
                               "financial.interest_rate_per_interval=0.05"])
        if "fig4" in args.which:
            mv = moments.revenue_moments(c4)
            v_lo, v_hi = c4.income_support()
            raw = income_pdf.expand_density(mv, v_lo, v_hi)
            v = montecarlo.sample_revenues(c4, plan, plan.mc_samples)
            grid = np.linspace(v_lo, min(v_hi, 1000.0), 501)
            sanitized = income_pdf.sanitize(raw, reject_mass=1.0)
            _write_csv(args.out, "fig4.csv",
                       ["v", "cdf_expansion_raw", "cdf_expansion_sanitized", "cdf_mc"],
                       zip(grid, raw.cdf(grid), sanitized.cdf(grid), _ecdf(v, grid)), manifest)
            manifest.tolerances_achieved["fig4_sanitized_mass"] = sanitized.sanitized_mass
        if "tableIII" in args.which:
            us = np.array([100.0, 150.0, 200.0, 250.0, 300.0])
            result, _ = ruin.run_pipeline(c4, us)
            est = montecarlo.simulate_surplus_paths(c4, plan, us)
            # the last horizon's rows, without their horizon column
            rows = [row[1:] for row in
                    _psi_rows(us, result.psi, est.psi, est.ci_lo, est.ci_hi)[-len(us):]]
            _write_csv(args.out, "tableIII.csv",
                       ["u", "psi5_numerical", "psi5_mc", "ci_lo", "ci_hi"],
                       rows, manifest)
    print("requested tables written to", args.out)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microruin",
        description="Small-cell sharing viability: analytic ruin pipeline and "
                    "Monte Carlo cross-validation",
    )
    parser.add_argument("--config", help="scenario config JSON (default: "
                        "$MICRORUIN_CONFIG or built-in reference defaults)")
    parser.add_argument("--set", action="append", metavar="PATH=VALUE",
                        help="dotted config override, e.g. network.alpha_pathloss=3.5")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="check the config and exit")

    p = sub.add_parser("moments", help="analytic revenue moments")
    p.add_argument("--interval", type=_COUNT, default=1)

    p = sub.add_parser("income-pdf", help="moment-based income density as CSV")
    p.add_argument("--interval", type=_COUNT, default=1)
    p.add_argument("--points", type=_COUNT, default=1001)

    p = sub.add_parser("compound", help="per-interval net-profit PMFs as CSV")
    p.add_argument("--interval", type=_COUNT, default=None)

    p = sub.add_parser("ruin", help="full numerical pipeline (optionally with MC)")
    p.add_argument("--u", type=_NUMBERS, help="comma-separated initial capitals; write "
                   "--u=-50,100 when the first one is negative")
    p.add_argument("--no-mc", action="store_true", help="skip the Monte Carlo columns")

    p = sub.add_parser("expected-surplus", help="initial-capital bound curves")
    p.add_argument("--ev-grid", type=_arg_type(_grid, _GRID), default=_FIG2["evs"],
                   metavar="START:STOP:STEP")
    p.add_argument("--horizons", default=_FIG2["horizons"], type=_arg_type(
        lambda text: [int(x) for x in text.split(",")], "comma-separated integers"))
    p.add_argument("--r", type=_RATE, default=_FIG2["r"])
    p.add_argument("--e-n", type=_NUMBER, default=_FIG2["e_n"])
    p.add_argument("--e-c", type=_NUMBER, default=_FIG2["e_c"])

    p = sub.add_parser("simulate", help="Monte Carlo outputs mirroring the "
                       "analytic subcommands")
    p.add_argument("--what", choices=["moments", "revenue-cdf", "paths"],
                   default="moments")
    p.add_argument("--interval", type=_COUNT, default=1)
    p.add_argument("--points", type=_COUNT, default=1001)
    p.add_argument("--u", type=_NUMBERS,
                   help="comma-separated initial capitals (paths mode); write "
                   "--u=-50,100 when the first one is negative")

    p = sub.add_parser("sweep", help="revenue moments over a parameter grid")
    p.add_argument("--param", required=True, metavar="PATH=START:STOP:STEP", type=_arg_type(
        lambda text: (text.partition("=")[0], _grid(text.partition("=")[2])),
        f"PATH={_GRID}"))

    p = sub.add_parser("reproduce-tables", help="emit reference-table data files")
    which = f"'all' or a comma list from {','.join(_TABLES)}"
    p.add_argument("--which", type=_arg_type(_tables, which), default="all", help=which)
    p.add_argument("--fast", action="store_true",
                   help="reduced sampling budgets for smoke runs")
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "moments": _cmd_moments,
    "income-pdf": _cmd_income_pdf,
    "compound": _cmd_compound,
    "ruin": _cmd_ruin,
    "expected-surplus": _cmd_expected_surplus,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "reproduce-tables": _cmd_reproduce_tables,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = RunManifest(config_hash="", seed=0, command=args.command,
                           started_utc=_now())
    try:
        # the effective config: the file (or defaults) with every --set
        # applied, and under reproduce-tables --fast at most 100,000 revenue
        # samples and 5,000 surplus paths
        cfg = _overridden(model.load_config(args.config), args.set)
        if args.command == "reproduce-tables" and args.fast:
            num = cfg.numerics
            cfg = dc_replace(cfg, numerics=dc_replace(
                num, mc_samples=min(100_000, num.mc_samples), mc_paths=min(5_000, num.mc_paths)))
        manifest.config_hash = cfg.config_hash()
        manifest.seed = cfg.numerics.seed
        _HANDLERS[args.command](args, cfg, manifest)
    except ConfigError as exc:
        for path, msg in exc.errors:
            print(f"config error at {path}: {msg}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, ResourceLimitError) as exc:
        print(f"accuracy/resource error: {exc}", file=sys.stderr)
        if isinstance(exc, AccuracyError) and exc.diagnostics:
            print(f"diagnostics: {exc.diagnostics}", file=sys.stderr)
        return 3
    except MicroruinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.command != "validate":
        os.makedirs(args.out, exist_ok=True)
        manifest.write(args.out)
    return 0


def run():
    """The process entry (``python -m microruin.cli`` and the ``microruin``
    script): ``main``, then exit with its code.

    Before exiting it freezes every live object into the collector's
    permanent generation, so the interpreter's exit-time collection does not
    walk the objects numpy and microruin made at import (about 20 ms of a
    cold ``ruin``).  ``main`` itself changes no process-wide state, since
    tests and tracers call it in-process.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
