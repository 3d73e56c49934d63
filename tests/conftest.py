"""Shared scenario fixtures.

`table2_config` / `table3_config` correspond to the two reference parameter
sets (moment comparison with clamps [0.1, 100]; ruin evaluation with clamps
[0.001, 1000] and 5% interest).  Durations are the calibrated single-slot
model throughout.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from microruin import compound, ruin
from microruin.model import (
    DurationModel,
    FinancialParams,
    NetworkParams,
    Numerics,
    ScenarioConfig,
    validate,
)


def make_config(alpha=4.0, beta=0.1, c_min=0.1, c_max=100.0, rate_gap=100.0,
                r=0.05, **numerics_over):
    from microruin.model import ProductParams
    cfg = ScenarioConfig(
        network=NetworkParams(beta_cells_per_area=beta, alpha_pathloss=alpha),
        financial=FinancialParams(c_min=c_min, c_max=c_max,
                                  interest_rate_per_interval=r),
        products=ProductParams(rate_gaps=(rate_gap,), product_mix=(1.0,)),
        durations=DurationModel(kind="deterministic", tau=1, mean=None, tau_max=None),
        numerics=Numerics(**numerics_over) if numerics_over else Numerics(),
    )
    return validate(cfg)


# the scenarios of the analytic sweep benchmark: the default config with
# section-level overrides
SWEEP_SCENARIOS = {
    "reference": {},
    "pathloss-3": {"network": {"alpha_pathloss": 3.0}},
    "interest-0": {"financial": {"interest_rate_per_interval": 0.0}},
    "noise-0.01": {"network": {"sigma2_noise_power": 0.01}},
    "horizon-10": {"financial": {"horizon_intervals": 10}},
    "two-operators": {"financial": {"operator_fees": {"1": 100.0, "2": 60.0},
                                    "operator_mix": {"1": 0.5, "2": 0.5}}},
    "multi-slot": {"durations": {"kind": "truncated-geometric", "mean": 2.0, "tau_max": 5}},
    "w_n-0.05": {"financial": {"w_n_geometric": 0.05}},
    "lattice-1100/4096": {"numerics": {"lattice_step": 1100 / 4096}},
    "fee-300": {"financial": {"operator_fees": {"1": 300.0}}},
    "clamps-0.1-100": {"financial": {"c_min": 0.1, "c_max": 100.0}},
}


def reference_with(overrides: dict) -> ScenarioConfig:
    """The default config with section-level overrides, validated."""
    from microruin.model import default_config
    data = default_config().to_dict()
    for section, values in overrides.items():
        data[section].update(values)
    return validate(ScenarioConfig.from_dict(data))


def sweep_config(name: str) -> ScenarioConfig:
    """The default config with the overrides of one analytic sweep scenario."""
    return reference_with(SWEEP_SCENARIOS[name])


def read_windows(cfg: ScenarioConfig, capitals) -> list[dict]:
    """``run_pipeline`` at the capitals against the same recursion on whole
    compound PMFs (``interval_net_pmfs``), one record per compound window.

    Asserts that both give one grid and psi within horizon * 1e-9; the whole
    laws are computed past ``compound.POINTS_BUDGET`` when only the read
    windows fit it.  Each record holds the window's diagnostics, its length
    with top=None, whether a window without a tilt equals the top=None PMF
    bit for bit, and for a tilted one the L1 difference from the top=None
    PMF over its atoms below the lumped one and the margin by which the
    lumped atom lies past the last atom the recursion's correlation keeps
    (``ruin._Correlation``).
    """
    calls = []
    real = ruin.compound_geometric_pmf

    def recorded(step, w_n, tail_eps=1e-12, top=None):
        calls.append((step, w_n, tail_eps, top, real(step, w_n, tail_eps, top=top)))
        return calls[-1][-1]

    ruin.compound_geometric_pmf = recorded
    try:
        got, _ = ruin.run_pipeline(cfg, np.asarray(capitals, dtype=float))
    finally:
        ruin.compound_geometric_pmf = real
    # the whole laws are the reference even where only a read window fits
    # the points budget
    budget = compound.POINTS_BUDGET
    compound.POINTS_BUDGET = 4 * budget
    try:
        r, eps = cfg.financial.interest_rate_per_interval, cfg.numerics.tail_eps
        whole = ruin.survival_recursion(capitals, r, ruin.interval_net_pmfs(cfg)[0],
                                        tail_eps=eps)
        fulls = [real(step, w_n, tail_eps) for step, w_n, tail_eps, _, _ in calls]
    finally:
        compound.POINTS_BUDGET = budget
    assert got.u_grid == whole.u_grid
    assert np.abs(got.psi - whole.psi).max() <= len(got.psi) * 1e-9
    lo, grid_step, points = got.u_grid
    k_lo = round(lo / grid_step)
    fold = k_lo + points - 1 - math.floor(k_lo * (1.0 + r)) + 1
    records = []
    for (step, _, _, _, read), full in zip(calls, fulls):
        record = {"diagnostics": read.diagnostics,
                  "full_points": full.diagnostics["window_points"]}
        if read.diagnostics["tilt"] == 0.0:
            record["same"] = (read.min_index == full.min_index
                              and np.array_equal(read.mass, full.mass))
        else:
            top = read.min_index + len(read.mass) - 2
            start = max(read.min_index, full.min_index)
            record["l1"] = float(np.abs(
                read.mass[start - read.min_index:top + 1 - read.min_index]
                - full.mass[start - full.min_index:top + 1 - full.min_index]).sum())
            last_kept = -(-fold // round(step.step / grid_step))
            record["past_fold"] = top + 1 - last_kept
        records.append(record)
    return records


def point_mass_config(scale=2.0, tau=1):
    """Equal clamps: every slot earns exactly ``scale`` units, a zero-variance
    fixture for the moment and sampling stages.  ``validate`` refuses equal
    clamps (the income density needs a support of positive width), so the
    clamps are set on an already validated config."""
    cfg = make_config()
    return replace(cfg,
                   financial=replace(cfg.financial, c_min=scale, c_max=scale),
                   durations=replace(cfg.durations, kind="deterministic", tau=tau,
                                     mean=None, tau_max=None))


@pytest.fixture
def table2_config():
    return make_config(alpha=3.0, c_min=0.1, c_max=100.0)


@pytest.fixture
def table3_config():
    return make_config(alpha=4.0, c_min=0.001, c_max=1000.0)


@pytest.fixture
def fast_plan():
    return Numerics(seed=7, mc_samples=20_000, mc_paths=2_000)


def pytest_terminal_summary(terminalreporter):
    """Echo the one-line-per-criterion acceptance results in every run."""
    import sys
    module = (sys.modules.get("test_acceptance")
              or sys.modules.get("tests.test_acceptance"))
    if module is not None and getattr(module, "RESULTS", None):
        terminalreporter.section("acceptance criteria")
        for line in module.RESULTS:
            terminalreporter.write_line(line)
