"""Order checks: psi respects the model's stochastic orders.

A higher fee lowers every net profit, so the exact psi cannot fall; psi_l(u)
is nonincreasing in the capital u and nondecreasing in the horizon l.  These
checks compare neighbouring scenarios with each other, so they catch
discretization errors smaller than any affordable MC confidence interval.
The numerical route may break an order by a few ulps only (``SLACK``); the
MC twin, with common random numbers across the ladder (one operator, so the
fee is subtracted from the same revenues), must hold it exactly.

The c_min, c_max and interest-rate orders are pathwise too, but the
numerical route breaks them today (income expansion and default grid step);
their checks land with the changes that make them hold.
"""

from dataclasses import replace

import numpy as np
import pytest

from microruin import montecarlo, ruin
from tests.conftest import reference_with

CAPITALS = np.arange(0.0, 601.0, 25.0)
FEES = (60.0, 80.0, 100.0, 120.0, 140.0)
SLACK = 1e-12


def _with_fee(fee):
    return reference_with({"financial": {"operator_fees": {"1": fee}}})


@pytest.fixture(scope="module")
def fee_ladder():
    """psi (fee, horizon, capital) of the numerical route over FEES."""
    return np.array([ruin.run_pipeline(_with_fee(fee), CAPITALS)[0].psi for fee in FEES])


def test_psi_is_nondecreasing_in_the_fee(fee_ladder):
    assert np.diff(fee_ladder, axis=0).min() >= -SLACK
    assert (fee_ladder[-1] > fee_ladder[0]).any()


def test_psi_is_nonincreasing_in_the_capital(fee_ladder):
    assert np.diff(fee_ladder, axis=2).max() <= SLACK


def test_psi_is_nondecreasing_in_the_horizon(fee_ladder):
    assert np.diff(fee_ladder, axis=1).min() >= -SLACK


def test_mc_psi_is_nondecreasing_in_the_fee_under_common_random_numbers():
    psi = []
    for fee in FEES:
        cfg = _with_fee(fee)
        plan = replace(cfg.numerics, mc_paths=2_000)
        psi.append(montecarlo.simulate_surplus_paths(cfg, plan, CAPITALS).psi)
    psi = np.array(psi)
    assert np.diff(psi, axis=0).min() >= 0.0
    assert (psi[-1] > psi[0]).any()
