"""Survival recursion against path enumeration; capital-bound properties."""

from itertools import product

import numpy as np
import pytest

from microruin import ruin
from microruin.compound import LatticePMF
from microruin.errors import AccuracyError, DomainError
from tests.conftest import make_config


def enum_psi(u, r, pmfs, horizon):
    """Exhaustive path enumeration of the defining surplus process.

    Ruin at interval l iff the compounded surplus drops strictly below zero."""
    vals = [p.values() for p in pmfs]
    masses = [p.mass for p in pmfs]
    psi = np.zeros(horizon)
    for combo in product(*(range(len(v)) for v in vals[:horizon])):
        p = 1.0
        for l, i in enumerate(combo):
            p *= masses[l][i]
        if p == 0.0:
            continue
        s = u
        for l, i in enumerate(combo, start=1):
            s = s * (1.0 + r) + vals[l - 1][i]
            if s < 0.0:
                psi[l - 1:] += p
                break
    return psi


Z3 = LatticePMF(step=1.0, min_index=-1, mass=np.array([0.3, 0.5, 0.2]))
Z5 = LatticePMF(step=1.0, min_index=-2,
                mass=np.array([0.15, 0.2, 0.3, 0.2, 0.15]))

# right-skewed: profit atoms reach far past the capitals worth resolving
SKEWED = LatticePMF(step=1.0, min_index=-5, mass=np.bincount(
    np.array([-5, -3, -1, 0, 10, 100, 294]) + 5,
    weights=[0.3, 0.2, 0.15, 0.05, 0.1, 0.1, 0.1], minlength=300))


class TestExpectedSurplusBound:
    def test_zero_crossing_at_break_even(self):
        # bound vanishes for every horizon and rate when E[V] = E[C]
        for r in (0.01, 0.05, 0.2):
            for n in (1, 3, 10):
                assert ruin.initial_capital_bound(r, n, 100.0, 0.1, 0.1) == 0.0

    def test_single_period_discount(self):
        got = ruin.initial_capital_bound(0.05, 1, 100.0, 0.0, 0.1)
        assert got == pytest.approx(100.0 * 0.1 / 1.05, rel=1e-12)

    def test_linear_in_revenue_and_usercount(self):
        r, n = 0.05, 4
        b0 = ruin.initial_capital_bound(r, n, 100.0, 0.0, 0.1)
        b1 = ruin.initial_capital_bound(r, n, 100.0, 0.05, 0.1)
        b2 = ruin.initial_capital_bound(r, n, 100.0, 0.10, 0.1)
        assert b1 - b0 == pytest.approx(b2 - b1, rel=1e-10)  # linear in E[V]
        assert ruin.initial_capital_bound(r, n, 200.0, 0.0, 0.1) == pytest.approx(
            2.0 * b0, rel=1e-12)                             # linear in E[N]

    def test_diminishing_horizon_gaps(self):
        bounds = [ruin.initial_capital_bound(0.05, n, 100.0, 0.0, 0.1)
                  for n in range(1, 8)]
        gaps = np.diff(bounds)
        assert np.all(gaps > 0)
        assert np.all(np.diff(gaps) < 0)

    def test_zero_rate_limit(self):
        assert ruin.initial_capital_bound(0.0, 5, 100.0, 0.0, 0.1) == pytest.approx(
            5 * 100.0 * 0.1)

    def test_expected_surplus_consistency(self):
        # the bound is exactly the capital making the expected surplus zero
        u_star = ruin.initial_capital_bound(0.05, 4, 100.0, 0.02, 0.1)
        assert ruin.expected_surplus(u_star, 0.05, 4, 100.0, 0.02, 0.1) == \
            pytest.approx(0.0, abs=1e-9)


class TestSurvivalBase:
    def test_capital_above_worst_loss(self):
        assert ruin.survival_base(100.0, 0.05, Z3) == 1.0

    def test_capital_below_best_gain(self):
        assert ruin.survival_base(-100.0, 0.05, Z3) == 0.0

    def test_boundary_atom_survives(self):
        # S_net = -u(1+r) exactly leaves zero surplus, which is not ruin
        assert ruin.survival_base(0.0, 0.0, Z3) == pytest.approx(0.7)
        np.testing.assert_allclose(enum_psi(0.0, 0.0, [Z3], 1), [0.3])

    def test_matches_recursion_first_step(self):
        # on-lattice capitals: exact agreement with the base formula
        res = ruin.survival_recursion(np.array([0.0, 1.0, 2.0]), 0.0, [Z3])
        for j, u in enumerate((0.0, 1.0, 2.0)):
            assert res.phi[0, j] == pytest.approx(ruin.survival_base(u, 0.0, Z3),
                                                  abs=1e-12)
        # off-lattice capitals resolve exactly once the grid contains them
        fine = ruin.survival_recursion(np.array([0.5]), 0.0, [Z3], grid_step=0.01,
                                       interp_tol=np.inf)
        assert fine.phi[0, 0] == pytest.approx(ruin.survival_base(0.5, 0.0, Z3),
                                               abs=1e-12)


class TestSurvivalRecursion:
    @pytest.mark.parametrize("method", ["atoms", "correlation"])
    def test_zero_rate_matches_enumeration_exactly(self, method):
        us = np.array([-2.0, -1.0, 0.0, 1.0, 3.0, 6.0])
        for pmf, horizon in ((Z3, 4), (Z5, 4)):
            res = ruin.survival_recursion(us, 0.0, [pmf] * horizon, method=method)
            assert res.diagnostics["lattice_aligned"]
            for j, u in enumerate(us):
                ref = enum_psi(u, 0.0, [pmf] * horizon, horizon)
                np.testing.assert_allclose(res.psi[:, j], ref, atol=1e-12)

    @pytest.mark.parametrize("method", ["atoms", "correlation"])
    def test_positive_rate_matches_enumeration(self, method):
        us = np.array([-1.0, 0.0, 1.0, 2.0])
        res = ruin.survival_recursion(us, 0.05, [Z3] * 3, grid_step=0.05,
                                      method=method, interp_tol=np.inf)
        for j, u in enumerate(us):
            ref = enum_psi(u, 0.05, [Z3] * 3, 3)
            np.testing.assert_allclose(res.psi[:, j], ref, atol=5e-3)

    def test_nonnegative_support_never_ruins(self):
        gains = LatticePMF(step=1.0, min_index=0, mass=np.array([0.5, 0.3, 0.2]))
        us = np.array([0.0, 1.0, 10.0])
        res = ruin.survival_recursion(us, 0.05, [gains] * 4)
        np.testing.assert_allclose(res.psi, 0.0, atol=1e-12)

    def test_monotone_in_horizon_and_capital(self):
        us = np.linspace(-3.0, 6.0, 19)
        res = ruin.survival_recursion(us, 0.05, [Z5] * 4, grid_step=0.25,
                                      interp_tol=np.inf)
        assert np.all(np.diff(res.psi, axis=0) >= -1e-12)   # nondecreasing in l
        assert np.all(np.diff(res.psi, axis=1) <= 1e-12)    # nonincreasing in u

    def test_interval_order_respected_for_differing_pmfs(self):
        # loss-first vs gain-first sequences must differ and match enumeration
        loss = LatticePMF(step=1.0, min_index=-3, mass=np.array([0.6, 0.0, 0.0, 0.4]))
        gain = LatticePMF(step=1.0, min_index=-1, mass=np.array([0.2, 0.0, 0.8]))
        us = np.array([1.0, 2.0])
        for seq in ([loss, gain], [gain, loss]):
            res = ruin.survival_recursion(us, 0.0, seq)
            for j, u in enumerate(us):
                np.testing.assert_allclose(res.psi[:, j], enum_psi(u, 0.0, seq, 2),
                                           atol=1e-12)
        a = ruin.survival_recursion(us, 0.0, [loss, gain]).psi[1]
        b = ruin.survival_recursion(us, 0.0, [gain, loss]).psi[1]
        assert not np.allclose(a, b)

    def test_mass_conservation_per_step(self):
        # contributions (survive indicator on/off) always form a convex split
        for pmf in (Z3, Z5):
            total = float(pmf.mass.sum())
            assert total == pytest.approx(1.0, abs=1e-12)
            below = pmf.cdf_below(0.0)
            at_or_above = 1.0 - below
            assert below + at_or_above == pytest.approx(1.0, abs=1e-12)

    def test_grid_refinement_converges_with_order_at_least_one(self):
        # Richardson check at r = 0.05 against exhaustive enumeration: the
        # u-averaged error shrinks at least linearly in the grid step (the
        # survival function is a staircase, so pointwise order is erratic but
        # the averaged interpolation error is O(h))
        us = np.linspace(-2.0, 4.0, 41)
        ref = np.array([enum_psi(u, 0.05, [Z5] * 3, 3)[2] for u in us])
        errs = []
        for k in (1, 2, 4):
            got = ruin.survival_recursion(us, 0.05, [Z5] * 3, grid_step=0.4 / k,
                                          interp_tol=np.inf).psi[2]
            errs.append(float(np.mean(np.abs(got - ref))))
        assert errs[1] < errs[0]
        assert errs[2] <= errs[0] / 4.0  # observed order >= 1 over two halvings

    def test_correlation_reads_certain_survival_above_grid(self):
        # right-skewed profits far beyond the capital grid: atoms landing past
        # the grid top are certain survival, not zero-padding
        us = np.array([0.0, 2.0, 5.0, 9.0])
        corr = ruin.survival_recursion(us, 0.0, [SKEWED] * 2, method="correlation")
        atoms = ruin.survival_recursion(us, 0.0, [SKEWED] * 2, method="atoms")
        np.testing.assert_allclose(corr.psi, atoms.psi, atol=1e-12)
        for j, u in enumerate(us):
            np.testing.assert_allclose(corr.psi[:, j],
                                       enum_psi(u, 0.0, [SKEWED] * 2, 2), atol=1e-12)
        fine = ruin.survival_recursion(us, 0.05, [SKEWED] * 2, grid_step=0.05,
                                       method="correlation", interp_tol=np.inf)
        for j, u in enumerate(us):
            np.testing.assert_allclose(fine.psi[:, j],
                                       enum_psi(u, 0.05, [SKEWED] * 2, 2), atol=5e-3)

    def test_interp_tolerance_gate(self):
        with pytest.raises(AccuracyError):
            ruin.survival_recursion(np.array([0.5]), 0.05, [Z3] * 3,
                                    grid_step=0.05, interp_tol=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ruin.survival_recursion(np.array([0.0]), -0.1, [Z3])
        with pytest.raises(DomainError):
            ruin.survival_recursion(np.array([0.0]), 0.05, [])


def _reference_with(overrides):
    from microruin import model
    data = model.default_config().to_dict()
    for section, values in overrides.items():
        data[section].update(values)
    return model.validate(model.ScenarioConfig.from_dict(data))


class TestPipeline:
    @pytest.mark.parametrize("overrides", [
        {"financial": {"w_n_geometric": 0.05}},
        {"numerics": {"lattice_step": 1100 / 4096}},
        {"financial": {"operator_fees": {"1": 300.0}}},
        {"financial": {"c_min": 0.1, "c_max": 100.0}},
    ], ids=["w_n-0.05", "lattice-1100/4096", "fee-300", "clamps-0.1-100"])
    def test_scenarios_near_reference_solve(self, overrides):
        # refused while the FFT window spanned the full truncated reach
        us = np.array([100.0, 150.0, 200.0, 250.0, 300.0])
        cfg = _reference_with(overrides)
        res, info = ruin.run_pipeline(cfg, us)
        psi = res.psi
        assert psi.shape == (cfg.financial.horizon_intervals, len(us))
        assert np.isfinite(psi).all() and psi.min() >= 0.0 and psi.max() <= 1.0
        assert (np.diff(psi, axis=1) <= 0.0).all()    # nonincreasing in u
        assert (np.diff(psi, axis=0) >= 0.0).all()    # nondecreasing in l
        for interval in info["intervals"].values():
            diag = interval["compound"]
            assert diag["aliasing_bound"] <= 2 * cfg.numerics.tail_eps
            assert diag["mean_residual"] <= diag["mean_tolerance"]

    def test_zero_padding_the_pmf_leaves_psi_unchanged(self, table3_config):
        # trailing zero atoms widen the capital grid but carry no mass
        pmfs, _ = ruin.interval_net_pmfs(table3_config)
        g = pmfs[0]
        padded = LatticePMF(step=g.step, min_index=g.min_index,
                            mass=np.concatenate((g.mass, np.zeros(1000))))
        us = np.array([100.0, 200.0, 300.0])
        r = table3_config.financial.interest_rate_per_interval
        a = ruin.survival_recursion(us, r, [g] * 5)
        b = ruin.survival_recursion(us, r, [padded] * 5)
        np.testing.assert_allclose(a.psi, b.psi, atol=1e-9)

    def test_reference_scenario_runs_and_is_sane(self, table3_config):
        us = np.array([100.0, 300.0])
        res, info = ruin.run_pipeline(table3_config, us)
        assert res.psi.shape == (5, 2)
        assert np.all((res.psi >= 0.0) & (res.psi <= 1.0))
        assert np.all(np.diff(res.psi, axis=0) >= -1e-12)
        assert res.psi[4, 0] > res.psi[4, 1]
        assert info["intervals"][1]["mean_revenue"] == pytest.approx(219.58, abs=0.05)
        defects = res.diagnostics["pmf_mass_defects"]
        assert max(defects) <= 1e-9
