"""Survival recursion against path enumeration and the phi_1 formula;
capital-bound properties against the expected-surplus formula."""

import hashlib
import math
from itertools import permutations, product

import numpy as np
import pytest
from scipy import fft as sp_fft

from microruin import compound, moments, ruin, specfun
from microruin.compound import LatticePMF
from microruin.errors import DomainError, ResourceLimitError
from tests.conftest import (
    SWEEP_SCENARIOS,
    make_config,
    read_windows,
    reference_with,
    sweep_config,
)
from tests.oracles import atom_recursion, cdf_below, golden_loss_top, max_index


def survival_base(u: float, r: float, g1: LatticePMF) -> float:
    """phi_1(u) = Pr(S_net(1) >= -u(1+r)).

    The atom exactly at -u(1+r) survives (ruin is a strictly negative
    surplus), so the strict lattice CDF is subtracted.
    """
    return 1.0 - cdf_below(g1, -u * (1.0 + r))


def grid_hi(result) -> float:
    """The top capital of a recursion's grid, from its (lo, step, points)."""
    lo, step, points = result.u_grid
    return lo + (points - 1) * step


def expected_surplus(u: float, r: float, l: int, e_n: float, e_v: float, e_c: float) -> float:
    """Expected surplus after l intervals: u(1+r)^l + drift-compounded profits."""
    drift = e_n * (e_v - e_c)
    if r == 0.0:
        return u + l * drift
    growth = (1.0 + r) ** l
    return u * growth + drift * (growth - 1.0) / r


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


def stretch_nodes(stretched):
    """(lower cell j, weight w) of each stretched position s = j + w.

    The ruin indicator applies at s + y for an atom y: a landing within
    1e-9 cells below capital 0 counts as capital 0, so positions within
    1e-9 below a cell move up onto it.  Both interpolation nodes then read
    survival only where the lower one, j + y, is a nonnegative capital.
    """
    j = np.floor(stretched + 1e-9)
    return j.astype(np.int64), np.maximum(stretched - j, 0.0)


def full_reach_psi(us, r, pmfs):
    """Oracle: the correlation recursion on the full-reach capital grid.

    The grid runs from where one interval ruins for certain, -max(y)/(1+r),
    to where even the worst discounted loss path survives, so both edge
    clamps are exact, and every atom goes through the FFT.  The grid step is
    the default lattice_step / ceil((1+r)^L).  Each step correlates the
    atoms with the lower and the upper interpolation node's survival, both
    zero where the lower node is a negative capital, and mixes the two at
    the stretched positions (``stretch_nodes``).  Returns (psi, grid points).
    """
    horizon, growth = len(pmfs), 1.0 + r
    stride = max(1, math.ceil(growth ** horizon))
    h = pmfs[0].step / stride
    y_max = max(p.values().max() for p in pmfs)
    y_min = min(p.values().min() for p in pmfs)
    reach = -min(y_min, 0.0) * sum(growth ** -j for j in range(1, horizon + 1))
    k_lo = math.floor((min(us.min(), -max(y_max, 0.0) / growth) - 2 * h) / h)
    k_hi = math.ceil((max(us.max(), reach) + 2 * h) / h)
    cells = np.arange(k_lo, k_hi + 1)
    points = cells * h

    j, w = stretch_nodes(cells * growth)

    def step(phi, pmf):
        atoms = np.zeros((len(pmf.mass) - 1) * stride + 1)
        atoms[::stride] = pmf.mass[::-1]
        n_out = len(points) + len(atoms) - 1
        n = sp_fft.next_fast_len(n_out, real=True)
        spectrum = sp_fft.rfft(atoms, n)
        corr = []
        for node in (phi, np.append(phi[1:], 1.0)):      # lower, upper node
            c = sp_fft.irfft(sp_fft.rfft(np.where(cells >= 0, node, 0.0), n) * spectrum,
                             n)[:n_out]
            c[len(points):] += np.cumsum(atoms)[:-1]     # reads above: survival
            corr.append(np.append(np.clip(c, 0.0, 1.0), 1.0))
        # output t holds cell t + k_lo - (largest atom cell); ruin below
        # output 0 and survival past the last output
        t = np.clip(j - (k_lo - max_index(pmf) * stride), -1, n_out)
        out = (1.0 - w) * corr[0][t] + w * corr[1][t]
        out[t < 0] = 0.0
        return np.maximum.accumulate(np.clip(out, 0.0, 1.0))

    psi = np.empty((horizon, len(us)))
    phi = np.ones(len(points))
    for l in range(1, horizon + 1):
        if all(p is pmfs[0] for p in pmfs):
            phi = step(phi, pmfs[0])
        else:
            phi = np.ones(len(points))
            for k in range(l, 0, -1):
                phi = step(phi, pmfs[k - 1])
        psi[l - 1] = 1.0 - np.interp(us, points, phi, left=0.0, right=1.0)
    return psi, len(points)


def production_psi(us, r, pmfs, **kw):
    """psi of ``survival_recursion``."""
    return ruin.survival_recursion(us, r, pmfs, **kw).psi


# the two routes the enumeration checks: the per-atom oracle and production
# (the correlation step on these lattice-dividing grids)
ROUTES = pytest.mark.parametrize("solve", [atom_recursion, production_psi],
                                 ids=["atoms", "correlation"])


def discounted_loss_tail(pmfs, r, x):
    """Exact Pr(sum_i (1+r)^-i Y_i^- > x) over the sequence ``pmfs``."""
    tail = 0.0
    for combo in product(*(range(len(p.mass)) for p in pmfs)):
        p, loss = 1.0, 0.0
        for i, (pmf, j) in enumerate(zip(pmfs, combo), start=1):
            p *= pmf.mass[j]
            loss += max(-pmf.values()[j], 0.0) * (1.0 + r) ** -i
        tail += p if loss > x else 0.0
    return tail


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
        assert expected_surplus(u_star, 0.05, 4, 100.0, 0.02, 0.1) == \
            pytest.approx(0.0, abs=1e-9)


class TestSurvivalBase:
    def test_capital_above_worst_loss(self):
        assert survival_base(100.0, 0.05, Z3) == 1.0

    def test_capital_below_best_gain(self):
        assert survival_base(-100.0, 0.05, Z3) == 0.0

    def test_boundary_atom_survives(self):
        # S_net = -u(1+r) exactly leaves zero surplus, which is not ruin
        assert survival_base(0.0, 0.0, Z3) == pytest.approx(0.7)
        np.testing.assert_allclose(enum_psi(0.0, 0.0, [Z3], 1), [0.3])

    def test_matches_recursion_first_step(self):
        # on-lattice capitals: exact agreement with the base formula
        res = ruin.survival_recursion(np.array([0.0, 1.0, 2.0]), 0.0, [Z3])
        for j, u in enumerate((0.0, 1.0, 2.0)):
            assert 1.0 - res.psi[0, j] == pytest.approx(survival_base(u, 0.0, Z3),
                                                        abs=1e-12)
        # off-lattice capitals resolve exactly once the grid contains them
        fine = ruin.survival_recursion(np.array([0.5]), 0.0, [Z3], grid_step=0.01)
        assert 1.0 - fine.psi[0, 0] == pytest.approx(survival_base(0.5, 0.0, Z3),
                                                     abs=1e-12)


class TestSurvivalRecursion:
    @ROUTES
    def test_zero_rate_matches_enumeration_exactly(self, solve):
        us = np.array([-2.0, -1.0, 0.0, 1.0, 3.0, 6.0])
        for pmf, horizon in ((Z3, 4), (Z5, 4)):
            psi = solve(us, 0.0, [pmf] * horizon)
            for j, u in enumerate(us):
                ref = enum_psi(u, 0.0, [pmf] * horizon, horizon)
                np.testing.assert_allclose(psi[:, j], ref, atol=1e-12)

    @ROUTES
    def test_positive_rate_matches_enumeration(self, solve):
        us = np.array([-1.0, 0.0, 1.0, 2.0])
        psi = solve(us, 0.05, [Z3] * 3, grid_step=0.05)
        for j, u in enumerate(us):
            ref = enum_psi(u, 0.05, [Z3] * 3, 3)
            np.testing.assert_allclose(psi[:, j], ref, atol=5e-3)

    def test_nonnegative_support_never_ruins(self):
        gains = LatticePMF(step=1.0, min_index=0, mass=np.array([0.5, 0.3, 0.2]))
        us = np.array([0.0, 1.0, 10.0])
        res = ruin.survival_recursion(us, 0.05, [gains] * 4)
        np.testing.assert_allclose(res.psi, 0.0, atol=1e-12)

    def test_monotone_in_horizon_and_capital(self):
        us = np.linspace(-3.0, 6.0, 19)
        res = ruin.survival_recursion(us, 0.05, [Z5] * 4, grid_step=0.25)
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
            below = cdf_below(pmf, 0.0)
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
            got = ruin.survival_recursion(us, 0.05, [Z5] * 3, grid_step=0.4 / k).psi[2]
            errs.append(float(np.mean(np.abs(got - ref))))
        assert errs[1] < errs[0]
        assert errs[2] <= errs[0] / 4.0  # observed order >= 1 over two halvings

    def test_correlation_reads_certain_survival_above_grid(self):
        # right-skewed profits far beyond the capital grid: atoms landing past
        # the grid top are certain survival, not zero-padding
        us = np.array([0.0, 2.0, 5.0, 9.0])
        corr = ruin.survival_recursion(us, 0.0, [SKEWED] * 2)
        np.testing.assert_allclose(corr.psi, atom_recursion(us, 0.0, [SKEWED] * 2),
                                   atol=1e-12)
        for j, u in enumerate(us):
            np.testing.assert_allclose(corr.psi[:, j],
                                       enum_psi(u, 0.0, [SKEWED] * 2, 2), atol=1e-12)
        fine = ruin.survival_recursion(us, 0.05, [SKEWED] * 2, grid_step=0.05)
        for j, u in enumerate(us):
            np.testing.assert_allclose(fine.psi[:, j],
                                       enum_psi(u, 0.05, [SKEWED] * 2, 2), atol=5e-3)

    def test_correlation_route_equals_per_atom_sum(self):
        # seeded random PMFs on grids that divide the lattice: landings just
        # below capital 0 are ruin on both routes, whatever the stretch
        rng = np.random.default_rng(20261019)

        def random_pmf():
            n = int(rng.integers(2, 12))
            mass = rng.random(n) * (rng.random(n) < 0.7)
            mass[0] += 0.1                                  # a loss with mass
            return LatticePMF(step=1.0, min_index=-int(rng.integers(1, 8)),
                              mass=mass / mass.sum())

        worst = 0.0
        for case in range(100):
            r = (0.0, 0.05, 0.3, 1.5)[case % 4]
            stride, horizon = int(rng.integers(1, 13)), int(rng.integers(1, 5))
            if case % 2:
                pmfs = [random_pmf()] * horizon
            else:
                pmfs = [random_pmf() for _ in range(horizon)]
            # capitals on the lattice in every third case, off it otherwise
            us = (rng.integers(-5, 41, 6) if case % 3 == 0 else rng.uniform(-5.0, 40.0, 6))
            us = np.sort(us.astype(float))
            res = ruin.survival_recursion(us, r, pmfs, grid_step=1.0 / stride)
            want = atom_recursion(us, r, pmfs, grid_step=1.0 / stride)
            worst = max(worst, float(np.abs(res.psi - want).max()))
        assert worst <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ruin.survival_recursion(np.array([0.0]), -0.1, [Z3])
        with pytest.raises(DomainError):
            ruin.survival_recursion(np.array([0.0]), 0.05, [])

    @pytest.mark.parametrize("kw, match", [
        ({"grid_step": 0.0}, "grid_step must be positive and finite, got 0.0"),
        ({"grid_step": -1.0}, "grid_step must be positive and finite, got -1.0"),
        ({"grid_step": math.nan}, "grid_step must be positive and finite, got nan"),
        ({"grid_step": math.inf}, "grid_step must be positive and finite, got inf"),
        ({"tail_eps": math.nan}, r"tail_eps must lie in \[0, 1\), got nan"),
        ({"tail_eps": -1e-12}, r"tail_eps must lie in \[0, 1\), got -1e-12"),
        ({"tail_eps": 1.0}, r"tail_eps must lie in \[0, 1\), got 1.0"),
    ], ids=["step-0", "step-neg", "step-nan", "step-inf", "eps-nan", "eps-neg", "eps-1"])
    def test_accuracy_arguments_out_of_range_are_domain_errors(self, kw, match):
        # they raised ZeroDivisionError or ValueError from deep inside
        with pytest.raises(DomainError, match=match):
            ruin.survival_recursion(np.array([0.0, 1.0]), 0.05, [Z5] * 2, **kw)

    @pytest.mark.parametrize("horizon", [1, 2, 5])
    def test_each_pass_takes_its_first_step_without_a_transform(self, horizon, monkeypatch):
        # an identical-PMF solve runs one transform pair per horizon but the
        # first; a backward pass of l steps runs l - 1
        calls = []
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or irfft(*a, **k))
        us = np.array([0.0, 1.0, 3.0])
        ruin.survival_recursion(us, 0.05, [Z5] * horizon)
        assert len(calls) == horizon - 1
        calls.clear()
        ruin.survival_recursion(us, 0.05, [SKEWED] + [Z5] * (horizon - 1))
        assert len(calls) == (horizon - 1) * horizon // 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_capital_is_a_domain_error(self, bad):
        with pytest.raises(DomainError, match=f"finite, got {bad}"):
            ruin.survival_recursion(np.array([bad, 1.0]), 0.05, [Z3] * 2)


class TestCapitalGrid:
    """The grid spans [min(u, 0), the Chernoff top]; the oracle spans the full reach."""

    # a rare deep loss, a common small one, a likely gain
    LOSS = LatticePMF(step=1.0, min_index=-6,
                      mass=np.array([0.002, 0, 0, 0.3, 0, 0, 0, 0, 0.698]))
    GAIN = LatticePMF(step=1.0, min_index=-1, mass=np.array([0.2, 0.0, 0.8]))

    @pytest.mark.parametrize("overrides, chernoff_binds", [
        ({}, True),
        ({"financial": {"operator_fees": {"1": 300.0}}}, True),
        ({"financial": {"c_min": 0.1, "c_max": 100.0}}, False),   # the read top binds
    ], ids=["reference", "fee-300", "clamps-0.1-100"])
    def test_matches_full_reach_oracle(self, overrides, chernoff_binds):
        cfg = reference_with(overrides)
        pmfs, _ = ruin.interval_net_pmfs(cfg)
        us = np.array([-50.0, 0.0, 100.0, 150.0, 200.0, 250.0, 300.0])
        r, eps = cfg.financial.interest_rate_per_interval, cfg.numerics.tail_eps
        res = ruin.survival_recursion(us, r, pmfs, tail_eps=eps)
        ref, oracle_points = full_reach_psi(us, r, pmfs)
        diag = res.diagnostics
        assert diag["grid_tail_bound"] == (len(pmfs) * eps if chernoff_binds else 0.0)
        assert np.abs(res.psi - ref).max() <= diag["grid_tail_bound"] + 1e-13
        assert res.u_grid[2] < oracle_points
        assert res.u_grid[1] == pmfs[0].step / math.ceil((1.0 + r) ** len(pmfs))

    @pytest.mark.parametrize("r", [0.0, 0.05])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_chernoff_top_bounds_the_exact_tail(self, r, eps):
        # any horizon <= L, any order of the interval PMFs
        z5 = LatticePMF(step=1.0, min_index=-4, mass=np.array([0.01, 0.04, 0.15, 0.3, 0.5]))
        for pmfs in ([z5] * 3, [self.LOSS, self.GAIN, z5]):
            reach, top = ruin._loss_top(pmfs, 1.0 + r, len(pmfs), eps)
            assert top < reach
            for l in range(1, len(pmfs) + 1):
                for order in permutations(range(len(pmfs)), l):
                    seq = [pmfs[i] for i in order]
                    assert discounted_loss_tail(seq, r, top) <= eps

    def test_binned_chernoff_top_bounds_the_exact_tail(self):
        # more loss atoms than LOSS_CELLS: each loss is rounded up to its bin
        k = np.arange(6001)
        mass = np.append(0.995 ** k[::-1], 1.0)   # losses 6000..0, then a gain
        pmf = LatticePMF(step=0.5, min_index=-6000, mass=mass / mass.sum())
        assert 6000 > ruin.LOSS_CELLS
        losses = pmf.mass[k[::-1]]                # mass of loss 0..6000 steps
        losses[0] += pmf.mass[-1]
        total = np.convolve(losses, losses)       # r = 0: X = Y_1^- + Y_2^-
        reach, top = ruin._loss_top([pmf] * 2, 1.0, 2, 1e-6)
        assert top < reach
        exact_tail = total[np.arange(len(total)) * pmf.step > top].sum()
        assert exact_tail <= 1e-6
        assert exact_tail > 1e-9   # and the bound is not loose by orders

    def test_binned_top_rounds_losses_up(self):
        # one loss of 28,679 steps, 7 past the last bin edge below it (bins of
        # 8 steps): rounded down, three losses would fit under the top
        loss = 4096 * 7 + 7
        pmf = LatticePMF(step=1.0, min_index=-loss, mass=np.bincount(
            [0, loss + 1], weights=[0.5, 0.5], minlength=loss + 2))
        reach, top = ruin._loss_top([pmf] * 3, 1.0, 3, 1e-3)
        n_losses = np.arange(4)
        p_n = np.array([1, 3, 3, 1]) / 8.0
        assert p_n[n_losses * loss > top].sum() <= 1e-3
        assert top == reach

    @ROUTES
    def test_differing_pmfs_with_a_binding_top_match_enumeration(self, solve):
        us = np.array([0.0, 1.0, 2.0, 4.0, 6.0])
        eps = 1e-3
        psis = []
        for seq in ([self.LOSS, self.GAIN, self.LOSS], [self.GAIN, self.LOSS, self.LOSS]):
            res = ruin.survival_recursion(us, 0.0, seq, tail_eps=eps)
            assert res.diagnostics["grid_tail_bound"] == 3 * eps
            assert grid_hi(res) < 18.0             # the worst-case reach
            exact = ruin.survival_recursion(us, 0.0, seq, tail_eps=0.0)
            assert exact.diagnostics["grid_tail_bound"] == 0.0
            assert grid_hi(exact) >= 18.0
            psi, exact_psi = solve(us, 0.0, seq, tail_eps=eps), solve(us, 0.0, seq, tail_eps=0.0)
            for j, u in enumerate(us):
                ref = enum_psi(u, 0.0, seq, 3)
                np.testing.assert_allclose(exact_psi[:, j], ref, atol=1e-12)
                assert np.abs(psi[:, j] - ref).max() <= 3 * eps + 1e-12
            psis.append(psi)
        assert not np.allclose(psis[0], psis[1])

    @ROUTES
    def test_pmf_without_loss_atoms(self, solve):
        # no losses: the grid stops two steps above the largest capital, and
        # the far gain lands above it from every capital (one folded constant)
        gains = LatticePMF(step=1.0, min_index=0, mass=np.bincount(
            [0, 40], weights=[0.5, 0.5], minlength=41))
        us = np.array([-3.0, -1.0, 0.0, 2.0])
        res = ruin.survival_recursion(us, 0.0, [gains] * 3)
        assert res.diagnostics["grid_tail_bound"] == 0.0
        assert (res.u_grid[0], grid_hi(res)) == (-5.0, 4.0)
        psi = solve(us, 0.0, [gains] * 3)
        for j, u in enumerate(us):
            np.testing.assert_allclose(psi[:, j], enum_psi(u, 0.0, [gains] * 3, 3),
                                       atol=1e-12)
        assert psi[2, 1] == pytest.approx(0.5)

    @pytest.mark.parametrize("name", sorted(SWEEP_SCENARIOS))
    def test_read_top_moves_no_psi(self, name, monkeypatch):
        # cells past the reads of the requested capitals change nothing: the
        # capped grid gives the uncapped psi; on clamps [0.1, 100], whose net
        # profit has no gain, it has 7,485 points against 146,051 uncapped
        cfg = sweep_config(name)
        pmfs, _ = ruin.interval_net_pmfs(cfg)
        us = np.array([100.0, 150.0, 200.0, 250.0, 300.0])
        r, eps = cfg.financial.interest_rate_per_interval, cfg.numerics.tail_eps
        capped = ruin.survival_recursion(us, r, pmfs, tail_eps=eps)
        monkeypatch.setattr(ruin, "_read_top", lambda *args: math.inf)
        uncapped = ruin.survival_recursion(us, r, pmfs, tail_eps=eps)
        assert np.abs(capped.psi - uncapped.psi).max() <= 1e-13
        if name == "clamps-0.1-100":
            assert capped.u_grid[2] < 10_000

    def test_far_capitals_widen_no_grid(self):
        # below -max(y)^+ / (1+r) the first step is certain ruin and above the
        # loss top survival is read, so neither needs grid points
        cfg = reference_with({})
        pmfs, _ = ruin.interval_net_pmfs(cfg)
        r = cfg.financial.interest_rate_per_interval
        ref = ruin.survival_recursion(np.array([100.0, 150.0, 200.0, 250.0, 300.0]), r, pmfs)
        for u, psi in ((-1e300, 1.0), (-1e6, 1.0), (1e6, 0.0), (1e300, 0.0)):
            res = ruin.survival_recursion(np.array([u]), r, pmfs)
            assert (res.psi == psi).all(), u
            assert res.u_grid[2] <= ref.u_grid[2], u
        mixed = ruin.survival_recursion(np.array([-1e300, -1e6, 100.0, 1e6, 1e300]), r, pmfs)
        assert mixed.u_grid[2] <= ref.u_grid[2]
        assert mixed.psi[:, 2].tobytes() == ref.psi[:, 0].tobytes()
        np.testing.assert_array_equal(mixed.psi[:, [0, 1]], 1.0)
        np.testing.assert_array_equal(mixed.psi[:, [3, 4]], 0.0)

    def test_grid_over_the_points_budget_is_refused(self):
        # the default step is lattice step / ceil((1+r)^L): 2^-20 at r = 1, L = 20
        with pytest.raises(ResourceLimitError, match="budget of 1000000"):
            ruin.survival_recursion(np.array([0.0, 1.0]), 1.0, [Z5] * 20)

    def test_one_budget_patch_reaches_the_grid(self, monkeypatch):
        # the recursion reads the budget when it runs, as the compound stage does
        monkeypatch.setattr(compound, "POINTS_BUDGET", 8)
        with pytest.raises(ResourceLimitError, match="budget of 8"):
            ruin.survival_recursion(np.array([0.0, 10.0]), 0.0, [Z5] * 2)


class TestOnGrid:
    """Interval PMFs on the capital grid: re-binned off it, kept on it."""

    def test_rebinning_keeps_mass_and_mean(self):
        rng = np.random.default_rng(20261019)
        for case in range(50):
            n = int(rng.integers(2, 40))
            mass = rng.random(n) * (rng.random(n) < 0.8)
            mass[0] += 0.1
            step = float(rng.uniform(0.1, 3.0))
            pmf = LatticePMF(step=step, min_index=-int(rng.integers(0, 30)),
                             mass=mass / mass.sum())
            for ratio in (0.4, 0.3, 0.15, 0.07, 2.5, float(rng.uniform(0.01, 5.0))):
                on_grid, stride = ruin._on_grid(pmf, step * ratio)
                assert stride == 1 and on_grid.step == step * ratio
                assert abs(on_grid.mass.sum() - pmf.mass.sum()) <= 1e-12
                assert abs(on_grid.mean() - pmf.mean()) <= 1e-12

    # sha256 of psi's float64 bytes from the correlation step, each pass's
    # first step taken from running sums: dividing grid steps keep their bytes
    PINNED = [
        ([Z5] * 3, 0.05, 0.2, "520ef41f5ed69cad2d463d081b13c37a10d7e92f6b95d450ff7bd88cb2cc5afd"),
        ([Z5] * 3, 0.05, 0.1, "2c3ce24a0563ecfa4c5a768aca3929388eb9b448d4ae0b92bf32dd0468771563"),
        ([TestCapitalGrid.LOSS, TestCapitalGrid.GAIN, Z5], 0.3, 0.25,
         "8f42fc1dc2290b4b11636e1c4f188c82f65311e621736bc23a3f8e6d73ed707a"),
        ([Z5] * 4, 0.0, 1.0, "d8e582c2711fac52c2b00d191f4e5d849621379442adca2aa67b704f276f86e1"),
    ]

    @pytest.mark.parametrize("pmfs, r, grid_step, sha", PINNED,
                             ids=["z5-0.2", "z5-0.1", "differing-0.25", "z5-r0-1"])
    def test_dividing_step_keeps_the_lattice_and_psi_bytes(self, pmfs, r, grid_step, sha):
        for pmf in pmfs:
            on_grid, stride = ruin._on_grid(pmf, grid_step)
            assert on_grid is pmf and stride == round(pmf.step / grid_step)
        psi = ruin.survival_recursion(np.linspace(-2.0, 4.0, 41), r, pmfs,
                                      grid_step=grid_step).psi
        assert hashlib.sha256(psi.tobytes()).hexdigest() == sha


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
        cfg = reference_with(overrides)
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

    def test_non_finite_capital_is_a_domain_error(self, table3_config):
        with pytest.raises(DomainError, match="finite, got nan"):
            ruin.run_pipeline(table3_config, [math.nan, 100.0])

    @pytest.mark.parametrize("mix", [{"1": 1.0}, {"1": 1.0, "2": 0.0}],
                             ids=["unlisted", "zero-share"])
    def test_operator_nobody_subscribes_to_leaves_psi_unchanged(self, mix):
        # its fee once set the default lattice step
        us = np.array([100.0, 200.0])
        want, want_info = ruin.run_pipeline(reference_with({}), us)
        cfg = reference_with({"financial": {"operator_fees": {"1": 100.0, "2": 300.0},
                                             "operator_mix": mix}})
        got, info = ruin.run_pipeline(cfg, us)
        assert info["lattice_step"] == want_info["lattice_step"]
        assert np.array_equal(got.psi, want.psi)

    def test_zero_padding_the_pmf_leaves_psi_unchanged(self, table3_config):
        # trailing zero atoms carry no mass: the grid is sized from the
        # positive-mass atoms, so it does not change either
        pmfs, _ = ruin.interval_net_pmfs(table3_config)
        g = pmfs[0]
        padded = LatticePMF(step=g.step, min_index=g.min_index,
                            mass=np.concatenate((g.mass, np.zeros(1000))))
        us = np.array([100.0, 200.0, 300.0])
        r = table3_config.financial.interest_rate_per_interval
        a = ruin.survival_recursion(us, r, [g] * 5)
        b = ruin.survival_recursion(us, r, [padded] * 5)
        np.testing.assert_allclose(a.psi, b.psi, atol=1e-9)
        assert a.u_grid == b.u_grid

    def test_reference_scenario_runs_and_is_sane(self, table3_config):
        us = np.array([100.0, 300.0])
        res, info = ruin.run_pipeline(table3_config, us)
        assert res.psi.shape == (5, 2)
        assert np.all((res.psi >= 0.0) & (res.psi <= 1.0))
        assert np.all(np.diff(res.psi, axis=0) >= -1e-12)
        assert res.psi[4, 0] > res.psi[4, 1]
        assert moments.revenue_moments(table3_config).raw[0] == pytest.approx(219.58, abs=0.05)


def test_correlation_step_bit_identical_to_scipy_fft(table3_config, monkeypatch):
    from tests.test_compound import scipy_fft
    pmfs, _ = ruin.interval_net_pmfs(table3_config)
    r = table3_config.financial.interest_rate_per_interval
    stride = math.ceil((1.0 + r) ** len(pmfs))
    us = np.array([100.0, 300.0])

    def step():
        grid = ruin._RecursionGrid(us, r, pmfs, pmfs[0].step / stride, len(pmfs), 1e-12)
        corr = ruin._Correlation(grid, pmfs[0], stride)
        return corr.n_fft, corr(np.ones_like(grid.points))

    n_fft, got = step()
    scipy_fft(monkeypatch)
    n_fft_scipy, want = step()
    assert n_fft == n_fft_scipy
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["reference", "two-operators", "multi-slot",
                                  "clamps-0.1-100"])
def test_loss_top_not_above_golden_section_oracle(name):
    cfg = sweep_config(name)
    pmfs, _ = ruin.interval_net_pmfs(cfg)
    growth, eps = 1.0 + cfg.financial.interest_rate_per_interval, cfg.numerics.tail_eps
    _, top = ruin._loss_top(pmfs, growth, len(pmfs), eps)
    assert top <= golden_loss_top(pmfs, growth, len(pmfs), eps, ruin.LOSS_CELLS)


def convolve_step(grid, pmf, stride, phi_prev):
    """One correlation-route step from its definition, the lattice correlation
    taken in full by np.convolve.

    c(x) = sum_y m(y) P(x + y) on the cells x the stretch reads, with P the
    previous survival on the grid (0 below it, 1 above it); atoms that land
    above the grid from every read cell add their mass.  Then phi(u) mixes
    the lower node's c and the upper node's, sum_y m(y) P(x + 1 + y), at
    u (1+r) / step (``stretch_nodes``); both count an atom only where x + y
    is a nonnegative capital.
    """
    stretched = grid.points * grid.growth / grid.step
    x_lo, x_hi = math.floor(stretched[0]), math.ceil(stretched[-1])
    y, m = pmf.indices() * stride, pmf.mass
    far = y > grid.k_hi - x_lo
    y_near, m_near = y[~far], m[~far]
    cells = np.arange(x_lo + y_near.min(), x_hi + y_near.max() + 1)

    def big_p(k):
        inside = phi_prev[np.clip(k - grid.k_lo, 0, len(phi_prev) - 1)]
        return np.where(k < grid.k_lo, 0.0, np.where(k > grid.k_hi, 1.0, inside))

    atoms = np.zeros(y_near.max() - y_near.min() + 1)
    atoms[y_near - y_near.min()] = m_near
    corr = [np.clip(np.convolve(np.where(cells >= 0, big_p(cells + shift), 0.0),
                                atoms[::-1], mode="valid") + m[far].sum(), 0.0, 1.0)
            for shift in (0, 1)]
    j, w = stretch_nodes(stretched)
    out = (1.0 - w) * corr[0][j - x_lo] + w * corr[1][j - x_lo]
    return np.maximum.accumulate(out)


@pytest.mark.parametrize("name", ["reference", "fee-300", "horizon-10", "clamps-0.1-100"])
def test_correlation_window_matches_full_linear_correlation(name):
    # the circular length covers only the outputs the stretch reads; the
    # step runs from the survival curve after one step, ruin below it
    cfg = sweep_config(name)
    pmfs, _ = ruin.interval_net_pmfs(cfg)
    r = cfg.financial.interest_rate_per_interval
    stride = max(1, math.ceil((1.0 + r) ** len(pmfs)))
    grid = ruin._RecursionGrid(np.array([100.0, 300.0]), r, pmfs, pmfs[0].step / stride,
                               len(pmfs), cfg.numerics.tail_eps)
    corr = ruin._Correlation(grid, pmfs[0], stride)
    n_out = len(grid.points) + (len(pmfs[0].mass) - 1) * stride
    assert corr.n_fft <= specfun.next_fast_len(n_out)
    phi = corr(np.ones_like(grid.points))
    want = convolve_step(grid, pmfs[0], stride, phi)
    assert np.abs(corr(phi) - want).max() <= 1e-14


def correlations(cfg, us):
    """The recursion's grid and one ``_Correlation`` per distinct interval PMF
    of ``run_pipeline(cfg, us)``, built as ``survival_recursion`` builds them."""
    pmfs, _ = ruin._net_pmfs(cfg, us)
    r, horizon = cfg.financial.interest_rate_per_interval, len(pmfs)
    grid_step = pmfs[0].step / max(1, math.ceil((1.0 + r) ** horizon))
    on_grid = {id(p): ruin._on_grid(p, grid_step) for p in pmfs}
    grid = ruin._RecursionGrid(us, r, [p for p, _ in on_grid.values()], grid_step, horizon,
                               cfg.numerics.tail_eps)
    return grid, [ruin._Correlation(grid, p, stride) for p, stride in on_grid.values()]


TRUNCATED_MULTI_SLOT = {**SWEEP_SCENARIOS["multi-slot"],
                        "numerics": {"truncate_durations_to_interval": True}}


@pytest.mark.parametrize("overrides", list(SWEEP_SCENARIOS.values()) + [TRUNCATED_MULTI_SLOT],
                         ids=list(SWEEP_SCENARIOS) + ["multi-slot-truncated"])
def test_first_step_equals_the_transform_step_on_ones(overrides):
    us = np.array([100.0, 150.0, 200.0, 250.0, 300.0])
    grid, steps = correlations(reference_with(overrides), us)
    if overrides is TRUNCATED_MULTI_SLOT:
        assert len(steps) > 1  # the solve runs backward passes
    for step in steps:
        want = step(np.ones(len(grid.points)))
        assert np.abs(step.first_step() - want).max() <= 1e-14


TILTED = [name for name in SWEEP_SCENARIOS if name not in ("fee-300", "clamps-0.1-100")]


@pytest.mark.parametrize("name", list(SWEEP_SCENARIOS))
def test_read_window_matches_the_whole_compound_law(name):
    # the compound window ends where the recursion reads: the grid and psi
    # stay (``read_windows``), the atoms it keeps match the whole law's,
    # its lumped atom lies past the fold, and the window is shorter on the
    # nine scenarios whose read range is a small part of the law
    cfg = sweep_config(name)
    for record in read_windows(cfg, np.array([100.0, 150.0, 200.0, 250.0, 300.0])):
        diag = record["diagnostics"]
        assert diag["aliasing_bound"] <= 2 * cfg.numerics.tail_eps
        assert diag["mean_residual"] <= diag["mean_tolerance"]
        if name in TILTED:
            assert diag["tilt"] < 0.0 and diag["window_points"] < record["full_points"]
            assert record["l1"] <= 1e-10 and record["past_fold"] >= 1
        else:
            assert diag["tilt"] == 0.0 and record["same"]


def test_a_window_top_past_the_upper_edge_keeps_the_whole_window():
    # the fold edge bound widens with the lowest capital: far below zero it
    # passes the upper Chernoff edge, and the window is the whole law's
    for record in read_windows(sweep_config("reference"), np.array([-1e5, 100.0])):
        assert record["diagnostics"]["tilt"] == 0.0 and record["same"]
