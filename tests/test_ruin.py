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
from tests.oracles import atom_recursion, cdf_below, golden_min, max_index
from tests.test_compound import direct_compound


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


def compound_losses(step, w):
    """(losses, masses) of Y^- for Y the compound sum of the step law
    ``step`` (``direct_compound``, truncated at 1e-13): every gain is a
    loss of 0."""
    y = direct_compound(step, w, tail_eps=1e-13)
    losses, cell = np.unique(np.maximum(-y.values(), 0.0), return_inverse=True)
    return losses, np.bincount(cell, weights=y.mass)


def exact_loss_tail(laws, r, x):
    """Exact Pr(sum_i (1+r)^-i L_i > x) for independent losses L_i with the
    (losses, masses) laws in order: every combination of the first ones,
    then the last one's tail sums."""
    total, mass = np.zeros(1), np.ones(1)
    for i, (losses, masses) in enumerate(laws[:-1], start=1):
        total = np.add.outer(total, losses * (1.0 + r) ** -i).ravel()
        mass = np.multiply.outer(mass, masses).ravel()
    losses, masses = laws[-1]
    tails = np.append(np.cumsum(masses[::-1])[::-1], 0.0)   # mass of losses[k:]
    first = np.searchsorted(losses * (1.0 + r) ** -len(laws), x - total, side="right")
    return float((mass * tails[first]).sum())


def exact_chernoff_top(laws, r, eps):
    """min over theta of (log E[e^(theta X)] - log eps) / theta for X =
    sum_i (1+r)^-i L_i, from the exact MGFs of the (losses, masses) laws,
    by golden section over theta in (0, 1)."""
    def top_at(theta):
        log_m = sum(math.log(float((masses * np.exp(theta * (1.0 + r) ** -i * losses)).sum()))
                    for i, (losses, masses) in enumerate(laws, start=1))
        return (log_m - math.log(eps)) / theta
    return golden_min(top_at, 0.0, 1.0)[1]


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
        ({"loss_top": (10.0, math.nan)}, r"tail_eps must lie in \[0, 1\), got nan"),
        ({"loss_top": (10.0, -1e-12)}, r"tail_eps must lie in \[0, 1\), got -1e-12"),
        ({"loss_top": (10.0, 1.0)}, r"tail_eps must lie in \[0, 1\), got 1.0"),
        ({"loss_top": (math.nan, 1e-12)}, "loss top must be a capital >= 0, got nan"),
        ({"loss_top": (-1.0, 1e-12)}, "loss top must be a capital >= 0, got -1.0"),
    ], ids=["step-0", "step-neg", "step-nan", "step-inf", "eps-nan", "eps-neg", "eps-1",
            "top-nan", "top-neg"])
    def test_accuracy_arguments_out_of_range_are_domain_errors(self, kw, match):
        # they raised ZeroDivisionError or ValueError from deep inside
        with pytest.raises(DomainError, match=match):
            ruin.survival_recursion(np.array([0.0, 1.0]), 0.05, [Z5] * 2, **kw)

    @pytest.mark.parametrize("horizon", [1, 2, 5])
    def test_each_pass_takes_its_first_step_without_a_transform(self, horizon, monkeypatch):
        # an identical-PMF solve transforms in every step but the first; a
        # backward pass of l steps transforms in l - 1.  Each step records
        # the transform passes it runs, one per phase of each irfft call
        steps, calls = [], []
        irfft = np.fft.irfft

        def counted(spectra, n, **kw):
            calls.append(spectra.shape[1])
            steps[-1] += spectra.shape[1]
            return irfft(spectra, n, **kw)

        def recorded(method):
            def step(*args, **kw):
                steps.append(0)
                return method(*args, **kw)
            return step

        monkeypatch.setattr(np.fft, "irfft", counted)
        for name in ("__call__", "first_step"):
            monkeypatch.setattr(ruin._Correlation, name, recorded(getattr(ruin._Correlation, name)))
        us = np.array([0.0, 1.0, 3.0])
        stride = math.ceil(1.05 ** horizon)
        ruin.survival_recursion(us, 0.05, [Z5] * horizon)
        assert len(steps) == horizon and len(calls) == horizon - 1
        assert steps == [0] + [stride] * (horizon - 1)
        steps.clear()
        calls.clear()
        ruin.survival_recursion(us, 0.05, [SKEWED] + [Z5] * (horizon - 1))
        assert len(steps) == horizon * (horizon + 1) // 2
        assert len(calls) == (horizon - 1) * horizon // 2
        assert steps == [n for l in range(1, horizon + 1) for n in [0] + [stride] * (l - 1)]

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
        pmfs, info = ruin.interval_net_pmfs(cfg)
        us = np.array([-50.0, 0.0, 100.0, 150.0, 200.0, 250.0, 300.0])
        r, eps = cfg.financial.interest_rate_per_interval, cfg.numerics.tail_eps
        res = ruin.survival_recursion(us, r, pmfs, loss_top=info["loss_top"])
        ref, oracle_points = full_reach_psi(us, r, pmfs)
        diag = res.diagnostics
        assert diag["grid_tail_bound"] == (len(pmfs) * eps if chernoff_binds else 0.0)
        assert np.abs(res.psi - ref).max() <= diag["grid_tail_bound"] + 1e-13
        assert res.u_grid[2] < oracle_points
        assert res.u_grid[1] == pmfs[0].step / math.ceil((1.0 + r) ** len(pmfs))

    @pytest.mark.parametrize("r", [0.0, 0.05])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_chernoff_top_bounds_the_exact_tail(self, r, eps):
        # the step laws' top for L intervals against the exact discounted
        # losses of their compound sums (``direct_compound``), over every
        # horizon <= L and every sequence of the laws, one law or several.
        # The top is a Chernoff bound on those losses, so it also lies above
        # the exact laws' own Chernoff top, the bound minimized over theta
        # (within 10% on these laws): a top that misses a horizon's factor
        # falls below it, though its tail stays below eps
        w = 0.5
        z5 = LatticePMF(step=1.0, min_index=-4, mass=np.array([0.01, 0.04, 0.15, 0.3, 0.5]))
        for steps in ([z5], [self.LOSS, self.GAIN, z5]):
            edges = [compound.window_edges(z, w, eps) for z in steps]
            laws = [compound_losses(z, w) for z in steps]
            for horizon in (1, 2, 3):
                top = ruin._chernoff_top(edges, w, 1.0 + r, horizon, eps, 1.0)
                worst = max(exact_loss_tail([laws[i] for i in seq], r, top)
                            for l in range(1, horizon + 1)
                            for seq in product(range(len(laws)), repeat=l))
                assert worst <= eps, (len(steps), horizon, worst)
                # the MGFs are at least 1: the longest sequences bound highest
                best = max(exact_chernoff_top([laws[i] for i in seq], r, eps)
                           for seq in product(range(len(laws)), repeat=horizon))
                assert best <= top <= 1.1 * best, (len(steps), horizon, top / best)

    @ROUTES
    def test_differing_pmfs_with_a_binding_top_match_enumeration(self, solve):
        # the top passed in is the exact one: the lowest capital past which
        # every horizon and every order of the intervals ruins with
        # probability at most eps
        us = np.array([0.0, 1.0, 2.0, 4.0, 6.0])
        eps = 1e-3
        laws = [self.LOSS, self.GAIN, self.LOSS]
        top = next(float(x) for x in range(19)
                   if max(discounted_loss_tail([laws[i] for i in order], 0.0, x)
                          for l in range(1, 4) for order in permutations(range(3), l)) <= eps)
        psis = []
        for seq in ([self.LOSS, self.GAIN, self.LOSS], [self.GAIN, self.LOSS, self.LOSS]):
            res = ruin.survival_recursion(us, 0.0, seq, loss_top=(top, eps))
            assert res.diagnostics["grid_tail_bound"] == 3 * eps
            assert grid_hi(res) < 18.0             # the worst-case reach
            exact = ruin.survival_recursion(us, 0.0, seq)
            assert exact.diagnostics["grid_tail_bound"] == 0.0
            assert grid_hi(exact) >= 18.0
            psi, exact_psi = solve(us, 0.0, seq, loss_top=(top, eps)), solve(us, 0.0, seq)
            for j, u in enumerate(us):
                ref = enum_psi(u, 0.0, seq, 3)
                np.testing.assert_allclose(exact_psi[:, j], ref, atol=1e-12)
                assert np.abs(psi[:, j] - ref).max() <= 3 * eps + 1e-12
            psis.append(psi)
        assert not np.allclose(psis[0], psis[1])

    def test_a_rebinned_grid_raises_the_loss_top_by_a_step_per_interval(self):
        # splitting each atom between its two grid nodes moves a loss by less
        # than one grid step, so the caller's top rises by that much per
        # discounted interval before it bounds the grid
        us = np.array([0.0, 1.0])
        top = (5.0, 1e-3)
        on_lattice = ruin.survival_recursion(us, 0.0, [self.LOSS] * 3, grid_step=0.25,
                                             loss_top=top)
        rebinned = ruin.survival_recursion(us, 0.0, [self.LOSS] * 3, grid_step=0.3,
                                           loss_top=top)
        assert 5.0 <= grid_hi(on_lattice) < 5.0 + 0.9
        assert 5.0 + 0.9 <= grid_hi(rebinned) < 18.0

    def test_a_first_read_on_the_last_output_is_interpolated(self):
        # gains only, r = 0, stride 4: the lowest stretched position falls on
        # the correlation's last output, whose lower node lies one output
        # below (it raised IndexError)
        gains = LatticePMF(step=1.0, min_index=1, mass=np.full(28, 1 / 28))
        us = np.array([5.5, 10.0, 15.0])
        psi = ruin.survival_recursion(us, 0.0, [gains] * 3, grid_step=0.25).psi
        np.testing.assert_array_equal(psi, atom_recursion(us, 0.0, [gains] * 3,
                                                          grid_step=0.25))
        np.testing.assert_array_equal(psi, 0.0)

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
        # profit has no gain, it has 7,485 points against 153,636 uncapped
        cfg = sweep_config(name)
        pmfs, info = ruin.interval_net_pmfs(cfg)
        us = np.array([100.0, 150.0, 200.0, 250.0, 300.0])
        r = cfg.financial.interest_rate_per_interval
        capped = ruin.survival_recursion(us, r, pmfs, loss_top=info["loss_top"])
        monkeypatch.setattr(ruin, "_read_top", lambda *args: math.inf)
        uncapped = ruin.survival_recursion(us, r, pmfs, loss_top=info["loss_top"])
        assert np.abs(capped.psi - uncapped.psi).max() <= 1e-13
        if name == "clamps-0.1-100":
            assert capped.u_grid[2] < 10_000

    def test_far_capitals_widen_no_grid(self):
        # below -max(y)^+ / (1+r) the first step is certain ruin and above the
        # loss top survival is read, so neither needs grid points
        cfg = reference_with({})
        pmfs, info = ruin.interval_net_pmfs(cfg)
        r, top = cfg.financial.interest_rate_per_interval, info["loss_top"]
        ref = ruin.survival_recursion(np.array([100.0, 150.0, 200.0, 250.0, 300.0]), r, pmfs,
                                      loss_top=top)
        for u, psi in ((-1e300, 1.0), (-1e6, 1.0), (1e6, 0.0), (1e300, 0.0)):
            res = ruin.survival_recursion(np.array([u]), r, pmfs, loss_top=top)
            assert (res.psi == psi).all(), u
            assert res.u_grid[2] <= ref.u_grid[2], u
        mixed = ruin.survival_recursion(np.array([-1e300, -1e6, 100.0, 1e6, 1e300]), r, pmfs,
                                        loss_top=top)
        assert mixed.u_grid[2] <= ref.u_grid[2]
        # nor do they widen a step's outputs: every bit is the lone capital's
        alone = ruin.survival_recursion(np.array([100.0]), r, pmfs, loss_top=top)
        assert mixed.u_grid == alone.u_grid
        assert mixed.psi[:, 2].tobytes() == alone.psi[:, 0].tobytes()
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
    # first step taken from running sums and each step's outputs ending where
    # the next step's reads end: dividing grid steps keep their bytes
    PINNED = [
        ([Z5] * 3, 0.05, 0.2, "c577b687b9c58a14e6bbaaed1aad342841cfbdce49db1d59e40691cae7464353"),
        ([Z5] * 3, 0.05, 0.1, "701c07d41411165e4835c24b3d2218b8ef757480733aa8f51e5cc8e9137c1e81"),
        ([TestCapitalGrid.LOSS, TestCapitalGrid.GAIN, Z5], 0.3, 0.25,
         "426ffd89b6f6f0eb3908dc726e9e771c848aeb027416f5a9723c6aff67aaa511"),
        ([Z5] * 4, 0.0, 1.0, "ce169ee26570fe5151369a729da65b3eaeea95822f5b7e4ea18e314e0e14cf5a"),
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
    pmfs, info = ruin.interval_net_pmfs(table3_config)
    r = table3_config.financial.interest_rate_per_interval
    stride = math.ceil((1.0 + r) ** len(pmfs))
    us = np.array([100.0, 300.0])

    def step():
        grid = ruin._RecursionGrid(us, r, pmfs, pmfs[0].step / stride, len(pmfs),
                                   info["loss_top"])
        corr = ruin._Correlation(grid, pmfs[0], stride)
        return corr.n_fft, corr(np.ones_like(grid.points), corr.window(corr.n_grid - 1))

    n_fft, got = step()
    scipy_fft(monkeypatch)
    n_fft_scipy, want = step()
    assert n_fft == n_fft_scipy
    assert np.array_equal(got, want)


# the one-theta top over the minimized one: 1.06 on interest-0, at most
# 1.012 on the other sweep scenarios
RATIO = 1.1


@pytest.mark.parametrize("name", ["reference", "two-operators", "multi-slot",
                                  "clamps-0.1-100", "interest-0"])
def test_chernoff_top_lies_near_its_golden_section_minimum(name, monkeypatch):
    # the top is its bound at one theta, the smallest of the lower window
    # edges': the same bound minimized over theta by golden section is lower
    # by at most RATIO, and the top is the bound at some theta, not below
    # the minimum
    cfg = sweep_config(name)
    found = []
    real = compound.window_edges
    monkeypatch.setattr(compound, "window_edges", lambda *a: found.append(real(*a)) or found[-1])
    _, info = ruin.interval_net_pmfs(cfg)
    fin = cfg.financial
    w, horizon = fin.w_n_geometric, fin.horizon_intervals
    discount = (1.0 + fin.interest_rate_per_interval) ** -np.arange(1.0, horizon + 1)
    log_eps = math.log(cfg.numerics.tail_eps) + horizon * math.log1p(-2.0 * ruin.TRIM_MASS)

    def top_at(theta):
        # K(theta) = sum_i max_j log(1 - w + w / (1 - (1-w) M_Zj(-theta d_i)))
        rows = []
        for e in found:
            q_mz = (1.0 - w) * np.exp(np.multiply.outer(-theta * discount, e.idx)
                                      + e.log_p).sum(axis=1)
            if (q_mz >= 1.0).any():
                return math.inf
            rows.append(np.log(1.0 - w + w / (1.0 - q_mz)))
        return (float(np.max(rows, axis=0).sum()) - log_eps) / theta

    # past this theta the lowest atom alone puts (1-w) M_Z(-theta / g) past 1
    pole = min((-math.log1p(-w) - e.log_p[e.idx.argmin()]) / (-e.idx.min() * discount[0])
               for e in found)
    _, best = golden_min(top_at, 0.0, pole)
    top = info["loss_top"][0] / info["lattice_step"]
    assert best * (1.0 - 1e-12) <= top <= RATIO * best


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


@pytest.mark.parametrize("name, stride", [
    ("interest-0", 1), ("reference", 2), ("fee-300", 2), ("horizon-10", 2),
    ("clamps-0.1-100", 2), ("multi-slot", 3), ("multi-slot", 4),
], ids=["interest-0", "reference", "fee-300", "horizon-10", "clamps-0.1-100",
        "multi-slot-3", "multi-slot-4"])
def test_correlation_window_matches_full_linear_correlation(name, stride):
    # the phase length covers only the outputs the stretch reads; the step
    # runs from the survival curve after one step, ruin below it.  The grid
    # step lattice step / stride divides the lattice step
    cfg = sweep_config(name)
    pmfs, info = ruin.interval_net_pmfs(cfg)
    r = cfg.financial.interest_rate_per_interval
    us = np.array([100.0, 300.0])
    grid = ruin._RecursionGrid(us, r, pmfs, pmfs[0].step / stride, len(pmfs), info["loss_top"])
    corr = ruin._Correlation(grid, pmfs[0], stride)
    n_grid = len(grid.points)
    n_out = -(-n_grid // stride) + len(corr.reversed) - 1   # of each phase
    assert corr.n_fft <= stride * specfun.next_fast_len(n_out)
    whole = corr.window(corr.n_grid - 1)
    phi = corr(np.ones(n_grid), whole)
    want = convolve_step(grid, pmfs[0], stride, phi)
    assert np.abs(corr(phi, whole) - want).max() <= 1e-14
    # the windows of a pass's last three steps: the last step's outputs end
    # at the first grid point past the capitals, each earlier step's where
    # the next one's reads end.  Each step is handed only the survival it
    # reads, and its outputs are the whole step's up to its top
    top = int(np.searchsorted(grid.points, us.max(), side="right"))
    for _ in range(3):
        window = corr.window(top)
        got = corr(phi[:window.n_in], window)
        assert len(got) == top + 1
        assert np.abs(got - want[:top + 1]).max() <= 1e-14
        top = window.n_in - 1
    if stride > 1 and name != "clamps-0.1-100":
        # the window's first output is not a phase-0 cell: the phases below
        # its offset start one row early (clamps [0.1, 100], with no gain,
        # reads from output 0)
        assert window.skip > 0
    if name in ("fee-300", "clamps-0.1-100"):
        # the last step reads fewer grid cells than the whole step, and fewer
        # atoms
        first = corr.window(int(np.searchsorted(grid.points, us.max(), side="right")))
        assert first.n_in < n_grid and first.n_atoms < len(corr.reversed)


def correlations(cfg, us):
    """The recursion's grid and one ``_Correlation`` per distinct interval PMF
    of ``run_pipeline(cfg, us)``, built as ``survival_recursion`` builds them."""
    pmfs, info = ruin.interval_net_pmfs(cfg, us)
    r, horizon = cfg.financial.interest_rate_per_interval, len(pmfs)
    grid_step = ruin._RecursionGrid.default_step(pmfs[0].step, 1.0 + r, horizon)
    on_grid = {id(p): ruin._on_grid(p, grid_step) for p in pmfs}
    grid = ruin._RecursionGrid(us, r, [p for p, _ in on_grid.values()], grid_step, horizon,
                               info["loss_top"])
    return grid, [ruin._Correlation(grid, p, stride) for p, stride in on_grid.values()]


TRUNCATED_MULTI_SLOT = {**SWEEP_SCENARIOS["multi-slot"],
                        "numerics": {"truncate_durations_to_interval": True}}


@pytest.mark.parametrize("overrides, searches", [({}, 2), (TRUNCATED_MULTI_SLOT, 10)],
                         ids=["reference", "multi-slot-truncated"])
def test_each_edge_is_searched_once_per_solve(overrides, searches, monkeypatch):
    # two window edges per distinct step law, the lower one read by both the
    # loss top and the compound window; the loss top searches nothing
    calls = []
    search = compound.chernoff_min

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(compound, "chernoff_min", counted)
    _, info = ruin.run_pipeline(reference_with(overrides), np.array([100.0, 200.0, 300.0]))
    assert len(calls) == 2 * len(info["intervals"]) == searches


@pytest.mark.parametrize("overrides", list(SWEEP_SCENARIOS.values()) + [TRUNCATED_MULTI_SLOT],
                         ids=list(SWEEP_SCENARIOS) + ["multi-slot-truncated"])
def test_first_step_equals_the_transform_step_on_ones(overrides):
    us = np.array([100.0, 150.0, 200.0, 250.0, 300.0])
    grid, steps = correlations(reference_with(overrides), us)
    if overrides is TRUNCATED_MULTI_SLOT:
        assert len(steps) > 1  # the solve runs backward passes
    for step in steps:
        whole = step.window(step.n_grid - 1)
        want = step(np.ones(len(grid.points)), whole)
        assert np.abs(step.first_step(whole) - want).max() <= 1e-14


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


# sha256 of each sweep scenario's psi at u = 100..300, one line per horizon
# of its values formatted '.12g': a change of the recursion's roundoff keeps
# these digits, a change of what it computes does not
SWEEP_DIGITS = {
    "reference": "d3981cfe21a0187b2e9ebe07d1653b881a16d9bbc6b3cf1b005070cf6d53252d",
    "pathloss-3": "4581fdc1b52c768594afbb145ae7eec61b91f142668489754648b346bf2e8462",
    "interest-0": "4a1ebcea18b6b047835413fc9954a8c9d4f90206102b6e2d8e6c3224ec197cff",
    "noise-0.01": "d8986702a252b1cc8b79397b92dc03979e91615a9ec393d26d5383807fc45f6c",
    "horizon-10": "ad2c5c1fca434e243add5c75a6b8721923973a041f0065964ed59539eb7d2708",
    "two-operators": "ee7408c37288c52e94c17d3bb6d7b85fb3bae66a53fe42f715008ba1c0ba15e7",
    "multi-slot": "ccc0e826c922feb195a35e2d7373aec09c09e2f455c8cca5deec1738f2705af2",
    "w_n-0.05": "27e0eda56e9bbccccfc87778548bf47abe520feda2169f34e85e8ea6efb15927",
    "lattice-1100/4096": "46feda739ff4feda2fcccf729f607dcd08064eaa1d9e18270f4b2cdfbe284878",
    "fee-300": "40dee43b3293d53abfab866f7ea7b44da40b9f3f3653b5ea7f98bc101c00028f",
    "clamps-0.1-100": "14f5e32137ce28da4a3bea2af14792ae93735a24eaff194145d7b9e1fb5c52bd",
}


@pytest.mark.parametrize("name", list(SWEEP_SCENARIOS))
def test_sweep_psi_digits_pinned(name):
    res, _ = ruin.run_pipeline(sweep_config(name), np.array([100.0, 150.0, 200.0, 250.0, 300.0]))
    text = "\n".join(" ".join(f"{p:.12g}" for p in row) for row in res.psi)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_DIGITS[name]


def test_a_window_top_past_the_upper_edge_keeps_the_whole_window():
    # the fold edge bound widens with the lowest capital: far below zero it
    # passes the upper Chernoff edge, and the window is the whole law's
    for record in read_windows(sweep_config("reference"), np.array([-1e5, 100.0])):
        assert record["diagnostics"]["tilt"] == 0.0 and record["same"]
