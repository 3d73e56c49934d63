"""Lattice discretization and the compound-geometric routes vs enumeration."""

import logging
import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from scipy import optimize

from microruin import compound, income_pdf, moments, ruin
from microruin.compound import (
    LatticePMF,
    compound_geometric_pmf,
    discretize_income,
    net_profit_step_pmf,
)
from microruin.errors import AccuracyError, DomainError, ResourceLimitError
from microruin.model import FinancialParams
from tests.conftest import make_config, sweep_config
from tests.oracles import (
    build_recurrence_matrix,
    cdf_at,
    cdf_below,
    density_mean,
    golden_chernoff_edge,
    hurlimann_ls_solve,
    mass_at,
    max_index,
)
from tests.test_income_pdf import uniform_moments


def enum_compound(pmf: LatticePMF, w: float, n_max: int) -> dict:
    """Exhaustive enumeration of sum_{j<=N} Z_j over N <= n_max outcomes."""
    out = {0: w}
    vals, masses = pmf.indices(), pmf.mass
    for n in range(1, n_max + 1):
        weight = (1.0 - w) ** n * w
        for combo in product(range(len(vals)), repeat=n):
            key = int(sum(vals[i] for i in combo))
            p = weight * float(np.prod(masses[list(combo)]))
            out[key] = out.get(key, 0.0) + p
    return out


def direct_compound(pmf: LatticePMF, w: float, tail_eps: float) -> LatticePMF:
    """Oracle: the literal sum_{u<=U} (1-w)^u w h^(*u), U the geometric
    truncation at tail_eps, accumulated convolution power by power."""
    n_terms = max(0, math.ceil(math.log(tail_eps) / math.log1p(-w)) - 1)
    lo = min(0, n_terms * pmf.min_index)
    hi = max(0, n_terms * max_index(pmf))
    mass = np.zeros(hi - lo + 1)
    mass[-lo] = w
    power = np.array([1.0])
    weight = w
    offset = 0  # min index of the current convolution power
    for _ in range(n_terms):
        power = np.convolve(power, pmf.mass)
        offset += pmf.min_index
        weight *= 1.0 - w
        mass[offset - lo: offset - lo + len(power)] += weight * power
    return LatticePMF(step=pmf.step, min_index=lo, mass=mass / mass.sum())


def dense_tv(a: LatticePMF, b: LatticePMF) -> float:
    lo = min(a.min_index, b.min_index)
    hi = max(max_index(a), max_index(b))

    def dense(p):
        arr = np.zeros(hi - lo + 1)
        arr[p.min_index - lo: p.min_index - lo + len(p.mass)] = p.mass
        return arr

    return 0.5 * float(np.abs(dense(a) - dense(b)).sum())


class TestLatticePMF:
    def test_mass_normalization_enforced(self):
        with pytest.raises(AccuracyError):
            LatticePMF(step=1.0, min_index=0, mass=np.array([0.5, 0.4]))

    def test_negative_mass_rejected(self):
        with pytest.raises(DomainError):
            LatticePMF(step=1.0, min_index=0, mass=np.array([1.2, -0.2]))

    @pytest.mark.parametrize("mass", [[np.nan, 1.0], [1.0, np.nan], [-np.inf, 1.0]])
    def test_nan_and_infinite_masses_rejected(self, mass):
        # NaN fails every comparison, so each gate is written to fail on it
        with pytest.raises(DomainError, match="finite and nonnegative"):
            LatticePMF(step=1.0, min_index=0, mass=np.array(mass))

    def test_strict_and_inclusive_cdf(self):
        pmf = LatticePMF(step=0.5, min_index=-1, mass=np.array([0.2, 0.3, 0.5]))
        assert cdf_below(pmf, 0.0) == pytest.approx(0.2)
        assert cdf_at(pmf, 0.0) == pytest.approx(0.5)
        assert cdf_below(pmf, 10.0) == 1.0
        assert cdf_at(pmf, -10.0) == 0.0

    def test_trim_drops_negligible_tails(self):
        mass = np.array([1e-13, 0.5, 0.5 - 2e-13, 1e-13])
        pmf = LatticePMF(step=1.0, min_index=0, mass=mass / mass.sum())
        t = pmf.trimmed(1e-9)
        assert t.min_index == 1 and len(t.mass) == 2
        assert t.mass.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("crossing", [0, 5, 4095, 4096, 4097, 20_000, 29_999])
    def test_tail_counts_match_the_whole_running_sum(self, crossing):
        # the blockwise running sums carry the sum in front of each block, so
        # the counts and the kept masses equal those of one whole cumsum,
        # bit for bit, wherever the tail crosses eps
        rng = np.random.default_rng(crossing)
        mass = rng.random(30_000) * 1e-15
        mass[crossing] = 1.0
        mass /= mass.sum()
        pmf = LatticePMF(step=0.5, min_index=-7, mass=mass)
        for eps in (1e-12, 1e-9, 0.5):
            lo = int(np.searchsorted(np.cumsum(pmf.mass), eps, side="right"))
            hi = len(mass) - int(np.searchsorted(np.cumsum(pmf.mass[::-1]), eps,
                                                 side="right"))
            assert compound._tail_count(pmf.mass, eps) == lo
            assert compound._tail_count(pmf.mass[::-1], eps) == len(mass) - hi
            lo = min(lo, hi - 1)
            kept = pmf.mass[lo:hi].copy()
            kept /= kept.sum()
            got = pmf.trimmed(eps)
            assert got.min_index == pmf.min_index + lo
            assert got.mass.tobytes() == kept.tobytes()

    def test_a_pmf_never_aliases_its_callers_array(self):
        mass = np.array([0.25, 0.5, 0.25])
        pmf = LatticePMF(step=1.0, min_index=0, mass=mass)
        mass[0] = 7.0
        assert pmf.mass.tolist() == [0.25, 0.5, 0.25]

    def test_roundoff_below_zero_is_clipped_in_the_copy(self):
        mass = np.array([-1e-13, 0.5, 0.5 + 1e-13])
        pmf = LatticePMF(step=1.0, min_index=0, mass=mass)
        assert pmf.mass[0] == 0.0 and mass[0] == -1e-13


class TestDiscretize:
    def test_point_mass_on_lattice(self):
        # density concentrated strictly inside the cell of v = 3 * delta
        mv = uniform_moments(2.95, 3.05)
        dens = income_pdf.sanitize(income_pdf.expand_density(mv, 2.95, 3.05))
        pmf = discretize_income(dens, 1.0)
        assert pmf.min_index == 3
        np.testing.assert_allclose(pmf.mass, [1.0])

    def test_uniform_density_masses(self):
        # uniform on [0, 4]: midpoint cells get (1/8, 1/4, 1/4, 1/4, 1/8)
        dens = income_pdf.sanitize(income_pdf.expand_density(
            uniform_moments(0.0, 4.0), 0.0, 4.0))
        pmf = discretize_income(dens, 1.0)
        assert pmf.min_index == 0
        np.testing.assert_allclose(pmf.mass, [0.125, 0.25, 0.25, 0.25, 0.125],
                                   atol=1e-9)

    def test_mean_preserved_within_half_step(self, table3_config):
        mv = moments.revenue_moments(table3_config)
        v_lo, v_hi = table3_config.income_support()
        dens = income_pdf.sanitize(income_pdf.expand_density(mv, v_lo, v_hi))
        delta = (v_hi - v_lo) / 2048.0
        pmf = discretize_income(dens, delta)
        assert len(pmf.mass) <= 4096
        assert abs(pmf.mean() - density_mean(dens)) <= delta / 2.0

    def test_budget_enforced(self, monkeypatch):
        dens = income_pdf.sanitize(income_pdf.expand_density(
            uniform_moments(0.0, 4.0), 0.0, 4.0))
        monkeypatch.setattr(compound, "POINTS_BUDGET", 1000)
        with pytest.raises(ResourceLimitError):
            discretize_income(dens, 1e-9)


class TestNetProfitStep:
    def test_zero_fee_identity(self):
        income = LatticePMF(step=1.0, min_index=0, mass=np.array([0.5, 0.5]))
        fin = FinancialParams(operator_fees={1: 0.0}, operator_mix={1: 1.0})
        z = net_profit_step_pmf(income, fin)
        assert z.min_index == 0
        np.testing.assert_allclose(z.mass, income.mass)

    def test_point_income_minus_fee(self):
        income = LatticePMF(step=1.0, min_index=50, mass=np.array([1.0]))
        fin = FinancialParams(operator_fees={1: 100.0}, operator_mix={1: 1.0})
        z = net_profit_step_pmf(income, fin)
        assert z.min_index == -50 and z.mass.tolist() == [1.0]

    def test_two_operator_mixture_convolution(self):
        income = LatticePMF(step=1.0, min_index=0,
                            mass=np.array([0.25, 0.25, 0.25, 0.25]))
        fin = FinancialParams(operator_fees={1: 2.0, 2: 4.0},
                              operator_mix={1: 0.5, 2: 0.5})
        z = net_profit_step_pmf(income, fin)
        # direct mixture: 0.5 * (income shifted by -2) + 0.5 * (shifted by -4)
        ref = {}
        for k, fee in ((0, 2), (1, 4)):
            for idx in range(4):
                ref[idx - fee] = ref.get(idx - fee, 0.0) + 0.5 * 0.25
        got = dict(zip(z.indices(), z.mass))
        for key, val in ref.items():
            assert got.get(key, 0.0) == pytest.approx(val, abs=1e-12)

    def test_offlattice_fee_rounded_and_recorded(self):
        income = LatticePMF(step=1.0, min_index=0, mass=np.array([1.0]))
        fin = FinancialParams(operator_fees={1: 2.4}, operator_mix={1: 1.0})
        z = net_profit_step_pmf(income, fin)
        assert z.min_index == -2
        # the pipeline records the lattice's mean fee minus the exact one
        cfg = make_config(lattice_step=1.0)
        cfg = replace(cfg, financial=replace(cfg.financial, operator_fees={1: 2.4}))
        _, info = ruin.interval_net_pmfs(cfg)
        assert info["intervals"][1]["fee_rounding"] == pytest.approx(-0.4, abs=1e-9)


    def test_a_lattice_over_budget_is_refused_before_it_is_built(self):
        # fees 2e6 steps apart: 2M lattice points, twice the budget
        income = LatticePMF(step=1.0, min_index=0, mass=np.full(1001, 1.0 / 1001))
        fin = FinancialParams(operator_fees={1: 0.0, 2: 2e6}, operator_mix={1: 0.5, 2: 0.5})
        with pytest.raises(ResourceLimitError, match=r"net-step lattice needs 2001001 "
                           r"points, over compound\.POINTS_BUDGET = 1000000"):
            net_profit_step_pmf(income, fin)


class TestCompoundGeometric:
    Z3 = LatticePMF(step=1.0, min_index=-1, mass=np.array([0.3, 0.5, 0.2]))

    def test_w_one_is_refused(self):
        # validation keeps w_n inside (0, 1): at w_n = 1 no user ever arrives
        with pytest.raises(DomainError, match=r"\(0, 1\)"):
            compound_geometric_pmf(self.Z3, 1.0)

    def test_mass_at_zero_at_least_w(self):
        for w in (0.2, 0.5, 0.8):
            pmf = compound_geometric_pmf(self.Z3, w)
            assert mass_at(pmf, 0) >= w

    def test_matches_enumeration(self):
        # N truncated at 6 in the oracle; routes truncated far deeper
        ref = enum_compound(self.Z3, 0.5, 6)
        got = compound_geometric_pmf(self.Z3, 0.5, tail_eps=1e-13)
        tail = (1.0 - 0.5) ** 7
        tv = 0.5 * sum(abs(mass_at(got, k) - ref.get(k, 0.0))
                       for k in range(got.min_index, max_index(got) + 1))
        assert tv <= tail  # difference is exactly the oracle's own truncation

    def test_direct_and_fft_agree(self):
        for w in (0.2, 0.6):
            a = direct_compound(self.Z3, w, tail_eps=1e-12)
            b = compound_geometric_pmf(self.Z3, w, tail_eps=1e-12)
            assert dense_tv(a, b) <= 1e-12

    def test_mean_identity_positive_support(self):
        z = LatticePMF(step=0.5, min_index=1, mass=np.array([0.4, 0.6]))
        pmf = compound_geometric_pmf(z, 0.3)
        assert pmf.mean() == pytest.approx((0.7 / 0.3) * z.mean(), rel=1e-8)

    def test_budget_error_reports_achievable_tail(self, monkeypatch):
        monkeypatch.setattr(compound, "POINTS_BUDGET", 100)
        with pytest.raises(ResourceLimitError, match="achievable tail mass") as err:
            compound_geometric_pmf(self.Z3, 0.01, tail_eps=1e-300)
        achieved = float(str(err.value).split("achievable tail mass ")[1].split()[0])
        assert 1e-300 < achieved < 1.0

    @pytest.mark.parametrize("z", [
        LatticePMF(step=1.0, min_index=0, mass=np.array([0.2, 0.5, 0.3])),
        LatticePMF(step=1.0, min_index=2, mass=np.array([0.6, 0.0, 0.4])),
        LatticePMF(step=1.0, min_index=-3, mass=np.array([0.5, 0.2, 0.3])),
        LatticePMF(step=1.0, min_index=-4, mass=np.array([0.7, 0.0, 0.0, 0.0, 0.3])),
    ], ids=["nonneg", "positive", "nonpos", "nonpos-gap"])
    @pytest.mark.parametrize("w", [0.05, 0.3, 0.97, 0.999])
    def test_window_matches_oracle(self, z, w):
        # one-sided Z puts no mass on the other side of the origin, and the
        # window from the Chernoff bounds holds the mass for small and large w
        ref = direct_compound(z, w, tail_eps=1e-12)
        got = compound_geometric_pmf(z, w, tail_eps=1e-12)
        assert dense_tv(ref, got) <= 1e-10
        if z.min_index >= 0:
            assert cdf_below(got, 0.0) <= 1e-12
        if max_index(z) <= 0:
            assert cdf_at(got, 0.0) >= 1.0 - 1e-12
        diag = got.diagnostics
        assert diag["window_points"] == len(got.mass)
        assert diag["aliasing_bound"] <= 2e-12
        assert diag["mean_residual"] <= diag["mean_tolerance"]

    def test_window_sized_to_mass_not_reach(self):
        # the truncated reach is n_terms * span; the mass sits near the mean
        z = LatticePMF(step=1.0, min_index=-200,
                       mass=np.full(401, 1.0 / 401))
        got = compound_geometric_pmf(z, 0.2, tail_eps=1e-12)
        n_terms = math.ceil(math.log(1e-12) / math.log1p(-0.2)) - 1
        assert len(got.mass) < 0.25 * n_terms * 400
        assert got.diagnostics["aliasing_bound"] <= 2e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            compound_geometric_pmf(self.Z3, 0.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, 2.0, 1.0, math.nan])
    def test_tail_eps_out_of_range_is_a_domain_error(self, eps):
        # it raised a math domain error, ZeroDivisionError or, for NaN, a
        # Chernoff search that "did not converge"
        with pytest.raises(DomainError, match=r"tail_eps must lie in \(0, 1\), got"):
            compound_geometric_pmf(self.Z3, 0.5, tail_eps=eps)

    @pytest.mark.parametrize("top", [-1, 2.5, "3", None])
    def test_window_top_must_be_a_nonnegative_index(self, top):
        if top is None:
            assert compound_geometric_pmf(self.Z3, 0.5).diagnostics["tilt"] == 0.0
            return
        with pytest.raises(DomainError, match="window top must be a nonnegative lattice index"):
            compound_geometric_pmf(self.Z3, 0.5, top=top)

    WIDE = LatticePMF(step=1.0, min_index=-3, mass=np.full(14, 1.0 / 14))  # mean +3.5

    @pytest.mark.parametrize("top", [0, 5, 30, 120])
    def test_read_window_matches_the_oracle_up_to_its_top(self, top):
        # every atom up to top is the compound law's, and the rest of the
        # mass sits on one atom at top + 1
        ref = direct_compound(self.WIDE, 0.2, tail_eps=1e-13)
        got = compound_geometric_pmf(self.WIDE, 0.2, tail_eps=1e-12, top=top)
        whole = compound_geometric_pmf(self.WIDE, 0.2, tail_eps=1e-12)
        diag = got.diagnostics
        assert diag["tilt"] < 0.0 and diag["window_points"] < whole.diagnostics["window_points"]
        assert max_index(got) == top + 1
        assert sum(abs(mass_at(got, k) - mass_at(ref, k))
                   for k in range(ref.min_index, top + 1)) <= 1e-11
        assert mass_at(got, top + 1) == pytest.approx(1.0 - cdf_at(ref, top), abs=1e-11)
        assert abs(diag["tilt"]) * top <= compound.UNTILT_EXPONENT
        assert diag["aliasing_bound"] <= 2e-12
        assert diag["mean_residual"] <= diag["mean_tolerance"]

    def test_read_window_is_taken_only_when_shorter(self):
        # a top at or past the upper edge, or one whose read window would be
        # no shorter, keeps the whole window bit for bit
        whole = compound_geometric_pmf(self.WIDE, 0.2)
        for top in (whole.min_index + len(whole.mass) - 1, 10 ** 6):
            got = compound_geometric_pmf(self.WIDE, 0.2, top=top)
            assert got.min_index == whole.min_index and np.array_equal(got.mass, whole.mass)
            assert got.diagnostics == whole.diagnostics


def sweep_step_pmf(name: str):
    """A sweep scenario's net-profit step PMF of interval 1 and its config."""
    cfg = sweep_config(name)
    fin = cfg.financial
    v_lo, v_hi = cfg.income_support(1)
    delta = cfg.numerics.lattice_step or (v_hi + max(fin.operator_fees.values())) / 2048.0
    density = income_pdf.sanitize(income_pdf.expand_density(
        moments.revenue_moments(cfg), v_lo, v_hi))
    return net_profit_step_pmf(discretize_income(density, delta), fin), cfg


CHERNOFF_SCENARIOS = ["reference", "two-operators", "multi-slot", "clamps-0.1-100"]


class TestChernoffSearch:
    @pytest.mark.parametrize("name", CHERNOFF_SCENARIOS)
    def test_edges_equal_golden_section_oracle(self, name):
        z, cfg = sweep_step_pmf(name)
        alive = z.mass > 0
        idx, log_p = z.indices()[alive], np.log(z.mass[alive])
        w, log_eps = cfg.financial.w_n_geometric, math.log(cfg.numerics.tail_eps)
        for side in (idx, -idx):
            edge, _ = compound._chernoff_edge(side, log_p, w, log_eps)
            assert edge == golden_chernoff_edge(side, log_p, w, log_eps)

    @pytest.mark.parametrize("name", ["reference", "pathloss-3", "fee-300", "w_n-0.05"])
    def test_bracket_only_shrinks(self, name, monkeypatch):
        # the four searches of a solve (the lower edge the loss bound takes
        # its theta from, the two window edges of the compound PMF, then the
        # recursion grid's loss top): once some theta has
        # h = theta K' - K + log eps >= 0, no later theta lies above it, and
        # no search takes more than 15 CGF evaluations
        searches = []
        search = compound.chernoff_min

        def recorded(cgf, log_eps, theta_hi):
            seen = []

            def traced(theta):
                k, k1, k2 = cgf(theta)
                seen.append((theta, theta * k1 - k + log_eps if math.isfinite(k) else math.inf))
                return k, k1, k2
            searches.append(seen)
            return search(traced, log_eps, theta_hi)

        monkeypatch.setattr(compound, "chernoff_min", recorded)
        ruin.run_pipeline(sweep_config(name), np.array([100.0, 200.0, 300.0]))
        assert len(searches) == 4
        for seen in searches:
            assert len(seen) <= 15, seen
            for i, (theta, _) in enumerate(seen):
                above = [t for t, h in seen[:i] if h >= 0.0 and theta > t]
                assert above == [], (theta, above)

    @pytest.mark.parametrize("log_eps", [-5.0, -27.6])
    def test_minimizes_poisson_and_geometric_bounds(self, log_eps):
        # K of Poisson(2) (no pole) and of a geometric count (pole at -log 0.7):
        # the minimizing theta is the root of theta K' - K + log eps
        cgfs = [(lambda t: (2.0 * math.expm1(t), 2.0 * math.exp(t), 2.0 * math.exp(t)),
                 50.0),
                (lambda t: ((math.log(0.3) - math.log1p(-0.7 * math.exp(t)),
                             0.7 * math.exp(t) / (1 - 0.7 * math.exp(t)),
                             0.7 * math.exp(t) / (1 - 0.7 * math.exp(t)) ** 2)
                            if 0.7 * math.exp(t) < 1 else (math.inf,) * 3),
                 -math.log(0.7))]
        for cgf, theta_hi in cgfs:
            def h(t):
                k, k1, _ = cgf(t)
                return t * k1 - k + log_eps
            want = optimize.brentq(h, 1e-9, theta_hi * (1 - 1e-12), xtol=1e-15)
            theta, k = compound.chernoff_min(cgf, log_eps, theta_hi)
            assert theta == pytest.approx(want, rel=1e-10)
            assert k == cgf(theta)[0]

    def test_returns_the_upper_end_when_the_bound_keeps_falling(self):
        # Poisson(2) with eps = 1e-12 has its best theta above 2, so the
        # bound falls on all of (0, 1]
        def cgf(t):
            return 2.0 * math.expm1(t), 2.0 * math.exp(t), 2.0 * math.exp(t)
        theta, k = compound.chernoff_min(cgf, math.log(1e-12), 1.0)
        assert (theta, k) == (1.0, cgf(1.0)[0])

    def test_stops_when_the_bracket_is_two_adjacent_floats(self):
        # h = theta K' - K + log eps is a rounding residue of fixed sign on
        # each side of 24 and K'' is nearly 0, so every Newton step leaves the
        # bracket and bisection shrinks it to (24, next float after 24)
        log_eps = math.log(1e-12)

        def cgf(t):
            return 3.0 * t + log_eps - (-1e-13 if t <= 24.0 else 1e-13), 3.0, 1e-300

        theta, k = compound.chernoff_min(cgf, log_eps, 50.0)
        assert theta in (24.0, math.nextafter(24.0, math.inf))
        assert k == cgf(theta)[0]

    def test_search_past_its_cap_names_it(self, monkeypatch):
        monkeypatch.setattr(compound, "CHERNOFF_STEPS", 1)
        with pytest.raises(AccuracyError, match="within its 1-step cap"):
            compound_geometric_pmf(TestCompoundGeometric.Z3, 0.3)


class TestRecurrenceRoute:
    Z3 = LatticePMF(step=1.0, min_index=-1, mass=np.array([0.3, 0.5, 0.2]))

    def test_w_one_fixture(self):
        pmf = hurlimann_ls_solve(self.Z3, 1.0)
        assert pmf.min_index == 0 and pmf.mass.tolist() == [1.0]

    def test_matches_convolution_and_enumeration(self):
        conv = compound_geometric_pmf(self.Z3, 0.5, tail_eps=1e-13)
        ls = hurlimann_ls_solve(self.Z3, 0.5, tail_eps=1e-13)
        assert dense_tv(ls, conv) <= 1e-6

    def test_five_point_signed_support(self):
        z = LatticePMF(step=2.0, min_index=-2,
                       mass=np.array([0.1, 0.2, 0.3, 0.25, 0.15]))
        conv = compound_geometric_pmf(z, 0.4, tail_eps=1e-12)
        ls = hurlimann_ls_solve(z, 0.4, tail_eps=1e-12)
        assert dense_tv(ls, conv) <= 1e-6

    def test_as_printed_variant_disagrees_and_is_reported(self, caplog):
        # the alternative recurrence statement (extra (n+1) factor,
        # w/(1 - w h0) coefficients) does not reproduce the compound
        # distribution; it is solved, reported, and compared -- never
        # silently corrected
        conv = compound_geometric_pmf(self.Z3, 0.5, tail_eps=1e-10)
        with caplog.at_level(logging.WARNING, logger="tests.oracles"):
            printed = hurlimann_ls_solve(self.Z3, 0.5, tail_eps=1e-10,
                                         variant="as-printed")
        assert any("as-printed" in rec.message for rec in caplog.records)
        assert dense_tv(printed, conv) > 0.1

    def test_matrix_shapes(self):
        a, min_idx = build_recurrence_matrix(self.Z3, 0.5, 4, "corrected")
        assert min_idx == -4
        assert a.shape == (8, 9)  # every lattice row except the origin
        with pytest.raises(DomainError):
            build_recurrence_matrix(self.Z3, 0.5, 4, "bogus")


def scipy_fft(monkeypatch):
    """Route the program's real FFTs and FFT lengths through scipy.fft."""
    from scipy import fft as sp_fft
    from microruin import specfun
    monkeypatch.setattr(np.fft, "rfft", sp_fft.rfft)
    monkeypatch.setattr(np.fft, "irfft", sp_fft.irfft)
    monkeypatch.setattr(specfun, "next_fast_len",
                        lambda n: sp_fft.next_fast_len(n, real=True))


def test_reference_compound_pmf_bit_identical_to_scipy_fft(table3_config, monkeypatch):
    cfg = table3_config
    fin, num = cfg.financial, cfg.numerics
    density = income_pdf.sanitize(income_pdf.expand_density(
        moments.revenue_moments(cfg), *cfg.income_support()))
    delta = (cfg.income_support()[1] + max(fin.operator_fees.values())) / 2048.0
    step = net_profit_step_pmf(discretize_income(density, delta), fin)

    def solve():
        return compound_geometric_pmf(step, fin.w_n_geometric, tail_eps=num.tail_eps)

    got = solve()
    scipy_fft(monkeypatch)
    want = solve()
    assert got.min_index == want.min_index
    assert np.array_equal(got.mass, want.mass)
