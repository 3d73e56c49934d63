"""Analytic moments against quadrature, enumeration, and Monte Carlo oracles."""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from scipy import integrate

from microruin import model, moments, montecarlo
from microruin.errors import AccuracyError, DomainError
from microruin.model import DurationModel, NetworkParams, Numerics, ProductParams, validate
from tests import oracles
from tests.conftest import SWEEP_SCENARIOS, make_config, point_mass_config, sweep_config


NET = NetworkParams(beta_cells_per_area=0.1, alpha_pathloss=4.0)


class TestInterferenceLaplace:
    def test_transform_at_zero(self):
        assert oracles.interference_laplace(0.0, 100.0, 1.0, NET) == 1.0

    def test_zero_coefficient(self):
        assert oracles.interference_laplace(0.5, 0.0, 1.0, NET) == 1.0

    def test_frozen_quadrature_point(self):
        # independent 2-D (fading-mark x radial) quadrature oracle at 1e-10
        got = oracles.interference_laplace(0.1, 100.0, 1.0, NET)
        assert got == pytest.approx(0.2847204321911005, rel=1e-8)
        live = math.exp(-oracles.interference_laplace_quadrature(0.1, 100.0, 1.0, NET))
        assert got == pytest.approx(live, rel=1e-6)

    def test_closed_form_vs_quadrature_random_sample(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            alpha = rng.uniform(2.1, 6.0)
            beta = 10.0 ** rng.uniform(-2, 0)
            net = NetworkParams(beta_cells_per_area=beta, alpha_pathloss=alpha)
            a = 10.0 ** rng.uniform(0, 3)
            u = 10.0 ** rng.uniform(-3, 0.5)
            r = rng.uniform(0.3, 3.0)
            closed = oracles.interference_laplace(u, a, r, net)
            direct = math.exp(-oracles.interference_laplace_quadrature(u, a, r, net))
            assert closed == pytest.approx(direct, rel=1e-6, abs=1e-250)

    def test_monotone_in_transform_variable_and_coefficient(self):
        us = np.linspace(0.01, 2.0, 15)
        vals = [oracles.interference_laplace(float(u), 50.0, 1.0, NET) for u in us]
        assert all(1.0 >= a > b > 0.0 for a, b in zip(vals, vals[1:]))
        avals = [oracles.interference_laplace(0.1, a, 1.0, NET)
                 for a in (1.0, 10.0, 100.0, 1000.0)]
        assert all(a > b for a, b in zip(avals, avals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            oracles.interference_laplace(-0.1, 1.0, 1.0, NET)
        with pytest.raises(DomainError):
            oracles.interference_laplace(0.1, 1.0, 0.0, NET)


class TestDerivativesAtZero:
    """The fixed-distance slot pair: the transform's derivatives at zero are
    the single-slot moments, checked against the slot sampler."""

    def test_degenerate_clamp_moments(self):
        cfg = point_mass_config(2.0)
        m = oracles.single_slot_moments(4, 100.0, 1.0, cfg.financial, cfg.network)
        np.testing.assert_allclose(m, [2.0, 4.0, 8.0, 16.0], rtol=1e-12)

    def test_first_moment_against_slot_sampler(self, fast_plan):
        # A = 100 at unit distance; MC draws fading + interferer field directly
        cfg = make_config(alpha=4.0, c_min=0.1, c_max=100.0)
        m1 = oracles.single_slot_moments(1, 100.0, 1.0, cfg.financial, cfg.network)[0]
        n = 200_000
        samples = oracles.sample_slot_scaling(cfg, fast_plan, r_u=1.0, n=n, rate_gap=100.0)
        se = samples.std() / math.sqrt(n)
        assert abs(samples.mean() - m1) <= 3.0 * se


class TestDurationSum:
    def test_single_slot_identity(self):
        m = np.array([0.5, 0.4, 0.35, 0.33])
        np.testing.assert_allclose(moments._duration_mixture_moments(m, [1], [1.0]), m)

    def test_second_order_formula(self):
        m = np.array([0.7, 0.55])
        for tau in (2, 3, 5):
            got = moments._duration_mixture_moments(m, [tau], [1.0])
            assert got[0] == pytest.approx(tau * 0.7, rel=1e-12)
            assert got[1] == pytest.approx(tau * 0.55 + tau * (tau - 1) * 0.49,
                                           rel=1e-12)

    def test_three_point_distribution_enumeration(self):
        # X on {0.2, 1.0, 3.0} with probs (0.5, 0.3, 0.2); tau = 3: enumerate 3^3
        xs = np.array([0.2, 1.0, 3.0])
        ps = np.array([0.5, 0.3, 0.2])
        d = 4
        m = np.array([np.dot(ps, xs ** s) for s in range(1, d + 1)])
        got = moments._duration_mixture_moments(m, [3], [1.0])
        ref = np.zeros(d)
        for combo in product(range(3), repeat=3):
            w = np.prod(ps[list(combo)])
            total = xs[list(combo)].sum()
            ref += w * total ** np.arange(1, d + 1)
        np.testing.assert_allclose(got, ref, rtol=1e-12)


class TestRevenueMoments:
    def test_reference_mean_alpha3(self, table2_config):
        # 76.5 at pathloss 3 (clamps [0.1, 100], gap 100); the calibration anchor
        assert moments.revenue_moments(table2_config).raw[0] == pytest.approx(
            76.5, abs=0.1)

    def test_reference_mean_alpha4(self):
        cfg = make_config(alpha=4.0, c_min=0.1, c_max=100.0)
        assert moments.revenue_moments(cfg).raw[0] == pytest.approx(60.5, abs=0.1)

    def test_density_invariance(self):
        # the distance expectation removes the cell density exactly
        vals = [moments.revenue_moments(make_config(alpha=3.0, beta=b)).raw[0]
                for b in (0.01, 0.1, 1.0)]
        assert max(vals) - min(vals) <= 1e-6 * vals[0]

    def test_jensen_chain(self, table3_config):
        raw = moments.revenue_moments(table3_config).raw
        assert raw[1] >= raw[0] ** 2
        assert raw[3] * raw[1] >= raw[2] ** 2

    def test_decreasing_in_pathloss(self):
        alphas = np.arange(2.5, 5.01, 0.5)
        vals = [moments.revenue_moments(make_config(alpha=float(a))).raw[0]
                for a in alphas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_first_moment_interval_independent(self, table3_config):
        a = moments.revenue_moments(table3_config, interval_index=1).raw[0]
        b = moments.revenue_moments(table3_config, interval_index=4).raw[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_monte_carlo(self, fast_plan, table2_config):
        mv = moments.revenue_moments(table2_config)
        est, se = montecarlo.estimate_moments(table2_config, replace(fast_plan,
                                                                     mc_samples=100_000))
        for s in range(1, 3):
            assert abs(mv.raw[s - 1] - est.raw[s - 1]) <= 3.0 * se[s - 1]

    def test_unreachable_tolerance_names_the_panel_budget(self, table3_config):
        cfg = replace(table3_config,
                      numerics=replace(table3_config.numerics, quad_rel_tol=1e-17))
        with pytest.raises(AccuracyError, match=r"panel budget \(\d+ distance x \d+ u panels\)"):
            moments.revenue_moments(cfg)

    def test_product_mixture(self):
        cfg = make_config()
        mixed = replace(cfg, products=ProductParams(rate_gaps=(10.0, 100.0),
                                                    product_mix=(0.4, 0.6)))
        lo = replace(cfg, products=ProductParams(rate_gaps=(10.0,), product_mix=(1.0,)))
        hi = replace(cfg, products=ProductParams(rate_gaps=(100.0,), product_mix=(1.0,)))
        got = moments.revenue_moments(mixed).raw
        want = 0.4 * moments.revenue_moments(lo).raw + 0.6 * moments.revenue_moments(hi).raw
        np.testing.assert_allclose(got, want, rtol=1e-9)


def _scenario(name):
    cfg = make_config(alpha={"pathloss-3": 3.0, "pathloss-5": 5.0}.get(name, 4.0),
                      c_min=0.001, c_max=1000.0)
    if name == "clamps-0.1-100":
        cfg = replace(cfg, financial=replace(cfg.financial, c_min=0.1, c_max=100.0))
    elif name == "truncated-geometric":
        cfg = replace(cfg, durations=DurationModel(kind="truncated-geometric", mean=2.0,
                                                   tau_max=5))
    elif name == "noise":
        cfg = replace(cfg, network=replace(cfg.network, sigma2_noise_power=0.01))
    elif name == "noise-interferer-power-2":
        cfg = replace(cfg, network=replace(cfg.network, p_i_interferer_power=2.0,
                                           sigma2_noise_power=0.5))
    elif name == "multi-slot":
        # an explicit PMF listed out of order, shortest duration above one slot
        cfg = replace(cfg, durations=DurationModel(kind="explicit-pmf", support=(4, 2, 3),
                                                   probs=(0.2, 0.5, 0.3), mean=None,
                                                   tau_max=None))
    elif name == "two-products":
        cfg = replace(cfg, products=ProductParams(rate_gaps=(10.0, 100.0),
                                                  product_mix=(0.4, 0.6)))
    elif name == "pathloss-2.1-clamps-1e-5-1e5":
        # the low atom is ~1e-8, a spike of width ~1e-3 near zero distance
        cfg = make_config(alpha=2.1, c_min=1e-5, c_max=1e5)
    return validate(cfg)


class TestClampAtoms:
    @pytest.mark.parametrize("alpha,c_min,c_max,gap", [(4.0, 0.001, 1000.0, 100.0),
                                                       (3.0, 0.1, 100.0, 100.0),
                                                       (5.0, 0.01, 10.0, 10.0)])
    def test_closed_form_interference_limited_single_slot(self, alpha, c_min, c_max, gap):
        # sigma^2 = 0, one slot: with s = pi beta r^2 ~ Exp(1),
        # E_s[1 - e^(-s c)] = c / (1 + c) (the coverage law), so
        # F(v) = 1 / (1 + c_profile(A kappa T rho / v)) and
        # E[V^k] = (T rho)^k (c_min^k + k Int u^-(k+1) c / (1 + c) du)
        cfg = make_config(alpha=alpha, c_min=c_min, c_max=c_max, rate_gap=gap)
        mv = moments.revenue_moments(cfg)

        def coverage(u):
            c = moments.laplace_exponent_profile(gap * u, alpha)
            return c / (1.0 + c)

        assert mv.atom_lo == pytest.approx(1.0 - coverage(1.0 / c_min), rel=1e-9)
        assert mv.atom_hi == pytest.approx(coverage(1.0 / c_max), rel=1e-9)
        assert mv.lower_exponent == pytest.approx(2.0 / alpha)
        unit = cfg.slot_income_per_unit_scaling
        for k in range(1, cfg.numerics.moment_order + 1):
            # in x = log u: Int e^(-k x) coverage(e^x) dx
            tail, _ = integrate.quad(lambda x: math.exp(-k * x) * coverage(math.exp(x)),
                                     -math.log(c_max), -math.log(c_min),
                                     epsabs=0.0, epsrel=1e-12, limit=400)
            want = unit ** k * (c_min ** k + k * tail)
            assert mv.raw[k - 1] == pytest.approx(want, rel=1e-9), k

    @pytest.mark.parametrize("name", ["reference", "noise", "multi-slot", "two-products"])
    def test_clamp_frequencies_of_monte_carlo_revenues(self, name, fast_plan):
        cfg = _scenario(name)
        mv = moments.revenue_moments(cfg)
        v_lo, v_hi = cfg.income_support()
        n = 100_000
        v = montecarlo.sample_revenues(cfg, fast_plan, n)
        # a multi-slot revenue sums its clamped slots, which may miss the
        # clamped total by a few ulps
        tol = 1e-6
        for atom, edge in ((mv.atom_lo, v_lo), (mv.atom_hi, v_hi)):
            freq = float(np.mean(np.abs(v - edge) <= tol))
            se = math.sqrt(max(atom * (1.0 - atom), 1.0 / n) / n)
            assert abs(freq - atom) <= 4.0 * se, (edge, freq, atom)

    def test_single_slot_revenues_equal_the_clamps_exactly(self, fast_plan):
        # a one-slot revenue is its clamped slot times the unit income, with
        # no roundoff, so the atoms are counted by equality
        cfg = _scenario("reference")
        mv = moments.revenue_moments(cfg)
        v_lo, v_hi = cfg.income_support()
        n = 100_000
        v = montecarlo.sample_revenues(cfg, fast_plan, n)
        for atom, edge in ((mv.atom_lo, v_lo), (mv.atom_hi, v_hi)):
            freq = float(np.mean(v == edge))
            se = math.sqrt(max(atom * (1.0 - atom), 1.0 / n) / n)
            assert abs(freq - atom) <= 4.0 * se, (edge, freq, atom)

    @pytest.mark.parametrize("p_i,sigma2", [(0.1, 1.0), (2.0, 0.5)])
    def test_noise_against_monte_carlo_at_interferer_power_off_one(self, p_i, sigma2):
        # both routes take SINR = P0 h r^-alpha / (sigma^2 + P_I I): scaling
        # the noise by P_I as well read +340 and -79 SE on E[V] here
        cfg = model.default_config()
        cfg = validate(replace(cfg, network=replace(cfg.network, p_i_interferer_power=p_i,
                                                    sigma2_noise_power=sigma2)))
        mv = moments.revenue_moments(cfg)
        v_lo, v_hi = cfg.income_support()
        n = 200_000
        v = montecarlo.sample_revenues(cfg, Numerics(seed=7), n)
        assert abs(v.mean() - mv.raw[0]) <= 4.0 * v.std() / math.sqrt(n), (v.mean(), mv.raw[0])
        for atom, edge in ((mv.atom_lo, v_lo), (mv.atom_hi, v_hi)):
            freq = float(np.mean(v == edge))
            se = math.sqrt(max(atom * (1.0 - atom), 1.0 / n) / n)
            assert abs(freq - atom) <= 4.0 * se, (edge, freq, atom)

    def test_invalid_atoms_rejected(self):
        with pytest.raises(DomainError):
            moments.MomentVector(np.array([1.0, 2.0]), atom_lo=0.7, atom_hi=0.4)


@pytest.mark.parametrize("name", ["reference", "pathloss-3", "pathloss-5", "noise",
                                  "noise-interferer-power-2", "truncated-geometric",
                                  "two-products", "clamps-0.1-100",
                                  "pathloss-2.1-clamps-1e-5-1e5"])
def test_revenue_moments_match_nested_quadrature(name):
    # the tensor rule against the nested adaptive quadrature it replaced
    cfg = _scenario(name)
    got, want = moments.revenue_moments(cfg), oracles.revenue_moments(cfg)
    tol = 10 * cfg.numerics.quad_rel_tol
    np.testing.assert_allclose(got.raw, want.raw, rtol=tol, atol=0.0)
    assert got.atom_lo == pytest.approx(want.atom_lo, rel=tol)
    assert got.atom_hi == pytest.approx(want.atom_hi, rel=tol)


@pytest.mark.parametrize("name", sorted(SWEEP_SCENARIOS))
def test_profile_on_the_rule_nodes_equals_the_scalar_route_bit_for_bit(name):
    # one array call against one float call per node, at every panel count
    # the tensor rule may use
    cfg = sweep_config(name)
    net = cfg.network
    kappa_pow = net.p_i_interferer_power / net.p0_serving_power
    for gap in cfg.products.rate_gaps:
        for level in range(moments._MAX_LEVEL + 1):
            u, profile, _ = moments._log_u_nodes(gap * kappa_pow, net.alpha_pathloss,
                                                 cfg.financial, cfg.numerics.moment_order,
                                                 moments._START_U_PANELS << level)
            want = [oracles.scalar_laplace_exponent_profile(gap * kappa_pow * ui,
                                                            net.alpha_pathloss)
                    for ui in u.tolist()]
            assert profile.tolist() == want


@pytest.mark.parametrize("name", ["reference", "two-operators", "multi-slot"])
def test_one_2f1_call_per_solve(name, monkeypatch):
    # both clamp points and the level-0 and level-1 nodes of every product
    # share one call; the rule converges at level 1 on these scenarios
    calls = []
    gauss_2f1 = moments.specfun.gauss_2f1
    monkeypatch.setattr(moments.specfun, "gauss_2f1",
                        lambda *args: calls.append(1) or gauss_2f1(*args))
    moments.revenue_moments(sweep_config(name))
    assert len(calls) == 1
