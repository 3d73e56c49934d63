"""Simulation oracle: determinism, truncation adequacy, ruin frequencies."""

import hashlib
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from microruin import model, montecarlo
from microruin.errors import DomainError, ResourceLimitError
from tests import oracles
from tests.conftest import (
    SWEEP_SCENARIOS,
    make_config,
    point_mass_config,
    reference_with,
    sweep_config,
)


class TestDeterminism:
    def test_fixed_seed_bit_identical(self, table2_config, fast_plan):
        a = montecarlo.sample_revenues(table2_config, fast_plan, 30_000)
        b = montecarlo.sample_revenues(table2_config, fast_plan, 30_000)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self, table2_config, fast_plan):
        a = montecarlo.sample_revenues(table2_config, fast_plan, 1_000)
        b = montecarlo.sample_revenues(table2_config, replace(fast_plan, seed=8), 1_000)
        assert not np.array_equal(a, b)

    def test_paths_bit_identical(self, table3_config, fast_plan):
        us = [100.0, 200.0]
        a = montecarlo.simulate_surplus_paths(table3_config, fast_plan, us)
        b = montecarlo.simulate_surplus_paths(table3_config, fast_plan, us)
        assert np.array_equal(a.psi, b.psi)


class TestRevenueSampling:
    def test_deterministic_fixture_zero_variance(self, fast_plan):
        cfg = point_mass_config(2.0, tau=3)
        v = montecarlo.sample_revenues(cfg, fast_plan, 500)
        np.testing.assert_allclose(v, 6.0)
        mv, se = montecarlo.estimate_moments(cfg, replace(fast_plan, mc_samples=500))
        assert se[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(mv.raw, 6.0 ** np.arange(1, 5), rtol=1e-12)

    def test_single_draw(self, table2_config, fast_plan):
        v = montecarlo.sample_revenues(table2_config, fast_plan, 1)
        lo, hi = table2_config.income_support()
        assert v.shape == (1,) and lo <= v[0] <= hi

    def test_support_envelope(self, table2_config, fast_plan):
        v = montecarlo.sample_revenues(table2_config, fast_plan, 20_000)
        lo, hi = table2_config.income_support()
        # summing a connection's clamped slots may miss the clamp by a few ulps
        assert v.min() >= lo * (1.0 - 1e-8) and v.max() <= hi * (1.0 + 1e-8)

    def test_radius_doubling_within_one_se(self, table2_config, fast_plan, monkeypatch):
        n = 120_000
        base = montecarlo.sample_revenues(table2_config, fast_plan, n)
        monkeypatch.setattr(montecarlo, "RADIUS_FACTOR", 16.0)
        double = montecarlo.sample_revenues(table2_config, fast_plan, n)
        se = base.std() / np.sqrt(n)
        assert abs(base.mean() - double.mean()) <= se

    def test_bad_sample_count(self, table2_config, fast_plan):
        with pytest.raises(DomainError):
            montecarlo.sample_revenues(table2_config, fast_plan, 0)


class TestSurplusPaths:
    def test_huge_capital_never_ruins(self, table3_config, fast_plan):
        est = montecarlo.simulate_surplus_paths(table3_config, fast_plan, [1e9])
        np.testing.assert_allclose(est.psi, 0.0)

    def test_ruin_monotone_in_horizon_and_capital(self, table3_config, fast_plan):
        est = montecarlo.simulate_surplus_paths(table3_config, fast_plan,
                                                [50.0, 150.0, 400.0])
        assert np.all(np.diff(est.psi, axis=0) >= 0.0)
        assert np.all(np.diff(est.psi, axis=1) <= 0.0)

    def test_intervals_without_users_add_nothing(self):
        # w = 0.999 leaves every interval of these three paths without users
        cfg = sweep_config("horizon-10")
        cfg = replace(cfg, financial=replace(cfg.financial, w_n_geometric=0.999))
        est = montecarlo.simulate_surplus_paths(cfg, replace(cfg.numerics, mc_paths=3),
                                                [0.0, -1.0])
        np.testing.assert_array_equal(est.psi, [[0.0, 1.0]] * 10)

    @pytest.mark.parametrize("fees", ["single", "two-operators"], ids=["one", "mix"])
    def test_a_campaign_holds_one_intervals_revenues_at_a_time(self, monkeypatch, fees):
        # one batch thread, so the measured call reuses the warm-up's one
        # workspace and allocates only the campaign's own arrays; a fee mix
        # draws its fees without keeping an interval's revenues alive
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
        monkeypatch.setattr(montecarlo, "_idle_workspaces", [])
        financial = dict(SWEEP_SCENARIOS["horizon-10"]["financial"])
        if fees == "two-operators":
            financial.update(SWEEP_SCENARIOS["two-operators"]["financial"])
        cfg = reference_with({"financial": financial})
        plan = cfg.numerics
        montecarlo.simulate_surplus_paths(cfg, plan, [100.0])
        tracemalloc.start()
        try:
            montecarlo.simulate_surplus_paths(cfg, plan, [100.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        horizon, n_paths = cfg.financial.horizon_intervals, plan.mc_paths
        users = [int(montecarlo._stream(plan.seed, "path-count", i)
                     .geometric(cfg.financial.w_n_geometric, size=n_paths).sum()) - n_paths
                 for i in range(1, horizon + 1)]
        discounted_bytes, interval_bytes = 8 * horizon * n_paths, 8 * max(users)
        assert peak < discounted_bytes + 3 * interval_bytes, (peak, interval_bytes)

    def test_a_fee_mix_is_drawn_in_pieces(self, monkeypatch):
        # the fees of an interval are drawn CHUNK_POINTS at a time, so beside
        # the campaign without fees the draw holds at most three pieces
        # (uniforms, indices, fees); drawn whole they held two arrays as
        # large as the interval's revenues
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
        peaks = {}
        for name in ("reference", "two-operators"):
            monkeypatch.setattr(montecarlo, "_idle_workspaces", [])
            cfg = sweep_config(name)
            montecarlo.simulate_surplus_paths(cfg, cfg.numerics, [100.0])
            tracemalloc.start()
            try:
                montecarlo.simulate_surplus_paths(cfg, cfg.numerics, [100.0])
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        piece_bytes = 8 * montecarlo.CHUNK_POINTS
        assert peaks["two-operators"] <= peaks["reference"] + 3 * piece_bytes, peaks

    def test_an_oversized_campaign_is_refused_before_any_draw(self, monkeypatch):
        # one path past the budget for the horizon x paths profits: refused
        # before the array exists and before any stream draws
        def no_draw(*path):
            raise AssertionError(f"stream {path} drawn")
        monkeypatch.setattr(montecarlo, "_stream", no_draw)
        cfg = sweep_config("reference")
        horizon = cfg.financial.horizon_intervals
        n_paths = montecarlo.CAMPAIGN_BYTES_BUDGET // (8 * horizon) + 1
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="CAMPAIGN_BYTES_BUDGET"):
                montecarlo.simulate_surplus_paths(
                    cfg, replace(cfg.numerics, mc_paths=n_paths), [100.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_an_intervals_revenues_over_budget_are_refused_before_drawn(self, monkeypatch):
        # at w = 0.05 an interval has about 19 users per path: its revenues
        # outgrow a budget that holds the 5 x 2000 profits
        def no_revenues(*args):
            raise AssertionError("revenues drawn")
        monkeypatch.setattr(montecarlo, "_revenues", no_revenues)
        monkeypatch.setattr(montecarlo, "CAMPAIGN_BYTES_BUDGET", 8 * 5 * 2000)
        cfg = sweep_config("w_n-0.05")
        with pytest.raises(ResourceLimitError, match="revenues of interval 1"):
            montecarlo.simulate_surplus_paths(cfg, replace(cfg.numerics, mc_paths=2000),
                                              [100.0])

    def test_wilson_interval_brackets_estimate(self, table3_config, fast_plan):
        est = montecarlo.simulate_surplus_paths(table3_config, fast_plan, [100.0])
        assert np.all(est.ci_lo <= est.psi + 1e-12)
        assert np.all(est.psi <= est.ci_hi + 1e-12)
        width = est.ci_hi - est.ci_lo
        assert np.all(width < 0.05)

    def test_common_random_numbers_across_u(self, table3_config, fast_plan):
        # psi for a u-sweep is computed from one path ensemble: evaluating a
        # subset of u values must reproduce identical columns
        full = montecarlo.simulate_surplus_paths(table3_config, fast_plan,
                                                 [100.0, 200.0, 300.0])
        sub = montecarlo.simulate_surplus_paths(table3_config, fast_plan, [200.0])
        np.testing.assert_array_equal(full.psi[:, 1], sub.psi[:, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_capital_is_a_domain_error(self, table3_config, fast_plan, bad):
        # a nan capital once read psi 0 (no running minimum is below -nan)
        with pytest.raises(DomainError, match=f"finite, got {bad}"):
            montecarlo.simulate_surplus_paths(table3_config, fast_plan, [bad, 100.0])

    def test_path_losses_sum_their_users_exactly(self, fast_plan):
        # every user nets exactly 2 - fee, so without interest a path's loss
        # is its user count times that, and a path without users loses 0
        cfg = point_mass_config(2.0)
        fin = replace(cfg.financial, interest_rate_per_interval=0.0)
        cfg = replace(cfg, financial=fin)
        loss = next(iter(fin.operator_fees.values())) - 2.0
        plan = replace(fast_plan, mc_paths=500)
        us = [0.0, 3 * loss - 0.5]
        est = montecarlo.simulate_surplus_paths(cfg, plan, us)
        users = np.cumsum([montecarlo._stream(plan.seed, "path-count", l)
                           .geometric(fin.w_n_geometric, size=plan.mc_paths) - 1
                           for l in range(1, fin.horizon_intervals + 1)], axis=0)
        want = np.stack([np.mean(users * loss > u, axis=1) for u in us], axis=1)
        assert np.array_equal(est.psi, want)


def _campbell(alpha, beta, p_i, radius):
    """Mean and variance of the interference from beyond ``radius``: a PPP of
    density beta, power p_i, path loss r^-alpha, exponential marks (E[h^2] = 2)."""
    mean = 2 * math.pi * beta * p_i * radius ** (2 - alpha) / (alpha - 2)
    var = 2 * math.pi * beta * 2 * p_i ** 2 * radius ** (2 - 2 * alpha) / (2 * alpha - 2)
    return mean, var


def _assert_moments_within_4se(x, mean, var):
    """Sample mean and variance of x within 4 standard errors of (mean, var)."""
    n = len(x)
    centred = x - x.mean()
    m2, m4 = np.mean(centred ** 2), np.mean(centred ** 4)
    assert abs(x.mean() - mean) <= 4 * math.sqrt(m2 / n), (x.mean(), mean)
    assert abs(m2 - var) <= 4 * math.sqrt((m4 - m2 * m2) / n), (m2, var)


def _campbell_k3(alpha, beta, p_i, radius):
    """Third cumulant of the same interference (E[h^3] = 6)."""
    return 2 * math.pi * beta * 6 * p_i ** 3 * radius ** (2 - 3 * alpha) / (3 * alpha - 2)


def _assert_k3_within_4se(x, k3):
    """Sample third central moment of x within 4 standard errors of k3."""
    n = len(x)
    centred = x - x.mean()
    m2, m3, m4, m6 = (np.mean(centred ** k) for k in (2, 3, 4, 6))
    se = math.sqrt((m6 - m3 * m3 - 6 * m4 * m2 + 9 * m2 ** 3) / n)
    assert abs(m3 - k3) <= 4 * se, (m3, k3, se)


def _pi_beta_r2(net, r):
    """Serving distances in the sampler's unit t = pi beta r^2."""
    return math.pi * net.beta_cells_per_area * r * r


class TestFarField:
    NET = model.NetworkParams(beta_cells_per_area=0.1, alpha_pathloss=4.0,
                              p_i_interferer_power=2.0)
    RADIUS = 3.0 / math.sqrt(0.1)
    EDGE = math.pi * 3.0 ** 2  # pi beta RADIUS^2

    def test_gamma_draws_match_campbell_moments(self):
        n = 1_000_000
        r_slot = np.random.default_rng(0).uniform(0.0, self.RADIUS, n)
        far = montecarlo._far_field(self.NET, self.EDGE, _pi_beta_r2(self.NET, r_slot),
                                    montecarlo._stream(1, "far"), np.empty(n))
        _assert_moments_within_4se(far, *_campbell(4.0, 0.1, 2.0, self.RADIUS))

    def test_slots_served_beyond_the_radius_use_their_own_distance(self):
        # such slots draw no interferers, so their far field starts at r_u
        n = 200_000
        r_slot = np.repeat([0.5 * self.RADIUS, 1.5 * self.RADIUS, 2.0 * self.RADIUS], n)
        far = montecarlo._far_field(self.NET, self.EDGE, _pi_beta_r2(self.NET, r_slot),
                                    montecarlo._stream(2, "far"), np.empty(3 * n))
        for k, edge in enumerate((self.RADIUS, 1.5 * self.RADIUS, 2.0 * self.RADIUS)):
            want = (*_campbell(4.0, 0.1, 2.0, edge), _campbell_k3(4.0, 0.1, 2.0, edge))
            np.testing.assert_allclose(montecarlo._far_field_moments(self.NET, edge), want,
                                       rtol=1e-12)
            _assert_moments_within_4se(far[k * n:(k + 1) * n], *want[:2])

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    def test_draws_match_campbell_third_cumulant(self, alpha):
        # at the default radius, for slots served inside it and beyond it
        net = replace(self.NET, alpha_pathloss=alpha)
        radius = montecarlo.RADIUS_FACTOR / math.sqrt(0.1)
        n = 1_000_000
        rng = np.random.default_rng(int(10 * alpha))
        r_slot = np.concatenate([rng.uniform(0.0, radius, n), np.full(n, 1.5 * radius)])
        far = montecarlo._far_field(net, math.pi * montecarlo.RADIUS_FACTOR ** 2,
                                    _pi_beta_r2(net, r_slot), montecarlo._stream(3, "far"),
                                    np.empty(2 * n))
        for k, edge in enumerate((radius, 1.5 * radius)):
            assert montecarlo._far_field_law(net, edge)[2] > 0.0
            want = _campbell(alpha, 0.1, 2.0, edge)
            _assert_moments_within_4se(far[k * n:(k + 1) * n], *want[:2])
            _assert_k3_within_4se(far[k * n:(k + 1) * n], _campbell_k3(alpha, 0.1, 2.0, edge))

    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_direct_field_matches_campbell_moments(self, alpha):
        # a PPP drawn directly on [R, 16 R], plus the mean beyond 16 R (the
        # variance and third cumulant left out there are 16^(2 - 2 alpha) and
        # 16^(2 - 3 alpha) of their totals)
        beta, p_i, n, per_batch = 0.1, 2.0, 4_000, 200
        radius = self.RADIUS
        rng = np.random.default_rng(int(10 * alpha))
        sums = []
        for _ in range(n // per_batch):
            counts = rng.poisson(math.pi * beta * 255 * radius ** 2, size=per_batch)
            x_sq = radius ** 2 * (1 + 255 * rng.random(counts.sum()))
            power = p_i * rng.exponential(size=counts.sum()) * x_sq ** (-alpha / 2)
            sums.append(np.bincount(np.repeat(np.arange(per_batch), counts), power,
                                    minlength=per_batch))
        outer_mean, _ = _campbell(alpha, beta, p_i, 16 * radius)
        _assert_moments_within_4se(np.concatenate(sums) + outer_mean,
                                   *_campbell(alpha, beta, p_i, radius))
        _assert_k3_within_4se(np.concatenate(sums), _campbell_k3(alpha, beta, p_i, radius))

    @pytest.mark.parametrize("alpha,durations", [
        pytest.param(2.5, None, id="2.5"),
        pytest.param(3.0, None, id="3.0"),
        pytest.param(4.0, None, id="4.0"),
        pytest.param(4.0, model.DurationModel(kind="truncated-geometric", mean=2.0, tau_max=5),
                     id="multi-slot"),
        pytest.param(4.0, model.DurationModel(kind="deterministic", tau=2, mean=None,
                                              tau_max=None), id="tau-2"),
    ])
    def test_default_radius_revenues_match_analytic_moments_and_atoms(self, alpha, durations):
        from microruin import moments
        cfg = make_config(alpha=alpha, c_min=0.001, c_max=1000.0)
        if durations is not None:
            cfg = model.validate(replace(cfg, durations=durations))
        n = 200_000
        v = montecarlo.sample_revenues(cfg, model.Numerics(seed=13), n)
        mv = moments.revenue_moments(cfg)
        for s in (1, 2):
            se = np.std(v ** s) / math.sqrt(n)
            assert abs(np.mean(v ** s) - mv.raw[s - 1]) <= 4 * se, s
        v_lo, v_hi = cfg.income_support()
        for atom, edge in ((mv.atom_lo, v_lo), (mv.atom_hi, v_hi)):
            freq = float(np.mean(np.abs(v - edge) <= 1e-6))
            assert abs(freq - atom) <= 4 * math.sqrt(atom * (1 - atom) / n), (edge, freq)


def _counts(mean, ws=None):
    mean = np.asarray(mean, dtype=float)
    return montecarlo._poisson_counts(montecarlo._stream(1, "counts"), mean,
                                      np.empty(len(mean), np.int64),
                                      montecarlo._Workspace() if ws is None else ws)


class TestPoissonCounts:
    """The interferer counts by inversion against scipy's Poisson law;
    ``oracles.sample_slot_scaling`` keeps ``Generator.poisson``."""

    N = 200_000

    @pytest.mark.parametrize("mean", [0.0, 1e-9, 0.5, math.pi, 9 * math.pi, 804.0],
                             ids=["0", "1e-9", "0.5", "pi", "9pi", "804-split"])
    def test_frequencies_match_the_poisson_pmf(self, mean):
        # every count expected at least 10 times in N, and the pooled tails
        # below and above those counts, within 4 standard errors
        from scipy import stats
        counts = _counts(np.full(self.N, mean))
        top = int(max(counts.max(), stats.poisson.isf(1e-12, mean)))
        freq = np.bincount(counts, minlength=top + 1) / self.N
        pmf = stats.poisson.pmf(np.arange(top + 1), mean)
        bulk = np.flatnonzero(self.N * pmf >= 10)
        lo, hi = bulk[0], bulk[-1]
        cells = [(freq[k], pmf[k], k) for k in bulk]
        cells += [(freq[:lo].sum(), stats.poisson.cdf(lo - 1, mean), "below"),
                  (freq[hi + 1:].sum(), stats.poisson.sf(hi, mean), "above")]
        for got, p, label in cells:
            assert abs(got - p) <= 4 * math.sqrt(p * (1 - p) / self.N), (label, got, p)

    def test_mean_zero_slots_draw_no_points(self):
        mean = np.tile([0.0, math.pi, 0.0, 804.0, 1e-9, 0.0, 40.0], 2000)
        counts = _counts(mean)
        assert np.all(counts[mean == 0.0] == 0)
        assert counts[mean == 804.0].min() > 600

    def test_cap_lies_past_every_53_bit_uniform(self):
        from scipy import stats
        split, cap = montecarlo.COUNT_SPLIT, montecarlo.COUNT_CAP
        assert stats.poisson.sf(cap, split) < 2.0 ** -53 <= stats.poisson.sf(cap - 1, split)

    @pytest.mark.parametrize("mean", [5e-324, 1e-9, 0.5, math.pi, 9 * math.pi, 32.0, 804.0])
    def test_the_largest_uniform_terminates(self, mean):
        # every uniform 1 - 2^-53: its count lies in the Poisson tail, at most
        # the cap per part, though rounding decides where
        from scipy import stats

        class Top:
            def random(self, out):
                out.fill(1.0 - 2.0 ** -53)
                return out

        counts = montecarlo._poisson_counts(Top(), np.full(3, mean), np.empty(3, np.int64),
                                            montecarlo._Workspace())
        parts = max(1, math.ceil(mean / montecarlo.COUNT_SPLIT))
        assert np.all(counts >= parts * stats.poisson.isf(1e-12, mean / parts))
        assert np.all(counts <= parts * montecarlo.COUNT_CAP)


def _truncation_config(name):
    if name == "alpha-2.5":
        data = model.default_config().to_dict()
        data["network"]["alpha_pathloss"] = 2.5
        return model.validate(model.ScenarioConfig.from_dict(data))
    return sweep_config(name)


class TestTruncation:
    """The default truncation radius against factor 8 (about 200 points per
    slot), on the same seed: the serving distances, durations and fading are
    common to both sides, so the per-revenue differences are paired.  For the
    mean, Pr(V = c_max) and Pr(V < fee), the mean paired difference must lie
    within BOUND paired standard errors.  N, BOUND and the scenarios were
    fixed before the test was first run; they are the same for every
    scenario."""

    N = 100_000
    BOUND = 4.0

    @pytest.mark.parametrize("name", ["reference", "pathloss-3", "alpha-2.5", "noise-0.01",
                                      "multi-slot"])
    def test_default_radius_matches_factor_8(self, name, monkeypatch):
        cfg = _truncation_config(name)
        plan = model.Numerics()
        assert montecarlo.RADIUS_FACTOR < 8.0
        v = montecarlo.sample_revenues(cfg, plan, self.N)
        monkeypatch.setattr(montecarlo, "RADIUS_FACTOR", 8.0)
        v8 = montecarlo.sample_revenues(cfg, plan, self.N)
        fee = max(cfg.financial.operator_fees.values())
        c_max = cfg.financial.c_max * cfg.slot_income_per_unit_scaling
        for label, stat in (("mean", lambda x: x),
                            ("Pr(V = c_max)", lambda x: (x == c_max).astype(float)),
                            ("Pr(V < fee)", lambda x: (x < fee).astype(float))):
            d = stat(v) - stat(v8)
            se = d.std() / math.sqrt(self.N)
            assert abs(d.mean()) <= self.BOUND * se, (label, d.mean(), se)


class TestMomentEstimation:
    def test_matches_analytic_within_three_se(self, table2_config, fast_plan):
        from microruin import moments
        mv = moments.revenue_moments(table2_config)
        est, se = montecarlo.estimate_moments(
            table2_config, replace(fast_plan, mc_samples=150_000))
        for s in (1, 2):
            assert abs(est.raw[s - 1] - mv.raw[s - 1]) <= 3.0 * se[s - 1]

    def test_running_product_power_sums_match_direct_powers(self, table2_config, fast_plan):
        # the power sums multiply one running product; v ** s on the same
        # revenues is the reference, to a few ulps per product
        plan = replace(fast_plan, mc_samples=5000, mc_batch=2048)
        est, se = montecarlo.estimate_moments(table2_config, plan)
        v = montecarlo._revenues(table2_config, plan, "moments", plan.mc_samples, 1)
        d = table2_config.numerics.moment_order
        np.testing.assert_allclose(est.raw, [np.mean(v ** s) for s in range(1, d + 1)],
                                   rtol=1e-13)
        var = np.array([np.mean(v ** (2 * s)) for s in range(1, d + 1)]) - est.raw ** 2
        np.testing.assert_allclose(se, np.sqrt(var / (len(v) - 1)), rtol=1e-9)


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _multi_slot_config():
    data = model.default_config().to_dict()
    data["durations"].update({"kind": "truncated-geometric", "mean": 2.0, "tau_max": 5})
    return model.validate(model.ScenarioConfig.from_dict(data))


class TestStreamPinned:
    """The MC stream is fixed: these sha256 values of the output bytes were
    taken when the keyed streams became SFC64, the interferer marks got their
    own stream and the per-slot, per-user and per-path totals became
    ``np.add.reduceat`` segment sums; the revenue and slot-scaling values were
    re-taken when the interferer positions moved to span units with an
    integer power for alpha = 4 (same draws, reassociated arithmetic); all
    five were re-taken when the far field became a shifted Gamma law with
    three exact cumulants (same draw count, new far-field law); all five
    were re-taken when the serving distance became one standard exponential
    draw of pi beta r^2 (the slot factor in squared distances), a one-value
    duration law stopped drawing durations, the per-slot and multi-slot
    per-user sums became ``np.bincount`` bins and the moment power sums
    running products (slot scaling moved by the bins alone); the four
    campaign values were re-taken when the interferer counts moved from
    ``Generator.poisson`` to inversion from one uniform per slot (new draws;
    slot scaling keeps ``Generator.poisson`` and did not move, which also
    shows the far field's ``standard_gamma`` times its scale draws what
    ``Generator.gamma`` drew).  The chunk size
    and the thread count leave them unchanged (``TestChunkedStream``).  Any
    change of generator, draw order, summation order, arithmetic,
    far-field law, truncation radius or batch layout moves them.  These
    tests fix the truncation factor at 3, so a change of the default radius
    leaves them standing."""

    PLAN = model.Numerics(seed=11, mc_batch=4096, mc_samples=3000, mc_paths=1500)
    N = 2 * 4096 + 1000  # three batches, the last one partial

    @pytest.fixture(autouse=True)
    def _factor_3(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "RADIUS_FACTOR", 3.0)

    REVENUES = {
        "reference": "b2840a6bd892f4f9190e3a75517fab7546e0a75984eec8e76558648b712b169a",
        "multi-slot": "d0acb27e50b224fefdfde74f0245e1d51717a06a389f61e69206a886d4b53860",
    }

    @pytest.mark.parametrize("case", sorted(REVENUES))
    def test_sample_revenues(self, case):
        cfg = (_multi_slot_config() if case == "multi-slot"
               else model.validate(model.default_config()))
        assert _sha(montecarlo.sample_revenues(cfg, self.PLAN, self.N)) == self.REVENUES[case]

    def test_surplus_paths(self):
        est = montecarlo.simulate_surplus_paths(model.validate(model.default_config()),
                                                self.PLAN, [50.0, 150.0, 300.0])
        assert _sha(est.psi) == (
            "d576619834102f34de6831d15d9dc3c57fb0962ac9cc540a7453e9373e2ed922")

    def test_estimate_moments(self):
        mv, se = montecarlo.estimate_moments(model.validate(model.default_config()),
                                             replace(self.PLAN, mc_samples=self.N))
        assert _sha(np.concatenate([mv.raw, se])) == (
            "664447e8ea892608b156f46f01cf42aa60b7d296d672f02a2ade5cf66614cc0e")

    def test_slot_scaling(self, table2_config):
        v = oracles.sample_slot_scaling(table2_config, self.PLAN, r_u=1.0, n=self.N,
                                        rate_gap=100.0)
        assert _sha(v) == "adc78ab4d96c7e9866eb24b1eba41ba481b24e0b4ea4236961697ddb7dc9f4b8"


class TestChunkedStream:
    def test_interference_sums_across_chunk_edges(self, monkeypatch):
        # with 3-point chunks the 7-point slot is a chunk by itself, the empty
        # slots sit on chunk edges, and the last chunk holds no points
        m_slot = np.array([0, 3, 0, 0, 7, 0, 1, 1, 0, 4, 0])
        r2 = np.random.default_rng(0).uniform(1.0, 5.0, size=len(m_slot))
        span = np.random.default_rng(1).uniform(0.0, 50.0, size=len(m_slot))

        def sums(chunk):
            monkeypatch.setattr(montecarlo, "CHUNK_POINTS", chunk)
            return montecarlo._uniform_field_sums(montecarlo._stream(9, "edges"),
                                                  montecarlo._stream(9, "edges", "marks"),
                                                  m_slot, r2.copy(), span.copy(), -2.0,
                                                  montecarlo._Workspace())

        got = sums(3)
        assert got.tobytes() == sums(int(m_slot.sum())).tobytes()
        want = oracles.uniform_field_sums(montecarlo._stream(9, "edges"),
                                          montecarlo._stream(9, "edges", "marks"),
                                          m_slot, r2, span, -2.0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert np.all(got[m_slot == 0] == 0.0)

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_field_sums_match_direct_form(self, monkeypatch, alpha):
        # alpha 4 takes the integer power, alpha 3 np.power; slots without
        # points, slots served beyond the radius (span 0) and chunk edges
        rng = np.random.default_rng(int(alpha))
        radius2 = 90.0
        r2 = radius2 * rng.random(400)
        r2[[5, 77, 399]] = [radius2, 1.5 * radius2, 4.0 * radius2]
        span = np.maximum(radius2 - r2, 0.0)
        m_slot = rng.poisson(0.3 * span)
        m_slot[[0, 1, 200]] = 0
        assert np.all(m_slot[span == 0.0] == 0) and np.count_nonzero(m_slot == 0) > 5
        monkeypatch.setattr(montecarlo, "CHUNK_POINTS", 50)
        got = montecarlo._uniform_field_sums(montecarlo._stream(4, "direct"),
                                             montecarlo._stream(4, "direct", "marks"),
                                             m_slot, r2.copy(), span.copy(), -alpha / 2.0,
                                             montecarlo._Workspace())
        want = oracles.uniform_field_sums(montecarlo._stream(4, "direct"),
                                          montecarlo._stream(4, "direct", "marks"),
                                          m_slot, r2, span, -alpha / 2.0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert np.all(got[m_slot == 0] == 0.0)

    def test_chunk_size_leaves_bytes_unchanged(self, monkeypatch):
        # a small truncation radius leaves many slots without interferers
        cfg = _multi_slot_config()
        monkeypatch.setattr(montecarlo, "RADIUS_FACTOR", 0.6)
        plan = model.Numerics(seed=5, mc_batch=64)
        whole = montecarlo.sample_revenues(cfg, plan, 150)
        for chunk in (1, 2, 3, 7, 1000):
            monkeypatch.setattr(montecarlo, "CHUNK_POINTS", chunk)
            assert montecarlo.sample_revenues(cfg, plan, 150).tobytes() == whole.tobytes()

    def test_counts_do_not_depend_on_the_piece_size(self, monkeypatch):
        # slots without points, means that take the split, and one workspace
        # whose buffers grow and shrink between calls
        mean = np.random.default_rng(3).uniform(-20.0, 80.0, 500).clip(0.0)
        ws = montecarlo._Workspace()
        whole = _counts(mean, ws)
        for chunk in (1, 3, 7, 1000):
            monkeypatch.setattr(montecarlo, "CHUNK_POINTS", chunk)
            assert _counts(mean, ws).tobytes() == whole.tobytes()

    def test_worker_count_leaves_bytes_unchanged(self, monkeypatch, table3_config):
        # more workers than cores and a short switch interval interleave the
        # batches as much as the interpreter allows
        plan = model.Numerics(seed=3, mc_batch=2048, mc_paths=600)
        out = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 5):
                monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)
                v = montecarlo.sample_revenues(table3_config, plan, 4 * 2048 + 5)
                est = montecarlo.simulate_surplus_paths(table3_config, plan, [100.0, 200.0])
                out[workers] = (v.tobytes(), est.psi.tobytes())
        finally:
            sys.setswitchinterval(interval)
        assert out[1] == out[2] == out[5]


class TestPoolMap:
    def test_every_job_writes_its_slot_and_the_first_failure_is_raised(self, monkeypatch):
        def fail_at_4_and_7(j):
            if j in (4, 7):
                raise ValueError(j)
            return j

        for cpus in (1, 3):
            monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
            slots = [None] * 10

            def write(j):
                slots[j] = j
            assert montecarlo._pool_map(write, list(range(10))) is None
            assert slots == list(range(10))
            with pytest.raises(ValueError, match="^4$"):
                montecarlo._pool_map(fail_at_4_and_7, list(range(10)))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_jobs_run_on_the_caller_and_one_thread_per_further_cpu(self, monkeypatch, cpus):
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
        before = set(threading.enumerate())
        # each round of `cpus` jobs waits until every worker holds one
        barrier = threading.Barrier(cpus, timeout=10)
        ran, started = [], set()
        jobs = list(range(4 * cpus))
        slots = [None] * len(jobs)

        def job(j):
            barrier.wait()
            started.update(set(threading.enumerate()) - before)
            ran.append(threading.get_ident())
            slots[j] = j

        montecarlo._pool_map(job, jobs)
        assert slots == jobs
        assert threading.get_ident() in ran and len(set(ran)) == cpus
        assert len(started) == cpus - 1
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_a_failure_in_the_callers_share_is_raised_and_ends_the_pool(self, monkeypatch,
                                                                        cpus):
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
        caller, before = threading.get_ident(), set(threading.enumerate())
        failed = threading.Event()
        ran, started = [], set()

        def job(j):
            # the jobs of the started threads wait for the caller's failure,
            # so every job that starts has been taken before it
            ran.append(j)
            started.update(set(threading.enumerate()) - before)
            if threading.get_ident() == caller:
                failed.set()
                raise ValueError(j)
            assert failed.wait(5)
            time.sleep(0.02)
            return j

        with pytest.raises(ValueError) as info:
            montecarlo._pool_map(job, list(range(10 * cpus)))
        caller_job = int(str(info.value))
        assert caller_job in ran and len(ran) <= cpus
        assert sorted(ran) == list(range(len(ran)))  # taken in job order
        assert not any(thread.is_alive() for thread in started)


class TestWorkspaceReuse:
    """Batches write into workspaces kept from one batch to the next; no
    batch may see another's leftovers, and no result may share them."""

    def test_mutating_a_result_leaves_the_next_call_alone(self):
        cfg = model.validate(model.default_config())
        plan = model.Numerics(seed=2, mc_batch=4096)
        first = montecarlo.sample_revenues(cfg, plan, 1000)
        want = first.copy()
        first[:] = np.nan
        again = montecarlo.sample_revenues(cfg, plan, 1000)
        assert again.tobytes() == want.tobytes()
        assert np.all(np.isnan(first))

    def test_interleaved_batch_shapes_keep_the_pinned_streams(self, monkeypatch):
        # one worker, so every batch reuses the one workspace: multi-slot,
        # reference, a one-sample batch, then multi-slot again
        monkeypatch.setattr(montecarlo, "RADIUS_FACTOR", 3.0)
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
        plan, n, pinned = TestStreamPinned.PLAN, TestStreamPinned.N, TestStreamPinned.REVENUES
        ref, multi = model.validate(model.default_config()), _multi_slot_config()
        one = montecarlo.sample_revenues(ref, plan, 1)
        monkeypatch.setattr(montecarlo, "_idle_workspaces", [])
        assert _sha(montecarlo.sample_revenues(multi, plan, n)) == pinned["multi-slot"]
        assert _sha(montecarlo.sample_revenues(ref, plan, n)) == pinned["reference"]
        assert montecarlo.sample_revenues(ref, plan, 1).tobytes() == one.tobytes()
        assert _sha(montecarlo.sample_revenues(multi, plan, n)) == pinned["multi-slot"]

    def test_concurrent_callers_get_the_serial_bits(self, monkeypatch):
        # two callers, each with its own batch pool, borrow workspaces from
        # one idle list while a short switch interval interleaves them
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
        plan = model.Numerics(seed=6, mc_batch=2048)
        configs = [model.validate(model.default_config()), _multi_slot_config()]
        n = 3 * 2048 + 5
        serial = [montecarlo.sample_revenues(cfg, plan, n).tobytes() for cfg in configs]
        got = [[] for _ in configs]

        def call(k):
            for _ in range(3):
                got[k].append(montecarlo.sample_revenues(configs[k], plan, n).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(k,)) for k in range(len(configs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == [[b] * 3 for b in serial]
