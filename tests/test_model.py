"""Config validation, the duration model, and the serving-distance law."""

import hashlib
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import integrate

from microruin import model
from microruin.errors import ConfigError, DomainError
from tests import oracles


class TestValidate:
    def test_reference_defaults_valid(self):
        # K=1, sigma2=0, P0=P_I=1, w_N=0.2, Q=1, T*rho=1, fee 100, monthly interval
        cfg = model.validate(model.default_config())
        assert cfg.network.sigma2_noise_power == 0.0
        assert cfg.financial.w_n_geometric == 0.2
        assert cfg.slot_income_per_unit_scaling == 1.0
        fin = cfg.financial  # mean fee 100
        assert sum(fin.operator_mix[k] * fin.operator_fees[k] for k in fin.operator_mix) == 100.0

    def test_alpha_boundary_rejected(self):
        cfg = replace(model.default_config(),
                      network=replace(model.default_config().network,
                                      alpha_pathloss=2.0))
        with pytest.raises(ConfigError) as info:
            model.validate(cfg)
        assert any("alpha must exceed 2" in msg for _, msg in info.value.errors)
        assert any(path == "network.alpha_pathloss" for path, _ in info.value.errors)

    def test_operator_mix_must_sum_to_one(self):
        base = model.default_config()
        cfg = replace(base, financial=replace(base.financial,
                                              operator_mix={1: 0.5}))
        with pytest.raises(ConfigError) as info:
            model.validate(cfg)
        assert any("sum to 1" in msg for _, msg in info.value.errors)

    def test_multiple_errors_collected(self):
        base = model.default_config()
        cfg = replace(base,
                      network=replace(base.network, alpha_pathloss=1.5,
                                      beta_cells_per_area=-1.0),
                      financial=replace(base.financial, w_n_geometric=1.5))
        with pytest.raises(ConfigError) as info:
            model.validate(cfg)
        assert len(info.value.errors) >= 3

    def test_json_roundtrip_preserves_hash(self, tmp_path):
        cfg = model.default_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = model.load_config(path)
        assert loaded.config_hash() == cfg.config_hash()
        assert loaded == cfg

    def test_default_config_hash_pinned(self):
        # the JSON document, and so the hash, keeps every field of every section
        cfg = model.default_config()
        assert cfg.config_hash() == (
            "d64089c1ea10b79ec148735128fc096aaa9b351bd46780c94b7d080cfb31510b")
        data = cfg.to_dict()
        for section in ("network", "financial", "numerics"):
            assert set(data[section]) == {f.name for f in fields(getattr(cfg, section))}

    def test_env_var_config_path(self, tmp_path, monkeypatch):
        cfg = model.default_config()
        target = tmp_path / "env.json"
        target.write_text(json.dumps(cfg.to_dict()))
        monkeypatch.setenv(model.CONFIG_ENV_VAR, str(target))
        assert model.load_config().config_hash() == cfg.config_hash()

    def test_rates_converted_to_gaps(self):
        data = model.default_config().to_dict()
        data["products"] = {"rates_bps": [math.log2(101.0)], "product_mix": [1.0]}
        data["network"]["bandwidth_hz"] = 1.0
        cfg = model.ScenarioConfig.from_dict(data)
        assert cfg.products.rate_gaps[0] == pytest.approx(100.0, rel=1e-12)


    def test_integer_fields_refuse_other_numbers(self):
        # whole-number floats too: the pipeline sizes arrays and loops with them
        base = model.default_config()
        cfg = replace(base, numerics=replace(base.numerics, moment_order=4.0, mc_batch=7.5),
                      financial=replace(base.financial, horizon_intervals=np.float64(5)))
        with pytest.raises(ConfigError) as info:
            model.validate(cfg)
        assert sorted(path for path, _ in info.value.errors) == [
            "financial.horizon_intervals", "numerics.mc_batch", "numerics.moment_order"]
        model.validate(replace(base, numerics=replace(base.numerics, seed=np.int64(3))))

    def test_integer_fields_named(self):
        assert model.INTEGER_FIELDS == {
            "financial.horizon_intervals", "numerics.moment_order", "numerics.mc_samples",
            "numerics.mc_paths", "numerics.mc_batch", "numerics.seed"}


class TestDurationModel:
    def test_deterministic(self):
        m = model.DurationModel(kind="deterministic", tau=3)
        values, probs = m.pmf()
        assert values.tolist() == [3] and probs.tolist() == [1.0]

    def test_truncated_geometric_mean_solved(self):
        m = model.DurationModel(kind="truncated-geometric", mean=2.2, tau_max=6)
        values, probs = m.pmf()
        assert float(np.dot(values, probs)) == pytest.approx(2.2, abs=1e-9)

    def test_truncated_geometric_solved_once_as_by_200_halvings(self):
        def halvings(mean, tau_max):
            t = np.arange(1, tau_max + 1)
            lo, hi = 1e-12, 1.0 - 1e-12
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                w = (1.0 - mid) ** (t - 1.0)
                if float(np.dot(t, w) / w.sum()) > mean:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for mean, tau_max in ((2.0, 5), (1.3, 3), (2.2, 6), (4.9, 10)):
            m = model.DurationModel(kind="truncated-geometric", mean=mean, tau_max=tau_max)
            assert m._geometric_p == halvings(mean, tau_max)
            first, again = m.pmf(), m.pmf()
            assert np.array_equal(first[1], again[1])
            assert "_geometric_p" in vars(m)       # solved once, kept on the model

    def test_degenerate_mean_one_is_single_slot(self):
        m = model.DurationModel(kind="truncated-geometric", mean=1.0, tau_max=5)
        values, probs = m.pmf()
        assert values.tolist() == [1] and probs.tolist() == [1.0]

    def test_uniform_limit(self):
        m = model.DurationModel(kind="truncated-geometric", mean=3.0, tau_max=5)
        _, probs = m.pmf()
        np.testing.assert_allclose(probs, 0.2)

    def test_interval_truncation(self):
        m = model.DurationModel(kind="explicit-pmf", support=(1, 2, 3),
                                probs=(0.2, 0.3, 0.5))
        cfg = model.default_config()
        cfg = replace(cfg, durations=m,
                      numerics=replace(cfg.numerics, truncate_durations_to_interval=True))
        values, probs = cfg.interval_durations(2)
        assert values.tolist() == [1, 2]
        np.testing.assert_allclose(probs, [0.4, 0.6])

    def test_per_interval_override(self):
        override = model.DurationModel(kind="deterministic", tau=2)
        m = model.DurationModel(kind="deterministic", tau=1,
                                per_interval_override={3: override})
        cfg = replace(model.default_config(), durations=m)
        assert cfg.interval_durations(1)[0].tolist() == [1]
        assert cfg.interval_durations(3)[0].tolist() == [2]

    def test_config_interval_durations_and_support(self):
        # the override first, then the truncation flag of the numerics
        dur = model.DurationModel(kind="explicit-pmf", support=(1, 3), probs=(0.5, 0.5),
                                  per_interval_override={
                                      2: model.DurationModel(kind="deterministic", tau=2)})
        cfg = replace(model.default_config(), durations=dur)
        assert cfg.interval_durations(2)[0].tolist() == [2]
        assert cfg.income_support() == cfg.income_support(1) == (0.001, 3000.0)
        cut = replace(cfg, numerics=replace(cfg.numerics,
                                            truncate_durations_to_interval=True))
        assert cut.interval_durations(1)[0].tolist() == [1]
        assert cut.income_support() == (0.001, 1000.0)
        assert cut.income_support(2) == (0.002, 2000.0)
        assert cut.income_support(3) == (0.001, 3000.0)

    def test_zero_probability_value_leaves_the_law_unchanged(self):
        # explicit-pmf (1, 2) with probs (0, 1) is deterministic tau = 2
        from microruin import moments, ruin
        configs = [model.validate(replace(model.default_config(), durations=dur)) for dur in (
            model.DurationModel(kind="explicit-pmf", support=(1, 2), probs=(0.0, 1.0),
                                mean=None, tau_max=None),
            model.DurationModel(kind="deterministic", tau=2, mean=None, tau_max=None))]
        explicit, fixed = configs
        assert explicit.income_support() == fixed.income_support()
        mv, want = (moments.revenue_moments(c) for c in configs)
        assert mv.raw.tobytes() == want.raw.tobytes()
        assert (mv.atom_lo, mv.atom_hi) == (want.atom_lo, want.atom_hi)
        us = np.array([100.0, 200.0])
        psi, want_psi = (ruin.run_pipeline(c, us)[0].psi for c in configs)
        assert psi.tobytes() == want_psi.tobytes()
        assert explicit.durations.pmf()[0].tolist() == [2]

    def test_invalid_mean_rejected(self):
        with pytest.raises(DomainError):
            model.DurationModel(kind="truncated-geometric", mean=4.0, tau_max=5).pmf()


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestLawRule:
    """A written law becomes (values, probabilities) by one rule: values of
    probability zero dropped, equal values merged into their first
    occurrence, the written order kept."""

    def test_repeats_merge_into_their_first_occurrence_in_written_order(self):
        dur = model.DurationModel(kind="explicit-pmf", support=(4, 2, 4, 3, 5),
                                  probs=(0.125, 0.5, 0.125, 0.25, 0.0))
        values, probs = dur.pmf()
        assert values.tolist() == [4, 2, 3] and probs.tolist() == [0.25, 0.5, 0.25]
        fin = model.FinancialParams(operator_fees={3: 60.0, 1: 100.0, 2: 60.0},
                                    operator_mix={3: 0.25, 1: 0.5, 2: 0.25})
        assert [a.tolist() for a in fin.fee_law()] == [[100.0, 60.0], [0.5, 0.5]]
        prod = model.ProductParams(rate_gaps=(7.0, 100.0, 7.0), product_mix=(0.0, 0.5, 0.5))
        assert [a.tolist() for a in prod.gap_law()] == [[100.0, 7.0], [0.5, 0.5]]

    def test_zero_shares_and_repeats_leave_every_stage_unchanged(self):
        from microruin import compound, montecarlo, ruin
        from tests.conftest import reference_with
        reference = model.validate(model.default_config())
        twin = reference_with({
            # a far fee nobody pays, and the one fee split across two operators
            "financial": {"operator_fees": {"1": 100.0, "2": 100.0, "3": 1e6},
                          "operator_mix": {"1": 0.5, "2": 0.5, "3": 0.0}},
            "products": {"rate_gaps": [100.0, 100.0, 7.0], "product_mix": [0.25, 0.75, 0.0]},
            "durations": {"kind": "explicit-pmf", "support": [1, 1], "probs": [0.5, 0.5]}})
        income = compound.LatticePMF(step=0.5, min_index=0, mass=np.full(2000, 1.0 / 2000))
        want, got = (compound.net_profit_step_pmf(income, c.financial)
                     for c in (reference, twin))
        assert (got.min_index, _sha(got.mass)) == (want.min_index, _sha(want.mass))
        us = np.array([0.0, 100.0, 300.0])
        want, got = (ruin.run_pipeline(c, us)[0] for c in (reference, twin))
        assert (_sha(got.psi), got.u_grid) == (_sha(want.psi), want.u_grid)
        plan = model.Numerics(seed=11, mc_batch=4096, mc_paths=1500)
        want, got = (montecarlo.sample_revenues(c, plan, 9192) for c in (reference, twin))
        assert _sha(got) == _sha(want)
        want, got = (montecarlo.simulate_surplus_paths(c, plan, us) for c in (reference, twin))
        assert _sha(got.psi) == _sha(want.psi)


def _analytic_psi(cfg, capitals):
    from microruin import ruin
    return ruin.run_pipeline(cfg, capitals)[0].psi


def _mc_psi(cfg, capitals):
    from microruin import montecarlo
    return montecarlo.simulate_surplus_paths(cfg, model.Numerics(seed=7, mc_paths=300),
                                             capitals).psi


@pytest.mark.parametrize("route", [_analytic_psi, _mc_psi], ids=["run_pipeline", "mc_paths"])
@pytest.mark.parametrize("capitals, width", [(100.0, 1), ([], 0), ([[100.0, 200.0]], None)],
                         ids=["number", "empty", "nested"])
def test_both_ruin_routes_read_capitals_alike(route, capitals, width):
    # one rule (``model.initial_capitals``) for the analytic and the Monte
    # Carlo route: a number is one capital, an empty list none, and a
    # nested list is refused by its shape
    cfg = model.validate(model.default_config())
    if width is None:
        with pytest.raises(DomainError, match=r"flat list, got shape \(1, 2\)"):
            route(cfg, capitals)
    else:
        assert route(cfg, capitals).shape == (cfg.financial.horizon_intervals, width)


@pytest.mark.parametrize("values", ["a hundred", [[100.0], [200.0, 300.0]]],
                         ids=["text", "ragged"])
def test_capitals_that_are_not_numbers_are_a_domain_error(values):
    with pytest.raises(DomainError, match="initial capitals must be numbers"):
        model.initial_capitals(values)


class TestDistanceDistribution:
    def test_density_zero_at_origin(self):
        assert oracles.nearest_distance_pdf(0.0, 0.1) == 0.0

    def test_normalization_by_quadrature(self):
        for beta in (0.01, 0.1, 1.0):
            total, _ = integrate.quad(lambda z: oracles.nearest_distance_pdf(z, beta),
                                      0, np.inf)
            assert total == pytest.approx(1.0, rel=1e-9)

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            oracles.nearest_distance_pdf(-0.1, 0.1)
