"""CLI surface: exit codes, CSV determinism, overrides, sweep grammar."""

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import microruin
from microruin import cli, model, montecarlo

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args):
    return cli.main(args)


@pytest.fixture
def fast_config_path(tmp_path):
    """Reference config with reduced sampling budgets for CLI tests."""
    cfg = model.default_config()
    data = cfg.to_dict()
    data["numerics"]["mc_samples"] = 20_000
    data["numerics"]["mc_paths"] = 2_000
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def _loaded_modules(code, package="scipy"):
    """Modules of ``package`` loaded after ``code`` runs in a fresh interpreter."""
    code += ("\nimport sys; print(sorted(m for m in sys.modules "
             f"if m == {package!r} or m.startswith({package + '.'!r})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def test_import_leaves_scipy_signal_unloaded():
    # the production path needs only numpy, so no scipy module at all (and
    # not scipy.signal) loads; scipy is the tests' oracle
    assert _loaded_modules("import microruin.cli") == "[]"


def test_ruin_no_mc_loads_no_scipy(fast_config_path, tmp_path):
    code = ("from microruin import cli\n"
            f"assert cli.main(['--config', {fast_config_path!r}, '--out', "
            f"{str(tmp_path / 'out')!r}, 'ruin', '--no-mc']) == 0")
    assert _loaded_modules(code) == "[]"


def test_ruin_with_mc_leaves_numpy_ma_unloaded(fast_config_path, tmp_path):
    # numpy.ma costs about 15 ms of a cold run, and the first np.unique
    # imports it: the path simulator must find its fee law without it
    code = ("from microruin import cli\n"
            f"assert cli.main(['--config', {fast_config_path!r}, '--out', "
            f"{str(tmp_path / 'out')!r}, 'ruin', '--u', '100']) == 0")
    assert _loaded_modules(code, "numpy.ma") == "[]"


def test_ruin_with_mc_leaves_concurrent_futures_unloaded(fast_config_path, tmp_path):
    # concurrent.futures also loads logging, traceback, queue and more, about
    # 8 ms of a cold run: the MC batches run on plain threads, two of them here
    code = ("from microruin import cli, montecarlo\n"
            "montecarlo._cpu_count = lambda: 2\n"
            f"assert cli.main(['--config', {fast_config_path!r}, '--out', "
            f"{str(tmp_path / 'out')!r}, 'ruin', '--u', '100']) == 0")
    assert _loaded_modules(code, "concurrent") == "[]"


class TestProcessEntry:
    def test_main_in_process_leaves_the_collector_alone(self):
        frozen = gc.get_freeze_count()
        assert run_cli(["validate"]) == 0
        assert run_cli(["--set", "numerics.seed", "validate"]) == 2
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("args,code", [(["validate"], 0),
                                           (["--set", "numerics.seed", "validate"], 2)])
    def test_the_entry_freezes_the_heap_and_exits_with_the_cli_code(self, args, code):
        script = ("import gc, sys\nfrom microruin import cli\n"
                  f"sys.argv = ['microruin', *{args!r}]\n"
                  "try:\n    cli.run()\nexcept SystemExit as exc:\n"
                  "    print(gc.get_freeze_count(), exc.code)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        frozen, exit_code = out.split()[-2:]
        assert int(frozen) > 0 and int(exit_code) == code


class TestValidateCommand:
    def test_defaults_exit_zero(self, capsys):
        assert run_cli(["validate"]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_invalid_field_exit_two_with_path(self, capsys):
        code = run_cli(["--set", "network.alpha_pathloss=2.0", "validate"])
        assert code == 2
        err = capsys.readouterr().err
        assert "network.alpha_pathloss" in err and "alpha must exceed 2" in err

    def test_bad_mix_exit_two(self):
        assert run_cli(["--set", 'financial.operator_mix={"1": 0.5}', "validate"]) == 2

    def test_equal_clamps_exit_two_before_the_pipeline(self, tmp_path, capsys):
        # equal clamps leave the income a point mass, which the density
        # stage cannot expand; validation must refuse them up front
        out = str(tmp_path / "o")
        code = run_cli(["--set", "financial.c_min=1", "--set", "financial.c_max=1",
                        "--out", out, "ruin", "--no-mc"])
        assert code == 2
        err = capsys.readouterr().err
        assert "financial.c_min" in err and "c_min < c_max" in err
        assert not os.path.exists(os.path.join(out, "ruin.csv"))

    @pytest.mark.parametrize("override,path", [
        ("numerics.bogus=1", "numerics.bogus"),
        ("network.bogus=1", "network.bogus"),
        ("durations.bogus=1", "durations.bogus"),
        ("bogus.x=1", "bogus"),
        ("financial.operator_fees.x=3", "financial.operator_fees.x"),
        ("financial.operator_mix.x=1", "financial.operator_mix.x"),
    ])
    def test_unknown_field_or_operator_key_exits_two(self, capsys, override, path):
        assert run_cli(["--set", override, "validate"]) == 2
        assert f"config error at {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,path", [
        (["numerics.seed.x=1"], "numerics.seed"),
        (["products.rate_gaps=5"], "products.rate_gaps"),
        (["durations.kind=explicit-pmf", "durations.support=5"], "durations.support"),
        (["durations.per_interval_override=5"], "durations.per_interval_override"),
        (["financial.operator_fees=5"], "financial.operator_fees"),
        (["numerics.mc_batch=0"], "numerics.mc_batch"),
        (["durations.kind=explicit-pmf", 'durations.support=["a"]', "durations.probs=[1]"],
         "durations.support"),
        # a declared slot count is checked even when its probability is 0
        (["durations.kind=explicit-pmf", "durations.support=[0,1]", "durations.probs=[0,1]"],
         "durations"),
        (["durations.kind=explicit-pmf", "durations.support=[1,2]", "durations.probs=[1]"],
         "durations"),
        # numbers that are not finite
        (["financial.interest_rate_per_interval=Infinity"],
         "financial.interest_rate_per_interval"),
        (["financial.operator_fees.1=Infinity"], "financial.operator_fees.1"),
        (["financial.operator_mix.1=NaN"], "financial.operator_mix.1"),
        (["network.beta_cells_per_area=Infinity"], "network.beta_cells_per_area"),
        (["products.rate_gaps=[-Infinity]"], "products.rate_gaps"),
        (["products.product_mix=[NaN]"], "products.product_mix"),
        # rates that give no finite positive rate gap, and rates beside gaps
        (['products.rates_bps=["a"]'], "products.rates_bps"),
        (["products.rates_bps=[2000]"], "products.rates_bps"),
        (["products.rates_bps=[1]", "network.bandwidth_hz=0"], "network.bandwidth_hz"),
        (["products.rates_bps=[1]", 'network.bandwidth_hz="x"'], "network.bandwidth_hz"),
        (["products.rates_bps=[6.658211482751795]", "products.rate_gaps=[5.0]"],
         "products.rates_bps"),
        # a rate so small that its gap 2^(R/B) - 1 rounds to 0
        (["products.rates_bps=[1e-300]"], "products.rates_bps"),
    ])
    def test_value_of_the_wrong_shape_exits_two(self, capsys, overrides, path):
        # a field set inside a number, or a number where a list belongs
        args = [arg for item in overrides for arg in ("--set", item)]
        assert run_cli(args + ["validate"]) == 2
        assert f"config error at {path}: " in capsys.readouterr().err

    def test_rates_override_replaces_the_configured_gaps(self):
        # the config's gap of 5 gives way to a --set rate: 2^6.658... - 1 = 100
        cfg = replace(model.default_config(), products=model.ProductParams(rate_gaps=(5.0,)))
        got = cli._overridden(cfg, ["products.rates_bps=[6.658211482751795]"])
        assert got.products.rate_gaps == pytest.approx((100.0,), rel=1e-12)

    @pytest.mark.parametrize("override,command", [
        ("numerics.moment_order=4.5", ["moments"]),
        ("financial.horizon_intervals=2.5", ["ruin", "--no-mc"]),
        ("numerics.moment_order=4.0", ["validate"]),
        ("numerics.mc_paths=2e3", ["validate"]),
    ], ids=["moment_order-4.5", "horizon-2.5", "moment_order-4.0", "mc_paths-2e3"])
    def test_non_integer_value_of_an_integer_field_exits_two(self, tmp_path, capsys,
                                                             override, command):
        out = str(tmp_path / "o")
        assert run_cli(["--set", override, "--out", out, *command]) == 2
        path = override.split("=")[0]
        assert f"config error at {path}: value must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        pytest.param(field, value, id=f"{field.split('.')[-1]}-{value}")
        for field, value in [
            ("numerics.antithetic", False), ("numerics.u_grid_step", None),
            ("numerics.frozen_interferers", False), ("numerics.specfun_rel_tol", 1e-10),
            ("numerics.distance_tail_mass", 1e-12), ("numerics.ruin_tail_eps", 1e-9),
            ("numerics.ruin_interp_tol", 0.5), ("numerics.sanitize_warn", 0.02),
            ("numerics.sanitize_reject", 0.1), ("numerics.lattice_points_budget", 1_000_000),
            ("numerics.ppp_radius_factor", 1.0), ("financial.slots_per_interval", 1)]])
    def test_config_with_removed_numerics_field_exits_two(self, tmp_path, capsys, field,
                                                          value):
        # configs written before these knobs were removed still carry them,
        # in a file or as an override
        section, name = field.split(".")
        data = model.default_config().to_dict()
        data[section][name] = value
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        assert run_cli(["--config", str(path), "validate"]) == 2
        assert f"config error at {field}: unknown field" in capsys.readouterr().err
        assert run_cli(["--set", f"{field}={json.dumps(value)}", "validate"]) == 2
        assert f"config error at {field}: unknown field" in capsys.readouterr().err


@pytest.mark.parametrize("command,option", [
    (["ruin", "--u", "100,abc"], "--u"),
    (["simulate", "--what", "paths", "--u", "100,"], "--u"),
    (["ruin", "--no-mc", "--u", "100,nan"], "--u"),
    (["expected-surplus", "--ev-grid", "0:0.2"], "--ev-grid"),
    (["expected-surplus", "--ev-grid", "0:0.2:0"], "--ev-grid"),
    (["expected-surplus", "--horizons", "1,x"], "--horizons"),
    (["sweep", "--param", "network.alpha_pathloss"], "--param"),
    (["sweep", "--param", "network.alpha_pathloss=3:4"], "--param"),
    (["reproduce-tables", "--which", "fig9"], "--which"),
    (["income-pdf", "--points", "-5"], "--points"),
    (["simulate", "--what", "revenue-cdf", "--points", "-3"], "--points"),
    (["moments", "--interval", "-3"], "--interval"),
    (["simulate", "--interval", "0"], "--interval"),
    (["expected-surplus", "--r", "-1"], "--r"),
    (["expected-surplus", "--r", "nan"], "--r"),
    (["expected-surplus", "--e-n", "inf"], "--e-n"),
    (["expected-surplus", "--e-c", "nan"], "--e-c"),
], ids=["u-word", "u-empty", "u-nan", "ev-grid-two", "ev-grid-step-0", "horizons-word",
        "param-no-grid", "param-two", "which-fig9", "points-negative", "simulate-points",
        "interval-negative", "simulate-interval-0", "r-negative", "r-nan", "e-n-inf",
        "e-c-nan"])
def test_bad_argument_value_exits_two_naming_it(tmp_path, capsys, command, option):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(["--out", str(out), *command])
    assert exc.value.code == 2
    assert f"error: argument {option}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,option", [
    (["expected-surplus", "--ev-grid", "0:1e9:1e-3"], "--ev-grid"),
    (["sweep", "--param", "network.alpha_pathloss=3:1e6:1e-6"], "--param"),
], ids=["ev-grid", "sweep-param"])
def test_oversized_grid_exits_two_before_allocating(tmp_path, capsys, monkeypatch, command,
                                                    option):
    # 10^12 points: np.arange would raise a memory error the CLI never names
    def no_arange(*args, **kwargs):
        raise AssertionError("grid allocated")
    monkeypatch.setattr(np, "arange", no_arange)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(["--out", str(out), *command])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}: " in err and "at most 1000000 points" in err
    assert not out.exists()


def test_compound_interval_past_the_horizon_exits_two(tmp_path, capsys):
    # it once wrote a compound.csv with only its header
    out = tmp_path / "o"
    assert run_cli(["--out", str(out), "compound", "--interval", "9"]) == 2
    assert "past the horizon of 5 intervals" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_records_the_package_version(tmp_path):
    # run from the checkout, as the tests and benchmarks do, not an install
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-m", "microruin.cli", "--out", str(out), "ruin",
                    "--no-mc"], env=env, check=True, capture_output=True)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["package_version"] == microruin.__version__


def test_failed_manifest_write_leaves_the_old_manifest(tmp_path):
    # a manifest that cannot be serialized fails mid-dump: the complete
    # manifest already on disk stays, and no temp file is left beside it
    out = str(tmp_path / "o")
    assert run_cli(["--out", out, "expected-surplus"]) == 0
    before = (tmp_path / "o" / "manifest.json").read_bytes()
    manifest = cli.RunManifest(config_hash="x", seed=0, command="expected-surplus",
                               tolerances_achieved={"a": 1.0, "z": object()})
    with pytest.raises(TypeError):
        manifest.write(out)
    assert (tmp_path / "o" / "manifest.json").read_bytes() == before
    assert sorted(os.listdir(out)) == ["expected_surplus.csv", "manifest.json"]


class TestMomentsCommand:
    def test_writes_csv_and_manifest(self, tmp_path, fast_config_path):
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out, "moments"]) == 0
        rows = open(os.path.join(out, "moments.csv")).read().splitlines()
        assert rows[0] == "interval,order,value"
        assert len(rows) == 5
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert "moments.csv" in manifest["outputs"]
        assert manifest["config_hash"]
        assert manifest["seed"] == 20260808

    def test_manifest_records_overridden_config(self, tmp_path, fast_config_path):
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out,
                        "--set", "numerics.seed=7", "moments"]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        data = model.load_config(fast_config_path).to_dict()
        data["numerics"]["seed"] = 7
        effective = model.validate(model.ScenarioConfig.from_dict(data))
        assert manifest["seed"] == 7
        assert manifest["config_hash"] == effective.config_hash()
        assert manifest["config_hash"] != model.load_config(fast_config_path).config_hash()

    def test_byte_identical_reruns(self, tmp_path, fast_config_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli(["--config", fast_config_path, "--out", out1, "moments"])
        run_cli(["--config", fast_config_path, "--out", out2, "moments"])
        a = open(os.path.join(out1, "moments.csv"), "rb").read()
        b = open(os.path.join(out2, "moments.csv"), "rb").read()
        assert a == b
        assert b"\r" not in a  # LF line endings

    def test_override_changes_output(self, tmp_path, fast_config_path):
        out = str(tmp_path / "o")
        run_cli(["--config", fast_config_path, "--out", out, "--set",
                 "network.alpha_pathloss=3.0", "moments"])
        rows = open(os.path.join(out, "moments.csv")).read().splitlines()
        ev = float(rows[1].split(",")[2])
        assert ev == pytest.approx(343.06, abs=0.5)  # alpha=3, ruin-scenario clamps


class TestPipelineCommands:
    def test_income_pdf_csv(self, tmp_path, fast_config_path):
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out, "income-pdf",
                        "--points", "101"]) == 0
        rows = open(os.path.join(out, "income_pdf.csv")).read().splitlines()
        assert rows[0] == "v,pdf,cdf"
        assert len(rows) == 102
        values = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
        assert np.isfinite(values).all()
        assert values[-1, 2] == pytest.approx(1.0, abs=1e-6)
        with open(os.path.join(out, "manifest.json")) as fh:
            atoms = json.load(fh)["income_atoms"]
        assert values[0, 2] == pytest.approx(atoms["mass_lo"], abs=1e-9)
        assert 0.0 < atoms["mass_lo"] < atoms["mass_hi"] < 1.0
        assert (atoms["v_lo"], atoms["v_hi"]) == (values[0, 0], values[-1, 0])

    def test_compound_csv_masses_sum_to_one(self, tmp_path, fast_config_path):
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out, "compound",
                        "--interval", "1"]) == 0
        rows = open(os.path.join(out, "compound.csv")).read().splitlines()[1:]
        total = sum(float(r.split(",")[3]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_ruin_manifest_records_compound_accuracy(self, tmp_path, fast_config_path):
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out, "ruin",
                        "--no-mc"]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            compound = json.load(fh)["tolerances_achieved"]["compound"]
        diag = compound["1"]
        assert diag["window_points"] > 0
        assert 0.0 <= diag["aliasing_bound"] <= 2e-12  # 2 * tail_eps
        assert diag["clipped_mass"] >= 0.0
        assert diag["mean_residual"] <= diag["mean_tolerance"]

    @pytest.mark.parametrize("command", [["ruin", "--no-mc", "--u", "100"], ["compound"]],
                             ids=["ruin", "compound"])
    def test_manifest_records_the_fee_rounding_and_sanitized_mass(self, tmp_path, command):
        # a lattice step of 1000 rounds the fee 100 to 0: the run goes on,
        # and its manifest says how far the mean fee moved
        out = str(tmp_path / "o")
        assert run_cli(["--set", "numerics.lattice_step=1000", "--out", out] + command) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            accuracy = json.load(fh)["tolerances_achieved"]
        assert accuracy["fee_rounding"] == pytest.approx(-100.0)
        assert accuracy["sanitized_mass"] == 0.0

    def test_ruin_manifest_records_the_capital_grid(self, tmp_path, fast_config_path):
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out, "ruin", "--no-mc",
                        "--u", "100,300"]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            grid = json.load(fh)["tolerances_achieved"]["ruin_grid"]
        assert grid["grid_points"] > 0 and grid["fft_points"] >= grid["grid_points"]
        assert grid["grid_lo"] < 0.0 < 300.0 < grid["grid_hi"]
        assert 0.0 <= grid["grid_tail_bound"] <= 5e-12   # horizon * tail_eps

    def test_ruin_takes_a_leading_negative_capital_after_equals(self, tmp_path,
                                                                fast_config_path):
        # "--u -50,100" reads as an option to argparse; "--u=-50,100" does not
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out, "ruin", "--no-mc",
                        "--u=-50,100"]) == 0
        rows = open(os.path.join(out, "ruin.csv")).read().splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == [-50.0, 100.0] * 5

    def test_ruin_with_mc_columns(self, tmp_path, fast_config_path):
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out, "ruin",
                        "--u", "100,200,300"]) == 0
        rows = open(os.path.join(out, "ruin.csv")).read().splitlines()
        assert rows[0] == "l,u,psi_numerical,psi_mc,ci_lo,ci_hi"
        assert len(rows) == 1 + 5 * 3
        psi = {}
        for r in rows[1:]:
            parts = r.split(",")
            psi[(int(parts[0]), float(parts[1]))] = float(parts[2])
        assert psi[(5, 100.0)] > psi[(5, 300.0)]
        assert psi[(5, 100.0)] >= psi[(1, 100.0)]

    @pytest.mark.parametrize("command", [["ruin", "--u", "100"],
                                         ["simulate", "--what", "moments"]])
    def test_mc_manifest_records_the_far_field(self, tmp_path, fast_config_path, command):
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out] + command) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            far = json.load(fh)["mc"]["far_field"]
        # reference: beta = 0.1, alpha = 4, P_I = 1, truncation factor 1
        radius = 1.0 / math.sqrt(0.1)
        assert far["radius_factor"] == 1.0
        assert far["radius"] == pytest.approx(radius, rel=1e-12)
        assert far["points_per_slot"] == pytest.approx(
            math.pi - 1.0 + math.exp(-math.pi), rel=1e-12)
        assert far["mean"] == pytest.approx(2 * math.pi * 0.1 * radius ** -2 / 2, rel=1e-12)
        assert far["variance"] == pytest.approx(2 * math.pi * 0.1 * radius ** -6 / 3,
                                                rel=1e-12)
        assert far["third_cumulant"] == pytest.approx(
            2 * math.pi * 0.1 * 6 * radius ** -10 / 10, rel=1e-12)
        # mean - 2 variance^2 / third cumulant = 2 pi beta R^-2 (1/2 - 10/27)
        assert far["shift"] == pytest.approx(2 * math.pi * 0.1 * radius ** -2 * 7 / 54,
                                             rel=1e-12)

    def test_ruin_without_mc_records_no_far_field(self, tmp_path, fast_config_path):
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out, "ruin", "--no-mc"]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            assert json.load(fh)["mc"] == {}

    def test_expected_surplus_rows(self, tmp_path):
        out = str(tmp_path / "o")
        assert run_cli(["--out", out, "expected-surplus", "--ev-grid", "0:0.2:0.1",
                        "--horizons", "1,2"]) == 0
        rows = open(os.path.join(out, "expected_surplus.csv")).read().splitlines()
        assert rows[0] == "n,e_v,u_bound"
        assert len(rows) == 1 + 2 * 3

    def test_simulate_revenue_cdf_spans_the_interval_support(self, tmp_path,
                                                              fast_config_path):
        # truncated to interval 1, two-slot-mean connections last one slot:
        # the empirical CDF lives on income-pdf's support, not the untruncated one
        args = ["--config", fast_config_path, "--set", "durations.mean=2.0",
                "--set", "numerics.truncate_durations_to_interval=true"]
        out = str(tmp_path / "o")
        assert run_cli(args + ["--out", out, "income-pdf", "--points", "11"]) == 0
        assert run_cli(args + ["--out", out, "simulate", "--what", "revenue-cdf",
                               "--points", "11"]) == 0
        with open(os.path.join(out, "income_pdf.csv")) as fh:
            v_hi = float(fh.read().splitlines()[-1].split(",")[0])
        with open(os.path.join(out, "mc_revenue_cdf.csv")) as fh:
            rows = [[float(x) for x in r.split(",")] for r in fh.read().splitlines()[1:]]
        assert rows[-1][0] == v_hi == 1000.0
        assert rows[1][1] < 1.0

    @pytest.mark.parametrize("overrides,sha", [
        ([], "2e45073665eb4c400f0833c9ec399fa08aef1ba26eba5e2d69d49cddb9522cf4"),
        (["--set", "durations.mean=2.0"],
         "3c6776823ec9562a00a887191dcbc4e73c5d41b1b6023af9b13cece40c8a0389"),
    ], ids=["reference", "multi-slot"])
    def test_analytic_ruin_csv_bytes_pinned(self, tmp_path, overrides, sha):
        # the reference and multi-slot analytic outputs stay byte-identical
        # unless a change says why they move
        out = str(tmp_path / "o")
        assert run_cli(overrides + ["--out", out, "ruin", "--no-mc",
                                    "--u", "100,150,200,250,300"]) == 0
        with open(os.path.join(out, "ruin.csv"), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == sha

    @pytest.mark.parametrize("command,name,sha", [
        (["moments"], "moments.csv",
         "2a5e392481ba1ed0c8ee151b4b5f7a50a55e5fa49e3a456a99e464180bbd7403"),
        (["simulate", "--what", "moments"], "mc_moments.csv",
         "98957848695e424d06dfbc4ad23209dd04e850644cf45043047b2bcac1fd3acc"),
        (["simulate", "--what", "revenue-cdf", "--points", "101"], "mc_revenue_cdf.csv",
         "717a7f0ec7b09a34ff5202e9a7c21ecf524f2b0a16bd305157b47eadd7b652df"),
        (["simulate", "--what", "paths", "--u", "50,100,200"], "mc_ruin.csv",
         "bcfa101a9046b1c92da44fc527bdd14641fe6250cee6faff6dea6934d0c47ae8"),
        (["sweep", "--param", "network.alpha_pathloss=3:4:0.5"], "sweep.csv",
         "254954a356acf1a97c9c678af34d018038b4cf8653d995a0ec3b5865b10e9290"),
        (["reproduce-tables", "--which", "fig4", "--fast"], "fig4.csv",
         "112f6582c57defcda83682de832de182514a7d16cb5839b9d821953f329da2cc"),
        (["reproduce-tables", "--which", "tableIII", "--fast"], "tableIII.csv",
         "c1fbd99e92ac57c33ac72e909798e3e34933256bea3b7f39a1a6d44511e62135"),
    ], ids=["moments", "mc_moments", "mc_revenue_cdf", "mc_ruin", "sweep", "fig4",
            "tableIII"])
    def test_csv_bytes_pinned_on_the_fast_config(self, tmp_path, fast_config_path, command,
                                                 name, sha):
        # every table layout the CLI writes stays byte-identical for a fixed
        # config and seed unless a change says why it moves
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out] + command) == 0
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == sha

    def test_simulate_mirror_outputs(self, tmp_path, fast_config_path):
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out, "simulate",
                        "--what", "moments"]) == 0
        rows = open(os.path.join(out, "mc_moments.csv")).read().splitlines()
        assert rows[0] == "interval,order,value,se"
        assert run_cli(["--config", fast_config_path, "--out", out, "simulate",
                        "--what", "paths", "--u", "100,300"]) == 0
        rows = open(os.path.join(out, "mc_ruin.csv")).read().splitlines()
        assert rows[0] == "l,u,psi,ci_lo,ci_hi"


class TestSweepCommand:
    def test_sweep_grid_and_monotone_column(self, tmp_path, fast_config_path):
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out, "sweep",
                        "--param", "network.alpha_pathloss=2.5:5:0.25"]) == 0
        rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert rows[0].startswith("value,moment_1")
        values = [float(r.split(",")[0]) for r in rows[1:]]
        evs = [float(r.split(",")[1]) for r in rows[1:]]
        np.testing.assert_allclose(values, np.arange(2.5, 5.01, 0.25))
        assert all(a > b for a, b in zip(evs, evs[1:]))  # decreasing in alpha
        # per-point artifacts written atomically with their own manifests
        point_dirs = [d for d in os.listdir(out) if d.startswith("sweep_")]
        assert len(point_dirs) == len(values)
        sample = os.path.join(out, point_dirs[0])
        assert set(os.listdir(sample)) == {"moments.csv", "manifest.json"}


    def test_points_closer_than_the_default_format_keep_their_own_outputs(
            self, tmp_path, fast_config_path):
        # each directory is named by its point's value as sweep.csv writes it
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out, "sweep",
                        "--param", "financial.c_max=100000:100000.3:0.1"]) == 0
        rows = open(os.path.join(out, "sweep.csv")).read().splitlines()[1:]
        names = {f"sweep_financial_c_max_{row.split(',')[0]}" for row in rows}
        assert len(rows) == 4 and sorted(os.listdir(out)) == sorted(
            names | {"sweep.csv", "manifest.json"})

    def test_sweep_of_an_integer_field(self, tmp_path, fast_config_path):
        # whole grid values reach the config as ints; each order's row holds
        # its own moments, the lower orders' rows padded with nan
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out, "sweep",
                        "--param", "numerics.moment_order=4:6:1"]) == 0
        rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert rows[0] == "value," + ",".join(f"moment_{s}" for s in range(1, 7))
        cells = [row.split(",") for row in rows[1:]]
        assert [c[0] for c in cells] == ["4", "5", "6"]
        assert [c.count("nan") for c in cells] == [2, 1, 0]
        assert len({c[1] for c in cells}) == 1    # E[V] does not depend on the order


class TestReproduceTables:
    def test_fig2_and_fig3(self, tmp_path, fast_config_path):
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out,
                        "reproduce-tables", "--which", "fig2,fig3", "--fast"]) == 0
        fig2 = open(os.path.join(out, "fig2.csv")).read().splitlines()
        assert fig2[0] == "n,e_v,u_bound"
        fig3 = open(os.path.join(out, "fig3.csv")).read().splitlines()
        assert fig3[0] == "a_d,alpha,ev_num"

    def test_fast_manifest_records_the_budgets_it_ran(self, tmp_path):
        # --fast caps the sampling budgets of the effective config, whose
        # hash the manifest records
        out = str(tmp_path / "o")
        assert run_cli(["--out", out, "--set", "numerics.mc_paths=3000",
                        "reproduce-tables", "--which", "fig2", "--fast"]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        cfg = model.default_config()
        ran = replace(cfg, numerics=replace(cfg.numerics, mc_samples=100_000, mc_paths=3000))
        assert manifest["config_hash"] == ran.config_hash()

    def test_table_three_layout(self, tmp_path, fast_config_path):
        out = str(tmp_path / "o")
        assert run_cli(["--config", fast_config_path, "--out", out,
                        "reproduce-tables", "--which", "tableIII", "--fast"]) == 0
        rows = open(os.path.join(out, "tableIII.csv")).read().splitlines()
        assert rows[0] == "u,psi5_numerical,psi5_mc,ci_lo,ci_hi"
        us = [float(r.split(",")[0]) for r in rows[1:]]
        assert us == [100.0, 150.0, 200.0, 250.0, 300.0]


class TestAccuracyExitCode:
    def test_an_oversized_path_campaign_exits_three_naming_its_budget(
            self, tmp_path, fast_config_path, capsys, monkeypatch):
        # one path past the budget for the horizon x paths profits: refused
        # before the campaign allocates or draws anything
        def no_draw(*path):
            raise AssertionError(f"stream {path} drawn")
        monkeypatch.setattr(montecarlo, "_stream", no_draw)
        horizon = model.default_config().financial.horizon_intervals
        n_paths = montecarlo.CAMPAIGN_BYTES_BUDGET // (8 * horizon) + 1
        tracemalloc.start()
        try:
            code = run_cli(["--config", fast_config_path, "--out", str(tmp_path / "o"),
                            "--set", f"numerics.mc_paths={n_paths}", "ruin", "--u", "100"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "montecarlo.CAMPAIGN_BYTES_BUDGET" in capsys.readouterr().err
        assert peak < montecarlo.CAMPAIGN_BYTES_BUDGET // 8

    @pytest.mark.parametrize("overrides,budget", [
        # AccuracyError: moment tensor rule
        (["numerics.quad_rel_tol=1e-17"], "panel budget"),
        # ResourceLimitError: 9,999,991 lattice points
        (["numerics.lattice_step=1e-4"], "budget is 1000000"),
        # ResourceLimitError: fees 2e6 lattice steps apart
        (["numerics.lattice_step=1", 'financial.operator_fees={"1": 0, "2": 2e6}',
          'financial.operator_mix={"1": 0.5, "2": 0.5}'], "compound.POINTS_BUDGET"),
    ], ids=["moment-accuracy", "lattice-budget", "net-step-budget"])
    def test_refused_budget_exits_three(self, tmp_path, fast_config_path, capsys,
                                        overrides, budget):
        # a stage that cannot meet its accuracy or resource budget refuses:
        # the pipeline must exit 3 and name the budget, not crash
        out = str(tmp_path / "o")
        sets = [arg for item in overrides for arg in ("--set", item)]
        code = run_cli(["--config", fast_config_path, "--out", out, *sets, "ruin", "--no-mc"])
        assert code == 3
        err = capsys.readouterr().err
        assert "accuracy/resource error" in err and budget in err
