"""Random configs: every valid config refuses by name or gives a ruin table
that is a probability, monotone in the capital and the horizon.

The configs are the first DRAWS of the random-config survey draw
(``survey_draw``) from one generator seeded with SEED.  The draw, the seed
and the tolerance were fixed before the test was first run; a draw that
fails stays in.  The Monte Carlo is not run here.
"""

import json

import numpy as np
import pytest

from microruin import MicroruinError, cli, model, ruin
from tests.conftest import read_windows

SEED = 1
DRAWS = 40
CAPITALS = (0.0, 50.0, 100.0, 300.0, 1000.0)
CLI_DRAWS = (0, 1, 2)  # the draws that also go through the command line
# float slack of the probability and monotonicity checks
TOL = 1e-12


def survey_draw(rng) -> dict:
    """One config document, drawn in this order:

    - alpha from {2.2, 2.5, 3, 4, 5, 6}, beta = 10^U(-3, 1);
    - sigma^2 from {0, 0, 1e-3, 0.1, 1}, P_I = 10^U(-1, 1);
    - c_min = 10^U(-4, 1), c_max = c_min 10^U(0.5, 5);
    - 1 to 3 operators, fees 10^U(0, 3) and a flat Dirichlet mix;
    - r from {0, 0.01, 0.05, 0.2}, w_n from {0.02, 0.05, 0.2, 0.5, 0.9},
      L from {1, 2, 5, 10, 20};
    - durations deterministic with tau in 1..5, or (with probability 1/2)
      truncated-geometric with tau_max in 1..7 and mean U(1, (tau_max + 1) / 2);
    - the default products.
    """
    alpha = float(rng.choice([2.2, 2.5, 3.0, 4.0, 5.0, 6.0]))
    beta = 10.0 ** rng.uniform(-3.0, 1.0)
    sigma2 = float(rng.choice([0.0, 0.0, 1e-3, 0.1, 1.0]))
    p_i = 10.0 ** rng.uniform(-1.0, 1.0)
    c_min = 10.0 ** rng.uniform(-4.0, 1.0)
    c_max = c_min * 10.0 ** rng.uniform(0.5, 5.0)
    operators = int(rng.integers(1, 4))
    fees = 10.0 ** rng.uniform(0.0, 3.0, operators)
    mix = rng.dirichlet(np.ones(operators))
    r = float(rng.choice([0.0, 0.01, 0.05, 0.2]))
    w_n = float(rng.choice([0.02, 0.05, 0.2, 0.5, 0.9]))
    horizon = int(rng.choice([1, 2, 5, 10, 20]))
    if rng.random() < 0.5:
        durations = {"kind": "deterministic", "tau": int(rng.integers(1, 6))}
    else:
        tau_max = int(rng.integers(1, 8))
        durations = {"kind": "truncated-geometric", "tau_max": tau_max,
                     "mean": rng.uniform(1.0, (tau_max + 1) / 2.0)}
    return {
        "network": {"alpha_pathloss": alpha, "beta_cells_per_area": beta,
                    "sigma2_noise_power": sigma2, "p_i_interferer_power": p_i},
        "financial": {"c_min": c_min, "c_max": c_max,
                      "operator_fees": {str(k + 1): float(f) for k, f in enumerate(fees)},
                      "operator_mix": {str(k + 1): float(m) for k, m in enumerate(mix)},
                      "interest_rate_per_interval": r, "w_n_geometric": w_n,
                      "horizon_intervals": horizon},
        "durations": durations,
    }


_rng = np.random.default_rng(SEED)
DOCUMENTS = [survey_draw(_rng) for _ in range(DRAWS)]


@pytest.mark.parametrize("draw", range(DRAWS))
def test_a_draw_refuses_by_name_or_gives_a_monotone_probability(draw):
    cfg = model.validate(model.ScenarioConfig.from_dict(DOCUMENTS[draw]))
    try:
        result, _ = ruin.run_pipeline(cfg, np.array(CAPITALS))
    except MicroruinError:
        return
    psi = result.psi
    assert psi.shape == (cfg.financial.horizon_intervals, len(CAPITALS))
    assert ((psi >= -TOL) & (psi <= 1.0 + TOL)).all(), psi
    assert (np.diff(psi, axis=1) <= TOL).all(), psi   # nonincreasing in u
    assert (np.diff(psi, axis=0) >= -TOL).all(), psi  # nondecreasing in l


@pytest.mark.parametrize("draw", CLI_DRAWS)
def test_a_draw_through_the_command_line_exits_zero_two_or_three(draw, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(DOCUMENTS[draw]))
    code = cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "ruin",
                     "--no-mc", "--u", ",".join(f"{u:g}" for u in CAPITALS)])
    assert code in (0, 2, 3)


@pytest.mark.parametrize("draw", range(DRAWS))
def test_a_read_window_keeps_the_grid_and_the_atoms_it_reads(draw):
    # every solved draw, draws 24 and 32 included, which only the read
    # windows fit in the points budget: one grid and psi within horizon *
    # 1e-9 of the whole compound laws (``read_windows``); a tilted window's
    # atoms match the whole law's, and its lumped atom lies past the fold
    cfg = model.validate(model.ScenarioConfig.from_dict(DOCUMENTS[draw]))
    try:
        records = read_windows(cfg, np.array(CAPITALS))
    except MicroruinError:
        return
    for record in records:
        assert record["diagnostics"]["aliasing_bound"] <= 2 * cfg.numerics.tail_eps
        if record["diagnostics"]["tilt"] == 0.0:
            assert record["same"]
        else:
            assert record["l1"] <= 1e-10 and record["past_fold"] >= 1
