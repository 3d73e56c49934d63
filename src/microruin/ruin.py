"""Finite-horizon ruin/survival recursion and the expected-surplus bound.

The surplus after l compounding intervals is S_l(u) = u (1+r)^l +
sum_{i<=l} (1+r)^(l-i) S_net(i); ruin occurs the first time S_l(u) < 0
(capital exactly zero survives).  Dividing by (1+r)^l shows survival over a
horizon is a constraint on the discounted running sum, which yields the exact
one-interval recursion

    phi_l(u) = sum_y m(y) 1{u (1+r) + y >= 0} phi_{l-1}(u (1+r) + y),

with phi_0 = 1: compound the capital, add the interval's net profit, survive
if nonnegative, recurse with the re-based capital.  (A variant that
conditions on the last interval instead, shifting the capital by
y / (1+r)^L, coincides with this for horizons 1 and 2 but strictly
underestimates survival for longer horizons; the per-step form is the one
consistent with the defining surplus process and is validated here against
exhaustive path enumeration.)

Net profits live on a lattice, so each step is a finite sum over atoms;
survival values between capital-grid points are filled by monotone linear
interpolation (exact when r = 0 and the grid is lattice-aligned).  Grid
bounds are chosen so that everything below is certain ruin and everything
above certain survival, making the edge clamps exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from . import _kernels, income_pdf
from .compound import LatticePMF, compound_geometric_pmf, discretize_income, net_profit_step_pmf
from .errors import AccuracyError, DomainError
from .model import ScenarioConfig
from .moments import revenue_moments

__all__ = [
    "RuinResult",
    "expected_surplus",
    "initial_capital_bound",
    "survival_base",
    "survival_recursion",
    "interval_net_pmfs",
    "run_pipeline",
]


def expected_surplus(u: float, r: float, l: int, e_n: float, e_v: float, e_c: float) -> float:
    """Expected surplus after l intervals: u(1+r)^l + drift-compounded profits."""
    if l < 0:
        raise DomainError(f"horizon must be >= 0, got {l}")
    drift = e_n * (e_v - e_c)
    if r == 0.0:
        return u + l * drift
    growth = (1.0 + r) ** l
    return u * growth + drift * (growth - 1.0) / r


def initial_capital_bound(r: float, n: int, e_n: float, e_v: float, e_c: float) -> float:
    """Smallest initial capital keeping the expected surplus nonnegative at time n.

    u* = E[N](E[C] - E[V]) ((1+r)^n - 1) / (r (1+r)^n); r = 0 limit
    n E[N](E[C] - E[V]).  Negative values mean no capital is needed.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    gap = e_n * (e_c - e_v)
    if r == 0.0:
        return n * gap
    growth = (1.0 + r) ** n
    return gap * (growth - 1.0) / (r * growth)


def survival_base(u: float, r: float, g1: LatticePMF) -> float:
    """phi_1(u) = Pr(S_net(1) >= -u(1+r)).

    The atom exactly at -u(1+r) survives (ruin is a strictly negative
    surplus), so the strict lattice CDF is subtracted.
    """
    return 1.0 - g1.cdf_below(-u * (1.0 + r))


@dataclass(frozen=True)
class RuinResult:
    """Ruin/survival probabilities per horizon on the requested capitals."""

    u_values: np.ndarray
    psi: np.ndarray            # (horizon, n_u)
    phi: np.ndarray
    u_grid: tuple              # (lo, step, n_points)
    grid_step: float
    diagnostics: dict

    def psi_at(self, horizon: int, u: float) -> float:
        j = int(np.argmin(np.abs(self.u_values - u)))
        return float(self.psi[horizon - 1, j])


def _check_monotone_fix(phi: np.ndarray) -> np.ndarray:
    """Clamp float fuzz so phi stays within [0, 1] and nondecreasing in u."""
    phi = np.clip(phi, 0.0, 1.0)
    return np.maximum.accumulate(phi)


class _RecursionGrid:
    """Shared capital grid with exact edge clamps.

    Below ``lo`` ruin is certain after the next interval regardless of its
    outcome (the first-interval constraint already fails for the largest
    atom); above ``hi`` even the worst discounted loss path survives.  Values
    outside are therefore clamped to exactly 0 / 1.
    """

    def __init__(self, u_values, r, pmfs, grid_step, horizon):
        growth = 1.0 + r
        y_max = max(p.values().max() for p in pmfs)
        y_min = min(p.values().min() for p in pmfs)
        discount_sum = sum(growth ** (-j) for j in range(1, horizon + 1))
        ruin_certain = -max(y_max, 0.0) / growth
        survive_certain = -min(y_min, 0.0) * discount_sum
        g_lo = min(u_values.min(), ruin_certain) - 2 * grid_step
        g_hi = max(u_values.max(), survive_certain) + 2 * grid_step
        self.k_lo = math.floor(g_lo / grid_step)
        k_hi = math.ceil(g_hi / grid_step)
        self.step = grid_step
        self.points = np.arange(self.k_lo, k_hi + 1) * grid_step
        self.growth = growth


def _step_atoms(phi_prev, grid, pmf):
    """Literal finite Stieltjes sum over atoms with interpolated evaluations."""
    out = _kernels.ruin_step(phi_prev, grid.points[0], grid.step, grid.growth,
                             np.ascontiguousarray(pmf.values()),
                             np.ascontiguousarray(pmf.mass), grid.points)
    return _check_monotone_fix(out)


class _Correlation:
    """One PMF's step on a fixed grid: exact lattice correlation, then one
    stretch interpolation; the atoms' spectrum is computed once.

    The survival indicator zeroes phi at negative capitals; the correlation
    c(x) = sum_y m(y) phi^0(x + y) is then exact on the lattice (atoms sit
    on it at the given stride), and only the compounding stretch
    phi_new(u) = c(u (1+r)) needs interpolation.  Reads below the grid are
    certain ruin (0).  Reads above it are certain survival (1): each output
    cell adds the mass of the atoms that land past the grid top.
    """

    def __init__(self, grid, pmf, stride):
        atoms = np.zeros((len(pmf.mass) - 1) * stride + 1)
        atoms[::stride] = pmf.mass
        reversed_atoms = atoms[::-1]
        self.grid = grid
        self.n_grid = len(grid.points)
        self.n_out = self.n_grid + len(atoms) - 1
        self.n_fft = sp_fft.next_fast_len(self.n_out, real=True)
        self.atoms_hat = sp_fft.rfft(reversed_atoms, self.n_fft)
        # conv(P, reversed A)[t] = sum_s A[s] P[t - (S-1) + s]: output
        # n_grid + i reads past the grid top for the i + 1 largest atom cells
        self.above = np.cumsum(reversed_atoms)[:-1]
        # output t is the cell x = t + k_lo - a_last, a_last the largest atom cell
        self.x_cells = np.arange(self.n_out) + float(grid.k_lo - pmf.max_index * stride)
        self.stretched = grid.points * grid.growth / grid.step

    def __call__(self, phi_prev):
        grid = self.grid
        phi0 = np.where(grid.points >= -1e-9 * grid.step, phi_prev, 0.0)
        corr = sp_fft.irfft(sp_fft.rfft(phi0, self.n_fft) * self.atoms_hat,
                            self.n_fft)[:self.n_out]
        corr[self.n_grid:] += self.above
        np.clip(corr, 0.0, 1.0, out=corr)
        out = np.interp(self.stretched, self.x_cells, corr, left=0.0, right=1.0)
        return _check_monotone_fix(out)


def survival_recursion(u_values, r: float, pmfs, grid_step: float | None = None,
                       interp_tol: float = 0.5, method: str = "auto") -> RuinResult:
    """Survival/ruin probabilities for horizons 1..L on the given capitals.

    pmfs holds one net-profit LatticePMF per interval, in interval order.
    When they differ across intervals each horizon is evaluated by a backward
    pass (interval order matters); identical inputs collapse to one forward
    iteration.

    method:
      * ``"atoms"``       -- per-atom Stieltjes sum (the literal recursion);
      * ``"correlation"`` -- exact lattice correlation with a single
        compounding-stretch interpolation per step (requires the capital grid
        step to divide the lattice step; default grid uses an integer
        refinement, at least as fine as step / (1+r)^L);
      * ``"auto"``        -- correlation when available and the problem is
        large, atoms otherwise.

    The interpolation diagnostic is the accumulated max-norm linear-interp
    bound max|d2 phi| / 8; it is conservative wherever the survival function
    has genuine jumps (atoms of the compound distribution), so the default
    tolerance only guards against catastrophic grid misconfiguration --
    pointwise accuracy at the requested capitals is the business of the grid
    -refinement (Richardson) check.
    """
    if r < 0:
        raise DomainError(f"interest rate must be >= 0, got {r}")
    pmfs = list(pmfs)
    horizon = len(pmfs)
    if horizon < 1:
        raise DomainError("need at least one interval PMF")
    u_values = np.atleast_1d(np.asarray(u_values, dtype=float))
    step = pmfs[0].step
    growth = 1.0 + r

    stride = None
    if grid_step is None:
        stride = max(1, math.ceil(growth ** horizon))
        grid_step = step / stride
    else:
        ratio = step / grid_step
        if abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1:
            stride = int(round(ratio))
    if method == "auto":
        work = sum(len(p.mass) for p in pmfs)
        method = "correlation" if (stride is not None and work > 2000) else "atoms"
    if method == "correlation" and stride is None:
        raise DomainError(
            "correlation method requires the u-grid step to divide the lattice step")

    grid = _RecursionGrid(u_values, r, pmfs, grid_step, horizon)

    aligned = (r == 0.0
               and math.isclose(grid_step, step, rel_tol=1e-12)
               and all(np.allclose(p.values() / step, np.round(p.values() / step),
                                   atol=1e-9) for p in pmfs))

    identical = all(p is pmfs[0] or (p.step == pmfs[0].step
                                     and p.min_index == pmfs[0].min_index
                                     and np.array_equal(p.mass, pmfs[0].mass))
                    for p in pmfs)

    interp_bound = 0.0
    correlations = {}  # id(pmf) -> its step operator on this grid

    def one_step(phi_prev, pmf):
        nonlocal interp_bound
        if method == "correlation":
            if id(pmf) not in correlations:
                correlations[id(pmf)] = _Correlation(grid, pmf, stride)
            out = correlations[id(pmf)](phi_prev)
        else:
            out = _step_atoms(phi_prev, grid, pmf)
        if not aligned and len(out) > 2:
            interp_bound += np.abs(np.diff(out, 2)).max() / 8.0
        return out

    phi_rows = np.empty((horizon, len(u_values)))
    ones = np.ones_like(grid.points)
    if identical:
        phi_grid = ones
        for l in range(1, horizon + 1):
            phi_grid = one_step(phi_grid, pmfs[0])
            phi_rows[l - 1] = np.interp(u_values, grid.points, phi_grid,
                                        left=0.0, right=1.0)
    else:
        for l in range(1, horizon + 1):
            phi_grid = ones
            for k in range(l, 0, -1):   # condition on the earliest interval last
                phi_grid = one_step(phi_grid, pmfs[k - 1])
            phi_rows[l - 1] = np.interp(u_values, grid.points, phi_grid,
                                        left=0.0, right=1.0)

    if not aligned and interp_bound > interp_tol:
        raise AccuracyError(
            "interpolation error bound exceeds tolerance; refine the u-grid step",
            {"bound": interp_bound, "tol": interp_tol, "grid_step": grid_step},
        )
    mass_defects = [abs(float(p.mass.sum()) - 1.0) for p in pmfs]
    psi = 1.0 - phi_rows
    return RuinResult(
        u_values=u_values, psi=psi, phi=phi_rows,
        u_grid=(float(grid.points[0]), float(grid_step), len(grid.points)),
        grid_step=grid_step,
        diagnostics={
            "interp_error_bound": interp_bound,
            "lattice_aligned": aligned,
            "pmf_mass_defects": mass_defects,
            "grid_points": len(grid.points),
            "method": method,
        },
    )


# ----------------------------------------------------------------------
# Orchestration: moments -> expansion -> discretization -> recursion
# ----------------------------------------------------------------------

def interval_net_pmfs(config: ScenarioConfig):
    """Per-interval compound net-profit PMFs (the G_l inputs of the recursion).

    Returns (pmfs, info) where info carries the per-stage diagnostics
    (moments, sanitized mass, lattice step, and per distinct interval the
    compound stage's FFT window, aliasing bound, clipped negative mass and
    mean-identity residual).
    """
    fin, num = config.financial, config.numerics
    horizon = fin.horizon_intervals
    distinct = {}
    order = []
    for i in range(1, horizon + 1):
        model = config.durations.for_interval(
            i, truncate_to_interval=num.truncate_durations_to_interval)
        key = (tuple(model.pmf()[0]), tuple(model.pmf()[1]))
        order.append(key)
        distinct.setdefault(key, (i, model))

    v_hi_all = max(config.income_support(model)[1] for _, model in distinct.values())
    max_fee = max(fin.operator_fees.values())
    delta = num.lattice_step or (v_hi_all + max_fee) / 2048.0

    built = {}
    info = {"lattice_step": delta, "intervals": {}}
    for key, (i, model) in distinct.items():
        mv = revenue_moments(config, interval_index=i)
        v_lo, v_hi = config.income_support(model)
        raw = income_pdf.expand_density(mv, v_lo, v_hi, order=num.moment_order)
        density = income_pdf.sanitize(raw, warn_mass=num.sanitize_warn,
                                      reject_mass=num.sanitize_reject)
        income = discretize_income(density, delta, num.lattice_points_budget)
        zstep = net_profit_step_pmf(income, fin)
        compound = compound_geometric_pmf(zstep, fin.w_n_geometric,
                                          tail_eps=num.tail_eps,
                                          points_budget=num.lattice_points_budget)
        # drop negligible compound tails before the recursion: each dropped
        # side carries at most ruin_tail_eps mass, so survival probabilities
        # move by at most horizon * ruin_tail_eps
        g = compound.trimmed(num.ruin_tail_eps)
        built[key] = g
        info["intervals"][i] = {
            "mean_revenue": float(mv.raw[0]),
            "sanitized_mass": density.sanitized_mass,
            "compound_mean": g.mean(),
            "compound": compound.diagnostics,
        }
    return [built[key] for key in order], info


def run_pipeline(config: ScenarioConfig, u_values=None):
    """Full numerical path: moments, density expansion, discretization,
    compound distribution, then the survival recursion.

    Returns (RuinResult, info dict).
    """
    fin, num = config.financial, config.numerics
    if u_values is None:
        u_values = np.array([fin.initial_capital], dtype=float)
    pmfs, info = interval_net_pmfs(config)
    grid_step = num.u_grid_step
    result = survival_recursion(u_values, fin.interest_rate_per_interval, pmfs,
                                grid_step=grid_step, interp_tol=num.ruin_interp_tol)
    info["ruin_diagnostics"] = result.diagnostics
    return result, info
