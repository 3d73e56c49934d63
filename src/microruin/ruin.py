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
interpolation (exact when r = 0 and the grid is lattice-aligned), and atoms
off the capital grid are first split between their two grid nodes.  The
capital grid covers only where phi can change and is read: it starts just
below min(u, 0), since the survival indicator zeroes every negative capital,
and it stops at the smallest of the worst-case discounted loss (past it
survival is certain), a Chernoff bound on the discounted losses (past it
ruin has probability at most ``tail_eps`` over every horizon) and the
highest capital read on the way to the requested ones.  Reads below the grid
are ruin and reads above it survival, so the top moves psi by at most
horizon * ``tail_eps``.  Capitals below -max(y)^+ / (1+r), where no atom
survives the first step, and above the loss top are answered without the
grid, so the grid's size depends on the PMFs and not on how far out the
requested capitals lie.

Each step is one lattice correlation on the grid, by FFT, except the first
step of every pass: on phi_0 = 1 the correlation is a difference of the
atoms' running sums, so an identical-PMF solve over L intervals runs L - 1
transform pairs and a backward pass of l steps l - 1.

The correlation keeps only the atoms up to its fold edge; every atom above
counts as survival.  ``run_pipeline`` therefore sizes each compound window
before it inverts one: a closed-form Chernoff bound on the grid's loss top,
from the step laws alone and evaluated once (``_loss_top_bound``), with the
requested capitals, r, L and the default grid step, bounds the fold edge
(``_window_top``).  The compound stage inverts only up to that atom and
lumps the rest of its mass on the next one, which lands past the fold as
the whole law's upper atoms do, so the grid and every read atom stay those
of the whole law (to the inversion's accuracy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import compound, income_pdf, specfun
from .compound import (
    LatticePMF,
    compound_geometric_pmf,
    discretize_income,
    net_profit_step_pmf,
)
from .errors import DomainError, ResourceLimitError
from .model import ScenarioConfig
from .moments import revenue_moments

__all__ = [
    "RuinResult",
    "initial_capital_bound",
    "survival_recursion",
    "interval_net_pmfs",
    "run_pipeline",
]


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


@dataclass(frozen=True)
class RuinResult:
    """Ruin/survival probabilities per horizon on the requested capitals, and
    the capital grid lo + step * {0, ..., points - 1} the recursion ran on."""

    psi: np.ndarray            # (horizon, n_u)
    u_grid: tuple              # (lo, step, n_points)
    diagnostics: dict


LOSS_CELLS = 1024  # loss bins of the Chernoff top, each loss rounded up
TRIM_MASS = 1e-9  # compound tail mass dropped per side before the recursion


def _loss_top(pmfs, growth: float, horizon: int, tail_eps: float) -> tuple[float, float]:
    """(reach, top) of the discounted losses X = sum_{i<=L} g^-i Y_i^-, given
    each distinct interval PMF once in ``pmfs`` (all on one lattice step).

    reach is the worst case of X over positive-mass atoms; past it survival
    is certain.  top <= reach is the smallest capital u with
    e^(-theta u) prod_i max_j M_{Y_j^-}(theta g^-i) <= tail_eps, theta
    minimizing u: past it the ruin probability over any horizon <= L and any
    order of the interval PMFs is at most tail_eps.  The losses are binned
    onto at most LOSS_CELLS cells, each rounded up, which keeps the bound
    valid.  tail_eps = 0 returns top = reach.
    """
    # the lowest index with mass gives each PMF's largest loss
    k_max = max(max(0, -(p.min_index + int((p.mass > 0).argmax()))) for p in pmfs)
    discount = growth ** -np.arange(1.0, horizon + 1)
    reach = k_max * pmfs[0].step * float(discount.sum())
    if k_max == 0 or tail_eps <= 0.0:
        return reach, reach
    q = -(-k_max // LOSS_CELLS)
    width = q * pmfs[0].step
    tables = []
    for p in pmfs:
        # atoms at index >= 0 lose nothing (cell 0), those below lose -index;
        # atoms without mass add exact zeros
        cells = np.zeros(len(p.mass), dtype=np.intp)
        n_loss = min(max(-p.min_index, 0), len(p.mass))
        cells[:n_loss] = -(-np.arange(-p.min_index, -p.min_index - n_loss, -1) // q)
        binned = np.bincount(cells, weights=p.mass)
        held = np.flatnonzero(binned)
        loss = held * width
        tables.append((loss, loss * loss, np.log(binned[held])))
    log_eps = math.log(tail_eps)

    def cgf(theta):
        # K(theta) = sum_i max_j log M_j(theta g^-i), convex as a sum of maxima
        # of cumulant generating functions; K' and K'' follow the maximizing
        # table of each horizon row through its tilted loss moments
        t = theta * discount[:, None]
        best = None
        for loss, loss_sq, log_p in tables:
            e = t * loss
            e += log_p
            peak = e.max(axis=1)
            e -= peak[:, None]
            np.exp(e, out=e)
            s0 = e.sum(axis=1)
            lse = peak + np.log(s0)
            m1, m2 = (e @ loss) / s0, (e @ loss_sq) / s0
            if best is None:
                best = [lse, m1, m2]
            else:
                wins = lse > best[0]
                for held, new in zip(best, (lse, m1, m2)):
                    held[wins] = new[wins]
        lse, m1, m2 = best
        return (float(lse.sum()), float(discount @ m1),
                float((discount * discount) @ (m2 - m1 * m1)))

    # log M(t) <= t * max loss, so at this theta the top is within one cell
    # of the worst case: larger thetas cannot lower it by more.  Any theta
    # gives a valid top; the search stops within 1e-13 of the best theta
    theta, log_m = compound.chernoff_min(cgf, log_eps, -log_eps / width)
    top = (log_m - log_eps) / theta
    return reach, min(reach, top)


def _read_top(y_max: float, growth: float, horizon: int, u_max: float,
              grid_step: float) -> float:
    """Highest capital the recursion reads on its way to the capitals <= u_max.

    phi_l at u reads phi_{l-1} only up to u (1+r) + y_max, y_max the largest
    net-profit atom with mass, and one grid step more between grid points.
    Over the horizon the reads therefore stay below
    (1+r)^(L-1) u_max + (y_max^+ + 2 step) sum_{k<L} (1+r)^k.
    """
    powers = growth ** np.arange(horizon)
    return float(powers[-1] * u_max + (max(y_max, 0.0) + 2 * grid_step) * powers.sum())


def _loss_top_bound(steps, w_n: float, discount: np.ndarray, tail_eps: float) -> float:
    """An upper bound, in lattice cells, on the top ``_loss_top`` finds for
    the compound PMFs of the step laws ``steps``, from the step laws alone.

    A compound sum Y has M_{Y^-}(t) = E[max(1, e^(-tY))] <= 1 - w + M_Y(-t),
    with M_Y(s) = w / (1 - (1-w) M_Z(s)) over Z's atoms, so
    K(theta) = sum_i max_j log(1 - w + M_{Y_j}(-theta d_i)), d the discount
    factors, bounds the CGF of ``_loss_top``'s losses, and any theta gives a
    valid top.  It is evaluated once, at the lower-edge theta of the compound
    window (``compound.lower_edge``), which lies near the best one.  The
    compound PMFs keep no loss past that edge (the mass beyond it is at most
    tail_eps, far below ``TRIM_MASS``), so ``_loss_top``'s bins are at most
    ceil(edge / LOSS_CELLS) cells wide, and rounding each loss up to its bin
    adds at most one bin per interval.  Returns inf past the MGF's pole.
    """
    edge, theta = max(compound.lower_edge(z, w_n, tail_eps) for z in steps)
    if theta == 0.0:
        return 0.0
    log_q = math.log1p(-w_n)
    log_m = np.full(len(discount), -np.inf)
    for z in steps:
        alive = z.mass > 0.0
        e = np.multiply.outer(-theta * discount, z.indices()[alive].astype(float))
        e += np.log(z.mass[alive])
        peak = e.max(axis=1)
        e -= peak[:, None]
        log_qmz = log_q + peak + np.log(np.exp(e, out=e).sum(axis=1))
        if not (log_qmz < 0.0).all():
            return math.inf
        np.maximum(log_m, np.log(1.0 - w_n - w_n / np.expm1(log_qmz)), out=log_m)
    cells_per_bin = -(-edge // LOSS_CELLS)
    return (float(log_m.sum()) - math.log(tail_eps)) / theta + cells_per_bin * float(discount.sum())


def _window_top(u_values: np.ndarray, growth: float, horizon: int, step: float,
                loss_cells: float) -> int:
    """The highest lattice index whose atom ``_Correlation`` keeps on the
    default grid of ``survival_recursion`` at the capitals u_values, given
    an upper bound ``loss_cells`` (lattice cells) on the grid's loss top.

    The fold edge k_hi - floor(k_lo (1+r)) + 1 rises with k_hi and falls
    with k_lo.  ``_RecursionGrid`` puts k_hi at most two steps above the
    larger of the loss top and the held capitals (those at most two steps
    above it), and k_lo at least two steps below min(u, 0), so the same
    rules on the bound bound the fold edge.
    """
    stride = max(1, math.ceil(growth ** horizon))
    grid_step = step / stride
    margin = 2 * grid_step
    top = loss_cells * step
    held = u_values[u_values <= top + margin]
    k_hi = math.ceil((max(top, held.max(initial=0.0)) + margin) / grid_step)
    k_lo = math.floor((min(u_values.min(), 0.0) - margin) / grid_step)
    return -(-(k_hi - math.floor(k_lo * growth) + 1) // stride)


class _RecursionGrid:
    """Shared capital grid over the capitals where phi can change and is read.

    Only the requested capitals within two steps of [floor, top] are held
    on it.  Below floor = -y_max^+ / (1+r) no atom survives the first step,
    so phi is exactly 0 there; above top (from ``_loss_top``) reads count as
    survival.  The grid starts two steps below min(u, 0) over the held
    capitals: the survival indicator zeroes phi at every negative capital,
    so reads below the grid are ruin.  It ends two steps above
    max(u, min(top, read top)), read top from ``_read_top``; reads above it
    are survival.  Below the read top that is exact for the requested
    capitals, since no read on their way lies past it (the grid cells above
    phi_l's reach are wrong and never read).  When the Chernoff top binds it
    moves phi by at most ``tail_bound`` = horizon * tail_eps, and not at all
    when the worst-case reach or the read top does.  A grid of more than
    ``compound.POINTS_BUDGET`` points raises ResourceLimitError.
    """

    def __init__(self, u_values, r, pmfs, grid_step, horizon, tail_eps):
        growth = 1.0 + r
        reach, top = _loss_top(pmfs, growth, horizon, tail_eps)
        y_max = max((p.min_index + int(np.flatnonzero(p.mass)[-1])) * p.step for p in pmfs)
        # capitals in the grid's margins keep the answers its interpolants give
        margin = 2 * grid_step
        held = u_values[(u_values >= -max(y_max, 0.0) / growth - margin)
                        & (u_values <= top + margin)]
        u_lo, u_hi = (held.min(), held.max()) if len(held) else (0.0, 0.0)
        read_top = _read_top(y_max, growth, horizon, u_hi, grid_step)
        self.k_lo = math.floor((min(u_lo, 0.0) - margin) / grid_step)
        self.k_hi = math.ceil((max(u_hi, min(top, read_top)) + margin) / grid_step)
        if self.k_hi - self.k_lo >= compound.POINTS_BUDGET:
            raise ResourceLimitError(
                f"recursion grid needs {self.k_hi - self.k_lo + 1} capital points "
                f"(step {grid_step:g}), over the budget of {compound.POINTS_BUDGET}")
        self.step = grid_step
        self.points = np.arange(self.k_lo, self.k_hi + 1) * grid_step
        self.growth = growth
        above = max(read_top, u_values.max())
        self.tail_bound = horizon * tail_eps if top < min(reach, above) else 0.0


class _Correlation:
    """One PMF's step on a fixed grid: exact lattice correlation, then one
    stretch interpolation; the atoms' spectrum is computed once.

    The survival indicator zeroes phi at negative capitals; the correlation
    c(x) = sum_y m(y) phi^0(x + y) is then exact on the lattice (atoms sit
    on it at the given stride), and only the compounding stretch
    phi_new(u) = c(u (1+r)) needs interpolation.  Reads below the grid are
    ruin (0) and reads above it survival (1, see ``_RecursionGrid``): each
    output cell adds the mass of the atoms that land past the grid top.  The
    stretch reads cells floor(k_lo (1+r)) <= x <= floor(k_hi (1+r)) + 1; an
    atom past k_hi - floor(k_lo (1+r)) lands above the grid from all of them,
    so those atoms are not transformed: their mass is one constant added to
    every cell.  An atom below k_lo - floor(k_hi (1+r)) - 1 lands below the
    grid from all of them and is dropped.

    The capital-zero cell: from a stretched position j + w (lower cell j,
    weight w) an atom at cell -1 - j lands at w - 1 < 0, which is ruin, yet
    the interpolant's upper node reads it as phi(0).  Each such output gives
    back w m(-1 - j) phi(0), except for w within 1e-9 of 1, where the
    per-atom sum's tolerance counts the landing as capital 0.  The step then
    equals the per-atom Stieltjes sum on the same grid.

    Of the n_out outputs of the linear correlation the stretch reads only
    t in [t_lo, t_hi].  A circular correlation of length n_fft >=
    max(t_hi + 1, n_out - t_lo) folds every other output onto indices
    outside that window, so the window stays exact while the transform
    skips the outputs nothing reads.
    """

    def __init__(self, grid, pmf, stride):
        # keep the atoms from the low edge up to the first lattice atom past
        # the fold edge (a cell of slack on each side absorbs rounding in the
        # stretched positions)
        fold_edge = grid.k_hi - math.floor(grid.k_lo * grid.growth) + 1
        low_edge = grid.k_lo - math.floor(grid.k_hi * grid.growth) - 2
        n_kept = min(len(pmf.mass), max(1, -(-fold_edge // stride) - pmf.min_index + 1))
        n_low = min(n_kept - 1, max(0, -(-low_edge // stride) - pmf.min_index))
        self.far = float(pmf.mass[n_kept:].sum())
        # the survival past the last output: every kept atom lands above the grid
        self.beyond = 1.0 - float(pmf.mass[:n_low].sum())
        atoms = np.zeros((n_kept - n_low - 1) * stride + 1)
        atoms[::stride] = pmf.mass[n_low:n_kept]
        reversed_atoms = atoms[::-1]
        n_grid = len(grid.points)
        n_out = n_grid + len(atoms) - 1
        # capitals below -1e-9 step (a prefix of the grid) are ruin
        self.n_negative = int(np.searchsorted(grid.points, -1e-9 * grid.step))
        # output t is the cell x = t + x0, x0 = k_lo - a_last with a_last the
        # largest kept atom cell; the stretch reads the cells around
        # u (1+r) / step, ruin below output 0 and ``beyond`` past output n_out - 1
        a_last = (pmf.min_index + n_kept - 1) * stride
        x0 = float(grid.k_lo - a_last)
        stretched = grid.points * grid.growth / grid.step
        self.n_below = int(np.searchsorted(stretched, x0))
        n_inside = int(np.searchsorted(stretched, x0 + (n_out - 1), side="right"))
        cell = np.floor(stretched[self.n_below:n_inside]) - x0
        t_lo = int(cell[0]) if len(cell) else 0
        t_hi = min(int(cell[-1]) + 1, n_out - 1) if len(cell) else 0
        cell = np.minimum(cell, t_hi - 1).astype(np.intp)
        self.weights = stretched[self.n_below:n_inside] - (cell + x0)
        self.lower = cell - t_lo  # window index of the cell at or below
        self.n_inside = n_inside
        # the capital-zero cell: kept atom s puts output t's lower node at
        # capital -1 when s = n_negative + len(atoms) - 2 - t
        s = self.n_negative + len(atoms) - 2 - cell
        hit = (s >= 0) & (s < len(atoms)) & (self.weights > 0.0) & (self.weights < 1.0 - 1e-9)
        self.ruined_at = self.n_below + np.flatnonzero(hit)
        self.ruined = self.weights[hit] * atoms[s[hit]]
        self.n_fft = specfun.next_fast_len(max(t_hi + 1, n_out - t_lo, n_grid, len(atoms)))
        self.atoms_hat = np.fft.rfft(reversed_atoms, self.n_fft)
        self.window = slice(t_lo, t_hi + 1)
        # conv(P, reversed A)[t] = sum_s A[s] P[t - (S-1) + s]: output
        # n_grid + i reads past the grid top for the i + 1 largest atom cells
        # (running sums over only the atoms the window reaches)
        reach = min(max(t_hi + 1 - n_grid, 0), len(atoms) - 1)
        self.above_from = max(n_grid - t_lo, 0)
        self.above = np.cumsum(reversed_atoms[:reach])[max(t_lo - n_grid, 0):]
        self.n_grid = n_grid
        self.kept, self.stride = pmf.mass[n_low:n_kept], stride  # a view: no copy

    def __call__(self, phi_prev):
        phi0 = phi_prev.copy()
        phi0[:self.n_negative] = 0.0
        corr = np.fft.irfft(np.fft.rfft(phi0, self.n_fft) * self.atoms_hat,
                            self.n_fft)[self.window]
        return self._stretch(corr, phi_prev[self.n_negative])

    def first_step(self):
        """The step on phi_0 = 1, without a transform: output t of the
        correlation sums the reversed atoms that read a grid cell at or above
        capital 0, atoms t - n_grid + 1 .. t - n_negative, which is a
        difference of two running sums."""
        # the atoms' running sums: the zeros between atom cells add nothing
        sums = np.repeat(np.cumsum(self.kept[::-1]), self.stride)
        sums = sums[:len(sums) - self.stride + 1]
        t_lo, n = self.window.start, self.window.stop - self.window.start
        corr = _running(sums, t_lo - self.n_negative + 1, n)
        corr -= _running(sums, t_lo - self.n_grid + 1, n)
        return self._stretch(corr, 1.0)

    def _stretch(self, corr, phi_zero):
        """The step's output from the correlation on the stretch window, phi
        at capital 0 being phi_zero: reads past the grid top and the far
        atoms survive, then the stretch, the capital-zero cell and monotone
        repair."""
        corr[self.above_from:] += self.above
        corr += self.far
        np.clip(corr, 0.0, 1.0, out=corr)
        out = np.empty(self.n_grid)
        out[:self.n_below] = 0.0
        out[self.n_inside:] = self.beyond
        # the interpolant between two cells in [0, 1] stays in [0, 1]
        lower = corr.take(self.lower)
        inside = out[self.n_below:self.n_inside]
        np.subtract(corr[1:].take(self.lower), lower, out=inside)  # upper - lower node
        inside *= self.weights
        inside += lower
        held = out[self.ruined_at] - self.ruined * phi_zero
        out[self.ruined_at] = np.maximum(held, 0.0)
        return np.maximum.accumulate(out, out=out)


def _running(sums: np.ndarray, start: int, n: int) -> np.ndarray:
    """For i < n, the sum of the first clip(start + i, 0, S) of the S terms
    whose running sums are ``sums``."""
    out = np.empty(n)
    zero = min(max(1 - start, 0), n)
    full = min(max(len(sums) + 1 - start, zero), n)
    out[:zero] = 0.0
    out[zero:full] = sums[start + zero - 1:start + full - 1]
    out[full:] = sums[-1]
    return out


def _on_grid(pmf, grid_step: float):
    """(PMF, stride) of ``pmf`` on the capital grid grid_step Z.

    When grid_step divides the lattice step every atom sits on a grid node,
    stride cells apart.  Otherwise each atom's mass is split linearly between
    the two grid nodes around it, which keeps total mass and mean, and the
    re-binned PMF steps one grid cell at a time.
    """
    stride = round(pmf.step / grid_step)
    if stride >= 1 and abs(pmf.step / grid_step - stride) < 1e-9:
        return pmf, stride
    pos = pmf.values() / grid_step
    cell = np.floor(pos)
    upper = pos - cell
    index = (cell - cell[0]).astype(np.intp)
    mass = np.bincount(index, pmf.mass * (1.0 - upper), minlength=index[-1] + 2)
    mass[1:] += np.bincount(index, pmf.mass * upper)
    return LatticePMF(step=grid_step, min_index=int(cell[0]), mass=mass), 1


def survival_recursion(u_values, r: float, pmfs, grid_step: float | None = None,
                       tail_eps: float = 1e-12) -> RuinResult:
    """Survival/ruin probabilities for horizons 1..L on the given capitals.

    pmfs holds one net-profit LatticePMF per interval, in interval order.
    When they differ across intervals each horizon is evaluated by a backward
    pass (interval order matters); the same PMF object in every interval
    collapses to one forward iteration, with the same result.

    Each step is one lattice correlation and one stretch interpolation
    (``_Correlation``); the first step of every pass, on phi_0 = 1, takes
    its correlation from running sums instead of a transform pair.  When
    the capital grid step divides the lattice step,
    as the default step / ceil((1+r)^L) always does, the step equals the
    per-atom Stieltjes sum on the same grid.  On any other grid step each
    distinct PMF is first re-binned onto the grid once (``_on_grid``), its
    atoms' mass split linearly between the two grid nodes around them.  That
    keeps mass and mean, but an off-grid landing is interpolated twice, by
    the split and by the stretch, and the split reads part of a landing just
    below capital 0 as alive.  Pointwise accuracy at the requested capitals
    is the business of the grid-refinement (Richardson) check.

    The capital grid ends where the ruin probability over the remaining
    horizon falls below ``tail_eps`` (a Chernoff bound on the discounted
    losses), at the worst-case discounted loss or past the highest capital
    the recursion reads for the requested ones, whichever is lowest; reads
    above it count as survival, so psi moves by at most horizon * tail_eps
    (``grid_tail_bound``; 0 when the worst case or the read top binds, and
    with tail_eps = 0).  Capitals below -max(y)^+ / (1+r), where the first
    step is certain ruin, get psi 1 and capitals past the loss top psi 0
    without widening the grid.  A grid over ``compound.POINTS_BUDGET``
    points (a fine step from a large (1+r)^L) raises ResourceLimitError.
    ``u_grid`` records the grid, and the diagnostics also give
    ``fft_points``: the longest circular length of a correlation step,
    sized to the outputs its stretch reads.  A grid_step that is not
    positive and finite, or a tail_eps outside [0, 1), raises DomainError.
    """
    if r < 0:
        raise DomainError(f"interest rate must be >= 0, got {r}")
    pmfs = list(pmfs)
    horizon = len(pmfs)
    if horizon < 1:
        raise DomainError("need at least one interval PMF")
    u_values = _capitals(u_values)
    if grid_step is None:
        grid_step = pmfs[0].step / max(1, math.ceil((1.0 + r) ** horizon))
    elif not 0.0 < grid_step < math.inf:  # written so that NaN fails
        raise DomainError(f"grid_step must be positive and finite, got {grid_step}")
    if not 0.0 <= tail_eps < 1.0:
        raise DomainError(f"tail_eps must lie in [0, 1), got {tail_eps}")

    on_grid = {id(p): _on_grid(p, grid_step) for p in pmfs}
    grid = _RecursionGrid(u_values, r, [pmf for pmf, _ in on_grid.values()], grid_step,
                          horizon, tail_eps)
    steps = {key: _Correlation(grid, pmf, stride) for key, (pmf, stride) in on_grid.items()}
    identical = len(steps) == 1

    phi_rows = np.empty((horizon, len(u_values)))
    for l in range(1, horizon + 1):
        # identical PMFs carry phi_{l-1} forward; otherwise each horizon runs
        # its own backward pass, conditioning on the earliest interval last.
        # A pass starts on phi_0 = 1
        if identical and l > 1:
            phi_grid = steps[id(pmfs[0])](phi_grid)
        else:
            phi_grid = steps[id(pmfs[l - 1])].first_step()
            for pmf in reversed(pmfs[:l - 1]):
                phi_grid = steps[id(pmf)](phi_grid)
        phi_rows[l - 1] = np.interp(u_values, grid.points, phi_grid, left=0.0, right=1.0)

    return RuinResult(
        psi=1.0 - phi_rows,
        u_grid=(float(grid.points[0]), float(grid_step), len(grid.points)),
        diagnostics={"grid_tail_bound": grid.tail_bound,
                     "fft_points": max(c.n_fft for c in steps.values())},
    )


# ----------------------------------------------------------------------
# Orchestration: moments -> expansion -> discretization -> recursion
# ----------------------------------------------------------------------

def _capitals(u_values) -> np.ndarray:
    u_values = np.atleast_1d(np.asarray(u_values, dtype=float))
    bad = u_values[~np.isfinite(u_values)]
    if len(bad):
        raise DomainError(f"initial capitals must be finite, got {bad[0]}")
    return u_values


def interval_net_pmfs(config: ScenarioConfig):
    """Per-interval compound net-profit PMFs (the G_l inputs of the recursion).

    Returns (pmfs, info) where info carries the lattice step and, per
    distinct interval, the sanitized mass, the fee rounding (the lattice's
    mean fee minus the exact mean fee) and the compound stage's diagnostics
    (FFT window, aliasing bound, clipped negative mass and mean-identity
    residual).  Every compound PMF holds its whole law.
    """
    return _net_pmfs(config, None)


def _net_pmfs(config: ScenarioConfig, u_values):
    """``interval_net_pmfs``; with capitals u_values, each compound PMF holds
    only the atoms the recursion at those capitals reads.

    Before any compound inversion, ``_loss_top_bound`` bounds the recursion
    grid's loss top from the step laws and ``_window_top`` turns it into the
    highest atom the correlation keeps; ``compound_geometric_pmf`` then
    inverts only up to that atom when its read window is the shorter one,
    lumping the mass above it on the next atom, which lands past the fold
    and is read as survival, as every atom above the grid is.  The grid is
    the one the whole PMFs give.
    """
    fin, num = config.financial, config.numerics
    horizon = fin.horizon_intervals
    distinct = {}
    order = []
    for i in range(1, horizon + 1):
        values, probs = config.interval_durations(i)
        key = (tuple(values), tuple(probs))
        order.append(key)
        distinct.setdefault(key, i)

    v_hi_all = max(config.income_support(i)[1] for i in distinct.values())
    fees, fee_probs = fin.fee_law()
    delta = num.lattice_step or (v_hi_all + float(fees.max())) / 2048.0

    mean_fee = float(np.dot(fees, fee_probs))
    zsteps = {}
    info = {"lattice_step": delta, "intervals": {}}
    for key, i in distinct.items():
        mv = revenue_moments(config, interval_index=i)
        v_lo, v_hi = config.income_support(i)
        density = income_pdf.sanitize(income_pdf.expand_density(mv, v_lo, v_hi))
        income = discretize_income(density, delta)
        zsteps[key] = net_profit_step_pmf(income, fin)
        info["intervals"][i] = {"sanitized_mass": density.sanitized_mass,
                                "fee_rounding": income.mean() - zsteps[key].mean() - mean_fee}
    top = None
    if u_values is not None:
        growth = 1.0 + fin.interest_rate_per_interval
        cells = _loss_top_bound(list(zsteps.values()), fin.w_n_geometric,
                                growth ** -np.arange(1.0, horizon + 1), num.tail_eps)
        if math.isfinite(cells):
            top = _window_top(u_values, growth, horizon, delta, cells)
    built = {}
    for key, i in distinct.items():
        compound_pmf = compound_geometric_pmf(zsteps[key], fin.w_n_geometric,
                                              tail_eps=num.tail_eps, top=top)
        # drop negligible compound tails before the recursion: each dropped
        # side carries at most TRIM_MASS, so survival probabilities move by
        # at most horizon * TRIM_MASS
        built[key] = compound_pmf.trimmed(TRIM_MASS)
        info["intervals"][i]["compound"] = compound_pmf.diagnostics
    return [built[key] for key in order], info


def run_pipeline(config: ScenarioConfig, u_values):
    """Full numerical path at the capitals u_values: moments, density
    expansion, discretization, compound distribution, then the survival
    recursion.

    Returns (RuinResult, info) with info from ``interval_net_pmfs``.  The
    compound PMFs hold only the atoms the recursion reads (``_net_pmfs``).
    """
    u_values = _capitals(u_values)
    pmfs, info = _net_pmfs(config, u_values)
    result = survival_recursion(u_values, config.financial.interest_rate_per_interval,
                                pmfs, tail_eps=config.numerics.tail_eps)
    return result, info
