"""Lattice discretization and per-interval compound net-profit distributions.

The per-interval net profit is a compound geometric sum S = sum_{j<=N} Z_j
with Pr(N = u) = (1-w)^u w and Z the (signed) lattice-valued net contribution
of one user.  Because Z takes negative values, the classical nonnegative
-support recursion does not apply; the compound-geometric identity

    f = w * delta_0 + (1-w) * (h ** f)        (** = lattice convolution)

is used instead.  ``compound_geometric_pmf`` evaluates its probability
generating function w / (1 - (1-w) H) on a real FFT window sized to the
mass.  The window edges come from Chernoff bounds
Pr(+-S >= x) <= e^(-theta x) M_S(+-theta), with the exact lattice MGF
M_S(theta) = w / (1 - (1-w) M_Z(theta)), so wrap-around moves at most
2 * ``tail_eps`` of mass.  Each edge is the bound's exponent minimized over
theta: ``chernoff_min`` runs safeguarded Newton steps on the stationarity
condition theta K' - K + log eps = 0 (K = log M_S, convex), with K' and K''
from the same exp pass as K; the recursion's capital-grid top uses the same
search.

A caller that reads no atom above an index ``top`` (the ruin recursion
past its fold edge) can ask for the read window instead: the PGF is
evaluated at e^theta z on a window [lo, top] of n points, theta =
log(tail_eps) / n < 0, and the inverse transform untilted by e^(-theta k)
(exponential tilting: Gruebel and Hermesmeier, ASTIN Bulletin 1999;
Embrechts and Frei, Math. Meth. Oper. Res. 2009).  An atom above top wraps
down by n and lands with weight e^(theta n) = tail_eps, and one below lo
wraps up with weight 1/tail_eps, so lo is the lower Chernoff edge at
tail_eps^2: the wrap-around moves at most about 2 * tail_eps of mass, and
the bound ``aliasing_bound`` records includes every further wrap.  The
untilt multiplies the transform's roundoff by up to e^(|theta| top), so n
is also at least |log tail_eps| top / ``UNTILT_EXPONENT``.  The rest of the
mass, 1 - sum(window), is one atom at top + 1.  A read window is taken only
when it is shorter than the whole one.  Either window's inversion is
checked against the tilted law's mean K_S'(theta), at theta = 0 the mean
identity, and its total mass against 1.

The literal sum of geometric-weighted convolution powers and the
least-squares solve of the identity are the independent oracles of the PMF,
and a golden-section minimization of the same bounds is the oracle of the
edges; all live in the tests.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import AccuracyError, DomainError, ResourceLimitError
from .income_pdf import ExpandedDensity
from .model import FinancialParams

__all__ = [
    "LatticePMF",
    "discretize_income",
    "net_profit_step_pmf",
    "CompoundPMF",
    "compound_geometric_pmf",
    "WindowEdges",
    "window_edges",
]

POINTS_BUDGET = 1_000_000  # lattice points of one income law and one compound window


@dataclass(frozen=True)
class LatticePMF:
    """Probability masses on the lattice step * {min_index, min_index + 1, ...}."""

    step: float
    min_index: int
    mass: np.ndarray

    def __post_init__(self):
        if not self.step > 0:
            raise DomainError(f"lattice step must be positive, got {self.step}")
        mass = np.array(self.mass, dtype=float)  # a copy: never the caller's array
        lowest = mass.min() if mass.size else 0.0
        # written so that NaN fails each comparison
        if not lowest >= 0.0:
            if not lowest >= -1e-12:
                raise DomainError("lattice masses must be finite and nonnegative")
            np.maximum(mass, 0.0, out=mass)
        object.__setattr__(self, "mass", mass)
        total = mass.sum()
        if not abs(total - 1.0) <= 1e-9:
            raise AccuracyError("lattice PMF mass defect beyond 1e-9",
                                {"total": total})

    def indices(self) -> np.ndarray:
        return np.arange(self.min_index, self.min_index + len(self.mass))

    def values(self) -> np.ndarray:
        # index * step bit for bit, at a fifth of the cost on a compound
        # window of converting the int64 ``indices()``
        values = np.arange(self.min_index, self.min_index + len(self.mass), dtype=float)
        values *= self.step
        return values

    def mean(self) -> float:
        # a sum of products, not a BLAS dot: over a compound window that
        # wakes a BLAS thread that then spins beside the rest of the solve
        return float((self.values() * self.mass).sum())

    def trimmed(self, eps: float) -> "LatticePMF":
        """Drop negligible tails (at most eps total mass per side), renormalized."""
        mass = self.mass
        lo = _tail_count(mass, eps)
        hi = len(mass) - _tail_count(mass[::-1], eps)
        lo = min(lo, hi - 1)
        kept = mass[lo:hi]
        return LatticePMF(step=self.step, min_index=self.min_index + lo,
                          mass=kept / kept.sum())


TAIL_BLOCK = 4096  # masses in the first block of a tail's running sum


def _tail_count(mass: np.ndarray, eps: float) -> int:
    """How many leading masses have a running sum of at most eps: the count
    searchsorted(cumsum(mass), eps, side="right") gives, from the same
    running sums, taken in doubling blocks only as far as the first one
    past eps.  Each block's sums start from the sum carried in front of it,
    so every partial sum takes the float steps of the whole cumsum."""
    done, carried = 0, 0.0  # 0.0 + m is m exactly
    size = TAIL_BLOCK
    while done < len(mass):
        block = mass[done:done + size]
        sums = np.cumsum(np.concatenate(([carried], block)))[1:]
        count = int(np.searchsorted(sums, eps, side="right"))
        if count < len(sums):
            return done + count
        done, carried, size = done + len(block), sums[-1], 2 * size
    return len(mass)


def discretize_income(density: ExpandedDensity, delta: float) -> LatticePMF:
    """Mass-preserving midpoint rounding of a continuous density onto delta*Z.

    Lattice point k receives CDF(k delta + delta/2) - CDF(k delta - delta/2),
    which preserves total mass exactly and the mean to within delta/2.  More
    than ``POINTS_BUDGET`` lattice points raise ResourceLimitError.
    """
    if not delta > 0:
        raise DomainError(f"lattice step must be positive, got {delta}")
    k_lo = math.floor(density.v_lo / delta + 0.5)
    k_hi = math.ceil(density.v_hi / delta - 0.5)
    n = k_hi - k_lo + 1
    if n > POINTS_BUDGET:
        raise ResourceLimitError(
            f"discretization needs {n} lattice points, budget is {POINTS_BUDGET}")
    edges = (np.arange(k_lo, k_hi + 2) - 0.5) * delta
    cdf = density.cdf(edges)
    mass = np.diff(cdf)
    # absorb boundary rounding so the PMF sums to 1 exactly
    mass[0] += cdf[0]
    mass[-1] += 1.0 - cdf[-1]
    return LatticePMF(step=delta, min_index=k_lo, mass=mass)


def net_profit_step_pmf(income: LatticePMF, fin: FinancialParams) -> LatticePMF:
    """PMF of Z = income - fee: the income convolved with the operator-mix
    fee law on the income's lattice, each fee rounded to its nearest point.
    A lattice over ``POINTS_BUDGET`` points raises ResourceLimitError before
    it is built."""
    fees, probs = fin.fee_law()
    cells = np.round(-fees / income.step)
    n = len(income.mass) + cells.max() - cells.min()
    if n > POINTS_BUDGET:
        raise ResourceLimitError(f"net-step lattice needs {n:.0f} points, over "
                                 f"compound.POINTS_BUDGET = {POINTS_BUDGET}")
    indices = cells.astype(np.int64)
    lo = int(indices.min())
    fee_mass = np.bincount(indices - lo, weights=probs)
    return LatticePMF(step=income.step, min_index=income.min_index + lo,
                      mass=np.convolve(income.mass, fee_mass))


CHERNOFF_STEPS = 64  # iteration cap of the Chernoff searches
GEOMETRIC_RATIO = 4.0  # hi / lo past which a Chernoff bisection is geometric


def chernoff_min(cgf, log_eps: float, theta_hi: float) -> tuple[float, float]:
    """(theta, K(theta)) with the bound (K(theta) - log_eps) / theta minimal over
    theta in (0, theta_hi].

    cgf(theta) returns (K, K', K'') of a cumulant generating function K, with
    K = +inf past a pole.  The bound is stationary at the root of
    h(theta) = theta K' - K + log_eps, and h' = theta K'' >= 0 because K is
    convex: h rises from log_eps < 0 at theta = 0, so the root is unique.
    Newton steps on h start at sqrt(-2 log_eps / K''(0)), the root of h's
    quadratic part, and fall back to bisection when a step leaves the
    bracket [lo, hi], which only shrinks.  The bisection is geometric once
    lo > 0 and hi / lo exceeds ``GEOMETRIC_RATIO``, so a root far below the
    pole is reached in a few steps.  A step past hi first looks at theta_hi,
    but only while no evaluated theta has h >= 0: when h is still negative
    there the bound decreases up to it, and theta_hi is returned.  Any theta
    gives a valid bound; the search only makes it tight, and it stops once
    the bracket is two adjacent floats.  Raises AccuracyError past
    ``CHERNOFF_STEPS`` evaluations.
    """
    lo, hi = 0.0, theta_hi
    bracketed = False  # some evaluated theta has h >= 0 (the current hi)
    k2_zero = cgf(0.0)[2]
    theta = math.sqrt(-2.0 * log_eps / k2_zero) if k2_zero > 0.0 else math.inf
    if not theta < theta_hi:
        theta = 0.5 * theta_hi
    for _ in range(CHERNOFF_STEPS):
        k, k1, k2 = cgf(theta)
        h = theta * k1 - k + log_eps if math.isfinite(k) else math.inf
        if h == 0.0 or (h < 0.0 and theta == theta_hi):
            return theta, k
        if h < 0.0:
            lo = theta
        else:
            hi, bracketed = theta, True
        nxt = theta - h / (theta * k2) if math.isfinite(h) and k2 > 0.0 else math.nan
        if abs(nxt - theta) <= 1e-13 * theta:
            return theta, k
        if not lo < nxt < hi:  # past the bracket (or no step)
            if not bracketed and nxt >= hi:
                nxt = theta_hi
            else:
                wide = lo > 0.0 and hi > GEOMETRIC_RATIO * lo
                nxt = math.sqrt(lo * hi) if wide else 0.5 * (lo + hi)
                if not lo < nxt < hi:  # nothing left between two adjacent floats
                    return (theta, k) if math.isfinite(k) else (lo, cgf(lo)[0])
        theta = nxt
    raise AccuracyError(
        f"Chernoff search did not converge within its {CHERNOFF_STEPS}-step cap",
        {"bracket": (lo, hi), "theta": theta})


def _step_cgf(idx: np.ndarray, log_p: np.ndarray, w_n: float):
    """cgf(theta) = (K, K', K'') of S = sum_{j<=N} Z_j, K = log M_S, with Z's
    atoms at the lattice indices ``idx`` and log masses ``log_p``.

    M_S(theta) = w / (1 - (1-w) M_Z(theta)), finite while (1-w) M_Z < 1
    (K = +inf past the pole); K' and K'' come from the tilted moments of Z
    in the same exp pass.
    """
    log_w, log_q = math.log(w_n), math.log1p(-w_n)
    idx_f = idx.astype(float)
    idx_sq = idx_f * idx_f

    def cgf(theta):
        # with q M_Z = e^z and the tilted mean m1 and second moment m2 of Z:
        # K = log w - log(1 - e^z), K' = e^z m1 / (1 - e^z) and
        # K'' = e^z m2 / (1 - e^z) + (K')^2
        e = theta * idx_f
        e += log_p
        top = e.max()
        e -= top
        np.exp(e, out=e)
        s0 = e.sum()
        z = log_q + top + math.log(s0)
        if not z < 0.0:
            return math.inf, math.inf, math.inf
        q_mz = math.exp(z)
        tail = -math.expm1(z)
        k1 = q_mz * float(e @ idx_f) / s0 / tail
        k2 = q_mz * float(e @ idx_sq) / s0 / tail + k1 * k1
        return log_w - math.log(tail), k1, k2

    return cgf


@dataclass(frozen=True)
class _Tail:
    """The Chernoff bound Pr(X > e) = Pr(X >= e + 1) <= exp(log_m - theta (e + 1))
    at one theta > 0, log_m = log M_X(theta); theta = 0 stands for X <= 0."""

    theta: float
    log_m: float

    def __call__(self, edge) -> float:
        return math.exp(self.log_m - self.theta * (edge + 1)) if self.theta else 0.0

    def edge(self, log_eps: float) -> int:
        """The smallest e >= 0 whose bound is at most e^log_eps."""
        if not self.theta:
            return 0
        return max(0, math.ceil((self.log_m - log_eps) / self.theta) - 1)


def _chernoff_edge(idx: np.ndarray, log_p: np.ndarray, w_n: float, log_eps: float):
    """Upper window edge for S = sum_{j<=N} Z_j with Pr(S > edge) <= eps.

    Z has atoms at the lattice indices ``idx`` with log masses ``log_p``.
    Returns (edge, tail) where tail(e) is the Chernoff bound on
    Pr(S > e) = Pr(S >= e + 1) <= exp(-theta (e + 1)) M_S(theta) (``_Tail``).
    theta minimizes the edge (K_S(theta) - log eps) / theta, K_S = log M_S;
    ``chernoff_min`` finds it from K_S and its first two derivatives
    (``_step_cgf``).  Without a positive atom S <= 0.
    """
    k_max = int(idx.max())
    if k_max <= 0:
        return 0, _Tail(0.0, -math.inf)
    # M_Z(theta) >= p(k_max) e^(theta k_max), so the MGF diverges before this
    pole_above = (-math.log1p(-w_n) - float(log_p[idx.argmax()])) / k_max
    tail = _Tail(*chernoff_min(_step_cgf(idx, log_p, w_n), log_eps, pole_above))
    return tail.edge(log_eps), tail


@dataclass(frozen=True)
class CompoundPMF(LatticePMF):
    """A compound PMF with the accuracy its FFT window used.

    ``diagnostics``: window_points, tilt (theta of a read window, 0 on the
    full window), aliasing_bound (rigorous bound on the mass the window's
    wrap-around moves), clipped_mass (negative roundoff clipped to zero),
    mean_residual and mean_tolerance of the inversion's mean check.
    """

    diagnostics: dict = field(default_factory=dict, compare=False, repr=False)


UNTILT_EXPONENT = 10.0  # largest |theta| * top of a read window (roundoff gain e^10)


@dataclass(frozen=True)
class WindowEdges:
    """The Chernoff window [lo, hi] of S = sum_{j<=N} Z_j for one step law Z:
    Pr(S > hi) <= upper(hi) and Pr(S < lo) <= lower(-lo), each at most
    tail_eps.  ``idx`` and ``log_p`` are Z's atoms with mass: their lattice
    indices and log masses."""

    idx: np.ndarray
    log_p: np.ndarray
    hi: int
    upper: _Tail
    lo: int
    lower: _Tail


def window_edges(step: LatticePMF, w_n: float, tail_eps: float) -> WindowEdges:
    """The window edges of the compound sum of ``step``, one Chernoff search
    on S and one on the losses -S (``_chernoff_edge``).  A solve finds them
    once: ``compound_geometric_pmf`` inverts on them, and the ruin recursion
    reads the lower edge's theta to size its windows first."""
    if not 0.0 < w_n < 1.0:
        raise DomainError(f"geometric parameter must lie in (0, 1), got {w_n}")
    if not 0.0 < tail_eps < 1.0:  # written so that NaN fails
        raise DomainError(f"tail_eps must lie in (0, 1), got {tail_eps}")
    positive = step.mass > 0.0
    idx = step.indices()[positive]
    log_p = np.log(step.mass[positive])
    log_eps = math.log(tail_eps)
    hi, upper = _chernoff_edge(idx, log_p, w_n, log_eps)
    loss_edge, lower = _chernoff_edge(-idx, log_p, w_n, log_eps)
    return WindowEdges(idx, log_p, hi, upper, -loss_edge, lower)


def compound_geometric_pmf(step: LatticePMF, w_n: float, tail_eps: float = 1e-12,
                           top: int | None = None,
                           edges: WindowEdges | None = None) -> CompoundPMF:
    """PMF of S = sum_{j=1}^N Z_j with N geometric (Pr(N=0) = w_n, 0 < w_n < 1).

    The PGF closed form is inverted with a real FFT on the window
    [lo, hi] that holds all but at most ``tail_eps`` of the mass on each side
    (``window_edges``, which validates w_n and tail_eps; ``edges`` when the
    caller has found them for this law already), so wrap-around moves at
    most 2 ``tail_eps``.  Mass at the origin is at least w_n.

    With ``top`` below hi, a caller that reads no atom above ``top`` gets
    the tilted read window [lo', top] (module docstring) instead whenever it
    is shorter: every atom is exact but for at most ``aliasing_bound`` <= 2
    ``tail_eps``, and the rest of the mass sits on one atom at top + 1.

    Both windows are checked the same way: the inverted masses' mean
    against the tilted law's mean K_S'(theta), which at theta = 0 is the
    mean identity E[S] = (1-w)/w E[Z], and their total against 1 (a read
    window's may fall short by the lumped mass).  A whole window is then
    renormalized.  A window over ``POINTS_BUDGET`` points raises
    ResourceLimitError.
    """
    if top is not None and not (isinstance(top, numbers.Integral) and top >= 0):
        raise DomainError(f"window top must be a nonnegative lattice index, got {top!r}")
    if edges is None:
        edges = window_edges(step, w_n, tail_eps)
    upper, lower = edges.upper, edges.lower
    log_eps = math.log(tail_eps)
    lo = edges.lo
    n = n_full = specfun.next_fast_len(edges.hi - lo + 1)
    # K_S and K_S' at theta <= 0: the losses' CGF at -theta
    losses = _step_cgf(-edges.idx, edges.log_p, w_n)
    theta, at_read = 0.0, None
    if top is not None and top < edges.hi:
        # the read window keeps the lower tail down to tail_eps^2 (the lower
        # edge's theta bounds it too), and is long enough that the untilt
        # multiplies roundoff by at most e^UNTILT_EXPONENT
        n_read = specfun.next_fast_len(max(top + lower.edge(2.0 * log_eps) + 1,
                                           math.ceil(-log_eps * top / UNTILT_EXPONENT)))
        if n_read < n:
            at_read = losses(-log_eps / n_read)
            if math.isfinite(at_read[0]):
                n, theta, lo = n_read, log_eps / n_read, top + 1 - n_read
    if n > POINTS_BUDGET:
        shrink = POINTS_BUDGET / n_full
        achieved = upper(math.floor(edges.hi * shrink)) + lower(math.floor(-edges.lo * shrink))
        raise ResourceLimitError(
            f"compound support needs {n} points (budget {POINTS_BUDGET}); "
            f"achievable tail mass {achieved:.3g} > requested {tail_eps:.3g}")
    hi = lo + n - 1  # fast-length padding widens the upper side (a read window's lower)
    k_s, k1_losses, _ = at_read if theta else losses(0.0)

    # the window is one period: Z's atoms wrap onto it, and the inverse
    # transform of the PGF is the compound PMF folded modulo n (tilted by
    # e^(theta k) with Z's atoms)
    indices = step.indices()
    weights = step.mass * np.exp(theta * indices) if theta else step.mass
    z_folded = np.bincount(indices % n, weights=weights, minlength=n)
    s_hat = np.fft.rfft(z_folded)  # then w / (1 - (1-w) z_hat), in place
    s_hat *= 1.0 - w_n
    np.subtract(1.0, s_hat, out=s_hat)
    np.divide(w_n, s_hat, out=s_hat)
    mass = np.roll(np.fft.irfft(s_hat, n), -lo)

    # the tilted mass the wrap-around moves by n cells, from above hi and
    # from below lo, bounds what it does to the tilted mean
    k = np.arange(lo, hi + 1, dtype=float)
    mean_got = float((k * mass).sum() / mass.sum())  # no BLAS dot, as in ``mean``
    moved = (math.exp(theta * (hi + 1) - k_s) * min(1.0, upper(hi))
             + math.exp(theta * lo + lower.theta - k_s) * lower(-lo))
    tol = max(1e-8 * abs(k1_losses), 4.0 * tail_eps * n, 2.0 * n * moved)
    if not abs(mean_got + k1_losses) <= tol:
        raise AccuracyError("compound mean K_S'(theta) violated",
                            {"expected": -k1_losses, "got": mean_got, "tol": tol})
    if theta:
        k *= -theta
        mass *= np.exp(k, out=k)
    clipped = abs(float(mass[mass < 0.0].sum()))
    np.maximum(mass, 0.0, out=mass)
    total = mass.sum()
    # a read window lumps the mass above it on one atom: only an excess is a defect
    defect = total - 1.0 if theta else abs(total - 1.0)
    if not defect <= max(10 * tail_eps, 1e-9):
        raise AccuracyError("compound PMF mass defect beyond the truncation budget",
                            {"total": total, "tail_eps": tail_eps})
    if theta:
        rest = 1.0 - total
        mass = np.append(mass, max(rest, 0.0)) / max(1.0 - rest, 1.0)
    else:
        mass /= total
    gain = math.exp(-theta * n)  # the weight of one period below lo, e^(-theta n)
    return CompoundPMF(step=step.step, min_index=lo, mass=mass, diagnostics={
        "window_points": n,
        "tilt": theta,
        "aliasing_bound": min(1.0, upper(hi)) / gain + _wrapped_below(lower, lo, n, gain),
        "clipped_mass": clipped,
        "mean_residual": abs(mean_got + k1_losses),
        "mean_tolerance": tol,
    })


def _wrapped_below(lower: _Tail, lo: int, n: int, gain: float) -> float:
    """Mass the wrap-around moves up from below lo, an atom j periods below
    landing with weight gain^j, gain = e^(-theta n) (1 on a whole window).
    With T_j = Pr(S < lo - (j-1) n) <= lower(-lo) rho^(j-1), rho =
    e^(-theta_lo n), the sum of gain^j (T_j - T_(j+1)) is at most
    gain lower(-lo) (1 + (gain - 1) rho / (1 - gain rho)).  (From above hi
    the weights fall as gain^-j: at most Pr(S > hi) / gain moves down.)"""
    if not lower.theta:  # no atom below 0
        return 0.0
    rho = math.exp(-lower.theta * n)
    if not gain * rho < 1.0:
        return math.inf
    return gain * lower(-lo) * (1.0 + (gain - 1.0) * rho / (1.0 - gain * rho))
