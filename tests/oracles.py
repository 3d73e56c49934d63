"""Independent reference implementations that the production code is checked against.

Nothing under ``src/`` imports this module.  It holds the nearest-cell
distance density, the lower incomplete gamma function, the interference
Laplace transform with its direct 2-D quadrature, and the fixed-distance
slot pair: the single-slot moments at one serving distance (the one-row
case of the production tensor rule) and the scaling factors sampled there,
both built from private helpers of :mod:`microruin.moments` and
:mod:`microruin.montecarlo`, and the interferer field sums in their direct
form, marks * (r^2 + span U)^(-alpha/2).  It also holds the
nested-quadrature revenue moments and clamp atoms (``scipy.integrate.quad``
over the serving distance, a doubling rule in the transform variable u) and
the compound-geometric identity solved as a homogeneous least-squares
recurrence, with an as-printed statement that does not reproduce the
compound distribution.  Last, it holds the survival recursion's per-atom
Stieltjes sum: ``ruin_step`` interpolates the previous survival at every
landing u (1+r) + y, and ``atom_recursion`` runs it over the horizons on the
production capital grid.  And it holds the readings of a lattice PMF and
of an income expansion that only the tests take: the top index, the mass at
one index, the strict and inclusive CDFs, and the expansion's exact mean.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy import integrate

from microruin import moments, montecarlo, ruin, specfun
from microruin.compound import LatticePMF
from microruin.income_pdf import ExpandedDensity, _antiderivative, _closed_form
from microruin.errors import AccuracyError, DomainError
from microruin.model import FinancialParams, NetworkParams, Numerics, ScenarioConfig
from microruin.moments import DISTANCE_TAIL_MASS, MomentVector, laplace_exponent_profile

logger = logging.getLogger(__name__)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# stopping rule and term budget of the incomplete gamma series and fraction
SERIES_REL_TOL = 1e-10
SERIES_MAX_TERMS = 20000


# ----------------------------------------------------------------------
# Distance law and the incomplete gamma function
# ----------------------------------------------------------------------

def nearest_distance_pdf(z, beta: float):
    """Density of the serving-cell distance: f(z) = 2 pi beta z exp(-beta pi z^2).

    (The nearest-neighbor distance of a homogeneous planar PPP; its CDF is
    1 - exp(-beta pi z^2).)
    """
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    z = np.asarray(z, dtype=float)
    if (z < 0).any():
        raise DomainError("distance must be nonnegative")
    out = 2.0 * math.pi * beta * z * np.exp(-beta * math.pi * z * z)
    return float(out) if out.ndim == 0 else out


def lower_incomplete_gamma(s: float, x: float) -> float:
    """Unregularized lower incomplete gamma gamma(s, x) = int_0^x t^(s-1) e^-t dt.

    Uses the ascending series for x < s + 1 and the Lentz continued fraction
    for the upper tail otherwise.
    """
    specfun._require_finite("s", s)
    specfun._require_finite("x", x)
    if s <= 0.0:
        raise DomainError(f"lower_incomplete_gamma requires s > 0, got s={s}")
    if x < 0.0:
        raise DomainError(f"lower_incomplete_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return 0.0

    log_prefactor = s * math.log(x) - x
    if x < s + 1.0:
        # gamma(s,x) = x^s e^-x sum_n x^n / (s (s+1) ... (s+n))
        term = 1.0 / s
        total = term
        for n in range(1, SERIES_MAX_TERMS):
            term *= x / (s + n)
            total += term
            if abs(term) <= SERIES_REL_TOL * abs(total):
                return math.exp(log_prefactor) * total
        raise AccuracyError(
            "incomplete-gamma series did not converge",
            {"s": s, "x": x, "partial_sum": math.exp(log_prefactor) * total},
        )

    # Upper incomplete Gamma(s,x) via modified Lentz; gamma = Gamma(s) - Gamma(s,x).
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, SERIES_MAX_TERMS):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= SERIES_REL_TOL:
            upper = math.exp(log_prefactor) * h
            return math.gamma(s) - upper
    raise AccuracyError(
        "incomplete-gamma continued fraction did not converge",
        {"s": s, "x": x, "partial_sum": math.gamma(s) - math.exp(log_prefactor) * h},
    )


# ----------------------------------------------------------------------
# Interference Laplace transform
# ----------------------------------------------------------------------

def _laplace_exponent_gy(u_var: float, a_coef: float, r_u: float, net: NetworkParams,
                         rel_tol: float = 1e-10) -> float:
    """Laplace exponent by direct 2-D quadrature (outer fading mark g, inner y).

    Computes 2 pi beta / alpha * Int_0^inf e^-g Int_0^{r^-alpha}
    (1 - e^{-A g y u}) y^{-2/alpha - 1} dy dg, the independent oracle for the
    closed form, and the fallback of ``interference_laplace`` when the
    hypergeometric path reports an accuracy failure.
    """
    alpha = net.alpha_pathloss
    y_hi = r_u ** (-alpha)
    scale = a_coef * u_var
    # y = v^p with p = alpha/(alpha-2): the transformed integrand
    # p (1-e^{-c v^p}) v^(-2p/alpha - 1) tends to the constant p*c at v -> 0,
    # removing the integrable endpoint singularity.
    p = alpha / (alpha - 2.0)
    v_hi = y_hi ** (1.0 / p)
    sing_pow = -2.0 * p / alpha - 1.0

    def inner(g):
        c = scale * g

        def f(v):
            t = c * v ** p
            if t < 1e-12:
                return c  # linearized limit: c * v^(p(1-2/alpha)-1) = c
            return -math.expm1(-t) * v ** sing_pow

        val, err = integrate.quad(f, 0.0, v_hi, epsabs=0.0, epsrel=rel_tol, limit=200)
        return p * val * math.exp(-g)

    val, err = integrate.quad(inner, 0.0, np.inf, epsabs=1e-300, epsrel=rel_tol, limit=200)
    if val != 0.0 and err / abs(val) > 1e-6:
        raise AccuracyError(
            "2-D quadrature of the interference exponent did not converge",
            {"value": val, "abs_err": err},
        )
    return 2.0 * math.pi * net.beta_cells_per_area / alpha * val


def interference_laplace(u_var: float, a_coef: float, r_u: float, net: NetworkParams,
                         force_quadrature: bool = False) -> float:
    """E_I[exp(-A I u)] for the interferer field seen from serving distance r_u."""
    if u_var < 0:
        raise DomainError(f"transform variable must be >= 0, got {u_var}")
    if a_coef < 0:
        raise DomainError(f"conditioning coefficient must be >= 0, got {a_coef}")
    if not r_u > 0:
        raise DomainError(f"serving distance must be positive, got {r_u}")
    if u_var == 0.0 or a_coef == 0.0:
        return 1.0
    alpha = net.alpha_pathloss
    theta = a_coef * u_var * r_u ** (-alpha)
    if not force_quadrature:
        try:
            profile = laplace_exponent_profile(theta, alpha)
            exponent = math.pi * net.beta_cells_per_area * r_u * r_u * profile
        except AccuracyError:
            exponent = _laplace_exponent_gy(u_var, a_coef, r_u, net)
    else:
        exponent = _laplace_exponent_gy(u_var, a_coef, r_u, net)
    return math.exp(-exponent)


interference_laplace_quadrature = _laplace_exponent_gy


# ----------------------------------------------------------------------
# The fixed-distance slot pair
# ----------------------------------------------------------------------

def single_slot_moments(s_max: int, a_coef: float, r_u: float, fin: FinancialParams,
                        net: NetworkParams) -> np.ndarray:
    """Raw moments E[(c T rho)^s], s = 1..s_max, of the income of one slot.

    The one-row case of the production tensor rule: the distance r_u is fixed.
    """
    unit = net.slot_duration_s * fin.premium_rate_per_slot
    theta_per_u = a_coef * r_u ** (-net.alpha_pathloss)
    pi_beta_r2 = np.array([math.pi * net.beta_cells_per_area * r_u * r_u])
    a_sigma2 = np.array([a_coef * net.sigma2_noise_power])
    u_panels = moments._START_U_PANELS

    def estimate(level):
        nodes = moments._log_u_nodes(theta_per_u, net.alpha_pathloss, fin, s_max,
                                     u_panels << level)
        return moments._slot_moments(pi_beta_r2, a_sigma2, nodes, fin, unit)[0]

    return moments._until_converged(estimate, 1e-8, f"{u_panels << moments._MAX_LEVEL} u panels")


def sample_slot_scaling(config: ScenarioConfig, plan: Numerics, r_u: float, n: int,
                        rate_gap: float) -> np.ndarray:
    """Per-slot scaling factors at a fixed serving distance, on the simulator's
    keyed streams, interferer fields and batch pool."""
    net, fin = config.network, config.financial
    alpha = net.alpha_pathloss
    beta = net.beta_cells_per_area
    radius = montecarlo.RADIUS_FACTOR / math.sqrt(beta)
    span = max(radius * radius - r_u * r_u, 0.0)
    edge, t_u = math.pi * montecarlo.RADIUS_FACTOR ** 2, math.pi * beta * r_u * r_u

    scaling = np.empty(n)

    def run(job):
        batch_idx, size = job
        rng = montecarlo._stream(plan.seed, "slot", batch_idx)
        h = rng.exponential(1.0, size=size)
        m = rng.poisson(beta * math.pi * span, size=size)
        interference = montecarlo._far_field(net, edge, np.full(size, t_u), rng,
                                             np.empty(size))
        i_in = montecarlo._uniform_field_sums(
            rng, montecarlo._stream(plan.seed, "slot", batch_idx, "marks"), m,
            np.full(size, r_u * r_u), np.full(size, span), -alpha / 2.0,
            montecarlo._Workspace())
        interference += net.p_i_interferer_power * i_in
        with np.errstate(divide="ignore"):
            gamma = h * r_u ** (-alpha) * net.p0_serving_power / (
                net.sigma2_noise_power + interference)
            lo = batch_idx * plan.mc_batch
            np.clip(rate_gap / gamma, fin.c_min, fin.c_max, out=scaling[lo:lo + size])

    montecarlo._pool_map(run, list(enumerate(montecarlo._batch_sizes(n, plan.mc_batch))))
    return scaling


def uniform_field_sums(rng, marks_rng, m_slot, r2, span, exponent) -> np.ndarray:
    """Per-slot sums of marks * (r2 + span U)**exponent, all points at once:
    the direct form of ``montecarlo._uniform_field_sums`` on the same draws
    (positions from rng, marks from marks_rng, both in point order)."""
    total = int(np.sum(m_slot))
    x_sq = np.repeat(r2, m_slot) + np.repeat(span, m_slot) * rng.random(total)
    terms = marks_rng.standard_exponential(total) * x_sq ** exponent
    sums = np.zeros(len(m_slot))
    full = np.flatnonzero(m_slot)
    starts = np.concatenate(([0], np.cumsum(m_slot)[:-1]))
    if len(full):
        sums[full] = np.add.reduceat(terms, starts[full])
    return sums


# ----------------------------------------------------------------------
# Nested-quadrature revenue moments and clamp atoms
# ----------------------------------------------------------------------

def _duration_mixture_moments(single_slot: np.ndarray, taus, probs) -> np.ndarray:
    """Moments of the tau-mixture: incremental convolution across the support."""
    single_slot = np.asarray(single_slot, dtype=float)
    d = len(single_slot)
    full = np.concatenate(([1.0], single_slot))
    binom = np.array([[math.comb(n, k) for k in range(d + 1)] for n in range(d + 1)],
                     dtype=float)
    out = np.zeros(d)
    acc = full.copy()
    t = 1
    for tau, p in sorted(zip(taus, probs)):
        while t < tau:
            nxt = np.empty_like(acc)
            for s in range(d + 1):
                nxt[s] = np.dot(binom[s, : s + 1] * acc[: s + 1], full[s::-1])
            acc = nxt
            t += 1
        out += p * acc[1:]
    return out


class _SlotMomentIntegrand:
    """Vector quadrature of the slot-moment integrals with a shared profile cache.

    For each order s the integral Int_{1/c_max}^{1/c_min} u^-(s+1)
    (1 - Phi(u)) du is evaluated on a doubling composite Gauss-Legendre grid
    in x = log u.  The hypergeometric profile c(theta(u)) depends on u only
    through theta = (A r^-alpha) u, which is distance-free, so its node values
    are cached and shared across distances and moment orders.
    """

    def __init__(self, alpha, theta_per_u, c_min, c_max, rel_tol, max_panels=4096):
        self.alpha = alpha
        self.theta_per_u = theta_per_u
        self.x_lo = math.log(1.0 / c_max)
        self.x_hi = math.log(1.0 / c_min)
        self.rel_tol = rel_tol
        self.max_panels = max_panels
        self._profile_cache: dict[float, float] = {}
        self._node_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.start_panels = 4

    def _nodes(self, panels: int):
        cached = self._node_cache.get(panels)
        if cached is not None:
            return cached
        edges = np.linspace(self.x_lo, self.x_hi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        profile = np.empty_like(x)
        for i, xi in enumerate(x):
            u = math.exp(xi)
            theta = self.theta_per_u * u
            cached_val = self._profile_cache.get(theta)
            if cached_val is None:
                cached_val = laplace_exponent_profile(theta, self.alpha)
                self._profile_cache[theta] = cached_val
            profile[i] = cached_val
        self._node_cache[panels] = (x, w, profile)
        return x, w, profile

    def integrals(self, pi_beta_r2: float, a_sigma2: float, s_max: int) -> np.ndarray:
        """Vector of Int u^-(s+1) (1 - Phi(u)) du for s = 1..s_max."""
        orders = np.arange(1, s_max + 1)
        prev = None
        panels = self.start_panels
        while panels <= self.max_panels:
            x, w, profile = self._nodes(panels)
            u = np.exp(x)
            one_minus_phi = -np.expm1(-(pi_beta_r2 * profile + a_sigma2 * u))
            vals = (w * one_minus_phi) @ np.exp(-np.outer(x, orders))
            if prev is not None:
                err = np.abs(vals - prev)
                scale = np.maximum(np.abs(vals), 1e-300)
                if (err <= self.rel_tol * scale).all():
                    self.start_panels = max(4, panels // 2)
                    return vals
            prev = vals
            panels *= 2
        raise AccuracyError(
            "slot-moment integral did not meet tolerance",
            {"panels": panels // 2, "last": prev.tolist() if prev is not None else None},
        )


def _clamp_atoms(config: ScenarioConfig, taus, tau_probs, z_cut: float) -> tuple[float, float]:
    """Point masses (Pr(V = v_lo), Pr(V = v_hi)) at the ends of the income support.

    The slot factor is c = gap / SINR with SINR = P0 h r^-alpha / (sigma^2 +
    P_I I), so under Rayleigh fading (h ~ Exp(1))

        Pr(c <= x | r) = Pr(h >= gap r^alpha (sigma^2 + P_I I) / (P0 x))
                       = exp(-gap r^alpha sigma^2 / (P0 x))
                         * E_I[exp(-(gap P_I / P0) r^alpha I / x)] = Phi_r(1/x),

    the noise entering as gap r^alpha sigma^2 / P0 per unit of 1/x and the
    interference through the profile at theta = (gap P_I / P0) / x.  A slot
    clamps high with probability 1 - Phi_r(1/c_max) and low with
    Phi_r(1/c_min); the profile at both arguments is distance-free.  V
    reaches v_hi (v_lo) only when all tau_max (tau_min) slots of a connection
    clamp high (low), so the per-slot probabilities are raised to that power
    before the distance and product averages.  Beyond the distance cutoff
    every slot clamps high.

    The low atom's integrand is a spike of width w = 1/sqrt(pi beta (1 + tau_min c))
    near z = 0, c the profile at 1/c_min; with a wide clamp range it is far
    narrower than the cutoff, so its quadrature is split at w, 4w and 16w.
    """
    net, fin, num = config.network, config.financial, config.numerics
    alpha, beta_c = net.alpha_pathloss, net.beta_cells_per_area
    kappa_pow = net.p_i_interferer_power / net.p0_serving_power
    tau_lo, tau_hi = int(taus.min()), int(taus.max())
    products = [(gap, mix,
                 laplace_exponent_profile(gap * kappa_pow / fin.c_min, alpha),
                 laplace_exponent_profile(gap * kappa_pow / fin.c_max, alpha))
                for gap, mix in zip(config.products.rate_gaps, config.products.product_mix)]

    def atom(z: float, high: bool) -> float:
        pi_beta_z2 = math.pi * beta_c * z * z
        total = 0.0
        for gap, mix, prof_lo, prof_hi in products:
            noise = gap * z ** alpha * net.sigma2_noise_power / net.p0_serving_power
            if high:
                p = (-math.expm1(-(pi_beta_z2 * prof_hi + noise / fin.c_max))) ** tau_hi
            else:
                p = math.exp(-(pi_beta_z2 * prof_lo + noise / fin.c_min)) ** tau_lo
            total += mix * p
        return total * nearest_distance_pdf(z, beta_c)

    widths = [1.0 / math.sqrt(math.pi * beta_c * (1.0 + tau_lo * prof_lo))
              for _, _, prof_lo, _ in products]
    spike = sorted({k * w for w in widths for k in (1, 4, 16) if k * w < z_cut})
    out = []
    for high, tau, tail, points in ((False, tau_lo, 0.0, spike or None),
                                    (True, tau_hi, DISTANCE_TAIL_MASS, None)):
        val, err = integrate.quad(atom, 0.0, z_cut, args=(high,), epsabs=0.0,
                                  epsrel=num.quad_rel_tol, limit=300, points=points)
        if val > 0 and err / val > 10 * num.quad_rel_tol:
            raise AccuracyError("distance quadrature of a clamp atom did not meet tolerance",
                                {"high": high, "value": val, "abs_err": err})
        out.append(float(tau_probs[taus == tau].sum()) * (val + tail))
    return out[0], out[1]


def revenue_moments(config: ScenarioConfig, interval_index: int = 1) -> MomentVector:
    """Raw revenue moments E[V^s], s = 1..d, by nested adaptive quadrature.

    Adaptive Gauss-Kronrod over the serving distance (weighted by the
    nearest-cell density), one quadrature per moment order, each node a
    doubling rule in u; explicit sums over the product mix and the duration
    PMF.  The large-distance limit (always-clamped scaling) is added
    analytically beyond the distance cutoff.  The clamp atoms come from
    ``_clamp_atoms``.
    """
    net, fin, num = config.network, config.financial, config.numerics
    d = num.moment_order
    unit = config.slot_income_per_unit_scaling
    beta_c = net.beta_cells_per_area
    kappa_pow = net.p_i_interferer_power / net.p0_serving_power
    taus, tau_probs = config.interval_durations(interval_index)

    z_cut = math.sqrt(-math.log(DISTANCE_TAIL_MASS) / (math.pi * beta_c))
    integrands = {}
    for q, gap in enumerate(config.products.rate_gaps):
        integrands[q] = _SlotMomentIntegrand(net.alpha_pathloss, gap * kappa_pow,
                                             fin.c_min, fin.c_max, num.quad_rel_tol)
    s_vec = np.arange(1.0, d + 1.0)
    cache: dict[float, np.ndarray] = {}

    def mixture_moments(z: float) -> np.ndarray:
        hit = cache.get(z)
        if hit is not None:
            return hit
        pi_beta_z2 = math.pi * beta_c * z * z
        total = np.zeros(d)
        for q, gap in enumerate(config.products.rate_gaps):
            # Phi_r(u) = exp(-u gap r^alpha sigma^2 / P0) E_I[...] (``_clamp_atoms``)
            noise = (z ** net.alpha_pathloss * net.sigma2_noise_power * gap
                     / net.p0_serving_power)
            ints = integrands[q].integrals(pi_beta_z2, noise, d)
            slot = unit ** s_vec * (fin.c_min ** s_vec + s_vec * ints)
            total += config.products.product_mix[q] * _duration_mixture_moments(
                slot, taus, tau_probs)
        cache[z] = total
        return total

    raw = np.empty(d)
    for s in range(1, d + 1):
        def f(z, s=s):
            return mixture_moments(z)[s - 1] * nearest_distance_pdf(z, beta_c)

        val, err = integrate.quad(f, 0.0, z_cut, epsabs=0.0, epsrel=num.quad_rel_tol,
                                  limit=300)
        if val > 0 and err / val > 10 * num.quad_rel_tol:
            raise AccuracyError(
                "distance quadrature did not meet tolerance",
                {"order": s, "value": val, "abs_err": err},
            )
        clamp_limit = float(np.dot(tau_probs, (taus * fin.c_max * unit) ** s))
        raw[s - 1] = val + clamp_limit * DISTANCE_TAIL_MASS
    atom_lo, atom_hi = _clamp_atoms(config, taus, tau_probs, z_cut)
    vec = MomentVector(raw=raw, atom_lo=atom_lo, atom_hi=atom_hi,
                       lower_exponent=2.0 / net.alpha_pathloss)
    v_lo, v_hi = config.income_support(interval_index)
    vec.check_envelope(v_lo, v_hi)
    return vec


# ----------------------------------------------------------------------
# Lattice PMF and income-law readings
# ----------------------------------------------------------------------

def max_index(pmf: LatticePMF) -> int:
    """The highest lattice index that ``pmf`` holds."""
    return pmf.min_index + len(pmf.mass) - 1


def mass_at(pmf: LatticePMF, index: int) -> float:
    """The mass at one lattice index, 0 outside the PMF."""
    j = index - pmf.min_index
    return float(pmf.mass[j]) if 0 <= j < len(pmf.mass) else 0.0


def cdf_below(pmf: LatticePMF, y: float) -> float:
    """Pr(S < y): strict, so an atom exactly at y is excluded."""
    # a relative guard against float fuzz on the lattice
    k = int(np.ceil(y / pmf.step - 1e-9 * pmf.step))  # smallest index with value >= y
    return float(pmf.mass[: max(0, k - pmf.min_index)].sum())


def cdf_at(pmf: LatticePMF, y: float) -> float:
    """Pr(S <= y) with an inclusive lattice boundary."""
    k = int(np.floor(y / pmf.step + 1e-9 * pmf.step))  # largest index with value <= y
    return float(pmf.mass[: max(0, k - pmf.min_index + 1)].sum())


def density_mean(density: ExpandedDensity) -> float:
    """Mean of V: the atoms plus the exact mean of the (kept) density."""
    # t q(t) has the coefficients of q shifted up one power
    a = density.lower_exponent
    r = _antiderivative(np.concatenate(([0.0], density.tpoly)), a)
    seg_means = np.diff(_closed_form(density.seg_edges, r, a))
    unit_mean = float(seg_means[density.seg_keep].sum()) / density.norm
    cont_mean = density.v_lo + unit_mean * (density.v_hi - density.v_lo)
    atom_lo, atom_hi = density.atoms
    return atom_lo * density.v_lo + atom_hi * density.v_hi + density.continuous_mass * cont_mean


# ----------------------------------------------------------------------
# The compound-geometric identity as a least-squares recurrence
# ----------------------------------------------------------------------

def build_recurrence_matrix(step: LatticePMF, w_n: float, n_terms: int,
                            variant: str = "corrected") -> tuple[np.ndarray, int]:
    """Linear system A f = 0 for the compound PMF on the truncated support.

    Returns (A, min_index) where columns of A correspond to lattice indices
    min_index..min_index + n_cols - 1.  ``corrected`` encodes
    f(m) (1 - (1-w) h(0)) = (1-w) sum_{j != 0} h(j) f(m-j) for every m != 0;
    ``as-printed`` encodes the alternative coefficient pattern
    f(m) = w/(1 - w h(0)) * m * sum_{j != 0} h(j) f(m-j).
    """
    if variant not in ("corrected", "as-printed"):
        raise DomainError(f"unknown recurrence variant {variant!r}")
    min_idx = min(step.min_index, 0) * n_terms
    max_idx = max(max_index(step), 0) * n_terms
    n_cols = max_idx - min_idx + 1
    h0 = mass_at(step, 0)
    rows = []
    for m in range(min_idx, max_idx + 1):
        if m == 0:
            continue
        row = np.zeros(n_cols)
        if variant == "corrected":
            row[m - min_idx] = 1.0 - (1.0 - w_n) * h0
            coef = 1.0 - w_n
        else:
            row[m - min_idx] = 1.0 - w_n * h0  # denominator cleared
            coef = w_n * m
        for j in step.indices():
            if j == 0:
                continue
            col = m - j - min_idx
            if 0 <= col < n_cols:
                row[col] -= coef * mass_at(step, j)
        rows.append(row)
    return np.asarray(rows), min_idx


def hurlimann_ls_solve(step: LatticePMF, w_n: float, tail_eps: float = 1e-12,
                       variant: str = "corrected") -> LatticePMF:
    """Compound PMF via the constrained least-squares recurrence solve.

    The compound-geometric identity, taken at every lattice point except the
    origin, is a homogeneous system A f = 0: min ||A f||_2 subject to
    f'f = 1 is the smallest right singular vector.  The unit-norm constraint
    fixes scale only, so the solution is clipped to nonnegative values and
    L1-normalized into a PMF.  ``variant="as-printed"`` solves the alternative
    statement of the recurrence (an extra (n+1) factor and a w/(1 - w h(0))
    prefactor); it does not reproduce the compound distribution, so the
    discrepancy is logged as a warning rather than silently corrected.
    """
    if not (0.0 < w_n <= 1.0):
        raise DomainError(f"geometric parameter must lie in (0, 1], got {w_n}")
    if w_n == 1.0:
        return LatticePMF(step=step.step, min_index=0, mass=np.array([1.0]))
    # the smallest N with residual geometric tail (1-w)^(N+1) < tail_eps
    n_terms = max(0, math.ceil(math.log(tail_eps) / math.log1p(-w_n)) - 1)
    a_matrix, min_idx = build_recurrence_matrix(step, w_n, n_terms, variant)
    _, svals, vt = np.linalg.svd(a_matrix, full_matrices=True)
    f = vt[-1]
    if f.sum() < 0:
        f = -f
    residual = float(np.linalg.norm(a_matrix @ f))
    clipped = np.maximum(f, 0.0)
    total = clipped.sum()
    if total <= 0:
        raise AccuracyError("least-squares recurrence produced no positive mass",
                            {"residual": residual, "variant": variant})
    result = LatticePMF(step=step.step, min_index=min_idx, mass=clipped / total)
    if variant == "corrected" and residual > 1e-6 * max(1.0, float(svals[0])):
        raise AccuracyError(
            "least-squares recurrence residual above tolerance",
            {"residual": residual, "largest_singular_value": float(svals[0])},
        )
    if variant == "as-printed":
        logger.warning(
            "as-printed recurrence variant solved with residual %.3g; this "
            "variant is reported for comparison and is expected to disagree "
            "with the convolution route", residual)
    return result


# ----------------------------------------------------------------------
# Chernoff searches by golden section
# ----------------------------------------------------------------------

def golden_min(f, a: float, b: float, iters: int = 80) -> tuple[float, float]:
    """(x, f(x)) near the minimum of a unimodal f on (a, b).

    f may be +inf on a right end segment (past a pole); ties move the bracket
    left, so the search never settles there while a finite value exists.
    """
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def golden_chernoff_edge(idx: np.ndarray, log_p: np.ndarray, w_n: float,
                         log_eps: float) -> int:
    """Upper edge of a compound geometric sum, as ``compound._chernoff_edge``,
    from 80 golden-section steps on the bound (log M_S(theta) - log eps) / theta."""
    k_max = int(idx.max())
    if k_max <= 0:
        return 0
    log_w, log_q = math.log(w_n), math.log1p(-w_n)

    def log_ms(theta):
        a = theta * idx + log_p
        top = a.max()
        z = log_q + top + math.log(np.exp(a - top).sum())
        return log_w - math.log(-math.expm1(z)) if z < 0.0 else math.inf

    pole_above = (-log_q - float(log_p[idx.argmax()])) / k_max
    _, x = golden_min(lambda t: (log_ms(t) - log_eps) / t, 0.0, pole_above)
    return max(0, math.ceil(x) - 1)


# ----------------------------------------------------------------------
# The per-atom survival recursion
# ----------------------------------------------------------------------

def ruin_step(phi_prev, grid_lo, grid_step, growth, atom_pos, atom_mass, u_grid):
    """One exact survival-recursion step on a uniform capital grid.

    out[j] = sum_k atom_mass[k] * 1{x >= 0} * phi_prev(x),
    x = u_grid[j] * growth + atom_pos[k], with phi_prev linearly interpolated
    on the uniform grid (clamped to 0 left / 1 right).  Capital exactly at 0
    survives; the indicator tolerance absorbs float rounding at the boundary.
    """
    out = np.zeros_like(u_grid)
    n = len(phi_prev)
    base = u_grid * growth
    tol = 1e-9 * grid_step
    inv_step = 1.0 / grid_step
    for y, m in zip(atom_pos, atom_mass):
        x = base + y
        pos = (x - grid_lo) * inv_step
        idx = np.floor(pos).astype(np.int64)
        frac = pos - idx
        idx_c = np.clip(idx, 0, n - 2)
        val = phi_prev[idx_c] * (1.0 - frac) + phi_prev[idx_c + 1] * frac
        val[idx < 0] = 0.0
        val[idx >= n - 1] = 1.0
        out += m * np.where(x >= -tol, val, 0.0)
    return out


def atom_recursion(us, r, pmfs, grid_step=None, loss_top=None):
    """The literal per-atom Stieltjes sum (``ruin_step``) on the capital grid
    ``survival_recursion`` builds for ``pmfs`` and ``loss_top``.  The default
    grid step is lattice_step / ceil((1+r)^L).  Returns psi, one row per
    horizon."""
    horizon = len(pmfs)
    if grid_step is None:
        grid_step = pmfs[0].step / max(1, math.ceil((1.0 + r) ** horizon))
    grid = ruin._RecursionGrid(us, r, pmfs, grid_step, horizon, loss_top)

    def step(phi, pmf):
        out = ruin_step(phi, grid.points[0], grid.step, grid.growth,
                        pmf.values(), pmf.mass, grid.points)
        return np.maximum.accumulate(np.clip(out, 0.0, 1.0))

    psi = np.empty((horizon, len(us)))
    phi = np.ones(len(grid.points))
    for l in range(1, horizon + 1):
        if all(p is pmfs[0] for p in pmfs):
            phi = step(phi, pmfs[0])
        else:
            phi = np.ones(len(grid.points))
            for k in range(l, 0, -1):
                phi = step(phi, pmfs[k - 1])
        psi[l - 1] = 1.0 - np.interp(us, grid.points, phi, left=0.0, right=1.0)
    return psi


# ----------------------------------------------------------------------
# The 2F1 profile one argument at a time
# ----------------------------------------------------------------------

def _scalar_hyp_series(a: float, b: float, c: float, z: float) -> float:
    term = total = 1.0
    for n in range(specfun.MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= specfun.REL_TOL * abs(total) and n >= 2:
            return total
    raise AccuracyError("oracle hypergeometric series did not converge", {"z": z})


def scalar_gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """2F1 on [0, 1) by the three routes of ``specfun.gauss_2f1``, one float
    argument at a time in Python float arithmetic."""
    if z == 0.0:
        return 1.0
    if z <= 0.5:
        return _scalar_hyp_series(a, b, c, z)
    s = c - a - b
    if z <= 0.9:
        return (1.0 - z) ** s * _scalar_hyp_series(c - a, c - b, c, z)
    w = 1.0 - z
    coeff1 = math.gamma(c) * math.gamma(s) / (math.gamma(c - a) * math.gamma(c - b))
    coeff2 = math.gamma(c) * math.gamma(-s) / (math.gamma(a) * math.gamma(b))
    return (coeff1 * _scalar_hyp_series(a, b, a + b - c + 1.0, w)
            + coeff2 * w ** s * _scalar_hyp_series(c - a, c - b, s + 1.0, w))


def scalar_laplace_exponent_profile(theta: float, alpha: float) -> float:
    """``moments.laplace_exponent_profile`` at one float theta."""
    if theta == 0.0:
        return 0.0
    f21 = scalar_gauss_2f1(1.0, 2.0, 2.0 - 2.0 / alpha, theta / (1.0 + theta))
    return theta * (f21 / ((1.0 - 2.0 / alpha) * (1.0 + theta) ** 2) - 1.0 / (1.0 + theta))
