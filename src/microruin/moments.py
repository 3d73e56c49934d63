"""Analytic raw moments of the per-connection revenue.

The revenue of one connection is sum_l c_l * T * rho over tau slots, where
c_l clamps the ratio ``A (I_l + sigma^2 / P_I) / H_l`` (rate gap times
interference and noise, over fading; A = gap (P_I / P0) r^alpha, so that
the SINR is P0 H r^-alpha / (sigma^2 + P_I I)) to [c_min, c_max].
Conditional on the serving distance r and the product's rate gap, the
single-slot raw moments are

    m_s = (T rho)^s (c_min^s + s * Int_{1/c_max}^{1/c_min} u^-(s+1) (1 - Phi(u)) du)

with Phi(u) = exp(-A sigma^2 u / P_I) * E_I[exp(-A I u)]: the derivatives at 0 of
the slot income's Laplace transform, in a cancellation-free form.

The interference factor follows from the probability generating functional
of the interferer point process and has the closed form

    E_I[exp(-A I u)] = exp(-pi beta r^2 * c_profile(theta)),
    theta = A u r^-alpha,

where ``c_profile`` combines an elementary term with a Gauss hypergeometric
factor 2F1(1, 2; 2 - 2/alpha; theta/(1+theta)).  Because ``A`` scales as
r^alpha, theta does not depend on r: the hypergeometric profile is computed
once per u node and product and reused at every distance.

The distance enters through s = pi beta r^2, which is Exp(1) under the
nearest-cell law, so in t = sqrt(s) the distance weight is 2 t e^(-t^2) dt
and the cell density drops out (it stays only in the noise term
A sigma^2 / P_I ~ s^(alpha/2) / (pi beta)^(alpha/2)).  The moments are one tensor
rule: composite 16-point Gauss-Legendre panels in t crossed with panels in
log u, 1 - Phi for every (t, u) node pair in one array, the tau-mixture
composed row-wise (the exact i.i.d.-sum composition: a binomial convolution
of the single-slot moment sequence), then contracted with the t weights.
The t panels halve in width towards t = 0 until they are as narrow as the
sharpest feature in t, the e^(-t^2 c) decay at the largest profile value.
Both panel counts double until two successive estimates agree to the
relative tolerance; past a fixed panel budget the rule raises AccuracyError.

The clamps put point masses at both ends of the income support.  They follow
from the same transform (Pr(c <= x | r) = Phi_r(1/x) under Rayleigh fading),
are the same t contraction at u = 1/c_min and u = 1/c_max, and travel with
the moments, so the density expansion can keep them exactly instead of
spreading them over the continuous part.

Notation note: the ratio W = A I / H here is a per-slot conditional variable,
distinct from the unit-support income variable used by the basis expansion in
:mod:`microruin.income_pdf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import AccuracyError, DomainError
from .model import FinancialParams, ScenarioConfig

__all__ = [
    "MomentVector",
    "laplace_exponent_profile",
    "revenue_moments",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# log-u panels of the first level; every level doubles the u and distance panels
_START_U_PANELS = 2
_MAX_LEVEL = 4  # panel budget: every panel of level 0 split into 16
# distance mass beyond the t cutoff, where every slot clamps high
DISTANCE_TAIL_MASS = 1e-12
# relative slack of the support envelope in ``MomentVector.check_envelope``
ENVELOPE_RTOL = 1e-6


@dataclass(frozen=True)
class MomentVector:
    """Raw moments E[V^s], s = 1..order, of per-connection revenue in one interval.

    ``raw`` holds the moments of the whole law; its length is the order.
    ``atom_lo`` / ``atom_hi`` are the point masses Pr(V = v_lo) / Pr(V = v_hi)
    at the ends of the income support (the clamps), and ``lower_exponent`` is
    the power law F(v) ~ v^lower_exponent of the continuous part at the bottom
    of the support (2/alpha for the revenue model; 1 means no law is known).
    Vectors that do not know their atoms (sample moments) leave them at 0.
    """

    raw: np.ndarray
    atom_lo: float = 0.0
    atom_hi: float = 0.0
    lower_exponent: float = 1.0

    def __post_init__(self):
        raw = np.asarray(self.raw, dtype=float)
        if not (self.atom_lo >= 0.0 and self.atom_hi >= 0.0
                and self.atom_lo + self.atom_hi <= 1.0 + 1e-12):
            raise DomainError(
                f"endpoint atoms must be probabilities, got {self.atom_lo}, {self.atom_hi}")
        if not self.lower_exponent > 0:
            raise DomainError(f"lower exponent must be positive, got {self.lower_exponent}")
        object.__setattr__(self, "raw", raw)
        if len(raw) >= 2 and raw[1] < raw[0] ** 2 * (1.0 - 1e-9):
            raise AccuracyError(
                "moment vector violates E[V^2] >= E[V]^2",
                {"EV": raw[0], "EV2": raw[1]},
            )

    @property
    def order(self) -> int:
        return len(self.raw)

    def check_envelope(self, v_lo: float, v_hi: float):
        s = np.arange(1, self.order + 1)
        lo = np.minimum(v_lo ** s, v_hi ** s) * (1.0 - ENVELOPE_RTOL) - 1e-300
        hi = np.maximum(v_lo ** s, v_hi ** s) * (1.0 + ENVELOPE_RTOL)
        if (self.raw < lo).any() or (self.raw > hi).any():
            raise AccuracyError(
                "moments escape the support envelope",
                {"raw": self.raw.tolist(), "v_lo": v_lo, "v_hi": v_hi},
            )


# ----------------------------------------------------------------------
# Interference Laplace exponent
# ----------------------------------------------------------------------

def laplace_exponent_profile(theta, alpha: float):
    """Distance-free part of the interference Laplace exponent.

    Returns c(theta) >= 0 with E_I[exp(-A I u)] = exp(-pi beta r^2 c(theta))
    and theta = A u r^-alpha, elementwise over an array theta (a float for a
    scalar).  Raises AccuracyError when the 2F1 series fails.
    """
    theta = np.asarray(theta, dtype=float)
    one_plus = 1.0 + theta
    f21 = specfun.gauss_2f1(1.0, 2.0, 2.0 - 2.0 / alpha, theta / one_plus)
    profile = theta * (f21 / ((1.0 - 2.0 / alpha) * specfun.scalar_pow(one_plus, 2.0))
                       - 1.0 / one_plus)
    return float(profile) if profile.ndim == 0 else profile


# ----------------------------------------------------------------------
# The tensor rule
# ----------------------------------------------------------------------

def _gauss_legendre(edges: np.ndarray):
    """Nodes and weights of the composite 16-point Gauss-Legendre rule on the panels."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * _GL_NODES).ravel(),
            (half[:, None] * _GL_WEIGHTS).ravel())


def _log_u_nodes(theta_per_u: float, alpha: float, fin: FinancialParams, order: int,
                 panels: int):
    """(u, profile, moment weights) of the log-u rule on [1/c_max, 1/c_min] with
    ``panels`` panels for one product: the 2F1 profile c(theta_per_u * u) at
    the nodes, and the weights of the slot-moment integrals Int u^-(s+1) f(u) du
    = Int e^(-s x) f(e^x) dx, s = 1..order.
    """
    x, w = _gauss_legendre(np.linspace(-math.log(fin.c_max), -math.log(fin.c_min), panels + 1))
    u = np.exp(x)
    profile = laplace_exponent_profile(theta_per_u * u, alpha)
    return u, profile, w[:, None] * np.exp(-np.outer(x, np.arange(1.0, order + 1.0)))


def _slot_moments(pi_beta_r2: np.ndarray, a_sigma2: np.ndarray, nodes,
                  fin: FinancialParams, unit: float) -> np.ndarray:
    """Single-slot raw moments, one row per distance node, on the log-u
    ``nodes`` of ``_log_u_nodes``.

    Row i conditions on pi beta r^2 = pi_beta_r2[i] and A sigma^2 = a_sigma2[i];
    1 - Phi is evaluated for every (row, u node) pair in one array.
    """
    u, profile, weights = nodes
    one_minus_phi = -np.expm1(-(np.multiply.outer(pi_beta_r2, profile)
                                + np.multiply.outer(a_sigma2, u)))
    s = np.arange(1.0, weights.shape[1] + 1.0)
    return unit ** s * (fin.c_min ** s + s * (one_minus_phi @ weights))


def _subdivide(edges: np.ndarray, parts: int) -> np.ndarray:
    """Edges with every panel split into ``parts`` equal panels."""
    frac = np.arange(parts) / parts
    inner = (edges[:-1, None] + frac * (edges[1:] - edges[:-1])[:, None]).ravel()
    return np.append(inner, edges[-1])


def _until_converged(estimate, rel_tol: float, budget: str) -> np.ndarray:
    """estimate(level) for level = 0, 1, ... until two successive levels agree.

    Agreement is |new - old| <= rel_tol * |new| in every component; past
    level ``_MAX_LEVEL`` the panel budget named by ``budget`` is exhausted.
    """
    prev = estimate(0)
    for level in range(1, _MAX_LEVEL + 1):
        vals = estimate(level)
        if (np.abs(vals - prev) <= rel_tol * np.abs(vals)).all():
            return vals
        prev = vals
    raise AccuracyError(f"moment tensor rule did not meet tolerance {rel_tol:g} within "
                        f"its panel budget ({budget})", {"last": prev.tolist()})


# ----------------------------------------------------------------------
# Duration composition and the distance expectation
# ----------------------------------------------------------------------

def _binom_table(d: int) -> np.ndarray:
    table = np.zeros((d + 1, d + 1))
    for n in range(d + 1):
        for k in range(n + 1):
            table[n, k] = math.comb(n, k)
    return table


def _duration_mixture_moments(single_slot: np.ndarray, taus, probs) -> np.ndarray:
    """Moments of the tau-mixture, row-wise over the leading axes.

    Incremental binomial convolution across the duration support: with M_t
    the moments of a t-fold sum, M_t[s] = sum_j C(s, j) M_{t-1}[j] m[s - j].
    """
    single_slot = np.asarray(single_slot, dtype=float)
    d = single_slot.shape[-1]
    full = np.concatenate((np.ones(single_slot.shape[:-1] + (1,)), single_slot), axis=-1)
    binom = _binom_table(d)
    out = np.zeros_like(single_slot)
    acc = full
    t = 1
    for tau, p in sorted(zip(taus, probs)):
        while t < tau:
            acc = np.stack([(binom[s, : s + 1] * acc[..., : s + 1] * full[..., s::-1]).sum(-1)
                            for s in range(d + 1)], axis=-1)
            t += 1
        out += p * acc[..., 1:]
    return out


def revenue_moments(config: ScenarioConfig, interval_index: int = 1) -> MomentVector:
    """Raw revenue moments E[V^s], s = 1..d, for connections ending in one interval.

    One tensor rule over t = sqrt(pi beta r^2) (weight 2 t e^(-t^2) on
    [0, sqrt(-log DISTANCE_TAIL_MASS)]) and log u, with explicit sums over the
    product mix and the duration PMF.  The integrand's large-distance limit
    (always-clamped scaling) is added analytically beyond the distance cutoff.
    The vector also carries the clamp atoms at both ends of the support, the
    same t contraction at u = 1/c_min and u = 1/c_max: V reaches v_hi (v_lo)
    only when all tau_max (tau_min) slots of a connection clamp high (low),
    which one slot does with probability 1 - Phi_r(1/c_max) (Phi_r(1/c_min)),
    and beyond the distance cutoff every slot clamps high.  Finally it
    carries the 2/alpha power law of the income CDF near its lower end.
    """
    net, fin, num = config.network, config.financial, config.numerics
    d = num.moment_order
    unit = config.slot_income_per_unit_scaling
    taus, tau_probs = config.interval_durations(interval_index)
    s_vec = np.arange(1.0, d + 1.0)
    kappa_pow = net.p_i_interferer_power / net.p0_serving_power
    alpha = net.alpha_pathloss
    tau_lo, tau_hi = int(taus.min()), int(taus.max())
    products = []
    for gap, mix in zip(*config.products.gap_law()):
        theta_per_u = gap * kappa_pow
        # A sigma^2 = gap sigma^2 r^alpha / P0 (SINR = P0 h r^-alpha / (sigma^2
        # + P_I I)), with r^2 = t^2 / (pi beta)
        noise = gap * net.sigma2_noise_power / net.p0_serving_power
        products.append((mix, theta_per_u, noise,
                         laplace_exponent_profile(theta_per_u * (1.0 / fin.c_min), alpha),
                         laplace_exponent_profile(theta_per_u * (1.0 / fin.c_max), alpha)))
    # t panels halve in width from t_cut down to the narrowest feature, the
    # e^(-t^2 (1 + c)) decay at the largest profile c, which is at u = 1/c_min
    largest_profile = max(profile_lo for _, _, _, profile_lo, _ in products)
    t_cut = math.sqrt(-math.log(DISTANCE_TAIL_MASS))
    t_min = 1.0 / math.sqrt(1.0 + largest_profile)
    halvings = max(0, math.ceil(math.log2(t_cut / t_min)))
    t_edges = np.concatenate(([0.0], t_cut * 0.5 ** np.arange(halvings, -1, -1)))
    t_panels, u_panels = len(t_edges) - 1, _START_U_PANELS

    def estimate(level: int) -> np.ndarray:
        t, w = _gauss_legendre(_subdivide(t_edges, 1 << level))
        pi_beta_r2 = t * t
        weight = 2.0 * t * np.exp(-pi_beta_r2) * w
        total = np.zeros(d + 2)
        for mix, theta_per_u, noise, profile_lo, profile_hi in products:
            a_sigma2 = noise * (pi_beta_r2 / (math.pi * net.beta_cells_per_area)) ** (alpha / 2)
            nodes = _log_u_nodes(theta_per_u, alpha, fin, d, u_panels << level)
            slot = _slot_moments(pi_beta_r2, a_sigma2, nodes, fin, unit)
            total[:d] += mix * (weight @ _duration_mixture_moments(slot, taus, tau_probs))
            low = np.exp(-(pi_beta_r2 * profile_lo + a_sigma2 / fin.c_min)) ** tau_lo
            high = (-np.expm1(-(pi_beta_r2 * profile_hi + a_sigma2 / fin.c_max))) ** tau_hi
            total[d] += mix * (weight @ low)
            total[d + 1] += mix * (weight @ high)
        return total

    est = _until_converged(estimate, num.quad_rel_tol,
                           f"{t_panels << _MAX_LEVEL} distance x {u_panels << _MAX_LEVEL} "
                           "u panels")
    tail = DISTANCE_TAIL_MASS
    raw = est[:d] + tail * (tau_probs @ (taus[:, None] * (fin.c_max * unit)) ** s_vec)
    atom_lo = float(tau_probs[taus == tau_lo].sum()) * est[d]
    atom_hi = float(tau_probs[taus == tau_hi].sum()) * (est[d + 1] + tail)
    vec = MomentVector(raw=raw, atom_lo=atom_lo, atom_hi=atom_hi,
                       lower_exponent=2.0 / net.alpha_pathloss)
    v_lo, v_hi = config.income_support(interval_index)
    vec.check_envelope(v_lo, v_hi)
    return vec
