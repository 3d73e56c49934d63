"""Moment-based reconstruction of the income distribution on a bounded support.

The income V of one connection is bounded (durations and scaling factors
are) and its law has two parts: exact point masses at the ends of the
support, where every slot of a connection sits at a clamp, and a continuous
remainder in between.  The atoms come with the moments (see
:class:`microruin.moments.MomentVector`) and are carried exactly; only the
remainder is expanded.  Its moments are the full moments minus the atoms'
contributions, renormalised to unit mass.

The remainder is mapped affinely onto [-1, 1] and its density expanded in
polynomials orthogonal with respect to the Beta-type weight

    K(x) = (1+x)^(a-1) (1-x)^(b-1) / (B(a,b) 2^(a+b-1)),

i.e. f_W(x) ~= K(x) * sum_n a_n P_n(x).  In this weight convention the
parameter pair (a, b) maps to standard Jacobi polynomials with parameters
(b-1, a-1).  The default weight follows the model: between the atoms the
income CDF grows like v^(2/alpha) from the bottom of the support (the
coverage law of the interference field), so a = 2/alpha, and the density is
finite at the top, so b = 1.  A polynomial times the uniform weight (a = b =
1, Legendre) cannot follow the v^(2/alpha) law and oscillates; it stays
available by passing a and b explicitly.  The coefficients

    a_n = b_n * sum_s zeta_{n,s} E[W^s],
    b_n = B(a,b) (2n+a+b-1) Gamma(n+a+b-1) n! / (Gamma(n+a) Gamma(n+b)),

depend only on the raw moments of the unit-support variable W (b_n is exactly
1 / ||P_n||^2 under K, so the expansion is the orthogonal projection and
reproduces the input moments up to order d exactly).

Truncated expansions can oscillate and go negative in the tails.
``sanitize`` clips negative excursions, renormalizes, and records the removed
L1 mass so callers can decide whether a higher order is needed.  The raw
expansion is kept for diagnostics.  CDF values are computed analytically via
incomplete-beta antiderivatives of each monomial-times-weight term, plus the
jumps of the atoms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import specfun
from .errors import AccuracyError, DomainError, SupportError
from .moments import MomentVector

__all__ = [
    "ExpandedDensity",
    "affine_to_unit",
    "expansion_coeffs",
    "expand_density",
    "sanitize",
]

logger = logging.getLogger(__name__)


def affine_to_unit(moments: MomentVector, v_lo: float, v_hi: float) -> np.ndarray:
    """Moments E[W^s], s = 0..d, of W = 2 (V - v_lo) / (v_hi - v_lo) - 1.

    Binomial expansion of (scale*V + shift)^s in the raw moments of V.
    Raises SupportError when the result escapes [-1, 1] (support bounds
    inconsistent with the moments).
    """
    if not v_lo < v_hi:
        raise DomainError(f"need v_lo < v_hi, got [{v_lo}, {v_hi}]")
    d = moments.order
    scale = 2.0 / (v_hi - v_lo)
    shift = -(v_hi + v_lo) / (v_hi - v_lo)
    raw_v = np.concatenate(([1.0], moments.raw))
    out = np.empty(d + 1)
    for s in range(d + 1):
        total = 0.0
        for m in range(s + 1):
            total += math.comb(s, m) * scale ** m * shift ** (s - m) * raw_v[m]
        out[s] = total
    if (np.abs(out) > 1.0 + 1e-9).any():
        raise SupportError(
            f"unit-interval moments escape [-1, 1]: {out.tolist()}; "
            "support bounds are inconsistent with the moment vector"
        )
    return np.clip(out, -1.0, 1.0)


def _weight_norm_inverse(n: int, a: float, b: float) -> float:
    """b_n = 1 / ||P_n||^2 under the weight K for the Beta-weight pair (a, b).

    Gamma(n+a+b-1) (2n+a+b-1) is written as Gamma(n+a+b) (2n+a+b-1) / (n+a+b-1),
    whose factors stay positive for n >= 1 and any a, b > 0; b_0 is exactly 1.
    """
    if n == 0:
        return 1.0
    log_bn = (math.log(specfun.beta(a, b)) + math.log((2 * n + a + b - 1) / (n + a + b - 1))
              + specfun.log_gamma(n + a + b) + specfun.log_gamma(n + 1)
              - specfun.log_gamma(n + a) - specfun.log_gamma(n + b))
    return math.exp(log_bn)


def expansion_coeffs(unit_moments: np.ndarray, order: int, a: float = 1.0,
                     b: float = 1.0) -> np.ndarray:
    """Expansion coefficients a_0..a_order from the unit-support moments.

    ``unit_moments`` holds E[W^s] for s = 0..d with d >= order.  a_0 = 1
    always, which normalizes the total mass exactly.
    """
    unit_moments = np.asarray(unit_moments, dtype=float)
    if order > len(unit_moments) - 1:
        raise DomainError(
            f"order {order} needs moments up to s={order}, got {len(unit_moments) - 1}")
    if a <= 0 or b <= 0:
        raise DomainError(f"weight parameters must be positive, got a={a}, b={b}")
    coeffs = np.empty(order + 1)
    for n in range(order + 1):
        zeta = specfun.jacobi_poly_coeffs(n, b - 1.0, a - 1.0)
        coeffs[n] = _weight_norm_inverse(n, a, b) * float(np.dot(zeta, unit_moments[: n + 1]))
    return coeffs


def _weighted_monomial_integrals(s_max: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """M_s(x) = Int_{-1}^x y^s K(y) dy for s = 0..s_max, vectorized over x.

    Expands y^s = ((1+y) - 1)^s so each term reduces to a regularized
    incomplete beta in t = (1+y)/2 (``specfun.betainc``).
    """
    t = np.clip((np.asarray(x, dtype=float) + 1.0) / 2.0, 0.0, 1.0)
    log_b_ab = math.log(specfun.beta(a, b))
    # the j-th term is the same for every s >= j
    ratios = [math.exp(math.log(specfun.beta(a + j, b)) - log_b_ab) for j in range(s_max + 1)]
    incs = [specfun.betainc(a + j, b, t) for j in range(s_max + 1)]
    out = np.zeros((s_max + 1,) + t.shape)
    for s in range(s_max + 1):
        for j in range(s + 1):
            coef = math.comb(s, j) * (-1.0) ** (s - j) * 2.0 ** j * ratios[j]
            out[s] += coef * incs[j]
    return out


@dataclass(frozen=True)
class ExpandedDensity:
    """Income law on [v_lo, v_hi]: endpoint atoms plus a polynomial-basis density.

    ``atoms`` = (Pr(V = v_lo), Pr(V = v_hi)); the continuous part carries the
    remaining mass 1 - sum(atoms).  ``coeffs`` are the expansion coefficients
    of the continuous part normalised to unit mass, ``poly`` the collapsed
    monomial coefficients of sum a_n P_n.  Sanitized instances clip negative
    lobes of the raw expansion to zero and renormalize; ``sanitized_mass`` is
    the L1 mass removed, in units of the whole distribution (0.0 for raw
    instances, which may have signed "densities").
    """

    support: tuple
    order: int
    coeffs: np.ndarray
    jacobi_params: tuple
    poly: np.ndarray
    sanitized: bool
    sanitized_mass: float
    # sign segments of the (possibly clipped) polynomial on [-1, 1]
    seg_edges: np.ndarray
    seg_keep: np.ndarray
    seg_cdf: np.ndarray
    norm: float
    atoms: tuple = (0.0, 0.0)

    @property
    def v_lo(self) -> float:
        return self.support[0]

    @property
    def v_hi(self) -> float:
        return self.support[1]

    @property
    def continuous_mass(self) -> float:
        return 1.0 - self.atoms[0] - self.atoms[1]

    def _to_unit(self, v):
        return 2.0 * (np.asarray(v, dtype=float) - self.v_lo) / (self.v_hi - self.v_lo) - 1.0

    def _weight(self, x):
        a, b = self.jacobi_params
        base = math.exp(-math.log(specfun.beta(a, b)) - (a + b - 1.0) * math.log(2.0))
        if a == 1.0 and b == 1.0:
            return np.full_like(np.asarray(x, dtype=float), base)
        with np.errstate(divide="ignore"):  # a or b < 1: infinite at that edge
            return (1.0 + x) ** (a - 1.0) * (1.0 - x) ** (b - 1.0) * base

    def pdf(self, v):
        """Density of the continuous part of V (mass 1 - sum(atoms)); 0 outside
        the support.  Raw instances may be negative."""
        v = np.asarray(v, dtype=float)
        x = np.clip(self._to_unit(v), -1.0, 1.0)
        vals = npoly.polyval(x, self.poly) * self._weight(x)
        if self.sanitized:
            seg = np.searchsorted(self.seg_edges, x, side="right") - 1
            seg = np.clip(seg, 0, len(self.seg_keep) - 1)
            vals = np.where(self.seg_keep[seg], vals, 0.0) / self.norm
        inside = (v >= self.v_lo) & (v <= self.v_hi)
        scale = self.continuous_mass * 2.0 / (self.v_hi - self.v_lo)
        out = np.where(inside, vals * scale, 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, v):
        """Distribution function of V: the atoms' jumps plus the exact
        antiderivative of the expansion."""
        v = np.asarray(v, dtype=float)
        x = np.clip(self._to_unit(v), -1.0, 1.0)
        a, b = self.jacobi_params
        mono = _weighted_monomial_integrals(len(self.poly) - 1, a, b, x)
        if not self.sanitized:
            # raw expansions may oscillate outside [0, 1]; report them as-is
            vals = np.tensordot(self.poly, mono, axes=(0, 0))
        else:
            seg = np.clip(np.searchsorted(self.seg_edges, x, side="right") - 1,
                          0, len(self.seg_keep) - 1)
            left = np.tensordot(self.poly,
                                _weighted_monomial_integrals(len(self.poly) - 1, a, b,
                                                             self.seg_edges[seg]),
                                axes=(0, 0))
            inc = np.where(self.seg_keep[seg],
                           np.tensordot(self.poly, mono, axes=(0, 0)) - left, 0.0)
            vals = np.clip((self.seg_cdf[seg] + inc) / self.norm, 0.0, 1.0)
        atom_lo, atom_hi = self.atoms
        vals = atom_lo + self.continuous_mass * vals + np.where(v >= self.v_hi, atom_hi, 0.0)
        vals = np.where(v < self.v_lo, 0.0, np.where(v > self.v_hi, 1.0, vals))
        return float(vals) if vals.ndim == 0 else vals

    def mean(self) -> float:
        """Mean of V (atoms plus the sanitized, if applicable, density) via
        exact integrals."""
        a, b = self.jacobi_params
        s_max = len(self.poly)
        if not self.sanitized:
            mono = _weighted_monomial_integrals(s_max, a, b, np.array([1.0]))[:, 0]
            unit_mean = float(np.dot(self.poly, mono[1: s_max + 1]))
        else:
            unit_mean = 0.0
            mono_hi = _weighted_monomial_integrals(s_max, a, b, self.seg_edges[1:])
            mono_lo = _weighted_monomial_integrals(s_max, a, b, self.seg_edges[:-1])
            xmono = (mono_hi - mono_lo)[1: s_max + 1]
            for k, keep in enumerate(self.seg_keep):
                if keep:
                    unit_mean += float(np.dot(self.poly, xmono[:, k]))
            unit_mean /= self.norm
        cont_mean = self.v_lo + (unit_mean + 1.0) * (self.v_hi - self.v_lo) / 2.0
        atom_lo, atom_hi = self.atoms
        return atom_lo * self.v_lo + atom_hi * self.v_hi + self.continuous_mass * cont_mean


def expand_density(moments: MomentVector, v_lo: float, v_hi: float,
                   order: int | None = None, a: float | None = None,
                   b: float | None = None) -> ExpandedDensity:
    """Raw (unsanitized) expansion of the income law from its moments.

    The endpoint atoms of ``moments`` are carried exactly and only the
    continuous remainder is expanded.  The weight defaults to
    a = ``moments.lower_exponent`` (2/alpha for revenue moments) and b = 1.
    """
    order = moments.order if order is None else order
    a = moments.lower_exponent if a is None else a
    b = 1.0 if b is None else b
    atoms = (moments.atom_lo, moments.atom_hi)
    cont = 1.0 - atoms[0] - atoms[1]
    if not cont > 0.0:
        raise DomainError(f"the endpoint atoms {atoms} leave no continuous part to expand")
    s = np.arange(1.0, moments.order + 1.0)
    remainder = MomentVector(
        interval_index=moments.interval_index, order=moments.order,
        raw=(moments.raw - atoms[0] * v_lo ** s - atoms[1] * v_hi ** s) / cont)
    unit_moments = affine_to_unit(remainder, v_lo, v_hi)
    coeffs = expansion_coeffs(unit_moments, order, a, b)
    poly = np.zeros(order + 1)
    for n in range(order + 1):
        zeta = specfun.jacobi_poly_coeffs(n, b - 1.0, a - 1.0)
        poly[: n + 1] += coeffs[n] * zeta
    edges = np.array([-1.0, 1.0])
    return ExpandedDensity(
        support=(v_lo, v_hi), order=order, coeffs=coeffs, jacobi_params=(a, b),
        poly=poly, sanitized=False, sanitized_mass=0.0,
        seg_edges=edges, seg_keep=np.array([True]), seg_cdf=np.array([0.0]), norm=1.0,
        atoms=atoms,
    )


def sanitize(raw: ExpandedDensity, warn_mass: float = 0.02,
             reject_mass: float = 0.1) -> ExpandedDensity:
    """Clip negative excursions of a raw expansion and renormalize.

    The clipped L1 mass, in units of the whole distribution, is recorded as
    ``sanitized_mass`` and logged as a warning above ``warn_mass``; above
    ``reject_mass`` the density is rejected (the caller should raise the
    moment order).
    """
    if raw.sanitized:
        return raw
    a, b = raw.jacobi_params
    poly = raw.poly
    roots = npoly.polyroots(poly)
    interior = np.sort(np.real(roots[(np.abs(np.imag(roots)) < 1e-10)
                                     & (np.real(roots) > -1.0) & (np.real(roots) < 1.0)]))
    edges = np.concatenate(([-1.0], interior, [1.0]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    keep = npoly.polyval(mids, poly) >= 0.0

    mono_hi = _weighted_monomial_integrals(len(poly) - 1, a, b, edges[1:])
    mono_lo = _weighted_monomial_integrals(len(poly) - 1, a, b, edges[:-1])
    seg_masses = np.tensordot(poly, mono_hi - mono_lo, axes=(0, 0))
    # 0.0 - x rather than -x: an empty clip reports +0.0, not -0.0
    negative_mass = raw.continuous_mass * (0.0 - float(seg_masses[~keep].sum()))
    positive_mass = float(seg_masses[keep].sum())
    if negative_mass > reject_mass:
        raise AccuracyError(
            "expansion rejected: clipped mass exceeds budget; raise the moment order",
            {"sanitized_mass": negative_mass, "order": raw.order},
        )
    if negative_mass > warn_mass:
        logger.warning("income density sanitization removed %.4f L1 mass (order %d)",
                       negative_mass, raw.order)
    kept_cum = np.concatenate(([0.0], np.cumsum(np.where(keep, seg_masses, 0.0))))[:-1]
    return ExpandedDensity(
        support=raw.support, order=raw.order, coeffs=raw.coeffs,
        jacobi_params=raw.jacobi_params, poly=poly, sanitized=True,
        sanitized_mass=negative_mass,
        seg_edges=edges, seg_keep=keep, seg_cdf=kept_cum, norm=positive_mass,
        atoms=raw.atoms,
    )
