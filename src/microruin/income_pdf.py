"""Moment-based reconstruction of the income distribution on a bounded support.

The income V of one connection is bounded (durations and scaling factors
are) and its law has two parts: exact point masses at the ends of the
support, where every slot of a connection sits at a clamp, and a continuous
remainder in between.  The atoms come with the moments (see
:class:`microruin.moments.MomentVector`) and are carried exactly; only the
remainder is expanded.  Its moments are the full moments minus the atoms'
contributions, renormalised to unit mass.

The remainder is mapped affinely onto [-1, 1] and its density expanded in
polynomials orthogonal with respect to the weight

    K(x) = a (1+x)^(a-1) / 2^a,    a = ``MomentVector.lower_exponent``,

i.e. f_W(x) ~= K(x) * sum_n a_n P_n(x) with the Jacobi polynomials
P_n^(0, a-1).  The weight follows the model: between the atoms the income
CDF grows like v^(2/alpha) from the bottom of the support (the coverage law
of the interference field, Andrews, Baccelli and Ganti 2011), so a =
2/alpha, and the density is finite at the top.  The coefficients

    a_n = b_n * sum_s zeta_{n,s} E[W^s],    b_n = (2n + a) / a,

depend only on the raw moments of the unit-support variable W (b_n is exactly
1 / ||P_n||^2 under K, so the expansion is the orthogonal projection and
reproduces the input moments up to order d exactly).

In t = (1+x)/2 the weight is a t^(a-1) on [0, 1], so with q(t) the
expansion polynomial in powers of t the continuous CDF is the closed form

    F(t) = t^a R(t),    R_k = q_k a / (a + k).

Truncated expansions can oscillate and go negative in the tails.
``sanitize`` clips negative excursions, renormalizes, and records the removed
L1 mass so callers can decide whether a higher order is needed.  A raw
expansion is the one-segment case of the same representation (whole support
kept, norm 1); its CDF alone is reported unclipped, for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import specfun
from .errors import AccuracyError, DomainError, SupportError
from .moments import MomentVector

__all__ = [
    "ExpandedDensity",
    "affine_to_unit",
    "expand_density",
    "sanitize",
]


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


def _antiderivative(q: np.ndarray, a: float) -> np.ndarray:
    """R with Int_0^t a s^(a-1) q(s) ds = t^a R(t), for q in powers of t."""
    return q * a / (a + np.arange(len(q)))


def _closed_form(t, r: np.ndarray, a: float):
    """t^a R(t), the integral that ``_antiderivative`` gives R of."""
    return t ** a * npoly.polyval(t, r)


@dataclass(frozen=True)
class ExpandedDensity:
    """Income law on [v_lo, v_hi]: endpoint atoms plus a polynomial-basis density.

    ``atoms`` = (Pr(V = v_lo), Pr(V = v_hi)); the continuous part carries the
    remaining mass 1 - sum(atoms).  ``coeffs`` are the expansion coefficients
    of the continuous part normalised to unit mass, ``poly`` the collapsed
    monomial coefficients of sum a_n P_n in x.  The density lives on sign
    segments of t = (1+x)/2: ``seg_edges`` bound them, ``seg_keep`` marks
    those kept, ``seg_cdf`` is the kept mass below each and ``norm`` the kept
    total.  Sanitized instances drop the negative lobes of the raw expansion
    and renormalize; ``sanitized_mass`` is the L1 mass removed, in units of
    the whole distribution.  A raw instance is one kept segment with norm 1
    and may have a signed "density".
    """

    support: tuple
    coeffs: np.ndarray
    poly: np.ndarray
    lower_exponent: float
    sanitized: bool = False
    sanitized_mass: float = 0.0
    seg_edges: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0]))
    seg_keep: np.ndarray = field(default_factory=lambda: np.array([True]))
    seg_cdf: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    norm: float = 1.0
    atoms: tuple = (0.0, 0.0)
    # poly in powers of t, and the R of its closed-form CDF t^a R(t)
    tpoly: np.ndarray = field(init=False, repr=False)
    cdf_poly: np.ndarray = field(init=False, repr=False)
    # (tpoly, cdf_poly) of an instance with the same poly and exponent, handed
    # over by ``sanitize`` so the expansion runs once per density
    expansion: InitVar[tuple | None] = None

    def __post_init__(self, expansion):
        if expansion is None:
            tpoly = np.zeros(1)
            for coef in self.poly[::-1]:  # Horner in x = 2t - 1
                tpoly = npoly.polyadd(npoly.polymul(tpoly, [-1.0, 2.0]), [coef])
            expansion = (tpoly, _antiderivative(tpoly, self.lower_exponent))
        object.__setattr__(self, "tpoly", expansion[0])
        object.__setattr__(self, "cdf_poly", expansion[1])

    @property
    def v_lo(self) -> float:
        return self.support[0]

    @property
    def v_hi(self) -> float:
        return self.support[1]

    @property
    def continuous_mass(self) -> float:
        return 1.0 - self.atoms[0] - self.atoms[1]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _to_unit(self, v):
        t = (np.asarray(v, dtype=float) - self.v_lo) / (self.v_hi - self.v_lo)
        return np.clip(t, 0.0, 1.0)

    def _segment(self, t):
        return np.clip(np.searchsorted(self.seg_edges, t, side="right") - 1,
                       0, len(self.seg_keep) - 1)

    def pdf(self, v):
        """Density of the continuous part of V (mass 1 - sum(atoms)); 0 outside
        the support.  Raw instances may be negative."""
        v = np.asarray(v, dtype=float)
        t = self._to_unit(v)
        a = self.lower_exponent
        with np.errstate(divide="ignore"):  # a < 1: infinite at the lower edge
            vals = a * t ** (a - 1.0) * npoly.polyval(t, self.tpoly)
        vals = np.where(self.seg_keep[self._segment(t)], vals, 0.0) / self.norm
        inside = (v >= self.v_lo) & (v <= self.v_hi)
        out = np.where(inside, vals * self.continuous_mass / (self.v_hi - self.v_lo), 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, v):
        """Distribution function of V: the atoms' jumps plus the closed-form
        CDF of the expansion."""
        v = np.asarray(v, dtype=float)
        t = self._to_unit(v)
        seg = self._segment(t)
        a, edge = self.lower_exponent, self.seg_edges[seg]
        inc = _closed_form(t, self.cdf_poly, a) - _closed_form(edge, self.cdf_poly, a)
        vals = (self.seg_cdf[seg] + np.where(self.seg_keep[seg], inc, 0.0)) / self.norm
        if self.sanitized:  # raw expansions may oscillate outside [0, 1]; report them as-is
            vals = np.clip(vals, 0.0, 1.0)
        atom_lo, atom_hi = self.atoms
        vals = atom_lo + self.continuous_mass * vals + np.where(v >= self.v_hi, atom_hi, 0.0)
        vals = np.where(v < self.v_lo, 0.0, np.where(v > self.v_hi, 1.0, vals))
        return float(vals) if vals.ndim == 0 else vals


def expand_density(moments: MomentVector, v_lo: float, v_hi: float) -> ExpandedDensity:
    """Raw (unsanitized) expansion of the income law from its moments.

    The expansion's order is ``moments.order``: a lower order takes a
    shorter moment vector.  The endpoint atoms of ``moments`` are carried
    exactly and only the continuous remainder is expanded, under the weight
    exponent a = ``moments.lower_exponent`` (2/alpha for revenue moments).
    """
    order = moments.order
    a = moments.lower_exponent
    atoms = (moments.atom_lo, moments.atom_hi)
    cont = 1.0 - atoms[0] - atoms[1]
    if not cont > 0.0:
        raise DomainError(f"the endpoint atoms {atoms} leave no continuous part to expand")
    s = np.arange(1.0, moments.order + 1.0)
    remainder = MomentVector(raw=(moments.raw - atoms[0] * v_lo ** s - atoms[1] * v_hi ** s)
                             / cont)
    unit_moments = affine_to_unit(remainder, v_lo, v_hi)
    coeffs = np.empty(order + 1)
    poly = np.zeros(order + 1)
    for n in range(order + 1):
        zeta = specfun.jacobi_poly_coeffs(n, 0.0, a - 1.0)
        coeffs[n] = (2 * n + a) / a * float(np.dot(zeta, unit_moments[: n + 1]))
        poly[: n + 1] += coeffs[n] * zeta
    return ExpandedDensity(support=(v_lo, v_hi), coeffs=coeffs, poly=poly,
                           lower_exponent=a, atoms=atoms)


def sanitize(raw: ExpandedDensity, reject_mass: float = 0.1) -> ExpandedDensity:
    """Clip negative excursions of a raw expansion and renormalize.

    The clipped L1 mass, in units of the whole distribution, is recorded as
    ``sanitized_mass``; above ``reject_mass`` the density is rejected (the
    caller should raise the moment order).
    """
    if raw.sanitized:
        return raw
    poly = raw.poly
    roots = npoly.polyroots(poly)
    interior = np.sort(np.real(roots[(np.abs(np.imag(roots)) < 1e-10)
                                     & (np.real(roots) > -1.0) & (np.real(roots) < 1.0)]))
    edges = np.concatenate(([-1.0], interior, [1.0]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    keep = npoly.polyval(mids, poly) >= 0.0

    t = (edges + 1.0) / 2.0
    seg_masses = np.diff(_closed_form(t, raw.cdf_poly, raw.lower_exponent))
    # 0.0 - x rather than -x: an empty clip reports +0.0, not -0.0
    negative_mass = raw.continuous_mass * (0.0 - float(seg_masses[~keep].sum()))
    positive_mass = float(seg_masses[keep].sum())
    if negative_mass > reject_mass:
        raise AccuracyError(
            "expansion rejected: clipped mass exceeds budget; raise the moment order",
            {"sanitized_mass": negative_mass, "order": raw.order},
        )
    kept_cum = np.concatenate(([0.0], np.cumsum(np.where(keep, seg_masses, 0.0))))[:-1]
    return replace(raw, sanitized=True, sanitized_mass=negative_mass, seg_edges=t,
                   seg_keep=keep, seg_cdf=kept_cum, norm=positive_mass,
                   expansion=(raw.tpoly, raw.cdf_poly))
