"""Moment-based density reconstruction: projection exactness, the closed-form
CDF, sanitization."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from microruin import income_pdf, moments, montecarlo
from microruin.errors import AccuracyError, DomainError, SupportError
from microruin.moments import MomentVector
from tests.conftest import make_config
from tests.oracles import density_mean


def uniform_moments(lo, hi, d=4):
    raw = np.array([(hi ** (s + 1) - lo ** (s + 1)) / ((s + 1) * (hi - lo))
                    for s in range(1, d + 1)])
    return MomentVector(raw=raw)


class TestAffineToUnit:
    def test_point_mass_at_lower_edge(self):
        mv = MomentVector(np.array([2.0, 4.0, 8.0, 16.0]))
        unit = income_pdf.affine_to_unit(mv, 2.0, 6.0)
        np.testing.assert_allclose(unit, [1.0, -1.0, 1.0, -1.0, 1.0], atol=1e-12)

    def test_uniform_moments(self):
        unit = income_pdf.affine_to_unit(uniform_moments(0.0, 1.0), 0.0, 1.0)
        np.testing.assert_allclose(unit, [1.0, 0.0, 1.0 / 3.0, 0.0, 0.2], atol=1e-12)

    def test_transformed_samples_match(self, fast_plan, table2_config):
        # moments of W from the analytic path vs transformed MC samples
        mv = moments.revenue_moments(table2_config)
        v_lo, v_hi = table2_config.income_support()
        unit = income_pdf.affine_to_unit(mv, v_lo, v_hi)
        v = montecarlo.sample_revenues(table2_config, fast_plan, 100_000)
        w = 2.0 * (v - v_lo) / (v_hi - v_lo) - 1.0
        for s in range(1, 5):
            se = np.std(w ** s) / np.sqrt(len(w))
            assert abs(unit[s] - np.mean(w ** s)) <= 4.0 * se

    def test_inconsistent_support_rejected(self):
        mv = MomentVector(np.array([5.0, 26.0, 140.0, 800.0]))
        with pytest.raises(SupportError):
            income_pdf.affine_to_unit(mv, 0.0, 1.0)

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            income_pdf.affine_to_unit(uniform_moments(0, 1), 1.0, 1.0)


class TestExpansionCoeffs:
    def test_order_zero_is_weight_alone(self):
        mv = replace(uniform_moments(0.0, 1.0, d=0), lower_exponent=2.0)
        dens = income_pdf.expand_density(mv, 0.0, 1.0)
        np.testing.assert_allclose(dens.coeffs, [1.0])
        total, _ = integrate.quad(dens.pdf, 0.0, 1.0)
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_order_zero_is_weight_alone_below_unit_exponent_sum(self):
        # a < 1: the weight is singular at the lower edge, b_0 is still 1
        mv = replace(uniform_moments(0.0, 1.0, d=0), lower_exponent=0.5)
        dens = income_pdf.expand_density(mv, 0.0, 1.0)
        np.testing.assert_allclose(dens.coeffs, [1.0])
        total, _ = integrate.quad(dens.pdf, 0.0, 1.0)
        assert total == pytest.approx(1.0, rel=1e-9)
        # higher orders stay finite and reproduce the input moments
        wide = replace(uniform_moments(0.001, 1000.0), lower_exponent=0.5)
        dens = income_pdf.expand_density(wide, 0.001, 1000.0)
        assert np.isfinite(dens.coeffs).all()
        assert density_mean(dens) == pytest.approx(wide.raw[0], rel=1e-9)

    def test_symmetric_moments_zero_odd_coefficients(self):
        # on [-1, 1] the moments are already those of the unit variable
        mv = MomentVector(np.array([0.0, 0.4, 0.0, 0.25]))
        coeffs = income_pdf.expand_density(mv, -1.0, 1.0).coeffs
        assert abs(coeffs[1]) < 1e-12 and abs(coeffs[3]) < 1e-12

    def test_uniform_density_reproduced_exactly(self):
        dens = income_pdf.expand_density(uniform_moments(2.0, 6.0), 2.0, 6.0)
        np.testing.assert_allclose(dens.coeffs, [1, 0, 0, 0, 0], atol=1e-12)
        xs = np.linspace(2.0, 6.0, 9)
        np.testing.assert_allclose(dens.pdf(xs), 0.25, atol=1e-12)
        np.testing.assert_allclose(dens.cdf(xs), (xs - 2.0) / 4.0, atol=1e-12)

    def test_moment_matching_is_exact(self, table3_config):
        # the projection reproduces every input moment up to the order
        mv = moments.revenue_moments(table3_config)
        v_lo, v_hi = table3_config.income_support()
        dens = income_pdf.expand_density(mv, v_lo, v_hi)
        assert density_mean(dens) == pytest.approx(mv.raw[0], rel=1e-6)


class TestEvaluatorsAndSanitize:
    def test_outside_support(self):
        dens = income_pdf.expand_density(uniform_moments(0.0, 2.0), 0.0, 2.0)
        assert dens.pdf(-1.0) == 0.0 and dens.pdf(3.0) == 0.0
        assert dens.cdf(-1.0) == 0.0 and dens.cdf(3.0) == 1.0

    def test_nonnegative_expansion_unchanged(self):
        dens = income_pdf.sanitize(income_pdf.expand_density(
            uniform_moments(0.0, 1.0), 0.0, 1.0))
        assert dens.sanitized_mass == pytest.approx(0.0, abs=1e-12)
        assert math.copysign(1.0, dens.sanitized_mass) == 1.0  # +0.0, never -0.0
        assert dens.pdf(0.5) == pytest.approx(1.0, rel=1e-9)

    def test_forced_negative_lobe_clipped_and_renormalized(self):
        # hand-built expansion with genuine negative lobes near |x| ~ 0.83
        base = income_pdf.expand_density(uniform_moments(0.0, 1.0), 0.0, 1.0)
        poly = np.array([2.58, 0.0, -8.34, 0.0, 6.0])
        rigged = replace(base, poly=poly)
        xs = np.linspace(-1, 1, 2001)
        raw_vals = np.polynomial.polynomial.polyval(xs, poly) * 0.5
        neg_mass = -np.trapezoid(np.minimum(raw_vals, 0.0), xs)
        assert neg_mass > 0.01  # the fixture really has a negative lobe
        clean = income_pdf.sanitize(rigged, reject_mass=1.0)
        assert clean.sanitized_mass == pytest.approx(neg_mass, rel=1e-3)
        vs = np.linspace(0.0, 1.0, 1001)
        pdf_vals = clean.pdf(vs)
        assert np.all(pdf_vals >= 0.0)
        total = np.trapezoid(pdf_vals, vs)
        assert total == pytest.approx(1.0, abs=2e-3)
        assert clean.cdf(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_sanitize_hands_over_the_expansion(self):
        # the sanitized density shares the raw one's t-polynomial and CDF
        # polynomial; a density built with another poly expands its own
        base = income_pdf.expand_density(uniform_moments(0.0, 1.0), 0.0, 1.0)
        rigged = replace(base, poly=np.array([2.58, 0.0, -8.34, 0.0, 6.0]))
        assert rigged.tpoly.tolist() != base.tpoly.tolist()
        clean = income_pdf.sanitize(rigged, reject_mass=1.0)
        assert clean.tpoly is rigged.tpoly and clean.cdf_poly is rigged.cdf_poly

    def test_rejection_above_budget(self):
        base = income_pdf.expand_density(uniform_moments(0.0, 1.0), 0.0, 1.0)
        poly = np.array([4.16, 0.0, -16.68, 0.0, 12.0])
        rigged = replace(base, poly=poly)
        with pytest.raises(AccuracyError):
            income_pdf.sanitize(rigged, reject_mass=0.05)

    def test_sanitized_density_normalized_on_reference_scenario(self, table3_config):
        # the uniform (Legendre) weight cannot follow the v^(2/alpha) law of
        # the reference income, so its expansion genuinely oscillates
        mv = moments.revenue_moments(table3_config)
        v_lo, v_hi = table3_config.income_support()
        dens = income_pdf.sanitize(income_pdf.expand_density(
            replace(mv, lower_exponent=1.0), v_lo, v_hi))
        assert dens.sanitized_mass > 0.01
        total, _ = integrate.quad(dens.pdf, v_lo, v_hi, limit=200)
        assert total + mv.atom_lo + mv.atom_hi == pytest.approx(1.0, rel=1e-6)
        grid = np.linspace(v_lo, v_hi, 4001)
        assert np.all(dens.pdf(grid) >= 0.0)
        cdf_vals = dens.cdf(grid)
        assert np.all(np.diff(cdf_vals) >= -1e-12)
        assert cdf_vals[0] == pytest.approx(mv.atom_lo, abs=1e-9)
        assert cdf_vals[-1] == pytest.approx(1.0, abs=1e-9)

    def test_raising_order_does_not_worsen_cdf_error(self, table3_config):
        # against the exact income law of this sigma^2 = 0 single-slot config,
        # F(v) = 1 / (1 + c(A / v)) with the coverage profile c (see
        # tests/test_moments.py): the two orders differ by less than the
        # sampling error of a 10^5-revenue empirical CDF
        grid = np.linspace(0.0, 200.0, 201)
        gap, alpha = table3_config.products.rate_gaps[0], table3_config.network.alpha_pathloss
        profile = np.array([moments.laplace_exponent_profile(gap / v, alpha)
                            for v in grid[1:]])
        exact = np.concatenate(([0.0], 1.0 / (1.0 + profile)))
        errs = {}
        for d in (4, 8):
            cfg = replace(table3_config,
                          numerics=replace(table3_config.numerics, moment_order=d))
            mv = moments.revenue_moments(cfg)
            v_lo, v_hi = cfg.income_support()
            dens = income_pdf.expand_density(mv, v_lo, v_hi)
            errs[d] = float(np.max(np.abs(dens.cdf(grid) - exact)))
        assert errs[8] <= errs[4] + 1e-9


def quad_cdf(dens, v, clip=False):
    """Continuous-part CDF by adaptive quadrature of K(x) p(x) in x, with the
    weight's (1+x)^(a-1) factor handled by quad's algebraic weight; ``clip``
    drops the negative lobes and renormalizes, as ``sanitize`` does."""
    a = dens.lower_exponent
    roots = np.roots(dens.poly[::-1])
    kinks = np.sort(roots.real[(abs(roots.imag) < 1e-12) & (abs(roots.real) < 1.0)])

    def body(y):
        p = np.polynomial.polynomial.polyval(y, dens.poly)
        return a / 2.0 ** a * (max(p, 0.0) if clip else p)

    def integral(x):
        # quad's algebraic weight to the first kink, then kink to kink
        edges = [-1.0] + [k for k in kinks if k < x] + [x]
        total = integrate.quad(body, -1.0, edges[1], weight="alg", wvar=(a - 1.0, 0.0),
                               epsabs=1e-14, epsrel=1e-13)[0]
        for lo, hi in zip(edges[1:-1], edges[2:]):
            total += integrate.quad(lambda y: body(y) * (1.0 + y) ** (a - 1.0), lo, hi,
                                    epsabs=1e-14, epsrel=1e-13)[0]
        return total

    x = 2.0 * (v - dens.v_lo) / (dens.v_hi - dens.v_lo) - 1.0
    total = integral(1.0) if clip else 1.0
    return np.array([integral(xi) / total if xi > -1.0 else 0.0 for xi in x])


class TestClosedFormCdf:
    """The closed form t^a R(t) against quadrature of the density in x."""

    # a Beta(2, 3) law on [0, 1]: E[V^s] = prod_k (2 + k) / (5 + k)
    BETA_MOMENTS = np.cumprod([(2.0 + k) / (5.0 + k) for k in range(8)])

    @pytest.mark.parametrize("a", [0.5, 2.0 / 3.0, 1.0, 2.0])
    def test_raw_expansion_every_order(self, a):
        mv = MomentVector(self.BETA_MOMENTS, lower_exponent=a)
        grid = np.linspace(0.0, 1.0, 23)
        for order in range(9):
            dens = income_pdf.expand_density(replace(mv, raw=mv.raw[:order]), 0.0, 1.0)
            np.testing.assert_allclose(dens.cdf(grid), quad_cdf(dens, grid),
                                       rtol=0.0, atol=1e-12, err_msg=f"order {order}")

    @pytest.mark.parametrize("a", [0.5, 2.0 / 3.0, 1.0, 2.0])
    def test_sanitized_multi_segment(self, a):
        # the x-polynomial of test_forced_negative_lobe_clipped_and_renormalized:
        # negative lobes near |x| ~ 0.83 make five sign segments
        base = income_pdf.expand_density(
            replace(uniform_moments(0.0, 1.0), lower_exponent=a), 0.0, 1.0)
        rigged = replace(base, poly=np.array([2.58, 0.0, -8.34, 0.0, 6.0]))
        dens = income_pdf.sanitize(rigged, reject_mass=1.0)
        assert len(dens.seg_keep) == 5 and not dens.seg_keep.all()
        grid = np.linspace(0.0, 1.0, 41)
        np.testing.assert_allclose(dens.cdf(grid), quad_cdf(dens, grid, clip=True),
                                   rtol=0.0, atol=1e-12)
        # the raw CDF is reported unclipped: it dips below 0 over the first lobe
        assert rigged.cdf(grid).min() < 0.0
        np.testing.assert_allclose(rigged.cdf(grid), quad_cdf(rigged, grid),
                                   rtol=0.0, atol=1e-12)
