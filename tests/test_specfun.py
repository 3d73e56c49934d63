"""Special functions against independent quadrature/series oracles."""

import math

import numpy as np
import pytest
import scipy.special as sp
from scipy import integrate

from microruin import specfun
from microruin.errors import AccuracyError, DomainError
from tests import oracles


def quad_lower_gamma(s, x):
    val, _ = integrate.quad(lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x,
                            epsabs=1e-15, epsrel=1e-12)
    return val


def series_2f1(a, b, c, z, tol=1e-14):
    term, total = 1.0, 1.0
    for n in range(200000):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= tol * abs(total):
            return total
    raise RuntimeError("oracle series did not converge")


class TestLowerIncompleteGamma:
    def test_exponential_identity(self):
        # gamma(1, x) = 1 - e^-x
        assert oracles.lower_incomplete_gamma(1.0, 2.0) == pytest.approx(
            1.0 - math.exp(-2.0), rel=1e-12)

    def test_zero_argument(self):
        assert oracles.lower_incomplete_gamma(0.7, 0.0) == 0.0

    def test_fractional_parameter_against_quadrature(self):
        # frozen from the quadrature oracle at 1e-12 tolerance
        got = oracles.lower_incomplete_gamma(1.0 / 3.0, 0.7)
        assert got == pytest.approx(2.277402534021233, rel=1e-9)
        assert got == pytest.approx(quad_lower_gamma(1.0 / 3.0, 0.7), rel=1e-9)

    def test_matches_scipy_across_domain(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = rng.uniform(0.05, 3.5)
            x = rng.uniform(0.0, 40.0)
            ref = float(sp.gammainc(s, x)) * math.gamma(s)
            assert oracles.lower_incomplete_gamma(s, x) == pytest.approx(ref, rel=1e-8,
                                                                         abs=1e-300)

    def test_monotone_in_x_and_limit(self):
        for s in (0.2, 0.5, 1.0, 3.0):
            xs = np.linspace(0.1, 8.0, 25)
            vals = [oracles.lower_incomplete_gamma(s, x) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert oracles.lower_incomplete_gamma(s, 50.0) == pytest.approx(
                math.gamma(s), rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            oracles.lower_incomplete_gamma(-1.0, 1.0)
        with pytest.raises(DomainError):
            oracles.lower_incomplete_gamma(1.0, -0.5)
        with pytest.raises(DomainError):
            oracles.lower_incomplete_gamma(1.0, float("nan"))


class TestGauss2F1:
    def test_geometric_identity(self):
        # 2F1(1, b; b; z) = 1/(1-z)
        assert specfun.gauss_2f1(1.0, 2.0, 2.0, 0.5) == pytest.approx(2.0, rel=1e-9)

    def test_at_zero(self):
        assert specfun.gauss_2f1(0.3, 1.7, 2.9, 0.0) == 1.0

    def test_series_point_frozen(self):
        # parameters used by the interference transform at alpha = 4
        got = specfun.gauss_2f1(1.0, 2.0, 1.5, 0.3)
        assert got == pytest.approx(1.617769723136466, rel=1e-9)
        assert got == pytest.approx(series_2f1(1.0, 2.0, 1.5, 0.3), rel=1e-10)

    @pytest.mark.parametrize("alpha", [2.1, 2.5, 3.0, 4.0, 5.5, 6.0])
    def test_transform_paths_match_series_on_overlap(self, alpha):
        c = 2.0 - 2.0 / alpha
        for z in np.linspace(0.4, 0.6, 9):
            direct = series_2f1(1.0, 2.0, c, z)
            assert specfun.gauss_2f1(1.0, 2.0, c, float(z)) == pytest.approx(
                direct, rel=1e-8)

    @pytest.mark.parametrize("alpha", [2.1, 2.5, 3.0, 4.0, 6.0])
    def test_near_one_against_scipy(self, alpha):
        c = 2.0 - 2.0 / alpha
        for z in (0.91, 0.99, 0.9999, 1.0 - 1e-8):
            ref = float(sp.hyp2f1(1.0, 2.0, c, z))
            assert specfun.gauss_2f1(1.0, 2.0, c, z) == pytest.approx(ref, rel=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.gauss_2f1(1.0, 2.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            specfun.gauss_2f1(1.0, 2.0, 1.5, -0.1)
        with pytest.raises(DomainError):
            specfun.gauss_2f1(1.0, 2.0, 0.0, 0.5)

    @pytest.mark.parametrize("a, b, c, z", [
        (1.0, 2.0, 1.5, [1e-12, 0.3, 0.5]),             # one block, sized for 0.5
        (1.0, 2.0, 1.2, [0.99, 0.2]),                   # past the geometric estimate
        (0.5, -0.5, 1.5, np.linspace(0.5, 0.9, 700)),   # capped blocks, several of them
    ], ids=["one-block", "two-blocks", "capped"])
    def test_series_blocks_keep_each_arguments_float_steps(self, a, b, c, z):
        z = np.asarray(z, dtype=float)
        want = [oracles._scalar_hyp_series(a, b, c, v) for v in z.tolist()]
        assert specfun._hyp_series(a, b, c, z).tolist() == want

    def test_series_exhaustion_reports_partial_sum(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", 16)
        with pytest.raises(AccuracyError) as info:
            specfun.gauss_2f1(1.0, 2.0, 1.5, 0.49)
        assert "partial_sum" in info.value.diagnostics


class TestJacobiCoeffs:
    def test_degree_zero(self):
        assert specfun.jacobi_poly_coeffs(0, 1.0, 1.0).tolist() == [1.0]

    def test_degree_one_symmetric(self):
        # P_1^(1,1)(x) = 2x
        np.testing.assert_allclose(specfun.jacobi_poly_coeffs(1, 1.0, 1.0), [0.0, 2.0])

    def test_coefficients_match_recurrence_evaluation(self):
        # evaluate the polynomial from its coefficients and compare against
        # values obtained by running the recurrence numerically at sample points
        def recurrence_eval(n, a, b, x):
            p_prev, p_curr = 1.0, (a + b + 2.0) / 2.0 * x + (a - b) / 2.0
            if n == 0:
                return p_prev
            for m in range(2, n + 1):
                c0 = 2.0 * m * (m + a + b) * (2 * m + a + b - 2.0)
                c1 = (2 * m + a + b - 1.0) * (a * a - b * b)
                c2 = (2 * m + a + b - 1.0) * (2 * m + a + b) * (2 * m + a + b - 2.0)
                c3 = 2.0 * (m + a - 1.0) * (m + b - 1.0) * (2 * m + a + b)
                p_prev, p_curr = p_curr, ((c1 + c2 * x) * p_curr - c3 * p_prev) / c0
            return p_curr

        for n, a, b in [(1, 1.0, 1.0), (4, 1.0, 1.0), (5, 0.0, 0.0), (3, 2.5, 0.5)]:
            coeffs = specfun.jacobi_poly_coeffs(n, a, b)
            for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
                direct = float(np.polynomial.polynomial.polyval(x, coeffs))
                assert direct == pytest.approx(recurrence_eval(n, a, b, x),
                                               rel=1e-12, abs=1e-12)

    def test_orthogonality_weight_one_one(self):
        # int (1-x^2) P_m P_n dx = 0 for m != n, checked by Gauss quadrature
        nodes, weights = np.polynomial.legendre.leggauss(40)
        polys = [specfun.jacobi_poly_coeffs(n, 1.0, 1.0) for n in range(6)]
        vals = [np.polynomial.polynomial.polyval(nodes, p) for p in polys]
        for m in range(6):
            for n in range(6):
                if m == n:
                    continue
                inner = np.sum(weights * (1 - nodes ** 2) * vals[m] * vals[n])
                assert abs(inner) <= 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.jacobi_poly_coeffs(-1, 1.0, 1.0)
        with pytest.raises(DomainError):
            specfun.jacobi_poly_coeffs(2, -1.0, 1.0)


class TestNextFastLen:
    def test_matches_scipy(self):
        from scipy import fft as sp_fft
        for n in list(range(1, 70_001)) + [230_400]:
            assert specfun.next_fast_len(n) == sp_fft.next_fast_len(n, real=True), n

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.next_fast_len(0)
