"""Special functions backing the revenue-moment integrals.

Implements the Gauss hypergeometric function on [0, 1) (elementwise over an
array argument, each element taking the float steps of a one-argument
evaluation, with non-integer powers through the C library's pow), monomial
coefficients of Jacobi polynomials, and the 5-smooth FFT length search.
Everything here is pure and deterministic so the downstream quadratures
are reproducible; each routine is cross-checked in the test suite against
an independent quadrature or series oracle.  The series have one fixed
accuracy: each stops when its last term is within ``REL_TOL`` (1e-10) of
the running sum, and gives up after ``MAX_TERMS`` (20000) terms.

The hypergeometric evaluation strategy is argument-dependent:

* ``z <= 0.5``      -- defining power series;
* ``0.5 < z <= 0.9``-- Euler transformation ``(1-z)^(c-a-b) 2F1(c-a, c-b; c; z)``;
* ``z > 0.9``       -- connection formula in powers of ``1 - z`` (requires
  ``c - a - b`` non-integer, which holds for every parameter triple reachable
  from a pathloss exponent ``alpha > 2``).

Series exhaustion, an integer ``c - a - b`` near ``z = 1`` and a gamma pole
in the connection coefficients raise :class:`~microruin.errors.AccuracyError`
naming the broken condition; the series error carries the partial sum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "gauss_2f1",
    "jacobi_poly_coeffs",
    "next_fast_len",
]


REL_TOL = 1e-10
MAX_TERMS = 20000
INTEGER_TOL = 1e-12  # how near an integer c counts as one (``gauss_2f1``'s pole test)
_BLOCK = 64  # series terms per block over many arguments
_BLOCK_CELLS = 16384  # terms times arguments of one block, when more than _BLOCK terms


def _require_finite(name, value):
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


def scalar_pow(x: np.ndarray, s: float) -> np.ndarray:
    """x ** s element by element through the C library's pow, as Python's
    float ``**`` computes it (``numpy.power`` may differ in the last bit)."""
    return np.fromiter((math.pow(v, s) for v in x.ravel().tolist()), float,
                       count=x.size).reshape(x.shape)


def _block_cap(live: int) -> int:
    """Most series terms in one block over ``live`` arguments: ``_BLOCK_CELLS``
    cells, but never fewer than ``_BLOCK`` terms."""
    return max(_BLOCK, _BLOCK_CELLS // max(live, 1))


def _hyp_series(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """Defining 2F1 power series at every z; caller guarantees |z| < 1 and valid c.

    Terms come in blocks, one row per term: a cumulative product down the
    rows gives the terms and a cumulative sum the partial sums, both
    strictly in order, so each element takes the same float steps as a
    one-argument loop and stops at its own first term within REL_TOL of its
    sum.  The first block holds the terms a geometric series in the largest
    |z| takes to reach REL_TOL, and four more, so most calls need one block;
    each further block is twice as long.  Over many arguments a block holds
    at most ``_block_cap`` terms.
    """
    z_live = z.ravel()
    out = np.empty(z_live.size)
    live = np.arange(z_live.size)
    term = total = np.ones(z_live.size)
    z_max = max(float(np.abs(z_live).max(initial=0.0)), REL_TOL)
    size = min(4 + math.ceil(math.log(REL_TOL) / math.log(z_max)), _block_cap(z_live.size))
    n0 = 0
    while n0 < MAX_TERMS:
        n = np.arange(n0, min(n0 + size, MAX_TERMS), dtype=float)
        # row 0 carries the last term (and then the partial sum) of the block before
        terms = np.empty((len(n) + 1, len(live)))
        terms[0] = term
        np.multiply.outer((a + n) * (b + n) / ((c + n) * (n + 1.0)), z_live, out=terms[1:])
        np.cumprod(terms, axis=0, out=terms)
        totals = terms.copy()
        totals[0] = total
        np.cumsum(totals, axis=0, out=totals)
        done = np.abs(terms) <= REL_TOL * np.abs(totals)
        done[:3 if n0 == 0 else 1] = False  # row 0, and terms 1 and 2 of the series
        first = done.argmax(axis=0)  # 0 where no term in the block is done
        cols = np.flatnonzero(first)
        out[live[cols]] = totals[first[cols], cols]
        if len(cols) == len(live):
            return out.reshape(z.shape)
        rest = first == 0
        live, z_live, term, total = live[rest], z_live[rest], terms[-1, rest], totals[-1, rest]
        n0, size = n0 + len(n), min(2 * size, _block_cap(len(live)))
    raise AccuracyError(
        "hypergeometric series did not converge",
        {"a": a, "b": b, "c": c, "z": float(z_live[0]), "partial_sum": float(total[0]),
         "last_term": float(term[0])},
    )


def _is_nonpositive_integer(x: float) -> bool:
    return x <= INTEGER_TOL and abs(x - round(x)) < INTEGER_TOL


def gauss_2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for real parameters and z in [0, 1).

    z may be an array: the result has its shape, and a scalar z gives a float.
    """
    for name, value in (("a", a), ("b", b), ("c", c)):
        _require_finite(name, value)
    z = np.asarray(z, dtype=float)
    if _is_nonpositive_integer(c):
        raise DomainError(f"2F1 undefined for c a nonpositive integer, got c={c}")
    bad = ~((z >= 0.0) & (z < 1.0))  # also NaN
    if bad.any():
        raise DomainError(f"gauss_2f1 requires 0 <= z < 1, got z={z[bad].flat[0]}")
    out = np.ones(z.shape)
    series = (z > 0.0) & (z <= 0.5)
    euler = (z > 0.5) & (z <= 0.9)
    near_one = z > 0.9
    if series.any():
        out[series] = _hyp_series(a, b, c, z[series])

    s = c - a - b
    if euler.any():
        ze = z[euler]
        out[euler] = scalar_pow(1.0 - ze, s) * _hyp_series(c - a, c - b, c, ze)

    if near_one.any():
        # Near z = 1: connection formula in powers of w = 1 - z (DLMF 15.8.4
        # form), valid when c - a - b is not an integer.
        if abs(s - round(s)) < 1e-10:
            raise AccuracyError(
                "2F1 connection formula needs c-a-b non-integer near z = 1",
                {"a": a, "b": b, "c": c, "z": float(z[near_one].flat[0])},
            )
        w = 1.0 - z[near_one]
        try:
            coeff1 = math.gamma(c) * math.gamma(s) / (math.gamma(c - a) * math.gamma(c - b))
            coeff2 = math.gamma(c) * math.gamma(-s) / (math.gamma(a) * math.gamma(b))
        except ValueError as exc:  # gamma pole
            raise AccuracyError(
                "2F1 connection formula hit a gamma pole in its coefficients",
                {"a": a, "b": b, "c": c, "z": float(z[near_one].flat[0]),
                 "detail": str(exc)},
            ) from exc
        term1 = coeff1 * _hyp_series(a, b, a + b - c + 1.0, w)
        term2 = coeff2 * scalar_pow(w, s) * _hyp_series(c - a, c - b, s + 1.0, w)
        out[near_one] = term1 + term2
    return float(out) if out.ndim == 0 else out


def jacobi_poly_coeffs(n: int, a: float, b: float) -> np.ndarray:
    """Monomial coefficients (ascending powers) of the Jacobi polynomial P_n^(a,b).

    Standard three-term recurrence expanded in the monomial basis; valid for
    a, b > -1.  P_0 = 1 and P_1^(1,1)(x) = 2x, so e.g. ``jacobi_poly_coeffs(1, 1, 1)``
    returns ``[0, 2]``.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"polynomial degree must be a nonnegative integer, got {n}")
    _require_finite("a", a)
    _require_finite("b", b)
    if a <= -1.0 or b <= -1.0:
        raise DomainError(f"jacobi parameters must exceed -1, got a={a}, b={b}")
    n = int(n)
    p_prev = np.array([1.0])
    if n == 0:
        return p_prev
    p_curr = np.array([(a - b) / 2.0, (a + b + 2.0) / 2.0])
    if n == 1:
        return p_curr
    for m in range(2, n + 1):
        c0 = 2.0 * m * (m + a + b) * (2.0 * m + a + b - 2.0)
        c1 = (2.0 * m + a + b - 1.0) * (a * a - b * b)
        c2 = (2.0 * m + a + b - 1.0) * (2.0 * m + a + b) * (2.0 * m + a + b - 2.0)
        c3 = 2.0 * (m + a - 1.0) * (m + b - 1.0) * (2.0 * m + a + b)
        nxt = np.zeros(m + 1)
        nxt[: m] += c1 * p_curr
        nxt[1:] += c2 * p_curr
        nxt[: m - 1] -= c3 * p_prev
        p_prev, p_curr = p_curr, nxt / c0
    return p_curr


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2^i 3^j 5^k) >= n, a fast real FFT length."""
    if n < 1:
        raise DomainError(f"FFT length must be >= 1, got {n}")
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power-of-two multiple of p35 reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best
