"""The hot kernel, in numpy: ``interference_powsum``, the per-slot
interference power sums over one chunk of interferer points (an integer power
as multiplies and one divide)."""

from __future__ import annotations

import numpy as np


def interference_powsum(x_sq, exponent, marks, offsets):
    """Per-segment sums of marks * x_sq**exponent.

    x_sq: squared interferer distances of one chunk, in any unit (overwritten
    with the terms); exponent: -alpha/2; offsets: int64 segment starts,
    nondecreasing in 0..len(x_sq), each segment running to the next start
    (the last to the end).  When -exponent is an integer k the terms are
    marks / x_sq**k, with k - 1 multiplies and one divide; otherwise they are
    ``np.power`` times the marks.  Each sum is ``np.add.reduceat`` over its
    own segment, so it does not depend on which other segments share the
    chunk; empty segments read 0.
    """
    k = -float(exponent)
    if k.is_integer() and k >= 1:
        base = x_sq.copy() if k > 2 else x_sq
        for _ in range(int(k) - 1):
            np.multiply(x_sq, base, out=x_sq)
        terms = np.divide(marks, x_sq, out=x_sq)
    else:
        terms = np.power(x_sq, exponent, out=x_sq)
        terms *= marks
    # segments that start at the end are empty; for any other empty segment
    # reduceat returns the element at its start, zeroed after it
    held = int(np.searchsorted(offsets, len(terms)))
    sums = np.zeros(len(offsets))
    if held:
        np.add.reduceat(terms, offsets[:held], out=sums[:held])
        np.copyto(sums[:held - 1], 0.0, where=offsets[1:held] == offsets[:held - 1])
    return sums

