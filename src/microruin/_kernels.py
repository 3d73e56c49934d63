"""The hot kernel, in numpy: ``interference_powsum``, the per-slot
interference power sums over one chunk of interferer points (an integer power
as multiplies and one divide, the segment sums as one ``np.bincount``)."""

from __future__ import annotations

import numpy as np


def interference_powsum(x_sq, exponent, marks, offsets):
    """Per-segment sums of marks * x_sq**exponent.

    x_sq: squared interferer distances of one chunk, in any unit (overwritten
    with the terms); exponent: -alpha/2; offsets: int64 segment starts,
    nondecreasing in 0..len(x_sq), each segment running to the next start
    (the last to the end).  When -exponent is an integer k the terms are
    marks / x_sq**k, with k - 1 multiplies and one divide; otherwise they are
    ``np.power`` times the marks.  Each sum is one ``np.bincount`` bin, added
    in point order from 0, so it does not depend on which other segments
    share the chunk; empty segments read 0.
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
    # a point's bin is the number of starts at or below it: segment j is bin
    # j + 1, and points before the first start fall into bin 0, which is dropped
    bins = np.cumsum(np.bincount(offsets, minlength=len(terms) + 1)[: len(terms)])
    return np.bincount(bins, weights=terms, minlength=len(offsets) + 1)[1:]
