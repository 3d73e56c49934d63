"""The hot kernel, in numpy: ``interference_powsum``, the per-slot
interference power sums over one chunk of interferer points (an integer power
as multiplies and one divide, the segment sums as one ``np.add.at``), and
``segment_index``, each point's slot in that chunk.  Both write into buffers
that belong to the caller and allocate nothing of their own."""

from __future__ import annotations

import numpy as np


def segment_index(offsets, size, out):
    """The segment of each of ``size`` points, given the segments' int64
    starts ``offsets`` (nondecreasing from 0 to at most size), each segment
    running to the next start (the last to the end).  Written into the first
    size entries of out (int64, at least size + 1 long): a point's segment is
    the number of segments after the first that start at or before it, one
    ``np.add.at`` over the segments and one ``np.cumsum`` over the points."""
    count = out[: size + 1]
    count.fill(0)
    np.add.at(count, offsets[1:], 1)
    return np.cumsum(count[:size], out=count[:size])


def interference_powsum(x_sq, exponent, marks, offsets, segment, out):
    """Per-segment sums of marks * x_sq**exponent.

    x_sq: squared interferer distances of one chunk, in any unit (overwritten
    with the terms); exponent: -alpha/2; offsets: int64 segment starts,
    nondecreasing from 0 to at most len(x_sq), each segment running to the
    next start (the last to the end); segment: each point's segment, as
    ``segment_index`` gives it; out: the per-segment array the sums are
    written into.  When -exponent is an integer k the terms are
    marks / x_sq**k, with k - 1 multiplies and one divide; otherwise they are
    ``np.power`` times the marks.  Each sum is added in point order from 0
    (``np.add.at``), so it does not depend on which other segments share the
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
    out.fill(0.0)
    np.add.at(out, segment, terms)
    return out
