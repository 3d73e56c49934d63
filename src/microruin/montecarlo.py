"""Independent simulation oracle for the analytic pipeline.

Every quantity the analytic path produces (connection revenue, its moments,
per-interval net profit, surplus paths, ruin frequencies) is sampled here
directly from the network model: serving distance from the nearest-cell
density, per-slot unit-mean exponential fading, and an interferer point
process of the configured density simulated on the annulus between the
serving distance and a truncation radius ``R = RADIUS_FACTOR / sqrt(beta)``.
The far field beyond ``R_e = max(R, r_u)`` is one shifted Gamma draw per
slot that matches its exact first three cumulants, which Campbell's theorem
gives as ``kappa_n = 2 pi beta n! P_I^n R_e^(2 - n alpha) / (n alpha - 2)``
(``E[h^n] = n!`` for the Rayleigh marks).  The interference's mean,
variance and third cumulant are therefore exact at any radius, and
truncation errs only in the fourth and higher cumulants (held to factor 8
by the truncation test); factor 1 draws pi - 1 + e^(-pi), about 2.2,
interferer points per slot (``far_field_summary``).

A campaign's plan is the config's ``Numerics`` block: the sampler reads its
``seed``, ``mc_samples``, ``mc_paths`` and ``mc_batch``, and everything else
from the config.

Randomness comes from SFC64 streams seeded through ``SeedSequence`` with
keys (seed, stage, interval, batch), so fixed seeds give bit-identical
results, batches may run in any order, and sweeps over the initial capital
reuse common random numbers (the surplus paths do not depend on u at all).
The batches run on the calling thread plus one thread per further CPU in
the process's affinity mask; the results do not depend on the thread
count.  Within a batch the interferer points are streamed through chunks of
whole slots; the fading marks come from the batch's own "marks" stream, so
they do not depend on how the positions are chunked.  A chunk finds each
point's slot once (``_kernels.segment_index``) and uses it for the position
shift (``np.take``) and for the per-slot sums (``np.add.at`` from zeros).
The positions are drawn in units of their slot's annulus width, so a point
costs one add, and with alpha/2 an integer its power is multiplies and one
divide (``_kernels.interference_powsum``).  The interferer configuration is
redrawn every slot, matching the per-slot independence the analytic
transform assumes.

Each batch borrows a workspace from an idle list and returns it afterwards:
its per-slot arrays (distances, fading, spans, the counts that become point
offsets, far fields, which hold the count uniforms first, and the rate
gaps of a multi-slot batch under a multi-value product law) and its chunk
buffers (positions, marks, slot indices, the count search's flags and
level counters) keep their pages from one batch to the next, and at most
one workspace per batch thread outlives a call.  The revenues of one
interval are written into one new array, never into a workspace, and a
surplus-path campaign draws its intervals one after another, so it holds
one interval's revenues at a time.  The generator fills, ``np.take``,
``np.cumsum`` and the elementwise arithmetic release the GIL, so the batch
threads overlap there; ``np.add.at``, a multi-slot batch's slot-to-user
``np.repeat`` and per-user ``np.bincount``, and the Python between numpy
calls hold it.  Every numpy call that releases the GIL may hand it to the
other batch thread, so the chunks are large (``CHUNK_POINTS``) and a
chunk makes few calls.

Per slot a batch draws, in order, its fading, one uniform for its
interferer count, its far field and its interferer positions.  The count
is found by inversion (``_poisson_counts``): six CDF levels as whole-array
passes over pieces of CHUNK_POINTS slots, then the further levels over the
4% of the slots still above them, about 35 numpy calls per piece and 6 per
further level.  Those calls release the GIL; the Python loop between
them holds it.

A serving distance is drawn as t = pi beta r_u^2, which is Exp(1), and each
slot works in squared distances in that unit: no logarithm or square root
per user, the interferer count's Poisson mean is (pi f^2 - t)^+ itself, the
far field tests t against pi f^2 (only the slots served beyond the radius
get a distance), and with alpha/2 an integer the serving power t^(alpha/2)
is multiplies.  A one-slot connection is its own slot, with no user-to-slot
gather and no per-user sum; longer connections sum their slots with
``np.bincount``.

The durations, products and fees are drawn from their laws as ``model``
states them: values of probability zero dropped, equal values merged into
their first occurrence, in the written order (operator index, product tuple,
duration support).  Every such draw takes one route (``_draw``): one uniform
per value by inversion, or no draw at all when the law has one value.  So a
law written with zero shares or repeated values draws the same stream as its
plain form.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, ResourceLimitError
from .model import Numerics, ScenarioConfig
from .moments import MomentVector

__all__ = [
    "sample_revenues",
    "estimate_moments",
    "simulate_surplus_paths",
    "MCRuinEstimate",
    "far_field_summary",
]

_MASK = (1 << 64) - 1

# Interferer points are streamed through buffers of this many points (256 KiB
# each of positions, marks and slot indices), never held for a whole batch at
# once.  A chunk holds whole slots; a slot with more points is a chunk by
# itself.  The interferer counts are searched in pieces of this many slots.
CHUNK_POINTS = 1 << 15

# Interferer points are drawn out to RADIUS_FACTOR / sqrt(beta); the far field
# beyond is exact in its first three cumulants (see the module docstring).
RADIUS_FACTOR = 1.0

# The interferer counts are drawn by inversion (``_poisson_counts``).  A mean
# above COUNT_SPLIT is split into equal parts whose counts are added, so that
# e^mean stays finite and a search stays short.  No part's count exceeds
# COUNT_CAP: P(Poisson(COUNT_SPLIT) > COUNT_CAP) < 2^-53, the spacing of the
# uniforms, so a higher count needs a uniform above 1 - 2^-53.  The first
# COUNT_LEVELS CDF levels are taken over every slot of a piece, the rest over
# the slots still above them.
COUNT_SPLIT = 32.0
COUNT_CAP = 88
COUNT_LEVELS = 6

# The largest array one surplus-path campaign may hold: its horizon x paths
# discounted profits, or one interval's revenues (8 bytes per path or user).
CAMPAIGN_BYTES_BUDGET = 1 << 29

# the standard normal quantile of the two-sided 95% ruin intervals (``_wilson``)
WILSON_Z = 1.959963984540054


def plan_from_config(config: ScenarioConfig) -> Numerics:
    """The sampling plan of a config: its numerics block."""
    return config.numerics


class _Workspace:
    """The arrays of one revenue batch, kept for the next batch so that their
    pages stay mapped: ``take(name, size)`` hands out the first ``size``
    entries of the named array, which is replaced by a larger one when a
    batch needs more."""

    def __init__(self):
        self._arrays = {}

    def take(self, name, size, dtype=np.float64):
        buf = self._arrays.get(name)
        if buf is None or len(buf) < size:
            # headroom for the next batches' slightly larger slot counts
            buf = self._arrays[name] = np.empty(size + size // 16, dtype)
        return buf[:size]


_idle_workspaces: list = []
_idle_lock = threading.Lock()


@contextlib.contextmanager
def _workspace():
    """A workspace for one batch on this thread: an idle one when there is
    one, returned afterwards to the idle list, which keeps at most one per
    thread the batches may run on."""
    with _idle_lock:
        ws = _idle_workspaces.pop() if _idle_workspaces else _Workspace()
    try:
        yield ws
    finally:
        with _idle_lock:
            if len(_idle_workspaces) < _cpu_count():
                _idle_workspaces.append(ws)


def _stream(seed: int, *path) -> np.random.Generator:
    """SFC64 generator keyed by (seed, *path); strings are hashed stably.

    Each key part is one 64-bit word, mixed into the generator state by
    ``SeedSequence``.  Every caller's path starts with a stage tag:
    ``SeedSequence`` pads a key shorter than four 32-bit words with zeros, so
    the seed alone would key the same stream as (seed, 0).
    """
    key = [seed & _MASK]
    for part in path:
        if isinstance(part, str):
            part = int.from_bytes(hashlib.blake2b(part.encode(), digest_size=8).digest(), "big")
        key.append(part & _MASK)
    words = np.array(key, dtype="<u8").view("<u4")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))


def _draw(rng, law, size):
    """size values of a law (values, probabilities), each by inversion of
    one uniform from rng; a law with one value returns that value and draws
    nothing."""
    values, probs = law
    if len(values) == 1:
        return values[0]
    edges = np.cumsum(probs)
    edges[-1] = 1.0
    return values[np.searchsorted(edges, rng.random(size), side="right")]


def _poisson_counts(rng, mean, out, ws) -> np.ndarray:
    """Poisson(mean[j]) counts written into out (int64), by inversion
    (Devroye 1986, X.3): slot j takes one uniform from rng, and its count is
    the number of its CDF levels below that uniform.

    A mean above COUNT_SPLIT is split into p equal parts, whose counts are
    added: the slot's uniform draws its first part, and its other p - 1
    parts draw after every slot's uniform, in slot order.  The uniforms pass
    through ws's "far" buffer; the other buffers are ws's chunk buffers.
    """
    parts = None
    if len(mean) and mean.max() > COUNT_SPLIT:
        parts = np.maximum(np.ceil(mean / COUNT_SPLIT), 1.0)
        mean = mean / parts
    _invert_poisson(rng.random(out=ws.take("far", len(mean))), mean, out, ws)
    if parts is not None:
        split = np.flatnonzero(parts > 1.0)
        more = (parts[split] - 1.0).astype(np.int64)
        extra = _poisson_counts(rng, np.repeat(mean[split], more),
                                np.empty(int(more.sum()), np.int64), _Workspace())
        out[split] += np.add.reduceat(extra, np.cumsum(more) - more)
    return out


def _invert_poisson(u, mean, out, ws) -> None:
    """out[j] = min(k : u[j] <= F_k), at most COUNT_CAP, with F_k the
    Poisson(mean[j]) CDF; every mean at most COUNT_SPLIT.  Overwrites u.

    Over pieces of CHUNK_POINTS slots, level k is passed while the residual
    u e^mean - sum_{i <= k} mean^i / i! is positive, one whole-piece pass per
    step for the first COUNT_LEVELS levels.  The slots still above are then
    compacted, and their residual is carried in units of its last term,
    w_k = w_(k-1) k / mean - 1, until none is above.
    """
    for lo in range(0, len(u), CHUNK_POINTS):
        hi = min(lo + CHUNK_POINTS, len(u))
        lam, residual = mean[lo:hi], u[lo:hi]
        term = ws.take("x", hi - lo)
        above = ws.take("above", hi - lo, np.bool_)
        levels = ws.take("levels", hi - lo, np.uint8)
        np.exp(lam, out=term)
        residual *= term
        residual -= 1.0
        np.greater(residual, 0.0, out=levels)
        np.copyto(term, lam)
        for k in range(1, COUNT_LEVELS):
            if k > 1:
                term *= lam
                term *= 1.0 / k
            residual -= term
            np.greater(residual, 0.0, out=above)
            levels += above
        piece = out[lo:hi]
        np.copyto(piece, levels)
        rest = np.flatnonzero(above)
        if not len(rest):
            continue
        m = len(rest)
        w = np.take(residual, rest, out=ws.take("marks", m))
        w /= np.take(term, rest, out=residual[:m])
        inv = np.take(lam, rest, out=residual[:m])
        np.divide(1.0, inv, out=inv)
        more, step = levels[:m], above[:m]
        more.fill(0)
        # a residual left positive by rounding (a uniform within rounding of
        # 1) grows without bound until COUNT_CAP stops it
        with np.errstate(over="ignore"):
            for k in range(COUNT_LEVELS, COUNT_CAP):
                w *= inv
                w *= k
                w -= 1.0
                np.greater(w, 0.0, out=step)
                if not step.any():
                    break
                more += step
        piece[rest] += more


def _far_field_moments(net, radius):
    """Mean, variance and third cumulant of the interference from beyond
    ``radius`` (a float or an array), by Campbell's theorem with E[h^n] = n!."""
    alpha, p_i = net.alpha_pathloss, net.p_i_interferer_power
    two_pi_beta = 2.0 * math.pi * net.beta_cells_per_area
    return tuple(two_pi_beta * math.factorial(n) * p_i ** n * radius ** (2.0 - n * alpha)
                 / (n * alpha - 2.0) for n in (1, 2, 3))


def _far_field_law(net, radius):
    """Shape, scale and shift of the shifted Gamma law with the far field's
    three cumulants; the shift is positive for every alpha > 2."""
    k1, k2, k3 = _far_field_moments(net, radius)
    shape, scale = 4.0 * k2 ** 3 / (k3 * k3), k3 / (2.0 * k2)
    return shape, scale, k1 - shape * scale


def _far_field(net, edge: float, t_slot: np.ndarray, rng, out) -> np.ndarray:
    """Per-slot interference from beyond max(R, r_slot), in the sampler's
    unit t = pi beta r^2 (``edge`` = pi beta R^2 = pi f^2): one shifted
    Gamma draw per slot with the far field's mean, variance and third
    cumulant, written into out.

    Every slot served from inside the radius shares one law.  The rare slots
    served from beyond it (probability e^(-edge); they draw no interferers)
    are redrawn from the law beyond their own serving distance, the only
    slots whose t is turned back into a distance.
    """
    beta = net.beta_cells_per_area
    shape, scale, shift = _far_field_law(net, math.sqrt(edge / math.pi) / math.sqrt(beta))
    far = rng.standard_gamma(shape, out=out)
    far *= scale  # rng.gamma(shape, scale) bit for bit
    far += shift
    beyond = np.flatnonzero(t_slot > edge)
    if len(beyond):
        shape, scale, shift = _far_field_law(net, np.sqrt(t_slot[beyond] / (math.pi * beta)))
        far[beyond] = rng.gamma(shape, scale) + shift
    return far


def far_field_summary(config: ScenarioConfig) -> dict:
    """The truncation every campaign uses: the radius, the mean number of
    interferer points drawn per slot, and the far field's mean, variance,
    third cumulant and shift beyond the radius (for a slot served from
    inside it)."""
    pi_f2 = math.pi * RADIUS_FACTOR ** 2
    radius = RADIUS_FACTOR / math.sqrt(config.network.beta_cells_per_area)
    mean, var, k3 = _far_field_moments(config.network, radius)
    # pi beta r_u^2 ~ Exp(1), so E[(pi beta (R^2 - r_u^2))^+] = pi f^2 - 1 + e^(-pi f^2)
    return {"radius_factor": RADIUS_FACTOR, "radius": radius,
            "points_per_slot": pi_f2 - 1.0 + math.exp(-pi_f2),
            "mean": mean, "variance": var, "third_cumulant": k3,
            "shift": _far_field_law(config.network, radius)[2]}


def _chunks(offsets):
    """(first slot, end slot) of each chunk of whole slots, in slot order,
    given the slots' point offsets (one more than there are slots): a chunk
    holds up to CHUNK_POINTS points, and a slot with more is a chunk by itself."""
    s0 = 0
    while s0 < len(offsets) - 1:
        s1 = max(int(np.searchsorted(offsets, offsets[s0] + CHUNK_POINTS, side="right")) - 1,
                 s0 + 1)
        yield s0, s1
        s0 = s1


def _uniform_field_sums(rng, marks_rng, m_slot, r2, span, exponent, ws) -> np.ndarray:
    """Per-slot sums of marks * x_sq**exponent over fresh interferer fields:
    slot j has m_slot[j] points, each at squared distance r2 + span * U (in
    any unit) with U uniform from rng, and exponential marks from marks_rng.
    A slot with span 0 must have no points; every slot without points reads 0.

    The positions are drawn in span units: x_sq = span (a + U) with
    a = r2 / span, so each point costs one add and each slot's sum is scaled
    by span**exponent once.  r2 and span are overwritten with a and that
    scale.  The slots are walked in the chunks of ``_chunks``, and each chunk
    writes its sums over its own shifts a once its positions have taken
    them, so the result is r2.  Both streams are drawn in point order, and
    each slot's sum is added in point order from 0, so the result does not
    depend on the chunk size.  The slot offsets and the chunk buffers are the
    workspace ws's; m_slot may be the tail of its "offsets", which then
    become the offsets in place.
    """
    offsets = ws.take("offsets", len(m_slot) + 1, np.int64)
    offsets[0] = 0
    np.cumsum(m_slot, out=offsets[1:])
    room = span > 0.0
    a = np.divide(r2, span, out=r2, where=room)
    scale = np.power(span, exponent, out=span, where=room)  # span-0 slots keep 0
    for s0, s1 in _chunks(offsets):
        lo, hi = offsets[s0], offsets[s1]
        starts = np.subtract(offsets[s0:s1], lo, out=ws.take("starts", s1 - s0, np.int64))
        segment = _kernels.segment_index(starts, hi - lo,
                                         ws.take("segment", hi - lo + 1, np.int64))
        # a + U, its shift taken first: the uniforms pass through the marks
        # buffer (mode="clip" writes into out directly; "raise" buffers it)
        x = np.take(a[s0:s1], segment, mode="clip", out=ws.take("x", hi - lo))
        x += rng.random(out=ws.take("marks", hi - lo))
        marks = marks_rng.standard_exponential(out=ws.take("marks", hi - lo))
        _kernels.interference_powsum(x, exponent, marks, starts, segment, out=a[s0:s1])
    sums = a
    sums *= scale
    return sums


def _serving_ratio(t_slot, h, half_alpha) -> np.ndarray:
    """t_slot**half_alpha / h, written into h; an integer power is multiplies."""
    with np.errstate(divide="ignore"):
        if float(half_alpha).is_integer():
            np.divide(t_slot, h, out=h)
            for _ in range(int(half_alpha) - 1):
                h *= t_slot
        else:
            np.divide(np.power(t_slot, half_alpha), h, out=h)
    return h


def _revenue_batch(config: ScenarioConfig, plan: Numerics, path, n: int,
                   durations, out) -> np.ndarray:
    """One batch of i.i.d. connection revenues from the streams keyed by
    (seed, *path), written into out; ``durations`` is the interval's
    duration law.  Draw order is fixed: distances, durations, products (each
    law only when it has more than one value, ``_draw``), then per-slot
    fading, count uniforms, far fields and interferer positions; the
    interferer marks come from the (seed, *path, "marks") stream.

    A distance is drawn as t = pi beta r^2, which is Exp(1), and the slot
    works in that unit: its interferer count is Poisson((pi f^2 - t)^+), its
    interferer positions are uniform in t on the annulus, and its factor is
    c = gap (sigma^2 + I) r^alpha / (h P0) with r^alpha = t^(alpha/2)
    (pi beta)^(-alpha/2), clipped to [c_min, c_max].  The per-slot arrays
    are a borrowed workspace's; only out leaves the batch.
    """
    net, fin, products = config.network, config.financial, config.products
    alpha = net.alpha_pathloss
    pi_beta = math.pi * net.beta_cells_per_area
    edge = math.pi * RADIUS_FACTOR ** 2  # pi beta R^2
    rng = _stream(plan.seed, *path)
    # one-slot connections are their own slots; otherwise slots follow their user
    one_slot = durations[0].tolist() == [1]

    with _workspace() as ws:
        # a multi-slot batch keeps its users' distances in the far-field
        # buffer until its slots have taken them
        t_user = rng.standard_exponential(out=ws.take("t" if one_slot else "far", n))
        taus = _draw(rng, durations, n)
        gaps = pi_beta ** (-alpha / 2.0) / net.p0_serving_power * _draw(
            rng, products.gap_law(), n)

        if one_slot:
            user_of_slot, t_slot = None, t_user
        else:
            user_of_slot = np.repeat(np.arange(n), taus)
            t_slot = np.take(t_user, user_of_slot, mode="clip",
                             out=ws.take("t", len(user_of_slot)))
            if np.ndim(gaps):  # a one-value product law gave every slot one gap
                gaps = np.take(gaps, user_of_slot, mode="clip",
                               out=ws.take("gaps", len(user_of_slot)))
        n_slots = len(t_slot)
        h = rng.standard_exponential(out=ws.take("h", n_slots))
        span = np.subtract(edge, t_slot, out=ws.take("span", n_slots))
        np.maximum(span, 0.0, out=span)
        # the counts become the slot offsets in place (_uniform_field_sums);
        # their uniforms pass through the far-field buffer before the far fields
        m_slot = _poisson_counts(rng, span, ws.take("offsets", n_slots + 1, np.int64)[1:], ws)
        interference = _far_field(net, edge, t_slot, rng, out=ws.take("far", n_slots))
        # the field sums overwrite t_slot and span, so the serving term comes first
        ratio = _serving_ratio(t_slot, h, alpha / 2.0)
        i_in = _uniform_field_sums(rng, _stream(plan.seed, *path, "marks"), m_slot, t_slot,
                                   span, -alpha / 2.0, ws)
        # the sums are in units of t: x^(-alpha/2) = (pi beta)^(alpha/2) t_x^(-alpha/2)
        i_in *= net.p_i_interferer_power * pi_beta ** (alpha / 2.0)
        interference += i_in

        c = interference
        c += net.sigma2_noise_power
        c *= ratio
        c *= gaps
        np.clip(c, fin.c_min, fin.c_max, out=c)
        if user_of_slot is not None:
            c = np.bincount(user_of_slot, weights=c, minlength=n)
        return np.multiply(c, config.slot_income_per_unit_scaling, out=out)


def _batch_sizes(n: int, batch_size: int) -> list[int]:
    return [min(batch_size, n - pos) for pos in range(0, n, batch_size)]


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask, where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pool_map(fn, jobs) -> None:
    """fn(job) for every job, for its effect, run on the calling thread plus
    one thread per further CPU and further job (one CPU or job starts none).

    Each job draws from its own keyed stream and writes its own output, so
    the results do not depend on the number of threads or the order the jobs
    run in; numpy releases the GIL in the generator fills and the array
    operations.  The threads take the jobs in order; once a job fails no
    further job starts, and the first failing job's exception is raised once
    every started thread has ended.
    """
    workers = min(_cpu_count(), len(jobs))
    failures = {}
    pending = iter(range(len(jobs)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = None if failures else next(pending, None)
            if i is None:
                return
            try:
                fn(jobs[i])
            except BaseException as exc:  # raised in the calling thread
                with lock:
                    failures[i] = exc

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]


def _revenues(config: ScenarioConfig, plan: Numerics, tag: str, n: int,
              interval_index: int) -> np.ndarray:
    """n revenues of one interval in one new array: batches of
    ``plan.mc_batch`` keyed (tag, interval, batch), each written into its own
    slice."""
    durations = config.interval_durations(interval_index)
    revenues = np.empty(n)

    def run(job):
        b, size = job
        lo = b * plan.mc_batch
        _revenue_batch(config, plan, (tag, interval_index, b), size, durations,
                       revenues[lo:lo + size])
    _pool_map(run, list(enumerate(_batch_sizes(n, plan.mc_batch))))
    return revenues


def sample_revenues(config: ScenarioConfig, plan: Numerics, n: int,
                    interval_index: int = 1) -> np.ndarray:
    """n i.i.d. connection revenues V (vectorized, batched, deterministic)."""
    if n < 1:
        raise DomainError(f"need n >= 1 samples, got {n}")
    return _revenues(config, plan, "revenue", n, interval_index)


def estimate_moments(config: ScenarioConfig, plan: Numerics,
                     interval_index: int = 1):
    """Sample raw moments of ``plan.mc_samples`` revenues with delete-1
    jackknife standard errors.

    Returns (MomentVector, standard_errors).
    """
    d = config.numerics.moment_order
    n = plan.mc_samples
    power_sums = np.zeros(2 * d)
    revenues = _revenues(config, plan, "moments", n, interval_index)
    for pos in range(0, n, plan.mc_batch):  # summed in batch order
        v = revenues[pos:pos + plan.mc_batch]
        term = v.copy()
        for s in range(2 * d):
            if s:
                term *= v  # v ** (s + 1) as a running product
            power_sums[s] += float(np.sum(term))
    means = power_sums / n
    raw = means[:d]
    if n > 1:
        variances = np.maximum(means[2 * np.arange(1, d + 1) - 1] - raw ** 2, 0.0)
        se = np.sqrt(variances / (n - 1))
    else:
        se = np.zeros(d)
    return MomentVector(raw=raw), se


@dataclass(frozen=True)
class MCRuinEstimate:
    """Empirical ruin frequencies with Wilson 95% intervals."""

    psi: np.ndarray          # (horizon, n_u)
    ci_lo: np.ndarray
    ci_hi: np.ndarray


def _wilson(p_hat: np.ndarray, n: int):
    z = WILSON_Z
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * np.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)) / denom
    return np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0)


def _within_campaign_budget(what: str, n_floats: int) -> None:
    """Raise ResourceLimitError when an array of n_floats floats would exceed
    ``CAMPAIGN_BYTES_BUDGET``."""
    if 8 * n_floats > CAMPAIGN_BYTES_BUDGET:
        raise ResourceLimitError(
            f"surplus-path campaign needs {8 * n_floats / 2**20:.0f} MiB for {what}, "
            f"over montecarlo.CAMPAIGN_BYTES_BUDGET = {CAMPAIGN_BYTES_BUDGET / 2**20:.0f} MiB")


def _subtract_fees(revenues, fee_law, rng) -> None:
    """Subtract from each revenue one fee drawn from the fee law, in pieces
    of CHUNK_POINTS, so the draw's uniforms, indices and fees stay small;
    rng draws them in order, as in one piece.  No view of the revenues
    outlives the call."""
    for lo in range(0, len(revenues), CHUNK_POINTS):
        piece = revenues[lo:lo + CHUNK_POINTS]
        piece -= _draw(rng, fee_law, len(piece))


def simulate_surplus_paths(config: ScenarioConfig, plan: Numerics,
                           u_values) -> MCRuinEstimate:
    """Empirical ruin probabilities over the configured horizon.

    Simulates per-interval net profits (geometric user counts, full revenue
    sampling per user, operator fees), discounts them onto the initial-capital
    axis, and evaluates the running minimum against every requested u --
    common random numbers across the whole u sweep by construction.  The
    intervals are drawn one at a time, each from its own keyed streams, and
    reduced to one row of per-path discounted profits, so a campaign holds
    one interval's revenues at a time beside the horizon x paths profits.
    Either array over ``CAMPAIGN_BYTES_BUDGET`` raises ResourceLimitError
    before it is allocated: the profits before any draw, an interval's
    revenues once its user counts are drawn.
    """
    fin = config.financial
    horizon = fin.horizon_intervals
    w = fin.w_n_geometric
    r = fin.interest_rate_per_interval
    n_paths = plan.mc_paths
    u_values = np.asarray(u_values, dtype=float)
    bad = u_values[~np.isfinite(u_values)]
    if len(bad):
        raise DomainError(f"initial capitals must be finite, got {bad[0]}")

    fee_law = fin.fee_law()
    _within_campaign_budget(f"{horizon} x {n_paths} discounted profits", horizon * n_paths)
    discounted = np.zeros((horizon, n_paths))
    for interval in range(1, horizon + 1):
        n_users = _stream(plan.seed, "path-count", interval).geometric(w, size=n_paths) - 1
        total = int(n_users.sum())
        _within_campaign_budget(f"the {total} revenues of interval {interval}", total)
        revenues = _revenues(config, plan, "path-rev", total, interval)
        _subtract_fees(revenues, fee_law, _stream(plan.seed, "path-fee", interval))
        # paths without users keep a net profit of 0
        served = np.flatnonzero(n_users)
        first_user = np.concatenate(([0], np.cumsum(n_users)[:-1]))
        s_net = np.add.reduceat(revenues, first_user[served])
        discounted[interval - 1, served] = s_net / (1.0 + r) ** interval
        del revenues  # before the next interval's are drawn

    np.cumsum(discounted, axis=0, out=discounted)
    running_min = np.minimum.accumulate(discounted, axis=0, out=discounted)
    psi = np.empty((horizon, len(u_values)))
    for j, u in enumerate(u_values):
        psi[:, j] = np.mean(running_min < -u, axis=1)
    ci_lo, ci_hi = _wilson(psi, n_paths)
    return MCRuinEstimate(psi=psi, ci_lo=ci_lo, ci_hi=ci_hi)
