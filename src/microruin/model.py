"""Scenario configuration: parameter blocks, JSON round trip and validation.

The scenario config is a single JSON document shared by the analytic and
Monte Carlo paths so both always see identical parameters.  Field names state
explicit units; currency fields are abstract units (the slot income for a
unit scaling factor, ``T * rho``, is 1 in the reference setup).

Reference defaults: one operator (fee 100 per connection), interference
limited (``sigma2 = 0``), unit transmit powers, geometric user-count
parameter ``w_n = 0.2``, single product, one-month compounding interval.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from hashlib import sha256

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "NetworkParams",
    "FinancialParams",
    "ProductParams",
    "DurationModel",
    "Numerics",
    "ScenarioConfig",
    "validate",
    "default_config",
    "load_config",
    "INTEGER_FIELDS",
]

CONFIG_ENV_VAR = "MICRORUIN_CONFIG"


# ----------------------------------------------------------------------
# Parameter blocks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkParams:
    """Small-cell layer parameters."""

    beta_cells_per_area: float = 0.1
    alpha_pathloss: float = 4.0
    p0_serving_power: float = 1.0
    p_i_interferer_power: float = 1.0
    sigma2_noise_power: float = 0.0
    bandwidth_hz: float = 1.0
    slot_duration_s: float = 1.0


@dataclass(frozen=True)
class FinancialParams:
    """Pricing, leasing and compounding parameters.

    ``operator_fees`` maps operator index -> per-connection fee; ``operator_mix``
    is the subscription PMF over the same indices.  ``w_n_geometric`` is the
    parameter of the per-interval user count N: Pr(N = u) = (1-w)^u w.
    """

    premium_rate_per_slot: float = 1.0
    c_min: float = 0.001
    c_max: float = 1000.0
    operator_fees: dict = field(default_factory=lambda: {1: 100.0})
    operator_mix: dict = field(default_factory=lambda: {1: 1.0})
    interest_rate_per_interval: float = 0.05
    initial_capital: float = 100.0
    w_n_geometric: float = 0.2
    horizon_intervals: int = 5

    def fee_law(self):
        """The law (``_law``) of one connection's operator fee, over the
        operators of ``operator_mix`` in index order."""
        ops = sorted(self.operator_mix)
        return _law(np.array([self.operator_fees[k] for k in ops], dtype=float),
                    [self.operator_mix[k] for k in ops])


@dataclass(frozen=True)
class ProductParams:
    """QoS products expressed as SNR-like rate gaps A = 2^(R/B) - 1 (a config
    document may give the rates R as ``rates_bps`` instead)."""

    rate_gaps: tuple = (100.0,)
    product_mix: tuple = (1.0,)

    def gap_law(self):
        """The law (``_law``) of one connection's rate gap, in product order."""
        return _law(np.array(self.rate_gaps, dtype=float), self.product_mix)


@dataclass(frozen=True)
class DurationModel:
    """Connection-duration distribution on positive integer slot counts.

    kind is one of ``deterministic`` (field ``tau``), ``truncated-geometric``
    (fields ``mean``, ``tau_max``) or ``explicit-pmf`` (fields ``support``,
    ``probs``).  ``per_interval_override`` optionally replaces the model for
    specific compounding intervals (``ScenarioConfig.interval_durations``
    applies it, and can truncate the law to the system age).
    """

    # Default mean 1.0 is calibrated: it reproduces the reference mean revenue
    # 76.5 at pathloss 3 (the per-slot mean is 76.5157, so the duration mean
    # is pinned to 76.5 / 76.5157 ~= 1, i.e. single-slot connections).
    kind: str = "truncated-geometric"
    tau: int | None = None
    mean: float | None = 1.0
    tau_max: int | None = 5
    support: tuple | None = None
    probs: tuple | None = None
    per_interval_override: dict = field(default_factory=dict)

    def pmf(self):
        """The law (``_law``) of the declared durations, in support order."""
        return _law(*self._declared_pmf())

    def _declared_pmf(self):
        """(values, probabilities) over the whole declared support."""
        if self.kind == "deterministic":
            return np.array([int(self.tau)]), np.array([1.0])
        if self.kind == "explicit-pmf":
            values = np.asarray(self.support, dtype=int)
            probs = np.asarray(self.probs, dtype=float)
            if values.shape != probs.shape:
                raise DomainError(f"support has {values.size} values but probs has "
                                  f"{probs.size}")
            return values, probs
        if self.kind == "truncated-geometric":
            values = np.arange(1, int(self.tau_max) + 1)
            # p = 0 is the uniform limit and p = 1 the point mass at 1
            probs = (1.0 - self._geometric_p) ** (values - 1.0)
            return values, probs / probs.sum()
        raise DomainError(f"unknown duration model kind {self.kind!r}")

    @cached_property
    def _geometric_p(self) -> float:
        """The truncated-geometric success probability, solved once per model."""
        return _solve_truncated_geometric(self.mean, int(self.tau_max))


def _law(values, probs):
    """(values, probabilities) as numpy arrays of the law a config writes:
    values of probability zero are dropped, equal values merge into their
    first occurrence, and the written order is kept.  So a law does not
    depend on how it is written, and one already written this way keeps its
    arrays."""
    values, probs = np.asarray(values).tolist(), np.asarray(probs, dtype=float).tolist()
    merged = {}  # insertion order: each value's first occurrence
    for value, p in zip(values, probs):
        if p > 0.0:
            merged[value] = merged.get(value, 0.0) + p
    return np.array(list(merged)), np.array(list(merged.values()))


def _solve_truncated_geometric(mean: float, tau_max: int) -> float:
    """Success probability p such that the {1..tau_max}-truncated geometric has
    the requested mean.  p = 0 denotes the uniform limit."""
    uniform_mean = (tau_max + 1) / 2.0
    if abs(mean - uniform_mean) < 1e-12:
        return 0.0
    if abs(mean - 1.0) < 1e-12:
        return 1.0
    if not (1.0 <= mean < uniform_mean):
        raise DomainError(
            f"truncated-geometric mean must lie in [1, {uniform_mean}], got {mean}"
        )

    def mean_at(p):
        t = np.arange(1, tau_max + 1)
        w = (1.0 - p) ** (t - 1.0)
        return float(np.dot(t, w) / w.sum())

    # the mean falls as p rises; bisect until the midpoint stops moving
    # (about 55 halvings), after which further halvings repeat it
    lo, hi = 1e-12, 1.0 - 1e-12
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        if mean_at(mid) > mean:
            lo = mid
        else:
            hi = mid
        mid, last = 0.5 * (lo + hi), mid
        if mid == last:
            break
    return mid


@dataclass(frozen=True)
class Numerics:
    """Tolerances, discretization steps and sampling budgets; the Monte Carlo
    entry points take this block as their plan."""

    quad_rel_tol: float = 1e-8
    moment_order: int = 4
    lattice_step: float | None = None          # default (v_hi + max fee) / 2048
    tail_eps: float = 1e-12
    mc_samples: int = 1_000_000
    mc_paths: int = 20_000
    mc_batch: int = 65_536
    truncate_durations_to_interval: bool = False
    seed: int = 20260808


@dataclass(frozen=True)
class ScenarioConfig:
    network: NetworkParams = field(default_factory=NetworkParams)
    financial: FinancialParams = field(default_factory=FinancialParams)
    products: ProductParams = field(default_factory=ProductParams)
    durations: DurationModel = field(default_factory=DurationModel)
    numerics: Numerics = field(default_factory=Numerics)

    @property
    def slot_income_per_unit_scaling(self) -> float:
        """T * rho: income per slot per unit scaling factor."""
        return self.network.slot_duration_s * self.financial.premium_rate_per_slot

    def interval_durations(self, interval_index: int = 1):
        """The duration law (values, probabilities) of one compounding
        interval: its override's, if any, truncated to {1..i} under
        ``numerics.truncate_durations_to_interval``."""
        values, probs = self.durations.per_interval_override.get(
            interval_index, self.durations).pmf()
        if not self.numerics.truncate_durations_to_interval:
            return values, probs
        keep = values <= interval_index
        if not keep.any():
            raise DomainError(
                f"duration support is empty after truncation to interval {interval_index}")
        return values[keep], probs[keep] / probs[keep].sum()

    def income_support(self, interval_index: int = 1):
        """(v_lo, v_hi) for one connection in the given interval."""
        values, _ = self.interval_durations(interval_index)
        unit = self.slot_income_per_unit_scaling
        return (int(values.min()) * self.financial.c_min * unit,
                int(values.max()) * self.financial.c_max * unit)

    def to_dict(self) -> dict:
        """The JSON document of this config: every field of every section."""
        out = {section: {f.name: _jsonable(getattr(getattr(self, section), f.name))
                         for f in fields(getattr(self, section))}
               for section in ("network", "financial", "products", "numerics")}
        out["durations"] = _duration_to_dict(self.durations)
        return out

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Build a config from its JSON document; fields left out keep their defaults.

        ``products.rates_bps`` gives the rate gaps as rates over
        ``network.bandwidth_hz``.  Raises ConfigError naming the field path of
        every unknown section or field, every operator key that is not an
        integer, a rate or bandwidth that gives no finite positive gap, and
        ``rates_bps`` given together with ``rate_gaps``.
        """
        cfg = cls()
        errors = [(name, "unknown section") for name in sorted(set(data) - set(_SECTIONS))]
        net, fin, prod, num = (_known_fields(errors, name, data.get(name, {}), name)
                               for name in ("network", "financial", "products", "numerics"))
        for name in ("operator_fees", "operator_mix"):
            if name in fin:
                fin[name] = _operator_map(errors, f"financial.{name}", fin[name])
        for name in ("rate_gaps", "product_mix", "rates_bps"):
            if name in prod:
                prod[name] = _as_tuple(errors, f"products.{name}", prod[name])
        if "rates_bps" in prod:
            if "rate_gaps" in prod:
                errors.append(("products.rates_bps", "give rate_gaps or rates_bps, not both"))
            prod["rate_gaps"] = _rate_gaps(errors, prod.pop("rates_bps"),
                                           net.get("bandwidth_hz", cfg.network.bandwidth_hz))
        dur = data.get("durations")
        durations = (_duration_from_dict(errors, "durations", dur) if dur is not None
                     else cfg.durations)
        if errors:
            raise ConfigError(errors)
        network = replace(cfg.network, **net)
        financial = replace(cfg.financial, **fin)
        products = replace(cfg.products, **prod)
        numerics = replace(cfg.numerics, **num)
        return cls(network=network, financial=financial, products=products,
                   durations=durations, numerics=numerics)


# the dotted paths of the fields that hold integers
INTEGER_FIELDS = frozenset(
    f"{section}.{f.name}"
    for section, block in (("network", NetworkParams), ("financial", FinancialParams),
                           ("numerics", Numerics))
    for f in fields(block) if f.type == "int")

# the fields each config section accepts
_SECTIONS = {
    "network": {f.name for f in fields(NetworkParams)},
    "financial": {f.name for f in fields(FinancialParams)},
    "products": {"rate_gaps", "product_mix", "rates_bps"},
    "durations": {f.name for f in fields(DurationModel)},
    "numerics": {f.name for f in fields(Numerics)},
}


def _known_fields(errors, path: str, block, section: str) -> dict:
    """The fields of ``block`` that ``section`` accepts; every other key (and
    a block that is not a JSON object) is an error at its path."""
    if not isinstance(block, dict):
        errors.append((path, "must be a JSON object"))
        return {}
    errors += [(f"{path}.{key}", "unknown field")
               for key in sorted(set(block) - _SECTIONS[section])]
    return {key: value for key, value in block.items() if key in _SECTIONS[section]}


def _as_tuple(errors, path: str, value) -> tuple:
    """A JSON list as a tuple; any other value is an error at ``path``."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    errors.append((path, "must be a JSON list"))
    return ()


def _rate_gaps(errors, rates, bandwidth) -> tuple:
    """Rate gaps 2^(R/B) - 1 of the rates R in bps over the bandwidth B in Hz;
    a bandwidth, or a rate whose 2^(R/B) is not a float above 1, is an error
    at its path."""
    if not (_is_number(bandwidth) and bandwidth > 0):
        errors.append(("network.bandwidth_hz", "bandwidth must be a positive finite number"))
        return ()
    if not all(_is_number(r) and r / bandwidth < 1024 and 2.0 ** (r / bandwidth) > 1.0
               for r in rates):
        errors.append(("products.rates_bps", "rates R must be numbers with 1 < 2^(R/B) "
                       f"and R < 1024 B, B = {bandwidth:g} Hz"))
        return ()
    return tuple(2.0 ** (r / bandwidth) - 1.0 for r in rates)


def _as_dict(errors, path: str, value) -> dict:
    """A JSON object as it is; any other value is an error at ``path``."""
    if isinstance(value, dict):
        return value
    errors.append((path, "must be a JSON object"))
    return {}


def _operator_map(errors, path: str, mapping: dict) -> dict:
    """Integer operator keys; numeric values as floats (``validate`` reports others)."""
    out = {}
    for key, value in _as_dict(errors, path, mapping).items():
        if str(key).lstrip("-").isdigit():
            out[int(key)] = float(value) if isinstance(value, (int, float)) else value
        else:
            errors.append((f"{path}.{key}", "operator key must be an integer"))
    return out


def _jsonable(value):
    """Tuples as JSON lists, and maps with the string keys JSON objects have."""
    if isinstance(value, dict):
        return {str(k): v for k, v in value.items()}
    return list(value) if isinstance(value, tuple) else value


def _duration_to_dict(dur: DurationModel) -> dict:
    out = {"kind": dur.kind}
    if dur.kind == "deterministic":
        out["tau"] = dur.tau
    elif dur.kind == "truncated-geometric":
        out["mean"] = dur.mean
        out["tau_max"] = dur.tau_max
    elif dur.kind == "explicit-pmf":
        out["support"] = list(dur.support)
        out["probs"] = list(dur.probs)
    if dur.per_interval_override:
        out["per_interval_override"] = {
            str(i): _duration_to_dict(m) for i, m in dur.per_interval_override.items()
        }
    return out


def _duration_from_dict(errors, path: str, data) -> DurationModel:
    data = _known_fields(errors, path, data, "durations")
    override = {}
    overrides = _as_dict(errors, f"{path}.per_interval_override",
                         data.get("per_interval_override", {}))
    for i, model in overrides.items():
        where = f"{path}.per_interval_override.{i}"
        try:
            index = int(i)
        except (TypeError, ValueError):
            errors.append((where, "interval key must be an integer"))
            continue
        override[index] = _duration_from_dict(errors, where, model)
    kind = data.get("kind", "truncated-geometric")
    support, probs = (_as_tuple(errors, f"{path}.{name}", data[name]) if name in data else None
                      for name in ("support", "probs"))
    return DurationModel(
        kind=kind,
        tau=data.get("tau"),
        mean=data.get("mean"),
        tau_max=data.get("tau_max"),
        support=support,
        probs=probs,
        per_interval_override=override,
    )


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

def _check_pmf(errors, path, probs):
    probs = np.asarray(probs, dtype=float)
    if (probs < 0).any():
        errors.append((path, "probabilities must be nonnegative"))
    if abs(probs.sum() - 1.0) > 1e-9:
        errors.append((path, f"mix must sum to 1 (got {probs.sum():.6g})"))


# the slot-count fields each duration kind reads
_SLOT_COUNTS = {"deterministic": "tau", "truncated-geometric": "tau_max",
                "explicit-pmf": "support"}


def _check_durations(errors, path, dur):
    """Integer slot counts (a field path names a bad one), then the PMF itself."""
    name = _SLOT_COUNTS.get(dur.kind)
    counts = np.ravel(np.array(getattr(dur, name), dtype=object)) if name else ()
    if not all(isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
               and float(v).is_integer() for v in counts):
        errors.append((f"{path}.{name}", "slot counts must be integers"))
        return
    try:
        values, probs = dur._declared_pmf()
    except (TypeError, ValueError) as exc:  # DomainError, or a value that is not a number
        errors.append((path, str(exc)))
        return
    if (values < 1).any():
        errors.append((path, "duration support must be positive integers"))
    _check_pmf(errors, path, probs)


def _is_number(value) -> bool:
    """A finite int or float (bools and infinities are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    return not isinstance(value, (float, np.floating)) or math.isfinite(value)


def _check_numeric_fields(errors, config):
    """Reject non-numeric and non-finite values before invariant checks (clear
    field paths)."""
    for section in ("network", "financial", "products", "numerics"):
        block = getattr(config, section)
        for f in fields(block):
            value = getattr(block, f.name)
            path = f"{section}.{f.name}"
            if isinstance(value, (dict, tuple, list)):
                if f.name in ("operator_fees", "operator_mix"):
                    errors.extend((f"{path}.{k}", "value must be a finite number")
                                  for k, v in value.items() if not _is_number(v))
                elif f.name in ("rate_gaps", "product_mix"):
                    if not all(_is_number(v) for v in value):
                        errors.append((path, "values must be finite numbers"))
                continue
            if value is None or isinstance(value, bool):
                continue
            if not _is_number(value):
                errors.append((path, f"value must be a finite number, got {value!r}"))
            elif path in INTEGER_FIELDS and not isinstance(value, (int, np.integer)):
                errors.append((path, f"value must be an integer, got {value}"))
    return errors


def validate(config: ScenarioConfig) -> ScenarioConfig:
    """Check every config invariant; raise ConfigError listing all violations."""
    errors = []
    _check_numeric_fields(errors, config)
    if errors:
        raise ConfigError(errors)
    net, fin, prod, dur, num = (config.network, config.financial, config.products,
                                config.durations, config.numerics)

    if not net.beta_cells_per_area > 0:
        errors.append(("network.beta_cells_per_area", "small-cell density must be positive"))
    if not net.alpha_pathloss > 2.0:
        errors.append(("network.alpha_pathloss", "alpha must exceed 2"))
    if not net.p0_serving_power > 0:
        errors.append(("network.p0_serving_power", "serving power must be positive"))
    if not net.p_i_interferer_power > 0:
        errors.append(("network.p_i_interferer_power", "interferer power must be positive"))
    if net.sigma2_noise_power < 0:
        errors.append(("network.sigma2_noise_power", "noise variance must be nonnegative"))
    if not net.bandwidth_hz > 0:
        errors.append(("network.bandwidth_hz", "bandwidth must be positive"))
    if not net.slot_duration_s > 0:
        errors.append(("network.slot_duration_s", "slot duration must be positive"))

    if not fin.premium_rate_per_slot > 0:
        errors.append(("financial.premium_rate_per_slot", "premium rate must be positive"))
    if not (0 < fin.c_min < fin.c_max < math.inf):
        # equal clamps make the income a point mass, which the density
        # expansion cannot map onto its unit interval
        errors.append(("financial.c_min", "need 0 < c_min < c_max < inf, got "
                       f"c_min={fin.c_min:g}, c_max={fin.c_max:g}"))
    if fin.interest_rate_per_interval < 0:
        errors.append(("financial.interest_rate_per_interval", "interest rate must be >= 0"))
    if not (0 < fin.w_n_geometric < 1):
        errors.append(("financial.w_n_geometric", "w_n must lie in (0, 1)"))
    if fin.horizon_intervals < 1:
        errors.append(("financial.horizon_intervals", "horizon must be >= 1 interval"))
    if any(v < 0 for v in fin.operator_fees.values()):
        errors.append(("financial.operator_fees", "fees must be nonnegative"))
    if set(fin.operator_mix) - set(fin.operator_fees):
        errors.append(("financial.operator_mix", "mix references operators without fees"))
    _check_pmf(errors, "financial.operator_mix", list(fin.operator_mix.values()))

    if len(prod.rate_gaps) < 1:
        errors.append(("products.rate_gaps", "need at least one product"))
    if any(g <= 0 for g in prod.rate_gaps):
        errors.append(("products.rate_gaps", "rate gaps must be positive"))
    if len(prod.product_mix) != len(prod.rate_gaps):
        errors.append(("products.product_mix", "mix length must match product count"))
    else:
        _check_pmf(errors, "products.product_mix", prod.product_mix)

    _check_durations(errors, "durations", dur)
    for i, override in dur.per_interval_override.items():
        _check_durations(errors, f"durations.per_interval_override.{i}", override)

    if num.moment_order < 2:
        errors.append(("numerics.moment_order", "moment order d must be >= 2"))
    if num.lattice_step is not None and not num.lattice_step > 0:
        errors.append(("numerics.lattice_step", "lattice step must be positive"))
    if not (0 < num.tail_eps < 1):
        errors.append(("numerics.tail_eps", "tail_eps must lie in (0, 1)"))
    if num.mc_samples < 1 or num.mc_paths < 1:
        errors.append(("numerics.mc_samples", "sample counts must be positive"))
    if num.mc_batch < 1:
        errors.append(("numerics.mc_batch", "batch size must be positive"))

    if errors:
        raise ConfigError(errors)
    return config


def default_config() -> ScenarioConfig:
    """Reference defaults; the duration mean is calibrated so the analytic
    mean revenue reproduces 76.5 at alpha = 3 (see README)."""
    return ScenarioConfig()


def load_config(path=None) -> ScenarioConfig:
    """Load a config from a JSON file, the MICRORUIN_CONFIG env var, or defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return default_config()
    with open(path) as fh:
        return ScenarioConfig.from_dict(json.load(fh))
