"""Financial viability of facility-operated small-cell sharing.

Analytic pipeline (revenue moments -> orthogonal-polynomial income density ->
lattice compound distributions -> finite-horizon ruin recursion) with an
integrated Monte Carlo simulator cross-validating every stage.
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    MicroruinError,
    ResourceLimitError,
    SupportError,
)
from .model import (
    DurationModel,
    FinancialParams,
    NetworkParams,
    Numerics,
    ProductParams,
    ScenarioConfig,
    default_config,
    load_config,
    validate,
)
from .moments import MomentVector, revenue_moments
from .income_pdf import ExpandedDensity, expand_density, sanitize
from .compound import LatticePMF, compound_geometric_pmf, discretize_income
from .ruin import RuinResult, initial_capital_bound, run_pipeline, survival_recursion
from .montecarlo import estimate_moments, sample_revenues, simulate_surplus_paths

__all__ = [
    "MicroruinError", "ConfigError", "DomainError", "AccuracyError",
    "SupportError", "ResourceLimitError",
    "ScenarioConfig", "NetworkParams", "FinancialParams", "ProductParams",
    "DurationModel", "Numerics", "default_config", "load_config", "validate",
    "MomentVector", "revenue_moments",
    "ExpandedDensity", "expand_density", "sanitize",
    "LatticePMF", "discretize_income", "compound_geometric_pmf",
    "RuinResult", "run_pipeline", "survival_recursion", "initial_capital_bound",
    "sample_revenues", "estimate_moments", "simulate_surplus_paths",
]
