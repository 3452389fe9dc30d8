"""Stochastic calculus over generalized Brownian motion paths.

The library simulates Gaussian paths with mean profile a(t) and variance
profile b(t), evaluates discrete stochastic integrals of
bounded-variation densities, and computes analytic Feynman integrals of
monomial functionals in closed form, with Monte Carlo verification of
the translation, integration-by-parts, and Cameron-Storvick identities.
"""

from .errors import (
    BadDomain,
    ConfigError,
    DomainMismatch,
    FeynpathError,
    GridMismatch,
    NonPositiveVariance,
    ProfileMismatch,
    SupportViolation,
    TooLargeDegree,
    UnsupportedFunctional,
    ZeroParameter,
)
from .piecewise import PiecewisePoly
from .measure import (
    MeasureKind,
    ProfilePair,
    ValidationReport,
    build_profile,
    stieltjes_integral,
    validate_profile,
)
from .cameron_martin import (
    CMElement,
    SuppElement,
    cm_inner,
    gram_schmidt,
    identity_element,
    inner_with_a,
    odot,
    phi_t,
)
from .paths import (
    DEFAULT_GRID_N,
    MeanCovTable,
    PathEnsemble,
    TimeGrid,
    gamma_beta,
    pwz_integral,
    sample_gbmp_paths,
    stream_increments,
    z_process_path,
    z_shift_path,
)
from .feynman import (
    ComplexParam,
    CosLinear,
    ExpLinear,
    FunctionalSpec,
    GaussianSummary,
    MonomialSpec,
    analytic_fsi_monomial,
    cameron_storvick_residual,
    feynman_monomial,
    first_variation,
    functional_value,
    gaussian_moment,
    monomial_summary,
    wick_moment,
)
from .montecarlo import (
    IdentityReport,
    MCReport,
    mc_fsi,
    verify_cs_precursor,
    verify_parts,
    verify_translation,
)

__version__ = "0.1.0"

__all__ = [
    "BadDomain",
    "CMElement",
    "ComplexParam",
    "ConfigError",
    "CosLinear",
    "DEFAULT_GRID_N",
    "DomainMismatch",
    "ExpLinear",
    "FeynpathError",
    "FunctionalSpec",
    "GaussianSummary",
    "GridMismatch",
    "IdentityReport",
    "MCReport",
    "MeanCovTable",
    "MeasureKind",
    "MonomialSpec",
    "NonPositiveVariance",
    "PathEnsemble",
    "PiecewisePoly",
    "ProfileMismatch",
    "ProfilePair",
    "SuppElement",
    "SupportViolation",
    "TimeGrid",
    "TooLargeDegree",
    "UnsupportedFunctional",
    "ValidationReport",
    "ZeroParameter",
    "analytic_fsi_monomial",
    "build_profile",
    "cameron_storvick_residual",
    "cm_inner",
    "feynman_monomial",
    "first_variation",
    "functional_value",
    "gamma_beta",
    "gaussian_moment",
    "gram_schmidt",
    "identity_element",
    "inner_with_a",
    "mc_fsi",
    "monomial_summary",
    "odot",
    "phi_t",
    "pwz_integral",
    "sample_gbmp_paths",
    "stieltjes_integral",
    "stream_increments",
    "validate_profile",
    "verify_cs_precursor",
    "verify_parts",
    "verify_translation",
    "wick_moment",
    "z_process_path",
    "z_shift_path",
]
