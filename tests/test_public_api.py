"""The public surface: what ``import feynpath`` exports, and the README
example that uses it."""

import pathlib
import re

import feynpath

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# The public API.  A name added or removed here goes with its tests and
# a line in CHANGES.md.
PUBLIC_API = [
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
    "gaussian_moment",
    "identity_element",
    "inner_with_a",
    "mc_fsi",
    "monomial_summary",
    "odot",
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


def test_public_api_is_pinned():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert feynpath.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(feynpath, name) is not None, name


def test_readme_quickstart_runs():
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md (Library quickstart)", "exec"), namespace)
    assert namespace["report"].passed
