"""Monte Carlo estimates and statistical verification of the identities.

Every identity check evaluates both sides on the same path ensemble
(common random numbers): where the algebra forces pathwise equality
(null shift, constant functionals) the discrepancy is exactly zero, and
elsewhere the variance of the difference is what sets the reported
standard error.  Estimates stream over fixed path blocks, so memory
stays bounded and results are independent of batching; accumulation
uses numpy's pairwise summation over per-path values, which is
deterministic for a given (seed, grid, n).

A check sees the paths only through their stochastic-integral columns,
the projections of the increments onto the check's density matrix
(``identity_densities``).  The ensemble is keyed by (profile, grid, n,
seed), so checks with the same key can share one draw:
``draw_columns`` fills each block's normals once and projects them
onto every distinct matrix, and the identity checks take the result as
``columns=``.  It alone decides what a draw shares: only whole matrices
of equal shape and bytes, which get one array.  Columns are never
merged into a wider matrix or picked out of one, because the bits of a
BLAS product can depend on the width of the matrix; so a shared draw
gives every check the same columns, to the bit, as a draw of its own.

Integrability of the compared functionals is a hypothesis of the
identities, not something a sampler can certify; reports carry an
``assumptions`` field naming what was taken on faith.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .cameron_martin import (CMElement, SuppElement, _require_same_profile, cm_inner,
                             inner_with_a, odot)
from .errors import BadDomain
from .feynman import (ExpLinear, FunctionalSpec, _direction_scalars, _linear_factors, _value_at,
                      _variation_at)
from .paths import TimeGrid, left_density, stream_increments

DEFAULT_SIGMA_THRESHOLD = 3.0
_EXACT_TOL = 1e-12


@dataclass(frozen=True)
class MCReport:
    """One Monte Carlo estimate with its combined standard error.

    ``wall_time`` is the seconds from the drawn columns to the estimate:
    the per-path evaluation and the reduction, not the draw, which may
    be shared with other checks (``feynpath verify`` reports it as the
    check's ``draw``)."""

    estimate: complex
    std_error: float
    n_paths: int
    grid_size: int
    seed: int
    wall_time: float
    assumptions: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "estimate": {"re": self.estimate.real, "im": self.estimate.imag},
            "std_error": self.std_error,
            "n_paths": self.n_paths,
            "grid_size": self.grid_size,
            "seed": self.seed,
            "wall_time": self.wall_time,
            "assumptions": list(self.assumptions),
        }


@dataclass(frozen=True)
class IdentityReport:
    """Two coupled estimates and their sigma-distance: sigma_ratio is
    discrepancy / diff_se, the standard error of the per-path LHS - RHS."""

    lhs: MCReport
    rhs: MCReport
    discrepancy: float
    diff_se: float
    sigma_ratio: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.sigma_ratio < self.threshold

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs.to_dict(),
            "rhs": self.rhs.to_dict(),
            "discrepancy": self.discrepancy,
            "diff_se": self.diff_se,
            "sigma_ratio": self.sigma_ratio,
            "threshold": self.threshold,
            "pass": self.passed,
        }


def _mean_se(vals: np.ndarray):
    n = vals.shape[0]
    mean = complex(vals.mean())
    if n < 2:
        return mean, 0.0
    if np.iscomplexobj(vals):
        centered = vals - mean
        sq = np.mean(centered.real**2) + np.mean(centered.imag**2)
    else:  # the same bits without a complex temporary: the imaginary part adds 0.0
        sq = np.mean((vals - mean.real) ** 2)
    var = float(sq) * n / (n - 1)
    return mean, float(np.sqrt(var / n))


def _densities(elements, grid: TimeGrid) -> np.ndarray:
    return np.column_stack([left_density(e, grid) for e in elements])


def draw_columns(profile, grid: TimeGrid, n: int, seed: int, densities) -> list:
    """The stochastic-integral columns of n paths of (profile, grid,
    seed) on each (N, c_i) density matrix: one read-only (n, c_i) array
    per matrix, in order, from one pass over the Philox stream.

    Matrices of equal shape and bytes are projected once, in the order
    they are first seen, and get the same array object; each distinct
    matrix is projected on its own, so its columns are bit-identical to
    a draw onto that matrix alone."""
    mats = [np.asarray(D, dtype=float) for D in densities]
    keys = [(D.shape, D.tobytes()) for D in mats]
    distinct = dict(zip(keys, mats))
    out = {key: np.empty((n, D.shape[1])) for key, D in distinct.items()}
    for p0, chunks in stream_increments(profile, grid, n, seed, onto=list(distinct.values())):
        for cols, chunk in zip(out.values(), chunks):
            cols[p0 : p0 + chunk.shape[0]] = chunk
    for cols in out.values():
        cols.flags.writeable = False
    return [out[key] for key in keys]


def identity_densities(F: FunctionalSpec, theta: CMElement, k1: SuppElement, k2: SuppElement,
                       grid: TimeGrid) -> np.ndarray:
    """The (N, c) matrix the translation, parts and cs-precursor checks
    of F project onto: the left densities of u (.) k1 for the linear
    factors u of F, then of theta (.) k2."""
    return _densities([odot(u, k1) for u in _linear_factors(F)] + [odot(theta, k2)], grid)


def _functional_assumptions(F: FunctionalSpec) -> tuple[str, ...]:
    notes = ["integrability of the compared functionals is assumed, not tested"]
    if isinstance(F, ExpLinear) and abs(complex(F.c).real) > 0.0:
        notes.append("unbounded exponential accepted via allow_unbounded; heavy tails possible")
    return tuple(notes)


def _report(F, vals, n, grid, seed, t0):
    mean, se = _mean_se(vals)
    return MCReport(
        estimate=mean,
        std_error=se,
        n_paths=n,
        grid_size=grid.N,
        seed=seed,
        wall_time=time.perf_counter() - t0,
        assumptions=_functional_assumptions(F),
    )


def _identity_report(F, lhs_vals, rhs_vals, n, grid, seed, threshold, t0):
    lhs = _report(F, lhs_vals, n, grid, seed, t0)
    rhs = _report(F, rhs_vals, n, grid, seed, t0)
    diff_mean, diff_se = _mean_se(lhs_vals - rhs_vals)
    discrepancy = abs(diff_mean)
    scale = max(1.0, abs(lhs.estimate), abs(rhs.estimate))
    if diff_se == 0.0:
        sigma = 0.0 if discrepancy <= _EXACT_TOL * scale else np.inf
    else:
        sigma = discrepancy / diff_se
    return IdentityReport(
        lhs=lhs, rhs=rhs, discrepancy=discrepancy, diff_se=diff_se,
        sigma_ratio=float(sigma), threshold=threshold,
    )


def _profile_and_grid(F: FunctionalSpec, elements, grid):
    """F's profile, once every element is checked to share it, and the
    grid: the given one, or a default grid through every breakpoint of
    F's linear factors and the elements."""
    factors = _linear_factors(F)
    profile = _require_same_profile(*(factors or [F.theta]), *elements)
    if grid is None:
        grid = TimeGrid.build(profile, factors + list(elements))
    return profile, grid


def mc_fsi(
    F: FunctionalSpec,
    k: SuppElement,
    lambda_real: float,
    n: int,
    seed: int,
    grid: TimeGrid | None = None,
) -> MCReport:
    """Monte Carlo estimate of E[F(lambda^{-1/2} Z_k(x, .))] for real
    lambda > 0."""
    lam = float(lambda_real)
    if not lam > 0.0:
        raise BadDomain("lambda must be a positive real, got %r" % lambda_real)
    profile, grid = _profile_and_grid(F, [k], grid)
    factors = _linear_factors(F)
    if factors:
        (cols,) = draw_columns(profile, grid, n, seed,
                               [_densities([odot(u, k) for u in factors], grid)])
    t0 = time.perf_counter()
    vals = _value_at(F, lam**-0.5 * cols) if factors else np.ones(n)
    return _report(F, vals, n, grid, seed, t0)


def verify_translation(
    F: FunctionalSpec,
    theta: CMElement,
    k1: SuppElement,
    k2: SuppElement,
    n: int,
    seed: int,
    grid: TimeGrid | None = None,
    threshold: float = DEFAULT_SIGMA_THRESHOLD,
    *,
    columns: np.ndarray | None = None,
) -> IdentityReport:
    """Translation identity: shifting Z_{k1}-paths by the deterministic
    path Z_{k2}(theta (.) k1, .) equals an exponentially reweighted
    expectation, with the densities' exact inner products in the weight.
    Both sides share one ensemble.

    ``columns``, when given, are the n paths' columns on
    ``identity_densities(F, theta, k1, k2, grid)`` as ``draw_columns``
    makes them from (grid, n, seed); otherwise they are drawn here.  A
    shape other than (n, c) of that matrix raises ValueError.  The same
    holds for verify_parts and verify_cs_precursor.
    """
    grid, shift, theta_k2, pairing_a, t0, cols = _identity_setup(F, theta, k1, k2, n, seed, grid,
                                                                 columns)
    weight = float(np.exp(-0.5 * cm_inner(theta_k2, theta_k2) - pairing_a))
    v = cols[:, :-1]
    lhs_vals = _value_at(F, v + shift)
    rhs_vals = weight * _value_at(F, v) * np.exp(cols[:, -1])
    return _identity_report(F, lhs_vals, rhs_vals, n, grid, seed, threshold, t0)


def verify_parts(
    F: FunctionalSpec,
    theta: CMElement,
    k1: SuppElement,
    k2: SuppElement,
    rho: float,
    n: int,
    seed: int,
    grid: TimeGrid | None = None,
    threshold: float = DEFAULT_SIGMA_THRESHOLD,
    *,
    columns: np.ndarray | None = None,
) -> IdentityReport:
    """Integration-by-parts identity at path scale rho > 0: the mean of
    the first variation of F at rho-scaled Z_{k1}-paths (direction
    rho Z_{k2}(theta (.) k1, .)) against the product-minus-mean form."""
    rho = float(rho)
    if not rho > 0.0:
        raise BadDomain("rho must be positive, got %r" % rho)
    lhs_vals, rhs_vals, grid, t0 = _parts_engine(F, theta, k1, k2, rho, n, seed, grid, columns)
    return _identity_report(F, lhs_vals, rhs_vals, n, grid, seed, threshold, t0)


def verify_cs_precursor(
    F,
    theta: CMElement,
    k1: SuppElement,
    k2: SuppElement,
    lambda_real: float,
    n: int,
    seed: int,
    grid: TimeGrid | None = None,
    threshold: float = DEFAULT_SIGMA_THRESHOLD,
    *,
    columns: np.ndarray | None = None,
) -> IdentityReport:
    """Real-lambda precursor of the Cameron-Storvick identity: the
    variation at lambda^{-1/2}-scaled paths (direction unscaled) against
    lambda-weighted product and lambda^{1/2}-weighted plain means.

    The variation is linear in its direction, so this is integration by
    parts at rho = lambda^{-1/2} with both sides scaled by lambda^{1/2}:
    it carries the same sigma_ratio as verify_parts at that rho, for
    every functional."""
    lam = float(lambda_real)
    if not lam > 0.0:
        raise BadDomain("lambda must be a positive real, got %r" % lambda_real)
    lhs_vals, rhs_vals, grid, t0 = _parts_engine(F, theta, k1, k2, lam**-0.5, n, seed, grid,
                                                 columns)
    root = lam**0.5
    return _identity_report(F, root * lhs_vals, root * rhs_vals, n, grid, seed, threshold, t0)


def _parts_engine(F, theta, k1, k2, rho, n, seed, grid, columns):
    """Per-path sides of integration by parts at path scale rho, with the
    grid used and the start time: the variation of F at rho-scaled paths
    in direction rho Z_{k2}(theta (.) k1, .), and
    ((theta (.) k2, x)~ - (theta (.) k2, a)) F at the same paths."""
    grid, d, _, pairing_a, t0, cols = _identity_setup(F, theta, k1, k2, n, seed, grid, columns)
    v = rho * cols[:, :-1]
    lhs_vals = _variation_at(F, v, [rho * c for c in d])
    rhs_vals = (cols[:, -1] - pairing_a) * _value_at(F, v)
    return lhs_vals, rhs_vals, grid, t0


def _require_two_paths(n):
    """BadDomain unless an identity check can run on n paths: one path
    has no standard error, so no sigma_ratio."""
    if n < 2:
        raise BadDomain("an identity check needs n_paths >= 2, as one path has no standard "
                        "error; got n = %r" % n)


def _identity_setup(F, theta, k1, k2, n, seed, grid, columns):
    """What the translation and parts identities share: the grid used,
    the exact scalars (u (.) k2, theta (.) k1) for the linear factors u
    of F, theta (.) k2 and its pairing with a, the start time, and the
    columns (u (.) k1, x)~ per factor followed by (theta (.) k2, x)~:
    the given ``columns``, once their shape is checked, or a draw."""
    _require_two_paths(n)
    profile, grid = _profile_and_grid(F, [theta, k1, k2], grid)
    theta_k2 = odot(theta, k2)
    consts = _direction_scalars(F, k2, odot(theta, k1))
    pairing_a = inner_with_a(theta_k2)
    if columns is None:
        (columns,) = draw_columns(profile, grid, n, seed,
                                  [identity_densities(F, theta, k1, k2, grid)])
    elif np.shape(columns) != (n, len(consts) + 1):
        raise ValueError("columns must be (n, c) = %r for this check's density matrix, got %r"
                         % ((n, len(consts) + 1), np.shape(columns)))
    return grid, consts, theta_k2, pairing_a, time.perf_counter(), columns


# ---------------------------------------------------------------------------
# CSV ledger.

LEDGER_COLUMNS = [
    "check",
    "config_hash",
    "n",
    "grid",
    "seed",
    "lhs_re",
    "lhs_im",
    "rhs_re",
    "rhs_im",
    "se",
    "sigma_ratio",
    "pass",
]


def ledger_row(
    name: str,
    config_hash: str,
    *,
    lhs: complex,
    rhs: complex,
    n: int = 0,
    grid: int = 0,
    seed: int = 0,
    se: float = 0.0,
    sigma_ratio: float = 0.0,
    passed: bool,
) -> list[str]:
    fmt = lambda x: "%.17g" % float(x)
    return [
        name,
        config_hash,
        str(int(n)),
        str(int(grid)),
        str(int(seed)),
        fmt(complex(lhs).real),
        fmt(complex(lhs).imag),
        fmt(complex(rhs).real),
        fmt(complex(rhs).imag),
        fmt(se),
        fmt(sigma_ratio),
        "true" if passed else "false",
    ]


def identity_ledger_row(name: str, config_hash: str, report: IdentityReport) -> list[str]:
    return ledger_row(
        name,
        config_hash,
        lhs=report.lhs.estimate,
        rhs=report.rhs.estimate,
        n=report.lhs.n_paths,
        grid=report.lhs.grid_size,
        seed=report.lhs.seed,
        se=report.lhs.std_error,
        sigma_ratio=report.sigma_ratio,
        passed=report.passed,
    )


def append_ledger(path, rows):
    """Append rows, writing the header first when the file is missing or
    empty."""
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if fh.tell() == 0:
            writer.writerow(LEDGER_COLUMNS)
        writer.writerows(rows)
