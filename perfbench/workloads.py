"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload is one ``feynpath verify --all`` invocation, driven through
``feynpath.cli.run`` on the default serial path.  The seed only changes
numbers (Monte Carlo seed, coefficients, q), never the amount of work, so
timings from different seeds are comparable.

A check counts as failed when the CLI does not write its check JSON (it
raised), when the check JSON reports ``pass: false``, or when it fails
the benchmark's own output check below.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STD_CONFIG = os.path.join(ROOT, "configs", "std.json")

# closed-form: a fixed multiset of monomial degrees, each run once as a
# feynman check and once as a verify-recurrence check.  Degree 11 is the
# largest the Wick enumeration reaches in about a tenth of a second.
CLOSED_FORM_DEGREES = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11) * 2
CLOSED_FORM_BREAKS = [0.0, 0.25, 0.5, 0.75, 1.0]
CLOSED_FORM_KS = 6

# simulate-out: (name, format, n_paths, grid_size)
SIMULATE_OUTPUTS = (("simulate-csv", "csv", 4000, 1024), ("simulate-bin", "bin", 20000, 2048))

# Rows compared against a fresh small run (the prefix property).
PREFIX_ROWS = 8


@dataclass
class Workload:
    name: str
    config: str  # config file the CLI reads
    argv: list  # CLI arguments; the harness appends --output-dir per pass
    checks: list  # check names, in config order
    sizes: dict  # input sizes, for provenance
    largest_array_mib: float  # largest array a pass allocates
    expected_spans: tuple = ()  # span names that must fire in a traced pass
    absent_spans: tuple = ()  # span-name prefixes that must not fire


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _poly(breaks, coeffs):
    return {"breakpoints": list(breaks), "coeffs": [[float(c) for c in cs] for cs in coeffs]}


# ---------------------------------------------------------------------------
# verify-std


def verify_std(seed: int, work_dir: str, n_paths: int = 100_000, grid: int = 1024) -> Workload:
    """The shipped config at the ROADMAP's headline size."""
    with open(STD_CONFIG) as fh:
        checks = [c["name"] for c in json.load(fh)["checks"]]
    argv = ["verify", "--all", "--config", STD_CONFIG, "--n", str(n_paths),
            "--grid", str(grid), "--seed", str(seed)]
    return Workload(
        name="verify-std",
        config=STD_CONFIG,
        argv=argv,
        checks=checks,
        sizes={"n_paths": n_paths, "grid_size": grid},
        # the noise block and the increment block, CHUNK_PATHS x grid each
        largest_array_mib=_chunk_rows(n_paths) * grid * 8 / 2**20,
        expected_spans=(
            "cli.run", "cli.load_config", "cli.open_for_write",
            "montecarlo.append_ledger", "montecarlo.verify_translation",
            "montecarlo.verify_parts", "montecarlo.verify_cs_precursor",
            "paths.stream_increments", "paths.TimeGrid.build",
            "feynman.feynman_monomial", "feynman.gaussian_moment",
            "cameron_martin.odot", "cameron_martin.cm_inner",
            "cameron_martin.inner_with_a", "measure.stieltjes_integral",
            "measure.validate_profile", "piecewise.PiecewisePoly.__mul__",
        ),
    )


def _chunk_rows(n_paths):
    from feynpath import paths

    return min(paths.CHUNK_PATHS, n_paths)


# ---------------------------------------------------------------------------
# closed-form


def closed_form(seed: int, work_dir: str, degrees=CLOSED_FORM_DEGREES) -> Workload:
    """feynman and verify-recurrence checks over a 4-piece profile whose
    a' changes sign inside every piece, so |a'| has 8 pieces."""
    rng = np.random.default_rng(seed)
    br = CLOSED_FORM_BREAKS
    a_coeffs, b_coeffs = [], []
    for i in range(len(br) - 1):
        lo, hi = br[i], br[i + 1]
        root = lo + (hi - lo) * rng.uniform(0.3, 0.7)
        slope = rng.uniform(0.5, 1.5) * (-1) ** i
        a_coeffs.append([-slope * root, slope])
        b_coeffs.append([rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.5)])
    elements = {"theta": _cf_element(rng, br, degree=2, pieces=True)}
    for j in range(1, CLOSED_FORM_KS + 1):
        # odd-numbered k: one cubic piece; even-numbered: four quadratic pieces
        elements["k%d" % j] = _cf_element(rng, br, degree=3 if j % 2 else 2, pieces=not j % 2)
    checks = []
    for r, m in enumerate(degrees):
        ks = ["k%d" % ((j + m) % CLOSED_FORM_KS + 1) for j in range(m)]
        q = float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)))
        checks.append({"kind": "feynman", "name": "feynman-m%d-%d" % (m, r),
                       "theta": "theta", "ks": ks, "q": q})
        checks.append({"kind": "verify-recurrence", "name": "recurrence-m%d-%d" % (m, r),
                       "theta": "theta", "ks": ks, "q": -q})
    config = {
        "seed": int(seed),
        "profiles": {"p4": {"T": 1.0, "a_prime": _poly(br, a_coeffs),
                            "b_prime": _poly(br, b_coeffs)}},
        "elements": {name: {"profile": "p4", "density": d} for name, d in elements.items()},
        "checks": checks,
    }
    path = os.path.join(work_dir, "closed-form.json")
    _write_json(path, config)
    return Workload(
        name="closed-form",
        config=path,
        argv=["verify", "--all", "--config", path],
        checks=[c["name"] for c in checks],
        sizes={"checks": len(checks), "degrees": list(degrees), "profile_pieces": len(br) - 1},
        # the m x m covariance of the largest monomial
        largest_array_mib=max(degrees) ** 2 * 8 / 2**20,
        expected_spans=(
            "cli.run", "cli.load_config", "cli.open_for_write",
            "montecarlo.append_ledger", "feynman.feynman_monomial",
            "feynman.wick_moment", "feynman.gaussian_moment",
            "feynman.monomial_summary", "cameron_martin.odot",
            "cameron_martin.cm_inner", "cameron_martin.inner_with_a",
            "measure.stieltjes_integral", "measure.build_profile",
            "measure.validate_profile", "piecewise.PiecewisePoly.__abs__",
            "piecewise.PiecewisePoly.__mul__", "piecewise.PiecewisePoly.__call__",
        ),
        absent_spans=("paths.", "montecarlo.verify_", "montecarlo.mc_fsi"),
    )


def _cf_element(rng, br, degree, pieces):
    """Density with coefficients bounded away from 0, so no piece vanishes."""
    n = len(br) - 1 if pieces else 1
    coeffs = [rng.uniform(0.3, 0.8, size=degree + 1) * rng.choice((-1.0, 1.0)) for _ in range(n)]
    return _poly(br if pieces else [br[0], br[-1]], coeffs)


# ---------------------------------------------------------------------------
# simulate-out


def simulate_out(seed: int, work_dir: str, outputs=SIMULATE_OUTPUTS) -> Workload:
    """One CSV and one binary ensemble over a 2-piece profile."""
    rng = np.random.default_rng(seed)
    br = [0.0, 0.5, 1.0]
    a = [[rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)] for _ in range(2)]
    b = [[rng.uniform(0.5, 1.5), rng.uniform(0.0, 1.0)] for _ in range(2)]
    theta = [[rng.uniform(0.5, 1.5)] for _ in range(2)]
    checks = [
        {"kind": "simulate", "name": name, "profile": "p2", "format": fmt,
         "out": "%s.%s" % (name, fmt), "n_paths": n, "grid_size": g}
        for name, fmt, n, g in outputs
    ]
    config = {
        "seed": int(seed),
        "profiles": {"p2": {"T": 1.0, "a_prime": _poly(br, a), "b_prime": _poly(br, b)}},
        "elements": {"theta": {"profile": "p2", "density": _poly(br, theta)}},
        "checks": checks,
    }
    path = os.path.join(work_dir, "simulate-out.json")
    _write_json(path, config)
    n_max = max(n * (g + 1) for _, _, n, g in outputs)
    return Workload(
        name="simulate-out",
        config=path,
        argv=["verify", "--all", "--config", path],
        checks=[c["name"] for c in checks],
        sizes={"outputs": [list(o) for o in outputs]},
        largest_array_mib=n_max * 8 / 2**20,
        expected_spans=(
            "cli.run", "cli.load_config", "cli.open_for_write",
            "montecarlo.append_ledger", "paths.sample_gbmp_paths",
            "paths.stream_increments", "paths.TimeGrid.build",
            "paths.PathEnsemble.to_csv", "paths.PathEnsemble.to_binary",
            "measure.validate_profile", "piecewise.PiecewisePoly.__call__",
        ),
        absent_spans=("feynman.", "cameron_martin.", "montecarlo.verify_", "montecarlo.mc_fsi"),
    )


WORKLOADS = {"verify-std": verify_std, "closed-form": closed_form, "simulate-out": simulate_out}


# ---------------------------------------------------------------------------
# Output checks.  Each returns, per pass, {check name: reason} for the
# checks that failed; per-pass records come from worker.run_pass.


def count_failures(workload: Workload, passes: list, last_dir: str):
    """(attempted, failed, per-pass failures) over every pass; a check
    that fails several ways in one pass counts once."""
    failures = [dict(a, **b) for a, b in zip(check_passes(workload, passes),
                                              check_outputs(workload, passes, last_dir))]
    return len(workload.checks) * len(passes), sum(map(len, failures)), failures


def check_passes(workload: Workload, passes: list) -> list:
    """Failures of every pass: a missing or failing check JSON, and a
    ledger row that differs from the first pass's (ledgers must be
    byte-identical across reruns at one seed)."""
    out = []
    first_rows = passes[0]["ledger"].splitlines()[1:] if passes else []
    for p in passes:
        bad = {}
        rows = p["ledger"].splitlines()[1:]
        for i, name in enumerate(workload.checks):
            got = p["checks"].get(name)
            if got is None:
                bad[name] = "no check JSON (the check raised)"
            elif got.get("pass") is not True:
                bad[name] = "reported pass=false"
            elif i >= len(rows) or i >= len(first_rows) or rows[i] != first_rows[i]:
                bad[name] = "ledger row differs from the first pass"
        out.append(bad)
    return out


def check_outputs(workload: Workload, passes: list, last_dir: str) -> list:
    """Workload-specific checks on every pass, plus a full check of the
    last pass's files; returns per-pass {check name: reason}."""
    extra = {"closed-form": _check_closed_form, "simulate-out": _check_simulate}.get(workload.name)
    if extra is None:
        return [{} for _ in passes]
    return extra(workload, passes, last_dir)


def _check_closed_form(workload, passes, last_dir):
    """Every feynman value agrees with the Wick route, at the tolerance
    verify-recurrence uses."""
    from feynpath import ComplexParam, FeynpathError, MonomialSpec, monomial_summary, wick_moment
    from feynpath.cli import RECURRENCE_TOL, load_config

    config = load_config(workload.config)
    wick = {}
    for c in config.checks:
        if c["kind"] == "feynman":
            spec = MonomialSpec(config.element(c["theta"]), tuple(config.supp(k) for k in c["ks"]))
            try:
                wick[c["name"]] = wick_moment(monomial_summary(spec), ComplexParam.feynman(c["q"]))
            except FeynpathError:
                wick[c["name"]] = None
    out = []
    for p in passes:
        bad = {}
        for name, oracle in wick.items():
            value = (p["checks"].get(name) or {}).get("value")
            if value is None:
                continue  # already counted by check_passes
            if oracle is None:
                bad[name] = "the Wick route raised"
                continue
            err = abs(complex(value["re"], value["im"]) - oracle) / max(1.0, abs(oracle))
            if not err < RECURRENCE_TOL:
                bad[name] = "differs from the Wick route by %.3g" % err
        out.append(bad)
    return out


def _check_simulate(workload, passes, last_dir):
    """Files have the same size in every pass; in the last pass the
    binary round-trips shape and seed through PathEnsemble.read_binary,
    the CSV has one row per path, and the first rows of both equal a
    fresh small run with the same seed (the prefix property)."""
    from feynpath import PathEnsemble, TimeGrid, sample_gbmp_paths
    from feynpath.cli import load_config

    config = load_config(workload.config)
    profile = config.profiles["p2"]
    elements = [e for e, _ in config.elements.values()]
    out = [{} for _ in passes]
    for c in config.checks:
        name = c["name"]
        sizes = [p["files"].get(c["out"]) for p in passes]
        for i, size in enumerate(sizes):
            if size is None or size != sizes[0]:
                out[i][name] = "file size %r differs from the first pass %r" % (size, sizes[0])
        grid = TimeGrid.build(profile, elements, n=c["grid_size"])
        n = c["n_paths"]
        head = sample_gbmp_paths(profile, grid, PREFIX_ROWS, config.seed).values
        dest = os.path.join(last_dir, c["out"])
        if not os.path.exists(dest):
            out[-1][name] = "no output file"
            continue
        if c["format"] == "bin":
            expected = 32 + 8 * (grid.N + 1) * (n + 1)
            nodes, values, seed = PathEnsemble.read_binary(dest)
            if sizes[-1] != expected:
                out[-1][name] = "binary is %r bytes, expected %r" % (sizes[-1], expected)
            elif values.shape != (n, grid.N + 1) or seed != config.seed:
                out[-1][name] = "read_binary gave shape %r seed %r" % (values.shape, seed)
            elif not np.array_equal(nodes, grid.nodes) or not np.array_equal(values[:PREFIX_ROWS], head):
                out[-1][name] = "nodes or first rows differ from a fresh run"
            del values
        else:
            reason = _check_csv(dest, grid, n, head)
            if reason:
                out[-1][name] = reason
    return out


def _check_csv(dest, grid, n, head):
    with open(dest) as fh:
        nodes = np.array(fh.readline().split(","), dtype=float)
        rows = [np.array(fh.readline().split(","), dtype=float) for _ in range(len(head))]
        lines = 1 + len(rows) + sum(1 for _ in fh)
    if lines != n + 1:
        return "CSV has %d lines, expected %d" % (lines, n + 1)
    if not np.array_equal(nodes, grid.nodes) or not np.array_equal(np.array(rows), head):
        return "CSV nodes or first rows differ from a fresh run"
    return None
