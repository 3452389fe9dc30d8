"""Batch front-end: JSON experiment configs in, CSV/JSON reports out.

One JSON config names the profiles, the Cameron-Martin elements over
them, and a list of checks to run; command-line flags override the
config scalars (seed, n_paths, grid_size).  Unknown keys anywhere in the
config are rejected rather than ignored, and each check is validated and
normalized once, when the config is loaded: its element names resolved
and its functional parsed, so a bad check fails before any check runs,
and the runners use what was resolved.  The identity checks run in
groups, one draw per group (``_run_shared``); every other check runs
alone (``run_check``).
All floats are printed with 17 significant digits so reruns with the
same config bytes produce byte-identical CSV ledgers.

``run`` is the single error boundary: any FeynpathError a command raises
(ConfigError included), and any OSError from an output that cannot be
written, prints one ``error:`` line and exits with code 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

try:  # CPython's built-in SHA-256: hashlib would load OpenSSL, about 3 MiB
    from _sha256 import sha256  # resident, for one digest per config
except ImportError:
    from hashlib import sha256

from . import montecarlo as mc
from .cameron_martin import CMElement, SuppElement
from .errors import ConfigError, FeynpathError
from .feynman import (
    ComplexParam,
    CosLinear,
    ExpLinear,
    MonomialSpec,
    feynman_monomial,
    monomial_summary,
    wick_moment,
)
from .measure import ProfilePair, build_profile, validate_profile
from .paths import DEFAULT_GRID_N, TimeGrid, sample_gbmp_paths
from .piecewise import PiecewisePoly

RECURRENCE_TOL = 1e-10


# ---------------------------------------------------------------------------
# Strict JSON helpers.


def _expect_keys(obj, where, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError("%s: expected an object" % where)
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError("%s: unknown keys %s" % (where, sorted(unknown)))
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError("%s: missing keys %s" % (where, sorted(missing)))
    return obj


def _json_17g(value, indent=0):
    """JSON with floats rendered to 17 significant digits, sorted keys."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            '%s  "%s": %s' % (pad, k, _json_17g(value[k], indent + 1))
            for k in sorted(value)
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ("%s  %s" % (pad, _json_17g(v, indent + 1)) for v in value)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not np.isfinite(v):
            raise ConfigError("cannot serialize non-finite float %r" % v)
        return "%.17g" % v
    if isinstance(value, complex):
        return _json_17g({"re": value.real, "im": value.imag}, indent)
    if isinstance(value, str):
        return json.dumps(value)
    raise ConfigError("cannot serialize %r" % (value,))


def _number(value, where, count=False):
    """A JSON number, not a boolean: a finite float, or with ``count`` a
    positive int (a whole float such as 1e5 counts, a fractional one does
    not)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if count and isinstance(value, int) and value >= 1:
            return value
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and (not count or x.is_integer() and x >= 1):
            return int(x) if count else x
    raise ConfigError("%s must be %s, got %r"
                      % (where, "a positive integer" if count else "a finite number", value))


def _boolean(value, where):
    if not isinstance(value, bool):
        raise ConfigError("%s must be true or false, got %r" % (where, value))
    return value


def _seed(value, where):
    if isinstance(value, bool) or not (isinstance(value, int) and 0 <= value < 2**64):
        raise ConfigError("%s must be an integer in [0, 2^64), got %r" % (where, value))
    return value


def _complex_from(obj, where, optional=()):
    _expect_keys(obj, where, ("re", "im"), optional)
    return complex(_number(obj["re"], where + ".re"), _number(obj["im"], where + ".im"))


# ---------------------------------------------------------------------------
# Config model.


@dataclass
class ExperimentConfig:
    seed: int
    n_paths: int
    grid_size: int
    output_dir: str
    profiles: dict
    elements: dict  # name -> (CMElement, profile name)
    checks: list
    config_hash: str
    # Built once per key and shared by every check of this config.
    _supps: dict = field(default_factory=dict, init=False, repr=False)
    _specs: dict = field(default_factory=dict, init=False, repr=False)
    _grids: dict = field(default_factory=dict, init=False, repr=False)

    def element(self, name) -> CMElement:
        if not isinstance(name, str) or name not in self.elements:
            raise ConfigError("unknown element %r" % (name,))
        return self.elements[name][0]

    def supp(self, name) -> SuppElement:
        element = self.element(name)
        if name not in self._supps:
            self._supps[name] = SuppElement(element.density, element.profile)
        return self._supps[name]

    def spec(self, theta, ks) -> MonomialSpec:
        """The monomial over the named elements, one per (theta, ks) in
        order: a permuted ks is its own spec, since the order of the
        inner products can change their rounding."""
        if not isinstance(ks, (list, tuple)) or not all(isinstance(k, str) for k in ks):
            raise ConfigError("expected a list of element names, got %r" % (ks,))
        element = self.element(theta)
        key = (theta, tuple(ks))
        if key not in self._specs:
            self._specs[key] = MonomialSpec(element, tuple(self.supp(k) for k in key[1]))
        return self._specs[key]

    def grid(self, pname, grid_n) -> TimeGrid:
        """The grid_n-interval grid on the horizon of profile ``pname``,
        holding every breakpoint of the config's elements over that
        profile (or an equal one), so those of their products too.
        Elements over other profiles may live on another horizon and are
        left out."""
        key = (pname, grid_n)
        if key not in self._grids:
            profile = self.profiles[pname]
            elements = [e for e, _ in self.elements.values() if e.profile == profile]
            self._grids[key] = TimeGrid.build(profile, elements, n=grid_n)
        return self._grids[key]


def _resolved(where, build, *args, **kwargs):
    """build(*args, **kwargs), with a library error it raises reported
    as a ConfigError that names ``where``."""
    try:
        return build(*args, **kwargs)
    except FeynpathError as exc:
        raise ConfigError("%s: %s" % (where, exc)) from exc


def _parse_poly(obj, where) -> PiecewisePoly:
    """A piecewise polynomial whose breakpoints and coefficients are all
    finite; the error names the offending list."""
    _expect_keys(obj, where, ("breakpoints", "coeffs"))
    try:
        poly = PiecewisePoly(obj["breakpoints"], obj["coeffs"])
    except Exception as exc:
        raise ConfigError("%s: %s" % (where, exc)) from exc
    named = [("breakpoints", poly.breakpoints)]
    named += [("coeffs[%d]" % i, c) for i, c in enumerate(poly.coeffs)]
    for key, values in named:
        if not np.all(np.isfinite(values)):
            raise ConfigError("%s.%s must be finite numbers, got %s"
                              % (where, key, values.tolist()))
    return poly


def _parse_profile(name, obj) -> ProfilePair:
    where = "profiles.%s" % name
    _expect_keys(obj, where, ("T", "a_prime", "b_prime"))
    a = _parse_poly(obj["a_prime"], where + ".a_prime")
    b = _parse_poly(obj["b_prime"], where + ".b_prime")
    return _resolved(where, build_profile, a, b, _number(obj["T"], where + ".T"))


def _parse_functional(obj, where, config: ExperimentConfig):
    _expect_keys(obj, where, ("type",), ("theta", "ks", "w0", "c", "allow_unbounded"))
    kind = obj["type"]
    if kind == "monomial":
        _expect_keys(obj, where, ("type", "theta", "ks"))
        _resolved(where + ".theta", config.element, obj["theta"])
        return _resolved(where + ".ks", config.spec, obj["theta"], obj["ks"])
    if kind == "exp_linear":
        _expect_keys(obj, where, ("type", "w0", "c"), ("allow_unbounded",))
        return _resolved(
            where,
            ExpLinear,
            _resolved(where + ".w0", config.element, obj["w0"]),
            _complex_from(obj["c"], where + ".c"),
            allow_unbounded=_boolean(obj.get("allow_unbounded", False),
                                     where + ".allow_unbounded"),
        )
    if kind == "cos_linear":
        _expect_keys(obj, where, ("type", "w0"))
        return CosLinear(_resolved(where + ".w0", config.element, obj["w0"]))
    raise ConfigError("%s: unknown functional type %r" % (where, kind))


_CHECK_KEYS = {
    "simulate": ((), ("profile", "out", "format")),
    "feynman": (("theta", "ks", "q"), ("expect",)),
    "verify-translation": (("functional", "theta", "k1", "k2"), ()),
    "verify-parts": (("functional", "theta", "k1", "k2", "rho"), ()),
    "verify-cs": (("functional", "theta", "k1", "k2", "lambda"), ()),
    "verify-recurrence": (("theta", "ks", "q"), ()),
}
_CHECK_COMMON = ("kind", "name", "n_paths", "seed", "grid_size")
# Each identity kind's montecarlo verify function, by name.  Its scalar
# parameter, if it has one, is the required key after functional, theta,
# k1 and k2, and its argument after theirs.
_IDENTITY_RUNNERS = {"verify-translation": "verify_translation", "verify-parts": "verify_parts",
                     "verify-cs": "verify_cs_precursor"}
_CHECK_FLOATS = ("q", "rho", "lambda")
_CHECK_COUNTS = ("n_paths", "grid_size")


def _expectation(expect, where):
    """(reference value, tolerance) of a feynman check's ``expect``."""
    ref = _complex_from(expect, where, optional=("tol",))
    tol = _number(expect.get("tol", 1e-10), where + ".tol")
    if tol < 0.0:
        raise ConfigError("%s.tol must be non-negative, got %r" % (where, tol))
    return ref, tol


def _parse_check(config: ExperimentConfig, obj, where, index=0) -> dict:
    """A normalized copy of check ``index``: its numbers parsed, ``expect``
    as (reference, tolerance), its default name filled in and its
    ``functional`` parsed.  Its element names stay, and what they resolve
    to is kept for the runners: a closed-form check's ``spec``, and an
    identity check's ``call``, the name of its ``mc.verify_*`` function
    and the arguments before n it takes (functional, theta, k1, k2 and
    rho or lambda), and the name of its theta's ``profile``.  For
    ``simulate``, its profile, output file and format are resolved.
    Errors name a key as ``where`` + key: ``checks[3].`` for a config
    check, ``--`` for the flags of the simulate command."""
    label = where.rstrip(".")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("%s: expected an object with a 'kind'" % label)
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _CHECK_KEYS:
        raise ConfigError("%s: unknown kind %r" % (label, kind))
    required, optional = _CHECK_KEYS[kind]
    _expect_keys(obj, label, required + ("kind",), optional + _CHECK_COMMON)
    check = dict(obj, name=obj.get("name", "%s-%d" % (kind, index)))
    name = check["name"]
    # The name becomes part of a file name in the output directory.
    if not isinstance(name, str) or not name or os.path.basename(name) != name or "\0" in name:
        raise ConfigError("%sname must be a non-empty string without path separators, got %r"
                          % (where, name))
    for key in _CHECK_FLOATS + _CHECK_COUNTS:
        if key in check:
            check[key] = _number(check[key], where + key, count=key in _CHECK_COUNTS)
    if "q" in check:
        _resolved(where + "q", ComplexParam.feynman, check["q"])
    for key in ("rho", "lambda"):
        if key in check and check[key] <= 0.0:
            raise ConfigError("%s%s must be positive, got %r" % (where, key, check[key]))
    if "seed" in check:
        check["seed"] = _seed(check["seed"], where + "seed")
    if "expect" in check:
        check["expect"] = _expectation(check["expect"], where + "expect")
    if kind != "simulate":
        theta = _resolved(where + "theta", config.element, check["theta"])
        if "ks" in check:
            check["spec"] = _resolved(where + "ks", config.spec, check["theta"], check["ks"])
            return check
        k1, k2 = (_resolved(where + key, config.supp, check[key]) for key in ("k1", "k2"))
        F = _parse_functional(check["functional"], where + "functional", config)
        args = (F, theta, k1, k2, *(check[key] for key in required[4:]))
        check.update(functional=F, call=(_IDENTITY_RUNNERS[kind], args),
                     profile=config.elements[check["theta"]][1])
        _require_theta_profile(config, check, obj["functional"], where)
        return check

    # The profile defaults to the config's first.  The output is a bare
    # file name inside the output directory, and its suffix, .csv or .bin
    # in any case, sets the format.
    pname = _resolved(where + "profile", _profile_name, config, check.get("profile"))
    fmt = check.get("format", "csv")
    if fmt not in ("csv", "bin"):
        raise ConfigError("%sformat must be 'csv' or 'bin', got %r" % (where, fmt))
    out = check.get("out", "%s.%s" % (check["name"], fmt))
    suffix = os.path.splitext(out)[1].lower() if isinstance(out, str) else ""
    if suffix not in (".csv", ".bin") or out != os.path.basename(out):
        raise ConfigError("%sout must be a file name ending in .csv or .bin, got %r"
                          % (where, out))
    if suffix[1:] != fmt and "format" in check:
        raise ConfigError("%sformat %r disagrees with out %r" % (where, fmt, out))
    check.update(profile=pname, out=out, format=suffix[1:])
    return check


def _profile_name(config: ExperimentConfig, name):
    """``name``, by default the config's first profile, once the config
    is seen to have it."""
    name = name or next(iter(config.profiles), None)
    if not isinstance(name, str) or name not in config.profiles:
        raise ConfigError("unknown profile %r" % (name,) if config.profiles
                          else "the config has no profile")
    return name


def _require_theta_profile(config: ExperimentConfig, check, functional, where):
    """An identity check compares elements over one profile: k1, k2 and
    the functional's element must be over the theta element's profile.
    Raised at load, so no check of the config runs."""
    fkey = "theta" if isinstance(check["functional"], MonomialSpec) else "w0"
    named = (("k1", check["k1"]), ("k2", check["k2"]), ("functional." + fkey, functional[fkey]))
    theta, pname = config.elements[check["theta"]]
    for key, name in named:
        element, other = config.elements[name]
        if element.profile != theta.profile:
            raise ConfigError("%s%s: element %r is over profile %r, not over profile %r of "
                              "theta %r" % (where, key, name, other, pname, check["theta"]))


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc.strerror or exc)) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("%s is not valid JSON: %s" % (path, exc)) from exc


def load_config(path) -> ExperimentConfig:
    raw = _read_json(path)
    _expect_keys(
        raw,
        "config",
        ("seed", "profiles", "elements", "checks"),
        ("n_paths", "grid_size", "output_dir"),
    )
    for key, shape in (("profiles", dict), ("elements", dict), ("checks", list)):
        if not isinstance(raw[key], shape):
            raise ConfigError("config.%s must be %s, got %r"
                              % (key, "a list" if shape is list else "an object", raw[key]))
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("config.output_dir must be a non-empty string, got %r" % (output_dir,))

    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    config = ExperimentConfig(
        seed=_seed(raw["seed"], "config.seed"),
        n_paths=_number(raw.get("n_paths", 10000), "config.n_paths", count=True),
        grid_size=_number(raw.get("grid_size", DEFAULT_GRID_N), "config.grid_size", count=True),
        output_dir=output_dir,
        profiles={},
        elements={},
        checks=[],
        config_hash=sha256(canonical).hexdigest()[:12],
    )
    for name, obj in raw["profiles"].items():
        config.profiles[name] = _parse_profile(name, obj)
    for name, obj in raw["elements"].items():
        where = "elements.%s" % name
        _expect_keys(obj, where, ("profile", "density"))
        pname = obj["profile"]
        if not isinstance(pname, str) or pname not in config.profiles:
            raise ConfigError("%s: unknown profile %r" % (where, pname))
        density = _parse_poly(obj["density"], where + ".density")
        config.elements[name] = (_resolved(where, CMElement, density, config.profiles[pname]),
                                 pname)
    config.checks = [_parse_check(config, obj, "checks[%d]." % i, i)
                     for i, obj in enumerate(raw["checks"])]
    return config


# ---------------------------------------------------------------------------
# Check runners.  Each returns (ledger_row, result_dict).


def _check_scalars(config: ExperimentConfig, check: dict, overrides: dict):
    """(n_paths, seed, grid_size): a flag wins over the check, the check
    over the config."""
    return tuple(next(v for v in (overrides.get(key), check.get(key), getattr(config, key))
                      if v is not None)
                 for key in ("n_paths", "seed", "grid_size"))


def run_check(config: ExperimentConfig, index: int, check: dict, overrides: dict, out_dir):
    """Run check ``index``, a simulate or closed-form (``feynman``,
    ``verify-recurrence``) check as ``load_config`` normalized it (which
    also filled in its default name); returns (ledger row, result dict).
    The identity checks run in ``_run_shared``."""
    kind, name = check["kind"], check["name"]
    n, seed, grid_n = _check_scalars(config, check, overrides)
    result = {"name": name, "kind": kind, "n_paths": n, "seed": seed, "grid_size": grid_n}

    if kind == "simulate":
        profile = config.profiles[check["profile"]]
        grid = config.grid(check["profile"], grid_n)
        ensemble = sample_gbmp_paths(profile, grid, n, seed)
        dest = os.path.join(out_dir, check["out"])
        # Written under a temporary name and renamed when complete, so a
        # failed or interrupted write leaves no file that looks whole.
        part = dest + ".part"
        try:
            if check["format"] == "bin":
                ensemble.to_binary(part)
            else:
                ensemble.to_csv(part)
            os.replace(part, dest)
        except BaseException:
            if os.path.exists(part):
                os.remove(part)
            raise
        result.update({"profile": check["profile"], "written": dest, "pass": True})
        row = mc.ledger_row(name, config.config_hash, lhs=0.0, rhs=0.0,
                            n=n, grid=grid.N, seed=seed, passed=True)
        return row, result

    spec = check["spec"]
    value = feynman_monomial(spec, check["q"])
    if kind == "feynman":
        summary = monomial_summary(spec)
        audit = [{"op": "feynman_monomial", "means": summary.mean.tolist(),
                  "cov": summary.cov.tolist(), "value": value, "q": check["q"]}]
        result.update({"value": value, "q": check["q"], "audit": audit})
        if "expect" in check:
            ref, tol = check["expect"]
            passed = abs(value - ref) <= tol
        else:
            ref, passed = value, True
        result["pass"] = bool(passed)
        row = mc.ledger_row(name, config.config_hash, lhs=value, rhs=ref,
                            n=0, grid=0, seed=seed, passed=passed)
        return row, result

    oracle = wick_moment(monomial_summary(spec), ComplexParam.feynman(check["q"]))
    err = abs(value - oracle) / max(1.0, abs(oracle))
    passed = err < RECURRENCE_TOL
    result.update({"recurrence": value, "oracle": oracle, "relative_error": err,
                   "pass": bool(passed)})
    row = mc.ledger_row(name, config.config_hash, lhs=value, rhs=oracle,
                        n=0, grid=0, seed=seed, se=0.0, sigma_ratio=0.0, passed=passed)
    return row, result


# ---------------------------------------------------------------------------
# Subcommands.  Each raises FeynpathError for invalid input; ``run``
# reports it.


def _cmd_validate_profile(args) -> int:
    raw = _read_json(args.path)
    if isinstance(raw, dict) and "profiles" in raw:
        config = load_config(args.path)
        profile = config.profiles[_profile_name(config, args.profile)]
    else:
        if args.profile is not None:
            raise ConfigError("--profile %r: %s is a bare profile, not a config"
                              % (args.profile, args.path))
        _expect_keys(raw, "profile", ("T", "a_prime", "b_prime"))
        a = _parse_poly(raw["a_prime"], "a_prime")
        b = _parse_poly(raw["b_prime"], "b_prime")
        profile = ProfilePair.from_derivatives(a, b, _number(raw["T"], "T"))
    report = validate_profile(profile)
    print(_json_17g(report.to_dict()))
    return 0 if report.passed else 1


def _cmd_feynman(args) -> int:
    config = load_config(args.config)
    if args.ks:
        ks = args.ks.split(",")
    else:
        m = _parse_monomial_arg(args.monomial) if args.monomial else 2
        ks = ["k%d" % (j + 1) for j in range(m)]
    print(_json_17g(feynman_monomial(config.spec(args.theta or "theta", ks), args.q)))
    return 0


def _parse_monomial_arg(text):
    degree = text[2:]
    if not (text.startswith("m=") and degree.isdigit()):
        raise ConfigError("--monomial expects m=<degree>, got %r" % text)
    return int(degree)


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    overrides = _overrides(args)
    check = {"kind": "simulate", "name": "simulate", "profile": args.profile}
    out_dir = config.output_dir
    if args.out:
        out_dir, check["out"] = os.path.split(args.out)
        out_dir = out_dir or "."
    check = _parse_check(config, check, "--")
    os.makedirs(out_dir, exist_ok=True)
    row, result = run_check(config, 0, check, overrides, out_dir)
    print(_json_17g(result))
    return 0


def _cmd_verify(args) -> int:
    config = load_config(args.config)
    overrides = _overrides(args)
    indices = range(len(config.checks)) if args.check is None else args.check
    for i in indices:
        if not 0 <= i < len(config.checks):
            raise ConfigError("no check %d: the config has %d" % (i, len(config.checks)))
        if list(indices).count(i) > 1:
            raise ConfigError("--check: check %d is listed more than once" % i)
    out_dir = args.output_dir or config.output_dir
    ledger = os.path.join(out_dir, "ledger.csv")
    if os.path.exists(ledger) and os.path.getsize(ledger):  # rows go under its header only
        _ledger_rows(ledger)
    outcomes = _run_checks(config, indices, overrides, out_dir)

    # Render every check JSON before anything is written, so a result
    # that cannot be serialized leaves neither a ledger row nor a file.
    rows = [row for row, _ in outcomes]
    texts = [_json_17g(result) + "\n" for _, result in outcomes]
    mc.append_ledger(ledger, rows)
    all_pass = True
    for i, (_, result), text in zip(indices, outcomes, texts):
        dest = os.path.join(out_dir, "check_%03d_%s.json" % (i, result["name"]))
        with open(dest, "w") as fh:
            fh.write(text)
        all_pass &= bool(result["pass"])
    summary = {
        "config_hash": config.config_hash,
        "checks_run": len(rows),
        "all_pass": all_pass,
        "ledger": ledger,
    }
    print(_json_17g(summary))
    return 0 if all_pass else 1


def _run_checks(config: ExperimentConfig, indices, overrides: dict, out_dir) -> list:
    """The outcomes of the checks at ``indices``, in that order.

    The identity checks are grouped by the stream they sample, their
    (profile, grid_size, n_paths, seed) after the flags, and each group
    is drawn once and run by ``_run_shared``, one group at a time, in
    the order of its first check; every other check runs alone through
    ``run_check``."""
    groups: dict = {}
    for i in indices:
        check = config.checks[i]
        if "call" in check:
            n, seed, grid_n = _check_scalars(config, check, overrides)
            _resolved("checks[%d]" % i, mc._require_two_paths, n)
            key = (check["profile"], grid_n, n, seed)
        else:
            key = i
        groups.setdefault(key, []).append(i)
    os.makedirs(out_dir, exist_ok=True)  # made only once every check above is valid
    outcomes = {}
    for key, members in groups.items():
        if isinstance(key, tuple):
            outcomes.update(_run_shared(config, members, key))
        else:
            outcomes[key] = run_check(config, key, config.checks[key], overrides, out_dir)
    return [outcomes[i] for i in indices]


def _run_shared(config: ExperimentConfig, members, key) -> dict:
    """{index: (ledger row, result dict)} of the identity checks
    ``members`` of one stream ``key``, from one pass over one draw: the
    only runner of the identity checks.  ``mc._SharedDraw`` streams the
    draw of every check's ``call`` one block at a time into their sides,
    so no n-row array is held, and each check's ``mc.verify_*``
    function, called once, takes the draw as ``columns=`` and returns
    its report; the first call runs the pass.  The function is looked
    up on ``mc`` at each call, so a wrapper put there (a tracer, a
    test's spy) is the one called.  Each result gets a ``draw`` object: the
    seconds spent filling the draw's blocks and the names of the checks
    it served.  A report's non-finite floats, from estimates that
    overflow or an infinite sigma_ratio (diff_se 0, the discrepancy
    above rounding), are written as null, since JSON has neither nan
    nor infinity; such a check fails."""
    pname, grid_n, n, seed = key
    grid = config.grid(pname, grid_n)
    checks = [config.checks[i] for i in members]
    shared = mc._SharedDraw(config.profiles[pname], grid, n, seed, [c["call"] for c in checks])
    reports = [getattr(mc, func)(*args, n, seed, grid=grid, columns=shared)
               for func, args in (c["call"] for c in checks)]
    draw = {"wall_time": shared.wall_time, "shared_by": [c["name"] for c in checks]}
    outcomes = {}
    for i, check, report in zip(members, checks, reports):
        result = {"name": check["name"], "kind": check["kind"], "n_paths": n, "seed": seed,
                  "grid_size": grid_n, **_finite_or_null(report.to_dict()), "draw": draw}
        outcomes[i] = (mc.identity_ledger_row(check["name"], config.config_hash, report), result)
    return outcomes


def _finite_or_null(value):
    """``value`` with every non-finite float in its dicts replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _ledger_rows(path) -> list:
    """(line number, row) of each row below the header of the ledger at
    path; a ConfigError when the file cannot be read, does not start
    with the ledger header or does not end in a newline (a row appended
    to it would join its last line)."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
        reader = csv.reader(io.StringIO(text, newline=""))
        rows = [(reader.line_num, row) for row in reader]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError("cannot read %s: %s" % (path, reason)) from exc
    if not rows or rows[0][1] != mc.LEDGER_COLUMNS:
        raise ConfigError("%s is not a ledger file" % path)
    if not text.endswith("\n"):
        raise ConfigError("%s does not end in a newline, so a new row would join its last line"
                          % path)
    return rows[1:]


def _cmd_report(args) -> int:
    rows = _ledger_rows(args.ledger)
    for line, row in rows:
        if len(row) != len(mc.LEDGER_COLUMNS) or row[-1] not in ("true", "false"):
            raise ConfigError("ledger line %d: expected %d fields ending in true or false, got %r"
                              % (line, len(mc.LEDGER_COLUMNS), ",".join(row)))
    body = [row for _, row in rows]
    failed = [r for r in body if r[-1] != "true"]
    print(
        _json_17g(
            {
                "entries": len(body),
                "failed": len(failed),
                "failed_checks": [r[0] for r in failed],
            }
        )
    )
    return 1 if failed else 0


def _overrides(args) -> dict:
    """The --n, --seed and --grid flags, checked once."""
    return {
        "n_paths": None if args.n is None else _number(args.n, "--n", count=True),
        "seed": None if args.seed is None else _seed(args.seed, "--seed"),
        "grid_size": None if args.grid is None else _number(args.grid, "--grid", count=True),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process, on first use, and
    the same object on every call: building it takes about 1 ms, and
    parse_args gives every run a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="feynpath",
        description="Gaussian path simulation and Feynman-integral verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-profile", help="check a profile spec or config profile")
    p.add_argument("path")
    p.add_argument("--profile", help="profile name when given a full config")
    p.set_defaults(func=_cmd_validate_profile)

    p = sub.add_parser("simulate", help="sample an ensemble and write it out")
    p.add_argument("--config", required=True)
    p.add_argument("--profile")
    p.add_argument("--n", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="destination; its suffix, .csv or .bin in any case, "
                   "picks the format")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("feynman", help="closed-form monomial Feynman integral")
    p.add_argument("--config", required=True)
    p.add_argument("--q", type=float, required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--monomial", help="m=<degree>, selecting elements k1..km")
    p.add_argument("--theta", help="element name for theta (default 'theta')")
    which.add_argument("--ks", help="comma-separated element names")
    p.set_defaults(func=_cmd_feynman)

    p = sub.add_parser("verify", help="run configured checks and append the ledger")
    p.add_argument("--config", required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true",
                       help="run every configured check (the default)")
    which.add_argument("--check", type=int, nargs="+", action="extend",
                       help="indices of checks to run, at least one; repeated flags add up")
    p.add_argument("--n", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="summarize a ledger CSV")
    p.add_argument("--ledger", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FeynpathError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:  # an output that cannot be written
        where = "" if exc.filename is None else "%s: " % exc.filename
        print("error: %s%s" % (where, exc.strerror or exc), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
