import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from feynpath.cli import run, load_config, _json_17g
from feynpath.errors import ConfigError


STD_JSON = pathlib.Path(__file__).resolve().parents[1] / "configs" / "std.json"

UNIT = {"breakpoints": [0.0, 1.0], "coeffs": [[1.0]]}
RAMP = {"breakpoints": [0.0, 1.0], "coeffs": [[0.0, 1.0]]}
ONE_PLUS_T = {"breakpoints": [0.0, 1.0], "coeffs": [[1.0, 1.0]]}
# A T = 2 profile and an element over it, for checks that mix profiles.
LONG = {"T": 2.0, "a_prime": {"breakpoints": [0.0, 2.0], "coeffs": [[0.0, 1.0]]},
        "b_prime": {"breakpoints": [0.0, 2.0], "coeffs": [[1.0, 1.0]]}}
FAR = {"profile": "long", "density": {"breakpoints": [0.0, 2.0], "coeffs": [[1.0]]}}


def std_config(n=2000, grid=128, out="out"):
    return {
        "seed": 42,
        "n_paths": n,
        "grid_size": grid,
        "output_dir": out,
        "profiles": {"std": {"T": 1.0, "a_prime": RAMP, "b_prime": ONE_PLUS_T}},
        "elements": {
            "theta": {"profile": "std", "density": UNIT},
            "k1": {"profile": "std", "density": UNIT},
            "k2": {"profile": "std", "density": RAMP},
        },
        "checks": [
            {
                "kind": "feynman",
                "theta": "theta",
                "ks": ["k1", "k2"],
                "q": 1.0,
                "expect": {"re": 0.0, "im": 1.0, "tol": 1e-10},
            },
            {"kind": "verify-recurrence", "theta": "theta", "ks": ["k1", "k2", "k2"], "q": -2.0},
            {
                "kind": "verify-translation",
                "functional": {"type": "cos_linear", "w0": "theta"},
                "theta": "theta",
                "k1": "k1",
                "k2": "k2",
            },
            {
                "kind": "verify-parts",
                "functional": {"type": "monomial", "theta": "theta", "ks": ["k1"]},
                "theta": "theta",
                "k1": "k1",
                "k2": "k2",
                "rho": 1.0,
            },
            {
                "kind": "verify-cs",
                "functional": {"type": "monomial", "theta": "theta", "ks": ["k1"]},
                "theta": "theta",
                "k1": "k1",
                "k2": "k2",
                "lambda": 4.0,
            },
        ],
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def test_json_17g_formatting():
    text = _json_17g({"x": 1.0 / 3.0, "flag": True, "n": 3, "s": "hi", "arr": [0.1]})
    parsed = json.loads(text)
    assert parsed["x"] == 1.0 / 3.0
    assert text.count("0.33333333333333331") == 1
    assert parsed["flag"] is True and parsed["n"] == 3


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg = std_config()
    cfg["typo_key"] = 1
    with pytest.raises(ConfigError, match="typo_key"):
        load_config(write_config(tmp_path, cfg))


def test_load_config_rejects_unknown_check_kind(tmp_path):
    cfg = std_config()
    cfg["checks"].append({"kind": "mystery"})
    with pytest.raises(ConfigError, match="mystery"):
        load_config(write_config(tmp_path, cfg))


def test_load_config_requires_seed(tmp_path):
    cfg = std_config()
    del cfg["seed"]
    with pytest.raises(ConfigError, match="seed"):
        load_config(write_config(tmp_path, cfg))


def test_load_config_resolves_names(tmp_path):
    cfg = std_config()
    cfg["checks"][0]["ks"] = ["nope"]
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match=r"checks\[0\]\.ks: unknown element 'nope'"):
        load_config(path)


def _spy_runners(monkeypatch):
    """A list that gets ("run_check", index) for each check run alone and
    ("_run_shared", indices) for each group of identity checks, from
    spies that then call the runner."""
    import feynpath.cli as cli

    ran = []
    for name in ("run_check", "_run_shared"):
        def spy(config, which, *args, _name=name, _original=getattr(cli, name)):
            ran.append((_name, which))
            return _original(config, which, *args)

        monkeypatch.setattr(cli, name, spy)
    return ran


def test_identity_checks_run_only_in_groups(tmp_path, capsys, monkeypatch):
    """The closed-form checks run alone; the identity checks, one stream
    here, run as one group and never reach run_check."""
    ran = _spy_runners(monkeypatch)
    code = run(["verify", "--all", "--config", write_config(tmp_path, std_config(n=200, grid=32)),
                "--output-dir", str(tmp_path / "o")])
    capsys.readouterr()
    assert code != 2
    assert ran == [("run_check", 0), ("run_check", 1), ("_run_shared", [2, 3, 4])]


def test_unknown_element_in_the_last_check_fails_before_any_check_runs(
    tmp_path, capsys, monkeypatch
):
    ran = _spy_runners(monkeypatch)
    cfg = std_config(n=200, grid=32)
    cfg["checks"][-1]["theta"] = "nosuch"
    out = tmp_path / "o"
    code = run(["verify", "--all", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and ran == [] and captured.out == ""
    assert captured.err == "error: checks[4].theta: unknown element 'nosuch'\n"
    assert not out.exists()


def test_one_spec_per_theta_and_ks_order(tmp_path, capsys, monkeypatch):
    """Checks over the same (theta, ks) at different q share one spec and
    so one summary; the same ks in another order is its own spec."""
    from feynpath import feynman

    built = []
    original = feynman.summary_of_elements
    monkeypatch.setattr(feynman, "summary_of_elements",
                        lambda elements: built.append(1) or original(elements))
    cfg = std_config()
    cfg["checks"] = [
        {"kind": "feynman", "theta": "theta", "ks": ["k1", "k2"], "q": 1.0},
        {"kind": "verify-recurrence", "theta": "theta", "ks": ["k1", "k2"], "q": -2.0},
        {"kind": "feynman", "theta": "theta", "ks": ["k1", "k2"], "q": 0.5},
    ]
    path = write_config(tmp_path, cfg)
    assert run(["verify", "--all", "--config", path, "--output-dir", str(tmp_path / "a")]) == 0
    assert len(built) == 1

    cfg["checks"].append({"kind": "feynman", "theta": "theta", "ks": ["k2", "k1"], "q": 1.0})
    path = write_config(tmp_path, cfg)
    built.clear()
    assert run(["verify", "--all", "--config", path, "--output-dir", str(tmp_path / "b")]) == 0
    assert len(built) == 2

    config = load_config(path)
    spec = config.spec("theta", ["k1", "k2"])
    assert config.spec("theta", ("k1", "k2")) is spec
    assert config.spec("theta", ["k2", "k1"]) is not spec
    assert config.supp("k1") is config.supp("k1") is spec.ks[0]


def test_config_hash_is_the_sha256_prefix_of_the_canonical_json(tmp_path):
    import hashlib

    cfg = std_config()
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    config = load_config(write_config(tmp_path, cfg))
    assert config.config_hash == hashlib.sha256(canonical).hexdigest()[:12]


def test_validate_profile_subcommand(tmp_path, capsys):
    profile_spec = {"T": 1.0, "a_prime": RAMP, "b_prime": ONE_PLUS_T}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile_spec))
    code = run(["validate-profile", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["passed"] is True
    assert out["cc2_value"] == pytest.approx(0.25)


def test_validate_profile_failure_exit_code(tmp_path, capsys):
    bad = {"T": 1.0, "a_prime": RAMP, "b_prime": RAMP}  # b'(0) = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["validate-profile", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is False


def test_validate_profile_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["validate-profile", str(path)]) == 2


def test_feynman_subcommand_monomial_flag(tmp_path, capsys):
    path = write_config(tmp_path, std_config())
    code = run(["feynman", "--monomial", "m=2", "--config", path, "--q", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["re"] == pytest.approx(0.0, abs=1e-12)
    assert out["im"] == pytest.approx(1.0, abs=1e-12)


def test_feynman_subcommand_explicit_ks(tmp_path, capsys):
    path = write_config(tmp_path, std_config())
    code = run(["feynman", "--config", path, "--q", "-2", "--ks", "k1", "--theta", "theta"])
    assert code == 0
    json.loads(capsys.readouterr().out)


def test_verify_all_passes_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cfg = std_config(n=2000, grid=128)
    path = write_config(tmp_path, cfg)
    code1 = run(["verify", "--all", "--config", path, "--output-dir", str(out1)])
    summary1 = json.loads(capsys.readouterr().out)
    code2 = run(["verify", "--all", "--config", path, "--output-dir", str(out2)])
    summary2 = json.loads(capsys.readouterr().out)
    assert code1 == 0 and code2 == 0
    assert summary1["all_pass"] and summary1["checks_run"] == 5
    ledger1 = (out1 / "ledger.csv").read_bytes()
    ledger2 = (out2 / "ledger.csv").read_bytes()
    assert ledger1 == ledger2
    assert summary1["config_hash"] == summary2["config_hash"]


def test_verify_failed_check_exit_code(tmp_path, capsys):
    cfg = std_config(n=500, grid=64)
    cfg["checks"] = [
        {
            "kind": "feynman",
            "theta": "theta",
            "ks": ["k1", "k2"],
            "q": 1.0,
            "expect": {"re": 5.0, "im": 5.0, "tol": 1e-12},
        }
    ]
    path = write_config(tmp_path, cfg)
    code = run(["verify", "--all", "--config", path, "--output-dir", str(tmp_path / "o")])
    summary = json.loads(capsys.readouterr().out)
    assert code == 1
    assert summary["all_pass"] is False


def test_verify_config_error_exit_code(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text('{"seed": "not-an-int"}')
    assert run(["verify", "--all", "--config", str(path)]) == 2


def test_flag_overrides_scalars(tmp_path, capsys):
    cfg = std_config(n=5000, grid=128)
    cfg["checks"] = [cfg["checks"][3]]  # one statistical check
    path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    run(["verify", "--all", "--config", path, "--n", "750", "--output-dir", str(out)])
    capsys.readouterr()
    ledger = (out / "ledger.csv").read_text().splitlines()
    assert ledger[1].split(",")[2] == "750"


def test_simulate_writes_files(tmp_path, capsys):
    path = write_config(tmp_path, std_config())
    dest = tmp_path / "paths.csv"
    code = run(
        ["simulate", "--config", path, "--n", "5", "--grid", "32", "--out", str(dest)]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["pass"] is True
    lines = dest.read_text().splitlines()
    assert len(lines) == 6  # node-time header plus five paths

    dest_bin = tmp_path / "paths.bin"
    run(["simulate", "--config", path, "--n", "3", "--grid", "16", "--out", str(dest_bin)])
    capsys.readouterr()
    assert dest_bin.read_bytes()[:8] == b"GBMPENS1"


def test_report_subcommand(tmp_path, capsys):
    cfg = std_config(n=500, grid=64)
    cfg["checks"] = cfg["checks"][:2]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    run(["verify", "--all", "--config", path, "--output-dir", str(out)])
    capsys.readouterr()
    code = run(["report", "--ledger", str(out / "ledger.csv")])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["entries"] == 2 and summary["failed"] == 0


def test_report_missing_file(capsys):
    assert run(["report", "--ledger", "/nonexistent/ledger.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cannot read /nonexistent/ledger.csv: No such file or directory\n"
    )


def _ledger_with(tmp_path, body):
    from feynpath.montecarlo import LEDGER_COLUMNS

    path = tmp_path / "ledger.csv"
    path.write_text(",".join(LEDGER_COLUMNS) + "\n" + "x,h,1,2,3,0,0,0,0,0,0,true\n" + body)
    return str(path)


@pytest.mark.parametrize("body", ["\n", "a,b,0\n", "x,h,1,2,3,0,0,0,0,0,0,maybe\n"],
                         ids=["blank-line", "truncated-row", "bad-pass"])
def test_report_rejects_malformed_rows(tmp_path, capsys, body):
    code = run(["report", "--ledger", _ledger_with(tmp_path, body)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "ledger line 3" in captured.err


def test_simulate_leaves_no_file_when_the_write_fails(tmp_path, monkeypatch, capsys):
    from feynpath import paths

    path = write_config(tmp_path, std_config())
    out = tmp_path / "sim"
    argv = ["simulate", "--config", path, "--n", "3000", "--grid", "32", "--out", str(out / "p.csv")]
    real, calls = paths._csv_rows, []

    def failing(block):
        calls.append(block.shape[0])
        if len(calls) == 4:
            raise RuntimeError("formatter failed")
        return real(block)

    monkeypatch.setattr(paths, "_csv_rows", failing)
    with pytest.raises(RuntimeError, match="formatter failed"):
        run(argv)
    assert len(calls) >= 4 and os.listdir(out) == []

    monkeypatch.setattr(paths, "_csv_rows", real)
    assert run(argv) == 0
    capsys.readouterr()
    assert os.listdir(out) == ["p.csv"]


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
@pytest.mark.parametrize("argv", [["simulate", "--out", "/dev/null/paths.bin"],
                                  ["verify", "--all", "--output-dir", "/dev/null/x"]],
                         ids=["simulate", "verify"])
def test_an_output_that_cannot_be_written_exits_2(argv):
    """An output under a path that is not a directory is reported as one
    error line naming the path and its reason, with exit code 2."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "feynpath", *argv, "--config", str(STD_JSON)],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "/dev/null" in errors[0]
    assert done.stdout == ""


def test_ledger_floats_have_17_digits(tmp_path, capsys):
    cfg = std_config(n=500, grid=64)
    cfg["checks"] = [cfg["checks"][3]]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    run(["verify", "--all", "--config", path, "--output-dir", str(out)])
    capsys.readouterr()
    row = (out / "ledger.csv").read_text().splitlines()[1].split(",")
    lhs_re = row[5]
    assert len(lhs_re.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 15


# Check JSONs of a feynman check with expect (so its audit is rendered), a
# verify-recurrence check and a simulate check, as written before the CLI
# rendered results through one JSON renderer; "written" is relative to <out>.
PINNED_CHECK_JSONS = {
    "check_000_feynman-0.json": """\
{
  "audit": [
    {
      "cov": [
        [
          1.4999999999999998,
          0.83333333333333326
        ],
        [
          0.83333333333333326,
          0.58333333333333315
        ]
      ],
      "means": [
        0.5,
        0.33333333333333326
      ],
      "op": "feynman_monomial",
      "q": 1,
      "value": {
        "im": 0.99999999999999989,
        "re": 2.2204460492503128e-16
      }
    }
  ],
  "grid_size": 32,
  "kind": "feynman",
  "n_paths": 200,
  "name": "feynman-0",
  "pass": true,
  "q": 1,
  "seed": 42,
  "value": {
    "im": 0.99999999999999989,
    "re": 2.2204460492503128e-16
  }
}
""",
    "check_001_verify-recurrence-1.json": """\
{
  "grid_size": 32,
  "kind": "verify-recurrence",
  "n_paths": 200,
  "name": "verify-recurrence-1",
  "oracle": {
    "im": -0.22569444444444436,
    "re": -0.22569444444444436
  },
  "pass": true,
  "recurrence": {
    "im": -0.22569444444444436,
    "re": -0.22569444444444436
  },
  "relative_error": 0,
  "seed": 42
}
""",
    "check_002_simulate-2.json": """\
{
  "grid_size": 8,
  "kind": "simulate",
  "n_paths": 3,
  "name": "simulate-2",
  "pass": true,
  "profile": "std",
  "seed": 42,
  "written": "<out>/simulate-2.csv"
}
""",
}


def test_check_json_bytes_are_pinned(tmp_path, capsys):
    cfg = std_config(n=200, grid=32)
    cfg["checks"] = cfg["checks"][:2] + [{"kind": "simulate", "n_paths": 3, "grid_size": 8}]
    out = tmp_path / "o"
    assert run(["verify", "--all", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(out)]) == 0
    capsys.readouterr()
    written = {name: (out / name).read_text().replace(str(out), "<out>")
               for name in os.listdir(out) if name.startswith("check_")}
    assert written == PINNED_CHECK_JSONS


def _pieces(*coeffs):
    return {"breakpoints": [0.0, 0.25, 0.5, 0.75, 1.0], "coeffs": [list(c) for c in coeffs]}


# A closed-form config over a 4-piece profile whose a' changes sign inside
# every piece (so |a'| has 8 pieces), with multi-piece densities and
# monomial degrees up to 11: every check merges breakpoints and multiplies
# and adds pieces.
CLOSED_FORM_CONFIG = {
    "seed": 5,
    "profiles": {"p4": {
        "T": 1.0,
        "a_prime": _pieces([-0.1, 1.0], [0.4375, -1.25], [-0.45, 0.75], [1.35, -1.5]),
        "b_prime": _pieces([1.5, -0.25, 0.3], [1.25, 0.4, 0.1], [1.75, -0.5, 0.2],
                           [1.1, 0.3, 0.45]),
    }},
    "elements": {
        "theta": {"profile": "p4", "density": _pieces([0.6, -0.4, 0.7], [-0.5, 0.35, 0.45],
                                                      [0.75, 0.3, -0.55], [-0.65, 0.5, 0.4])},
        "k1": {"profile": "p4", "density": {"breakpoints": [0.0, 1.0],
                                            "coeffs": [[0.45, -0.7, 0.35, 0.6]]}},
        "k2": {"profile": "p4", "density": _pieces([0.5, 0.4, -0.3], [-0.55, 0.65, 0.35],
                                                   [0.7, -0.45, 0.5], [0.4, 0.6, -0.75])},
        "k3": {"profile": "p4", "density": {"breakpoints": [0.0, 1.0],
                                            "coeffs": [[-0.35, 0.55, 0.8, -0.45]]}},
        "k4": {"profile": "p4", "density": _pieces([-0.8, 0.3, 0.55], [0.45, -0.6, 0.7],
                                                   [-0.4, 0.75, 0.3], [0.65, -0.35, -0.5])},
    },
    "checks": [
        {"kind": kind, "name": "%s-m%d" % (kind, m), "theta": "theta",
         "ks": ["k%d" % ((j + m) % 4 + 1) for j in range(m)], "q": q}
        for m, q in ((2, 1.25), (5, -0.75), (8, 1.5), (11, -1.75))
        for kind in ("feynman", "verify-recurrence")
    ],
}

# Its ledger rows below the header, as written before the piecewise
# products and merges moved off numpy.polynomial and np.union1d.
PINNED_CLOSED_FORM_LEDGER = """\
feynman-m2,c395b2894913,0,0,5,0,0.024529697807234952,0,0.024529697807234952,0,0,true
verify-recurrence-m2,c395b2894913,0,0,5,0,0.024529697807234952,0,0.024529697807234952,0,0,true
feynman-m5,c395b2894913,0,0,5,-1.7860603563629219e-05,1.7860603563629219e-05,-1.7860603563629219e-05,1.7860603563629219e-05,0,0,true
verify-recurrence-m5,c395b2894913,0,0,5,-1.7860603563629219e-05,1.7860603563629219e-05,-1.7860603563629219e-05,1.7860603563629219e-05,0,0,true
feynman-m8,c395b2894913,0,0,5,7.8539418371348048e-06,0,7.8539418371348048e-06,0,0,0,true
verify-recurrence-m8,c395b2894913,0,0,5,7.8539418371348048e-06,0,7.8539418371348065e-06,0,0,0,true
feynman-m11,c395b2894913,0,0,5,3.7329386062131576e-09,3.7329386062131659e-09,3.7329386062131576e-09,3.7329386062131659e-09,0,0,true
verify-recurrence-m11,c395b2894913,0,0,5,3.7329386062131576e-09,3.7329386062131659e-09,3.7329386062133702e-09,3.7329386062133784e-09,0,0,true
"""


def test_closed_form_ledger_is_pinned(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["verify", "--all", "--config", write_config(tmp_path, CLOSED_FORM_CONFIG),
                "--output-dir", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "ledger.csv").read_text().split("\n", 1)[1]
    assert rows == PINNED_CLOSED_FORM_LEDGER


def test_validate_profile_from_full_config(tmp_path, capsys):
    path = write_config(tmp_path, std_config())
    code = run(["validate-profile", path, "--profile", "std"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"] is True


def test_verify_selected_check_indices(tmp_path, capsys):
    path = write_config(tmp_path, std_config(n=500, grid=64))
    out = tmp_path / "o"
    code = run(["verify", "--config", path, "--check", "0", "1", "--output-dir", str(out)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0 and summary["checks_run"] == 2


def test_repeated_check_flags_add_up(tmp_path, capsys):
    path = write_config(tmp_path, std_config(n=500, grid=64))
    out = tmp_path / "o"
    code = run(["verify", "--config", path, "--check", "0", "--check", "1",
                "--output-dir", str(out)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0 and summary["checks_run"] == 2
    assert sorted(p.name[:9] for p in out.glob("check_*.json")) == ["check_000", "check_001"]


@pytest.mark.parametrize("argv", [["--check"], ["--check", "0", "--check"]],
                         ids=["bare", "bare-after-an-index"])
def test_check_without_an_index_is_rejected(tmp_path, capsys, argv):
    """A --check with no index exits 2 before any check runs, rather than
    running every check: no ledger and no check JSON are written."""
    path = write_config(tmp_path, std_config(n=500, grid=64))
    out = tmp_path / "o"
    assert run(["verify", "--config", path, *argv, "--output-dir", str(out)]) == 2
    assert "expected at least one argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--all", "--check", "0"], ["--check", "1", "--all"]],
                         ids=["all-first", "check-first"])
def test_all_and_check_are_rejected_together(tmp_path, capsys, argv):
    """--all and --check name the checks two ways; given both, verify
    exits 2 before any check runs rather than silently dropping one."""
    path = write_config(tmp_path, std_config(n=500, grid=64))
    out = tmp_path / "o"
    assert run(["verify", "--config", path, *argv, "--output-dir", str(out)]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_runs_in_one_process_parse_into_namespaces_of_their_own(tmp_path, capsys):
    """run builds its parser once per process, and each run still gets a
    fresh namespace: no earlier run's --check list carries over."""
    import feynpath.cli as cli

    cli.build_parser.cache_clear()
    path = write_config(tmp_path, std_config(n=500, grid=64))
    runs = [
        ("checks", ["verify", "--config", path, "--check", "0", "--check", "1"]),
        ("all", ["verify", "--all", "--config", path]),
        ("one", ["verify", "--config", path, "--check", "2"]),
    ]
    for name, argv in runs:
        assert run(argv + ["--output-dir", str(tmp_path / name)]) == 0
        capsys.readouterr()
    assert run(["report", "--ledger", str(tmp_path / "all" / "ledger.csv")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert cli.build_parser.cache_info().misses == 1
    assert summary["entries"] == 5 and summary["failed"] == 0
    written = {name: sorted(p.name[:9] for p in (tmp_path / name).glob("check_*.json"))
               for name, _ in runs}
    assert written == {
        "checks": ["check_000", "check_001"],
        "all": ["check_%03d" % i for i in range(5)],
        "one": ["check_002"],
    }


def _set(cfg, key, value):
    """Set the dotted ``key`` (list indices as numbers) of a config dict."""
    *parents, last = key.split(".")
    for part in parents:
        cfg = cfg[int(part)] if isinstance(cfg, list) else cfg[part]
    cfg[int(last) if isinstance(cfg, list) else last] = value


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["feynman", "--q", "1", "--monomial", "m=abc"], None, None),
        (["feynman", "--q", "1", "--monomial", "m=-1"], None, None),
        (["verify", "--all", "--seed", "-1"], None, None),
        (["verify", "--all"], "seed", 2**64),
        (["verify", "--check", "9"], None, None),
        (["verify", "--all", "--n", "0"], None, None),
        (["verify", "--all", "--grid", "0"], None, None),
        (["verify", "--all"], "n_paths", "abc"),
        (["verify", "--all"], "n_paths", True),
        (["verify", "--all"], "n_paths", 2000.5),
        (["verify", "--all"], "grid_size", "abc"),
        (["verify", "--all"], "checks.3.n_paths", "abc"),
        (["verify", "--all"], "checks.3.grid_size", 64.5),
        (["verify", "--all"], "checks.3.n_paths", 0),
        (["verify", "--all"], "checks.4.seed", "x"),
        (["verify", "--all"], "profiles.std.T", "x"),
        (["verify", "--all"], "checks.3.rho", "x"),
        (["verify", "--all"], "checks.4.lambda", False),
        (["verify", "--all"], "checks.1.q", "x"),
        (["verify", "--all"], "checks.1.q", float("nan")),
        (["verify", "--all"], "checks.0.expect.re", "x"),
        (["verify", "--all"], "checks.0.expect.im", None),
        (["verify", "--all"], "checks.0.expect.tol", "x"),
        (["verify", "--all"], "checks.4", {"kind": "simulate", "profile": "nosuch"}),
        (["verify", "--all"], "checks.4", {"kind": "simulate", "format": "parquet"}),
        (["verify", "--all"], "checks.4", {"kind": "simulate", "out": "../escaped.csv"}),
        (["verify", "--all"], "checks.4", {"kind": "simulate", "out": "sub/x.csv"}),
        (["verify", "--all"], "checks.4", {"kind": "simulate", "out": 5}),
        (["verify", "--all"], "checks.4", {"kind": "simulate", "out": "a.bin", "format": "csv"}),
        (["simulate", "--profile", "nosuch"], None, None),
        (["feynman", "--q", "0"], None, None),
        (["verify", "--all"], "checks.0.name", "../x"),
        (["verify", "--all"], "checks.0.name", "a/b"),
        (["verify", "--all"], "checks.0.name", ""),
        (["verify", "--all"], "checks.0.name", 5),
        (["verify", "--all"], "checks.0.name", "a\0b"),
        (["verify", "--all"], "profiles", []),
        (["verify", "--all"], "elements", []),
        (["verify", "--all"], "checks", 5),
        (["verify", "--all"], "checks", {}),
        (["verify", "--all"], "output_dir", ""),
        (["verify", "--all"], "output_dir", 5),
        (["verify", "--all"], "checks.4.theta", "nosuch"),
        (["verify", "--all"], "checks.1.ks", "k1"),
        (["verify", "--all"], "checks.1.ks", ["k1", "nosuch"]),
        (["verify", "--all"], "checks.2.k2", "nosuch"),
        (["verify", "--all"], "checks.3.k1", ["k1"]),
        (["verify", "--all"], "checks.2.functional.w0", "nosuch"),
        (["verify", "--all"], "checks.3.functional.ks", ["nosuch"]),
        (["verify", "--all"], "checks.3.functional.theta", "nosuch"),
        (["verify", "--all"], "checks.4.functional",
         {"type": "exp_linear", "w0": "theta", "c": {"re": "x", "im": 0.0}}),
        (["verify", "--all"], "checks.4.functional",
         {"type": "exp_linear", "w0": "theta", "c": {"re": 1.0, "im": 0.0}}),
        (["verify", "--all"], "checks.4.functional",
         {"type": "exp_linear", "w0": "theta", "c": {"re": 1.0, "im": 0.0},
          "allow_unbounded": "no"}),
        (["verify", "--all"], "checks.4.k2", "far"),
        (["verify", "--all"], "checks.2.k1", "far"),
        (["verify", "--all"], "checks.2.functional.w0", "far"),
        (["verify", "--all"], "checks.3.theta", "far"),
    ],
    ids=["monomial-not-int", "monomial-negative", "seed-negative", "config-seed-2^64",
         "check-out-of-range", "n-zero", "grid-zero", "n_paths-text", "n_paths-bool",
         "n_paths-fraction", "grid_size-text", "check-n_paths-text", "check-grid_size-fraction",
         "check-n_paths-zero",
         "check-seed-text",
         "T-text", "rho-text", "lambda-bool", "q-text", "q-nan", "expect-re-text",
         "expect-im-null", "expect-tol-text", "simulate-check-unknown-profile",
         "simulate-check-unknown-format", "simulate-check-out-escapes",
         "simulate-check-out-in-subdirectory", "simulate-check-out-not-a-string",
         "simulate-check-format-disagrees-with-out", "simulate-unknown-profile", "feynman-q-zero",
         "name-parent-dir", "name-with-separator", "name-empty", "name-not-a-string", "name-nul",
         "profiles-list", "elements-list", "checks-number", "checks-object",
         "output_dir-empty", "output_dir-number", "theta-unknown", "ks-a-string",
         "ks-unknown", "k2-unknown", "k1-a-list", "functional-w0-unknown",
         "functional-ks-unknown", "functional-theta-unknown", "functional-c-text",
         "functional-unbounded-exp", "functional-allow_unbounded-text",
         "k2-over-another-profile", "k1-over-another-profile",
         "functional-w0-over-another-profile", "theta-over-another-profile"],
)
def test_bad_input_is_a_config_error(tmp_path, capsys, argv, key, value):
    cfg = std_config(n=200, grid=32)
    if value == "far":
        cfg["profiles"]["long"], cfg["elements"]["far"] = LONG, FAR
    if key is not None:
        _set(cfg, key, value)
    out = tmp_path / "o"
    argv = argv + ["--config", write_config(tmp_path, cfg)]
    if argv[0] == "verify":
        argv += ["--output-dir", str(out)]
    if argv[0] == "simulate":
        argv += ["--out", str(out / "paths.csv")]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    if key is not None:
        assert key.split(".")[-1] in captured.err
    assert not (out / "ledger.csv").exists() and not (out / "paths.csv").exists()
    assert set(os.listdir(tmp_path)) <= {"config.json", "o"}


@pytest.mark.parametrize(
    "argv, key, value, named",
    [
        (["verify", "--all"], "profiles.std", 5, "profiles.std: expected an object"),
        (["verify", "--all"], "checks.1.q", 10**400, "checks[1].q must be a finite number"),
        (["verify", "--all"], "profiles.std.a_prime",
         {"breakpoints": [0.0, 0.6, 0.4, 1.0], "coeffs": [[0.0], [1.0], [0.0]]},
         "profiles.std.a_prime: breakpoints must be strictly increasing"),
        (["verify", "--all"], "checks.3.functional", {"type": "nosuch"},
         "checks[3].functional: unknown functional type 'nosuch'"),
        (["verify", "--all"], "checks.4", 5, "checks[4]: expected an object"),
        (["verify", "--all"], "elements.k2.profile", "nosuch",
         "elements.k2: unknown profile 'nosuch'"),
        (["validate-profile", "--profile", "nosuch"], None, None, "unknown profile 'nosuch'"),
    ],
    ids=["profile-not-an-object", "q-400-digits", "breakpoints-not-increasing",
         "functional-type-unknown", "check-not-an-object", "element-profile-unknown",
         "validate-profile-unknown"],
)
def test_config_error_names_its_key_in_one_line(tmp_path, capsys, argv, key, value, named):
    cfg = std_config(n=200, grid=32)
    if key is not None:
        _set(cfg, key, value)
    out = tmp_path / "o"
    path = write_config(tmp_path, cfg)
    if argv[0] == "verify":
        argv = argv + ["--config", path, "--output-dir", str(out)]
    else:
        argv = [argv[0], path] + argv[1:]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: %s" % named) and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("checks.0.q", 0.0, "checks[0].q"),
        ("checks.1.q", 0, "checks[1].q"),
        ("checks.3.rho", 0.0, "checks[3].rho"),
        ("checks.3.rho", -1.0, "checks[3].rho"),
        ("checks.4.lambda", 0, "checks[4].lambda"),
        ("checks.4.lambda", -4.0, "checks[4].lambda"),
        ("checks.0.expect.tol", -1e-12, "checks[0].expect.tol"),
    ],
    ids=["feynman-q-zero", "recurrence-q-zero", "rho-zero", "rho-negative", "lambda-zero",
         "lambda-negative", "tol-negative"],
)
def test_parameter_domain_is_checked_before_any_check_runs(
    tmp_path, capsys, monkeypatch, key, value, named
):
    ran = _spy_runners(monkeypatch)
    cfg = std_config(n=200, grid=32)
    _set(cfg, key, value)
    out = tmp_path / "o"
    code = run(["verify", "--all", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and ran == [] and captured.out == ""
    assert captured.err.startswith("error: %s" % named)
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, check_n, named",
    [(["--n", "1"], None, "checks[3]"), ([], 1, "checks[4]")],
    ids=["flag", "check"],
)
def test_an_identity_check_needs_two_paths(tmp_path, capsys, flags, check_n, named):
    """One path has no standard error, so an identity check at n = 1
    exits 2, naming n_paths, before any check runs or anything is
    written; the simulate check listed first writes nothing either."""
    cfg = std_config(n=200, grid=32)
    cfg["checks"].insert(0, {"kind": "simulate", "n_paths": 3, "grid_size": 8})
    if check_n is not None:
        cfg["checks"][4]["n_paths"] = check_n
    out = tmp_path / "o"
    code = run(["verify", "--all", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(out)] + flags)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: %s: an identity check needs n_paths >= 2" % named)
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_one_path_is_valid_outside_the_identity_checks(tmp_path, capsys):
    cfg = std_config(n=200, grid=32)
    cfg["checks"] = cfg["checks"][:2] + [{"kind": "simulate", "grid_size": 8}]
    out = tmp_path / "o"
    code = run(["verify", "--all", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(out), "--n", "1"])
    capsys.readouterr()
    assert code == 0
    rows = (out / "ledger.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",true") for row in rows)
    assert len((out / "simulate-2.csv").read_text().splitlines()) == 2  # header and 1 path


def test_verify_writes_the_header_into_an_empty_ledger(tmp_path, capsys):
    cfg = std_config()
    cfg["checks"] = cfg["checks"][:2]
    out = tmp_path / "o"
    out.mkdir()
    (out / "ledger.csv").write_text("")
    code = run(["verify", "--all", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(out)])
    capsys.readouterr()
    assert code == 0
    assert run(["report", "--ledger", str(out / "ledger.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 2


def test_verify_appends_under_no_foreign_header(tmp_path, capsys, monkeypatch):
    ran = _spy_runners(monkeypatch)
    out = tmp_path / "o"
    out.mkdir()
    ledger = out / "ledger.csv"
    ledger.write_text("name,value\nx,1\n")
    code = run(["verify", "--all", "--config", write_config(tmp_path, std_config()),
                "--output-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and ran == [] and captured.out == ""
    assert captured.err.startswith("error: %s is not a ledger file" % ledger)
    assert ledger.read_text() == "name,value\nx,1\n" and os.listdir(out) == ["ledger.csv"]


def _unterminated_ledger(kind):
    """A ledger whose last line has no newline: the bare header, or a
    ledger cut off inside its second row."""
    from feynpath.montecarlo import LEDGER_COLUMNS

    header = ",".join(LEDGER_COLUMNS)
    if kind == "header":
        return header
    return header + "\nx,h,1,2,3,0,0,0,0,0,0,true\ny,h,1,2"


@pytest.mark.parametrize("kind", ["header", "truncated-row"])
def test_verify_refuses_a_ledger_without_a_final_newline(tmp_path, capsys, monkeypatch, kind):
    ran = _spy_runners(monkeypatch)
    out = tmp_path / "o"
    out.mkdir()
    ledger = out / "ledger.csv"
    ledger.write_text(_unterminated_ledger(kind))
    code = run(["verify", "--all", "--config", write_config(tmp_path, std_config()),
                "--output-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and ran == [] and captured.out == ""
    assert captured.err.startswith("error: %s does not end in a newline" % ledger)
    assert ledger.read_text() == _unterminated_ledger(kind) and os.listdir(out) == ["ledger.csv"]


@pytest.mark.parametrize("kind", ["header", "truncated-row"])
def test_report_refuses_a_ledger_without_a_final_newline(tmp_path, capsys, kind):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(_unterminated_ledger(kind))
    code = run(["report", "--ledger", str(ledger)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: %s does not end in a newline" % ledger)


def test_verify_rejects_a_duplicate_check_index(tmp_path, capsys):
    out = tmp_path / "o"
    code = run(["verify", "--config", write_config(tmp_path, std_config(n=200, grid=32)),
                "--check", "1", "0", "1", "--output-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --check: check 1 is listed more than once\n"
    assert not out.exists()


def test_verify_rejects_a_check_index_repeated_across_flags(tmp_path, capsys):
    out = tmp_path / "o"
    code = run(["verify", "--config", write_config(tmp_path, std_config(n=200, grid=32)),
                "--check", "0", "--check", "0", "--output-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --check: check 0 is listed more than once\n"
    assert not out.exists()


def test_validate_profile_rejects_profile_flag_on_a_bare_profile(tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"T": 1.0, "a_prime": RAMP, "b_prime": ONE_PLUS_T}))
    code = run(["validate-profile", str(path), "--profile", "nosuch"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: --profile 'nosuch': ")


@pytest.mark.parametrize(
    "functional",
    [{"type": "cos_linear", "w0": "theta"}, {"type": "exp_linear", "w0": "theta",
                                             "c": {"re": 0.0, "im": 1.0}}],
    ids=["cos_linear", "exp_linear"],
)
def test_verify_cs_takes_any_functional(tmp_path, capsys, functional):
    cfg = std_config(n=2000, grid=128)
    cfg["checks"] = [dict(cfg["checks"][4], functional=functional)]
    out = tmp_path / "o"
    code = run(["verify", "--all", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(out)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0 and summary["all_pass"] and summary["checks_run"] == 1


def test_shipped_std_config_runs(tmp_path, capsys):
    code = run(["verify", "--all", "--config", str(STD_JSON), "--n", "2000", "--grid", "128",
                "--output-dir", str(tmp_path)])
    capsys.readouterr()
    rows = (tmp_path / "ledger.csv").read_text().splitlines()[1:]
    assert code == 0
    assert len(rows) == 7
    assert all(row.endswith(",true") for row in rows)


def test_simulate_format_follows_the_suffix_in_any_case(tmp_path, capsys):
    """simulate --out and a simulate check's out take the format from the
    suffix of the name."""
    cfg = std_config()
    cfg["checks"] = [{"kind": "simulate", "out": "a.bin", "n_paths": 3, "grid_size": 8}]
    path = write_config(tmp_path, cfg)
    runs = [(["simulate", "--n", "3", "--grid", "8", "--out", str(tmp_path / name)],
             tmp_path / name, is_binary)
            for name, is_binary in (("x.BIN", True), ("y.Bin", True), ("z.CSV", False))]
    runs.append((["verify", "--all", "--output-dir", str(tmp_path / "o")],
                 tmp_path / "o" / "a.bin", True))
    for argv, dest, is_binary in runs:
        assert run(argv + ["--config", path]) == 0
        capsys.readouterr()
        assert (dest.read_bytes()[:8] == b"GBMPENS1") is is_binary
        if not is_binary:
            assert len(dest.read_text().splitlines()) == 4


@pytest.mark.parametrize("name", ["x.parquet", "x", "x.csv.gz"])
def test_simulate_unknown_suffix_is_a_config_error(tmp_path, capsys, name):
    out = tmp_path / "o"
    code = run(["simulate", "--config", write_config(tmp_path, std_config()),
                "--out", str(out / name)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error: ") and captured.out == ""
    assert "--out" in captured.err and not out.exists()


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("profiles.std.a_prime.coeffs.0", [0.0, float("inf")], "a_prime.coeffs[0]"),
        ("profiles.std.a_prime.coeffs.0", [0.0, float("nan")], "a_prime.coeffs[0]"),
        ("profiles.std.b_prime.coeffs.0", [1.0, float("-inf")], "b_prime.coeffs[0]"),
        ("profiles.std.b_prime.breakpoints", [0.0, float("inf")], "b_prime.breakpoints"),
        ("elements.k2.density.coeffs.0", [float("nan"), 1.0], "k2.density.coeffs[0]"),
    ],
    ids=["a_prime-inf", "a_prime-nan", "b_prime-inf", "b_prime-breakpoint-inf", "density-nan"],
)
def test_non_finite_polynomial_is_a_config_error(tmp_path, capsys, key, value, named):
    cfg = json.loads(json.dumps(std_config(n=200, grid=32)))  # unshare the polynomials
    _set(cfg, key, value)
    out = tmp_path / "o"
    code = run(["verify", "--all", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error: ") and captured.out == ""
    assert named in captured.err and "finite" in captured.err
    assert not out.exists()


def test_non_finite_literal_in_config_text_is_rejected(tmp_path, capsys):
    """1e400 in the file parses to inf and is rejected at load."""
    text = json.dumps(std_config(n=200, grid=32)).replace("[0.0, 1.0]]", "[0.0, 1e400]]", 1)
    path = tmp_path / "config.json"
    path.write_text(text)
    assert run(["verify", "--check", "0", "--config", str(path),
                "--output-dir", str(tmp_path / "o")]) == 2
    assert "a_prime.coeffs[0]" in capsys.readouterr().err


def test_failed_verify_leaves_no_partial_output(tmp_path, capsys, monkeypatch):
    """A result that cannot be written (a non-finite value) fails the run
    before the ledger or any check JSON is written."""
    import feynpath.cli as cli

    monkeypatch.setattr(cli, "feynman_monomial", lambda spec, q: complex("inf"))
    cfg = std_config(n=200, grid=32)
    cfg["checks"] = cfg["checks"][3:4] + cfg["checks"][:1]
    out = tmp_path / "o"
    code = run(["verify", "--all", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and "non-finite" in captured.err and captured.out == ""
    assert os.listdir(out) == []


def test_checks_build_their_grid_from_their_own_profile(tmp_path, capsys):
    """An element over a profile with another horizon changes no row but
    the config hash: each check's grid holds only the breakpoints of the
    elements over its own profile."""
    cfg = json.loads(STD_JSON.read_text())
    cfg["checks"].append({"kind": "simulate", "n_paths": 7, "grid_size": 8})
    wide = json.loads(json.dumps(cfg))
    half = {"breakpoints": [0.0, 0.7, 2.0], "coeffs": [[1.0], [0.5]]}
    wide["profiles"]["long"] = {"T": 2.0, "a_prime": {"breakpoints": [0.0, 2.0],
                                                      "coeffs": [[0.0]]}, "b_prime": half}
    wide["elements"]["far"] = {"profile": "long", "density": half}
    rows = {}
    for name, c in (("std", cfg), ("wide", wide)):
        path, out = write_config(tmp_path, c, name + ".json"), tmp_path / name
        assert run(["verify", "--all", "--n", "50", "--grid", "16", "--config", path,
                    "--output-dir", str(out)]) == 0
        ledger = (out / "ledger.csv").read_text()
        rows[name] = ledger.replace(load_config(path).config_hash, "<hash>")
    assert rows["wide"] == rows["std"]


def test_degree_8_densities_run_feynman_and_recurrence(tmp_path, capsys):
    """theta and k1 of degree 8 put joint degree 33 into the Cameron-Martin
    products; the closed-form checks are exact there too."""
    dens = {"breakpoints": [0.0, 1.0], "coeffs": [[0.5**j for j in range(9)]]}
    cfg = std_config()
    cfg["elements"]["theta"]["density"] = dens
    cfg["elements"]["k1"]["density"] = dens
    del cfg["checks"][0]["expect"]
    path = write_config(tmp_path, cfg)
    assert run(["feynman", "--config", path, "--q", "1"]) == 0
    value = json.loads(capsys.readouterr().out)
    assert np.isfinite([value["re"], value["im"]]).all()
    assert run(["verify", "--config", path, "--check", "0", "1",
                "--output-dir", str(tmp_path / "o")]) == 0


# ---------------------------------------------------------------------------
# One draw per stream: identity checks over the same (profile, grid, n,
# seed) share one draw of their columns.


def _without_wall_times(value):
    if isinstance(value, dict):
        return {k: _without_wall_times(v) for k, v in value.items() if k != "wall_time"}
    return value


def test_verify_all_ledger_equals_the_checks_run_one_by_one(tmp_path, capsys):
    """A shared draw gives every check the row it gets alone."""
    flags = ["--config", str(STD_JSON), "--n", "3001", "--grid", "64"]
    shared, alone = tmp_path / "shared", tmp_path / "alone"
    codes = {run(["verify", "--all", *flags, "--output-dir", str(shared)])}
    count = len(load_config(str(STD_JSON)).checks)
    for i in range(count):
        codes.add(run(["verify", "--check", str(i), *flags, "--output-dir", str(alone)]))
    capsys.readouterr()
    assert 2 not in codes
    assert (shared / "ledger.csv").read_bytes() == (alone / "ledger.csv").read_bytes()
    for name in sorted(os.listdir(shared)):
        if name.startswith("check_"):
            one, two = (json.loads((d / name).read_text()) for d in (shared, alone))
            one.pop("draw", None), two.pop("draw", None)
            assert _without_wall_times(one) == _without_wall_times(two), name


def _count_draws(monkeypatch):
    """The (n, seed) of every call of the stream montecarlo draws from."""
    import feynpath.montecarlo as mc

    calls = []
    original = mc.stream_increments

    def counted(profile, grid, n_paths, seed, **kwargs):
        calls.append((n_paths, seed))
        return original(profile, grid, n_paths, seed, **kwargs)

    monkeypatch.setattr(mc, "stream_increments", counted)
    return calls


@pytest.mark.parametrize(
    "check_keys, flags, draws",
    [
        ({}, ["--all"], [(500, 42)]),
        ({"seed": 43}, ["--all"], [(500, 42), (500, 43)]),
        ({"n_paths": 600}, ["--all"], [(500, 42), (600, 42)]),
        ({"seed": 42}, ["--all"], [(500, 42)]),
        ({"seed": 43}, ["--all", "--seed", "9"], [(500, 9)]),
        ({"n_paths": 600}, ["--all", "--n", "700"], [(700, 42)]),
        ({}, ["--check", "0"], []),
        ({}, ["--check", "0", "6", "1"], [(500, 42)]),
    ],
    ids=["std", "own-seed", "own-n", "seed-equal-to-the-config", "seed-flag", "n-flag",
         "closed-form-only", "one-check"],
)
def test_one_draw_per_stream(tmp_path, capsys, monkeypatch, check_keys, flags, draws):
    """Checks are grouped by their (n, seed) after the flags; a check
    with a scalar of its own is a stream of its own."""
    cfg = json.loads(STD_JSON.read_text())
    cfg.update(n_paths=500, grid_size=32)
    cfg["checks"][4].update(check_keys)
    calls = _count_draws(monkeypatch)
    code = run(["verify", *flags, "--config", write_config(tmp_path, cfg),
                "--output-dir", str(tmp_path / "o")])
    capsys.readouterr()
    assert code != 2 and calls == draws


def test_checks_share_one_projection_per_equal_matrix(tmp_path, capsys, monkeypatch):
    """A group's stream projects each distinct density matrix once, and
    each check's verify function gets its own member of that one draw."""
    import feynpath.montecarlo as mc

    seen, shapes = [], []
    for name in ("verify_translation", "verify_parts", "verify_cs_precursor"):
        def spy(*args, _original=getattr(mc, name), columns=None, **kwargs):
            seen.append(columns)
            return _original(*args, columns=columns, **kwargs)

        monkeypatch.setattr(mc, name, spy)
    real = mc.stream_increments

    def stream(*args, onto=None, **kwargs):
        shapes.append([D.shape for D in onto])
        return real(*args, onto=onto, **kwargs)

    monkeypatch.setattr(mc, "stream_increments", stream)
    cfg = json.loads(STD_JSON.read_text())
    cfg.update(n_paths=300, grid_size=32)
    assert run(["verify", "--all", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(tmp_path / "o")]) != 2
    capsys.readouterr()
    # std.json: checks 2-4 project onto [1, t], checks 5-6 onto [1, t, t]
    assert shapes == [[(32, 2), (32, 3)]]
    assert [m.index for m in seen] == [0, 1, 2, 3, 4]
    assert all(m.draw is seen[0].draw for m in seen)


def test_verify_streams_once_per_group_and_calls_each_verify_once(tmp_path, capsys,
                                                                  monkeypatch):
    """verify --all starts one stream per group and calls each check's
    mc.verify_* function once, with the functional and the path count
    bound to the names F and n; it draws no columns array."""
    import inspect

    import feynpath.montecarlo as mc

    calls = _count_draws(monkeypatch)
    verified = []
    for name in ("verify_translation", "verify_parts", "verify_cs_precursor"):
        original = getattr(mc, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            bound = inspect.signature(_original).bind(*args, **kwargs).arguments
            verified.append((_name, bound["n"], type(bound["F"]).__name__))
            return _original(*args, **kwargs)

        monkeypatch.setattr(mc, name, spy)

    def no_draw(*args, **kwargs):
        raise AssertionError("verify drew a columns array")

    monkeypatch.setattr(mc, "draw_columns", no_draw)
    cfg = json.loads(STD_JSON.read_text())
    cfg.update(n_paths=300, grid_size=32)
    cfg["checks"][4]["n_paths"] = 400  # parts-rho1 is a group of its own
    assert run(["verify", "--all", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(tmp_path / "o")]) != 2
    capsys.readouterr()
    assert calls == [(300, 42), (400, 42)]
    assert verified == [("verify_translation", 300, "CosLinear"),
                        ("verify_translation", 300, "MonomialSpec"),
                        ("verify_parts", 300, "MonomialSpec"),
                        ("verify_cs_precursor", 300, "MonomialSpec"),
                        ("verify_parts", 400, "MonomialSpec")]


def test_an_infinite_sigma_ratio_fails_its_check_and_is_written(tmp_path, capsys, monkeypatch):
    """A report with diff_se 0 and a discrepancy above rounding has an
    infinite sigma_ratio: its ledger row reads inf and false, its check
    JSON null and false, every other check is written, and verify exits 1."""
    import dataclasses

    import feynpath.montecarlo as mc

    original = mc.verify_translation

    def inexact(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), discrepancy=1.0, diff_se=0.0)

    monkeypatch.setattr(mc, "verify_translation", inexact)
    out = tmp_path / "o"
    code = run(["verify", "--all", "--config", str(STD_JSON), "--n", "200", "--grid", "32",
                "--output-dir", str(out)])
    capsys.readouterr()
    assert code == 1
    rows = (out / "ledger.csv").read_text().splitlines()[1:]
    names = sorted(name for name in os.listdir(out) if name.startswith("check_"))
    assert len(rows) == 7 and len(names) == 7
    for row in rows:
        fields = row.split(",")
        if fields[0].startswith("translation-"):
            assert fields[-2:] == ["inf", "false"]
        else:
            assert fields[-1] == "true"
    for name in names:
        result = json.loads((out / name).read_text())
        if result["kind"] == "verify-translation":
            assert result["sigma_ratio"] is None and result["pass"] is False
            assert (result["discrepancy"], result["diff_se"]) == (1.0, 0.0)


def test_other_non_finite_floats_are_still_refused():
    for value in (float("inf"), float("nan"), {"sigma_ratio": float("-inf")}):
        with pytest.raises(ConfigError, match="non-finite"):
            _json_17g(value)


def test_statistical_check_json_reports_its_draw(tmp_path, capsys):
    """Each identity check JSON names the draw it used and its seconds;
    the closed-form checks draw nothing."""
    out = tmp_path / "o"
    path = write_config(tmp_path, std_config(n=300, grid=32))
    assert run(["verify", "--all", "--config", path, "--output-dir", str(out)]) != 2
    capsys.readouterr()
    results = [json.loads((out / name).read_text()) for name in sorted(os.listdir(out))
               if name.startswith("check_")]
    draws = {r["name"]: r.get("draw") for r in results}
    statistical = [r["name"] for r in results
                   if r["kind"] in ("verify-translation", "verify-parts", "verify-cs")]
    assert statistical == ["verify-translation-2", "verify-parts-3", "verify-cs-4"]
    for name in statistical:
        assert draws[name]["shared_by"] == statistical
        assert isinstance(draws[name]["wall_time"], float) and draws[name]["wall_time"] >= 0.0
    assert draws["feynman-0"] is None and draws["verify-recurrence-1"] is None


# Runs argv[1:] as a child and prints that child's peak RSS in KiB
# (RUSAGE_CHILDREN's ru_maxrss on Linux).  Started from pytest, the
# child measured is a grandchild of pytest: a child's ru_maxrss starts
# at the peak RSS of the process that forked it, which is this small
# launcher and not pytest.
_PEAK_RSS_LAUNCHER = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_verify_peak_rss_is_flat_in_n(tmp_path):
    """From n = 2e4 to n = 4e5 the peak RSS of verify --all on std.json
    grows by at most 2 MiB: each group streams its draw one block at a
    time into its checks, so no n-row array exists.  The columns alone,
    5 doubles a path, would add 14.5 MiB."""
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is in KiB on Linux only")
    import feynpath

    src = os.path.dirname(os.path.dirname(feynpath.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    peak = {}
    for n in (20_000, 400_000):
        done = subprocess.run([sys.executable, "-c", _PEAK_RSS_LAUNCHER, sys.executable, "-m",
                               "feynpath", "verify", "--all", "--config", str(STD_JSON),
                               "--n", str(n), "--output-dir", str(tmp_path / str(n))],
                              env=env, check=True, capture_output=True, text=True, timeout=300)
        peak[n] = 1024 * int(done.stdout)
    assert peak[400_000] - peak[20_000] <= 2 * 2**20


# Every command a run can take, in one process, then whether numpy.ma
# was imported.  np.unique, behind np.union1d and np.isin, imports it on
# its first call (12 ms and about 1.2 MiB resident).
_NO_NUMPY_MA = """
import contextlib, io, os, sys
from feynpath.cli import load_config, run
config, out = sys.argv[1:]
load_config(config)
for argv in (["verify", "--all", "--n", "300", "--grid", "16", "--output-dir", out],
             ["simulate", "--n", "20", "--grid", "16", "--out", os.path.join(out, "p.csv")],
             ["simulate", "--n", "20", "--grid", "16", "--out", os.path.join(out, "p.bin")],
             ["feynman", "--q", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv + ["--config", config]) in (0, 1), argv
with contextlib.redirect_stdout(io.StringIO()):
    assert run(["validate-profile", config, "--profile", "std"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_no_command_imports_numpy_ma(tmp_path):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_MA, str(STD_JSON), str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout == "False\n"
