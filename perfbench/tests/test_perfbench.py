"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import run as harness  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "verify-std": {"n_paths": 1500, "grid": 64},
    "closed-form": {"degrees": (2, 3, 5, 7)},
    "simulate-out": {"outputs": (("simulate-csv", "csv", 30, 32), ("simulate-bin", "bin", 70, 64))},
}
NAMES = sorted(TINY)


def make(name, seed, work_dir, **sizes):
    os.makedirs(work_dir, exist_ok=True)
    return workloads.WORKLOADS[name](seed, str(work_dir), **dict(TINY[name], **sizes))


def traced_pass(workload, out_dir):
    tracer = tracing.Tracer()
    record = worker.run_pass(workload.argv, str(out_dir), tracer)
    return record, tracer


def config_bytes(workload):
    with open(workload.config, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_deterministic_in_its_seed(name, tmp_path):
    a = make(name, 11, tmp_path / "a")
    b = make(name, 11, tmp_path / "b")
    c = make(name, 12, tmp_path / "c")
    assert a.checks == b.checks == c.checks
    if name == "verify-std":
        assert a.argv == b.argv and a.argv != c.argv
    else:
        assert config_bytes(a) == config_bytes(b)
        assert config_bytes(a) != config_bytes(c)


@pytest.mark.parametrize("name", NAMES)
def test_work_does_not_depend_on_the_seed(name, tmp_path):
    runs = []
    for seed in (11, 12):
        record, tracer = traced_pass(make(name, seed, tmp_path / str(seed)), tmp_path / ("out%d" % seed))
        assert record["exit_code"] == 0
        runs.append((dict(tracer.calls), dict(tracer.counts), len(tracer.spans)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", NAMES)
def test_expected_spans_fire_and_bypassed_layers_stay_silent(name, tmp_path):
    workload = make(name, 5, tmp_path)
    record, tracer = traced_pass(workload, tmp_path / "out")
    assert record["exit_code"] == 0
    assert harness.span_problems(workload, tracer.calls) == []


def test_a_span_routed_around_is_reported(tmp_path):
    workload = make("verify-std", 5, tmp_path)
    record, tracer = traced_pass(workload, tmp_path / "out")
    calls = dict(tracer.calls)
    del calls["paths.stream_increments"]
    assert harness.span_problems(workload, calls) == [
        "expected span paths.stream_increments did not fire"]


@pytest.mark.parametrize("name", NAMES)
def test_self_times_and_untraced_remainder_add_up_to_the_wall(name, tmp_path):
    record, tracer = traced_pass(make(name, 5, tmp_path), tmp_path / "out")
    layers = tracer.layer_metrics(record["wall_s"])
    total = sum(layers["%s.self_s" % layer] for layer in tracing.LAYERS) + layers["trace.untraced_s"]
    assert total == pytest.approx(record["wall_s"], abs=1e-9)
    assert layers["trace.untraced_s"] >= 0.0


def test_counts_computed_from_arguments(tmp_path):
    record, tracer = traced_pass(make("verify-std", 5, tmp_path), tmp_path / "out")
    m = tracer.layer_metrics(record["wall_s"])
    n, grid = TINY["verify-std"]["n_paths"], TINY["verify-std"]["grid"]
    # five statistical checks share one (profile, seed, grid, n)
    assert (m["paths.passes"], m["paths.redundant_passes"]) == (5, 4)
    assert m["paths.normals"] == 5 * n * grid
    assert m["paths.blocks"] == 5
    # factor counts 1, 1, 1, 2, 2 plus the weight column each
    assert m["montecarlo.columns"] == n * (2 + 2 + 2 + 3 + 3)
    assert m["montecarlo.useful_ratio"] == m["montecarlo.columns"] / m["paths.normals"]
    # feynman m=2 and verify-recurrence m=3 (recurrence plus Wick)
    assert m["feynman.recurrence_states"] == 3 + 7
    assert m["feynman.wick_pairings"] == tracing.involutions(3)


def test_bytes_written_and_simulate_counts(tmp_path):
    record, tracer = traced_pass(make("simulate-out", 5, tmp_path), tmp_path / "out")
    m = tracer.layer_metrics(record["wall_s"])
    assert m["paths.bytes_written"] == 8 * (31 * 33 + 71 * 65)
    assert m["paths.passes"] == 2 and m["paths.redundant_passes"] == 0
    assert record["files"]["simulate-bin.bin"] == 32 + 8 * 71 * 65


def test_traced_metrics_match_benchmark_json(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    record, tracer = traced_pass(make("closed-form", 5, tmp_path), tmp_path / "out")
    reported = set(tracer.layer_metrics(record["wall_s"])) | {"trace.overhead_s"}
    assert reported == set(declared)
    assert all(harness.layer_unit(name) == unit for name, unit in declared.items())


def test_involutions():
    assert [tracing.involutions(m) for m in range(8)] == [1, 1, 2, 4, 10, 26, 76, 232]


def test_uninstall_restores_every_binding():
    import feynpath.cli
    import feynpath.montecarlo
    import feynpath.paths
    from feynpath.piecewise import PiecewisePoly

    before = (feynpath.montecarlo.stream_increments, feynpath.cli.load_config,
              vars(PiecewisePoly)["__mul__"])
    tracer = tracing.Tracer().install()
    assert feynpath.montecarlo.stream_increments is feynpath.paths.stream_increments
    assert feynpath.montecarlo.stream_increments is not before[0]
    tracer.uninstall()
    after = (feynpath.montecarlo.stream_increments, feynpath.cli.load_config,
             vars(PiecewisePoly)["__mul__"])
    assert all(x is y for x, y in zip(before, after))
    assert "open" not in vars(feynpath.cli)


def test_clean_passes_count_no_failures(tmp_path):
    workload = make("closed-form", 5, tmp_path)
    passes = [worker.run_pass(workload.argv, str(tmp_path / ("p%d" % i))) for i in range(2)]
    assert workloads.count_failures(workload, passes, str(tmp_path / "p1"))[:2] == (16, 0)


def test_a_failing_check_is_counted(tmp_path):
    workload = make("closed-form", 5, tmp_path)
    with open(workload.config) as fh:
        config = json.load(fh)
    bad = dict(config["checks"][0], name="wrong-expectation", expect={"re": 123.0, "im": 0.0})
    config["checks"].append(bad)
    with open(workload.config, "w") as fh:
        json.dump(config, fh)
    workload.checks.append(bad["name"])
    record = worker.run_pass(workload.argv, str(tmp_path / "out"))
    attempted, failed, failures = workloads.count_failures(workload, [record], str(tmp_path / "out"))
    assert (attempted, failed) == (9, 1)
    assert failures == [{"wrong-expectation": "reported pass=false"}]


def test_a_raising_check_fails_every_check_of_its_pass(tmp_path):
    workload = make("closed-form", 5, tmp_path, degrees=(2, 13))  # beyond MAX_MONOMIAL_DEGREE
    record = worker.run_pass(workload.argv, str(tmp_path / "out"))
    assert record["exit_code"] == 2
    assert workloads.count_failures(workload, [record], str(tmp_path / "out"))[:2] == (4, 4)


def test_a_wrong_feynman_value_fails_the_output_check(tmp_path):
    workload = make("closed-form", 5, tmp_path)
    record = worker.run_pass(workload.argv, str(tmp_path / "out"))
    record["checks"]["feynman-m3-1"]["value"]["im"] += 1e-6
    _, failed, failures = workloads.count_failures(workload, [record], str(tmp_path / "out"))
    assert failed == 1 and "Wick" in failures[0]["feynman-m3-1"]


def test_a_changed_ledger_row_fails_its_check(tmp_path):
    workload = make("verify-std", 5, tmp_path)
    passes = [worker.run_pass(workload.argv, str(tmp_path / ("p%d" % i))) for i in range(2)]
    passes[1]["ledger"] = passes[1]["ledger"].replace("parts-rho1,", "parts-rho1,x")
    _, failed, failures = workloads.count_failures(workload, passes, str(tmp_path / "p1"))
    assert failed == 1 and "parts-rho1" in failures[1]


@pytest.mark.parametrize("target", ["simulate-bin.bin", "simulate-csv.csv"])
def test_a_corrupted_ensemble_fails_the_output_check(target, tmp_path):
    workload = make("simulate-out", 5, tmp_path)
    out = tmp_path / "out"
    record = worker.run_pass(workload.argv, str(out))
    assert workloads.count_failures(workload, [record], str(out))[1] == 0
    path = out / target
    data = bytearray(path.read_bytes())
    if target.endswith(".bin"):
        data[-8 * 65 * 70 + 100] ^= 1  # inside the first path
    else:
        first_row = data.index(b"\n") + 1
        data[first_row + 3:first_row + 4] = b"7" if data[first_row + 3:first_row + 4] != b"7" else b"6"
    path.write_bytes(bytes(data))
    _, failed, failures = workloads.count_failures(workload, [record], str(out))
    assert failed == 1 and target.split(".")[0] in failures[0]


def test_ledger_matches_the_cli_run_outside_the_benchmark(tmp_path):
    workload = make("verify-std", 9, tmp_path)
    inside = tmp_path / "inside"
    worker.run_pass(workload.argv, str(inside))
    outside = tmp_path / "outside"
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "from feynpath.cli import main; main()",
                    "verify", "--all", "--config", os.path.join(ROOT, "configs", "std.json"),
                    "--n", str(TINY["verify-std"]["n_paths"]), "--grid", str(TINY["verify-std"]["grid"]),
                    "--seed", "9", "--output-dir", str(outside)],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    assert (inside / "ledger.csv").read_bytes() == (outside / "ledger.csv").read_bytes()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "closed-form",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
