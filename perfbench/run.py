"""feynpath benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify-std --seed 1 --seconds 20 --trace 0

Run from the root of a feynpath checkout; the package is imported from
its ``src`` directory.  The workload runs in a child process (see
worker.py) that repeats the CLI invocation for ``--seconds`` seconds.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (the
median over fresh processes of ``import feynpath`` plus ``load_config``),
``wall_s`` (the median pass) and ``peak_rss_mb`` (ru_maxrss of the child).
``fail_frac`` is printed with them and carried exactly as ``failed`` /
``attempted`` in the result line.  With ``--trace 1`` passes alternate
between untraced and traced and the metrics are the per-layer ones of the
median traced pass, plus ``trace.overhead_s``, the median traced wall
minus the median untraced wall.

Human-readable lines and a provenance line come first; the last line of
standard output is the result JSON.  Generated inputs and outputs live
under ``.perfbench_work/`` in the checkout; each run removes its own
directory and keeps its span file under ``.perfbench_work/traces/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Fresh processes timed for setup_s; their median is reported.
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 150


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "feynpath", "__init__.py")):
        print("error: %s holds no feynpath sources; run from a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (have %s)" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK, "%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(run_dir)
    try:
        return measure(workloads, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(workloads, args, run_dir) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, run_dir)
    setup = [] if args.trace else [child_seconds(["setup", workload.config]) for _ in range(SETUP_RUNS)]

    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    spec = {
        "argv": workload.argv,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "run_dir": run_dir,
        "result_path": os.path.join(run_dir, "result.json"),
        "trace_path": os.path.join(WORK, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed)),
    }
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    run_child(["passes", spec_path])
    with open(spec["result_path"]) as fh:
        result = json.load(fh)

    passes = result["passes"]
    attempted, failed, failures = workloads.count_failures(workload, passes, result["last_dir"])
    for i, f in enumerate(failures):
        for name, reason in sorted(f.items()):
            print("FAIL pass %d %s: %s" % (i, name, reason), file=sys.stderr)
    correct = failed == 0

    walls = [p["wall_s"] for p in passes if not p["traced"]]
    print("workload %s seed %d: %d passes in %.1f s (%d traced)" % (
        workload.name, args.seed, len(passes), sum(p["wall_s"] for p in passes),
        len(passes) - len(walls)))
    if args.trace:
        reported = passes[result["median_traced_pass"]]
        traced = [p["wall_s"] for p in passes if p["traced"]]
        layers = dict(reported["layers"])
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        problems = span_problems(workload, reported["calls"])
        for problem in problems:
            print("TRACE %s" % problem, file=sys.stderr)
        correct = correct and not problems
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
        for name, m in metrics.items():
            print("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
        print("  setup_s      %10.4f s      median of %d fresh processes (min %.4f, max %.4f)" % (
            metrics["setup_s"]["value"], len(setup), min(setup), max(setup)))
        print("  wall_s       %10.4f s      median of %d passes (min %.4f, max %.4f)" % (
            metrics["wall_s"]["value"], len(walls), min(walls), max(walls)))
        print("  peak_rss_mb  %10.1f MiB    ru_maxrss of the workload process" % result["peak_rss_mb"])
    print("  fail_frac    %10.4f ratio  %d of %d checks failed" % (failed / attempted, failed, attempted))

    provenance = dict(result["provenance"], commit=git_commit(), seed=args.seed,
                      workload=workload.name, sizes=workload.sizes,
                      largest_array_mib=round(workload.largest_array_mib, 4),
                      trace_file=os.path.relpath(spec["trace_path"], ROOT) if args.trace else None)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def span_problems(workload, calls):
    """Expected spans that did not fire, and spans that should not have."""
    out = ["expected span %s did not fire" % s for s in workload.expected_spans if not calls.get(s)]
    out += ["span %s fired but this workload bypasses it" % s
            for s in sorted(calls) if s.startswith(workload.absent_spans)]
    return out


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return env


def run_child(args) -> str:
    """Runs worker.py with args; returns its stdout, raising on failure."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True, check=True)
    return proc.stdout


def child_seconds(args) -> float:
    return float(run_child(args).strip().splitlines()[-1])


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


if __name__ == "__main__":
    sys.exit(main())
