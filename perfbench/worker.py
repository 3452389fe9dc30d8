"""Child process of the benchmark.

    python3 perfbench/worker.py setup <config.json>
        Times ``import feynpath`` plus ``load_config`` in this fresh
        process and prints the seconds.

    python3 perfbench/worker.py passes <spec.json>
        Runs the workload's CLI invocation in passes until the spec's
        seconds are used (at least MIN_PASSES), each into a fresh output
        directory, and writes per-pass records, ru_maxrss and provenance
        to the spec's result file.  With tracing on, passes alternate
        between untraced and traced, and the spans of the traced pass
        with the median wall time go to the spec's trace file.

The harness sets PYTHONPATH to the checkout's ``src``.
"""

import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

MIN_PASSES = 3


def setup(config_path):
    t0 = time.perf_counter()
    import feynpath.cli

    feynpath.cli.load_config(config_path)
    print(repr(time.perf_counter() - t0))


def run_pass(argv, out_dir, tracer=None):
    """One CLI invocation into out_dir; returns its record."""
    import feynpath.cli

    gc.collect()
    error = None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        code = feynpath.cli.run(argv + ["--output-dir", out_dir])
    except Exception as exc:  # a crashing pass is counted, not fatal
        traceback.print_exc()
        code, error = None, "%s: %s" % (type(exc).__name__, exc)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return {"wall_s": wall, "exit_code": code, "error": error, **read_outputs(out_dir)}


def read_outputs(out_dir):
    """Ledger text, per-check pass flag and value, and file sizes."""
    checks, files, ledger = {}, {}, ""
    for fname in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        path = os.path.join(out_dir, fname)
        files[fname] = os.path.getsize(path)
        if fname == "ledger.csv":
            with open(path) as fh:
                ledger = fh.read()
        elif fname.startswith("check_") and fname.endswith(".json"):
            with open(path) as fh:
                result = json.load(fh)
            checks[result["name"]] = {k: result.get(k) for k in ("pass", "value")}
    return {"ledger": ledger, "checks": checks, "files": files}


def passes(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    from tracer import Tracer

    records, traced = [], []
    start = time.perf_counter()
    i = 0
    while i < MIN_PASSES or time.perf_counter() - start < spec["seconds"]:
        out_dir = os.path.join(spec["run_dir"], "pass_%03d" % i)
        tracer = Tracer() if spec["trace"] and i % 2 else None
        record = run_pass(spec["argv"], out_dir, tracer)
        record["traced"] = tracer is not None
        if tracer is not None:
            record["layers"] = tracer.layer_metrics(record["wall_s"])
            record["calls"] = dict(tracer.calls)
            traced.append((record["wall_s"], i, tracer))
        records.append(record)
        if i:  # keep only the last pass's files
            shutil.rmtree(os.path.join(spec["run_dir"], "pass_%03d" % (i - 1)))
        i += 1
    result = {
        "passes": records,
        "last_dir": os.path.join(spec["run_dir"], "pass_%03d" % (i - 1)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "provenance": provenance(),
    }
    if traced:
        traced.sort(key=lambda t: t[0])
        _, median_index, tracer = traced[(len(traced) - 1) // 2]
        result["median_traced_pass"] = median_index
        write_spans(spec["trace_path"], tracer.spans)
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)


def write_spans(path, spans):
    with open(path, "w") as fh:
        for name, layer, parent, start, end in spans:
            fh.write(json.dumps({"name": name, "layer": layer, "parent": parent,
                                 "start": start, "end": end}) + "\n")


def provenance():
    import numpy as np

    import feynpath
    from feynpath import paths

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        pass
    return {
        "feynpath": feynpath.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "llc": last_level_cache(),
        "CHUNK_PATHS": paths.CHUNK_PATHS,
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS, or the env settings that set it."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return env or "unknown"


def last_level_cache():
    """Level and size of cpu0's highest-level cache, as the OS reports it."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for entry in sorted(e for e in os.listdir(base) if e.startswith("index")):
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if best is None or level > best[0]:
                best = (level, size)
    except OSError:
        return "unknown"
    return "L%d %s" % best if best else "unknown"


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    {"setup": setup, "passes": passes}[sys.argv[1]](sys.argv[2])
