"""In-memory span tracer for feynpath, applied from outside the package.

``Tracer.install`` replaces every public function and public method of
the layer modules with a timing wrapper, in every feynpath module that
binds it (``montecarlo`` and ``cli`` import functions by name), and
``uninstall`` puts the originals back.  Generator functions get one span
per ``next()``, so ``stream_increments`` is timed while it fills a block
and not while the caller consumes it.  ``cli`` writes its check JSON
through ``open``; a write-mode ``open`` in ``cli`` is timed from the
call to the close of the file as ``cli.open_for_write``.

A span's self time is its duration minus the time its child spans cover;
the self times of all spans add up to the time covered by the top-level
spans.  Counts of work are computed from the call arguments seen at the
wrappers, so they repeat exactly.  The tracer assumes one thread.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("piecewise", "measure", "cameron_martin", "paths", "feynman", "montecarlo", "cli")

# Dunder methods that are public operators of the piecewise algebra.
OPERATORS = frozenset({"__call__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__abs__"})

# The cameron_martin functions that do quadrature or piecewise products;
# cameron_martin.calls counts these and not the accessors such as as_cm.
CM_WORK = ("odot", "cm_inner", "inner_with_a")

_MISSING = object()


def involutions(m: int) -> int:
    """Partial pairings of m indices (telephone numbers)."""
    a, b = 1, 1
    for k in range(2, m + 1):
        a, b = b, b + (k - 1) * a
    return b


def _factor_count(F) -> int:
    """Linear factors of a functional: m for a monomial, else 1."""
    spec = getattr(F, "spec", F)
    return len(spec.ks) if hasattr(spec, "ks") else 1


def _count_stream(t, a):
    profile, grid, n, seed = a["profile"], a["grid"], a["n_paths"], a["seed"]
    chunk = sys.modules["feynpath.paths"].CHUNK_PATHS
    t.counts["paths.passes"] += 1
    t.counts["paths.normals"] += n * grid.N
    t.counts["paths.blocks"] += -(-n // chunk)
    t.stream_keys.add((repr(profile.a_prime), repr(profile.b_prime), int(seed), n,
                       grid.nodes.tobytes()))


def _count_write(t, a):
    ens = a["self"]
    t.counts["paths.bytes_written"] += 8 * (ens.values.size + ens.grid.nodes.size)


def _count_identity(t, a):
    t.counts["montecarlo.columns"] += a["n"] * (_factor_count(a["F"]) + 1)


def _count_mc_fsi(t, a):
    t.counts["montecarlo.columns"] += a["n"] * _factor_count(a["F"])


def _count_wick(t, a):
    t.counts["feynman.wick_pairings"] += involutions(a["summary"].m)


def _count_recurrence(t, a):
    t.counts["feynman.recurrence_states"] += 2 ** len(a["spec"].ks) - 1


def _count_elements(t, a):
    if a.get("method", "recurrence") == "recurrence":
        t.counts["feynman.recurrence_states"] += 2 ** len(a["elements"]) - 1


# span name -> function(tracer, bound arguments) adding to tracer.counts
COUNTERS = {
    "paths.stream_increments": _count_stream,
    "paths.PathEnsemble.to_csv": _count_write,
    "paths.PathEnsemble.to_binary": _count_write,
    "montecarlo.verify_translation": _count_identity,
    "montecarlo.verify_parts": _count_identity,
    "montecarlo.verify_cs_precursor": _count_identity,
    "montecarlo.mc_fsi": _count_mc_fsi,
    "feynman.gaussian_moment": _count_wick,
    "feynman.feynman_monomial": _count_recurrence,
    "feynman.feynman_elements": _count_elements,
}


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, layer, parent index, start, end]
        self.calls = Counter()  # span name -> calls
        self.counts = Counter()  # computed work counts
        self.stream_keys = set()  # distinct (profile, seed, n, grid) streamed
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.total_s = defaultdict(float)  # span name -> summed duration
        self._stack = []  # [span index, seconds covered by children]
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _enter(self, name, layer):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, layer, parent, 0.0, 0.0])
        self._stack.append([len(self.spans) - 1, 0.0])
        self.spans[-1][3] = time.perf_counter()

    def _exit(self):
        end = time.perf_counter()
        index, children = self._stack.pop()
        span = self.spans[index]
        span[4] = end
        duration = end - span[3]
        self.self_s[span[1]] += duration - children
        self.total_s[span[0]] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def top_level_s(self) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[2] == -1)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, layer, qualname, func):
        name = "%s.%s" % (layer, qualname)
        counter = COUNTERS.get(name)
        sig = inspect.signature(func) if counter else None
        tracer = self

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if counter:
                    counter(tracer, sig.bind(*args, **kwargs).arguments)
                return tracer._timed_iter(func(*args, **kwargs), name, layer)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if counter:
                    counter(tracer, sig.bind(*args, **kwargs).arguments)
                tracer._enter(name, layer)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._exit()

        return wrapper

    def _timed_iter(self, gen, name, layer):
        while True:
            self._enter(name, layer)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit()
            yield item

    def _open(self, file, mode="r", *args, **kwargs):
        if not any(c in mode for c in "wax+"):
            return builtins.open(file, mode, *args, **kwargs)
        self.calls["cli.open_for_write"] += 1
        self._enter("cli.open_for_write", "cli")
        try:
            return _TimedFile(self, builtins.open(file, mode, *args, **kwargs))
        except BaseException:
            self._exit()
            raise

    # -- install ---------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions and methods of every layer module."""
        modules = {layer: importlib.import_module("feynpath." + layer) for layer in LAYERS}
        namespaces = [m for n, m in sys.modules.items() if n == "feynpath" or n.startswith("feynpath.")]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, attr, obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, key, wrapper)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        self._patch(modules["cli"], "open", self._open)
        return self

    def _install_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            qualname = "%s.%s" % (cls.__name__, attr)
            if isinstance(raw, (staticmethod, classmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(layer, qualname, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(layer, qualname, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- summary ---------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced pass that took wall_s."""
        t, c = self.total_s, self.counts
        calls = Counter()
        for name, n in self.calls.items():
            calls[name.split(".", 1)[0]] += n
        out = {"%s.self_s" % layer: self.self_s.get(layer, 0.0) for layer in LAYERS}
        normals = c["paths.normals"]
        out.update({
            "paths.fill_s": t.get("paths.stream_increments", 0.0),
            "paths.sample_s": t.get("paths.sample_gbmp_paths", 0.0),
            "paths.write_s": t.get("paths.PathEnsemble.to_csv", 0.0)
            + t.get("paths.PathEnsemble.to_binary", 0.0),
            "paths.normals": normals,
            "paths.blocks": c["paths.blocks"],
            "paths.passes": c["paths.passes"],
            "paths.redundant_passes": c["paths.passes"] - len(self.stream_keys),
            "paths.bytes_written": c["paths.bytes_written"],
            "montecarlo.columns": c["montecarlo.columns"],
            "montecarlo.useful_ratio": c["montecarlo.columns"] / normals if normals else 0.0,
            "feynman.wick_pairings": c["feynman.wick_pairings"],
            "feynman.recurrence_states": c["feynman.recurrence_states"],
            "cameron_martin.calls": sum(self.calls["cameron_martin." + f] for f in CM_WORK),
            "measure.quad_calls": self.calls["measure.stieltjes_integral"],
            "measure.validate_s": t.get("measure.validate_profile", 0.0),
            "piecewise.calls": calls["piecewise"],
            "cli.load_config_s": t.get("cli.load_config", 0.0),
            "cli.output_s": t.get("cli.open_for_write", 0.0) + t.get("montecarlo.append_ledger", 0.0),
            "trace.wall_s": wall_s,
            "trace.untraced_s": wall_s - self.top_level_s(),
            "trace.spans": len(self.spans),
        })
        return out


class _TimedFile:
    """Context manager around a file; closing it ends the open's span."""

    def __init__(self, tracer, fh):
        self._tracer = tracer
        self._fh = fh

    def __enter__(self):
        return self._fh.__enter__()

    def __exit__(self, *exc):
        try:
            return self._fh.__exit__(*exc)
        finally:
            self._tracer._exit()
