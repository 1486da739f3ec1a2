"""Span tracing for the benchmark client.

The traced run wraps the public functions of each etfspectra layer from the
benchmark's side (nothing under ``src/`` is touched): every call becomes a
span (id, name, start, end, parent) kept in memory and written out when the
client ends.  A layer's self time is its span's duration minus the part of
that interval covered by its child spans; spans the benchmark opens itself
(``bench.*``) are roots, and their self time is the traced time no layer
covers.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict

ROOT_PREFIX = "bench."


class Tracer:
    """In-memory span recorder shared by all threads of the client.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (a trial-pool worker) takes the innermost
    open span of the thread that created the tracer as its parent, so pool
    spans stay attached to the batch that started the pool.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, name, start, end, parent id or None)
        self.counters = defaultdict(int)
        self._counter_lock = threading.Lock()  # pool threads update counters too
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def current(self):
        """(id, name) of the innermost open span seen from this thread."""
        stack = self._stack()
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else None

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, on_result=None, under: str | None = None):
        """``fn`` recording a span per call.

        ``under`` restricts recording to calls whose innermost open span
        starts with that prefix (other calls run untraced, inside their
        caller's self time).  A call made while a span of the same name is
        innermost is part of that span and opens none.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current()
            if parent is not None and parent[1] == name:
                return fn(*args, **kwargs)
            if under is not None and (parent is None or not parent[1].startswith(under)):
                return fn(*args, **kwargs)
            with _Span(tracer, name, parent):
                out = fn(*args, **kwargs)
            if on_result is not None:
                with tracer._counter_lock:
                    on_result(tracer.counters, out)
            return out

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start": t0, "end": t1, "parent": parent}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "parent", "sid", "t0")

    def __init__(self, tracer: Tracer, name: str, parent=False):
        self.tracer = tracer
        self.name = name
        self.parent = tracer.current() if parent is False else parent

    def __enter__(self):
        self.sid = next(self.tracer._ids)
        self.tracer._stack().append((self.sid, self.name))
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.name, self.t0, t1,
                                  self.parent[0] if self.parent else None))
        return False


# ---------------------------------------------------------------------------
# self-time arithmetic

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """{span id: duration minus the union of its children's intervals}."""
    children = defaultdict(list)
    for _, _, t0, t1, parent in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {sid: (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            for sid, _, t0, t1, _ in spans}


def layer_totals(spans) -> dict:
    """{name: (calls, self seconds)} summed over spans of each name."""
    own = self_times(spans)
    out = defaultdict(lambda: [0, 0.0])
    for sid, name, *_ in spans:
        out[name][0] += 1
        out[name][1] += own[sid]
    return {name: (calls, s) for name, (calls, s) in out.items()}


# ---------------------------------------------------------------------------
# the etfspectra layers

# (layer name, module, attribute); the span name is the layer name
FUNCTIONS = (
    ("rng.derive_rng", "etfspectra.rng", "derive_rng"),
    ("spectra.select", "etfspectra.spectra", "select"),
    ("spectra.subset_gram_spectrum", "etfspectra.spectra", "subset_gram_spectrum"),
    ("spectra.ks_distance", "etfspectra.spectra", "ks_distance"),
    ("spectra.sample_manova_ensemble", "etfspectra.spectra", "sample_manova_ensemble"),
    ("manova.manova_moment_numeric", "etfspectra.manova", "manova_moment_numeric"),
    ("functionals.evaluate", "etfspectra.functionals", "evaluate"),
    ("functionals.limiting_value", "etfspectra.functionals", "limiting_value"),
    ("moments.asymptotic_moment", "etfspectra.moments", "asymptotic_moment"),
    ("moments.partition_census", "etfspectra.moments", "partition_census"),
    ("moments.exact_expected_moment", "etfspectra.moments", "exact_expected_moment"),
    ("moments.empirical_moment", "etfspectra.moments", "empirical_moment"),
    ("frames.gram", "etfspectra.frames", "gram"),
    ("frameio.load_frame", "etfspectra.frameio", "load_frame"),
    ("coding.optimize_beta", "etfspectra.coding", "optimize_beta"),
    ("coding.empirical_ahmr", "etfspectra.coding", "empirical_ahmr"),
    ("coding.mlie", "etfspectra.coding", "mlie"),
    ("harness.run_ks_batch", "etfspectra.harness", "run_ks_batch"),
)

# (layer name, class, method)
METHODS = (
    ("manova.ManovaDistribution", "ManovaDistribution", "__init__"),
    ("manova.cdf", "ManovaDistribution", "cdf"),
)

# LAPACK kernels, recorded only when a spectra span calls them
KERNELS = (
    ("lapack.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("lapack.eigh_generalized", "scipy.linalg", "eigh"),
)

FRAME_BUILD = "frames.build"  # every frames.construct* function
OPTIMIZE_EVALS = "coding.optimize_beta.evals"  # objective evaluations

LAYERS = tuple(name for name, *_ in FUNCTIONS + METHODS + KERNELS) + (FRAME_BUILD,)
COUNTERS = ("spectra.eig_r3_sum", "spectra.clamped", "functionals.nonfinite",
            "harness.skipped", OPTIMIZE_EVALS)


def _count_spectrum(counters, spec, with_r3: bool):
    counters["spectra.clamped"] += int(spec.clamped)
    if with_r3:
        counters["spectra.eig_r3_sum"] += int(spec.r) ** 3


def _count_nonfinite(counters, value):
    counters["functionals.nonfinite"] += 0 if math.isfinite(value) else 1


def _count_skipped(counters, result):
    counters["harness.skipped"] += len(result[1])  # (records, skipped)


ON_RESULT = {
    "spectra.subset_gram_spectrum": lambda c, out: _count_spectrum(c, out, True),
    "spectra.sample_manova_ensemble": lambda c, out: _count_spectrum(c, out, False),
    "functionals.evaluate": _count_nonfinite,
    "functionals.limiting_value": _count_nonfinite,
    "harness.run_ks_batch": _count_skipped,
}


def _replace_everywhere(original, replacement) -> int:
    """Rebind every etfspectra module global that is ``original``."""
    hits = 0
    for name, mod in list(sys.modules.items()):
        if name == "etfspectra" or name.startswith("etfspectra."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported etfspectra package."""
    import importlib

    for name, modname, attr in FUNCTIONS:
        original = getattr(importlib.import_module(modname), attr)
        if not _replace_everywhere(original, tracer.wrap(name, original, ON_RESULT.get(name))):
            raise RuntimeError(f"layer boundary {modname}.{attr} not found")
    manova = importlib.import_module("etfspectra.manova")
    for name, clsname, method in METHODS:
        cls = getattr(manova, clsname)
        setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
    for name, modname, attr in KERNELS:
        mod = importlib.import_module(modname)
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), under="spectra."))
    frames = importlib.import_module("etfspectra.frames")
    for attr, value in list(vars(frames).items()):
        if attr.startswith("construct") and callable(value):
            _replace_everywhere(value, tracer.wrap(FRAME_BUILD, value))
    coding = importlib.import_module("etfspectra.coding")
    for attr in ("rate_sc", "capacity_cc"):
        _replace_everywhere(getattr(coding, attr),
                            _counted_objective(tracer, getattr(coding, attr)))


def _counted_objective(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        cur = tracer.current()
        if cur is not None and cur[1] == "coding.optimize_beta":
            tracer.counters[OPTIMIZE_EVALS] += 1
        return fn(*args, **kwargs)

    return counted
