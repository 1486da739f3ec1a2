"""The benchmark client: a fresh process that sets up one workload and then
calls etfspectra's public functions in a closed loop, waiting for each job
to finish before starting the next, while another job fits before
``--until`` (a CLOCK_MONOTONIC deadline that ``run.py`` sets from the
run's end and the workload's ``client_s``).  Each job's
outputs are checked after its timed region.  The client prints one JSON
line; ``run.py`` starts clients and aggregates them.

    python3 perfbench/child.py --workload W --seed S --index I --trace 0|1 \
        --work DIR --until T [--scale smoke] [--setup-only]
    python3 perfbench/child.py --prepare DIR [--scale smoke]

``--prepare`` writes the frame files the erasure workload loads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SPANS_DIR = os.path.join(HERE, "_out", "spans")

BETA, GAMMA = 0.8, 0.5  # the desk ladder's targets (etfspectra harness test1)
P_ERASE = 0.4           # Bernoulli survival probability of the erasure moments
BETA_SOURCE, BETA_CHANNEL = 0.8, 1.25

SCALES = {
    "full": {
        "ladder_sizes": (103, 211, 431, 863),
        "dss_trials": 10,
        "ensemble_trials": 5,
        "paley_q": (101, 857),
        "erasure_trials": (50, 5),
        "asym_dmax": 12,
        "exact_n": (7, 31),
        "exact_small_repeats": 10,  # per step of the d ladder
        "sdr_db": (10, 20, 30, 40, 50, 60),
    },
    # minimal sizes for the smoke test; the checks are stated for "full"
    "smoke": {
        "ladder_sizes": (19, 23, 31),
        "dss_trials": 3,
        "ensemble_trials": 3,
        "paley_q": (13, 29),
        "erasure_trials": (4, 3),
        "asym_dmax": 6,
        "exact_n": (7, 11),
        "exact_small_repeats": 2,
        "sdr_db": (20,),
    },
}

# m_2..m_6 of the asymptotic ETF moment polynomial as printed in the paper:
# {d: {k: {power of x: coefficient}}}
PRINTED_POLYNOMIALS = {
    2: {1: {0: 1}, 2: {1: 1}},
    3: {1: {0: 1}, 2: {1: 3}, 3: {2: 1, 1: -1}},
    4: {1: {0: 1}, 2: {1: 6}, 3: {2: 6, 1: -4}, 4: {3: 1, 2: -3, 1: 1}},
    5: {1: {0: 1}, 2: {1: 10}, 3: {2: 20, 1: -10}, 4: {3: 10, 2: -20, 1: 5},
        5: {4: 1, 3: -6, 2: 6, 1: -1}},
    6: {1: {0: 1}, 2: {1: 15}, 3: {2: 50, 1: -20}, 4: {3: 50, 2: -75, 1: 15},
        5: {4: 15, 3: -60, 2: 45, 1: -6}, 6: {5: 1, 4: -10, 3: 20, 2: -10, 1: 1}},
}


class Ops:
    """Attempted and failed operations (trials, ladder rungs, checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.add(1, 0 if ok else 1)
        if not ok or not any(c["name"] == name for c in self.checks):
            self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _call_times(fn, *args, repeats: int):
    """(seconds of each of ``repeats`` calls, last result)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return times, out


def _calls(layers, name) -> int:
    return layers.get(name, (0, 0.0))[0]


class Workload:
    """setup() once per client; job() timed, then check() on its outputs;
    trace_checks() on the per-layer totals of a client's jobs when traced;
    pooled_checks() in run.py on the records of all the run's jobs."""

    # seconds a client loops before a fresh one takes over: None for the
    # whole run, 0 for one job per client
    client_s = None

    def pooled_checks(self, jobs, ops):
        pass

    def trace_checks(self, cfg, outs, layers, ops):
        pass


# ---------------------------------------------------------------------------
# ks_ladder_dss and ks_ladder_ensemble: the calls of `etfspectra harness test1`

class Ladder(Workload):
    def __init__(self, family: str, trials_key: str, client_s):
        self.family = family
        self.trials_key = trials_key
        self.client_s = client_s

    def setup(self, cfg, work):
        from etfspectra import harness, manova

        dims_family = "manova" if self.family == "manova_ensemble" else self.family
        n, m, k = harness.resolve_dims(dims_family, cfg["ladder_sizes"][0], BETA, GAMMA)
        manova.ManovaDistribution(manova.ManovaParams.from_counts(n, m, k))
        return {"csv": os.path.join(work, f"test1-{self.family}.csv")}

    def expected_ops(self, cfg) -> int:
        rungs = len(cfg["ladder_sizes"])
        return cfg[self.trials_key] * rungs + rungs + 3

    def job(self, cfg, seed, state):
        from etfspectra import harness

        sizes, trials = cfg["ladder_sizes"], cfg[self.trials_key]
        records, skipped = harness.run_ks_batch(self.family, sizes, BETA, GAMMA, trials, seed)
        harness.export(records, "csv", state["csv"],
                       config={"family": self.family, "beta": BETA, "gamma": GAMMA,
                               "trials": trials, "seed": seed, "sizes": list(sizes)})
        fit = harness.fit_power_law(records, "test1")
        return {"records": records, "skipped": skipped, "slope": fit.slope}

    def check(self, cfg, state, out, ops):
        sizes, trials = cfg["ladder_sizes"], cfg[self.trials_key]
        records = out["records"]
        values = [v for r in records for v in r.values]
        nonfinite = sum(not math.isfinite(v) for v in values)
        missing = len(sizes) - len(records)
        ops.add(trials * len(sizes), nonfinite + trials * missing)
        ops.add(len(sizes), missing)
        bad = [v for v in values if not (math.isfinite(v) and 0.0 < v < 1.0)]
        ops.check("ks_in_open_unit_interval", not bad,
                  f"{len(bad)} of {len(values)} KS values outside (0, 1)")
        ops.check("no_rung_skipped", not out["skipped"] and not missing,
                  f"skipped {out['skipped']}")
        top = records[-1] if records else None
        med = statistics.median(top.values) if top and top.n == sizes[-1] else math.inf
        ops.check("top_rung_median_ks", med < 0.05,
                  f"median KS at n={sizes[-1]}: {med:.5f} (< 0.05)")
        rung = {r.n: r.wall_time for r in records}
        return {
            "smallest": [trials, rung[sizes[0]]] if sizes[0] in rung else None,
            "largest": [trials, rung[sizes[-1]]] if sizes[-1] in rung else None,
            "rung_s": rung,
        }

    def trace_checks(self, cfg, outs, layers, ops):
        """A moved call site fails here instead of reading zero."""
        expected = cfg[self.trials_key] * sum(len(out["records"]) for out in outs)
        calls = {name: _calls(layers, name) for name in (
            "spectra.subset_gram_spectrum", "lapack.eigvalsh",
            "spectra.sample_manova_ensemble", "lapack.eigh_generalized")}
        if self.family == "manova_ensemble":
            want = {"spectra.sample_manova_ensemble": expected,
                    "lapack.eigh_generalized": expected,
                    "spectra.subset_gram_spectrum": 0, "lapack.eigvalsh": 0}
        else:
            want = {"spectra.subset_gram_spectrum": expected, "lapack.eigvalsh": expected,
                    "spectra.sample_manova_ensemble": 0, "lapack.eigh_generalized": 0}
        ops.check("trace_call_counts", calls == want, f"calls {calls}, expected {want}")


# ---------------------------------------------------------------------------
# erasure_mc: AHMR on both sides, Bernoulli moments and MLIE on Paley frames

def paley_path(work, q):
    return os.path.join(work, f"real_paley_{q}.json")


def prepare(cfg, work):
    from etfspectra import frameio, frames

    os.makedirs(work, exist_ok=True)
    for q in cfg["paley_q"]:
        frameio.save_frame(frames.construct_real_paley(q), paley_path(work, q))


class Erasure(Workload):
    def __init__(self, client_s):
        self.client_s = client_s

    def setup(self, cfg, work):
        from etfspectra import frameio

        return {"frames": [frameio.load_frame(paley_path(work, q)) for q in cfg["paley_q"]]}

    def expected_ops(self, cfg) -> int:
        return 4 * sum(cfg["erasure_trials"])

    def job(self, cfg, seed, state):
        from etfspectra import coding, moments

        sizes = []
        for i, (F, trials) in enumerate(zip(state["frames"], cfg["erasure_trials"])):
            k_src, k_ch = round(BETA_SOURCE * F.m), round(BETA_CHANNEL * F.m)
            base = 100 * seed + 10 * i
            t0 = time.perf_counter()
            src = coding.empirical_ahmr(F, k_src, trials, seed=base + 1)
            ch = coding.empirical_ahmr(F, k_ch, trials, seed=base + 2)
            mom, se = moments.empirical_moment(F, 4, trials, seed=base + 3, p=P_ERASE)
            ml = coding.mlie(F, k_src, "montecarlo", trials, seed=base + 4)
            sizes.append({"n": F.n, "m": F.m, "trials": trials, "k_src": k_src, "k_ch": k_ch,
                          "src": src, "ch": ch, "mom": mom, "se": se,
                          "divergent": ml.divergent, "seconds": time.perf_counter() - t0})
        return {"sizes": sizes}

    def check(self, cfg, state, out, ops):
        from etfspectra import moments

        for s in out["sizes"]:
            t = s["trials"]
            ops.add(4 * t, t * (not _finite(s["src"])) + t * (not _finite(s["ch"]))
                    + t * (not _finite(s["mom"])) + s["divergent"])
        small, large = out["sizes"][0], out["sizes"][-1]
        keep = ("n", "m", "trials", "k_src", "k_ch", "src", "ch", "mom", "se")
        return {
            "smallest": [4 * small["trials"], small["seconds"]],
            "largest": [4 * large["trials"], large["seconds"]],
            "sizes": [dict({k: s[k] for k in keep},
                           ewb=moments.ewb_bound(s["m"] / s["n"], P_ERASE, 4, s["n"]))
                      for s in out["sizes"]],
        }

    def pooled_checks(self, jobs, ops):
        """Statistical checks on estimates pooled over all the run's jobs.

        m_4 under Bernoulli(p) erasures against the erasure Welch bound,
        which ETFs meet with equality, on every frame; the AHMR against the
        amplification laws, which are limits and are stated (criterion 8)
        at the top of the ladder, on the largest frame.  Pooled over the
        run, not the client, so that short clients do not weaken them.
        """
        sizes = [j["sizes"] for j in jobs if "sizes" in j]
        if not sizes:
            return
        for i in range(len(sizes[0])):
            draws = [s[i] for s in sizes]
            n, bound = draws[0]["n"], draws[0]["ewb"]
            mean = statistics.fmean(s["mom"] for s in draws)
            se = math.sqrt(sum(s["se"] ** 2 for s in draws)) / len(draws)
            ops.check(f"bernoulli_m4_ewb_n{n}", abs(mean - bound) <= 4.0 * se,
                      f"m_4 {mean:.5f} vs EWB {bound:.5f}, 4 SE = {4 * se:.5f} "
                      f"({len(draws)} jobs)")
        draws = [s[-1] for s in sizes]
        n, m = draws[0]["n"], draws[0]["m"]
        k_src, k_ch = draws[0]["k_src"], draws[0]["k_ch"]
        trials = sum(s["trials"] for s in draws)
        p, b = k_src / n, k_src / m
        got, want = statistics.fmean(s["src"] for s in draws), (1 - p) / (1 - b)
        ops.check("ahmr_source", abs(got - want) / want < 0.02,
                  f"AHMR {got:.4f} vs (1-p)/(1-beta) {want:.4f} at n={n} (2%, {trials} trials)")
        p, b = k_ch / n, k_ch / m
        got, want = statistics.fmean(s["ch"] for s in draws), (b - p) / (b - 1)
        ops.check("ahmr_channel", abs(got - want) / want < 0.02,
                  f"AHMR {got:.4f} vs (beta-p)/(beta-1) {want:.4f} at n={n} "
                  f"(2%, {trials} trials)")

    def trace_checks(self, cfg, outs, layers, ops):
        grams = _calls(layers, "spectra.subset_gram_spectrum")
        eig = _calls(layers, "lapack.eigvalsh")
        ops.check("trace_call_counts", grams == eig > 0,
                  f"subset Gram calls {grams}, eigvalsh calls {eig}")


# ---------------------------------------------------------------------------
# exact_engines: rational moment polynomials, exact moments, limits, coding curves

class Exact(Workload):
    client_s = 0  # cold: asymptotic_moment caches its partition census per process

    def setup(self, cfg, work):
        from etfspectra import frames

        return {"frames": [frames.construct_dss(n) for n in cfg["exact_n"]]}

    def expected_ops(self, cfg) -> int:
        return 10

    def job(self, cfg, seed, state):
        import numpy as np
        from etfspectra import coding, functionals, manova, moments, spectra

        small, large = state["frames"]
        # the exact d=4 engine is timed after every step of the cold ladder,
        # so that its rates sample the whole job rather than a few calls
        out = {"asym": {}}
        small_s, large_s = [], []
        for d in range(2, cfg["asym_dmax"] + 1):
            out["asym"][d] = moments.asymptotic_moment(d)
            small_s += _call_times(moments.exact_expected_moment, small, 4,
                                   repeats=cfg["exact_small_repeats"])[0]
            times, out["poly_large"] = _call_times(moments.exact_expected_moment, large, 4,
                                                   repeats=1)
            large_s += times
        out["small_s"], out["large_s"] = small_s, large_s
        out["poly_small"] = {d: moments.exact_expected_moment(small, d) for d in (2, 3, 4)}
        out["oracle"] = {(d, p): moments.all_subsets_expected_moment(small, d, p)
                         for d in (2, 3, 4) for p in (0.25, 0.5, 0.75)}
        out["numeric"] = [
            (manova.manova_moment_numeric(d, params), manova.manova_moment_closed(d, params))
            for params in (manova.ManovaParams(b, g) for b in (0.6, 0.8) for g in (0.25, 0.5))
            for d in range(1, 7)]
        params = manova.ManovaParams(BETA, GAMMA)
        out["mass"] = manova.ManovaDistribution(params).total_mass()
        specs = [functionals.FunctionalSpec(kind, delta=0.5 if kind == "strip" else None,
                                            alpha=1.0 if kind == "shannon" else None)
                 for kind in functionals.KINDS]
        out["limits"] = {s.kind: functionals.limiting_value(s, params) for s in specs}
        first_k = spectra.subset_gram_spectrum(large, np.arange(round(BETA * large.m)))
        out["finite_n"] = {s.kind: functionals.evaluate(s, first_k) for s in specs}
        out["curves"] = [coding.optimize_beta(direction, 0.5, 10 ** (db / 10), model)
                         for direction in ("source", "channel") for model in ("mp", "manova")
                         for db in cfg["sdr_db"]]
        out["gaps"] = coding.high_resolution_gaps(0.5, 1e10)
        return out

    def check(self, cfg, state, out, ops):
        from etfspectra import moments

        small, large = state["frames"]
        wrong = [d for d, blocks in PRINTED_POLYNOMIALS.items() if d in out["asym"] and
                 {kj: int(c) for kj, c in out["asym"][d].coefficients.items()}
                 != {(k, j): c for k, b in blocks.items() for j, c in b.items()}]
        ops.check("printed_m2_m6", not wrong, f"m_d differing from the printed ones: d={wrong}")
        wrong = [d for d, poly in out["asym"].items()
                 if tuple(int(c) for c in poly.at_p_one()) + (0,) * (d - len(poly.at_p_one()))
                 != tuple(math.comb(d - 1, j) for j in range(d))]
        ops.check("p1_identity", not wrong,
                  f"p=1 identity for d=2..{cfg['asym_dmax']}; failing d={wrong}")
        pairs = [(small, d, poly) for d, poly in out["poly_small"].items()]
        pairs.append((large, 4, out["poly_large"]))
        ewb = max(abs(poly.evaluate(p) - moments.ewb_bound(F.m / F.n, p, d, F.n))
                  for F, d, poly in pairs for p in (0.25, 0.5, 0.75, 1.0))
        ops.check("ewb_equality", ewb < 1e-9, f"ETF equality gap {ewb:.2e} (< 1e-9)")
        oracle = max(abs(out["poly_small"][d].evaluate(p) - v)
                     for (d, p), v in out["oracle"].items())
        ops.check("oracle_gap", oracle < 1e-9, f"oracle gap {oracle:.2e} (< 1e-9)")
        gap = max(abs(a - b) for a, b in out["numeric"])
        ops.check("numeric_vs_closed", gap < 1e-7, f"moment gap {gap:.2e} (< 1e-7)")
        g = out["gaps"]
        diff = abs(g["diff_sc"] - g["diff_sc_analytic"])
        ops.check("gap_9a", diff < 0.02, f"9a gap error {diff:.4f} (< 0.02)")
        ops.check("law_total_mass", abs(out["mass"] - 1.0) < 1e-8,
                  f"ManovaDistribution mass gap {abs(out['mass'] - 1.0):.2e} (< 1e-8)")
        bad = [k for k, v in out["limits"].items() if not math.isfinite(v)]
        ops.check("limits_finite", not bad, f"non-finite limits {bad}")
        bad = [k for k, v in out["finite_n"].items() if not math.isfinite(v)]
        ops.check("functionals_finite", not bad,
                  f"non-finite functionals of the first-k DSS({large.n}) subset: {bad}")
        bad = [c for c in out["curves"] if not all(math.isfinite(x) for x in c)]
        ops.check("curves_finite", not bad, f"{len(bad)} non-finite optimize_beta results")
        # "trials" of the exact engine are the index tuples it enumerates; a
        # call's time depends on what the cold ladder left in memory (the
        # calls after d = 10..12 run up to twice as long), so a job counts
        # the median call
        return {
            "smallest": [small.n ** 4, statistics.median(out["small_s"])],
            "largest": [large.n ** 4, statistics.median(out["large_s"])],
            "large_calls_s": out["large_s"],
        }


WORKLOADS = {
    # a few clients per run, here and for erasure_mc: a looping process
    # keeps the speed it happened to start at, which differs from process
    # to process
    "ks_ladder_dss": Ladder("dss", "dss_trials", client_s=6.0),
    # one ladder per process, as `etfspectra harness test1` runs it: with the
    # default two OpenBLAS threads, a process that keeps drawing alternates
    # between fast rungs and rungs about four times slower, at a share that
    # varies from run to run; a fresh process's first rungs run fast
    "ks_ladder_ensemble": Ladder("manova_ensemble", "ensemble_trials", client_s=0),
    "erasure_mc": Erasure(client_s=6.0),
    "exact_engines": Exact(),
}


# ---------------------------------------------------------------------------
# run record

def _openblas_threads() -> dict:
    """Effective thread count of each loaded OpenBLAS, read through ctypes."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(paths):
        if not (path.endswith(".so") or ".so." in path):
            continue
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def run_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        build = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_build": build,
        "openblas_threads_effective": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ETFSPECTRA_THREADS": os.environ.get("ETFSPECTRA_THREADS"),
    }


# ---------------------------------------------------------------------------
# per-layer summary of a traced client

def trace_summary(tracer, n_jobs: int) -> dict:
    """Per-layer calls and self time of one set-up plus one average job.

    Spans under the ``bench.setup`` root count once; spans under the
    ``bench.job`` roots are divided by the number of jobs.  The identity
    sum(layer self) + unattributed = wall holds for these values whenever
    spans do not overlap (a serial trial pool).
    """
    import spans

    parent = {sid: par for sid, _, _, _, par in tracer.spans}
    name = {sid: nm for sid, nm, _, _, _ in tracer.spans}
    root = {}

    def root_of(sid):
        path = []
        while sid not in root and parent[sid] is not None:
            path.append(sid)
            sid = parent[sid]
        top = root.get(sid, sid)
        for s in path + [sid]:
            root[s] = top
        return top

    own = spans.self_times(tracer.spans)
    weight = {"bench.setup": 1.0, "bench.job": 1.0 / n_jobs}
    layers = defaultdict(lambda: [0.0, 0.0])
    job_layers = defaultdict(lambda: [0, 0.0])  # summed over jobs, for the call-count checks
    unattributed = wall = 0.0
    for sid, nm, t0, t1, _ in tracer.spans:
        w = weight.get(name[root_of(sid)])
        if w is None:
            continue
        if nm.startswith(spans.ROOT_PREFIX):
            unattributed += w * own[sid]
            wall += w * (t1 - t0)
        else:
            layers[nm][0] += w
            layers[nm][1] += w * own[sid]
            if name[root_of(sid)] == "bench.job":
                job_layers[nm][0] += 1
    return {"layers": dict(layers), "job_layers": dict(job_layers),
            "counters": {k: v / n_jobs for k, v in tracer.counters.items()},
            "unattributed_s": unattributed, "wall_s": wall}


# ---------------------------------------------------------------------------

def _import_package():
    import etfspectra

    if not os.path.abspath(etfspectra.__file__).startswith(os.path.join(SRC, "")):
        raise ImportError(f"etfspectra imported from {etfspectra.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work")
    ap.add_argument("--until", type=float, default=0.0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--prepare")
    args = ap.parse_args(argv)
    cfg = SCALES[args.scale]

    _import_package()
    if args.prepare:
        prepare(cfg, args.prepare)
        return 0
    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(f"{args.workload}-s{args.seed}-c{args.index}-p{os.getpid()}")
        spans.install(tracer)

    def region(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    t0 = time.perf_counter()
    with region("bench.setup"):
        state = wl.setup(cfg, args.work)
    setup_region = time.perf_counter() - t0
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    ops = Ops()
    jobs, outs = [], []
    while True:
        seed = (args.seed * 1000 + args.index) * 1000 + len(jobs)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            with region("bench.job"):
                out = wl.job(cfg, seed, state)
        except Exception:  # a raising job fails all its operations; the run reports it
            traceback.print_exc()
            out = None
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        job = {"job_s": t1 - t0,
               "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)}
        if out is None:
            ops.add(wl.expected_ops(cfg), wl.expected_ops(cfg))
        else:
            job.update(wl.check(cfg, state, out, ops))
            outs.append(out)
        jobs.append(job)
        if time.monotonic() + job["job_s"] > args.until:
            break  # the next job would likely end after the deadline
    result = {
        "t_ready": t_ready,
        "jobs": jobs,
        "region_s": setup_region + statistics.fmean(j["job_s"] for j in jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "record": run_record(),
    }
    if tracer is not None:
        from etfspectra import harness

        summary = trace_summary(tracer, len(jobs))
        total = sum(s for _, s in summary["layers"].values()) + summary["unattributed_s"]
        wall = summary["wall_s"]
        if harness.worker_count() == 1:  # pool spans overlap, so only serial runs add up
            ops.check("trace_self_time_sum", abs(total - wall) <= 1e-9 * max(1.0, wall),
                      f"layer self times + unattributed {total:.6f} s vs traced wall {wall:.6f} s")
        job_layers = summary.pop("job_layers")
        if outs:
            wl.trace_checks(cfg, outs, job_layers, ops)
        result["trace"] = summary
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.write(os.path.join(SPANS_DIR, f"{tracer.run_id}.jsonl"))
    result.update(attempted=ops.attempted, failed=ops.failed, checks=ops.checks)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
