"""etfspectra benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src/``.  Clients are fresh child processes (``child.py``) started one at
a time; a client sets up, then runs the workload's timed job in a closed
loop while another job fits in ``--seconds``, checking each job's outputs.
The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when ``--trace 0`` and the per-layer metrics
when ``--trace 1``.  A run record (versions, BLAS build and threads, commit,
seed) is printed on the line before it and written with the per-client
details to ``perfbench/_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "_out")

sys.path.insert(0, HERE)
from child import SCALES, WORKLOADS, Ops  # noqa: E402  (no package import)
from spans import COUNTERS, LAYERS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "trials_per_s.largest": "1/s",
}
LADDER_SIZES = SCALES["full"]["ladder_sizes"]
PER_LAYER = dict(
    [(f"{name}.calls", "count") for name in LAYERS]
    + [(f"{name}.self_s", "s") for name in LAYERS]
    + [(name, "count") for name in COUNTERS]
    + [(f"harness.rung_s.{n}", "s") for n in LADDER_SIZES]
    + [("trials_per_s.smallest", "1/s"), ("ops_failed_frac", "ratio"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.unattributed_s", "s")])

MIN_SETUPS = 3        # set-up samples per run, topped up by set-up-only clients
SPAWN_LIMIT_S = 120   # no new client after this, so a run ends within 180 s
CLIENT_TIMEOUT_S = 170  # every client of a run ends by then


class ClientFailed(RuntimeError):
    pass


def child_env(extra=None) -> dict:
    """The user's environment plus the checkout's src/ first on the path.

    Thread settings are inherited as they are unless ``extra`` sets them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def spawn(args, env, deadline) -> dict:
    """Run one client to completion; its result with setup_s filled in."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise ClientFailed(f"client {' '.join(args)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise ClientFailed(f"client {' '.join(args)} printed no result")
    res = json.loads(lines[-1])
    res["setup_s"] = res["t_ready"] - t_spawn
    return res


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _rate(jobs, size):
    """Trials per second at one size over the whole run: all the jobs'
    trials there over all their time there.  Unlike a median of per-job
    rates it moves smoothly with the share of the run the machine spent
    slow, instead of jumping between a fast and a slow mode."""
    done = [j[size] for j in jobs if j.get(size)]
    return sum(n for n, _ in done) / sum(s for _, s in done) if done else None


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: int, trace: int, scale: str = "full",
                 env_extra=None) -> dict:
    """Clients for ``seconds``, one at a time; the aggregated result.

    Untraced, MIN_SETUPS - 1 set-up-only clients run first, then clients
    loop jobs until the deadline, each for at most its workload's
    ``client_s`` (one job when 0); every client gives a set-up sample.  The
    deadline counts from the start of the run, set-ups included.  Traced,
    traced and untraced clients alternate within the same windows, the
    first stopping at half the time at the latest, so that the tracing
    overhead is measured in the same run.
    """
    start = time.monotonic()
    hard = start + CLIENT_TIMEOUT_S
    env = child_env(env_extra)
    work = os.path.join(HERE, "_work", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--work", work, "--scale", scale]
    try:
        if workload == "erasure_mc":
            subprocess.run([sys.executable, CHILD, "--prepare", work, "--scale", scale],
                           cwd=ROOT, env=env, check=True, timeout=hard - time.monotonic())
        # set-up samples first, inside the run's time, so that a run lasts
        # about --seconds whatever its workload
        setups = [spawn(common + ["--setup-only"], env, hard)["setup_s"]
                  for _ in range(0 if trace else MIN_SETUPS - 1)]
        clients = []
        while True:
            i = len(clients)
            traced = bool(trace) and i % 2 == 0
            until = start + (seconds * min(i + 1, 2) / 2 if trace else seconds)
            if WORKLOADS[workload].client_s is not None:
                until = min(until, time.monotonic() + WORKLOADS[workload].client_s)
            c = spawn(common + ["--index", str(i), "--trace", str(int(traced)),
                                "--until", repr(until)], env, hard)
            c["traced"] = traced
            clients.append(c)
            now = time.monotonic()
            shortest = c["setup_s"] + max(j["job_s"] for j in c["jobs"])
            if len(clients) >= (2 if trace else 1) and now + shortest > start + seconds:
                break  # another client would likely end after the deadline
            if now - start >= SPAWN_LIMIT_S:
                break
        setups += [c["setup_s"] for c in clients]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pooled = Ops()
    WORKLOADS[workload].pooled_checks([j for c in clients for j in c["jobs"]], pooled)
    attempted = sum(c["attempted"] for c in clients) + pooled.attempted
    failed = sum(c["failed"] for c in clients) + pooled.failed
    if trace:
        metrics = per_layer_metrics(clients, failed / attempted)
        units = PER_LAYER
    else:
        jobs = [j for c in clients for j in c["jobs"]]
        metrics = {
            "setup_s": _median(setups),
            "wall_s": _median(j["job_s"] for j in jobs),
            "cpu_s": _median(j["cpu_s"] for j in jobs),
            "peak_rss_mb": _median(c["peak_rss_mb"] for c in clients),
            "trials_per_s.largest": _rate(jobs, "largest"),
        }
        units = END_TO_END
    return {
        "correct": failed == 0 and all(ch["ok"] for c in clients for ch in c["checks"])
        and all(ch["ok"] for ch in pooled.checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "clients": clients,
        "pooled_checks": pooled.checks,
        "setups_s": setups,
    }


def per_layer_metrics(clients, failed_frac: float) -> dict:
    """Means over the traced clients of one set-up plus one average job;
    the overhead is against the untraced clients of the same run.

    Means keep the identity  sum of layer self times + unattributed = wall.
    """
    traced = [c for c in clients if c["traced"]]
    plain = [c for c in clients if not c["traced"]]
    out = {}
    for name in LAYERS:
        stats = [c["trace"]["layers"].get(name, (0, 0.0)) for c in traced]
        out[f"{name}.calls"] = _mean(n for n, _ in stats)
        out[f"{name}.self_s"] = _mean(s for _, s in stats)
    for name in COUNTERS:
        out[name] = _mean(c["trace"]["counters"].get(name, 0) for c in traced)
    jobs = [j for c in traced for j in c["jobs"]]
    for n in LADDER_SIZES:
        out[f"harness.rung_s.{n}"] = _mean(j.get("rung_s", {}).get(str(n), 0.0) for j in jobs)
    # at the smallest size a rate swings with the machine's load far more
    # than any end-to-end bound allows, so it is reported here, untraced
    out["trials_per_s.smallest"] = _rate([j for c in plain for j in c["jobs"]], "smallest")
    out["ops_failed_frac"] = failed_frac
    out["trace.wall_s"] = _mean(c["trace"]["wall_s"] for c in traced)
    out["trace.unattributed_s"] = _mean(c["trace"]["unattributed_s"] for c in traced)
    out["trace.overhead_s"] = (_mean(c["region_s"] for c in traced)
                               - _mean(c["region_s"] for c in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", choices=sorted(SCALES), default="full",
                    help="'smoke' runs minimal sizes (tests only)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "etfspectra", "__init__.py")):
        print(f"no etfspectra sources under {SRC}", file=sys.stderr)
        return 2
    try:
        res = run_workload(args.workload, args.seed, args.seconds, args.trace, args.scale)
    except (ClientFailed, subprocess.CalledProcessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record = dict(res["clients"][0]["record"], commit=git_commit(), workload=args.workload,
                  seed=args.seed, seconds=args.seconds, trace=args.trace, scale=args.scale)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(res, record=record), fh, indent=1, default=str)
    print(json.dumps({"run_record": record}))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
