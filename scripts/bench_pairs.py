#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarized per metric.

Each side is a ``git archive`` of its revision in a temporary directory.
Pair i runs BENCHMARK.json's command (``python3 perfbench/run.py``) with
``--workload W --seed SEED_BASE+i --seconds S --trace 0`` on both sides,
the parent first in even pairs.  Before pair 0 of each workload, each side
makes one warm-up run at seed SEED_BASE, which is discarded, so that the
machine's cold start does not land in the first pairs.  The output JSON holds, per workload and
end-to-end metric, both sides' quartiles (statistics.quantiles,
method="inclusive"), the change's wins, the parent's IQR over its median
and a status against the metric's bound: "worse" when the change's median
is worse by more than the bound, "spread" when the parent's IQR exceeds
it, else "ok".  Every run's metrics are kept, with each side's run record
(versions, BLAS build, thread settings).  The change is HEAD, every
workload of BENCHMARK.json runs, and a run has at least MIN_PAIRS pairs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --out BENCH.json
"""

import argparse
import json
import os
import statistics
import subprocess
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
RUN_FIELDS = ("correct", "attempted", "failed")
MIN_PAIRS = 10  # a claimed gain must win at least 9 of 10 pairs


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: dict, end_to_end: list, claim: str | None = None) -> dict:
    """Per-metric summary of one workload's pair-aligned runs.

    ``runs`` maps "parent" and "change" to lists of run rows (metric name
    -> value, plus RUN_FIELDS); ``end_to_end`` is BENCHMARK.json's list.
    The metric named ``claim`` also gets ``claim_met``: at least MIN_PAIRS
    pairs, the change better in at least 9 of 10 of them, and its median
    better by more than the parent's IQR.
    """
    out = {"failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES}}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        qp, qc = quartiles(parent), quartiles(change)
        rel = qc["median"] / qp["median"] - 1.0
        worse = rel if lower else -rel
        iqr = (qp["q3"] - qp["q1"]) / qp["median"]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        row = {"parent": qp, "change": qc, "relative_change_of_median": rel,
               "parent_iqr_over_median": iqr, "change_wins": f"{wins} of {len(parent)}",
               "status": "worse" if worse > spec["bound"] else
                         "spread" if iqr > spec["bound"] else "ok"}
        if name == claim:
            row["claim_met"] = (len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent)
                                and -worse > iqr)
        out[name] = row
    return out


def parse_claim(claim: str, bench: dict) -> tuple[str, str]:
    """(workload, metric) of a WORKLOAD:METRIC claim; a ValueError unless
    both name a workload and an end-to-end metric of ``bench``."""
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    workload, _, metric = claim.partition(":")
    if workload not in workloads or metric not in metrics:
        raise ValueError(f"--claim takes WORKLOAD:METRIC with WORKLOAD one of "
                         f"{', '.join(workloads)} and METRIC one of {', '.join(metrics)}; "
                         f"got {claim!r}")
    return workload, metric


def export_tree(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree: str, command: list, workload: str, seed: int, seconds: int,
             metrics: list) -> tuple[dict, dict]:
    """(run row, run record) of one benchmark run in ``tree``."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    record, result = json.loads(lines[-2])["run_record"], json.loads(lines[-1])
    row = {k: result[k] for k in RUN_FIELDS}
    row.update({name: result["metrics"][name]["value"] for name in metrics})
    return row, record


def run_pairs(run, trees: dict, workload: str, pairs: int, seed_base: int) -> tuple[dict, dict]:
    """(runs, records) of one workload: one discarded warm-up run per side,
    then ``pairs`` pairs, pair i at seed ``seed_base + i`` with the parent
    first in even pairs.  ``run(tree, workload, seed)`` returns a (run row,
    run record) pair, as ``run_once`` does."""
    for side in SIDES:
        run(trees[side], workload, seed_base)
    runs, records = {side: [] for side in SIDES}, {}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            row, record = run(trees[side], workload, seed_base + i)
            runs[side].append(dict(pair=i, **row))
            records.setdefault(side, record)
            print(f"{workload} pair {i} {side}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in row.items() if k not in RUN_FIELDS),
                  flush=True)
    return runs, records


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS,
                    help=f"alternating pairs per workload, at least {MIN_PAIRS}")
    ap.add_argument("--seconds", type=int, default=None,
                    help="seconds per run (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--seed-base", type=int, default=0, help="pair i runs seed SEED_BASE + i")
    ap.add_argument("--claim", default=None,
                    help="WORKLOAD:METRIC whose gain the change claims (default: none)")
    ap.add_argument("--notes", default="", help="free text stored with the result")
    ap.add_argument("--out", required=True, help="output JSON path")
    args = ap.parse_args()
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]
    claim_workload = claim_metric = None
    if args.claim is not None:
        try:
            claim_workload, claim_metric = parse_claim(args.claim, bench)
        except ValueError as exc:
            ap.error(str(exc))
    revs = {side: subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", rev], check=True,
                                 capture_output=True, text=True).stdout.strip()
            for side, rev in zip(SIDES, (args.parent, "HEAD"))}
    result = {
        "what": f"alternating parent/change runs of `{' '.join(bench['command'])} --workload W "
                f"--seed S --seconds {seconds} --trace 0`, seed {args.seed_base}+i for pair i "
                "on every workload, parent first in even pairs, after one discarded warm-up run "
                f"per side at seed {args.seed_base} before pair 0 of each workload, each side a "
                "git archive of its revision; thread variables as the caller set them; "
                "quartiles by statistics.quantiles(method='inclusive')",
        **revs,
        "claim": args.claim or "none",
        "notes": args.notes,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            export_tree(revs[side], trees[side])
        def run(tree, workload, seed):
            return run_once(tree, bench["command"], workload, seed, seconds, metrics)

        for workload in (w["name"] for w in bench["workloads"]):
            runs, records = run_pairs(run, trees, workload, args.pairs, args.seed_base)
            result["workloads"][workload] = {
                "summary": summarize(runs, bench["end_to_end"],
                                     claim_metric if workload == claim_workload else None),
                "records": records,
                "runs": runs,
            }
            with open(args.out, "w") as fh:  # after each workload, so a cut run keeps its part
                json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
