"""Opt-in thread sweep, not part of the gated benchmark.

Runs both KS ladders untraced for every OPENBLAS_NUM_THREADS in {1, 2} and
ETFSPECTRA_THREADS in {1, 2}, set only in the clients' environment, and
reports wall_s and cpu_s per cell.

    python3 perfbench/sweep.py [--seconds 15] [--seed 0] \
        [--out perfbench/results/thread_sweep.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import HERE, git_commit, run_workload  # noqa: E402

LADDERS = ("ks_ladder_dss", "ks_ladder_ensemble")
THREADS = (1, 2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "results", "thread_sweep.json"))
    args = ap.parse_args(argv)
    rows = []
    for workload in LADDERS:
        for blas in THREADS:
            for pool in THREADS:
                env = {"OPENBLAS_NUM_THREADS": str(blas), "ETFSPECTRA_THREADS": str(pool)}
                res = run_workload(workload, args.seed, args.seconds, 0, env_extra=env)
                m = {k: v["value"] for k, v in res["metrics"].items()}
                rows.append({"workload": workload, **env, "correct": res["correct"],
                             "jobs": sum(len(c["jobs"]) for c in res["clients"]),
                             "wall_s": m["wall_s"], "cpu_s": m["cpu_s"],
                             "trials_per_s.largest": m["trials_per_s.largest"],
                             "record": res["clients"][0]["record"]})
                print(f"{workload:20s} OPENBLAS_NUM_THREADS={blas} ETFSPECTRA_THREADS={pool} "
                      f"wall_s={m['wall_s']:.4f} cpu_s={m['cpu_s']:.4f} "
                      f"correct={res['correct']}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"commit": git_commit(), "seed": args.seed, "seconds": args.seconds,
                   "rows": rows}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
