"""Smoke test: every experiment script runs to completion on tiny inputs."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

ARGS = {
    "bench_pairs.py": ["--help"],  # a real run takes the benchmark's minutes
    "accuracy_table.py": ["--sizes", "103", "--betas", "0.8", "--trials", "3"],
    "frame_gallery.py": [],
    "rd_curves.py": ["--db", "0:10:5"],  # 0 dB is the unit-SDR edge of rate_sc
}


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *ARGS[script]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _bench_pairs():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_rejects_a_claim_outside_the_benchmark(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                           "--parent", "HEAD", "--claim", "wall_s", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--claim takes WORKLOAD:METRIC" in proc.stderr and "got 'wall_s'" in proc.stderr
    assert proc.stdout == "" and not out.exists()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert _bench_pairs().parse_claim("erasure_mc:wall_s", bench) == ("erasure_mc", "wall_s")
    for claim in ("erasure_mc:", "erasure_mc:rng.derive_rng.calls", "nowhere:wall_s"):
        with pytest.raises(ValueError, match="WORKLOAD:METRIC"):
            _bench_pairs().parse_claim(claim, bench)


def test_bench_pairs_summary_on_synthetic_runs():
    bench_pairs = _bench_pairs()
    end_to_end = [{"name": "wall_s", "better": "lower", "bound": 0.25},
                  {"name": "rate", "better": "higher", "bound": 0.25},
                  {"name": "rss", "better": "lower", "bound": 0.1}]
    parent = [1.0, 1.1, 1.2, 0.9, 1.0] * 2
    runs = {
        "parent": [{"failed": 0, "wall_s": w, "rate": 10.0, "rss": r}
                   for w, r in zip(parent, [1.0, 1.0, 1.3, 1.0, 0.9] * 2)],
        "change": [{"failed": f, "wall_s": 0.5 * w + (0.6 if i in (2, 7) else 0.0),
                    "rate": 7.0, "rss": 1.2}
                   for i, (w, f) in enumerate(zip(parent, [0, 1, 0, 0, 2] * 2))],
    }
    out = bench_pairs.summarize(runs, end_to_end, claim="wall_s")
    assert out["failed"] == {"parent": 0, "change": 6}
    wall = out["wall_s"]
    # inclusive quartiles of [0.9, 0.9, 1.0 x 4, 1.1, 1.1, 1.2, 1.2]: 1.0, 1.0, 1.1
    assert wall["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.1}
    assert wall["change_wins"] == "8 of 10"  # pairs 2 and 7 went 1.2 -> 1.2
    assert wall["relative_change_of_median"] == pytest.approx(-0.5)
    assert wall["parent_iqr_over_median"] == pytest.approx(0.1)
    assert wall["status"] == "ok" and wall["claim_met"] is False  # 8 of 10 < 9 of 10
    # higher is better: 10 -> 7 is 30% worse, past its 25% bound
    assert out["rate"]["change_wins"] == "0 of 10" and out["rate"]["status"] == "worse"
    assert "claim_met" not in out["rate"]
    assert out["rss"]["status"] == "worse"  # +20% against a 10% bound
    runs["change"][2]["wall_s"] = 0.5
    assert bench_pairs.summarize(runs, end_to_end, claim="wall_s")["wall_s"]["claim_met"]
    # 9 of 10 won, but a claim needs MIN_PAIRS pairs: 5 all won are too few
    short = {side: rows[:5] for side, rows in runs.items()}
    assert bench_pairs.summarize(short, end_to_end, claim="wall_s")["wall_s"]["claim_met"] is False
    runs["parent"][0]["rss"] = 2.0  # parent IQR/median 0.225 > 0.1, change no longer worse
    for row in runs["change"]:
        row["rss"] = 1.0
    assert bench_pairs.summarize(runs, end_to_end)["rss"]["status"] == "spread"


def test_bench_pairs_warms_up_each_side_and_alternates():
    bench_pairs = _bench_pairs()
    calls = []

    def run(tree, workload, seed):
        calls.append((tree, seed))
        return {"correct": True, "attempted": 1, "failed": 0, "wall_s": float(len(calls))}, {}

    trees = {"parent": "p", "change": "c"}
    runs, records = bench_pairs.run_pairs(run, trees, "exact_engines", 4, 30)
    # one warm-up run per side at the first seed, then the pairs, parent first in even pairs
    assert calls == [("p", 30), ("c", 30), ("p", 30), ("c", 30), ("c", 31), ("p", 31),
                     ("p", 32), ("c", 32), ("c", 33), ("p", 33)]
    assert [r["pair"] for r in runs["parent"]] == [r["pair"] for r in runs["change"]] == [0, 1, 2, 3]
    # the warm-up rows (wall_s 1 and 2) are not kept
    assert [r["wall_s"] for r in runs["parent"]] == [3.0, 6.0, 7.0, 10.0]
    assert [r["wall_s"] for r in runs["change"]] == [4.0, 5.0, 8.0, 9.0]
    assert records == {"parent": {}, "change": {}}
