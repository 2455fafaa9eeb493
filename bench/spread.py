"""Run the benchmark once per seed and summarize the end-to-end metrics.

    python3 bench/spread.py --workload verify --runs 10 [--first-seed 0] [--out FILE]

For each end-to-end metric, prints the median of the runs and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median,
beside the metric's bound from BENCHMARK.json.  ``--out`` writes every
run's environment and result plus the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    records = [json.loads(line) for line in lines[:-1] if line.startswith('{"record"')]
    env = next(r for r in records if r["record"] == "environment")
    setup = next((r["seconds"] for r in records if r["record"] == "setup-samples"), None)
    return {"elapsed_s": time.perf_counter() - t0, "environment": env,
            "setup_samples_s": setup, "result": json.loads(lines[-1])}


def summarize(spec, runs):
    out = {}
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0, "bound": m["bound"]}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        r = run_once(args.workload, seed, spec["run_seconds"])
        runs.append(r)
        res = r["result"]
        print(seed, f"{r['elapsed_s']:.1f}s", res["correct"], res["attempted"], res["failed"],
              {k: v["value"] for k, v in res["metrics"].items()}, flush=True)
    summary = summarize(spec, runs)
    for name, s in summary.items():
        print(f"{name}: median {s['median']:.6g}, spread {s['spread']:.4f} "
              f"(bound {s['bound']}, a third of it {s['bound'] / 3:.4f})")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                              "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
