"""Repeat bench/run.py and summarise each metric by median and quartiles.

Run from the repository root, one run after another (never in parallel, so
runs do not compete for the cores):

    python3 bench/repeat.py --seeds 1,2,3,4,5,6,7,8,9,10 --out spread.json
    python3 bench/repeat.py --seeds 1,1,1,1,1 --out baseline-seed1.json

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    lines = done.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"env": env, "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    report = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            unit = runs[0]["result"]["metrics"][name]["unit"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": unit, **summarise(values)}
            m = metrics[name]
            print(f"{workload:12s} {name:30s} median {m['median']:.6g} {unit} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.3%}", flush=True)
        report["workloads"][workload] = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "correct": all(r["result"]["correct"] for r in runs),
            "env": runs[0]["env"],
            "metrics": metrics,
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
