"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py [--workloads bulk tft ...] [--seeds 10] [--first-seed 1]
                           [--seconds 10] [--traced] [--output FILE]

Each run is a fresh process, as the benchmark is meant to be run.  For every
workload and end-to-end metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  ``--traced`` adds one
traced run per workload.  ``--output`` writes everything as JSON; the
recorded baseline in ``baseline.json`` was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import harness


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=harness.ROOT, capture_output=True,
                          text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(command)} reported failures:\n{done.stdout}")
    return result


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    with open(harness.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--output")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "machine": {"python": platform.python_version(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count()},
        "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in summary["seeds"]]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "metrics": {}}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            flag = "" if name == "setup_s" or stats["spread"] < bound / 3 else "  WIDE"
            print(f"{workload:5s} {name:12s} median {stats['median']:10.4f} "
                  f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} "
                  f"spread {stats['spread']:.3f} (bound {bound}){flag}", flush=True)
        if args.traced:
            traced = run_once(workload, summary["seeds"][0], args.seconds, 1)
            entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
