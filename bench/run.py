"""Outside-in benchmark of `lgtft run` jobs.

    python3 bench/run.py --workload {bulk,tft,warm} --seed N --seconds S --trace {0,1}

One process, one client, one job at a time (a closed loop).  A run sets up,
then repeats passes over the workload's jobs until ``--seconds`` have gone by
(at least one pass), checks every report, and prints one JSON object as the
last line of standard output.  With ``--trace 0`` it holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of one traced pass, run
between two untraced passes that give the tracing overhead.  See README.md.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import harness  # noqa: E402
import tracer as tracing  # noqa: E402

WORK = harness.BENCH_DIR / ".work" / "run"
# set-ups per untraced run; setup_s is their median
SETUPS = 3


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Setup(NamedTuple):
    runner: harness.Runner
    order: list
    cache_dir: Path  # None for cold workloads


def set_up(workload: str, seed: int, work: Path, tally: harness.Tally) -> Setup:
    """Import the engine, write and validate the jobs, and fill the cache if
    the workload reads one."""
    cli = harness.import_engine()
    jobs = harness.make_jobs(workload, seed)
    runner = harness.Runner(cli, work, harness.load_references(
        harness.WORKLOADS[workload]), tally)
    runner.write_jobs(jobs)
    cache_dir = None
    if workload in harness.CACHED_WORKLOADS:
        cache_dir = work / "filled-cache"
        for job in jobs:
            runner.run(job, cache_dir)
    return Setup(runner, harness.pass_order(workload, seed, jobs), cache_dir)


def measure(args, setup: Setup, setup_s: float) -> dict:
    runner, order, cache_dir = setup
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        gc.collect()
        with harness.ReferenceClock() as clock:
            passes.append(runner.run_pass(order, cache_dir, clock=clock))
    job_ref = [ref for p in passes for ref in p.job_refs]
    busy = sum(r.slice_busy for p in passes for r in p.jobs)
    slices = sum(r.slices for p in passes for r in p.jobs)
    print(f"passes {len(passes)}, jobs per pass {len(order)}, job samples "
          f"{len(job_ref)}; medians: wall_s "
          f"{statistics.median(p.wall for p in passes):.4f}, cpu_s "
          f"{statistics.median(p.cpu for p in passes):.4f}; mean reference "
          f"slice {busy / slices * 1e3:.4f} ms")
    return {
        "wall_ref": (statistics.median(p.wall_ref for p in passes), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "job_ref.p50": (statistics.median(job_ref), "ref"),
        "job_ref.p95": (_percentile(job_ref, 95), "ref"),
    }


def measure_traced(setup: Setup) -> dict:
    """One traced pass between two untraced ones, each under the reference
    clock; the untraced pair brackets the traced pass in time, so the host's
    drift and first-pass costs do not read as tracing overhead."""
    runner, order, cache_dir = setup

    def timed_pass(tracer=None):
        gc.collect()
        with harness.ReferenceClock() as clock:
            if tracer is None:
                return runner.run_pass(order, cache_dir, clock=clock)
            with tracer.installed(clock):
                return runner.run_pass(order, cache_dir, tracer.begin_job, clock)

    before = timed_pass()
    tracer = tracing.Tracer()
    traced = timed_pass(tracer)
    after = timed_pass()
    values = tracer.metrics(traced.wall)
    for section in tracing.SECTIONS:
        values[f"jobs.{section}_s"] = sum(
            r.timing.get(section, 0.0) for r in before.jobs if r.timing)
    values["trace.overhead_frac"] = 2 * traced.wall_ref / (before.wall_ref + after.wall_ref) - 1
    values["trace.untraced_wall_s"] = (before.wall + after.wall) / 2
    values["trace.traced_wall_s"] = traced.wall
    units = {name: unit for name, unit, _ in tracing.metric_catalogue()}
    return {name: (values[name], units[name]) for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "lgtft" / "cli.py").is_file():
        print(f"bench: no engine sources under {harness.SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        tally, setup = harness.Tally(), None
        timings = []  # (wall seconds, slice seconds, slices) per set-up
        with harness.ReferenceClock() as clock:
            for k in range(1 if args.trace else SETUPS):
                if setup is not None:
                    # drop the previous set-up's engine before importing it again
                    setup = None
                    gc.collect()
                started = START if k == 0 else time.perf_counter()
                busy, slices = clock.busy, clock.slices
                setup = set_up(args.workload, args.seed, WORK / f"setup{k}", tally)
                busy, slices = clock.busy - busy, clock.slices - slices
                timings.append((time.perf_counter() - started - busy, busy, slices))
        if not clock.slices:
            raise RuntimeError("no reference slice ran during set-up")
        # set-up time in seconds at the nominal speed of the reference slice
        unit = clock.busy / clock.slices
        setup_s = harness.NOMINAL_SLICE_S * statistics.median(
            harness.in_ref(wall, busy, slices, unit) for wall, busy, slices in timings)
        print(f"set-ups {len(timings)}, raw median "
              f"{statistics.median(t[0] for t in timings):.4f} s")
        if args.trace:
            metrics = measure_traced(setup)
        else:
            metrics = measure(args, setup, setup_s)
        attempted, failed = tally.attempted, tally.failed
        for problem in tally.problems[:10]:
            print(f"FAILED {problem}")
        print(f"workload {args.workload}, seed {args.seed}: {attempted} jobs, "
              f"{failed} failed (failed_frac {failed / attempted:.4f})")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
