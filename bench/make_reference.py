"""Write the reference report of every benchmark job.

    python3 bench/make_reference.py [TEMPLATE ...]

Runs each unseeded job (template brane names, no rescaling) once through the
CLI with an empty cache and stores its report minus ``timing`` under
``bench/reference/``.  The benchmark compares every report it sees against
these, so regenerate them only for a change that is meant to alter reports.
"""

from __future__ import annotations

import json
import shutil
import sys

import harness


def main(argv) -> int:
    templates = argv or list(harness.TEMPLATES)
    work = harness.BENCH_DIR / ".work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = harness.Runner(harness.import_engine(), work, {})
        jobs = [harness.unseeded(template) for template in templates]
        runner.write_jobs(jobs)
        for job in jobs:
            cache_dir = runner.fresh_cache()
            code = runner.cli.main(["run", str(job.path), "--output",
                                    str(work / "report.json"), "--cache-dir",
                                    str(cache_dir)])
            if code != 0:
                print(f"{job.template}: exit {code}", file=sys.stderr)
                return 1
            with open(work / "report.json", "r", encoding="utf-8") as handle:
                report = harness.canonical_report(json.load(handle), job)
            problems = harness.check_report(report, job, report)
            if problems:
                print(f"{job.template}: {problems}", file=sys.stderr)
                return 1
            harness.REFERENCE_DIR.mkdir(exist_ok=True)
            with open(harness.reference_path(job.template), "w", encoding="utf-8") as handle:
                json.dump(report, handle, sort_keys=True, indent=1)
                handle.write("\n")
            print(f"wrote {harness.reference_path(job.template).name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
