"""Jobs, reference reports and the job loop shared by the benchmark scripts.

Every job goes through the public entry point users run,
``lgtft.cli.main(["run", job, "--output", ..., "--cache-dir", ...])``, one at a
time from this process.  The engine is imported from ``src/`` of the checkout
that holds this directory, never from an installed copy.

A seed changes only things that keep the problem size fixed: job order, brane
names, and a unit rescaling ``a -> u*a, b -> u^-1*b`` (``u`` in ``{1, -1, i,
-i}``) of every rank-1|1 factor of a brane.  Rescaled factorizations are
isomorphic, so after mapping brane names back every report must equal the
stored reference report of the unseeded job, apart from ``timing``.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import importlib
import io
import json
import random
import shutil
import signal
import string
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

UNITS = ("1", "-1", "i", "-i")
INVERSE_UNIT = {"1": "1", "-1": "-1", "i": "-i", "-i": "i"}

# the two rank-2|2 branes of the ROADMAP baseline datum on x^4+y^4
BRANE_A = [["x", "x^3"], ["y", "y^3"]]
BRANE_B = [["x^2", "x^2"], ["y", "y^3"]]
# a rank-2|2 brane on the non-quasi-homogeneous x^4+y^4+x*y^2
BRANE_C = [["x", "x^3+y^2"], ["y", "y^3"]]


def _template(variables, superpotential, branes=(), compute="all", **extra):
    raw = {"variables": variables, "superpotential": superpotential,
           "compute": compute}
    if branes:
        raw["branes"] = [{"name": name, "pairs": pairs} for name, pairs in branes]
    raw.update(extra)
    return raw


HOM_SECTIONS = ["jacobi", "koszul", "homs"]

TEMPLATES = {
    "bulk.x5y": _template(["x", "y"], "x^5*y+y^6", [("B", [["y", "x^5+y^5"]])]),
    "bulk.fermat6": _template(
        ["x", "y", "z"], "x^6+y^6+z^6", compute=["jacobi", "koszul"]),
    "bulk.nqh3": _template(
        ["x", "y", "z"], "x^3+y^3+z^3+x*y*z^2", compute=["jacobi", "koszul"],
        koszul_bound=9),
    "bulk.nqh2": _template(
        ["x", "y"], "x^5+y^5+x^2*y^2", compute=["jacobi", "koszul"]),
    "tft.baseline": _template(
        ["x", "y"], "x^4+y^4", [("A", BRANE_A), ("B", BRANE_B)]),
    "warm.graded": _template(
        ["x", "y"], "x^4+y^4", [("A", BRANE_A), ("B", BRANE_B)],
        compute=HOM_SECTIONS),
    "warm.windowed": _template(
        ["x", "y"], "x^4+y^4+x*y^2", [("C", BRANE_C)], compute=HOM_SECTIONS),
}

_GRADED_HOMS = {"A|A": (2, 2), "A|B": (2, 2), "B|A": (2, 2), "B|B": (4, 4)}

# Invariants every seed must reproduce, independent of the reference files:
# Milnor numbers and (even, odd) Hom dimensions under the template's names.
EXPECTED = {
    "bulk.x5y": {"milnor": 25, "homs": {"B|B": (5, 0)}},
    "bulk.fermat6": {"milnor": 125},
    "bulk.nqh3": {"milnor": 17},
    "bulk.nqh2": {"milnor": 16},
    "tft.baseline": {"milnor": 9, "homs": _GRADED_HOMS},
    "warm.graded": {"milnor": 9, "homs": _GRADED_HOMS},
    "warm.windowed": {"homs": {"C|C": (2, 2)}},
}

WORKLOADS = {
    "bulk": ("bulk.x5y", "bulk.fermat6", "bulk.nqh3", "bulk.nqh2"),
    "tft": ("tft.baseline",),
    "warm": ("warm.graded", "warm.windowed"),
}
# Cached workloads replay their jobs so that a pass is long enough to time
# (about 1.5 s).  The replay counts differ so that job_ref.p50 and .p95 fall
# inside one job's cluster of times, not in the gap between two clusters.
REPLAYS = {"warm.graded": 60, "warm.windowed": 20}
CACHED_WORKLOADS = ("warm",)


@dataclass
class Job:
    template: str
    raw: dict
    names: dict  # seeded brane name -> template brane name
    path: Path = None


def make_jobs(workload: str, seed: int) -> list:
    """The distinct jobs of a workload, seeded, in template order."""
    rng = random.Random(f"{workload}:{seed}")
    return [_seeded(template, rng) for template in WORKLOADS[workload]]


def pass_order(workload: str, seed: int, jobs: list) -> list:
    """The job sequence of one pass; every pass of a run repeats it."""
    order = [job for job in jobs for _ in range(REPLAYS.get(job.template, 1))]
    random.Random(f"{workload}:{seed}:order").shuffle(order)
    return order


def _seeded(template: str, rng: random.Random) -> Job:
    raw = copy.deepcopy(TEMPLATES[template])
    names = {}
    for brane in raw.get("branes", []):
        name = None
        while name is None or name in names:
            name = "".join(rng.choice(string.ascii_uppercase) for _ in range(4))
        names[name] = brane["name"]
        brane["name"] = name
        brane["pairs"] = [_rescale(a, b, rng.choice(UNITS)) for a, b in brane["pairs"]]
    return Job(template, raw, names)


def _rescale(a: str, b: str, unit: str) -> list:
    if unit == "1":
        return [a, b]
    return [f"({unit})*({a})", f"({INVERSE_UNIT[unit]})*({b})"]


def unseeded(template: str) -> Job:
    """The job a reference report is made from: template names, no rescaling."""
    raw = copy.deepcopy(TEMPLATES[template])
    names = {brane["name"]: brane["name"] for brane in raw.get("branes", [])}
    return Job(template, raw, names)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def import_engine():
    """(Re-)import lgtft from this checkout's src/ and return lgtft.cli.

    Earlier imports are dropped first, so calling this again times a fresh
    import of the package.
    """
    for name in [m for m in sys.modules if m == "lgtft" or m.startswith("lgtft.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("lgtft.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"lgtft was imported from {cli.__file__}, not from {SRC}")
    return cli


def engine_module(name: str):
    return sys.modules[f"lgtft.{name}"]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def canonical_report(report: dict, job: Job) -> dict:
    """The report minus timing, with brane names mapped back to the template's."""
    out = copy.deepcopy(report)
    out.pop("timing", None)
    rename = job.names
    for brane in out.get("job", {}).get("branes", []):
        brane["name"] = rename.get(brane["name"], brane["name"])
    if isinstance(out.get("branes"), dict):
        out["branes"] = {rename.get(k, k): v for k, v in out["branes"].items()}
    homs = out.get("results", {}).get("homs")
    if isinstance(homs, dict):
        out["results"]["homs"] = {
            "|".join(rename.get(n, n) for n in key.split("|")): value
            for key, value in homs.items()
        }
    return out


def reference_path(template: str) -> Path:
    return REFERENCE_DIR / f"{template}.json"


def load_references(templates) -> dict:
    out = {}
    for template in templates:
        with open(reference_path(template), "r", encoding="utf-8") as handle:
            out[template] = json.load(handle)
    return out


def check_report(report: dict, job: Job, reference: dict) -> list:
    """Problems found in one report; an empty list means the job is correct."""
    canonical = canonical_report(report, job)
    problems = []
    diff = engine_module("jobs").diff_reports(reference, canonical)
    if diff["schema_mismatch"] is not None:
        problems.append(f"schema mismatch {diff['schema_mismatch']}")
    for entry in diff["entries"][:5]:
        problems.append(f"differs from reference at {entry['path']}")
    results = canonical.get("results", {})
    expected = EXPECTED[job.template]
    if "milnor" in expected:
        got = results.get("jacobi", {}).get("milnor_number")
        if got != expected["milnor"]:
            problems.append(f"milnor number {got}, expected {expected['milnor']}")
    for pair, (even, odd) in expected.get("homs", {}).items():
        dims = results.get("homs", {}).get(pair, {}).get("dims", {})
        if (dims.get("even"), dims.get("odd")) != (even, odd):
            problems.append(f"Hom {pair} dims {dims}, expected {(even, odd)}")
    tft = results.get("tft")
    if tft is not None:
        failing = [c["name"] for c in tft.get("clauses", []) if c.get("status") != "pass"]
        if failing or not tft.get("passed"):
            problems.append(f"axiom clauses not passing: {failing}")
        if tft.get("cardy_constant") not in ("-1", None):
            problems.append(f"Cardy constant {tft.get('cardy_constant')!r}")
    return problems


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


class ReferenceClock:
    """Measures the speed of this CPU while jobs run.

    On a shared 2-vCPU virtual machine the CPU's speed drifted by a third
    within seconds and stayed drifted for minutes, so raw wall times of one
    run varied as much as the drift.  Every ``interval`` seconds of wall time
    a timer signal runs a fixed pure-Python reference slice, with no lgtft
    code in it, in this thread, between the job's own bytecodes.  The mean
    duration of a slice is then the unit in which a job's wall time is
    steady: both slow down together.  The slices cost about 2 % of a pass and
    are subtracted from every job's wall time.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.busy = 0.0
        self.slices = 0

    def _tick(self, signum, frame):
        # a collection inside the slice would cost in proportion to the
        # engine's heap, not to the speed of the CPU
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_slice()
        self.busy += time.perf_counter() - start
        self.slices += 1
        if collecting:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def reference_slice(steps: int = 100) -> int:
    """A fixed computation in the style of the engine: Fraction and dict work."""
    acc = {}
    third = Fraction(1, 3)
    for k in range(steps):
        key = (k % 97, k % 89)
        acc[key] = acc.get(key, 0) + third * k
    return len(acc)


class JobResult(NamedTuple):
    wall: float  # seconds inside the CLI, reference slices excluded
    cpu: float
    timing: dict  # the report's own timing subtree, None without a report
    slice_busy: float  # seconds of reference slices run during the job
    slices: int


class PassResult(NamedTuple):
    wall: float  # sum of the jobs' wall times
    cpu: float
    jobs: list  # JobResult per job
    job_refs: list  # per-job wall time in reference units; None untimed

    @property
    def wall_ref(self) -> float:
        return sum(self.job_refs)


# a job is measured in the mean slice of its own run when it held at least
# this many slices, else in the mean slice of its whole pass
MIN_JOB_SLICES = 10
# seconds per reference unit for metrics that must be given in seconds: the
# typical duration of a slice on the machine the baseline was taken on
NOMINAL_SLICE_S = 0.0005


def in_ref(wall: float, busy: float, slices: int, fallback_unit: float) -> float:
    """A wall time in reference units, by its own slices when it held enough."""
    return wall / (busy / slices if slices >= MIN_JOB_SLICES else fallback_unit)


@dataclass
class Tally:
    """Jobs attempted and failed; failed_frac is failed / attempted."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


class Runner:
    """Runs jobs through the CLI one at a time and checks every report."""

    def __init__(self, cli, work: Path, references: dict, tally: Tally = None):
        self.cli = cli
        self.work = work
        self.references = references
        self.tally = tally if tally is not None else Tally()
        self._fresh = 0
        (work / "jobs").mkdir(parents=True, exist_ok=True)

    def write_jobs(self, jobs: list):
        """Write each job file and validate it the way the CLI loads it."""
        load_job = engine_module("jobs").load_job
        for k, job in enumerate(jobs):
            job.path = self.work / "jobs" / f"{k}-{job.template}.json"
            with open(job.path, "w", encoding="utf-8") as handle:
                json.dump(job.raw, handle, sort_keys=True)
            load_job(str(job.path))

    def fresh_cache(self) -> Path:
        self._fresh += 1
        return self.work / "cache" / str(self._fresh)

    def run(self, job: Job, cache_dir: Path, clock: ReferenceClock = None) -> JobResult:
        """Run one job and check its report.

        Time spent in the clock's reference slices is not counted.
        """
        out_path = self.work / "report.json"
        out_path.unlink(missing_ok=True)
        argv = ["run", str(job.path), "--output", str(out_path),
                "--cache-dir", str(cache_dir)]
        stderr = io.StringIO()
        busy, slices = (clock.busy, clock.slices) if clock is not None else (0.0, 0)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed job, not a crash of the benchmark
                code = f"uncaught {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        if clock is not None:
            busy, slices = clock.busy - busy, clock.slices - slices
            wall -= busy
            cpu -= busy
        timing = None
        if code != 0:
            problems = [f"exit {code}: {stderr.getvalue().strip()[:200]}"]
        else:
            with open(out_path, "r", encoding="utf-8") as handle:
                report = json.load(handle)
            timing = report.get("timing")
            problems = check_report(report, job, self.references[job.template])
        self.tally.attempted += 1
        if problems:
            self.tally.failed += 1
            self.tally.problems.append(f"{job.template}: " + "; ".join(problems))
        return JobResult(wall, cpu, timing, busy, slices)

    def run_pass(self, order: list, cache_dir: Path = None, before_job=None,
                 clock: ReferenceClock = None) -> PassResult:
        """Run one pass; cold passes (no cache_dir) give each job an empty cache.

        The sums cover only the time inside the CLI, not the checks between
        jobs.
        """
        results = []
        for job in order:
            target = cache_dir if cache_dir is not None else self.fresh_cache()
            if before_job is not None:
                before_job()
            results.append(self.run(job, target, clock))
            if cache_dir is None:
                shutil.rmtree(target, ignore_errors=True)
        job_refs = None
        if clock is not None:
            slices = sum(r.slices for r in results)
            if not slices:
                raise RuntimeError("no reference slice ran during the pass")
            pass_unit = sum(r.slice_busy for r in results) / slices
            job_refs = [in_ref(r.wall, r.slice_busy, r.slices, pass_unit)
                        for r in results]
        return PassResult(sum(r.wall for r in results), sum(r.cpu for r in results),
                          results, job_refs)
