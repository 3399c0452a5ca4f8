"""Self-tests of the benchmark itself (about a minute).

    python3 bench/selftest.py

They check that a wrong report is counted as failed, that the tracer puts
back every attribute it replaced, that seeds change jobs without changing
their size, that the per-layer catalogue matches BENCHMARK.json, and that the
benchmark refuses to run where the engine sources are missing.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import traceback

import harness
import tracer as tracing

WORK = harness.BENCH_DIR / ".work" / "selftest"


def _sites():
    for sites in list(tracing.SPANS.values()) + list(tracing.COUNTS.values()):
        for module, owner, attribute in sites:
            target = harness.engine_module(module)
            if owner is not None:
                target = getattr(target, owner)
            yield target, attribute


def test_tracer_restores_every_attribute():
    harness.import_engine()
    originals = [(target, name, vars(target)[name]) for target, name in _sites()]
    tracer = tracing.Tracer()
    try:
        with tracer.installed():
            for target, name, original in originals:
                assert vars(target)[name] is not original, f"{target}.{name} not wrapped"
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    for target, name, original in originals:
        assert vars(target)[name] is original, f"{target}.{name} not restored"


def test_tampered_reference_counts_as_failed():
    cli = harness.import_engine()
    job = harness.make_jobs("bulk", 5)[3]
    assert job.template == "bulk.nqh2"
    true_refs = harness.load_references([job.template])
    tampered = copy.deepcopy(true_refs)
    gram = tampered[job.template]["results"]["jacobi"]["gram"]
    gram[0][-1] = "1/" + gram[0][-1]  # not among the checked invariants
    fractions = []
    for k, references in enumerate((true_refs, tampered)):
        runner = harness.Runner(cli, WORK / f"tamper{k}", references)
        runner.write_jobs([job])
        runner.run_pass([job])
        fractions.append(runner.tally.failed / runner.tally.attempted)
    assert fractions == [0.0, 1.0], f"failed_frac {fractions}"


def test_seeds_give_jobs_of_equal_size():
    harness.import_engine()
    lgpair = harness.engine_module("lgpair")
    jacobi = harness.engine_module("jacobi")
    matfact = harness.engine_module("matfact")

    def size(job):
        raw = job.raw
        lg = lgpair.make_lg_pair(raw["variables"], raw["superpotential"], raw.get("weights"))
        branes = [(job.names[b["name"]], matfact.koszul_factorization(lg, b["pairs"]))
                  for b in raw.get("branes", [])]
        dims = {}
        if job.template.startswith("warm."):
            for a, first in branes:
                for b, second in branes:
                    hom = matfact.hom_cohomology(first, second)
                    dims[f"{a}|{b}"] = (hom.dim(0), hom.dim(1))
        ranks = [(name, obj.rank0, obj.rank1) for name, obj in branes]
        return jacobi.milnor_number(lg), ranks, dims

    for workload in harness.WORKLOADS:
        first, second = harness.make_jobs(workload, 1), harness.make_jobs(workload, 2)
        assert [j.template for j in first] == [j.template for j in second]
        if any("branes" in j.raw for j in first):
            assert [j.raw for j in first] != [j.raw for j in second], "seeds gave equal jobs"
        for a, b in zip(first, second):
            assert size(a) == size(b), f"{a.template}: {size(a)} != {size(b)}"
        assert harness.make_jobs(workload, 1) == first, "a seed gave two job sets"


def test_catalogue_matches_benchmark_json():
    with open(harness.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.metric_catalogue(), "per_layer differs from the tracer"
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_refuses_without_engine_sources():
    bare = WORK / "bare"
    shutil.copytree(harness.BENCH_DIR, bare / harness.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tft", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0, "ran without the engine"
    assert '"metrics"' not in done.stdout, "printed a result without the engine"


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        for test in tests:
            try:
                test()
                print(f"PASS {test.__name__}", flush=True)
            except Exception:  # report every failing self-test, then exit non-zero
                failures += 1
                print(f"FAIL {test.__name__}\n{traceback.format_exc()}", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
