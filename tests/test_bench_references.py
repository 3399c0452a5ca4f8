"""The benchmark's job templates reproduce their stored reference reports.

Each template of bench/harness.py runs unseeded, in process and with no
cache, and harness.check_report must find nothing: the report equals
bench/reference/<template>.json apart from timing, and the template's Milnor
number, Hom dimensions and axiom verdicts hold.  A change that alters a report
fails here, not first in a benchmark run.

bench/reference/bulk.nqh3.json records the windowed Koszul table of
x^3+y^3+z^3+x*y*z^2 that ROADMAP item 2 shows to be wrong (H^0 = 28, 29, 30
where mu = 17).  It stays pinned as it is until the fix for item 2 regenerates
it with bench/make_reference.py.
"""

import importlib.util
import json
import sys
from pathlib import Path

from lgtft.jobs import JobSpec, report_to_text, run_job

HARNESS = Path(__file__).resolve().parents[1] / "bench" / "harness.py"


def _load_harness(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as is
    spec = importlib.util.spec_from_file_location("bench_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_template_matches_its_reference_report(monkeypatch):
    harness = _load_harness(monkeypatch)
    references = harness.load_references(harness.TEMPLATES)
    problems = {}
    for template in harness.TEMPLATES:
        job = harness.unseeded(template)
        # the reference was written as JSON, so compare the report as JSON
        report = json.loads(report_to_text(run_job(JobSpec.from_dict(job.raw))))
        problems[template] = harness.check_report(report, job, references[template])
    assert problems == {template: [] for template in harness.TEMPLATES}
