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


# template -> (reductions, forward passes) of one run_job, no cache; a
# certified Hom checks its classes with one forward pass per parity, and
# builds only the pieces where its model counts classes, so the four graded
# Homs of tft.baseline and warm.graded forward-pass 29 maps out of pieces
# where building every piece up to the last class passed 33.  The windowed
# End(C) of warm.windowed builds no window: its classes are lifted from
# X/(c)X, whose two blocks are forward-passed once each, and whose two
# quotients reduce their kernels (the images are empty, so not passed); its
# windowed Koszul table passes the map out of index -1 only, as the map out
# of the top index -2 is injective and counted.  The weights of W are read
# off an integer kernel (lgpair.detect_weights), with no forward pass, and
# the bulk pairing's nondegeneracy off the residue trace's scale, with no
# rank of its Gram matrix (the tft clauses of bulk.x5y and tft.baseline).
# The residue trace's C is monomial on x^4+y^4 and x^5*y+y^6, every entry a
# 1x1 block that SparseMatrix.inverse inverts without reducing [C | I]: the
# trace of bulk.x5y, tft.baseline and warm.graded reduces nothing
_ELIMINATIONS = {
    "bulk.x5y": (5, 40),
    "tft.baseline": (17, 64),
    "warm.graded": (17, 59),
    "warm.windowed": (3, 3),
}


def test_templates_reduce_no_map_out_of_a_piece(monkeypatch):
    """Pieces read the forward pass of each map out (FreeComplex.map_out), so
    no such map is ever reduced: the reductions left are the quotients'
    kernels, the cuts of first_class and inverse.  The eliminations of each
    job, by mode, are pinned exactly."""
    from lgtft.complex import FreeComplex
    from lgtft.linalg import SparseMatrix

    harness = _load_harness(monkeypatch)
    map_out, rref_rows = FreeComplex.map_out, SparseMatrix._rref_rows
    maps = {}  # id -> a map out of a piece, kept so that ids stay unique
    modes = []  # reduce, per elimination
    reduced_maps = []

    def recording_map_out(self, index, degree):
        out = map_out(self, index, degree)
        maps[id(out)] = out
        return out

    def counting(self, reduce=True):
        modes.append(reduce)
        if reduce and id(self) in maps:
            reduced_maps.append(self)
        return rref_rows(self, reduce)

    monkeypatch.setattr(FreeComplex, "map_out", recording_map_out)
    monkeypatch.setattr(SparseMatrix, "_rref_rows", counting)
    counts = {}
    for template in _ELIMINATIONS:
        del modes[:]
        run_job(JobSpec.from_dict(harness.unseeded(template).raw))
        counts[template] = (modes.count(True), modes.count(False))
    assert counts == _ELIMINATIONS
    assert maps and not reduced_maps
