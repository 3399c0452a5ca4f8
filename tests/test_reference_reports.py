"""Jobs beyond the benchmark templates reproduce their stored reports.

Each job of JOBS runs in process with no cache, and its report minus timing
must equal tests/reference/<name>.json byte for byte.  The jobs cover what
the benchmark templates do not: the even-dimensional quadric with nonzero
Cardy entries, Koszul pairs in one and two variables, windowed branes with
the tft section, a singular residue Gram matrix, a rank-4|4 End, and
windowed Ends lifted from X/(c)X: one whose window counted more classes
than its certificate, one whose c needs cofactors, one in three variables.

    PYTHONPATH=src python3 tests/test_reference_reports.py [NAME ...]

rewrites the stored reports; do so only for a change meant to alter them.

The same jobs, with the twins of CACHE_TWINS, also run in sequence against
one shared cache, and every report must equal its cold report: a cache key
that two of them shared while their results differ would show there.
"""

import sys
from pathlib import Path

import pytest

from lgtft.cache import Cache
from lgtft.jobs import JobSpec, report_to_text, run_job

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# the two rank-2|2 branes of tft.baseline on x^4+y^4
_BRANE_A = [["x", "x^3"], ["y", "y^3"]]
_BRANE_B = [["x^2", "x^2"], ["y", "y^3"]]

JOBS = {
    "spinor": {
        "variables": ["x", "y"],
        "superpotential": "x^2+y^2",
        "branes": [
            {"name": "B+", "pairs": [["x + i*y", "x - i*y"]]},
            {"name": "B-", "pairs": [["x - i*y", "x + i*y"]]},
        ],
    },
    "x3y3_pq": {
        "variables": ["x", "y"],
        "superpotential": "x^3+y^3",
        "branes": [
            {"name": "P", "pairs": [["x", "x^2"], ["y", "y^2"]]},
            {"name": "Q", "pairs": [["x+y", "x^2-x*y+y^2"]]},
        ],
    },
    "x4_m1m2": {
        "variables": ["x"],
        "superpotential": "x^4",
        "branes": [
            {"name": "M1", "pairs": [["x", "x^3"]]},
            {"name": "M2", "pairs": [["x^2", "x^2"]]},
        ],
    },
    "x5_m1m2": {
        "variables": ["x"],
        "superpotential": "x^5",
        "branes": [
            {"name": "M1", "pairs": [["x", "x^4"]]},
            {"name": "M2", "pairs": [["x^2", "x^3"]]},
        ],
    },
    "windowed_all": {
        "variables": ["x", "y"],
        "superpotential": "x^4+y^4+x*y^2",
        "branes": [{"name": "C", "pairs": [["x", "x^3+y^2"], ["y", "y^3"]]}],
    },
    "baseline_scale0": {
        "variables": ["x", "y"],
        "superpotential": "x^4+y^4",
        "branes": [
            {"name": "A", "pairs": _BRANE_A},
            {"name": "B", "pairs": _BRANE_B},
        ],
        "normalization": {"bulk_scale": "0"},
    },
    "rank4_end": {
        "variables": ["x", "y", "z"],
        "superpotential": "x^3+y^3+z^3",
        "branes": [
            {"name": "N", "pairs": [["x", "x^2"], ["y", "y^2"], ["z", "z^2"]]},
        ],
    },
    # a window of total degree counted 12|12 classes here, against a
    # certificate of 4|4; lifted from X/(c)X, End(E) has its 4|4
    "windowed_overcount": {
        "variables": ["x", "y"],
        "superpotential": "x^5+y^5+x^2*y^2",
        "branes": [{"name": "E", "pairs": [["x^2", "x^3+y^2"], ["y", "y^4"]]}],
        "compute": ["homs"],
    },
    # three windowed branes with every clause, Cardy included; a window
    # counted F|F as 10|10, and the tft section was skipped
    "windowed_cardy": {
        "variables": ["x", "y"],
        "superpotential": "x^4+y^4+x*y^2",
        "branes": [
            {"name": "C", "pairs": [["x", "x^3+y^2"], ["y", "y^3"]]},
            {"name": "D", "pairs": [["x^3+y^2", "x"], ["y^3", "y"]]},
            {"name": "F", "pairs": [["x", "x^3+y^2"], ["y^2", "y^2"]]},
        ],
    },
    # mu = 9; c = (x+y, x-y) has leading monomials x and x, which are not
    # coprime, so the lift divides by a basis with cofactors
    "windowed_noncoprime": {
        "variables": ["x", "y"],
        "superpotential": "(x+y)*x^3+(x-y)*(y^3+x*y)",
        "branes": [{"name": "K", "pairs": [["x+y", "x^3"], ["x-y", "y^3+x*y"]]}],
    },
    # a windowed End in three variables, lifted through three levels
    "windowed_n3": {
        "variables": ["x", "y", "z"],
        "superpotential": "x^3+y^3+z^3+x*y*z^2",
        "branes": [
            {"name": "N", "pairs": [["x", "x^2+y*z^2"], ["y", "y^2"], ["z", "z^2"]]},
        ],
        "compute": ["homs"],
    },
}
# Branes of reference jobs given again as blocks, with what sets their Hom
# tables apart from the reference job's: other weights, or no Koszul pairs.
CACHE_TWINS = {
    # x4_m1m2's branes, M1's weights shifted by 4: Hom(A, B) lies in degree
    # -4 and Hom(B, A) in degree 6, not 0 and 2
    "x4_shifted": {
        "variables": ["x"],
        "superpotential": "x^4",
        "branes": [
            {"name": "A", "d01": [["x"]], "d10": [["x^3"]],
             "weights0": [4], "weights1": [6]},
            {"name": "B", "d01": [["x^2"]], "d10": [["x^2"]]},
        ],
    },
    # windowed_overcount's brane without its pairs: no certificate, so its
    # window of 12|12 classes is reported as stabilized
    "windowed_overcount_blocks": {
        "variables": ["x", "y"],
        "superpotential": "x^5+y^5+x^2*y^2",
        "branes": [
            {"name": "E", "d01": [["x^2", "-y^4"], ["y", "x^3 + y^2"]],
             "d10": [["x^3 + y^2", "y^4"], ["-y", "x^2"]]},
        ],
        "compute": ["homs"],
    },
}
for _raw in (*JOBS.values(), *CACHE_TWINS.values()):
    _raw.setdefault("compute", "all")


def report_text(name: str, cache=None) -> str:
    """The report of JOBS[name] or CACHE_TWINS[name] minus timing, as the
    reference stores it; with no cache unless one is given."""
    raw = JOBS[name] if name in JOBS else CACHE_TWINS[name]
    report = run_job(JobSpec.from_dict(raw), cache)
    report.pop("timing")
    return report_to_text(report)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_job_matches_its_reference_report(name):
    reference = (REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert report_text(name) == reference


def test_shared_cache_replays_every_cold_report(tmp_path):
    """Every job and cache twin, run in sequence against one shared cache,
    once filling it and once replaying from it, gives its cold report minus
    timing byte for byte; the replay stores nothing new."""
    names = [*JOBS, *CACHE_TWINS]
    cold = {name: report_text(name) for name in names}
    cache = Cache(tmp_path / "cache")
    stored = []
    for _ in ("fill", "replay"):
        for name in names:
            assert report_text(name, cache) == cold[name], name
        stored.append(sorted(path.name for path in cache.directory.iterdir()))
    assert stored[0] and stored[1] == stored[0]


def main(names) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(JOBS):
        (REFERENCE_DIR / f"{name}.json").write_text(
            report_text(name), encoding="utf-8"
        )
        print(f"wrote {name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
