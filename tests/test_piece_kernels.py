"""The two kernels under every Koszul table and Hom space: piece assembly
(FreeComplex.matrix) and elimination (SparseMatrix._rref_rows).

Both are held to the code they replaced, kept in oracles.py: the matrix
read through a (label, exps) row index of the target basis, and the
elimination through fresh vec_scale/vec_axpy dicts.  They must agree entry
for entry and in the order of every row's entries, on every piece of the
graded or windowed Koszul complex and of each defect complex of every bench
template and tests/reference job.
"""

import pytest

import lgtft.jobs
from lgtft.koszul import KoszulComplex
from lgtft.lgpair import make_lg_pair
from lgtft.matfact import (
    _defect_complex,
    default_degree_bound,
    koszul_factorization,
)

from both_modes import run_both_modes
from oracles import indexed_matrix, indexed_rref
from test_bench_references import _load_harness
from test_reference_reports import JOBS as REFERENCE_JOBS


def _ordered(rows):
    return [list(row.items()) for row in rows]


def _check_pieces(complex_, pieces):
    """matrix() and rref() of each piece equal the oracles', row order and
    entry order included; returns the number of nonempty pieces."""
    checked = 0
    for index, degree in pieces:
        matrix = complex_.matrix(index, degree)
        expected = indexed_matrix(complex_, index, degree)
        assert (matrix.nrows, matrix.ncols) == (expected.nrows, expected.ncols)
        assert _ordered(matrix.rows) == _ordered(expected.rows)
        if not (matrix.nrows and matrix.ncols):
            continue
        original = _ordered(matrix.rows)
        pivot_cols, rows = matrix.rref()
        expected_cols, expected_rows = indexed_rref(matrix)
        assert pivot_cols == expected_cols
        assert _ordered(rows) == _ordered(expected_rows)
        assert _ordered(matrix.rows) == original  # the input is not modified
        checked += 1
    return checked


def _koszul_pieces(raw, lg):
    complex_ = KoszulComplex(lg)
    bound = raw.get("koszul_bound", raw.get("degree_bound"))
    if bound is None:
        bound = lgtft.jobs._koszul_default_bound(lg)
    if lg.weights is not None:
        degrees = range(complex_.min_degree, bound + 1)
    else:
        degrees = [n for n in (bound - 2, bound - 1, bound) if n >= 0]
    return complex_, [(k, m) for k in range(-complex_.d, 0) for m in degrees]


def _defect_pieces(raw, lg, a, b):
    graded = lg.weights is not None and a.graded and b.graded
    complex_ = _defect_complex(a, b, graded)
    bound = raw.get("degree_bound")
    if bound is None:
        bound = default_degree_bound(lg, a, b, graded)
    if graded:
        degrees = range(complex_.min_degree, bound + 1)
    else:
        degrees = [n for n in (bound - 1, bound) if n >= 0]
    return complex_, [(parity, m) for m in degrees for parity in (0, 1)]


def _check_job(raw):
    lg = make_lg_pair(raw["variables"], raw["superpotential"], raw.get("weights"))
    checked = _check_pieces(*_koszul_pieces(raw, lg))
    branes = [
        koszul_factorization(lg, brane["pairs"]) for brane in raw.get("branes", [])
    ]
    for a in branes:
        for b in branes:
            checked += _check_pieces(*_defect_pieces(raw, lg, a, b))
    assert checked


@pytest.mark.parametrize("name", sorted(REFERENCE_JOBS))
def test_reference_job_pieces_match_the_replaced_code(name):
    _check_job(REFERENCE_JOBS[name])


def test_bench_template_pieces_match_the_replaced_code(monkeypatch):
    for raw in _load_harness(monkeypatch).TEMPLATES.values():
        _check_job(raw)


_LEAVING_SCRIPT = """
from lgtft.complex import FreeComplex
from lgtft.errors import InternalCheckError
from lgtft.poly import PolyRing
ring = PolyRing(["x"])
x = ring.parse("x")
cases = {
    # a's image is the generator c of index 2, not of the target index 1
    "label": ({0: [("a", 0)], 1: [("b", 0)], 2: [("c", 0)]}, {0: 1, 1: 2},
              {"a": [("c", ring.one())], "b": [], "c": []}),
    # x * a has degree 1, but the graded piece (1, 0) holds degree 0 only
    "monomial": ({0: [("a", 0)], 1: [("b", 0)]}, {0: 1},
                 {"a": [("b", x)], "b": []}),
}
for name, (generators, successor, entries) in cases.items():
    complex_ = FreeComplex(ring, generators, successor, entries.__getitem__, (1,))
    try:
        complex_.matrix(0, 0)
    except InternalCheckError as exc:
        if "leaves its target piece" in str(exc):
            print(name, "raised")
"""


def test_a_term_outside_the_target_piece_raises_also_under_O():
    for flags, stdout in run_both_modes(_LEAVING_SCRIPT).items():
        assert stdout.split() == [
            "label", "raised", "monomial", "raised"
        ], flags
