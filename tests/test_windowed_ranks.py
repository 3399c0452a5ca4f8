"""Windowed ranks, cut maps and the vanishing witness.

Without weights, FreeComplex.rank eliminates each index once, columns in
degree order, and counts the pivots of each window; KoszulComplex.rank
counts the injective map out of the top index as the window's size.  The
witness is found in kernel coordinates.  Both are held to the code they
replaced, kept in oracles.py: every window eliminated on its own in label
order, and the witness read off the piece eliminated in full.  The map out of a smaller
window is cut out of the kept map of a larger one, and must equal the map
matrix() builds.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

import lgtft.jobs
from lgtft.errors import InternalCheckError
from lgtft.koszul import (
    KoszulComplex,
    check_vanishing_negative_degrees,
    koszul_cohomology,
)
from lgtft.complex import FreeComplex
from lgtft.lgpair import make_lg_pair
from lgtft.matfact import _defect_complex, koszul_factorization

from both_modes import run_both_modes
from oracles import cohomology_witness, label_order_rank

WINDOWED = [
    (["x", "y", "z"], "x^3+y^3+z^3+x*y*z^2", 9),  # bulk.nqh3
    (["x", "y"], "x^5+y^5+x^2*y^2", None),  # bulk.nqh2
    (["x", "y"], "x^4+y^4+x*y^2", None),
    (["x"], "x^2 + x^3", 8),
    (["x", "y"], "x+y+1", 5),
    (["x", "y"], "x^3+x", 6),  # dW/dy = 0: infinite mu
]


def _bound(lg, bound):
    return lgtft.jobs._koszul_default_bound(lg) if bound is None else bound


def _check_windows(lg, bound):
    """Every window 0..bound of every index: the ranks counted after the
    table, and those of a complex asked window by window upwards, which
    eliminates again at each larger window, equal the label-order ranks;
    so do the table's windowed dimensions."""
    table = koszul_cohomology(lg, bound)
    complex_ = lg.koszul_complex
    upwards = KoszulComplex(lg)
    oracle = KoszulComplex(lg)
    expected = {}
    for k in range(-complex_.d, 0):
        for n in range(bound + 1):
            expected[k, n] = label_order_rank(oracle, k, n)
            assert complex_.rank(k, n) == expected[k, n], (k, n)
            assert upwards.rank(k, n) == expected[k, n], (k, n)
    for k, row in table.history.items():
        for n, value in row.items():
            size = len(oracle.basis(k, n))
            rank_in = expected.get((k - 1, n - complex_.step), 0)
            assert value == size - expected.get((k, n), 0) - rank_in


@pytest.mark.parametrize("variables,w,bound", WINDOWED, ids=[w for _, w, _ in WINDOWED])
def test_window_ranks_match_label_order_eliminations(variables, w, bound):
    lg = make_lg_pair(variables, w)
    assert lg.weights is None
    _check_windows(lg, _bound(lg, bound))


_TERM = st.tuples(
    st.sampled_from(["1", "-1", "2", "i"]),
    st.sampled_from([(a, b) for a in range(5) for b in range(5) if 0 < a + b <= 4]),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_TERM, min_size=2, max_size=4, unique_by=lambda term: term[1]),
    st.integers(1, 6),
)
def test_window_ranks_of_small_inhomogeneous_w(terms, bound):
    w = "+".join(f"{c}*x^{a}*y^{b}" for c, (a, b) in terms)
    lg = make_lg_pair(["x", "y"], w)
    assume(lg.weights is None)
    _check_windows(lg, bound)
    report = check_vanishing_negative_degrees(lg, bound)
    if not report.vanishes:
        assert report.witness == cohomology_witness(
            KoszulComplex(lg), *report.witness_degree
        )


@pytest.mark.parametrize(
    "variables,w,bound",
    [(["x", "y", "z"], "x^3+y^3+z^3+x*y*z^2", 9), (["x", "y"], "x^2*y", 8)],
    ids=["nqh3", "x2y"],
)
def test_witness_matches_the_cohomology_witness(variables, w, bound):
    lg = make_lg_pair(variables, w)
    koszul_cohomology(lg, bound)
    report = check_vanishing_negative_degrees(lg, bound)
    assert not report.vanishes
    assert report.witness == cohomology_witness(
        KoszulComplex(lg), *report.witness_degree
    )


_CORRUPT_SCRIPT = """
from lgtft.errors import InternalCheckError
from lgtft.koszul import check_vanishing_negative_degrees, koszul_cohomology
from lgtft.complex import FreeComplex
from lgtft.lgpair import make_lg_pair
from lgtft.matfact import _defect_complex, koszul_factorization
lg = make_lg_pair(["x", "y", "z"], "x^3+y^3+z^3+x*y*z^2")
koszul_cohomology(lg, 9)
complex_ = lg.koszul_complex
# the map into the witness piece (-1, 9) is that of the window 6 of index -2:
# move a pivot of degree 7 of its kept pass into it, which leaves the ranks
# at the bound alone
kept = complex_._passes[-2]
moved = list(kept.degrees)
moved[moved.index(7)] = 6
complex_._passes[-2] = kept._replace(degrees=moved)
try:
    check_vanishing_negative_degrees(lg, 9)
except InternalCheckError as exc:
    if "leaves the kernel" in str(exc):
        print("raised")
"""


def test_a_corrupted_incoming_rank_raises_also_under_O():
    for flags, stdout in run_both_modes(_CORRUPT_SCRIPT).items():
        assert stdout.split() == ["raised"], flags


_RAISED_TOP_COUNT_SCRIPT = """
from lgtft.errors import InternalCheckError
from lgtft.koszul import KoszulComplex, check_vanishing_negative_degrees
from lgtft.lgpair import make_lg_pair
lg = make_lg_pair(["x", "y"], "x^3+x")
# the witness piece is (-1, 6), and the map into it is that of the window
# 6 - step of the top index -2, whose rank is counted, not eliminated: raise
# that count by one, which leaves the counts at the bound alone
counted = KoszulComplex.rank


def raised(self, index, degree):
    return counted(self, index, degree) + (index == -2 and degree == 6 - self.step)


KoszulComplex.rank = raised
try:
    check_vanishing_negative_degrees(lg, 6)
except InternalCheckError as exc:
    if "piece (-1, 6)" in str(exc) and "leaves the kernel" in str(exc):
        print("raised")
"""


def test_a_raised_top_count_raises_also_under_O():
    """The rank out of the top index of a windowed table is counted, not
    eliminated; first_class holds the count of the map into the witness
    piece to its own elimination, so a wrong count fails closed."""
    for flags, stdout in run_both_modes(_RAISED_TOP_COUNT_SCRIPT).items():
        assert stdout.split() == ["raised"], flags


def test_a_top_generator_with_no_entry_is_not_counted():
    """The count rests on some partial of W being nonzero; with the top
    generator's entries emptied it raises instead of counting."""
    lg = make_lg_pair(["x", "y"], "x^3+x")
    complex_ = KoszulComplex(lg)
    assert complex_.rank(-2, 4) == len(complex_.basis(-2, 4))
    complex_.entries[(0, 1)] = ()
    with pytest.raises(InternalCheckError, match="every partial of W is zero"):
        complex_.rank(-2, 4)


def _end_c_complex():
    """The defect complex of End(C) on x^4+y^4+x*y^2, and its Hom bound."""
    lg = make_lg_pair(["x", "y"], "x^4+y^4+x*y^2")
    c = koszul_factorization(lg, [("x", "x^3+y^2"), ("y", "y^3")])
    return _defect_complex(c, c, False), 9


def _koszul_complex(w):
    lg = make_lg_pair(["x", "y"], w)
    return KoszulComplex(lg), lgtft.jobs._koszul_default_bound(lg)


CUT_COMPLEXES = {
    "x^5+y^5+x^2*y^2": lambda: _koszul_complex("x^5+y^5+x^2*y^2"),
    "x^4+y^4+x*y^2": lambda: _koszul_complex("x^4+y^4+x*y^2"),
    "End(C)": _end_c_complex,
}


@pytest.mark.parametrize("name", sorted(CUT_COMPLEXES))
def test_cut_maps_equal_the_built_maps(monkeypatch, name):
    """Once the map out of window N of an index is kept, the map out of
    every window n < N is cut out of it, with no matrix() call, and equals
    matrix(index, n) row for row, its entries in the same order."""
    complex_, window = CUT_COMPLEXES[name]()
    assert complex_.weights is None
    matrix = FreeComplex.matrix
    built = []

    def recording_matrix(self, index, degree):
        built.append((index, degree))
        return matrix(self, index, degree)

    monkeypatch.setattr(FreeComplex, "matrix", recording_matrix)
    for index in complex_.successor:
        complex_.map_out(index, window)
        for n in range(window):
            cut = complex_.map_out(index, n)
            expected = matrix(complex_, index, n)
            assert (cut.nrows, cut.ncols) == (expected.nrows, expected.ncols)
            assert [list(row.items()) for row in cut.rows] == [
                list(row.items()) for row in expected.rows
            ], (index, n)
    assert built == [(index, window) for index in complex_.successor]


_LOWERED_STEP_SCRIPT = """
from lgtft.complex import FreeComplex
from lgtft.errors import InternalCheckError
from lgtft.lgpair import make_lg_pair
from lgtft.matfact import _defect_complex, koszul_factorization

lg = make_lg_pair(["x", "y"], "x^4+y^4+x*y^2")
c = koszul_factorization(lg, [("x", "x^3+y^2"), ("y", "y^3")])
built = []
matrix = FreeComplex.matrix
FreeComplex.matrix = lambda self, *key: built.append(key) or matrix(self, *key)


def verdict(make):
    try:
        make()
    except InternalCheckError as exc:
        if "leaves its target piece" in str(exc):
            return "raised"
        raise
    return "passed"


for lower in (0, 1):
    complex_ = _defect_complex(c, c, False)
    complex_.step -= lower
    print("build", verdict(lambda: complex_.map_out(0, 8)), built.pop())
    complex_ = _defect_complex(c, c, False)
    complex_.map_out(0, 9)
    complex_.step -= lower
    print("cut", verdict(lambda: complex_.map_out(0, 8)), built.pop())
"""


def test_a_lowered_step_raises_on_the_build_and_the_cut_path_also_under_O():
    """With step lowered after construction, a term of the differential
    lands past its target window: matrix() raises on it, and so does the cut
    out of a map kept from before, plainly and under python -O."""
    for flags, stdout in run_both_modes(_LOWERED_STEP_SCRIPT).items():
        assert stdout.splitlines() == [
            "build passed (0, 8)",
            "cut passed (0, 9)",
            "build raised (0, 8)",
            "cut raised (0, 9)",
        ], flags
