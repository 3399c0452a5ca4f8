"""Contraction complex construction and graded cohomology tables."""

import pytest

from lgtft.errors import ValidationError
from lgtft.jacobi import jacobi_groebner
from lgtft.koszul import (
    KoszulComplex,
    _eliminated_table,
    _vanishing,
    _vector_to_wedge,
    apply_iota,
    check_vanishing_negative_degrees,
    koszul_cohomology,
)
from lgtft.lgpair import make_lg_pair
from lgtft.linalg import SparseMatrix
from lgtft.poly import mono_mul, mono_weighted_degree, monomials_of_weighted_degree
from lgtft.scalars import GaussianRational

from both_modes import run_both_modes
from oracles import dense_rank, monomials_up_to, reduced_first_class


def test_d1_complex_is_minus_2ix():
    lg = make_lg_pair(["x"], "x^2")
    complex_ = KoszulComplex(lg)
    images = complex_.entries[(0,)]
    assert len(images) == 1
    target, coeff = images[0]
    assert target == ()
    assert str(coeff) == "-2*i*x"


def test_d2_contraction_formula():
    lg = make_lg_pair(["x", "y"], "x^2+y^2")
    complex_ = KoszulComplex(lg)
    images = dict(complex_.entries[(0, 1)])
    # d_x wedge d_y maps to -i(2x d_y - 2y d_x)
    assert str(images[(1,)]) == "-2*i*x"
    assert str(images[(0,)]) == "2*i*y"


@pytest.mark.parametrize("w", ["x^2*y", "x^3+y^3", "x^2+y^2+z^2 + x*y"])
def test_iota_squared_zero(w):
    variables = ["x", "y", "z"][: 3 if "z" in w else 2]
    lg = make_lg_pair(variables, w)
    complex_ = KoszulComplex(lg)  # asserts iota^2 = 0 internally
    for size in range(2, lg.dimension + 1):
        for subset in complex_.subsets[-size]:
            element = [(subset, lg.ring.one())]
            once = apply_iota(complex_, element)
            assert apply_iota(complex_, once) == []


def test_unit_ideal_all_cohomology_zero():
    lg = make_lg_pair(["x"], "x")
    table = koszul_cohomology(lg, 10)
    assert table.totals == {-1: 0, 0: 0}


def test_quadric_2d():
    lg = make_lg_pair(["x", "y"], "x^2+y^2")
    table = koszul_cohomology(lg, 10)
    assert table.totals[-2] == 0
    assert table.totals[-1] == 0
    assert table.totals[0] == 1


def test_negative_bound_rejected():
    lg = make_lg_pair(["x"], "x^2")
    with pytest.raises(ValidationError):
        koszul_cohomology(lg, -1)


def test_h0_matches_staircase_counts():
    # weighted grading: H^0 in degree m counts standard monomials of degree m;
    # the eliminated table, so that the staircase is not held to itself
    for variables, w in [(["x", "y"], "x^3+y^3"), (["x", "y"], "x^4+y^4")]:
        lg = make_lg_pair(variables, w)
        table = _eliminated_table(lg, 20)
        gb = jacobi_groebner(lg)
        standard = gb.standard_monomials()
        by_degree = {}
        for exps in standard:
            m = mono_weighted_degree(exps, lg.weights)
            by_degree[m] = by_degree.get(m, 0) + 1
        assert table.dims[0] == by_degree
        assert table.totals[0] == len(standard)


FINITE_GRADED = [
    (["x"], "x^4", None),
    (["x", "y"], "x^2+y^2", None),
    (["x", "y"], "x^3+y^3", None),
    (["x", "y"], "x^4+y^4", None),
    (["x", "y", "z"], "x^6+y^6+z^6", None),
    (["x", "y"], "x^5*y+y^6", None),
    (["x", "y"], "x^3*y+y^5", [4, 3]),
    (["x", "y", "z"], "x^2*y+y^3+z^4", None),
    (["x"], "x", None),  # the unit ideal: the complex is exact, H^0 = 0
]


@pytest.mark.parametrize(
    "variables,w,weights", FINITE_GRADED, ids=[w for _, w, _ in FINITE_GRADED]
)
def test_staircase_table_equals_the_eliminated_one(monkeypatch, variables, w, weights):
    """At finite mu a graded table and its vanishing report are read off the
    staircase with no elimination, and equal those computed by eliminating
    every piece, at every bound from 0 to past the socle."""
    lg = make_lg_pair(variables, w, weights)
    oracle = make_lg_pair(variables, w, weights)
    bounds = range(2 * lg.weighted_degree + 5)
    expected = {bound: _eliminated_table(oracle, bound) for bound in bounds}
    eliminations = []
    original = SparseMatrix._rref_rows

    def counting(self, *args, **kwargs):
        eliminations.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "_rref_rows", counting)
    for bound in bounds:
        table = koszul_cohomology(lg, bound)
        report = check_vanishing_negative_degrees(lg, bound)
        assert table == expected[bound], bound
        assert report == _vanishing(oracle.koszul_complex, expected[bound])
        assert report.vanishes and report.witness is None
    assert eliminations == []
    assert table.totals[0] == lg.jacobi_algebra.dimension


_CORRUPT_STAIRCASE = """
from lgtft.errors import InternalCheckError
from lgtft.groebner import GroebnerBasis
from lgtft.jobs import JobSpec, run_job
from lgtft.koszul import koszul_cohomology
from lgtft.lgpair import make_lg_pair

original = GroebnerBasis.standard_monomials

def dropped(self, *limit):
    return original(self, *limit)[:-1]

def added(self, *limit):
    return original(self, *limit) + [self.leads[0]]

def table():
    koszul_cohomology(make_lg_pair(["x", "y"], "x^4+y^4"), 10)

def job():
    raw = {"variables": ["x", "y"], "superpotential": "x^4+y^4", "compute": ["koszul"]}
    run_job(JobSpec.from_dict(raw))

for corrupt in (dropped, added):
    GroebnerBasis.standard_monomials = corrupt
    for run in (table, job):
        try:
            run()
        except InternalCheckError as exc:
            print("raised" if "Poincare polynomial" in str(exc) else "other")
        else:
            print("passed")
"""


def test_a_corrupted_staircase_raises_also_under_O():
    """A staircase with one standard monomial dropped or one added fails the
    Poincare polynomial check, in the table and in a koszul job, with and
    without -O."""
    for flags, stdout in run_both_modes(_CORRUPT_STAIRCASE).items():
        assert stdout.split() == ["raised"] * 4, flags


def test_x2y_witness_is_nonbounding_cocycle():
    lg = make_lg_pair(["x", "y"], "x^2*y")
    report = check_vanishing_negative_degrees(lg, 8)
    assert not report.vanishes
    k, m = report.witness_degree
    assert k == -1
    complex_ = KoszulComplex(lg)
    # cocycle: iota kills it
    assert apply_iota(complex_, report.witness) == []
    # non-bounding: not in the image of the incoming differential
    assert not _in_image(complex_, lg, k, m, report.witness)


def _in_image(complex_, lg, k, m, element):
    weights = lg.weights
    degree_w = lg.weighted_degree

    def piece(kk, mm):
        basis = []
        for subset in complex_.subsets.get(kk, ()):
            offset = sum(degree_w - weights[j] for j in subset)
            remaining = mm - offset
            if remaining < 0:
                continue
            for exps in monomials_of_weighted_degree(weights, remaining):
                basis.append((subset, exps))
        return basis

    target = piece(k, m)
    index = {e: r for r, e in enumerate(target)}
    zero = GaussianRational(0)
    gens = []
    for subset, exps in piece(k - 1, m):
        row = [zero] * len(target)
        for image_subset, coeff in complex_.entries[subset]:
            for e, c in coeff.terms.items():
                key = (image_subset, mono_mul(exps, e))
                row[index[key]] = row[index[key]] + c
        gens.append(row)
    vector = [zero] * len(target)
    for subset, poly in element:
        for exps, coeff in poly.terms.items():
            vector[index[(subset, exps)]] = coeff
    return dense_rank(gens + [vector]) == dense_rank(gens)


@pytest.mark.parametrize(
    "variables,w,bound",
    [
        (["x"], "x^4", 10),
        (["x", "y"], "x^3+y^3", 9),
        (["x", "y"], "x^2*y", 8),
    ],
)
def test_dims_match_bruteforce_oracle(variables, w, bound):
    """Graded dims equal raw coefficient-matrix ranks computed independently."""
    lg = make_lg_pair(variables, w)
    table = koszul_cohomology(lg, bound)
    complex_ = KoszulComplex(lg)
    weights = lg.weights
    degree_w = lg.weighted_degree

    def piece(k, m):
        basis = []
        for subset in complex_.subsets.get(k, ()):
            offset = sum(degree_w - weights[j] for j in subset)
            for exps in monomials_up_to(lg.dimension, m):
                if mono_weighted_degree(exps, weights) + offset == m:
                    basis.append((subset, exps))
        return basis

    def dense_matrix(k, m):
        source = piece(k, m)
        target = piece(k + 1, m)
        index = {e: r for r, e in enumerate(target)}
        rows = [
            [GaussianRational(0)] * len(source) for _ in range(len(target))
        ]
        for col, (subset, exps) in enumerate(source):
            for image_subset, coeff in complex_.entries[subset]:
                for e, c in coeff.terms.items():
                    row = index[(image_subset, mono_mul(exps, e))]
                    rows[row][col] = rows[row][col] + c
        return rows, len(source), len(target)

    for k in range(-lg.dimension, 1):
        for m in range(0, bound + 1):
            rows, ncols, _ = dense_matrix(k, m)
            rank_out = dense_rank(rows) if (k < 0 and ncols) else 0
            rows_in, ncols_in, _ = dense_matrix(k - 1, m)
            rank_in = dense_rank(rows_in) if (k > -lg.dimension and ncols_in) else 0
            expected = ncols - rank_out - rank_in
            assert table.dim(k, m) == expected


def test_windowed_mode_for_inhomogeneous_w():
    lg = make_lg_pair(["x"], "x^2 + x^3")
    assert lg.weights is None
    table = koszul_cohomology(lg, 8)
    assert table.mode == "total_degree"
    assert table.stabilized
    assert table.totals[0] == 2  # mu(x^2+x^3) = 2
    assert table.totals[-1] == 0
    report = check_vanishing_negative_degrees(lg, 8)
    assert report.vanishes


def test_windowed_constant_differential_is_exact():
    """A unit partial makes the complex exact; with every entry constant the
    differential keeps the window, so no window may borrow its image from the
    one below."""
    lg = make_lg_pair(["x", "y"], "x+y+1")
    assert lg.weights is None
    table = koszul_cohomology(lg, 5)
    assert table.totals == {-2: 0, -1: 0, 0: 0}
    assert table.stabilized
    assert check_vanishing_negative_degrees(lg, 5).vanishes


def test_serialization_roundtrip_fields():
    lg = make_lg_pair(["x", "y"], "x^3+y^3")
    payload = koszul_cohomology(lg, 8).to_jsonable()
    assert payload["mode"] == "weighted"
    assert payload["bound"] == 8
    assert payload["totals"]["0"] == 4


@pytest.mark.parametrize(
    "variables,w,bound,shared",
    [
        (["x", "y"], "x^2*y", 8, None),
        (["x", "y", "z"], "x*y*z+x^3+z^3", 8, (-2, 4)),
        (["x", "y", "z"], "x^3+y^3+z^3+x*y*z^2", 9, (-1, 9)),
    ],
    ids=["x2y", "xyz-graded", "nqh3-windowed"],
)
def test_table_and_witness_build_each_map_once(
    monkeypatch, variables, w, bound, shared
):
    """The table and the vanishing check read the complex the pair keeps, and
    it builds the map out of each piece once.  The witness reuses the map
    the table built into a graded witness piece (x^2*y's has none) and the
    one out of a windowed witness piece: shared."""
    built = []
    original = KoszulComplex.matrix

    def counting(self, index, degree):
        built.append((index, degree))
        return original(self, index, degree)

    monkeypatch.setattr(KoszulComplex, "matrix", counting)
    lg = make_lg_pair(variables, w)
    koszul_cohomology(lg, bound)
    table = list(built)
    report = check_vanishing_negative_degrees(lg, bound)
    assert not report.vanishes
    if shared is not None:
        assert shared in table
    assert len(built) == len(set(built))


@pytest.mark.parametrize(
    "variables,w,bound",
    [
        (["x", "y", "z"], "x^3+y^3+z^3+x*y*z^2", 9),
        (["x", "y"], "x^2*y", 8),
        (["x", "y"], "x^3+y^3+x*y", 5),
        (["x", "y", "z"], "x*y*z+x^3+z^3", 8),
    ],
    ids=["nqh3", "x2y", "nqh-vanishing", "xyz-graded"],
)
def test_first_class_equals_the_reduced_one(variables, w, bound):
    """On every piece of negative index that the vanishing check reads, the
    witness solved over the forward pass equals the one read off the full
    RREF, None included; so does the reported witness."""
    lg = make_lg_pair(variables, w)
    koszul_cohomology(lg, bound)
    report = check_vanishing_negative_degrees(lg, bound)
    complex_ = lg.koszul_complex
    oracle = KoszulComplex(lg)
    if lg.weights is None:
        degrees = [bound]
    else:
        degrees = range(complex_.min_degree, bound + 1)
    for m in degrees:
        for k in range(-complex_.d, 0):
            expected = reduced_first_class(oracle, k, m)
            assert complex_.first_class(k, m) == expected, (k, m)
            if (k, m) == report.witness_degree:
                assert expected is not None
                assert report.witness == _vector_to_wedge(
                    oracle, oracle.basis(k, m), expected
                )
    assert report.vanishes == (report.witness_degree is None)
