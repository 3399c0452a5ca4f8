"""Factorizations, the defect differential, and morphism cohomology."""

import random

import pytest

from lgtft.certificate import _vacuum, koszul_hom_dims, koszul_model
from lgtft.errors import (
    ClassBoundError,
    FactorizationError,
    NonCocycleError,
    RingMismatchError,
    ValidationError,
)
from lgtft.lgpair import make_lg_pair
from lgtft.matfact import (
    MatrixFactorization,
    Morphism,
    MorphismClass,
    _check_squares,
    _defect_complex,
    compose_classes,
    hom_cohomology,
    koszul_factorization,
    make_factorization,
)
from lgtft.poly import PolyRing
from lgtft.polymatrix import PolyMatrix
from lgtft.tft import BraneCategory
from lgtft.scalars import GaussianRational
from both_modes import run_both_modes
from oracles import (
    basis_order_piece,
    chain_compose_classes,
    full_class_coords,
    full_hom_pieces,
    morphism_blocks,
    oracle_add,
    oracle_check_squares,
    oracle_compose,
    oracle_d_partial,
    oracle_defect,
    oracle_hom_dims,
    oracle_koszul_blocks,
    oracle_scale,
    oracle_supertrace,
    piece_count_stabilized,
    window_class_counts,
)
from test_reference_reports import JOBS as REFERENCE_JOBS


def _pm(ring, rows):
    return PolyMatrix(ring, [[ring.parse(p) for p in row] for row in rows])


@pytest.fixture
def lg_x3():
    return make_lg_pair(["x"], "x^3")


# -- construction -----------------------------------------------------------


def test_make_factorization_valid():
    lg = make_lg_pair(["x"], "x^2")
    mf = make_factorization(lg, _pm(lg.ring, [["x"]]), _pm(lg.ring, [["x"]]))
    assert mf.rank0 == mf.rank1 == 1


def test_equal_factorizations_built_twice_are_equal_and_hash_equal():
    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    pairs = [("x", "x^3"), ("y", "y^3")]
    first = koszul_factorization(lg, pairs)
    second = koszul_factorization(lg, pairs)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first.key() == second.key()
    other = koszul_factorization(lg, [("x^2", "x^2"), ("y", "y^3")])
    assert first != other and first.key() != other.key()


def test_zero_brane_and_rank_one_brane_have_different_keys():
    lg = make_lg_pair(["x"], "x^2")
    zero = make_factorization(lg, PolyMatrix(lg.ring, []), PolyMatrix(lg.ring, []))
    one = koszul_factorization(lg, [("x", "x")])
    assert (zero.rank0, zero.rank1, one.rank0, one.rank1) == (0, 0, 1, 1)
    assert zero.key() != one.key() and zero != one


def test_make_factorization_x3(lg_x3):
    mf = make_factorization(
        lg_x3, _pm(lg_x3.ring, [["x"]]), _pm(lg_x3.ring, [["x^2"]])
    )
    assert mf.graded


def test_make_factorization_violation_reports_entry(lg_x3):
    with pytest.raises(FactorizationError) as err:
        make_factorization(
            lg_x3, _pm(lg_x3.ring, [["x"]]), _pm(lg_x3.ring, [["x"]])
        )
    assert "(1,1)" in str(err.value)
    assert "x^3" in str(err.value)


def test_koszul_single_pair(lg_x3):
    mf = koszul_factorization(lg_x3, [("x", "x^2")])
    d01, d10 = morphism_blocks(mf.D)
    assert d01.to_strings() == [["x"]]
    assert d10.to_strings() == [["x^2"]]


def test_koszul_two_pairs_rank():
    lg = make_lg_pair(["x", "y"], "x^3+y^3")
    mf = koszul_factorization(lg, [("x", "x^2"), ("y", "y^2")])
    assert (mf.rank0, mf.rank1) == (2, 2)


def test_koszul_degenerate_pair_still_valid():
    lg = make_lg_pair(["x"], "x^2")
    mf = koszul_factorization(lg, [("x", "x"), ("x", "-x+x")])
    assert (mf.rank0, mf.rank1) == (2, 2)


def test_koszul_sum_mismatch():
    lg = make_lg_pair(["x"], "x^3")
    with pytest.raises(FactorizationError):
        koszul_factorization(lg, [("x", "x")])


def test_koszul_blocks_determine_the_pairs():
    """The last pair (a, b) of a Koszul factorization of rank 2r sits at
    d01[r][0] and -d01[0][r], and the earlier blocks are the top-left r x r
    corners, so the blocks determine the pairs: the Hom cache key needs only
    whether a brane has them.  On seeded random pairs, three per W."""
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        ring = make_lg_pair(["x", "y"], "x^2+y^2").ring
        pairs = [
            (_random_poly(ring, rng, max_degree=2), _random_poly(ring, rng, 2))
            for _ in range(3)
        ]
        w = ring.zero()
        for a, b in pairs:
            w = w + a * b
        if w.is_constant():
            continue
        mf = koszul_factorization(make_lg_pair(["x", "y"], w), pairs)
        d01, d10 = (block.entries for block in morphism_blocks(mf.D))
        found = []
        while len(d01) > 1:
            r = len(d01) // 2
            found.append((d01[r][0], -d01[0][r]))
            d01 = [row[:r] for row in d01[:r]]
            d10 = [row[:r] for row in d10[:r]]
        found.append((d01[0][0], d10[0][0]))
        assert found[::-1] == list(mf.pairs) == pairs
        checked += 1


def _squares_verdict(check, *args):
    try:
        check(*args)
    except FactorizationError as exc:
        return str(exc)
    return "pass"


def test_squares_check_and_koszul_terms_match_the_block_oracles():
    """On seeded random Koszul pairs in two variables, koszul_factorization's
    D equals the block-assembled oracle's blocks read into terms, and
    _check_squares (D o D on terms) gives the verdict and the message of the
    dense block-product oracle on: those blocks, which pass; the blocks with
    one entry nudged by a monomial, near-misses that must fail; random blocks
    of rank 1|1 to 2|2; and rank 1|2 blocks whose even summand is W but whose
    odd one is not."""
    rng = random.Random(22)
    ring = PolyRing(["x", "y"])
    tags = []
    checked = 0
    while checked < 150:
        pairs = [
            (_random_poly(ring, rng, max_degree=2), _random_poly(ring, rng, 2))
            for _ in range(rng.randint(1, 3))
        ]
        w = ring.zero()
        for a, b in pairs:
            w = w + a * b
        if w.is_constant():
            continue
        lg = make_lg_pair(["x", "y"], w)
        d01, d10 = oracle_koszul_blocks(ring, pairs)
        mf = koszul_factorization(lg, pairs)
        assert (mf.rank0, mf.rank1) == (d01.ncols, d01.nrows)
        assert mf.d_terms == MatrixFactorization(lg, d01, d10).d_terms
        blocks = [[list(row) for row in block.entries] for block in (d01, d10)]
        nudged = rng.choice(blocks)
        row = rng.choice(nudged)
        k = rng.randrange(len(row))
        row[k] = row[k] + ring.monomial(
            (rng.randint(0, 2), rng.randint(0, 2)), rng.choice([-2, -1, 1, 2])
        )
        r0, r1 = rng.randint(1, 2), rng.randint(1, 2)
        (a0, b0), (a1, b1) = pairs[0], rng.choice(pairs)
        candidates = [
            (lg, d01, d10),
            (lg, *(PolyMatrix(ring, block) for block in blocks)),
            (
                lg,
                PolyMatrix(ring, [[_random_poly(ring, rng, 2) for _ in range(r0)]
                                  for _ in range(r1)]),
                PolyMatrix(ring, [[_random_poly(ring, rng, 2) for _ in range(r1)]
                                  for _ in range(r0)]),
            ),
        ]
        if not (a0 * b0 + a1 * b1).is_constant():
            candidates.append((
                make_lg_pair(["x", "y"], a0 * b0 + a1 * b1),
                PolyMatrix(ring, [[a0], [a1]]),
                PolyMatrix(ring, [[b0, b1]]),
            ))
        for lg_k, c01, c10 in candidates:
            got = _squares_verdict(_check_squares, MatrixFactorization(lg_k, c01, c10))
            assert got == _squares_verdict(oracle_check_squares, lg_k, c01, c10)
            tags.append("pass" if got == "pass" else got.split()[6])
        checked += 1
    assert {tags.count(tag) > 10 for tag in ("pass", "even", "odd")} == {True}


# -- hom complexes ------------------------------------------------------------


def _elementary(hom, parity, element):
    """The morphism x^e E of one basis element, built block by block."""
    ring = hom.lg.ring
    (_, blk, i, j), exps = element
    if parity == 0:
        shapes = [(hom.a2.rank0, hom.a1.rank0), (hom.a2.rank1, hom.a1.rank1)]
    else:
        shapes = [(hom.a2.rank1, hom.a1.rank0), (hom.a2.rank0, hom.a1.rank1)]
    blocks = [[[ring.zero()] * ncols for _ in range(nrows)] for nrows, ncols in shapes]
    blocks[blk][i][j] = ring.monomial(exps)
    return Morphism(
        hom.a1, hom.a2, parity, PolyMatrix(ring, blocks[0]), PolyMatrix(ring, blocks[1])
    )


def _vectorize(morphism, index):
    return {index[element]: coeff for element, coeff in morphism.terms.items()}


def _check_columns_against_defect(hom):
    """Each column of the entries-built differential equals the defect of its
    basis element, vectorized; returns the number of columns compared."""
    complex_ = _defect_complex(hom.a1, hom.a2, hom.graded)
    if hom.graded:
        degrees = range(complex_.min_degree, hom.bound + 1)
    else:
        degrees = (hom.bound - 1, hom.bound)
    checked = 0
    for parity, degree in [(p, m) for m in degrees for p in (0, 1)]:
        source = complex_.basis(parity, degree)
        if not source:
            continue
        target = complex_.basis(1 - parity, degree + complex_.step)
        index = {element: row for row, element in enumerate(target)}
        columns = complex_.matrix(parity, degree).transpose().rows
        for element, column in zip(source, columns):
            image = _elementary(hom, parity, element).defect()
            assert column == _vectorize(image, index)
            checked += 1
    return checked


def test_hom_differential_columns_equal_defect_graded():
    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    branes = [
        koszul_factorization(lg, [("x", "x^3"), ("y", "y^3")]),
        koszul_factorization(lg, [("x^2", "x^2"), ("y", "y^3")]),
    ]
    for a in branes:
        for b in branes:
            hom = hom_cohomology(a, b)
            assert hom.graded
            assert _check_columns_against_defect(hom) > 100


def test_hom_differential_columns_equal_defect_windowed():
    lg = make_lg_pair(["x", "y"], "x^4+y^4+x*y^2")
    c = koszul_factorization(lg, [("x", "x^3+y^2"), ("y", "y^3")])
    hom = hom_cohomology(c, c)
    assert not hom.graded
    assert _check_columns_against_defect(hom) > 100


def test_hom_of_non_factorization_fails_closed():
    # D^2 = x^2 != W = x^3, so d^2 != 0 on the Hom complex; python -O must
    # not skip the check
    script = """
from lgtft.errors import InternalCheckError
from lgtft.lgpair import make_lg_pair
from lgtft.matfact import HomCohomology, MatrixFactorization
from lgtft.polymatrix import PolyMatrix
lg = make_lg_pair(["x"], "x^3")
x, x2 = lg.ring.parse("x"), lg.ring.parse("x^2")
bad = MatrixFactorization(lg, PolyMatrix(lg.ring, [[x]]), PolyMatrix(lg.ring, [[x]]))
good = MatrixFactorization(lg, PolyMatrix(lg.ring, [[x]]), PolyMatrix(lg.ring, [[x2]]))
try:
    hom = HomCohomology(bad, good, 6)
    print("dims", hom.dim(0), hom.dim(1))
except InternalCheckError:
    print("raised")
"""
    for flags, stdout in run_both_modes(script).items():
        assert stdout.split() == ["raised"], flags


def test_defect_of_identity_vanishes(lg_x3):
    a = koszul_factorization(lg_x3, [("x", "x^2")])
    assert Morphism.identity(a).defect().is_zero()


def test_defect_formula_odd_block(lg_x3):
    # odd f with only the P0 -> P1 block set: d(f) = (D o f, f o D) blocks
    a = koszul_factorization(lg_x3, [("x", "x^2")])
    f = Morphism(
        a, a, 1, _pm(lg_x3.ring, [["1"]]), _pm(lg_x3.ring, [["0"]])
    )
    df = f.defect()
    assert df.parity == 0
    blk0, blk1 = morphism_blocks(df)
    assert blk0.to_strings() == [["x^2"]]  # (D2 o f) block: D10 o f0
    assert blk1.to_strings() == [["x^2"]]  # (f o D1) block: f0 o D10


def test_square_zero_holds_for_koszul_brane_pair():
    lg = make_lg_pair(["x", "y"], "x^3+y^3")
    a = koszul_factorization(lg, [("x", "x^2"), ("y", "y^2")])
    b = koszul_factorization(lg, [("x^2", "x"), ("y", "y^2")])
    complex_ = _defect_complex(a, b, graded=True)  # checks d^2 = 0 on generators
    assert len(complex_.entries) == 2 * (2 * 2 + 2 * 2)


# -- cohomology ---------------------------------------------------------------


def test_end_dims_x2():
    lg = make_lg_pair(["x"], "x^2")
    a = koszul_factorization(lg, [("x", "x")])
    h = hom_cohomology(a, a)
    assert (h.dim(0), h.dim(1)) == (1, 1)
    assert h.graded and h.stabilized


def test_zero_object_cohomology():
    lg = make_lg_pair(["x"], "x^3")
    zero = make_factorization(
        lg, PolyMatrix(lg.ring, []), PolyMatrix(lg.ring, [])
    )
    a = koszul_factorization(lg, [("x", "x^2")])
    h = hom_cohomology(zero, a, degree_bound=6)
    assert h.total_dim == 0
    h2 = hom_cohomology(zero, zero, degree_bound=6)
    assert h2.total_dim == 0


def test_hom_dims_match_minimum_formula():
    # For W = x^n, dim Hom((x^p, ..), (x^q, ..)) = min(p, q, n-p, n-q) per parity
    for n in range(2, 7):
        lg = make_lg_pair(["x"], f"x^{n}")
        branes = {
            p: koszul_factorization(lg, [(f"x^{p}", f"x^{n - p}")])
            for p in range(1, n)
        }
        for p in range(1, n):
            for q in range(1, n):
                h = hom_cohomology(branes[p], branes[q])
                expected = min(p, q, n - p, n - q)
                assert (h.dim(0), h.dim(1)) == (expected, expected)


def test_dims_match_bruteforce_oracle_xn():
    for n in (3, 4, 5):
        lg = make_lg_pair(["x"], f"x^{n}")
        for p in range(1, n):
            for q in range(1, n):
                a = koszul_factorization(lg, [(f"x^{p}", f"x^{n - p}")])
                b = koszul_factorization(lg, [(f"x^{q}", f"x^{n - q}")])
                h = hom_cohomology(a, b)
                oracle = oracle_hom_dims(lg, a, b, h.bound)
                assert h.dims_by_degree(0) == oracle[0]
                assert h.dims_by_degree(1) == oracle[1]


# -- classes ------------------------------------------------------------------


def test_unit_class_nonzero(lg_x3):
    a = koszul_factorization(lg_x3, [("x", "x^2")])
    h = hom_cohomology(a, a)
    unit = h.class_of(Morphism.identity(a))
    assert not unit.is_zero()


def test_class_of_non_cocycle_rejected(lg_x3):
    a = koszul_factorization(lg_x3, [("x", "x^2")])
    h = hom_cohomology(a, a)
    bad = Morphism(
        a, a, 0, _pm(lg_x3.ring, [["x"]]), _pm(lg_x3.ring, [["0"]])
    )
    with pytest.raises(NonCocycleError):
        h.class_of(bad)


def test_class_bound_error(lg_x3):
    a = koszul_factorization(lg_x3, [("x", "x^2")])
    h = hom_cohomology(a, a, degree_bound=0)
    tau = Morphism(
        a, a, 1, _pm(lg_x3.ring, [["1"]]), _pm(lg_x3.ring, [["-x"]])
    )
    with pytest.raises(ClassBoundError):
        h.class_of(tau)


_CLASS_ERRORS_SCRIPT = """
from lgtft import matfact
from lgtft.errors import ClassBoundError, InternalCheckError, NonCocycleError
from lgtft.lgpair import make_lg_pair
from lgtft.polymatrix import PolyMatrix

lg = make_lg_pair(["x"], "x^3")
a = matfact.koszul_factorization(lg, [("x", "x^2")])
h = matfact.hom_cohomology(a, a, degree_bound=2)


def morphism(blk0, blk1):
    blocks = (PolyMatrix(lg.ring, [[lg.ring.parse(p)]]) for p in (blk0, blk1))
    return matfact.Morphism(a, a, 0, *blocks)


def outcome(call):
    try:
        call()
    except (ClassBoundError, InternalCheckError, NonCocycleError) as exc:
        return type(exc).__name__
    return "classified"


# (x, 0) has defect (x^2, 0): a non-cocycle inside the window, and (x^5, 0)
# one whose term lies above it; x^5 * id is a cocycle above it
for blocks in (("x", "0"), ("x^5", "0"), ("x^5", "x^5")):
    print(outcome(lambda: h.class_of(morphism(*blocks))))
# the unit's representative loses its first term: E on the odd block alone,
# which is no cocycle, so neither is its composite with itself
terms_of = matfact.HomCohomology.terms_of


def corrupted(self, parity, coords):
    terms = terms_of(self, parity, coords)
    del terms[min(terms)]
    return terms


matfact.HomCohomology.terms_of = corrupted
unit = h.class_of(matfact.Morphism.identity(a))
print(outcome(lambda: matfact.compose_classes(unit, unit, h)))
"""


def test_class_errors_fail_closed_under_optimize():
    """class_of raises NonCocycleError on a non-cocycle, also one with a term
    above the window, where the window alone would raise ClassBoundError.
    compose_classes raises InternalCheckError when a corrupted representative
    gives a composite that is no cocycle.  Plainly and under python -O."""
    for flags, stdout in run_both_modes(_CLASS_ERRORS_SCRIPT).items():
        assert stdout.split() == [
            "NonCocycleError",
            "NonCocycleError",
            "ClassBoundError",
            "InternalCheckError",
        ], flags


def test_unit_law_and_coboundary_composition(lg_x3):
    a = koszul_factorization(lg_x3, [("x", "x^2")])
    # wide window so compositions with degree-4 coboundaries stay inside
    h = hom_cohomology(a, a, degree_bound=24)
    unit = h.class_of(Morphism.identity(a))
    for cls in h.basis_classes(0) + h.basis_classes(1):
        assert compose_classes(unit, cls, h) == cls
        assert compose_classes(cls, unit, h) == cls
    # composing with a coboundary yields the zero class
    tau = h.basis_classes(1)[0]
    rng = random.Random(5)
    for _ in range(10):
        boundary = _random_morphism(lg_x3, a, a, rng, parity=1).defect()
        composed = tau.representative.compose(boundary)
        assert h.class_of(composed).is_zero()


def test_parity_additivity(lg_x3):
    a = koszul_factorization(lg_x3, [("x", "x^2")])
    h = hom_cohomology(a, a)
    even = h.basis_classes(0)[0]
    odd = h.basis_classes(1)[0]
    assert compose_classes(odd, even, h).parity == 1
    assert compose_classes(odd, odd, h).parity == 0


def test_object_mismatch_rejected(lg_x3):
    a = koszul_factorization(lg_x3, [("x", "x^2")])
    b = koszul_factorization(lg_x3, [("x^2", "x")])
    ha = hom_cohomology(a, a)
    hb = hom_cohomology(b, b)
    with pytest.raises(ValidationError):
        compose_classes(hb.basis_classes(0)[0], ha.basis_classes(0)[0], ha)


def test_jacobi_ideal_annihilates_cohomology():
    lg = make_lg_pair(["x", "y"], "x^3+y^3")
    a = koszul_factorization(lg, [("x", "x^2"), ("y", "y^2")])
    h = hom_cohomology(a, a)
    for k in range(lg.dimension):
        partial = lg.w.partial_derivative(k)
        for cls in h.basis_classes(0) + h.basis_classes(1):
            scaled = cls.representative.scale(partial)
            assert h.class_of(scaled).is_zero()


def test_ungraded_mode_dims_and_flag():
    lg = make_lg_pair(["x"], "x^2 + x^3")
    assert lg.weights is None
    a = koszul_factorization(lg, [("x", "x + x^2")])
    h = hom_cohomology(a, a)
    assert not h.graded
    assert h.stabilized
    # the brane wraps only the critical point at 0 (an A1 point): dims (1, 1)
    assert (h.dim(0), h.dim(1)) == (1, 1)


# -- randomized property suites ----------------------------------------------


def _random_poly(ring, rng, max_degree=4):
    terms = {}
    nvars = ring.nvars
    for _ in range(rng.randint(1, 4)):
        exps = [0] * nvars
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = rng.randint(-3, 3)
    return ring.from_terms(terms)


def _random_morphism(lg, a, b, rng, parity=None):
    if parity is None:
        parity = rng.randint(0, 1)
    if parity == 0:
        shape0 = (b.rank0, a.rank0)
        shape1 = (b.rank1, a.rank1)
    else:
        shape0 = (b.rank1, a.rank0)
        shape1 = (b.rank0, a.rank1)
    ring = lg.ring

    def block(shape):
        return PolyMatrix(
            ring,
            [
                [_random_poly(ring, rng) for _ in range(shape[1])]
                for _ in range(shape[0])
            ],
        )

    return Morphism(a, b, parity, block(shape0), block(shape1))


def _random_objects(rng):
    """Random Koszul-type factorization over a random small W, d <= 2."""
    nvars = rng.randint(1, 2)
    ring_vars = ["x", "y"][:nvars]
    from lgtft.poly import PolyRing

    ring = PolyRing(ring_vars)
    pairs = []
    w = ring.zero()
    for _ in range(rng.randint(1, 2)):
        a = _random_poly(ring, rng, max_degree=2)
        b = _random_poly(ring, rng, max_degree=2)
        pairs.append((a, b))
        w = w + a * b
    if w.is_constant():
        return None
    lg = make_lg_pair(ring_vars, w)
    return lg, koszul_factorization(lg, pairs)


def test_randomized_d_square_and_factorization_suite():
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        made = _random_objects(rng)
        if made is None:
            continue
        lg, mf = made  # koszul_factorization asserts D^2 = W Id exactly
        f = _random_morphism(lg, mf, mf, rng)
        assert f.defect().defect().is_zero()
        checked += 1


def test_randomized_leibniz_suite():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        made = _random_objects(rng)
        if made is None:
            continue
        lg, mf = made
        f = _random_morphism(lg, mf, mf, rng)
        g = _random_morphism(lg, mf, mf, rng)
        sign = -1 if g.parity else 1
        left = g.compose(f).defect()
        right = g.defect().compose(f) + g.compose(f.defect()).scale(sign)
        assert left == right
        checked += 1


def test_terms_arithmetic_matches_the_block_oracle():
    """Morphism's arithmetic on terms equals the block oracle (blocks rebuilt
    from the terms, multiplied with PolyMatrix.matmul) on seeded random
    morphisms between the branes of every reference job: +, -, scale by a
    polynomial and by a scalar, compose, defect, supertrace and d_partial.
    Scaling by a polynomial of another ring raises RingMismatchError, and by
    a float TypeError."""
    rng = random.Random(20)
    checked = 0
    for _, raw in sorted(REFERENCE_JOBS.items()):
        lg = make_lg_pair(raw["variables"], raw["superpotential"])
        branes = [koszul_factorization(lg, brane["pairs"]) for brane in raw["branes"]]
        for a in branes:
            for k in range(lg.ring.nvars):
                assert Morphism.d_partial(a, k) == oracle_d_partial(a, k)
            for parity in (0, 1):
                endo = _random_morphism(lg, a, a, rng, parity)
                assert endo.supertrace() == oracle_supertrace(endo)
            for b in branes:
                f = _random_morphism(lg, a, b, rng)
                other = _random_morphism(lg, a, b, rng, parity=f.parity)
                factor = _random_poly(lg.ring, rng, max_degree=2)
                assert f + other == oracle_add(f, other)
                assert f - other == oracle_add(f, oracle_scale(other, -1))
                assert f.scale(factor) == oracle_scale(f, factor)
                assert f.scale(GaussianRational(2, -1)) == oracle_scale(
                    f, GaussianRational(2, -1)
                )
                assert f.defect() == oracle_defect(f)
                for c in branes:
                    g = _random_morphism(lg, b, c, rng)
                    assert g.compose(f) == oracle_compose(g, f)
                    checked += 1
    assert checked > 0
    lg = make_lg_pair(["x"], "x^3")
    a = koszul_factorization(lg, [("x", "x^2")])
    with pytest.raises(RingMismatchError):
        Morphism.identity(a).scale(make_lg_pair(["y"], "y^3").ring.parse("y"))
    with pytest.raises(TypeError):
        Morphism.identity(a).scale(0.5)


def test_randomized_representative_independence():
    rng = random.Random(321)
    lg = make_lg_pair(["x"], "x^4")
    a = koszul_factorization(lg, [("x", "x^3")])
    b = koszul_factorization(lg, [("x^2", "x^2")])
    hab = hom_cohomology(a, b)
    hba = hom_cohomology(b, a)
    haa = hom_cohomology(a, a)
    classes_ab = hab.basis_classes(0) + hab.basis_classes(1)
    classes_ba = hba.basis_classes(0) + hba.basis_classes(1)
    checked = 0
    while checked < 200:
        f = rng.choice(classes_ab)
        g = rng.choice(classes_ba)
        perturbation = _random_morphism(lg, a, b, rng, parity=1 - f.parity)
        perturbed = f.representative + perturbation.defect()
        base = compose_classes(g, f, haa)
        other = haa.class_of(g.representative.compose(perturbed))
        assert base == other
        checked += 1


def test_hom_image_inserts_only_pivot_columns(monkeypatch):
    """The 4 Hom pairs of two rank-2|2 branes on x^4+y^4: no differential is
    eliminated twice, and the image in a piece is the RREF of the pivot
    columns of the map into it, so its elimination gets rank(map) rows.  A
    piece with no class is not built, so it gets no image or quotient
    elimination at all.  Every class lies in degree 4 or below, and the
    model (one forward pass per block of the target's model, two per Hom)
    says in which degrees: only those 17 pieces are built, so no
    differential outside their maps out and in is eliminated.
    The model check adds one forward pass per parity."""
    from lgtft import complex as complex_module
    from lgtft.certificate import KoszulModel
    from lgtft.complex import FreeComplex
    from lgtft.linalg import SparseMatrix

    matrix, transpose = FreeComplex.matrix, SparseMatrix.transpose
    rref_rows = SparseMatrix._rref_rows
    quotient, model_init = complex_module.quotient, KoszulModel.__init__
    certificate_ranks = []
    complexes = {}  # id -> complex
    quotient_dims = []  # dim ker - rank in, at each quotient call
    made = {}  # id -> (differential, (complex id, index, degree))
    columns = {}  # id -> (column of a differential, its key)
    ranks = {}  # key -> rank, at the one elimination of that differential
    images = []  # (keys of the columns eliminated, number of rows)
    calls = []

    def recording_matrix(self, index, degree):
        out = matrix(self, index, degree)
        made[id(out)] = (out, (id(self), index, degree))
        complexes[id(self)] = self
        return out

    def recording_quotient(kernel, image):
        quotient_dims.append(len(kernel) - len(image[0]))
        return quotient(kernel, image)

    def recording_model(self, ideal, vacuum, target):
        model_init(self, ideal, vacuum, target)
        certificate_ranks.extend(self.blocks)

    def recording_transpose(self):
        out = transpose(self)
        if id(self) in made:
            for row in out.rows:
                columns[id(row)] = (row, made[id(self)][1])
        return out

    def counting_rref(self, *args, **kwargs):
        result = rref_rows(self, *args, **kwargs)
        calls.append(self)
        if id(self) in made:
            key = made[id(self)][1]
            assert key not in ranks, "a differential was eliminated twice"
            ranks[key] = len(result[0])
        elif self.rows and all(id(row) in columns for row in self.rows):
            keys = {columns[id(row)][1] for row in self.rows}
            images.append((keys, self.nrows))
        return result

    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    a = koszul_factorization(lg, [("x", "x^3"), ("y", "y^3")])
    b = koszul_factorization(lg, [("x^2", "x^2"), ("y", "y^3")])
    monkeypatch.setattr(FreeComplex, "matrix", recording_matrix)
    monkeypatch.setattr(SparseMatrix, "transpose", recording_transpose)
    monkeypatch.setattr(SparseMatrix, "_rref_rows", counting_rref)
    monkeypatch.setattr(complex_module, "quotient", recording_quotient)
    monkeypatch.setattr(KoszulModel, "__init__", recording_model)
    dims = [
        (hom.dim(0), hom.dim(1))
        for hom in (hom_cohomology(s, t) for s in (a, b) for t in (a, b))
    ]
    assert dims == [(2, 2), (2, 2), (2, 2), (4, 4)]
    assert images
    for keys, nrows in images:
        (key,) = keys
        assert nrows == ranks[key]
    # 29 differentials, the nonempty maps out of and into the 17 pieces that
    # hold a class; 14 images, 17 quotients, 8 certificate ranks and 8 model
    # checks, one elimination each
    assert len(ranks) == 29
    assert len(images) == 14
    assert len(quotient_dims) == 17
    assert len(certificate_ranks) == 8
    assert all(sum(c is block for c in calls) == 1 for block in certificate_ranks)
    assert len(calls) == 76
    assert max(degree for _, _, degree in ranks) == 4
    assert all(dim > 0 for dim in quotient_dims)
    monkeypatch.undo()  # dim() below may eliminate again
    for keys, _ in images:
        ((cid, index, degree),) = keys
        complex_ = complexes[cid]
        piece = (complex_.successor[index], degree + complex_.step)
        assert complex_.dim(*piece) > 0


# brane lists whose Hom spaces are checked against the full elimination
FULL_ELIMINATION_CASES = {
    "baseline": (
        "x^4+y^4",
        [[("x", "x^3"), ("y", "y^3")], [("x^2", "x^2"), ("y", "y^3")]],
    ),
    "spinor": ("x^2+y^2", [[("x + i*y", "x - i*y")], [("x - i*y", "x + i*y")]]),
    "windowed": ("x^4+y^4+x*y^2", [[("x", "x^3+y^2"), ("y", "y^3")]]),
    "x5y": ("x^5*y+y^6", [[("y", "x^5+y^5")]]),
}


@pytest.mark.parametrize("case", sorted(FULL_ELIMINATION_CASES))
def test_hom_matches_full_elimination(case):
    """A graded Hom builds only the pieces that hold classes, in ascending
    degree: where its model counts them when its dimensions are certified
    (baseline), where the ranks of the maps out and in leave them otherwise
    (spinor, x5y).  The windowed Hom builds its one-piece window; it is
    taken on the d01/d10 twin of the brane, as a Koszul source lifts its
    classes from X/(c)X and builds no window.  Every Hom space still has
    the quotient rows, representatives and class coordinates that
    eliminating every piece of the window in full gives, and a coboundary
    d(h) has the zero class, also when its terms lie in acyclic pieces or
    in unbuilt degrees, below the last class or above it."""
    w, pairs = FULL_ELIMINATION_CASES[case]
    lg = make_lg_pair(["x", "y"], w)
    branes = [koszul_factorization(lg, brane) for brane in pairs]
    if case == "windowed":
        branes = [_twin(brane) for brane in branes]
    homs = {(s, t): hom_cohomology(a, b) for s, a in enumerate(branes)
            for t, b in enumerate(branes)}
    full = {key: full_hom_pieces(hom) for key, hom in homs.items()}
    acyclic_coboundaries = unbuilt_below = 0
    for key, hom in homs.items():
        assert (hom.certified is not None) == (case == "baseline")
        if hom.graded:  # built at the class degrees only, in ascending degree
            assert list(hom.pieces) == [
                k for k, (_, quot) in full[key].items() if quot[1]
            ]
            assert len(hom.pieces) < len(full[key])
        else:
            assert hom.pieces.keys() == full[key].keys()
        last = max((m for _, m in hom.pieces), default=None)
        for parity in (0, 1):
            assert hom.dim(parity) == sum(
                len(quot[1]) for (p, _), (_, quot) in full[key].items()
                if p == parity
            )
        complex_ = _defect_complex(hom.a1, hom.a2, hom.graded)
        for parity, m in full[key]:  # built pieces and unbuilt degrees alike
            piece = hom.pieces.get((parity, m))
            basis = complex_.basis(parity, m) if piece is None else piece.basis
            for element in basis:
                h = _elementary(hom, parity, element)
                boundary = h.defect()
                try:
                    degrees = hom._split(boundary.parity, boundary.terms)
                except ClassBoundError:
                    continue  # d(h) leaves the computed window
                assert hom.class_of(boundary).is_zero()
                assert not any(full_class_coords(hom, full[key], boundary))
                acyclic_coboundaries += bool(degrees) and all(
                    (1 - parity, n) not in hom.pieces  # an unbuilt degree
                    or not hom.pieces[1 - parity, n].quot[1]
                    for n in degrees
                )
                unbuilt_below += hom.graded and any(
                    (1 - parity, n) not in hom.pieces and n < last for n in degrees
                )
    if case != "windowed":  # the window is one piece, and it has classes
        assert acyclic_coboundaries > 0
    # a spinor Hom's one class lies in its lowest degree, 0: nothing below
    assert (unbuilt_below > 0) == (case in ("baseline", "x5y"))
    for (s, t), f_hom in homs.items():
        for u in range(len(branes)):
            target = homs[s, u]
            for f in f_hom.basis_classes(0) + f_hom.basis_classes(1):
                for g in homs[t, u].basis_classes(0) + homs[t, u].basis_classes(1):
                    composite = g.representative.compose(f.representative)
                    assert list(target.class_of(composite).coords) == (
                        full_class_coords(target, full[s, u], composite)
                    )
    for key, hom in homs.items():
        for (parity, m), piece in hom.pieces.items():
            _, quot = full[key][parity, m]
            assert piece.quot == quot
        for parity in (0, 1):
            for (m, local), cls in zip(
                hom.layout[parity], hom.basis_classes(parity)
            ):
                row = full[key][parity, m][1][1][local]
                basis = hom.pieces[parity, m].basis
                assert cls.representative.terms == {
                    basis[col]: coeff for col, coeff in row.items()
                }


# Koszul branes whose Homs out of a Koszul source have certified dimensions;
# x^4+y^4+x*y^2 and x^5+y^5+x^2*y^2 are not quasi-homogeneous, so their Homs
# are windowed
CERTIFIED_CASES = {
    "x^4+y^4": FULL_ELIMINATION_CASES["baseline"][1],
    "x^4+y^4+x*y^2": FULL_ELIMINATION_CASES["windowed"][1],
    "x^3+y^3": [[("x", "x^2"), ("y", "y^2")], [("x+y", "x^2-x*y+y^2")]],
    "x^5+y^5": [[("x", "x^4"), ("y", "y^4")], [("x^2", "x^3"), ("y^2", "y^3")]],
    "x^6+y^6": [[("x^2", "x^4"), ("y^3", "y^3")], [("x^3", "x^3"), ("y", "y^5")]],
    "x^5+y^5+x^2*y^2": [
        [("x", "x^4+x*y^2"), ("y", "y^4")],
        [("y", "y^4+x^2*y"), ("x", "x^4")],
    ],
    "x^3+x*y^2": [[("x", "x^2"), ("x", "y^2")]],
    "x^3*y+x*y^3": [
        [("x*y", "x^2"), ("x", "y^3")],
        [("x*y", "x^2"), ("y^3", "x")],
        [("x^2", "x*y"), ("x", "y^3")],
    ],
}

# (W, brane index) -> (the choice of c, 0 for a_k and 1 for b_k; the vacuum)
# where the vacuum is not the first even generator
_VACUA = {
    ("x^3+x*y^2", 0): ((0, 1), (1, 1)),
    ("x^3*y+x*y^3", 0): ((1, 1), (0, 1)),
    ("x^3*y+x*y^3", 1): ((1, 0), (1, 0)),
    ("x^3*y+x*y^3", 2): ((0, 1), (1, 1)),
}


def _twin(brane):
    """The same blocks through make_factorization: no pairs, no certificate,
    so its Homs count their classes off the ranks."""
    return make_factorization(brane.lg, *morphism_blocks(brane.D))


def test_certified_dims_match_the_full_window():
    """koszul_hom_dims equals the dimensions of the full, stabilized window on
    every Hom with a Koszul source.  On every graded one, the model's counts
    per degree equal the full window's dims_by_degree, the Hom builds
    exactly the pieces at those degrees, and it reports the full window's
    dims, by_degree, bound and stabilized flag, with the model check
    passing.  When the bound cuts off a class (End(A) on x^5+y^5 at bounds
    0, 2 and 5), the model's counts at or below the bound are the window's,
    the Hom builds the pieces at those degrees, and it reports that window's
    dims with stabilized False."""
    checked = []
    for w, pairs in CERTIFIED_CASES.items():
        lg = make_lg_pair(["x", "y"], w)
        branes = [koszul_factorization(lg, brane) for brane in pairs]
        for a in branes:
            for b in branes:
                certified = koszul_hom_dims(a, b)
                if len(a.pairs) == 1:  # one pair in two variables
                    assert certified is None
                    continue
                full = hom_cohomology(_twin(a), _twin(b))
                assert full.certified is None and full.stabilized
                assert certified == (full.dim(0), full.dim(1))
                assert certified[0] == certified[1]
                hom = hom_cohomology(a, b)
                assert hom.certified == (certified if hom.graded else None)
                assert hom.layout == full.layout
                assert (hom.bound, hom.stabilized) == (full.bound, full.stabilized)
                if hom.graded:
                    by_degree = {
                        (parity, m): count
                        for parity in (0, 1)
                        for m, count in full.dims_by_degree(parity).items()
                    }
                    assert hom._model_counts() == by_degree
                    assert hom.pieces.keys() == by_degree.keys()
                checked.append(w)
    assert len(checked) == 29
    lg = make_lg_pair(["x", "y"], "x^5+y^5")
    a = koszul_factorization(lg, CERTIFIED_CASES["x^5+y^5"][0])
    for bound, dims in ((0, (1, 0)), (2, (1, 0)), (5, (1, 2))):
        hom = hom_cohomology(a, a, degree_bound=bound)
        full = hom_cohomology(_twin(a), _twin(a), degree_bound=bound)
        by_degree = {
            (parity, m): count
            for parity in (0, 1)
            for m, count in full.dims_by_degree(parity).items()
        }
        assert hom.certified == (2, 2) and hom._model_counts() == by_degree
        assert (hom.dim(0), hom.dim(1), hom.stabilized) == (*dims, False)
        assert hom.layout == full.layout
        assert hom.pieces.keys() == full.pieces.keys()


def test_vacuum_follows_the_choice_of_c():
    """The vacuum is the first even generator on every graded Hom of the
    older cases, and moves with the choice of c on the branes of x^3+x*y^2
    and x^3*y+x*y^3; every Hom built here passes the model check."""
    seen = {}
    for w, pairs in CERTIFIED_CASES.items():
        lg = make_lg_pair(["x", "y"], w)
        branes = [koszul_factorization(lg, brane) for brane in pairs]
        for k, a in enumerate(branes):
            for b in branes:
                hom = hom_cohomology(a, b)
                if not hom.graded or hom.certified is None:
                    continue
                _, choice, _ = a._ideal
                model = koszul_model(a, b)
                seen[w, k] = (choice, model.vacuum)
                assert model.vacuum == _vacuum(choice)
    assert {key: found for key, found in seen.items() if found[1] != (0, 0)} == _VACUA
    assert len(seen) == 11


def test_certificate_needs_a_finite_colength_choice_per_variable():
    # one pair in two variables: (y) and (x^5+y^5) have infinite colength
    lg = make_lg_pair(["x", "y"], "x^5*y+y^6")
    brane = koszul_factorization(lg, [("y", "x^5+y^5")])
    assert koszul_hom_dims(brane, brane) is None
    # two pairs, but every choice of c lies in the ideal (x)
    lg = make_lg_pair(["x", "y"], "x^2*y+x^2*y^2")
    brane = koszul_factorization(lg, [("x", "x*y"), ("x", "x*y^2")])
    assert koszul_hom_dims(brane, brane) is None
    # two pairs in one variable: c = (x, x) has finite colength, but it is not
    # a regular sequence
    lg = make_lg_pair(["x"], "x^2")
    brane = koszul_factorization(lg, [("x", "x"), ("x", "-x+x")])
    assert koszul_hom_dims(brane, brane) is None
    assert hom_cohomology(brane, brane).certified is None
    # a d01/d10 brane records no pairs
    assert koszul_hom_dims(_twin(brane), brane) is None


def test_short_window_is_not_stabilized():
    """A window whose bound cuts off certified classes is not stabilized.  No
    class lies in the top two degrees of these windows (or the bound is 0),
    which is all the window alone can test, so it used to report them as
    stabilized and brane_hom_finiteness passed a short table."""
    lg = make_lg_pair(["x", "y"], "x^5+y^5")
    a = koszul_factorization(lg, [("x", "x^4"), ("y", "y^4")])
    for bound, dims in ((0, (1, 0)), (2, (1, 0)), (5, (1, 2))):
        hom = hom_cohomology(a, a, degree_bound=bound)
        assert hom.certified == (2, 2)
        assert (hom.dim(0), hom.dim(1)) == dims
        assert not hom.stabilized
    assert hom_cohomology(a, a).stabilized
    assert not BraneCategory(lg, [("A", a)], degree_bound=2).hom_finite()


def test_an_uncertified_hom_at_bound_0_is_not_stabilized():
    """Without a certificate, degree 0 is a top degree at bound 0: End of the
    d01/d10 twin of (x^3, x^3)(y^3, y^3) on x^6+y^6 holds 2|2 classes in
    degree 0 of its 18|18, so it is not stabilized there, as at bound 1.
    The test of the top degrees used to be empty at bound 0, which reported
    it stabilized.  The certified brane's own End is unchanged."""
    lg = make_lg_pair(["x", "y"], "x^6+y^6")
    brane = koszul_factorization(lg, [("x^3", "x^3"), ("y^3", "y^3")])
    twin = _twin(brane)
    for bound in (0, 1):
        hom = hom_cohomology(twin, twin, degree_bound=bound)
        assert hom.certified is None
        assert (hom.dim(0), hom.dim(1), hom.stabilized) == (2, 2, False)
    hom = hom_cohomology(brane, brane, degree_bound=0)
    assert hom.certified == (18, 18)
    assert (hom.dim(0), hom.dim(1), hom.stabilized) == (2, 2, False)
    assert hom_cohomology(twin, twin).stabilized


def test_a_cut_certified_hom_forward_passes_only_its_pieces(monkeypatch):
    """A certified graded Hom whose bound cuts off a class takes the model's
    counts at or below the bound, as one whose bound holds every class does:
    End(A) on x^5+y^5 at bounds 0, 2 and 5, each on a fresh brane, runs 3, 3
    and 6 forward passes: the model's two blocks, and those of the one or
    two pieces it builds.  Counting every degree up to the bound off the
    ranks instead ran 8, 10 and 14."""
    from lgtft.linalg import SparseMatrix

    echelon, calls = SparseMatrix.echelon, []

    def counting(self):
        calls.append(self)
        return echelon(self)

    monkeypatch.setattr(SparseMatrix, "echelon", counting)
    lg = make_lg_pair(["x", "y"], "x^5+y^5")
    found = []
    for bound in (0, 2, 5):
        a = koszul_factorization(lg, CERTIFIED_CASES["x^5+y^5"][0])
        del calls[:]
        hom_cohomology(a, a, degree_bound=bound)
        found.append(len(calls))
    assert found == [3, 3, 6]


_WINDOWED_OVERCOUNT_SCRIPT = """
from lgtft.lgpair import make_lg_pair
from lgtft.certificate import koszul_hom_dims
from lgtft.matfact import hom_cohomology, koszul_factorization

lg = make_lg_pair(["x", "y"], "x^5+y^5+x^2*y^2")
a = koszul_factorization(lg, [("x^2", "x^3+y^2"), ("y", "y^4")])
hom = hom_cohomology(a, a)
print(koszul_hom_dims(a, a), hom.graded, hom.certified, hom.bound)
print(hom.dim(0), hom.dim(1), hom.stabilized)
"""


def test_windowed_overcount_end_has_its_certified_classes():
    """End((x^2, x^3+y^2)(y, y^4)) on the non-quasi-homogeneous
    x^5+y^5+x^2*y^2 has 4|4 classes.  Its window at bound 12 counted 12|12,
    reported as not stabilized; lifted from X/(c)X, the Hom has its 4|4
    classes and is stabilized, plainly and under python -O."""
    for flags, stdout in run_both_modes(_WINDOWED_OVERCOUNT_SCRIPT).items():
        assert stdout.split() == [
            "(4,", "4)", "False", "None", "12", "4", "4", "True",
        ], flags


def _windowed_homs():
    """name -> (source, target) of two windowed Homs that build their
    windows: End of the d01/d10 twins of C on x^4+y^4+x*y^2 and of E of the
    windowed_overcount job on x^5+y^5+x^2*y^2.  The twins have no
    certificate; C and E themselves lift their classes from X/(c)X."""
    lg = make_lg_pair(["x", "y"], "x^4+y^4+x*y^2")
    c = _twin(koszul_factorization(lg, FULL_ELIMINATION_CASES["windowed"][1][0]))
    raw = REFERENCE_JOBS["windowed_overcount"]
    lg = make_lg_pair(raw["variables"], raw["superpotential"])
    e = _twin(koszul_factorization(lg, raw["branes"][0]["pairs"]))
    return {"C twin": (c, c), "E twin": (e, e)}


def test_windowed_stabilized_matches_the_piece_count():
    """A windowed Hom counts the classes of the window below its bound off
    the ranks there (FreeComplex.dim), with no piece built.  At every bound
    from 0 to the default, on two windowed Homs, its dims are the window's
    quotient rows and its stabilized flag is the one read off the quotient
    rows of the window below, each piece eliminated in full (oracles): it
    is stabilized from the first bound where the last two windows agree."""
    unstabilized = []
    for name, (a, b) in _windowed_homs().items():
        default = hom_cohomology(a, b)
        complex_ = _defect_complex(a, b, False)
        counts = [window_class_counts(complex_, n) for n in range(default.bound + 1)]
        assert koszul_hom_dims(a, b) is None
        for bound in range(default.bound + 1):
            hom = hom_cohomology(a, b, degree_bound=bound)
            assert not hom.graded and hom.bound == bound
            assert (hom.dim(0), hom.dim(1)) == counts[bound]
            below = counts[bound - 1] if bound else None
            assert hom.stabilized == piece_count_stabilized(hom, below)
            if not hom.stabilized:
                unstabilized.append((name, bound))
    assert unstabilized == (
        [("C twin", n) for n in range(7)] + [("E twin", n) for n in range(9)]
    )


def test_windowed_pieces_match_the_basis_order_route():
    """Every windowed piece read off the one degree-order pass per index
    equals the one read off basis-order passes made at the piece itself
    (oracles): the same basis, image pivots and quotient rows.  This holds
    for the pieces each Hom keeps, at its bound, on the windowed Homs of
    _windowed_homs and between the d01/d10 twins of windowed_all's branes,
    and for every window below the bound, read off the passes made at the
    bound."""
    raw = REFERENCE_JOBS["windowed_all"]
    lg = make_lg_pair(raw["variables"], raw["superpotential"])
    branes = [
        _twin(koszul_factorization(lg, brane["pairs"])) for brane in raw["branes"]
    ]
    homs = _windowed_homs()
    cases = [homs["C twin"], homs["E twin"]] + [(a, b) for a in branes for b in branes]
    for a, b in cases:
        hom = hom_cohomology(a, b)
        complex_ = _defect_complex(a, b, False)
        oracle = _defect_complex(a, b, False)
        for parity in (0, 1):
            complex_.map_out(parity, hom.bound)
        for n in range(hom.bound, -1, -1):
            for parity in (0, 1):
                basis, image, quot = basis_order_piece(oracle, parity, n)
                found = complex_.piece(parity, n)
                assert (found[0], found[1][0], found[2]) == (basis, image[0], quot)
                if n == hom.bound:
                    kept = hom.pieces[(parity, 0)]
                    assert (kept.basis, kept.im[0], kept.quot) == (basis, image[0], quot)


def test_windowed_end_builds_two_maps_and_eliminates_each_once(monkeypatch):
    """End of the d01/d10 twin of C on x^4+y^4+x*y^2 (bound 9, step 3),
    which has no certificate, builds the two maps out of its window and
    forward-passes each once, columns in degree order.  The pieces, the
    ranks of window 8 that stabilized reads and those of window 5 are all
    read off these two passes, so no map is cut at window 8; the maps in
    (window 6) are cut, for their rows in the pieces' layout.  Add one
    image forward pass per parity: 4 forward passes.  The only reductions
    are the two quotients' kernels."""
    from lgtft.complex import FreeComplex
    from lgtft.linalg import SparseMatrix

    c, _ = _windowed_homs()["C twin"]
    matrix, cut, make_pass = FreeComplex.matrix, FreeComplex._cut, FreeComplex._pass
    rref_rows = SparseMatrix._rref_rows
    built, cuts, passes, reduced = [], [], [], []

    def recording_matrix(self, index, degree):
        built.append((index, degree))
        return matrix(self, index, degree)

    def recording_cut(self, index, degree, *larger):
        cuts.append((index, degree))
        return cut(self, index, degree, *larger)

    def recording_pass(self, index, degree):
        kept = dict(self._passes)
        found = make_pass(self, index, degree)
        if kept.get(index) is not found:
            passes.append((index, found.window))
        return found

    def counting_rref(self, reduce=True):
        reduced.append(reduce)
        return rref_rows(self, reduce)

    monkeypatch.setattr(FreeComplex, "matrix", recording_matrix)
    monkeypatch.setattr(FreeComplex, "_cut", recording_cut)
    monkeypatch.setattr(FreeComplex, "_pass", recording_pass)
    monkeypatch.setattr(SparseMatrix, "_rref_rows", counting_rref)
    hom = hom_cohomology(c, c)
    assert (hom.bound, hom.dim(0), hom.dim(1), hom.stabilized) == (9, 2, 2, True)
    assert built == [(0, 9), (1, 9)]
    assert cuts == [(1, 6), (0, 6)]
    assert passes == [(0, 9), (1, 9)]
    assert reduced.count(True) == 2
    assert reduced.count(False) == 4


# the reference jobs whose windowed Homs out of Koszul branes are lifted
LIFTED_JOBS = (
    "windowed_all", "windowed_cardy", "windowed_n3", "windowed_noncoprime",
    "windowed_overcount",
)


def test_lifted_windowed_homs_build_no_window(monkeypatch):
    """Every windowed Hom between the branes of the LIFTED_JOBS has a model
    X/(c)X, and lifts its classes from it: it builds no map out of a piece
    (FreeComplex.map_out, FreeComplex.matrix), has the certified dims, is
    stabilized and keeps no piece.  class_of and compose_classes read the
    projection, with no map built either: each basis class is the class of
    its representative, and every composite of basis classes is
    classified."""
    from lgtft.complex import FreeComplex

    calls = []
    for name in ("map_out", "matrix"):
        monkeypatch.setattr(
            FreeComplex, name, lambda self, *key, name=name: calls.append((name, key))
        )
    checked = 0
    for job in LIFTED_JOBS:
        raw = REFERENCE_JOBS[job]
        lg = make_lg_pair(raw["variables"], raw["superpotential"])
        branes = [koszul_factorization(lg, brane["pairs"]) for brane in raw["branes"]]
        homs = {(s, t): hom_cohomology(a, b)
                for s, a in enumerate(branes) for t, b in enumerate(branes)}
        for (s, t), hom in homs.items():
            assert not hom.graded and not hom.pieces and hom.stabilized
            assert (hom.dim(0), hom.dim(1)) == koszul_hom_dims(branes[s], branes[t])
            for f in hom.basis_classes(0) + hom.basis_classes(1):
                assert hom.class_of(f.representative) == f
                for u in range(len(branes)):
                    for g in homs[t, u].basis_classes(0) + homs[t, u].basis_classes(1):
                        composite = compose_classes(g, f, homs[s, u])
                        assert composite.parity == (f.parity + g.parity) % 2
            checked += 1
    assert checked == 13
    assert calls == []


_LIFT_CORRUPTION_SCRIPT = """
from lgtft import certificate
from lgtft.errors import InternalCheckError
from lgtft.lgpair import make_lg_pair
from lgtft.matfact import hom_cohomology, koszul_factorization


def outcome(w, pairs):
    lg = make_lg_pair(["x", "y"], w)
    brane = koszul_factorization(lg, pairs)
    try:
        hom_cohomology(brane, brane)
    except InternalCheckError as exc:
        return str(exc).replace(" ", "_")
    return "built"


# one term of each lifted representative, its first, gains 1
cocycle = certificate._Lift.cocycle


def corrupted_cocycle(self, parity, row):
    f = cocycle(self, parity, row)
    f[min(f)] += 1
    return f


certificate._Lift.cocycle = corrupted_cocycle
print(outcome("x^4+y^4+x*y^2", [("x", "x^3+y^2"), ("y", "y^3")]))
certificate._Lift.cocycle = cocycle
# the first cofactor of the first element of each prefix basis gains 1
prefix_basis = certificate._prefix_basis


def corrupted_prefix_basis(generators):
    basis = prefix_basis(generators)
    g, cofactors = basis[0]
    basis[0] = (g, [cofactors[0] + 1] + cofactors[1:])
    return basis


certificate._prefix_basis = corrupted_prefix_basis
print(outcome("(x+y)*x^3+(x-y)*(y^3+x*y)", [("x+y", "x^3"), ("x-y", "y^3+x*y")]))
"""


def test_a_corrupted_lift_fails_closed():
    """A lifted representative with one term changed is no cocycle, and the
    build raises InternalCheckError on the final d(f) = 0 test.  A prefix
    basis with one cofactor changed gives a wrong z at level 1, and the
    level-1 system of the brane with non-coprime leading monomials then has
    a right-hand side left over where it has no unknowns, which raises.
    Plainly and under python -O."""
    for flags, stdout in run_both_modes(_LIFT_CORRUPTION_SCRIPT).items():
        assert stdout.split() == [
            "a_class_lifted_from_X/(c)X_is_no_cocycle",
            "a_part_of_d(f)_in_the_lift_is_no_boundary_of_d_c",
        ], flags


def test_stopped_window_classes_match_the_full_window():
    """The baseline Homs stop at degree 4 or below.  Every composite of two
    basis classes, those landing in degrees 5 to 8 above the stop included,
    has the class coordinates the full window gives, and class_of builds no
    piece for them."""
    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    branes = [koszul_factorization(lg, b) for b in CERTIFIED_CASES["x^4+y^4"]]
    n = len(branes)
    homs = {(s, t): hom_cohomology(branes[s], branes[t])
            for s in range(n) for t in range(n)}
    fulls = {(s, t): hom_cohomology(_twin(branes[s]), _twin(branes[t]))
             for s in range(n) for t in range(n)}
    stops = {}
    for key, hom in homs.items():
        stops[key] = max(m for _, m in hom.pieces)
        assert stops[key] <= 4 < hom.bound
        assert hom.layout == fulls[key].layout
        for parity in (0, 1):
            for mine, theirs in zip(
                hom.basis_classes(parity), fulls[key].basis_classes(parity)
            ):
                assert mine.representative == theirs.representative
    above = 0
    for (s, t), f_hom in homs.items():
        for u in range(n):
            target, full = homs[s, u], fulls[s, u]
            for f in f_hom.basis_classes(0) + f_hom.basis_classes(1):
                for g in homs[t, u].basis_classes(0) + homs[t, u].basis_classes(1):
                    composite = g.representative.compose(f.representative)
                    degrees = full._split(composite.parity, composite.terms)
                    above += max(degrees, default=0) > stops[s, u]
                    assert target.class_of(composite) == MorphismClass(
                        target, composite.parity, full.class_of(composite).coords
                    )
    assert above > 0
    assert stops == {(0, 0): 4, (0, 1): 2, (1, 0): 4, (1, 1): 4}
    built = {key: max(m for _, m in hom.pieces) for key, hom in homs.items()}
    assert built == stops
    for key, hom in homs.items():
        assert hom.layout == fulls[key].layout


# the stage at which a certified Hom's build raised InternalCheckError: the
# second route over the model's blocks, a piece against the model's count in
# its degree, the model check, or the certified count
_STAGE = """
def stage(exc):
    text = str(exc)
    if "is not D_X mod (c)" in text:
        return "blocks"
    if "counts in its degree" in text:
        return "degree"
    return "model" if "X/(c)X" in text else "count"
"""


def test_low_certificate_fails_closed():
    """A certificate lowered by one per parity on the baseline Homs gives
    InternalCheckError, not a short table, plainly and under python -O.  The
    pieces are built at the model's degrees, and each holds the model's
    count there, so on both End(A) and Hom(B, A) the piece that brings a
    parity past the lowered count raises, before the model check.  The
    certificate is the model's count per parity, KoszulModel.classes, which
    the Hom reads off the one model it keeps."""
    script = _STAGE + """
from lgtft import certificate, matfact
from lgtft.errors import InternalCheckError
from lgtft.lgpair import make_lg_pair
lg = make_lg_pair(["x", "y"], "x^4+y^4")
a = matfact.koszul_factorization(lg, [("x", "x^3"), ("y", "y^3")])
b = matfact.koszul_factorization(lg, [("x^2", "x^2"), ("y", "y^3")])
classes = certificate.KoszulModel.classes
certificate.KoszulModel.classes = lambda model, t: classes(model, t) - 1
for source, target in ((a, a), (b, a)):
    try:
        matfact.hom_cohomology(source, target)
        print("built")
    except InternalCheckError as exc:
        print("raised", stage(exc))
"""
    for flags, stdout in run_both_modes(script).items():
        assert stdout.split() == ["raised", "count", "raised", "count"], flags


_DROPPED_CLASS_SCRIPT = """
from lgtft import matfact
from lgtft.complex import FreeComplex
from lgtft.errors import InternalCheckError
from lgtft.lgpair import make_lg_pair
from oracles import morphism_blocks
piece = FreeComplex.piece


def dropped(self, index, degree):
    basis, image, (pivot_cols, rows) = piece(self, index, degree)
    return basis, image, (pivot_cols[:-1], rows[:-1])


lg = make_lg_pair(["x", "y"], "x^5*y+y^6")
x5y = matfact.koszul_factorization(lg, [("y", "x^5+y^5")])
lg = make_lg_pair(["x", "y"], "x^3+y^3")
a = matfact.koszul_factorization(lg, [("x", "x^2"), ("y", "y^2")])
blocks = matfact.make_factorization(lg, *morphism_blocks(a.D))
for brane in (x5y, blocks):
    for corrupt in (False, True):
        FreeComplex.piece = dropped if corrupt else piece
        try:
            hom = matfact.hom_cohomology(brane, brane)
            print("built", hom.certified, len(hom.pieces), hom.dim(0), hom.dim(1))
        except InternalCheckError as exc:
            ranks = "the ranks out and in leave in its degree" in str(exc)
            print("raised", "ranks" if ranks else exc)
"""


def test_a_piece_short_of_its_rank_count_fails_closed():
    """An uncertified graded Hom builds a piece only where its size less the
    ranks of the maps out and in leaves classes, and requires the piece to
    hold that many.  With piece() made to drop its last class, the End of
    x^5*y+y^6's brane and the End of a brane given by its blocks, with no
    pairs, raise InternalCheckError naming those ranks, plainly and under
    python -O.  Intact, they build 5 and 3 pieces."""
    for flags, stdout in run_both_modes(_DROPPED_CLASS_SCRIPT).items():
        assert stdout.splitlines() == [
            "built None 5 5 0", "raised ranks", "built None 3 2 2", "raised ranks",
        ], flags


_CORRUPTED_MODEL_SCRIPT = _STAGE + """
from lgtft import certificate, matfact
from lgtft.errors import InternalCheckError
from lgtft.lgpair import make_lg_pair
from lgtft.scalars import GaussianRational
lg = make_lg_pair(["x", "y"], "x^4+y^4")
pairs = {"A": [("x", "x^3"), ("y", "y^3")], "B": [("x^2", "x^2"), ("y", "y^3")]}
build, check_blocks = certificate.KoszulModel.__init__, certificate._check_blocks


def corrupted(self, ideal, vacuum, target):
    # as if the builder had read one entry of d01 mod (c) one column off
    build(self, ideal, vacuum, target)
    row = self.blocks[0].rows[1]
    row[1] = row.pop(0, GaussianRational(1))
    self.echelons = tuple(block.echelon() for block in self.blocks)


for check in (check_blocks, lambda model, target: None):
    certificate._check_blocks = check
    for source, target in (("B", "A"), ("A", "A")):
        for model in (build, corrupted):
            certificate.KoszulModel.__init__ = model
            a = matfact.koszul_factorization(lg, pairs[source])
            b = matfact.koszul_factorization(lg, pairs[target])
            try:
                hom = matfact.hom_cohomology(a, b)
                print("built", hom.dim(0), hom.dim(1))
            except InternalCheckError as exc:
                print("raised", stage(exc))
"""


def test_corrupted_model_entry_fails_closed():
    """One entry of D_X mod (c) moved by a column makes the Hom build raise
    InternalCheckError, plainly and under python -O.  _check_blocks, which
    reads the blocks again through the multiplication matrices of R/(c),
    raises first, on Hom(B, A) and on End(A).  With it switched off, the
    layers behind it still fail closed: on Hom(B, A) the even piece at
    degree 0 holds no class where the corrupted model counts one, and on
    End(A), whose model is zero, the count falls below the classes one piece
    holds.  The same builds pass with the model intact."""
    for flags, stdout in run_both_modes(_CORRUPTED_MODEL_SCRIPT).items():
        assert stdout.splitlines() == [
            "built 2 2", "raised blocks", "built 2 2", "raised blocks",
            "built 2 2", "raised degree", "built 2 2", "raised count",
        ], flags


_FLIPPED_MODEL_SCRIPT = _STAGE + """
from lgtft import certificate, matfact
from lgtft.errors import InternalCheckError
from lgtft.lgpair import make_lg_pair
from lgtft.scalars import GaussianRational
build = certificate.KoszulModel.__init__
# (W, source pairs, target pairs, (block, row, column) of the flipped entry)
cases = [
    ("x^4+y^4", [("x", "x^3"), ("y", "y^3")], [("x^2", "x^2"), ("y", "y^3")],
     (0, 1, 1)),
    ("x^3+y^3", [("x", "x^2"), ("y", "y^2")], [("x+y", "x^2-x*y+y^2")], (0, 0, 0)),
]
for w, source, target, (t, i, j) in cases:
    lg = make_lg_pair(["x", "y"], w)
    for flip in (False, True):
        def model(self, ideal, vacuum, brane):
            build(self, ideal, vacuum, brane)
            if flip:  # a zero entry of the model set to 1
                self.blocks[t].rows[i][j] = GaussianRational(1)
                self.echelons = tuple(block.echelon() for block in self.blocks)
        certificate.KoszulModel.__init__ = model
        a = matfact.koszul_factorization(lg, source)
        b = matfact.koszul_factorization(lg, target)
        try:
            hom = matfact.hom_cohomology(a, b)
            print("built", hom.dim(0), hom.dim(1), hom.stabilized)
        except InternalCheckError as exc:
            print("raised", stage(exc))
"""


def test_a_flipped_model_entry_fails_closed():
    """Two flips of one entry of the model whose tables stay self-consistent:
    on Hom(A, B) over x^4+y^4, where c = (x, y) and both blocks are zero, a
    1 at (1, 1) of the even block gives 1|1 classes for 2|2; on Hom from
    (x, x^2)(y, y^2) to (x+y, x^2-x*y+y^2) over x^3+y^3, a 1 at (0, 0) gives
    0|0 for 1|1, with no piece to build.  Each passed the model check with a
    short table reported stabilized; now _check_blocks raises, plainly and
    under python -O."""
    for flags, stdout in run_both_modes(_FLIPPED_MODEL_SCRIPT).items():
        assert stdout.splitlines() == [
            "built 2 2 True", "raised blocks", "built 1 1 True", "raised blocks",
        ], flags


_ABOVE_THE_STOP_SCRIPT = """
from lgtft import matfact
from lgtft.errors import InternalCheckError, NonCocycleError
from lgtft.lgpair import make_lg_pair
from lgtft.matfact import Morphism
from lgtft.scalars import GaussianRational
one = GaussianRational(1)


def case(w, source, target):
    lg = make_lg_pair(["x", "y"], w)
    a = matfact.koszul_factorization(lg, source)
    b = matfact.koszul_factorization(lg, target)
    hom, end_b = matfact.hom_cohomology(a, b), matfact.hom_cohomology(b, b)
    stop = max(m for _, m in hom.pieces)
    unit = end_b.class_of(Morphism.identity(b))
    complex_ = matfact._defect_complex(a, b, True)
    # the first even element above the stop whose product with the unit's
    # representative is no cocycle: its only component lies in that degree
    e = next(
        element
        for m in range(stop + 1, hom.bound + 1)
        for element in complex_.basis(0, m)
        if not unit.representative.compose(
            Morphism._from_terms(a, b, 0, {element: one})
        ).defect().is_zero()
    )
    return a, b, hom, stop, unit, e


def outcome(call):
    try:
        call()
    except (InternalCheckError, NonCocycleError) as exc:
        return type(exc).__name__
    return "classified"


baseline = case(
    "x^4+y^4", [("x", "x^3"), ("y", "y^3")], [("x^2", "x^2"), ("y", "y^3")]
)
x5y = case("x^5*y+y^6", [("y", "x^5+y^5")], [("y", "x^5+y^5")])
for a, b, hom, stop, unit, e in (baseline, x5y):
    closed = hom.basis_classes(0)[0].representative.terms
    print(hom.certified is not None, outcome(
        lambda: hom.class_of(Morphism._from_terms(a, b, 0, {**closed, e: one}))
    ), len(hom.pieces), max(m for _, m in hom.pieces) == stop)
a, b, hom, stop, unit, e = baseline
terms_of = matfact.HomCohomology.terms_of


def corrupted(self, parity, coords):
    terms = terms_of(self, parity, coords)
    return {**terms, e: one} if self is hom else terms


matfact.HomCohomology.terms_of = corrupted
f = hom.basis_classes(0)[0]
print(outcome(lambda: matfact.compose_classes(unit, f, hom)))
print(len(hom.pieces), max(m for _, m in hom.pieces) == stop)
"""


def test_a_component_above_the_stop_that_is_not_closed_fails():
    """A basis representative of Hom(A, B) plus one term above its stop, the
    degree of its last class, whose differential is nonzero is no cocycle:
    class_of raises NonCocycleError, read off the complex's entries.  So it
    does on the End of x^5*y+y^6's brane, which has no certificate.  A
    representative of Hom(A, B) corrupted by that term gives a composite
    with the unit whose only non-closed component lies above the stop, and
    compose_classes raises InternalCheckError.  Each Hom holds only the
    pieces that hold classes, 4 and 5, and no call builds another.  Plainly
    and under python -O."""
    for flags, stdout in run_both_modes(_ABOVE_THE_STOP_SCRIPT).items():
        assert stdout.split() == [
            "True", "NonCocycleError", "4", "True",
            "False", "NonCocycleError", "5", "True",
            "InternalCheckError", "4", "True",
        ], flags


# (variables, W, Koszul pairs of each brane, whether the branes are taken as
# d01/d10 blocks without their pairs)
CHAIN_ORACLE_CASES = {
    "baseline": (["x", "y"], "x^4+y^4", CERTIFIED_CASES["x^4+y^4"], False),
    "x3y3": (["x", "y"], "x^3+y^3", CERTIFIED_CASES["x^3+y^3"], False),
    "x4": (["x"], "x^4", [[("x", "x^3")], [("x^2", "x^2")]], False),
    "windowed": (["x", "y"], *FULL_ELIMINATION_CASES["windowed"], False),
    "x5y": (["x", "y"], *FULL_ELIMINATION_CASES["x5y"], False),
    "d01d10": (["x", "y"], "x^3+y^3", CERTIFIED_CASES["x^3+y^3"], True),
}


def _classes_to_compose(hom, rng):
    """The basis classes of a Hom space and two seeded random combinations
    of each parity's basis classes."""
    out = hom.basis_classes(0) + hom.basis_classes(1)
    for parity in (0, 1):
        for _ in range(2 if hom.dim(parity) else 0):
            coords = [
                GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
                for _ in range(hom.dim(parity))
            ]
            out.append(MorphismClass(hom, parity, coords))
    return out


@pytest.mark.parametrize("case", sorted(CHAIN_ORACLE_CASES))
def test_compose_classes_matches_the_chain_level_composite(case):
    """compose_classes, which composes the representatives' terms, gives the
    class the chain-level oracle gives: the PolyMatrix product of the
    representatives, its defect checked, then class_of.  On every pair of
    basis classes and on seeded random combinations, over every triple of
    branes."""
    variables, w, pairs, blocks_only = CHAIN_ORACLE_CASES[case]
    lg = make_lg_pair(variables, w)
    branes = [koszul_factorization(lg, brane) for brane in pairs]
    if blocks_only:
        branes = [_twin(brane) for brane in branes]
    n = len(branes)
    homs = {(s, t): hom_cohomology(branes[s], branes[t])
            for s in range(n) for t in range(n)}
    rng = random.Random(case)
    classes = {key: _classes_to_compose(hom, rng) for key, hom in homs.items()}
    checked = 0
    for s in range(n):
        for t in range(n):
            for u in range(n):
                target = homs[s, u]
                for f in classes[s, t]:
                    for g in classes[t, u]:
                        composite = compose_classes(g, f, target)
                        assert composite == chain_compose_classes(g, f, target)
                        checked += 1
    assert checked > 0
    if blocks_only:  # no pairs, so every window is built in full
        assert all(hom.certified is None for hom in homs.values())


def test_class_of_above_the_stop_builds_no_piece():
    """Hom(A, B) on the baseline branes stops at degree 2.  A coboundary whose
    terms lie in one degree above the stop has the zero class, read off the
    complex's entries: class_of builds no piece for it."""
    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    a, b = (koszul_factorization(lg, pairs) for pairs in CERTIFIED_CASES["x^4+y^4"])
    hom = hom_cohomology(a, b)
    full = hom_cohomology(_twin(a), _twin(b))
    stop = max(m for _, m in hom.pieces)
    assert stop == 2
    step = lg.weighted_degree  # the degree of the defect differential
    boundaries = (
        (parity, n, _elementary(full, parity, element).defect())
        for (parity, n), piece in sorted(full.pieces.items(), key=lambda kv: kv[0][1])
        if n + step > stop
        for element in piece.basis
    )
    parity, n, boundary = next(b for b in boundaries if not b[2].is_zero())
    target = (1 - parity, n + step)
    assert stop < target[1] <= hom.bound
    built = dict(hom.pieces)
    assert hom.class_of(boundary).is_zero()
    assert hom.pieces == built
