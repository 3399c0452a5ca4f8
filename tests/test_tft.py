"""Bulk-boundary maps, traces, adjoints, and the axiom suite."""

import random
from fractions import Fraction

import pytest

import lgtft.jobs
from lgtft.errors import DegenerateTraceError
from lgtft.jobs import JobSpec
from lgtft.lgpair import make_lg_pair
from lgtft.linalg import SparseMatrix
from lgtft.matfact import (
    Morphism,
    compose_classes,
    koszul_factorization,
    make_factorization,
)
from lgtft.polymatrix import PolyMatrix
from lgtft.scalars import GaussianRational
from lgtft.tft import build_tft_datum, verify_tft_datum

from both_modes import run_both_modes
from oracles import residue_one_var, solved_boundary_bulk, sparse_matmul
from test_reference_reports import JOBS as REFERENCE_JOBS


def _datum_x3():
    lg = make_lg_pair(["x"], "x^3")
    brane = koszul_factorization(lg, [("x", "x^2")])
    return lg, build_tft_datum(lg, [("M1", brane)])


def test_e_of_unit_is_unit_class():
    lg, datum = _datum_x3()
    unit_idx = datum.bulk.algebra.unit_index
    assert datum.bulk_boundary_basis(0)[unit_idx] == datum.branes.units[0]


def test_e_of_x_vanishes_on_x_x2_brane():
    # x * id is a coboundary on the (x, x^2) brane of x^3
    lg, datum = _datum_x3()
    x_idx = datum.bulk.algebra.index[(1,)]
    assert datum.bulk_boundary_basis(0)[x_idx].is_zero()


def test_e_multiplicative_on_basis():
    lg, datum = _datum_x3()
    algebra = datum.bulk.algebra
    images = datum.bulk_boundary_basis(0)
    for a in range(algebra.dimension):
        for b in range(algebra.dimension):
            lhs = datum.branes.homs[(0, 0)].zero_class(0)
            for k, value in algebra.table[a][b].items():
                lhs = lhs + images[k].scale(value)
            assert lhs == datum.branes.compose(images[a], images[b])


def test_boundary_trace_parity_and_linearity():
    lg, datum = _datum_x3()
    unit = datum.branes.units[0]
    # d = 1, so traces are odd: even classes (the unit) have zero trace
    assert datum.boundary_trace(0, unit) == GaussianRational(0)
    zero = datum.branes.homs[(0, 0)].zero_class(1)
    assert datum.boundary_trace(0, zero) == GaussianRational(0)
    tau = datum.branes.homs[(0, 0)].basis_classes(1)[0]
    doubled = tau + tau
    assert datum.boundary_trace(0, doubled) == datum.boundary_trace(0, tau) * 2


def test_boundary_trace_matches_kapustin_li_oracle():
    """One variable: tr(t) = Res(str(t . D') dx / W')."""
    for n in (3, 4, 5):
        lg = make_lg_pair(["x"], f"x^{n}")
        for p in range(1, n):
            brane = koszul_factorization(lg, [(f"x^{p}", f"x^{n - p}")])
            datum = build_tft_datum(lg, [("M", brane)])
            w_prime = lg.w.partial_derivative(0)
            d_prime = Morphism.d_partial(brane, 0)
            for t in datum.branes.basis(0, 0):
                numerator = t.representative.compose(d_prime).supertrace()
                expected = residue_one_var(numerator, w_prime)
                assert datum.boundary_trace(0, t) == expected


def test_boundary_bulk_x3_odd_generator():
    lg, datum = _datum_x3()
    tau = datum.branes.homs[(0, 0)].basis_classes(1)[0]
    coords = datum.boundary_bulk(0, tau)
    # f(tau) = -3x in the basis (1, x)
    assert [str(c) for c in coords] == ["0", "-3"]


def test_boundary_bulk_linearity_zero():
    lg, datum = _datum_x3()
    zero = datum.branes.homs[(0, 0)].zero_class(1)
    assert all(not c for c in datum.boundary_bulk(0, zero))


def test_boundary_bulk_parity_constraint():
    # f_a has degree mu = 1; the bulk is even, so even classes map to zero
    lg, datum = _datum_x3()
    unit = datum.branes.units[0]
    assert all(not c for c in datum.boundary_bulk(0, unit))


def test_cardy_unit_entry_is_superdimension():
    lg = make_lg_pair(["x"], "x^4")
    branes = [
        ("M1", koszul_factorization(lg, [("x", "x^3")])),
        ("M2", koszul_factorization(lg, [("x^2", "x^2")])),
    ]
    datum = build_tft_datum(lg, branes)
    result = datum.cardy_check(0, 1)
    hom = datum.branes.homs[(0, 1)]
    superdim = hom.dim(0) - hom.dim(1)
    unit_entries = [
        e
        for e in result.entries
        if e["t1"] == 0 and e["t2"] == 0  # basis position 0 is the unit class
    ]
    assert unit_entries[0]["rhs"] == str(GaussianRational(superdim))


def test_cardy_zero_object():
    lg = make_lg_pair(["x"], "x^3")
    zero = make_factorization(lg, PolyMatrix(lg.ring, []), PolyMatrix(lg.ring, []))
    brane = koszul_factorization(lg, [("x", "x^2")])
    datum = build_tft_datum(
        lg, [("Z", zero), ("M", brane)], degree_bound=12
    )
    result = datum.cardy_check(0, 0)
    assert result.consistent and result.entries == []
    mixed = datum.cardy_check(0, 1)
    assert mixed.consistent and mixed.entries == []


def test_cardy_constant_x4_is_minus_one():
    lg = make_lg_pair(["x"], "x^4")
    branes = [
        (f"M{p}", koszul_factorization(lg, [(f"x^{p}", f"x^{4 - p}")]))
        for p in (1, 2, 3)
    ]
    datum = build_tft_datum(lg, branes)
    report = verify_tft_datum(datum)
    assert report.cardy_consistent
    assert report.cardy_constant == GaussianRational(-1)


def test_cardy_scalars_representative_independent():
    rng = random.Random(17)
    lg = make_lg_pair(["x"], "x^4")
    brane = koszul_factorization(lg, [("x^2", "x^2")])
    datum = build_tft_datum(lg, [("M2", brane)], degree_bound=24)
    hom = datum.branes.homs[(0, 0)]
    tau = hom.basis_classes(1)[0]
    base = datum.boundary_bulk(0, tau)
    for _ in range(5):
        blocks = []
        for shape in ((1, 1), (1, 1)):
            blocks.append(
                PolyMatrix(
                    lg.ring,
                    [[lg.ring.from_terms({(rng.randint(0, 3),): rng.randint(-2, 2)})]],
                )
            )
        perturbation = Morphism(brane, brane, 0, blocks[0], blocks[1]).defect()
        perturbed_class = hom.class_of(tau.representative + perturbation)
        assert perturbed_class == tau
        assert datum.boundary_bulk(0, perturbed_class) == base


def test_cardy_supertrace_basis_independent():
    """Conjugating the operator matrix by a basis change preserves str."""
    lg = make_lg_pair(["x"], "x^4")
    brane = koszul_factorization(lg, [("x^2", "x^2")])
    datum = build_tft_datum(lg, [("M2", brane)])
    hom = datum.branes.homs[(0, 0)]
    basis = datum.branes.basis(0, 0)
    tau = hom.basis_classes(1)[0]
    # operator matrix of t -> (-1)^{|tau||t|} tau o t o tau per parity block
    for parity in (0, 1):
        classes = hom.basis_classes(parity)
        size = len(classes)
        matrix = SparseMatrix(size, size)
        for col, t in enumerate(classes):
            image = datum.branes.compose(tau, datum.branes.compose(t, tau))
            if parity:
                image = image.scale(-1)
            for row in range(size):
                matrix.set(row, col, image.coords[row])
        trace = sum(
            (matrix.get(k, k) for k in range(size)), GaussianRational(0)
        )
        rng = random.Random(parity)
        change = SparseMatrix.from_dense(
            [
                [GaussianRational(rng.randint(-3, 3)) for _ in range(size)]
                for _ in range(size)
            ]
        )
        try:
            inverse = change.inverse()
        except Exception:
            continue
        conjugated = sparse_matmul(sparse_matmul(inverse, matrix), change)
        assert (
            sum((conjugated.get(k, k) for k in range(size)), GaussianRational(0))
            == trace
        )


def test_verify_x3_all_clauses_pass():
    lg, datum = _datum_x3()
    report = verify_tft_datum(datum)
    assert report.passed()
    names = {c.name for c in report.clauses}
    for required in (
        "bulk_supercommutativity",
        "bulk_unit",
        "bulk_frobenius_nondegeneracy",
        "category_unit_laws",
        "category_associativity",
        "e_unital",
        "e_multiplicative",
        "graded_centrality",
        "cy_graded_symmetry",
        "cy_nondegeneracy",
        "adjointness",
        "trace_parity",
        "signature_mod2",
        "cardy",
    ):
        assert required in names
        assert report.clause(required).status == "pass"


def test_zeroed_boundary_trace_fails_cy_nondegeneracy():
    lg = make_lg_pair(["x"], "x^3")
    brane = koszul_factorization(lg, [("x", "x^2")])
    datum = build_tft_datum(
        lg, [("M1", brane)], boundary_normalization=Fraction(0)
    )
    report = verify_tft_datum(datum)
    clause = report.clause("cy_nondegeneracy")
    assert clause.status == "fail"
    assert clause.witness is not None
    assert not report.passed()


def test_degenerate_bulk_skips_adjoint_clauses():
    lg = make_lg_pair(["x"], "x")  # empty critical set, zero Jacobi algebra
    brane = make_factorization(
        lg,
        PolyMatrix(lg.ring, [[lg.ring.one()]]),
        PolyMatrix(lg.ring, [[lg.ring.parse("x")]]),
    )
    datum = build_tft_datum(lg, [("T", brane)], degree_bound=8)
    assert datum.bulk.trace is None
    report = verify_tft_datum(datum)
    for name in ("cy_graded_symmetry", "cy_nondegeneracy", "adjointness", "cardy"):
        clause = report.clause(name)
        assert clause.status == "skipped"
        assert "degenerate" in clause.details
    assert report.passed()  # skips are not failures


def test_even_dimension_quadric_spinor_branes():
    """d = 2 with complex-coefficient rank 1|1 branes: nonzero Cardy data."""
    lg = make_lg_pair(["x", "y"], "x^2+y^2")
    plus = koszul_factorization(lg, [("x + i*y", "x - i*y")])
    minus = koszul_factorization(lg, [("x - i*y", "x + i*y")])
    datum = build_tft_datum(lg, [("B+", plus), ("B-", minus)])
    assert datum.parity == 0
    hom = datum.branes.homs[(0, 0)]
    assert (hom.dim(0), hom.dim(1)) == (1, 0)
    # even signature: the unit has a nonzero boundary trace
    assert datum.boundary_trace(0, datum.branes.units[0]) == GaussianRational(
        0, Fraction(-1, 2)
    )
    report = verify_tft_datum(datum)
    assert report.passed()
    assert report.cardy_constant == GaussianRational(-1)
    # the unit-unit comparisons are nonzero here (superdimension +/- 1)
    nonzero = [
        e
        for result in report.cardy
        for e in result.entries
        if e["rhs"] != "0"
    ]
    assert len(nonzero) == 4


def test_graded_centrality_across_brane_pair():
    lg = make_lg_pair(["x"], "x^5")
    branes = [
        ("M1", koszul_factorization(lg, [("x", "x^4")])),
        ("M2", koszul_factorization(lg, [("x^2", "x^3")])),
    ]
    datum = build_tft_datum(lg, branes)
    algebra = datum.bulk.algebra
    for k in range(algebra.dimension):
        e1 = datum.bulk_boundary_basis(0)[k]
        e2 = datum.bulk_boundary_basis(1)[k]
        for t in datum.branes.basis(0, 1):
            assert datum.branes.compose(e2, t) == datum.branes.compose(t, e1)


def test_baseline_composition_tensors_have_canonical_representatives():
    """Composites carry coordinates only; the representative built from them
    is sum coord * basis representative, and its class has those coordinates."""
    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    branes = [
        ("A", koszul_factorization(lg, [("x", "x^3"), ("y", "y^3")])),
        ("B", koszul_factorization(lg, [("x^2", "x^2"), ("y", "y^3")])),
    ]
    category = build_tft_datum(lg, branes).branes
    n = len(category)
    checked = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                target = category.hom(i, k)
                for f in category.basis(i, j):
                    for g in category.basis(j, k):
                        composite = category.compose(g, f)
                        assert composite._representative is None
                        expected = Morphism.zero(
                            target.a1, target.a2, composite.parity
                        )
                        for coord, basis_class in zip(
                            composite.coords,
                            target.basis_classes(composite.parity),
                        ):
                            if coord:
                                expected = expected + (
                                    basis_class.representative.scale(coord)
                                )
                        assert composite.representative == expected
                        again = target.class_of(composite.representative)
                        assert again.coords == composite.coords
                        assert compose_classes(g, f, target) == composite
                        checked += 1
    assert checked > 0


def test_adjointness_clause_fails_closed_under_optimize():
    """A corrupted trace value fails adjointness, and Cardy with it, plainly
    and with asserts off; the suite reports both instead of raising."""
    script = """
from lgtft.lgpair import make_lg_pair
from lgtft.matfact import koszul_factorization
from lgtft.scalars import GaussianRational
from lgtft.tft import build_tft_datum, verify_tft_datum

lg = make_lg_pair(["x"], "x^3")
brane = koszul_factorization(lg, [("x", "x^2")])
datum = build_tft_datum(lg, [("M1", brane)])
trace = datum.bulk.trace
values = list(trace.values)
values[-1] = values[-1] + GaussianRational(1)  # the socle value
trace.values = tuple(values)
report = verify_tft_datum(datum)
print(report.clause("adjointness").status, report.clause("cardy").status)
"""
    for flags, stdout in run_both_modes(script).items():
        assert stdout.split() == ["fail", "fail"], flags


def test_verify_calls_class_of_only_for_the_e_images(monkeypatch):
    """The clauses read per-basis tables: the only classes computed during
    verification are e_a(m_k), one per brane and bulk basis monomial."""
    import lgtft.matfact
    import lgtft.tft

    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    branes = [
        ("A", koszul_factorization(lg, [("x", "x^3"), ("y", "y^3")])),
        ("B", koszul_factorization(lg, [("x^2", "x^2"), ("y", "y^3")])),
    ]
    datum = build_tft_datum(lg, branes)
    calls = {"class_of": 0, "compose_classes": 0}
    original_class_of = lgtft.matfact.HomCohomology.class_of

    def counting_class_of(self, morphism):
        calls["class_of"] += 1
        return original_class_of(self, morphism)

    def counting_compose(*args, **kwargs):
        calls["compose_classes"] += 1
        return compose_classes(*args, **kwargs)

    monkeypatch.setattr(lgtft.matfact.HomCohomology, "class_of", counting_class_of)
    monkeypatch.setattr(lgtft.matfact, "compose_classes", counting_compose)
    monkeypatch.setattr(lgtft.tft, "compose_classes", counting_compose)
    report = verify_tft_datum(datum)
    assert report.passed()
    assert calls == {
        "class_of": len(branes) * datum.bulk.dimension,
        "compose_classes": 0,
    }


def test_build_classifies_only_the_units_and_category_clauses_compose_nothing(
    monkeypatch,
):
    """The composition tensors come from the classes' terms: building the
    baseline datum runs class_of only for the units and multiplies no
    polynomial matrix, and no clause makes a BraneCategory.compose call: the
    category clauses contract the tensors, and the whole suite composes
    position dicts through BraneCategory.product.  Verifying the datum
    multiplies no polynomial matrix either: e_a, Lambda_a and str(t o
    Lambda_a) are computed on the morphisms' terms.  Nor does building the
    branes, by koszul_factorization or from blocks by make_factorization:
    D^2 = W*Id is checked on D's terms."""
    import lgtft.matfact
    from lgtft.tft import AxiomReport, BraneCategory, _check_category

    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    calls = {"class_of": 0, "matmul": 0, "compose": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for owner, attribute, name in (
        (lgtft.matfact.HomCohomology, "class_of", "class_of"),
        (PolyMatrix, "matmul", "matmul"),
        (BraneCategory, "compose", "compose"),
    ):
        original = getattr(owner, attribute)
        monkeypatch.setattr(owner, attribute, counting(name, original))
    branes = [
        ("A", koszul_factorization(lg, [("x", "x^3"), ("y", "y^3")])),
        ("B", koszul_factorization(lg, [("x^2", "x^2"), ("y", "y^3")])),
    ]
    ring = lg.ring
    blocks = make_factorization(
        lg,
        PolyMatrix(ring, [[ring.parse("x"), ring.parse("-y^3")],
                          [ring.parse("y"), ring.parse("x^3")]]),
        PolyMatrix(ring, [[ring.parse("x^3"), ring.parse("y^3")],
                          [ring.parse("-y"), ring.parse("x")]]),
    )
    assert blocks == branes[0][1]
    assert calls == {"class_of": 0, "matmul": 0, "compose": 0}
    datum = build_tft_datum(lg, branes)
    assert calls == {"class_of": len(branes), "matmul": 0, "compose": 0}
    report = AxiomReport()
    _check_category(datum, report)
    assert [c.status for c in report.clauses] == ["pass"] * 3
    assert calls == {"class_of": len(branes), "matmul": 0, "compose": 0}
    assert verify_tft_datum(datum).passed()
    assert calls["compose"] == 0
    assert calls["matmul"] == 0


_CORRUPTION_SCRIPT = """
from lgtft.lgpair import make_lg_pair
from lgtft.matfact import koszul_factorization
from lgtft.scalars import GaussianRational
from lgtft.tft import build_tft_datum, verify_tft_datum


def datum():
    lg = make_lg_pair(["x"], "x^4")
    branes = [
        ("M1", koszul_factorization(lg, [("x", "x^3")])),
        ("M2", koszul_factorization(lg, [("x^2", "x^2")])),
    ]
    return build_tft_datum(lg, branes)


def failed(datum):
    report = verify_tft_datum(datum)
    return ",".join(c.name for c in report.clauses if c.status == "fail") or "-"


print(failed(datum()))
# End(M2) has two even and two odd basis classes; the square of the last odd
# class is zero, and the tensor now claims it is the second even class
corrupted = datum()
corrupted.branes._tensors[(1, 1, 1)][(3, 3)] = {1: GaussianRational(1)}
print(failed(corrupted))
# the unit of M2 after the odd class of Hom(M1, M2) is that class; the tensor
# now claims it is zero
corrupted = datum()
corrupted.branes._tensors[(0, 1, 1)][(0, 1)] = {}
print(failed(corrupted))
# the first odd class of End(M2) after its second even class is the last odd
# class, of trace -1; the tensor now claims twice that, so tr(t1 o t2) no
# longer equals tr(t2 o t1) in the CY pairing
corrupted = datum()
corrupted.branes._tensors[(1, 1, 1)][(2, 1)] = {3: GaussianRational(2)}
print(failed(corrupted))
# e_a of the socle monomial x^2 is zero on M2; add the unit class to it
corrupted = datum()
images = corrupted.bulk_boundary_basis(1)
images[-1] = images[-1] + corrupted.branes.units[1]
print(failed(corrupted))
# the signature is odd, so the trace of the even unit class must vanish
corrupted = datum()
traces = corrupted.boundary_trace_basis(1)
traces[0] = traces[0] + GaussianRational(1)
print(failed(corrupted))
# the trace of the first odd class of End(M2); the change in f_a lies in a
# null direction of the Gram matrix, so only the right-hand side check sees it
corrupted = datum()
traces = corrupted.boundary_trace_basis(1)
traces[2] = traces[2] + GaussianRational(1)
print(failed(corrupted))
"""


def test_corrupted_structure_constants_fail_their_clauses():
    """One wrong composition-tensor entry, unit row of a tensor, tensor row
    inside the CY pairing, e-image or basis trace each fails a clause, with
    and without python -O: the tables are checked, not trusted.
    A wrong odd trace is caught where the f_a right-hand side read off the
    tables is compared with its chain-level value."""
    for flags, stdout in run_both_modes(_CORRUPTION_SCRIPT).items():
        clean, tensor, unit_row, pairing_row, e_image, trace, odd_trace = [
            set(line.split(",")) for line in stdout.split()
        ]
        assert clean == {"-"}
        assert "category_associativity" in tensor
        assert "category_unit_laws" in unit_row
        assert "cy_graded_symmetry" in pairing_row
        assert "e_multiplicative" in e_image
        assert "trace_parity" in trace
        assert "adjointness" in odd_trace


def test_each_bulk_boundary_clause_carries_its_own_witness():
    """A passing graded_centrality carries no witness from e_multiplicative."""
    lg = make_lg_pair(["x"], "x^4")
    branes = [
        ("M1", koszul_factorization(lg, [("x", "x^3")])),
        ("M2", koszul_factorization(lg, [("x^2", "x^2")])),
    ]
    datum = build_tft_datum(lg, branes)
    # End(M2): the square of the unit class is now twice the unit class
    unit = datum.branes.units[1]
    datum.branes._tensors[(1, 1, 1)][(0, 0)] = {
        position: 2 * c for position, c in datum.branes.coords(unit).items()
    }
    clauses = {c.name: c for c in verify_tft_datum(datum).clauses}
    assert clauses["e_multiplicative"].status == "fail"
    assert clauses["e_multiplicative"].witness == {"object": 1, "pair": [0, 0]}
    assert clauses["graded_centrality"].status == "pass"
    assert clauses["graded_centrality"].witness is None


def test_verify_solves_f_a_once_per_end_basis_class(monkeypatch):
    """f_a is in closed form: verification takes one supertrace per basis
    class of End(a) and solves no linear system, and the adjointness clause
    fills the f_a cache that Cardy reads."""
    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    branes = [
        ("A", koszul_factorization(lg, [("x", "x^3"), ("y", "y^3")])),
        ("B", koszul_factorization(lg, [("x^2", "x^2"), ("y", "y^3")])),
    ]
    datum = build_tft_datum(lg, branes)
    calls = {"solve": 0, "supertrace": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        SparseMatrix, "solve", counting("solve", SparseMatrix.solve)
    )
    monkeypatch.setattr(
        Morphism, "supertrace", counting("supertrace", Morphism.supertrace)
    )
    report = verify_tft_datum(datum)
    assert report.passed()
    classes = [len(datum.branes.basis(i, i)) for i in range(len(datum.branes))]
    assert calls == {"solve": 0, "supertrace": sum(classes)}
    assert [len(datum._f_basis_cache[i]) for i in range(len(classes))] == classes


@pytest.mark.parametrize("c_d", [None, Fraction(3, 7)])
@pytest.mark.parametrize(
    "name",
    sorted(name for name, raw in REFERENCE_JOBS.items() if raw["compute"] == "all"),
)
def test_closed_form_f_a_equals_the_solved_adjoint(name, c_d):
    """On every End basis class of the reference jobs that build a datum, f_a
    in closed form equals f_a solved from the adjointness system with the
    chain-level right-hand side; with a singular residue Gram matrix both are
    undefined."""
    spec = JobSpec.from_dict(REFERENCE_JOBS[name])
    lg = lgtft.jobs._build_lg(spec)
    named = lgtft.jobs._build_branes(spec, lg)
    datum = build_tft_datum(
        lg, named, boundary_normalization=c_d, bulk_scale=spec.bulk_scale
    )
    checked = 0
    for i in range(len(named)):
        for t in datum.branes.basis(i, i):
            if not datum.bulk_pairing_nondegenerate():
                with pytest.raises(DegenerateTraceError):
                    solved_boundary_bulk(datum, i, t)
                with pytest.raises(DegenerateTraceError):
                    datum.boundary_bulk(i, t)
                continue
            assert datum.boundary_bulk(i, t) == solved_boundary_bulk(datum, i, t)
            checked += 1
    assert checked or name == "baseline_scale0"


def test_singular_residue_gram_skips_the_f_a_clauses():
    """With bulk_scale 0 the Gram matrix is zero and f_a is undefined."""
    lg = make_lg_pair(["x"], "x^4")
    branes = [
        ("M1", koszul_factorization(lg, [("x", "x^3")])),
        ("M2", koszul_factorization(lg, [("x^2", "x^2")])),
    ]
    datum = build_tft_datum(lg, branes, bulk_scale=Fraction(0))
    assert datum.bulk.trace is not None
    payload = verify_tft_datum(datum).to_jsonable()
    status = {c["name"]: c for c in payload["clauses"]}
    assert status["bulk_frobenius_nondegeneracy"]["status"] == "fail"
    for name in ("adjointness", "cardy"):
        assert status[name]["status"] == "skipped"
        assert status[name]["details"] == "not applicable: bulk pairing degenerate"
    assert payload["cardy"] == []
    assert payload["cardy_constant"] is None
    assert payload["cardy_consistent"] is None
    assert payload["passed"] is False


_BULK_CORRUPTION_SCRIPT = """
from lgtft.lgpair import make_lg_pair
from lgtft.scalars import GaussianRational
from lgtft.tft import build_tft_datum, verify_tft_datum


def associativity(datum):
    return verify_tft_datum(datum).clause("bulk_associativity").status


def datum(w):
    return build_tft_datum(make_lg_pair(["x", "y"], w), [])


print(associativity(datum("x^3+y^3")), associativity(datum("x^2+y^3")))
# x^3+y^3: (x*y)*(x*y) is zero; the table now claims it is the unit
corrupted = datum("x^3+y^3")
algebra = corrupted.bulk.algebra
xy = algebra.index[(1, 1)]
algebra.table[xy][xy][algebra.unit_index] = GaussianRational(1)
print(associativity(corrupted))
# x^2+y^3 has standard monomials 1 and y, and x is zero: M_x claims x*y = 1.
# x is not standard, so only the commuting check reads this column of M_x
corrupted = datum("x^2+y^3")
algebra = corrupted.bulk.algebra
algebra.mult[0][algebra.index[(0, 1)]][algebra.unit_index] = GaussianRational(1)
print(associativity(corrupted))
"""


def test_corrupted_bulk_table_or_multiplication_matrix_fails_associativity():
    """One wrong off-unit table entry, or one wrong entry of a multiplication
    matrix M_k, fails bulk_associativity, with and without python -O."""
    for flags, stdout in run_both_modes(_BULK_CORRUPTION_SCRIPT).items():
        assert stdout.split() == ["pass", "pass", "fail", "fail"], flags


def test_each_cy_clause_carries_its_own_witness():
    """A passing cy_graded_symmetry carries no witness from cy_nondegeneracy."""
    lg = make_lg_pair(["x"], "x^4")
    branes = [
        ("M1", koszul_factorization(lg, [("x", "x^3")])),
        ("M2", koszul_factorization(lg, [("x^2", "x^2")])),
    ]
    datum = build_tft_datum(lg, branes, bulk_scale=Fraction(0))
    report = verify_tft_datum(datum)
    symmetry = report.clause("cy_graded_symmetry")
    nondegeneracy = report.clause("cy_nondegeneracy")
    assert symmetry.status == "pass"
    assert symmetry.witness is None
    assert nondegeneracy.status == "fail"
    assert nondegeneracy.witness["reason"] == "singular pairing"
