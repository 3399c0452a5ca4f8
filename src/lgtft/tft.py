"""Assembly and mechanical verification of the open-closed TFT datum.

The datum couples the Jacobi algebra (bulk, with the residue trace) to a
finite set of factorizations (branes, with boundary traces) through
bulk-boundary maps e_a(h) = [h * id].  Boundary traces use the residue
supertrace

    tr_a(t) = c_d * Tr( str(t o Lambda_a) ),
    Lambda_a = sum_s sgn(s) d_{s(1)}D o ... o d_{s(d)}D,

with c_d = 1/d! by default and configurable; the boundary-bulk maps f_a,
the trace adjoints Tr(h f_a(t)) = tr_a(e_a(h) o t) of e_a, are taken in
closed form, f_a(t) = c_d [str(t o Lambda_a)] (Kapustin and Li,
hep-th/0305136).  f_a is defined only when the residue Gram matrix is
nonsingular; otherwise the clauses that need it are skipped.  The Cardy
comparison reports the measured proportionality constant rather than assuming
one; the supertrace side treats right multiplication as a superoperator (it
carries the Koszul sign (-1)^{deg t1 deg t} on homogeneous t).

Every structure map is computed on basis elements only, once, and extended
by linearity: composition through the composition tensors of BraneCategory,
which compose_classes builds from the basis classes' representatives, e_a
through the classes e_a(m_k) of the bulk basis monomials, and f_a through
the chain-level supertraces of the basis classes of End(a); tr_a is the bulk
trace of f_a (adjointness at h = 1).  Chain-level morphisms are their terms
(see matfact.Morphism), so the units, e_a(m_k), Lambda_a and str(t o
Lambda_a) multiply no polynomial matrix.
These tables are built on first use, so they see the datum as it is at that
time.  The axiom clauses and Cardy are coordinate arithmetic on these
constants, on position dicts {p: coeff} over the basis of a Hom space (its
even classes, then its odd ones): every composition in them is
BraneCategory.product of two position dicts, a sum of scaled tensor rows,
except that associativity contracts the tensors with each other directly, and
a trace is a dot product with the tr_a table.  Only BraneCategory.coords
and BraneCategory.compose convert between position dicts and MorphismClass.
The bulk clauses read the Jacobi algebra's multiplication matrices and table
(associativity by Mourrain's commuting criterion, see _check_bulk) and the
table's Gram matrix Tr(m_a m_b), built once per datum on first use; Cardy's
left side is f_1^T G f_2.  The adjointness clause checks the defining
identity of f_a on every bulk basis monomial: the e_a, composition and tr_a
tables must give the same tr_a(e_a(m_k) o t) as the residue (Bezoutian) Gram
matrix times f_a(t), so the tables are checked against chain-level values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Optional

from .errors import AdjointnessError, DegenerateTraceError, ValidationError
from .jacobi import JacobiAlgebra, ResidueTrace, raise_exponent, residue_trace
from .lgpair import LGPair
from .linalg import SparseMatrix, Vector, columns_apply, vec_from_list, vec_scale
from .matfact import (
    HomCohomology,
    Morphism,
    MorphismClass,
    compose_classes,
    hom_cohomology,
)
from .scalars import GaussianRational


@dataclass
class BulkAlgebra:
    """Pure-even bulk sector: Jacobi algebra plus residue trace."""

    algebra: JacobiAlgebra
    trace: Optional[ResidueTrace]

    @property
    def dimension(self) -> int:
        return self.algebra.dimension

    def trace_of(self, coords: Vector) -> GaussianRational:
        if self.trace is None:
            raise DegenerateTraceError("bulk trace unavailable")
        return self.trace.of_coords(coords)


class BraneCategory:
    """Finitely many branes with all pairwise cohomology and composition.

    Class-level work uses position dicts: a class of Hom(i, j) is
    {p: nonzero coefficient}, p a position in basis(i, j), which lists the
    even basis classes, then the odd ones.  The composition tensors are
    precomputed on basis classes: _tensors[(i, j, k)][(b, a)] is the position
    dict of basis(j, k)[b] o basis(i, j)[a].  product composes position dicts
    through them, bilinearly; coords and compose convert from and to a
    MorphismClass, and are the only code that knows the even-then-odd order.
    """

    def __init__(self, lg: LGPair, named_objects, degree_bound=None, homs=None):
        """homs maps (name, name) to Hom spaces already computed for these
        objects with this degree_bound; the other pairs are computed here."""
        names = [name for name, _ in named_objects]
        if len(set(names)) != len(names):
            raise ValidationError("brane names must be unique")
        self.lg = lg
        self.names = names
        self.objects = [obj for _, obj in named_objects]
        self.homs = {}
        known = homs or {}
        n = len(self.objects)
        for i in range(n):
            for j in range(n):
                hom = known.get((names[i], names[j]))
                if hom is None:
                    hom = hom_cohomology(
                        self.objects[i], self.objects[j], degree_bound
                    )
                self.homs[(i, j)] = hom
        self.units = [
            self.homs[(i, i)].class_of(Morphism.identity(self.objects[i]))
            for i in range(n)
        ]
        self._bases = {
            (i, j): self.homs[(i, j)].basis_classes(0)
            + self.homs[(i, j)].basis_classes(1)
            for i in range(n)
            for j in range(n)
        }
        self._index = {id(obj): k for k, obj in enumerate(self.objects)}
        self._tensors = {}
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    self._tensors[(i, j, k)] = {
                        (b, a): self.coords(compose_classes(g, f, self.homs[(i, k)]))
                        for a, f in enumerate(self._bases[(i, j)])
                        for b, g in enumerate(self._bases[(j, k)])
                    }

    def __len__(self):
        return len(self.objects)

    def hom(self, i: int, j: int) -> HomCohomology:
        return self.homs[(i, j)]

    def object_index(self, obj) -> int:
        cached = self._index.get(id(obj))
        if cached is not None:
            return cached
        return self.objects.index(obj)

    def coords(self, t: MorphismClass) -> dict:
        """t as a position dict over the basis of its Hom space."""
        offset = t.hom.dim(0) if t.parity else 0
        return {offset + p: value for p, value in enumerate(t.coords) if value}

    def product(self, i: int, j: int, k: int, g: dict, f: dict) -> dict:
        """g o f for position dicts f over basis(i, j) and g over basis(j, k),
        as a position dict over basis(i, k)."""
        table = self._tensors[(i, j, k)]
        total = {}
        for a, fc in f.items():
            for b, gc in g.items():
                scale = fc * gc
                for c, coeff in table[(b, a)].items():
                    acc = total.get(c)
                    total[c] = scale * coeff if acc is None else acc + scale * coeff
        return {c: value for c, value in total.items() if value}

    def compose(self, g: MorphismClass, f: MorphismClass) -> MorphismClass:
        """g o f as a class, through product."""
        if f.hom.a2 != g.hom.a1:
            raise ValidationError("middle objects do not match")
        i = self.object_index(f.hom.a1)
        j = self.object_index(f.hom.a2)
        k = self.object_index(g.hom.a2)
        target = self.homs[(i, k)]
        parity = (f.parity + g.parity) % 2
        offset = target.dim(0) if parity else 0
        coords = [GaussianRational(0)] * target.dim(parity)
        for c, value in self.product(i, j, k, self.coords(g), self.coords(f)).items():
            coords[c - offset] = value
        return MorphismClass(target, parity, coords)

    def basis(self, i: int, j: int):
        return self._bases[(i, j)]

    def hom_finite(self) -> bool:
        return all(h.stabilized for h in self.homs.values())


@dataclass
class ClauseResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    details: str = ""
    witness: Optional[dict] = None

    def to_jsonable(self) -> dict:
        payload = {"name": self.name, "status": self.status}
        if self.details:
            payload["details"] = self.details
        if self.witness is not None:
            payload["witness"] = self.witness
        return payload


@dataclass
class CardyResult:
    """Both sides of the Cardy constraint over one brane pair."""

    pair: tuple
    entries: list  # dicts with t1, t2, lhs, rhs (scalar strings kept exact)
    consistent: bool
    constant: Optional[GaussianRational]

    def to_jsonable(self) -> dict:
        return {
            "pair": list(self.pair),
            "consistent": self.consistent,
            "constant": None if self.constant is None else str(self.constant),
            "entries": self.entries,
        }


@dataclass
class AxiomReport:
    clauses: list = field(default_factory=list)
    cardy: list = field(default_factory=list)
    cardy_constant: Optional[GaussianRational] = None
    cardy_consistent: Optional[bool] = None

    def add(self, name, ok, details="", witness=None):
        self.clauses.append(
            ClauseResult(name, "pass" if ok else "fail", details, witness)
        )

    def skip(self, name, details):
        self.clauses.append(ClauseResult(name, "skipped", details))

    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.clauses) and (
            self.cardy_consistent is not False
        )

    def clause(self, name: str) -> ClauseResult:
        for clause in self.clauses:
            if clause.name == name:
                return clause
        raise KeyError(name)

    def to_jsonable(self) -> dict:
        return {
            "clauses": [c.to_jsonable() for c in self.clauses],
            "cardy": [c.to_jsonable() for c in self.cardy],
            "cardy_constant": (
                None if self.cardy_constant is None else str(self.cardy_constant)
            ),
            "cardy_consistent": self.cardy_consistent,
            "passed": self.passed(),
        }


class TFTDatum:
    """Candidate TFT datum for one LG pair and a finite brane list."""

    def __init__(
        self,
        lg: LGPair,
        bulk: BulkAlgebra,
        branes: BraneCategory,
        boundary_normalization=None,
    ):
        self.lg = lg
        self.bulk = bulk
        self.branes = branes
        self.parity = lg.signature
        d = lg.dimension
        if boundary_normalization is None:
            boundary_normalization = Fraction(1, factorial(d))
        self.c_d = GaussianRational.coerce(boundary_normalization)
        self._e_basis_cache = {}
        self._f_table_cache = {}
        self._trace_basis_cache = {}
        self._f_basis_cache = {}
        self._bulk_gram = None

    # -- structure maps -----------------------------------------------------

    def bulk_boundary_basis(self, i: int) -> list:
        """e_a(m_k) = [m_k * id] for every bulk basis monomial m_k, cached."""
        cached = self._e_basis_cache.get(i)
        if cached is None:
            endo = self.branes.homs[(i, i)]
            identity = Morphism.identity(self.branes.objects[i])
            algebra = self.bulk.algebra
            cached = self._e_basis_cache[i] = [
                endo.class_of(identity.scale(algebra.basis_poly(k)))
                for k in range(algebra.dimension)
            ]
        return cached

    def _f_table(self, i: int) -> list:
        """f_a(t) = c_d [str(t o Lambda_a)] for every basis class t of End(a),
        as bulk coordinates, in basis order, cached.

        Lambda_a = sum_s sgn(s) d_{s(1)}D o ... o d_{s(d)}D is built here and
        not kept; each row costs one chain-level product and one supertrace.
        """
        cached = self._f_table_cache.get(i)
        if cached is None:
            obj = self.branes.objects[i]
            d = self.lg.dimension
            partials = [Morphism.d_partial(obj, k) for k in range(d)]
            lam = Morphism.zero(obj, obj, d % 2)
            for sigma in permutations(range(d)):
                product = partials[sigma[0]]
                for index in sigma[1:]:
                    product = partials[index].compose(product)
                lam = lam + (product if _perm_sign(sigma) > 0 else product.scale(-1))
            nf_coords = self.bulk.algebra.nf_coords
            cached = self._f_table_cache[i] = [
                vec_scale(
                    nf_coords(t.representative.compose(lam).supertrace()), self.c_d
                )
                for t in self.branes.basis(i, i)
            ]
        return cached

    def boundary_trace_basis(self, i: int) -> list:
        """tr_a = Tr o f_a of every basis class of End(a), in basis order,
        cached."""
        cached = self._trace_basis_cache.get(i)
        if cached is None:
            cached = self._trace_basis_cache[i] = [
                self.bulk.trace_of(row) for row in self._f_table(i)
            ]
        return cached

    def boundary_trace(self, i: int, t: MorphismClass) -> GaussianRational:
        """tr_a on a class of End(a); vanishes off parity d mod 2."""
        if t.hom is not self.branes.homs[(i, i)]:
            raise ValidationError("the class is not an endomorphism of this brane")
        return self._trace(i, self.branes.coords(t))

    def _trace(self, i: int, t: dict) -> GaussianRational:
        """tr_a on a position dict over basis(i, i)."""
        traces = self.boundary_trace_basis(i)
        total = GaussianRational(0)
        for p, value in t.items():
            total = total + value * traces[p]
        return total

    def bulk_gram(self) -> SparseMatrix:
        """G[a][b] = Tr(m_a m_b), read off the multiplication table, cached.

        Tr(u v) = u^T G v for any bulk coordinates u and v, because the
        trace is linear.
        """
        if self._bulk_gram is None:
            table = self.bulk.algebra.table
            mu = self.bulk.dimension
            gram = SparseMatrix(mu, mu)
            for a in range(mu):
                for b in range(mu):
                    gram.set(a, b, self.bulk.trace_of(table[a][b]))
            self._bulk_gram = gram
        return self._bulk_gram

    def bulk_pairing_nondegenerate(self) -> bool:
        """Whether f_a is defined: a bulk trace with a nonsingular Gram matrix.
        The Gram matrix is scale * C^-1, C the Bezoutian matrix that
        residue_trace inverted, so it is nonsingular exactly when the scale
        is nonzero."""
        trace = self.bulk.trace
        return trace is not None and trace.scale != 0

    def boundary_bulk(self, i: int, t: MorphismClass):
        """f_a(t): the trace adjoint of e_a, as bulk coordinates.

        The linear extension of the closed-form table over the coordinates
        of t.  With G[k][b] = Tr(m_k m_b), the adjoint solves G f = r for
        r_k = tr_a(e_a(m_k) o t), and the closed form satisfies this system:
        Tr(m_k f_a(t)) = c_d Tr(str((m_k t) o Lambda_a)) = r_k.  G is
        nonsingular here, so it is the solution.  Each r_k, read off the
        e_a, composition and tr_a tables, is checked against (G f)_k with the
        trace's Bezoutian Gram matrix: AdjointnessError(k, table, chain).
        """
        if not self.bulk_pairing_nondegenerate():
            raise DegenerateTraceError("bulk pairing degenerate")
        branes = self.branes
        t_dict = branes.coords(t)
        f = columns_apply(self._f_table(i), t_dict)
        pairing = self.bulk.trace.gram.apply(f)
        zero = GaussianRational(0)
        for k, e_image in enumerate(self.bulk_boundary_basis(i)):
            table = self._trace(
                i, branes.product(i, i, i, branes.coords(e_image), t_dict)
            )
            chain = pairing.get(k, zero)
            if table != chain:
                raise AdjointnessError(k, table, chain)
        return tuple(f.get(k, zero) for k in range(self.bulk.dimension))

    def boundary_bulk_basis(self, i: int):
        """f_a of every basis class of End(a), cached."""
        cached = self._f_basis_cache.get(i)
        if cached is None:
            cached = [
                self.boundary_bulk(i, t) for t in self.branes.basis(i, i)
            ]
            self._f_basis_cache[i] = cached
        return cached

    # -- Cardy ---------------------------------------------------------------

    def cardy_check(self, i: int, j: int) -> CardyResult:
        """Compare Tr(f_a(t1) f_b(t2)) with the Hom-space supertrace.

        The operator t -> t2 o t o t1 is taken as a superoperator: right
        multiplication by a homogeneous t1 carries the sign (-1)^{|t1||t|}.
        """
        f_images_i = self.boundary_bulk_basis(i)
        gram = self.bulk_gram()
        # G f_b(t2), so that the left side f_a(t1)^T G f_b(t2) is a dot product
        paired_j = [
            gram.apply(vec_from_list(f2)) for f2 in self.boundary_bulk_basis(j)
        ]
        entries = []
        consistent = True
        constants = set()
        for p1, f1 in enumerate(f_images_i):
            for p2, g2 in enumerate(paired_j):
                lhs = GaussianRational(0)
                for k, value in g2.items():
                    if f1[k]:
                        lhs = lhs + f1[k] * value
                rhs = self._cardy_supertrace(i, j, p1, p2)
                entries.append(
                    {"t1": p1, "t2": p2, "lhs": str(lhs), "rhs": str(rhs)}
                )
                if rhs:
                    constants.add(lhs / rhs)
                elif lhs:
                    consistent = False
        if len(constants) > 1:
            consistent = False
        constant = constants.pop() if len(constants) == 1 else None
        return CardyResult((i, j), entries, consistent, constant)

    def _cardy_supertrace(self, i, j, p1, p2) -> GaussianRational:
        """The supertrace of t -> t2 o t o t1, for t1 = basis(i, i)[p1] and
        t2 = basis(j, j)[p2], over the basis of Hom(i, j)."""
        branes = self.branes
        total = GaussianRational(0)
        t1_odd = branes.basis(i, i)[p1].parity
        if (t1_odd + branes.basis(j, j)[p2].parity) % 2:
            return total  # odd operators have no diagonal blocks
        t2 = {p2: GaussianRational(1)}
        for q, t in enumerate(branes.basis(i, j)):
            image = branes.product(i, j, j, t2, branes._tensors[(i, i, j)][(q, p1)])
            diagonal = image.get(q)
            if diagonal is None:
                continue
            # the supertrace sign (-1)^|t| times the Koszul sign (-1)^{|t1||t|}
            if t.parity and not t1_odd:
                diagonal = -diagonal
            total = total + diagonal
        return total


def _perm_sign(sigma) -> int:
    sign = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                sign = -sign
    return sign


def build_tft_datum(
    lg: LGPair,
    named_branes,
    degree_bound=None,
    boundary_normalization=None,
    bulk_scale=Fraction(1),
    homs=None,
) -> TFTDatum:
    """Assemble bulk + branes; degenerate bulk traces are carried as None.

    The bulk is lg's Jacobi algebra; homs (see BraneCategory) passes in the
    Hom spaces the caller has already computed.
    """
    try:
        trace = residue_trace(lg, scale=bulk_scale)
    except DegenerateTraceError:
        trace = None
    bulk = BulkAlgebra(lg.jacobi_algebra, trace)
    branes = BraneCategory(lg, named_branes, degree_bound, homs)
    return TFTDatum(lg, bulk, branes, boundary_normalization)


# ---------------------------------------------------------------------------
# the axiom suite
# ---------------------------------------------------------------------------


def verify_tft_datum(datum: TFTDatum) -> AxiomReport:
    """Run every axiom clause; failures are reported as data, not errors."""
    report = AxiomReport()
    _check_bulk(datum, report)
    _check_category(datum, report)
    _check_bulk_boundary(datum, report)
    _check_cy_structure(datum, report)
    _check_parity(datum, report)
    _check_cardy(datum, report)
    return report


def _check_bulk(datum: TFTDatum, report: AxiomReport):
    """The bulk clauses, on the multiplication matrices M_k and the table.

    Write L_a for the matrix whose column b is table[a][b], so that the
    table's product is e_a * e_b = L_a e_b.  bulk_associativity passes when

    (C) the M_k commute pairwise;
    (S) L_{x_k m} = M_k L_m whenever m and x_k m are standard monomials;
    (U) L_1 = I, and the unit column is the identity: L_a e_1 = e_a.

    These imply associativity.  By (U) and (S), by induction along the
    staircase, L_a = m_a(M), the monomial m_a evaluated at the commuting
    matrices M_k.  So every L_a lies in the commutative algebra A generated
    by the M_k.  The unit vector e_1 is cyclic for A: if P in A has
    P e_1 = 0, then P e_c = P L_c e_1 = L_c P e_1 = 0 for every c, by (U),
    so P = 0.  For u = e_a * e_b = L_a e_b, L_u = sum_c u_c L_c and L_a L_b
    both lie in A, and both send e_1 to u: L_u e_1 = sum_c u_c e_c = u, and
    L_a L_b e_1 = L_a e_b = u.  Hence L_u = L_a L_b, which is
    (e_a * e_b) * e_c = e_a * (e_b * e_c) for every c.

    (C) is Mourrain's criterion: a normal form onto the standard monomials
    is the reduction modulo an ideal exactly when its M_k commute, so it
    also checks the Groebner basis the M_k came from.  (S) and (U) tie the
    table to the M_k; they are stronger than associativity alone.
    """
    algebra = datum.bulk.algebra
    mu = algebra.dimension
    table = algebra.table
    mult = algebra.mult
    commutative = True
    witness = None
    for a in range(mu):
        for b in range(mu):
            if table[a][b] != table[b][a]:
                commutative = False
                witness = {"pair": [a, b]}
    # the standard monomials form an order ideal: 1 is one of them if mu > 0
    unit = algebra.unit_index
    one = GaussianRational(1)
    unital = all(table[unit][a] == {a: one} for a in range(mu))
    unit_column = all(table[a][unit] == {a: one} for a in range(mu))
    commuting = all(
        columns_apply(mult[j], mult[k][b]) == columns_apply(mult[k], mult[j][b])
        for j in range(len(mult))
        for k in range(j)
        for b in range(mu)
    )
    staircase = True
    for m, exps in enumerate(algebra.basis):
        for k, columns in enumerate(mult):
            a = algebra.index.get(raise_exponent(exps, k))
            if a is not None and any(
                table[a][b] != columns_apply(columns, v)
                for b, v in enumerate(table[m])
            ):
                staircase = False
    associative = commuting and staircase and unital and unit_column
    report.add("bulk_supercommutativity", commutative, witness=witness)
    report.add("bulk_associativity", associative)
    report.add("bulk_unit", unital)
    if datum.bulk.trace is None:
        report.skip(
            "bulk_frobenius_nondegeneracy",
            "not applicable: bulk pairing degenerate",
        )
        return
    gram = datum.bulk_gram()
    report.add("bulk_trace_symmetry", gram == gram.transpose())
    report.add("bulk_frobenius_nondegeneracy", gram.rank() == mu)


def _check_category(datum: TFTDatum, report: AxiomReport):
    """The category clauses, on the composition tensors.

    A basis class is the position dict {p: 1}, and the composite of two basis
    classes is a tensor row: the unit laws compose each basis class with the
    units (the classes of identities) through product, and associativity
    compares h o (g o f) with (h o g) o f for every basis triple by
    contracting the tensors with each other (_associativity_sweep).
    """
    branes = datum.branes
    n = len(branes)
    report.add(
        "brane_hom_finiteness",
        branes.hom_finite(),
        details="all Hom tables stabilized within their degree windows",
    )
    units = [branes.coords(unit) for unit in branes.units]
    one = GaussianRational(1)
    unit_ok = True
    unit_witness = None
    for i in range(n):
        for j in range(n):
            for p in range(len(branes.basis(i, j))):
                t = {p: one}
                if (
                    branes.product(i, j, j, units[j], t) != t
                    or branes.product(i, i, j, t, units[i]) != t
                ):
                    unit_ok = False
                    unit_witness = {"pair": [i, j]}
    report.add("category_unit_laws", unit_ok, witness=unit_witness)
    report.add("category_associativity", _associativity_sweep(branes)[1])


def _associativity_sweep(branes: BraneCategory) -> tuple:
    """(comparisons made, verdict) of h o (g o f) == (h o g) o f over every
    basis triple (b, a, h) of every four objects (i, j, k, t), stopping at
    the first triple where the two sides differ.

    Both sides contract the composition tensors T directly:

        h o (g o f) = sum_c T(i, j, k)[(b, a)][c] * T(i, k, t)[(h, c)],
        (h o g) o f = sum_c T(j, k, t)[(h, b)][c] * T(i, j, t)[(c, a)],

    and are compared exactly, as position dicts with their zeros stripped.
    A full sweep makes sum |B(i, j)| * |B(j, k)| * |B(k, t)| comparisons.
    """
    objects = range(len(branes))
    tensors = branes._tensors
    compared = 0
    quadruples = [
        (i, j, k, t) for i in objects for j in objects for k in objects for t in objects
    ]
    for i, j, k, t in quadruples:
        hg_table = tensors[(j, k, t)]
        left_table = tensors[(i, k, t)]
        right_table = tensors[(i, j, t)]
        h_positions = range(len(branes.basis(k, t)))
        for (b, a), gf in tensors[(i, j, k)].items():
            gf = gf.items()
            for h in h_positions:
                left = {}
                for c, x in gf:
                    for p, y in left_table[(h, c)].items():
                        acc = left.get(p)
                        left[p] = x * y if acc is None else acc + x * y
                right = {}
                for c, x in hg_table[(h, b)].items():
                    for p, y in right_table[(c, a)].items():
                        acc = right.get(p)
                        right[p] = x * y if acc is None else acc + x * y
                compared += 1
                # equal dicts stay equal once stripped: strip only on a difference
                if left != right and _stripped(left) != _stripped(right):
                    return compared, False
    return compared, True


def _stripped(position_dict: dict) -> dict:
    return {p: value for p, value in position_dict.items() if value}


def _check_bulk_boundary(datum: TFTDatum, report: AxiomReport):
    branes = datum.branes
    algebra = datum.bulk.algebra
    mu = algebra.dimension
    n = len(branes)
    unital = True
    multiplicative = True
    central = True
    multiplicative_witness = central_witness = None
    e = []  # per brane, e_a(m_k) as position dicts
    for i in range(n):
        images = datum.bulk_boundary_basis(i)
        if mu and algebra.unit_index is not None:
            if images[algebra.unit_index] != branes.units[i]:
                unital = False
        e.append([branes.coords(image) for image in images])
        for a in range(mu):
            for b in range(mu):
                # e(m_a m_b), linear in the table entry, against e(m_a) o e(m_b)
                extended = columns_apply(e[i], algebra.table[a][b])
                if extended != branes.product(i, i, i, e[i][a], e[i][b]):
                    multiplicative = False
                    multiplicative_witness = {"object": i, "pair": [a, b]}
    one = GaussianRational(1)
    for i in range(n):
        for j in range(n):
            for k in range(mu):
                for p in range(len(branes.basis(i, j))):
                    t = {p: one}
                    # bulk elements are even, so centrality is commutation
                    if branes.product(i, j, j, e[j][k], t) != branes.product(
                        i, i, j, t, e[i][k]
                    ):
                        central = False
                        central_witness = {"objects": [i, j], "bulk": k}
    report.add("e_unital", unital)
    report.add("e_multiplicative", multiplicative, witness=multiplicative_witness)
    report.add("graded_centrality", central, witness=central_witness)


def _check_cy_structure(datum: TFTDatum, report: AxiomReport):
    """The pairing <t1, t2> = tr_j(t1 o t2) on Hom(i, j) x Hom(j, i), read off
    the tensor rows of t1 o t2 and t2 o t1."""
    branes = datum.branes
    if datum.bulk.trace is None:
        report.skip("cy_graded_symmetry", "not applicable: bulk pairing degenerate")
        report.skip("cy_nondegeneracy", "not applicable: bulk pairing degenerate")
        report.skip("adjointness", "not applicable: bulk pairing degenerate")
        return
    n = len(branes)
    symmetric = True
    nondegenerate = True
    symmetric_witness = nondegenerate_witness = None
    for i in range(n):
        for j in range(n):
            basis_ij = branes.basis(i, j)
            basis_ji = branes.basis(j, i)
            if len(basis_ij) != len(basis_ji):
                nondegenerate = False
                continue
            size = len(basis_ij)
            into_j, into_i = branes._tensors[(j, i, j)], branes._tensors[(i, j, i)]
            pairing = SparseMatrix(size, size)
            for a, t1 in enumerate(basis_ij):
                for b, t2 in enumerate(basis_ji):
                    value = datum._trace(j, into_j[(a, b)])
                    pairing.set(a, b, value)
                    sign = -1 if (t1.parity and t2.parity) else 1
                    mirrored = datum._trace(i, into_i[(b, a)])
                    if value != mirrored * sign:
                        symmetric = False
                        symmetric_witness = {"pair": [i, j], "basis": [a, b]}
            if size and pairing.rank() != size:
                nondegenerate = False
                nondegenerate_witness = {
                    "pair": [i, j],
                    "reason": "singular pairing",
                }
    report.add("cy_graded_symmetry", symmetric, witness=symmetric_witness)
    report.add("cy_nondegeneracy", nondegenerate, witness=nondegenerate_witness)
    if not datum.bulk_pairing_nondegenerate():
        report.skip("adjointness", "not applicable: bulk pairing degenerate")
        return
    adjoint_ok = True
    adjoint_witness = None
    for i in range(n):
        images = []
        for position, t in enumerate(branes.basis(i, i)):
            try:
                # boundary_bulk checks the adjointness identity on every m_k
                images.append(datum.boundary_bulk(i, t))
            except AdjointnessError as exc:
                adjoint_ok = False
                adjoint_witness = {
                    "object": i,
                    "basis": position,
                    "bulk": exc.bulk_index,
                    "lhs": str(exc.lhs),
                    "rhs": str(exc.rhs),
                }
        if len(images) == len(branes.basis(i, i)):
            datum._f_basis_cache[i] = images  # Cardy reads f_a from here
    report.add("adjointness", adjoint_ok, witness=adjoint_witness)


def _check_parity(datum: TFTDatum, report: AxiomReport):
    report.add(
        "signature_mod2",
        datum.parity == datum.lg.dimension % 2,
        details=f"mu = {datum.parity}",
    )
    if datum.bulk.trace is None:
        report.skip("trace_parity", "not applicable: bulk pairing degenerate")
        return
    ok = True
    witness = None
    for i in range(len(datum.branes)):
        traces = datum.boundary_trace_basis(i)
        for t, value in zip(datum.branes.basis(i, i), traces):
            if t.parity != datum.parity and value:
                ok = False
                witness = {"object": i, "parity": t.parity}
    report.add("trace_parity", ok, witness=witness)


def _check_cardy(datum: TFTDatum, report: AxiomReport):
    if not datum.bulk_pairing_nondegenerate():
        report.skip("cardy", "not applicable: bulk pairing degenerate")
        report.cardy_consistent = None
        return
    branes = datum.branes
    n = len(branes)
    constants = set()
    consistent = True
    for i in range(n):
        for j in range(n):
            try:
                result = datum.cardy_check(i, j)
            except AdjointnessError as exc:
                report.cardy_consistent = False
                report.add("cardy", False, details=f"f_a is undefined: {exc}")
                return
            report.cardy.append(result)
            consistent = consistent and result.consistent
            if result.constant is not None:
                constants.add(result.constant)
    if len(constants) > 1:
        consistent = False
    report.cardy_consistent = consistent
    report.cardy_constant = constants.pop() if len(constants) == 1 else None
    report.add(
        "cardy",
        consistent,
        details=(
            "proportionality constant "
            + (str(report.cardy_constant) if report.cardy_constant is not None
               else "indeterminate (all comparisons vanish)")
        ),
    )
