"""Certified Hom dimensions out of a Koszul brane, from the model X/(c)X.

For a Koszul source K with a choice c of finite colength, Hom(K, X) is
homotopy equivalent to X/(c)X with D_X mod (c) (koszul_hom_dims).  K keeps
R/(c), refused past MILNOR_LIMIT; koszul_model builds one Hom's model on it
once _check_blocks has held its blocks to D_X mod (c) read by a second
route, and the HomCohomology keeps it.  The model gives the number of
classes of each parity, and, when X is graded, their degrees, with one
forward pass per block and no further elimination; a graded HomCohomology
builds its pieces at those degrees up to its bound and, holding every
class, checks them against the model through the projection at K's vacuum.
A windowed one builds no window: lift_classes lifts each class of the
model to a cocycle of Hom(K, X) level by level, dividing by Groebner bases
of the prefix ideals (c_1, ..., c_j) with cofactors (_prefix_basis), and
KoszulModel.coordinates reads a cocycle's class off its projection.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .complex import differential, quotient
from .errors import InternalCheckError, ValidationError
from .groebner import GroebnerBasis
from .jacobi import MILNOR_LIMIT, QuotientAlgebra
from .linalg import SparseMatrix, echelon_kernel, echelon_reduce
from .poly import Polynomial, mono_div, mono_lcm, mono_mul, mono_weighted_degree

UNSET = object()  # a factorization's _ideal before koszul_model sets it


def koszul_hom_dims(source, target) -> Optional[tuple]:
    """Certified (even, odd) dimensions of Hom(source, target), or None.

    The source must be a Koszul factorization K = tensor of {a_k, b_k} with
    one pair per variable, and some choice of c_k in {a_k, b_k} must generate
    an ideal (c) of finite colength; otherwise the answer is None.  Then
    Hom(K, X) is homotopy equivalent to X/(c)X with the differential D_X
    mod (c) (Dyckerhoff, "Compact generators in categories of matrix
    factorizations", Duke 2011, section 2; Khovanov-Rozansky, Fund. Math.
    2008).  The argument:

    - Hom(K, X) is X tensor an exterior algebra on e_1..e_n.  Its
      differential is delta_c + delta', where delta_c = sum c_k contract(e_k)
      lowers the exterior degree by one.  delta' keeps it (the D_X term) or
      raises it (the partners of the c_k).  Swapping a pair, {a, b} =
      {b, a}[1], costs only a parity shift, so either element may be c_k.
    - (c) has n generators and height n, so locally it is a system of
      parameters of a Cohen-Macaulay ring.  The Koszul complex of c on the
      free module X is therefore exact except at exterior degree 0, where
      its homology is X/(c)X.
    - Take a linear deformation retraction (p, i, h) onto X/(c)X with h
      raising the exterior degree by one.  h delta' raises it, so it is
      nilpotent, and the perturbation lemma transfers the differential as
      p delta' i + p delta' h delta' i + ...  Every term after the first
      passes through a positive exterior degree that nothing lowers again,
      and p kills it there.  The first term is D_X mod (c).

    X/(c)X is the 2-periodic complex V0 <-> V1, V_i = X_i tensor R/(c),
    with d01 and d10 read mod (c); they compose to W = sum a_k b_k, which
    lies in (c).  So each parity has rank(X) * dim R/(c) - rank(d01 mod c)
    - rank(d10 mod c) classes, read off the two blocks that koszul_model
    builds, each forward-passed once over the standard monomials of (c).
    Even equals odd because rank0 = rank1 for every factorization: d01 d10
    = W Id with W nonzero, so both blocks have full rank over the fraction
    field.  For the same reason the parity shift of the chosen c
    does not change the pair.

    The model is graded too: a basis vector (i, s) of V_t sits in degree
    2 wdeg(s) + w_t[i] of X, and the blocks are homogeneous, so the pivot
    columns of their forward passes, counted by degree, give the classes in
    each degree (KoszulModel.classes_by_degree) with no further
    elimination.  A certified graded Hom builds its pieces at those degrees
    only, up to its bound.  Before any of this is read, _check_blocks holds
    the blocks to D_X mod (c) computed again through the multiplication
    matrices of R/(c), so a wrong but self-consistent model raises
    InternalCheckError.

    The model also checks a certified Hom's classes once, when its pieces
    hold every class (HomCohomology._check_model).  It reads them through
    the projection p(f) = f(v) mod (c), v being the vacuum of K: the
    generator with D_K v in (c)K.  Then the term f(D_K v) of d(f)(v) vanishes mod
    (c), so p is a chain map into X/(c)X, and p is the retraction's p above
    (p infinity = p), so it induces an isomorphism on cohomology.  v is
    read off the choice of c, in koszul_factorization's order: (module 0,
    index 0) when c_1 = a_1, else (1, 0); then, for each later pair k with
    rank r before it, (m, i) moves to (1 - m, r + i) when c_k = b_k and
    stays when c_k = a_k.  The tensor step adds multiples of a_k to D of a
    kept generator and multiples of b_k to D of a moved one, so D_K v stays
    in (c)K.
    """
    model = koszul_model(source, target)
    if model is None:
        return None
    return model.classes(0), model.classes(1)


def koszul_model(source, target) -> Optional[KoszulModel]:
    """The model X/(c)X of Hom(source, target), or None when there is no
    certificate (koszul_hom_dims), once _check_blocks has held its blocks to
    D_X mod (c).  The ideal is found once per source, which keeps R/(c) for
    the models of every Hom out of it; the model itself is built on each
    call, and the Hom keeps it."""
    pairs = source.pairs
    if pairs is None or len(pairs) != source.lg.ring.nvars:
        return None
    if source._ideal is UNSET:
        source._ideal = _finite_colength_ideal(pairs)
    if source._ideal is None:
        return None
    algebra, choice, _ = source._ideal
    model = KoszulModel(algebra, _vacuum(choice), target)
    _check_blocks(model, target)
    return model


def _finite_colength_ideal(pairs) -> Optional[tuple]:
    """(R/(c), choice, {}) for the first ideal (c), one c_k from each pair,
    of finite colength, or None when no choice has one.  choice[k] is 0 when
    c_k = a_k and 1 when c_k = b_k; the dict keeps the prefix bases the lift
    divides by (_prefix_basis), each made on first use.  An R/(c) past
    MILNOR_LIMIT is refused with ValidationError, its count stopped there."""
    for choice in itertools.product((0, 1), repeat=len(pairs)):
        generators = [
            pair[chosen] for pair, chosen in zip(pairs, choice)
            if not pair[chosen].is_zero()
        ]
        if not generators:
            continue
        ideal = GroebnerBasis.compute(generators)
        if ideal.is_zero_dimensional():
            basis = ideal.standard_monomials(MILNOR_LIMIT)
            if basis is None:
                raise ValidationError(
                    "the Hom certificate's R/(c) is too large: its dimension "
                    f"exceeds the limit of {MILNOR_LIMIT}"
                )
            return QuotientAlgebra(ideal, basis), choice, {}
    return None


def _pair_set(module, index) -> int:
    """The pairs at e^1 in koszul_factorization's generator (module, index),
    as a bit set: pair k >= 1 (counted from 0) when bit k - 1 of the index is
    set, pair 0 when module + popcount(index) is odd.  D moves a generator
    from e^0 to e^1 of pair k by a_k and back by b_k."""
    return index << 1 | (module + bin(index).count("1")) & 1


def _generator(pairs) -> tuple:
    """The (module, index) of the generator with the pairs of a bit set at
    e^1 (_pair_set); its module is their number mod 2."""
    return bin(pairs).count("1") & 1, pairs >> 1


def _vacuum(choice) -> tuple:
    """The (module, index) of the Koszul generator v with D v in (c)K, for
    the choice of c that _finite_colength_ideal reports (koszul_hom_dims):
    the pairs with c_k = b_k at e^1, the others at e^0."""
    return _generator(sum(chosen << k for k, chosen in enumerate(choice)))


def lift_classes(model, source, entries) -> tuple:
    """Per parity, the terms of one cocycle of Hom(source, X) over each class
    of X/(c)X, in the order of model.quotient's rows; entries are those of
    the Hom complex (complex.differential).

    A generator's level is the number of pairs where it differs from the
    vacuum (_pair_set); the entries of D_K that raise it by one are the
    +-c_k, read off the layout, not off their values.  So in the Hom complex
    d = d_c + delta: d_c lowers a term's level by one, and delta (D_X and
    the partners of the c_k) keeps or raises it.  The lift starts at f = the
    class at the vacuum, x^s for each standard monomial s, and for each
    level l = 0 .. n-1 adds the z at level l + 1 with d_c(z) = minus the
    level-l part of d(f) (_Lift.cocycle).  That part is a Koszul cycle of c,
    or at level 0 lies in (c)X as the class is a cocycle of D_X mod (c),
    and c is a regular sequence, so z exists; z moves d(f) at levels l and
    up only.  After n steps only level n can be left, where d_c is
    injective, so d(f) = 0 (the perturbation lemma; Crainic, arXiv
    math/0403266), and p(f) = f(v) mod (c) is the class, z lying off the
    vacuum.  InternalCheckError unless d(f) = 0 exactly on the entries,
    p(f) is the class, and each parity has the model's number of classes.
    """
    lift = _Lift(model, source, entries)
    out = ([], [])
    for parity in (0, 1):
        t = (model.vacuum[0] + parity) % 2
        rows = model.quotient(t)[1][1]
        if len(rows) != model.classes(t):
            raise InternalCheckError(
                f"{len(rows)} classes lifted from X/(c)X, not its {model.classes(t)}"
            )
        for row in rows:
            f = lift.cocycle(parity, row)
            if differential(entries, f):
                raise InternalCheckError("a class lifted from X/(c)X is no cocycle")
            if model.project(f.items()) != row:
                raise InternalCheckError(
                    "a class lifted from X/(c)X does not project back to it"
                )
            out[parity].append(f)
    return out


class _Lift:
    """The zigzag of lift_classes for one Hom(K, X).  signs[T, k] is s when
    D_K raises the level from T to T + k by s * c_k, T and k the pairs
    where a generator differs from the vacuum, as a bit set, and a pair.
    The prefix bases are the source's, kept in its _ideal."""

    __slots__ = ("model", "entries", "ring", "c", "vacuum", "signs", "prefixes")

    def __init__(self, model, source, entries):
        algebra, choice, self.prefixes = source._ideal
        self.model, self.entries, self.ring = model, entries, algebra.ring
        self.c = [pair[chosen] for pair, chosen in zip(source.pairs, choice)]
        self.vacuum = sum(chosen << k for k, chosen in enumerate(choice))
        d_entries, n = source.D.entries(), len(choice)
        self.signs = {}
        for lower in range(1 << n):
            for k in range(n):
                if lower >> k & 1:
                    continue
                module, low = _generator(lower ^ self.vacuum)
                _, high = _generator((lower | 1 << k) ^ self.vacuum)
                entry = d_entries.get((module, high, low), self.ring.zero())
                if entry not in (self.c[k], -self.c[k]):
                    raise InternalCheckError(
                        f"D_K raises the level by {entry}, not by +-({self.c[k]})"
                    )
                self.signs[lower, k] = 1 if entry == self.c[k] else -1

    def cocycle(self, parity, row) -> dict:
        """The terms of f over the class row of V_t, level by level."""
        algebra, vacuum = self.model.algebra, self.vacuum
        module, index = self.model.vacuum
        f = {}
        for col, coeff in row.items():
            i, s = divmod(col, algebra.dimension)
            f[((parity, module, i, index), algebra.basis[s])] = coeff
        for level in range(len(self.c)):
            defect = differential(self.entries, f)
            # basis vector of X -> {pairs: {exps: coeff}}: minus the level
            # part of d(f) over the sign -(-1)^parity that f D_K carries in
            # d(f), so that each equation's factors are signs[T, k] c_k
            rhs = {}
            for ((_, blk, i, j), exps), coeff in defect.items():
                pairs = _pair_set(blk, j) ^ vacuum
                if bin(pairs).count("1") == level:
                    part = rhs.setdefault(i, {}).setdefault(pairs, {})
                    part[exps] = -coeff if parity else coeff
            z = {}
            for i, parts in rhs.items():
                parts = {T: Polynomial(self.ring, terms) for T, terms in parts.items()}
                for U, p in self._solve(parts, level, len(self.c), 0).items():
                    blk, j = _generator(U ^ vacuum)
                    for exps, coeff in p.terms.items():
                        z[((parity, blk, i, j), exps)] = coeff
            f.update(z)  # f has no term at level + 1 yet
        return f

    def _solve(self, rhs, level, j, fixed) -> dict:
        """z {U: polynomial} with sum over k < j, k not in T, of signs[T, k]
        c_k z_(T + k) = rhs_T for each T.  T and U are the pairs where a
        generator differs from the vacuum: each holds fixed and, of the
        pairs below j, level or level + 1 of them.  Recursion on the largest
        pair m = j - 1: the equations at T holding m are the same system
        one level lower without m; their solution's terms signs[T, m] c_m
        z_(T + m) then move to the right of the others, which form the
        system without m at this level.  At level 0 it is one division by
        the first j of c (_cofactors); with no unknowns, rhs must vanish."""
        if level >= j:
            if rhs:
                raise InternalCheckError(
                    "a part of d(f) in the lift is no boundary of d_c"
                )
            return {}
        if level == 0:
            p = rhs.get(fixed)
            if p is None:
                return {}
            return {
                fixed | 1 << k: q * self.signs[fixed, k]
                for k, q in enumerate(self._cofactors(p, j)) if q
            }
        bit = 1 << j - 1
        upper = {T: p for T, p in rhs.items() if T & bit}
        upper = self._solve(upper, level - 1, j - 1, fixed | bit)
        lower = {T: p for T, p in rhs.items() if not T & bit}
        for U, z in upper.items():
            T = U ^ bit
            moved = z * self.c[j - 1] * -self.signs[T, j - 1]
            moved = lower[T] + moved if T in lower else moved
            if moved:
                lower[T] = moved
            else:
                lower.pop(T, None)
        solved = self._solve(lower, level, j - 1, fixed)
        solved.update(upper)
        return solved

    def _cofactors(self, p, j) -> list:
        """Cofactors q with sum q_k c_k = p over the first j of c, read off
        the division of p by the prefix basis; it must leave no remainder."""
        basis = self.prefixes.get(j)
        if basis is None:
            basis = self.prefixes[j] = _prefix_basis(self.c[:j])
        quotients, remainder = _divided(p, basis)
        if remainder:
            raise InternalCheckError(f"{p} does not lie in the first {j} of (c)")
        cofactors = [self.ring.zero()] * j
        for h, (_, cofactor) in zip(quotients, basis):
            if h:
                cofactors = [q + h * b for q, b in zip(cofactors, cofactor)]
        return cofactors


def _prefix_basis(generators) -> list:
    """A Groebner basis of the ideal of the generators, [(g, cofactors)]
    with g = sum cofactors[k] * generators[k]: Buchberger's algorithm, each
    S-polynomial and remainder carrying its cofactors, pairs with coprime
    leading monomials skipped (Cox, Little and O'Shea, Ideals, Varieties,
    and Algorithms, ch. 2 sections 6-9).  Not reduced: the lift only
    divides by it."""
    ring, n = generators[0].ring, len(generators)
    units = [[ring.one() if l == k else ring.zero() for l in range(n)] for k in range(n)]
    basis = list(zip(generators, units))
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        (f, f_cofactors), (g, g_cofactors) = (basis[k] for k in pairs.pop())
        (f_lead, f_coeff), (g_lead, g_coeff) = f.leading_term(), g.leading_term()
        lcm = mono_lcm(f_lead, g_lead)
        if lcm == mono_mul(f_lead, g_lead):
            continue
        left = ring.monomial(mono_div(lcm, f_lead), f_coeff.inverse())
        right = ring.monomial(mono_div(lcm, g_lead), g_coeff.inverse())
        quotients, remainder = _divided(left * f - right * g, basis)
        if remainder:
            cofactors = [left * a - right * b for a, b in zip(f_cofactors, g_cofactors)]
            for h, (_, known) in zip(quotients, basis):
                cofactors = [q - h * b for q, b in zip(cofactors, known)]
            basis.append((remainder, cofactors))
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    return basis


def _divided(p, basis) -> tuple:
    """(quotients, remainder) of p divided by the g of basis [(g, _)],
    leading term by leading term, each by the first g whose leading monomial
    divides it: p = sum quotients[l] * g_l + remainder."""
    ring = p.ring
    leads = [g.leading_term() for g, _ in basis]
    quotients = [{} for _ in basis]
    remainder = {}
    while p:
        exps, coeff = p.leading_term()
        for l, (lead, lead_coeff) in enumerate(leads):
            shift = mono_div(exps, lead)
            if shift is not None:  # the leading term falls: each shift once
                quotients[l][shift] = factor = coeff / lead_coeff
                p = p - ring.monomial(shift, factor) * basis[l][0]
                break
        else:
            remainder[exps] = coeff
            p = Polynomial(ring, {e: v for e, v in p.terms.items() if e != exps})
    return [Polynomial(ring, q) for q in quotients], Polynomial(ring, remainder)


class KoszulModel:
    """X/(c)X for Hom(K, X), K a Koszul source with a c of finite colength.

    algebra is R/(c), the source's QuotientAlgebra.  V_t has the basis
    (basis vector i of X_t, standard monomial s) at i * mu + s.  blocks[t]
    is D_X mod (c) out of V_t, into V_(1-t), each column (j, s) read off
    the normal form of entry * x^s, and echelons[t] its forward pass.
    vacuum is the (module, index) of K's generator v that project reads.
    When X is graded, degrees[t] lists the degree in X of each basis vector
    of V_t, 2 wdeg(s) + w_t[i] in doubled units, and step is the degree of
    D_X; otherwise degrees is None.  The image and quotient of each V_t,
    which a windowed Hom's classes are, are made on first use and kept.
    """

    __slots__ = (
        "algebra", "blocks", "echelons", "vacuum", "degrees", "step", "_quotients",
    )

    def __init__(self, algebra, vacuum, target):
        self.algebra = algebra
        self.vacuum = vacuum
        monomials, mu = algebra.basis, algebra.dimension
        sizes = (target.rank0 * mu, target.rank1 * mu)
        rows = ([{} for _ in range(sizes[1])], [{} for _ in range(sizes[0])])
        for (t, i, j), entry in target.D.entries().items():
            for s in range(mu):
                reduced = algebra.nf_coords(entry * algebra.basis_poly(s))
                for r, coeff in reduced.items():
                    rows[t][i * mu + r][j * mu + s] = coeff
        self.blocks = tuple(
            SparseMatrix(sizes[1 - t], sizes[t], rows[t]) for t in (0, 1)
        )
        self.echelons = tuple(block.echelon() for block in self.blocks)
        self._quotients = [None, None]
        lg = target.lg
        self.degrees, self.step = None, lg.weighted_degree
        if target.graded and lg.weights is not None:
            lifts = [2 * mono_weighted_degree(exps, lg.weights) for exps in monomials]
            self.degrees = tuple(
                [w + lift for w in weights for lift in lifts]
                for weights in (target.weights0, target.weights1)
            )

    def classes(self, t) -> int:
        """The dimension of the cohomology at V_t: its size less the ranks
        out and in."""
        return self.blocks[t].ncols - sum(len(pivots) for pivots, _ in self.echelons)

    def classes_by_degree(self, t) -> dict:
        """{degree in X: classes} of the cohomology at V_t, nonzero counts
        only, with no elimination: each degree's size less its ranks out
        and in.  The blocks are homogeneous of degree step (D_X and (c) are),
        so a set of columns is independent exactly when its part in each
        degree is, and the pivot columns of a forward pass, counted by their
        degree, are the ranks per degree: a pivot of blocks[t] is a rank out
        of its degree, one of blocks[1 - t] a rank into its degree + step.
        On blocks that are not homogeneous a count may come out negative;
        it is kept, and no piece can match it."""
        degrees, counts = self.degrees, {}
        if any(len(degrees[k]) != self.blocks[k].ncols for k in (0, 1)):
            raise InternalCheckError("the model X/(c)X does not fit its degrees")
        for m in degrees[t]:
            counts[m] = counts.get(m, 0) + 1
        for col in self.echelons[t][0]:
            counts[degrees[t][col]] -= 1
        for col in self.echelons[1 - t][0]:
            m = degrees[1 - t][col] + self.step
            counts[m] = counts.get(m, 0) - 1
        return {m: count for m, count in counts.items() if count}

    def quotient(self, t) -> tuple:
        """(image, quotient) of the cohomology at V_t, made on first use and
        kept: image the forward pass of the pivot columns of the map into
        V_t, quotient the RREF of the kernel of blocks[t] modulo it
        (complex.quotient), whose rows are the classes."""
        found = self._quotients[t]
        if found is None:
            (pivots, rows), size = self.echelons[t], self.blocks[t].ncols
            taken = set(pivots)
            kernel = echelon_kernel(
                pivots, rows, [col for col in range(size) if col not in taken]
            )
            columns = self.blocks[1 - t].transpose().rows
            spanning = [columns[col] for col in self.echelons[1 - t][0]]
            image = ([], [])
            if spanning:
                image = SparseMatrix(len(spanning), size, spanning).echelon()
            found = self._quotients[t] = (image, quotient(kernel, image))
        return found

    def coordinates(self, parity, terms) -> dict:
        """{class: coefficient} of a cocycle of Hom(K, X), given by its terms:
        its projection at V_t, t the vacuum's module plus parity, reduced
        modulo the image and read off the quotient rows.  InternalCheckError
        when the projection is no cocycle of X/(c)X."""
        image, rows = self.quotient((self.vacuum[0] + parity) % 2)
        residual, _ = echelon_reduce(*image, self.project(terms.items()))
        residual, coords = echelon_reduce(*rows, residual)
        if residual:
            raise InternalCheckError("a cocycle projects to no cocycle of X/(c)X")
        return coords

    def project(self, terms) -> dict:
        """The V coordinates of f(v) mod (c), f given by (element, coeff)
        pairs: its terms at the vacuum, each entry reduced mod (c)."""
        module, column = self.vacuum
        entries = {}  # basis vector of X -> {exps: coeff}
        for ((_, blk, i, j), exps), coeff in terms:
            if blk == module and j == column:
                entries.setdefault(i, {})[exps] = coeff
        mu, ring = self.algebra.dimension, self.algebra.ring
        vector = {}
        for i, entry in entries.items():
            for r, coeff in self.algebra.nf_coords(Polynomial(ring, entry)).items():
                vector[i * mu + r] = coeff
        return vector


def _check_blocks(model, target):
    """Raise InternalCheckError unless the model's blocks are D_X mod (c),
    read again by a second route.

    The route is that of the multiplication matrices of R/(c): the action
    of x^e on the standard monomials' unit vectors as the product of the
    M_k along e (QuotientAlgebra.action).  The column (j, s) of block t is
    then the sum over the terms coeff * x^e of D_X's entry (i, j) of
    coeff * L_e applied to the unit vector of s, put at the rows (i, s').
    KoszulModel.__init__ reduces each product entry * x^s as one
    polynomial; here no product of an entry is ever reduced, so a block
    read off the wrong entry, monomial, position or module differs.
    """
    algebra = model.algebra
    mu = algebra.dimension
    sizes = (target.rank0 * mu, target.rank1 * mu)
    rows = ([{} for _ in range(sizes[1])], [{} for _ in range(sizes[0])])
    for ((_, t, i, j), exps), coeff in target.d_terms.items():
        for s, column in enumerate(algebra.action(exps)):
            for r, value in column.items():
                row, key = rows[t][i * mu + r], j * mu + s
                total = row[key] + coeff * value if key in row else coeff * value
                if total:
                    row[key] = total
                else:
                    del row[key]
    for t, block in enumerate(model.blocks):
        shape = (block.nrows, block.ncols)
        if shape != (sizes[1 - t], sizes[t]) or block.rows != rows[t]:
            raise InternalCheckError(
                f"the {('even', 'odd')[t]} block of the model X/(c)X is not "
                "D_X mod (c)"
            )
