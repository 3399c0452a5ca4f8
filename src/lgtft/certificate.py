"""Certified Hom dimensions out of a Koszul brane, from the model X/(c)X.

For a Koszul source K with a choice c of finite colength, Hom(K, X) is
homotopy equivalent to X/(c)X with D_X mod (c) (koszul_hom_dims).  The
target brane X keeps that model for each source ideal (koszul_model), once
_check_blocks has held its blocks to D_X mod (c) read by a second route.
The model gives the number of classes of each parity, and, when X is
graded, their degrees, with one forward pass per block and no further
elimination; HomCohomology builds its pieces at those degrees and checks
its classes against the model through the projection at K's vacuum.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .errors import InternalCheckError
from .groebner import GroebnerBasis
from .jacobi import QuotientAlgebra
from .linalg import SparseMatrix
from .poly import Polynomial, mono_weighted_degree

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
    builds and keeps, each forward-passed once over the standard monomials
    of (c).  Even equals odd because rank0 = rank1 for every factorization:
    d01 d10 = W Id with W nonzero, so both blocks have full rank over the
    fraction field.  For the same reason the parity shift of the chosen c
    does not change the pair.

    The model is graded too: a basis vector (i, s) of V_t sits in degree
    2 wdeg(s) + w_t[i] of X, and the blocks are homogeneous, so the pivot
    columns of their forward passes, counted by degree, give the classes in
    each degree (KoszulModel.classes_by_degree) with no further
    elimination.  A certified graded Hom builds its pieces at those degrees
    only.  Before any of this is read, _check_blocks holds the blocks to
    D_X mod (c) computed again through the multiplication matrices of
    R/(c), so a wrong but self-consistent model raises InternalCheckError.

    The model also checks a certified Hom's classes once, when its pieces
    are built (HomCohomology._check_model).  It reads them through the
    projection p(f) = f(v) mod (c), v being the vacuum of K: the generator
    with D_K v in (c)K.  Then the term f(D_K v) of d(f)(v) vanishes mod
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
    certificate (koszul_hom_dims).  The ideal is found once per source, which
    keeps R/(c), and the model built once per source ideal and target, which
    keeps it once _check_blocks has held its blocks to D_X mod (c)."""
    pairs = source.pairs
    if pairs is None or len(pairs) != source.lg.ring.nvars:
        return None
    if source._ideal is UNSET:
        source._ideal = _finite_colength_ideal(pairs)
    if source._ideal is None:
        return None
    algebra, choice = source._ideal
    model = target._models.get(algebra)
    if model is None:
        model = KoszulModel(algebra, _vacuum(choice), target)
        _check_blocks(model, target)
        target._models[algebra] = model
    return model


def _finite_colength_ideal(pairs) -> Optional[tuple]:
    """(R/(c), choice) for the first ideal (c), one c_k from each pair, of
    finite colength, or None when no choice has one.  choice[k] is 0 when
    c_k = a_k and 1 when c_k = b_k."""
    for choice in itertools.product((0, 1), repeat=len(pairs)):
        generators = [
            pair[chosen] for pair, chosen in zip(pairs, choice)
            if not pair[chosen].is_zero()
        ]
        if not generators:
            continue
        ideal = GroebnerBasis.compute(generators)
        if ideal.is_zero_dimensional():
            return QuotientAlgebra(ideal), choice
    return None


def _vacuum(choice) -> tuple:
    """The (module, index) of the Koszul generator v with D v in (c)K, for
    the choice of c that _finite_colength_ideal reports (koszul_hom_dims)."""
    module, index, rank = choice[0], 0, 1
    for chosen in choice[1:]:
        if chosen:  # c_k = b_k
            module, index = 1 - module, rank + index
        rank *= 2
    return module, index


class KoszulModel:
    """X/(c)X for Hom(K, X), K a Koszul source with a c of finite colength.

    algebra is R/(c), the source's QuotientAlgebra.  V_t has the basis
    (basis vector i of X_t, standard monomial s) at i * mu + s.  blocks[t]
    is D_X mod (c) out of V_t, into V_(1-t), each column (j, s) read off
    the normal form of entry * x^s, and echelons[t] its forward pass.
    vacuum is the (module, index) of K's generator v that project reads.
    When X is graded, degrees[t] lists the degree in X of each basis vector
    of V_t, 2 wdeg(s) + w_t[i] in doubled units, and step is the degree of
    D_X; otherwise degrees is None.
    """

    __slots__ = ("algebra", "blocks", "echelons", "vacuum", "degrees", "step")

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
