"""The lifted windowed Homs held to sympy, from the jobs' strings alone.

Every windowed Hom out of a Koszul brane in a reference job lifts its
classes from X/(c)X.  Here sympy recomputes, with none of the package's
parser, Groebner bases or scalars:

- the branes' blocks, by koszul_factorization's tensor rule, with
  d10 d01 = d01 d10 = W Id;
- dim X/(c)X per parity, for the first choice c of finite colength:
  D_X mod (c) on the standard monomials of a grevlex basis, each product
  reduced with ``reduced``, and the ranks with ``Matrix.rank``; it must be
  the dims the reference report prints, even and odd;
- that each lifted representative the package builds is a cocycle:
  D_X f - (-1)^p f D_K = 0, with sympy matrices.

The test has a deadline of its own.
"""

import itertools
import json
import time
from pathlib import Path

import sympy

from lgtft.lgpair import make_lg_pair
from lgtft.matfact import hom_cohomology, koszul_factorization

from test_bench_references import _load_harness
from test_reference_reports import JOBS as REFERENCE_JOBS

ROOT = Path(__file__).resolve().parents[1]

# reference report -> the job it holds, for the jobs with lifted windowed Homs
_LIFTED = {
    "tests/reference/windowed_all.json": "windowed_all",
    "tests/reference/windowed_cardy.json": "windowed_cardy",
    "tests/reference/windowed_n3.json": "windowed_n3",
    "tests/reference/windowed_noncoprime.json": "windowed_noncoprime",
    "tests/reference/windowed_overcount.json": "windowed_overcount",
    "bench/reference/warm.windowed.json": "warm.windowed",
}
_DEADLINE_S = 20.0


def _parse(text, symbols):
    return sympy.expand(sympy.parse_expr(
        text.replace("^", "**"), local_dict={**symbols, "i": sympy.I}
    ))


def _koszul_blocks(pairs):
    """(d01, d10) of the tensor of the rank 1|1 factorizations (a_k, b_k):
    d01' = [[d01, -b], [a, d10]] and d10' = [[d10, b], [-a, d01]]."""
    (a, b), *rest = pairs
    d01, d10 = sympy.Matrix([[a]]), sympy.Matrix([[b]])
    for a, b in rest:
        one = sympy.eye(d01.rows)
        d01, d10 = (
            sympy.BlockMatrix([[d01, -b * one], [a * one, d10]]).as_explicit(),
            sympy.BlockMatrix([[d10, b * one], [-a * one, d01]]).as_explicit(),
        )
    return d01, d10


def _total(d01, d10):
    """D on P0 + P1, the even basis first."""
    r0, r1 = d01.cols, d01.rows
    return sympy.BlockMatrix([
        [sympy.zeros(r0, r0), d10], [d01, sympy.zeros(r1, r1)]
    ]).as_explicit()


def _standard_monomials(basis, gens):
    """The monomials no leading monomial of the grevlex basis divides."""
    leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis.exprs]
    found, frontier = set(), [(0,) * len(gens)]
    while frontier:
        exps = frontier.pop()
        if exps in found or any(
            all(l <= e for l, e in zip(lead, exps)) for lead in leads
        ):
            continue
        found.add(exps)
        for k in range(len(gens)):
            frontier.append(exps[:k] + (exps[k] + 1,) + exps[k + 1:])
    return sorted(found)


def _monomial(gens, exps):
    return sympy.Mul(*[g**e for g, e in zip(gens, exps)])


def _model_classes(pairs, d01, d10, gens):
    """Classes of X/(c)X at V_0 and V_1 for the first c of finite colength:
    size less the ranks of D_X mod (c) out and in."""
    for choice in itertools.product((0, 1), repeat=len(pairs)):
        basis = sympy.groebner(
            [pair[k] for pair, k in zip(pairs, choice)], *gens, order="grevlex"
        )
        if basis.is_zero_dimensional:
            break
    monomials = _standard_monomials(basis, gens)
    index = {exps: k for k, exps in enumerate(monomials)}
    mu = len(monomials)

    def reduced_block(block):
        out = sympy.zeros(block.rows * mu, block.cols * mu)
        for (i, j), s in itertools.product(
            itertools.product(range(block.rows), range(block.cols)), range(mu)
        ):
            product = sympy.expand(block[i, j] * _monomial(gens, monomials[s]))
            _, remainder = sympy.reduced(product, basis.exprs, *gens, order="grevlex")
            for exps, coeff in sympy.Poly(remainder, *gens).terms():
                out[i * mu + index[exps], j * mu + s] = coeff
        return out

    ranks = reduced_block(d01).rank() + reduced_block(d10).rank()
    return d01.cols * mu - ranks, d01.rows * mu - ranks


def _representative_matrix(terms, parity, x_ranks, k_ranks, gens):
    """The supermatrix of a morphism's terms: the element (p, blk, i, j)
    maps generator j of K's module blk to vector i of X's module blk + p."""
    f = sympy.zeros(sum(x_ranks), sum(k_ranks))
    x_start, k_start = (0, x_ranks[0]), (0, k_ranks[0])
    for ((_, blk, i, j), exps), coeff in terms.items():
        value = sympy.Rational(coeff.re.numerator, coeff.re.denominator) + sympy.I * (
            sympy.Rational(coeff.im.numerator, coeff.im.denominator)
        )
        row, col = x_start[(blk + parity) % 2] + i, k_start[blk] + j
        f[row, col] += value * _monomial(gens, exps)
    return f


def test_lifted_homs_match_sympy(monkeypatch):
    start = time.perf_counter()
    jobs = {**REFERENCE_JOBS, **_load_harness(monkeypatch).TEMPLATES}
    checked = 0
    for path, name in _LIFTED.items():
        raw = jobs[name]
        report = json.loads((ROOT / path).read_text())["results"]["homs"]
        symbols = {v: sympy.Symbol(v) for v in raw["variables"]}
        gens = [symbols[v] for v in raw["variables"]]
        w = _parse(raw["superpotential"], symbols)
        blocks, pairs = {}, {}
        for brane in raw["branes"]:
            pairs[brane["name"]] = [
                tuple(_parse(p, symbols) for p in pair) for pair in brane["pairs"]
            ]
            d01, d10 = blocks[brane["name"]] = _koszul_blocks(pairs[brane["name"]])
            assert sympy.expand(d10 * d01 - w * sympy.eye(d01.cols)) == sympy.zeros(
                d01.cols, d01.cols
            )
            assert sympy.expand(d01 * d10 - w * sympy.eye(d01.rows)) == sympy.zeros(
                d01.rows, d01.rows
            )
        lg = make_lg_pair(raw["variables"], raw["superpotential"])
        branes = {
            brane["name"]: koszul_factorization(lg, brane["pairs"])
            for brane in raw["branes"]
        }
        for key, payload in report.items():
            source, target = key.split("|")
            assert payload["mode"] == "total_degree" and payload["stabilized"]
            dims = (payload["dims"]["even"], payload["dims"]["odd"])
            x01, x10 = blocks[target]
            assert _model_classes(pairs[source], x01, x10, gens) == dims
            hom = hom_cohomology(branes[source], branes[target])
            assert (hom.dim(0), hom.dim(1)) == dims and not hom.pieces
            d_x, d_k = _total(x01, x10), _total(*blocks[source])
            x_ranks = (x01.cols, x01.rows)
            k_ranks = (blocks[source][0].cols, blocks[source][0].rows)
            for parity in (0, 1):
                for cls in hom.basis_classes(parity):
                    f = _representative_matrix(
                        cls.representative.terms, parity, x_ranks, k_ranks, gens
                    )
                    defect = d_x * f - (-1) ** parity * f * d_k
                    assert sympy.expand(defect) == sympy.zeros(*defect.shape)
            checked += 1
    assert checked == 14
    elapsed = time.perf_counter() - start
    assert elapsed < _DEADLINE_S, f"took {elapsed:.1f} s, over {_DEADLINE_S} s"
