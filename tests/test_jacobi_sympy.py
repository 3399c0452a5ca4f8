"""The Jacobi section of every reference report held to sympy, from the
job's strings alone.

For each report in tests/reference/ and bench/reference/ whose Jacobi
algebra is finite, sympy recomputes, with none of the package's parser,
Groebner bases or scalars:

- the reduced grevlex Groebner basis of the partials of W, each element up
  to a constant, in the printed order (ascending leading monomial);
- the standard monomials, hence mu, printed in ascending grevlex order;
- the Gram matrix by the Bezoutian route: the determinant of the divided
  differences of the partials in x and y, reduced modulo the basis in both
  variable groups, is sum C[a][b] m_a(x) m_b(y), and the Gram matrix is
  bulk_scale * C^-1; the trace is its row at the monomial 1.

The test has a deadline of its own.
"""

import json
import time
from pathlib import Path

import sympy
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import grevlex

from test_bench_references import _load_harness
from test_lifted_homs_sympy import _parse, _standard_monomials
from test_reference_reports import JOBS as REFERENCE_JOBS

ROOT = Path(__file__).resolve().parents[1]
_REPORTS = sorted(
    list((ROOT / "tests" / "reference").glob("*.json"))
    + list((ROOT / "bench" / "reference").glob("*.json"))
)
_DEADLINE_S = 20.0


def _monomial_text(names, exps):
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e) or "1"


def _bezoutian(partials, xs, ys):
    """det of B[i][j] = (g_j(y_1..y_i-1, x_i..) - g_j(y_1..y_i, x_i+1..))
    / (x_i - y_i)."""
    rows = []
    for i in range(len(xs)):
        before = dict(zip(xs[:i], ys[:i]))
        after = dict(zip(xs[: i + 1], ys[: i + 1]))
        rows.append([
            sympy.cancel(
                (g.subs(before, simultaneous=True) - g.subs(after, simultaneous=True))
                / (xs[i] - ys[i])
            )
            for g in partials
        ])
    return sympy.expand(sympy.Matrix(rows).det(method="berkowitz"))


def _jacobi_numbers(raw):
    """(monic Groebner basis, standard monomials, Gram matrix) of a job."""
    names = raw["variables"]
    xs = sympy.symbols(names)
    ys = sympy.symbols([name + "__y" for name in names])
    w = _parse(raw["superpotential"], dict(zip(names, xs)))
    partials = [sympy.diff(w, x) for x in xs]
    basis = sympy.groebner([g for g in partials if g != 0], *xs, order="grevlex")
    monic = [sympy.Poly(g, *xs).monic() for g in basis.exprs]
    monomials = sorted(_standard_monomials(basis, xs), key=grevlex)
    index = {exps: k for k, exps in enumerate(monomials)}
    mu, n = len(monomials), len(names)
    both = list(basis.exprs) + [
        g.subs(dict(zip(xs, ys)), simultaneous=True) for g in basis.exprs
    ]
    _, remainder = sympy.reduced(
        _bezoutian(partials, xs, ys), both, *xs, *ys, order="grevlex"
    )
    c = sympy.zeros(mu, mu)
    for exps, coeff in sympy.Poly(remainder, *xs, *ys).terms():
        c[index[exps[:n]], index[exps[n:]]] = coeff
    inverse = DomainMatrix.from_Matrix(c).to_field().inv().to_Matrix()
    scale = sympy.Rational(raw.get("normalization", {}).get("bulk_scale", "1"))
    return monic, monomials, inverse * scale


def test_jacobi_sections_match_sympy(monkeypatch):
    start = time.perf_counter()
    jobs = {**REFERENCE_JOBS, **_load_harness(monkeypatch).TEMPLATES}
    checked = []
    for path in _REPORTS:
        jacobi = json.loads(path.read_text())["results"].get("jacobi")
        if jacobi is None or jacobi["milnor_number"] is None:
            continue
        raw = jobs[path.stem]
        names = raw["variables"]
        monic, monomials, gram = _jacobi_numbers(raw)
        xs = sympy.symbols(names)
        symbols = dict(zip(names, xs))
        printed = [
            sympy.Poly(_parse(g, symbols), *xs).monic() for g in jacobi["groebner_basis"]
        ]
        assert sorted(printed, key=str) == sorted(monic, key=str), path.name
        leads = [g.monoms(order="grevlex")[0] for g in printed]
        assert leads == sorted(leads, key=grevlex), path.name
        assert jacobi["milnor_number"] == len(monomials), path.name
        assert jacobi["basis"] == [_monomial_text(names, e) for e in monomials]
        values = {}  # printed entry -> its number; most entries are "0"
        for text in {v for row in jacobi["gram"] for v in row} | set(jacobi["trace"]):
            values[text] = _parse(text, {})
        assert [[values[v] for v in row] for row in jacobi["gram"]] == gram.tolist()
        unit = monomials.index((0,) * len(names))
        assert [values[v] for v in jacobi["trace"]] == gram.row(unit).tolist()[0]
        checked.append(path.stem)
    assert len(checked) == 16
    assert "bulk.fermat6" in checked and "baseline_scale0" in checked
    elapsed = time.perf_counter() - start
    assert elapsed < _DEADLINE_S, f"took {elapsed:.1f} s, over {_DEADLINE_S} s"
