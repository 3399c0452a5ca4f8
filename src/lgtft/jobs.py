"""Declarative batch jobs: parse, run, report, and diff.

Job files are JSON; polynomials appear as quoted strings in the text grammar
of the algebra core.  Reports are JSON with a schema_version field, printed
with sorted keys so identical computations produce identical bytes; the only
run-dependent field is the "timing" subtree, which diff_reports ignores.

A job builds one LGPair, which keeps its Jacobi basis and algebra for every
section that reads them; the only thing the sections hand on themselves is
the Hom spaces of the homs section, which the tft section reuses.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import __version__
from .cache import Cache, compose_key, key_part, null_cache
from .errors import (
    ClassBoundError,
    DegenerateTraceError,
    FactorizationError,
    LGError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .jacobi import residue_trace
from .koszul import check_vanishing_negative_degrees, koszul_cohomology
from .lgpair import LGPair, make_lg_pair
from .matfact import (
    hom_cohomology,
    hom_is_graded,
    koszul_factorization,
    make_factorization,
)
from .poly import PolyRing, _mono_str
from .polymatrix import PolyMatrix
from .tft import build_tft_datum, verify_tft_datum

SCHEMA_VERSION = "1"
SECTIONS = ("jacobi", "koszul", "homs", "tft")


@dataclass
class JobSpec:
    """Validated description of one batch computation."""

    variables: list
    superpotential: str
    weights: Optional[list] = None
    branes: list = field(default_factory=list)  # (name, kind, payload)
    compute: tuple = SECTIONS
    hom_pairs: Optional[list] = None  # names, or None for all pairs
    degree_bound: Optional[int] = None
    koszul_bound: Optional[int] = None
    c_d: Optional[Fraction] = None
    bulk_scale: Fraction = Fraction(1)
    output: Optional[str] = None

    @classmethod
    def from_dict(cls, raw: dict) -> "JobSpec":
        if not isinstance(raw, dict):
            raise ValidationError("job file must contain a JSON object")
        known = {
            "variables",
            "superpotential",
            "weights",
            "branes",
            "compute",
            "hom_pairs",
            "degree_bound",
            "koszul_bound",
            "normalization",
            "output",
        }
        for key in raw:
            if key not in known:
                raise ValidationError(f"unknown job field {key!r}")
        variables = raw.get("variables")
        if (
            not isinstance(variables, list)
            or not variables
            or not all(isinstance(v, str) for v in variables)
        ):
            raise ValidationError("'variables' must be a non-empty list of names")
        try:
            PolyRing(variables)
        except ValueError as exc:
            raise ValidationError(f"'variables': {exc}") from exc
        superpotential = raw.get("superpotential")
        if not isinstance(superpotential, str):
            raise ValidationError("'superpotential' must be a polynomial string")
        weights = raw.get("weights")
        if weights is not None:
            if not _is_list_of(weights, int) or not all(w > 0 for w in weights):
                raise ValidationError("'weights' must be positive integers")
        entries = raw.get("branes", [])
        if not isinstance(entries, list):
            raise ValidationError("'branes' must be a list of brane objects")
        branes = []
        seen = set()
        for entry in entries:
            if not isinstance(entry, dict) or "name" not in entry:
                raise ValidationError("each brane needs a 'name'")
            name = entry["name"]
            if not isinstance(name, str):
                raise ValidationError(f"brane name {name!r} must be a string")
            if name in seen:
                raise ValidationError(f"duplicate brane name {name!r}")
            seen.add(name)
            if "pairs" in entry and ("d01" in entry or "d10" in entry):
                raise ValidationError(
                    f"brane {name!r} gives both 'pairs' and 'd01'/'d10'"
                )
            fields = _BRANE_FIELDS["pairs" if "pairs" in entry else "matrices"]
            for key in entry:
                if key not in fields:
                    raise ValidationError(f"brane {name!r}: unknown field {key!r}")
            if "pairs" in entry:
                pairs = entry["pairs"]
                if not isinstance(pairs, list) or not all(
                    _is_list_of(p, str) and len(p) == 2 for p in pairs
                ):
                    raise ValidationError(
                        f"brane {name!r}: 'pairs' must be a list of "
                        "[a, b] polynomial strings"
                    )
                branes.append((name, "pairs", pairs))
            elif "d01" in entry and "d10" in entry:
                payload = {
                    "d01": entry["d01"],
                    "d10": entry["d10"],
                    "weights0": entry.get("weights0"),
                    "weights1": entry.get("weights1"),
                }
                for block in ("d01", "d10"):
                    if not isinstance(payload[block], list) or not all(
                        _is_list_of(row, str) for row in payload[block]
                    ):
                        raise ValidationError(
                            f"brane {name!r}: {block!r} must be a list of rows "
                            "of polynomial strings"
                        )
                for label in ("weights0", "weights1"):
                    value = payload[label]
                    if value is not None and not _is_list_of(value, int):
                        raise ValidationError(
                            f"brane {name!r}: {label!r} must be a list of integers"
                        )
                branes.append((name, "matrices", payload))
            else:
                raise ValidationError(
                    f"brane {name!r} needs either 'pairs' or 'd01'+'d10'"
                )
        compute = raw.get("compute", "all")
        if compute == "all":
            compute = SECTIONS
        elif isinstance(compute, str):
            compute = (compute,)
        elif isinstance(compute, list):
            compute = tuple(compute)
        else:
            raise ValidationError("'compute' must be a section name or list")
        for section in compute:
            if section not in SECTIONS:
                raise ValidationError(f"unknown compute section {section!r}")
        hom_pairs = raw.get("hom_pairs")
        if hom_pairs is not None:
            if not isinstance(hom_pairs, list):
                raise ValidationError("'hom_pairs' must be a list of name pairs")
            for pair in hom_pairs:
                if not (_is_list_of(pair, str) and len(pair) == 2):
                    raise ValidationError("'hom_pairs' entries must be [a, b] names")
                for name in pair:
                    if name not in seen:
                        raise ValidationError(
                            f"hom_pairs references undefined brane {name!r}"
                        )
        normalization = raw.get("normalization", {})
        if not isinstance(normalization, dict):
            raise ValidationError("'normalization' must be an object")
        for key in normalization:
            if key not in ("c_d", "bulk_scale"):
                raise ValidationError(f"unknown normalization field {key!r}")
        c_d = normalization.get("c_d")
        c_d = _constant("c_d", c_d) if c_d is not None else None
        bulk_scale = _constant("bulk_scale", normalization.get("bulk_scale", "1"))
        degree_bound = raw.get("degree_bound")
        koszul_bound = raw.get("koszul_bound")
        for label, value in (("degree_bound", degree_bound), ("koszul_bound", koszul_bound)):
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 0
            ):
                raise ValidationError(f"'{label}' must be a non-negative integer")
        output = raw.get("output")
        if output is not None and not isinstance(output, str):
            raise ValidationError("'output' must be a path string")
        return cls(
            variables=variables,
            superpotential=superpotential,
            weights=weights,
            branes=branes,
            compute=compute,
            hom_pairs=hom_pairs,
            degree_bound=degree_bound,
            koszul_bound=koszul_bound,
            c_d=c_d,
            bulk_scale=bulk_scale,
            output=output,
        )

    def echo(self) -> dict:
        return {
            "variables": list(self.variables),
            "superpotential": self.superpotential,
            "weights": list(self.weights) if self.weights else None,
            "branes": [
                {"name": name, "kind": kind} for name, kind, _ in self.branes
            ],
            "compute": list(self.compute),
            "hom_pairs": self.hom_pairs,
            "degree_bound": self.degree_bound,
            "koszul_bound": self.koszul_bound,
            "normalization": {
                "c_d": str(self.c_d) if self.c_d is not None else None,
                "bulk_scale": str(self.bulk_scale),
            },
        }


# the fields of a brane object, by its kind
_BRANE_FIELDS = {
    "pairs": {"name", "pairs"},
    "matrices": {"name", "d01", "d10", "weights0", "weights1"},
}


def _is_list_of(value, kind) -> bool:
    """value is a list whose items are all of type kind (bool is no int)."""
    return isinstance(value, list) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in value
    )


def _constant(label, value) -> Fraction:
    """A normalization constant: an integer or a numeric string (bool is no
    number).  A JSON float is refused: it arrives as its binary expansion
    (0.1 as 3602879701896397/36028797018963968), not as the decimal written.
    So is exponent notation, which Fraction expands before any check can
    run: "1e999999999" has a billion digits."""
    if isinstance(value, float):
        hint = ""
        if math.isfinite(value):
            shown = "" if "e" in repr(value) else f'"{value!r}" or '  # 1e-05 is refused
            hint = f': write {shown}"{Fraction(repr(value))}"'
        raise ValidationError(
            f"normalization {label!r} is a JSON float, not an exact number{hint}"
        )
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValidationError(
            f"normalization {label!r} must be an integer or a numeric string"
        )
    if isinstance(value, str) and re.search(r"[\d.][eE]", value):
        raise ValidationError(f"normalization {label!r} uses exponent notation")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"bad normalization constant: {exc}") from exc


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in the file at path.  ValidationError, naming what the
    file is, when it cannot be read, is not JSON or holds no object."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} must contain a JSON object")
    return raw


def load_job(path: str) -> JobSpec:
    return JobSpec.from_dict(read_json_object(path, "job file"))


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _build_lg(spec: JobSpec) -> LGPair:
    try:
        return make_lg_pair(spec.variables, spec.superpotential, spec.weights)
    except LGError as exc:
        raise ValidationError(str(exc)) from exc


def _build_branes(spec: JobSpec, lg: LGPair):
    named = []
    for name, kind, payload in spec.branes:
        try:
            named.append((name, _build_brane(lg, kind, payload)))
        except (ParseError, FactorizationError, ShapeError) as exc:
            raise ValidationError(f"brane {name!r}: {exc}") from exc
    return named


def _build_brane(lg: LGPair, kind: str, payload):
    if kind == "pairs":
        return koszul_factorization(lg, payload)
    ring = lg.ring
    d01 = PolyMatrix(ring, [[ring.parse(p) for p in row] for row in payload["d01"]])
    d10 = PolyMatrix(ring, [[ring.parse(p) for p in row] for row in payload["d10"]])
    return make_factorization(
        lg, d01, d10, payload.get("weights0"), payload.get("weights1")
    )


def _koszul_default_bound(lg: LGPair) -> int:
    if lg.weights is not None:
        return 2 * lg.weighted_degree + 4
    return 2 * lg.w.total_degree() + 4


def _run_jacobi(spec: JobSpec, lg: LGPair) -> dict:
    gb = lg.jacobi_basis
    finite = gb.is_zero_dimensional()
    out = {
        "finite_critical_set": finite,
        "groebner_basis": [str(g) for g in gb.generators],
    }
    if not finite:
        out["milnor_number"] = None
        out["note"] = "critical set not finite; see the koszul section"
        return out
    algebra = lg.jacobi_algebra
    out["milnor_number"] = algebra.dimension
    variables = lg.ring.variables  # each basis element printed off its exponents
    out["basis"] = [_mono_str(exps, variables) or "1" for exps in algebra.basis]
    if algebra.dimension:
        trace = residue_trace(lg, scale=spec.bulk_scale)
        out["trace"] = [str(v) for v in trace.values]
        mu = algebra.dimension
        gram = out["gram"] = [["0"] * mu for _ in range(mu)]
        for line, row in zip(gram, trace.gram.rows):
            for j, value in row.items():  # the rows store nonzeros only
                line[j] = str(value)
    return out


def _run_koszul(spec: JobSpec, lg: LGPair, lg_text: str, cache: Cache) -> dict:
    """lg_text is key_part(list(lg.key())), which the job serializes once."""
    bound = (
        spec.koszul_bound
        if spec.koszul_bound is not None
        else (spec.degree_bound if spec.degree_bound is not None
              else _koszul_default_bound(lg))
    )
    key = compose_key(lg_text, key_part(bound))
    payload = cache.get("koszul", key)
    if payload is None:
        table = koszul_cohomology(lg, bound)
        vanishing = check_vanishing_negative_degrees(lg, bound)
        payload = {
            "table": table.to_jsonable(),
            "vanishing": vanishing.to_jsonable(),
        }
        cache.put("koszul", key, payload)
    return payload


def _run_homs(spec: JobSpec, lg_text: str, named, cache: Cache, homs) -> dict:
    """homs, when not None, collects the Hom spaces computed here.  Each
    Hom's key is [LG pair, source, target, degree bound]; every part is
    serialized once, and lg_text is the LG pair's, key_part(list(lg.key()))."""
    by_name = dict(named)
    if spec.hom_pairs is not None:
        pairs = [(a, b) for a, b in spec.hom_pairs]
    else:
        pairs = [(a, b) for a, _ in named for b, _ in named]
    brane_texts = {
        name: key_part(_hom_brane_key(brane)) for name, brane in named
    }
    bound_text = key_part(spec.degree_bound)
    out = {}
    for a, b in pairs:
        key = compose_key(lg_text, brane_texts[a], brane_texts[b], bound_text)
        # tft needs the Hom spaces themselves, which no payload holds
        payload = cache.get("hom", key) if homs is None else None
        if payload is None:
            hom = hom_cohomology(by_name[a], by_name[b], spec.degree_bound)
            if homs is not None:
                homs[(a, b)] = hom
            payload = {
                "dims": {"even": hom.dim(0), "odd": hom.dim(1)},
                "by_degree": {
                    "even": {str(m): v for m, v in hom.dims_by_degree(0).items()},
                    "odd": {str(m): v for m, v in hom.dims_by_degree(1).items()},
                },
                "mode": "weighted" if hom.graded else "total_degree",
                "bound": hom.bound,
                "stabilized": hom.stabilized,
            }
            cache.put("hom", key, payload)
        out[f"{a}|{b}"] = payload
    return out


def _hom_brane_key(brane) -> list:
    """What a brane gives its Hom tables: its ranks and D's terms, its weights
    (degrees are read in them) and whether it has Koszul pairs (they certify
    the dimensions).  The pairs need no place, as the terms koszul_factorization
    writes hold every a_k and -b_k at fixed entries."""
    has_pairs = brane.pairs is not None
    return [list(brane.key()[1:]), brane.weights0, brane.weights1, has_pairs]


def _run_tft(spec: JobSpec, lg: LGPair, named, homs) -> dict:
    datum = build_tft_datum(
        lg,
        named,
        degree_bound=spec.degree_bound,
        boundary_normalization=spec.c_d,
        bulk_scale=spec.bulk_scale,
        homs=homs,
    )
    report = verify_tft_datum(datum)
    payload = report.to_jsonable()
    payload["parity"] = datum.parity
    payload["c_d"] = str(datum.c_d)
    return payload


def run_job(spec: JobSpec, cache: Optional[Cache] = None) -> dict:
    """Execute every requested section and assemble the report."""
    if cache is None:
        cache = null_cache()
    started = time.time()
    lg = _build_lg(spec)
    branes = _build_branes(spec, lg)
    # Hom spaces outlive the homs section only when the tft section needs them
    homs = {} if "tft" in spec.compute else None
    # the LG pair's part of every cache key, serialized once
    lg_text = key_part(list(lg.key()))
    results = {}
    timing = {}
    for section in SECTIONS:
        if section not in spec.compute:
            continue
        section_start = time.time()
        if section == "jacobi":
            results["jacobi"] = _run_jacobi(spec, lg)
        elif section == "koszul":
            results["koszul"] = _run_koszul(spec, lg, lg_text, cache)
        elif section == "homs":
            results["homs"] = _run_homs(spec, lg_text, branes, cache, homs)
        elif section == "tft":
            try:
                results["tft"] = _run_tft(spec, lg, branes, homs)
            except DegenerateTraceError as exc:
                results["tft"] = {"skipped": str(exc)}
            except ClassBoundError as exc:
                # a windowed Hom with no model X/(c)X (a d01/d10 source, or
                # no c of finite colength) can count more classes than it
                # has, and a composite of them can land outside its window;
                # a graded Hom's bound is the job's to raise
                if all(hom_is_graded(a, b) for _, a in branes for _, b in branes):
                    raise
                results["tft"] = {"skipped": str(exc)}
        timing[section] = round(time.time() - section_start, 6)
    timing["total"] = round(time.time() - started, 6)
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "job": spec.echo(),
        "lg": {
            "variables": list(lg.ring.variables),
            "superpotential": lg.key()[1],  # str(lg.w), as printed for the key
            "weights": list(lg.weights) if lg.weights else None,
            "signature": lg.signature,
        },
        "branes": {
            name: {
                "rank0": obj.rank0,
                "rank1": obj.rank1,
                "graded": obj.graded,
            }
            for name, obj in branes
        },
        "results": results,
        "timing": timing,
    }
    return report


def report_to_text(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) + "\n", byte for byte.

    With an indent, json.dumps runs its pure-Python encoder; this writer
    walks the report with less work per value.  Strings go through json's
    own encode_basestring_ascii, keys are sorted before they become strings,
    as json sorts them, None, bools and ints are written as json writes them,
    and any other value is json.dumps'.  The text is joined once from one
    list of parts, which shares each separator string between its uses.
    """
    parts = []
    _write_json(report, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write_json(value, newline: str, parts: list) -> None:
    """Append to parts the text json.dumps(value, sort_keys=True, indent=2)
    writes, each line after the first starting with newline (a newline and
    the indent of value's own line)."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        separator = "{" + inner
        for key in sorted(value):
            parts.append(separator + encode_basestring_ascii(_json_key(key)) + ": ")
            _write_json(value[key], inner, parts)
            separator = comma
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            if isinstance(item, str):  # most items: the Gram matrix's entries
                parts.append(encode_basestring_ascii(item))
            else:
                _write_json(item, inner, parts)
            separator = comma
        parts.append(newline + "]")
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif type(value) is int:
        parts.append(int.__repr__(value))
    else:
        parts.append(json.dumps(value))


def _json_key(key) -> str:
    """A dict key as json converts it to a string."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


# ---------------------------------------------------------------------------
# diffing
# ---------------------------------------------------------------------------

_IGNORED_TOPLEVEL = ("timing",)


def diff_reports(r1: dict, r2: dict) -> dict:
    """Field-level diff ignoring timing; schema mismatches are flagged."""
    s1, s2 = r1.get("schema_version"), r2.get("schema_version")
    if s1 != s2:
        return {
            "schema_mismatch": {"left": s1, "right": s2},
            "entries": [],
        }
    entries = []

    def walk(path, left, right):
        if path and path[0] in _IGNORED_TOPLEVEL:
            return
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(set(left) | set(right)):
                walk(
                    path + [key],
                    left.get(key, "<absent>"),
                    right.get(key, "<absent>"),
                )
            return
        if isinstance(left, list) and isinstance(right, list):
            if len(left) != len(right):
                entries.append(
                    {
                        "path": ".".join(path),
                        "left": f"<{len(left)} items>",
                        "right": f"<{len(right)} items>",
                    }
                )
                return
            for k, (a, b) in enumerate(zip(left, right)):
                walk(path + [str(k)], a, b)
            return
        if left != right:
            entries.append(
                {"path": ".".join(path), "left": left, "right": right}
            )

    walk([], r1, r2)
    return {"schema_mismatch": None, "entries": entries}
