"""Job files, reports, diffing, caching, and the command-line interface."""

import copy
import gc
import inspect
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lgtft.groebner
import lgtft.jacobi
import lgtft.jobs
import lgtft.tft
from lgtft.cache import Cache
from lgtft.cli import main
from lgtft.errors import ValidationError
from lgtft.jacobi import JacobiAlgebra
from lgtft.jobs import JobSpec, diff_reports, load_job, report_to_text, run_job
from both_modes import run_both_modes
from test_reference_reports import CACHE_TWINS, JOBS as REFERENCE_JOBS


def _basic_job(**overrides):
    raw = {
        "variables": ["x"],
        "superpotential": "x^3",
        "branes": [{"name": "M1", "pairs": [["x", "x^2"]]}],
        "compute": "all",
    }
    raw.update(overrides)
    return raw


def _strip_timing(report):
    out = dict(report)
    out.pop("timing", None)
    return out


def test_run_job_jacobi_section():
    spec = JobSpec.from_dict(
        {"variables": ["x"], "superpotential": "x^3", "compute": "jacobi"}
    )
    report = run_job(spec)
    section = report["results"]["jacobi"]
    assert section["milnor_number"] == 2
    assert section["basis"] == ["1", "x"]
    assert section["trace"] == ["0", "1/3"]
    assert "koszul" not in report["results"]


def test_run_job_full_pipeline():
    spec = JobSpec.from_dict(_basic_job())
    report = run_job(spec)
    tft = report["results"]["tft"]
    assert tft["passed"] is True
    assert all(
        clause["status"] in ("pass", "skipped") for clause in tft["clauses"]
    )
    assert report["results"]["homs"]["M1|M1"]["dims"] == {"even": 1, "odd": 1}
    assert report["schema_version"] == "1"


def test_undefined_brane_reference_names_it():
    raw = _basic_job(hom_pairs=[["M1", "b7"]])
    with pytest.raises(ValidationError) as err:
        JobSpec.from_dict(raw)
    assert "b7" in str(err.value)


def test_duplicate_brane_names_rejected():
    raw = _basic_job(
        branes=[
            {"name": "M1", "pairs": [["x", "x^2"]]},
            {"name": "M1", "pairs": [["x^2", "x"]]},
        ]
    )
    with pytest.raises(ValidationError):
        JobSpec.from_dict(raw)


def test_unknown_field_rejected():
    with pytest.raises(ValidationError) as err:
        JobSpec.from_dict(_basic_job(typo_field=1))
    assert "typo_field" in str(err.value)


def test_compute_all_builds_each_hom_space_once(monkeypatch):
    calls = []
    original = lgtft.jobs.hom_cohomology

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(lgtft.jobs, "hom_cohomology", counting)
    monkeypatch.setattr(lgtft.tft, "hom_cohomology", counting)
    spec = JobSpec.from_dict(
        _basic_job(
            branes=[
                {"name": "M1", "pairs": [["x", "x^2"]]},
                {"name": "M2", "pairs": [["x^2", "x"]]},
            ]
        )
    )
    report = run_job(spec)
    assert len(calls) == 4
    assert len(report["results"]["homs"]) == 4
    assert report["results"]["tft"]["passed"] is True


def test_determinism_across_runs_and_cache_states(tmp_path):
    spec = JobSpec.from_dict(_basic_job())
    plain = run_job(spec)
    cache = Cache(tmp_path / "cache")
    cold = run_job(spec, cache)  # populates the cache
    warm = run_job(spec, cache)  # replays from the cache
    texts = {
        report_to_text(_strip_timing(r)) for r in (plain, cold, warm)
    }
    assert len(texts) == 1


def test_stale_groebner_cache_entry_is_never_read(tmp_path):
    """A Groebner entry under the key older versions read, rewritten to the
    wrong basis ["x"] for W = x^3, leaves the jacobi report as it is without
    a cache, plain and under python -O: the basis is always computed."""
    script = """
import json, sys
from lgtft.cache import Cache
from lgtft.jobs import JobSpec, run_job

cache = Cache(sys.argv[1])
cache.put("groebner", [["x"], "grevlex", ["3*x^2"]], ["x"])
spec = JobSpec.from_dict(
    {"variables": ["x"], "superpotential": "x^3", "compute": "jacobi"}
)
cached, plain = run_job(spec, cache), run_job(spec)
print(json.dumps(cached["results"] == plain["results"]))
"""
    for flags, stdout in run_both_modes(script, str(tmp_path)).items():
        assert json.loads(stdout) is True, flags


def test_compute_all_builds_one_jacobi_algebra(monkeypatch):
    built = []
    original = JacobiAlgebra.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(JacobiAlgebra, "__init__", counting)
    report = run_job(JobSpec.from_dict(_basic_job()))
    assert report["results"]["tft"]["passed"] is True
    assert len(built) == 1


# the two rank-2|2 branes of the ROADMAP baseline datum on x^4+y^4
_BASELINE_JOB = {
    "variables": ["x", "y"],
    "superpotential": "x^4+y^4",
    "branes": [
        {"name": "A", "pairs": [["x", "x^3"], ["y", "y^3"]]},
        {"name": "B", "pairs": [["x^2", "x^2"], ["y", "y^3"]]},
    ],
}


@pytest.mark.parametrize("compute", ["all", ["homs", "tft"]])
def test_default_bound_job_computes_one_jacobi_basis(monkeypatch, compute):
    """The jacobi section, every default Hom bound and the tft bulk read the
    basis the LG pair keeps: Buchberger runs once on the Jacobi partials."""
    lg = lgtft.jobs.make_lg_pair(["x", "y"], "x^4+y^4")
    partials = [p for p in lg.partials() if not p.is_zero()]
    runs = []
    original = lgtft.groebner.buchberger

    def counting(generators):
        runs.append(list(generators) == partials)
        return original(generators)

    monkeypatch.setattr(lgtft.groebner, "buchberger", counting)
    report = run_job(JobSpec.from_dict({**_BASELINE_JOB, "compute": compute}))
    assert report["results"]["tft"]["passed"] is True
    assert runs.count(True) == 1


def test_compute_all_computes_the_residue_trace_once(monkeypatch):
    """The jacobi and tft sections both ask for the trace, and share the one
    the LG pair keeps for the job's scale: one Bezoutian per job."""
    computed = []
    original = lgtft.jacobi._bezoutian_rows

    def counting(partials, d):
        computed.append(" + ".join(str(p) for p in partials))
        return original(partials, d)

    monkeypatch.setattr(lgtft.jacobi, "_bezoutian_rows", counting)
    report = run_job(JobSpec.from_dict({**_BASELINE_JOB, "compute": "all"}))
    assert report["results"]["tft"]["passed"] is True
    assert computed == ["4*x^3 + 4*y^3"]


def test_each_koszul_source_computes_its_ideal_once(monkeypatch):
    """Every Hom out of a Koszul brane reads the Groebner basis of its ideal
    (c) that the brane keeps: two sources, four Homs, two Buchberger runs
    besides the Jacobi ideal's."""
    lg = lgtft.jobs.make_lg_pair(["x", "y"], "x^4+y^4")
    partials = [p for p in lg.partials() if not p.is_zero()]
    runs = []
    original = lgtft.groebner.buchberger

    def counting(generators):
        runs.append(list(generators) == partials)
        return original(generators)

    monkeypatch.setattr(lgtft.groebner, "buchberger", counting)
    report = run_job(JobSpec.from_dict({**_BASELINE_JOB, "compute": "all"}))
    assert len(report["results"]["homs"]) == 4
    assert runs.count(True) == 1
    assert runs.count(False) == 2


def test_baseline_job_enumerates_three_staircases(monkeypatch):
    """One staircase for W and one per distinct source ideal (c): the
    Jacobi algebra serves every default Hom bound, and each Koszul source
    keeps its R/(c), whose M_k both models into the two branes read.  The
    job made 9 enumerations and 112 normal forms when each Hom bound and
    each model enumerated its own staircase and built its own M_k."""
    counts = {"standard_monomials": 0, "normal_form": 0}
    for name in counts:
        original = getattr(lgtft.groebner.GroebnerBasis, name)

        def counting(self, *args, name=name, original=original):
            counts[name] += 1
            return original(self, *args)

        monkeypatch.setattr(lgtft.groebner.GroebnerBasis, name, counting)
    report = run_job(JobSpec.from_dict({**_BASELINE_JOB, "compute": "all"}))
    assert report["results"]["tft"]["passed"] is True
    assert counts["standard_monomials"] == 3
    assert counts["normal_form"] <= 106


def test_cli_lifted_windowed_end_passes_the_tft_section(tmp_path, capsys):
    """End((x^2, x^3+y^2)(y, y^4)) on x^5+y^5+x^2*y^2 has 4|4 classes, lifted
    from X/(c)X.  Its window counted 12|12, and a composite of two of those
    classes landed outside it, so the tft section was skipped; now the Hom
    is stabilized at 4|4 and every clause of the tft section passes, with
    exit 0."""
    raw = {
        "variables": ["x", "y"],
        "superpotential": "x^5+y^5+x^2*y^2",
        "branes": [{"name": "E", "pairs": [["x^2", "x^3+y^2"], ["y", "y^4"]]}],
        "compute": "all",
    }
    out = tmp_path / "report.json"
    assert main(["run", _write_job(tmp_path, raw), "--no-cache", "--output", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    hom = results["homs"]["E|E"]
    assert (hom["dims"], hom["stabilized"]) == ({"even": 4, "odd": 4}, True)
    assert "skipped" not in results["tft"]
    assert results["tft"]["passed"] is True


def test_cli_graded_bound_too_small_for_the_tft_section_exits_1(tmp_path, capsys):
    """In a graded job a composite above the job's own degree_bound is the
    job's to mend: the run fails and asks for a larger bound."""
    raw = {
        "variables": ["x", "y"],
        "superpotential": "x^4+y^4",
        "branes": [{"name": "A", "pairs": [["x", "x^3"], ["y", "y^3"]]}],
        "compute": "all",
        "degree_bound": 2,
    }
    out = tmp_path / "report.json"
    assert main(["run", _write_job(tmp_path, raw), "--no-cache", "--output", str(out)]) == 1
    assert "recompute with a larger bound" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "compute", [["jacobi", "koszul", "homs"], "all"], ids=["graded", "tft"]
)
def test_finished_job_frees_its_lg_pair_without_gc(monkeypatch, compute):
    """The LG pair keeps its Jacobi basis and algebra, and nothing it keeps
    refers back to it: with the cycle collector off, reference counting
    frees the pair of a finished job."""
    freed = []
    build = lgtft.jobs._build_lg

    def tracked(spec):
        lg = build(spec)
        weakref.finalize(lg, freed.append, "freed")
        return lg

    monkeypatch.setattr(lgtft.jobs, "_build_lg", tracked)
    spec = JobSpec.from_dict({**_BASELINE_JOB, "compute": compute})
    gc.disable()
    try:
        report = run_job(spec)
        assert report["results"]["jacobi"]["milnor_number"] == 9
        assert freed == ["freed"]
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "extra,code,message",
    [
        ({"compute": ["jacobi", "homs"]}, 2, "supply an explicit degree bound"),
        (
            {"compute": ["jacobi", "homs", "tft"], "degree_bound": 4},
            1,
            "the critical set of W is not finite",
        ),
    ],
)
def test_infinite_critical_set_computes_one_groebner_basis(
    tmp_path, capsys, monkeypatch, extra, code, message
):
    runs = []
    original = lgtft.groebner.buchberger

    def counting(*args, **kwargs):
        runs.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lgtft.groebner, "buchberger", counting)
    raw = {
        "variables": ["x", "y"],
        "superpotential": "x^2*y",
        "branes": [{"name": "B", "pairs": [["x", "x*y"]]}],
        **extra,
    }
    assert main(["run", _write_job(tmp_path, raw), "--no-cache"]) == code
    assert message in capsys.readouterr().err
    assert len(runs) == 1


def test_diff_identical_is_empty():
    spec = JobSpec.from_dict(_basic_job())
    r1, r2 = run_job(spec), run_job(spec)
    outcome = diff_reports(r1, r2)
    assert outcome["schema_mismatch"] is None
    assert outcome["entries"] == []


def test_diff_normalization_touches_traces_not_dimensions():
    spec1 = JobSpec.from_dict(_basic_job())
    spec2 = JobSpec.from_dict(
        _basic_job(normalization={"bulk_scale": "2"})
    )
    r1, r2 = run_job(spec1), run_job(spec2)
    outcome = diff_reports(r1, r2)
    paths = [entry["path"] for entry in outcome["entries"]]
    assert paths  # something differs
    for path in paths:
        assert not path.startswith("results.homs")
        assert not path.startswith("results.koszul.table.dims")
        assert "milnor" not in path
    assert any(
        "trace" in p or "gram" in p or "cardy" in p or "normalization" in p
        for p in paths
    )


def test_diff_degree_bound_change_leaves_stable_rows_alone():
    spec1 = JobSpec.from_dict(_basic_job(compute="koszul", koszul_bound=12))
    spec2 = JobSpec.from_dict(_basic_job(compute="koszul", koszul_bound=14))
    r1, r2 = run_job(spec1), run_job(spec2)
    outcome = diff_reports(r1, r2)
    paths = [entry["path"] for entry in outcome["entries"]]
    assert paths
    for path in paths:
        # stabilized weighted tables only move their bound echoes, not dims
        assert "bound" in path, path


def test_diff_schema_mismatch_reported():
    spec = JobSpec.from_dict(_basic_job(compute="jacobi"))
    r1, r2 = run_job(spec), run_job(spec)
    r2["schema_version"] = "999"
    outcome = diff_reports(r1, r2)
    assert outcome["schema_mismatch"] == {"left": "1", "right": "999"}


def test_load_job_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_job(str(path))


# -- CLI ----------------------------------------------------------------------


def _write_job(tmp_path, raw):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_run_writes_report(tmp_path, capsys):
    job = _write_job(tmp_path, _basic_job(compute="jacobi"))
    out = tmp_path / "report.json"
    code = main(
        ["run", job, "--output", str(out), "--cache-dir", str(tmp_path / "c")]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["jacobi"]["milnor_number"] == 2


def test_cli_run_stdout_and_no_cache(tmp_path, capsys):
    job = _write_job(tmp_path, _basic_job(compute="jacobi"))
    code = main(["run", job, "--no-cache"])
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["results"]["jacobi"]["basis"] == ["1", "x"]


def test_cli_validation_error_exit_code(tmp_path, capsys):
    job = _write_job(
        tmp_path, _basic_job(hom_pairs=[["M1", "b7"]])
    )
    code = main(["run", job])
    assert code == 2
    assert "b7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "brane,message",
    [
        ({"name": "B", "pairs": [["x", "x^+"]]}, "brane 'B'"),
        ({"name": "B", "pairs": [["x", "x"]]}, "brane 'B'"),
        ({"name": ["B"], "pairs": [["x", "x^2"]]}, "must be a string"),
        ({"name": "B", "d01": "xx", "d10": [["x^2"]]}, "brane 'B'"),
        (
            {"name": "B", "pairs": [["x", "x^2"]], "weights_0": [0]},
            "brane 'B': unknown field 'weights_0'",
        ),
        (
            {"name": "B", "pairs": [["x", "x^2"]], "d01": [["x"]]},
            "brane 'B' gives both 'pairs' and 'd01'/'d10'",
        ),
        (
            {"name": "B", "d01": [["x"]], "d10": [["x"]], "weight0": [0]},
            "brane 'B': unknown field 'weight0'",
        ),
    ],
)
def test_cli_malformed_brane_is_validation_error(tmp_path, capsys, brane, message):
    job = _write_job(tmp_path, _basic_job(branes=[brane]))
    assert main(["run", job, "--no-cache"]) == 2
    assert message in capsys.readouterr().err


def test_cli_superscript_exponent_is_validation_error(tmp_path, capsys):
    """x^² once raised ValueError from int(), so lgtft run exited 1."""
    job = _write_job(tmp_path, _basic_job(superpotential="x^²"))
    assert main(["run", job, "--no-cache"]) == 2
    assert "unexpected character" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"superpotential": "x^6/2"},
        {"branes": [{"name": "M1", "pairs": [["x", "x^4/2"]]}]},
    ],
)
def test_cli_p_over_q_exponent_is_validation_error(tmp_path, capsys, overrides):
    """x^6/2 once parsed as x^3 and x^4/2 as x^2, so both jobs ran."""
    job = _write_job(tmp_path, _basic_job(**overrides))
    assert main(["run", job, "--no-cache"]) == 2
    assert "exponent must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"branes": 5}, "'branes' must be a list"),
        ({"normalization": {"c_d": [1]}}, "normalization 'c_d'"),
        ({"normalization": {"bulk_scale": None}}, "normalization 'bulk_scale'"),
        ({"normalization": {"bulk_scale": True}}, "normalization 'bulk_scale'"),
        ({"variables": ["x", "x"]}, "duplicate variable name 'x'"),
        ({"variables": [""]}, "invalid variable name ''"),
        ({"variables": ["i"]}, "imaginary unit"),
        ({"degree_bound": True}, "'degree_bound' must be"),
        ({"koszul_bound": True}, "'koszul_bound' must be"),
        ({"weights": [True]}, "'weights' must be"),
        ({"normalization": {"bulk_scale": 0.1}}, 'write "0.1" or "1/10"'),
        (
            {"normalization": {"c_D": "1/2", "bulk_scal": 3}},
            "unknown normalization field 'c_D'",
        ),
    ],
)
def test_cli_malformed_job_is_validation_error(tmp_path, capsys, overrides, message):
    job = _write_job(tmp_path, _basic_job(**overrides))
    assert main(["run", job, "--no-cache"]) == 2
    assert message in capsys.readouterr().err


_DROP = object()
_FUZZ_POOL = [
    None, True, False, 0, -1, 2, 1.5, "", "x", "x^+", "zz",
    [], [1], [True], ["x"], [["x", "x^2"]], {}, {"name": "B"},
]
_FUZZ_PATHS = [
    ("variables",), ("superpotential",), ("weights",), ("branes",),
    ("compute",), ("hom_pairs",), ("degree_bound",), ("koszul_bound",),
    ("normalization",), ("output",), ("branes", 0), ("branes", 0, "name"),
    ("branes", 0, "pairs"), ("branes", 0, "d01"), ("normalization", "c_d"),
    ("normalization", "bulk_scale"),
]


def _mutate(raw, path, value):
    """Drop or set the entry at path, when its parent is still there."""
    parent = raw
    try:
        for key in path[:-1]:
            parent = parent[key]
        if value is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass  # an earlier mutation removed or retyped the parent


@given(
    st.lists(
        st.tuples(
            st.sampled_from(_FUZZ_PATHS),
            st.one_of(st.just(_DROP), st.sampled_from(_FUZZ_POOL)),
        ),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_fuzzed_job_exits_0_1_or_2(tmp_path_factory, mutations):
    """Dropped keys and wrong-typed values on a cheap job (x^3, one brane)
    give an exit code, never an exception."""
    raw = _basic_job(normalization={"c_d": "1", "bulk_scale": "1"})
    for path, value in mutations:
        _mutate(raw, path, value)
    directory = tmp_path_factory.mktemp("fuzz")
    job = _write_job(directory, raw)
    out = str(directory / "report.json")
    assert main(["run", job, "--no-cache", "--output", out]) in (0, 1, 2)


def test_jacobi_and_koszul_job_builds_no_multiplication_table(monkeypatch):
    """Only the tft clauses read M_k and the table; the jacobi section
    prints the basis and the trace without them."""
    algebras = []
    init = JacobiAlgebra.__init__

    def recording(self, *args):
        init(self, *args)
        algebras.append(self)

    def refuse(self):
        raise RuntimeError("the multiplication table was built")

    monkeypatch.setattr(JacobiAlgebra, "__init__", recording)
    monkeypatch.setattr(JacobiAlgebra, "_build_table", refuse)
    spec = JobSpec.from_dict({
        "variables": ["x", "y"],
        "superpotential": "x^4+y^4",
        "compute": ["jacobi", "koszul"],
    })
    report = run_job(spec)
    assert report["results"]["jacobi"]["milnor_number"] == 9
    assert len(report["results"]["jacobi"]["gram"]) == 9
    assert [(a._mult, a._table) for a in algebras] == [(None, None)]


def test_tft_job_builds_the_multiplication_table_once(monkeypatch):
    """The jacobi and tft sections share one algebra, so the ROADMAP baseline
    datum builds its table once."""
    calls = []
    build = JacobiAlgebra._build_table

    def counting(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(JacobiAlgebra, "_build_table", counting)
    spec = JobSpec.from_dict({
        "variables": ["x", "y"],
        "superpotential": "x^4+y^4",
        "branes": [
            {"name": "A", "pairs": [["x", "x^3"], ["y", "y^3"]]},
            {"name": "B", "pairs": [["x^2", "x^2"], ["y", "y^3"]]},
        ],
        "compute": "all",
    })
    assert run_job(spec)["results"]["tft"]["passed"] is True
    assert len(calls) == 1


def test_cli_brane_free_job_runs_the_bulk_clauses(tmp_path, capsys):
    raw = {
        "variables": ["x", "y", "z"],
        "superpotential": "x^5+y^5+z^5",
        "compute": "all",
    }
    job = _write_job(tmp_path, raw)
    out = tmp_path / "report.json"
    assert main(["run", job, "--output", str(out), "--no-cache"]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["homs"] == {}
    tft = report["results"]["tft"]
    bulk = [c for c in tft["clauses"] if c["name"].startswith("bulk_")]
    assert len(bulk) == 5
    assert all(clause["status"] == "pass" for clause in bulk)
    # the same clauses as the library's verdict on the brane-free datum
    from lgtft.lgpair import make_lg_pair

    lg = make_lg_pair(raw["variables"], raw["superpotential"])
    library = lgtft.tft.verify_tft_datum(lgtft.tft.build_tft_datum(lg, []))
    assert tft["clauses"] == library.to_jsonable()["clauses"]


def test_cli_missing_job_file_is_validation_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.json")])
    assert code == 2


def test_cli_normalization_override(tmp_path, capsys):
    job = _write_job(tmp_path, _basic_job(compute="jacobi"))
    code = main(
        ["run", job, "--no-cache", "--normalization", "bulk_scale=3"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["jacobi"]["trace"] == ["0", "1"]


def test_cli_normalization_does_not_leak_into_the_next_call(tmp_path, capsys):
    """main keeps one parser per process; an override is read by its own
    call only."""
    job = _write_job(tmp_path, _basic_job(compute="jacobi"))
    traces = []
    for extra in (["--normalization", "bulk_scale=3"], []):
        assert main(["run", job, "--no-cache", *extra]) == 0
        traces.append(json.loads(capsys.readouterr().out)["results"]["jacobi"]["trace"])
    assert traces == [["0", "1"], ["0", "1/3"]]


def test_cli_bad_normalization(tmp_path, capsys):
    job = _write_job(tmp_path, _basic_job(compute="jacobi"))
    assert main(["run", job, "--normalization", "c_d"]) == 2
    assert main(["run", job, "--normalization", "mystery=1"]) == 2


_LONG = "1" * 5000  # past int()'s 4300-digit limit on str conversion


@pytest.mark.parametrize(
    "overrides",
    [
        {"superpotential": f"x^3+{_LONG}*x^4"},
        {"branes": [{"name": "M1", "pairs": [["x", f"x^2+{_LONG}*x^3"]]}]},
    ],
    ids=["superpotential", "brane pair"],
)
def test_cli_long_integer_literal_is_validation_error(tmp_path, capsys, overrides):
    """A literal int() refuses to read is a parse error, not a crash."""
    job = _write_job(tmp_path, _basic_job(**overrides))
    assert main(["run", job, "--no-cache"]) == 2
    assert "5000-digit literal is too long" in capsys.readouterr().err


def test_cli_exponent_notation_constant_is_validation_error(tmp_path, capsys):
    """1e5000 once parsed, and printing the trace it scales failed with exit
    1; it is refused in the job file and on the command line alike."""
    raw = _basic_job(compute="jacobi", normalization={"bulk_scale": "1e5000"})
    job = _write_job(tmp_path, raw)
    assert main(["run", job, "--no-cache"]) == 2
    assert "'bulk_scale' uses exponent notation" in capsys.readouterr().err
    job = _write_job(tmp_path, _basic_job(compute="jacobi"))
    assert main(["run", job, "--no-cache", "--normalization", "c_d=1e5000"]) == 2
    assert "'c_d' uses exponent notation" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e999999999", "1E5", "2.5e-3", ".5e1", "1.e2"])
def test_exponent_notation_is_refused_before_fraction_expands_it(value):
    """The check runs first: Fraction would compute 10^999999999."""
    with pytest.raises(ValidationError, match="exponent notation"):
        lgtft.jobs._constant("bulk_scale", value)


def test_compute_all_job_reads_no_hom_payload(tmp_path):
    """A job whose compute includes tft builds its Homs in the homs section,
    where tft finds them, and reads no Hom payload from the cache: a
    tampered entry does not reach its report.  It still writes the entries
    over, and a homs-only job reads them."""
    cache = Cache(tmp_path / "cache")
    spec = JobSpec.from_dict(_basic_job())
    clean = _strip_timing(run_job(spec, cache))
    entries = sorted((tmp_path / "cache").glob("hom-*.json"))
    assert entries

    def tampered():
        """Set every entry's even dimension to 99; return the ones found."""
        found = []
        for path in entries:
            record = json.loads(path.read_text())
            found.append(record["payload"]["dims"]["even"])
            record["payload"]["dims"]["even"] = 99
            path.write_text(json.dumps(record))
        return found

    tampered()
    assert _strip_timing(run_job(spec, cache)) == clean
    assert tampered() == [clean["results"]["homs"]["M1|M1"]["dims"]["even"]]
    homs_only = run_job(JobSpec.from_dict(_basic_job(compute=["homs"])), cache)
    assert [p["dims"]["even"] for p in homs_only["results"]["homs"].values()] == [99]


def test_cli_diff_and_clean_cache(tmp_path, capsys):
    job = _write_job(tmp_path, _basic_job(compute="jacobi"))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cache_dir = tmp_path / "cache"
    assert main(["run", job, "--output", str(out1), "--cache-dir", str(cache_dir)]) == 0
    assert main(["run", job, "--output", str(out2), "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    assert main(["diff", str(out1), str(out2)]) == 0
    assert json.loads(capsys.readouterr().out) == []
    assert main(["clean-cache", "--cache-dir", str(cache_dir)]) == 0
    assert "removed" in capsys.readouterr().out
    assert not list(Path(cache_dir).glob("*.json"))


def _inferred_weights(raw):
    """raw with every brane's weights0 and weights1 left out."""
    out = copy.deepcopy(raw)
    for brane in out["branes"]:
        brane.pop("weights0", None)
        brane.pop("weights1", None)
    return out


@pytest.mark.parametrize("twin", sorted(CACHE_TWINS))
def test_cli_cached_hom_tables_follow_weights_and_pairs(tmp_path, capsys, twin):
    """A job run against a cache filled by a job with the same blocks but
    other weights (x4_shifted after its branes with inferred weights), or
    with Koszul pairs (windowed_overcount_blocks after windowed_overcount),
    reports its own Hom tables, not the cached ones."""
    second = CACHE_TWINS[twin]
    if twin == "x4_shifted":
        first = _inferred_weights(second)
    else:
        first = REFERENCE_JOBS["windowed_overcount"]
    cache_dir = str(tmp_path / "cache")
    cold, cached = tmp_path / "cold.json", tmp_path / "cached.json"
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert main(["run", _write_job(tmp_path / "a", first), "--cache-dir", cache_dir]) == 0
    job = _write_job(tmp_path / "b", second)
    assert main(["run", job, "--cache-dir", cache_dir, "--output", str(cached)]) == 0
    assert main(["run", job, "--no-cache", "--output", str(cold)]) == 0
    capsys.readouterr()
    homs = json.loads(cached.read_text())["results"]["homs"]
    assert homs == json.loads(cold.read_text())["results"]["homs"]
    if twin == "x4_shifted":
        assert homs["A|B"]["by_degree"]["even"] == {"-4": 1}
        assert homs["B|A"]["by_degree"]["even"] == {"6": 1}
    else:
        assert homs["E|E"]["stabilized"] is True


@pytest.mark.parametrize(
    "content",
    ['[{"schema_version": "1"}]', '{"schema_version": "1", "results": {"ja'],
    ids=["list", "truncated"],
)
def test_cli_diff_malformed_report_exits_2(tmp_path, content):
    """A report whose top level is not an object, or whose JSON is cut short,
    is a validation error on either side of diff, with no traceback."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"schema_version": "1"}')
    bad.write_text(content)
    src = Path(__file__).resolve().parents[1] / "src"
    for left, right in ((bad, good), (good, bad)):
        completed = subprocess.run(
            [sys.executable, "-m", "lgtft.cli", "diff", str(left), str(right)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert completed.returncode == 2
        assert completed.stderr.startswith("validation error: report ")
        assert "Traceback" not in completed.stderr
        assert completed.stdout == ""


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("LGTFT_CACHE_DIR", str(tmp_path / "envcache"))
    cache = Cache()
    assert cache.directory == Path(tmp_path / "envcache")


# w -> (eliminations of the table, those of the witness)
_KOSZUL_ELIMINATIONS = {
    "x^2*y": (7, 0),
    "x^5*y+y^6": (0, 0),
    "x^6+y^6+z^6": (0, 0),
    "x^3+y^3+x*y": (1, 0),
    "x^3+y^3+z^3+x*y*z^2": (2, 2),
}


@pytest.mark.parametrize(
    "variables,w,bound",
    [
        (["x", "y"], "x^2*y", 8),
        (["x", "y"], "x^5*y+y^6", None),
        (["x", "y"], "x^3+y^3+x*y", 5),
        (["x", "y", "z"], "x^3+y^3+z^3+x*y*z^2", 9),
        (["x", "y", "z"], "x^6+y^6+z^6", None),
    ],
)
def test_koszul_job_eliminates_each_matrix_once(monkeypatch, variables, w, bound):
    """A graded table at finite mu (x^5*y+y^6, x^6+y^6+z^6) is read off the
    staircase and eliminates nothing, nor does its vanishing check.  A
    graded table at infinite mu (x^2*y) eliminates each piece's map once, a
    windowed one each index's map once, at the bound, but for the top index
    -d, whose map is injective and is never built: its rank is the piece's
    or the window's size.  Every elimination is a forward pass: the table
    reads only pivots.  Only nqh3 has a witness piece with a map into it;
    its witness costs two eliminations more: a forward pass of the map out
    in basis order, whose free columns the canonical kernel basis is taken
    at (the windowed table eliminated it in degree order), and the
    reduction of the map in cut down to the kernel's free coordinates,
    whose rows are read."""
    from lgtft.complex import FreeComplex
    from lgtft.koszul import (
        KoszulComplex,
        check_vanishing_negative_degrees,
        koszul_cohomology,
    )
    from lgtft.lgpair import make_lg_pair
    from lgtft.linalg import SparseMatrix

    eliminations = []
    reduced = []  # whether each elimination was a full reduction
    original = SparseMatrix._rref_rows
    mode = inspect.signature(original)

    def counting(self, *args, **kwargs):
        eliminations.append(self)
        call = mode.bind(self, *args, **kwargs)
        call.apply_defaults()
        reduced.append(call.arguments["reduce"])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "_rref_rows", counting)
    built = []  # the index of each matrix() built
    matrix = FreeComplex.matrix

    def recording_matrix(self, index, degree):
        built.append(index)
        return matrix(self, index, degree)

    monkeypatch.setattr(FreeComplex, "matrix", recording_matrix)

    def count(fn, *args):
        del eliminations[:]
        del reduced[:]
        del built[:]
        result = fn(*args)
        return result, len(eliminations)

    def signature(matrix):
        return matrix.nrows, matrix.ncols, [sorted(row.items()) for row in matrix.rows]

    table_count, witness_count = _KOSZUL_ELIMINATIONS[w]
    lg, setup = count(make_lg_pair, variables, w)
    if bound is None:
        bound = lgtft.jobs._koszul_default_bound(lg)
    _, table = count(koszul_cohomology, lg, bound)
    assert table == table_count
    assert reduced == [False] * table
    if lg.weights is None:
        assert table == sum(
            1 for k in range(-lg.dimension + 1, 0) if KoszulComplex(lg).basis(k, bound)
        )
        assert built
    assert -lg.dimension not in built
    vanishing, alone = count(check_vanishing_negative_degrees, lg, bound)
    raw = {"variables": variables, "superpotential": w, "compute": ["koszul"]}
    report, job = count(run_job, JobSpec.from_dict({**raw, "koszul_bound": bound}))
    assert report["results"]["koszul"]["vanishing"] == vanishing.to_jsonable()
    # no matrix of the job is eliminated twice
    signatures = [signature(matrix) for matrix in eliminations]
    assert all(a != b for n, a in enumerate(signatures) for b in signatures[:n])
    # the vanishing check, witness included, reuses the table's ranks; only
    # the witness piece's own eliminations are new
    assert job == setup + table + witness_count
    # the pair keeps its complex, so a check run after the table on the same
    # pair costs only its witness
    assert alone == witness_count
    if witness_count:
        k, m = vanishing.witness_degree
        complex_ = KoszulComplex(lg)
        outgoing, incoming = eliminations[-2:]
        assert reduced[-2:] == [False, True]
        assert signature(outgoing) == signature(complex_.matrix(k, m))
        pivots = set(complex_.matrix(k, m).rref()[0])
        free = [col for col in range(outgoing.ncols) if col not in pivots]
        source = complex_.matrix(complex_.predecessor[k], m - complex_.step)
        cut = [
            {position: source.rows[row][col]
             for position, row in enumerate(free) if col in source.rows[row]}
            for col in range(source.ncols)
        ]
        assert incoming.rows == cut


# template -> calls in one run_job on a filled cache: each partial of W once
# (the pair keeps them) and the Hessian's four second partials; no
# S-polynomial (the partials' leading monomials x^3 and y^3 are coprime);
# the basis printed off exponents; the weights of W from the integer kernel;
# and a graded brane's weight edges read off D's terms (the windowed job's
# W has no weights, so no edges are read there and entries is not pinned).
# One PolyRing (W's) and one GroebnerBasis (the Jacobi ideal's): the residue
# trace reads C off normal forms in x and in y apart, with no ring or basis
# in 2n variables.  Each partial's leading term is read once, when
# Buchberger's algorithm makes it monic, and kept with its reducer, which
# interreduction, verify and every normal form read: no _reducers call.
# C is monomial on x^4+y^4, all 1x1 blocks, so inverting it eliminates
# nothing (no _rref_rows).  The five cache reads (one Koszul table, four
# Homs) each JSON-parse the payload alone: a parsed text is counted as a key
# when it holds the LG pair's key text, which the reads compare as bytes,
# and as a payload otherwise.
_CACHED_JOB_CALLS = {
    "warm.graded": {
        "partial_derivative": 6, "s_polynomial": 0, "from_terms": 0,
        "nullspace": 0, "entries": 0, "PolyRing": 1, "GroebnerBasis": 1,
        "leading_term": 2, "_reducers": 0, "_rref_rows": 0,
        "parsed payloads": 5, "parsed keys": 0,
    },
    "warm.windowed": {
        "partial_derivative": 6, "s_polynomial": 0, "from_terms": 0,
        "nullspace": 0, "PolyRing": 1, "GroebnerBasis": 1,
        "leading_term": 2, "_reducers": 0,
    },
}


def test_cached_job_work_counts(tmp_path, monkeypatch):
    """A cached warm job re-derives nothing it only reads: the work of one
    run_job against a filled cache is pinned call by call."""
    from lgtft.groebner import GroebnerBasis
    from lgtft.linalg import SparseMatrix
    from lgtft.matfact import Morphism
    from lgtft.poly import PolyRing, Polynomial
    from test_bench_references import _load_harness

    harness = _load_harness(monkeypatch)
    sites = {
        "partial_derivative": (Polynomial, "partial_derivative"),
        "s_polynomial": (lgtft.groebner, "s_polynomial"),
        "from_terms": (PolyRing, "from_terms"),
        "entries": (Morphism, "entries"),
        "nullspace": (SparseMatrix, "nullspace"),
        "PolyRing": (PolyRing, "__init__"),
        "GroebnerBasis": (GroebnerBasis, "__init__"),
        "leading_term": (Polynomial, "leading_term"),
        "_reducers": (lgtft.groebner, "_reducers"),
        "_rref_rows": (SparseMatrix, "_rref_rows"),
    }
    calls = dict.fromkeys(sites, 0)
    for name, (owner, attribute) in sites.items():
        def counting(*args, _name=name, _original=getattr(owner, attribute), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, counting)
    parsed = []  # the texts json.loads parses, as bytes
    loads = json.loads

    def recording_loads(text, **kwargs):
        parsed.append(text if isinstance(text, bytes) else text.encode("utf-8"))
        return loads(text, **kwargs)

    counts = {}
    for template in _CACHED_JOB_CALLS:
        spec = JobSpec.from_dict(harness.unseeded(template).raw)
        cache = Cache(tmp_path / template)
        run_job(spec, cache)
        lg_text = json.dumps(list(lgtft.jobs._build_lg(spec).key())).encode("utf-8")
        calls.update(dict.fromkeys(sites, 0))
        del parsed[:]
        monkeypatch.setattr(json, "loads", recording_loads)
        run_job(spec, cache)
        monkeypatch.setattr(json, "loads", loads)
        keys = sum(lg_text in text for text in parsed)
        calls["parsed payloads"], calls["parsed keys"] = len(parsed) - keys, keys
        counts[template] = {name: calls[name] for name in _CACHED_JOB_CALLS[template]}
    assert counts == _CACHED_JOB_CALLS


def test_jobs_leave_no_reference_cycles(tmp_path, monkeypatch):
    """With the cycle collector off, every bench template run cold and then
    from its cache leaves nothing for it to collect: no recursive closure,
    no object that refers back to its owner."""
    from test_bench_references import _load_harness

    harness = _load_harness(monkeypatch)
    specs = {
        template: JobSpec.from_dict(harness.unseeded(template).raw)
        for template in harness.TEMPLATES
    }
    found = {}
    gc.collect()
    gc.disable()
    try:
        for template, spec in specs.items():
            cache = Cache(tmp_path / template)
            for run in ("cold", "cached"):
                run_job(spec, cache)
                found[template, run] = gc.collect()
    finally:
        gc.enable()
    assert found == dict.fromkeys(found, 0)


_MILNOR_LIMIT_SCRIPT = """
import signal
import sys
import lgtft.jacobi
from lgtft.cli import main


def unreachable(*args):
    raise SystemExit("the trace was started")


# a staircase count that does not stop at the limit dies here instead of
# running on through a billion monomials
signal.alarm(60)
lgtft.jacobi._residue_trace = unreachable
print(main(["run", sys.argv[1], "--no-cache"]))
"""


@pytest.mark.parametrize("w", ["x^20000+y^2", "x^1000000000+y^2"])
def test_jacobi_algebra_past_the_limit_exits_2(tmp_path, capsys, monkeypatch, w):
    """A Jacobi algebra of dimension over MILNOR_LIMIT is refused with exit
    2, naming mu and the limit, before its trace is started: the staircase
    count stops at the limit, so x^1000000000+y^2 (mu = 999 999 999) is
    refused as fast as x^20000+y^2.  Plain and under -O, with the trace
    replaced by an exit and an alarm on the staircase count."""
    from lgtft.jacobi import MILNOR_LIMIT

    assert MILNOR_LIMIT >= 125  # the largest reference mu (bulk.fermat6)
    raw = {"variables": ["x", "y"], "superpotential": w, "compute": ["jacobi"]}
    job = _write_job(tmp_path, raw)
    for out in run_both_modes(_MILNOR_LIMIT_SCRIPT, job).values():
        assert out.split() == ["2"]
    started = []
    monkeypatch.setattr(
        lgtft.jacobi, "_residue_trace", lambda *args: started.append(args)
    )
    assert main(["run", job, "--no-cache"]) == 2
    assert started == []
    err = capsys.readouterr().err
    assert f"mu exceeds the limit of {MILNOR_LIMIT}" in err


def test_jacobi_algebra_at_the_limit_is_computed():
    """x^(MILNOR_LIMIT + 1) + y^2 has mu = MILNOR_LIMIT: its algebra is
    built, and one more power of x is refused."""
    from lgtft.jacobi import MILNOR_LIMIT

    top = MILNOR_LIMIT + 1
    lg = lgtft.jobs.make_lg_pair(["x", "y"], f"x^{top}+y^2")
    assert lg.jacobi_algebra.dimension == MILNOR_LIMIT
    with pytest.raises(ValidationError, match="mu exceeds"):
        lgtft.jobs.make_lg_pair(["x", "y"], f"x^{top + 1}+y^2").jacobi_algebra


_QUOTIENT_LIMIT_SCRIPT = """
import signal
import sys
import lgtft.certificate
from lgtft.cli import main


def unreachable(*args):
    raise SystemExit("the model was started")


# a staircase count that does not stop at the limit dies here instead of
# running on through n^2 monomials
lgtft.certificate.KoszulModel.__init__ = unreachable
signal.setitimer(signal.ITIMER_REAL, 1.0)
print(main(["run", sys.argv[1], "--no-cache"]))
"""


def _power_pairs_job(n):
    """End of (x^n, x^n)(y^n, y^n) on x^(2n)+y^(2n) at bound 0, whose
    certificate's R/(c) = C[x, y]/(x^n, y^n) has dimension n^2."""
    pairs = [[f"x^{n}", f"x^{n}"], [f"y^{n}", f"y^{n}"]]
    return {
        "variables": ["x", "y"],
        "superpotential": f"x^{2 * n}+y^{2 * n}",
        "branes": [{"name": "A", "pairs": pairs}],
        "compute": ["homs"],
        "degree_bound": 0,
    }


def test_certificate_quotient_past_the_limit_exits_2(tmp_path, capsys, monkeypatch):
    """An R/(c) of dimension over MILNOR_LIMIT is refused with exit 2,
    naming its dimension and the limit, before the model X/(c)X is built:
    n = 40 gives dimension 1 600, with KoszulModel.__init__ made to fail.
    The staircase count stops at the limit, so n = 10^9 is refused in a
    fresh interpreter in under a second, plainly and under -O, with the
    model replaced by an exit and a 1 s timer on the run."""
    from lgtft.certificate import KoszulModel
    from lgtft.jacobi import MILNOR_LIMIT

    assert 40 ** 2 > MILNOR_LIMIT

    def unreachable(*args):
        raise AssertionError("the model was started")

    monkeypatch.setattr(KoszulModel, "__init__", unreachable)
    assert main(["run", _write_job(tmp_path, _power_pairs_job(40)), "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert f"its dimension exceeds the limit of {MILNOR_LIMIT}" in err
    assert "R/(c)" in err
    huge = _write_job(tmp_path, _power_pairs_job(10 ** 9))
    for out in run_both_modes(_QUOTIENT_LIMIT_SCRIPT, huge).values():
        assert out.split() == ["2"]


def _baseline_blocks(weights):
    """The baseline branes as d01/d10 blocks, with the gradings of the
    Koszul factorizations where weights[name] is set, inferred otherwise."""
    from lgtft.matfact import koszul_factorization
    from oracles import morphism_blocks

    lg = lgtft.jobs.make_lg_pair(["x", "y"], "x^4+y^4")
    branes = []
    for entry in _BASELINE_JOB["branes"]:
        brane = koszul_factorization(lg, entry["pairs"])
        blocks = {
            name: [[str(p) for p in row] for row in matrix.entries]
            for name, matrix in zip(("d01", "d10"), morphism_blocks(brane.D))
        }
        if weights[entry["name"]]:
            blocks["weights0"] = list(brane.weights0)
            blocks["weights1"] = list(brane.weights1)
        branes.append({"name": entry["name"], **blocks})
    return branes


def test_baseline_as_blocks_gives_the_pairs_results():
    """The baseline branes given as d01/d10 blocks, one with its weights and
    one with weights inferred, give the results of the pairs job."""
    pairs = run_job(JobSpec.from_dict({**_BASELINE_JOB, "compute": "all"}))
    branes = _baseline_blocks({"A": True, "B": False})
    assert "weights0" in branes[0] and "weights0" not in branes[1]
    blocks = run_job(
        JobSpec.from_dict({**_BASELINE_JOB, "branes": branes, "compute": "all"})
    )
    for section in ("jacobi", "koszul", "homs", "tft"):
        assert blocks["results"][section] == pairs["results"][section], section


def test_weights0_without_weights1_exits_2(tmp_path, capsys):
    branes = _baseline_blocks({"A": True, "B": False})
    del branes[0]["weights1"]
    raw = {**_BASELINE_JOB, "branes": branes, "compute": ["homs"]}
    assert main(["run", _write_job(tmp_path, raw), "--no-cache"]) == 2
    assert "both parities" in capsys.readouterr().err


def test_hom_pairs_report_only_the_pairs_asked_for():
    full = run_job(JobSpec.from_dict({**_BASELINE_JOB, "compute": "all"}))
    raw = {**_BASELINE_JOB, "compute": "all", "hom_pairs": [["B", "A"]]}
    report = run_job(JobSpec.from_dict(raw))
    assert list(report["results"]["homs"]) == ["B|A"]
    assert report["results"]["homs"]["B|A"] == full["results"]["homs"]["B|A"]
    assert report["results"]["tft"] == full["results"]["tft"]


def test_degree_bound_flag_sets_every_bound(tmp_path, capsys):
    raw = {**_BASELINE_JOB, "compute": ["koszul", "homs"]}
    job = _write_job(tmp_path, raw)
    assert main(["run", job, "--no-cache", "--degree-bound", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["job"]["degree_bound"] == 10
    assert report["results"]["koszul"]["table"]["bound"] == 10
    homs = report["results"]["homs"]
    assert len(homs) == 4
    assert all(hom["bound"] == 10 for hom in homs.values())
    assert main(["run", job, "--no-cache", "--degree-bound", "-1"]) == 2
    assert "--degree-bound must be non-negative" in capsys.readouterr().err
