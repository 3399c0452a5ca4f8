"""The content-addressed cache's write and read paths."""

import json
import os

import pytest

from lgtft.cache import Cache, KeyText
from lgtft.jobs import (
    JobSpec,
    _build_branes,
    _build_lg,
    _hom_brane_key,
    _koszul_default_bound,
    run_job,
)
from oracles import dumped_cache_entry
from test_bench_references import _load_harness


def test_writer_interrupted_by_another_writer_of_the_same_key(tmp_path, monkeypatch):
    """Writer A is halfway through its record when writer B puts the same key.
    Afterwards the entry is one complete record and no temp file is left."""
    cache = Cache(tmp_path)
    real_fdopen = os.fdopen
    events = []

    class HalfwayInterrupted:
        """Writer A's temp file: B puts the key between A's two halves."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            self.handle.__enter__()
            return self

        def __exit__(self, *exc):
            return self.handle.__exit__(*exc)

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            self.handle.flush()
            cache.put("homs", ["key"], {"writer": "B"})
            events.append("B put")
            return self.handle.write(text[len(text) // 2 :])

    def fdopen(fd, *args, **kwargs):
        handle = real_fdopen(fd, *args, **kwargs)
        if events:
            return handle
        events.append("A opened")
        return HalfwayInterrupted(handle)

    monkeypatch.setattr(os, "fdopen", fdopen)
    cache.put("homs", ["key"], {"writer": "A"})
    monkeypatch.setattr(os, "fdopen", real_fdopen)

    assert events == ["A opened", "B put"]
    assert cache.get("homs", ["key"]) in ({"writer": "A"}, {"writer": "B"})
    [entry] = tmp_path.iterdir()
    record = json.loads(entry.read_text(encoding="utf-8"))
    assert record["kind"] == "homs" and record["key"] == ["key"]
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("text", ["[]", "3", '"payload"', "null"])
def test_record_that_is_no_json_object_is_a_miss(tmp_path, text):
    """Every cache file of a job is overwritten with JSON that is no object:
    the rerun treats each as a miss, gives the same results, and rewrites
    each entry as a record."""
    spec = JobSpec.from_dict({
        "variables": ["x"],
        "superpotential": "x^3",
        "branes": [{"name": "M", "pairs": [["x", "x^2"]]}],
        "compute": ["koszul", "homs"],
    })
    cache = Cache(tmp_path)
    results = run_job(spec, cache)["results"]
    entries = sorted(tmp_path.glob("*.json"))
    assert len(entries) == 2
    for entry in entries:
        entry.write_text(text, encoding="utf-8")
    assert run_job(spec, cache)["results"] == results
    for entry in entries:
        record = json.loads(entry.read_text(encoding="utf-8"))
        assert isinstance(record, dict) and "payload" in record


# -- keys joined from parts serialized once ------------------------------------


def _dumped_keys(spec):
    """(kind, key) of every cache entry of spec, each key the list a reader
    would serialize whole: [LG pair, Koszul bound] and, per Hom, [LG pair,
    source, target, degree bound]."""
    lg = _build_lg(spec)
    lg_key = list(lg.key())
    keys = []
    if "koszul" in spec.compute:
        bound = spec.koszul_bound
        if bound is None:
            bound = spec.degree_bound
        if bound is None:
            bound = _koszul_default_bound(lg)
        keys.append(("koszul", [lg_key, bound]))
    if "homs" in spec.compute:
        named = dict(_build_branes(spec, lg))
        pairs = spec.hom_pairs or [(a, b) for a in named for b in named]
        for a, b in pairs:
            keys.append(("hom", [
                lg_key, _hom_brane_key(named[a]), _hom_brane_key(named[b]),
                spec.degree_bound,
            ]))
    return keys


def _template_specs(monkeypatch):
    """The seven bench templates, unseeded and with seed 1 (its branes
    rescaled by units)."""
    harness = _load_harness(monkeypatch)
    jobs = [harness.unseeded(t) for t in harness.TEMPLATES]
    jobs += [job for w in harness.WORKLOADS for job in harness.make_jobs(w, 1)]
    return [(job.template, JobSpec.from_dict(job.raw)) for job in jobs]


def test_composed_keys_and_records_match_keys_serialized_whole(tmp_path, monkeypatch):
    """For every bench template job: each key the job reads is the text
    json.dumps gives for the whole key, its files and records are
    byte-identical to those written through json.dumps of the whole key and
    record, and a cache filled that way is read with no miss.  A job that
    computes tft reads no Hom key (it builds its Homs), but writes them."""
    texts = []  # (kind, key text) of every get
    get = Cache.get

    def recording_get(self, kind, key):
        texts.append((kind, key))
        return get(self, kind, key)

    monkeypatch.setattr(Cache, "get", recording_get)
    for k, (template, spec) in enumerate(_template_specs(monkeypatch)):
        dumped = _dumped_keys(spec)
        assert dumped, template
        read = [
            (kind, key) for kind, key in dumped
            if kind == "koszul" or "tft" not in spec.compute
        ]
        del texts[:]
        written = tmp_path / f"written{k}"
        results = run_job(spec, Cache(written))["results"]
        assert all(isinstance(key, KeyText) for _, key in texts)
        assert [f"[{json.dumps(kind)}, {key}]" for kind, key in texts] == [
            json.dumps([kind, key], sort_keys=True) for kind, key in read
        ]
        homs = iter(results.get("homs", {}).values())
        expected = dict(
            dumped_cache_entry(
                kind, key, results["koszul"] if kind == "koszul" else next(homs)
            )
            for kind, key in dumped
        )
        assert {
            entry.name: entry.read_text(encoding="utf-8")
            for entry in written.iterdir()
        } == expected, template
        filled = tmp_path / f"filled{k}"
        filled.mkdir()
        for name, text in expected.items():
            (filled / name).write_text(text, encoding="utf-8")
        del texts[:]
        assert run_job(spec, Cache(filled))["results"] == results
        assert len(texts) == len(read)
        assert sorted(entry.name for entry in filled.iterdir()) == sorted(expected)


def test_cached_job_serializes_each_key_part_once(tmp_path, monkeypatch):
    """A warm.graded job on a filled cache runs json.dumps 5 times: once for
    the LG pair, once per brane (A and B), once for the Koszul bound and once
    for the Hom degree bound.  Its four Hom keys and one Koszul key are
    joined from those texts, so the LG pair's text is in one serialized
    text, not in one per key, and so is each brane's."""
    harness = _load_harness(monkeypatch)
    spec = JobSpec.from_dict(harness.unseeded("warm.graded").raw)
    cache = Cache(tmp_path)
    run_job(spec, cache)
    lg = _build_lg(spec)
    parts = [json.dumps(list(lg.key()))] + [
        json.dumps(_hom_brane_key(brane)) for _, brane in _build_branes(spec, lg)
    ]
    dumps = json.dumps
    serialized = []

    def recording_dumps(value, **kwargs):
        text = dumps(value, **kwargs)
        serialized.append(text)
        return text

    monkeypatch.setattr(json, "dumps", recording_dumps)
    run_job(spec, cache)
    assert len(serialized) == 5
    assert [sum(part in text for text in serialized) for part in parts] == [1, 1, 1]


# -- reads that check the record's bytes ---------------------------------------


def _hom_spec(bound):
    return JobSpec.from_dict({
        "variables": ["x", "y"],
        "superpotential": "x^4+y^4",
        "branes": [{"name": "A", "pairs": [["x", "x^3"], ["y", "y^3"]]}],
        "compute": ["homs"],
        "degree_bound": bound,
    })


def test_record_under_another_keys_name_is_a_miss(tmp_path):
    """End(A) at bound 2 and at bound 3 are two entries.  The bound-2 record
    copied over the bound-3 file holds another key than the one asked for:
    the job reads it as a miss, recomputes the bound-3 Hom and rewrites its
    entry.  A read that did not compare the stored key served the bound-2
    payload as the bound-3 one."""
    cache = Cache(tmp_path)
    low = tmp_path / "low"
    run_job(_hom_spec(2), Cache(low))
    [low_entry] = low.iterdir()
    expected = run_job(_hom_spec(3), cache)["results"]
    [entry] = tmp_path.glob("*.json")
    right = entry.read_bytes()
    assert json.loads(low_entry.read_bytes())["payload"]["bound"] == 2
    assert expected["homs"]["A|A"]["bound"] == 3
    entry.write_bytes(low_entry.read_bytes())
    assert run_job(_hom_spec(3), cache)["results"] == expected
    assert entry.read_bytes() == right
    entry.write_bytes(low_entry.read_bytes())
    assert cache.get("hom", json.loads(right)["key"]) is None


def _one_entry(tmp_path, kind="hom", key=("k", 1), payload=None):
    cache = Cache(tmp_path)
    payload = {"dims": {"even": 2, "odd": 2}} if payload is None else payload
    cache.put(kind, list(key), payload)
    [entry] = tmp_path.glob("*.json")
    return cache, entry, payload


@pytest.mark.parametrize("tail", [b"\n", b" ", b"{}", b"}"])
def test_record_with_bytes_after_its_closing_brace_is_a_miss(tmp_path, tail):
    cache, entry, payload = _one_entry(tmp_path)
    assert cache.get("hom", ["k", 1]) == payload
    entry.write_bytes(entry.read_bytes() + tail)
    assert cache.get("hom", ["k", 1]) is None


def test_record_of_another_kind_is_a_miss(tmp_path):
    """A koszul record under the file name of the same key's hom entry."""
    cache, koszul_entry, _ = _one_entry(tmp_path / "koszul", kind="koszul")
    hom_cache, hom_entry, _ = _one_entry(tmp_path)
    hom_entry.write_bytes(koszul_entry.read_bytes())
    assert hom_cache.get("hom", ["k", 1]) is None
    assert cache.get("koszul", ["k", 1]) is not None


def test_record_written_through_json_dumps_of_the_whole_record_hits(tmp_path):
    """Older versions wrote json.dumps({...}, sort_keys=True) of the whole
    record, keys with non-ASCII text included; put writes the same bytes,
    and get reads both."""
    key = ["W", {"b": [1, 2], "a": "é"}, None, 2.5]
    payload = {"z": [1, {"y": True}], "a": "été"}
    name, text = dumped_cache_entry("hom", key, payload)
    (tmp_path / name).write_text(text, encoding="utf-8")
    cache = Cache(tmp_path)
    assert cache.get("hom", key) == payload
    cache.put("hom", key, payload)
    assert (tmp_path / name).read_text(encoding="utf-8") == text
    assert cache.get("hom", KeyText(json.dumps(key, sort_keys=True))) == payload


def test_tampered_payload_is_still_served_unverified(tmp_path):
    """A payload changed inside a record with the right kind and key is
    returned as it stands: payloads are not verified against a model yet
    (ROADMAP item 6, a trusted warm path, stays open)."""
    cache, entry, payload = _one_entry(tmp_path)
    text = entry.read_bytes()
    assert text.count(b'"even": 2') == 1
    entry.write_bytes(text.replace(b'"even": 2', b'"even": 7'))
    assert cache.get("hom", ["k", 1]) == {"dims": {"even": 7, "odd": 2}}
