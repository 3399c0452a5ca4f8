"""The content-addressed cache's write and read paths."""

import json

import pytest

from lgtft.cache import Cache
from lgtft.jobs import JobSpec, run_job


def test_writer_interrupted_by_another_writer_of_the_same_key(tmp_path, monkeypatch):
    """Writer A is halfway through its record when writer B puts the same key.
    Afterwards the entry is one complete record and no temp file is left."""
    cache = Cache(tmp_path)
    real_dump = json.dump
    interrupted = []

    def dump(obj, handle, **kwargs):
        if interrupted:
            return real_dump(obj, handle, **kwargs)
        interrupted.append(True)
        text = json.dumps(obj, **kwargs)
        handle.write(text[: len(text) // 2])
        handle.flush()
        cache.put("homs", ["key"], {"writer": "B"})
        handle.write(text[len(text) // 2 :])

    monkeypatch.setattr(json, "dump", dump)
    cache.put("homs", ["key"], {"writer": "A"})
    monkeypatch.setattr(json, "dump", real_dump)

    assert interrupted
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
