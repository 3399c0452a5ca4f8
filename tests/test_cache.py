"""The content-addressed cache's write and read paths."""

import json
import os

import pytest

from lgtft.cache import Cache
from lgtft.jobs import JobSpec, run_job


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
