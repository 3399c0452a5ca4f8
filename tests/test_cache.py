"""The content-addressed cache's write path."""

import json

from lgtft.cache import Cache


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
