"""Content-addressed cache for Koszul and Hom cohomology tables.

Entries are JSON files named by the SHA-256 of the key text
json.dumps([kind, key], sort_keys=True), and hold the record
json.dumps({"kind": kind, "key": key, "payload": payload}, sort_keys=True).
A job's keys share their parts (the LG pair, each brane), so a job
serializes each part once with key_part and joins the parts' texts with
compose_key into a KeyText.  The cache splices a KeyText into both texts
as it stands, which gives the same bytes json.dumps gives for the key as
a list; a key of any other type is serialized with json.dumps.

Payloads are returned as stored, without verification; a file that is not a
JSON object recording its kind is a miss.  Groebner bases are not cached:
computing one costs less than loading and verifying it, so groebner-* files
written by older versions are never read; clear() removes them with the rest.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

ENV_CACHE_DIR = "LGTFT_CACHE_DIR"
DEFAULT_DIRNAME = ".lgtft-cache"


def default_cache_dir() -> Path:
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return Path(override)
    return Path.cwd() / DEFAULT_DIRNAME


class KeyText(str):
    """A cache key given as its JSON text, json.dumps(key, sort_keys=True)."""


def key_part(value) -> str:
    """The JSON text of one part of a cache key."""
    return json.dumps(value, sort_keys=True)


def compose_key(*parts: str) -> KeyText:
    """The key that is the list of the parts, from the parts' texts: the text
    json.dumps gives for the list, whose items it joins with ", "."""
    return KeyText("[" + ", ".join(parts) + "]")


def _key_text(key) -> str:
    return key if isinstance(key, KeyText) else key_part(key)


class Cache:
    """Tiny key-value JSON store; disabled entirely when enabled=False.

    The directory is kept as a string, with its separator, and an entry's
    path is that string joined to its name; directory gives it as a Path.
    """

    def __init__(self, directory: Optional[Path] = None, enabled: bool = True):
        self._prefix = os.path.join(directory or default_cache_dir(), "")
        self.enabled = enabled

    @property
    def directory(self) -> Path:
        return Path(self._prefix)

    def _name(self, kind: str, key_text: str) -> str:
        """The entry's file name, less its ".json" suffix."""
        text = f"[{encode_basestring_ascii(kind)}, {key_text}]"
        return f"{kind}-{hashlib.sha256(text.encode('utf-8')).hexdigest()}"

    def get(self, kind: str, key):
        if not self.enabled:
            return None
        path = f"{self._prefix}{self._name(kind, _key_text(key))}.json"
        try:
            with open(path, "rb") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("kind") != kind:
            return None
        return record.get("payload")

    def put(self, kind: str, key, payload):
        if not self.enabled:
            return
        os.makedirs(self._prefix, exist_ok=True)
        key_text = _key_text(key)
        name = self._name(kind, key_text)
        # the record's keys in sorted order, each value as the C encoder
        # writes it; json.dump would stream the same text through the
        # pure-Python one
        text = (
            f'{{"key": {key_text}, "kind": {encode_basestring_ascii(kind)}, '
            f'"payload": {json.dumps(payload, sort_keys=True)}}}'
        )
        # a temp file of its own per writer, so concurrent writers of one key
        # never write into each other's file; the last replace wins whole
        fd, tmp = tempfile.mkstemp(dir=self._prefix, prefix=name + "-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, f"{self._prefix}{name}.json")
        except BaseException:
            os.unlink(tmp)
            raise

    def clear(self) -> int:
        if not self.directory.is_dir():
            return 0
        removed = 0
        for path in self.directory.glob("*.json"):
            path.unlink()
            removed += 1
        return removed


def null_cache() -> Cache:
    return Cache(enabled=False)
