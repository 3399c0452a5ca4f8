"""Every engine attribute the benchmark tracer wraps still exists.

bench/tracer.py replaces functions and methods by name; a site renamed or
deleted in the engine would make a traced benchmark run fail with KeyError.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as is
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_exists(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    sites = [
        site
        for table in (tracer.SPANS, tracer.COUNTS)
        for layer_sites in table.values()
        for site in layer_sites
    ]
    assert sites
    missing = []
    for module, owner, attribute in sites:
        target = importlib.import_module(f"lgtft.{module}")
        if owner is not None:
            target = getattr(target, owner, None)
        # the tracer reads the attribute with vars(), so it must be defined
        # on that module or class itself, not inherited
        if target is None or attribute not in vars(target):
            missing.append((module, owner, attribute))
    assert missing == []


def test_the_cli_imports_every_traced_module(monkeypatch):
    """A fresh `import lgtft.cli` loads every module the tracer looks up in
    sys.modules; import_module above would load one the package stopped
    importing, and hide that the tracer no longer sees it."""
    tracer = _load_tracer(monkeypatch)
    modules = sorted({
        module
        for table in (tracer.SPANS, tracer.COUNTS)
        for layer_sites in table.values()
        for module, _, _ in layer_sites
    })
    script = (
        "import sys, lgtft.cli\n"
        "print(*[m for m in sys.argv[1:] if 'lgtft.' + m not in sys.modules])"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", script, *modules],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "polymatrix" in modules
    assert completed.stdout.split() == []
