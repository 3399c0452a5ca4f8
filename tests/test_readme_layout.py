"""README's Library-layout table has one row per module of the package, so a
module added or removed cannot leave the table stale."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _layout_rows():
    """The module column of each row of the table under '## Library layout'."""
    section = ROOT.joinpath("README.md").read_text().split("## Library layout", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)


def test_library_layout_has_one_row_per_module():
    rows = _layout_rows()
    modules = sorted(
        f"lgtft.{path.stem}"
        for path in ROOT.joinpath("src", "lgtft").glob("*.py")
        if path.stem != "__init__"
    )
    assert len(rows) == len(set(rows)), "a module has two rows"
    assert sorted(rows) == modules
