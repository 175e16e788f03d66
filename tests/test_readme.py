"""The README's library example runs as written, and names only what the
package exports."""

from __future__ import annotations

import re
from pathlib import Path

import specrepair

ROOT = Path(__file__).resolve().parent.parent


def _library_example() -> str:
    """The ```python block under "## Library entry points"."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(_library_example(), "README.md", "exec"), {})
    assert capsys.readouterr().out == "['z'] 1\n"


def test_every_exported_name_resolves():
    assert [name for name in specrepair.__all__
            if not hasattr(specrepair, name)] == []
