"""Smoke tests of the experiment scripts: each runs in-process on the
bundled corpus and exits 0."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

from specrepair.corpus import corpus_names

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name: str, *args: str) -> list[str]:
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(path), run_name="__main__")
    assert info.value.code == 0
    return capsys.readouterr().out.splitlines()


def test_count_protects(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "count_protects.py")
    assert lines[-1].split() == ["total", "6", "20", "9", "23"]


def test_run_sct_fuzz(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "run_sct_fuzz.py",
                       "--pairs", "1", "--schedules", "5")
    assert [line.split()[0] for line in lines[1:]] == corpus_names()
    assert lines[0].split()[-1] == "distinct"
    distinct = {line.split()[0]: line.split()[-1] for line in lines[1:]}
    assert distinct["guard_chain"] == "0" and int(distinct["ex1"]) > 0
