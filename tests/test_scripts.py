"""Smoke tests of the experiment scripts: each runs in-process on the
bundled corpus and exits 0, except `coverage.py`, which runs pytest itself
and so runs in a subprocess on one test file."""

from __future__ import annotations

import hashlib
import json
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from specrepair import machine
from specrepair.corpus import corpus_names, load_program
from specrepair.parser import pretty_program

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


def test_verdict_matrix(monkeypatch, capsys):
    cap = machine.GRAPH_MAX_NODES
    lines = run_script(monkeypatch, capsys, "verdict_matrix.py", "skip",
                       "ex1")
    records = [json.loads(line) for line in lines]
    # the parse of 2 programs, their pipeline in 4 analysis modes and their
    # stuck reasons in 2 modes; at each of the 3 graph caps, for 2
    # programs, as written and repaired, in 2 modes: SCT random and
    # exhaustive at 3 seeds, and the schedule space; and 4 consistency
    # reports over both programs
    assert Counter(record["case"][0] for record in records) == \
        {"parse": 2, "pipeline": 2 * 4, "stuck": 2 * 2,
         "sct": 3 * 2 * 2 * 2 * 2 * 3, "exhaustive_runs": 3 * 2 * 2 * 2,
         "consistency": 3 * 4}
    # every walk of a program with a buffer meets exec past its end
    reasons = {tuple(record["case"][1:]): dict(record["verdict"]["reasons"])
               for record in records if record["case"][0] == "stuck"}
    assert all(reasons[name, mode]["no instruction at buffer position 2"]
               for name in ("skip", "ex1") for mode in ("hw", "slh"))
    assert reasons["ex1", "hw"]["guard condition is still undefined"]
    # the printed parse names no node class, so it is the digest of the
    # program's text as `pretty_program` prints it
    assert {record["case"][1]: record["verdict"]["printed_sha256"]
            for record in records if record["case"][0] == "parse"} == {
        name: hashlib.sha256(pretty_program(load_program(name)).encode())
        .hexdigest() for name in ("skip", "ex1")}
    cuts = {tuple(record["case"][1:]): record["verdict"]["cut"]
            for record in records if record["case"][0] == "pipeline"}
    assert cuts == {("skip", v11, slh): [] for v11 in (False, True)
                    for slh in (False, True)} | \
        {("ex1", v11, slh): ["x", "y"] if slh else ["z"]
         for v11 in (False, True) for slh in (False, True)}
    # `skip` has no edge and no record; ex1's graph digest follows its cut
    # and candidates, which differ under SLH-only cuts
    digests = {tuple(record["case"][1:]): (
        record["verdict"]["constraints_sha256"],
        record["verdict"]["graph_sha256"])
        for record in records if record["case"][0] == "pipeline"}
    empty = hashlib.sha256(b"").hexdigest()
    assert [case for case, (k, _) in digests.items() if k == empty] == \
        [("skip", v11, slh) for v11 in (False, True) for slh in (False, True)]
    assert digests[("ex1", False, False)][1] != \
        digests[("ex1", False, True)][1]
    leaks = {tuple(record["case"][2:6]) for record in records
             if record["case"][0] == "sct"
             and not record["verdict"]["passed"]}
    assert leaks == {("ex1", "raw", mode, "exhaustive")
                     for mode in ("hw", "slh")}
    assert all(record["verdict"] == {"checked": 2, "schedules": 61,
                                     "failures": []}
               for record in records if record["case"][0] == "consistency")
    assert machine.GRAPH_MAX_NODES == cap


_SAMPLE = '''"""A module docstring
on two lines."""

# a comment line
x = """a string value
on two lines"""  # and a trailing comment


def f():
    """A function docstring."""
    return x
'''


def test_count_lines(monkeypatch, capsys, tmp_path):
    (tmp_path / "sample.py").write_text(_SAMPLE)
    lines = run_script(monkeypatch, capsys, "count_lines.py", str(tmp_path))
    assert [line.split() for line in lines] == [
        ["module", "code", "docstring", "comment", "blank"],
        ["sample.py", "4", "3", "1", "3"],
        ["total", "4", "3", "1", "3"]]
    # the library's modules by default, no kind counted below zero
    lines = run_script(monkeypatch, capsys, "count_lines.py")
    src = SCRIPTS.parent / "src" / "specrepair"
    modules = sorted(path.name for path in src.glob("*.py"))
    assert [line.split()[0] for line in lines[1:]] == [*modules, "total"]
    assert all(int(n) >= 0 for line in lines[1:] for n in line.split()[1:])
    assert sum(map(int, lines[-1].split()[1:])) == sum(
        len(path.read_text().splitlines()) for path in src.glob("*.py"))


def test_coverage_on_one_test_file():
    # the whole suite takes minutes under tracing, so one small file
    # checks the report's shape: each unexecuted statement as
    # `path:line: text`, then a row per module and their total
    root = SCRIPTS.parent
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "coverage.py"), "-q",
         "-p", "no:cacheprovider", str(root / "tests" / "test_readme.py")],
        cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines)
                  if line.split() == ["module", "statements", "unexecuted"])
    src = root / "src" / "specrepair"
    rows = {line.split()[0]: tuple(map(int, line.split()[1:]))
            for line in lines[header + 1:]}
    modules = sorted(path.name for path in src.glob("*.py"))
    assert list(rows) == [*modules, "total"]
    assert rows["total"] == tuple(map(sum, zip(*[rows[m] for m in modules])))
    missed = Counter()
    for line in lines[:header]:
        if not line.startswith("src/"):
            continue  # pytest's own report
        path, number, text = line.split(":", 2)
        assert (root / path).read_text().splitlines()[int(number) - 1] \
            .strip() == text.strip()
        missed[Path(path).name] += 1
    assert all(missed[m] == rows[m][1] <= rows[m][0] for m in modules)
    # the example imports the package and runs no command of the CLI
    assert rows["__init__.py"][1] == 0 < rows["cli.py"][1] == rows["cli.py"][0]


def test_bench_schema(tmp_path):
    # one workload, one pair of one-second runs, the repository against
    # itself: every metric of BENCHMARK.json gets both sides' quartiles
    # and a pair count, and both sides print the same verdict digest
    root = SCRIPTS.parent
    out = tmp_path / "BENCH_0.json"
    subprocess.run(
        [sys.executable, str(SCRIPTS / "bench.py"), str(root), str(root),
         "--pr", "0", "--workloads", "sct-exhaustive", "--seeds", "5",
         "--pairs", "1", "--seconds", "1", "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, check=True)
    report = json.loads(out.read_text())
    assert (report["pr"], report["pairs"], report["seconds"],
            report["seeds"]) == (0, 1, 1.0, [5])
    assert set(report["machine"]) == {"python", "implementation", "system",
                                      "cpus"}
    assert list(report["workloads"]) == ["sct-exhaustive"]
    result = report["workloads"]["sct-exhaustive"]["5"]
    spec = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in spec}
    for metric in spec:
        summary = result["metrics"][metric["name"]]
        assert {key: summary[key] for key in ("unit", "better", "bound")} \
            == {key: metric[key] for key in ("unit", "better", "bound")}
        assert summary["pairs"] == 1 and summary["pairs_better"] in (0, 1)
        assert isinstance(summary["gap_exceeds_parent_iqr"], bool)
        for side in ("parent", "change"):
            q = summary[side]
            assert q["q1"] <= q["median"] <= q["q3"]
            assert q["median"] == \
                result["runs"][side][0]["metrics"][metric["name"]]
    for side in ("parent", "change"):
        (run,) = result["runs"][side]
        assert run["pair"] == 0 and run["first"] == (side == "parent")
        assert run["correct"] and run["attempted"] > run["failed"] >= 0
    assert result["digests_equal"] and result["all_correct"]
    assert result["digests"]["parent"] == result["digests"]["change"]
    assert len(result["digests"]["parent"][0]) == 16
