from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from specrepair.cli import _build_parser, main
from specrepair.corpus import corpus_path, schedule_path
from specrepair.parser import MAX_NESTING
from test_parser import long_sum, nested_ifs, nested_parens

EX1 = str(corpus_path("ex1"))
EX1_PATCHED = str(corpus_path("ex1_patched"))
FIG6 = str(schedule_path("fig6"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_seq_prints_trace_and_public_state(capsys):
    code, out, _ = run_cli(capsys, "run-seq", EX1)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "read(2)"
    assert lines[1] == "fail"
    assert "i1 = 1" in lines


def test_run_spec_replays_the_leak_byte_exact(capsys):
    code, out, _ = run_cli(capsys, "run-spec", "--schedule", FIG6, EX1)
    assert code == 0
    assert out == ("." * 13).replace(".", ".\n") + \
        "read(2,[1])\nread(3,[1,2])\n.\nread(42,[1,2,3])\n"


def test_run_spec_seq_mode(capsys):
    code, out, _ = run_cli(capsys, "run-spec", "--seq", EX1)
    assert code == 0
    assert "read(2,[])" in out and "fail(" in out
    assert "rollback" not in out


def test_run_spec_requires_a_schedule_source(capsys):
    code, _, err = run_cli(capsys, "run-spec", EX1)
    assert code == 2 and "needs" in err


def test_run_spec_reports_stuck(tmp_path, capsys):
    sched = tmp_path / "bad.sched"
    sched.write_text("exec 1\n")
    code, _, err = run_cli(capsys, "run-spec", "--schedule", str(sched), EX1)
    assert code == 1 and "stuck at directive 0" in err
    # a load behind a pending store, with the whole line pinned
    program = tmp_path / "store_load.bl"
    program.write_text("var p = 3;\nvar q = 3;\npublic p, q, x;\n"
                       "*(p) := 1;\nx := *(q);\n")
    sched.write_text("fetch\nfetch\nfetch\nexec 2\n")
    code, out, err = run_cli(capsys, "run-spec", "--schedule", str(sched),
                             str(program))
    assert code == 1 and out == ".\n.\n.\n"
    assert err == ("stuck at directive 3 (exec 2): "
                   "load blocked by an earlier pending store\n")


def test_check_rejects_ex1(capsys):
    code, out, _ = run_cli(capsys, "check", "--transient", EX1)
    assert code == 1
    assert out.splitlines() == [
        "transient: Array-Read: w := b[z];: index z may be transient"]


def test_check_accepts_patched(capsys):
    code, out, _ = run_cli(capsys, "check", EX1_PATCHED)
    assert code == 0 and out == ""


def test_check_ct_flags_secret_branch(capsys):
    path = str(corpus_path("secret_branch"))
    code, out, _ = run_cli(capsys, "check", "--ct", path)
    assert code == 1 and "If" in out


def test_check_json_shape(capsys):
    code, out, _ = run_cli(capsys, "check", "--json", EX1)
    assert code == 1
    payload = json.loads(out)
    assert [v["rule"] for v in payload["transient"]] == ["Array-Read"]
    assert payload["ct"] == []


def test_infer_reports_cut_and_env(capsys):
    code, out, _ = run_cli(capsys, "infer", "--json", EX1)
    assert code == 0
    payload = json.loads(out)
    assert payload["cut"] == ["z"] and payload["flow"] == 1
    assert payload["gamma"]["x"] == "T" and payload["gamma"]["z"] == "S"


def test_infer_slh_only(capsys):
    code, out, _ = run_cli(capsys, "infer", "--slh-only", "--json", EX1)
    assert code == 0
    assert json.loads(out)["cut"] == ["x", "y"]


def test_graph_dot_output(capsys):
    code, out, _ = run_cli(capsys, "graph", "--dot", EX1)
    assert code == 0
    assert out.startswith("digraph") and "magenta" in out


def test_repair_json_report(capsys):
    code, out, _ = run_cli(capsys, "repair", "--json", EX1)
    assert code == 0
    payload = json.loads(out)
    assert payload["cut"] == ["z"]
    assert payload["protect_count"] == 1
    assert payload["baseline_count"] == 3
    assert "z := protect(x + y);" in payload["program"]


def test_repair_output_file_reparses(tmp_path, capsys):
    out_path = tmp_path / "fixed.bl"
    code, out, _ = run_cli(capsys, "repair", "-o", str(out_path), EX1)
    assert code == 0
    report = json.loads(out)
    assert report["protect_count"] == 1
    # the repaired file round-trips through every other subcommand
    code, out, _ = run_cli(capsys, "check", "--transient", str(out_path))
    assert code == 0


def test_repair_slh_mode(capsys):
    code, out, _ = run_cli(capsys, "repair", "--mode", "slh", "--json", EX1)
    assert code == 0
    payload = json.loads(out)
    assert payload["cut"] == ["x", "y"] and payload["protect_count"] == 2


def test_fuzz_sct_finds_ex1_leak(capsys):
    code, out, _ = run_cli(capsys, "fuzz-sct", "--schedules", "exhaustive",
                           "--pairs", "2", "--json", EX1)
    assert code == 1
    payload = json.loads(out)
    assert not payload["passed"]
    assert payload["counterexample"]["schedule"][0] == "fetch"


def test_fuzz_sct_passes_patched(capsys):
    code, out, _ = run_cli(capsys, "fuzz-sct", "--schedules", "random:30",
                           "--pairs", "4", "--json", EX1_PATCHED)
    assert code == 0 and json.loads(out)["passed"]


def test_consistency_subcommand(capsys):
    code, out, _ = run_cli(capsys, "consistency", "--schedules", "10",
                           "--json", EX1, EX1_PATCHED)
    assert code == 0
    payload = json.loads(out)
    assert payload["programs"] == 2 and payload["failures"] == []


def test_corpus_listing_and_validation(capsys):
    code, out, _ = run_cli(capsys, "corpus")
    assert code == 0
    names = [line.split("\t")[0] for line in out.splitlines()]
    assert "ex1" in names and "ex1_patched" in names
    assert len(names) >= 20
    code, out, _ = run_cli(capsys, "corpus", "--validate")
    assert code == 0 and "failures=0" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.bl"
    bad.write_text("x := ;\n")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 1 and "error" in err


def test_non_ascii_digit_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "digit.bl"
    bad.write_text("x := 1²;\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert (code, out, err) == (1, "", "error: 1:7: unexpected character '²'\n")


def test_installed_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "specrepair.cli", "infer", "--json", EX1],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["cut"] == ["z"]


def test_output_cut_short_exits_1_quietly(tmp_path):
    # a reader that closes the pipe after one line, as `| head -1` does:
    # the 20 000 reads fill the pipe, so the next write fails, and the
    # CLI exits 1 with nothing on stderr
    program = tmp_path / "long.bl"
    program.write_text("array a base=1 len=2 label=L;\npublic x, a;\n"
                       + "x := a[0];\n" * 20_000)
    child = subprocess.Popen(
        [sys.executable, "-m", "specrepair", "run-seq", str(program)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline() == b"read(1)\n"
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert (child.wait(), stderr) == (1, b"")


def test_usage_error_exits_2():
    result = subprocess.run(
        [sys.executable, "-m", "specrepair.cli", "no-such-command"],
        capture_output=True, text=True)
    assert result.returncode == 2


def test_run_seq_skip_empty_trace(capsys):
    code, out, _ = run_cli(capsys, "run-seq", str(corpus_path("skip")))
    assert code == 0 and out == ""


def test_kind_errors_surface_with_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad_kinds.bl"
    bad.write_text("var b = true;\npublic b, x;\nx := b + 1;\n")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 1 and "natural" in err


@pytest.mark.parametrize("shape", [nested_parens, nested_ifs, long_sum])
def test_nesting_bound(tmp_path, capsys, shape):
    at_bound = tmp_path / "at_bound.bl"
    at_bound.write_text(shape(MAX_NESTING))
    too_deep = tmp_path / "too_deep.bl"
    too_deep.write_text(shape(MAX_NESTING + 1))
    for argv in (["check"], ["infer"], ["repair"], ["run-seq"],
                 ["run-spec", "--seq"]):
        code, _, err = run_cli(capsys, *argv, "--json", str(at_bound))
        assert (code, err) == (0, ""), argv
        code, out, err = run_cli(capsys, *argv, "--json", str(too_deep))
        assert code == 1 and out == "", argv
        assert re.fullmatch(r"error: \d+:\d+: nested too deeply .*\n", err)


# Which of --seed and --budget each subcommand reads; it accepts no other.
SEED_AND_BUDGET = {
    "run-seq": {"--budget"},
    "run-spec": {"--seed"},
    "check": set(),
    "infer": set(),
    "graph": set(),
    "repair": set(),
    "fuzz-sct": {"--seed", "--budget"},
    "consistency": {"--seed", "--budget"},
    "corpus": {"--budget"},
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in SEED_AND_BUDGET
    for flag in ("--seed", "--budget")])
def test_subcommand_accepts_the_flags_it_reads(capsys, command, flag):
    argv = [command, flag, "7"] + ([] if command == "corpus" else [EX1])
    if flag in SEED_AND_BUDGET[command]:
        assert getattr(_build_parser().parse_args(argv), flag[2:]) == 7
        return
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, one, other", [
    (["run-spec", "--random", "50", "--json", EX1],
     ["--seed", "1"], ["--seed", "2"]),
    (["fuzz-sct", "--schedules", "random:5", "--pairs", "1", EX1_PATCHED],
     ["--budget", "3"], ["--budget", "400"]),
    (["run-seq", EX1], ["--budget", "1"], ["--budget", "100"]),
    (["consistency", "--schedules", "2", EX1],
     ["--budget", "1"], ["--budget", "100"]),
    (["corpus", "--validate"], ["--budget", "1"], ["--budget", "10000"]),
], ids=["run-spec seed", "fuzz-sct budget", "run-seq budget",
        "consistency budget", "corpus budget"])
def test_kept_flags_change_the_output(capsys, argv, one, other):
    assert run_cli(capsys, *argv, *one) != run_cli(capsys, *argv, *other)


# Counts a subcommand takes: a count of runs to draw, of pairs or of walk
# directives must be positive; a count of extra schedules or of directives
# to take may be zero.
@pytest.mark.parametrize("argv, flag", [
    (["fuzz-sct", "--schedules", "random:abc"], "--schedules"),
    (["fuzz-sct", "--schedules", "random:0"], "--schedules"),
    (["fuzz-sct", "--schedules", "random:-5"], "--schedules"),
    (["fuzz-sct", "--schedules", "random"], "--schedules"),
    (["fuzz-sct", "--schedules", "bogus"], "--schedules"),
    (["fuzz-sct", "--pairs", "0"], "--pairs"),
    (["fuzz-sct", "--budget", "0"], "--budget"),
    (["fuzz-sct", "--schedules", "exhaustive", "--budget", "-1"], "--budget"),
    (["consistency", "--schedules", "-1"], "--schedules"),
    (["consistency", "--schedules", "x"], "--schedules"),
    (["run-spec", "--random", "-3"], "--random"),
])
def test_bad_counts_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        main([*argv, EX1])
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert f"error: argument {flag}: expected" in captured.err


# `run-spec` takes one schedule source, and a sequential step budget must be
# positive.
@pytest.mark.parametrize("argv, message", [
    (["run-spec", "--random", "5", "--seq", EX1],
     "argument --seq: not allowed with argument --random"),
    (["run-spec", "--seq", "--random", "5", EX1],
     "argument --random: not allowed with argument --seq"),
    (["run-spec", "--schedule", FIG6, "--seq", EX1],
     "argument --seq: not allowed with argument --schedule"),
    (["run-spec", "--random", "0", "--schedule", FIG6, EX1],
     "argument --schedule: not allowed with argument --random"),
    (["run-seq", "--budget", "0", EX1], "argument --budget: expected"),
    (["run-seq", "--budget", "-1", EX1], "argument --budget: expected"),
    (["consistency", "--budget", "0", EX1], "argument --budget: expected"),
    (["corpus", "--validate", "--budget", "-5"],
     "argument --budget: expected"),
], ids=["random, seq", "seq, random", "schedule, seq", "random, schedule",
        "run-seq budget 0", "run-seq budget -1", "consistency budget 0",
        "corpus budget -5"])
def test_usage_conflicts_and_bad_budgets(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("argv, want", [
    (["fuzz-sct", "--schedules", "random:1", "--pairs", "1", "--budget",
      "1"], {"passed": True, "trials": 0}),
    (["consistency", "--schedules", "0"],
     {"failures": [], "programs": 1, "schedules": 0}),
    (["run-spec", "--random", "0"], {"stuck_at": None, "stuck_reason": "",
                                     "terminal": False, "trace": []}),
])
def test_least_counts_are_accepted(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv, "--json", EX1)
    assert (code, json.loads(out), err) == (0, want, "")
