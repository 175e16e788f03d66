"""The whole-program entry points pause the cyclic garbage collector.

`parse_program`, `pipeline`, `sct_fuzz` and `consistency_suite` run with
the collector off (`lang.collector_paused`) and turn it back on only if
they found it on.  That is safe only because they leave no garbage that
needs the collector: parse and `pipeline` leave none, and the machine
leaves one bounded cycle per lowered loop (`machine._fetched`), the same
however many pairs or walks a call makes.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import inspect

import pytest

from specrepair.corpus import corpus_names, corpus_path, load_program
from specrepair.harness import consistency_suite, sct_fuzz
from specrepair.machine import MODE_HW, MODE_SLH
from specrepair.parser import ParseError, parse_program
from specrepair.repair import pipeline
from specrepair.typesys import Mode
from test_long_programs import long_program_text

MODES = [Mode(v1_1, slh) for v1_1 in (False, True) for slh in (False, True)]
ENTRY_POINTS = [parse_program, pipeline, sct_fuzz, consistency_suite]


@pytest.fixture
def collector_on():
    """The collector on for the test, and as it was after it."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.fixture
def frozen_heap():
    """Every object alive now left out of collections during the test, so
    that each `garbage_left` scans only what the test made."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


def garbage_left(call) -> int:
    """How many unreachable objects `call()` leaves to the collector."""
    gc.collect()
    call()
    return gc.collect()


@pytest.mark.parametrize("name", corpus_names() + ["long_program_text"])
def test_parse_and_pipeline_leave_no_cyclic_garbage(name, frozen_heap):
    text = (long_program_text() if name == "long_program_text"
            else corpus_path(name).read_text())

    def analyse():
        for mode in MODES:
            program = parse_program(text)
            pipeline(program.command, mode, program.variables())

    assert garbage_left(analyse) == 0


@pytest.mark.parametrize("name", corpus_names())
def test_machine_garbage_does_not_grow_with_pairs(name, frozen_heap):
    program = load_program(name)
    report = pipeline(program.command, Mode(), program.variables())
    repaired = dataclasses.replace(program, command=report.repaired)
    # `lower_protects` rebuilds a loop that holds a protect, and the new
    # loop's fetched unrolling refers back to it
    expected = {MODE_HW: 22, MODE_SLH: 31} if name == "loop_protect" \
        else {MODE_HW: 0, MODE_SLH: 0}
    for mode in (MODE_HW, MODE_SLH):
        calls = {
            "random": lambda n: sct_fuzz(repaired, mode, pairs=n,
                                         schedule_count=5),
            "exhaustive": lambda n: sct_fuzz(repaired, mode, pairs=n,
                                             schedules="exhaustive"),
            "consistency": lambda n: consistency_suite(
                [(name, repaired)], per_program_schedules=n, mode=mode),
        }
        for kind, call in calls.items():
            counts = [garbage_left(lambda: call(n)) for n in (1, 10)]
            assert counts == [expected[mode]] * 2, (mode, kind)


def _spy(monkeypatch, module: str, name: str) -> list[bool]:
    """Record whether the collector is on at each call of `module.name`."""
    seen: list[bool] = []
    # the package binds `specrepair.repair` to the function `repair`
    module = importlib.import_module(f"specrepair.{module}")
    inner = getattr(module, name)

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return seen


def _calls():
    """Each entry point, one call of it, and a function it calls inside."""
    ex1 = load_program("ex1")
    return [
        ("parser", "seq_all", lambda: parse_program("var x = 0;\nx := 1;\n")),
        ("repair", "min_cut",
         lambda: pipeline(ex1.command, Mode(), ex1.variables())),
        ("harness", "lower_protects", lambda: sct_fuzz(ex1, pairs=1)),
        ("harness", "run_sequential",
         lambda: consistency_suite([("ex1", ex1)], per_program_schedules=1)),
    ]


@pytest.mark.parametrize("index", range(len(ENTRY_POINTS)),
                         ids=[f.__name__ for f in ENTRY_POINTS])
def test_collector_is_off_inside_and_restored(index, monkeypatch,
                                              collector_on):
    module, inner, call = _calls()[index]
    seen = _spy(monkeypatch, module, inner)
    call()
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("index", range(len(ENTRY_POINTS)),
                         ids=[f.__name__ for f in ENTRY_POINTS])
def test_collector_stays_off_when_the_caller_turned_it_off(index,
                                                           collector_on):
    call = _calls()[index][2]
    gc.disable()
    call()
    assert not gc.isenabled()


def test_collector_is_restored_after_a_raise(collector_on):
    with pytest.raises(ParseError):
        parse_program("var x = 0;\n")
    assert gc.isenabled()
    gc.disable()
    with pytest.raises(ParseError):
        parse_program("var x = 0;\n")
    assert not gc.isenabled()


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_entry_points_keep_their_signature_and_doc(entry):
    inner = entry.__wrapped__
    assert inspect.signature(entry) == inspect.signature(inner)
    assert "args" not in inspect.signature(entry).parameters
    assert (entry.__name__, entry.__doc__) == (inner.__name__, inner.__doc__)
