#!/usr/bin/env python3
"""Regenerate the byte-exact golden CLI outputs for the bundled corpus.

Run after any intentional output change, then review the diff:

    python3 scripts/update_goldens.py
    git diff tests/goldens/
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from specrepair.cli import main
from specrepair.corpus import corpus_names, corpus_path

# The golden file's key for each command, and its argv before the program
# path.  tests/test_goldens.py replays this same table.
GOLDEN_COMMANDS = {
    "infer": ["infer", "--json"],
    "infer_v11": ["infer", "--mode", "v1.1", "--json"],
    "check": ["check", "--json"],
    "check_v11": ["check", "--mode", "v1.1", "--json"],
    "repair": ["repair", "--json"],
    "repair_slh_v11": ["repair", "--mode", "slh", "--v11", "--json"],
    "run_seq": ["run-seq", "--json"],
    "run_spec_random": ["run-spec", "--random", "200", "--seed", "1",
                        "--json"],
    "run_spec_random_slh": ["run-spec", "--random", "200", "--seed", "1",
                            "--mode", "slh", "--json"],
    "fuzz_sct": ["fuzz-sct", "--schedules", "random:20", "--pairs", "2",
                 "--seed", "1", "--json"],
    "fuzz_sct_exhaustive": ["fuzz-sct", "--schedules", "exhaustive",
                            "--pairs", "2", "--seed", "7", "--json"],
    "graph": ["graph", "--json"],
    "consistency": ["consistency", "--schedules", "30", "--seed", "3",
                    "--json"],
}


def capture(argv) -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return {"exit": code, "stdout": buffer.getvalue()}


def main_script() -> int:
    goldens = {}
    for name in corpus_names():
        path = str(corpus_path(name))
        goldens[name] = {key: capture(argv + [path])
                         for key, argv in GOLDEN_COMMANDS.items()}
    out = Path(__file__).resolve().parent.parent / "tests" / "goldens" / \
        "cli_outputs.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n")
    print(f"wrote {out} ({len(goldens)} programs)")
    return 0


if __name__ == "__main__":
    sys.exit(main_script())
