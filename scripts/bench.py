#!/usr/bin/env python3
"""Compare two source trees on the benchmark and write `BENCH_<pr>.json`.

Each tree is a checkout of the repository (for example the parent commit
and the change, each unpacked with `git archive` into its own directory).
For every workload and seed, the script runs `perfbench/run.py --trace 0`
of each tree in pairs, one process at a time, the parent first in even
pairs and the change first in odd ones, so drift in the machine's speed
falls on both sides alike.  It records each run's end-to-end metrics and
verdict digest and, per metric, each side's quartiles, the relative
change of the medians, the number of pairs in which the change is
better, and whether the medians differ by more than the parent's
interquartile range.  Metric directions and bounds are read from
`BENCHMARK.json` beside this script.

Usage:

    python3 scripts/bench.py PARENT CHANGE --pr N [--workloads W ...]
        [--seeds 5 11] [--pairs 10] [--seconds 20] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
_DIGEST = re.compile(r"^verdict digest \S+ seed=\d+: (\w+)$", re.M)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` process in `tree`: its metrics, the
    verdict digest it prints, and its correct, attempted and failed
    fields."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"bench: {workload} seed {seed} in {tree.name} "
                         f"exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    digest = _DIGEST.search(done.stdout)
    return {"metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()},
            "digest": digest and digest.group(1),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"]}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summary(runs: dict, metric: dict) -> dict:
    """Quartiles of `metric` on each side, the change of the medians
    relative to the parent's, the pairs in which the change is better, and
    whether the medians differ, in the better direction, by more than the
    parent's interquartile range."""
    name, higher = metric["name"], metric["better"] == "higher"
    values = {side: [run["metrics"][name] for run in runs[side]]
              for side in SIDES}
    sides = {side: quartiles(values[side]) for side in SIDES}
    parent, change = sides["parent"]["median"], sides["change"]["median"]
    gain = change - parent if higher else parent - change
    better = sum((c > p) if higher else (c < p)
                 for p, c in zip(values["parent"], values["change"]))
    return {"unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], **sides,
            "relative_change": (change - parent) / parent if parent else 0.0,
            "pairs_better": better, "pairs": len(values["parent"]),
            "gap_exceeds_parent_iqr":
                gain > sides["parent"]["q3"] - sides["parent"]["q1"]}


def compare(trees: dict, workload: str, seed: int, pairs: int,
            seconds: float, metrics: list[dict]) -> dict:
    runs: dict = {side: [] for side in SIDES}
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_once(trees[side], workload, seed, seconds)
            run["pair"], run["first"] = k, side == order[0]
            runs[side].append(run)
            print(f"{workload} seed {seed} pair {k} {side}: "
                  + ", ".join(f"{m['name']}={run['metrics'][m['name']]:.6g}"
                              for m in metrics), file=sys.stderr)
    digests = {side: sorted({run["digest"] for run in runs[side]})
               for side in SIDES}
    return {"runs": runs,
            "metrics": {m["name"]: summary(runs, m) for m in metrics},
            "digests": digests,
            "digests_equal": digests["parent"] == digests["change"]
            and len(digests["parent"]) == 1,
            "all_correct": all(run["correct"] for side in SIDES
                               for run in runs[side])}


def main(argv=None) -> int:
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[5, 11])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=spec.get("run_seconds", 20))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{side} tree has no perfbench/run.py")
    report = {
        "pr": args.pr, "pairs": args.pairs, "seconds": args.seconds,
        "seeds": args.seeds,
        "machine": {"python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "system": platform.system(), "cpus": os.cpu_count()},
        "workloads": {
            workload: {str(seed): compare(trees, workload, seed, args.pairs,
                                          args.seconds, spec["end_to_end"])
                       for seed in args.seeds}
            for workload in args.workloads},
    }
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
