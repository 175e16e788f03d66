#!/usr/bin/env python3
"""Differentially fuzz the corpus for speculative constant time.

Each constant-time program is repaired under the chosen analysis flags and
then fuzzed: pairs of policy-equivalent states run under identical directive
schedules must produce identical raw traces and equivalent public finals.
The unrepaired programs are fuzzed too, to show which ones actually leak.
The `distinct` column counts the repaired run's pairs whose two states
differ; a pass with 0 there is vacuous, since equal states cannot leak.
"""

import argparse
import dataclasses
import sys

from specrepair.corpus import load_all
from specrepair.harness import sct_fuzz
from specrepair.machine import MODE_HW, MODE_SLH
from specrepair.repair import pipeline
from specrepair.typesys import Mode, typecheck_ct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=[MODE_HW, MODE_SLH],
                        default=MODE_HW, help="protect implementation")
    parser.add_argument("--v11", action="store_true",
                        help="repair against stored-value forwarding too")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--schedules", type=int, default=100,
                        help="random schedules per pair")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    analysis = Mode(spectre_v1_1=args.v11,
                    slh_only_cuts=(args.mode == MODE_SLH))
    failures = 0
    print(f"{'program':24} {'ct':3} {'cut':>3} {'unrepaired':>11} "
          f"{'repaired':>9} {'trials':>7} {'distinct':>8}")
    for name, program in load_all():
        ct_ok = not typecheck_ct(program.policy, program.command,
                                 program.arrays, program.variables())
        if not ct_ok:
            print(f"{name:24} {'no':3} {'-':>3} {'-':>11} {'-':>9} {'-':>7} "
                  f"{'-':>8}")
            continue
        before = sct_fuzz(program, mode=args.mode, schedules="random",
                          schedule_count=args.schedules, pairs=args.pairs,
                          seed=args.seed)
        report = pipeline(program.command, analysis, program.variables())
        repaired = dataclasses.replace(program, command=report.repaired,
                                       warnings=[])
        after = sct_fuzz(repaired, mode=args.mode, schedules="random",
                         schedule_count=args.schedules, pairs=args.pairs,
                         seed=args.seed)
        if not after.passed:
            failures += 1
        print(f"{name:24} {'yes':3} {len(report.cut):>3} "
              f"{'leaks' if not before.passed else 'pass':>11} "
              f"{'pass' if after.passed else 'LEAKS':>9} "
              f"{after.trials:>7} {after.distinct_pairs:>8}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
