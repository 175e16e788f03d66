"""Benchmark of the static repair pipeline and the speculative machine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload repair-large --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same work
untraced and traced, and prints the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.  See
README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import NOMINAL_S, reference

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 31

END_TO_END_UNITS = {
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "max_ok_stmts": "stmts",
}


def _use_checkout_source() -> None:
    """Import the library from this checkout's `src/`, never from anywhere
    else on the path."""
    src = ROOT / "src"
    if not (src / "specrepair" / "__init__.py").is_file():
        sys.exit(f"perfbench: library source not found under {src}")
    sys.path.insert(0, str(src))


def reference_then_collect() -> float:
    """Run the machine-speed reference between two full collections, so
    that the job which follows starts from the same collector state every
    time and the collections it triggers fall at the same allocations."""
    gc.collect()
    seconds = reference()
    gc.collect()
    return seconds


class Tally:
    """Outcomes of every job run, checked against the known answers, and
    job times scaled to the nominal machine speed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: dict[tuple[str, str], int] = {}
        self.samples_ms: list[float] = []
        self.job_ms: dict[str, list[float]] = {}
        self.job_work: dict[str, float] = {}
        self.reference_s: list[float] = []
        self.first_pass: list[str] | None = None
        self.nondeterministic = False

    def scale(self) -> float:
        """Nominal over measured reference time, for the whole run."""
        return NOMINAL_S / statistics.fmean(self.reference_s)

    def run_pass(self, jobs) -> None:
        verdicts = []
        raw_ms = []
        references = []
        for job in jobs:
            references.append(reference_then_collect())
            started = time.perf_counter()
            try:
                outcome = job.run()
                verdict, status = outcome.verdict, outcome.status
                self.job_work[job.label] = outcome.work
            except Exception:  # noqa: BLE001 - counted as a failed operation
                if not any(label == job.label for label, _ in self.failed):
                    traceback.print_exc(file=sys.stderr)
                verdict, status = f"{job.label} error", "error"
            raw_ms.append(1e3 * (time.perf_counter() - started))
            self.attempted += 1
            if status != "ok":
                key = (job.label, status)
                self.failed[key] = self.failed.get(key, 0) + 1
            verdicts.append(verdict)
        # each pass is scaled by the machine speed seen during that pass
        scale = NOMINAL_S / statistics.fmean(references)
        self.reference_s += references
        for job, ms in zip(jobs, raw_ms):
            self.samples_ms.append(ms * scale)
            self.job_ms.setdefault(job.label, []).append(ms * scale)
        if self.first_pass is None:
            self.first_pass = verdicts
        elif verdicts != self.first_pass:
            self.nondeterministic = True

    @property
    def failed_count(self) -> int:
        return sum(self.failed.values())

    @property
    def wrong(self) -> bool:
        return any(status in ("wrong", "error") for _, status in self.failed)

    def work_per_s(self) -> float:
        """Work of one pass over the sum of each job's median time, so a
        slow spell during one pass does not move the figure."""
        total_ms = sum(statistics.median(times)
                       for times in self.job_ms.values())
        return 1e3 * sum(self.job_work.values()) / total_ms

    def digest(self) -> str:
        text = "\n".join(self.first_pass or [])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def timed_iterations(body, seconds: float) -> list[float]:
    """Run `body` until `seconds` have passed, always to the end of a run
    and at least once.  Returns each run's duration."""
    durations: list[float] = []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        body()
        durations.append(time.perf_counter() - began)
    return durations


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics, the weights being the mass of a Beta(p(n+1),
    (1-p)(n+1)) density over each rank's slice of [0, 1].  One slow or fast
    job then moves it a little instead of making it jump to a neighbouring
    job's time, which a single order statistic does when job times cluster
    with gaps between them."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32  # trapezoid points per rank
    weights = []
    for i in range(n):
        xs = [(i + k / steps) / n for k in range(steps + 1)]
        ys = [math.exp(log_norm + (a - 1) * math.log(x)
                       + (b - 1) * math.log1p(-x)) if 0 < x < 1 else 0.0
              for x in xs]
        weights.append((sum(ys) - (ys[0] + ys[-1]) / 2) / (steps * n))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of `n` samples beyond it,
    but never below the median."""
    return max(50.0, 100.0 * (n - 10) / n)


def end_to_end(workload, tally: Tally, seed: int, seconds: float) -> dict:
    from workloads import max_ok_stmts

    setup_times = []
    references = []
    for _ in range(SETUP_REPEATS):
        references.append(reference_then_collect())
        began = time.perf_counter()
        jobs = workload.setup(seed)
        setup_times.append(time.perf_counter() - began)
    setup_scale = NOMINAL_S / statistics.fmean(references)
    passes = timed_iterations(lambda: tally.run_pass(jobs), seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail_pct = tail_percentile(len(tally.samples_ms))
    tail_ms = quantile(tally.samples_ms, tail_pct / 100)
    values = {
        "work_per_s": tally.work_per_s(),
        "op_ms_p50": quantile(tally.samples_ms, 0.5),
        "op_ms_tail": tail_ms,
        "setup_s": statistics.median(setup_times) * setup_scale,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": (tally.attempted - tally.failed_count) / tally.attempted,
        # untimed, after the peak memory reading
        "max_ok_stmts": max_ok_stmts(seed),
    }
    p = f"{workload.prefix}_{workload.op}"
    print(f"jobs per pass {len(jobs)}, passes {len(passes)}, "
          f"window {sum(passes):.3f} s, times scaled by {tally.scale():.4g} "
          f"to the nominal machine speed")
    print(f"{workload.prefix}_{workload.unit}_per_s = work_per_s = "
          f"{values['work_per_s']:.6g} {workload.unit}/s")
    print(f"{p}_ms_p50 = op_ms_p50 = {values['op_ms_p50']:.6g} ms "
          f"(n={len(tally.samples_ms)})")
    print(f"{p}_ms_tail = op_ms_tail = {tail_ms:.6g} ms "
          f"(p{tail_pct:.1f} of n={len(tally.samples_ms)})")
    print(f"error_share = {1 - values['ok_share']:.6g} "
          f"({tally.failed_count} of {tally.attempted})")
    for name in ("setup_s", "peak_rss_mb", "max_ok_stmts"):
        print(f"{name} = {values[name]:.6g} {END_TO_END_UNITS[name]}")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def per_layer(workload, tally: Tally, seed: int, seconds: float) -> dict:
    """Each set-up and each job runs twice in a row, untraced and traced
    in alternating order, so the two runs see the same machine and their
    difference is the tracing overhead; the spans come from the traced
    runs only."""
    import layers
    from spans import Tracer
    from workloads import Job, Outcome

    tracer = Tracer()
    spent = {False: 0.0, True: 0.0}

    def timed(traced: bool, fn):
        gc.collect()
        if traced:
            layers.install(tracer)
        began = time.perf_counter()
        try:
            return fn()
        finally:
            spent[traced] += time.perf_counter() - began
            if traced:
                tracer.uninstall()

    def iteration() -> None:
        jobs = timed(False, lambda: workload.setup(seed))
        timed(True, lambda: workload.setup(seed))
        tally.run_pass([paired(job, k % 2 == 1) for k, job in enumerate(jobs)])

    def paired(job, traced_first: bool):
        def run():
            order = (True, False) if traced_first else (False, True)
            outcomes = {traced: timed(traced, job.run) for traced in order}
            if outcomes[False] != outcomes[True]:
                return Outcome(f"{job.label} differs when traced", "wrong", 0)
            return outcomes[False]
        return Job(job.label, run)

    iterations = len(timed_iterations(iteration, seconds))
    scale = tally.scale()
    values = layers.metrics(tracer, iterations, scale,
                            spent[False] / iterations,
                            spent[True] / iterations)
    print(f"iterations {iterations}, times scaled by {scale:.4g} to the "
          f"nominal machine speed; per traced iteration:")
    units = dict(layers.PER_LAYER)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def main(argv=None) -> int:
    _use_checkout_source()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    problems = workload.self_check(args.seed)
    for problem in problems:
        print(f"self-check: {problem}")
    tally = Tally()
    if args.trace:
        metrics = per_layer(workload, tally, args.seed, args.seconds)
    else:
        metrics = end_to_end(workload, tally, args.seed, args.seconds)

    for (label, status), times in sorted(tally.failed.items()):
        print(f"failed: {label}: {status} x{times}")
    if tally.nondeterministic:
        print("verdicts differ between passes of the same seed")
    print(f"verdict digest {args.workload} seed={args.seed}: "
          f"{tally.digest()}")
    correct = not (problems or tally.wrong or tally.nondeterministic)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed_count, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
