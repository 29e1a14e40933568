#!/usr/bin/env python3
"""qshape benchmark: one workload per process, closed loop, one job in flight.

    python3 perfbench/run.py --workload resolve_cold --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload's seeded job list until --seconds have
passed (at least three rounds), checks every output, and prints one JSON
line: correct, attempted, failed and the metrics.

--trace 0 reports the end-to-end metrics (set-up time, throughput,
median job time, peak memory), with times scaled to a reference machine
speed measured alongside every job (see calibrate()).  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics
of the traced ones, plus the tracing overhead; its spans are written to
perfbench/out/ when it ends.
"""

import argparse
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

# Job, import and set-up times are scaled to a fixed machine speed.  The
# machine this benchmark was built on ran the same code up to 1.5x slower
# for seconds to minutes at a time, which moved raw times 20-60% between
# runs.  A fixed pure-integer loop, timed before and after every job,
# measures that speed; each time is multiplied by CALIBRATION_REF_S over
# the mean of the two loop times, i.e. reported as if the loop took
# exactly CALIBRATION_REF_S (its time on that machine, Python 3.11.7).
# The loop allocates no containers, so no garbage collection lands in it.
CALIBRATION_LOOPS = 5000
CALIBRATION_REF_S = 0.55e-3


def calibrate() -> float:
    t0 = perf_counter()
    x = 1
    for _ in range(CALIBRATION_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return perf_counter() - t0


def scaled(seconds, before, after) -> float:
    return seconds * CALIBRATION_REF_S * 2.0 / (before + after)


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
MIN_ROUNDS = 3
WORKLOAD_NAMES = ("resolve_cold", "homology_warm", "cli_requests")
END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "p50_ms": "ms",
                    "peak_rss_mb": "MB"}


class JobTimeout(BaseException):
    """Raised into a job by the interval timer; BaseException so that no
    `except Exception` inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


class Round:
    def __init__(self):
        self.times = []    # raw seconds per job
        self.scaled = []   # the same, scaled to the reference speed
        self.failed = 0
        self.unexpected = []


def run_round(workload, refs, limit_s, tracer=None) -> Round:
    """Every job of the list once; refs holds first-round answers that
    passed their checks, which later rounds must reproduce."""
    out = Round()
    speed = calibrate()
    for i, job in enumerate(workload.jobs):
        mark = tracer.mark() if tracer is not None else None
        answer = evidence = None
        try:
            t0 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                answer, evidence = job.run()
            finally:
                dt = perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
            error = None
        except JobTimeout:
            error = f"over the {limit_s:g} s time limit"
            if tracer is not None:
                tracer.rollback(mark)
        except Exception as exc:  # a job's failure is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        after = calibrate()
        out.times.append(dt)
        out.scaled.append(scaled(dt, speed, after))
        speed = after
        if error is not None:
            problems = [error]
        elif i in refs:
            problems = [] if answer == refs[i] else \
                ["answer differs from the first round"]
        else:
            problems = job.check(answer, evidence)
            if not problems:
                refs[i] = answer
        del answer, evidence
        if problems:
            out.failed += 1
            if job.fault is None:
                out.unexpected.append(f"{job.name}: {'; '.join(problems)}")
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seconds, limit_s):
    """Rounds until --seconds have passed, and at least MIN_ROUNDS."""
    refs = {}
    rounds = []
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
        rounds.append(run_round(workload, refs, limit_s))
    return rounds


def measure_traced(workload, seconds, limit_s, tracer):
    """Pairs of an untraced and a traced round; the untraced one runs
    the unmodified program and gives the baseline for the overhead."""
    refs = {}
    plain, traced, summaries = [], [], []
    spans = None
    start = perf_counter()
    while True:
        plain.append(run_round(workload, refs, limit_s))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_round(workload, refs, limit_s, tracer))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        if spans is None:
            spans = tracer.span_records()
        if perf_counter() - start >= seconds:
            return plain, traced, summaries, spans


def import_qshape():
    """Import every qshape module afresh."""
    for name in [m for m in sys.modules if m == "qshape" or m.startswith("qshape.")]:
        del sys.modules[name]
    import qshape.cli  # noqa: F401  (imports every other module)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qshape" / "__init__.py").is_file() or \
            not (ROOT / "fixtures" / "counter.json").is_file():
        print(f"perfbench: no qshape sources and fixtures under {ROOT}",
              file=sys.stderr)
        return 2
    # compile the sources on every import, so set-up time does not depend
    # on whether an earlier run left bytecode behind
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import_times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = perf_counter()
        import_qshape()
        import_times.append(scaled(perf_counter() - t0, before, calibrate()))
    import tracing
    import workloads

    build = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload = None
        before = calibrate()
        t0 = perf_counter()
        workload = build(args.seed)
        setup_times.append(scaled(perf_counter() - t0, before, calibrate()))
    signal.signal(signal.SIGALRM, _on_alarm)

    if args.trace:
        tracer = tracing.Tracer()
        plain, traced, summaries, spans = measure_traced(
            workload, args.seconds, workload.time_limit_s, tracer)
        rounds = plain + traced
        values = tracing.median_summary(summaries)
        values["trace.overhead_s"] = (
            statistics.median(sum(r.scaled) for r in traced)
            - statistics.median(sum(r.scaled) for r in plain))
        metrics = {k: _metric(values[k], unit)
                   for k, unit in tracing.PER_LAYER_UNITS.items()}
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "fields": ["name", "start_s", "end_s", "parent"], "spans": spans}))
    else:
        rounds = measure(workload, args.seconds, workload.time_limit_s)
        # each job's median scaled time over the rounds
        per_job = [statistics.median(t) for t in zip(*(r.scaled for r in rounds))]
        passed = sum(len(r.times) - r.failed for r in rounds) / len(rounds)
        wall = sum(sum(r.times) for r in rounds)
        print(f"perfbench: unscaled jobs_per_s {passed * len(rounds) / wall:.4f}, "
              f"speed factor {sum(map(sum, (r.scaled for r in rounds))) / wall:.4f}",
              file=sys.stderr)
        values = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "jobs_per_s": passed / sum(per_job),
            "p50_ms": statistics.median(per_job) * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: _metric(values[k], unit) for k, unit in END_TO_END_UNITS.items()}

    unexpected = [u for r in rounds for u in r.unexpected]
    for line in unexpected[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": not unexpected,
                      "attempted": sum(len(r.times) for r in rounds),
                      "failed": sum(r.failed for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
