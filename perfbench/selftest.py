#!/usr/bin/env python3
"""Quick self-test of the benchmark: smallest size, every check on.

    python3 perfbench/selftest.py

For every job of each workload at its smallest size it checks that the
genuine answer passes, then feeds the check each of the job's
deliberately wrong answers and requires it to reject every one, so a
check that accepts anything shows.  A job that carries a named fault is
tested with the reply its mending would give instead.  It also runs two
rounds through the benchmark loop and two traced rounds, which must
record identical counts and leave the program unpatched.  Exits 1 if
anything was found.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# a reply that malformed input should get once it is handled
MENDED_REPLY = (1, json.dumps({"error": "bad entry", "path": "/values/1"}))


def check_job(job) -> list:
    if job.fault is not None:
        # the job fails today; its check must accept the reply the fault's
        # mending would give and reject the wrong one
        problems = []
        if job.check(MENDED_REPLY, None):
            problems.append(f"{job.name}: rejects the mended reply")
        for k, corrupt in enumerate(job.corruptions):
            if not job.check(*corrupt(MENDED_REPLY, None)):
                problems.append(f"{job.name}: wrong answer {k} accepted")
        return problems
    problems = []
    try:
        answer, evidence = job.run()
    except Exception as exc:
        return [f"{job.name}: raised {exc!r}"]
    found = job.check(answer, evidence)
    if found:
        problems.append(f"{job.name}: genuine answer rejected: {found}")
    for k, corrupt in enumerate(job.corruptions):
        # a fresh run per corruption: some corrupt the evidence in place
        answer, evidence = job.run()
        if not job.check(*corrupt(answer, evidence)):
            problems.append(f"{job.name}: wrong answer {k} accepted")
    if not job.corruptions:
        problems.append(f"{job.name}: no wrong answer to test its check with")
    return problems


def check_loop(workload) -> list:
    """Two rounds: the second must reproduce the first; a changed
    reference must be caught."""
    refs = {}
    first = run.run_round(workload, refs, workload.time_limit_s)
    second = run.run_round(workload, refs, workload.time_limit_s)
    problems = [f"loop: {u}" for u in first.unexpected + second.unexpected]
    if first.failed != second.failed:
        problems.append("loop: failed count changed between rounds")
    if refs:
        i = next(iter(refs))
        refs[i] = ("not", "the answer")
        third = run.run_round(workload, refs, workload.time_limit_s)
        if not third.unexpected:
            problems.append("loop: a changed answer went unnoticed")
    return problems


def check_tracer(name, workload) -> list:
    from qshape.exactalg import smith
    original = smith.kernel_basis
    tracer = tracing.Tracer()
    summaries = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            run.run_round(workload, {}, workload.time_limit_s, tracer)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
    problems = []
    if smith.kernel_basis is not original:
        problems.append("tracer: uninstall left a wrapper behind")
    missing = set(tracing.PER_LAYER_UNITS) - set(summaries[0]) - {"trace.overhead_s"}
    if missing:
        problems.append(f"tracer: metrics not reported: {sorted(missing)}")
    if name == "resolve_cold" and not summaries[0]["homology.resolve.summands"]:
        problems.append("tracer: the resolutions built by resolve_cold went unseen")
    counts = [{k: v for k, v in s.items() if tracing.PER_LAYER_UNITS[k] == "count"}
              for s in summaries]
    if counts[0] != counts[1]:
        diff = {k for k in counts[0] if counts[0][k] != counts[1][k]}
        problems.append(f"tracer: counts differ between rounds: {sorted(diff)}")
    return problems


def main() -> int:
    signal.signal(signal.SIGALRM, run._on_alarm)
    failures = []
    for name, build in workloads.WORKLOADS.items():
        workload = build(0, small=True)
        problems = []
        for job in workload.jobs:
            problems += check_job(job)
        problems += check_loop(workload)
        problems += check_tracer(name, workload)
        print(f"{name}: {len(workload.jobs)} jobs, "
              f"{sum(len(j.corruptions) for j in workload.jobs)} wrong answers, "
              f"{'ok' if not problems else 'FAILED'}", flush=True)
        for p in problems:
            print(f"  {p}")
        failures += problems
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
