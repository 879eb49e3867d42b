"""One workload run in a fresh process: set up, time the closed loop, check.

Started by run.py as ``python3 perfbench/worker.py ...`` with ``src`` on
PYTHONPATH and BLAS/OpenMP pools at one thread.  ``--spawned-ns`` is the
parent's CLOCK_MONOTONIC reading just before it started this process, so
set-up time covers interpreter start, ``import kronx``, input generation
and warm-up.  The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from fractions import Fraction


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("run", "setup"), default="run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes of every band (smoke test)")
    p.add_argument("--spawned-ns", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-file", help="where the traced run writes its spans")
    return p.parse_args(argv)


MIN_CYCLES = 3
TIME_CAP = 3.0  # a run ends early only after this many times --seconds
REFERENCE_REPS = 5


def reference_table() -> dict:
    """The reference computation's working set: 20k entries with tuple
    keys, enough to leave the core's own caches.  It is built once, before
    timing, and only read afterwards, so its layout in memory stays fixed
    and it adds a constant to the resident memory, not a transient peak
    that could hide kronx's own."""
    return {((i * 7919) % 4093, i % 61): complex(i, 1.5 * i) for i in range(20000)}


def reference_work(table: dict) -> int:
    """A fixed pure-Python computation that times the machine, not kronx:
    rational arithmetic, complex floats, a sorted walk over a large dict
    with tuple keys and a small JSON round trip, the kinds of work kronx
    requests do."""
    q = Fraction(0)
    z = 0j
    for i in range(1, 800):
        q += Fraction(i % 13 + 1, i % 29 + 1)
        z = z * (0.5 + 0.25j) + complex(i, -i)
    for key in sorted(table):
        z += table[key]
    rows = [[i, i + 1, i * 3, 7] for i in range(1000)]
    return len(json.loads(json.dumps(rows))) + len(str(q)) + int(z.real > 0)


def reference_times(table: dict, reps: int = REFERENCE_REPS):
    """Seconds per reference_work, with the garbage collector off so the
    size of kronx's heap cannot change the reading."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(reps):
            t0 = time.perf_counter()
            reference_work(table)
            out.append(time.perf_counter() - t0)
        return out
    finally:
        if was_enabled:
            gc.enable()


def cycle_count(workload, seconds: float) -> int:
    """Cycles an untraced run makes: --seconds over the workload's cycle
    time at nominal speed, and at least three, so every slot repeats at
    least three times and every run of one seed does the same work."""
    return max(MIN_CYCLES, round(seconds / workload.CYCLE_S))


def timed_loop(workload, cycles: int, seconds: float, tracer=None):
    """Closed loop: issue the next request when the previous one returns,
    for ``cycles`` whole cycles (fewer only if the loop passes TIME_CAP
    times ``seconds``).  The reference computation is timed before each
    cycle and after the last; its time is not part of the loop time."""
    done = []  # (request, output or None, error text or None, latency s)
    table = reference_table()
    reference = []
    clock = time.perf_counter
    t_start = clock()
    for cycle in range(cycles):
        reference += reference_times(table)
        for req in workload.cycle(cycle):
            if tracer is not None:
                tracer.request_id = req.seq
            t0 = clock()
            try:
                output, error = workload.execute(req), None
            except Exception as exc:  # a failed request is a result
                output, error = None, f"{type(exc).__name__}: {exc}"
            done.append((req, output, error, clock() - t0))
        if clock() - t_start > TIME_CAP * seconds:
            break
    reference += reference_times(table)
    return done, clock() - t_start - sum(reference), reference


def check_all(name: str, workload, done):
    """Oracle verdicts, outside the timed region: a list of failure
    reasons, one per failed request."""
    from oracles import CHECKS, same_output

    check = CHECKS[name]
    failures = []
    verified = {}  # (band, slot) -> output of its first, fully checked, run
    for req, output, error, _lat in done:
        key = (req.band, req.slot)
        if error is None:
            try:
                if key in verified:
                    if not same_output(verified[key], output):
                        error = "output differs from the verified first repeat"
                else:
                    error = check(workload, req, output)
                    if error is None and req.band in workload.FIXED_BANDS:
                        verified[key] = output
            except Exception as exc:  # a malformed result fails its check
                error = f"oracle: {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"#{req.seq} {req.band}: {error}")
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    import kronx  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir, tiny=args.tiny)
    workload.warm_up()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    result = {"setup_s": setup_s, "kronx_file": kronx.__file__}
    if args.mode == "setup":
        # this process's speed, for scaling its set-up time
        result["reference_s"] = reference_times(reference_table())
    else:
        # a traced run gives per-request layer totals: one cycle is enough
        cycles = 1 if tracer is not None else cycle_count(workload, args.seconds)
        done, loop_s, reference = timed_loop(workload, cycles, args.seconds, tracer)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
        failures = check_all(args.workload, workload, done)
        result.update(
            loop_s=loop_s,
            reference_s=reference,
            latencies_s=[lat for *_, lat in done],
            slots=[f"{req.band}/{req.slot}" for req, *_ in done],
            attempted=len(done),
            failed=len(failures),
            failures=failures[:20],
            peak_rss_mb=peak_kb / 1024.0,
        )
        if tracer is not None:
            result["layers"] = tracer.totals()
            result["counts"] = dict(tracer.count)
            if args.trace_file:
                tracer.save(args.trace_file)
    shutil.rmtree(args.workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
